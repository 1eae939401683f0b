//! Chaos suite: broadcast robustness under seeded fault injection.
//!
//! Sweeps message-drop rates over several topologies and compares a
//! fire-once flood (the paper's fault-free idiom) against the
//! acknowledgement-based `robust_broadcast` from `qdc-algos`. The
//! fire-once flood strands nodes as soon as a frontier message dies; the
//! hardened variant retransmits until each port is settled, so its
//! coverage stays at 100% on the surviving graph while its round count
//! grows with the loss rate. Every run is seeded — re-running the suite
//! reproduces the tables byte for byte.

use qdc_algos::flood::{chaos_round_budget, robust_broadcast};
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::{
    ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, NullTelemetry, Outbox,
    RunOptions, Simulator,
};
use qdc_graph::{generate, Graph, NodeId};

/// Fire-once flood: forward the token the first time it is heard, then
/// stay silent. Quiescence-driven, so lost frontier messages strand the
/// subtree behind them.
struct NaiveFlood {
    informed: bool,
}

impl NodeAlgorithm for NaiveFlood {
    fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
        if info.id == NodeId(0) {
            self.informed = true;
            out.broadcast(Message::from_uint(1, 2));
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        if !self.informed && !inbox.is_empty() {
            self.informed = true;
            out.broadcast(Message::from_uint(1, 2));
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

fn chaos(seed: u64, drop: f64, watchdog: usize) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_prob: drop,
        crash_schedule: Vec::new(),
        corrupt_prob: 0.02,
        max_rounds_watchdog: watchdog,
    }
}

fn main() {
    let cfg = CongestConfig::classical(8);
    let n = 24;
    let topologies: Vec<(&str, Graph)> = vec![
        ("path", Graph::path(n)),
        ("cycle", Graph::cycle(n)),
        ("sparse", generate::random_connected(n, n + 6, 11)),
    ];
    let drops = [0.0, 0.1, 0.2, 0.3];
    let seed = 7;

    println!("=== Chaos suite: broadcast coverage under message loss ===\n");
    println!(
        "n = {n}, B = {} bits, corrupt_prob = 0.02, seed = {seed}; coverage is the\n\
         fraction of nodes informed (fire-once flood vs ack-based robust flood)\n",
        cfg.bandwidth_bits
    );
    let widths = [8, 6, 11, 11, 12, 12, 9, 10];
    print_header(
        &[
            "topo",
            "drop",
            "naive_cov",
            "naive_rds",
            "robust_cov",
            "robust_rds",
            "dropped",
            "corrupted",
        ],
        &widths,
    );

    for (name, g) in &topologies {
        for &drop in &drops {
            let give_up = chaos_round_budget(n, drop);
            let cc = chaos(seed, drop, give_up + 5);

            let sim = Simulator::new(g, cfg);
            let (naive, naive_report) = sim
                .try_run(|_| NaiveFlood { informed: false }, &cc)
                .expect("fire-once flood quiesces");
            let naive_cov =
                naive.iter().filter(|x| x.informed).count() as f64 / g.node_count() as f64;

            let options = RunOptions::default();
            let out =
                robust_broadcast(g, cfg, options, NodeId(0), &cc, give_up, &mut NullTelemetry)
                    .expect("robust flood winds down within the budget");
            let robust_cov =
                out.informed.iter().filter(|&&x| x).count() as f64 / g.node_count() as f64;

            print_row(
                &[
                    name,
                    &fmt_f(drop),
                    &fmt_f(naive_cov),
                    &naive_report.rounds.to_string(),
                    &fmt_f(robust_cov),
                    &out.report.rounds.to_string(),
                    &out.report.messages_dropped.to_string(),
                    &out.report.bits_corrupted.to_string(),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nThe robust flood holds 100% coverage at every loss rate; the fire-once\n\
         flood degrades as soon as drop > 0. Round counts grow roughly like\n\
         1/(1 - drop), matching the retransmission budget in chaos_round_budget."
    );
}
