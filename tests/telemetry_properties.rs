//! Property tests for the telemetry layer: observation never perturbs.
//!
//! Two contracts on random connected graphs and seeds:
//!
//! 1. **Fault-free differential**: `run_observed` with a
//!    [`TrafficTrace`] and a [`RoundProfiler`] riding together produces
//!    the same final states, `RunReport` and trace as a run traced
//!    alone, and folding the profile's per-round / per-edge / per-node
//!    counters reproduces the report's totals exactly.
//! 2. **Chaos differential**: the same holds for the fallible path —
//!    `robust_broadcast` under seeded drops + corruption + a crash,
//!    observed by a trace, a profile and a stream archive at once,
//!    matches the unobserved run bit for bit. Each sink's output is
//!    byte-identical to that sink riding alone, and messages, bits,
//!    drops and corrupted bits agree exactly across the `RunReport`, the
//!    trace, the profile and the stream footer.
//!
//! The CI chaos job re-runs these under several `QDC_CHAOS_SEED` values;
//! the seed perturbs every generated case while each individual run stays
//! fully deterministic.

use proptest::prelude::*;
use qdc::algos::flood::{chaos_round_budget, robust_broadcast};
use qdc::congest::{
    read_aggregate, ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo,
    NullTelemetry, Outbox, RoundProfiler, Simulator, StreamSink, TelemetryReport, TrafficTrace,
};
use qdc::graph::{generate, NodeId};

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Min-label flood with implicit termination (quiescence-driven).
#[derive(PartialEq, Eq, Debug)]
struct MinFlood {
    label: u64,
}

impl NodeAlgorithm for MinFlood {
    fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(self.label, 16));
    }
    fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let best = inbox.iter().filter_map(|(_, m)| m.as_uint(16)).min();
        if let Some(b) = best {
            if b < self.label {
                self.label = b;
                out.broadcast(Message::from_uint(b, 16));
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// Asserts the profile's three counter views (per-round, per-edge,
/// per-node) each sum to the same message/bit totals.
fn assert_internally_consistent(profile: &TelemetryReport) -> Result<(), TestCaseError> {
    let round_msgs: u64 = profile.rounds.iter().map(|r| r.messages).sum();
    let round_bits: u64 = profile.rounds.iter().map(|r| r.bits).sum();
    let edge_msgs: u64 = profile.edge_totals.iter().map(|e| e.messages).sum();
    let edge_bits: u64 = profile.edge_totals.iter().map(|e| e.bits).sum();
    let sent_msgs: u64 = profile.node_totals.iter().map(|n| n.sent_messages).sum();
    let recv_bits: u64 = profile.node_totals.iter().map(|n| n.recv_bits).sum();
    prop_assert_eq!(round_msgs, edge_msgs);
    prop_assert_eq!(round_bits, edge_bits);
    prop_assert_eq!(round_msgs, sent_msgs);
    prop_assert_eq!(round_bits, recv_bits);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-free: observing a traced run changes nothing, and the
    /// profile's counters reproduce the report exactly.
    #[test]
    fn telemetry_observed_traced_run_is_bit_identical(
        n in 4usize..20,
        extra in 0usize..8,
        seed in 0u64..200,
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| MinFlood { label: 1000 + info.id.0 as u64 };
        let sim = Simulator::new(&g, cfg);
        let mut plain_trace = TrafficTrace::default();
        let (plain, plain_report) = sim.run_observed(make, 100, &mut plain_trace);
        let mut profiler = RoundProfiler::new(g.node_count(), g.edge_count(), 16);
        let mut trace = TrafficTrace::default();
        let (observed, report) = sim.run_observed(make, 100, &mut (&mut trace, &mut profiler));
        let profile = profiler.finish();

        prop_assert_eq!(plain, observed);
        prop_assert_eq!(plain_report.clone(), report.clone());
        prop_assert_eq!(plain_trace.rounds, trace.rounds);

        prop_assert_eq!(profile.rounds.len(), report.rounds);
        let t = profile.totals();
        prop_assert_eq!(t.messages, report.messages_sent);
        prop_assert_eq!(t.bits, report.bits_sent);
        prop_assert_eq!(t.dropped, 0);
        prop_assert_eq!(t.corrupted_bits, 0);
        assert_internally_consistent(&profile)?;
        // The last observed round is the quiescent one that ends the run.
        prop_assert!(profile.rounds.last().is_some_and(|r| r.quiescent));
    }

    /// Under chaos: the observed fallible path matches the plain one bit
    /// for bit, and every sink accounts every fault. A trace, a profile
    /// and a stream archive ride one run together, each coming out
    /// byte-identical to the same sink riding alone.
    #[test]
    fn telemetry_observed_chaos_run_accounts_every_fault(
        n in 4usize..16,
        extra in 0usize..6,
        seed in 0u64..100,
        drop in 0.0f64..=0.25,
    ) {
        let g = generate::random_connected(n, n + extra, seed.wrapping_add(env_seed()));
        let give_up = chaos_round_budget(n, drop);
        let chaos = ChaosConfig {
            seed: seed ^ env_seed().rotate_left(17),
            drop_prob: drop,
            crash_schedule: vec![(NodeId(n as u32 - 1), 3)],
            corrupt_prob: 0.05,
            max_rounds_watchdog: give_up + 5,
        };
        let cfg = CongestConfig::classical(8);
        let (nodes, edges) = (g.node_count(), g.edge_count());
        let plain = robust_broadcast(&g, cfg, NodeId(0), &chaos, give_up, &mut NullTelemetry);
        let mut archive = Vec::new();
        let mut sinks = (
            TrafficTrace::default(),
            (
                RoundProfiler::new(nodes, edges, 8),
                StreamSink::new(&mut archive, nodes, edges, 8, 16),
            ),
        );
        let observed = robust_broadcast(&g, cfg, NodeId(0), &chaos, give_up, &mut sinks);
        let (trace, (profiler, stream)) = sinks;
        let profile = profiler.finish();
        let footer = stream.finish().expect("Vec<u8> writes cannot fail");

        // Riding together changes no sink's output.
        let mut solo_trace = TrafficTrace::default();
        let _ = robust_broadcast(&g, cfg, NodeId(0), &chaos, give_up, &mut solo_trace);
        prop_assert_eq!(solo_trace, trace);
        let mut solo_profiler = RoundProfiler::new(nodes, edges, 8);
        let _ = robust_broadcast(&g, cfg, NodeId(0), &chaos, give_up, &mut solo_profiler);
        prop_assert_eq!(solo_profiler.finish().to_jsonl(false), profile.to_jsonl(false));
        let mut solo_archive = Vec::new();
        let mut solo_stream = StreamSink::new(&mut solo_archive, nodes, edges, 8, 16);
        let _ = robust_broadcast(&g, cfg, NodeId(0), &chaos, give_up, &mut solo_stream);
        solo_stream.finish().expect("Vec<u8> writes cannot fail");
        prop_assert_eq!(&solo_archive, &archive);

        // The trace, the profile and the footer read back from the
        // archive count the same traffic…
        let read = read_aggregate(archive.as_slice()).expect("the archive parses");
        prop_assert_eq!(&read, &footer);
        let totals = read.totals;
        let traced_messages = trace.rounds.iter().map(Vec::len).sum::<usize>() as u64;
        let traced_bits: u64 = trace.rounds.iter().flatten().map(|m| m.bits as u64).sum();
        let traced_dropped: u64 = trace.dropped.iter().sum();
        let t = profile.totals();
        let profiled = (profile.rounds.len() as u64, t.messages, t.bits, t.dropped);
        prop_assert_eq!(
            (trace.rounds.len() as u64, traced_messages, traced_bits, traced_dropped),
            profiled
        );
        prop_assert_eq!(
            (totals.rounds, totals.messages, totals.bits, totals.dropped),
            profiled
        );
        prop_assert_eq!(totals.corrupted_bits, t.corrupted_bits);

        match (plain, observed) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.informed, b.informed);
                prop_assert_eq!(a.report.clone(), b.report.clone());
                // …and so does the engine's own report.
                prop_assert_eq!(profile.rounds.len(), b.report.rounds);
                prop_assert_eq!(t.messages, b.report.messages_sent);
                prop_assert_eq!(t.bits, b.report.bits_sent);
                prop_assert_eq!(t.dropped, b.report.messages_dropped);
                prop_assert_eq!(t.corrupted_bits, b.report.bits_corrupted);
                prop_assert_eq!(t.crashes, b.report.nodes_crashed);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "observation changed the outcome: {a:?} vs {b:?}"),
        }
        assert_internally_consistent(&profile)?;
        // The profile itself round-trips through its JSONL schema.
        let back = TelemetryReport::from_jsonl(&profile.to_jsonl(false))
            .expect("profile serializes validly");
        prop_assert_eq!(back.to_jsonl(false), profile.to_jsonl(false));
    }

    /// Histogram mass conservation (the PR's accounting bugfix): each
    /// round's utilisation buckets sum to that round's *live* capacity —
    /// 2·|E| minus both directed slots of every edge with a crashed
    /// endpoint — computed here independently from the graph and the
    /// crash schedule alone.
    #[test]
    fn telemetry_histogram_mass_equals_live_capacity(
        n in 4usize..16,
        extra in 0usize..6,
        seed in 0u64..100,
        drop in 0.0f64..=0.2,
        crash_round in 1usize..6,
    ) {
        let g = generate::random_connected(n, n + extra, seed.wrapping_add(env_seed()));
        let give_up = chaos_round_budget(n, drop);
        let crashes = vec![
            (NodeId(n as u32 - 1), crash_round),
            (NodeId(n as u32 / 2), crash_round + 2),
        ];
        let chaos = ChaosConfig {
            seed: seed ^ env_seed().rotate_left(29),
            drop_prob: drop,
            crash_schedule: crashes.clone(),
            corrupt_prob: 0.05,
            max_rounds_watchdog: give_up + 5,
        };
        let mut profiler = RoundProfiler::new(g.node_count(), g.edge_count(), 8);
        let _ = robust_broadcast(
            &g, CongestConfig::classical(8), NodeId(0), &chaos, give_up, &mut profiler,
        );
        let profile = profiler.finish();
        let live_capacity = |round: usize| -> u64 {
            let dead = |v: NodeId| crashes.iter().any(|&(c, r)| c == v && round >= r.max(1));
            2 * g.edges()
                .map(|e| g.endpoints(e))
                .filter(|&(a, b)| !dead(a) && !dead(b))
                .count() as u64
        };
        for r in &profile.rounds {
            let mass: u64 = r.util.iter().sum();
            prop_assert_eq!(
                mass,
                live_capacity(r.round),
                "round {}: histogram mass must equal live capacity",
                r.round
            );
        }
    }
}
