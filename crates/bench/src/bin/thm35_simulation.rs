//! Theorem 3.5: the Quantum Simulation Theorem, audited on real runs.
//!
//! Runs an event-driven component-labeling algorithm (the core of a Ham
//! verifier) on `N(Γ, L)` with an embedded subnetwork `M`, traces every
//! message, and charges each to the party owning its sender under the
//! ownership schedule `S_C^t / S_D^t / S_S^t`. The audited Carol+David
//! cost must stay within `6kB` per round — which is exactly the
//! `O(B log L)`-per-round claim of Theorem 3.5.

use qdc_bench::{print_header, print_row};
use qdc_congest::{
    CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Simulator, TrafficTrace,
};
use qdc_graph::generate;
use qdc_simthm::{audit_trace, SimulationNetwork};

struct ComponentFlood {
    label: u64,
    active_ports: Vec<bool>,
    width: usize,
}

impl NodeAlgorithm for ComponentFlood {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        for p in 0..self.active_ports.len() {
            if self.active_ports[p] {
                out.send(p, Message::from_uint(self.label, self.width));
            }
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let mut improved = false;
        for (port, msg) in inbox.iter() {
            if self.active_ports[port] {
                if let Some(v) = msg.as_uint(self.width) {
                    if v < self.label {
                        self.label = v;
                        improved = true;
                    }
                }
            }
        }
        if improved {
            for p in 0..self.active_ports.len() {
                if self.active_ports[p] {
                    out.send(p, Message::from_uint(self.label, self.width));
                }
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

fn main() {
    let bandwidth = 32;
    println!("=== Theorem 3.5: per-round Carol+David cost vs the 6kB budget ===\n");
    println!("workload: min-label flood along the embedded M (quantum channel, B = {bandwidth})\n");
    let widths = [6, 6, 6, 10, 10, 12, 14, 12, 10];
    print_header(
        &[
            "Γ",
            "L",
            "k",
            "horizon",
            "rounds",
            "paid bits",
            "max/round",
            "6kB budget",
            "within",
        ],
        &widths,
    );
    for &(gamma, l) in &[(11usize, 17usize), (11, 33), (11, 65), (27, 33), (59, 33)] {
        let mut net = SimulationNetwork::build(gamma, l);
        if net.track_count() % 2 == 1 {
            net = SimulationNetwork::build(gamma + 1, l);
        }
        let tracks = net.track_count();
        let (carol, david) = generate::hamiltonian_matching_pair(tracks);
        let m = net.embed_matchings(&carol, &david);
        let width = qdc_algos::widths::id_width(net.graph().node_count());
        let cfg = CongestConfig::quantum(bandwidth);
        let sim = Simulator::new(net.graph(), cfg);
        let mut trace = TrafficTrace::default();
        let (_, report) = sim.run_observed(
            |info| ComponentFlood {
                label: info.id.0 as u64,
                active_ports: info.incident_edges.iter().map(|&e| m.contains(e)).collect(),
                width,
            },
            net.horizon(),
            &mut trace,
        );
        let audit = audit_trace(&net, &trace, bandwidth);
        assert!(audit.within_budget, "Theorem 3.5 budget must hold");
        print_row(
            &[
                &net.path_count().to_string(),
                &net.length().to_string(),
                &net.highway_count().to_string(),
                &net.horizon().to_string(),
                &report.rounds.to_string(),
                &audit.total_paid().to_string(),
                &audit.max_paid_per_round.to_string(),
                &audit.per_round_budget.to_string(),
                &audit.within_budget.to_string(),
            ],
            &widths,
        );
    }
    println!("\nReading: the paid traffic per round is bounded by 6kB = O(B log L) regardless");
    println!("of Γ — so a T-round distributed algorithm yields an O(B log L · T)-bit Server");
    println!("protocol, and the Ω(Γ) Server-model hardness forces T = Ω(Γ/(B log L)).");
}
