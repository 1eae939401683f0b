//! The three-party simulation audit of Theorem 3.5.
//!
//! The proof of Theorem 3.5 simulates a distributed algorithm on `N` by
//! Carol, David and the server, where at time `t` each party *owns* the
//! nodes of `S_C^t / S_D^t / S_S^t` and simulates their state
//! transitions. The only communication Carol and David must pay for is
//! the messages their own nodes send across the advancing ownership
//! frontier — and because only **highway** edges can jump more than one
//! column, at most `k` such messages (of ≤ `B` bits) exist per party per
//! round, giving the `O(B log L)`-per-round budget.
//!
//! [`audit_trace`] performs this accounting on a *real* run of any
//! distributed algorithm (captured by a [`TrafficTrace`] sink riding
//! [`qdc_congest::Simulator::run_observed`]), charging each delivered
//! message to the party owning its sender, and checks the per-round paid
//! traffic against the `6kB` budget the theorem uses.
//!
//! [`audited_flood`] is the audit every Theorem 3.5 experiment runs: the
//! [`ComponentFlood`] along an embedded subnetwork `M`, traced up to the
//! horizon and audited.

use crate::network::{Party, SimulationNetwork};
use qdc_algos::widths::id_width;
use qdc_congest::{
    CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, RunReport, Simulator,
    Telemetry, TrafficTrace,
};
use qdc_graph::{NodeId, Subgraph};

/// Event-driven minimum-label flood along a subnetwork `M`: the
/// component-labeling core of a Hamiltonian-cycle verifier, and the
/// workload of every Theorem 3.5 audit.
///
/// Each node starts with its own id as its label and sends it on every
/// port whose edge lies in `M`. A node that hears a smaller label on
/// such a port adopts it and sends it on again; traffic on other ports
/// is ignored. On a 2-regular `M` the labels agree iff `M` is one cycle.
#[derive(Clone, Debug)]
pub struct ComponentFlood {
    label: u64,
    active_ports: Vec<bool>,
    width: usize,
}

impl ComponentFlood {
    /// The initial state of node `info` for a flood along `m`, sending
    /// labels as `width`-bit integers.
    pub fn along(info: &NodeInfo, m: &Subgraph, width: usize) -> Self {
        ComponentFlood {
            label: info.id.0 as u64,
            active_ports: info.incident_edges.iter().map(|&e| m.contains(e)).collect(),
            width,
        }
    }

    /// The smallest label this node has heard (its own id at first).
    pub fn label(&self) -> u64 {
        self.label
    }

    fn send_all(&self, out: &mut Outbox) {
        for p in 0..self.active_ports.len() {
            if self.active_ports[p] {
                out.send(p, Message::from_uint(self.label, self.width));
            }
        }
    }
}

impl NodeAlgorithm for ComponentFlood {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        self.send_all(out);
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
            self.send_all(out);
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// The result of auditing one traced run against the Theorem 3.5 cost
/// model.
#[derive(Clone, Debug)]
pub struct ThreePartyAudit {
    /// Rounds audited (the trace length).
    pub rounds: usize,
    /// Bits Carol had to send (to the server or David).
    pub carol_bits: u64,
    /// Bits David had to send.
    pub david_bits: u64,
    /// Maximum Carol+David paid bits in any single round.
    pub max_paid_per_round: u64,
    /// The theorem's per-round budget `6·k·B`, saturated at `u64::MAX`.
    pub per_round_budget: u64,
    /// Whether every audited round stayed within the budget.
    pub within_budget: bool,
    /// The horizon `⌊L/2⌋ − 2` up to which ownership sets are disjoint.
    pub horizon: usize,
    /// Whether the whole run finished within the horizon (the premise of
    /// Theorem 3.5).
    pub within_horizon: bool,
}

impl ThreePartyAudit {
    /// Total Server-model cost of the simulated run.
    pub fn total_paid(&self) -> u64 {
        self.carol_bits + self.david_bits
    }

    /// The theorem's total budget `O(B log L) · rounds` with the explicit
    /// constant 6, saturated at `u64::MAX`.
    pub fn total_budget(&self) -> u64 {
        self.per_round_budget.saturating_mul(self.rounds as u64)
    }
}

/// The party that pays for a message sent at time `t` from `from` to
/// `to`: the sender's owner at `t`, when the receiver's owner at `t + 1`
/// differs (it must be told the message to keep simulating). Messages
/// inside one party are free, and so is everything the server sends
/// (Definition 3.1), so the answer is Carol, David or `None`.
fn payer(net: &SimulationNetwork, from: NodeId, to: NodeId, t: usize) -> Option<Party> {
    let sender = net.owner(from, t);
    (sender != Party::Server && sender != net.owner(to, t + 1)).then_some(sender)
}

/// Audits a traced run on the simulation network against the Theorem 3.5
/// cost model. `bandwidth` is the CONGEST `B` used for the run, and the
/// trace must come from a run on `net`'s graph, which its records'
/// endpoints are read from.
///
/// A message sent at the end of round `r` (delivered in `r + 1`) is paid
/// by its sender's owner at time `r` when the receiver's owner at time
/// `r + 1` differs; server-sent messages are free (Definition 3.1).
pub fn audit_trace(
    net: &SimulationNetwork,
    trace: &TrafficTrace,
    bandwidth: usize,
) -> ThreePartyAudit {
    // A budget past `u64::MAX` bounds nothing a run can pay, so it
    // saturates instead of wrapping to a small number.
    let budget = 6u64
        .saturating_mul(net.highway_count() as u64)
        .saturating_mul(bandwidth as u64);
    let mut carol_bits = 0u64;
    let mut david_bits = 0u64;
    let mut max_paid = 0u64;
    for (r, msgs) in trace.rounds.iter().enumerate() {
        let mut paid = 0u64;
        for m in msgs {
            let bits = u64::from(m.bits());
            let (from, to) = m.ends(net.graph());
            match payer(net, from, to, r) {
                Some(Party::Carol) => carol_bits += bits,
                Some(Party::David) => david_bits += bits,
                _ => continue,
            }
            paid += bits;
        }
        max_paid = max_paid.max(paid);
    }
    ThreePartyAudit {
        rounds: trace.rounds.len(),
        carol_bits,
        david_bits,
        max_paid_per_round: max_paid,
        per_round_budget: budget,
        within_budget: max_paid <= budget,
        horizon: net.horizon(),
        within_horizon: trace.rounds.len() <= net.horizon(),
    }
}

/// What [`audited_flood`] produced.
#[derive(Clone, Debug)]
pub struct AuditedFlood {
    /// Final node states, in node order.
    pub nodes: Vec<ComponentFlood>,
    /// The run's report.
    pub report: RunReport,
    /// The per-round message trace the audit read.
    pub trace: TrafficTrace,
    /// The Theorem 3.5 audit of the trace.
    pub audit: ThreePartyAudit,
}

/// Runs the [`ComponentFlood`] along `m` on the quantum channel with
/// budget `bandwidth` and audits it: the Theorem 3.5 experiment.
///
/// Labels are node ids of [`id_width`] bits. The run is traced, capped
/// at the horizon `⌊L/2⌋ − 2` (Theorem 3.5 speaks only about runs within
/// it, so `report.completed` is usually false), and `sink` observes it
/// beside the trace. The sink never changes the result.
///
/// # Panics
///
/// Panics if the id width exceeds `bandwidth` (the engine's budget
/// check).
pub fn audited_flood<T: Telemetry>(
    net: &SimulationNetwork,
    m: &Subgraph,
    bandwidth: usize,
    sink: T,
) -> AuditedFlood {
    let width = id_width(net.graph().node_count());
    let sim = Simulator::new(net.graph(), CongestConfig::quantum(bandwidth));
    let mut trace = TrafficTrace::default();
    let (nodes, report) = sim.run_observed(
        |info| ComponentFlood::along(info, m, width),
        net.horizon(),
        &mut (&mut trace, sink),
    );
    let audit = audit_trace(net, &trace, bandwidth);
    AuditedFlood {
        nodes,
        report,
        trace,
        audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paid_traffic_stays_within_theorem_budget() {
        let net = SimulationNetwork::build(11, 33); // 11 + 5 = 16 tracks
        let m = net.hamiltonian_m();
        let bandwidth = 32;
        let cfg = CongestConfig::quantum(bandwidth);
        let sim = Simulator::new(net.graph(), cfg);
        let width = 20;
        let cap = net.horizon();
        let mut trace = TrafficTrace::default();
        let (_, report) = sim.run_observed(
            |info| ComponentFlood::along(info, &m, width),
            cap,
            &mut trace,
        );
        assert!(report.rounds > 0);
        let audit = audit_trace(&net, &trace, bandwidth);
        assert!(
            audit.within_budget,
            "max paid {} vs budget {}",
            audit.max_paid_per_round, audit.per_round_budget
        );
        // The audit is the theorem's content: paid cost ≤ 6kB per round,
        // so total ≤ O(B log L)·T.
        assert!(audit.total_paid() <= audit.total_budget());
    }

    /// A broadcast flood over *all* edges (worst case for the audit: every
    /// highway edge fires every round).
    struct Chatter {
        rounds_left: usize,
    }

    impl NodeAlgorithm for Chatter {
        fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
            out.broadcast(Message::from_uint(0, 8));
        }
        fn on_round(&mut self, _info: &NodeInfo, _inbox: &Inbox, out: &mut Outbox) {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                out.broadcast(Message::from_uint(0, 8));
            }
        }
        fn is_terminated(&self) -> bool {
            self.rounds_left == 0
        }
    }

    #[test]
    fn even_saturating_algorithms_stay_within_budget() {
        // The 6kB budget must hold for ANY algorithm, because only ≤ k
        // highway edges can cross the ownership frontier per round.
        let net = SimulationNetwork::build(6, 33);
        let bandwidth = 8;
        let cfg = CongestConfig::quantum(bandwidth);
        let sim = Simulator::new(net.graph(), cfg);
        let horizon = net.horizon();
        let mut trace = TrafficTrace::default();
        sim.run_observed(
            |_| Chatter {
                rounds_left: horizon - 1,
            },
            horizon,
            &mut trace,
        );
        let audit = audit_trace(&net, &trace, bandwidth);
        assert!(audit.within_horizon);
        assert!(
            audit.within_budget,
            "max paid {} vs budget {}",
            audit.max_paid_per_round, audit.per_round_budget
        );
        // And the budget is not vacuous: some traffic is actually paid.
        assert!(audit.total_paid() > 0);
    }

    #[test]
    fn audit_detects_horizon_overrun() {
        let net = SimulationNetwork::build(3, 9);
        let cfg = CongestConfig::classical(8);
        let sim = Simulator::new(net.graph(), cfg);
        let mut trace = TrafficTrace::default();
        sim.run_observed(
            |_| Chatter { rounds_left: 20 },
            net.horizon() + 10,
            &mut trace,
        );
        let audit = audit_trace(&net, &trace, 8);
        assert!(!audit.within_horizon);
    }

    #[test]
    fn server_sent_messages_are_free() {
        // A single message between two middle (server-owned) nodes costs
        // nothing.
        let net = SimulationNetwork::build(3, 17);
        let mid = net.node_at(0, 8).unwrap();
        struct OneShot {
            fire: bool,
        }
        impl NodeAlgorithm for OneShot {
            fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
                if self.fire {
                    out.broadcast(Message::from_uint(1, 4));
                }
            }
            fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
            fn is_terminated(&self) -> bool {
                true
            }
        }
        let cfg = CongestConfig::classical(8);
        let sim = Simulator::new(net.graph(), cfg);
        let mut trace = TrafficTrace::default();
        sim.run_observed(
            |info| OneShot {
                fire: info.id == mid,
            },
            5,
            &mut trace,
        );
        let audit = audit_trace(&net, &trace, 8);
        assert_eq!(audit.total_paid(), 0);
    }
}
