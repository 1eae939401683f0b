//! Example 1.1: distributed Set Disjointness, classical vs quantum.
//!
//! Two nodes at the ends of a distance-`D` path hold `b`-bit sets `x` and
//! `y` and must decide whether `⟨x, y⟩ = 0`:
//!
//! * **classically**, Ω̃(b) bits must cross the path, so pipelined
//!   streaming needs ≈ `D + b/B` rounds — and by the Simulation Theorem
//!   of Das Sarma et al. this is optimal up to log factors;
//! * **quantumly**, the Aaronson–Ambainis protocol runs a distributed
//!   Grover search with `⌈(π/4)√b⌉` oracle queries, each a round trip
//!   over the path: ≈ `2·D·(π/4)√b` rounds. For `b = √n`, `D = O(log n)`
//!   this beats the classical bound — the one genuine quantum speedup in
//!   the paper, and the reason its lower bounds cannot come from
//!   Disjointness.

use crate::flood::stage_cap;
use crate::ledger::Ledger;
use crate::widths::bits_for;
use qdc_congest::{
    BitString, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, RunOptions,
    RunReport, Simulator, Telemetry,
};
use qdc_graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Result of a distributed Disjointness run.
#[derive(Clone, Debug)]
pub struct DisjointnessRun {
    /// `true` iff the sets are disjoint (`⟨x, y⟩ = 0`).
    pub disjoint: bool,
    /// Accumulated cost (bits for the classical run, qubits for quantum).
    pub ledger: Ledger,
}

/// The Grover measurement seed of every quantum run on the
/// [`ex11_instance`] family, so its results are reproducible.
pub const EX11_PROTOCOL_SEED: u64 = 11;

/// The deterministic Example 1.1 instance with `b`-bit sets: a
/// pseudorandom `x` (seed `100 + b`) and its complement as `y`, so the
/// sets are disjoint; for `b ≥ 256`, bit `b/2` of `y` is copied from
/// `x`, planting an intersection when that bit is set. Returns
/// `(x, y, planted)`, where `planted` is whether the sets intersect.
pub fn ex11_instance(b: usize) -> (Vec<bool>, Vec<bool>, bool) {
    let x = qdc_graph::generate::random_bits(b, 100 + b as u64);
    let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
    if b >= 256 {
        y[b / 2] = x[b / 2];
    }
    let planted = x.iter().zip(&y).any(|(&a, &c)| a && c);
    (x, y, planted)
}

/// Closed-form round count of the classical streaming protocol.
pub fn classical_rounds(b: usize, d: usize, bandwidth: usize) -> usize {
    d + b.div_ceil(bandwidth).saturating_sub(1)
}

/// Closed-form round count of the quantum protocol: `2·D` rounds per
/// Grover query.
pub fn quantum_rounds(b: usize, d: usize) -> usize {
    2 * d * qdc_quantum::grover::disjointness_queries(b)
}

// ---------------------------------------------------------------------------
// Classical streaming
// ---------------------------------------------------------------------------

enum StreamRole {
    /// Holds `y`, streams it left in `B`-bit chunks.
    Sender { chunks: Vec<BitString> },
    /// Relays chunks toward node 0.
    Relay,
    /// Holds `x`, collects `y` and decides.
    Receiver {
        x: Vec<bool>,
        received: Vec<bool>,
        expected: usize,
        decided: Option<bool>,
    },
}

struct StreamNode {
    role: StreamRole,
    toward_receiver: Option<usize>, // port toward node 0 (None at node 0)
}

impl NodeAlgorithm for StreamNode {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        if let StreamRole::Sender { chunks } = &mut self.role {
            if let Some(chunk) = chunks.pop() {
                let p = self.toward_receiver.expect("sender has a left port");
                out.send(p, Message::from_bits(chunk));
            }
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        match &mut self.role {
            StreamRole::Sender { chunks } => {
                if let Some(chunk) = chunks.pop() {
                    let p = self.toward_receiver.expect("sender has a left port");
                    out.send(p, Message::from_bits(chunk));
                }
            }
            StreamRole::Relay => {
                // Forward anything arriving from the right to the left.
                for (port, msg) in inbox.iter() {
                    if Some(port) != self.toward_receiver {
                        let p = self.toward_receiver.expect("relay has a left port");
                        out.send(p, Message::from_bits(msg.payload().clone()));
                    }
                }
            }
            StreamRole::Receiver {
                x,
                received,
                expected,
                decided,
            } => {
                for (_, msg) in inbox.iter() {
                    received.extend(msg.payload().to_bools());
                }
                if decided.is_none() && received.len() >= *expected {
                    let disjoint = !x.iter().zip(received.iter()).any(|(&a, &b)| a && b);
                    *decided = Some(disjoint);
                }
            }
        }
    }
    fn is_terminated(&self) -> bool {
        match &self.role {
            StreamRole::Sender { chunks } => chunks.is_empty(),
            StreamRole::Relay => true,
            StreamRole::Receiver { decided, .. } => decided.is_some(),
        }
    }
}

/// Runs the classical streaming protocol on a path of `d` hops with
/// endpoints holding `x` (node 0) and `y` (node `d`), under execution
/// [`RunOptions`] and a [`Telemetry`] sink observing every round (pass
/// `&mut NullTelemetry` for an unobserved run). The outcome and the
/// [`RunReport`] are bit-for-bit the same at any thread count, observed
/// or not.
///
/// # Panics
///
/// Panics if `x` and `y` differ in length, are empty, or `d == 0`.
pub fn classical_disjointness<T: Telemetry>(
    x: &[bool],
    y: &[bool],
    d: usize,
    cfg: CongestConfig,
    options: RunOptions,
    telemetry: &mut T,
) -> (DisjointnessRun, RunReport) {
    assert_eq!(x.len(), y.len(), "inputs must have equal length");
    assert!(!x.is_empty() && d >= 1, "need non-empty inputs and d ≥ 1");
    let b = x.len();
    let graph = Graph::path(d + 1);
    let chunk_bits = cfg.bandwidth_bits;
    // Chunks are popped back-to-front: store in reverse order.
    let mut chunks: Vec<BitString> = y.chunks(chunk_bits).map(BitString::from_bools).collect();
    chunks.reverse();

    let mut ledger = Ledger::new();
    let sim = Simulator::with_options(&graph, cfg, options);
    let (nodes, report) = sim.run_observed(
        |info| {
            let id = info.id.0 as usize;
            let toward_receiver = if id == 0 {
                None
            } else {
                info.port_to(qdc_graph::NodeId((id - 1) as u32))
            };
            let role = if id == d {
                StreamRole::Sender {
                    chunks: chunks.clone(),
                }
            } else if id == 0 {
                StreamRole::Receiver {
                    x: x.to_vec(),
                    received: Vec::new(),
                    expected: b,
                    decided: None,
                }
            } else {
                StreamRole::Relay
            };
            StreamNode {
                role,
                toward_receiver,
            }
        },
        stage_cap(d + 1) + b,
        telemetry,
    );
    ledger.absorb(&report);
    let disjoint = match &nodes[0].role {
        StreamRole::Receiver { decided, .. } => decided.expect("receiver decided"),
        _ => unreachable!("node 0 is the receiver"),
    };
    (DisjointnessRun { disjoint, ledger }, report)
}

// ---------------------------------------------------------------------------
// Quantum (Grover) round-trip accounting
// ---------------------------------------------------------------------------

struct BounceNode {
    kind: BounceKind,
    width: usize,
}

enum BounceKind {
    /// Node 0: initiates `trips` round trips.
    Left {
        trips: usize,
        completed: usize,
    },
    Relay,
    Right,
}

impl NodeAlgorithm for BounceNode {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        if let BounceKind::Left { trips, .. } = self.kind {
            if trips > 0 {
                out.send(0, Message::from_uint(0, self.width));
            }
        }
    }
    fn on_round(&mut self, info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        for (port, msg) in inbox.iter() {
            match &mut self.kind {
                BounceKind::Left { trips, completed } => {
                    *completed += 1;
                    if completed < trips {
                        out.send(0, Message::from_uint(0, self.width));
                    }
                }
                BounceKind::Relay => {
                    let other = 1 - port;
                    out.send(other, Message::from_bits(msg.payload().clone()));
                }
                BounceKind::Right => {
                    let _ = info;
                    out.send(port, Message::from_bits(msg.payload().clone()));
                }
            }
        }
    }
    fn is_terminated(&self) -> bool {
        match self.kind {
            BounceKind::Left { trips, completed } => completed >= trips,
            _ => true,
        }
    }
}

/// Runs the quantum Disjointness protocol: `⌈(π/4)√b⌉` Grover queries,
/// each a `⌈log₂ b⌉`-qubit round trip over the `d`-hop path, with the
/// search outcome simulated exactly (for `b ≤ 4096`) by the state-vector
/// Grover of `qdc-quantum`, under execution [`RunOptions`] and a
/// [`Telemetry`] sink observing every query round trip.
///
/// The Grover measurement stream comes from a [`ChaCha8Rng`] seeded
/// with `seed`, so two invocations with equal arguments are
/// byte-identical; the outcome and the [`RunReport`] are the same at
/// any thread count, observed or not.
///
/// # Panics
///
/// Panics if the inputs mismatch, `d == 0`, or the query register does
/// not fit the qubit budget.
pub fn quantum_disjointness<T: Telemetry>(
    x: &[bool],
    y: &[bool],
    d: usize,
    cfg: CongestConfig,
    seed: u64,
    options: RunOptions,
    telemetry: &mut T,
) -> (DisjointnessRun, RunReport) {
    assert_eq!(x.len(), y.len(), "inputs must have equal length");
    assert!(!x.is_empty() && d >= 1, "need non-empty inputs and d ≥ 1");
    let b = x.len();
    let width = bits_for(b.saturating_sub(1) as u64);
    assert!(
        width * cfg.charge_factor() <= cfg.bandwidth_bits,
        "query register exceeds B qubits"
    );
    let trips = qdc_quantum::grover::disjointness_queries(b);

    // The decision itself: exact Grover simulation when feasible, else
    // the classical evaluation (the *outcome* distribution is what the
    // state-vector simulation establishes; the cost model is the bounce).
    let disjoint = if b <= 4096 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (intersects, _) = qdc_quantum::grover::disjointness_grover(x, y, 3, &mut rng);
        !intersects
    } else {
        !x.iter().zip(y).any(|(&a, &b)| a && b)
    };

    let graph = Graph::path(d + 1);
    let mut ledger = Ledger::new();
    let sim = Simulator::with_options(&graph, cfg, options);
    let (_, report) = sim.run_observed(
        |info| {
            let id = info.id.0 as usize;
            let kind = if id == 0 {
                BounceKind::Left {
                    trips,
                    completed: 0,
                }
            } else if id == d {
                BounceKind::Right
            } else {
                BounceKind::Relay
            };
            BounceNode { kind, width }
        },
        2 * d * trips + 10,
        telemetry,
    );
    ledger.absorb(&report);
    (DisjointnessRun { disjoint, ledger }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_congest::NullTelemetry;

    fn classical(x: &[bool], y: &[bool], d: usize, cfg: CongestConfig) -> DisjointnessRun {
        classical_disjointness(x, y, d, cfg, RunOptions::default(), &mut NullTelemetry).0
    }

    fn quantum(x: &[bool], y: &[bool], d: usize, cfg: CongestConfig, seed: u64) -> DisjointnessRun {
        let options = RunOptions::default();
        quantum_disjointness(x, y, d, cfg, seed, options, &mut NullTelemetry).0
    }

    #[test]
    fn classical_protocol_is_correct() {
        let cfg = CongestConfig::classical(8);
        let x: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let mut y: Vec<bool> = (0..64).map(|i| i % 3 == 1).collect();
        let run = classical(&x, &y, 5, cfg);
        assert!(run.disjoint);
        y[33] = true; // 33 % 3 == 0 → intersection
        let run = classical(&x, &y, 5, cfg);
        assert!(!run.disjoint);
    }

    #[test]
    fn classical_rounds_match_pipeline_formula() {
        let cfg = CongestConfig::classical(8);
        let b = 64;
        let d = 10;
        let x = vec![false; b];
        let y = vec![false; b];
        let run = classical(&x, &y, d, cfg);
        let predicted = classical_rounds(b, d, 8); // 10 + 8 - 1 = 17
                                                   // Quiescence adds O(1) slack.
        assert!(
            run.ledger.rounds >= predicted && run.ledger.rounds <= predicted + 2,
            "rounds {} vs predicted {predicted}",
            run.ledger.rounds
        );
    }

    #[test]
    fn quantum_protocol_is_correct_and_counts_round_trips() {
        let cfg = CongestConfig::quantum(16);
        let mut x = vec![false; 256];
        let mut y = vec![false; 256];
        x[100] = true;
        y[100] = true;
        let run = quantum(&x, &y, 4, cfg, 3);
        assert!(!run.disjoint);
        let trips = qdc_quantum::grover::disjointness_queries(256); // ⌈π/4·16⌉ = 13
        assert_eq!(run.ledger.rounds, 2 * 4 * trips);
        assert_eq!(quantum_rounds(256, 4), 2 * 4 * trips);
    }

    #[test]
    fn quantum_wins_for_large_b_small_d() {
        // Example 1.1's regime: b = √n, D = log n. For n = 2^20:
        let b = 1024; // √n
        let d = 20; // log₂ n
        let bandwidth = 20; // B = log n
        let classical = classical_rounds(b, d, bandwidth); // ≈ 20 + 52
        let quantum = quantum_rounds(b, d); // 2·20·26 = 1040 … larger!
                                            // At this scale the quantum protocol's 2·D·B factor still
                                            // dominates (crossover at √b ≈ (π/2)·D·B ≈ 628); push b past it
                                            // and quantum wins:
        let b2 = 1 << 22;
        assert!(quantum_rounds(b2, d) < classical_rounds(b2, d, bandwidth));
        // And the classical/quantum ratio grows like √b·…:
        let q_growth = quantum_rounds(b2 * 4, d) as f64 / quantum_rounds(b2, d) as f64;
        assert!(
            (q_growth - 2.0).abs() < 0.1,
            "quantum scales as √b: {q_growth}"
        );
        let c_growth = classical_rounds(b2 * 4, d, bandwidth) as f64
            / classical_rounds(b2, d, bandwidth) as f64;
        assert!(c_growth > 3.5, "classical scales as b: {c_growth}");
        let _ = (classical, quantum);
    }

    #[test]
    fn quantum_channel_accounting_is_labeled() {
        let cfg = CongestConfig::quantum(8);
        let x = vec![true; 16];
        let y = vec![false; 16];
        let run = quantum(&x, &y, 2, cfg, 4);
        assert!(run.disjoint);
        assert!(run.ledger.bits > 0, "qubits are accounted in the ledger");
    }
}
