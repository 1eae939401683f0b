//! Property tests for qubit-budgeted links: `CongestConfig::quantum(B)`
//! means at most `B` qubits per edge per round, and
//! `CongestConfig::quantum_teleport(B)` means EPR/teleportation
//! accounting — each teleported qubit is charged as 2 classical bits
//! against the same budget (paper Appendix B).
//!
//! Four contracts on random connected graphs and seeds:
//!
//! 1. **Per-edge cap**: no round of a quantum run ever delivers more
//!    than `B` charged qubits over any directed edge — fault-free and
//!    under chaos alike (drops and corruption only ever *remove*
//!    traffic: the truncate-never-extend rule keeps every surviving
//!    payload within its original width);
//! 2. **Teleportation factor**: in teleport mode the profiler's
//!    qubit/classical split charges exactly 2 classical bits per
//!    delivered qubit, round for round; in plain qubit mode the
//!    classical side stays zero;
//! 3. **Structured violations**: an oversized send under chaos surfaces
//!    as [`SimError::BudgetExceeded`] carrying the *charged* bit count
//!    (2× under teleportation), never a panic;
//! 4. **Channel neutrality**: with accounting disabled, a quantum run
//!    is mechanically identical to the classical engine — same states,
//!    rounds, traffic, and trace on the same topology and seed.

use proptest::prelude::*;
use qdc::congest::{
    ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, QubitSplit,
    RoundProfiler, SimError, Simulator, TrafficTrace,
};
use qdc::graph::generate;
use std::collections::HashMap;

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Min-label flood: every node broadcasts a 16-qubit register whenever
/// its label improves, saturating the links early on.
struct MinFlood {
    label: u64,
    width: usize,
}

impl NodeAlgorithm for MinFlood {
    fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(self.label, self.width));
    }
    fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let best = inbox
            .iter()
            .filter_map(|(_, m)| m.as_uint(self.width))
            .min();
        if let Some(b) = best {
            if b < self.label {
                self.label = b;
                out.broadcast(Message::from_uint(b, self.width));
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// Asserts no directed edge of `trace`, a run on `graph`, carries more
/// than `budget` charged bits in any single round.
fn assert_per_edge_cap(
    graph: &qdc::graph::Graph,
    trace: &qdc::congest::TrafficTrace,
    charge: usize,
    budget: usize,
) -> Result<(), TestCaseError> {
    for (r, round) in trace.rounds.iter().enumerate() {
        let mut per_edge: HashMap<(u32, u32), usize> = HashMap::new();
        for m in round {
            let (from, to) = m.ends(graph);
            *per_edge.entry((from.0, to.0)).or_default() += m.bits() as usize * charge;
        }
        for (&(from, to), &bits) in &per_edge {
            prop_assert!(
                bits <= budget,
                "round {}: edge {}->{} carried {} charged bits over the B = {} budget",
                r + 1,
                from,
                to,
                bits,
                budget
            );
        }
    }
    Ok(())
}

/// A chaos config exercising drops and corruption but no crashes, so
/// quiescence is still reachable.
fn lossy(seed: u64, drop: f64, watchdog: usize) -> ChaosConfig {
    ChaosConfig {
        seed,
        drop_prob: drop,
        crash_schedule: Vec::new(),
        corrupt_prob: 0.1,
        max_rounds_watchdog: watchdog,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Contract 1, fault-free: a `quantum(B)` run never delivers more
    /// than B qubits per directed edge per round, and a
    /// `quantum_teleport(B)` run never more than B *charged* bits.
    #[test]
    fn quantum_links_respect_the_per_edge_qubit_budget(
        n in 4usize..20,
        extra in 0usize..8,
        seed in 0u64..200,
        teleport in any::<bool>(),
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let cfg = if teleport {
            CongestConfig::quantum_teleport(32)
        } else {
            CongestConfig::quantum(16)
        };
        let budget = cfg.bandwidth_bits;
        let charge = cfg.charge_factor();
        prop_assert_eq!(charge, if teleport { 2 } else { 1 });

        let sim = Simulator::new(&g, cfg);
        let mut trace = TrafficTrace::default();
        let (_, report) = sim.run_observed(
            |info| MinFlood { label: 1000 + info.id.0 as u64, width: 16 },
            200,
            &mut trace,
        );
        prop_assert!(report.completed);
        assert_per_edge_cap(&g, &trace, charge, budget)?;
    }

    /// Contract 1, chaos: seeded drops and corruption can only shrink
    /// traffic (truncate-never-extend), so the charged per-edge cap
    /// holds on every surviving delivery too.
    #[test]
    fn quantum_links_respect_the_budget_under_chaos(
        n in 4usize..16,
        extra in 0usize..6,
        seed in 0u64..100,
        drop in 0.0f64..=0.25,
        teleport in any::<bool>(),
    ) {
        let g = generate::random_connected(n, n + extra, seed.wrapping_add(env_seed()));
        let cfg = if teleport {
            CongestConfig::quantum_teleport(32)
        } else {
            CongestConfig::quantum(16)
        };
        let budget = cfg.bandwidth_bits;
        let charge = cfg.charge_factor();
        let chaos = lossy(seed ^ env_seed().rotate_left(23), drop, 300);

        let sim = Simulator::new(&g, cfg);
        let mut trace = TrafficTrace::default();
        let (_, report) = sim
            .try_run_observed(
                |info| MinFlood { label: 1000 + info.id.0 as u64, width: 16 },
                &chaos,
                &mut trace,
            )
            .expect("lossy flood reaches quiescence");
        assert_per_edge_cap(&g, &trace, charge, budget)?;
        // Corruption flips bits in place, never widening a payload: the
        // per-message width bound survives verbatim.
        for round in &trace.rounds {
            for m in round {
                prop_assert!(m.bits() as usize * charge <= budget);
            }
        }
        let _ = report;
    }

    /// Contract 2: the telemetry split charges exactly 2 classical bits
    /// per teleported qubit, round for round, and none in plain mode.
    #[test]
    fn teleportation_charges_two_classical_bits_per_qubit(
        n in 4usize..16,
        extra in 0usize..6,
        seed in 0u64..100,
        teleport in any::<bool>(),
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let cfg = if teleport {
            CongestConfig::quantum_teleport(32)
        } else {
            CongestConfig::quantum(16)
        };
        let sim = Simulator::new(&g, cfg);
        let mut profiler = RoundProfiler::new(g.node_count(), g.edge_count(), cfg.bandwidth_bits)
            .with_quantum(teleport);
        let (_, report) = sim.run_observed(
            |info| MinFlood { label: 1000 + info.id.0 as u64, width: 16 },
            200,
            &mut profiler,
        );
        let profile = profiler.finish();

        let mut total = QubitSplit::default();
        for r in &profile.rounds {
            let q = r.qsplit.expect("quantum profiles carry a split every round");
            prop_assert_eq!(
                q.classical_bits,
                if teleport { 2 * q.qubit_bits } else { 0 },
                "round {} breaks the 2-bits-per-qubit charge", r.round
            );
            prop_assert_eq!(q.qubit_bits, r.bits);
            total.classical_bits += q.classical_bits;
            total.qubit_bits += q.qubit_bits;
        }
        prop_assert_eq!(total.qubit_bits, report.bits_sent);
    }

    /// Contract 4: with split accounting disabled, the quantum channel
    /// is mechanically the classical engine — identical states, report
    /// (modulo the channel label) and per-round trace.
    #[test]
    fn quantum_channel_without_split_is_byte_identical_to_classical(
        n in 4usize..16,
        extra in 0usize..6,
        seed in 0u64..100,
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let make = |info: &NodeInfo| MinFlood { label: 1000 + info.id.0 as u64, width: 16 };

        let classical = Simulator::new(&g, CongestConfig::classical(16));
        let mut c_trace = TrafficTrace::default();
        let (c_nodes, c_report) = classical.run_observed(make, 200, &mut c_trace);
        let quantum = Simulator::new(&g, CongestConfig::quantum(16));
        let mut q_trace = TrafficTrace::default();
        let (q_nodes, q_report) = quantum.run_observed(make, 200, &mut q_trace);

        for (a, b) in c_nodes.iter().zip(&q_nodes) {
            prop_assert_eq!(a.label, b.label);
        }
        prop_assert_eq!(c_report.rounds, q_report.rounds);
        prop_assert_eq!(c_report.bits_sent, q_report.bits_sent);
        prop_assert_eq!(c_report.messages_sent, q_report.messages_sent);
        prop_assert_eq!(c_report.max_bits_per_round, q_report.max_bits_per_round);
        prop_assert_eq!(c_trace, q_trace, "traces must match message for message");
    }
}

/// One node that oversends a full-width register on a channel whose
/// teleportation charge doubles it past the budget.
#[derive(Debug)]
struct Oversender {
    width: usize,
    fired: bool,
}

impl NodeAlgorithm for Oversender {
    fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
        if info.id.0 == 0 {
            self.fired = true;
            out.send(0, Message::from_uint(0, self.width));
        }
    }
    fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
    fn is_terminated(&self) -> bool {
        true
    }
}

/// Contract 3: an over-budget send under chaos comes back as a
/// structured [`SimError::BudgetExceeded`] carrying the charged amount
/// — 2× the payload under teleportation — instead of panicking.
#[test]
fn quantum_budget_violations_surface_as_structured_errors() {
    let g = qdc::graph::Graph::path(2);
    let chaos = lossy(7, 0.0, 50);

    // 24 qubits fit a B = 32 plain-quantum link…
    let sim = Simulator::new(&g, CongestConfig::quantum(32));
    let ok = sim.try_run(
        |_| Oversender {
            width: 24,
            fired: false,
        },
        &chaos,
    );
    assert!(ok.is_ok(), "24 qubits fit a 32-qubit budget: {ok:?}");

    // …but teleporting them charges 48 classical bits against the same
    // budget, and the error reports the charged figure.
    let sim = Simulator::new(&g, CongestConfig::quantum_teleport(32));
    let err = sim
        .try_run(
            |_| Oversender {
                width: 24,
                fired: false,
            },
            &chaos,
        )
        .expect_err("teleport charge must bust the budget");
    assert_eq!(
        err,
        SimError::BudgetExceeded {
            bits: 48,
            budget: 32
        }
    );

    // The panicking strict path reports the same charged figure.
    let sim = Simulator::new(&g, CongestConfig::quantum_teleport(32));
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run(
            |_| Oversender {
                width: 24,
                fired: false,
            },
            50,
        )
    }))
    .expect_err("strict mode panics on the violation");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("48") && message.contains("32"),
        "panic must carry the charged accounting: {message}"
    );
}
