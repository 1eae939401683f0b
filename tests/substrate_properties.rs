//! Property tests on the substrates themselves: bit strings, messages,
//! simulator conservation laws, topologies, density matrices and
//! LE-lists across crates.

use proptest::prelude::*;
use qdc::congest::{topology, BitString, CongestConfig, Message, Simulator, TrafficTrace};
use qdc::graph::{algorithms, generate, NodeId};
use qdc::quantum::density::{entanglement_entropy, DensityMatrix};
use qdc::quantum::StateVector;

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BitString round-trips arbitrary (value, width) streams.
    #[test]
    fn bitstring_roundtrip(fields in prop::collection::vec((any::<u64>(), 1usize..=64), 1..10)) {
        let mut bits = BitString::new();
        for &(v, w) in &fields {
            let masked = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            bits.push_uint(masked, w);
        }
        let mut r = bits.reader();
        for &(v, w) in &fields {
            let masked = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            prop_assert_eq!(r.read_uint(w), Some(masked));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// to_bools/from_bools is the identity; message length is exact.
    #[test]
    fn bools_roundtrip(v in prop::collection::vec(any::<bool>(), 0..200)) {
        let b = BitString::from_bools(&v);
        prop_assert_eq!(b.to_bools(), v.clone());
        let m = Message::from_bits(b);
        prop_assert_eq!(m.bit_len(), v.len());
    }

    /// Simulator conservation: every sent message is delivered exactly
    /// once (count and bits agree between report and trace).
    #[test]
    fn traced_runs_conserve_messages(n in 4usize..20, seed in 0u64..200) {
        use qdc::congest::{Inbox, NodeAlgorithm, NodeInfo, Outbox};
        struct Echo { fired: bool }
        impl NodeAlgorithm for Echo {
            fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
                self.fired = true;
                out.broadcast(Message::from_uint(7, 4));
            }
            fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
            fn is_terminated(&self) -> bool { self.fired }
        }
        let g = generate::random_connected(n, n, seed);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let mut trace = TrafficTrace::default();
        let (_, report) = sim.run_observed(|_| Echo { fired: false }, 10, &mut trace);
        let traced_msgs: usize = trace.rounds.iter().map(Vec::len).sum();
        let traced_bits: usize = trace.rounds.iter().flatten().map(|m| m.bits as usize).sum();
        prop_assert_eq!(traced_msgs as u64, report.messages_sent);
        prop_assert_eq!(traced_bits as u64, report.bits_sent);
        prop_assert_eq!(report.messages_sent, 2 * g.edge_count() as u64);
    }

    /// Determinism across execution modes: `run`, a traced
    /// `run_observed` and a `Stepper` driven to quiescence produce
    /// identical final states and identical `RunReport`s on random
    /// connected graphs. All three share one round engine, so any
    /// divergence would be a routing or buffer-reuse bug. The seed mixes
    /// in `QDC_CHAOS_SEED`, so each CI chaos leg checks other networks.
    #[test]
    fn run_traced_and_stepper_agree(n in 4usize..24, extra in 0usize..10, seed in 0u64..200) {
        use qdc::congest::{ChaosConfig, Inbox, NodeAlgorithm, NodeInfo, Outbox, Stepper};
        /// Min-label flood with implicit termination: forwards strictly
        /// improving labels, so runs last several rounds on sparse graphs.
        struct MinFlood { label: u64 }
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
            fn is_terminated(&self) -> bool { true }
        }
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n + extra, seed);
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| MinFlood { label: 1000 + info.id.0 as u64 };
        let sim = Simulator::new(&g, cfg);
        let (plain, plain_report) = sim.run(make, 100);
        let mut trace = TrafficTrace::default();
        let (traced, traced_report) = sim.run_observed(make, 100, &mut trace);
        let mut stepper = Stepper::new(&g, cfg, make);
        while !stepper.is_quiescent() {
            stepper.step();
        }
        prop_assert_eq!(plain_report, traced_report);
        prop_assert_eq!(plain_report, stepper.report());
        for v in 0..g.node_count() {
            prop_assert_eq!(plain[v].label, traced[v].label);
            prop_assert_eq!(plain[v].label, stepper.nodes()[v].label);
            prop_assert_eq!(plain[v].label, 1000); // flood converged to the min
        }

        // The same agreement must hold under fault injection: batch,
        // traced and stepped execution share one engine consulting one
        // FaultPlan, so a fixed seed yields identical drops, corruptions,
        // crashes and final states in all three modes.
        let chaos = ChaosConfig {
            seed: seed ^ 0xC0FFEE,
            drop_prob: 0.15,
            crash_schedule: vec![(NodeId::from(n / 2), 2)],
            corrupt_prob: 0.05,
            max_rounds_watchdog: 100,
        };
        let (batch, batch_report) = sim.try_run(make, &chaos).expect("quiesces under faults");
        let mut ctrace = TrafficTrace::default();
        let (ctraced, ctraced_report) =
            sim.try_run_observed(make, &chaos, &mut ctrace).expect("quiesces under faults");
        let mut cstepper = Stepper::with_chaos(&g, cfg, &chaos, make);
        while !cstepper.is_quiescent() {
            cstepper.step();
        }
        prop_assert_eq!(batch_report, ctraced_report);
        prop_assert_eq!(batch_report, cstepper.report());
        let traced_dropped: u64 = ctrace.dropped.iter().sum();
        prop_assert_eq!(traced_dropped, batch_report.messages_dropped);
        for v in 0..g.node_count() {
            prop_assert_eq!(batch[v].label, ctraced[v].label);
            prop_assert_eq!(batch[v].label, cstepper.nodes()[v].label);
        }

    }

    /// Hypercube distances equal Hamming distances of the node labels.
    #[test]
    fn hypercube_metric_is_hamming(d in 2usize..7, a in any::<usize>(), b in any::<usize>()) {
        let g = topology::hypercube(d);
        let n = 1usize << d;
        let (a, b) = (a % n, b % n);
        let dist = algorithms::bfs_distances(&g, &g.full_subgraph(), NodeId::from(a));
        prop_assert_eq!(dist[b] as u32, ((a ^ b) as u64).count_ones());
    }

    /// Entanglement entropy is symmetric under complementary cuts of a
    /// pure state (Schmidt decomposition).
    #[test]
    fn pure_state_entropy_is_cut_symmetric(ops in prop::collection::vec((0usize..3, 0usize..3), 0..6)) {
        use qdc::quantum::gates;
        let mut psi = StateVector::zeros(3);
        psi.apply_single(gates::H, 0);
        for &(a, b) in &ops {
            if a != b {
                psi.apply_cnot(a, b);
            } else {
                psi.apply_single(gates::ry(0.7), a);
            }
        }
        let s01 = entanglement_entropy(&psi, &[0, 1]);
        let s2 = entanglement_entropy(&psi, &[2]);
        prop_assert!((s01 - s2).abs() < 1e-5, "{s01} vs {s2}");
    }

    /// Density matrices stay trace-1 and PSD-ish under partial trace.
    #[test]
    fn partial_trace_preserves_trace(theta in 0.0f64..3.1, phi in 0.0f64..6.2) {
        use qdc::quantum::gates;
        let mut psi = StateVector::zeros(2);
        psi.apply_single(gates::ry(theta), 0);
        psi.apply_single(gates::rz(phi), 0);
        psi.apply_cnot(0, 1);
        let rho = DensityMatrix::from_pure(&psi);
        for q in 0..2 {
            let red = rho.partial_trace_out(q);
            prop_assert!((red.trace() - 1.0).abs() < 1e-9);
            let eigs = red.eigenvalues();
            prop_assert!(eigs.iter().all(|&l| (-1e-6..=1.0 + 1e-6).contains(&l)));
        }
    }
}

/// The watchdog boundary: a round cap *exactly equal* to the quiescence
/// round completes normally in every execution mode — the engine checks
/// quiescence before the cap, so "just enough rounds" is enough. One
/// round fewer must cut the run short, in each mode's own idiom.
#[test]
fn max_rounds_equal_to_quiescence_round_completes() {
    use qdc::congest::{ChaosConfig, Inbox, NodeAlgorithm, NodeInfo, Outbox, Stepper};
    #[derive(Debug)]
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
    let g = qdc::graph::Graph::path(12);
    let cfg = CongestConfig::classical(16);
    let make = |info: &qdc::congest::NodeInfo| MinFlood {
        label: 1000 + info.id.0 as u64,
    };
    let sim = Simulator::new(&g, cfg);
    let (_, free) = sim.run(make, 1000);
    assert!(
        free.completed,
        "the flood quiesces well under the probe cap"
    );
    let q = free.rounds;
    assert!(q > 2, "the boundary is only interesting past the start");

    // Strict batch: the cap equal to Q completes; Q−1 does not.
    let (_, at) = sim.run(make, q);
    assert!(at.completed, "max_rounds == quiescence round must complete");
    assert_eq!(at.rounds, q);
    let (_, under) = sim.run(make, q - 1);
    assert!(!under.completed, "one round short must be cut off");

    // Lenient batch: a watchdog at exactly Q is not a trip.
    let ok = sim
        .try_run(make, &ChaosConfig::fault_free(q))
        .expect("watchdog == quiescence round must not trip");
    assert_eq!(ok.1, at, "fault-free lenient run matches the strict one");
    let err = sim
        .try_run(make, &ChaosConfig::fault_free(q - 1))
        .expect_err("one round short must trip the watchdog");
    assert_eq!(
        err,
        qdc::congest::SimError::WatchdogTripped { rounds: q - 1 }
    );

    // Stepper: run_to_quiescence(Q) lands exactly on quiescence.
    let mut stepper = Stepper::new(&g, cfg, make);
    let wd = stepper.run_to_quiescence(q);
    assert!(!wd.tripped, "a budget of exactly Q rounds suffices");
    assert_eq!(wd.rounds, q);
    assert!(stepper.is_quiescent());
    let mut short = Stepper::new(&g, cfg, make);
    assert!(short.run_to_quiescence(q - 1).tripped);
}

/// Node state need not be `Send`: the engine steps every node on the
/// calling thread, so nodes may share an `Rc<Cell<_>>`. Each node adds
/// what it hears to one shared tally, which must end equal to the
/// messages the engine delivered in every execution mode.
#[test]
fn node_state_need_not_be_send() {
    use qdc::congest::{ChaosConfig, Inbox, NodeAlgorithm, NodeInfo, Outbox, Stepper};
    use std::cell::Cell;
    use std::rc::Rc;
    /// Broadcasts at start and once more on first hearing anything.
    struct Tally {
        heard: Rc<Cell<u64>>,
        echoed: bool,
    }
    impl NodeAlgorithm for Tally {
        fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
            out.broadcast(Message::from_bit(true));
        }
        fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
            let heard = inbox.iter().count() as u64;
            self.heard.set(self.heard.get() + heard);
            if heard > 0 && !self.echoed {
                self.echoed = true;
                out.broadcast(Message::from_bit(true));
            }
        }
        fn is_terminated(&self) -> bool {
            true
        }
    }
    let g = generate::random_connected(16, 24, 5);
    let cfg = CongestConfig::classical(1);
    let tally = Rc::new(Cell::new(0));
    let make = |_: &NodeInfo| Tally {
        heard: Rc::clone(&tally),
        echoed: false,
    };
    let sim = Simulator::new(&g, cfg);

    let (_, report) = sim.run(make, 100);
    assert!(report.completed);
    assert_eq!(report.messages_sent, 4 * g.edge_count() as u64);
    assert_eq!(tally.replace(0), report.messages_sent);

    let chaos = ChaosConfig {
        seed: 7,
        drop_prob: 0.2,
        ..ChaosConfig::fault_free(100)
    };
    let (_, report) = sim.try_run(make, &chaos).expect("quiesces under drops");
    assert!(report.messages_dropped > 0);
    assert_eq!(tally.replace(0), report.messages_sent);

    let mut stepper = Stepper::new(&g, cfg, make);
    assert!(!stepper.run_to_quiescence(100).tripped);
    assert_eq!(tally.get(), stepper.report().messages_sent);
}

#[test]
fn distributed_le_lists_equal_sequential_on_topologies() {
    use qdc::algos::lel::distributed_le_lists;
    use qdc::graph::lel;
    for g in [
        topology::ring(9),
        topology::grid(3, 4),
        topology::hypercube(3),
    ] {
        let w = generate::random_weights(&g, 6, 3);
        let ranks: Vec<u64> = (0..g.node_count() as u64)
            .map(|i| (i * 37 + 5) % 997)
            .collect();
        let run = distributed_le_lists(&g, CongestConfig::classical(64), &w, &ranks);
        for v in g.nodes() {
            let mut reference = lel::le_list(&g, &w, &ranks, v);
            reference.sort();
            assert_eq!(run.lists[v.index()], reference, "node {v}");
        }
    }
}

#[test]
fn certificate_pipeline_is_printable_and_positive() {
    use qdc::core::certificates::{theorem36_certificate, CompositionConstants};
    let cert = theorem36_certificate(1 << 20, 32, &CompositionConstants::default());
    assert!(cert.rounds > 0.0);
    let text = cert.render();
    assert!(text.contains("Theorem 3.4"));
    assert!(text.contains("Theorem 3.5"));
    assert!(text.contains("⇒ T ≥"));
}
