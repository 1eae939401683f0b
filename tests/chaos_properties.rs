//! Property tests for the fault-injection layer.
//!
//! Three contracts are exercised on random connected graphs:
//!
//! 1. **Differential**: a `ChaosConfig` that injects nothing must make
//!    `try_run` reproduce the fault-free `run` bit for bit — same final
//!    states, same `RunReport`, zeroed fault counters. The chaos path is
//!    always compiled in, so this pins down that consulting an inert
//!    `FaultPlan` costs no behavioral change.
//! 2. **Slab engine vs message-level reference**: under drops,
//!    crash-stops and corruption, a second `FaultPlan` that filters a
//!    copy of every recorded send in the delivery order (ascending
//!    sender, then port) predicts every inbox of a chaos `Stepper` run
//!    exactly, and each round's drop count.
//! 3. **Robustness**: the acknowledgement-based `robust_broadcast`
//!    reaches every non-crashed node for seeded drop rates up to 0.3, as
//!    long as the residual graph stays connected.
//!
//! The CI chaos job re-runs these under several `QDC_CHAOS_SEED` values;
//! the seed perturbs every generated case while each individual run stays
//! fully deterministic.

use proptest::prelude::*;
use qdc::algos::flood::{chaos_round_budget, robust_broadcast};
use qdc::congest::{
    ChaosConfig, CongestConfig, FaultPlan, Inbox, Message, NodeAlgorithm, NodeInfo, NullTelemetry,
    Outbox, Simulator, Stepper,
};
use qdc::graph::{generate, Graph, NodeId};

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Min-label flood with implicit termination (quiescence-driven).
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

/// A node that sends a pseudo-random set of variable-width payloads
/// every round and records what it sent and received. It never
/// terminates, so a stepper never goes quiescent and every step is a
/// real engine round.
struct Recorder {
    salt: u64,
    neighbors: Vec<NodeId>,
    round: usize,
    /// `(round, port, payload)` of every send; round 0 is `on_start`.
    sent: Vec<(usize, usize, Message)>,
    /// `(round, port, payload)` of every delivery, rounds 1-based.
    received: Vec<(usize, usize, Message)>,
}

impl Recorder {
    fn send_some(&mut self, out: &mut Outbox) {
        for p in 0..self.neighbors.len() {
            let h = splitmix(self.salt ^ ((self.round as u64) << 16) ^ p as u64);
            if h & 3 == 0 {
                continue;
            }
            let width = 1 + (h >> 8) as usize % 16;
            let msg = Message::from_uint((h >> 32) & ((1 << width) - 1), width);
            out.send(p, msg.clone());
            self.sent.push((self.round, p, msg));
        }
    }
}

impl NodeAlgorithm for Recorder {
    fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
        self.send_some(out);
    }
    fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        self.round += 1;
        for (p, m) in inbox.iter() {
            self.received.push((self.round, p, m.clone()));
        }
        self.send_some(out);
    }
    fn is_terminated(&self) -> bool {
        false
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether all nodes except `crashed` can reach node 0 without routing
/// through `crashed` (i.e. the residual graph is connected).
fn residual_connected(g: &Graph, crashed: NodeId) -> bool {
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|e| g.endpoints(e))
        .map(|(a, b)| (a.0, b.0))
        .filter(|&(a, b)| a != crashed.0 && b != crashed.0)
        .collect();
    let residual = Graph::from_edges(g.node_count(), &edges);
    let dist =
        qdc::graph::algorithms::bfs_distances(&residual, &residual.full_subgraph(), NodeId(0));
    g.nodes()
        .filter(|&v| v != crashed)
        .all(|v| dist[v.index()] != u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential: the fault-free chaos path is byte-identical to the
    /// panicking fast path.
    #[test]
    fn chaos_free_try_run_matches_run_bit_for_bit(
        n in 4usize..24,
        extra in 0usize..10,
        seed in 0u64..200,
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| MinFlood { label: 1000 + info.id.0 as u64 };
        let sim = Simulator::new(&g, cfg);
        let (plain, plain_report) = sim.run(make, 100);
        let chaos = ChaosConfig {
            seed: seed.wrapping_mul(31).wrapping_add(env_seed()),
            ..ChaosConfig::fault_free(100)
        };
        let (fallible, fallible_report) = sim.try_run(make, &chaos).expect("fault-free run quiesces");
        prop_assert_eq!(plain_report, fallible_report);
        prop_assert_eq!(fallible_report.messages_dropped, 0);
        prop_assert_eq!(fallible_report.nodes_crashed, 0);
        prop_assert_eq!(fallible_report.bits_corrupted, 0);
        for v in 0..g.node_count() {
            prop_assert_eq!(plain[v].label, fallible[v].label);
        }

    }

    /// The slab engine against the message-level reference: a second
    /// `FaultPlan` on the same config, stepped once per round and asked
    /// to `filter` a copy of every recorded send in ascending (sender,
    /// port) order, predicts every inbox of the chaos stepper (port and
    /// payload bits) and each round's `StepSummary::dropped`.
    #[test]
    fn chaos_stepper_matches_the_message_level_fault_plan(
        n in 4usize..24,
        extra in 0usize..10,
        seed in 0u64..200,
        drop in 0.0f64..=0.3,
        corrupt in 0.0f64..=0.3,
        crash_pick in 0u32..1000,
        crash_round in 1usize..8,
    ) {
        let g = generate::random_connected(n, n + extra, seed ^ env_seed());
        let rounds = 8;
        let chaos = ChaosConfig {
            seed: seed.wrapping_mul(0x9E37).wrapping_add(env_seed()),
            drop_prob: drop,
            crash_schedule: vec![
                (NodeId(crash_pick % n as u32), crash_round),
                (NodeId((crash_pick / 7) % n as u32), crash_round + 1),
            ],
            corrupt_prob: corrupt,
            max_rounds_watchdog: rounds,
        };
        let make = |info: &NodeInfo| Recorder {
            salt: splitmix(seed ^ env_seed().rotate_left(29) ^ (u64::from(info.id.0) << 40)),
            neighbors: info.neighbors.clone(),
            round: 0,
            sent: Vec::new(),
            received: Vec::new(),
        };
        let mut stepper = Stepper::with_chaos(&g, CongestConfig::classical(16), &chaos, make);
        let summaries: Vec<_> = (0..rounds).map(|_| stepper.step()).collect();
        let nodes = stepper.nodes();

        let mut plan = FaultPlan::new(&chaos, n);
        for (r, summary) in (1..=rounds).zip(&summaries) {
            plan.begin_round();
            let dropped_before = plan.stats().messages_dropped;
            let mut expected: Vec<Vec<(usize, usize, Message)>> = vec![Vec::new(); n];
            for u in g.nodes() {
                let sender = &nodes[u.index()];
                for (_, p, msg) in sender.sent.iter().filter(|s| s.0 == r - 1) {
                    let v = sender.neighbors[*p];
                    let mut copy = msg.clone();
                    if plan.filter(u, v, &mut copy) {
                        let q = nodes[v.index()].neighbors.iter().position(|&w| w == u);
                        expected[v.index()].push((r, q.expect("symmetric ports"), copy));
                    }
                }
            }
            prop_assert_eq!(
                summary.dropped,
                plan.stats().messages_dropped - dropped_before,
                "round {} drop count", r
            );
            for v in g.nodes() {
                expected[v.index()].sort_by_key(|e| e.1);
                let received = nodes[v.index()].received.iter();
                let got: Vec<_> = received.filter(|e| e.0 == r).cloned().collect();
                prop_assert_eq!(&got, &expected[v.index()], "node {} inbox in round {}", v, r);
            }
        }
    }

    /// Robustness: the hardened flood informs every non-crashed node at
    /// seeded drop rates up to 0.3 when the residual graph is connected.
    #[test]
    fn chaos_robust_flood_informs_all_survivors(
        n in 4usize..20,
        extra in 0usize..8,
        seed in 0u64..100,
        drop in 0.0f64..=0.3,
        crash_pick in 1u32..1000,
    ) {
        let g = generate::random_connected(n, n + extra, seed.wrapping_add(env_seed()));
        let crashed = NodeId(1 + crash_pick % (n as u32 - 1)); // never the root
        // Only schedule the crash when the survivors stay connected —
        // otherwise stranded components are legitimately unreachable.
        let crash_schedule = if residual_connected(&g, crashed) {
            vec![(crashed, 2)]
        } else {
            Vec::new()
        };
        let crash_on = !crash_schedule.is_empty();
        let give_up = chaos_round_budget(n, drop);
        let chaos = ChaosConfig {
            seed: seed ^ env_seed().rotate_left(17),
            drop_prob: drop,
            crash_schedule,
            corrupt_prob: 0.05,
            max_rounds_watchdog: give_up + 5,
        };
        let cfg = CongestConfig::classical(8);
        let out = robust_broadcast(&g, cfg, NodeId(0), &chaos, give_up, &mut NullTelemetry)
            .expect("robust flood winds down within its budget");
        for v in g.nodes() {
            if crash_on && v == crashed {
                continue;
            }
            prop_assert!(
                out.informed[v.index()],
                "survivor {} stranded (n={}, drop={}, crash={:?})",
                v, n, drop, crash_on.then_some(crashed)
            );
        }
    }
}
