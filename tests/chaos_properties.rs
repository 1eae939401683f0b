//! Property tests for the fault-injection layer.
//!
//! Two contracts are exercised on random connected graphs:
//!
//! 1. **Differential**: a `ChaosConfig` that injects nothing must make
//!    `try_run` reproduce the fault-free `run` bit for bit — same final
//!    states, same `RunReport`, zeroed fault counters. The chaos path is
//!    always compiled in, so this pins down that consulting an inert
//!    `FaultPlan` costs no behavioral change.
//! 2. **Robustness**: the acknowledgement-based `robust_broadcast`
//!    reaches every non-crashed node for seeded drop rates up to 0.3, as
//!    long as the residual graph stays connected.
//!
//! The CI chaos job re-runs these under several `QDC_CHAOS_SEED` values;
//! the seed perturbs every generated case while each individual run stays
//! fully deterministic.

use proptest::prelude::*;
use qdc::algos::flood::{chaos_round_budget, robust_broadcast};
use qdc::congest::{
    ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, NullTelemetry, Outbox,
    RunOptions, Simulator,
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

        // The sharded engine is covered by the same differential: both
        // paths at 4 compute threads reproduce the 1-thread results bit
        // for bit (delivery and chaos stay sequential; only `on_round`
        // fans out).
        let sharded = Simulator::with_options(&g, cfg, RunOptions { threads: 4 });
        let (par, par_report) = sharded.run(make, 100);
        let (par_fallible, par_fallible_report) =
            sharded.try_run(make, &chaos).expect("fault-free run quiesces");
        prop_assert_eq!(plain_report, par_report);
        prop_assert_eq!(fallible_report, par_fallible_report);
        for v in 0..g.node_count() {
            prop_assert_eq!(plain[v].label, par[v].label);
            prop_assert_eq!(fallible[v].label, par_fallible[v].label);
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
        let options = RunOptions::default();
        let out = robust_broadcast(&g, cfg, options, NodeId(0), &chaos, give_up, &mut NullTelemetry)
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
