//! Cross-crate integration tests: every distributed algorithm agrees with
//! its sequential reference oracle on randomized instances.
//!
//! The CI chaos job re-runs these under several `QDC_CHAOS_SEED` values;
//! the seed perturbs every generated network while each individual run
//! stays fully deterministic.

use proptest::prelude::*;
use qdc::algos::apsp::distributed_apsp;
use qdc::algos::flood::{build_bfs_tree, elect_leader};
use qdc::algos::lel::distributed_le_lists;
use qdc::algos::mst::{mst_approx_sweep, mst_exact};
use qdc::algos::sssp::distributed_sssp;
use qdc::algos::verify::{
    verify_connectivity, verify_hamiltonian_cycle, verify_spanning_connected, verify_spanning_tree,
};
use qdc::algos::verify_ext::verify_bipartiteness;
use qdc::algos::Ledger;
use qdc::congest::CongestConfig;
use qdc::graph::{algorithms, generate, lel, predicates, NodeId, Subgraph};
use rand::seq::SliceRandom;

fn cfg() -> CongestConfig {
    CongestConfig::classical(64)
}

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Distributed exact MST = Kruskal, edge set for edge set.
    #[test]
    fn mst_matches_kruskal(seed in 0u64..500, n in 8usize..28, wmax in 1u64..40) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n, seed);
        let w = generate::random_weights(&g, wmax, seed + 1);
        let run = mst_exact(&g, cfg(), &w);
        let reference = algorithms::kruskal_mst(&g, &w);
        let mut got = run.edges.clone();
        let mut want = reference.edges.clone();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// The Elkin-style sweep always returns a spanning tree within α.
    #[test]
    fn sweep_is_spanning_and_alpha_bounded(seed in 0u64..500, n in 8usize..24) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, 2 * n, seed);
        let w = generate::random_weights(&g, 32, seed + 7);
        let alpha = 2.0;
        let run = mst_approx_sweep(&g, cfg(), &w, alpha);
        let sub = Subgraph::from_edges(&g, run.edges.iter().copied());
        prop_assert!(predicates::is_spanning_tree(&g, &sub));
        let opt = algorithms::kruskal_mst(&g, &w).total_weight;
        prop_assert!(run.total_weight as f64 <= alpha * opt as f64 + 1e-9);
    }

    /// Distributed Bellman–Ford = Dijkstra.
    #[test]
    fn sssp_matches_dijkstra(seed in 0u64..500, n in 8usize..30) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n, seed);
        let w = generate::random_weights(&g, 25, seed + 3);
        let run = distributed_sssp(&g, cfg(), &w, NodeId(0));
        prop_assert_eq!(run.dist, algorithms::dijkstra(&g, &w, NodeId(0)));
    }

    /// Every distributed verifier agrees with its predicate on random
    /// subnetworks M of random connected networks N.
    #[test]
    fn verifiers_match_predicates(seed in 0u64..500, n in 6usize..22, keep in 0u8..4) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n, seed);
        let mut m = g.empty_subgraph();
        for (k, e) in g.edges().enumerate() {
            if (k as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed) % 4 <= keep as u64 {
                m.insert(e);
            }
        }
        prop_assert_eq!(
            verify_hamiltonian_cycle(&g, cfg(), &m).accept,
            predicates::is_hamiltonian_cycle(&g, &m)
        );
        prop_assert_eq!(
            verify_spanning_tree(&g, cfg(), &m).accept,
            predicates::is_spanning_tree(&g, &m)
        );
        prop_assert_eq!(
            verify_connectivity(&g, cfg(), &m).accept,
            predicates::is_connected(&g, &m)
        );
        prop_assert_eq!(
            verify_spanning_connected(&g, cfg(), &m).accept,
            predicates::is_spanning_connected_subgraph(&g, &m)
        );
        prop_assert_eq!(
            verify_bipartiteness(&g, cfg(), &m).accept,
            predicates::is_bipartite(&g, &m)
        );
    }

    /// The BFS wave's depths are the sequential hop distances from its
    /// root.
    #[test]
    fn bfs_depths_match_sequential_bfs(seed in 0u64..500, n in 4usize..30, root in 0u32..30) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n, seed);
        let root = NodeId(root % n as u32);
        let tree = build_bfs_tree(&g, cfg(), root, &mut Ledger::new());
        prop_assert_eq!(tree.depth, algorithms::bfs_distances(&g, &g.full_subgraph(), root));
    }

    /// The max-id flood elects the largest id.
    #[test]
    fn leader_is_the_max_id(seed in 0u64..500, n in 2usize..40) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n / 2, seed);
        prop_assert_eq!(elect_leader(&g, cfg(), &mut Ledger::new()), NodeId(n as u32 - 1));
    }

    /// Pipelined-BFS APSP = one sequential BFS per source, and its
    /// diameter is the exact one.
    #[test]
    fn apsp_matches_per_source_bfs(seed in 0u64..500, n in 4usize..24) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n, seed);
        let run = distributed_apsp(&g, cfg());
        for u in g.nodes() {
            let reference = algorithms::bfs_distances(&g, &g.full_subgraph(), u);
            prop_assert_eq!(&run.dist[u.index()], &reference);
        }
        prop_assert_eq!(Some(run.diameter), algorithms::diameter(&g));
    }

    /// Cohen's pruned flood = the sequential least-element lists, under
    /// a random permutation of ranks.
    #[test]
    fn le_lists_match_sequential(seed in 0u64..500, n in 4usize..24, wmax in 1u64..12) {
        let seed = seed ^ env_seed();
        let g = generate::random_connected(n, n, seed);
        let w = generate::random_weights(&g, wmax, seed + 5);
        let mut ranks: Vec<u64> = (0..n as u64).collect();
        ranks.shuffle(&mut generate::rng(seed + 9));
        let run = distributed_le_lists(&g, cfg(), &w, &ranks);
        for u in g.nodes() {
            let mut reference = lel::le_list(&g, &w, &ranks, u);
            reference.sort();
            prop_assert_eq!(&run.lists[u.index()], &reference);
        }
    }
}

#[test]
fn verification_rounds_scale_like_sqrt_n_on_hard_networks() {
    // The Figure 2(b) shape as a regression test: rounds grow with n but
    // far slower than linearly.
    use qdc::simthm::SimulationNetwork;
    let mut rounds = Vec::new();
    let mut sizes = Vec::new();
    for &(gamma, l) in &[(6usize, 9usize), (13, 17), (27, 33)] {
        let net = SimulationNetwork::build_even_tracks(gamma, l);
        let m = net.hamiltonian_m();
        let run = verify_hamiltonian_cycle(net.graph(), cfg(), &m);
        assert!(run.accept);
        rounds.push(run.ledger.rounds as f64);
        sizes.push(net.graph().node_count() as f64);
    }
    let growth = rounds[2] / rounds[0];
    let size_growth = sizes[2] / sizes[0];
    assert!(
        growth < size_growth.sqrt() * 2.5,
        "rounds grew ×{growth:.2} for ×{size_growth:.2} nodes — not √n-like"
    );
    assert!(growth > 1.2, "rounds should grow with n, got ×{growth:.2}");
}

#[test]
fn shallow_light_guarantee_holds_on_hard_networks() {
    // Regression: the LAST construction must keep its α-radius guarantee
    // on the long-path simulation networks, not just on dense random
    // graphs (a scan-order overwrite once broke this).
    use qdc::graph::optimization::shallow_light_tree;
    use qdc::simthm::SimulationNetwork;
    for &(gamma, l, alpha) in &[(6usize, 17usize, 1.5f64), (11, 33, 2.0), (4, 65, 3.0)] {
        let net = SimulationNetwork::build(gamma, l);
        let g = net.graph();
        let w = generate::random_weights(g, 32, 5);
        let slt = shallow_light_tree(g, &w, NodeId(0), alpha);
        assert!(predicates::is_spanning_tree(g, &slt.tree));
        let d = algorithms::dijkstra(g, &w, NodeId(0));
        for v in g.nodes() {
            assert!(
                slt.root_distances[v.index()] as f64 <= alpha * d[v.index()] as f64 + 1e-9,
                "Γ={gamma}, L={l}, α={alpha}, node {v}"
            );
        }
        let mst = algorithms::kruskal_mst(g, &w).total_weight;
        assert!(slt.weight as f64 <= (1.0 + 2.0 / (alpha - 1.0)) * mst as f64 + 1e-9);
    }
}
