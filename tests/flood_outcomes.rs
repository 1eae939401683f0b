//! Pins what every flood in `qdc-algos` leaves at every node, on two
//! seeded weighted networks: the leader, the BFS trees, the tree
//! aggregate and broadcast, the fragment engine's labels and forests, the
//! exact and approximate MSTs, SSSP distances and parents, APSP
//! distances, least-element lists, and the 13 verifiers on four
//! subnetworks each.
//!
//! `algorithm_ledgers` and `verifier_ledgers` pin costs and one summary
//! per algorithm, so a flood that broke ties differently (a different
//! parent port, a different tree edge of equal weight) could still pass
//! them. Each row here is a digest (FNV-1a of the `Debug` text) of the
//! full per-node outcome together with its ledger.

use qdc::algos::apsp::distributed_apsp;
use qdc::algos::flood::{build_bfs_tree, elect_leader};
use qdc::algos::fragments::{spanning_forest, FragmentConfig};
use qdc::algos::lel::distributed_le_lists;
use qdc::algos::mst::{mst_approx_sweep, mst_exact};
use qdc::algos::sssp::distributed_sssp;
use qdc::algos::tree::{aggregate_to_root, broadcast_from_root, Agg};
use qdc::algos::verify::{
    check_indicator_consistency, claims_for_subgraph, verify_connectivity,
    verify_hamiltonian_cycle, verify_spanning_connected, verify_spanning_tree, VerificationRun,
};
use qdc::algos::verify_ext::{
    verify_bipartiteness, verify_cut, verify_cycle_containment, verify_e_cycle_containment,
    verify_edge_on_all_paths, verify_simple_path, verify_st_connectivity, verify_st_cut,
};
use qdc::algos::Ledger;
use qdc::congest::CongestConfig;
use qdc::graph::{algorithms, generate, EdgeId, EdgeWeights, Graph, NodeId, Subgraph};
use std::fmt::Debug;

/// The rows on the `algorithm_ledgers` network, in the order
/// [`outcomes`] runs the algorithms.
const ON_A: &[(&str, u64)] = &[
    ("elect_leader", 0xc9a29ea70daee117),
    ("build_bfs_tree from 3", 0x9b27bd6477cb4e9e),
    ("build_bfs_tree from 59", 0xe1fa57651a64e6fa),
    ("aggregate_then_broadcast", 0x5a078d1c049c7bb1),
    ("spanning_forest at 1", 0x5725323b64caeecb),
    ("spanning_forest at 8", 0x2475b453a75adf9e),
    ("mst_exact", 0x6a6e2b9193887748),
    ("mst_approx_sweep at 1.5", 0xaff198d198ea6e7e),
    ("mst_approx_sweep at 2", 0xaff198d198ea6e7e),
    ("mst_approx_sweep at 4", 0x0401a53481a69a20),
    ("distributed_sssp from 0", 0x0c2cf402b58f5b85),
    ("distributed_sssp from 59", 0xb3abf69fd0ad7093),
    ("distributed_apsp", 0x8cac15dfe615c45a),
    ("distributed_le_lists", 0x56ce37d6c929e77f),
    ("hamiltonian_cycle", 0x80140cc818cdabf7),
    ("spanning_tree", 0xd9a56abe0d3ff573),
    ("connectivity", 0x249f787e0a8fdae2),
    ("spanning_connected", 0x87635c76bae9f79a),
    ("indicator_consistency", 0x50385d1c06e97961),
    ("cycle_containment", 0x5366a3944fed0a03),
    ("e_cycle_containment", 0xcb8b5626a04ea49e),
    ("st_connectivity", 0x4ac1e8bb9a4ea796),
    ("cut", 0xafc2bbb5b047da93),
    ("st_cut", 0x1f3e870cc4b41d08),
    ("edge_on_all_paths", 0xe33d6612356f8060),
    ("simple_path", 0xee83d83e2c7dfb40),
    ("bipartiteness", 0xc171c249ef18e84b),
];

/// The rows on the second network.
const ON_B: &[(&str, u64)] = &[
    ("elect_leader", 0xece226da288653dd),
    ("build_bfs_tree from 3", 0x1636f2b2103a1a86),
    ("build_bfs_tree from 44", 0x6a7a904eb05c589b),
    ("aggregate_then_broadcast", 0xcc194dbcc5a21589),
    ("spanning_forest at 1", 0xbd769f594d69131e),
    ("spanning_forest at 7", 0x8c3131c181573d68),
    ("mst_exact", 0x9e1cba58796149fa),
    ("mst_approx_sweep at 1.5", 0xf0596fd169473fd7),
    ("mst_approx_sweep at 2", 0xf0596fd169473fd7),
    ("mst_approx_sweep at 4", 0x824c86f699d0e153),
    ("distributed_sssp from 0", 0xf28ff950140846a4),
    ("distributed_sssp from 44", 0x10a590832a6b1252),
    ("distributed_apsp", 0xd5fc8f3f81c731f6),
    ("distributed_le_lists", 0x1f669118ed496a8e),
    ("hamiltonian_cycle", 0xc47bb5f2a32f0fab),
    ("spanning_tree", 0x346935870e03f1ab),
    ("connectivity", 0x555ee3e40cf7cbfe),
    ("spanning_connected", 0x4819cfff4c69cc39),
    ("indicator_consistency", 0x22c24f8f3e0c15e1),
    ("cycle_containment", 0x212696b5265c1b4d),
    ("e_cycle_containment", 0x5882385759b7e284),
    ("st_connectivity", 0xb0e990a817d0e1c2),
    ("cut", 0x9370a2078ef2e97d),
    ("st_cut", 0x736d52e3af31f310),
    ("edge_on_all_paths", 0xadf000dfd6505692),
    ("simple_path", 0x4af1466c559ee1bd),
    ("bipartiteness", 0x767d69b87572a364),
];

/// FNV-1a over the `Debug` text of `outcome`.
fn digest(outcome: &impl Debug) -> u64 {
    format!("{outcome:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Four subnetworks of `g`: all of it, its Kruskal MST, a dense and a
/// sparse pseudo-random edge subset.
fn subnetworks(g: &Graph, w: &EdgeWeights) -> [Subgraph; 4] {
    let pick = |keep: u64| {
        let edges = g
            .edges()
            .enumerate()
            .filter(|&(k, _)| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 < keep);
        Subgraph::from_edges(g, edges.map(|(_, e)| e))
    };
    let mst = algorithms::kruskal_mst(g, w).edges;
    [
        g.full_subgraph(),
        Subgraph::from_edges(g, mst),
        pick(6),
        pick(3),
    ]
}

/// The 13 verifiers on `m`; `e0` (the first edge of `m`, or of `g` if `m`
/// is empty) parameterises the edge verifiers, and the s-t verifiers use
/// the first and last node.
fn verifiers(g: &Graph, m: &Subgraph) -> [(&'static str, VerificationRun); 13] {
    let cfg = CongestConfig::classical(64);
    let s = NodeId(0);
    let t = NodeId((g.node_count() - 1) as u32);
    let e0 = m.edges().next().unwrap_or(EdgeId(0));
    let (u0, v0) = g.endpoints(e0);
    [
        ("hamiltonian_cycle", verify_hamiltonian_cycle(g, cfg, m)),
        ("spanning_tree", verify_spanning_tree(g, cfg, m)),
        ("connectivity", verify_connectivity(g, cfg, m)),
        ("spanning_connected", verify_spanning_connected(g, cfg, m)),
        (
            "indicator_consistency",
            check_indicator_consistency(g, cfg, &claims_for_subgraph(g, m)),
        ),
        ("cycle_containment", verify_cycle_containment(g, cfg, m)),
        (
            "e_cycle_containment",
            verify_e_cycle_containment(g, cfg, m, e0),
        ),
        ("st_connectivity", verify_st_connectivity(g, cfg, m, s, t)),
        ("cut", verify_cut(g, cfg, m)),
        ("st_cut", verify_st_cut(g, cfg, m, s, t)),
        (
            "edge_on_all_paths",
            verify_edge_on_all_paths(g, cfg, m, u0, v0, e0),
        ),
        ("simple_path", verify_simple_path(g, cfg, m)),
        ("bipartiteness", verify_bipartiteness(g, cfg, m)),
    ]
}

/// Runs every flood on `g` with weights `w`; one digest per row.
fn outcomes(g: &Graph, w: &EdgeWeights) -> Vec<(String, u64)> {
    let cfg = CongestConfig::classical(64);
    let n = g.node_count();
    let last = NodeId(n as u32 - 1);
    let mut rows = Vec::new();
    let mut push = |name: &str, outcome: &dyn Debug| {
        rows.push((name.to_string(), digest(&outcome)));
    };

    let mut l = Ledger::new();
    let leader = elect_leader(g, cfg, &mut l);
    push("elect_leader", &(leader, l));

    let mut trees = Vec::new();
    for root in [NodeId(3), last] {
        let mut l = Ledger::new();
        let t = build_bfs_tree(g, cfg, root, &mut l);
        let outcome = (&t.parent_port, &t.depth, &t.children_ports, t.height, l);
        push(&format!("build_bfs_tree from {}", root.0), &outcome);
        trees.push(t);
    }

    let mut l = Ledger::new();
    let values: Vec<u64> = (0..n as u64).map(|i| (7 * i + 3) % 50).collect();
    let sum = aggregate_to_root(g, cfg, &trees[1], &values, Agg::Sum, 16, &mut l);
    let got = broadcast_from_root(g, cfg, &trees[1], sum, 16, &mut l);
    push("aggregate_then_broadcast", &(sum, got, l));

    let subs = subnetworks(g, w);
    for threshold in [1, FragmentConfig::for_network(n).size_threshold] {
        let fc = FragmentConfig {
            size_threshold: threshold,
            ..FragmentConfig::for_network(n)
        };
        let mut l = Ledger::new();
        let out = spanning_forest(g, cfg, w, &subs[2], &fc, &mut l);
        let outcome = (&out.fragment_of, &out.forest_edges, out.fragment_count, l);
        push(&format!("spanning_forest at {threshold}"), &outcome);
    }

    let run = mst_exact(g, cfg, w);
    push("mst_exact", &(&run.edges, run.total_weight, run.ledger));
    for alpha in [1.5, 2.0, 4.0] {
        let run = mst_approx_sweep(g, cfg, w, alpha);
        let outcome = (&run.edges, run.total_weight, run.ledger);
        push(&format!("mst_approx_sweep at {alpha}"), &outcome);
    }

    for source in [NodeId(0), last] {
        let run = distributed_sssp(g, cfg, w, source);
        let outcome = (&run.dist, &run.parent_port, run.ledger);
        push(&format!("distributed_sssp from {}", source.0), &outcome);
    }

    let run = distributed_apsp(g, cfg);
    push("distributed_apsp", &(&run.dist, run.diameter, run.ledger));

    let ranks: Vec<u64> = (0..n as u64).map(|i| (37 * i + 11) % 61).collect();
    let run = distributed_le_lists(g, cfg, w, &ranks);
    push("distributed_le_lists", &(&run.lists, run.ledger));

    let runs: Vec<_> = subs.iter().map(|m| verifiers(g, m)).collect();
    for k in 0..13 {
        let per_m: Vec<(bool, Ledger)> = runs
            .iter()
            .map(|r| (r[k].1.accept, r[k].1.ledger))
            .collect();
        push(runs[0][k].0, &per_m);
    }
    rows
}

/// Compares `got` with `expected` and, on a mismatch, lists every row
/// in the table's own syntax.
fn check(got: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let want: Vec<(String, u64)> = expected.iter().map(|&(r, d)| (r.into(), d)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(r, d)| format!("    ({r:?}, {d:#018x}),\n"))
            .collect();
        panic!("flood outcomes moved; the rows now read:\n{table}");
    }
}

#[test]
fn flood_outcomes_on_the_algorithm_ledgers_network() {
    let g = generate::random_connected(60, 90, 5);
    let w = generate::random_weights(&g, 40, 6);
    check(outcomes(&g, &w), ON_A);
}

#[test]
fn flood_outcomes_on_a_network_with_light_weights() {
    let g = generate::random_connected(45, 70, 21);
    let w = generate::random_weights(&g, 6, 22);
    check(outcomes(&g, &w), ON_B);
}
