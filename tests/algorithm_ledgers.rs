//! Pins the full cost ledger of every distributed algorithm outside the
//! verifiers: leader election, the BFS tree, convergecast + broadcast,
//! the fragment engine in both phases, exact and approximate MST, SSSP,
//! APSP and least-element lists, on one random weighted network.
//!
//! The MST, SSSP, APSP and LE-list goldens pin only rounds and values,
//! so a slipped message width or a reordered stage would still pass
//! them. This test pins (rounds, messages, bits, stages) and a summary
//! of the result for each algorithm; `verifier_ledgers` does the same
//! for the 13 verifiers.

use qdc::algos::apsp::distributed_apsp;
use qdc::algos::flood::{build_bfs_tree, elect_leader};
use qdc::algos::fragments::{spanning_forest, FragmentConfig};
use qdc::algos::lel::distributed_le_lists;
use qdc::algos::mst::{mst_approx_sweep, mst_exact};
use qdc::algos::sssp::distributed_sssp;
use qdc::algos::tree::{aggregate_to_root, broadcast_from_root, Agg};
use qdc::algos::Ledger;
use qdc::congest::CongestConfig;
use qdc::graph::{generate, EdgeWeights, Graph, NodeId};

/// (algorithm, rounds, messages, bits, stages, result).
type Row = (&'static str, usize, u64, u64, usize, String);

/// The ledgers, in the order [`ledgers`] runs the algorithms.
const EXPECTED: &[(&str, usize, u64, u64, usize, &str)] = &[
    ("elect_leader", 5, 1024, 6144, 1, "leader 59"),
    ("build_bfs_tree", 5, 298, 59, 2, "height 3, 59 child ports"),
    (
        "aggregate_then_broadcast",
        6,
        118,
        1888,
        2,
        "sum 1420, 1420 at every node",
    ),
    ("mst_exact", 132, 5125, 29_937, 41, "59 edges, weight 597"),
    (
        "spanning_forest_phase_two",
        258,
        10_747,
        110_090,
        23,
        "1 fragment, weight 597",
    ),
    (
        "mst_approx_sweep",
        65,
        6195,
        37_170,
        40,
        "59 edges, weight 622",
    ),
    ("distributed_sssp", 7, 422, 5064, 1, "distance sum 2247"),
    ("distributed_apsp", 91, 20_123, 231_107, 6, "diameter 5"),
    ("distributed_le_lists", 19, 2594, 62_256, 1, "246 entries"),
];

fn row(name: &'static str, l: Ledger, result: String) -> Row {
    (name, l.rounds, l.messages, l.bits, l.stages, result)
}

/// Runs every algorithm on `g` with weights `w`.
fn ledgers(g: &Graph, w: &EdgeWeights) -> Vec<Row> {
    let cfg = CongestConfig::classical(64);
    let n = g.node_count();
    let mut rows = Vec::new();

    let mut l = Ledger::new();
    let leader = elect_leader(g, cfg, &mut l);
    rows.push(row("elect_leader", l, format!("leader {}", leader.0)));

    let mut l = Ledger::new();
    let tree = build_bfs_tree(g, cfg, NodeId(3), &mut l);
    let child_ports: usize = tree.children_ports.iter().map(Vec::len).sum();
    let summary = format!("height {}, {child_ports} child ports", tree.height);
    rows.push(row("build_bfs_tree", l, summary));

    let mut l = Ledger::new();
    let values: Vec<u64> = (0..n as u64).map(|i| (7 * i + 3) % 50).collect();
    let sum = aggregate_to_root(g, cfg, &tree, &values, Agg::Sum, 16, &mut l);
    let got = broadcast_from_root(g, cfg, &tree, sum, 16, &mut l);
    let everywhere = if got.iter().all(|&v| v == Some(sum)) {
        format!("{sum} at every node")
    } else {
        format!("{got:?}")
    };
    rows.push(row(
        "aggregate_then_broadcast",
        l,
        format!("sum {sum}, {everywhere}"),
    ));

    let run = mst_exact(g, cfg, w);
    let summary = format!("{} edges, weight {}", run.edges.len(), run.total_weight);
    rows.push(row("mst_exact", run.ledger, summary));

    let mut l = Ledger::new();
    let fc = FragmentConfig {
        size_threshold: 1,
        max_phases: 64,
    };
    let out = spanning_forest(g, cfg, w, &g.full_subgraph(), &fc, &mut l);
    let weight: u64 = out.forest_edges.iter().map(|&e| w.weight(e)).sum();
    let summary = format!("{} fragment, weight {weight}", out.fragment_count);
    rows.push(row("spanning_forest_phase_two", l, summary));

    let run = mst_approx_sweep(g, cfg, w, 2.0);
    let summary = format!("{} edges, weight {}", run.edges.len(), run.total_weight);
    rows.push(row("mst_approx_sweep", run.ledger, summary));

    let run = distributed_sssp(g, cfg, w, NodeId(0));
    let summary = format!("distance sum {}", run.dist.iter().sum::<u64>());
    rows.push(row("distributed_sssp", run.ledger, summary));

    let run = distributed_apsp(g, cfg);
    rows.push(row(
        "distributed_apsp",
        run.ledger,
        format!("diameter {}", run.diameter),
    ));

    let ranks: Vec<u64> = (0..n as u64).map(|i| (37 * i + 11) % 61).collect();
    let run = distributed_le_lists(g, cfg, w, &ranks);
    let entries: usize = run.lists.iter().map(Vec::len).sum();
    rows.push(row(
        "distributed_le_lists",
        run.ledger,
        format!("{entries} entries"),
    ));
    rows
}

#[test]
fn algorithm_ledgers_on_a_random_weighted_network() {
    let g = generate::random_connected(60, 90, 5);
    let w = generate::random_weights(&g, 40, 6);
    let expected: Vec<Row> = EXPECTED
        .iter()
        .map(|&(name, rounds, messages, bits, stages, result)| {
            (name, rounds, messages, bits, stages, result.to_string())
        })
        .collect();
    assert_eq!(ledgers(&g, &w), expected);
}
