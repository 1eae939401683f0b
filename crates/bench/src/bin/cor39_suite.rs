//! Corollary 3.9: the optimization-problem roster.
//!
//! The corollary transfers the Theorem 3.8 bound to MST, shallow-light
//! tree, s-source distance, shortest-path tree, minimum routing cost
//! spanning tree, minimum (s-t) cut, shortest s-t path and generalized
//! Steiner forest. This harness solves each on a hard-network instance —
//! distributed where we have a distributed algorithm, sequential
//! reference otherwise — and reports solution quality against the known
//! guarantees.

use qdc_algos::mst::{mst_approx_sweep, mst_exact};
use qdc_algos::sssp::distributed_sssp;
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::CongestConfig;
use qdc_core::bounds;
use qdc_graph::optimization::{
    best_spt_routing_tree, min_st_cut, routing_cost_lower_bound, shallow_light_tree,
    steiner_feasible, steiner_forest,
};
use qdc_graph::{algorithms, generate, NodeId};
use qdc_simthm::SimulationNetwork;

fn main() {
    let bandwidth = 64;
    let net = SimulationNetwork::build_even_tracks(11, 17);
    let g = net.graph().clone();
    let n = g.node_count();
    let weights = generate::random_weights(&g, 32, 5);
    let w_ratio = weights.aspect_ratio();
    let cfg = CongestConfig::classical(bandwidth);
    let s = NodeId(0);
    let t = NodeId((n - 1) as u32);

    println!("=== Corollary 3.9: optimization suite on N, n = {n}, W = {w_ratio} ===\n");
    println!(
        "Theorem 3.8 bound at (W = {w_ratio}, α = 1): Ω({}) rounds; at α = 2: Ω({})\n",
        fmt_f(bounds::optimization_lower_bound(n, bandwidth, w_ratio, 1.0)),
        fmt_f(bounds::optimization_lower_bound(n, bandwidth, w_ratio, 2.0)),
    );

    let widths = [34, 14, 14, 24];
    print_header(&["problem", "value", "rounds", "quality check"], &widths);

    // MST (distributed, exact + 2-approx).
    let exact = mst_exact(&g, cfg, &weights);
    let kruskal = algorithms::kruskal_mst(&g, &weights);
    print_row(
        &[
            "minimum spanning tree (exact)",
            &exact.total_weight.to_string(),
            &exact.ledger.rounds.to_string(),
            &format!("= Kruskal: {}", exact.total_weight == kruskal.total_weight),
        ],
        &widths,
    );
    let approx = mst_approx_sweep(&g, cfg, &weights, 2.0);
    print_row(
        &[
            "minimum spanning tree (2-approx)",
            &approx.total_weight.to_string(),
            &approx.ledger.rounds.to_string(),
            &format!(
                "ratio {:.3} ≤ 2",
                approx.total_weight as f64 / kruskal.total_weight as f64
            ),
        ],
        &widths,
    );

    // s-source distance / shortest path tree / shortest s-t path
    // (distributed Bellman–Ford).
    let sssp = distributed_sssp(&g, cfg, &weights, s);
    let dij = algorithms::dijkstra(&g, &weights, s);
    print_row(
        &[
            "s-source distance",
            &fmt_f(sssp.dist.iter().map(|&d| d as f64).sum::<f64>()),
            &sssp.ledger.rounds.to_string(),
            &format!("= Dijkstra: {}", sssp.dist == dij),
        ],
        &widths,
    );
    let spt_edges = sssp
        .parent_port
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_some())
        .count();
    print_row(
        &[
            "shortest path tree",
            &spt_edges.to_string(),
            &sssp.ledger.rounds.to_string(),
            &format!("spans n−1 = {}: {}", n - 1, spt_edges == n - 1),
        ],
        &widths,
    );
    print_row(
        &[
            "shortest s-t path",
            &sssp.dist[t.index()].to_string(),
            &sssp.ledger.rounds.to_string(),
            &format!("= Dijkstra: {}", sssp.dist[t.index()] == dij[t.index()]),
        ],
        &widths,
    );

    // Minimum cut (sequential Stoer–Wagner reference).
    let global_cut = algorithms::stoer_wagner_min_cut(&g, &weights).unwrap();
    print_row(
        &[
            "minimum cut (Stoer–Wagner ref)",
            &global_cut.to_string(),
            "-",
            "global ≤ every s-t cut",
        ],
        &widths,
    );

    // Minimum s-t cut (Edmonds–Karp reference).
    let st = min_st_cut(&g, &weights, s, t);
    print_row(
        &[
            "minimum s-t cut (max-flow ref)",
            &st.value.to_string(),
            "-",
            &format!("≥ global: {}", st.value >= global_cut),
        ],
        &widths,
    );

    // Minimum routing cost spanning tree (best-SPT 2-approx).
    let (_tree, cost) = best_spt_routing_tree(&g, &weights);
    let lb = routing_cost_lower_bound(&g, &weights);
    print_row(
        &[
            "min routing cost ST (2-approx)",
            &cost.to_string(),
            "-",
            &format!("≤ 2·metric LB {}: {}", lb, cost <= 2 * lb),
        ],
        &widths,
    );

    // Shallow-light tree (LAST, α = 2).
    let slt = shallow_light_tree(&g, &weights, s, 2.0);
    let light_ok = slt.weight as f64 <= 3.0 * kruskal.total_weight as f64;
    let shallow_ok = g
        .nodes()
        .all(|v| slt.root_distances[v.index()] as f64 <= 2.0 * dij[v.index()] as f64 + 1e-9);
    assert!(light_ok && shallow_ok, "shallow-light guarantees must hold");
    print_row(
        &[
            "shallow-light tree (α = 2)",
            &slt.weight.to_string(),
            "-",
            &format!("radius ≤ 2·SPT: {shallow_ok}, weight ≤ 3·MST: {light_ok}"),
        ],
        &widths,
    );

    // Generalized Steiner forest.
    let groups = vec![
        vec![
            NodeId(0),
            NodeId((n / 3) as u32),
            NodeId((2 * n / 3) as u32),
        ],
        vec![NodeId(1), NodeId((n / 2) as u32)],
    ];
    let (forest, sf_weight) = steiner_forest(&g, &weights, &groups);
    print_row(
        &[
            "generalized Steiner forest",
            &sf_weight.to_string(),
            "-",
            &format!("feasible: {}", steiner_feasible(&g, &forest, &groups)),
        ],
        &widths,
    );

    println!("\nEvery problem above inherits the Ω(min(W/α, √n)/√(B log n)) quantum round");
    println!("bound via Corollary 3.9; the classical solutions shown are within their known");
    println!("approximation guarantees, so quantumness cannot help by more than polylogs.");
}
