//! Corollary 3.7: the full verification-problem roster, run distributed.
//!
//! The corollary extends the Theorem 3.6 bound to eleven verification
//! problems via classical reductions. This harness runs our distributed
//! verifier for each on a hard network instance, confirming the decision
//! against the sequential predicate and recording the measured rounds —
//! all of which sit in the Õ(√n + D) regime the Ω(√(n/(B log n))) bound
//! makes near-optimal.

use qdc_algos::verify::{
    verify_connectivity, verify_hamiltonian_cycle, verify_spanning_connected, verify_spanning_tree,
};
use qdc_algos::verify_ext::{
    verify_bipartiteness, verify_cut, verify_cycle_containment, verify_e_cycle_containment,
    verify_edge_on_all_paths, verify_simple_path, verify_st_connectivity, verify_st_cut,
};
use qdc_bench::{fmt_f, print_header, print_row};
use qdc_congest::CongestConfig;
use qdc_core::bounds;
use qdc_graph::{predicates, NodeId};
use qdc_simthm::SimulationNetwork;

fn main() {
    let bandwidth = 64;
    let net = SimulationNetwork::build_even_tracks(11, 17);
    let m = net.hamiltonian_m();
    let g = net.graph();
    let n = g.node_count();
    let cfg = CongestConfig::classical(bandwidth);
    let bound = bounds::verification_lower_bound(n, bandwidth);

    println!(
        "=== Corollary 3.7: verification suite on N(Γ={}, L={}), n = {n} ===",
        net.path_count(),
        net.length()
    );
    println!(
        "subnetwork M = embedded Hamiltonian matchings; Ω-bound {} rounds\n",
        fmt_f(bound)
    );

    let widths = [28, 10, 12, 12];
    print_header(&["problem", "accept", "rounds", "truth agrees"], &widths);

    let s = NodeId(0);
    let t = NodeId((n - 1) as u32);
    let e0 = m.edges().next().expect("M has edges");
    let (u0, v0) = g.endpoints(e0);

    let mut rows: Vec<(&str, bool, usize, bool)> = Vec::new();
    let r = verify_hamiltonian_cycle(g, cfg, &m);
    rows.push((
        "Hamiltonian cycle",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_hamiltonian_cycle(g, &m),
    ));
    let r = verify_spanning_tree(g, cfg, &m);
    rows.push((
        "spanning tree",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_spanning_tree(g, &m),
    ));
    let r = verify_spanning_connected(g, cfg, &m);
    rows.push((
        "spanning connected subgraph",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_spanning_connected_subgraph(g, &m),
    ));
    let r = verify_connectivity(g, cfg, &m);
    rows.push((
        "connectivity",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_connected(g, &m),
    ));
    let r = verify_cycle_containment(g, cfg, &m);
    rows.push((
        "cycle containment",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::contains_cycle(g, &m),
    ));
    let r = verify_e_cycle_containment(g, cfg, &m, e0);
    rows.push((
        "e-cycle containment",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::contains_cycle_through(g, &m, e0),
    ));
    let r = verify_bipartiteness(g, cfg, &m);
    rows.push((
        "bipartiteness",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_bipartite(g, &m),
    ));
    let r = verify_st_connectivity(g, cfg, &m, s, t);
    rows.push((
        "s-t connectivity",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::st_connected(g, &m, s, t),
    ));
    let r = verify_cut(g, cfg, &m);
    rows.push((
        "cut",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_cut(g, &m),
    ));
    let r = verify_st_cut(g, cfg, &m, s, t);
    rows.push((
        "s-t cut",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_st_cut(g, &m, s, t),
    ));
    let r = verify_edge_on_all_paths(g, cfg, &m, u0, v0, e0);
    rows.push((
        "edge on all paths",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::edge_on_all_paths(g, &m, u0, v0, e0),
    ));
    let r = verify_simple_path(g, cfg, &m);
    rows.push((
        "simple path",
        r.accept,
        r.ledger.rounds,
        r.accept == predicates::is_simple_path(g, &m),
    ));

    let mut all_agree = true;
    for (name, accept, rounds, agrees) in &rows {
        all_agree &= agrees;
        print_row(
            &[
                name,
                &accept.to_string(),
                &rounds.to_string(),
                &agrees.to_string(),
            ],
            &widths,
        );
    }
    assert!(all_agree, "every verifier must agree with its predicate");
    println!(
        "\nAll {} verifiers agree with the sequential predicates. Every one of them",
        rows.len()
    );
    println!("needs Ω(√(n/(B log n))) rounds — quantum communication included (Cor. 3.7).");
}
