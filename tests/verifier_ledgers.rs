//! Pins the full cost ledger of every distributed verifier on the
//! Corollary 3.7 instance: the embedded Hamiltonian subnetwork `M` of
//! `N(Γ, L)` from `build_even_tracks(11, 17)`, with `B = 64`.
//!
//! The `cor37_suite` golden pins only rounds, and on this instance the
//! Hamiltonian-cycle, spanning-tree, connectivity and cycle-containment
//! verifiers share 274 rounds and 21 815 messages: they differ only in
//! bits. A slipped aggregate width would pass that golden, so this test
//! pins (accept, rounds, messages, bits, stages) for all 13 verifiers,
//! on `M` and on `M` minus its first edge.

use qdc::algos::verify::{
    check_indicator_consistency, claims_for_subgraph, verify_connectivity,
    verify_hamiltonian_cycle, verify_spanning_connected, verify_spanning_tree, VerificationRun,
};
use qdc::algos::verify_ext::{
    verify_bipartiteness, verify_cut, verify_cycle_containment, verify_e_cycle_containment,
    verify_edge_on_all_paths, verify_simple_path, verify_st_connectivity, verify_st_cut,
};
use qdc::congest::CongestConfig;
use qdc::graph::{EdgeId, Graph, NodeId, Subgraph};
use qdc::simthm::SimulationNetwork;

/// (verifier, accept, rounds, messages, bits, stages).
type Row = (&'static str, bool, usize, u64, u64, usize);

/// The ledgers on `M`, in the order [`ledgers`] runs the verifiers.
const ON_M: &[Row] = &[
    ("hamiltonian_cycle", true, 274, 21_815, 178_583, 46),
    ("spanning_tree", false, 274, 21_815, 180_803, 46),
    ("connectivity", true, 274, 21_815, 180_137, 46),
    ("spanning_connected", true, 268, 21_593, 178_361, 45),
    ("indicator_consistency", true, 28, 6824, 35_656, 6),
    ("cycle_containment", true, 274, 21_815, 180_803, 46),
    ("e_cycle_containment", true, 280, 22_016, 182_029, 47),
    ("st_connectivity", true, 280, 22_037, 182_357, 47),
    ("cut", true, 70, 9773, 59_397, 23),
    ("st_cut", true, 82, 10_217, 63_393, 25),
    ("edge_on_all_paths", false, 280, 22_016, 182_029, 47),
    ("simple_path", false, 286, 22_259, 182_801, 48),
    ("bipartiteness", false, 140, 14_876, 116_684, 7),
];

/// The ledgers on `M − e0`. `e_cycle_containment` rejects without
/// running a stage, because `e0` is no longer in the subnetwork.
const ON_M_MINUS_FIRST_EDGE: &[Row] = &[
    ("hamiltonian_cycle", false, 274, 21_794, 178_255, 46),
    ("spanning_tree", true, 274, 21_794, 180_475, 46),
    ("connectivity", true, 274, 21_794, 179_809, 46),
    ("spanning_connected", true, 268, 21_572, 178_033, 45),
    ("indicator_consistency", true, 28, 6824, 35_656, 6),
    ("cycle_containment", false, 274, 21_794, 180_475, 46),
    ("e_cycle_containment", false, 0, 0, 0, 0),
    ("st_connectivity", true, 280, 22_016, 182_029, 47),
    ("cut", true, 70, 9787, 59_500, 23),
    ("st_cut", true, 82, 10_231, 63_496, 25),
    ("edge_on_all_paths", false, 280, 22_016, 182_029, 47),
    ("simple_path", true, 286, 22_238, 182_473, 48),
    ("bipartiteness", true, 250, 14_871, 116_639, 7),
];

/// Runs every verifier on `m`; `e0` (the first edge of the unmodified
/// `M`) and its endpoints parameterise the edge verifiers, and s-t
/// verifiers use the first and last node.
fn ledgers(g: &Graph, m: &Subgraph, e0: EdgeId) -> Vec<Row> {
    let cfg = CongestConfig::classical(64);
    let s = NodeId(0);
    let t = NodeId((g.node_count() - 1) as u32);
    let (u0, v0) = g.endpoints(e0);
    let runs: [(&'static str, VerificationRun); 13] = [
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
    ];
    runs.into_iter()
        .map(|(name, r)| {
            let l = r.ledger;
            (name, r.accept, l.rounds, l.messages, l.bits, l.stages)
        })
        .collect()
}

/// The network and `M`, with `M`'s first edge.
fn instance() -> (SimulationNetwork, Subgraph, EdgeId) {
    let net = SimulationNetwork::build_even_tracks(11, 17);
    let m = net.hamiltonian_m();
    let e0 = m.edges().next().expect("M has edges");
    (net, m, e0)
}

#[test]
fn verifier_ledgers_on_m() {
    let (net, m, e0) = instance();
    assert_eq!(ledgers(net.graph(), &m, e0), ON_M);
}

#[test]
fn verifier_ledgers_on_m_minus_first_edge() {
    let (net, mut m, e0) = instance();
    m.remove(e0);
    assert_eq!(ledgers(net.graph(), &m, e0), ON_M_MINUS_FIRST_EDGE);
}
