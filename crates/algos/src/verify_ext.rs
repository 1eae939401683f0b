//! Distributed verification of the remaining Appendix A.2 / Corollary 3.7
//! problems: cycle containment, e-cycle containment, bipartiteness,
//! s-t connectivity, cut, s-t cut, edge-on-all-paths and simple path.
//!
//! All follow the same recipe as [`crate::verify`] (its crate-private
//! `Recipe`); bipartiteness first runs a parity-carrying label flood and
//! a one-round conflict exchange, then elects the recipe's leader.

use crate::ledger::Ledger;
use crate::tree::{exchange, first_smallest, relax, Agg};
use crate::verify::{Recipe, VerificationRun};
use crate::widths::{bits_for, id_width};
use qdc_congest::{BitString, CongestConfig, Message, NodeInfo, Simulator};
use qdc_graph::{EdgeId, Graph, NodeId, Subgraph};

/// **Cycle containment verification**: does `M` contain a cycle?
///
/// `M` is acyclic iff `|E(M)| = n − components(M)`; both sides are
/// aggregates.
pub fn verify_cycle_containment(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
) -> VerificationRun {
    let (mut recipe, out) = Recipe::components(graph, cfg, m);
    let edges = recipe.edge_count(m);
    recipe.decide(edges > (graph.node_count() - out.fragment_count) as u64)
}

/// **e-cycle containment verification**: does `M` contain a cycle through
/// the edge `e`?
///
/// Runs the component engine on `M − e` and checks whether the endpoints
/// of `e` still share a fragment (and that `e ∈ M`).
pub fn verify_e_cycle_containment(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
    e: EdgeId,
) -> VerificationRun {
    if !m.contains(e) {
        return VerificationRun {
            accept: false,
            ledger: Ledger::new(),
        };
    }
    let mut without = m.clone();
    without.remove(e);
    let (u, v) = graph.endpoints(e);
    verify_st_connectivity(graph, cfg, &without, u, v)
}

/// **s-t connectivity verification**: are `s` and `t` in the same
/// component of `M`?
///
/// Component labels from the fragment engine; `s` and `t` inject their
/// labels into two MIN-aggregates (everyone else contributes
/// `2^width − 1`, which exceeds every label), and the root compares.
pub fn verify_st_connectivity(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
    s: NodeId,
    t: NodeId,
) -> VerificationRun {
    let (mut recipe, out) = Recipe::components(graph, cfg, m);
    let width = id_width(graph.node_count()) + 1;
    let mut label_of = |who: NodeId| {
        recipe.aggregate(Agg::Min, width, |u| {
            if u == who {
                out.fragment_of[u.index()]
            } else {
                (1 << width) - 1
            }
        })
    };
    let same = label_of(s) == label_of(t);
    recipe.decide(same)
}

/// **Cut verification**: does removing `E(M)` disconnect `N`?
///
/// Runs the component engine on the complement subgraph.
pub fn verify_cut(graph: &Graph, cfg: CongestConfig, m: &Subgraph) -> VerificationRun {
    let (recipe, out) = Recipe::components(graph, cfg, &m.complement());
    recipe.decide(out.fragment_count > 1)
}

/// **s-t cut verification**: does removing `E(M)` separate `s` from `t`?
pub fn verify_st_cut(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
    s: NodeId,
    t: NodeId,
) -> VerificationRun {
    let run = verify_st_connectivity(graph, cfg, &m.complement(), s, t);
    VerificationRun {
        accept: !run.accept,
        ..run
    }
}

/// **Edge-on-all-paths verification**: does `e` lie on every `u`–`v` path
/// in `M` (vacuously true if `u` and `v` are disconnected in `M`)?
pub fn verify_edge_on_all_paths(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
    u: NodeId,
    v: NodeId,
    e: EdgeId,
) -> VerificationRun {
    let mut without = m.clone();
    without.remove(e);
    let run = verify_st_connectivity(graph, cfg, &without, u, v);
    VerificationRun {
        accept: !run.accept,
        ..run
    }
}

/// **Simple path verification**: degrees in `{0, 1, 2}` with exactly two
/// degree-1 nodes, and no cycle.
pub fn verify_simple_path(graph: &Graph, cfg: CongestConfig, m: &Subgraph) -> VerificationRun {
    let (mut recipe, out) = Recipe::components(graph, cfg, m);
    let n = graph.node_count();
    let degrees_fine =
        recipe.aggregate(Agg::And, 1, |u| u64::from(m.degree_in(graph, u) <= 2)) == 1;
    let deg1_count = recipe.aggregate(Agg::Sum, bits_for(n as u64), |u| {
        u64::from(m.degree_in(graph, u) == 1)
    });
    let acyclic = recipe.edge_count(m) == (n - out.fragment_count) as u64;
    recipe.decide(degrees_fine && deg1_count == 2 && acyclic)
}

// ---------------------------------------------------------------------------
// Bipartiteness: parity-carrying label flood + conflict exchange.
// ---------------------------------------------------------------------------

/// **Bipartiteness verification**: is `M` bipartite?
///
/// Each `M`-component is 2-colored by a parity-carrying minimum-origin
/// flood; a one-round exchange then flags any `M`-edge joining equal
/// parities, and the flags are OR-aggregated.
pub fn verify_bipartiteness(graph: &Graph, cfg: CongestConfig, m: &Subgraph) -> VerificationRun {
    let n = graph.node_count();
    let width = id_width(n);
    assert!(width < cfg.bandwidth_bits, "parity message exceeds B");
    let mut ledger = Ledger::new();
    let sim = Simulator::new(graph, cfg);
    let m_ports = |info: &NodeInfo| -> Vec<usize> {
        let edges = info.incident_edges.iter().enumerate();
        edges
            .filter(|&(_, &e)| m.contains(e))
            .map(|(p, _)| p)
            .collect()
    };
    // A label is (origin, parity); only M-edges carry one.
    let encode = |&(origin, parity): &(u64, bool)| {
        let mut bits = BitString::new();
        bits.push_uint(origin, width);
        bits.push_bit(parity);
        Message::from_bits(bits)
    };
    let decode = |msg: &Message| {
        let mut r = msg.reader();
        let origin = r.read_uint(width).expect("origin");
        (origin, r.read_bit().expect("parity"))
    };

    // Offers are ranked by origin alone: the first port with the smallest
    // origin wins, whatever parity it carries.
    let flooded = relax(
        &sim,
        &mut ledger,
        |info| (Some((info.id.0 as u64, false)), None, m_ports(info)),
        encode,
        |_, _, label, inbox| {
            let offer = first_smallest(inbox, |_, msg| decode(msg), |&(o, _)| o);
            let (port, (origin, parity)) = offer?;
            (origin < label?.0).then_some((port, (origin, !parity)))
        },
        false,
    );
    let label = |u: NodeId| flooded[u.index()].0.expect("every node holds a label");

    let heard = exchange(&sim, &mut ledger, |info| {
        let msg = encode(&label(info.id));
        m_ports(info)
            .into_iter()
            .map(|p| (p, msg.clone()))
            .collect()
    });
    // Same BFS-layer origin with equal parity across an M-edge ⇒ an odd
    // cycle.
    let conflict = |u: NodeId| {
        let heard = heard[u.index()].iter().flatten();
        heard.map(decode).any(|other| other == label(u))
    };

    // OR-aggregate the conflicts over a BFS tree and broadcast back.
    let mut recipe = Recipe::elect(graph, cfg, ledger);
    let conflict = recipe.aggregate(Agg::Or, 1, |u| u64::from(conflict(u))) == 1;
    recipe.decide(!conflict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{generate, predicates, Graph};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(64)
    }

    #[test]
    fn cycle_containment_matches_predicate() {
        let g = Graph::cycle(8);
        assert!(verify_cycle_containment(&g, cfg(), &g.full_subgraph()).accept);
        let mut m = g.full_subgraph();
        m.remove(EdgeId(3));
        assert!(!verify_cycle_containment(&g, cfg(), &m).accept);
    }

    #[test]
    fn e_cycle_containment_matches_predicate() {
        // Triangle + pendant.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let m = g.full_subgraph();
        let in_cycle = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let pendant = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        assert!(verify_e_cycle_containment(&g, cfg(), &m, in_cycle).accept);
        assert!(!verify_e_cycle_containment(&g, cfg(), &m, pendant).accept);
        let mut without = m.clone();
        without.remove(in_cycle);
        assert!(!verify_e_cycle_containment(&g, cfg(), &without, in_cycle).accept);
    }

    #[test]
    fn st_connectivity_matches_predicate() {
        let g = Graph::path(6);
        let m = g.full_subgraph();
        assert!(verify_st_connectivity(&g, cfg(), &m, NodeId(0), NodeId(5)).accept);
        let mut cut = m.clone();
        cut.remove(EdgeId(2));
        assert!(!verify_st_connectivity(&g, cfg(), &cut, NodeId(0), NodeId(5)).accept);
        assert!(verify_st_connectivity(&g, cfg(), &cut, NodeId(3), NodeId(5)).accept);
    }

    #[test]
    fn cut_and_st_cut_match_predicates() {
        let g = Graph::cycle(6);
        let m = qdc_graph::Subgraph::from_endpoint_pairs(
            &g,
            &[(NodeId(0), NodeId(1)), (NodeId(3), NodeId(4))],
        );
        assert!(verify_cut(&g, cfg(), &m).accept);
        assert_eq!(verify_cut(&g, cfg(), &m).accept, predicates::is_cut(&g, &m));
        // Removing M splits the 6-cycle into arcs {1,2,3} and {4,5,0}.
        assert!(verify_st_cut(&g, cfg(), &m, NodeId(1), NodeId(4)).accept);
        assert!(!verify_st_cut(&g, cfg(), &m, NodeId(1), NodeId(3)).accept);
    }

    #[test]
    fn edge_on_all_paths_matches_predicate() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let m = g.full_subgraph();
        let bridge = g.find_edge(NodeId(2), NodeId(3)).unwrap();
        let side = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(verify_edge_on_all_paths(&g, cfg(), &m, NodeId(0), NodeId(3), bridge).accept);
        assert!(!verify_edge_on_all_paths(&g, cfg(), &m, NodeId(0), NodeId(2), side).accept);
    }

    #[test]
    fn simple_path_matches_predicate() {
        let p = Graph::path(7);
        assert!(verify_simple_path(&p, cfg(), &p.full_subgraph()).accept);
        let c = Graph::cycle(5);
        assert!(!verify_simple_path(&c, cfg(), &c.full_subgraph()).accept);
        // Two disjoint edges in a connected host: four degree-1 nodes.
        let g = Graph::path(4);
        let mut m = g.full_subgraph();
        m.remove(EdgeId(1));
        assert!(!verify_simple_path(&g, cfg(), &m).accept);
    }

    #[test]
    fn bipartiteness_even_vs_odd_cycles() {
        let even = Graph::cycle(8);
        assert!(verify_bipartiteness(&even, cfg(), &even.full_subgraph()).accept);
        let odd = Graph::cycle(7);
        assert!(!verify_bipartiteness(&odd, cfg(), &odd.full_subgraph()).accept);
        // Removing one edge of the odd cycle restores bipartiteness.
        let mut m = odd.full_subgraph();
        m.remove(EdgeId(0));
        assert!(verify_bipartiteness(&odd, cfg(), &m).accept);
    }

    #[test]
    fn bipartiteness_on_random_subgraphs_matches_predicate() {
        for seed in 0..8 {
            let g = generate::random_connected(16, 18, seed + 70);
            let mut m = g.empty_subgraph();
            for (k, e) in g.edges().enumerate() {
                if !(k * 13 + seed as usize).is_multiple_of(3) {
                    m.insert(e);
                }
            }
            assert_eq!(
                verify_bipartiteness(&g, cfg(), &m).accept,
                predicates::is_bipartite(&g, &m),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn all_extended_verifiers_match_predicates_randomized() {
        for seed in 0..6 {
            let g = generate::random_connected(14, 14, seed + 90);
            let mut m = g.empty_subgraph();
            for (k, e) in g.edges().enumerate() {
                if (k * 7 + seed as usize) % 4 < 2 {
                    m.insert(e);
                }
            }
            assert_eq!(
                verify_cycle_containment(&g, cfg(), &m).accept,
                predicates::contains_cycle(&g, &m),
                "cycle seed {seed}"
            );
            let (s, t) = (NodeId(0), NodeId((g.node_count() - 1) as u32));
            assert_eq!(
                verify_st_connectivity(&g, cfg(), &m, s, t).accept,
                predicates::st_connected(&g, &m, s, t),
                "st seed {seed}"
            );
            assert_eq!(
                verify_cut(&g, cfg(), &m).accept,
                predicates::is_cut(&g, &m),
                "cut seed {seed}"
            );
            assert_eq!(
                verify_st_cut(&g, cfg(), &m, s, t).accept,
                predicates::is_st_cut(&g, &m, s, t),
                "st-cut seed {seed}"
            );
            assert_eq!(
                verify_simple_path(&g, cfg(), &m).accept,
                predicates::is_simple_path(&g, &m),
                "path seed {seed}"
            );
        }
    }
}
