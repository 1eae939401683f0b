//! Distributed verification of subnetwork properties (Section 2.2).
//!
//! Every verifier follows the same recipe the upper bounds of Das Sarma
//! et al. use, written once as the crate-private `Recipe`: run the
//! fragment engine on the *subnetwork* `M` (which elects a leader and
//! builds a BFS tree of the *network* `N` on the way), combine O(1)
//! aggregates over that tree, and broadcast the decision down it. The
//! round cost is dominated by the fragment engine's Õ(√n + D); the
//! paper's Theorem 3.6 shows this is optimal up to polylog factors
//! **even for quantum algorithms**.

use crate::flood::{build_bfs_tree, elect_leader, BfsTreeInfo};
use crate::fragments::{count_components, FragmentOutcome};
use crate::ledger::Ledger;
use crate::tree::{aggregate_to_root, broadcast_from_root, Agg};
use crate::widths::bits_for;
use qdc_congest::CongestConfig;
use qdc_graph::{Graph, NodeId, Subgraph};

/// Result of a distributed verification run.
#[derive(Clone, Debug)]
pub struct VerificationRun {
    /// The decision (known to every node after the final broadcast).
    pub accept: bool,
    /// Accumulated cost.
    pub ledger: Ledger,
}

/// The verification recipe: a BFS tree of the network, O(1) aggregates
/// over it, and the decision broadcast down it. Every stage charges the
/// one ledger the recipe owns.
pub(crate) struct Recipe<'g> {
    graph: &'g Graph,
    cfg: CongestConfig,
    bfs: BfsTreeInfo,
    ledger: Ledger,
}

impl<'g> Recipe<'g> {
    /// Runs the component engine on `active` and reuses its BFS tree;
    /// also hands back the engine's outcome.
    pub(crate) fn components(
        graph: &'g Graph,
        cfg: CongestConfig,
        active: &Subgraph,
    ) -> (Self, FragmentOutcome) {
        let mut ledger = Ledger::new();
        let out = count_components(graph, cfg, active, &mut ledger);
        let bfs = out.bfs.clone();
        (
            Recipe {
                graph,
                cfg,
                bfs,
                ledger,
            },
            out,
        )
    }

    /// Elects a leader and builds its BFS tree after a verifier's own
    /// first stages, whose cost `ledger` already holds.
    pub(crate) fn elect(graph: &'g Graph, cfg: CongestConfig, mut ledger: Ledger) -> Self {
        let leader = elect_leader(graph, cfg, &mut ledger);
        let bfs = build_bfs_tree(graph, cfg, leader, &mut ledger);
        Recipe {
            graph,
            cfg,
            bfs,
            ledger,
        }
    }

    /// Combines `value(u)` over every node at the root, in `width`-bit
    /// messages.
    pub(crate) fn aggregate(
        &mut self,
        agg: Agg,
        width: usize,
        value: impl Fn(NodeId) -> u64,
    ) -> u64 {
        let values: Vec<u64> = self.graph.nodes().map(value).collect();
        let (graph, cfg) = (self.graph, self.cfg);
        aggregate_to_root(graph, cfg, &self.bfs, &values, agg, width, &mut self.ledger)
    }

    /// `|E(M)|`, from the aggregate sum of `M`-degrees.
    pub(crate) fn edge_count(&mut self, m: &Subgraph) -> u64 {
        let graph = self.graph;
        let width = bits_for(2 * graph.edge_count().max(1) as u64);
        self.aggregate(Agg::Sum, width, |u| m.degree_in(graph, u) as u64) / 2
    }

    /// Broadcasts the decision so every node knows the answer, as the
    /// problem statement requires.
    pub(crate) fn decide(mut self, accept: bool) -> VerificationRun {
        let (graph, cfg, bit) = (self.graph, self.cfg, u64::from(accept));
        let got = broadcast_from_root(graph, cfg, &self.bfs, bit, 1, &mut self.ledger);
        debug_assert!(got.iter().all(|&v| v == Some(bit)));
        VerificationRun {
            accept,
            ledger: self.ledger,
        }
    }
}

/// **Hamiltonian cycle verification**: `M` is a spanning simple cycle.
/// Checks "every `M`-degree is 2" (AND-aggregate) and "`M` has one
/// component" (fragment count); together these force a single spanning
/// `n`-cycle.
pub fn verify_hamiltonian_cycle(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
) -> VerificationRun {
    let (mut recipe, out) = Recipe::components(graph, cfg, m);
    let all_deg2 = recipe.aggregate(Agg::And, 1, |u| u64::from(m.degree_in(graph, u) == 2)) == 1;
    recipe.decide(graph.node_count() >= 3 && all_deg2 && out.fragment_count == 1)
}

/// **Spanning tree verification**: `M` is connected over all nodes and has
/// exactly `n − 1` edges.
pub fn verify_spanning_tree(graph: &Graph, cfg: CongestConfig, m: &Subgraph) -> VerificationRun {
    let (mut recipe, out) = Recipe::components(graph, cfg, m);
    let edges = recipe.edge_count(m);
    recipe.decide(out.fragment_count == 1 && edges == graph.node_count() as u64 - 1)
}

/// **Connectivity verification**: all `M`-edges lie in one component
/// (isolated nodes ignored, matching
/// [`qdc_graph::predicates::is_connected`]).
pub fn verify_connectivity(graph: &Graph, cfg: CongestConfig, m: &Subgraph) -> VerificationRun {
    let (mut recipe, out) = Recipe::components(graph, cfg, m);
    let width = bits_for(graph.node_count() as u64);
    let isolated = recipe.aggregate(Agg::Sum, width, |u| u64::from(m.degree_in(graph, u) == 0));
    recipe.decide(out.fragment_count as u64 - isolated <= 1)
}

/// **Connected spanning subgraph verification**: `M` is connected and
/// touches every node.
pub fn verify_spanning_connected(
    graph: &Graph,
    cfg: CongestConfig,
    m: &Subgraph,
) -> VerificationRun {
    let (recipe, out) = Recipe::components(graph, cfg, m);
    recipe.decide(out.fragment_count == 1)
}

// ---------------------------------------------------------------------------
// Indicator-variable consistency (Appendix A.2's one-round precheck).
// ---------------------------------------------------------------------------

struct IndicatorExchange {
    claims: Vec<bool>,
    mismatch: bool,
    started: bool,
}

impl qdc_congest::NodeAlgorithm for IndicatorExchange {
    fn on_start(&mut self, _info: &qdc_congest::NodeInfo, out: &mut qdc_congest::Outbox) {
        self.started = true;
        for (p, &bit) in self.claims.iter().enumerate() {
            out.send(p, qdc_congest::Message::from_bit(bit));
        }
    }
    fn on_round(
        &mut self,
        _info: &qdc_congest::NodeInfo,
        inbox: &qdc_congest::Inbox,
        _out: &mut qdc_congest::Outbox,
    ) {
        for (port, msg) in inbox.iter() {
            if msg.as_bit() != Some(self.claims[port]) {
                self.mismatch = true;
            }
        }
    }
    fn is_terminated(&self) -> bool {
        self.started
    }
}

/// The Appendix A.2 consistency precheck: each node announces, per port,
/// whether it believes the incident edge is in `M`; the two endpoints'
/// claims must agree (`x_{u,v} = x_{v,u}`). One communication round plus
/// an OR-aggregate; rejects corrupted or inconsistent inputs before any
/// verifier runs.
///
/// `claims[v][p]` is node `v`'s indicator for its `p`-th incident edge.
///
/// # Panics
///
/// Panics if the claims shape does not match the graph.
pub fn check_indicator_consistency(
    graph: &Graph,
    cfg: CongestConfig,
    claims: &[Vec<bool>],
) -> VerificationRun {
    assert_eq!(claims.len(), graph.node_count(), "one claim row per node");
    for v in graph.nodes() {
        assert_eq!(
            claims[v.index()].len(),
            graph.degree(v),
            "one claim per incident edge"
        );
    }
    let mut ledger = Ledger::new();
    let sim = qdc_congest::Simulator::new(graph, cfg);
    let (nodes, report) = sim.run(
        |info| IndicatorExchange {
            claims: claims[info.id.index()].clone(),
            mismatch: false,
            started: false,
        },
        crate::flood::stage_cap(graph.node_count()),
    );
    ledger.absorb(&report);
    let mut recipe = Recipe::elect(graph, cfg, ledger);
    let bad = recipe.aggregate(Agg::Or, 1, |u| u64::from(nodes[u.index()].mismatch)) == 1;
    recipe.decide(!bad)
}

/// Builds the consistent per-node claim rows for a subgraph `M` (the
/// honest input encoding of Appendix A.2).
pub fn claims_for_subgraph(graph: &Graph, m: &Subgraph) -> Vec<Vec<bool>> {
    graph
        .nodes()
        .map(|v| {
            graph
                .incident(v)
                .iter()
                .map(|&(e, _)| m.contains(e))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{generate, predicates, EdgeId, Graph};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(64)
    }

    #[test]
    fn hamiltonian_cycle_accepted_and_rejected() {
        let g = Graph::cycle(12);
        let full = g.full_subgraph();
        assert!(verify_hamiltonian_cycle(&g, cfg(), &full).accept);
        let mut broken = full.clone();
        broken.remove(EdgeId(0));
        assert!(!verify_hamiltonian_cycle(&g, cfg(), &broken).accept);
    }

    #[test]
    fn two_cycles_rejected_despite_degrees() {
        // Network: two triangles plus a bridge making N connected; M = the
        // two triangles (all M-degrees 2, two components).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let mut m = g.full_subgraph();
        m.remove(
            g.find_edge(qdc_graph::NodeId(2), qdc_graph::NodeId(3))
                .unwrap(),
        );
        assert!(!verify_hamiltonian_cycle(&g, cfg(), &m).accept);
        assert!(!verify_spanning_tree(&g, cfg(), &m).accept);
        assert!(!verify_connectivity(&g, cfg(), &m).accept);
    }

    #[test]
    fn spanning_tree_verification_matches_predicate() {
        for seed in 0..5 {
            let g = generate::random_connected(20, 15, seed);
            // Candidate M: a BFS tree (true case) or with one edge swapped
            // (false case).
            let tree = qdc_graph::algorithms::bfs_tree(&g, qdc_graph::NodeId(0));
            let m = tree.as_subgraph(&g);
            assert!(verify_spanning_tree(&g, cfg(), &m).accept, "seed {seed}");
            let mut bad = m.clone();
            bad.remove(m.edges().next().unwrap());
            assert_eq!(
                verify_spanning_tree(&g, cfg(), &bad).accept,
                predicates::is_spanning_tree(&g, &bad)
            );
        }
    }

    #[test]
    fn connectivity_ignores_isolated_nodes() {
        let g = generate::random_connected(12, 10, 3);
        // M = a single edge: connected in the paper's sense.
        let mut m = g.empty_subgraph();
        m.insert(EdgeId(0));
        assert!(verify_connectivity(&g, cfg(), &m).accept);
        assert!(!verify_spanning_connected(&g, cfg(), &m).accept);
    }

    #[test]
    fn verifiers_agree_with_predicates_on_random_subgraphs() {
        for seed in 0..8 {
            let g = generate::random_connected(18, 20, seed + 30);
            let mut m = g.empty_subgraph();
            for (k, e) in g.edges().enumerate() {
                if !(k * 7 + seed as usize).is_multiple_of(3) {
                    m.insert(e);
                }
            }
            assert_eq!(
                verify_hamiltonian_cycle(&g, cfg(), &m).accept,
                predicates::is_hamiltonian_cycle(&g, &m),
                "ham seed {seed}"
            );
            assert_eq!(
                verify_spanning_tree(&g, cfg(), &m).accept,
                predicates::is_spanning_tree(&g, &m),
                "st seed {seed}"
            );
            assert_eq!(
                verify_connectivity(&g, cfg(), &m).accept,
                predicates::is_connected(&g, &m),
                "conn seed {seed}"
            );
            assert_eq!(
                verify_spanning_connected(&g, cfg(), &m).accept,
                predicates::is_spanning_connected_subgraph(&g, &m),
                "span-conn seed {seed}"
            );
        }
    }

    #[test]
    fn consistent_claims_accepted() {
        let g = generate::random_connected(15, 12, 4);
        let mut m = g.empty_subgraph();
        for (k, e) in g.edges().enumerate() {
            if k % 2 == 0 {
                m.insert(e);
            }
        }
        let claims = claims_for_subgraph(&g, &m);
        assert!(check_indicator_consistency(&g, cfg(), &claims).accept);
    }

    #[test]
    fn corrupted_claims_rejected() {
        // Failure injection: one node lies about one incident edge — the
        // single-round exchange must catch it.
        let g = generate::random_connected(15, 12, 4);
        let m = g.full_subgraph();
        let mut claims = claims_for_subgraph(&g, &m);
        claims[7][0] = !claims[7][0];
        assert!(!check_indicator_consistency(&g, cfg(), &claims).accept);
    }

    #[test]
    fn verification_cost_is_accounted() {
        let g = generate::random_connected(25, 20, 2);
        let run = verify_hamiltonian_cycle(&g, cfg(), &g.full_subgraph());
        assert!(run.ledger.rounds > 0);
        assert!(run.ledger.stages >= 6);
    }
}
