//! Distributed single-source shortest paths (Bellman–Ford).
//!
//! The s-source distance problem of Appendix A.3: every node must learn
//! its weighted distance from `s`. The classic distributed Bellman–Ford
//! relaxes event-driven: a node that improves its distance announces the
//! new value to its neighbors. Rounds ≈ the maximum *hop count* of a
//! shortest path — the baseline the paper's Ω̃(√n) lower bound
//! (Corollary 3.9) is compared against.

use crate::ledger::Ledger;
use crate::tree::{first_smallest, relax};
use crate::widths::distance_width;
use qdc_congest::{CongestConfig, Message, Simulator};
use qdc_graph::{EdgeWeights, Graph, NodeId};

/// Result of a distributed SSSP run.
#[derive(Clone, Debug)]
pub struct SsspRun {
    /// Distance from the source per node (`u64::MAX` if unreachable).
    pub dist: Vec<u64>,
    /// Port toward the parent in the shortest-path tree (`None` for the
    /// source and unreachable nodes).
    pub parent_port: Vec<Option<usize>>,
    /// Accumulated cost.
    pub ledger: Ledger,
}

/// Runs distributed Bellman–Ford from `source`.
///
/// # Panics
///
/// Panics if a distance value cannot fit the bandwidth budget.
pub fn distributed_sssp(
    graph: &Graph,
    cfg: CongestConfig,
    weights: &EdgeWeights,
    source: NodeId,
) -> SsspRun {
    let n = graph.node_count();
    let w_max = graph.edges().map(|e| weights.weight(e)).max().unwrap_or(1);
    let width = distance_width(n, w_max);
    assert!(
        width <= cfg.bandwidth_bits,
        "distance ({width} bits) exceeds B"
    );
    let mut ledger = Ledger::new();
    let sim = Simulator::new(graph, cfg);
    let flooded = relax(
        &sim,
        &mut ledger,
        |info| {
            (
                (info.id == source).then_some(0),
                None,
                (0..info.degree()).collect(),
            )
        },
        |&d| Message::from_uint(d, width),
        |info, _, dist, inbox| {
            let via = |p: usize, msg: &Message| {
                let d = msg.as_uint(width).expect("distance");
                d.saturating_add(weights.weight(info.incident_edges[p]))
            };
            let (port, d) = first_smallest(inbox, via, |&d| d)?;
            dist.is_none_or(|&cur| d < cur).then_some((port, d))
        },
        true,
    );
    SsspRun {
        dist: flooded
            .iter()
            .map(|&(d, _)| d.unwrap_or(u64::MAX))
            .collect(),
        parent_port: flooded.iter().map(|&(_, p)| p).collect(),
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{algorithms, generate};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(64)
    }

    #[test]
    fn distances_match_dijkstra() {
        for seed in 0..5 {
            let g = generate::random_connected(30, 40, seed);
            let w = generate::random_weights(&g, 20, seed + 1);
            let run = distributed_sssp(&g, cfg(), &w, NodeId(0));
            assert_eq!(
                run.dist,
                algorithms::dijkstra(&g, &w, NodeId(0)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parent_ports_realize_distances() {
        let g = generate::random_connected(20, 25, 9);
        let w = generate::random_weights(&g, 9, 10);
        let run = distributed_sssp(&g, cfg(), &w, NodeId(5));
        for v in g.nodes() {
            if v == NodeId(5) {
                assert!(run.parent_port[v.index()].is_none());
                continue;
            }
            let p = run.parent_port[v.index()].expect("connected");
            let (e, u) = g.incident(v)[p];
            assert_eq!(
                run.dist[u.index()] + w.weight(e),
                run.dist[v.index()],
                "node {v}"
            );
        }
    }

    #[test]
    fn unreachable_nodes_stay_at_infinity() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let w = EdgeWeights::uniform(&g);
        let run = distributed_sssp(&g, cfg(), &w, NodeId(0));
        assert_eq!(run.dist, vec![0, 1, u64::MAX]);
    }

    #[test]
    fn rounds_track_hop_depth_not_weight() {
        // A path with huge weights still converges in ~n rounds.
        let g = Graph::path(30);
        let mut w = EdgeWeights::uniform(&g);
        for e in g.edges() {
            w.set(e, 1_000_000);
        }
        let run = distributed_sssp(&g, cfg(), &w, NodeId(0));
        assert_eq!(run.dist[29], 29_000_000);
        assert!(run.ledger.rounds <= 35, "rounds {}", run.ledger.rounds);
    }
}
