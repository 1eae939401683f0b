//! Distributed all-pairs shortest paths, eccentricities and diameter.
//!
//! The paper's conclusion asks whether its technique extends to the
//! problems of Frischknecht–Holzer–Wattenhofer and Holzer–Wattenhofer
//! (\[FHW12, HW12\]): computing the diameter needs Ω̃(n) rounds even on
//! constant-diameter networks, and O(n)-round APSP is optimal. This
//! module implements the classic pipelined-BFS APSP (every node floods
//! its own hop-distance wave; waves queue per edge, one message per
//! round): Θ(n + D) rounds on unweighted networks — the upper-bound side
//! of that story, awaiting its quantum lower bound (open problem).

use crate::ledger::Ledger;
use crate::tree::{aggregate_to_root, pipeline, Agg};
use crate::widths::{bits_for, id_width};
use qdc_congest::{BitString, CongestConfig, Message, Simulator};
use qdc_graph::Graph;

/// Result of the distributed APSP computation.
#[derive(Clone, Debug)]
pub struct ApspRun {
    /// `dist[u][v]`: hop distance from `u` to `v` (`u64::MAX` if
    /// unreachable).
    pub dist: Vec<Vec<u64>>,
    /// Each node's eccentricity.
    pub eccentricity: Vec<u64>,
    /// The network diameter (as agreed at the coordinator and broadcast).
    pub diameter: u64,
    /// Accumulated cost.
    pub ledger: Ledger,
}

/// Computes hop-count APSP by pipelined BFS waves, then aggregates the
/// maximum eccentricity into the diameter (Θ(n + D) rounds — the
/// \[HW12\] upper bound).
///
/// # Panics
///
/// Panics if the `(source, distance)` message does not fit the bandwidth
/// budget.
pub fn distributed_apsp(graph: &Graph, cfg: CongestConfig) -> ApspRun {
    let n = graph.node_count();
    let idw = id_width(n);
    let dw = bits_for(n as u64);
    assert!(idw + dw <= cfg.bandwidth_bits, "APSP message exceeds B");
    let mut ledger = Ledger::new();
    let sim = Simulator::new(graph, cfg);
    // An entry is (source, distance at this node), queued whenever it
    // improves the node's distance to that source; the encoder adds the
    // hop.
    let dist = pipeline(
        &sim,
        &mut ledger,
        |info| {
            let me = info.id.0;
            let mut dist = vec![u64::MAX; n];
            dist[me as usize] = 0;
            (dist, vec![(me, 0)], (0..info.degree()).collect())
        },
        |_, _, &(source, d)| {
            let mut bits = BitString::new();
            bits.push_uint(source as u64, idw);
            bits.push_uint(d + 1, dw);
            Message::from_bits(bits)
        },
        |msg| {
            let mut r = msg.reader();
            let source = r.read_uint(idw).expect("source") as u32;
            (source, r.read_uint(dw).expect("dist"))
        },
        |_, dist, &(source, d)| {
            let known = &mut dist[source as usize];
            let better = d < *known;
            if better {
                *known = d;
            }
            better
        },
    );
    let eccentricity: Vec<u64> = dist
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .collect();
    // Diameter = max eccentricity, agreed via the usual leader/BFS
    // aggregation.
    let leader = crate::flood::elect_leader(graph, cfg, &mut ledger);
    let bfs = crate::flood::build_bfs_tree(graph, cfg, leader, &mut ledger);
    let finite: Vec<u64> = eccentricity
        .iter()
        .map(|&e| if e == u64::MAX { (1 << dw) - 1 } else { e })
        .collect();
    let diameter = aggregate_to_root(graph, cfg, &bfs, &finite, Agg::Max, dw, &mut ledger);
    let _ = crate::tree::broadcast_from_root(graph, cfg, &bfs, diameter, dw, &mut ledger);
    ApspRun {
        dist,
        eccentricity,
        diameter,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{algorithms, generate, Graph, NodeId};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(32)
    }

    #[test]
    fn apsp_matches_sequential_bfs() {
        for seed in 0..4 {
            let g = generate::random_connected(18, 14, seed);
            let run = distributed_apsp(&g, cfg());
            for u in g.nodes() {
                let reference = algorithms::bfs_distances(&g, &g.full_subgraph(), u);
                assert_eq!(run.dist[u.index()], reference, "seed {seed}, source {u}");
            }
        }
    }

    #[test]
    fn diameter_matches_exact() {
        for g in [
            Graph::path(12),
            Graph::cycle(11),
            generate::random_connected(20, 25, 9),
        ] {
            let run = distributed_apsp(&g, cfg());
            assert_eq!(run.diameter, algorithms::diameter(&g).expect("connected"),);
        }
    }

    #[test]
    fn rounds_scale_linearly_in_n_even_at_small_diameter() {
        // The [FHW12] phenomenon from the upper-bound side: on a
        // constant-diameter clique-like network APSP still pays ~n rounds
        // (congestion: n waves share each edge).
        let small = generate::random_connected(16, 100, 3);
        let large = generate::random_connected(48, 1000, 3);
        let r_small = distributed_apsp(&small, cfg()).ledger.rounds;
        let r_large = distributed_apsp(&large, cfg()).ledger.rounds;
        let ratio = r_large as f64 / r_small as f64;
        assert!(
            ratio > 1.8,
            "APSP rounds should grow with n despite flat diameter: {r_small} → {r_large}"
        );
    }

    #[test]
    fn eccentricities_are_consistent() {
        let g = Graph::path(9);
        let run = distributed_apsp(&g, cfg());
        assert_eq!(run.eccentricity[0], 8);
        assert_eq!(run.eccentricity[4], 4);
        assert_eq!(run.diameter, 8);
        let _ = NodeId(0);
    }
}
