//! Distributed least-element lists (Cohen's algorithm) and their
//! verification — the last Corollary 3.7 problem.
//!
//! Every node holds a distinct rank; node `v` is a *least element* of `u`
//! if `v` has the lowest rank among nodes within weighted distance
//! `d(u, v)` of `u` (Appendix A.2). The distributed computation is the
//! classic pruned flood (Cohen; used distributedly by Khan et al.
//! \[KKM+08\], one of the problems Corollary 3.7 covers): each node
//! announces `(rank, distance)` pairs; a node accepts a pair iff no
//! strictly better-ranked source is known at a smaller-or-equal distance,
//! and forwards accepted pairs with the edge weight added. At quiescence
//! each node's accepted set *is* its LE-list.

use crate::ledger::Ledger;
use crate::tree::pipeline;
use crate::widths::{bits_for, distance_width};
use qdc_congest::{BitString, CongestConfig, Message, Simulator};
use qdc_graph::lel::LeEntry;
use qdc_graph::{EdgeWeights, Graph, NodeId};

/// A `(distance, rank, origin)` triple.
type Entry = (u64, u64, u32);

/// Cohen's acceptance rule: keeps `entry` iff no accepted entry is at
/// least as good in both coordinates (covers strictly-better ranks at ≤
/// distance, and duplicates / worse copies from the same origin — ranks
/// are distinct, so equal rank means equal origin), and then drops the
/// entries it dominates.
fn insert(accepted: &mut Vec<Entry>, entry: Entry) -> bool {
    let (dist, rank, _) = entry;
    if accepted.iter().any(|&(d, r, _)| r <= rank && d <= dist) {
        return false;
    }
    accepted.retain(|&(d, r, _)| !(rank <= r && dist <= d));
    accepted.push(entry);
    true
}

/// Result of the distributed LE-list computation.
#[derive(Clone, Debug)]
pub struct LeListRun {
    /// Each node's computed least-element list.
    pub lists: Vec<Vec<LeEntry>>,
    /// Accumulated cost.
    pub ledger: Ledger,
}

/// Computes every node's least-element list distributedly by Cohen's
/// pruned flood.
///
/// # Panics
///
/// Panics if ranks are not one per node / not distinct, or a message
/// does not fit the bandwidth budget.
pub fn distributed_le_lists(
    graph: &Graph,
    cfg: CongestConfig,
    weights: &EdgeWeights,
    ranks: &[u64],
) -> LeListRun {
    let n = graph.node_count();
    assert_eq!(ranks.len(), n, "one rank per node");
    {
        let mut sorted = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "ranks must be distinct");
    }
    let w_max = graph.edges().map(|e| weights.weight(e)).max().unwrap_or(1);
    let dist_width = distance_width(n, w_max);
    let rank_width = bits_for(*ranks.iter().max().unwrap_or(&1));
    let id_width = crate::widths::id_width(n);
    assert!(
        dist_width + rank_width + id_width <= cfg.bandwidth_bits,
        "LE-list message exceeds B"
    );
    let mut ledger = Ledger::new();
    let sim = Simulator::new(graph, cfg);
    // Each node starts as its own least element at distance 0. Entries
    // hold the distance at the node; the encoder adds the edge weight.
    // Superseded entries may still be forwarded; receivers prune them.
    let nodes = pipeline(
        &sim,
        &mut ledger,
        |info| {
            let me = (0, ranks[info.id.index()], info.id.0);
            (vec![me], vec![me], (0..info.degree()).collect())
        },
        |info, p, &(dist, rank, origin): &Entry| {
            let mut bits = BitString::new();
            bits.push_uint(dist + weights.weight(info.incident_edges[p]), dist_width);
            bits.push_uint(rank, rank_width);
            bits.push_uint(origin as u64, id_width);
            Message::from_bits(bits)
        },
        |msg| {
            let mut rd = msg.reader();
            let dist = rd.read_uint(dist_width).expect("dist");
            let rank = rd.read_uint(rank_width).expect("rank");
            (dist, rank, rd.read_uint(id_width).expect("origin") as u32)
        },
        |_, accepted, &entry| insert(accepted, entry),
    );
    let lists = nodes
        .into_iter()
        .map(|accepted| {
            let mut entries: Vec<LeEntry> = accepted
                .into_iter()
                .map(|(distance, _, origin)| LeEntry {
                    distance,
                    node: NodeId(origin),
                })
                .collect();
            entries.sort();
            entries
        })
        .collect();
    LeListRun { lists, ledger }
}

/// **Least-element list verification** (Appendix A.2): node `u` is handed
/// a candidate list; recompute distributedly and compare.
pub fn verify_le_list(
    graph: &Graph,
    cfg: CongestConfig,
    weights: &EdgeWeights,
    ranks: &[u64],
    u: NodeId,
    candidate: &[LeEntry],
) -> bool {
    let run = distributed_le_lists(graph, cfg, weights, ranks);
    let mut cand = candidate.to_vec();
    cand.sort();
    run.lists[u.index()] == cand
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{generate, lel};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(64)
    }

    #[test]
    fn distributed_lists_match_sequential_on_path() {
        let g = Graph::path(6);
        let w = EdgeWeights::uniform(&g);
        let ranks = vec![50, 40, 30, 20, 10, 0];
        let run = distributed_le_lists(&g, cfg(), &w, &ranks);
        for v in g.nodes() {
            let mut reference = lel::le_list(&g, &w, &ranks, v);
            reference.sort();
            assert_eq!(run.lists[v.index()], reference, "node {v}");
        }
    }

    #[test]
    fn distributed_lists_match_sequential_randomized() {
        for seed in 0..6 {
            let g = generate::random_connected(18, 16, seed + 10);
            let w = generate::random_weights(&g, 7, seed + 20);
            let ranks: Vec<u64> = (0..18)
                .map(|i| (i * 7919 + seed * 13 + 1) % 65536)
                .collect();
            // Ensure distinctness of the synthetic ranks.
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != ranks.len() {
                continue;
            }
            let run = distributed_le_lists(&g, cfg(), &w, &ranks);
            for v in g.nodes() {
                let mut reference = lel::le_list(&g, &w, &ranks, v);
                reference.sort();
                assert_eq!(run.lists[v.index()], reference, "seed {seed}, node {v}");
            }
        }
    }

    #[test]
    fn verification_accepts_truth_and_rejects_corruption() {
        let g = generate::random_connected(12, 10, 3);
        let w = generate::random_weights(&g, 5, 4);
        let ranks: Vec<u64> = (0..12).map(|i| (i * 101 + 7) % 10007).collect();
        let truth = lel::le_list(&g, &w, &ranks, NodeId(4));
        assert!(verify_le_list(&g, cfg(), &w, &ranks, NodeId(4), &truth));
        let mut bad = truth.clone();
        bad[0].distance += 1;
        assert!(!verify_le_list(&g, cfg(), &w, &ranks, NodeId(4), &bad));
    }

    #[test]
    fn list_lengths_are_logarithmic_for_random_ranks() {
        // With random ranks the expected LE-list length is O(log n) —
        // Cohen's key property; check the average stays small.
        let g = generate::random_connected(40, 60, 8);
        let w = generate::random_weights(&g, 9, 9);
        let ranks: Vec<u64> = {
            use rand::seq::SliceRandom;
            let mut r: Vec<u64> = (0..40).collect();
            r.shuffle(&mut generate::rng(99));
            r
        };
        let run = distributed_le_lists(&g, cfg(), &w, &ranks);
        let avg: f64 =
            run.lists.iter().map(|l| l.len() as f64).sum::<f64>() / run.lists.len() as f64;
        assert!(avg < 10.0, "average LE-list length {avg}");
    }
}
