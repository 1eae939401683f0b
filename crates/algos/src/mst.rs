//! Distributed minimum spanning tree algorithms.
//!
//! Two algorithms, matching the two upper-bound regimes of Figure 3:
//!
//! * [`mst_exact`] — the Kutten–Peleg-style exact MST via the two-phase
//!   [`crate::fragments`] engine: Õ(√n + D) rounds, **independent of the
//!   weight aspect ratio `W`** (the flat branch of Figure 3);
//! * [`mst_approx_sweep`] — an Elkin-style α-approximation by threshold
//!   sweeping: weights are quantized to `q = ⌊(α−1)·w_min⌋` buckets and
//!   the classes are activated one per stage, merging fragments by
//!   event-driven minimum-label flooding. Rounds scale as
//!   `W/(α−1) + (merge work)` — the rising branch of Figure 3, so the two
//!   curves cross where `W/α ≈ √n`, exactly the crossover Theorem 3.8
//!   pins down.
//!
//! The approximation bound: with quantized classes `ĉ(e) = ⌈w(e)/q⌉`, any
//! spanning tree optimal under `ĉ` has true weight at most
//! `OPT + q·(n−1) ≤ α·OPT` (since `OPT ≥ (n−1)·w_min`); the sweep adds,
//! per class, exactly the edges that merge the class-`≤c` components, the
//! same count per class as Kruskal on `ĉ`.

use crate::fragments::{spanning_forest, FragmentConfig};
use crate::ledger::Ledger;
use crate::tree::{first_smallest, relax};
use crate::widths::id_width;
use qdc_congest::{CongestConfig, Message, Simulator};
use qdc_graph::{EdgeId, EdgeWeights, Graph};

/// Result of a distributed MST computation.
#[derive(Clone, Debug)]
pub struct MstRun {
    /// The chosen tree (or forest) edges.
    pub edges: Vec<EdgeId>,
    /// Total weight under the *true* weights.
    pub total_weight: u64,
    /// Accumulated cost.
    pub ledger: Ledger,
}

/// Exact distributed MST (Kutten–Peleg style two-phase fragment engine).
pub fn mst_exact(graph: &Graph, cfg: CongestConfig, weights: &EdgeWeights) -> MstRun {
    let mut ledger = Ledger::new();
    let fc = FragmentConfig::for_network(graph.node_count());
    let out = spanning_forest(
        graph,
        cfg,
        weights,
        &graph.full_subgraph(),
        &fc,
        &mut ledger,
    );
    let total_weight = out.forest_edges.iter().map(|&e| weights.weight(e)).sum();
    MstRun {
        edges: out.forest_edges,
        total_weight,
        ledger,
    }
}

/// Elkin-style α-approximate MST by threshold sweeping.
///
/// # Panics
///
/// Panics if `alpha <= 1.0`, the graph is empty, or a label does not fit
/// the bandwidth budget.
pub fn mst_approx_sweep(
    graph: &Graph,
    cfg: CongestConfig,
    weights: &EdgeWeights,
    alpha: f64,
) -> MstRun {
    assert!(alpha > 1.0, "approximation factor must exceed 1");
    let n = graph.node_count();
    assert!(n > 0, "empty graph");
    let width = id_width(n);
    assert!(width <= cfg.bandwidth_bits, "label exceeds B");
    let mut ledger = Ledger::new();

    let w_min = graph.edges().map(|e| weights.weight(e)).min().unwrap_or(1);
    let w_max = graph.edges().map(|e| weights.weight(e)).max().unwrap_or(1);
    let q = (((alpha - 1.0) * w_min as f64).floor() as u64).max(1);
    let class_of = |e: EdgeId| weights.weight(e).div_ceil(q);
    let classes = w_max.div_ceil(q);

    let mut labels: Vec<u64> = (0..n as u64).collect();
    let mut adopted: Vec<Option<usize>> = vec![None; n];
    let sim = Simulator::new(graph, cfg);
    for c in 1..=classes {
        // One stage: minimum-label flooding over the edges of class ≤ c.
        // A node keeps its adoption edge unless a smaller label arrives;
        // among ports offering the smallest label the cheapest class wins,
        // so that cheap edges become tree edges.
        let flooded = relax(
            &sim,
            &mut ledger,
            |info| {
                let i = info.id.index();
                let active = |&p: &usize| class_of(info.incident_edges[p]) <= c;
                let ports = (0..info.degree()).filter(active).collect();
                (Some(labels[i]), adopted[i], ports)
            },
            |&label| Message::from_uint(label, width),
            |info, _, label, inbox| {
                let offer = |p: usize, msg: &Message| {
                    let v = msg.as_uint(width).expect("label");
                    (v, class_of(info.incident_edges[p]))
                };
                let (port, (v, _)) = first_smallest(inbox, offer, |&o| o)?;
                (v < *label?).then_some((port, v))
            },
            false,
        );
        for (i, (label, parent)) in flooded.into_iter().enumerate() {
            labels[i] = label.expect("every node holds a label");
            adopted[i] = parent;
        }
    }

    let mut edges: Vec<EdgeId> = graph
        .nodes()
        .filter_map(|u| adopted[u.index()].map(|p| graph.incident(u)[p].0))
        .collect();
    edges.sort();
    edges.dedup();
    let total_weight = edges.iter().map(|&e| weights.weight(e)).sum();
    MstRun {
        edges,
        total_weight,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{algorithms, generate, predicates, Subgraph};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(64)
    }

    #[test]
    fn exact_mst_matches_kruskal() {
        for seed in 0..4 {
            let g = generate::random_connected(24, 20, seed);
            let w = generate::random_weights(&g, 30, seed + 9);
            let run = mst_exact(&g, cfg(), &w);
            assert_eq!(
                run.total_weight,
                algorithms::kruskal_mst(&g, &w).total_weight
            );
        }
    }

    #[test]
    fn sweep_produces_spanning_tree_within_alpha() {
        for seed in 0..5 {
            let g = generate::random_connected(30, 40, seed + 50);
            let w = generate::weights_with_aspect_ratio(&g, 32, seed + 60);
            for &alpha in &[1.5, 2.0, 4.0] {
                let run = mst_approx_sweep(&g, cfg(), &w, alpha);
                let sub = Subgraph::from_edges(&g, run.edges.iter().copied());
                assert!(
                    predicates::is_spanning_tree(&g, &sub),
                    "seed {seed}, α={alpha}"
                );
                let opt = algorithms::kruskal_mst(&g, &w).total_weight;
                let ratio = run.total_weight as f64 / opt as f64;
                assert!(
                    ratio <= alpha + 1e-9,
                    "seed {seed}, α={alpha}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn sweep_rounds_grow_with_aspect_ratio() {
        // Fixed n and α; rounds must grow roughly linearly in W.
        let g = generate::random_connected(24, 30, 7);
        let alpha = 2.0;
        let mut last = 0usize;
        for &w_max in &[8u64, 32, 128] {
            let w = generate::weights_with_aspect_ratio(&g, w_max, 8);
            let run = mst_approx_sweep(&g, cfg(), &w, alpha);
            assert!(
                run.ledger.rounds > last,
                "rounds should grow with W: {} then {}",
                last,
                run.ledger.rounds
            );
            last = run.ledger.rounds;
        }
        // The number of stages is ⌈W/⌊(α−1)·w_min⌋⌉ = W here (w_min = 1).
        assert!(last >= 128, "rounds {last}");
    }

    #[test]
    fn exact_mst_rounds_do_not_grow_with_aspect_ratio() {
        let g = generate::random_connected(24, 30, 7);
        let w_small = generate::weights_with_aspect_ratio(&g, 8, 8);
        let w_large = generate::weights_with_aspect_ratio(&g, 128, 8);
        let r_small = mst_exact(&g, cfg(), &w_small).ledger.rounds;
        let r_large = mst_exact(&g, cfg(), &w_large).ledger.rounds;
        // Same topology, same phase structure: rounds differ only by
        // incidental merge order.
        let lo = r_small.min(r_large) as f64;
        let hi = r_small.max(r_large) as f64;
        assert!(hi / lo < 1.5, "exact MST rounds {r_small} vs {r_large}");
    }

    #[test]
    fn sweep_is_exact_when_quantization_is_trivial() {
        // α large enough that q ≥ W makes a single class: the sweep then
        // merges everything at once; with unit weights the result is an
        // exact MST.
        let g = generate::random_connected(15, 10, 2);
        let w = qdc_graph::EdgeWeights::uniform(&g);
        let run = mst_approx_sweep(&g, cfg(), &w, 2.0);
        assert_eq!(run.total_weight, 14);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn alpha_one_rejected() {
        let g = generate::random_connected(5, 2, 0);
        let w = qdc_graph::EdgeWeights::uniform(&g);
        mst_approx_sweep(&g, cfg(), &w, 1.0);
    }
}
