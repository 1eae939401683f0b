//! Deterministic random graph and workload generators.
//!
//! All generators take an explicit `u64` seed and use `ChaCha8Rng`, so
//! every experiment in the benchmark harnesses is reproducible bit-for-bit
//! across platforms (design decision D4 in DESIGN.md).

use crate::{EdgeWeights, Graph, GraphBuilder, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used throughout the workspace.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A connected graph: random tree plus `extra` random non-tree edges.
pub fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let j = r.gen_range(0..i);
        b.add_edge(NodeId::from(j), NodeId::from(i));
    }
    let max_edges = n * (n - 1) / 2;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra && b.edge_count() < max_edges && attempts < 100 * (extra + 1) {
        attempts += 1;
        let u = r.gen_range(0..n);
        let v = r.gen_range(0..n);
        if u == v {
            continue;
        }
        let before = b.edge_count();
        b.add_edge_if_absent(NodeId::from(u), NodeId::from(v));
        if b.edge_count() > before {
            added += 1;
        }
    }
    b.build()
}

/// Random positive edge weights in `[1, max_weight]`, giving aspect ratio
/// at most `max_weight`.
pub fn random_weights(host: &Graph, max_weight: u64, seed: u64) -> EdgeWeights {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    let mut r = rng(seed);
    let w = (0..host.edge_count())
        .map(|_| r.gen_range(1..=max_weight))
        .collect();
    EdgeWeights::from_vec(host, w)
}

/// Weights achieving aspect ratio **exactly** `w_max` (some edge weight 1
/// and some edge `w_max`), the regime Theorem 3.8 sweeps over.
///
/// # Panics
///
/// Panics if the host has fewer than 2 edges and `w_max > 1`.
pub fn weights_with_aspect_ratio(host: &Graph, w_max: u64, seed: u64) -> EdgeWeights {
    let m = host.edge_count();
    if w_max > 1 {
        assert!(
            m >= 2,
            "need at least two edges to realize aspect ratio > 1"
        );
    }
    let mut weights = random_weights(host, w_max.max(1), seed);
    if m >= 1 {
        weights.set(crate::EdgeId(0), 1);
    }
    if m >= 2 && w_max > 1 {
        weights.set(crate::EdgeId(1), w_max);
    }
    weights
}

/// A random perfect matching on `2k` labelled points, returned as index
/// pairs. This is the input distribution of the Simulation Theorem
/// experiments (Carol and David each hold a perfect matching, Section 8).
pub fn random_perfect_matching(k2: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(
        k2.is_multiple_of(2),
        "perfect matching needs an even number of points"
    );
    let mut r = rng(seed);
    let mut idx: Vec<usize> = (0..k2).collect();
    idx.shuffle(&mut r);
    idx.chunks(2).map(|c| (c[0], c[1])).collect()
}

/// A perfect matching as index pairs.
pub type Matching = Vec<(usize, usize)>;

/// The pair of matchings `(E_C, E_D)` whose union is a single Hamiltonian
/// cycle on `Γ` nodes (`Γ` even): Carol gets `{2i, 2i+1}`, David gets
/// `{2i+1, 2i+2 mod Γ}` — exactly the example of Figure 9.
pub fn hamiltonian_matching_pair(gamma: usize) -> (Matching, Matching) {
    assert!(gamma >= 4 && gamma.is_multiple_of(2), "need even Γ ≥ 4");
    let carol = (0..gamma / 2).map(|i| (2 * i, 2 * i + 1)).collect();
    let david = (0..gamma / 2)
        .map(|i| (2 * i + 1, (2 * i + 2) % gamma))
        .collect();
    (carol, david)
}

/// A random bit string of length `n`.
pub fn random_bits(n: usize, seed: u64) -> Vec<bool> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_bool(0.5)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates;

    #[test]
    fn random_connected_is_connected_with_extra_edges() {
        let g = random_connected(25, 10, 7);
        assert!(predicates::is_spanning_connected_subgraph(
            &g,
            &g.full_subgraph()
        ));
        assert!(g.edge_count() >= 24);
    }

    #[test]
    fn weights_hit_requested_aspect_ratio() {
        let g = random_connected(10, 5, 1);
        let w = weights_with_aspect_ratio(&g, 64, 2);
        assert_eq!(w.aspect_ratio(), 64.0);
    }

    #[test]
    fn perfect_matching_covers_everything_once() {
        let m = random_perfect_matching(12, 3);
        let mut seen = [false; 12];
        for (a, b) in m {
            assert!(!seen[a] && !seen[b]);
            seen[a] = true;
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_matching_rejected() {
        random_perfect_matching(5, 0);
    }

    #[test]
    fn hamiltonian_pair_forms_single_cycle() {
        let (c, d) = hamiltonian_matching_pair(8);
        // Union as a graph must be a Hamiltonian cycle on 8 nodes.
        let mut b = crate::GraphBuilder::new(8);
        for &(u, v) in c.iter().chain(d.iter()) {
            b.add_edge(NodeId::from(u), NodeId::from(v));
        }
        let g = b.build();
        assert!(predicates::is_hamiltonian_cycle(&g, &g.full_subgraph()));
    }

    #[test]
    fn random_bits_deterministic() {
        assert_eq!(random_bits(64, 9), random_bits(64, 9));
    }
}
