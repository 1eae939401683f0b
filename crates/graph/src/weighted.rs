//! Edge weights and the weight aspect ratio `W` of Section 2.2.

use crate::{EdgeId, Graph};

/// A positive weight assignment to the edges of a host [`Graph`].
///
/// The paper's optimization problems (Appendix A.3) take a weight function
/// `w : E(N) → R+`; algorithms may depend on the **aspect ratio**
/// `W = max w / min w` (Theorem 3.8 is stated in terms of `W`). We use
/// `u64` weights: every construction in the paper uses integer weights
/// (`1` and `W`), and integer arithmetic keeps MST comparisons exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeWeights {
    w: Vec<u64>,
}

impl EdgeWeights {
    /// Uniform weight `1` on every edge of `host`.
    pub fn uniform(host: &Graph) -> Self {
        EdgeWeights {
            w: vec![1; host.edge_count()],
        }
    }

    /// Builds weights from a vector indexed by edge id.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != host.edge_count()` or any weight is zero
    /// (weights must be positive).
    pub fn from_vec(host: &Graph, w: Vec<u64>) -> Self {
        assert_eq!(
            w.len(),
            host.edge_count(),
            "weight vector length must equal edge count"
        );
        assert!(w.iter().all(|&x| x > 0), "edge weights must be positive");
        EdgeWeights { w }
    }

    /// Weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.w[e.index()]
    }

    /// Overwrites the weight of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `weight == 0`.
    pub fn set(&mut self, e: EdgeId, weight: u64) {
        assert!(weight > 0, "edge weights must be positive");
        self.w[e.index()] = weight;
    }

    /// The aspect ratio `W = max w / min w` (integer division rounding down
    /// is avoided by returning a float; the paper treats `W` as a scale).
    ///
    /// Returns `1.0` for edgeless graphs.
    pub fn aspect_ratio(&self) -> f64 {
        match (self.w.iter().max(), self.w.iter().min()) {
            (Some(&max), Some(&min)) => max as f64 / min as f64,
            _ => 1.0,
        }
    }

    /// Sum of the weights of the given edges.
    pub fn total<I: IntoIterator<Item = EdgeId>>(&self, edges: I) -> u64 {
        edges.into_iter().map(|e| self.weight(e)).sum()
    }

    /// Number of weighted edges.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn uniform_weights() {
        let g = Graph::cycle(4);
        let w = EdgeWeights::uniform(&g);
        assert_eq!(w.weight(EdgeId(0)), 1);
        assert_eq!(w.aspect_ratio(), 1.0);
        assert_eq!(w.total(g.edges()), 4);
    }

    #[test]
    fn aspect_ratio_tracks_extremes() {
        let g = Graph::path(3);
        let mut w = EdgeWeights::uniform(&g);
        w.set(EdgeId(1), 10);
        assert_eq!(w.aspect_ratio(), 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let g = Graph::path(2);
        EdgeWeights::from_vec(&g, vec![0]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_rejected() {
        let g = Graph::path(3);
        EdgeWeights::from_vec(&g, vec![1]);
    }

    #[test]
    fn empty_weights() {
        let g = Graph::empty(2);
        let w = EdgeWeights::uniform(&g);
        assert!(w.is_empty());
        assert_eq!(w.aspect_ratio(), 1.0);
    }
}
