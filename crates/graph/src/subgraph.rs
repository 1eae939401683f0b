//! Edge-subset indicators: the "subnetwork `M` of `N`" of Section 2.2.

use crate::{EdgeId, Graph, NodeId};

/// A subset of the edges of a host [`Graph`].
///
/// This is the paper's input object for every verification problem: the
/// network is `N`, each node knows which of its incident edges participate
/// in the subnetwork `M`, and the nodes must decide a property of `M`
/// (Appendix A.2). A `Subgraph` stores one indicator bit per host edge.
///
/// # Example
///
/// ```
/// use qdc_graph::{Graph, Subgraph, EdgeId};
///
/// let g = Graph::path(3);
/// let mut m = Subgraph::empty(&g);
/// m.insert(EdgeId(0));
/// assert!(m.contains(EdgeId(0)));
/// assert_eq!(m.edge_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Subgraph {
    host_nodes: usize,
    bits: Vec<bool>,
}

impl std::fmt::Debug for Subgraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subgraph")
            .field("host_nodes", &self.host_nodes)
            .field("edges", &self.edge_count())
            .finish()
    }
}

impl Subgraph {
    /// The empty subgraph of `host`.
    pub fn empty(host: &Graph) -> Self {
        Subgraph {
            host_nodes: host.node_count(),
            bits: vec![false; host.edge_count()],
        }
    }

    /// The subgraph containing every edge of `host`.
    pub fn full(host: &Graph) -> Self {
        Subgraph {
            host_nodes: host.node_count(),
            bits: vec![true; host.edge_count()],
        }
    }

    /// Builds a subgraph from an iterator of host edge ids.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range for `host`.
    pub fn from_edges<I: IntoIterator<Item = EdgeId>>(host: &Graph, edges: I) -> Self {
        let mut s = Subgraph::empty(host);
        for e in edges {
            s.insert(e);
        }
        s
    }

    /// Builds a subgraph from node-pair endpoints.
    ///
    /// # Panics
    ///
    /// Panics if a pair is not an edge of `host`.
    pub fn from_endpoint_pairs(host: &Graph, pairs: &[(NodeId, NodeId)]) -> Self {
        let mut s = Subgraph::empty(host);
        for &(u, v) in pairs {
            let e = host
                .find_edge(u, v)
                .unwrap_or_else(|| panic!("({u}, {v}) is not an edge of the host graph"));
            s.insert(e);
        }
        s
    }

    /// Whether edge `e` participates in the subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.bits[e.index()]
    }

    /// Marks `e` as participating.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn insert(&mut self, e: EdgeId) {
        self.bits[e.index()] = true;
    }

    /// Marks `e` as not participating.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn remove(&mut self, e: EdgeId) {
        self.bits[e.index()] = false;
    }

    /// Number of participating edges.
    pub fn edge_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Iterates over participating edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| EdgeId::from(i))
    }

    /// Degree of `u` counting only participating edges.
    pub fn degree_in(&self, host: &Graph, u: NodeId) -> usize {
        host.incident(u)
            .iter()
            .filter(|&&(e, _)| self.contains(e))
            .count()
    }

    /// The complement subgraph (participating ↔ not participating).
    pub fn complement(&self) -> Subgraph {
        Subgraph {
            host_nodes: self.host_nodes,
            bits: self.bits.iter().map(|&b| !b).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn empty_and_full() {
        let g = Graph::cycle(5);
        assert_eq!(Subgraph::empty(&g).edge_count(), 0);
        assert_eq!(Subgraph::full(&g).edge_count(), 5);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let g = Graph::path(4);
        let mut s = Subgraph::empty(&g);
        s.insert(EdgeId(1));
        assert!(s.contains(EdgeId(1)));
        s.remove(EdgeId(1));
        assert!(!s.contains(EdgeId(1)));
    }

    #[test]
    fn degree_in_counts_only_member_edges() {
        let g = Graph::cycle(4);
        let mut s = Subgraph::empty(&g);
        s.insert(EdgeId(0)); // v0-v1
        assert_eq!(s.degree_in(&g, NodeId(0)), 1);
        assert_eq!(s.degree_in(&g, NodeId(2)), 0);
    }

    #[test]
    fn from_endpoint_pairs_resolves_edges() {
        let g = Graph::cycle(4);
        let s =
            Subgraph::from_endpoint_pairs(&g, &[(NodeId(1), NodeId(0)), (NodeId(2), NodeId(3))]);
        assert_eq!(s.edge_count(), 2);
        assert!(s.contains(g.find_edge(NodeId(0), NodeId(1)).unwrap()));
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn from_endpoint_pairs_rejects_non_edges() {
        let g = Graph::path(4);
        Subgraph::from_endpoint_pairs(&g, &[(NodeId(0), NodeId(3))]);
    }

    #[test]
    fn complement_flips_all() {
        let g = Graph::cycle(3);
        let mut s = Subgraph::empty(&g);
        s.insert(EdgeId(2));
        let c = s.complement();
        assert_eq!(c.edge_count(), 2);
        assert!(!c.contains(EdgeId(2)));
    }

    #[test]
    fn edges_iterator_matches_count() {
        let g = Graph::complete(5);
        let mut s = Subgraph::empty(&g);
        s.insert(EdgeId(0));
        s.insert(EdgeId(4));
        s.insert(EdgeId(7));
        let listed: Vec<_> = s.edges().collect();
        assert_eq!(listed, vec![EdgeId(0), EdgeId(4), EdgeId(7)]);
        assert_eq!(s.edge_count(), 3);
    }
}
