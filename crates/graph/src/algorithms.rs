//! Sequential reference algorithms.
//!
//! These are the centralized oracles the distributed implementations in
//! `qdc-algos` are validated against: BFS layers and trees, Dijkstra
//! shortest paths, Kruskal/Prim minimum spanning trees, Stoer–Wagner global
//! minimum cut, and exact diameter.

use crate::{DisjointSets, EdgeId, EdgeWeights, Graph, NodeId, Subgraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u64 = u64::MAX;

/// Breadth-first search distances (hop counts) from `source`, restricted to
/// the edges of `sub`. Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(host: &Graph, sub: &Subgraph, source: NodeId) -> Vec<u64> {
    let mut dist = vec![UNREACHABLE; host.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(e, v) in host.incident(u) {
            if sub.contains(e) && dist[v.index()] == UNREACHABLE {
                dist[v.index()] = dist[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// A BFS tree: for each node, the parent edge toward the root (None for the
/// root and unreachable nodes), plus hop distances.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// Root of the tree.
    pub root: NodeId,
    /// Parent edge of each node (`None` for root/unreachable).
    pub parent_edge: Vec<Option<EdgeId>>,
    /// Parent node of each node (`None` for root/unreachable).
    pub parent: Vec<Option<NodeId>>,
    /// Hop distance from the root ([`UNREACHABLE`] if unreachable).
    pub depth: Vec<u64>,
}

impl BfsTree {
    /// Height of the tree: maximum finite depth.
    pub fn height(&self) -> u64 {
        self.depth
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }

    /// The tree as a [`Subgraph`] of the host.
    pub fn as_subgraph(&self, host: &Graph) -> Subgraph {
        Subgraph::from_edges(host, self.parent_edge.iter().flatten().copied())
    }
}

/// Builds a BFS tree from `root` over the whole host graph.
pub fn bfs_tree(host: &Graph, root: NodeId) -> BfsTree {
    let n = host.node_count();
    let mut depth = vec![UNREACHABLE; n];
    let mut parent_edge = vec![None; n];
    let mut parent = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    depth[root.index()] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for &(e, v) in host.incident(u) {
            if depth[v.index()] == UNREACHABLE {
                depth[v.index()] = depth[u.index()] + 1;
                parent_edge[v.index()] = Some(e);
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    BfsTree {
        root,
        parent_edge,
        parent,
        depth,
    }
}

/// Dijkstra single-source shortest path distances under `weights`.
/// Unreachable nodes get [`UNREACHABLE`].
pub fn dijkstra(host: &Graph, weights: &EdgeWeights, source: NodeId) -> Vec<u64> {
    let mut dist = vec![UNREACHABLE; host.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = NodeId(u);
        if d > dist[u.index()] {
            continue;
        }
        for &(e, v) in host.incident(u) {
            let nd = d + weights.weight(e);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v.0)));
            }
        }
    }
    dist
}

/// A shortest path tree rooted at `source`: parent edges realizing the
/// Dijkstra distances. Deterministic tie-break: the lowest-id edge wins.
pub fn shortest_path_tree(
    host: &Graph,
    weights: &EdgeWeights,
    source: NodeId,
) -> Vec<Option<EdgeId>> {
    let dist = dijkstra(host, weights, source);
    let mut parent = vec![None; host.node_count()];
    for v in host.nodes() {
        if v == source || dist[v.index()] == UNREACHABLE {
            continue;
        }
        parent[v.index()] = host
            .incident(v)
            .iter()
            .filter(|&&(e, u)| {
                dist[u.index()] != UNREACHABLE
                    && dist[u.index()] + weights.weight(e) == dist[v.index()]
            })
            .map(|&(e, _)| e)
            .min();
    }
    parent
}

/// Result of an MST computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstResult {
    /// Edges of the forest, in no particular order.
    pub edges: Vec<EdgeId>,
    /// Total weight of the forest.
    pub total_weight: u64,
}

/// Kruskal's minimum spanning forest. Ties broken by edge id, so the result
/// is deterministic.
pub fn kruskal_mst(host: &Graph, weights: &EdgeWeights) -> MstResult {
    let mut order: Vec<EdgeId> = host.edges().collect();
    order.sort_by_key(|&e| (weights.weight(e), e));
    let mut dsu = DisjointSets::new(host.node_count());
    let mut edges = Vec::new();
    let mut total_weight = 0;
    for e in order {
        let (u, v) = host.endpoints(e);
        if dsu.union(u.index(), v.index()) {
            total_weight += weights.weight(e);
            edges.push(e);
        }
    }
    MstResult {
        edges,
        total_weight,
    }
}

/// Prim's minimum spanning tree from an arbitrary root, for cross-checking
/// Kruskal. Only the component of node 0 is spanned; on connected graphs
/// the weight equals Kruskal's.
pub fn prim_mst(host: &Graph, weights: &EdgeWeights) -> MstResult {
    let n = host.node_count();
    if n == 0 {
        return MstResult {
            edges: Vec::new(),
            total_weight: 0,
        };
    }
    let mut in_tree = vec![false; n];
    let mut edges = Vec::new();
    let mut total_weight = 0;
    let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    in_tree[0] = true;
    for &(e, v) in host.incident(NodeId(0)) {
        heap.push(Reverse((weights.weight(e), e.0, v.0)));
    }
    while let Some(Reverse((w, e, v))) = heap.pop() {
        let v = NodeId(v);
        if in_tree[v.index()] {
            continue;
        }
        in_tree[v.index()] = true;
        edges.push(EdgeId(e));
        total_weight += w;
        for &(e2, u) in host.incident(v) {
            if !in_tree[u.index()] {
                heap.push(Reverse((weights.weight(e2), e2.0, u.0)));
            }
        }
    }
    MstResult {
        edges,
        total_weight,
    }
}

/// Stoer–Wagner global minimum cut weight. Returns `None` if the graph is
/// disconnected (cut weight 0 with an empty cut is reported as `Some(0)`
/// only when `n >= 2`; single-node graphs have no cut).
pub fn stoer_wagner_min_cut(host: &Graph, weights: &EdgeWeights) -> Option<u64> {
    let n = host.node_count();
    if n < 2 {
        return None;
    }
    // Dense adjacency of merged supernodes.
    let mut w = vec![vec![0u64; n]; n];
    for e in host.edges() {
        let (u, v) = host.endpoints(e);
        w[u.index()][v.index()] += weights.weight(e);
        w[v.index()][u.index()] += weights.weight(e);
    }
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        // Maximum adjacency (minimum cut phase).
        let mut in_a = vec![false; n];
        let mut weights_to_a = vec![0u64; n];
        let mut prev = usize::MAX;
        let mut last = usize::MAX;
        for _ in 0..active.len() {
            let mut sel = usize::MAX;
            for &v in &active {
                if !in_a[v] && (sel == usize::MAX || weights_to_a[v] > weights_to_a[sel]) {
                    sel = v;
                }
            }
            in_a[sel] = true;
            prev = last;
            last = sel;
            for &v in &active {
                if !in_a[v] {
                    weights_to_a[v] += w[sel][v];
                }
            }
        }
        best = best.min(weights_to_a[last]);
        // Merge `last` into `prev`.
        for &v in &active {
            if v != last && v != prev {
                w[prev][v] += w[last][v];
                w[v][prev] = w[prev][v];
            }
        }
        active.retain(|&v| v != last);
    }
    Some(best)
}

/// Exact diameter (maximum finite pairwise hop distance) via `n` BFS runs.
///
/// Returns `None` if the graph is disconnected or empty.
pub fn diameter(host: &Graph) -> Option<u64> {
    if host.node_count() == 0 {
        return None;
    }
    let full = host.full_subgraph();
    let mut best = 0;
    for s in host.nodes() {
        let d = bfs_distances(host, &full, s);
        let ecc = d.iter().copied().max().unwrap();
        if ecc == UNREACHABLE {
            return None;
        }
        best = best.max(ecc);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::path(5);
        let d = bfs_distances(&g, &g.full_subgraph(), NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, &g.full_subgraph(), NodeId(0));
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn bfs_tree_is_spanning_tree() {
        let g = Graph::complete(6);
        let t = bfs_tree(&g, NodeId(2));
        let sub = t.as_subgraph(&g);
        assert!(crate::predicates::is_spanning_tree(&g, &sub));
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn dijkstra_respects_weights() {
        // Path 0-1-2 with heavy middle edge plus shortcut 0-2.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut w = EdgeWeights::uniform(&g);
        w.set(g.find_edge(NodeId(1), NodeId(2)).unwrap(), 10);
        w.set(g.find_edge(NodeId(0), NodeId(2)).unwrap(), 3);
        let d = dijkstra(&g, &w, NodeId(0));
        assert_eq!(d, vec![0, 1, 3]);
    }

    #[test]
    fn shortest_path_tree_realizes_distances() {
        let g = Graph::complete(5);
        let mut w = EdgeWeights::uniform(&g);
        w.set(EdgeId(0), 7);
        let dist = dijkstra(&g, &w, NodeId(0));
        let spt = shortest_path_tree(&g, &w, NodeId(0));
        for v in g.nodes() {
            if v == NodeId(0) {
                assert!(spt[v.index()].is_none());
                continue;
            }
            let e = spt[v.index()].unwrap();
            let u = g.other_endpoint(e, v);
            assert_eq!(dist[u.index()] + w.weight(e), dist[v.index()]);
        }
    }

    #[test]
    fn kruskal_equals_prim_on_connected_graphs() {
        let g = Graph::complete(7);
        let mut w = EdgeWeights::uniform(&g);
        for (i, e) in g.edges().enumerate() {
            w.set(e, ((i * 37) % 11 + 1) as u64);
        }
        let k = kruskal_mst(&g, &w);
        let p = prim_mst(&g, &w);
        assert_eq!(k.total_weight, p.total_weight);
        assert_eq!(k.edges.len(), 6);
    }

    #[test]
    fn kruskal_mst_is_spanning_tree() {
        let g = Graph::complete(6);
        let w = EdgeWeights::uniform(&g);
        let k = kruskal_mst(&g, &w);
        let sub = Subgraph::from_edges(&g, k.edges.iter().copied());
        assert!(crate::predicates::is_spanning_tree(&g, &sub));
        assert_eq!(k.total_weight, 5);
    }

    #[test]
    fn stoer_wagner_on_known_graphs() {
        // Cycle of 4 with unit weights: min cut 2.
        let c = Graph::cycle(4);
        assert_eq!(stoer_wagner_min_cut(&c, &EdgeWeights::uniform(&c)), Some(2));
        // Path: min cut 1.
        let p = Graph::path(5);
        assert_eq!(stoer_wagner_min_cut(&p, &EdgeWeights::uniform(&p)), Some(1));
        // Complete graph K5: min cut 4.
        let k = Graph::complete(5);
        assert_eq!(stoer_wagner_min_cut(&k, &EdgeWeights::uniform(&k)), Some(4));
        // Disconnected: cut weight 0.
        let d = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(stoer_wagner_min_cut(&d, &EdgeWeights::uniform(&d)), Some(0));
        // Single node has no cut.
        assert_eq!(
            stoer_wagner_min_cut(&Graph::empty(1), &EdgeWeights::uniform(&Graph::empty(1))),
            None
        );
    }

    #[test]
    fn stoer_wagner_weighted() {
        // Two triangles joined by a light bridge.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let mut w = EdgeWeights::uniform(&g);
        for e in g.edges() {
            w.set(e, 5);
        }
        w.set(g.find_edge(NodeId(2), NodeId(3)).unwrap(), 1);
        assert_eq!(stoer_wagner_min_cut(&g, &w), Some(1));
    }

    #[test]
    fn diameter_of_standard_graphs() {
        assert_eq!(diameter(&Graph::path(6)), Some(5));
        assert_eq!(diameter(&Graph::cycle(6)), Some(3));
        assert_eq!(diameter(&Graph::complete(6)), Some(1));
        assert_eq!(diameter(&Graph::from_edges(3, &[(0, 1)])), None);
    }
}
