//! Sequential reference implementations of the Appendix A.3 / Corollary
//! 3.9 optimization problems.
//!
//! These are the centralized counterparts the distributed algorithms and
//! lower bounds refer to: minimum s-t cut via Edmonds–Karp max-flow,
//! minimum routing cost spanning trees (with the classic best-shortest-
//! path-tree 2-approximation), shallow-light trees (LAST-style
//! MST/SPT balance), and a feasible generalized Steiner forest.

use crate::algorithms::{dijkstra, kruskal_mst, shortest_path_tree, UNREACHABLE};
use crate::{EdgeId, EdgeWeights, Graph, NodeId, Subgraph};
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Minimum s-t cut via Edmonds–Karp max-flow.
// ---------------------------------------------------------------------------

/// Result of a minimum s-t cut computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StCut {
    /// The max-flow = min-cut value.
    pub value: u64,
    /// Edges crossing the cut (from the `s`-side to the `t`-side).
    pub cut_edges: Vec<EdgeId>,
    /// Nodes on the `s` side of the cut.
    pub s_side: Vec<NodeId>,
}

/// Minimum s-t cut of an undirected weighted graph via Edmonds–Karp.
///
/// Each undirected edge becomes a pair of directed arcs with capacity
/// equal to its weight.
///
/// # Panics
///
/// Panics if `s == t`.
pub fn min_st_cut(graph: &Graph, weights: &EdgeWeights, s: NodeId, t: NodeId) -> StCut {
    assert_ne!(s, t, "source and sink must differ");
    let n = graph.node_count();
    // Arc representation: for edge e with endpoints (u, v) create arcs
    // 2e (u→v) and 2e+1 (v→u), each with capacity w(e). Residual of arc a
    // is cap[a] - flow[a]; pushing on a adds to flow[a] and subtracts
    // from flow[a^1] (standard undirected-edge trick).
    let m = graph.edge_count();
    let mut flow = vec![0i64; 2 * m];
    let cap = |a: usize| weights.weight(EdgeId::from(a / 2)) as i64;
    let arc_from = |a: usize| -> NodeId {
        let (u, v) = graph.endpoints(EdgeId::from(a / 2));
        if a.is_multiple_of(2) {
            u
        } else {
            v
        }
    };
    let arc_to = |a: usize| -> NodeId {
        let (u, v) = graph.endpoints(EdgeId::from(a / 2));
        if a.is_multiple_of(2) {
            v
        } else {
            u
        }
    };

    let mut value = 0u64;
    loop {
        // BFS over residual arcs.
        let mut pred: Vec<Option<usize>> = vec![None; n]; // arc used to reach node
        let mut visited = vec![false; n];
        visited[s.index()] = true;
        let mut queue = VecDeque::from([s]);
        'bfs: while let Some(u) = queue.pop_front() {
            for &(e, _) in graph.incident(u) {
                for half in 0..2 {
                    let a = 2 * e.index() + half;
                    if arc_from(a) != u {
                        continue;
                    }
                    let v = arc_to(a);
                    if !visited[v.index()] && cap(a) - flow[a] > 0 {
                        visited[v.index()] = true;
                        pred[v.index()] = Some(a);
                        if v == t {
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
        }
        if !visited[t.index()] {
            // Done: extract the cut from the final residual reachability.
            let s_side: Vec<NodeId> = graph.nodes().filter(|v| visited[v.index()]).collect();
            let cut_edges: Vec<EdgeId> = graph
                .edges()
                .filter(|&e| {
                    let (u, v) = graph.endpoints(e);
                    visited[u.index()] != visited[v.index()]
                })
                .collect();
            debug_assert_eq!(
                cut_edges.iter().map(|&e| weights.weight(e)).sum::<u64>(),
                value,
                "max-flow equals min-cut"
            );
            return StCut {
                value,
                cut_edges,
                s_side,
            };
        }
        // Bottleneck along the augmenting path.
        let mut bottleneck = i64::MAX;
        let mut v = t;
        while v != s {
            let a = pred[v.index()].expect("path exists");
            bottleneck = bottleneck.min(cap(a) - flow[a]);
            v = arc_from(a);
        }
        let mut v = t;
        while v != s {
            let a = pred[v.index()].expect("path exists");
            flow[a] += bottleneck;
            flow[a ^ 1] -= bottleneck;
            v = arc_from(a);
        }
        value += bottleneck as u64;
    }
}

// ---------------------------------------------------------------------------
// Minimum routing cost spanning tree.
// ---------------------------------------------------------------------------

/// Routing cost of a spanning tree: the sum of tree distances over all
/// unordered node pairs (Appendix A.3).
///
/// # Panics
///
/// Panics if `tree` is not a spanning tree of `graph`.
pub fn routing_cost(graph: &Graph, weights: &EdgeWeights, tree: &Subgraph) -> u64 {
    assert!(
        crate::predicates::is_spanning_tree(graph, tree),
        "routing cost is defined on spanning trees"
    );
    let mut total = 0u64;
    for s in graph.nodes() {
        total += tree_distances(graph, weights, tree, s).iter().sum::<u64>();
    }
    total / 2
}

/// Single-source distances restricted to tree edges.
fn tree_distances(graph: &Graph, weights: &EdgeWeights, tree: &Subgraph, s: NodeId) -> Vec<u64> {
    let mut dist = vec![UNREACHABLE; graph.node_count()];
    dist[s.index()] = 0;
    let mut queue = VecDeque::from([s]);
    while let Some(u) = queue.pop_front() {
        for &(e, v) in graph.incident(u) {
            if tree.contains(e) && dist[v.index()] == UNREACHABLE {
                dist[v.index()] = dist[u.index()] + weights.weight(e);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The classic 2-approximation for the minimum routing cost spanning
/// tree: take the best shortest-path tree over all roots.
///
/// Returns `(tree, cost)`.
pub fn best_spt_routing_tree(graph: &Graph, weights: &EdgeWeights) -> (Subgraph, u64) {
    let mut best: Option<(Subgraph, u64)> = None;
    for r in graph.nodes() {
        let parents = shortest_path_tree(graph, weights, r);
        let tree = Subgraph::from_edges(graph, parents.iter().flatten().copied());
        if !crate::predicates::is_spanning_tree(graph, &tree) {
            continue; // disconnected graph
        }
        let cost = routing_cost(graph, weights, &tree);
        if best.as_ref().is_none_or(|&(_, c)| cost < c) {
            best = Some((tree, cost));
        }
    }
    best.expect("graph must be connected")
}

/// The metric lower bound on any spanning tree's routing cost: the sum of
/// *graph* distances over unordered pairs. The best-SPT tree is within a
/// factor 2 of this (hence of the optimum).
pub fn routing_cost_lower_bound(graph: &Graph, weights: &EdgeWeights) -> u64 {
    let mut total = 0u64;
    for s in graph.nodes() {
        total += dijkstra(graph, weights, s).iter().sum::<u64>();
    }
    total / 2
}

// ---------------------------------------------------------------------------
// Shallow-light trees (LAST-style).
// ---------------------------------------------------------------------------

/// A shallow-light tree: root distances within `alpha` of shortest-path
/// distances, total weight within `1 + 2/(alpha − 1)` of the MST.
#[derive(Clone, Debug)]
pub struct ShallowLightTree {
    /// The tree.
    pub tree: Subgraph,
    /// Distances from the root in the tree.
    pub root_distances: Vec<u64>,
    /// Total tree weight.
    pub weight: u64,
}

/// Builds a LAST-style shallow-light tree (Khuller–Raghavachari–Young):
/// walk the MST in DFS preorder; whenever a node's current tree distance
/// exceeds `alpha` times its shortest-path distance, graft the entire
/// shortest path from the root.
///
/// # Panics
///
/// Panics if `alpha <= 1`, or the graph is disconnected.
pub fn shallow_light_tree(
    graph: &Graph,
    weights: &EdgeWeights,
    root: NodeId,
    alpha: f64,
) -> ShallowLightTree {
    assert!(alpha > 1.0, "need α > 1");
    let n = graph.node_count();
    let d_spt = dijkstra(graph, weights, root);
    assert!(
        d_spt.iter().all(|&d| d != UNREACHABLE),
        "shallow-light tree needs a connected graph"
    );
    let spt_parent = shortest_path_tree(graph, weights, root);
    let mst = kruskal_mst(graph, weights);
    let mst_sub = Subgraph::from_edges(graph, mst.edges.iter().copied());

    // Rooted MST structure.
    let mut mst_parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut order = Vec::with_capacity(n);
    {
        let mut stack = vec![root];
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        while let Some(u) = stack.pop() {
            order.push(u);
            for &(e, v) in graph.incident(u) {
                if mst_sub.contains(e) && !seen[v.index()] {
                    seen[v.index()] = true;
                    mst_parent[v.index()] = Some((u, e));
                    stack.push(v);
                }
            }
        }
    }

    // parent_edge in the final tree.
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut d_cur = vec![u64::MAX; n];
    d_cur[root.index()] = 0;
    // Invariant: d_cur only ever decreases, and whenever a parent edge is
    // recorded its estimate satisfies d_cur[v] ≤ α·d_spt[v]. Final tree
    // distances are then ≤ the estimates (they only shrink as ancestors
    // improve), giving the α-radius guarantee.
    for &v in order.iter().skip(1) {
        let (u, e) = mst_parent[v.index()].expect("non-root MST node has a parent");
        let cand = d_cur[u.index()].saturating_add(weights.weight(e));
        let within = |d: u64| (d as f64) <= alpha * d_spt[v.index()] as f64;
        if within(cand) && cand < d_cur[v.index()] {
            // Take the cheap MST edge — but never overwrite a better
            // (earlier-grafted) assignment with a larger estimate.
            parent_edge[v.index()] = Some(e);
            d_cur[v.index()] = cand;
        } else if !within(d_cur[v.index()]) {
            // No valid assignment yet: graft the whole shortest path
            // root → v.
            let mut w = v;
            while w != root {
                let pe = spt_parent[w.index()].expect("connected");
                let p = graph.other_endpoint(pe, w);
                if d_cur[w.index()] > d_spt[w.index()] {
                    parent_edge[w.index()] = Some(pe);
                    d_cur[w.index()] = d_spt[w.index()];
                }
                w = p;
            }
        }
    }

    let tree = Subgraph::from_edges(graph, parent_edge.iter().flatten().copied());
    let root_distances = tree_distances(graph, weights, &tree, root);
    let weight = tree.edges().map(|e| weights.weight(e)).sum();
    ShallowLightTree {
        tree,
        root_distances,
        weight,
    }
}

// ---------------------------------------------------------------------------
// Generalized Steiner forest.
// ---------------------------------------------------------------------------

/// A feasible generalized Steiner forest: connects every terminal group
/// by shortest paths to the group's first terminal. Not optimal, but
/// feasible and cheap to compute; the benchmark reports its weight
/// against the trivial per-group shortest-path lower bound.
///
/// Returns `(forest, weight)`.
///
/// # Panics
///
/// Panics if a group's terminals are not all connected in the graph.
pub fn steiner_forest(
    graph: &Graph,
    weights: &EdgeWeights,
    groups: &[Vec<NodeId>],
) -> (Subgraph, u64) {
    let mut forest = Subgraph::empty(graph);
    for group in groups {
        if group.len() < 2 {
            continue;
        }
        let hub = group[0];
        let parents = shortest_path_tree(graph, weights, hub);
        for &terminal in &group[1..] {
            let mut v = terminal;
            while v != hub {
                let e = parents[v.index()]
                    .unwrap_or_else(|| panic!("terminal {terminal} unreachable from {hub}"));
                forest.insert(e);
                v = graph.other_endpoint(e, v);
            }
        }
    }
    let weight = forest.edges().map(|e| weights.weight(e)).sum();
    (forest, weight)
}

/// Checks Steiner-forest feasibility: every group lies in one component
/// of the forest.
pub fn steiner_feasible(graph: &Graph, forest: &Subgraph, groups: &[Vec<NodeId>]) -> bool {
    let (labels, _) = crate::predicates::components(graph, forest);
    groups.iter().all(|g| {
        g.windows(2)
            .all(|w| labels[w[0].index()] == labels[w[1].index()])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, predicates, Graph};

    #[test]
    fn min_st_cut_on_path_and_cycle() {
        let p = Graph::path(5);
        let w = EdgeWeights::uniform(&p);
        let cut = min_st_cut(&p, &w, NodeId(0), NodeId(4));
        assert_eq!(cut.value, 1);
        assert_eq!(cut.cut_edges.len(), 1);
        let c = Graph::cycle(6);
        let w = EdgeWeights::uniform(&c);
        let cut = min_st_cut(&c, &w, NodeId(0), NodeId(3));
        assert_eq!(cut.value, 2);
        assert_eq!(cut.cut_edges.len(), 2);
    }

    #[test]
    fn min_st_cut_respects_weights() {
        // Two parallel 2-paths from s to t, one heavy, one light.
        let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let mut w = EdgeWeights::uniform(&g);
        w.set(g.find_edge(NodeId(0), NodeId(1)).unwrap(), 10);
        w.set(g.find_edge(NodeId(1), NodeId(3)).unwrap(), 10);
        let cut = min_st_cut(&g, &w, NodeId(0), NodeId(3));
        assert_eq!(cut.value, 11); // 10-path cut at its cheapest (10) + 1
    }

    #[test]
    fn min_st_cut_separates_sides() {
        for seed in 0..5 {
            let g = generate::random_connected(14, 16, seed);
            let w = generate::random_weights(&g, 9, seed + 5);
            let cut = min_st_cut(&g, &w, NodeId(0), NodeId(13));
            // Removing the cut edges separates s from t.
            let mut remaining = g.full_subgraph();
            for e in &cut.cut_edges {
                remaining.remove(*e);
            }
            assert!(!predicates::st_connected(
                &g,
                &remaining,
                NodeId(0),
                NodeId(13)
            ));
            // And the cut value matches the crossing weight.
            let crossing: u64 = cut.cut_edges.iter().map(|&e| w.weight(e)).sum();
            assert_eq!(crossing, cut.value);
            assert!(cut.s_side.contains(&NodeId(0)));
            assert!(!cut.s_side.contains(&NodeId(13)));
        }
    }

    #[test]
    fn global_min_cut_bounds_st_cuts() {
        // Stoer–Wagner global cut = min over t of s-t cuts.
        let g = generate::random_connected(10, 12, 7);
        let w = generate::random_weights(&g, 7, 8);
        let global = crate::algorithms::stoer_wagner_min_cut(&g, &w).unwrap();
        let best_st = (1..10)
            .map(|t| min_st_cut(&g, &w, NodeId(0), NodeId(t)).value)
            .min()
            .unwrap();
        assert_eq!(global, best_st);
    }

    #[test]
    fn routing_cost_of_star_and_path() {
        // Star on 4 nodes: pairs through center: 3 at distance 1 + 3 at 2.
        let star = Graph::star(4);
        let w = EdgeWeights::uniform(&star);
        assert_eq!(routing_cost(&star, &w, &star.full_subgraph()), 3 + 3 * 2);
        // Path 0-1-2: distances 1,1,2.
        let path = Graph::path(3);
        let w = EdgeWeights::uniform(&path);
        assert_eq!(routing_cost(&path, &w, &path.full_subgraph()), 4);
    }

    #[test]
    fn best_spt_is_within_two_of_the_metric_lower_bound() {
        for seed in 0..5 {
            let g = generate::random_connected(12, 14, seed + 20);
            let w = generate::random_weights(&g, 9, seed + 30);
            let (tree, cost) = best_spt_routing_tree(&g, &w);
            assert!(predicates::is_spanning_tree(&g, &tree));
            let lb = routing_cost_lower_bound(&g, &w);
            assert!(cost >= lb, "tree cost below the metric bound");
            assert!(
                cost <= 2 * lb,
                "seed {seed}: best-SPT routing cost {cost} exceeds 2×{lb}"
            );
        }
    }

    #[test]
    fn shallow_light_tree_balances_radius_and_weight() {
        for seed in 0..6 {
            let g = generate::random_connected(20, 30, seed + 40);
            let w = generate::random_weights(&g, 20, seed + 50);
            let alpha = 2.0;
            let slt = shallow_light_tree(&g, &w, NodeId(0), alpha);
            assert!(predicates::is_spanning_tree(&g, &slt.tree), "seed {seed}");
            let d_spt = dijkstra(&g, &w, NodeId(0));
            for v in g.nodes() {
                assert!(
                    slt.root_distances[v.index()] as f64 <= alpha * d_spt[v.index()] as f64 + 1e-9,
                    "seed {seed}, node {v}: {} > α·{}",
                    slt.root_distances[v.index()],
                    d_spt[v.index()]
                );
            }
            let mst_w = kruskal_mst(&g, &w).total_weight;
            let light_bound = (1.0 + 2.0 / (alpha - 1.0)) * mst_w as f64;
            assert!(
                slt.weight as f64 <= light_bound + 1e-9,
                "seed {seed}: weight {} exceeds (1+2/(α−1))·MST = {light_bound}",
                slt.weight
            );
        }
    }

    #[test]
    fn shallow_light_extremes() {
        let g = generate::random_connected(15, 25, 3);
        let w = generate::random_weights(&g, 50, 4);
        // Huge α: the MST itself qualifies.
        let loose = shallow_light_tree(&g, &w, NodeId(0), 1e9);
        assert_eq!(loose.weight, kruskal_mst(&g, &w).total_weight);
        // α close to 1: weight may grow but distances hug the SPT.
        let tight = shallow_light_tree(&g, &w, NodeId(0), 1.01);
        let d_spt = dijkstra(&g, &w, NodeId(0));
        for v in g.nodes() {
            assert!(
                tight.root_distances[v.index()] as f64 <= 1.01 * d_spt[v.index()] as f64 + 1e-9
            );
        }
    }

    #[test]
    fn steiner_forest_is_feasible_and_reasonable() {
        let g = generate::random_connected(16, 20, 9);
        let w = generate::random_weights(&g, 9, 10);
        let groups = vec![
            vec![NodeId(0), NodeId(5), NodeId(11)],
            vec![NodeId(2), NodeId(14)],
        ];
        let (forest, weight) = steiner_forest(&g, &w, &groups);
        assert!(steiner_feasible(&g, &forest, &groups));
        // Never heavier than connecting everything (an MST).
        assert!(weight <= g.edges().map(|e| w.weight(e)).sum());
        // Untouched groups of size 1 are free.
        let (empty, zero) = steiner_forest(&g, &w, &[vec![NodeId(3)]]);
        assert_eq!(zero, 0);
        assert_eq!(empty.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "spanning tree")]
    fn routing_cost_rejects_non_trees() {
        let g = Graph::cycle(4);
        let w = EdgeWeights::uniform(&g);
        routing_cost(&g, &w, &g.full_subgraph());
    }
}
