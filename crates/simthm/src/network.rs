//! The Section 8 network `N`: paths, boundary cliques and highways.

use qdc_graph::{generate, Graph, GraphBuilder, NodeId, Subgraph};

/// Which party owns a node at a given simulation time (Equations 36–38).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Party {
    /// Carol (owns the left prefix of every track).
    Carol,
    /// David (owns the right suffix).
    David,
    /// The free server (owns the middle).
    Server,
}

/// The simulation horizon of Theorem 3.5 on paths of `l` nodes, in whole
/// rounds: ownership sets stay disjoint for `t ≤ L/2 − 2`, so the last
/// round that fits is `⌊L/2⌋ − 2`. For `L < 6` no round fits and the
/// horizon is 0 (the subtraction saturates below `L = 4`).
pub fn horizon(l: usize) -> usize {
    (l / 2).saturating_sub(2)
}

/// The simulation network `N(Γ, L)` of Theorem 3.5.
///
/// `Γ` **paths** of `L` nodes each, **boundary cliques** joining all track
/// endpoints on the left and (separately) on the right, and
/// `k = log₂(L−1)` **highways**: highway `h` has nodes at positions
/// `1 + j·2^h`, consecutive nodes joined, each node also joined to the
/// aligned node one level below (level 0 = every path, via highway 1).
/// Highways count as tracks `Γ..Γ+k` for the matching embedding, exactly
/// as in the paper ("`v₁^{Γ+j} = h₁^j`").
///
/// # Example
///
/// ```
/// use qdc_simthm::SimulationNetwork;
///
/// let net = SimulationNetwork::build(4, 17);
/// assert_eq!(net.length(), 17);
/// assert_eq!(net.highway_count(), 4); // log₂(16)
/// assert_eq!(net.track_count(), 8);   // Γ + k
/// ```
#[derive(Clone, Debug)]
pub struct SimulationNetwork {
    graph: Graph,
    gamma: usize,
    l: usize,
    k: usize,
    /// `(track, position)` per node (positions are 1-based).
    coords: Vec<(usize, usize)>,
    /// Node at `(track, position)`; highways only exist at aligned
    /// positions.
    lookup: Vec<Vec<Option<NodeId>>>,
    /// Edges internal to tracks (the permanent part of every subnetwork
    /// `M`), by edge id.
    track_edges: Vec<qdc_graph::EdgeId>,
}

impl SimulationNetwork {
    /// Builds `N(Γ, L)` after rounding `L` up to the nearest `2^i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma == 0` or `l < 3`.
    pub fn build(gamma: usize, l: usize) -> Self {
        assert!(gamma >= 1, "need at least one path");
        assert!(l >= 3, "need L ≥ 3");
        // Round L up to 2^i + 1 (the paper's assumption).
        let mut k = 1usize;
        while (1usize << k) + 1 < l {
            k += 1;
        }
        let l = (1usize << k) + 1;

        // Assign node ids: paths first, then highways level by level.
        let mut coords: Vec<(usize, usize)> = Vec::new();
        let mut lookup: Vec<Vec<Option<NodeId>>> = Vec::new();
        for track in 0..gamma {
            let mut row = vec![None; l + 1];
            for (pos, slot) in row.iter_mut().enumerate().take(l + 1).skip(1) {
                *slot = Some(NodeId::from(coords.len()));
                coords.push((track, pos));
            }
            lookup.push(row);
        }
        for h in 1..=k {
            let track = gamma + h - 1;
            let mut row = vec![None; l + 1];
            let step = 1usize << h;
            let mut pos = 1;
            while pos <= l {
                row[pos] = Some(NodeId::from(coords.len()));
                coords.push((track, pos));
                pos += step;
            }
            lookup.push(row);
        }

        let n = coords.len();
        let mut b = GraphBuilder::new(n);
        let mut track_edges = Vec::new();
        // Track-internal edges (consecutive existing positions).
        for row in &lookup {
            let mut prev: Option<NodeId> = None;
            for slot in row.iter().take(l + 1).skip(1) {
                if let Some(v) = *slot {
                    if let Some(u) = prev {
                        track_edges.push(b.add_edge(u, v));
                    }
                    prev = Some(v);
                }
            }
        }
        // Boundary cliques on all Γ + k endpoints, left and right.
        let tracks = gamma + k;
        for side_pos in [1, l] {
            for a in 0..tracks {
                for c in (a + 1)..tracks {
                    b.add_edge(lookup[a][side_pos].unwrap(), lookup[c][side_pos].unwrap());
                }
            }
        }
        // Cross edges: path nodes to highway 1 at aligned positions, and
        // highway h−1 to highway h.
        // At positions 1 and L the cross edges coincide with boundary
        // clique edges, hence `add_edge_if_absent`.
        for path in 0..gamma {
            let h1 = gamma; // track index of highway 1
            let mut pos = 1;
            while pos <= l {
                b.add_edge_if_absent(lookup[path][pos].unwrap(), lookup[h1][pos].unwrap());
                pos += 2;
            }
        }
        for h in 2..=k {
            let lower = gamma + h - 2;
            let upper = gamma + h - 1;
            let step = 1usize << h;
            let mut pos = 1;
            while pos <= l {
                b.add_edge_if_absent(lookup[lower][pos].unwrap(), lookup[upper][pos].unwrap());
                pos += step;
            }
        }

        SimulationNetwork {
            graph: b.build(),
            gamma,
            l,
            k,
            coords,
            lookup,
            track_edges,
        }
    }

    /// Builds `N(Γ, L)`, or `N(Γ + 1, L)` when the track count `Γ + k`
    /// would be odd: [`embed_matchings`](Self::embed_matchings) takes a
    /// pair of perfect matchings on the tracks, so it needs an even
    /// number of them.
    ///
    /// The odd case builds twice rather than deriving `k` up front, so
    /// the allocations a realized network costs stay those of the
    /// original build-then-rebuild.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_even_tracks(gamma: usize, l: usize) -> Self {
        let net = SimulationNetwork::build(gamma, l);
        if net.track_count() % 2 == 1 {
            SimulationNetwork::build(gamma + 1, l)
        } else {
            net
        }
    }

    /// The network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of paths `Γ`.
    pub fn path_count(&self) -> usize {
        self.gamma
    }

    /// Path length `L` (after rounding to `2^k + 1`).
    pub fn length(&self) -> usize {
        self.l
    }

    /// Number of highways `k = log₂(L−1)`.
    pub fn highway_count(&self) -> usize {
        self.k
    }

    /// Total matching tracks `Γ + k` (the size of the Server-model input
    /// graph this network simulates).
    pub fn track_count(&self) -> usize {
        self.gamma + self.k
    }

    /// 1-based column position of a node.
    pub fn position(&self, v: NodeId) -> usize {
        self.coords[v.index()].1
    }

    /// Track index of a node (`0..Γ` paths, `Γ..Γ+k` highways).
    pub fn track(&self, v: NodeId) -> usize {
        self.coords[v.index()].0
    }

    /// The node of `track` at `position`, if the track has one there.
    pub fn node_at(&self, track: usize, position: usize) -> Option<NodeId> {
        self.lookup[track][position]
    }

    /// Left endpoint of a track (position 1).
    pub fn left_endpoint(&self, track: usize) -> NodeId {
        self.lookup[track][1].expect("every track has a left endpoint")
    }

    /// Right endpoint of a track (position `L`).
    pub fn right_endpoint(&self, track: usize) -> NodeId {
        self.lookup[track][self.l].expect("every track has a right endpoint")
    }

    /// The analytic diameter upper bound `4k + 8 = O(log L)` (climb to the
    /// top highway, cross, climb down).
    pub fn diameter_upper_bound(&self) -> usize {
        4 * self.k + 8
    }

    /// The simulation horizon of Theorem 3.5 on this network: the
    /// module's [`horizon`](fn@horizon) of its length `L`.
    pub fn horizon(&self) -> usize {
        horizon(self.l)
    }

    /// Which party owns node `v` at time `t` (Equations 36–38, extended
    /// over highways as in Figure 13).
    pub fn owner(&self, v: NodeId, t: usize) -> Party {
        let pos = self.position(v);
        if pos <= t + 1 {
            Party::Carol
        } else if pos >= self.l - t {
            Party::David
        } else {
            Party::Server
        }
    }

    /// Embeds a Server-model instance: Carol's and David's perfect
    /// matchings on the `Γ + k` track labels become clique edges at the
    /// left and right boundaries respectively; all track-internal edges
    /// join them. The result is the subnetwork `M` of Figures 9/10, with
    /// `cycles(M) = cycles(G)` (Observation 8.1).
    ///
    /// # Panics
    ///
    /// Panics if a matching references an out-of-range track or a pair is
    /// not actually adjacent (all boundary pairs are, via the cliques).
    pub fn embed_matchings(&self, carol: &[(usize, usize)], david: &[(usize, usize)]) -> Subgraph {
        let mut m = Subgraph::empty(&self.graph);
        for &e in &self.track_edges {
            m.insert(e);
        }
        for &(a, c) in carol {
            let e = self
                .graph
                .find_edge(self.left_endpoint(a), self.left_endpoint(c))
                .expect("left boundary clique edge");
            m.insert(e);
        }
        for &(a, c) in david {
            let e = self
                .graph
                .find_edge(self.right_endpoint(a), self.right_endpoint(c))
                .expect("right boundary clique edge");
            m.insert(e);
        }
        m
    }

    /// The hard instance of Theorems 3.5–3.6: Carol's and David's
    /// matchings from
    /// [`hamiltonian_matching_pair`](generate::hamiltonian_matching_pair),
    /// embedded so that `M` is one Hamiltonian cycle (Figure 9).
    ///
    /// # Panics
    ///
    /// Panics if the track count is odd or below 4, as the pair does;
    /// [`build_even_tracks`](Self::build_even_tracks) makes it even.
    pub fn hamiltonian_m(&self) -> Subgraph {
        let (carol, david) = generate::hamiltonian_matching_pair(self.track_count());
        self.embed_matchings(&carol, &david)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{algorithms, predicates, GraphBuilder};

    #[test]
    fn shape_matches_formulas() {
        let net = SimulationNetwork::build(5, 17);
        assert_eq!(net.length(), 17);
        assert_eq!(net.highway_count(), 4);
        // Nodes: 5·17 paths + highways 9 + 5 + 3 + 2 = 104.
        assert_eq!(net.graph().node_count(), 5 * 17 + 9 + 5 + 3 + 2);
        assert_eq!(net.track_count(), 9);
    }

    #[test]
    fn even_tracks_raise_gamma_only_when_odd() {
        // 13 + 4 = 17 tracks: `build` keeps the paper's N(13, 17).
        assert_eq!(SimulationNetwork::build(13, 17).track_count(), 17);
        let net = SimulationNetwork::build_even_tracks(13, 17);
        assert_eq!((net.path_count(), net.track_count()), (14, 18));
        let net = SimulationNetwork::build_even_tracks(12, 17);
        assert_eq!((net.path_count(), net.track_count()), (12, 16));
    }

    #[test]
    fn l_is_rounded_up() {
        let net = SimulationNetwork::build(2, 10);
        assert_eq!(net.length(), 17); // 2^4 + 1
        assert_eq!(net.highway_count(), 4);
    }

    #[test]
    fn node_count_is_theta_gamma_l() {
        let net = SimulationNetwork::build(8, 33);
        let n = net.graph().node_count();
        let gl = 8 * 33;
        assert!(n >= gl && n <= gl + 2 * 33, "n = {n}");
    }

    #[test]
    fn diameter_is_logarithmic() {
        for &(gamma, l) in &[(3usize, 9usize), (4, 17), (6, 33), (4, 65)] {
            let net = SimulationNetwork::build(gamma, l);
            let d = algorithms::diameter(net.graph()).expect("connected") as usize;
            assert!(
                d <= net.diameter_upper_bound(),
                "Γ={gamma}, L={l}: diameter {d} > bound {}",
                net.diameter_upper_bound()
            );
            // And genuinely logarithmic, far below L.
            assert!(d < l / 2 + 8, "Γ={gamma}, L={l}: diameter {d} not ≪ L");
        }
    }

    #[test]
    fn highways_shrink_diameter() {
        // Without highways (a Γ-path ladder with boundary cliques) the
        // diameter is Θ(L); with them it is Θ(log L). Compare directly.
        let net = SimulationNetwork::build(3, 65);
        let with = algorithms::diameter(net.graph()).unwrap();
        // Build the same network minus highways.
        let mut b = GraphBuilder::new(3 * 65);
        for t in 0..3u32 {
            for p in 0..64u32 {
                b.add_edge(
                    qdc_graph::NodeId(t * 65 + p),
                    qdc_graph::NodeId(t * 65 + p + 1),
                );
            }
        }
        for a in 0..3u32 {
            for c in (a + 1)..3 {
                b.add_edge(qdc_graph::NodeId(a * 65), qdc_graph::NodeId(c * 65));
                b.add_edge(
                    qdc_graph::NodeId(a * 65 + 64),
                    qdc_graph::NodeId(c * 65 + 64),
                );
            }
        }
        let without = algorithms::diameter(&b.build()).unwrap();
        assert!(with * 3 < without, "highways: {with}, without: {without}");
    }

    #[test]
    fn horizon_is_the_last_whole_round_within_l_over_2_minus_2() {
        for l in 3..=64 {
            let h = horizon(l);
            // h ≤ L/2 − 2 < h + 1, doubled to stay in integers.
            let fits = |t: usize| 2 * (t + 2) <= l;
            assert!(h == 0 || fits(h), "L = {l}: horizon {h} too late");
            assert!(!fits(h + 1), "L = {l}: horizon {h} too early");
        }
    }

    #[test]
    fn ownership_sets_are_disjoint_within_horizon() {
        let net = SimulationNetwork::build(3, 17);
        for t in 0..=net.horizon() {
            let mut carol = 0;
            let mut david = 0;
            for v in net.graph().nodes() {
                match net.owner(v, t) {
                    Party::Carol => carol += 1,
                    Party::David => david += 1,
                    Party::Server => {}
                }
            }
            assert!(carol > 0 && david > 0);
            // Disjointness: position windows [1, t+1] and [L−t, L] must
            // not overlap within the horizon.
            assert!(t + 1 < net.length() - t, "t = {t}");
        }
    }

    #[test]
    fn embedded_hamiltonian_matchings_give_hamiltonian_m() {
        let net = SimulationNetwork::build(5, 9); // 5 paths + 3 highways
        assert_eq!(net.track_count() % 2, 0, "test assumes even track count");
        assert!(predicates::is_hamiltonian_cycle(
            net.graph(),
            &net.hamiltonian_m()
        ));
    }

    #[test]
    fn observation_8_1_cycle_counts_match() {
        // cycles(M) == cycles(G) for random matchings.
        for seed in 0..6 {
            let net = SimulationNetwork::build_even_tracks(6, 9); // 6 + 3 = 9 → Γ = 7
            let tracks = net.track_count();
            let carol = generate::random_perfect_matching(tracks, 100 + seed);
            let david = generate::random_perfect_matching(tracks, 200 + seed);
            // Reference: cycle count of G = (U, E_C ∪ E_D). Parallel pairs
            // (same pair in both matchings) form 2-cycles in the
            // multigraph; in M they appear as genuine cycles through the
            // track, while the simple-graph G cannot represent them — skip
            // such seeds.
            let mut b = GraphBuilder::new(tracks);
            let mut ok = true;
            for &(a, c) in carol.iter().chain(&david) {
                let before = b.edge_count();
                b.add_edge_if_absent(qdc_graph::NodeId::from(a), qdc_graph::NodeId::from(c));
                if b.edge_count() == before {
                    ok = false;
                }
            }
            if !ok {
                continue;
            }
            let g = b.build();
            let g_cycles = predicates::cycle_count_two_regular(&g, &g.full_subgraph()).unwrap();
            let m = net.embed_matchings(&carol, &david);
            let m_cycles = predicates::cycle_count_two_regular(net.graph(), &m).unwrap();
            assert_eq!(m_cycles, g_cycles, "seed {seed}");
        }
    }

    #[test]
    fn positions_and_tracks_are_consistent() {
        let net = SimulationNetwork::build(3, 9);
        for v in net.graph().nodes() {
            let (t, p) = (net.track(v), net.position(v));
            assert_eq!(net.node_at(t, p), Some(v));
        }
        assert_eq!(net.position(net.left_endpoint(0)), 1);
        assert_eq!(net.position(net.right_endpoint(0)), net.length());
    }
}
