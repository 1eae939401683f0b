//! The two-phase fragment engine: distributed minimum spanning forests
//! and component counting in Õ(√n + D) style.
//!
//! This is the executable counterpart of the Kutten–Peleg / GHS machinery
//! the paper's upper bounds cite:
//!
//! * **Phase 1 (local, Controlled-GHS style)**: fragments (rooted trees of
//!   already-chosen forest edges) repeatedly find their minimum outgoing
//!   active edge by convergecast over the fragment tree, merge along the
//!   chosen edges, and relabel by an event-driven minimum-id flood over
//!   the merged structure. A fragment stops initiating merges once its
//!   size reaches the `size_threshold` (√n by default), which caps the
//!   work per phase.
//! * **Phase 2 (global, pipelined)**: with at most `n/√n = √n` initiating
//!   fragments left, per-fragment minimum outgoing edges are pipelined up
//!   a global BFS tree; the root (which, per the model, has unbounded
//!   local computation) performs the Borůvka merges centrally and streams
//!   the relabeling map and chosen edges back down. Each iteration costs
//!   O(D + #fragments) rounds.
//!
//! The same engine computes **connected components** of a subgraph `M`
//! (unit weights, edge-id tie-break): the resulting forest spans each
//! component, and the fragment count equals the number of components — the
//! primitive behind all the Section 2.2 verification algorithms.

use crate::flood::{build_bfs_tree, discover_children, elect_leader, stage_cap, BfsTreeInfo};
use crate::ledger::Ledger;
use crate::tree::{aggregate_to_root, broadcast, broadcast_from_root, converge, exchange, Agg};
use crate::widths::{bits_for, edge_width, id_width};
use qdc_congest::{
    BitString, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Simulator,
};
use qdc_graph::{EdgeId, EdgeWeights, Graph, NodeId, Subgraph};
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs for the fragment engine.
#[derive(Clone, Copy, Debug)]
pub struct FragmentConfig {
    /// Phase-1 growth cap: fragments of at least this size stop initiating
    /// merges (√n in Kutten–Peleg).
    pub size_threshold: usize,
    /// Safety cap on the number of merge phases.
    pub max_phases: usize,
}

impl FragmentConfig {
    /// The standard configuration for an `n`-node network: threshold √n.
    pub fn for_network(n: usize) -> Self {
        FragmentConfig {
            size_threshold: (n as f64).sqrt().ceil() as usize,
            max_phases: 4 * bits_for(n as u64) + 16,
        }
    }
}

/// Result of a fragment-engine run.
#[derive(Clone, Debug)]
pub struct FragmentOutcome {
    /// Final fragment id (the minimum original node id in the component)
    /// per node.
    pub fragment_of: Vec<u64>,
    /// The chosen forest edges (a minimum spanning forest of the active
    /// subgraph under the given weights, ties broken by edge id).
    pub forest_edges: Vec<EdgeId>,
    /// Number of fragments = connected components of the active subgraph
    /// (isolated nodes count).
    pub fragment_count: usize,
    /// The elected coordinator.
    pub leader: NodeId,
    /// The global BFS tree used for control and pipelining (reusable by
    /// callers for further aggregation).
    pub bfs: BfsTreeInfo,
}

// ---------------------------------------------------------------------------
// Shared per-node stage state kept by the orchestrator between stages.
// ---------------------------------------------------------------------------

struct EngineState {
    frag: Vec<u64>,
    fparent: Vec<Option<usize>>,
    fchildren: Vec<Vec<usize>>,
    chosen: Vec<bool>,
}

/// A node's local view of the minimum outgoing active edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Candidate {
    weight: u64,
    edge: u32,
    to_frag: u64,
}

impl Candidate {
    fn better_than(&self, other: &Option<Candidate>) -> bool {
        match other {
            None => true,
            Some(o) => (self.weight, self.edge) < (o.weight, o.edge),
        }
    }
}

/// Exchanges fragment ids across active edges and computes each node's
/// local minimum outgoing candidate.
fn local_candidates(
    sim: &Simulator,
    state: &EngineState,
    weights: &EdgeWeights,
    active: &Subgraph,
    ledger: &mut Ledger,
) -> Vec<Option<Candidate>> {
    let width = id_width(sim.graph().node_count());
    assert!(
        width <= sim.config().bandwidth_bits,
        "fragment id exceeds B"
    );
    let heard = exchange(sim, ledger, |info| {
        let msg = Message::from_uint(state.frag[info.id.index()], width);
        let ports = info.incident_edges.iter().enumerate();
        ports
            .filter(|&(_, &e)| active.contains(e))
            .map(|(p, _)| (p, msg.clone()))
            .collect()
    });
    sim.graph()
        .nodes()
        .map(|u| {
            let i = u.index();
            let edges = &sim.info(u).incident_edges;
            // Only active edges carry a fragment id.
            let outgoing = heard[i].iter().zip(edges).filter_map(|(msg, &e)| {
                let nf = msg.as_ref()?.as_uint(width)?;
                (nf != state.frag[i]).then(|| Candidate {
                    weight: weights.weight(e),
                    edge: e.0,
                    to_frag: nf,
                })
            });
            outgoing.min_by_key(|c| (c.weight, c.edge))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Stage: event-driven minimum-id relabel flood over structure edges.
// ---------------------------------------------------------------------------

struct Relabel {
    cur: u64,
    parent_port: Option<usize>,
    structure: Vec<usize>,
    width: usize,
}

impl NodeAlgorithm for Relabel {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        for &p in &self.structure {
            out.send(p, Message::from_uint(self.cur, self.width));
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let mut improved_from = None;
        for (port, msg) in inbox.iter() {
            if let Some(v) = msg.as_uint(self.width) {
                if v < self.cur {
                    self.cur = v;
                    improved_from = Some(port);
                }
            }
        }
        if let Some(port) = improved_from {
            self.parent_port = Some(port);
            for &p in &self.structure {
                if p != port {
                    out.send(p, Message::from_uint(self.cur, self.width));
                }
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Phase 2: pipelined per-fragment upcast over the global BFS tree.
// ---------------------------------------------------------------------------

struct PipedUpcast {
    parent_port: Option<usize>,
    pending_children: Vec<usize>,
    table: BTreeMap<u64, Candidate>,
    done: bool,
    idw: usize,
    ww: usize,
    ew: usize,
}

impl PipedUpcast {
    fn step(&mut self, out: &mut Outbox) {
        if self.done {
            return;
        }
        if !self.pending_children.is_empty() {
            return;
        }
        let Some(p) = self.parent_port else {
            // The BFS root never sends; it just finishes.
            self.done = true;
            return;
        };
        if let Some((&frag, &cand)) = self.table.iter().next() {
            let mut bits = BitString::new();
            bits.push_bit(false); // kind: entry
            bits.push_uint(frag, self.idw);
            bits.push_uint(cand.weight, self.ww);
            bits.push_uint(cand.edge as u64, self.ew);
            bits.push_uint(cand.to_frag, self.idw);
            out.send(p, Message::from_bits(bits));
            self.table.remove(&frag);
        } else {
            let mut bits = BitString::new();
            bits.push_bit(true); // kind: done
            out.send(p, Message::from_bits(bits));
            self.done = true;
        }
    }
    fn absorb(&mut self, frag: u64, cand: Candidate) {
        match self.table.get(&frag) {
            Some(existing) if !cand.better_than(&Some(*existing)) => {}
            _ => {
                self.table.insert(frag, cand);
            }
        }
    }
}

impl NodeAlgorithm for PipedUpcast {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        self.step(out);
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        for (port, msg) in inbox.iter() {
            let mut r = msg.reader();
            let done = r.read_bit().expect("kind flag");
            if done {
                if let Some(pos) = self.pending_children.iter().position(|&c| c == port) {
                    self.pending_children.swap_remove(pos);
                }
            } else {
                let frag = r.read_uint(self.idw).expect("frag field");
                let weight = r.read_uint(self.ww).expect("weight field");
                let edge = r.read_uint(self.ew).expect("edge field") as u32;
                let to_frag = r.read_uint(self.idw).expect("to_frag field");
                self.absorb(
                    frag,
                    Candidate {
                        weight,
                        edge,
                        to_frag,
                    },
                );
            }
        }
        self.step(out);
    }
    fn is_terminated(&self) -> bool {
        self.done
    }
}

// ---------------------------------------------------------------------------
// Phase 2: downcast of the relabeling map and chosen edges.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum DownEntry {
    Mapping { old: u64, new: u64 },
    Chosen { edge: u32 },
    End,
}

struct Downcast {
    queue: VecDeque<DownEntry>, // root starts with the full stream
    children: Vec<usize>,
    frag: u64,
    incident: Vec<(usize, u32)>,
    chosen_here: Vec<u32>,
    is_root: bool,
    ended: bool,
    idw: usize,
    ew: usize,
}

impl Downcast {
    fn encode(&self, e: DownEntry) -> Message {
        let mut bits = BitString::new();
        match e {
            DownEntry::Mapping { old, new } => {
                bits.push_uint(0, 2);
                bits.push_uint(old, self.idw);
                bits.push_uint(new, self.idw);
            }
            DownEntry::Chosen { edge } => {
                bits.push_uint(1, 2);
                bits.push_uint(edge as u64, self.ew);
            }
            DownEntry::End => bits.push_uint(2, 2),
        }
        Message::from_bits(bits)
    }
    fn apply(&mut self, e: DownEntry) {
        match e {
            DownEntry::Mapping { old, new } => {
                if self.frag == old {
                    self.frag = new;
                }
            }
            DownEntry::Chosen { edge } => {
                if self.incident.iter().any(|&(_, eid)| eid == edge) {
                    self.chosen_here.push(edge);
                }
            }
            DownEntry::End => self.ended = true,
        }
    }
    fn pump(&mut self, out: &mut Outbox) {
        if let Some(e) = self.queue.pop_front() {
            for &c in &self.children {
                out.send(c, self.encode(e));
            }
            self.apply(e);
        }
    }
}

impl NodeAlgorithm for Downcast {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        if self.is_root {
            self.pump(out);
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        for (_, msg) in inbox.iter() {
            let mut r = msg.reader();
            let kind = r.read_uint(2).expect("kind field");
            let entry = match kind {
                0 => DownEntry::Mapping {
                    old: r.read_uint(self.idw).expect("old"),
                    new: r.read_uint(self.idw).expect("new"),
                },
                1 => DownEntry::Chosen {
                    edge: r.read_uint(self.ew).expect("edge") as u32,
                },
                _ => DownEntry::End,
            };
            self.queue.push_back(entry);
        }
        self.pump(out);
    }
    fn is_terminated(&self) -> bool {
        self.ended && self.queue.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The orchestrated engine.
// ---------------------------------------------------------------------------

/// Computes a minimum spanning forest of the `active` subgraph under
/// `weights` (ties broken by edge id), together with component labels and
/// count. See the module docs for the two-phase structure and cost model.
///
/// # Panics
///
/// Panics if a message format does not fit the bandwidth budget, or the
/// engine fails to converge within `fc.max_phases` phases per phase type
/// (indicating a bug, not an input condition).
pub fn spanning_forest(
    graph: &Graph,
    cfg: CongestConfig,
    weights: &EdgeWeights,
    active: &Subgraph,
    fc: &FragmentConfig,
    ledger: &mut Ledger,
) -> FragmentOutcome {
    let n = graph.node_count();
    let m = graph.edge_count();
    let idw = id_width(n);
    let ew = edge_width(m.max(1));
    let max_w = graph.edges().map(|e| weights.weight(e)).max().unwrap_or(1);
    let ww = bits_for(max_w);
    let sw = bits_for(n as u64);

    let leader = elect_leader(graph, cfg, ledger);
    let bfs = build_bfs_tree(graph, cfg, leader, ledger);
    assert!(
        graph.nodes().all(|u| bfs.in_tree(u)),
        "the fragment engine requires a connected network (the CONGEST \
         model's communication graph); the subnetwork M may be disconnected"
    );

    let mut state = EngineState {
        frag: (0..n as u64).collect(),
        fparent: vec![None; n],
        fchildren: vec![Vec::new(); n],
        chosen: vec![false; m],
    };
    let sim = Simulator::new(graph, cfg);

    // ---------------- Phase 1: local controlled merging ----------------
    for _phase in 0..fc.max_phases {
        let cands = local_candidates(&sim, &state, weights, active, ledger);

        // Convergecast (size, min candidate) within each fragment.
        assert!(
            sw + 1 + ww + ew <= cfg.bandwidth_bits,
            "converge width exceeds B"
        );
        let conv = converge(
            &sim,
            ledger,
            &state.fparent,
            &state.fchildren,
            |i| (1u64, cands[i].map(|c| (c.weight, c.edge))),
            |&(size, best)| {
                let (w, e) = best.unwrap_or((0, 0));
                let mut bits = BitString::new();
                bits.push_uint(size, sw);
                bits.push_bit(best.is_some());
                bits.push_uint(w, ww);
                bits.push_uint(e as u64, ew);
                Message::from_bits(bits)
            },
            |(size, best), msg| {
                let mut r = msg.reader();
                *size += r.read_uint(sw).expect("size field");
                let present = r.read_bit().expect("flag field");
                let w = r.read_uint(ww).expect("weight field");
                let e = r.read_uint(ew).expect("edge field") as u32;
                if present && best.is_none_or(|b| (w, e) < b) {
                    *best = Some((w, e));
                }
            },
        );

        // Roots decide; decision flows down the fragment tree.
        let decisions: Vec<Option<u64>> = conv
            .iter()
            .zip(&state.fparent)
            .map(|(&(size, best), parent)| {
                let decides = parent.is_none() && (size as usize) < fc.size_threshold;
                best.filter(|_| decides).map(|(_, e)| e as u64)
            })
            .collect();
        let any_decision = decisions.iter().any(Option::is_some);
        assert!(ew <= cfg.bandwidth_bits, "edge id exceeds B");
        let decided = broadcast(&sim, ledger, &state.fchildren, |i| decisions[i], ew);

        // The merge port is the one carrying the chosen edge; mark it
        // chosen and notify across it.
        let merge_port: Vec<Option<usize>> = graph
            .nodes()
            .map(|u| {
                let e = decided[u.index()]?;
                let edges = &sim.info(u).incident_edges;
                edges.iter().position(|&eid| eid.0 as u64 == e)
            })
            .collect();
        for u in graph.nodes() {
            if let Some(p) = merge_port[u.index()] {
                state.chosen[graph.incident(u)[p].0.index()] = true;
            }
        }
        let notified = exchange(&sim, ledger, |info| {
            let port = merge_port[info.id.index()];
            port.map(|p| (p, Message::from_bit(true)))
                .into_iter()
                .collect()
        });

        // Relabel by minimum-id flooding over tree + merge edges.
        let rel = ledger.run(&sim, stage_cap(n), |info| {
            let i = info.id.index();
            let mut structure: Vec<usize> = state.fchildren[i].clone();
            structure.extend(state.fparent[i]);
            let heard = &notified[i];
            let notifiers = (0..heard.len()).filter(|&p| heard[p].is_some());
            for p in merge_port[i].into_iter().chain(notifiers) {
                if !structure.contains(&p) {
                    structure.push(p);
                }
            }
            Relabel {
                cur: state.frag[i],
                parent_port: state.fparent[i],
                structure,
                width: idw,
            }
        });
        for u in graph.nodes() {
            let i = u.index();
            state.frag[i] = rel[i].cur;
            state.fparent[i] = if state.frag[i] == u.0 as u64 {
                None
            } else {
                rel[i].parent_port
            };
        }
        state.fchildren = discover_children(&sim, &state.fparent, ledger);

        // Global control: did any fragment initiate a merge this phase?
        let flags: Vec<u64> = decisions.iter().map(|d| u64::from(d.is_some())).collect();
        let merged = aggregate_to_root(graph, cfg, &bfs, &flags, Agg::Or, 1, ledger);
        let _ = broadcast_from_root(graph, cfg, &bfs, merged, 1, ledger);
        debug_assert_eq!(merged == 1, any_decision);
        if merged == 0 {
            break;
        }
    }

    // ---------------- Phase 2: globally pipelined Borůvka ----------------
    assert!(
        1 + 2 * idw + ww + ew <= cfg.bandwidth_bits,
        "upcast width exceeds B"
    );
    assert!(
        2 + (2 * idw).max(ew) <= cfg.bandwidth_bits,
        "downcast width exceeds B"
    );
    for _phase in 0..fc.max_phases {
        let cands = local_candidates(&sim, &state, weights, active, ledger);
        let up = ledger.run(&sim, stage_cap(n) + n, |info| {
            let i = info.id.index();
            let mut table = BTreeMap::new();
            if let Some(c) = cands[i] {
                table.insert(state.frag[i], c);
            }
            PipedUpcast {
                parent_port: bfs.parent_port[i],
                pending_children: bfs.children_ports[i].clone(),
                table,
                done: false,
                idw,
                ww,
                ew,
            }
        });
        let root_table = &up[bfs.root.index()].table;
        if root_table.is_empty() {
            break;
        }

        // The root merges centrally (free local computation).
        let mut ids: Vec<u64> = root_table
            .iter()
            .flat_map(|(&f, c)| [f, c.to_frag])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let index_of = |id: u64| ids.binary_search(&id).expect("known fragment");
        let mut dsu = qdc_graph::DisjointSets::new(ids.len());
        let mut chosen_edges: Vec<u32> = Vec::new();
        for (&f, c) in root_table {
            // With the unique (weight, edge-id) order every fragment's
            // minimum outgoing edge is in the MSF; mutual choices simply
            // name the same edge twice.
            dsu.union(index_of(f), index_of(c.to_frag));
            if !chosen_edges.contains(&c.edge) {
                chosen_edges.push(c.edge);
            }
        }
        let mut new_id = vec![u64::MAX; ids.len()];
        for (k, &id) in ids.iter().enumerate() {
            let r = dsu.find(k);
            new_id[r] = new_id[r].min(id);
        }
        let mut stream: VecDeque<DownEntry> = VecDeque::new();
        for (k, &id) in ids.iter().enumerate() {
            let target = new_id[dsu.find(k)];
            if target != id {
                stream.push_back(DownEntry::Mapping {
                    old: id,
                    new: target,
                });
            }
        }
        for &e in &chosen_edges {
            stream.push_back(DownEntry::Chosen { edge: e });
        }
        stream.push_back(DownEntry::End);

        let down = ledger.run(&sim, stage_cap(n) + n, |info| {
            let i = info.id.index();
            let is_root = info.id == bfs.root;
            Downcast {
                queue: if is_root {
                    stream.clone()
                } else {
                    VecDeque::new()
                },
                children: bfs.children_ports[i].clone(),
                frag: state.frag[i],
                incident: info
                    .incident_edges
                    .iter()
                    .enumerate()
                    .map(|(p, &e)| (p, e.0))
                    .collect(),
                chosen_here: Vec::new(),
                is_root,
                ended: false,
                idw,
                ew,
            }
        });
        for u in graph.nodes() {
            let i = u.index();
            state.frag[i] = down[i].frag;
            for &e in &down[i].chosen_here {
                state.chosen[e as usize] = true;
            }
        }
    }

    // Count fragments: sum of representative indicators over the BFS tree.
    let indicators: Vec<u64> = graph
        .nodes()
        .map(|u| u64::from(state.frag[u.index()] == u.0 as u64))
        .collect();
    let count = aggregate_to_root(graph, cfg, &bfs, &indicators, Agg::Sum, sw, ledger);

    FragmentOutcome {
        fragment_of: state.frag,
        forest_edges: state
            .chosen
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .map(|(i, _)| EdgeId::from(i))
            .collect(),
        fragment_count: count as usize,
        leader,
        bfs,
    }
}

/// Counts the connected components of the `active` subgraph (isolated
/// nodes included) with the fragment engine under unit weights.
pub fn count_components(
    graph: &Graph,
    cfg: CongestConfig,
    active: &Subgraph,
    ledger: &mut Ledger,
) -> FragmentOutcome {
    let weights = EdgeWeights::uniform(graph);
    let fc = FragmentConfig::for_network(graph.node_count());
    spanning_forest(graph, cfg, &weights, active, &fc, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_graph::{algorithms, generate, predicates};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(64)
    }

    #[test]
    fn msf_matches_kruskal_on_random_graphs() {
        for seed in 0..6 {
            let g = generate::random_connected(30, 30, seed);
            let w = generate::random_weights(&g, 50, seed + 100);
            let mut ledger = Ledger::new();
            let fc = FragmentConfig::for_network(30);
            let out = spanning_forest(&g, cfg(), &w, &g.full_subgraph(), &fc, &mut ledger);
            let reference = algorithms::kruskal_mst(&g, &w);
            let mut got = out.forest_edges.clone();
            let mut want = reference.edges.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(out.fragment_count, 1);
        }
    }

    #[test]
    fn component_count_matches_predicate() {
        // The *network* must be connected (CONGEST assumption); the active
        // subgraph M may be arbitrarily fragmented.
        for seed in 0..6 {
            let g = generate::random_connected(40, 30, seed + 40);
            let mut active = g.empty_subgraph();
            for (k, e) in g.edges().enumerate() {
                if (k as u64).wrapping_mul(2654435761).wrapping_add(seed) % 5 < 2 {
                    active.insert(e);
                }
            }
            let mut ledger = Ledger::new();
            let out = count_components(&g, cfg(), &active, &mut ledger);
            assert_eq!(
                out.fragment_count,
                predicates::component_count(&g, &active),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn components_of_subgraph_not_whole_network() {
        // Network is a cycle; active subgraph is two disjoint arcs.
        let g = Graph::cycle(8);
        let mut active = g.empty_subgraph();
        active.insert(qdc_graph::EdgeId(0));
        active.insert(qdc_graph::EdgeId(1));
        active.insert(qdc_graph::EdgeId(4));
        let mut ledger = Ledger::new();
        let out = count_components(&g, cfg(), &active, &mut ledger);
        assert_eq!(out.fragment_count, predicates::component_count(&g, &active));
        // Forest = active edges themselves (they are acyclic).
        assert_eq!(out.forest_edges.len(), 3);
    }

    #[test]
    fn forest_is_spanning_forest_of_active_subgraph() {
        let g = generate::random_connected(25, 40, 77);
        let w = generate::random_weights(&g, 9, 78);
        let mut ledger = Ledger::new();
        let fc = FragmentConfig::for_network(25);
        let out = spanning_forest(&g, cfg(), &w, &g.full_subgraph(), &fc, &mut ledger);
        let sub = Subgraph::from_edges(&g, out.forest_edges.iter().copied());
        assert!(predicates::is_spanning_tree(&g, &sub));
        // Fragment labels all agree (single component).
        assert!(out.fragment_of.iter().all(|&f| f == out.fragment_of[0]));
    }

    #[test]
    fn fragment_labels_match_components() {
        // Connected network; M = three separate pieces.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6), (2, 3), (4, 5)]);
        let mut m = g.full_subgraph();
        m.remove(g.find_edge(NodeId(2), NodeId(3)).unwrap());
        m.remove(g.find_edge(NodeId(4), NodeId(5)).unwrap());
        let mut ledger = Ledger::new();
        let out = count_components(&g, cfg(), &m, &mut ledger);
        assert_eq!(out.fragment_count, 3);
        let (labels, _) = predicates::components(&g, &m);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    labels[u.index()] == labels[v.index()],
                    out.fragment_of[u.index()] == out.fragment_of[v.index()],
                    "{u} vs {v}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "connected network")]
    fn disconnected_network_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut ledger = Ledger::new();
        count_components(&g, cfg(), &g.full_subgraph(), &mut ledger);
    }

    #[test]
    fn threshold_one_still_correct_via_phase_two() {
        // size_threshold = 1 disables phase 1 entirely; phase 2 alone must
        // still compute the MSF (ablation of the two-phase split).
        let g = generate::random_connected(20, 15, 3);
        let w = generate::random_weights(&g, 20, 4);
        let mut ledger = Ledger::new();
        let fc = FragmentConfig {
            size_threshold: 1,
            max_phases: 40,
        };
        let out = spanning_forest(&g, cfg(), &w, &g.full_subgraph(), &fc, &mut ledger);
        let reference = algorithms::kruskal_mst(&g, &w);
        assert_eq!(
            out.forest_edges.iter().map(|&e| w.weight(e)).sum::<u64>(),
            reference.total_weight
        );
    }

    #[test]
    fn engine_cost_is_recorded() {
        let g = generate::random_connected(20, 10, 11);
        let mut ledger = Ledger::new();
        let out = count_components(&g, cfg(), &g.full_subgraph(), &mut ledger);
        assert_eq!(out.fragment_count, 1);
        assert!(ledger.rounds > 0);
        assert!(ledger.bits > 0);
        assert!(ledger.stages >= 5);
    }
}
