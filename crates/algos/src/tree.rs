//! The three communication patterns the multi-phase algorithms are built
//! from, each written once, and the BFS-tree aggregation on top of them.
//!
//! * `exchange` — one round: every node sends the `(port, message)` pairs
//!   it is given and gets back what it heard on each port;
//! * `converge` — a fold up a rooted forest: a node waits for all of its
//!   children, folds their messages in port order into its own value and
//!   sends the result to its parent once;
//! * `broadcast` — a value down a rooted forest: a node that holds a value
//!   forwards it to its children, every other node adopts the first value
//!   it hears and passes it on.
//!
//! Each runs as one stage charged through [`Ledger`]. A forest is given as
//! parent and child ports, so one call serves a single BFS tree or every
//! fragment tree at once; a node outside the forest has neither and takes
//! no part. [`aggregate_to_root`] and [`broadcast_from_root`] are the
//! public convergecast and broadcast over a BFS tree: combine one `u64`
//! per node up to the root (sum / min / max / and / or), or push one value
//! from the root to everyone. Each costs ≈ tree height rounds with one
//! `width`-bit message per tree edge.

use crate::flood::{stage_cap, BfsTreeInfo};
use crate::ledger::Ledger;
use qdc_congest::{CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Simulator};
use qdc_graph::Graph;

/// Aggregation operator for [`aggregate_to_root`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Sum (caller guarantees the total fits in `width` bits).
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND (use 0/1 values for boolean "all").
    And,
    /// Bitwise OR (use 0/1 values for boolean "any").
    Or,
}

impl Agg {
    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            Agg::Sum => a.checked_add(b).expect("aggregate overflow"),
            Agg::Min => a.min(b),
            Agg::Max => a.max(b),
            Agg::And => a & b,
            Agg::Or => a | b,
        }
    }
}

struct ExchangeState {
    send: Vec<(usize, Message)>,
    heard: Vec<Option<Message>>,
}

impl NodeAlgorithm for ExchangeState {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        for (port, msg) in self.send.drain(..) {
            out.send(port, msg);
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, _out: &mut Outbox) {
        for (port, msg) in inbox.iter() {
            self.heard[port] = Some(msg.clone());
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// One round: each node sends the `(port, message)` pairs `send` gives
/// it, and gets back what it heard, per port. Costs one round when
/// anything is sent and none otherwise; one stage either way.
pub(crate) fn exchange(
    sim: &Simulator,
    ledger: &mut Ledger,
    mut send: impl FnMut(&NodeInfo) -> Vec<(usize, Message)>,
) -> Vec<Vec<Option<Message>>> {
    let nodes = ledger.run(sim, 1, |info| ExchangeState {
        send: send(info),
        heard: vec![None; info.degree()],
    });
    nodes.into_iter().map(|s| s.heard).collect()
}

struct ConvergeState<'a, V, E, C> {
    parent_port: Option<usize>,
    pending_children: usize,
    value: V,
    encode: &'a E,
    combine: &'a C,
    sent: bool,
}

impl<V, E, C> ConvergeState<'_, V, E, C>
where
    E: Fn(&V) -> Message,
{
    fn try_send(&mut self, out: &mut Outbox) {
        if self.sent || self.pending_children > 0 {
            return;
        }
        self.sent = true;
        if let Some(p) = self.parent_port {
            out.send(p, (self.encode)(&self.value));
        }
    }
}

impl<V, E, C> NodeAlgorithm for ConvergeState<'_, V, E, C>
where
    V: Send,
    E: Fn(&V) -> Message + Sync,
    C: Fn(&mut V, &Message) + Sync,
{
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        self.try_send(out);
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        // Only children send up, each once.
        for (_, msg) in inbox.iter() {
            (self.combine)(&mut self.value, msg);
            self.pending_children -= 1;
        }
        self.try_send(out);
    }
    fn is_terminated(&self) -> bool {
        self.sent
    }
}

/// Folds a value up every tree of the forest given by `parent_port` and
/// `children`: node `i` starts from `init(i)`, folds each child's message
/// in with `combine` (in port order), and once all children have
/// reported sends `encode(value)` to its parent. Returns every node's
/// final value; a root's is its whole tree's fold.
pub(crate) fn converge<V: Send>(
    sim: &Simulator,
    ledger: &mut Ledger,
    parent_port: &[Option<usize>],
    children: &[Vec<usize>],
    init: impl Fn(usize) -> V,
    encode: impl Fn(&V) -> Message + Sync,
    combine: impl Fn(&mut V, &Message) + Sync,
) -> Vec<V> {
    let cap = stage_cap(sim.graph().node_count());
    let nodes = ledger.run(sim, cap, |info| {
        let i = info.id.index();
        ConvergeState {
            parent_port: parent_port[i],
            pending_children: children[i].len(),
            value: init(i),
            encode: &encode,
            combine: &combine,
            sent: false,
        }
    });
    nodes.into_iter().map(|s| s.value).collect()
}

struct BroadcastState<'a> {
    value: Option<u64>,
    children: &'a [usize],
    width: usize,
}

impl BroadcastState<'_> {
    fn forward(&self, out: &mut Outbox) {
        if let Some(v) = self.value {
            for &c in self.children {
                out.send(c, Message::from_uint(v, self.width));
            }
        }
    }
}

impl NodeAlgorithm for BroadcastState<'_> {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        self.forward(out);
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        if self.value.is_none() {
            if let Some((_, msg)) = inbox.iter().next() {
                self.value = msg.as_uint(self.width);
                self.forward(out);
            }
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// Sends values down the forest given by `children` in `width`-bit
/// messages: node `i` starts from `start(i)`; a node holding a value
/// forwards it to its children, and every other node adopts the first
/// value it hears and passes it on. Returns every node's value (`None`
/// where nothing arrived).
pub(crate) fn broadcast(
    sim: &Simulator,
    ledger: &mut Ledger,
    children: &[Vec<usize>],
    start: impl Fn(usize) -> Option<u64>,
    width: usize,
) -> Vec<Option<u64>> {
    let cap = stage_cap(sim.graph().node_count());
    let nodes = ledger.run(sim, cap, |info| {
        let i = info.id.index();
        BroadcastState {
            value: start(i),
            children: &children[i],
            width,
        }
    });
    nodes.into_iter().map(|s| s.value).collect()
}

/// Aggregates `values[v]` over all tree nodes to the root; returns the
/// root's result. Nodes outside the tree are ignored.
///
/// # Panics
///
/// Panics if `width` exceeds the bandwidth budget or an intermediate
/// aggregate does not fit in `width` bits.
pub fn aggregate_to_root(
    graph: &Graph,
    cfg: CongestConfig,
    tree: &BfsTreeInfo,
    values: &[u64],
    agg: Agg,
    width: usize,
    ledger: &mut Ledger,
) -> u64 {
    assert_eq!(values.len(), graph.node_count(), "one value per node");
    assert!(width <= cfg.bandwidth_bits, "aggregate width exceeds B");
    let sim = Simulator::new(graph, cfg);
    let acc = converge(
        &sim,
        ledger,
        &tree.parent_port,
        &tree.children_ports,
        |i| values[i],
        |&acc| {
            assert!(
                acc < (1u64 << width.min(63)) || width >= 64,
                "aggregate {acc} does not fit in {width} bits"
            );
            Message::from_uint(acc, width)
        },
        |acc, msg| {
            let v = msg.as_uint(width).expect("malformed aggregate message");
            *acc = agg.combine(*acc, v);
        },
    );
    acc[tree.root.index()]
}

/// Broadcasts `value` from the tree root to every tree node; returns each
/// node's received value (`None` for nodes outside the tree).
///
/// # Panics
///
/// Panics if `width` exceeds the bandwidth budget or the value does not
/// fit.
pub fn broadcast_from_root(
    graph: &Graph,
    cfg: CongestConfig,
    tree: &BfsTreeInfo,
    value: u64,
    width: usize,
    ledger: &mut Ledger,
) -> Vec<Option<u64>> {
    assert!(width <= cfg.bandwidth_bits, "broadcast width exceeds B");
    let sim = Simulator::new(graph, cfg);
    let root = tree.root.index();
    let start = |i| (i == root).then_some(value);
    broadcast(&sim, ledger, &tree.children_ports, start, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flood::build_bfs_tree;
    use qdc_graph::{Graph, NodeId};

    fn setup(g: &Graph) -> (CongestConfig, BfsTreeInfo, Ledger) {
        let cfg = CongestConfig::classical(32);
        let mut ledger = Ledger::new();
        let tree = build_bfs_tree(g, cfg, NodeId(0), &mut ledger);
        (cfg, tree, ledger)
    }

    #[test]
    fn sum_of_node_ids() {
        let g = qdc_graph::generate::random_connected(20, 10, 3);
        let (cfg, tree, mut ledger) = setup(&g);
        let values: Vec<u64> = (0..20).collect();
        let total = aggregate_to_root(&g, cfg, &tree, &values, Agg::Sum, 16, &mut ledger);
        assert_eq!(total, 190);
    }

    #[test]
    fn min_max_and_or() {
        let g = Graph::cycle(9);
        let (cfg, tree, mut ledger) = setup(&g);
        let values: Vec<u64> = (0..9).map(|i| (i * 13 + 5) % 23).collect();
        assert_eq!(
            aggregate_to_root(&g, cfg, &tree, &values, Agg::Min, 8, &mut ledger),
            *values.iter().min().unwrap()
        );
        assert_eq!(
            aggregate_to_root(&g, cfg, &tree, &values, Agg::Max, 8, &mut ledger),
            *values.iter().max().unwrap()
        );
        let bools: Vec<u64> = (0..9).map(|i| u64::from(i != 4)).collect();
        assert_eq!(
            aggregate_to_root(&g, cfg, &tree, &bools, Agg::And, 1, &mut ledger),
            0
        );
        assert_eq!(
            aggregate_to_root(&g, cfg, &tree, &bools, Agg::Or, 1, &mut ledger),
            1
        );
    }

    #[test]
    fn convergecast_rounds_scale_with_height() {
        let g = Graph::path(40);
        let (cfg, tree, _) = setup(&g);
        let mut ledger = Ledger::new();
        let values = vec![1u64; 40];
        let total = aggregate_to_root(&g, cfg, &tree, &values, Agg::Sum, 8, &mut ledger);
        assert_eq!(total, 40);
        assert!(ledger.rounds >= 39, "rounds {}", ledger.rounds);
        assert!(ledger.rounds <= 45, "rounds {}", ledger.rounds);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let g = qdc_graph::generate::random_connected(25, 12, 8);
        let (cfg, tree, mut ledger) = setup(&g);
        let got = broadcast_from_root(&g, cfg, &tree, 1234, 11, &mut ledger);
        assert!(got.iter().all(|&v| v == Some(1234)));
    }

    #[test]
    fn broadcast_skips_unreachable_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let cfg = CongestConfig::classical(8);
        let mut ledger = Ledger::new();
        let tree = build_bfs_tree(&g, cfg, NodeId(0), &mut ledger);
        let got = broadcast_from_root(&g, cfg, &tree, 7, 3, &mut ledger);
        assert_eq!(got[0], Some(7));
        assert_eq!(got[1], Some(7));
        assert_eq!(got[2], None);
    }

    /// `(rounds, messages, bits, stages)`.
    fn cost(l: &Ledger) -> (usize, u64, u64, usize) {
        (l.rounds, l.messages, l.bits, l.stages)
    }

    /// The port of `from` that leads to `to`.
    fn port(sim: &Simulator, from: u32, to: u32) -> usize {
        let neighbors = &sim.info(NodeId(from)).neighbors;
        neighbors.iter().position(|&w| w == NodeId(to)).unwrap()
    }

    /// The path 0–1–2–3 split into two trees, `0 ← 1` and `2 → 3`,
    /// rooted at 0 and 3, as parent and child ports.
    fn two_trees(sim: &Simulator) -> (Vec<Option<usize>>, Vec<Vec<usize>>) {
        let parent = vec![None, Some(port(sim, 1, 0)), Some(port(sim, 2, 3)), None];
        let children = vec![vec![port(sim, 0, 1)], vec![], vec![], vec![port(sim, 3, 2)]];
        (parent, children)
    }

    #[test]
    fn converge_folds_each_tree_of_a_forest_into_its_own_root() {
        let g = Graph::path(4);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let (parent, children) = two_trees(&sim);
        let mut ledger = Ledger::new();
        let values = [1u64, 2, 4, 8];
        let folded = converge(
            &sim,
            &mut ledger,
            &parent,
            &children,
            |i| values[i],
            |&v| Message::from_uint(v, 4),
            |acc, msg| *acc += msg.as_uint(4).unwrap(),
        );
        assert_eq!(folded, vec![3, 2, 4, 12]);
        assert_eq!(cost(&ledger), (1, 2, 8, 1));
    }

    #[test]
    fn broadcast_from_two_roots_reaches_exactly_their_trees() {
        let g = Graph::path(4);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let (_, children) = two_trees(&sim);
        let mut ledger = Ledger::new();
        let start = |i| match i {
            0 => Some(5),
            3 => Some(9),
            _ => None,
        };
        let got = broadcast(&sim, &mut ledger, &children, start, 4);
        assert_eq!(got, vec![Some(5), Some(5), Some(9), Some(9)]);
        // One message per tree edge; the middle edge joins no tree.
        assert_eq!(cost(&ledger), (1, 2, 8, 1));
    }

    #[test]
    fn silent_exchange_costs_no_round_but_one_stage() {
        let g = Graph::path(4);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let mut ledger = Ledger::new();
        let heard = exchange(&sim, &mut ledger, |_| Vec::new());
        assert!(heard.iter().flatten().all(Option::is_none));
        assert_eq!(cost(&ledger), (0, 0, 0, 1));
    }

    #[test]
    fn exchange_delivers_on_the_matching_port_after_one_round() {
        let g = Graph::path(4);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let mut ledger = Ledger::new();
        let msg = Message::from_uint(6, 3);
        let heard = exchange(&sim, &mut ledger, |info| {
            if info.id == NodeId(1) {
                vec![(port(&sim, 1, 2), msg.clone())]
            } else {
                Vec::new()
            }
        });
        let mut expected: Vec<Vec<Option<Message>>> =
            g.nodes().map(|v| vec![None; g.degree(v)]).collect();
        expected[2][port(&sim, 2, 1)] = Some(msg);
        assert_eq!(heard, expected);
        assert_eq!(cost(&ledger), (1, 1, 3, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn oversized_aggregate_width_rejected() {
        let g = Graph::path(3);
        let cfg = CongestConfig::classical(4);
        let mut ledger = Ledger::new();
        let tree = build_bfs_tree(&g, cfg, NodeId(0), &mut ledger);
        aggregate_to_root(&g, cfg, &tree, &[1, 1, 1], Agg::Sum, 8, &mut ledger);
    }
}
