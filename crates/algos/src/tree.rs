//! The five communication patterns the multi-phase algorithms are built
//! from, each written once, and the BFS-tree aggregation on top of them.
//!
//! * `exchange` — one round: every node sends the `(port, message)` pairs
//!   it is given and gets back what it heard on each port;
//! * `converge` — a fold up a rooted forest: a node waits for all of its
//!   children, folds their messages in port order into its own value and
//!   sends the result to its parent once;
//! * `relax` — an event-driven flood to a fixpoint: a node that holds a
//!   value announces it on its ports, and each round a rule from the
//!   caller may pick a port the node heard and the value to adopt from
//!   it, which the node then announces in turn. Leader election, the BFS
//!   wave, Bellman–Ford, the sweep, the parity flood and the fragment
//!   relabel are rules for it, most of them tie-broken by
//!   `first_smallest`;
//! * `broadcast` — a value down a rooted forest: a `relax` that floods on
//!   a node's child ports and adopts the first value heard;
//! * `pipeline` — a FIFO flood: a node queues every entry it hears that
//!   the caller's rule takes into its state, and sends one queued entry on
//!   its ports per round (the APSP waves, Cohen's LE lists and the
//!   fragment engine's downcast).
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
use std::collections::VecDeque;

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

struct ConvergeState<'a, V> {
    parent_port: Option<usize>,
    pending_children: usize,
    value: V,
    encode: &'a dyn Fn(&V) -> Message,
    combine: &'a dyn Fn(&mut V, &Message),
    sent: bool,
}

impl<V> ConvergeState<'_, V> {
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

impl<V> NodeAlgorithm for ConvergeState<'_, V> {
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
pub(crate) fn converge<V>(
    sim: &Simulator,
    ledger: &mut Ledger,
    parent_port: &[Option<usize>],
    children: &[Vec<usize>],
    init: impl Fn(usize) -> V,
    encode: impl Fn(&V) -> Message,
    combine: impl Fn(&mut V, &Message),
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

/// A `relax` rule: given the node, the round, its value and what it
/// heard, the port and value to adopt, if any.
type Rule<'a, V> = dyn Fn(&NodeInfo, usize, Option<&V>, &Inbox) -> Option<(usize, V)> + 'a;

struct RelaxState<'a, V> {
    value: Option<V>,
    parent: Option<usize>,
    ports: Vec<usize>,
    round: usize,
    echo: bool,
    encode: &'a dyn Fn(&V) -> Message,
    adopt: &'a Rule<'a, V>,
}

impl<V> RelaxState<'_, V> {
    /// Sends the held value on every flood port but `skip`.
    fn announce(&self, out: &mut Outbox, skip: Option<usize>) {
        if let Some(v) = &self.value {
            let msg = (self.encode)(v);
            for &p in self.ports.iter().filter(|&&p| Some(p) != skip) {
                out.send(p, msg.clone());
            }
        }
    }
}

impl<V> NodeAlgorithm for RelaxState<'_, V> {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        self.announce(out, None);
    }
    fn on_round(&mut self, info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        self.round += 1;
        if let Some((port, v)) = (self.adopt)(info, self.round, self.value.as_ref(), inbox) {
            self.value = Some(v);
            self.parent = Some(port);
            self.announce(out, (!self.echo).then_some(port));
        }
    }
    fn is_terminated(&self) -> bool {
        true
    }
}

/// Floods values until no node adopts any more. `seed(info)` gives a
/// node its value, the parent port it keeps unless it adopts, and the
/// ports it floods on; a node seeded with a value announces it in round
/// 0. In round `r`, `adopt(info, r, value, inbox)` may name a port the
/// node heard and the value to take from it: the node then holds that
/// value, takes that port as its parent, and announces the value on its
/// ports — back on the parent port too when `echo`. Returns every node's
/// final value and parent port.
pub(crate) fn relax<V>(
    sim: &Simulator,
    ledger: &mut Ledger,
    mut seed: impl FnMut(&NodeInfo) -> (Option<V>, Option<usize>, Vec<usize>),
    encode: impl Fn(&V) -> Message,
    adopt: impl Fn(&NodeInfo, usize, Option<&V>, &Inbox) -> Option<(usize, V)>,
    echo: bool,
) -> Vec<(Option<V>, Option<usize>)> {
    let cap = stage_cap(sim.graph().node_count());
    let nodes = ledger.run(sim, cap, |info| {
        let (value, parent, ports) = seed(info);
        RelaxState {
            value,
            parent,
            ports,
            round: 0,
            echo,
            encode: &encode,
            adopt: &adopt,
        }
    });
    nodes.into_iter().map(|s| (s.value, s.parent)).collect()
}

/// The tie-break the `relax` rules share: decodes each message heard into
/// an offer and returns the first port whose offer has the smallest
/// `key`, with that offer. A later port wins only with a strictly smaller
/// key.
pub(crate) fn first_smallest<T, K: Ord>(
    inbox: &Inbox,
    offer: impl Fn(usize, &Message) -> T,
    key: impl Fn(&T) -> K,
) -> Option<(usize, T)> {
    let offers = inbox.iter().map(|(p, msg)| (p, offer(p, msg)));
    offers.min_by_key(|(_, t)| key(t))
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
    let flooded = relax(
        sim,
        ledger,
        |info| {
            let i = info.id.index();
            (start(i), None, children[i].clone())
        },
        |&v| Message::from_uint(v, width),
        |_, _, value, inbox| {
            if value.is_some() {
                return None;
            }
            let (port, msg) = inbox.iter().next()?;
            Some((port, msg.as_uint(width)?))
        },
        false,
    );
    flooded.into_iter().map(|(v, _)| v).collect()
}

struct PipelineState<'a, S, T> {
    state: S,
    queue: VecDeque<T>,
    ports: Vec<usize>,
    encode: &'a dyn Fn(&NodeInfo, usize, &T) -> Message,
    decode: &'a dyn Fn(&Message) -> T,
    accept: &'a dyn Fn(&NodeInfo, &mut S, &T) -> bool,
}

impl<S, T> NodeAlgorithm for PipelineState<'_, S, T> {
    fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
        // Round 0 is a round in which nothing was heard.
        self.on_round(info, &Inbox::from_slots(Vec::new()), out);
    }
    fn on_round(&mut self, info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        for (_, msg) in inbox.iter() {
            let entry = (self.decode)(msg);
            if (self.accept)(info, &mut self.state, &entry) {
                self.queue.push_back(entry);
            }
        }
        // One message per edge per round: send the oldest entry.
        if let Some(entry) = self.queue.pop_front() {
            for &p in &self.ports {
                out.send(p, (self.encode)(info, p, &entry));
            }
        }
    }
    fn is_terminated(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Streams entries through the network, one message per edge per round.
/// `seed(info)` gives a node its state, the entries queued at the start
/// and the ports it sends on. Each round a node decodes what it heard,
/// port by port, and queues every entry that `accept` takes into its
/// state; then it sends its oldest queued entry, encoded for each port
/// by `encode(info, port, entry)`. The stage ends when every queue is
/// empty; returns every node's final state.
pub(crate) fn pipeline<S, T>(
    sim: &Simulator,
    ledger: &mut Ledger,
    mut seed: impl FnMut(&NodeInfo) -> (S, Vec<T>, Vec<usize>),
    encode: impl Fn(&NodeInfo, usize, &T) -> Message,
    decode: impl Fn(&Message) -> T,
    accept: impl Fn(&NodeInfo, &mut S, &T) -> bool,
) -> Vec<S> {
    let n = sim.graph().node_count();
    let nodes = ledger.run(sim, stage_cap(n) + n * n, |info| {
        let (state, queue, ports) = seed(info);
        PipelineState {
            state,
            queue: queue.into(),
            ports,
            encode: &encode,
            decode: &decode,
            accept: &accept,
        }
    });
    nodes.into_iter().map(|s| s.state).collect()
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
    fn first_smallest_takes_the_first_port_among_equal_keys() {
        let m = |v| Some(Message::from_uint(v, 4));
        let inbox = Inbox::from_slots(vec![m(5), m(3), None, m(3)]);
        let value = |_, msg: &Message| msg.as_uint(4).unwrap();
        assert_eq!(first_smallest(&inbox, value, |&v| v), Some((1, 3)));
        assert_eq!(first_smallest(&inbox, value, |_| ()), Some((0, 5)));
        let silent = Inbox::from_slots(vec![None, None]);
        assert_eq!(first_smallest(&silent, value, |&v| v), None);
    }

    #[test]
    fn relax_answers_the_parent_port_only_with_echo() {
        // A min-id flood on the path 0–1–2–3: every node ends with id 0
        // and its port toward node 0 as parent.
        let g = Graph::path(4);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let toward_0 = [None, Some(port(&sim, 1, 0)), Some(port(&sim, 2, 1))];
        let expected: Vec<_> = [toward_0[0], toward_0[1], toward_0[2], Some(0)]
            .into_iter()
            .map(|p| (Some(0), p))
            .collect();
        // Round 0 sends 6 messages. Without echo each adoption goes on
        // away from node 0 only (2, then 1); with echo every adopter also
        // answers its parent (5, 3, then 1).
        for (echo, messages) in [(false, 6 + 2 + 1), (true, 6 + 5 + 3 + 1)] {
            let mut ledger = Ledger::new();
            let flooded = relax(
                &sim,
                &mut ledger,
                |info| (Some(info.id.0 as u64), None, (0..info.degree()).collect()),
                |&v| Message::from_uint(v, 2),
                |_, _, cur, inbox| {
                    let (port, v) = first_smallest(inbox, |_, m| m.as_uint(2).unwrap(), |&v| v)?;
                    (v < *cur?).then_some((port, v))
                },
                echo,
            );
            assert_eq!(flooded, expected, "echo {echo}");
            assert_eq!(ledger.messages, messages, "echo {echo}");
        }
    }

    #[test]
    fn pipeline_sends_one_queued_entry_per_round_in_order() {
        // Node 0 streams 1, 2, 3, 4 toward node 2; node 1 records every
        // entry it hears but queues only the even ones.
        let g = Graph::path(3);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let mut ledger = Ledger::new();
        let heard = pipeline(
            &sim,
            &mut ledger,
            |info| match info.id.0 {
                0 => (Vec::new(), vec![1, 2, 3, 4], vec![0]),
                1 => (Vec::new(), Vec::new(), vec![port(&sim, 1, 2)]),
                _ => (Vec::new(), Vec::new(), Vec::new()),
            },
            |_, _, &e| Message::from_uint(e, 3),
            |msg| msg.as_uint(3).unwrap(),
            |_, seen: &mut Vec<u64>, &e| {
                seen.push(e);
                e % 2 == 0
            },
        );
        assert_eq!(heard, vec![vec![], vec![1, 2, 3, 4], vec![2, 4]]);
        // Node 0 sends in rounds 0–3 and node 1 in rounds 2 and 4; the
        // last entry arrives in round 5.
        assert_eq!(cost(&ledger), (5, 6, 18, 1));
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
