//! Leader election and BFS-tree construction by flooding — plus a
//! chaos-hardened broadcast that stays correct when the network drops,
//! corrupts, or crash-loses messages.

use crate::ledger::Ledger;
use crate::tree::{exchange, first_smallest, relax};
use crate::widths::id_width;
use qdc_congest::{
    ChaosConfig, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, RunReport,
    SimError, Simulator, Telemetry,
};
use qdc_graph::{Graph, NodeId};
use std::cmp::Reverse;

/// Generous per-stage round cap (stages reach quiescence long before).
pub(crate) fn stage_cap(n: usize) -> usize {
    20 * n + 100
}

/// Chaos-aware round budget: the strict stages' round cap `20n + 100`
/// stretched by the expected number of retransmissions per delivery,
/// `1 / (1 − drop_prob)`, plus slack. A retry-until-ack discipline (e.g. [`robust_broadcast`])
/// running within this budget succeeds with overwhelming probability
/// for any `drop_prob < 1` bounded away from 1 — at `p = 0.3` the
/// budget leaves hundreds of retries per edge, and a single edge
/// failing `r` consecutive times has probability `p^r`.
///
/// # Panics
///
/// Panics if `drop_prob` is not in `[0, 1)`.
pub fn chaos_round_budget(n: usize, drop_prob: f64) -> usize {
    assert!(
        (0.0..1.0).contains(&drop_prob),
        "drop_prob {drop_prob} outside [0, 1)"
    );
    (stage_cap(n) as f64 / (1.0 - drop_prob)).ceil() as usize + 50
}

// ---------------------------------------------------------------------------
// Leader election
// ---------------------------------------------------------------------------

/// Elects the maximum-id node by event-driven flooding (≈ D rounds on an
/// n-node network; each message is one node id of `⌈log₂ n⌉` bits).
///
/// # Panics
///
/// Panics if an id does not fit in the `B`-bit budget.
pub fn elect_leader(graph: &Graph, cfg: CongestConfig, ledger: &mut Ledger) -> NodeId {
    let n = graph.node_count();
    let width = id_width(n);
    assert!(
        width <= cfg.bandwidth_bits,
        "node id ({width} bits) exceeds B"
    );
    let sim = Simulator::new(graph, cfg);
    let flooded = relax(
        &sim,
        ledger,
        |info| (Some(info.id.0 as u64), None, (0..info.degree()).collect()),
        |&id| Message::from_uint(id, width),
        |_, _, best, inbox| {
            let id = |_, msg: &Message| msg.as_uint(width).expect("node id");
            let (port, id) = first_smallest(inbox, id, |&id| Reverse(id))?;
            (id > *best?).then_some((port, id))
        },
        true,
    );
    let max = flooded.iter().filter_map(|&(id, _)| id).max();
    NodeId(max.expect("non-empty network") as u32)
}

// ---------------------------------------------------------------------------
// BFS tree construction
// ---------------------------------------------------------------------------

/// A rooted BFS tree over the network, as produced distributedly.
#[derive(Clone, Debug)]
pub struct BfsTreeInfo {
    /// The root.
    pub root: NodeId,
    /// Parent port of each node (`None` for the root and unreachable
    /// nodes).
    pub parent_port: Vec<Option<usize>>,
    /// Hop depth of each node (`u64::MAX` if unreachable).
    pub depth: Vec<u64>,
    /// Ports leading to each node's tree children.
    pub children_ports: Vec<Vec<usize>>,
    /// Tree height (maximum finite depth).
    pub height: u64,
}

impl BfsTreeInfo {
    /// Whether node `v` participates in the tree.
    pub fn in_tree(&self, v: NodeId) -> bool {
        self.depth[v.index()] != u64::MAX
    }
}

/// One-round child discovery: every node with a parent sends a bit to
/// its parent port; each node records the ports it heard from. Reused by
/// the fragment engine after each relabeling.
pub(crate) fn discover_children(
    sim: &Simulator,
    parent_port: &[Option<usize>],
    ledger: &mut Ledger,
) -> Vec<Vec<usize>> {
    let heard = exchange(sim, ledger, |info| {
        let parent = parent_port[info.id.index()];
        parent
            .map(|p| (p, Message::from_bit(true)))
            .into_iter()
            .collect()
    });
    heard
        .iter()
        .map(|h| (0..h.len()).filter(|&p| h[p].is_some()).collect())
        .collect()
}

/// Builds a BFS tree from `root` by wave flooding (0-bit messages; the
/// arrival round *is* the depth) followed by a one-round child-discovery
/// exchange. Costs ≈ eccentricity(root) + 1 rounds.
pub fn build_bfs_tree(
    graph: &Graph,
    cfg: CongestConfig,
    root: NodeId,
    ledger: &mut Ledger,
) -> BfsTreeInfo {
    let sim = Simulator::new(graph, cfg);
    let flooded = relax(
        &sim,
        ledger,
        |info| {
            (
                (info.id == root).then_some(0),
                None,
                (0..info.degree()).collect(),
            )
        },
        |_| Message::empty(),
        |_, round, depth, inbox| {
            if depth.is_some() {
                return None;
            }
            let (port, _) = inbox.iter().next()?;
            Some((port, round as u64))
        },
        false,
    );
    let parent_port: Vec<Option<usize>> = flooded.iter().map(|&(_, p)| p).collect();
    let depth: Vec<u64> = flooded
        .iter()
        .map(|&(d, _)| d.unwrap_or(u64::MAX))
        .collect();
    let children_ports = discover_children(&sim, &parent_port, ledger);
    let height = depth
        .iter()
        .copied()
        .filter(|&d| d != u64::MAX)
        .max()
        .unwrap_or(0);
    BfsTreeInfo {
        root,
        parent_port,
        depth,
        children_ports,
        height,
    }
}

// ---------------------------------------------------------------------------
// Chaos-hardened broadcast (retransmit until neighbor-ack)
// ---------------------------------------------------------------------------

/// Message kinds for [`robust_broadcast`], encoded in 2 bits at Hamming
/// distance 2 — a single flipped bit can never turn a token into an ack
/// or vice versa, it only produces an invalid word that receivers
/// ignore (so corruption degrades to a drop, which the retry discipline
/// already absorbs).
const ROBUST_TOKEN: u64 = 0b01;
const ROBUST_ACK: u64 = 0b10;

/// A drop-tolerant flooding broadcast: every informed node retransmits
/// the token on each port every round until that neighbor acknowledges
/// (or is learned to be informed), giving up after `give_up` rounds.
///
/// The naive flood sends each token once, so a single dropped message
/// permanently cuts off a subtree. Here the per-edge exchange is a
/// stop-and-wait retry loop — the minimal discipline that restores
/// correctness under message loss.
struct RobustFlood {
    informed: bool,
    /// Per port: this neighbor is known informed (token or ack seen), so
    /// retransmission to it stops.
    settled: Vec<bool>,
    /// Per port: an ack is owed in response to a token received last
    /// round (re-acked every time the token is re-received, so lost acks
    /// are retried too).
    owe_ack: Vec<bool>,
    round: usize,
    give_up: usize,
}

impl RobustFlood {
    fn retransmitting(&self) -> bool {
        self.round < self.give_up
    }
}

impl NodeAlgorithm for RobustFlood {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        if self.informed {
            for p in 0..out.port_count() {
                out.send(p, Message::from_uint(ROBUST_TOKEN, 2));
            }
        }
    }
    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        self.round += 1;
        for (p, msg) in inbox.iter() {
            // Corrupted payloads (wrong width or invalid word) fall
            // through both arms and are treated as silence.
            match msg.as_uint(2) {
                Some(ROBUST_TOKEN) => {
                    self.informed = true;
                    self.settled[p] = true;
                    self.owe_ack[p] = true;
                }
                Some(ROBUST_ACK) => self.settled[p] = true,
                _ => {}
            }
        }
        if !self.informed || !self.retransmitting() {
            return;
        }
        for p in 0..out.port_count() {
            if self.owe_ack[p] {
                self.owe_ack[p] = false;
                out.send(p, Message::from_uint(ROBUST_ACK, 2));
            } else if !self.settled[p] {
                out.send(p, Message::from_uint(ROBUST_TOKEN, 2));
            }
        }
    }
    fn is_terminated(&self) -> bool {
        // Quiescence-driven: the run ends when every live node has
        // settled all its ports (or given up) and no retries are in
        // flight. `give_up` bounds the run even when a neighbor crashed
        // and will never acknowledge.
        true
    }
}

/// Outcome of a [`robust_broadcast`] run.
#[derive(Clone, Debug)]
pub struct RobustBroadcastOutcome {
    /// Whether each node held the token when the run ended.
    pub informed: Vec<bool>,
    /// The run's accounting, including the fault counters.
    pub report: RunReport,
}

/// Floods a token from `root` under the fault plan described by
/// `chaos`, retransmitting on every unacknowledged port each round
/// until `give_up` rounds have passed (use
/// [`chaos_round_budget`]`(n, drop_prob)` for a budget that makes
/// non-delivery astronomically unlikely). Reaches every non-crashed
/// node connected to `root` in the residual graph.
///
/// Requires `B ≥ 2` (messages are 2-bit words) and a
/// [`max_rounds_watchdog`](ChaosConfig::max_rounds_watchdog) above
/// `give_up + 1`, or the run cannot wind down before the watchdog.
///
/// The [`Telemetry`] sink observes per-round deliveries plus every drop,
/// corruption and crash the fault plan injects, attributed to the edge
/// it struck (pass `&mut NullTelemetry` for an unobserved run).
/// Observation never changes the outcome or the report.
pub fn robust_broadcast<T: Telemetry>(
    graph: &Graph,
    cfg: CongestConfig,
    root: NodeId,
    chaos: &ChaosConfig,
    give_up: usize,
    telemetry: &mut T,
) -> Result<RobustBroadcastOutcome, SimError> {
    assert!(cfg.bandwidth_bits >= 2, "robust flood needs B >= 2");
    let sim = Simulator::new(graph, cfg);
    let (nodes, report) = sim.try_run_observed(
        |info| RobustFlood {
            informed: info.id == root,
            settled: vec![false; info.degree()],
            owe_ack: vec![false; info.degree()],
            round: 0,
            give_up,
        },
        chaos,
        telemetry,
    )?;
    Ok(RobustBroadcastOutcome {
        informed: nodes.into_iter().map(|s| s.informed).collect(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_congest::NullTelemetry;
    use qdc_graph::{algorithms, Graph};

    fn cfg() -> CongestConfig {
        CongestConfig::classical(32)
    }

    fn broadcast(
        g: &Graph,
        chaos: &ChaosConfig,
        give_up: usize,
    ) -> Result<RobustBroadcastOutcome, SimError> {
        robust_broadcast(g, cfg(), NodeId(0), chaos, give_up, &mut NullTelemetry)
    }

    #[test]
    fn leader_is_max_id() {
        let g = qdc_graph::generate::random_connected(40, 20, 5);
        let mut ledger = Ledger::new();
        let leader = elect_leader(&g, cfg(), &mut ledger);
        assert_eq!(leader, NodeId(39));
        assert!(ledger.rounds >= 1);
    }

    #[test]
    fn leader_flood_rounds_scale_with_diameter() {
        let path = Graph::path(50);
        let mut ledger = Ledger::new();
        let leader = elect_leader(&path, cfg(), &mut ledger);
        assert_eq!(leader, NodeId(49));
        // Information must travel the whole path (id 49 sits at one end).
        assert!(ledger.rounds >= 49, "rounds {}", ledger.rounds);
        assert!(ledger.rounds <= 60, "rounds {}", ledger.rounds);
    }

    #[test]
    fn bfs_tree_matches_reference_depths() {
        let g = qdc_graph::generate::random_connected(30, 25, 9);
        let mut ledger = Ledger::new();
        let tree = build_bfs_tree(&g, cfg(), NodeId(3), &mut ledger);
        let reference = algorithms::bfs_distances(&g, &g.full_subgraph(), NodeId(3));
        assert_eq!(tree.depth, reference);
        assert_eq!(tree.root, NodeId(3));
        // Parent ports really decrease depth by one.
        for v in g.nodes() {
            if v == NodeId(3) {
                assert!(tree.parent_port[v.index()].is_none());
                continue;
            }
            let p = tree.parent_port[v.index()].expect("connected");
            let parent = Simulator::new(&g, cfg()).info(v).neighbors[p];
            assert_eq!(tree.depth[parent.index()] + 1, tree.depth[v.index()]);
        }
    }

    #[test]
    fn bfs_children_are_inverse_of_parents() {
        let g = Graph::complete(8);
        let mut ledger = Ledger::new();
        let tree = build_bfs_tree(&g, cfg(), NodeId(0), &mut ledger);
        let total_children: usize = tree.children_ports.iter().map(Vec::len).sum();
        assert_eq!(total_children, 7); // every non-root is someone's child
        assert_eq!(tree.height, 1);
    }

    #[test]
    fn bfs_on_disconnected_graph_covers_component_only() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut ledger = Ledger::new();
        let tree = build_bfs_tree(&g, cfg(), NodeId(0), &mut ledger);
        assert!(tree.in_tree(NodeId(1)));
        assert!(!tree.in_tree(NodeId(2)));
        assert_eq!(tree.depth[2], u64::MAX);
    }

    // -----------------------------------------------------------------
    // Chaos-hardened broadcast
    // -----------------------------------------------------------------

    fn chaos(seed: u64, drop: f64, give_up: usize) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_prob: drop,
            crash_schedule: Vec::new(),
            corrupt_prob: 0.0,
            max_rounds_watchdog: give_up + 5,
        }
    }

    #[test]
    fn chaos_robust_broadcast_fault_free_informs_everyone_quickly() {
        let g = qdc_graph::generate::random_connected(30, 20, 4);
        let out = broadcast(&g, &chaos(0, 0.0, 200), 200).expect("fault-free run completes");
        assert!(out.informed.iter().all(|&i| i));
        assert_eq!(out.report.messages_dropped, 0);
        assert!(out.report.completed);
    }

    #[test]
    fn chaos_robust_broadcast_observed_matches_plain_and_accounts_faults() {
        let g = qdc_graph::generate::random_connected(15, 10, 8);
        let give_up = chaos_round_budget(15, 0.2);
        let cc = chaos(21, 0.2, give_up);
        let plain = broadcast(&g, &cc, give_up).expect("completes");
        let mut prof = qdc_congest::RoundProfiler::new(g.node_count(), g.edge_count(), 32);
        let observed =
            robust_broadcast(&g, cfg(), NodeId(0), &cc, give_up, &mut prof).expect("completes");
        assert_eq!(plain.informed, observed.informed);
        assert_eq!(plain.report, observed.report);
        let totals = prof.finish().totals();
        assert_eq!(totals.messages, observed.report.messages_sent);
        assert_eq!(totals.bits, observed.report.bits_sent);
        assert_eq!(totals.dropped, observed.report.messages_dropped);
    }

    #[test]
    fn chaos_robust_broadcast_survives_heavy_drops() {
        // At 30% loss a fire-once flood reliably strands nodes; the
        // retry discipline must not.
        let g = Graph::path(12);
        let give_up = chaos_round_budget(12, 0.3);
        for seed in 0..5 {
            let out = broadcast(&g, &chaos(seed, 0.3, give_up), give_up)
                .expect("run completes within the chaos budget");
            assert!(
                out.informed.iter().all(|&i| i),
                "seed {seed}: a node was stranded"
            );
            assert!(out.report.messages_dropped > 0, "seed {seed}: no drops");
        }
    }

    #[test]
    fn chaos_robust_broadcast_covers_residual_graph_around_crash() {
        // A leaf hangs off node 0 and crashes early; the rest of the
        // (connected) residual graph must still be fully informed, and
        // the run must wind down despite the never-acking dead leaf.
        let mut edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        edges.extend([(0, 5), (2, 7), (3, 9)]);
        edges.push((0, 10)); // the doomed leaf
        let g = Graph::from_edges(11, &edges);
        let give_up = chaos_round_budget(11, 0.2);
        let mut cc = chaos(3, 0.2, give_up);
        cc.crash_schedule = vec![(NodeId(10), 2)];
        let out = broadcast(&g, &cc, give_up).expect("winds down after give_up");
        assert_eq!(out.report.nodes_crashed, 1);
        for v in 0..10 {
            assert!(out.informed[v], "live node {v} was stranded");
        }
    }

    #[test]
    fn chaos_robust_broadcast_tolerates_corruption_as_loss() {
        // Corrupted tokens/acks decode to invalid words and are ignored;
        // the Hamming-distance-2 encoding means a single bit flip can
        // never forge the other message kind. Corruption therefore only
        // slows the flood down, like drops.
        let g = Graph::cycle(10);
        let give_up = chaos_round_budget(10, 0.2);
        let mut cc = chaos(11, 0.1, give_up);
        cc.corrupt_prob = 0.2;
        let out = broadcast(&g, &cc, give_up).expect("completes");
        assert!(out.informed.iter().all(|&i| i));
        assert!(out.report.bits_corrupted > 0);
    }

    #[test]
    fn chaos_round_budget_scales_with_drop_rate() {
        assert_eq!(chaos_round_budget(10, 0.0), stage_cap(10) + 50);
        assert!(chaos_round_budget(10, 0.5) > chaos_round_budget(10, 0.1));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn chaos_round_budget_rejects_certain_loss() {
        chaos_round_budget(10, 1.0);
    }
}
