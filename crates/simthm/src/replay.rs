//! The three-party simulation, actually executed.
//!
//! [`audit_trace`](crate::simulate::audit_trace) *prices* a run;
//! [`three_party_replay`] *performs* it: Carol, David and the server each
//! hold only the node states they own under the `S^t` schedule, exchange
//! exactly the messages the proof of Theorem 3.5 entitles them to
//! (internal messages free within a party, server messages free, the
//! rest paid and metered), and step their nodes locally. At the end the
//! replayed node states must coincide with a direct run of the same
//! algorithm — demonstrating, not just asserting, that the three parties
//! can reproduce any distributed computation on `N` at Server-model cost
//! `O(B log L)` per round.

use crate::network::{Party, SimulationNetwork};
use crate::simulate::payer;
use qdc_congest::{
    ChaosConfig, CongestConfig, FaultPlan, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox,
    Simulator,
};
use std::collections::HashMap;

/// Outcome of a three-party replay.
#[derive(Debug)]
pub struct ReplayOutcome<A> {
    /// Final node states, reassembled from the three parties.
    pub nodes: Vec<A>,
    /// Rounds replayed.
    pub rounds: usize,
    /// Bits Carol paid (messages her nodes sent to non-Carol receivers,
    /// plus state handoffs she had to request are free — the server sends
    /// them).
    pub carol_paid_bits: u64,
    /// Bits David paid.
    pub david_paid_bits: u64,
    /// Messages lost to fault injection (zero for the fault-free entry
    /// point [`three_party_replay`]).
    pub messages_dropped: u64,
}

/// Replays `init`'s algorithm on the simulation network for `rounds`
/// rounds (≤ the horizon) with the ownership schedule, then returns the
/// reassembled states and the paid-bit meters.
///
/// The replay is lockstep with explicit party boundaries:
///
/// 1. every party steps the nodes it owns at time `t`, producing
///    outgoing messages;
/// 2. each message `(u → v)` is routed: if the sender's owner at `t`
///    differs from the receiver's owner at `t + 1`, the sender's party
///    pays its bits (server pays nothing);
/// 3. ownership expansion: node states crossing from the server to
///    Carol/David move for free; the horizon guarantees Carol's and
///    David's regions never exchange state directly.
///
/// # Panics
///
/// Panics if `rounds` exceeds the horizon (the schedule would overlap).
pub fn three_party_replay<A, F>(
    net: &SimulationNetwork,
    cfg: CongestConfig,
    init: F,
    rounds: usize,
) -> ReplayOutcome<A>
where
    A: NodeAlgorithm,
    F: FnMut(&NodeInfo) -> A,
{
    three_party_replay_chaos(net, cfg, init, rounds, &ChaosConfig::fault_free(rounds + 1))
}

/// [`three_party_replay`] under fault injection: the same lockstep
/// protocol, with every in-flight message passed through a
/// [`FaultPlan`] built from `chaos` before routing.
///
/// The replay honours the plan's determinism contract — one
/// `begin_round` per synchronous round, then one `filter` per message
/// in the simulator's delivery order (ascending sender id, then port) —
/// so under the same config it observes **exactly** the drops,
/// corruptions and crashes that [`Stepper::with_chaos`]
/// (qdc_congest::Stepper::with_chaos) produces on the same network,
/// and the replayed states still coincide with the direct run's. Paid
/// bits are metered only for messages that survive the plan (a dropped
/// message never crosses a party boundary); nodes that crash-stop are
/// no longer stepped by their owner.
///
/// # Panics
///
/// Panics if `rounds` exceeds the horizon, if `chaos` fails
/// [`validate`](ChaosConfig::validate), or if its crash schedule names
/// a node outside the network.
pub fn three_party_replay_chaos<A, F>(
    net: &SimulationNetwork,
    cfg: CongestConfig,
    mut init: F,
    rounds: usize,
    chaos: &ChaosConfig,
) -> ReplayOutcome<A>
where
    A: NodeAlgorithm,
    F: FnMut(&NodeInfo) -> A,
{
    assert!(
        rounds <= net.horizon(),
        "replay limited to the horizon L/2 − 2 = {}",
        net.horizon()
    );
    chaos.validate().expect("invalid chaos config");
    let graph = net.graph();
    let n = graph.node_count();
    let mut plan = FaultPlan::new(chaos, n);
    let sim = Simulator::new(graph, cfg);
    let infos: Vec<NodeInfo> = graph.nodes().map(|v| sim.info(v).clone()).collect();

    // Party-partitioned node states. Conceptually three address spaces;
    // the type system of this test harness keeps them in one map keyed by
    // (party, node) to avoid triple boilerplate, but every access below
    // goes through the owner schedule — a node is only ever touched by
    // its owner of the moment.
    let mut states: HashMap<(Party, u32), A> = HashMap::new();
    for v in graph.nodes() {
        states.insert((net.owner(v, 0), v.0), init(&infos[v.index()]));
    }

    // Round 0: owners run on_start for their nodes.
    let mut outgoing: Vec<Vec<Option<Message>>> = vec![Vec::new(); n];
    for v in graph.nodes() {
        let owner = net.owner(v, 0);
        let node = states.get_mut(&(owner, v.0)).expect("owned");
        let mut out = Outbox::detached(infos[v.index()].degree(), cfg.bandwidth_bits);
        node.on_start(&infos[v.index()], &mut out);
        outgoing[v.index()] = out.into_slots();
    }

    let mut carol_paid = 0u64;
    let mut david_paid = 0u64;
    // Reusable inbox buffers, cleared in place each round — the same
    // discipline as the simulator's round engine.
    let mut inboxes: Vec<Inbox> = infos
        .iter()
        .map(|i| Inbox::from_slots(vec![None; i.degree()]))
        .collect();
    for t in 0..rounds {
        // Replay round t delivers what was queued at t − 1 (or on_start
        // for t = 0) — the same work the engine does in round t + 1, so
        // the plan's round counter advances here, activating any crashes
        // scheduled for this round before their in-flight traffic lands.
        plan.begin_round();
        // Ownership expansion t → t+1: the server hands newly-acquired
        // node states to Carol/David for free.
        for v in graph.nodes() {
            let before = net.owner(v, t);
            let after = net.owner(v, t + 1);
            if before != after {
                assert_eq!(before, Party::Server, "only the server cedes nodes");
                let state = states.remove(&(before, v.0)).expect("server owned it");
                states.insert((after, v.0), state);
            }
        }

        // Deliver messages, metering cross-party traffic. Routing uses
        // the simulator's precomputed back-port table.
        for inbox in &mut inboxes {
            inbox.clear();
        }
        for u in graph.nodes() {
            for p in 0..outgoing[u.index()].len() {
                let Some(mut msg) = outgoing[u.index()][p].take() else {
                    continue;
                };
                let v = infos[u.index()].neighbors[p];
                if !plan.filter(u, v, &mut msg) {
                    continue;
                }
                let back = sim.back_port(u, p);
                // Paid bits meter the message as delivered (a corrupted
                // payload may have been truncated in flight).
                match payer(net, u, v, t) {
                    Some(Party::Carol) => carol_paid += msg.bit_len() as u64,
                    Some(Party::David) => david_paid += msg.bit_len() as u64,
                    _ => {}
                }
                inboxes[v.index()].put(back, msg);
            }
        }
        // Each party steps its nodes with the messages routed to them.
        // Crash-stopped nodes keep their last state and send nothing,
        // exactly as in the engine's compute phase.
        for v in graph.nodes() {
            if plan.is_crashed(v) {
                continue;
            }
            let owner = net.owner(v, t + 1);
            let node = states
                .get_mut(&(owner, v.0))
                .expect("owned after expansion");
            let slots = std::mem::take(&mut outgoing[v.index()]);
            let mut out = Outbox::detached_reusing(slots, cfg.bandwidth_bits);
            node.on_round(&infos[v.index()], &inboxes[v.index()], &mut out);
            outgoing[v.index()] = out.into_slots();
        }
    }

    // Reassemble final states in node order.
    let mut nodes: Vec<Option<A>> = (0..n).map(|_| None).collect();
    for ((_, id), state) in states {
        nodes[id as usize] = Some(state);
    }
    ReplayOutcome {
        nodes: nodes
            .into_iter()
            .map(|s| s.expect("every node owned"))
            .collect(),
        rounds,
        carol_paid_bits: carol_paid,
        david_paid_bits: david_paid,
        messages_dropped: plan.stats().messages_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::ComponentFlood;

    #[test]
    fn replay_matches_direct_run_exactly() {
        let net = SimulationNetwork::build(12, 17);
        let m = net.hamiltonian_m();
        let cfg = CongestConfig::quantum(32);
        let width = 16;
        let horizon = net.horizon();

        let make = |info: &NodeInfo| ComponentFlood::along(info, &m, width);

        // Direct run, capped at the horizon.
        let sim = Simulator::new(net.graph(), cfg);
        let (direct, _) = sim.run(make, horizon);

        // Three-party replay for the same number of rounds.
        let replay = three_party_replay(&net, cfg, make, horizon);
        assert_eq!(replay.rounds, horizon);
        for v in net.graph().nodes() {
            assert_eq!(
                direct[v.index()].label(),
                replay.nodes[v.index()].label(),
                "node {v} diverged between direct run and three-party replay"
            );
        }
        // And the metered cost respects the Theorem 3.5 budget.
        let budget = 6 * net.highway_count() as u64 * 32 * horizon as u64;
        assert!(
            replay.carol_paid_bits + replay.david_paid_bits <= budget,
            "paid {} vs budget {budget}",
            replay.carol_paid_bits + replay.david_paid_bits
        );
        assert!(
            replay.carol_paid_bits > 0,
            "Carol pays something on this workload"
        );
    }

    #[test]
    fn chaos_replay_stays_in_lockstep_with_the_stepper() {
        use qdc_congest::Stepper;
        use qdc_graph::NodeId;

        let net = SimulationNetwork::build(12, 17);
        let m = net.hamiltonian_m();
        let cfg = CongestConfig::quantum(32);
        let width = 16;
        let rounds = net.horizon();

        let make = |info: &NodeInfo| ComponentFlood::along(info, &m, width);
        let chaos = ChaosConfig {
            seed: 99,
            drop_prob: 0.2,
            crash_schedule: vec![(NodeId(4), 3)],
            corrupt_prob: 0.1,
            max_rounds_watchdog: rounds + 1,
        };

        // Direct run via the stepper, one engine round per replay round.
        let mut stepper = Stepper::with_chaos(net.graph(), cfg, &chaos, make);
        let mut direct_dropped = 0u64;
        for _ in 0..rounds {
            direct_dropped += stepper.step().dropped;
        }

        let replay = three_party_replay_chaos(&net, cfg, make, rounds, &chaos);
        assert!(replay.messages_dropped > 0, "faults must actually fire");
        assert_eq!(
            replay.messages_dropped, direct_dropped,
            "fault decisions diverged between replay and stepper"
        );
        for v in net.graph().nodes() {
            assert_eq!(
                stepper.nodes()[v.index()].label(),
                replay.nodes[v.index()].label(),
                "node {v} diverged under fault injection"
            );
        }
    }

    #[test]
    fn fault_free_wrapper_reports_zero_drops() {
        let net = SimulationNetwork::build(3, 9);
        let cfg = CongestConfig::classical(8);
        let everywhere = net.graph().full_subgraph();
        let out = three_party_replay(
            &net,
            cfg,
            |info| ComponentFlood::along(info, &everywhere, 8),
            net.horizon(),
        );
        assert_eq!(out.messages_dropped, 0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn replay_beyond_horizon_rejected() {
        let net = SimulationNetwork::build(3, 9);
        let cfg = CongestConfig::classical(8);
        let nowhere = net.graph().empty_subgraph();
        three_party_replay(
            &net,
            cfg,
            |info| ComponentFlood::along(info, &nowhere, 8),
            net.horizon() + 1,
        );
    }
}
