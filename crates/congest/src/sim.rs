//! The lockstep CONGEST simulator.

use crate::bits::BitString;
use crate::chaos::{ChaosConfig, FaultAction, FaultPlan};
use crate::message::Message;
use crate::telemetry::{NullTelemetry, Telemetry};
use qdc_graph::{EdgeId, Graph, NodeId};

/// A structured CONGEST-discipline violation.
///
/// The panicking APIs ([`Outbox::send`], [`Simulator::run`]) report these
/// conditions by panicking with the same message the corresponding
/// variant displays; the fallible APIs ([`Outbox::try_send`],
/// [`Simulator::try_run`]) return them instead and never panic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimError {
    /// A message exceeded the per-edge per-round `B`-bit budget.
    BudgetExceeded {
        /// Size of the offending message.
        bits: usize,
        /// The configured budget `B`.
        budget: usize,
    },
    /// A second message was queued on the same port in one round.
    DoublePortSend {
        /// The contested port.
        port: usize,
    },
    /// A port index at or beyond the node's degree.
    PortOutOfRange {
        /// The offending port.
        port: usize,
        /// The node's port count (its degree).
        ports: usize,
    },
    /// A [`try_run`](Simulator::try_run) passed its
    /// [`max_rounds_watchdog`](ChaosConfig::max_rounds_watchdog) cap
    /// without reaching quiescence.
    WatchdogTripped {
        /// Rounds executed when the watchdog fired.
        rounds: usize,
    },
    /// A [`ChaosConfig`] probability outside `[0, 1]`.
    InvalidChaosConfig {
        /// The offending probability.
        prob: f64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::BudgetExceeded { bits, budget } => {
                write!(
                    f,
                    "message of {bits} bits exceeds the B = {budget} bit budget"
                )
            }
            SimError::DoublePortSend { port } => write!(
                f,
                "port {port} already has a message this round (one message per edge per round)"
            ),
            SimError::PortOutOfRange { port, ports } => {
                write!(f, "port {port} out of range (node has {ports} ports)")
            }
            SimError::WatchdogTripped { rounds } => {
                write!(f, "watchdog tripped: no quiescence after {rounds} rounds")
            }
            SimError::InvalidChaosConfig { prob } => {
                write!(f, "chaos probability {prob} outside [0, 1]")
            }
        }
    }
}

impl SimError {
    /// A stable machine-readable name for the variant, as stamped into
    /// `qdc-campaign-failure/v1` records (`kind` field). Names are part
    /// of that schema's contract; changing one is a schema change.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::BudgetExceeded { .. } => "budget_exceeded",
            SimError::DoublePortSend { .. } => "double_port_send",
            SimError::PortOutOfRange { .. } => "port_out_of_range",
            SimError::WatchdogTripped { .. } => "watchdog_tripped",
            SimError::InvalidChaosConfig { .. } => "invalid_chaos_config",
        }
    }

    /// The retry taxonomy for supervised runners: whether re-executing
    /// the same workload could plausibly succeed.
    ///
    /// [`WatchdogTripped`](SimError::WatchdogTripped) is a resource cap,
    /// the moral equivalent of a deadline: a supervisor may retry it
    /// (perhaps under a different budget) without risking masking a
    /// protocol bug. Every other variant is a deterministic protocol or
    /// configuration violation — the same inputs will fail the same way
    /// every time, so retrying only wastes attempts and a supervisor
    /// should record it as permanent.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SimError::WatchdogTripped { .. })
    }

    /// Classifies a panic message produced by one of the panicking
    /// simulator APIs (which emit exactly the [`Display`] text of the
    /// corresponding variant) back into the `(kind, retryable)` pair of
    /// that variant. Returns `None` for messages no simulator API emits,
    /// so supervisors can distinguish a structural simulator error from
    /// an arbitrary panic.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn classify_message(msg: &str) -> Option<(&'static str, bool)> {
        let probes: [(&str, SimError); 5] = [
            (
                "exceeds the B = ",
                SimError::BudgetExceeded { bits: 0, budget: 0 },
            ),
            (
                "already has a message this round",
                SimError::DoublePortSend { port: 0 },
            ),
            (
                "out of range (node has",
                SimError::PortOutOfRange { port: 0, ports: 0 },
            ),
            ("watchdog tripped", SimError::WatchdogTripped { rounds: 0 }),
            (
                "chaos probability",
                SimError::InvalidChaosConfig { prob: 0.0 },
            ),
        ];
        probes
            .iter()
            .find(|(fragment, _)| msg.contains(fragment))
            .map(|(_, e)| (e.kind(), e.is_retryable()))
    }
}

impl std::error::Error for SimError {}

/// Whether a link carries classical bits or qubits.
///
/// The simulator's mechanics are identical either way — what differs is
/// the *unit of account* in the [`RunReport`] (bits vs qubits) and which
/// lower bound applies. The paper's point is precisely that for the
/// problems it studies the counts cannot differ much.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Classical B-bit channels (the classical CONGEST model).
    Classical,
    /// Quantum B-qubit channels with unlimited prior entanglement (the
    /// paper's strongest model).
    Quantum,
}

/// Simulator configuration: the bandwidth parameter `B` and channel kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CongestConfig {
    /// Per-edge per-round budget in bits (or qubits), the `B` of
    /// CONGEST(B).
    pub bandwidth_bits: usize,
    /// Channel kind (accounting label).
    pub channel: ChannelKind,
    /// EPR/teleportation accounting (Appendix B): when set on a
    /// [`Quantum`](ChannelKind::Quantum) channel, every qubit sent is
    /// charged as the **2 classical bits** its teleportation consumes,
    /// so a `q`-qubit message needs `2q ≤ B` of the budget. Off by
    /// default — the plain quantum model budgets qubits directly, and
    /// is mechanically identical to the classical engine.
    pub teleport: bool,
}

impl CongestConfig {
    /// Classical CONGEST(B).
    pub fn classical(bandwidth_bits: usize) -> Self {
        CongestConfig {
            bandwidth_bits,
            channel: ChannelKind::Classical,
            teleport: false,
        }
    }

    /// Quantum CONGEST(B) with prior entanglement: `B` qubits per edge
    /// per round, budgeted one-for-one.
    pub fn quantum(bandwidth_bits: usize) -> Self {
        CongestConfig {
            bandwidth_bits,
            channel: ChannelKind::Quantum,
            teleport: false,
        }
    }

    /// Quantum CONGEST(B) under teleportation accounting: the channel
    /// carries qubits, but each one is charged as the 2 classical bits
    /// of its teleportation (Appendix B), against the same `B`-bit
    /// budget.
    pub fn quantum_teleport(bandwidth_bits: usize) -> Self {
        CongestConfig {
            bandwidth_bits,
            channel: ChannelKind::Quantum,
            teleport: true,
        }
    }

    /// Budget units charged per payload bit/qubit: 2 under quantum
    /// teleportation accounting, 1 everywhere else.
    pub fn charge_factor(&self) -> usize {
        if self.channel == ChannelKind::Quantum && self.teleport {
            2
        } else {
            1
        }
    }
}

/// An empty value that nothing reads, kept only because the benchmark
/// package (`perf/`) names this type and passes `RunOptions::default()`
/// to `qdc_harness::point::execute_point_sharded`. It goes once the
/// benchmark stops naming it.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {}

/// What a node knows about itself and its surroundings — exactly the
/// paper's "limited topological knowledge": its own id, `n`, and the ids
/// of its neighbors (Section 2.1).
#[derive(Clone, Debug)]
pub struct NodeInfo {
    /// This node's id.
    pub id: NodeId,
    /// Total number of nodes in the network (standard CONGEST assumption).
    pub node_count: usize,
    /// Neighbor id per port; port `p` is this node's `p`-th incident edge.
    pub neighbors: Vec<NodeId>,
    /// Host edge id per port (used to look up subgraph indicators and
    /// weights in problem inputs; not information the node "computes").
    pub incident_edges: Vec<EdgeId>,
}

impl NodeInfo {
    /// Number of ports (the node's degree).
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// The port leading to neighbor `v`, if adjacent.
    pub fn port_to(&self, v: NodeId) -> Option<usize> {
        self.neighbors.iter().position(|&u| u == v)
    }
}

/// Messages received by one node in the current round, indexed by port.
#[derive(Clone, Debug)]
pub struct Inbox {
    msgs: Vec<Option<Message>>,
}

impl Inbox {
    /// The message received on `port` this round, if any.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree` (an out-of-range port is a programming
    /// error, not an empty slot).
    pub fn get(&self, port: usize) -> Option<&Message> {
        self.msgs[port].as_ref()
    }

    /// Iterates over `(port, message)` pairs received this round.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Message)> {
        self.msgs
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.as_ref().map(|m| (p, m)))
    }

    /// Whether nothing was received this round.
    pub fn is_empty(&self) -> bool {
        self.msgs.iter().all(Option::is_none)
    }

    /// Number of messages received this round.
    pub fn len(&self) -> usize {
        self.msgs.iter().filter(|m| m.is_some()).count()
    }

    /// Builds an inbox from raw per-port slots — for harnesses that drive
    /// a [`NodeAlgorithm`] outside the simulator (e.g. the three-party
    /// replay in `qdc-simthm`).
    pub fn from_slots(slots: Vec<Option<Message>>) -> Self {
        Inbox { msgs: slots }
    }

    /// Recovers the raw per-port slots, so harness loops can reuse one
    /// allocation round after round instead of rebuilding inboxes.
    pub fn into_slots(self) -> Vec<Option<Message>> {
        self.msgs
    }

    /// Empties every slot in place, keeping the allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.msgs {
            *slot = None;
        }
    }

    /// Places `msg` in `port`'s slot — for harnesses that route messages
    /// themselves into a reused inbox. A message already in the slot is
    /// silently replaced (harnesses enforce the one-message-per-edge
    /// discipline on the sending side).
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree`.
    pub fn put(&mut self, port: usize, msg: Message) {
        self.msgs[port] = Some(msg);
    }
}

/// Staging area for a node's outgoing messages this round.
///
/// Enforces the CONGEST discipline: at most one message per incident edge
/// per round, each at most `B` bits.
#[derive(Debug)]
pub struct Outbox {
    budget_bits: usize,
    /// Budget units charged per payload bit —
    /// [`CongestConfig::charge_factor`]: 2 under quantum teleportation
    /// accounting, 1 otherwise.
    charge: usize,
    msgs: Vec<Option<Message>>,
    queued: usize,
    /// In strict mode (the default), a discipline violation via
    /// [`send`](Outbox::send) panics. In lenient mode — used by
    /// [`Simulator::try_run`] — the first violation is recorded in
    /// `defect`, the offending message is discarded, and the round
    /// engine surfaces the error at the end of the round.
    strict: bool,
    defect: Option<SimError>,
}

impl Outbox {
    /// Wraps an emptied slot vector, one slot per port, so the round
    /// loop reuses one allocation per node instead of building a fresh
    /// `Vec` every round.
    fn from_slots(
        msgs: Vec<Option<Message>>,
        budget_bits: usize,
        charge: usize,
        strict: bool,
    ) -> Self {
        debug_assert!(
            msgs.iter().all(Option::is_none),
            "an outbox must start empty"
        );
        Outbox {
            budget_bits,
            charge,
            msgs,
            queued: 0,
            strict,
            defect: None,
        }
    }

    /// Queues `msg` on `port`, returning the violated rule instead of
    /// panicking: [`SimError::BudgetExceeded`] for an oversized message,
    /// [`SimError::PortOutOfRange`] for a bad port, and
    /// [`SimError::DoublePortSend`] for a second message on one port. On
    /// `Err` nothing is queued.
    #[must_use = "an ignored Err means the message was silently never queued"]
    pub fn try_send(&mut self, port: usize, msg: Message) -> Result<(), SimError> {
        // Charged size: payload bits times the accounting factor (2 per
        // qubit under teleportation, else 1). The reported `bits` is the
        // charged amount, so the error names what actually overflowed.
        if msg.bit_len() * self.charge > self.budget_bits {
            return Err(SimError::BudgetExceeded {
                bits: msg.bit_len() * self.charge,
                budget: self.budget_bits,
            });
        }
        let ports = self.msgs.len();
        let Some(slot) = self.msgs.get_mut(port) else {
            return Err(SimError::PortOutOfRange { port, ports });
        };
        if slot.is_some() {
            return Err(SimError::DoublePortSend { port });
        }
        *slot = Some(msg);
        self.queued += 1;
        Ok(())
    }

    /// Queues `msg` on `port` — the panicking wrapper over
    /// [`try_send`](Outbox::try_send).
    ///
    /// # Panics
    ///
    /// Panics if the message exceeds the `B`-bit budget, the port already
    /// has a message this round, or the port is out of range — except
    /// inside [`Simulator::try_run`], where the violation is recorded and
    /// returned as that run's [`SimError`] instead.
    pub fn send(&mut self, port: usize, msg: Message) {
        if let Err(e) = self.try_send(port, msg) {
            if self.strict {
                panic!("{e}");
            } else if self.defect.is_none() {
                self.defect = Some(e);
            }
        }
    }

    /// Sends a copy of `msg` on every port (moving, not cloning, the
    /// original into the last port — one clone fewer per broadcast on
    /// the round engine's hot path).
    pub fn broadcast(&mut self, msg: Message) {
        let ports = self.msgs.len();
        for port in 0..ports.saturating_sub(1) {
            self.send(port, msg.clone());
        }
        if ports > 0 {
            self.send(ports - 1, msg);
        }
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.msgs.len()
    }

    /// A detached outbox for harnesses that drive a [`NodeAlgorithm`]
    /// outside the simulator. The same budget discipline applies
    /// (violations via [`send`](Outbox::send) panic; use
    /// [`try_send`](Outbox::try_send) to handle them).
    pub fn detached(ports: usize, budget_bits: usize) -> Self {
        Outbox::from_slots(vec![None; ports], budget_bits, 1, true)
    }

    /// A detached outbox reusing an already-emptied slot vector (as
    /// returned by [`into_slots`](Outbox::into_slots) after the messages
    /// were taken), so harness loops keep one allocation per node.
    ///
    /// # Panics
    ///
    /// Debug-panics if any slot is still occupied.
    pub fn detached_reusing(slots: Vec<Option<Message>>, budget_bits: usize) -> Self {
        Outbox::from_slots(slots, budget_bits, 1, true)
    }

    /// Extracts the queued messages from a detached outbox.
    pub fn into_slots(self) -> Vec<Option<Message>> {
        self.msgs
    }
}

/// A distributed algorithm, from one node's point of view.
///
/// The simulator calls [`on_start`](NodeAlgorithm::on_start) once before
/// any communication, then [`on_round`](NodeAlgorithm::on_round) once per
/// round with that round's inbox. The run ends at **quiescence**: every
/// node reports [`is_terminated`](NodeAlgorithm::is_terminated) and no
/// messages are in flight. This supports event-driven algorithms that are
/// "always terminated" but keep forwarding improvements — the run ends
/// exactly when the information flow dies down (the standard implicit-
/// termination convention in synchronous models).
pub trait NodeAlgorithm {
    /// Round-0 initialization; may send messages.
    fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox);

    /// One synchronous round: consume this round's inbox, update state,
    /// queue next round's messages.
    fn on_round(&mut self, info: &NodeInfo, inbox: &Inbox, out: &mut Outbox);

    /// Whether this node is done. Must be monotone (once `true`, stays
    /// `true`).
    fn is_terminated(&self) -> bool;
}

/// Round and traffic accounting for one simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Number of communication rounds executed.
    pub rounds: usize,
    /// Whether every node terminated within the round limit.
    pub completed: bool,
    /// Total messages delivered.
    pub messages_sent: u64,
    /// Total payload bits (or qubits) delivered.
    pub bits_sent: u64,
    /// Maximum total payload bits delivered in any single round.
    pub max_bits_per_round: u64,
    /// Messages removed in flight by the fault layer (random drops plus
    /// messages lost to crashed endpoints). Zero on fault-free runs.
    pub messages_dropped: u64,
    /// Nodes crash-stopped by the fault layer. Zero on fault-free runs.
    pub nodes_crashed: u64,
    /// Payload bits flipped or truncated away by the fault layer. Zero
    /// on fault-free runs.
    pub bits_corrupted: u64,
}

/// One delivered message in a [`TrafficTrace`]: a 12-byte record of two
/// `u32` node ids and a `u32` bit count. A trace holds one per delivery
/// (441 284 in a Γ = 35, L = 129 Theorem 3.5 point), so a `usize` count
/// padding the record to 16 bytes would cost a quarter of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracedMessage {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload size in bits.
    pub bits: u32,
}

/// Per-round record of every delivered message: a [`Telemetry`] sink
/// that keeps the `from`/`to`/`bits` of each
/// [`on_delivery`](Telemetry::on_delivery) and counts each
/// [`on_chaos_drop`](Telemetry::on_chaos_drop). Drive it with any
/// observed entry point ([`Simulator::run_observed`],
/// [`Simulator::try_run_observed`], [`Stepper::step_observed`]), alone or
/// paired with other sinks. Entry `r` of [`rounds`](TrafficTrace::rounds)
/// holds the messages delivered at the start of round `r + 1` of the
/// unified round loop (sent during round `r`, with round 0 being
/// `on_start`) — the same delivery schedule [`Stepper::step`] walks one
/// round at a time.
///
/// Each delivery is one 12-byte [`TracedMessage`]. Recording a payload
/// of more than `u32::MAX` bits panics rather than wrapping the count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficTrace {
    /// `rounds[r]` lists the messages delivered in round `r + 1`.
    pub rounds: Vec<Vec<TracedMessage>>,
    /// `dropped[r]` counts the messages the fault layer removed in round
    /// `r + 1` (all zeros on fault-free runs). Same indexing as
    /// [`rounds`](TrafficTrace::rounds), so trace consumers can line up
    /// delivered and lost traffic per round.
    pub dropped: Vec<u64>,
}

impl Telemetry for TrafficTrace {
    fn on_round_start(&mut self, _round: usize) {
        self.rounds.push(Vec::new());
        self.dropped.push(0);
    }

    fn on_delivery(&mut self, _round: usize, _edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        let bits = u32::try_from(bits).expect("a traced message carries at most u32::MAX bits");
        let round = self.rounds.last_mut().expect("span is open");
        round.push(TracedMessage { from, to, bits });
    }

    fn on_chaos_drop(&mut self, _round: usize, _edge: EdgeId, _from: NodeId, _to: NodeId) {
        *self.dropped.last_mut().expect("span is open") += 1;
    }
}

/// The lockstep CONGEST simulator over a fixed network graph.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g Graph,
    config: CongestConfig,
    infos: Vec<NodeInfo>,
    /// `back_port[u][p]` is the port on which `u`'s neighbor over port
    /// `p` sees `u` — precomputed so delivery routes each message in
    /// O(1) instead of scanning the receiver's neighbor list.
    back_port: Vec<Vec<usize>>,
    /// `slot_base[u] + p` is the directed-slot index of `u`'s port `p`
    /// in the engine's columnar offset tables (prefix sums of degrees,
    /// `Σ deg = 2·|E|` slots total).
    slot_base: Vec<usize>,
    /// `slot_dst[s]` is the receiver coordinate `(node index, inbox
    /// port)` of directed slot `s` — the back-port tables flattened
    /// into slot order, so scatter resolves a slot straight to its
    /// inbox cell without re-deriving the port inversion.
    slot_dst: Vec<(usize, usize)>,
}

impl<'g> Simulator<'g> {
    /// Prepares a simulator on `graph` with the given configuration.
    pub fn new(graph: &'g Graph, config: CongestConfig) -> Self {
        let n = graph.node_count();
        let infos: Vec<NodeInfo> = graph
            .nodes()
            .map(|u| NodeInfo {
                id: u,
                node_count: n,
                neighbors: graph.incident(u).iter().map(|&(_, v)| v).collect(),
                incident_edges: graph.incident(u).iter().map(|&(e, _)| e).collect(),
            })
            .collect();
        // Invert the port maps in O(Σ deg) via edge ids: record each
        // endpoint's port per edge, then read the opposite side.
        let mut edge_ports: Vec<[usize; 2]> = vec![[usize::MAX; 2]; graph.edge_count()];
        for info in &infos {
            for (p, &e) in info.incident_edges.iter().enumerate() {
                let (a, _) = graph.endpoints(e);
                let side = usize::from(a != info.id);
                edge_ports[e.index()][side] = p;
            }
        }
        let back_port: Vec<Vec<usize>> = infos
            .iter()
            .map(|info| {
                info.incident_edges
                    .iter()
                    .map(|&e| {
                        let (a, _) = graph.endpoints(e);
                        let other_side = usize::from(a == info.id);
                        edge_ports[e.index()][other_side]
                    })
                    .collect()
            })
            .collect();
        let mut slot_base = Vec::with_capacity(infos.len());
        let mut acc = 0usize;
        for info in &infos {
            slot_base.push(acc);
            acc += info.degree();
        }
        let mut slot_dst = Vec::with_capacity(acc);
        for (u, info) in infos.iter().enumerate() {
            for (p, &v) in info.neighbors.iter().enumerate() {
                slot_dst.push((v.index(), back_port[u][p]));
            }
        }
        Simulator {
            graph,
            config,
            infos,
            back_port,
            slot_base,
            slot_dst,
        }
    }

    /// The network graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The configuration.
    pub fn config(&self) -> CongestConfig {
        self.config
    }

    /// Per-node topology information (what node `v` is told at start).
    pub fn info(&self, v: NodeId) -> &NodeInfo {
        &self.infos[v.index()]
    }

    /// The port on which `u`'s neighbor over port `port` sees `u` — the
    /// precomputed O(1) reverse of [`NodeInfo::port_to`], for harnesses
    /// that route messages themselves.
    pub fn back_port(&self, u: NodeId, port: usize) -> usize {
        self.back_port[u.index()][port]
    }

    /// Runs the algorithm to termination or `max_rounds`, whichever comes
    /// first. `init` builds each node's initial state from its local view.
    ///
    /// Returns the final node states and the [`RunReport`].
    pub fn run<A, F>(&self, init: F, max_rounds: usize) -> (Vec<A>, RunReport)
    where
        A: NodeAlgorithm,
        F: FnMut(&NodeInfo) -> A,
    {
        self.run_observed(init, max_rounds, &mut NullTelemetry)
    }

    /// [`run`](Simulator::run) with a [`Telemetry`] sink observing every
    /// round: span open/close, one event per delivered message (edge,
    /// endpoints, exact bit count), and the quiescence outcome.
    /// Telemetry observes, never perturbs — the states and report are
    /// bit-for-bit those of the unobserved run.
    ///
    /// A [`TrafficTrace`] is a sink too: pass `&mut trace` to record
    /// every delivered message per round (the Quantum Simulation Theorem
    /// machinery audits it for party-ownership crossings), or a pair such
    /// as `&mut (&mut trace, &mut profiler)` to trace and profile one run.
    pub fn run_observed<A, F, T>(
        &self,
        init: F,
        max_rounds: usize,
        telemetry: &mut T,
    ) -> (Vec<A>, RunReport)
    where
        A: NodeAlgorithm,
        F: FnMut(&NodeInfo) -> A,
        T: Telemetry,
    {
        self.run_core(init, max_rounds, None, true, telemetry)
            .unwrap_or_else(|_| unreachable!("strict fault-free runs cannot fail"))
    }

    /// Runs the algorithm under fault injection, never panicking on
    /// adversarial behavior: discipline violations (oversized messages,
    /// double sends, out-of-range ports) and watchdog trips come back as
    /// [`SimError`]s, and the faults described by `chaos` — seeded drops,
    /// crash-stops, payload corruption — are applied at delivery time by
    /// a [`FaultPlan`] built from it. Two invocations with the same
    /// config produce byte-identical outcomes, including the fault
    /// counters in the [`RunReport`].
    ///
    /// The run ends at quiescence (`Ok`) or at
    /// [`max_rounds_watchdog`](ChaosConfig::max_rounds_watchdog) rounds
    /// ([`SimError::WatchdogTripped`]).
    #[must_use = "dropping the Result loses both the final states and the SimError diagnosis"]
    pub fn try_run<A, F>(
        &self,
        init: F,
        chaos: &ChaosConfig,
    ) -> Result<(Vec<A>, RunReport), SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(&NodeInfo) -> A,
    {
        self.try_run_observed(init, chaos, &mut NullTelemetry)
    }

    /// [`try_run`](Simulator::try_run) with a [`Telemetry`] sink
    /// observing every round, including chaos events attributed to the
    /// faulting edge (drops, in-flight corruption, crash activations).
    /// The [`FaultPlan`] is consulted in exactly the unobserved order,
    /// so the outcome is bit-for-bit that of
    /// [`try_run`](Simulator::try_run) under the same config. A
    /// [`TrafficTrace`] sink records delivered and dropped messages per
    /// round.
    #[must_use = "dropping the Result loses both the final states and the SimError diagnosis"]
    pub fn try_run_observed<A, F, T>(
        &self,
        init: F,
        chaos: &ChaosConfig,
        telemetry: &mut T,
    ) -> Result<(Vec<A>, RunReport), SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(&NodeInfo) -> A,
        T: Telemetry,
    {
        chaos.validate()?;
        let plan = FaultPlan::new(chaos, self.graph.node_count());
        self.run_core(
            init,
            chaos.max_rounds_watchdog,
            Some(plan),
            false,
            telemetry,
        )
    }

    /// The shared run loop behind the panicking and fallible entry
    /// points. `strict` selects the violation policy (panic at send time
    /// vs collect-and-return) and, with it, the round-cap policy: strict
    /// runs return `completed = false` at `max_rounds`, lenient runs
    /// treat the cap as a watchdog and fail.
    fn run_core<A, F, T>(
        &self,
        init: F,
        max_rounds: usize,
        plan: Option<FaultPlan>,
        strict: bool,
        telemetry: &mut T,
    ) -> Result<(Vec<A>, RunReport), SimError>
    where
        A: NodeAlgorithm,
        F: FnMut(&NodeInfo) -> A,
        T: Telemetry,
    {
        let mut engine = self.engine_start(init, plan, strict);
        loop {
            if let Some(defect) = engine.defect {
                return Err(defect);
            }
            if engine.is_quiescent() {
                engine.report.completed = true;
                return Ok((engine.nodes, engine.report));
            }
            if engine.report.rounds >= max_rounds {
                if strict {
                    return Ok((engine.nodes, engine.report));
                }
                return Err(SimError::WatchdogTripped {
                    rounds: engine.report.rounds,
                });
            }
            self.engine_round(&mut engine, telemetry);
        }
    }

    /// Runs every node's `on_start` and sets up the reusable round
    /// buffers — the shared entry point of [`run`](Simulator::run) and
    /// [`Stepper`].
    fn engine_start<A, F>(&self, mut init: F, plan: Option<FaultPlan>, strict: bool) -> Engine<A>
    where
        A: NodeAlgorithm,
        F: FnMut(&NodeInfo) -> A,
    {
        let mut nodes: Vec<A> = self.infos.iter().map(&mut init).collect();
        let slots = |info: &NodeInfo| vec![None; info.degree()];
        let mut outgoing: Vec<_> = self.infos.iter().map(slots).collect();
        let dead = vec![false; self.infos.len()];
        let (pending, defect) =
            self.step_nodes(&mut nodes, &mut outgoing, &dead, strict, |node, i, out| {
                node.on_start(&self.infos[i], out)
            });
        let inboxes = self
            .infos
            .iter()
            .map(|info| Inbox::from_slots(slots(info)))
            .collect();
        let total_slots = 2 * self.graph.edge_count();
        Engine {
            nodes,
            outgoing,
            inboxes,
            slab: BitString::new(),
            slot_start: vec![0; total_slots],
            slot_bits: vec![0; total_slots],
            active: Vec::new(),
            prev_active: Vec::new(),
            scratch: Vec::new(),
            dead,
            live_slots: total_slots as u64,
            pending,
            plan,
            strict,
            defect,
            report: RunReport::default(),
        }
    }

    /// Executes one synchronous round — pack, chaos-mask, scatter,
    /// account, step every node — on the engine's reusable buffers. The
    /// message plane is columnar: payloads pack into one per-round bit
    /// slab in delivery order, chaos applies as word-level edits to the
    /// slab, and delivery scatters slab ranges into recycled message
    /// shells. This is the single round implementation behind both
    /// [`Simulator::run`] and [`Stepper::step`], so batch and stepped
    /// execution cannot diverge.
    /// Every telemetry call site is gated on `T::ENABLED`, a constant:
    /// with the [`NullTelemetry`] sink the whole instrumentation
    /// monomorphizes away and this is exactly the unobserved hot path.
    fn engine_round<A: NodeAlgorithm, T: Telemetry>(
        &self,
        engine: &mut Engine<A>,
        telemetry: &mut T,
    ) -> StepSummary {
        let round = engine.report.rounds + 1;
        if T::ENABLED {
            telemetry.on_round_start(round);
        }
        // Activate any crash-stops scheduled for this round before any
        // delivery, so a crashed node's in-flight messages die with it.
        // Each fresh crash retires both directions of its still-live
        // incident edges from the live-capacity count; processing the
        // crashes one by one (against the engine's own `dead` mirror)
        // counts an edge between two same-round crashes exactly once.
        let dropped_before = if let Some(plan) = &mut engine.plan {
            plan.begin_round();
            for &v in plan.crashes_this_round() {
                if T::ENABLED {
                    telemetry.on_crash(round, v);
                }
                for &w in &self.infos[v.index()].neighbors {
                    if !engine.dead[w.index()] {
                        engine.live_slots -= 2;
                    }
                }
                engine.dead[v.index()] = true;
            }
            plan.stats().messages_dropped
        } else {
            0
        };
        // Pack: every queued payload concatenates into the per-round bit
        // slab in the fixed delivery order (ascending sender id, then
        // port), with the offset tables recording where each directed
        // slot's payload lives. Chaos applies to the packed form — a
        // drop leaves the slot off the active list, a toggle is a
        // word-level XOR into the slab, a truncation shortens the
        // recorded length (the scatter copy masks off the severed
        // tail).
        let mut messages = 0u64;
        let mut bits = 0u64;
        let Engine {
            outgoing,
            inboxes,
            plan,
            slab,
            slot_start,
            slot_bits,
            active,
            prev_active,
            scratch,
            ..
        } = engine;
        slab.clear();
        active.clear();
        for (u, ports) in outgoing.iter_mut().enumerate() {
            let info = &self.infos[u];
            let base = self.slot_base[u];
            for (p, slot) in ports.iter_mut().enumerate() {
                let Some(msg) = slot.take() else { continue };
                let v = info.neighbors[p];
                let len = msg.bit_len();
                let start = slab.len();
                slab.extend_bits(msg.payload());
                let mut kept = len;
                if let Some(plan) = plan.as_mut() {
                    // Each corrupting action yields the payload bits it cost.
                    let lost = match plan.decide(info.id, v, len) {
                        FaultAction::Deliver => None,
                        FaultAction::Drop => {
                            if T::ENABLED {
                                telemetry.on_chaos_drop(round, info.incident_edges[p], info.id, v);
                            }
                            continue;
                        }
                        FaultAction::Toggle(i) => {
                            slab.toggle(start + i);
                            Some(1)
                        }
                        FaultAction::Truncate(keep) => {
                            kept = keep;
                            Some(len - keep)
                        }
                    };
                    if T::ENABLED {
                        if let Some(lost) = lost {
                            let edge = info.incident_edges[p];
                            telemetry.on_chaos_corrupt(round, edge, info.id, v, lost as u64);
                        }
                    }
                }
                slot_start[base + p] = start;
                slot_bits[base + p] = kept;
                active.push(base + p);
                messages += 1;
                bits += kept as u64;
                if T::ENABLED {
                    telemetry.on_delivery(round, info.incident_edges[p], info.id, v, kept);
                }
            }
        }
        // Scatter: batch delivery as slab copies, by merging this
        // round's and last round's sorted active lists. A slot active
        // in both rounds carves its payload into the shell already
        // sitting in its inbox cell (steady traffic never touches the
        // pool or the allocator); a slot that went idle retires its
        // shell to the scratch pool; a slot that woke up draws a pooled
        // shell. Sparse rounds therefore cost O(delivered), not
        // O(2·|E|).
        let retire = |inboxes: &mut [Inbox], scratch: &mut Vec<Message>, s: usize| {
            let (v, q) = self.slot_dst[s];
            if let Some(stale) = inboxes[v].msgs[q].take() {
                scratch.push(stale);
            }
        };
        let mut i = 0;
        for &s in active.iter() {
            while i < prev_active.len() && prev_active[i] < s {
                retire(inboxes, scratch, prev_active[i]);
                i += 1;
            }
            if i < prev_active.len() && prev_active[i] == s {
                i += 1;
            }
            let (v, q) = self.slot_dst[s];
            let dst = &mut inboxes[v].msgs[q];
            let mut msg = dst.take().or_else(|| scratch.pop()).unwrap_or_default();
            msg.load_range(slab, slot_start[s], slot_bits[s]);
            *dst = Some(msg);
        }
        while i < prev_active.len() {
            retire(inboxes, scratch, prev_active[i]);
            i += 1;
        }
        std::mem::swap(active, prev_active);
        engine.report.messages_sent += messages;
        engine.report.bits_sent += bits;
        engine.report.max_bits_per_round = engine.report.max_bits_per_round.max(bits);
        engine.report.rounds += 1;
        let mut dropped = 0;
        if let Some(plan) = &engine.plan {
            let stats = plan.stats();
            engine.report.messages_dropped = stats.messages_dropped;
            engine.report.nodes_crashed = stats.nodes_crashed;
            engine.report.bits_corrupted = stats.bits_corrupted;
            dropped = stats.messages_dropped - dropped_before;
        }

        // Compute: every live node steps `on_round` through `step_nodes`.
        let Engine {
            ref mut nodes,
            ref mut outgoing,
            ref inboxes,
            ref dead,
            strict,
            ..
        } = *engine;
        let (pending, defect) = self.step_nodes(nodes, outgoing, dead, strict, |node, i, out| {
            node.on_round(&self.infos[i], &inboxes[i], out)
        });
        engine.pending = pending;
        engine.defect = engine.defect.or(defect);
        if T::ENABLED {
            telemetry.on_round_end(round, engine.is_quiescent(), engine.live_slots);
        }
        StepSummary {
            round: engine.report.rounds,
            messages,
            bits,
            dropped,
        }
    }

    /// Steps every node: each live node gets its emptied slot vector
    /// back as an [`Outbox`], and `step` runs its `on_start` or
    /// `on_round` into it. Crashed nodes are frozen and skipped. Returns
    /// the messages queued and the first defect in node order — the one
    /// place the engine builds outboxes, tallies queued messages and
    /// latches defects.
    fn step_nodes<A>(
        &self,
        nodes: &mut [A],
        outgoing: &mut [Vec<Option<Message>>],
        dead: &[bool],
        strict: bool,
        mut step: impl FnMut(&mut A, usize, &mut Outbox),
    ) -> (usize, Option<SimError>) {
        let (budget, charge) = (self.config.bandwidth_bits, self.config.charge_factor());
        let mut queued = 0;
        let mut defect = None;
        for (i, (node, slots)) in nodes.iter_mut().zip(outgoing).enumerate() {
            if dead[i] {
                continue;
            }
            let mut out = Outbox::from_slots(std::mem::take(slots), budget, charge, strict);
            step(node, i, &mut out);
            queued += out.queued;
            defect = defect.or(out.defect);
            *slots = out.msgs;
        }
        (queued, defect)
    }
}

/// The reusable execution state of one run: node states, double-buffered
/// outgoing/inbox slot vectors (allocated once, cleared in place each
/// round), the columnar message plane (payload slab, offset tables and
/// the recycled-shell pool), the count of in-flight messages, and the
/// accumulating [`RunReport`].
struct Engine<A> {
    nodes: Vec<A>,
    outgoing: Vec<Vec<Option<Message>>>,
    inboxes: Vec<Inbox>,
    /// The per-round bit-packed payload slab: every in-flight payload,
    /// concatenated in delivery order. Cleared (not freed) each round.
    slab: BitString,
    /// Slab offset per directed slot (`slot_base[u] + p`). Entries are
    /// meaningful only for slots on the `active` list this round;
    /// everything else is stale from an earlier round and never read.
    slot_start: Vec<usize>,
    /// Payload length per directed slot, post-corruption (a truncation
    /// shortens this; the severed slab tail is masked off at scatter).
    /// Same staleness contract as `slot_start`.
    slot_bits: Vec<usize>,
    /// The directed slots delivered this round, in pack order (which is
    /// ascending slot order). Scatter and inbox retirement walk this
    /// list instead of the full `2·|E|` slot plane, so a sparse round
    /// costs O(delivered), not O(slots).
    active: Vec<usize>,
    /// Last round's `active` list (swapped each round). Scatter merges
    /// the two sorted lists: a slot active in both rounds reuses its
    /// inbox shell in place, a slot that went idle retires its shell to
    /// `scratch`, a slot that woke up draws from `scratch`.
    prev_active: Vec<usize>,
    /// Retired message shells, so slots that flip from idle to active
    /// refill from a pooled allocation instead of the allocator.
    scratch: Vec<Message>,
    /// The engine's one crash view: the compute phase skips these nodes
    /// and quiescence counts them as terminated. It mirrors the plan's
    /// crashes, which flip only in `begin_round`, before that round's
    /// delivery; it is updated crash by crash in activation order, so
    /// an edge shared by two same-round crashes leaves `live_slots` once.
    dead: Vec<bool>,
    /// Directed slots whose both endpoints are still alive — `2·|E|`
    /// until the first crash; the utilisation denominator reported to
    /// [`Telemetry::on_round_end`].
    live_slots: u64,
    /// Messages queued for the next delivery phase, maintained by the
    /// round loop so quiescence checks are O(n) instead of O(Σ deg).
    pending: usize,
    /// Fault-injection state, `None` for fault-free runs.
    plan: Option<FaultPlan>,
    /// Violation policy for the outboxes handed to nodes: strict panics,
    /// lenient records into `defect`.
    strict: bool,
    /// First discipline violation observed under the lenient policy.
    defect: Option<SimError>,
    report: RunReport,
}

impl<A: NodeAlgorithm> Engine<A> {
    /// Quiescence: nothing in flight and every *live* node terminated.
    /// Crashed nodes are frozen, so waiting on them would never end —
    /// they count as (involuntarily) terminated.
    fn is_quiescent(&self) -> bool {
        self.pending == 0
            && self
                .nodes
                .iter()
                .zip(&self.dead)
                .all(|(a, &dead)| a.is_terminated() || dead)
    }
}

/// A round-by-round stepper over a network algorithm — the incremental
/// counterpart of [`Simulator::run`], for debugging, visualization and
/// harnesses that need to inspect state between rounds.
///
/// Both drive the same private round engine, so a stepped run is
/// guaranteed to match the batch run round for round. Once the run is
/// [quiescent](Stepper::is_quiescent), further [`step`](Stepper::step)
/// calls are no-ops that deliver nothing.
///
/// # Example
///
/// ```
/// use qdc_congest::{CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Stepper};
/// use qdc_graph::Graph;
///
/// struct Hop { got: bool }
/// impl NodeAlgorithm for Hop {
///     fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
///         if info.id.0 == 0 { out.broadcast(Message::from_bit(true)); }
///     }
///     fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, _: &mut Outbox) {
///         self.got |= !inbox.is_empty();
///     }
///     fn is_terminated(&self) -> bool { true }
/// }
///
/// let g = Graph::path(3);
/// let mut stepper = Stepper::new(&g, CongestConfig::classical(4), |_| Hop { got: false });
/// assert!(!stepper.is_quiescent());
/// stepper.step();
/// assert!(stepper.nodes()[1].got);
/// assert!(stepper.is_quiescent());
/// ```
pub struct Stepper<'g, A> {
    sim: Simulator<'g>,
    engine: Engine<A>,
}

/// What one [`Stepper::step`] delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepSummary {
    /// The round number just executed (1-based).
    pub round: usize,
    /// Messages delivered this round.
    pub messages: u64,
    /// Payload bits delivered this round.
    pub bits: u64,
    /// Messages the fault layer dropped this round (always zero without
    /// a [`ChaosConfig`]).
    pub dropped: u64,
}

/// Outcome of [`Stepper::run_to_quiescence`]: how many rounds ran and
/// whether the watchdog cap cut the run short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Rounds executed by this call.
    pub rounds: usize,
    /// `true` when the cap was hit before quiescence — the signature of
    /// a non-terminating (or not-yet-terminated) algorithm.
    pub tripped: bool,
}

impl<'g, A: NodeAlgorithm> Stepper<'g, A> {
    /// Initializes the algorithm (runs every node's `on_start`).
    pub fn new<F: FnMut(&NodeInfo) -> A>(graph: &'g Graph, config: CongestConfig, init: F) -> Self {
        Stepper::start(graph, config, None, init)
    }

    /// A stepper with fault injection: each [`step`](Stepper::step)
    /// consults a [`FaultPlan`] built from `chaos`, making the same
    /// per-message decisions in the same order as
    /// [`Simulator::try_run`] under the same config — a stepped chaos
    /// run matches the batch chaos run round for round. Discipline
    /// violations still panic (stepping is an interactive debugging
    /// surface); use [`Simulator::try_run`] for fully fallible runs.
    ///
    /// # Panics
    ///
    /// Panics if `chaos` fails [`ChaosConfig::validate`].
    pub fn with_chaos<F: FnMut(&NodeInfo) -> A>(
        graph: &'g Graph,
        config: CongestConfig,
        chaos: &ChaosConfig,
        init: F,
    ) -> Self {
        Stepper::start(graph, config, Some(chaos), init)
    }

    /// The constructor behind [`new`](Stepper::new) and
    /// [`with_chaos`](Stepper::with_chaos), with optional fault injection.
    fn start<F: FnMut(&NodeInfo) -> A>(
        graph: &'g Graph,
        config: CongestConfig,
        chaos: Option<&ChaosConfig>,
        init: F,
    ) -> Self {
        let sim = Simulator::new(graph, config);
        let plan = chaos.map(|chaos| {
            chaos.validate().unwrap_or_else(|e| panic!("{e}"));
            FaultPlan::new(chaos, graph.node_count())
        });
        let engine = sim.engine_start(init, plan, true);
        Stepper { sim, engine }
    }

    /// The per-node states (index = node id).
    pub fn nodes(&self) -> &[A] {
        &self.engine.nodes
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.engine.report.rounds
    }

    /// The accounting so far, identical to what [`Simulator::run`] would
    /// report after the same number of rounds. `completed` reflects
    /// whether the run is currently quiescent.
    pub fn report(&self) -> RunReport {
        RunReport {
            completed: self.engine.is_quiescent(),
            ..self.engine.report
        }
    }

    /// Whether the run has reached quiescence (all nodes terminated, no
    /// messages in flight). Further steps deliver nothing.
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }

    /// Executes one synchronous round: deliver, then step every node.
    ///
    /// Once the run is quiescent this is a no-op: no node is stepped, the
    /// round counter stays put, and the returned summary reports zero
    /// messages and bits.
    pub fn step(&mut self) -> StepSummary {
        self.step_observed(&mut NullTelemetry)
    }

    /// [`step`](Stepper::step) with a [`Telemetry`] sink observing the
    /// round. The quiescent no-op stays a no-op: no span is opened and
    /// the sink sees nothing.
    pub fn step_observed<T: Telemetry>(&mut self, telemetry: &mut T) -> StepSummary {
        if self.engine.is_quiescent() {
            return StepSummary {
                round: self.engine.report.rounds,
                messages: 0,
                bits: 0,
                dropped: 0,
            };
        }
        self.sim.engine_round(&mut self.engine, telemetry)
    }

    /// Steps until quiescence or `max_rounds`, whichever comes first.
    ///
    /// The report says how many rounds this call executed and whether
    /// the cap tripped first (`tripped = true` means the algorithm had
    /// not quiesced — previously this case was indistinguishable from a
    /// run that finished exactly at the cap, so a non-terminating
    /// algorithm looped silently).
    pub fn run_to_quiescence(&mut self, max_rounds: usize) -> WatchdogReport {
        let mut done = 0;
        while !self.is_quiescent() && done < max_rounds {
            self.step();
            done += 1;
        }
        WatchdogReport {
            rounds: done,
            tripped: !self.is_quiescent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RoundProfiler;
    use qdc_graph::Graph;

    /// Echo once: leaf nodes send their id to every neighbor in round 0,
    /// then everyone terminates after hearing from all neighbors.
    struct HearAll {
        heard: usize,
        need: usize,
    }

    impl NodeAlgorithm for HearAll {
        fn on_start(&mut self, info: &NodeInfo, out: &mut Outbox) {
            out.broadcast(Message::from_uint(info.id.0 as u64, 16));
        }
        fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, _out: &mut Outbox) {
            self.heard += inbox.len();
        }
        fn is_terminated(&self) -> bool {
            self.heard >= self.need
        }
    }

    #[test]
    fn sim_error_taxonomy_is_closed_under_display() {
        // Every variant's Display text (which the panicking APIs emit
        // verbatim) classifies back to exactly that variant's kind and
        // retryability — the contract supervised runners rely on to turn
        // a caught panic into a structured failure record.
        let variants = [
            SimError::BudgetExceeded { bits: 9, budget: 8 },
            SimError::DoublePortSend { port: 2 },
            SimError::PortOutOfRange { port: 7, ports: 3 },
            SimError::WatchdogTripped { rounds: 41 },
            SimError::InvalidChaosConfig { prob: 1.5 },
        ];
        for e in &variants {
            assert_eq!(
                SimError::classify_message(&e.to_string()),
                Some((e.kind(), e.is_retryable())),
                "Display of {e:?} must classify to its own kind"
            );
        }
        // Kinds are distinct (they name failure records).
        let mut kinds: Vec<_> = variants.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len());
    }

    #[test]
    fn sim_error_only_watchdog_is_retryable() {
        assert!(SimError::WatchdogTripped { rounds: 1 }.is_retryable());
        assert!(!SimError::BudgetExceeded { bits: 2, budget: 1 }.is_retryable());
        assert!(!SimError::DoublePortSend { port: 0 }.is_retryable());
        assert!(!SimError::PortOutOfRange { port: 1, ports: 1 }.is_retryable());
        assert!(!SimError::InvalidChaosConfig { prob: 2.0 }.is_retryable());
    }

    #[test]
    fn sim_error_classify_rejects_arbitrary_panic_messages() {
        assert_eq!(SimError::classify_message("index out of bounds"), None);
        assert_eq!(SimError::classify_message(""), None);
        assert_eq!(
            SimError::classify_message("attempt to subtract with overflow"),
            None
        );
    }

    #[test]
    fn everyone_hears_neighbors_in_one_round() {
        let g = Graph::complete(5);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let (nodes, report) = sim.run(
            |info| HearAll {
                heard: 0,
                need: info.degree(),
            },
            10,
        );
        assert!(report.completed);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.messages_sent, 20); // 2 per edge, 10 edges
        assert_eq!(report.bits_sent, 20 * 16);
        assert_eq!(report.max_bits_per_round, 20 * 16);
        assert!(nodes.iter().all(|n| n.heard == 4));
    }

    /// A silent algorithm terminates immediately in zero rounds.
    struct Silent;
    impl NodeAlgorithm for Silent {
        fn on_start(&mut self, _: &NodeInfo, _: &mut Outbox) {}
        fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
        fn is_terminated(&self) -> bool {
            true
        }
    }

    #[test]
    fn silent_run_takes_zero_rounds() {
        let g = Graph::path(3);
        let sim = Simulator::new(&g, CongestConfig::classical(1));
        let (_, report) = sim.run(|_| Silent, 10);
        assert!(report.completed);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.messages_sent, 0);
    }

    /// A node that never terminates exercises the round limit.
    struct Chatter;
    impl NodeAlgorithm for Chatter {
        fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
            out.broadcast(Message::from_bit(true));
        }
        fn on_round(&mut self, _: &NodeInfo, _: &Inbox, out: &mut Outbox) {
            out.broadcast(Message::from_bit(true));
        }
        fn is_terminated(&self) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_caps_runaway_algorithms() {
        let g = Graph::cycle(4);
        let sim = Simulator::new(&g, CongestConfig::classical(4));
        let (_, report) = sim.run(|_| Chatter, 7);
        assert!(!report.completed);
        assert_eq!(report.rounds, 7);
    }

    /// Budget enforcement: oversized messages panic.
    struct Oversender;
    impl NodeAlgorithm for Oversender {
        fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
            out.send(0, Message::from_uint(0xFFFF, 16));
        }
        fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
        fn is_terminated(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the B = 8 bit budget")]
    fn oversized_message_panics() {
        let g = Graph::path(2);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        sim.run(|_| Oversender, 1);
    }

    /// Double-send on the same port panics.
    struct DoubleSender;
    impl NodeAlgorithm for DoubleSender {
        fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
            out.send(0, Message::from_bit(true));
            out.send(0, Message::from_bit(false));
        }
        fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
        fn is_terminated(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "one message per edge per round")]
    fn double_send_panics() {
        let g = Graph::path(2);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        sim.run(|_| DoubleSender, 1);
    }

    #[test]
    fn stepper_matches_batch_run() {
        // Step-by-step execution produces the same final states and the
        // same per-round traffic as Simulator::run.
        let g = Graph::cycle(6);
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        };
        let sim = Simulator::new(&g, cfg);
        let (batch, report) = sim.run(make, 10);
        let mut stepper = Stepper::new(&g, cfg, make);
        let mut total_msgs = 0;
        while !stepper.is_quiescent() {
            total_msgs += stepper.step().messages;
        }
        assert_eq!(stepper.rounds(), report.rounds);
        assert_eq!(total_msgs, report.messages_sent);
        for (a, b) in batch.iter().zip(stepper.nodes()) {
            assert_eq!(a.heard, b.heard);
        }
    }

    #[test]
    fn quiescent_step_is_a_noop() {
        // Stepping past quiescence must not invoke on_round again, must
        // not advance the round counter, and must report zero traffic.
        let g = Graph::complete(4);
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        };
        let mut stepper = Stepper::new(&g, cfg, make);
        while !stepper.is_quiescent() {
            stepper.step();
        }
        let rounds = stepper.rounds();
        let report = stepper.report();
        let heard: Vec<usize> = stepper.nodes().iter().map(|n| n.heard).collect();
        for _ in 0..3 {
            let summary = stepper.step();
            assert_eq!(
                summary,
                StepSummary {
                    round: rounds,
                    messages: 0,
                    bits: 0,
                    dropped: 0
                }
            );
        }
        assert_eq!(stepper.rounds(), rounds);
        assert_eq!(stepper.report(), report);
        let after: Vec<usize> = stepper.nodes().iter().map(|n| n.heard).collect();
        assert_eq!(heard, after);
    }

    #[test]
    fn stepper_report_matches_batch_report() {
        let g = Graph::cycle(6);
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        };
        let sim = Simulator::new(&g, cfg);
        let (_, batch_report) = sim.run(make, 10);
        let mut stepper = Stepper::new(&g, cfg, make);
        while !stepper.is_quiescent() {
            stepper.step();
        }
        assert_eq!(stepper.report(), batch_report);
    }

    #[test]
    fn stepper_run_to_quiescence_trips_watchdog_on_nonterminating_algorithm() {
        // Chatter never terminates: the cap must trip and say so, rather
        // than returning a bare round count indistinguishable from a run
        // that finished exactly at the cap.
        let g = Graph::path(2);
        let cfg = CongestConfig::classical(4);
        let mut stepper = Stepper::new(&g, cfg, |_| Chatter);
        assert_eq!(
            stepper.run_to_quiescence(5),
            WatchdogReport {
                rounds: 5,
                tripped: true
            }
        );
        // A second capped call keeps reporting the trip…
        assert!(stepper.run_to_quiescence(3).tripped);
        assert_eq!(stepper.rounds(), 8);
    }

    #[test]
    fn stepper_run_to_quiescence_completes_without_tripping() {
        let g = Graph::complete(4);
        let cfg = CongestConfig::classical(16);
        let mut stepper = Stepper::new(&g, cfg, |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        });
        let report = stepper.run_to_quiescence(50);
        assert!(!report.tripped);
        assert!(report.rounds < 50);
        assert!(stepper.is_quiescent());
        // Quiescent already: a further call runs zero rounds, no trip.
        assert_eq!(
            stepper.run_to_quiescence(50),
            WatchdogReport {
                rounds: 0,
                tripped: false
            }
        );
    }

    #[test]
    fn node_info_ports_are_consistent() {
        let g = Graph::cycle(5);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        for u in g.nodes() {
            let info = sim.info(u);
            assert_eq!(info.degree(), 2);
            for (p, &v) in info.neighbors.iter().enumerate() {
                assert_eq!(info.port_to(v), Some(p));
                // The incident edge on this port really connects u and v.
                let (a, b) = g.endpoints(info.incident_edges[p]);
                assert!((a == u && b == v) || (a == v && b == u));
            }
        }
    }

    // -----------------------------------------------------------------
    // Structured errors and fault injection (chaos layer)
    // -----------------------------------------------------------------

    #[test]
    fn try_send_reports_each_violation_without_panicking() {
        let mut out = Outbox::detached(2, 8);
        assert_eq!(
            out.try_send(0, Message::from_uint(0x1FF, 9)),
            Err(SimError::BudgetExceeded { bits: 9, budget: 8 })
        );
        assert_eq!(
            out.try_send(2, Message::from_bit(true)),
            Err(SimError::PortOutOfRange { port: 2, ports: 2 })
        );
        assert_eq!(out.try_send(0, Message::from_bit(true)), Ok(()));
        assert_eq!(
            out.try_send(0, Message::from_bit(false)),
            Err(SimError::DoublePortSend { port: 0 })
        );
        // Failed sends queue nothing; the successful one queued once.
        let slots = out.into_slots();
        assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 1);
    }

    /// An adversarial node using the *panicking* API: under `try_run`
    /// the violation must come back as a `SimError`, not a panic.
    struct Adversary {
        mode: u8,
    }
    impl NodeAlgorithm for Adversary {
        fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
            match self.mode {
                0 => out.send(0, Message::from_uint(0xFFFF, 16)), // oversized
                1 => {
                    out.send(0, Message::from_bit(true));
                    out.send(0, Message::from_bit(false)); // double send
                }
                _ => out.send(99, Message::from_bit(true)), // bad port
            }
        }
        fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
        fn is_terminated(&self) -> bool {
            true
        }
    }

    #[test]
    fn try_run_returns_structured_errors_for_adversarial_nodes() {
        let g = Graph::path(2);
        let sim = Simulator::new(&g, CongestConfig::classical(8));
        let chaos = ChaosConfig::fault_free(10);
        assert_eq!(
            sim.try_run(|_| Adversary { mode: 0 }, &chaos).err(),
            Some(SimError::BudgetExceeded {
                bits: 16,
                budget: 8
            })
        );
        assert_eq!(
            sim.try_run(|_| Adversary { mode: 1 }, &chaos).err(),
            Some(SimError::DoublePortSend { port: 0 })
        );
        assert_eq!(
            sim.try_run(|_| Adversary { mode: 2 }, &chaos).err(),
            Some(SimError::PortOutOfRange { port: 99, ports: 1 })
        );
    }

    #[test]
    fn try_run_trips_watchdog_instead_of_spinning() {
        let g = Graph::cycle(4);
        let sim = Simulator::new(&g, CongestConfig::classical(4));
        let chaos = ChaosConfig::fault_free(7);
        assert_eq!(
            sim.try_run(|_| Chatter, &chaos).err(),
            Some(SimError::WatchdogTripped { rounds: 7 })
        );
    }

    #[test]
    fn try_run_rejects_invalid_probabilities() {
        let g = Graph::path(2);
        let sim = Simulator::new(&g, CongestConfig::classical(4));
        let chaos = ChaosConfig {
            drop_prob: 2.0,
            ..ChaosConfig::fault_free(10)
        };
        assert!(matches!(
            sim.try_run(|_| Silent, &chaos),
            Err(SimError::InvalidChaosConfig { .. })
        ));
    }

    #[test]
    fn try_run_fault_free_matches_run_bit_for_bit() {
        let g = Graph::complete(5);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let make = |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        };
        let (nodes, report) = sim.run(make, 10);
        let (chaos_nodes, chaos_report) = sim
            .try_run(make, &ChaosConfig::fault_free(10))
            .expect("fault-free run completes");
        assert_eq!(report, chaos_report);
        assert_eq!(report.messages_dropped, 0);
        assert_eq!(report.nodes_crashed, 0);
        assert_eq!(report.bits_corrupted, 0);
        for (a, b) in nodes.iter().zip(&chaos_nodes) {
            assert_eq!(a.heard, b.heard);
        }
    }

    /// Broadcasts every round for a fixed number of rounds, then goes
    /// silent — keeps traffic in flight long enough for drop and crash
    /// schedules to bite, while still reaching quiescence.
    struct Pulse {
        rounds_left: usize,
        heard: usize,
    }
    impl NodeAlgorithm for Pulse {
        fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
            out.broadcast(Message::from_uint(3, 8));
        }
        fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
            self.heard += inbox.len();
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                out.broadcast(Message::from_uint(3, 8));
            }
        }
        fn is_terminated(&self) -> bool {
            true // quiescence-driven: the run ends when traffic stops
        }
    }

    #[test]
    fn chaos_seeded_runs_replay_byte_exactly() {
        let g = Graph::complete(6);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let chaos = ChaosConfig {
            seed: 42,
            drop_prob: 0.25,
            corrupt_prob: 0.1,
            crash_schedule: vec![(NodeId(5), 2)],
            max_rounds_watchdog: 50,
        };
        let make = |_: &NodeInfo| Pulse {
            rounds_left: 5,
            heard: 0,
        };
        let (_, a) = sim.try_run(make, &chaos).expect("completes");
        let (_, b) = sim.try_run(make, &chaos).expect("completes");
        assert_eq!(a, b);
        assert!(a.messages_dropped > 0, "seed 42 drops something at 25%");
        assert_eq!(a.nodes_crashed, 1);
    }

    #[test]
    fn chaos_crashed_node_stops_sending_and_receiving() {
        // Chatter on a path of 3 with the middle node crashing at round
        // 2: from then on the endpoints hear nothing (their only
        // neighbor is dead) and everything in flight to/from the middle
        // is dropped.
        struct CountingChatter {
            heard: usize,
        }
        impl NodeAlgorithm for CountingChatter {
            fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
                out.broadcast(Message::from_bit(true));
            }
            fn on_round(&mut self, _: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
                self.heard += inbox.len();
                out.broadcast(Message::from_bit(true));
            }
            fn is_terminated(&self) -> bool {
                false
            }
        }
        let g = Graph::path(3);
        let sim = Simulator::new(&g, CongestConfig::classical(4));
        let chaos = ChaosConfig {
            crash_schedule: vec![(NodeId(1), 2)],
            ..ChaosConfig::fault_free(6)
        };
        let err = sim.try_run(|_| CountingChatter { heard: 0 }, &chaos);
        // Endpoints keep chattering into the void: watchdog trips.
        assert_eq!(err.err(), Some(SimError::WatchdogTripped { rounds: 6 }));

        // Same setup, stepped, to inspect the states: endpoints hear the
        // middle node only in round 1.
        let mut stepper = Stepper::with_chaos(&g, CongestConfig::classical(4), &chaos, |_| {
            CountingChatter { heard: 0 }
        });
        for _ in 0..6 {
            stepper.step();
        }
        assert_eq!(stepper.nodes()[0].heard, 1);
        assert_eq!(stepper.nodes()[2].heard, 1);
        // The middle node froze after round 1 (crashed at round 2).
        assert_eq!(stepper.nodes()[1].heard, 2);
        let report = stepper.report();
        assert_eq!(report.nodes_crashed, 1);
        assert!(report.messages_dropped > 0);
    }

    #[test]
    fn chaos_batch_traced_and_stepped_agree() {
        let g = Graph::cycle(8);
        let cfg = CongestConfig::classical(16);
        let chaos = ChaosConfig {
            seed: 3,
            drop_prob: 0.2,
            corrupt_prob: 0.05,
            crash_schedule: vec![(NodeId(2), 3)],
            max_rounds_watchdog: 40,
        };
        let make = |_: &NodeInfo| Pulse {
            rounds_left: 6,
            heard: 0,
        };
        let sim = Simulator::new(&g, cfg);
        let (batch, batch_report) = sim.try_run(make, &chaos).expect("completes");
        let mut trace = TrafficTrace::default();
        let (traced, traced_report) = sim
            .try_run_observed(make, &chaos, &mut trace)
            .expect("completes");
        assert_eq!(batch_report, traced_report);
        let traced_delivered: usize = trace.rounds.iter().map(Vec::len).sum();
        assert_eq!(traced_delivered as u64, traced_report.messages_sent);
        let traced_dropped: u64 = trace.dropped.iter().sum();
        assert_eq!(traced_dropped, traced_report.messages_dropped);
        let mut stepper = Stepper::with_chaos(&g, cfg, &chaos, make);
        let mut stepped_dropped = 0;
        while !stepper.is_quiescent() {
            stepped_dropped += stepper.step().dropped;
        }
        assert_eq!(stepper.report(), batch_report);
        assert_eq!(stepped_dropped, batch_report.messages_dropped);
        for ((a, b), c) in batch.iter().zip(&traced).zip(stepper.nodes()) {
            assert_eq!(a.heard, b.heard);
            assert_eq!(a.heard, c.heard);
        }
    }

    #[test]
    fn chaos_corruption_is_metered_and_budget_bounded() {
        let g = Graph::complete(4);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let chaos = ChaosConfig {
            seed: 9,
            corrupt_prob: 1.0,
            ..ChaosConfig::fault_free(20)
        };
        let make = |_: &NodeInfo| HearAll { heard: 0, need: 0 };
        let (_, report) = sim.try_run(make, &chaos).expect("completes");
        assert!(report.bits_corrupted > 0);
        assert_eq!(report.messages_dropped, 0);
        // Corruption only shrinks payloads: delivered bits cannot exceed
        // the fault-free payload volume.
        let (_, clean) = sim.run(make, 20);
        assert!(report.bits_sent <= clean.bits_sent);
        assert_eq!(report.messages_sent, clean.messages_sent);
    }

    #[test]
    fn broadcast_skips_last_clone_but_matches_per_port_sends() {
        let g = Graph::complete(4);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        // Broadcasting and port-by-port sending deliver identical traffic.
        struct PortSender;
        impl NodeAlgorithm for PortSender {
            fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
                for p in 0..out.port_count() {
                    out.send(p, Message::from_uint(5, 8));
                }
            }
            fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
            fn is_terminated(&self) -> bool {
                true
            }
        }
        struct Broadcaster;
        impl NodeAlgorithm for Broadcaster {
            fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
                out.broadcast(Message::from_uint(5, 8));
            }
            fn on_round(&mut self, _: &NodeInfo, _: &Inbox, _: &mut Outbox) {}
            fn is_terminated(&self) -> bool {
                true
            }
        }
        let (_, a) = sim.run(|_| PortSender, 5);
        let (_, b) = sim.run(|_| Broadcaster, 5);
        assert_eq!(a, b);
        // Zero ports: broadcast on an isolated node is a no-op.
        let isolated = Graph::from_edges(1, &[]);
        let sim = Simulator::new(&isolated, CongestConfig::classical(4));
        let (_, report) = sim.run(|_| Broadcaster, 5);
        assert_eq!(report.messages_sent, 0);
    }

    #[test]
    fn sim_error_messages_match_the_panicking_api() {
        // The Display impl is what the panicking wrappers print, so the
        // two reporting paths can never drift apart.
        assert_eq!(
            SimError::BudgetExceeded {
                bits: 16,
                budget: 8
            }
            .to_string(),
            "message of 16 bits exceeds the B = 8 bit budget"
        );
        assert!(SimError::DoublePortSend { port: 3 }
            .to_string()
            .contains("one message per edge per round"));
        assert!(SimError::PortOutOfRange { port: 9, ports: 2 }
            .to_string()
            .contains("port 9 out of range"));
        assert!(SimError::WatchdogTripped { rounds: 77 }
            .to_string()
            .contains("77 rounds"));
    }

    /// The whole simulation stack must be shardable across threads: the
    /// campaign harness (`qdc-harness`) builds simulators, chaos configs
    /// and fault plans inside `std::thread::scope` workers. This is the
    /// compile-time audit — if any type grows a non-`Send` field (an
    /// `Rc`, a raw pointer, a thread-local handle), this test stops
    /// compiling rather than failing at runtime.
    #[test]
    fn simulation_stack_is_send_and_sync() {
        fn send<T: Send>() {}
        fn sync<T: Sync>() {}
        send::<Simulator<'static>>();
        sync::<Simulator<'static>>();
        send::<ChaosConfig>();
        sync::<ChaosConfig>();
        send::<FaultPlan>();
        send::<RunReport>();
        sync::<RunReport>();
        send::<TrafficTrace>();
        sync::<TrafficTrace>();
        send::<Message>();
        send::<SimError>();
        sync::<SimError>();
        send::<crate::telemetry::NullTelemetry>();
        sync::<crate::telemetry::NullTelemetry>();
        send::<crate::telemetry::RoundProfiler>();
        send::<crate::telemetry::TelemetryReport>();
        sync::<crate::telemetry::TelemetryReport>();
    }

    /// A trace record is two `u32` node ids and a `u32` bit count, with
    /// no padding: a wider `bits` would grow every audited trace by a
    /// third.
    #[test]
    fn traced_message_is_a_12_byte_record() {
        assert_eq!(std::mem::size_of::<TracedMessage>(), 12);
    }

    /// Only a 64-bit `usize` can name a count past `u32::MAX`.
    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "a traced message carries at most u32::MAX bits")]
    fn traffic_trace_refuses_a_bit_count_past_u32() {
        let mut trace = TrafficTrace::default();
        trace.on_round_start(1);
        let bits = u32::MAX as usize + 1;
        trace.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), bits);
    }

    // -----------------------------------------------------------------
    // Telemetry: observation must never perturb
    // -----------------------------------------------------------------

    #[test]
    fn telemetry_observed_run_matches_unobserved_bit_for_bit() {
        let g = Graph::complete(5);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let make = |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        };
        let mut plain_trace = TrafficTrace::default();
        let (plain, plain_report) = sim.run_observed(make, 10, &mut plain_trace);
        let mut prof = RoundProfiler::new(g.node_count(), g.edge_count(), 16);
        let mut observed_trace = TrafficTrace::default();
        let (observed, observed_report) =
            sim.run_observed(make, 10, &mut (&mut observed_trace, &mut prof));
        assert_eq!(plain_report, observed_report);
        assert_eq!(plain_trace.rounds, observed_trace.rounds);
        assert_eq!(plain_trace.dropped, observed_trace.dropped);
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.heard, b.heard);
        }
        // And the folded profile reproduces the report's totals.
        let report = prof.finish();
        let totals = report.totals();
        assert_eq!(totals.messages, observed_report.messages_sent);
        assert_eq!(totals.bits, observed_report.bits_sent);
        assert_eq!(report.rounds.len(), observed_report.rounds);
        assert!(report.rounds.last().expect("ran rounds").quiescent);
    }

    #[test]
    fn telemetry_observed_chaos_run_matches_unobserved_and_attributes_faults() {
        let g = Graph::cycle(8);
        let sim = Simulator::new(&g, CongestConfig::classical(16));
        let chaos = ChaosConfig {
            seed: 3,
            drop_prob: 0.2,
            corrupt_prob: 0.1,
            crash_schedule: vec![(NodeId(2), 3)],
            max_rounds_watchdog: 40,
        };
        let make = |_: &NodeInfo| Pulse {
            rounds_left: 6,
            heard: 0,
        };
        let (plain, plain_report) = sim.try_run(make, &chaos).expect("completes");
        let mut prof = RoundProfiler::new(g.node_count(), g.edge_count(), 16);
        let (observed, observed_report) = sim
            .try_run_observed(make, &chaos, &mut prof)
            .expect("completes");
        assert_eq!(plain_report, observed_report);
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.heard, b.heard);
        }
        let report = prof.finish();
        let t = report.totals();
        assert_eq!(
            (t.messages, t.bits, t.dropped, t.corrupted_bits, t.crashes),
            (
                observed_report.messages_sent,
                observed_report.bits_sent,
                observed_report.messages_dropped,
                observed_report.bits_corrupted,
                observed_report.nodes_crashed
            )
        );
        // Fault attribution lands on real edges of the crashed node.
        let edge_dropped: u64 = report.edge_totals.iter().map(|e| e.dropped).sum();
        assert_eq!(edge_dropped, observed_report.messages_dropped);
    }

    #[test]
    fn telemetry_stepper_observed_matches_batch_profile() {
        let g = Graph::cycle(6);
        let cfg = CongestConfig::classical(16);
        let make = |info: &NodeInfo| HearAll {
            heard: 0,
            need: info.degree(),
        };
        let sim = Simulator::new(&g, cfg);
        let mut batch_prof = RoundProfiler::new(g.node_count(), g.edge_count(), 16);
        sim.run_observed(make, 10, &mut batch_prof);
        let batch = batch_prof.finish();

        let mut stepper = Stepper::new(&g, cfg, make);
        let mut step_prof = RoundProfiler::new(g.node_count(), g.edge_count(), 16);
        while !stepper.is_quiescent() {
            stepper.step_observed(&mut step_prof);
        }
        // Quiescent steps stay invisible to the sink.
        stepper.step_observed(&mut step_prof);
        let stepped = step_prof.finish();
        // Wall-clock differs by construction; everything else is equal.
        assert_eq!(batch.to_jsonl(false), stepped.to_jsonl(false));
    }
}
