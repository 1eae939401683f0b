//! Opt-in round-level observability for the CONGEST round engine.
//!
//! The paper's quantitative claims live at the granularity of rounds and
//! bits — Theorem 3.5 charges `O(B log L)` communication *per round*, and
//! checking it means seeing exactly where bits flow. The
//! [`RunReport`](crate::RunReport) gives end-of-run totals only; this
//! module adds the per-round view.
//!
//! A [`Telemetry`] sink receives events from the round engine: a span
//! open/close per round, one event per delivered message (with the edge,
//! the endpoints and the exact bit count), chaos events attributed to the
//! faulting edge, crash-stop activations, and the quiescence outcome of
//! each round. [`NullTelemetry`] is the always-installed default sink:
//! its [`ENABLED`](Telemetry::ENABLED) flag is `false`, every engine-side
//! telemetry block is guarded by that associated constant, and the trait
//! methods are empty `#[inline]` bodies — so the unobserved entry points
//! ([`Simulator::run`](crate::Simulator::run) and friends) monomorphize
//! to exactly the pre-telemetry hot path: zero allocation, zero extra
//! work (EXPERIMENTS.md §OBS records the measured overhead).
//!
//! [`RoundProfiler`] is the batteries-included sink: it folds the event
//! stream into a [`TelemetryReport`] — a [`RoundProfile`] series with
//! per-round edge-utilisation histograms against the `B`-bit budget,
//! cumulative per-node send/receive totals, per-edge totals with fault
//! attribution, and (via the [`NodeClass`] classification hook) a
//! highway-vs-path traffic split for the simulation-theorem network. Its
//! per-round fold is shared with the streaming
//! [`StreamSink`](crate::StreamSink). The per-message
//! [`TrafficTrace`](crate::TrafficTrace) is a sink too, and sinks
//! compose: `&mut T` observes as `T` does, and a pair `(A, B)` forwards
//! every event to `A` then `B`, so several sinks can ride one run.
//!
//! Wall-clock time is sampled by the *sink* (not the engine) at span
//! open/close, and the serialized form keeps it in an omittable final
//! field — like `wall_us` in campaign records, it is the one value that
//! legitimately differs between two runs of the same experiment, so it
//! stays outside the byte-identical determinism contract.

use crate::jsonl::{Cursor, LineError};
use qdc_graph::{EdgeId, NodeId};
use std::fmt::Write as _;
use std::time::Instant;

/// The schema tag emitted on (and required of) the header line of a
/// serialized [`TelemetryReport`].
pub const TELEMETRY_SCHEMA: &str = "qdc-telemetry/v1";

/// An observer of round-engine events.
///
/// All methods default to no-ops, so sinks implement only what they
/// need. The engine guards every telemetry call site with
/// `T::ENABLED`, a compile-time constant — a sink that sets it to
/// `false` (only [`NullTelemetry`] should) erases the instrumentation
/// entirely from the monomorphized round loop.
///
/// Event order per round `r` (1-based, matching
/// [`StepSummary::round`](crate::StepSummary::round)):
/// [`on_round_start`](Telemetry::on_round_start)`(r)` →
/// [`on_crash`](Telemetry::on_crash) for each crash activating at `r` →
/// per in-flight message, in the engine's fixed delivery order, exactly
/// one of [`on_delivery`](Telemetry::on_delivery) /
/// [`on_chaos_drop`](Telemetry::on_chaos_drop) (with
/// [`on_chaos_corrupt`](Telemetry::on_chaos_corrupt) preceding a
/// delivery that was corrupted in flight) →
/// [`on_round_end`](Telemetry::on_round_end)`(r, quiescent, live_slots)`.
pub trait Telemetry {
    /// Compile-time switch for the engine's telemetry call sites. Leave
    /// at the default `true` for real sinks; only a null sink should
    /// override it to `false`.
    const ENABLED: bool = true;

    /// A round span opens: round `round` is about to deliver and step.
    /// Sinks that track wall-clock time sample it here (the engine
    /// itself never reads the clock, so time stays out of the
    /// determinism contract).
    fn on_round_start(&mut self, round: usize) {
        let _ = round;
    }

    /// One message was delivered this round: `bits` payload bits from
    /// `from` to `to` over `edge`.
    fn on_delivery(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        let _ = (round, edge, from, to, bits);
    }

    /// The fault layer dropped an in-flight message on `edge` (a random
    /// drop, or a crashed endpoint) — the chaos event is attributed to
    /// the faulting edge.
    fn on_chaos_drop(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId) {
        let _ = (round, edge, from, to);
    }

    /// The fault layer corrupted a message on `edge` that was still
    /// delivered: `bits_lost` payload bits were flipped or truncated
    /// away. Always followed by the matching
    /// [`on_delivery`](Telemetry::on_delivery).
    fn on_chaos_corrupt(
        &mut self,
        round: usize,
        edge: EdgeId,
        from: NodeId,
        to: NodeId,
        bits_lost: u64,
    ) {
        let _ = (round, edge, from, to, bits_lost);
    }

    /// Node `node`'s scheduled crash-stop activated at the start of
    /// `round`.
    fn on_crash(&mut self, round: usize, node: NodeId) {
        let _ = (round, node);
    }

    /// The round span closes; `quiescent` is the outcome of the
    /// quiescence check after the compute phase (the run ends after the
    /// first `true`). `live_slots` is the number of directed edge slots
    /// whose **both** endpoints were still alive this round — `2·|E|`
    /// until the first crash-stop, shrinking as crashes remove incident
    /// slots — the denominator for utilisation accounting.
    fn on_round_end(&mut self, round: usize, quiescent: bool, live_slots: u64) {
        let _ = (round, quiescent, live_slots);
    }
}

/// The do-nothing sink installed on every unobserved run.
///
/// `ENABLED = false` makes the engine skip its telemetry blocks at
/// compile time, so `Simulator::run` and friends keep the PR 1 hot-path
/// profile bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    const ENABLED: bool = false;
}

/// A borrowed sink observes exactly as the sink itself — what lets a
/// caller keep ownership of the sinks it pairs up.
impl<T: Telemetry> Telemetry for &mut T {
    const ENABLED: bool = T::ENABLED;

    fn on_round_start(&mut self, round: usize) {
        (**self).on_round_start(round);
    }

    fn on_delivery(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        (**self).on_delivery(round, edge, from, to, bits);
    }

    fn on_chaos_drop(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId) {
        (**self).on_chaos_drop(round, edge, from, to);
    }

    fn on_chaos_corrupt(
        &mut self,
        round: usize,
        edge: EdgeId,
        from: NodeId,
        to: NodeId,
        bits_lost: u64,
    ) {
        (**self).on_chaos_corrupt(round, edge, from, to, bits_lost);
    }

    fn on_crash(&mut self, round: usize, node: NodeId) {
        (**self).on_crash(round, node);
    }

    fn on_round_end(&mut self, round: usize, quiescent: bool, live_slots: u64) {
        (**self).on_round_end(round, quiescent, live_slots);
    }
}

/// Two sinks riding one run: every event goes to `A`, then to `B`, so a
/// trace, a profile and a stream archive can all observe the same run
/// (nest pairs for more than two). The pair is enabled when either half
/// is.
impl<A: Telemetry, B: Telemetry> Telemetry for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_round_start(&mut self, round: usize) {
        self.0.on_round_start(round);
        self.1.on_round_start(round);
    }

    fn on_delivery(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        self.0.on_delivery(round, edge, from, to, bits);
        self.1.on_delivery(round, edge, from, to, bits);
    }

    fn on_chaos_drop(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId) {
        self.0.on_chaos_drop(round, edge, from, to);
        self.1.on_chaos_drop(round, edge, from, to);
    }

    fn on_chaos_corrupt(
        &mut self,
        round: usize,
        edge: EdgeId,
        from: NodeId,
        to: NodeId,
        bits_lost: u64,
    ) {
        self.0.on_chaos_corrupt(round, edge, from, to, bits_lost);
        self.1.on_chaos_corrupt(round, edge, from, to, bits_lost);
    }

    fn on_crash(&mut self, round: usize, node: NodeId) {
        self.0.on_crash(round, node);
        self.1.on_crash(round, node);
    }

    fn on_round_end(&mut self, round: usize, quiescent: bool, live_slots: u64) {
        self.0.on_round_end(round, quiescent, live_slots);
        self.1.on_round_end(round, quiescent, live_slots);
    }
}

/// Which side of the simulation-theorem network a node sits on — the
/// classification hook behind the highway-vs-path traffic split.
/// `qdc-simthm` maps track indices below Γ to [`Path`](NodeClass::Path)
/// and the rest to [`Highway`](NodeClass::Highway); any other network
/// may reuse the two labels for its own two-way split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeClass {
    /// A node on one of the Γ paths (or the "first" class generally).
    Path,
    /// A node on one of the `k` highways (or the "second" class).
    Highway,
}

/// The classical-vs-qubit bit split of one round (or a whole run) on a
/// quantum channel: how many qubits crossed the links, and how many
/// classical bits their teleportation consumed (2 per qubit under the
/// Appendix B accounting mode, 0 when qubits fly directly).
///
/// Only quantum-mode sinks ([`RoundProfiler::with_quantum`] /
/// [`StreamSink::with_quantum`](crate::StreamSink::with_quantum))
/// produce it; for purely classical runs the field is `None` and the
/// serialized archives carry no `qsplit` field at all, so every
/// pre-quantum archive stays byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QubitSplit {
    /// Classical bits charged for teleportation (always `2 ×
    /// qubit_bits` in teleport mode, 0 otherwise).
    pub classical_bits: u64,
    /// Qubits delivered over the links.
    pub qubit_bits: u64,
}

/// One round's folded observations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// The 1-based round number.
    pub round: usize,
    /// Messages delivered this round.
    pub messages: u64,
    /// Payload bits delivered this round.
    pub bits: u64,
    /// Messages the fault layer removed this round.
    pub dropped: u64,
    /// Payload bits flipped or truncated away this round.
    pub corrupted_bits: u64,
    /// Crash-stops that activated this round.
    pub crashes: u64,
    /// Whether the quiescence check after this round's compute phase
    /// came back positive (the run ends after the first `true`).
    pub quiescent: bool,
    /// Edge-utilisation histogram over the round's *live* directed edge
    /// slots (`2·|E|` minus slots incident to a crashed endpoint):
    /// `util[0]` counts live slots that delivered nothing, `util[q]` for
    /// `q = 1..=4` counts delivered messages whose size fell in the
    /// `q`-th quarter of the `B`-bit budget (a 0-bit message lands in
    /// `util[1]`, a full-budget message in `util[4]`).
    pub util: [u64; 5],
    /// Bits delivered between two [`Path`](NodeClass::Path) nodes
    /// (zero when the profiler has no classification).
    pub path_bits: u64,
    /// Bits delivered between two [`Highway`](NodeClass::Highway) nodes.
    pub highway_bits: u64,
    /// Bits delivered on edges joining the two classes.
    pub cross_bits: u64,
    /// The classical/qubit bit split — `Some` only when the sink runs
    /// in quantum mode, and omitted from the serialized form when
    /// `None` (classical archives carry no `qsplit` field).
    pub qsplit: Option<QubitSplit>,
    /// Wall-clock nanoseconds between span open and close, sampled by
    /// the profiler. **Outside the determinism contract**: the
    /// serializer omits it unless asked (`to_jsonl(true)`).
    pub wall_ns: u64,
}

/// Cumulative send/receive totals of one node across a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTotals {
    /// Messages this node sent that were delivered.
    pub sent_messages: u64,
    /// Payload bits this node sent that were delivered.
    pub sent_bits: u64,
    /// Messages delivered to this node.
    pub recv_messages: u64,
    /// Payload bits delivered to this node.
    pub recv_bits: u64,
}

/// Cumulative per-edge totals across a run, with chaos events
/// attributed to the edge they struck.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeTotals {
    /// Messages delivered over this edge (both directions).
    pub messages: u64,
    /// Payload bits delivered over this edge (both directions).
    pub bits: u64,
    /// Messages the fault layer removed on this edge.
    pub dropped: u64,
    /// Payload bits corrupted in flight on this edge.
    pub corrupted_bits: u64,
}

/// The complete folded observation of one run: header facts, the
/// [`RoundProfile`] series, and the cumulative per-node and per-edge
/// totals. Serializes as the `qdc-telemetry/v1` JSONL schema
/// ([`to_jsonl`](TelemetryReport::to_jsonl) /
/// [`from_jsonl`](TelemetryReport::from_jsonl)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Node count of the observed network.
    pub nodes: usize,
    /// Edge count of the observed network.
    pub edges: usize,
    /// The CONGEST budget `B` the utilisation histograms are scaled by.
    pub bandwidth: usize,
    /// Whether a [`NodeClass`] classification was installed (when
    /// `false`, every split field is zero by construction).
    pub classified: bool,
    /// One profile per executed round, in round order.
    pub rounds: Vec<RoundProfile>,
    /// Cumulative totals per node, indexed by node id.
    pub node_totals: Vec<NodeTotals>,
    /// Cumulative totals per edge, indexed by edge id.
    pub edge_totals: Vec<EdgeTotals>,
}

/// A malformed telemetry archive: which line failed and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was expected or found.
    pub msg: String,
}

impl std::fmt::Display for TelemetryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TelemetryParseError {}

impl From<LineError> for TelemetryParseError {
    fn from(e: LineError) -> Self {
        TelemetryParseError {
            line: e.line,
            msg: e.msg,
        }
    }
}

impl TelemetryReport {
    /// Total messages delivered, summed over the round series — equals
    /// `RunReport::messages_sent` of the observed run.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total payload bits delivered — equals `RunReport::bits_sent`.
    pub fn total_bits(&self) -> u64 {
        self.rounds.iter().map(|r| r.bits).sum()
    }

    /// Total messages dropped — equals `RunReport::messages_dropped`.
    pub fn total_dropped(&self) -> u64 {
        self.rounds.iter().map(|r| r.dropped).sum()
    }

    /// Total corrupted bits — equals `RunReport::bits_corrupted`.
    pub fn total_corrupted_bits(&self) -> u64 {
        self.rounds.iter().map(|r| r.corrupted_bits).sum()
    }

    /// The `k` busiest edges by cumulative delivered bits, as
    /// `(edge index, totals)` pairs — ties broken by ascending edge id,
    /// so the ranking is deterministic.
    pub fn hottest_edges(&self, k: usize) -> Vec<(usize, EdgeTotals)> {
        let mut ranked: Vec<(usize, EdgeTotals)> =
            self.edge_totals.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.bits.cmp(&a.1.bits).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Serializes the report as `qdc-telemetry/v1` JSONL: a schema
    /// header, one line per round, then the node and edge totals. The
    /// output always ends with a newline.
    ///
    /// With `with_wall = false` the volatile `wall_ns` field is omitted
    /// from every round line — that form is the one covered by the
    /// byte-identical determinism contract (and by the golden fixtures).
    pub fn to_jsonl(&self, with_wall: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"nodes\":{},\"edges\":{},\"bandwidth\":{},\"classified\":{},\"rounds\":{}}}",
            self.nodes,
            self.edges,
            self.bandwidth,
            u8::from(self.classified),
            self.rounds.len()
        );
        for r in &self.rounds {
            write_round_line(&mut out, r, with_wall);
        }
        out.push_str("{\"node_totals\":[");
        for (i, n) in self.node_totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{}]",
                n.sent_messages, n.sent_bits, n.recv_messages, n.recv_bits
            );
        }
        out.push_str("]}\n{\"edge_totals\":[");
        for (i, e) in self.edge_totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{}]",
                e.messages, e.bits, e.dropped, e.corrupted_bits
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a `qdc-telemetry/v1` archive produced by
    /// [`to_jsonl`](TelemetryReport::to_jsonl) (with or without the
    /// optional `wall_ns` fields). Insignificant whitespace is
    /// tolerated; a wrong schema tag, an unknown field, a non-integer
    /// value, an out-of-order round, a count that contradicts the
    /// header, or a missing final newline is rejected with a
    /// [`TelemetryParseError`]. On accepted input,
    /// `to_jsonl` ∘ `from_jsonl` is the identity up to whitespace and
    /// omitted `wall_ns` fields.
    pub fn from_jsonl(text: &str) -> Result<TelemetryReport, TelemetryParseError> {
        if text.is_empty() {
            return Err(TelemetryParseError {
                line: 1,
                msg: "empty telemetry archive".into(),
            });
        }
        if !text.ends_with('\n') {
            return Err(TelemetryParseError {
                line: text.lines().count(),
                msg: "missing final newline (to_jsonl always emits one)".into(),
            });
        }
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty());
        let (line_no, header) = lines.next().ok_or(TelemetryParseError {
            line: 1,
            msg: "empty telemetry archive".into(),
        })?;
        let mut c = Cursor::new(line_no, header);
        c.expect("{")?;
        c.expect(&format!("\"schema\":\"{TELEMETRY_SCHEMA}\""))?;
        c.expect(",")?;
        c.expect("\"nodes\"")?;
        c.expect(":")?;
        let nodes = c.parse_u64()? as usize;
        c.expect(",")?;
        c.expect("\"edges\"")?;
        c.expect(":")?;
        let edges = c.parse_u64()? as usize;
        c.expect(",")?;
        c.expect("\"bandwidth\"")?;
        c.expect(":")?;
        let bandwidth = c.parse_u64()? as usize;
        c.expect(",")?;
        c.expect("\"classified\"")?;
        c.expect(":")?;
        let classified = parse_flag(&mut c, "classified")?;
        c.expect(",")?;
        c.expect("\"rounds\"")?;
        c.expect(":")?;
        let round_count = c.parse_u64()? as usize;
        c.expect("}")?;
        c.end()?;

        let mut report = TelemetryReport {
            nodes,
            edges,
            bandwidth,
            classified,
            rounds: Vec::new(),
            node_totals: Vec::new(),
            edge_totals: Vec::new(),
        };
        let mut lines = lines.peekable();
        while report.rounds.len() < round_count {
            let (line_no, line) = lines.next().ok_or(TelemetryParseError {
                line: report.rounds.len() + 1,
                msg: format!(
                    "header promised {round_count} rounds, archive has {}",
                    report.rounds.len()
                ),
            })?;
            let mut c = Cursor::new(line_no, line);
            let p = parse_round_line(&mut c, report.rounds.len() + 1)?;
            report.rounds.push(p);
        }

        let (line_no, line) = lines.next().ok_or(TelemetryParseError {
            line: round_count + 2,
            msg: "missing node_totals line".into(),
        })?;
        let mut c = Cursor::new(line_no, line);
        c.expect("{")?;
        c.expect("\"node_totals\"")?;
        c.expect(":")?;
        c.expect("[")?;
        if c.peek() != Some(b']') {
            loop {
                c.expect("[")?;
                let sent_messages = c.parse_u64()?;
                c.expect(",")?;
                let sent_bits = c.parse_u64()?;
                c.expect(",")?;
                let recv_messages = c.parse_u64()?;
                c.expect(",")?;
                let recv_bits = c.parse_u64()?;
                c.expect("]")?;
                report.node_totals.push(NodeTotals {
                    sent_messages,
                    sent_bits,
                    recv_messages,
                    recv_bits,
                });
                if c.peek() == Some(b',') {
                    c.expect(",")?;
                } else {
                    break;
                }
            }
        }
        c.expect("]")?;
        c.expect("}")?;
        c.end()?;
        if report.node_totals.len() != nodes {
            return Err(TelemetryParseError {
                line: line_no,
                msg: format!(
                    "header promised {nodes} nodes, node_totals has {}",
                    report.node_totals.len()
                ),
            });
        }

        let (line_no, line) = lines.next().ok_or(TelemetryParseError {
            line: round_count + 3,
            msg: "missing edge_totals line".into(),
        })?;
        let mut c = Cursor::new(line_no, line);
        c.expect("{")?;
        c.expect("\"edge_totals\"")?;
        c.expect(":")?;
        c.expect("[")?;
        if c.peek() != Some(b']') {
            loop {
                c.expect("[")?;
                let messages = c.parse_u64()?;
                c.expect(",")?;
                let bits = c.parse_u64()?;
                c.expect(",")?;
                let dropped = c.parse_u64()?;
                c.expect(",")?;
                let corrupted_bits = c.parse_u64()?;
                c.expect("]")?;
                report.edge_totals.push(EdgeTotals {
                    messages,
                    bits,
                    dropped,
                    corrupted_bits,
                });
                if c.peek() == Some(b',') {
                    c.expect(",")?;
                } else {
                    break;
                }
            }
        }
        c.expect("]")?;
        c.expect("}")?;
        c.end()?;
        if report.edge_totals.len() != edges {
            return Err(TelemetryParseError {
                line: line_no,
                msg: format!(
                    "header promised {edges} edges, edge_totals has {}",
                    report.edge_totals.len()
                ),
            });
        }
        if let Some(&(line_no, _)) = lines.peek() {
            return Err(TelemetryParseError {
                line: line_no,
                msg: "unexpected content after edge_totals".into(),
            });
        }
        Ok(report)
    }
}

/// Parses a 0/1 flag field, rejecting any other integer.
pub(crate) fn parse_flag(c: &mut Cursor<'_>, what: &str) -> Result<bool, TelemetryParseError> {
    match c.parse_u64()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(c.err(format!("{what} must be 0 or 1, got {other}")).into()),
    }
}

/// Serializes one [`RoundProfile`] as the round-line grammar shared by
/// `qdc-telemetry/v1` and `qdc-telemetry-stream/v1` (one line, trailing
/// newline included; `wall_ns` only with `with_wall`).
pub(crate) fn write_round_line(out: &mut String, r: &RoundProfile, with_wall: bool) {
    let _ = write!(
        out,
        "{{\"round\":{},\"messages\":{},\"bits\":{},\"dropped\":{},\"corrupted\":{},\"crashes\":{},\"quiescent\":{},\"util\":[{},{},{},{},{}],\"split\":[{},{},{}]",
        r.round,
        r.messages,
        r.bits,
        r.dropped,
        r.corrupted_bits,
        r.crashes,
        u8::from(r.quiescent),
        r.util[0],
        r.util[1],
        r.util[2],
        r.util[3],
        r.util[4],
        r.path_bits,
        r.highway_bits,
        r.cross_bits,
    );
    if let Some(q) = r.qsplit {
        let _ = write!(out, ",\"qsplit\":[{},{}]", q.classical_bits, q.qubit_bits);
    }
    if with_wall {
        let _ = write!(out, ",\"wall_ns\":{}", r.wall_ns);
    }
    out.push_str("}\n");
}

/// Parses one round line (the grammar [`write_round_line`] emits, with
/// or without `wall_ns`), enforcing that its round number is exactly
/// `expected` — both archive formats demand contiguous 1-based rounds.
pub(crate) fn parse_round_line(
    c: &mut Cursor<'_>,
    expected: usize,
) -> Result<RoundProfile, TelemetryParseError> {
    c.expect("{")?;
    c.expect("\"round\"")?;
    c.expect(":")?;
    let round = c.parse_u64()? as usize;
    if round != expected {
        return Err(c
            .err(format!("round {round} out of order (expected {expected})"))
            .into());
    }
    let mut p = RoundProfile {
        round,
        ..RoundProfile::default()
    };
    c.expect(",")?;
    c.expect("\"messages\"")?;
    c.expect(":")?;
    p.messages = c.parse_u64()?;
    c.expect(",")?;
    c.expect("\"bits\"")?;
    c.expect(":")?;
    p.bits = c.parse_u64()?;
    c.expect(",")?;
    c.expect("\"dropped\"")?;
    c.expect(":")?;
    p.dropped = c.parse_u64()?;
    c.expect(",")?;
    c.expect("\"corrupted\"")?;
    c.expect(":")?;
    p.corrupted_bits = c.parse_u64()?;
    c.expect(",")?;
    c.expect("\"crashes\"")?;
    c.expect(":")?;
    p.crashes = c.parse_u64()?;
    c.expect(",")?;
    c.expect("\"quiescent\"")?;
    c.expect(":")?;
    p.quiescent = parse_flag(c, "quiescent")?;
    c.expect(",")?;
    c.expect("\"util\"")?;
    c.expect(":")?;
    c.expect("[")?;
    for (i, slot) in p.util.iter_mut().enumerate() {
        if i > 0 {
            c.expect(",")?;
        }
        *slot = c.parse_u64()?;
    }
    c.expect("]")?;
    c.expect(",")?;
    c.expect("\"split\"")?;
    c.expect(":")?;
    c.expect("[")?;
    p.path_bits = c.parse_u64()?;
    c.expect(",")?;
    p.highway_bits = c.parse_u64()?;
    c.expect(",")?;
    p.cross_bits = c.parse_u64()?;
    c.expect("]")?;
    // Two optional trailing fields, in fixed order: `qsplit` (emitted
    // only by quantum-mode sinks) then `wall_ns` (emitted only with
    // `with_wall`).
    if c.peek() == Some(b',') {
        c.expect(",")?;
        if c.peeks("\"qsplit\"") {
            c.expect("\"qsplit\"")?;
            c.expect(":")?;
            c.expect("[")?;
            let classical_bits = c.parse_u64()?;
            c.expect(",")?;
            let qubit_bits = c.parse_u64()?;
            c.expect("]")?;
            p.qsplit = Some(QubitSplit {
                classical_bits,
                qubit_bits,
            });
            if c.peek() == Some(b',') {
                c.expect(",")?;
                c.expect("\"wall_ns\"")?;
                c.expect(":")?;
                p.wall_ns = c.parse_u64()?;
            }
        } else {
            c.expect("\"wall_ns\"")?;
            c.expect(":")?;
            p.wall_ns = c.parse_u64()?;
        }
    }
    c.expect("}")?;
    c.end()?;
    Ok(p)
}

/// The per-round fold both folding sinks share: turns one round's events
/// into its [`RoundProfile`] — message and bit counts, fault counts, the
/// utilisation histogram against the `B`-bit budget, the
/// path/highway/cross split (with a [`NodeClass`] vector installed) and,
/// in quantum mode, the [`QubitSplit`]. [`RoundProfiler`] retains every
/// folded round; [`StreamSink`](crate::StreamSink) writes each one out
/// and keeps only running totals.
///
/// Wall time is stamped only when `sample_wall` is set: the profiler
/// always samples it, the stream sink only when asked for `wall_ns`.
#[derive(Clone, Debug)]
pub(crate) struct RoundFold {
    bandwidth: usize,
    pub(crate) classes: Option<Vec<NodeClass>>,
    /// Quantum accounting mode: `Some(teleport)` makes every round carry
    /// a [`QubitSplit`] — delivered bits count as qubits, and with
    /// `teleport` each qubit also charges 2 classical bits.
    pub(crate) quantum: Option<bool>,
    pub(crate) sample_wall: bool,
    round: RoundProfile,
    span_open: Option<Instant>,
}

impl RoundFold {
    pub(crate) fn new(bandwidth: usize, sample_wall: bool) -> Self {
        RoundFold {
            bandwidth,
            classes: None,
            quantum: None,
            sample_wall,
            round: RoundProfile::default(),
            span_open: None,
        }
    }

    /// The round being folded (complete once
    /// [`on_round_end`](Telemetry::on_round_end) has run).
    pub(crate) fn round(&self) -> &RoundProfile {
        &self.round
    }

    fn current(&mut self, round: usize) -> &mut RoundProfile {
        debug_assert_eq!(
            self.round.round, round,
            "telemetry events must arrive inside the round's span"
        );
        &mut self.round
    }
}

/// The quarter-of-budget bucket a delivered message falls in (1..=4;
/// bucket 0 is reserved for idle slots).
fn util_bucket(bits: usize, budget: usize) -> usize {
    if budget == 0 {
        return 4;
    }
    (4 * bits).div_ceil(budget).clamp(1, 4)
}

impl Telemetry for RoundFold {
    fn on_round_start(&mut self, round: usize) {
        self.round = RoundProfile {
            round,
            qsplit: self.quantum.map(|_| QubitSplit::default()),
            ..RoundProfile::default()
        };
        if self.sample_wall {
            self.span_open = Some(Instant::now());
        }
    }

    fn on_delivery(&mut self, round: usize, _edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        let bits64 = bits as u64;
        let bucket = util_bucket(bits, self.bandwidth);
        let split = self
            .classes
            .as_ref()
            .map(|classes| (classes[from.index()], classes[to.index()]));
        let quantum = self.quantum;
        let p = self.current(round);
        p.messages += 1;
        p.bits += bits64;
        p.util[bucket] += 1;
        if let Some(teleport) = quantum {
            let q = p.qsplit.get_or_insert_with(QubitSplit::default);
            q.qubit_bits += bits64;
            if teleport {
                q.classical_bits += 2 * bits64;
            }
        }
        match split {
            Some((NodeClass::Path, NodeClass::Path)) => p.path_bits += bits64,
            Some((NodeClass::Highway, NodeClass::Highway)) => p.highway_bits += bits64,
            Some(_) => p.cross_bits += bits64,
            None => {}
        }
    }

    fn on_chaos_drop(&mut self, round: usize, _edge: EdgeId, _from: NodeId, _to: NodeId) {
        self.current(round).dropped += 1;
    }

    fn on_chaos_corrupt(
        &mut self,
        round: usize,
        _edge: EdgeId,
        _from: NodeId,
        _to: NodeId,
        bits_lost: u64,
    ) {
        self.current(round).corrupted_bits += bits_lost;
    }

    fn on_crash(&mut self, round: usize, _node: NodeId) {
        self.current(round).crashes += 1;
    }

    fn on_round_end(&mut self, round: usize, quiescent: bool, live_slots: u64) {
        let wall_ns = self
            .span_open
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        let p = self.current(round);
        p.quiescent = quiescent;
        // Idle capacity = live directed slots minus the delivered ones;
        // slots incident to a crashed endpoint are dead, not idle, so
        // the histogram mass always sums to the live capacity.
        p.util[0] = live_slots.saturating_sub(p.messages);
        p.wall_ns = wall_ns;
    }
}

/// The exact folding sink: the shared per-round fold, plus the retained
/// [`RoundProfile`] series and the exact per-node and per-edge totals,
/// together a [`TelemetryReport`].
///
/// Construct it with the observed network's dimensions (the sink cannot
/// see the graph), optionally install a [`NodeClass`] vector via
/// [`with_classes`](RoundProfiler::with_classes), drive a run with
/// [`Simulator::run_observed`](crate::Simulator::run_observed),
/// [`Simulator::try_run_observed`](crate::Simulator::try_run_observed)
/// or [`Stepper::step_observed`](crate::Stepper::step_observed), then
/// call [`finish`](RoundProfiler::finish). It stamps every round's
/// `wall_ns`.
#[derive(Clone, Debug)]
pub struct RoundProfiler {
    fold: RoundFold,
    report: TelemetryReport,
}

impl RoundProfiler {
    /// A profiler for a network of `nodes` nodes and `edges` edges under
    /// CONGEST budget `bandwidth_bits`.
    pub fn new(nodes: usize, edges: usize, bandwidth_bits: usize) -> Self {
        RoundProfiler {
            fold: RoundFold::new(bandwidth_bits, true),
            report: TelemetryReport {
                nodes,
                edges,
                bandwidth: bandwidth_bits,
                classified: false,
                rounds: Vec::new(),
                node_totals: vec![NodeTotals::default(); nodes],
                edge_totals: vec![EdgeTotals::default(); edges],
            },
        }
    }

    /// Switches the profiler into quantum accounting: every round
    /// profile carries a [`QubitSplit`] where delivered payload counts
    /// as qubits, and with `teleport` each qubit additionally charges
    /// the 2 classical bits of its teleportation (Appendix B). Matches
    /// [`CongestConfig::quantum`](crate::CongestConfig::quantum) /
    /// [`quantum_teleport`](crate::CongestConfig::quantum_teleport)
    /// runs; leave off for classical channels so the serialized report
    /// carries no `qsplit` fields.
    pub fn with_quantum(mut self, teleport: bool) -> Self {
        self.fold.quantum = Some(teleport);
        self
    }

    /// Installs a node classification (index = node id), enabling the
    /// per-round path/highway/cross traffic split.
    ///
    /// # Panics
    ///
    /// Panics if `classes.len()` differs from the node count.
    pub fn with_classes(mut self, classes: Vec<NodeClass>) -> Self {
        assert_eq!(
            classes.len(),
            self.report.nodes,
            "classification must cover every node"
        );
        self.report.classified = true;
        self.fold.classes = Some(classes);
        self
    }

    /// Extracts the folded report.
    pub fn finish(self) -> TelemetryReport {
        self.report
    }
}

impl Telemetry for RoundProfiler {
    fn on_round_start(&mut self, round: usize) {
        debug_assert_eq!(round, self.report.rounds.len() + 1, "rounds are contiguous");
        self.fold.on_round_start(round);
    }

    fn on_delivery(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        self.fold.on_delivery(round, edge, from, to, bits);
        let n = &mut self.report.node_totals[from.index()];
        n.sent_messages += 1;
        n.sent_bits += bits as u64;
        let n = &mut self.report.node_totals[to.index()];
        n.recv_messages += 1;
        n.recv_bits += bits as u64;
        let e = &mut self.report.edge_totals[edge.index()];
        e.messages += 1;
        e.bits += bits as u64;
    }

    fn on_chaos_drop(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId) {
        self.fold.on_chaos_drop(round, edge, from, to);
        self.report.edge_totals[edge.index()].dropped += 1;
    }

    fn on_chaos_corrupt(
        &mut self,
        round: usize,
        edge: EdgeId,
        from: NodeId,
        to: NodeId,
        bits_lost: u64,
    ) {
        self.fold.on_chaos_corrupt(round, edge, from, to, bits_lost);
        self.report.edge_totals[edge.index()].corrupted_bits += bits_lost;
    }

    fn on_crash(&mut self, round: usize, node: NodeId) {
        self.fold.on_crash(round, node);
    }

    fn on_round_end(&mut self, round: usize, quiescent: bool, live_slots: u64) {
        self.fold.on_round_end(round, quiescent, live_slots);
        self.report.rounds.push(*self.fold.round());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        TelemetryReport {
            nodes: 3,
            edges: 2,
            bandwidth: 8,
            classified: true,
            rounds: vec![
                RoundProfile {
                    round: 1,
                    messages: 2,
                    bits: 10,
                    dropped: 1,
                    corrupted_bits: 0,
                    crashes: 0,
                    quiescent: false,
                    util: [2, 1, 0, 0, 1],
                    path_bits: 8,
                    highway_bits: 0,
                    cross_bits: 2,
                    qsplit: None,
                    wall_ns: 1_234,
                },
                RoundProfile {
                    round: 2,
                    messages: 0,
                    bits: 0,
                    dropped: 0,
                    corrupted_bits: 3,
                    crashes: 1,
                    quiescent: true,
                    util: [4, 0, 0, 0, 0],
                    path_bits: 0,
                    highway_bits: 0,
                    cross_bits: 0,
                    qsplit: None,
                    wall_ns: 567,
                },
            ],
            node_totals: vec![
                NodeTotals {
                    sent_messages: 2,
                    sent_bits: 10,
                    recv_messages: 0,
                    recv_bits: 0,
                },
                NodeTotals {
                    sent_messages: 0,
                    sent_bits: 0,
                    recv_messages: 1,
                    recv_bits: 8,
                },
                NodeTotals {
                    sent_messages: 0,
                    sent_bits: 0,
                    recv_messages: 1,
                    recv_bits: 2,
                },
            ],
            edge_totals: vec![
                EdgeTotals {
                    messages: 1,
                    bits: 8,
                    dropped: 1,
                    corrupted_bits: 0,
                },
                EdgeTotals {
                    messages: 1,
                    bits: 2,
                    dropped: 0,
                    corrupted_bits: 3,
                },
            ],
        }
    }

    #[test]
    fn telemetry_jsonl_round_trips_byte_exactly() {
        let report = sample_report();
        for with_wall in [false, true] {
            let text = report.to_jsonl(with_wall);
            let back = TelemetryReport::from_jsonl(&text).expect("parses");
            let again = back.to_jsonl(with_wall);
            assert_eq!(again, text);
            if with_wall {
                assert_eq!(back, report, "wall form preserves everything");
            } else {
                assert_eq!(back.total_bits(), report.total_bits());
                assert_eq!(back.rounds[0].wall_ns, 0, "wall omitted and zeroed");
            }
        }
    }

    #[test]
    fn telemetry_jsonl_empty_report_round_trips() {
        let report = TelemetryReport::default();
        let text = report.to_jsonl(false);
        let back = TelemetryReport::from_jsonl(&text).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn telemetry_jsonl_rejects_malformed_input() {
        let good = sample_report().to_jsonl(false);
        // Truncation anywhere must fail (including the lost newline).
        for cut in [good.len() - 1, good.len() / 2, 10] {
            assert!(
                TelemetryReport::from_jsonl(&good[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let reject = |text: &str, why: &str| {
            TelemetryReport::from_jsonl(text).expect_err(why);
        };
        reject("", "empty input");
        reject(
            &good.replace("qdc-telemetry/v1", "qdc-telemetry/v2"),
            "wrong version tag",
        );
        reject(&good.replace("\"bits\"", "\"bitz\""), "unknown field");
        reject(
            &good.replace("\"bits\":10", "\"bits\":10.5"),
            "non-integer value",
        );
        reject(
            &good.replace("\"quiescent\":1", "\"quiescent\":7"),
            "flag out of range",
        );
        reject(&(good.clone() + "{\"extra\":1}\n"), "trailing line");
    }

    /// The sample report with every round carrying a teleport-mode
    /// qubit split (2 classical bits per qubit).
    fn quantum_sample_report() -> TelemetryReport {
        let mut report = sample_report();
        for r in &mut report.rounds {
            r.qsplit = Some(QubitSplit {
                classical_bits: 2 * r.bits,
                qubit_bits: r.bits,
            });
        }
        report
    }

    #[test]
    fn telemetry_jsonl_round_trips_the_qubit_split() {
        let report = quantum_sample_report();
        for with_wall in [false, true] {
            let text = report.to_jsonl(with_wall);
            assert!(text.contains(",\"qsplit\":[20,10]"), "{text}");
            let back = TelemetryReport::from_jsonl(&text).expect("parses");
            assert_eq!(back.rounds[0].qsplit, report.rounds[0].qsplit);
            assert_eq!(back.to_jsonl(with_wall), text, "byte-exact round trip");
        }
        // A classical report never mentions qsplit at all.
        let classical = sample_report().to_jsonl(true);
        assert!(!classical.contains("qsplit"));
    }

    #[test]
    fn telemetry_jsonl_rejects_malformed_qsplit_fields() {
        let good = quantum_sample_report().to_jsonl(false);
        let reject = |text: &str, why: &str| {
            TelemetryReport::from_jsonl(text).expect_err(why);
        };
        reject(
            &good.replace("\"qsplit\":[20,10]", "\"qsplit\":[20]"),
            "one-element qsplit",
        );
        reject(
            &good.replace("\"qsplit\":[20,10]", "\"qsplit\":[20,10,3]"),
            "three-element qsplit",
        );
        reject(
            &good.replace("\"qsplit\":[20,10]", "\"qsplit\":[20,-10]"),
            "negative qsplit entry",
        );
        reject(
            &good.replace("\"qsplit\":[20,10]", "\"qsplit\":[020,10]"),
            "leading-zero qsplit entry",
        );
        reject(
            &good.replace("\"qsplit\":[20,10]", "\"qsplot\":[20,10]"),
            "misspelled qsplit key",
        );
        // qsplit must precede wall_ns, never follow it.
        let wall = quantum_sample_report().to_jsonl(true);
        reject(
            &wall.replace(
                "\"qsplit\":[20,10],\"wall_ns\":1234",
                "\"wall_ns\":1234,\"qsplit\":[20,10]",
            ),
            "qsplit after wall_ns",
        );
    }

    #[test]
    fn telemetry_profiler_quantum_mode_folds_the_split() {
        // Teleport accounting: 2 classical bits per qubit.
        let mut prof = RoundProfiler::new(2, 1, 8).with_quantum(true);
        prof.on_round_start(1);
        prof.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), 3);
        prof.on_delivery(1, EdgeId(0), NodeId(1), NodeId(0), 4);
        prof.on_round_end(1, true, 2);
        let report = prof.finish();
        assert_eq!(
            report.rounds[0].qsplit,
            Some(QubitSplit {
                classical_bits: 14,
                qubit_bits: 7,
            })
        );

        // Plain quantum mode: qubits fly directly, no classical charge.
        let mut prof = RoundProfiler::new(2, 1, 8).with_quantum(false);
        prof.on_round_start(1);
        prof.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), 5);
        prof.on_round_end(1, true, 2);
        let report = prof.finish();
        assert_eq!(
            report.rounds[0].qsplit,
            Some(QubitSplit {
                classical_bits: 0,
                qubit_bits: 5,
            })
        );

        // No quantum mode: the field stays absent, even for an empty
        // round (the serialized form is the pre-quantum byte stream).
        let mut prof = RoundProfiler::new(2, 1, 8);
        prof.on_round_start(1);
        prof.on_round_end(1, true, 2);
        assert_eq!(prof.finish().rounds[0].qsplit, None);
    }

    #[test]
    fn telemetry_flag_and_bucket_helpers() {
        assert_eq!(util_bucket(0, 8), 1);
        assert_eq!(util_bucket(1, 8), 1);
        assert_eq!(util_bucket(2, 8), 1);
        assert_eq!(util_bucket(3, 8), 2);
        assert_eq!(util_bucket(4, 8), 2);
        assert_eq!(util_bucket(5, 8), 3);
        assert_eq!(util_bucket(7, 8), 4);
        assert_eq!(util_bucket(8, 8), 4);
        assert_eq!(util_bucket(5, 0), 4);
    }

    #[test]
    fn telemetry_hottest_edges_ranking_is_deterministic() {
        let report = sample_report();
        let top = report.hottest_edges(5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 0, "edge 0 carried the most bits");
        assert_eq!(report.hottest_edges(1).len(), 1);
        // Ties break by ascending edge id.
        let mut tied = report.clone();
        tied.edge_totals[1].bits = tied.edge_totals[0].bits;
        assert_eq!(tied.hottest_edges(2)[0].0, 0);
    }

    #[test]
    fn telemetry_hottest_edges_breaks_every_tie_by_ascending_index() {
        // Regression pin for the tied-totals contract: equal bit totals
        // rank by ascending edge id, whatever order the edges appear in
        // — and with k cutting through a tie group, the *lowest* ids of
        // the group survive. The streaming top-K tracker
        // (`stream::TopK`) is held to this exact ordering.
        let totals = |bits| EdgeTotals {
            messages: 1,
            bits,
            dropped: 0,
            corrupted_bits: 0,
        };
        let report = TelemetryReport {
            edges: 6,
            edge_totals: vec![
                totals(5),
                totals(9),
                totals(5),
                totals(9),
                totals(0),
                totals(5),
            ],
            ..TelemetryReport::default()
        };
        let order: Vec<usize> = report.hottest_edges(6).iter().map(|e| e.0).collect();
        assert_eq!(order, vec![1, 3, 0, 2, 5, 4]);
        let cut: Vec<usize> = report.hottest_edges(3).iter().map(|e| e.0).collect();
        assert_eq!(cut, vec![1, 3, 0], "a tie cut by k keeps the lowest ids");
    }

    #[test]
    fn telemetry_null_sink_is_disabled_and_inert() {
        const { assert!(!NullTelemetry::ENABLED) };
        let mut sink = NullTelemetry;
        sink.on_round_start(1);
        sink.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), 4);
        sink.on_round_end(1, true, 4);
    }

    #[test]
    fn telemetry_profiler_folds_a_hand_driven_event_stream() {
        let mut prof = RoundProfiler::new(3, 2, 8).with_classes(vec![
            NodeClass::Path,
            NodeClass::Path,
            NodeClass::Highway,
        ]);
        prof.on_round_start(1);
        prof.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), 8);
        prof.on_chaos_corrupt(1, EdgeId(1), NodeId(1), NodeId(2), 3);
        prof.on_delivery(1, EdgeId(1), NodeId(1), NodeId(2), 2);
        prof.on_chaos_drop(1, EdgeId(0), NodeId(1), NodeId(0));
        prof.on_round_end(1, false, 4);
        prof.on_round_start(2);
        // Node 2's crash kills both directions of edge 1, so only the
        // two slots of edge 0 count as live capacity from round 2 on.
        prof.on_crash(2, NodeId(2));
        prof.on_round_end(2, true, 2);
        let report = prof.finish();
        assert_eq!(report.total_messages(), 2);
        assert_eq!(report.total_bits(), 10);
        assert_eq!(report.total_dropped(), 1);
        assert_eq!(report.total_corrupted_bits(), 3);
        assert_eq!(report.rounds[0].util, [2, 1, 0, 0, 1]);
        assert_eq!(
            report.rounds[1].util,
            [2, 0, 0, 0, 0],
            "crashed capacity is dead, not idle"
        );
        assert_eq!(report.rounds[0].path_bits, 8);
        assert_eq!(report.rounds[0].cross_bits, 2);
        assert_eq!(report.rounds[1].crashes, 1);
        assert!(report.rounds[1].quiescent);
        assert_eq!(report.node_totals[1].sent_bits, 2);
        assert_eq!(report.node_totals[1].recv_bits, 8);
        assert_eq!(report.edge_totals[0].dropped, 1);
        assert_eq!(report.edge_totals[1].corrupted_bits, 3);
    }
}
