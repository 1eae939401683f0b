//! Streaming telemetry: O(1)-memory sinks, mergeable sketches, and the
//! `qdc-telemetry-stream/v1` archive format.
//!
//! [`RoundProfiler`](crate::RoundProfiler) buffers the full per-round /
//! per-node / per-edge series — exact, but its memory grows linearly
//! with run length and network size. This module is the bounded-memory
//! counterpart for long-horizon runs and resident services:
//! [`StreamSink`] implements [`Telemetry`] with **O(1) state per
//! metric** — a fixed five-bucket B-utilisation histogram, running
//! scalar totals, and two fixed-capacity [`TopK`] trackers
//! (space-saving style, integer-only) for the hottest edges and nodes —
//! and emits each round's record the moment the round commits, as one
//! strict JSONL line pushed through a windowed flush buffer. Nothing is
//! ever buffered for the whole run: memory is independent of round
//! count.
//!
//! The archive grammar deliberately shares its round-line with
//! `qdc-telemetry/v1` (both formats are written and parsed by the same
//! helpers), so existing round-level tooling reads either:
//!
//! ```text
//! {"schema":"qdc-telemetry-stream/v1","nodes":N,"edges":E,"bandwidth":B,"classified":0|1,"top_k":K}
//! {"round":1,"messages":..,"bits":..,...,"util":[..],"split":[..]}
//! ...one line per round...
//! {"totals":{"rounds":R,...,"util":[..],"split":[..]},"top_edges":[[i,bits,msgs,err],..],"top_nodes":[..]}
//! ```
//!
//! Every piece of aggregate state is **mergeable**: [`StreamAggregate`]
//! (and [`TopK`] / [`StreamTotals`] underneath) carries a `merge`
//! operation so the archives of many points and runs compose. The merge
//! laws (DESIGN.md §4g): counters and histograms merge by `+`
//! (associative and commutative); `nodes`/`edges`/`top_k` merge by
//! `max`; `classified` by logical AND; `bandwidth` by "equal or poison"
//! (differing budgets merge to 0, and 0 absorbs). Top-K sketches merge
//! by per-key summation followed by the canonical (bits desc, index
//! asc) cut — always commutative, and **exact** (associative, equal to
//! the unbounded ranking) whenever the capacity is at least the number
//! of distinct keys observed. The engine emits telemetry events in one
//! fixed order on the thread that runs the point, so a `StreamSink`'s
//! bytes are identical at every campaign `--threads` count by
//! construction.
//!
//! Reading side: [`StreamReader`] is an incremental parser over any
//! [`BufRead`] — one line in memory at a time, strict to the byte, and
//! it cross-checks the footer's totals against the sum of the round
//! lines it saw, so a truncated or tampered archive cannot slip through.

use crate::json::Cursor;
use crate::telemetry::{
    parse_header, parse_round_line, write_round_line, NodeClass, QubitSplit, RoundFold,
    RoundProfile, Telemetry, TelemetryParseError,
};
use qdc_graph::{EdgeId, NodeId};
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// The schema tag on the header line of a `qdc-telemetry-stream/v1`
/// archive.
pub const STREAM_SCHEMA: &str = "qdc-telemetry-stream/v1";

/// Flush window of a [`StreamSink`]: buffered bytes are pushed to the
/// writer whenever the pending buffer reaches this size (and always at
/// [`finish`](StreamSink::finish)).
pub const STREAM_FLUSH_BYTES: usize = 32 * 1024;

/// The header line of a stream archive: the observed network's fixed
/// facts plus the sketch capacity. Unlike `qdc-telemetry/v1`, the
/// header carries no round count — a streaming writer does not know it
/// up front; the footer carries it instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamHeader {
    /// Node count of the observed network.
    pub nodes: usize,
    /// Edge count of the observed network.
    pub edges: usize,
    /// The CONGEST budget `B` the utilisation histogram is scaled by.
    pub bandwidth: usize,
    /// Whether a [`NodeClass`] classification was installed (when
    /// `false`, every split field is zero by construction).
    pub classified: bool,
    /// Capacity of the top-K sketches (and upper bound on the footer's
    /// `top_edges` / `top_nodes` lengths).
    pub top_k: usize,
}

/// Running totals over every committed round — the O(1) replacement for
/// the full [`RoundProfile`] series. All fields
/// merge by `+`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Rounds committed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bits delivered.
    pub bits: u64,
    /// Messages the fault layer removed.
    pub dropped: u64,
    /// Payload bits flipped or truncated away.
    pub corrupted_bits: u64,
    /// Crash-stops that activated.
    pub crashes: u64,
    /// Rounds whose quiescence check came back positive (0 or 1 for a
    /// single run; sums across merged runs).
    pub quiescent: u64,
    /// Cumulative edge-utilisation histogram (same bucket semantics as
    /// [`RoundProfile::util`](crate::RoundProfile::util), summed over
    /// rounds).
    pub util: [u64; 5],
    /// Bits delivered between two [`NodeClass::Path`] nodes.
    pub path_bits: u64,
    /// Bits delivered between two [`NodeClass::Highway`] nodes.
    pub highway_bits: u64,
    /// Bits delivered on edges joining the two classes.
    pub cross_bits: u64,
    /// Cumulative classical/qubit split — `Some` only when the sink ran
    /// in quantum mode ([`StreamSink::with_quantum`]), omitted from the
    /// footer otherwise. Merges as a componentwise `+` with `None` as
    /// the identity.
    pub qsplit: Option<QubitSplit>,
}

impl StreamTotals {
    /// Folds one committed round into the totals.
    ///
    /// # Panics
    ///
    /// Panics if a running total would overflow `u64`; the sink and the
    /// archive reader use [`try_absorb`](StreamTotals::try_absorb).
    pub fn absorb(&mut self, r: &RoundProfile) {
        self.try_absorb(r).expect("stream totals overflow u64");
    }

    /// Folds one committed round into the totals. A round that would
    /// push any running total past `u64::MAX` is refused whole: the
    /// totals stay as they were.
    pub fn try_absorb(&mut self, r: &RoundProfile) -> Result<(), TotalsOverflow> {
        self.merge(&StreamTotals {
            rounds: 1,
            messages: r.messages,
            bits: r.bits,
            dropped: r.dropped,
            corrupted_bits: r.corrupted_bits,
            crashes: r.crashes,
            quiescent: u64::from(r.quiescent),
            util: r.util,
            path_bits: r.path_bits,
            highway_bits: r.highway_bits,
            cross_bits: r.cross_bits,
            qsplit: r.qsplit,
        })
    }

    /// Sums `other` into `self` — associative and commutative (every
    /// field is a `+`-fold, with `None` as the `qsplit` identity). A
    /// merge that would push any total past `u64::MAX` is refused whole:
    /// the totals stay as they were.
    pub fn merge(&mut self, other: &StreamTotals) -> Result<(), TotalsOverflow> {
        let sum = |a: u64, b: u64| a.checked_add(b).ok_or(TotalsOverflow);
        let mut next = *self;
        next.rounds = sum(self.rounds, other.rounds)?;
        next.messages = sum(self.messages, other.messages)?;
        next.bits = sum(self.bits, other.bits)?;
        next.dropped = sum(self.dropped, other.dropped)?;
        next.corrupted_bits = sum(self.corrupted_bits, other.corrupted_bits)?;
        next.crashes = sum(self.crashes, other.crashes)?;
        next.quiescent = sum(self.quiescent, other.quiescent)?;
        for (slot, add) in next.util.iter_mut().zip(other.util) {
            *slot = sum(*slot, add)?;
        }
        next.path_bits = sum(self.path_bits, other.path_bits)?;
        next.highway_bits = sum(self.highway_bits, other.highway_bits)?;
        next.cross_bits = sum(self.cross_bits, other.cross_bits)?;
        if let Some(q) = other.qsplit {
            let t = next.qsplit.get_or_insert_with(QubitSplit::default);
            t.classical_bits = sum(t.classical_bits, q.classical_bits)?;
            t.qubit_bits = sum(t.qubit_bits, q.qubit_bits)?;
        }
        *self = next;
        Ok(())
    }
}

/// A checked fold refused its input ([`StreamTotals::try_absorb`], or a
/// merge of totals, sketches or aggregates): some total would exceed
/// `u64::MAX`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TotalsOverflow;

impl std::fmt::Display for TotalsOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a running total would overflow u64")
    }
}

impl std::error::Error for TotalsOverflow {}

/// One entry of a [`TopK`] sketch: a key (edge or node index) with its
/// tracked weight and the sketch's overestimation bound for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopEntry {
    /// The tracked edge or node index.
    pub index: usize,
    /// Tracked payload bits (the ranking weight). May overestimate the
    /// true total by at most `err`.
    pub bits: u64,
    /// Messages observed since the key (re-)entered the sketch.
    pub messages: u64,
    /// Overestimation bound inherited at (re-)insertion: `bits - err`
    /// is a certain lower bound on the key's true bit total. Zero
    /// whenever the sketch never evicted, i.e. the exact regime.
    pub err: u64,
}

/// A deterministic space-saving sketch of the `k` heaviest keys by
/// delivered bits.
///
/// Integer-only and fully deterministic: the ranking orders by (bits
/// desc, index asc) — the exact contract of
/// [`TelemetryReport::hottest_edges`](crate::TelemetryReport::hottest_edges)
/// — and eviction removes the (bits asc, index desc) minimum, so ties
/// always favour the lower index. With capacity ≥ distinct keys the
/// sketch never evicts and is exact (`err == 0` everywhere).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopK {
    cap: usize,
    entries: Vec<TopEntry>,
}

impl TopK {
    /// An empty sketch holding at most `cap` keys. It reserves nothing:
    /// entries grow as keys arrive, so its memory is bounded by the
    /// distinct keys it sees, never by a `cap` taken from a flag or an
    /// archive.
    pub fn new(cap: usize) -> TopK {
        TopK {
            cap,
            entries: Vec::new(),
        }
    }

    /// The sketch capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Observes `bits` payload bits (in `messages` messages) on `index`.
    pub fn observe(&mut self, index: usize, bits: u64, messages: u64) {
        if self.cap == 0 {
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.index == index) {
            e.bits += bits;
            e.messages += messages;
            return;
        }
        if self.entries.len() < self.cap {
            self.entries.push(TopEntry {
                index,
                bits,
                messages,
                err: 0,
            });
            return;
        }
        // Space-saving eviction: replace the minimum-weight entry (ties
        // evict the higher index, so lower indexes survive) and charge
        // its weight to the newcomer as the overestimation bound.
        let pos = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.bits.cmp(&b.bits).then(b.index.cmp(&a.index)))
            .map(|(i, _)| i)
            .expect("capacity > 0 implies entries");
        let floor = self.entries[pos].bits;
        self.entries[pos] = TopEntry {
            index,
            bits: floor + bits,
            messages,
            err: floor,
        };
    }

    /// The entries in canonical rank order: bits descending, ties by
    /// ascending index.
    pub fn ranked(&self) -> Vec<TopEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.index.cmp(&b.index)));
        out
    }

    /// Merges `other` into `self`: per-key sums of bits, messages and
    /// error bounds, then the canonical (bits desc, index asc) cut at
    /// the larger of the two capacities. Always commutative; exact (and
    /// associative) when the union of distinct keys fits the capacity.
    /// A merge that would push any sum past `u64::MAX` is refused whole:
    /// the sketch stays as it was.
    pub fn merge(&mut self, other: &TopK) -> Result<(), TotalsOverflow> {
        let sum = |a: u64, b: u64| a.checked_add(b).ok_or(TotalsOverflow);
        let mut entries = self.entries.clone();
        for e in &other.entries {
            if let Some(m) = entries.iter_mut().find(|m| m.index == e.index) {
                m.bits = sum(m.bits, e.bits)?;
                m.messages = sum(m.messages, e.messages)?;
                m.err = sum(m.err, e.err)?;
            } else {
                entries.push(*e);
            }
        }
        entries.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.index.cmp(&b.index)));
        self.cap = self.cap.max(other.cap);
        entries.truncate(self.cap);
        self.entries = entries;
        Ok(())
    }

    /// Rebuilds a sketch from ranked entries (a parsed footer array).
    fn from_ranked(cap: usize, entries: Vec<TopEntry>) -> TopK {
        TopK { cap, entries }
    }

    /// Puts the internal entry order into canonical rank order, so two
    /// sketches holding the same multiset compare equal (observation
    /// inserts in arrival order; parsed footers are already canonical).
    fn canonicalize(&mut self) {
        self.entries
            .sort_by(|a, b| b.bits.cmp(&a.bits).then(a.index.cmp(&b.index)));
    }
}

/// The complete O(1) aggregate state of one streamed run (or a merge of
/// several): the header facts, the running totals, and the two top-K
/// sketches. This is both what [`StreamSink::finish`] returns and what
/// the footer line serializes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamAggregate {
    /// The header facts (network shape, budget, sketch capacity).
    pub header: StreamHeader,
    /// Running totals over every round.
    pub totals: StreamTotals,
    /// The hottest edges by delivered bits.
    pub top_edges: TopK,
    /// The hottest nodes by touched bits (sent + received).
    pub top_nodes: TopK,
}

impl StreamAggregate {
    /// An empty aggregate for a network of `nodes`/`edges` under budget
    /// `bandwidth_bits`, with `top_k`-capacity sketches.
    pub fn new(nodes: usize, edges: usize, bandwidth_bits: usize, top_k: usize) -> StreamAggregate {
        StreamAggregate {
            header: StreamHeader {
                nodes,
                edges,
                bandwidth: bandwidth_bits,
                classified: false,
                top_k,
            },
            totals: StreamTotals::default(),
            top_edges: TopK::new(top_k),
            top_nodes: TopK::new(top_k),
        }
    }

    /// Merges `other` into `self` under the documented merge laws:
    /// totals by `+`, sketches by per-key sum and canonical cut,
    /// `nodes`/`edges`/`top_k` by `max`, `classified` by AND, and
    /// `bandwidth` by "equal or poison" (mixed budgets merge to 0, and
    /// 0 absorbs — a zero budget marks a composite of unlike runs).
    /// Commutative always; associative on the exact regime. A merge
    /// that would push any total or sketch weight past `u64::MAX` is
    /// refused whole: the aggregate stays as it was.
    pub fn merge(&mut self, other: &StreamAggregate) -> Result<(), TotalsOverflow> {
        let mut next = self.clone();
        next.totals.merge(&other.totals)?;
        next.top_edges.merge(&other.top_edges)?;
        next.top_nodes.merge(&other.top_nodes)?;
        let h = &mut next.header;
        h.nodes = h.nodes.max(other.header.nodes);
        h.edges = h.edges.max(other.header.edges);
        h.top_k = h.top_k.max(other.header.top_k);
        h.classified = h.classified && other.header.classified;
        if h.bandwidth != other.header.bandwidth {
            h.bandwidth = 0;
        }
        *self = next;
        Ok(())
    }
}

fn write_header_line(out: &mut String, h: &StreamHeader) {
    let _ = writeln!(
        out,
        "{{\"schema\":\"{STREAM_SCHEMA}\",\"nodes\":{},\"edges\":{},\"bandwidth\":{},\"classified\":{},\"top_k\":{}}}",
        h.nodes,
        h.edges,
        h.bandwidth,
        u8::from(h.classified),
        h.top_k
    );
}

fn write_top_array(out: &mut String, top: &TopK) {
    out.push('[');
    for (i, e) in top.ranked().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{},{}]", e.index, e.bits, e.messages, e.err);
    }
    out.push(']');
}

fn write_footer_line(out: &mut String, agg: &StreamAggregate) {
    let t = &agg.totals;
    let _ = write!(
        out,
        "{{\"totals\":{{\"rounds\":{},\"messages\":{},\"bits\":{},\"dropped\":{},\"corrupted\":{},\"crashes\":{},\"quiescent\":{},\"util\":[{},{},{},{},{}],\"split\":[{},{},{}]",
        t.rounds,
        t.messages,
        t.bits,
        t.dropped,
        t.corrupted_bits,
        t.crashes,
        t.quiescent,
        t.util[0],
        t.util[1],
        t.util[2],
        t.util[3],
        t.util[4],
        t.path_bits,
        t.highway_bits,
        t.cross_bits,
    );
    if let Some(q) = t.qsplit {
        let _ = write!(out, ",\"qsplit\":[{},{}]", q.classical_bits, q.qubit_bits);
    }
    out.push_str("},\"top_edges\":");
    write_top_array(out, &agg.top_edges);
    out.push_str(",\"top_nodes\":");
    write_top_array(out, &agg.top_nodes);
    out.push_str("}\n");
}

/// The O(1)-memory streaming telemetry sink: the per-round fold it
/// shares with [`RoundProfiler`](crate::RoundProfiler), plus the top-K
/// sketches and the line writer.
///
/// Construct with the observed network's dimensions, optionally install
/// a [`NodeClass`] vector ([`with_classes`](StreamSink::with_classes))
/// and wall-clock sampling ([`with_wall`](StreamSink::with_wall)),
/// drive an observed run, then call [`finish`](StreamSink::finish) —
/// which writes the footer, flushes, and returns the
/// [`StreamAggregate`].
///
/// Writing is incremental: the header goes out when the first round
/// opens, each round's line is appended the moment
/// [`on_round_end`](Telemetry::on_round_end) commits it, and the
/// pending buffer is pushed to the writer whenever it reaches the flush
/// window. A write error — or a running total overflowing `u64` — is
/// latched and re-raised by `finish` (the [`Telemetry`] methods cannot
/// fail); after an error the sink stops formatting output but keeps
/// folding aggregates.
#[derive(Debug)]
pub struct StreamSink<W: Write> {
    out: W,
    buf: String,
    flush_bytes: usize,
    header_written: bool,
    fold: RoundFold,
    agg: StreamAggregate,
    io_error: Option<std::io::Error>,
}

impl<W: Write> StreamSink<W> {
    /// A sink for a network of `nodes` nodes and `edges` edges under
    /// CONGEST budget `bandwidth_bits`, tracking the `top_k` hottest
    /// edges and nodes, writing the archive to `out`.
    pub fn new(out: W, nodes: usize, edges: usize, bandwidth_bits: usize, top_k: usize) -> Self {
        StreamSink {
            out,
            buf: String::new(),
            flush_bytes: STREAM_FLUSH_BYTES,
            header_written: false,
            fold: RoundFold::new(bandwidth_bits, false),
            agg: StreamAggregate::new(nodes, edges, bandwidth_bits, top_k),
            io_error: None,
        }
    }

    /// Installs a node classification (index = node id), enabling the
    /// per-round path/highway/cross traffic split.
    ///
    /// # Panics
    ///
    /// Panics if `classes.len()` differs from the node count, or if the
    /// header already went out (the run started).
    pub fn with_classes(mut self, classes: Vec<NodeClass>) -> Self {
        assert!(!self.header_written, "classification must precede the run");
        assert_eq!(
            classes.len(),
            self.agg.header.nodes,
            "classification must cover every node"
        );
        self.agg.header.classified = true;
        self.fold.classes = Some(classes);
        self
    }

    /// Switches the sink into quantum accounting, mirroring
    /// [`RoundProfiler::with_quantum`](crate::RoundProfiler::with_quantum):
    /// every round line (and the footer totals) carries a `qsplit`
    /// where delivered payload counts as qubits, and with `teleport`
    /// each qubit additionally charges the 2 classical bits of its
    /// teleportation (Appendix B). Leave off for classical channels so
    /// the archive stays byte-identical to the pre-quantum grammar.
    pub fn with_quantum(mut self, teleport: bool) -> Self {
        self.fold.quantum = Some(teleport);
        self
    }

    /// Enables the volatile `wall_ns` field on round lines. Off by
    /// default — the deterministic, byte-identical form.
    pub fn with_wall(mut self, with_wall: bool) -> Self {
        self.fold.sample_wall = with_wall;
        self
    }

    fn ensure_header(&mut self) {
        if !self.header_written {
            self.header_written = true;
            write_header_line(&mut self.buf, &self.agg.header);
        }
    }

    fn flush_buf(&mut self) {
        if self.io_error.is_some() {
            self.buf.clear();
            return;
        }
        if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
            self.io_error = Some(e);
        }
        self.buf.clear();
    }

    /// Writes the footer, flushes everything, and returns the final
    /// aggregate state — or the first write error the run hit.
    pub fn finish(mut self) -> std::io::Result<StreamAggregate> {
        self.ensure_header();
        self.agg.top_edges.canonicalize();
        self.agg.top_nodes.canonicalize();
        if self.io_error.is_none() {
            write_footer_line(&mut self.buf, &self.agg);
        }
        self.flush_buf();
        if let Some(e) = self.io_error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.agg)
    }
}

impl<W: Write> Telemetry for StreamSink<W> {
    fn on_round_start(&mut self, round: usize) {
        self.ensure_header();
        self.fold.on_round_start(round);
    }

    fn on_delivery(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId, bits: usize) {
        self.fold.on_delivery(round, edge, from, to, bits);
        let bits = bits as u64;
        self.agg.top_edges.observe(edge.index(), bits, 1);
        self.agg.top_nodes.observe(from.index(), bits, 1);
        self.agg.top_nodes.observe(to.index(), bits, 1);
    }

    fn on_chaos_drop(&mut self, round: usize, edge: EdgeId, from: NodeId, to: NodeId) {
        self.fold.on_chaos_drop(round, edge, from, to);
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
    }

    fn on_crash(&mut self, round: usize, node: NodeId) {
        self.fold.on_crash(round, node);
    }

    fn on_round_end(&mut self, round: usize, quiescent: bool, live_slots: u64) {
        self.fold.on_round_end(round, quiescent, live_slots);
        if let Err(e) = self.agg.totals.try_absorb(self.fold.round()) {
            self.io_error.get_or_insert(std::io::Error::other(e));
        }
        if self.io_error.is_none() {
            write_round_line(&mut self.buf, self.fold.round(), self.fold.sample_wall);
            if self.buf.len() >= self.flush_bytes {
                self.flush_buf();
            }
        }
    }
}

/// One record of a stream archive, in file order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamRecord {
    /// The header line (always first).
    Header(StreamHeader),
    /// One committed round.
    Round(RoundProfile),
    /// The footer line (always last): the run's aggregate state.
    Footer(Box<StreamAggregate>),
}

enum ReaderState {
    AtHeader,
    InRounds,
    Done,
}

/// An incremental, strict parser for `qdc-telemetry-stream/v1`
/// archives: one line in memory at a time, so arbitrarily long archives
/// parse in O(1) memory.
///
/// Beyond the per-line grammar, the reader enforces the archive
/// invariants: header first, contiguous 1-based rounds, exactly one
/// footer, nothing after it, a final newline, footer totals equal to
/// the sum of the round lines, and footer sketches in canonical order
/// within the header's capacity and index ranges.
pub struct StreamReader<R: BufRead> {
    input: R,
    line: String,
    line_no: usize,
    state: ReaderState,
    header: StreamHeader,
    running: StreamTotals,
}

impl<R: BufRead> StreamReader<R> {
    /// A reader over `input`, positioned before the header line.
    pub fn new(input: R) -> StreamReader<R> {
        StreamReader {
            input,
            line: String::new(),
            line_no: 0,
            state: ReaderState::AtHeader,
            header: StreamHeader::default(),
            running: StreamTotals::default(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> TelemetryParseError {
        TelemetryParseError {
            line: self.line_no.max(1),
            msg: msg.into(),
        }
    }

    /// The next record, or `Ok(None)` exactly once, at end of input
    /// after a valid footer. Every violation of the grammar or the
    /// archive invariants is a [`TelemetryParseError`].
    pub fn next_record(&mut self) -> Result<Option<StreamRecord>, TelemetryParseError> {
        loop {
            self.line.clear();
            self.line_no += 1;
            let n = self
                .input
                .read_line(&mut self.line)
                .map_err(|e| self.err(format!("read failed: {e}")))?;
            if n == 0 {
                return match self.state {
                    ReaderState::Done => Ok(None),
                    ReaderState::AtHeader => Err(self.err("empty stream archive")),
                    ReaderState::InRounds => Err(self.err(format!(
                        "archive ends after {} rounds without a footer",
                        self.running.rounds
                    ))),
                };
            }
            if !self.line.ends_with('\n') {
                return Err(self.err("missing final newline"));
            }
            if self.line.trim().is_empty() {
                continue;
            }
            let line = std::mem::take(&mut self.line);
            let result = self.parse_line(&line);
            self.line = line;
            return result.map(Some);
        }
    }

    fn parse_line(&mut self, line: &str) -> Result<StreamRecord, TelemetryParseError> {
        let mut c = Cursor::new(self.line_no, line);
        match self.state {
            ReaderState::AtHeader => {
                let (nodes, edges, bandwidth, classified) = parse_header(&mut c, STREAM_SCHEMA)?;
                c.expect(",")?;
                c.key("top_k")?;
                let top_k = c.parse_u64()? as usize;
                c.expect("}")?;
                c.end()?;
                self.header = StreamHeader {
                    nodes,
                    edges,
                    bandwidth,
                    classified,
                    top_k,
                };
                self.state = ReaderState::InRounds;
                Ok(StreamRecord::Header(self.header))
            }
            ReaderState::InRounds => {
                if c.opens_with("totals") {
                    let agg = self.parse_footer(&mut c)?;
                    self.state = ReaderState::Done;
                    Ok(StreamRecord::Footer(Box::new(agg)))
                } else {
                    let expected = (self.running.rounds + 1) as usize;
                    let p = parse_round_line(&mut c, expected)?;
                    self.running
                        .try_absorb(&p)
                        .map_err(|e| self.err(e.to_string()))?;
                    Ok(StreamRecord::Round(p))
                }
            }
            ReaderState::Done => Err(self.err("unexpected content after the footer")),
        }
    }

    fn parse_footer(&mut self, c: &mut Cursor<'_>) -> Result<StreamAggregate, TelemetryParseError> {
        c.expect("{")?;
        c.key("totals")?;
        c.expect("{")?;
        let mut t = StreamTotals::default();
        c.key("rounds")?;
        t.rounds = c.parse_u64()?;
        for (name, slot) in [
            ("messages", &mut t.messages),
            ("bits", &mut t.bits),
            ("dropped", &mut t.dropped),
            ("corrupted", &mut t.corrupted_bits),
            ("crashes", &mut t.crashes),
            ("quiescent", &mut t.quiescent),
        ] {
            c.expect(",")?;
            c.key(name)?;
            *slot = c.parse_u64()?;
        }
        c.expect(",")?;
        c.key("util")?;
        t.util = c.u64s()?;
        c.expect(",")?;
        c.key("split")?;
        [t.path_bits, t.highway_bits, t.cross_bits] = c.u64s()?;
        // Optional trailing `qsplit` (quantum-mode archives only).
        if c.opt_key("qsplit")? {
            let [classical_bits, qubit_bits] = c.u64s()?;
            t.qsplit = Some(QubitSplit {
                classical_bits,
                qubit_bits,
            });
        }
        c.expect("}")?;
        c.expect(",")?;
        c.key("top_edges")?;
        let top_edges = self.parse_top_array(c, self.header.edges, "top_edges")?;
        c.expect(",")?;
        c.key("top_nodes")?;
        let top_nodes = self.parse_top_array(c, self.header.nodes, "top_nodes")?;
        c.expect("}")?;
        c.end()?;
        if t != self.running {
            return Err(self.err(format!(
                "footer totals contradict the round lines (footer bits={}, summed bits={}; \
                 footer rounds={}, summed rounds={})",
                t.bits, self.running.bits, t.rounds, self.running.rounds
            )));
        }
        Ok(StreamAggregate {
            header: self.header,
            totals: t,
            top_edges: TopK::from_ranked(self.header.top_k, top_edges),
            top_nodes: TopK::from_ranked(self.header.top_k, top_nodes),
        })
    }

    fn parse_top_array(
        &self,
        c: &mut Cursor<'_>,
        index_bound: usize,
        what: &str,
    ) -> Result<Vec<TopEntry>, TelemetryParseError> {
        let mut out: Vec<TopEntry> = Vec::new();
        c.seq("[", "]", |c| {
            let [index, bits, messages, err] = c.u64s()?;
            let index = index as usize;
            if index >= index_bound {
                return Err(self.err(format!(
                    "{what} index {index} out of range (header bound {index_bound})"
                )));
            }
            if err > bits {
                return Err(self.err(format!(
                    "{what} entry {index}: error bound {err} exceeds weight {bits}"
                )));
            }
            if let Some(prev) = out.last() {
                let in_order = prev.bits > bits || (prev.bits == bits && prev.index < index);
                if !in_order {
                    return Err(self.err(format!(
                        "{what} not in canonical (bits desc, index asc) order at index {index}"
                    )));
                }
            }
            out.push(TopEntry {
                index,
                bits,
                messages,
                err,
            });
            Ok(())
        })?;
        if out.len() > self.header.top_k {
            return Err(self.err(format!(
                "{what} holds {} entries but the header capacity is {}",
                out.len(),
                self.header.top_k
            )));
        }
        Ok(out)
    }
}

/// Scans a whole archive and returns its final aggregate state — O(1)
/// memory in archive length (every record is validated on the way
/// through, including the footer-vs-rounds cross-check).
pub fn read_aggregate<R: BufRead>(input: R) -> Result<StreamAggregate, TelemetryParseError> {
    let mut reader = StreamReader::new(input);
    let mut footer: Option<StreamAggregate> = None;
    while let Some(record) = reader.next_record()? {
        if let StreamRecord::Footer(agg) = record {
            footer = Some(*agg);
        }
    }
    Ok(*footer
        .map(Box::new)
        .expect("reader yields a footer or errors"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a small two-round event stream (the same one the
    /// RoundProfiler unit test uses) into a sink over `buf`.
    fn drive(sink: &mut StreamSink<&mut Vec<u8>>) {
        sink.on_round_start(1);
        sink.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), 8);
        sink.on_chaos_corrupt(1, EdgeId(1), NodeId(1), NodeId(2), 3);
        sink.on_delivery(1, EdgeId(1), NodeId(1), NodeId(2), 2);
        sink.on_chaos_drop(1, EdgeId(0), NodeId(1), NodeId(0));
        sink.on_round_end(1, false, 4);
        sink.on_round_start(2);
        sink.on_crash(2, NodeId(2));
        sink.on_round_end(2, true, 2);
    }

    fn streamed() -> (String, StreamAggregate) {
        let mut buf = Vec::new();
        let mut sink = StreamSink::new(&mut buf, 3, 2, 8, 4).with_classes(vec![
            NodeClass::Path,
            NodeClass::Path,
            NodeClass::Highway,
        ]);
        drive(&mut sink);
        let agg = sink.finish().expect("in-memory write");
        (String::from_utf8(buf).expect("utf8"), agg)
    }

    #[test]
    fn stream_sink_folds_and_serializes_a_hand_driven_run() {
        let (text, agg) = streamed();
        assert_eq!(agg.totals.rounds, 2);
        assert_eq!(agg.totals.messages, 2);
        assert_eq!(agg.totals.bits, 10);
        assert_eq!(agg.totals.dropped, 1);
        assert_eq!(agg.totals.corrupted_bits, 3);
        assert_eq!(agg.totals.crashes, 1);
        assert_eq!(agg.totals.quiescent, 1);
        assert_eq!(agg.totals.util, [4, 1, 0, 0, 1]);
        assert_eq!(agg.totals.path_bits, 8);
        assert_eq!(agg.totals.cross_bits, 2);
        let edges = agg.top_edges.ranked();
        assert_eq!(edges.len(), 2);
        assert_eq!(
            (edges[0].index, edges[0].bits, edges[0].messages),
            (0, 8, 1)
        );
        assert_eq!((edges[1].index, edges[1].bits), (1, 2));
        let nodes = agg.top_nodes.ranked();
        // Node 1 touched 8 (recv) + 2 (sent) = 10 bits over 2 messages.
        assert_eq!(
            (nodes[0].index, nodes[0].bits, nodes[0].messages),
            (1, 10, 2)
        );
        assert_eq!((nodes[1].index, nodes[1].bits), (0, 8));
        assert_eq!((nodes[2].index, nodes[2].bits), (2, 2));
        // The archive has exactly header + 2 rounds + footer.
        assert_eq!(text.lines().count(), 4);
        let (mut header, mut footer) = (String::new(), String::new());
        write_header_line(&mut header, &agg.header);
        write_footer_line(&mut footer, &agg);
        assert!(text.starts_with(&header));
        assert!(text.ends_with(&footer));
    }

    #[test]
    fn stream_archive_round_trips_through_the_reader() {
        let (text, agg) = streamed();
        let back = read_aggregate(text.as_bytes()).expect("parses");
        assert_eq!(back, agg);
        // Record-by-record: header, both rounds, footer, then None.
        let mut r = StreamReader::new(text.as_bytes());
        assert_eq!(
            r.next_record().expect("header"),
            Some(StreamRecord::Header(agg.header))
        );
        let StreamRecord::Round(p1) = r.next_record().expect("round 1").expect("some") else {
            panic!("expected a round record");
        };
        assert_eq!((p1.round, p1.bits, p1.dropped), (1, 10, 1));
        let StreamRecord::Round(p2) = r.next_record().expect("round 2").expect("some") else {
            panic!("expected a round record");
        };
        assert_eq!((p2.round, p2.crashes, p2.quiescent), (2, 1, true));
        assert!(matches!(
            r.next_record().expect("footer").expect("some"),
            StreamRecord::Footer(_)
        ));
        assert_eq!(r.next_record().expect("eof"), None);
    }

    #[test]
    fn stream_reader_rejects_malformed_archives() {
        let (good, _) = streamed();
        let reject = |text: &str, why: &str| {
            read_aggregate(text.as_bytes()).expect_err(why);
        };
        reject("", "empty input");
        for cut in [good.len() - 1, good.len() / 2, 10] {
            reject(&good[..cut], "truncation must be rejected");
        }
        reject(
            &good.replace("qdc-telemetry-stream/v1", "qdc-telemetry-stream/v2"),
            "wrong version tag",
        );
        reject(&good.replace("\"bits\"", "\"bitz\""), "unknown field");
        reject(
            &good.replace("\"round\":2", "\"round\":3"),
            "out-of-order round",
        );
        // (`"rounds":2` pins the footer's totals object — round lines
        // spell the key `"round"`, so this replacement cannot touch the
        // matching per-round counters.)
        reject(
            &good.replace("\"rounds\":2,\"messages\":2", "\"rounds\":2,\"messages\":3"),
            "footer totals contradicting the round lines",
        );
        reject(&(good.clone() + "{\"extra\":1}\n"), "content after footer");
    }

    #[test]
    fn stream_sink_quantum_mode_round_trips_and_rejects_mutants() {
        // Teleport accounting: every round line and the footer carry a
        // qsplit of (2 × qubits, qubits).
        let mut buf = Vec::new();
        let mut sink = StreamSink::new(&mut buf, 3, 2, 8, 4).with_quantum(true);
        drive(&mut sink);
        let agg = sink.finish().expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(
            agg.totals.qsplit,
            Some(QubitSplit {
                classical_bits: 20,
                qubit_bits: 10,
            })
        );
        assert!(text.contains(",\"qsplit\":[20,10]"), "{text}");
        // Round 2 delivered nothing but still pins the mode explicitly.
        assert!(text.contains(",\"qsplit\":[0,0]"), "{text}");
        let back = read_aggregate(text.as_bytes()).expect("parses");
        assert_eq!(back, agg);
        let footer = |a: &StreamAggregate| {
            let mut out = String::new();
            write_footer_line(&mut out, a);
            out
        };
        assert_eq!(footer(&back), footer(&agg));

        // Mutating the footer's qsplit away from the round-line sum, or
        // malforming it, must be rejected.
        let reject = |t: &str, why: &str| {
            read_aggregate(t.as_bytes()).expect_err(why);
        };
        let footer_start = text.rfind("{\"totals\"").expect("footer");
        let broken = format!(
            "{}{}",
            &text[..footer_start],
            text[footer_start..].replace("\"qsplit\":[20,10]", "\"qsplit\":[20,11]")
        );
        reject(&broken, "footer qsplit contradicting the round lines");
        let dropped = format!(
            "{}{}",
            &text[..footer_start],
            text[footer_start..].replace(",\"qsplit\":[20,10]", "")
        );
        reject(&dropped, "footer missing the qsplit the rounds carried");
        reject(
            &text.replace("\"qsplit\":[20,10]", "\"qsplit\":[20,10,1]"),
            "three-element qsplit",
        );
        reject(
            &text.replace("\"qsplit\":[20,10]", "\"qsplit\":[20,1e1]"),
            "non-integer qsplit entry",
        );

        // A classical sink over the same events emits no qsplit at all.
        let mut classical = Vec::new();
        let mut sink = StreamSink::new(&mut classical, 3, 2, 8, 4);
        drive(&mut sink);
        let agg = sink.finish().expect("write");
        assert_eq!(agg.totals.qsplit, None);
        assert!(!String::from_utf8(classical)
            .expect("utf8")
            .contains("qsplit"));
    }

    #[test]
    fn stream_totals_qsplit_merges_with_none_identity() {
        let quantum = StreamTotals {
            qsplit: Some(QubitSplit {
                classical_bits: 6,
                qubit_bits: 3,
            }),
            ..StreamTotals::default()
        };
        let classical = StreamTotals::default();
        let mut a = quantum;
        a.merge(&classical).expect("no overflow");
        assert_eq!(a.qsplit, quantum.qsplit, "None is the right identity");
        let mut b = classical;
        b.merge(&quantum).expect("no overflow");
        assert_eq!(b.qsplit, quantum.qsplit, "None is the left identity");
        let mut doubled = quantum;
        doubled.merge(&quantum).expect("no overflow");
        assert_eq!(
            doubled.qsplit,
            Some(QubitSplit {
                classical_bits: 12,
                qubit_bits: 6,
            })
        );
    }

    #[test]
    fn stream_topk_evicts_deterministically_and_bounds_error() {
        let mut top = TopK::new(2);
        top.observe(5, 10, 1);
        top.observe(3, 10, 1);
        // Full; a new key evicts the (bits asc, index desc) minimum —
        // the tie at 10 evicts index 5, keeping the lower index 3.
        top.observe(7, 1, 1);
        let ranked = top.ranked();
        assert_eq!(ranked[0].index, 7, "newcomer inherits the evicted floor");
        assert_eq!((ranked[0].bits, ranked[0].err), (11, 10));
        assert_eq!((ranked[1].index, ranked[1].bits, ranked[1].err), (3, 10, 0));
        for e in &ranked {
            assert!(e.err <= e.bits, "bits - err is a certain lower bound");
        }
    }

    #[test]
    fn stream_topk_of_any_capacity_ranks_like_an_unbounded_sketch() {
        // A capacity bounds the sketch and reserves nothing, so a
        // `usize::MAX` capacity ranks what it saw, exactly.
        let mut huge = TopK::new(usize::MAX);
        let mut exact = TopK::new(4);
        for (index, bits) in [(3, 4), (1, 9), (3, 7), (6, 2), (0, 9), (6, 1)] {
            huge.observe(index, bits, 1);
            exact.observe(index, bits, 1);
        }
        assert_eq!(huge.capacity(), usize::MAX);
        assert_eq!(huge.ranked(), exact.ranked());
        assert!(huge.ranked().iter().all(|e| e.err == 0), "exact regime");
    }

    #[test]
    fn stream_topk_merge_is_commutative_and_exact_with_capacity() {
        let mut a = TopK::new(4);
        a.observe(0, 5, 1);
        a.observe(2, 9, 2);
        let mut b = TopK::new(4);
        b.observe(2, 1, 1);
        b.observe(3, 9, 1);
        let mut ab = a.clone();
        ab.merge(&b).expect("no overflow");
        let mut ba = b.clone();
        ba.merge(&a).expect("no overflow");
        assert_eq!(ab.ranked(), ba.ranked(), "merge is commutative");
        let ranked = ab.ranked();
        // Per-key sums: 2 → 10, 3 → 9, 0 → 5; canonical order.
        assert_eq!(
            ranked.iter().map(|e| (e.index, e.bits)).collect::<Vec<_>>(),
            vec![(2, 10), (3, 9), (0, 5)]
        );
        assert!(ranked.iter().all(|e| e.err == 0), "exact regime");
    }

    #[test]
    fn stream_aggregate_merge_laws_hold() {
        let (_, a) = streamed();
        let mut b = a.clone();
        b.header.bandwidth = 16;
        b.header.classified = false;
        let mut ab = a.clone();
        ab.merge(&b).expect("no overflow");
        let mut ba = b.clone();
        ba.merge(&a).expect("no overflow");
        assert_eq!(ab, ba, "aggregate merge is commutative");
        assert_eq!(ab.totals.bits, 2 * a.totals.bits);
        assert_eq!(ab.totals.rounds, 4);
        assert_eq!(ab.header.bandwidth, 0, "mixed budgets poison to 0");
        assert!(!ab.header.classified, "classified merges by AND");
        // Poison absorbs: merging the mixed composite with anything
        // keeps bandwidth 0.
        let mut abc = ab.clone();
        abc.merge(&a).expect("no overflow");
        assert_eq!(abc.header.bandwidth, 0);
        // Self-merge doubles every counter and keeps the header.
        let mut aa = a.clone();
        aa.merge(&a).expect("no overflow");
        assert_eq!(aa.header, a.header);
        assert_eq!(
            aa.top_edges.ranked()[0].bits,
            2 * a.top_edges.ranked()[0].bits
        );
    }

    #[test]
    fn stream_sink_flush_window_is_respected_and_zero_round_run_is_valid() {
        // A tiny flush window forces a write per round; the archive
        // bytes are identical to the default window's.
        let mut small = Vec::new();
        let mut sink = StreamSink::new(&mut small, 3, 2, 8, 4);
        sink.flush_bytes = 1;
        drive(&mut sink);
        sink.finish().expect("write");
        let mut big = Vec::new();
        let mut sink = StreamSink::new(&mut big, 3, 2, 8, 4);
        drive(&mut sink);
        sink.finish().expect("write");
        assert_eq!(small, big, "flush windowing never changes the bytes");

        // A run with zero rounds still yields a valid archive.
        let mut empty = Vec::new();
        let agg = StreamSink::new(&mut empty, 1, 0, 8, 2)
            .finish()
            .expect("write");
        assert_eq!(agg.totals.rounds, 0);
        let back = read_aggregate(empty.as_slice()).expect("parses");
        assert_eq!(back, agg);
    }

    #[test]
    fn stream_sink_latches_write_errors_until_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = StreamSink::new(Failing, 3, 2, 8, 4);
        sink.flush_bytes = 1;
        sink.on_round_start(1);
        sink.on_delivery(1, EdgeId(0), NodeId(0), NodeId(1), 8);
        sink.on_round_end(1, false, 4);
        let err = sink.finish().expect_err("the write error surfaces");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn stream_totals_refuse_overflow_and_the_sink_latches_it() {
        let round = RoundProfile {
            corrupted_bits: u64::MAX,
            ..RoundProfile::default()
        };
        let mut totals = StreamTotals::default();
        totals.try_absorb(&round).expect("one round fits");
        let before = totals;
        assert_eq!(totals.try_absorb(&round), Err(TotalsOverflow));
        assert_eq!(
            totals, before,
            "a refused round leaves the totals as they were"
        );

        let mut buf = Vec::new();
        let mut sink = StreamSink::new(&mut buf, 2, 1, 8, 4);
        for r in 1..=2 {
            sink.on_round_start(r);
            sink.on_chaos_corrupt(r, EdgeId(0), NodeId(0), NodeId(1), u64::MAX);
            sink.on_round_end(r, false, 2);
        }
        let err = sink.finish().expect_err("the overflow surfaces");
        assert_eq!(err.to_string(), TotalsOverflow.to_string());
    }

    #[test]
    fn stream_merges_refuse_overflow_whole() {
        let (_, mut a) = streamed();
        let heavy = TopEntry {
            index: 9,
            bits: u64::MAX - 1,
            messages: 1,
            err: 0,
        };
        a.top_edges
            .merge(&TopK::from_ranked(4, vec![heavy]))
            .expect("fits");
        // A self-merge would double the u64::MAX − 1 weight: refused, and
        // nothing else (totals, header) moves either.
        let mut aa = a.clone();
        assert_eq!(aa.merge(&a), Err(TotalsOverflow));
        assert_eq!(aa, a, "a refused merge leaves the aggregate as it was");
        let mut top = a.top_edges.clone();
        assert_eq!(top.merge(&a.top_edges), Err(TotalsOverflow));
        assert_eq!(top, a.top_edges);

        let mut totals = StreamTotals {
            bits: u64::MAX,
            ..StreamTotals::default()
        };
        let one = StreamTotals {
            rounds: 1,
            bits: 1,
            ..StreamTotals::default()
        };
        assert_eq!(totals.merge(&one), Err(TotalsOverflow));
        assert_eq!(
            totals.rounds, 0,
            "a refused merge leaves the totals as they were"
        );
    }
}
