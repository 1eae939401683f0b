//! Executing one expanded point and rendering its record.
//!
//! [`execute_point`] is the single dispatch site from a [`PointSpec`]
//! to the underlying experiment code: the simulation-theorem adapter
//! ([`qdc_simthm::campaign`]), the robust-broadcast chaos stack
//! ([`qdc_algos::flood`]), the gadget adapter plus distributed verifier
//! ([`qdc_gadgets::campaign`] + [`qdc_algos::verify`]), or the Example
//! 1.1 Disjointness protocols ([`qdc_algos::disjointness`], classical
//! streaming vs quantum Grover round trips). Every path folds into the
//! same [`PointRecord`] shape so the runner can aggregate without
//! caring which kind it ran.
//!
//! Record serialization keeps wall-clock time in a **separate, final**
//! field ([`record_json`] can omit it), because wall time is the one
//! thing that legitimately differs between runs of the same campaign —
//! everything else is covered by the byte-identical determinism
//! contract.

use crate::spec::{PointSpec, FAILURE_SCHEMA, POINT_SCHEMA};
use qdc_algos::disjointness::{
    classical_disjointness, classical_rounds, ex11_instance, quantum_disjointness, quantum_rounds,
    EX11_PROTOCOL_SEED,
};
use qdc_algos::flood::{chaos_round_budget, robust_broadcast};
use qdc_algos::verify::verify_hamiltonian_cycle;
use qdc_congest::json::{self, Json, Shape, Table};
use qdc_congest::{
    ChaosConfig, CongestConfig, NodeClass, NullTelemetry, RoundProfiler, RunOptions, RunReport,
    SimError, StreamSink, Telemetry, TelemetryReport, TotalsOverflow, TrafficTrace,
};
use qdc_graph::{generate, Graph, GraphBuilder, NodeId, Subgraph};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Quiescence slack on the classical streaming pipeline: the engine
/// spends up to two extra rounds draining the final chunk and observing
/// global termination beyond the closed-form `D + ⌈b/B⌉ − 1`.
const EX11_CLASSICAL_SLACK: u64 = 2;

/// How the runner observes each point of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No sink — the zero-overhead [`NullTelemetry`] hot path.
    #[default]
    Off,
    /// Exact buffered profiling: a [`RoundProfiler`] rides along and the
    /// full [`TelemetryReport`] comes back in the outcome (memory grows
    /// with run length; the committer archives it after the fact).
    Exact,
    /// O(1)-memory streaming: a [`StreamSink`] writes
    /// `<dir>/point_<i>.telemetry.jsonl` incrementally *during* the run
    /// — round lines land the moment each round commits, and memory
    /// stays flat however long the horizon. Gadget points compose
    /// several simulator stages with no single run to observe, so they
    /// produce no archive in this mode (exactly as they yield no report
    /// in [`Exact`](TelemetryMode::Exact) mode).
    Stream(StreamTelemetry),
}

/// Where and how [`TelemetryMode::Stream`] archives land.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamTelemetry {
    /// Directory receiving one `point_<i>.telemetry.jsonl` per point
    /// (created on demand).
    pub dir: String,
    /// Capacity of the hottest-edge / hottest-node sketches.
    pub top_k: usize,
    /// Include the volatile `wall_ns` fields (off is the byte-identical
    /// deterministic form).
    pub with_wall: bool,
}

impl StreamTelemetry {
    /// A deterministic stream config over `dir` with the default sketch
    /// capacity (16).
    pub fn new(dir: impl Into<String>) -> StreamTelemetry {
        StreamTelemetry {
            dir: dir.into(),
            top_k: 16,
            with_wall: false,
        }
    }
}

/// The archive path of point `index` under `dir`:
/// `<dir>/point_<index>.telemetry.jsonl`. Every writer of per-point
/// archives (the stream-mode writer, the exact-mode committer) names them
/// here, and every reader (the service's telemetry endpoints,
/// `profile query`) lists them with [`stream_telemetry_archives`], so
/// none of them cares which sink wrote a file.
pub fn stream_telemetry_path(dir: impl AsRef<Path>, index: usize) -> PathBuf {
    dir.as_ref().join(format!("point_{index}.telemetry.jsonl"))
}

/// Every per-point archive in `dir`, in point order. Files not named by
/// [`stream_telemetry_path`] (`.part` staging files included) are
/// skipped.
pub fn stream_telemetry_archives(dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
    let mut indexed = Vec::new();
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(i) = name
            .strip_prefix("point_")
            .and_then(|s| s.strip_suffix(".telemetry.jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            indexed.push((i, entry.path()));
        }
    }
    indexed.sort();
    Ok(indexed.into_iter().map(|(_, path)| path).collect())
}

/// The outcome of one executed point, in kind-independent shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointRecord {
    /// Index of the point in the expanded grid (stable across thread
    /// counts; names the record in the JSONL output).
    pub index: usize,
    /// Experiment kind: `"simthm"`, `"chaos"`, `"gadget"` or `"ex11"`.
    pub kind: &'static str,
    /// The grid coordinates of the point, as stable key/value pairs.
    pub params: Vec<(&'static str, Json)>,
    /// The run's traffic accounting.
    pub metrics: RunReport,
    /// The point's pass/fail verdict, when it has one: budget adherence
    /// (simthm), full dissemination (chaos), verifier-vs-prediction
    /// agreement (gadget). `None` when the run errored before deciding.
    pub accept: Option<bool>,
    /// Kind-specific extra observations (paid bits, informed counts, …).
    pub extra: Vec<(&'static str, Json)>,
    /// Retained for schema stability: the `qdc-campaign-point/v1` field
    /// order pins an `error` slot, but the supervised runner now turns
    /// every structured error into a [`PointFailure`] record instead, so
    /// freshly written records always carry `null` here. Historical
    /// archives (pre-failure-schema) may still carry strings.
    pub error: Option<String>,
    /// Wall-clock time of this point in microseconds. Excluded from the
    /// determinism contract.
    pub wall_us: u64,
}

/// Why one point produced no [`PointRecord`]: its (final) attempt
/// panicked, returned a structured [`SimError`], or exceeded the
/// supervised runner's wall-clock deadline. Serialized as one
/// `qdc-campaign-failure/v1` line in the campaign journal, occupying the
/// failed point's index slot so recovery stays index-contiguous.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Index of the point in the expanded grid.
    pub index: usize,
    /// Stable failure kind: one of [`SimError::kind`]'s names, or
    /// `"panic"` (unclassifiable panic payload), or `"deadline"`.
    pub kind: &'static str,
    /// Whether the supervised runner may retry this kind of failure
    /// (see [`SimError::is_retryable`]; panics and deadlines are treated
    /// as transient, protocol violations as permanent).
    pub retryable: bool,
    /// How many attempts were made before giving up (≥ 1; the first try
    /// counts).
    pub attempts: u32,
    /// Human-readable failure message (panic payload or error Display).
    pub error: String,
}

impl PointFailure {
    /// Wraps a structured simulator error from a fallible entry point.
    pub fn from_sim_error(index: usize, e: &SimError) -> PointFailure {
        PointFailure {
            index,
            kind: e.kind(),
            retryable: e.is_retryable(),
            attempts: 1,
            error: e.to_string(),
        }
    }

    /// Classifies a caught panic payload. Panicking simulator APIs emit
    /// exactly the [`SimError`] Display text, so those map back to the
    /// structured kind; anything else is a generic `"panic"`, treated as
    /// transient (a supervisor cannot prove a foreign panic is
    /// deterministic, and retrying a deterministic one only costs the
    /// bounded attempt budget).
    pub fn from_panic(index: usize, payload: &(dyn std::any::Any + Send)) -> PointFailure {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        let (kind, retryable) = SimError::classify_message(&message).unwrap_or(("panic", true));
        PointFailure {
            index,
            kind,
            retryable,
            attempts: 1,
            error: message,
        }
    }

    /// A point that exceeded the supervised runner's wall-clock deadline.
    pub fn deadline(index: usize, deadline_ms: u64) -> PointFailure {
        PointFailure {
            index,
            kind: "deadline",
            retryable: true,
            attempts: 1,
            error: format!("point exceeded the {deadline_ms} ms wall-clock deadline"),
        }
    }

    /// An archive write failed mid-point (streaming telemetry). Treated
    /// as transient: a full disk stays full, but the bounded attempt
    /// budget caps the cost, and the other classic causes (fd pressure,
    /// a racing cleanup) do clear.
    pub fn from_io(index: usize, e: &std::io::Error) -> PointFailure {
        PointFailure {
            index,
            kind: "io",
            retryable: true,
            attempts: 1,
            error: format!("telemetry archive write failed: {e}"),
        }
    }
}

/// Re-embeds a gadget instance as a subnetwork `M` of a connected host
/// network (the CONGEST setup Definition 3.3 assumes): the host carries
/// every instance edge plus a node path `0–1–…–(n−1)` so the verifier
/// can communicate even when `M` splits into several cycles.
fn embed_in_connected_host(instance: &Graph) -> (Graph, Subgraph) {
    let n = instance.node_count();
    let mut b = GraphBuilder::new(n);
    let m_edges: Vec<_> = instance
        .edges()
        .map(|e| {
            let (u, v) = instance.endpoints(e);
            b.add_edge(u, v)
        })
        .collect();
    for i in 0..n.saturating_sub(1) {
        b.add_edge_if_absent(NodeId(i as u32), NodeId(i as u32 + 1));
    }
    let host = b.build();
    let sub = Subgraph::from_edges(&host, m_edges);
    (host, sub)
}

/// Runs one point. Returns the record plus, for traced kinds, the
/// per-round traffic trace the point's audit ran on, or a structured
/// [`PointFailure`] when a fallible entry point errored (the supervised
/// runner decides whether to retry or journal it).
///
/// Wall time is measured here but stored separately so callers can
/// compare the deterministic parts of two runs byte for byte.
pub fn execute_point(
    index: usize,
    spec: &PointSpec,
) -> Result<(PointRecord, Option<TrafficTrace>), PointFailure> {
    let (record, trace, _) =
        execute_point_sharded(index, spec, &TelemetryMode::Off, RunOptions::default())?;
    Ok((record, trace))
}

/// [`execute_point`] under a [`TelemetryMode`] — the runner's entry
/// point. Observation never perturbs the record (modulo `wall_us`).
/// `_options` is unused: the parameter and its empty [`RunOptions`] type
/// stay only because the benchmark package (`perf/`) calls this function
/// with four arguments.
///
/// Simulation-theorem points are observed with the highway/path node
/// classification ([`qdc_simthm::campaign::highway_classes`]); chaos and
/// Example 1.1 points unclassified, quantum ones with the qubit split.
/// Gadget points compose several simulator stages with no single run to
/// observe, so they yield no telemetry in any mode. A broadcast that
/// errors yields a [`PointFailure`], and its partial telemetry is
/// discarded with the failed attempt.
pub fn execute_point_sharded(
    index: usize,
    spec: &PointSpec,
    telemetry: &TelemetryMode,
    _options: RunOptions,
) -> Result<(PointRecord, Option<TrafficTrace>, Option<TelemetryReport>), PointFailure> {
    match telemetry {
        TelemetryMode::Off => execute_observed(index, spec, &mut Unobserved),
        TelemetryMode::Exact => execute_observed(index, spec, &mut Profiled),
        TelemetryMode::Stream(cfg) => execute_observed(
            index,
            spec,
            &mut Streamed {
                cfg,
                staged: None,
                file: None,
            },
        ),
    }
}

/// What a telemetry sink must know about the run it is about to observe.
struct RunShape {
    nodes: usize,
    edges: usize,
    bandwidth: usize,
    /// `Some(teleport)` for qubit accounting on a quantum channel.
    quantum: Option<bool>,
    /// The node classification behind the traffic split, if any.
    classes: Option<Vec<NodeClass>>,
}

/// How one [`TelemetryMode`] observes a point's run: the sink it
/// installs once the run's shape is known, and what that sink leaves
/// behind.
trait Observer {
    /// The sink riding the run.
    type Sink: Telemetry;

    /// Readies the mode's output before the run (stream mode stages its
    /// archive file here, so an I/O error fails the point up front).
    fn prepare(&mut self, _index: usize) -> Result<(), PointFailure> {
        Ok(())
    }

    /// Builds the sink for a run of `shape`.
    fn install(&mut self, shape: RunShape) -> Self::Sink;

    /// Settles the sink after the run: `ok` keeps its output (committing
    /// a streamed archive, returning an exact profile), otherwise it is
    /// discarded. A mode that keeps no output has nothing to settle.
    fn finish(
        &mut self,
        _index: usize,
        _sink: Self::Sink,
        _ok: bool,
    ) -> Result<Option<TelemetryReport>, PointFailure> {
        Ok(None)
    }
}

/// [`TelemetryMode::Off`]: the zero-overhead [`NullTelemetry`] path.
struct Unobserved;

impl Observer for Unobserved {
    type Sink = NullTelemetry;

    fn install(&mut self, _shape: RunShape) -> NullTelemetry {
        NullTelemetry
    }
}

/// [`TelemetryMode::Exact`]: a [`RoundProfiler`] whose report comes back
/// for the committer to archive.
struct Profiled;

impl Observer for Profiled {
    type Sink = RoundProfiler;

    fn install(&mut self, shape: RunShape) -> RoundProfiler {
        let mut profiler = RoundProfiler::new(shape.nodes, shape.edges, shape.bandwidth);
        if let Some(teleport) = shape.quantum {
            profiler = profiler.with_quantum(teleport);
        }
        if let Some(classes) = shape.classes {
            profiler = profiler.with_classes(classes);
        }
        profiler
    }

    fn finish(
        &mut self,
        _index: usize,
        profiler: RoundProfiler,
        _ok: bool,
    ) -> Result<Option<TelemetryReport>, PointFailure> {
        Ok(Some(profiler.finish()))
    }
}

/// An archive written to a `.part` sibling of its final path and renamed
/// into place only once complete, so a file at the final path is always
/// a whole archive. Every archive writer goes through it: the
/// [`Streamed`] sink and the journaled runner's committer.
pub(crate) struct Staged {
    part: PathBuf,
    path: PathBuf,
}

impl Staged {
    /// Creates the staging file for the archive at `path`.
    pub(crate) fn create(path: PathBuf) -> std::io::Result<(Staged, std::fs::File)> {
        let mut part = path.clone().into_os_string();
        part.push(".part");
        let part = PathBuf::from(part);
        // Remove before create so an attempt abandoned by the deadline
        // watchdog keeps writing its own orphaned inode instead of
        // interleaving with ours.
        match std::fs::remove_file(&part) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let file = std::fs::File::create(&part)?;
        Ok((Staged { part, path }, file))
    }

    /// Renames the staging file into place if `written` (the outcome of
    /// writing it) is `Ok`; otherwise, or if the rename fails, removes it.
    pub(crate) fn commit(self, written: std::io::Result<()>) -> std::io::Result<()> {
        let result = written.and_then(|()| std::fs::rename(&self.part, &self.path));
        if result.is_err() {
            self.abandon();
        }
        result
    }

    /// Removes the staging file, committing nothing.
    pub(crate) fn abandon(&self) {
        let _ = std::fs::remove_file(&self.part);
    }

    /// Writes `bytes` as the whole archive at `path`.
    pub(crate) fn write(path: PathBuf, bytes: &[u8]) -> std::io::Result<()> {
        let (staged, mut file) = Staged::create(path)?;
        let written = file.write_all(bytes);
        drop(file);
        staged.commit(written)
    }
}

/// [`TelemetryMode::Stream`]: a [`StreamSink`] writing the point's
/// archive during the run into a [`Staged`] file, committed only after
/// the footer lands — a retried or failed attempt can never leave a
/// torn archive behind.
struct Streamed<'c> {
    cfg: &'c StreamTelemetry,
    /// The staged archive, once prepared.
    staged: Option<Staged>,
    /// The staging file, until `install` hands it to the sink.
    file: Option<std::fs::File>,
}

impl Observer for Streamed<'_> {
    type Sink = StreamSink<std::fs::File>;

    /// Creates the staging file (and the directory, on demand).
    fn prepare(&mut self, index: usize) -> Result<(), PointFailure> {
        let (staged, file) = std::fs::create_dir_all(&self.cfg.dir)
            .and_then(|()| Staged::create(stream_telemetry_path(&self.cfg.dir, index)))
            .map_err(|e| PointFailure::from_io(index, &e))?;
        self.staged = Some(staged);
        self.file = Some(file);
        Ok(())
    }

    fn install(&mut self, shape: RunShape) -> StreamSink<std::fs::File> {
        let file = self.file.take().expect("prepared before install");
        let mut sink = StreamSink::new(
            file,
            shape.nodes,
            shape.edges,
            shape.bandwidth,
            self.cfg.top_k,
        )
        .with_wall(self.cfg.with_wall);
        if let Some(teleport) = shape.quantum {
            sink = sink.with_quantum(teleport);
        }
        if let Some(classes) = shape.classes {
            sink = sink.with_classes(classes);
        }
        sink
    }

    /// Writes the footer and renames the archive into place, or drops
    /// the staging file after a failed run.
    fn finish(
        &mut self,
        index: usize,
        sink: StreamSink<std::fs::File>,
        ok: bool,
    ) -> Result<Option<TelemetryReport>, PointFailure> {
        let staged = self.staged.take().expect("prepared before finish");
        if ok {
            staged
                .commit(sink.finish().map(drop))
                .map_err(|e| PointFailure::from_io(index, &e))?;
        } else {
            staged.abandon();
        }
        Ok(None)
    }
}

/// Runs one point under `observer`'s sink: each kind's experiment,
/// written once for every telemetry mode.
fn execute_observed<O: Observer>(
    index: usize,
    spec: &PointSpec,
    observer: &mut O,
) -> Result<(PointRecord, Option<TrafficTrace>, Option<TelemetryReport>), PointFailure> {
    let start = std::time::Instant::now();
    let record = |kind, params, metrics, accept, extra| PointRecord {
        index,
        kind,
        params,
        metrics,
        accept,
        extra,
        error: None,
        wall_us: 0,
    };
    let (mut record, trace, telemetry) = match spec {
        PointSpec::SimThm(p) => {
            observer.prepare(index)?;
            let (out, sink) = qdc_simthm::campaign::run_point(p, |net| {
                observer.install(RunShape {
                    nodes: net.graph().node_count(),
                    edges: net.graph().edge_count(),
                    bandwidth: p.bandwidth,
                    quantum: None,
                    // A disabled sink sees no events: skip the classification.
                    classes: O::Sink::ENABLED.then(|| qdc_simthm::campaign::highway_classes(net)),
                })
            });
            let telemetry = observer.finish(index, sink, true)?;
            let record = record(
                "simthm",
                vec![
                    ("gamma", Json::Num(p.gamma as u64)),
                    ("l", Json::Num(p.l as u64)),
                    ("bandwidth", Json::Num(p.bandwidth as u64)),
                ],
                out.metrics,
                Some(out.within_budget),
                vec![
                    ("node_count", Json::Num(out.node_count)),
                    ("highways", Json::Num(out.highways)),
                    ("horizon", Json::Num(out.horizon)),
                    ("paid_bits", Json::Num(out.paid_bits)),
                    ("max_paid_per_round", Json::Num(out.max_paid_per_round)),
                    ("per_round_budget", Json::Num(out.per_round_budget)),
                ],
            );
            (record, Some(out.trace), telemetry)
        }
        PointSpec::Chaos {
            nodes,
            extra_edges,
            drop_pm,
            seed,
            bandwidth,
        } => {
            let graph = generate::random_connected(*nodes, *extra_edges, *seed);
            let drop_prob = f64::from(*drop_pm) / 1000.0;
            let give_up = chaos_round_budget(*nodes, drop_prob);
            let chaos = ChaosConfig {
                seed: *seed,
                drop_prob,
                crash_schedule: Vec::new(),
                corrupt_prob: 0.0,
                max_rounds_watchdog: give_up + 5,
            };
            let cfg = CongestConfig::classical(*bandwidth);
            observer.prepare(index)?;
            let mut sink = observer.install(RunShape {
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                bandwidth: *bandwidth,
                quantum: None,
                classes: None,
            });
            let result = robust_broadcast(&graph, cfg, NodeId(0), &chaos, give_up, &mut sink);
            // A failed attempt keeps no telemetry (a streamed archive's
            // `.part` staging file is dropped with it), and its
            // structured simulator error (a watchdog trip under
            // pathological loss, say) is a *failure*, not a result: the
            // supervised runner journals it as a
            // `qdc-campaign-failure/v1` record and the rest of the grid
            // keeps running.
            let telemetry = observer.finish(index, sink, result.is_ok())?;
            let out = result.map_err(|e| PointFailure::from_sim_error(index, &e))?;
            let informed = out.informed.iter().filter(|&&i| i).count() as u64;
            let record = record(
                "chaos",
                vec![
                    ("nodes", Json::Num(*nodes as u64)),
                    ("extra_edges", Json::Num(*extra_edges as u64)),
                    ("drop_pm", Json::Num(u64::from(*drop_pm))),
                    ("seed", Json::Num(*seed)),
                    ("bandwidth", Json::Num(*bandwidth as u64)),
                ],
                out.report,
                Some(informed == *nodes as u64),
                vec![
                    ("informed", Json::Num(informed)),
                    ("give_up", Json::Num(give_up as u64)),
                ],
            );
            (record, None, telemetry)
        }
        PointSpec::Gadget { point, bandwidth } => {
            let exp = qdc_gadgets::campaign::run_point(point);
            let (host, sub) = embed_in_connected_host(exp.instance.graph());
            let run = verify_hamiltonian_cycle(&host, CongestConfig::classical(*bandwidth), &sub);
            // The verifier composes several complete simulator stages;
            // its Ledger is the natural metrics source (no single trace
            // exists, so max_bits_per_round is not defined here).
            let metrics = RunReport {
                rounds: run.ledger.rounds,
                completed: true,
                messages_sent: run.ledger.messages,
                bits_sent: run.ledger.bits,
                ..RunReport::default()
            };
            let record = record(
                "gadget",
                vec![
                    ("family", Json::Str(point.family.name().to_string())),
                    ("bits", Json::Num(point.bits as u64)),
                    ("seed", Json::Num(point.seed)),
                    ("bandwidth", Json::Num(*bandwidth as u64)),
                ],
                metrics,
                Some(run.accept == exp.expected_ham && exp.prediction_holds),
                vec![
                    ("expected_ham", Json::Bool(exp.expected_ham)),
                    ("verifier_accept", Json::Bool(run.accept)),
                    ("predicted_cycles", Json::Num(exp.predicted_cycles)),
                    ("stages", Json::Num(run.ledger.stages as u64)),
                ],
            );
            (record, None, None)
        }
        PointSpec::Ex11 {
            bits,
            bandwidth,
            distance,
            quantum,
        } => {
            // An intersection is planted for b ≥ 256, so both verdicts
            // occur across the grid.
            let (x, y, planted) = ex11_instance(*bits);
            observer.prepare(index)?;
            // Path topology: D hops, D + 1 nodes, D edges. Qubits fly
            // directly on the quantum channel (no teleportation charge).
            let mut sink = observer.install(RunShape {
                nodes: *distance + 1,
                edges: *distance,
                bandwidth: *bandwidth,
                quantum: quantum.then_some(false),
                classes: None,
            });
            let (run, report) = if *quantum {
                let cfg = CongestConfig::quantum(*bandwidth);
                let seed = EX11_PROTOCOL_SEED;
                quantum_disjointness(&x, &y, *distance, cfg, seed, &mut sink)
            } else {
                let cfg = CongestConfig::classical(*bandwidth);
                classical_disjointness(&x, &y, *distance, cfg, &mut sink)
            };
            let telemetry = observer.finish(index, sink, true)?;
            // The measured curve must match the closed form: the quantum
            // bounce is exact (2·D rounds per query); the classical
            // pipeline may spend bounded quiescence slack on top.
            let predicted = if *quantum {
                quantum_rounds(*bits, *distance)
            } else {
                classical_rounds(*bits, *distance, *bandwidth)
            } as u64;
            let rounds = report.rounds as u64;
            let rounds_ok = if *quantum {
                rounds == predicted
            } else {
                (predicted..=predicted + EX11_CLASSICAL_SLACK).contains(&rounds)
            };
            let mut extra = vec![
                ("predicted_rounds", Json::Num(predicted)),
                ("planted", Json::Bool(planted)),
            ];
            if *quantum {
                extra.push(("queries", Json::Num(predicted / (2 * *distance as u64))));
                extra.push((
                    "width",
                    Json::Num(qdc_algos::widths::bits_for(bits.saturating_sub(1) as u64) as u64),
                ));
            }
            let record = record(
                "ex11",
                vec![
                    ("bits", Json::Num(*bits as u64)),
                    ("bandwidth", Json::Num(*bandwidth as u64)),
                    ("distance", Json::Num(*distance as u64)),
                    (
                        "channel",
                        Json::Str(if *quantum { "quantum" } else { "classical" }.to_string()),
                    ),
                ],
                report,
                Some(run.disjoint != planted && rounds_ok),
                extra,
            );
            (record, None, telemetry)
        }
    };
    record.wall_us = start.elapsed().as_micros() as u64;
    Ok((record, trace, telemetry))
}

/// Renders one failure as a single `qdc-campaign-failure/v1` JSON
/// document with a stable field order. Failure records carry no
/// wall-clock field at all — every field is deterministic under the
/// determinism contract (`attempts` only varies when deadlines, which
/// are wall-clock by nature, are in play).
pub fn failure_json(campaign: &str, failure: &PointFailure) -> String {
    Json::obj([
        ("schema", Json::Str(FAILURE_SCHEMA.to_string())),
        ("campaign", Json::Str(campaign.to_string())),
        ("point", Json::Num(failure.index as u64)),
        ("kind", Json::Str(failure.kind.to_string())),
        ("retryable", Json::Bool(failure.retryable)),
        ("attempts", Json::Num(u64::from(failure.attempts))),
        ("error", Json::Str(failure.error.clone())),
    ])
    .to_json()
}

/// The `qdc-campaign-failure/v1` key table: every field required, a
/// non-empty kind and an attempt count of at least one (the first try
/// counts).
pub(crate) const FAILURE_TABLE: Table = Table {
    required: &[
        ("schema", Shape::Tag(FAILURE_SCHEMA)),
        ("campaign", Shape::Str),
        ("point", Shape::U64),
        ("kind", Shape::NonEmptyStr),
        ("retryable", Shape::Bool),
        ("attempts", Shape::U64In(1, u64::MAX)),
        ("error", Shape::Str),
    ],
    optional: &[],
};

/// Strict conformance check for one `qdc-campaign-failure/v1` line
/// against `FAILURE_TABLE`: the exact field list in the exact order
/// and every value's shape.
pub fn validate_failure_line(line: &str) -> Result<(), String> {
    json::check(&json::parse(line)?, &FAILURE_TABLE)
}

fn metrics_json(m: &RunReport) -> Json {
    Json::obj([
        ("rounds", Json::Num(m.rounds as u64)),
        ("completed", Json::Num(u64::from(m.completed))),
        ("messages_sent", Json::Num(m.messages_sent)),
        ("bits_sent", Json::Num(m.bits_sent)),
        ("max_bits_per_round", Json::Num(m.max_bits_per_round)),
        ("messages_dropped", Json::Num(m.messages_dropped)),
        ("nodes_crashed", Json::Num(m.nodes_crashed)),
        ("bits_corrupted", Json::Num(m.bits_corrupted)),
    ])
}

/// Renders one record as a single JSON document with a stable field
/// order. With `with_wall = false` the volatile `wall_us` field is
/// omitted — that form is the one covered by the byte-identical
/// determinism contract.
pub fn record_json(campaign: &str, rec: &PointRecord, with_wall: bool) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::Str(POINT_SCHEMA.to_string())),
        ("campaign".to_string(), Json::Str(campaign.to_string())),
        ("point".to_string(), Json::Num(rec.index as u64)),
        ("kind".to_string(), Json::Str(rec.kind.to_string())),
        (
            "params".to_string(),
            Json::Obj(
                rec.params
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), metrics_json(&rec.metrics)),
        (
            "accept".to_string(),
            match rec.accept {
                Some(b) => Json::Bool(b),
                None => Json::Null,
            },
        ),
        (
            "extra".to_string(),
            Json::Obj(
                rec.extra
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        (
            "error".to_string(),
            match &rec.error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
    ];
    if with_wall {
        fields.push(("wall_us".to_string(), Json::Num(rec.wall_us)));
    }
    Json::Obj(fields).to_json()
}

/// Reads back the `metrics` object of a record that passed
/// `RECORD_TABLE`. A round count past `usize` is refused like any other
/// total past its type.
pub(crate) fn metrics_from_json(m: &Json) -> Result<RunReport, TotalsOverflow> {
    let get = |k: &str| m.get(k).and_then(Json::as_u64).expect("validated above");
    Ok(RunReport {
        rounds: usize::try_from(get("rounds")).map_err(|_| TotalsOverflow)?,
        completed: get("completed") == 1,
        messages_sent: get("messages_sent"),
        bits_sent: get("bits_sent"),
        max_bits_per_round: get("max_bits_per_round"),
        messages_dropped: get("messages_dropped"),
        nodes_crashed: get("nodes_crashed"),
        bits_corrupted: get("bits_corrupted"),
    })
}

const METRICS_TABLE: Table = Table {
    required: &[
        ("rounds", Shape::U64),
        ("completed", Shape::U64In(0, 1)),
        ("messages_sent", Shape::U64),
        ("bits_sent", Shape::U64),
        ("max_bits_per_round", Shape::U64),
        ("messages_dropped", Shape::U64),
        ("nodes_crashed", Shape::U64),
        ("bits_corrupted", Shape::U64),
    ],
    optional: &[],
};

/// The `qdc-campaign-point/v1` key table: `wall_us` is the only
/// optional, trailing field; `params` and `extra` are open objects,
/// `metrics` is integer-only, and `accept`/`error` may be null.
pub(crate) const RECORD_TABLE: Table = Table {
    required: &[
        ("schema", Shape::Tag(POINT_SCHEMA)),
        ("campaign", Shape::Str),
        ("point", Shape::U64),
        ("kind", Shape::Str),
        ("params", Shape::Object),
        ("metrics", Shape::Table(&METRICS_TABLE)),
        ("accept", Shape::BoolOrNull),
        ("extra", Shape::Object),
        ("error", Shape::StrOrNull),
    ],
    optional: &[("wall_us", Shape::U64)],
};

/// Strict conformance check for one `qdc-campaign-point/v1` record line
/// against `RECORD_TABLE`. The campaign binary runs this over every
/// line it writes before declaring success.
pub fn validate_record_line(line: &str) -> Result<(), String> {
    json::check(&json::parse(line)?, &RECORD_TABLE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::builtin;

    /// One point under exact profiling.
    fn exact(
        index: usize,
        spec: &PointSpec,
    ) -> (PointRecord, Option<TrafficTrace>, Option<TelemetryReport>) {
        execute_point_sharded(index, spec, &TelemetryMode::Exact, RunOptions::default())
            .expect("point runs")
    }

    #[test]
    fn point_simthm_record_matches_direct_run() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let points = spec.points();
        let (rec, trace) = execute_point(0, &points[0]).expect("point runs");
        let PointSpec::SimThm(p) = &points[0] else {
            panic!("smoke grid is simthm");
        };
        let (direct, _) = qdc_simthm::campaign::run_point(p, |_| NullTelemetry);
        assert_eq!(rec.metrics, direct.metrics);
        assert_eq!(rec.accept, Some(direct.within_budget));
        assert_eq!(trace.expect("simthm is traced").rounds, direct.trace.rounds);
        assert!(rec.error.is_none());
    }

    #[test]
    fn point_chaos_record_reports_dissemination() {
        let spec = PointSpec::Chaos {
            nodes: 12,
            extra_edges: 4,
            drop_pm: 200,
            seed: 3,
            bandwidth: 8,
        };
        let (rec, trace) = execute_point(7, &spec).expect("point runs");
        assert_eq!(rec.kind, "chaos");
        assert_eq!(rec.index, 7);
        assert!(trace.is_none());
        assert_eq!(rec.accept, Some(true), "error: {:?}", rec.error);
        assert!(
            rec.metrics.messages_dropped > 0,
            "20% loss must drop something"
        );
    }

    #[test]
    fn point_gadget_record_cross_checks_verifier() {
        let spec = PointSpec::Gadget {
            point: qdc_gadgets::GadgetPoint {
                family: qdc_gadgets::GadgetFamily::Ipmod3,
                bits: 4,
                seed: 1,
            },
            bandwidth: 32,
        };
        let (rec, _) = execute_point(0, &spec).expect("point runs");
        assert_eq!(rec.accept, Some(true));
        assert!(rec.metrics.rounds > 0);
        assert!(rec.metrics.bits_sent > 0);
    }

    #[test]
    fn point_telemetry_observes_without_perturbing() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let point = &spec.points()[0];
        let (plain, _) = execute_point(0, point).expect("point runs");
        let (observed, _, telemetry) = exact(0, point);
        let telemetry = telemetry.expect("simthm points are profiled");
        assert_eq!(
            record_json("t", &plain, false),
            record_json("t", &observed, false)
        );
        let totals = telemetry.totals();
        assert_eq!(totals.messages, observed.metrics.messages_sent);
        assert_eq!(totals.bits, observed.metrics.bits_sent);
        assert_eq!(telemetry.rounds.len(), observed.metrics.rounds);
        assert!(
            telemetry.classified,
            "simthm profiles carry the traffic split"
        );
    }

    #[test]
    fn point_chaos_telemetry_attributes_faults() {
        let spec = PointSpec::Chaos {
            nodes: 12,
            extra_edges: 4,
            drop_pm: 200,
            seed: 3,
            bandwidth: 8,
        };
        let (plain, _) = execute_point(7, &spec).expect("point runs");
        let (rec, _, telemetry) = exact(7, &spec);
        let telemetry = telemetry.expect("chaos points are profiled");
        assert_eq!(
            record_json("t", &plain, false),
            record_json("t", &rec, false)
        );
        let totals = telemetry.totals();
        assert_eq!(totals.dropped, rec.metrics.messages_dropped);
        assert_eq!(totals.bits, rec.metrics.bits_sent);
        assert!(!telemetry.classified, "chaos hosts have no highway layout");
    }

    #[test]
    fn point_gadget_has_no_single_run_to_profile() {
        let spec = PointSpec::Gadget {
            point: qdc_gadgets::GadgetPoint {
                family: qdc_gadgets::GadgetFamily::GapEq,
                bits: 4,
                seed: 2,
            },
            bandwidth: 32,
        };
        let (_, _, telemetry) = exact(0, &spec);
        assert!(telemetry.is_none());
    }

    #[test]
    fn point_stream_archives_land_whole_or_not_at_all() {
        let dir = std::env::temp_dir().join(format!("qdc_point_stage_{}", std::process::id()));
        let cfg = StreamTelemetry::new(dir.to_string_lossy());
        let mut observer = Streamed {
            cfg: &cfg,
            staged: None,
            file: None,
        };
        let shape = || RunShape {
            nodes: 2,
            edges: 1,
            bandwidth: 8,
            quantum: None,
            classes: None,
        };
        let part = |index| {
            let mut part = stream_telemetry_path(&dir, index).into_os_string();
            part.push(".part");
            PathBuf::from(part)
        };
        // A failed run drops its staging file and commits nothing.
        observer.prepare(0).expect("stages");
        assert!(part(0).is_file());
        let sink = observer.install(shape());
        assert_eq!(observer.finish(0, sink, false), Ok(None));
        assert!(!part(0).exists());
        assert!(!stream_telemetry_path(&dir, 0).exists());
        // A successful one renames a complete archive into place.
        observer.prepare(1).expect("stages");
        let sink = observer.install(shape());
        observer.finish(1, sink, true).expect("commits");
        assert!(!part(1).exists());
        let archive = std::fs::read(stream_telemetry_path(&dir, 1)).expect("committed");
        qdc_congest::read_aggregate(archive.as_slice()).expect("a complete archive");
        let listed = stream_telemetry_archives(&dir).expect("lists");
        assert_eq!(listed, vec![stream_telemetry_path(&dir, 1)]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn point_staged_writes_commit_whole_or_nothing() {
        let dir = std::env::temp_dir().join(format!("qdc_point_staged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("a.jsonl");
        Staged::write(path.clone(), b"whole\n").expect("writes");
        assert_eq!(std::fs::read(&path).expect("committed"), b"whole\n");
        // A failed write removes its staging file and leaves the
        // committed archive untouched.
        let (staged, _file) = Staged::create(path.clone()).expect("stages");
        let failed = std::io::Error::other("injected");
        assert!(staged.commit(Err(failed)).is_err());
        assert_eq!(std::fs::read(&path).expect("still there"), b"whole\n");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("lists")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("a.jsonl")]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn point_validator_accepts_real_records_and_rejects_mutants() {
        let spec = PointSpec::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: 0,
            seed: 1,
            bandwidth: 4,
        };
        let (rec, _) = execute_point(2, &spec).expect("point runs");
        validate_record_line(&record_json("t", &rec, false)).expect("deterministic form conforms");
        validate_record_line(&record_json("t", &rec, true)).expect("wall form conforms");

        let line = record_json("t", &rec, true);
        for (broken, why) in [
            (
                line.replace("qdc-campaign-point/v1", "qdc-campaign-point/v2"),
                "wrong schema tag",
            ),
            (
                line.replace("\"accept\":true", "\"accept\":1"),
                "non-boolean accept",
            ),
            (
                line.replace("\"rounds\"", "\"rundes\""),
                "unknown metric key",
            ),
            (
                line.replace("\"completed\":1", "\"completed\":2"),
                "completed flag past 1",
            ),
            (
                line.replace("\"wall_us\":", "\"wall_ms\":"),
                "unknown trailing key",
            ),
            (
                line.replace("\"point\":2", "\"point\":2.5"),
                "non-integer point",
            ),
            (line[..line.len() - 4].to_string(), "truncated document"),
        ] {
            assert!(
                validate_record_line(&broken).is_err(),
                "should reject {why}: {broken}"
            );
        }
    }

    #[test]
    fn point_watchdog_trip_maps_to_a_retryable_failure() {
        // Satellite regression: a WatchdogTripped inside a point must
        // become a structured, retryable failure record — never an
        // abort. The chaos Err arm routes through from_sim_error, which
        // this pins for the watchdog variant.
        let e = qdc_congest::SimError::WatchdogTripped { rounds: 40 };
        let f = PointFailure::from_sim_error(9, &e);
        assert_eq!(f.index, 9);
        assert_eq!(f.kind, "watchdog_tripped");
        assert!(f.retryable, "watchdog trips are transient by taxonomy");
        assert_eq!(f.attempts, 1);
        assert!(f.error.contains("watchdog tripped"));
        validate_failure_line(&failure_json("t", &f)).expect("failure line conforms");
    }

    #[test]
    fn point_panic_payloads_classify_back_to_sim_error_kinds() {
        // The panicking simulator APIs emit exactly the SimError Display
        // text, so a caught panic recovers the structured kind…
        let budget = qdc_congest::SimError::BudgetExceeded { bits: 9, budget: 1 };
        let payload: Box<dyn std::any::Any + Send> = Box::new(budget.to_string());
        let f = PointFailure::from_panic(4, payload.as_ref());
        assert_eq!(f.kind, "budget_exceeded");
        assert!(!f.retryable, "protocol violations are permanent");
        // …while a foreign panic stays generic and transient.
        let payload: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        let f = PointFailure::from_panic(4, payload.as_ref());
        assert_eq!(f.kind, "panic");
        assert!(f.retryable);
        // Non-string payloads still produce a message.
        let payload: Box<dyn std::any::Any + Send> = Box::new(17u32);
        let f = PointFailure::from_panic(4, payload.as_ref());
        assert_eq!(f.error, "panic with non-string payload");
    }

    #[test]
    fn point_failure_validator_accepts_real_lines_and_rejects_mutants() {
        let f = PointFailure::deadline(5, 250);
        assert_eq!(f.kind, "deadline");
        assert!(f.retryable);
        let line = failure_json("t", &f);
        validate_failure_line(&line).expect("real failure line conforms");
        for (broken, why) in [
            (
                line.replace("qdc-campaign-failure/v1", "qdc-campaign-failure/v0"),
                "wrong schema tag",
            ),
            (
                line.replace("\"retryable\":true", "\"retryable\":1"),
                "non-boolean retryable",
            ),
            (
                line.replace("\"attempts\":1", "\"attempts\":0"),
                "zero attempts",
            ),
            (
                line.replace("\"kind\":\"deadline\"", "\"kind\":\"\""),
                "empty kind",
            ),
            (line[..line.len() - 2].to_string(), "truncated document"),
        ] {
            assert!(
                validate_failure_line(&broken).is_err(),
                "should reject {why}: {broken}"
            );
        }
    }

    #[test]
    fn point_record_json_is_stable_and_parses() {
        let spec = PointSpec::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: 0,
            seed: 1,
            bandwidth: 4,
        };
        let (rec, _) = execute_point(2, &spec).expect("point runs");
        let deterministic = record_json("t", &rec, false);
        assert_eq!(deterministic, record_json("t", &rec, false));
        assert!(!deterministic.contains("wall_us"));
        let with_wall = record_json("t", &rec, true);
        let doc = json::parse(&with_wall).expect("record is valid JSON");
        assert_eq!(doc.get("point").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("kind"), Some(&Json::Str("chaos".into())));
        assert!(doc.get("wall_us").is_some());
        let metrics = doc.get("metrics").expect("metrics present");
        assert_eq!(
            metrics.get("messages_dropped").and_then(Json::as_u64),
            Some(0)
        );
    }
}
