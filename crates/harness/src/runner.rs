//! The campaign runner: deterministic sharding, supervised worker
//! threads, order-independent aggregation, crash-safe journaling.
//!
//! # Determinism contract
//!
//! Running the same spec on 1 thread or N threads yields **byte-identical**
//! deterministic output:
//!
//! 1. [`CampaignSpec::points`](crate::CampaignSpec::points) expands the
//!    grid in a fixed order; a point's index is assigned *before*
//!    sharding.
//! 2. Workers pull indices from a shared dispenser. Which worker runs a
//!    point cannot change its result: every experiment is a pure
//!    function of its `PointSpec`.
//! 3. Results are committed through a reorder buffer in strict index
//!    order, so the record list — and the JSONL journal written from
//!    it — is in point order no matter which worker finished first.
//! 4. The aggregate folds only `u64` counters with commutative,
//!    associative operations (`+` and `max`), walking the table in index
//!    order. Even if the fold order changed, the result could not.
//!
//! The one thing that *does* vary between runs — wall-clock time — is
//! kept in dedicated fields (`wall_us` per record, `wall_ms` per
//! campaign) that the deterministic serializations omit.
//!
//! # Fault isolation and supervision
//!
//! Every point executes under [`std::panic::catch_unwind`], optionally
//! bounded by a wall-clock deadline
//! ([`RunOptions::point_deadline_ms`]). A panic, a structured
//! [`SimError`](qdc_congest::SimError), or a deadline overrun becomes a
//! [`PointFailure`]; transient kinds (watchdog trips, generic panics,
//! deadlines — see [`SimError::is_retryable`](qdc_congest::SimError::is_retryable))
//! are retried up to [`RunOptions::max_attempts`] with deterministic
//! backoff before the failure is committed as a
//! `qdc-campaign-failure/v1` record in the failed point's index slot.
//! The rest of the grid always keeps running: one poisoned cell cannot
//! discard a campaign. A worker thread that dies anyway is survived by
//! an orphan sweep that re-executes whatever the lost worker never
//! reported.
//!
//! # Crash-safe journaling and resume
//!
//! [`run_campaign_journaled`] streams committed points through
//! [`Journal::append_lines`](crate::journal::Journal::append_lines)
//! instead of holding the campaign in memory: one `write_all` per line,
//! and one `sync_data` per batch of records ready in index order, so no
//! line is left unsynced when the committer waits or the run returns.
//! On resume it replays the surviving journal prefix via
//! [`journal::resume`] before executing only the missing tail.
//! Cancellation ([`CancelToken`]) drains in-flight points, commits the
//! contiguous prefix, and reports `interrupted: true` — the journal is
//! always resumable.

use crate::journal::{self, Journal};
use crate::point::{
    execute_point_sharded, failure_json, record_json, stream_telemetry_path, PointFailure,
    PointRecord, Staged, TelemetryMode,
};
use crate::spec::{CampaignError, CampaignSpec, PointSpec, CAMPAIGN_SCHEMA};
use qdc_congest::json::{self, Json, Shape, Table};
use qdc_congest::{RunReport, TelemetryReport, TotalsOverflow};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How to run a campaign.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker thread count (must be ≥ 1).
    pub threads: usize,
    /// How each point is observed: [`TelemetryMode::Off`] (the default
    /// — the null-sink path is the zero-overhead one),
    /// [`TelemetryMode::Exact`] (buffered [`TelemetryReport`] per
    /// point), or [`TelemetryMode::Stream`] (O(1)-memory sink writing
    /// each point's `qdc-telemetry-stream/v1` archive incrementally
    /// during the run — the workers write the files themselves, so the
    /// committer has nothing to archive and the outcome's `telemetry`
    /// slots stay `None`).
    pub telemetry: TelemetryMode,
    /// Worker thread count for each point's *round engine* (the
    /// simulator's compute phase), as distinct from `threads`, which
    /// shards whole points. Both levels carry the same byte-identical
    /// determinism contract, so any combination is safe. Must be ≥ 1.
    pub sim_threads: usize,
    /// Attempt budget per point (must be ≥ 1; the first try counts).
    /// Only *retryable* failures consume extra attempts — permanent
    /// protocol violations are committed after the first.
    pub max_attempts: u32,
    /// Wall-clock deadline per attempt, in milliseconds. `None` (the
    /// default) runs attempts inline with no timer; `Some(ms)` runs
    /// each attempt on a watchdog thread and records a `"deadline"`
    /// failure if it does not finish in time. Deadlines are inherently
    /// wall-clock: enabling them steps outside the byte-identical
    /// determinism contract.
    pub point_deadline_ms: Option<u64>,
    /// Testing aid: sleep this many milliseconds before each point so
    /// interruption tests (and the CI kill-and-resume job) can reliably
    /// land a signal mid-grid. `0` (the default) adds nothing.
    pub throttle_ms: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: 1,
            telemetry: TelemetryMode::Off,
            sim_threads: 1,
            max_attempts: 1,
            point_deadline_ms: None,
            throttle_ms: 0,
        }
    }
}

/// Cooperative cancellation handle for graceful shutdown: signal
/// handlers (or tests) call [`cancel`](CancelToken::cancel); workers
/// stop pulling new points, finish the ones in flight, and the
/// committer flushes the contiguous prefix to the journal before the
/// runner returns with `interrupted: true`.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests shutdown. Safe to call from a signal handler (a single
    /// atomic store) and idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// `a + b`, or [`TotalsOverflow`] past `u64::MAX`.
fn sum(a: u64, b: u64) -> Result<u64, TotalsOverflow> {
    a.checked_add(b).ok_or(TotalsOverflow)
}

/// Order-independent fold of every committed point's counters. All
/// fields are `u64` and folded with `+`/`max` only, so the result
/// cannot depend on evaluation order — see the module docs.
///
/// `points` counts every committed outcome (records *and* failures), so
/// `ok + errors + points_failed == points` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Total points committed (successful records plus failures).
    pub points: u64,
    /// Points that finished without a structured error.
    pub ok: u64,
    /// Points whose record carries a (legacy) error string. Freshly
    /// written records never do — structured errors become failure
    /// records — but recovered pre-failure-schema journals may.
    pub errors: u64,
    /// Points whose verdict was accept.
    pub accepted: u64,
    /// Points whose verdict was reject.
    pub rejected: u64,
    /// Sum of rounds across all points.
    pub rounds: u64,
    /// Sum of messages across all points.
    pub messages: u64,
    /// Sum of payload bits across all points.
    pub bits: u64,
    /// Max single-round bit volume seen by any point.
    pub max_bits_per_round: u64,
    /// Sum of dropped messages (fault injection).
    pub dropped: u64,
    /// Sum of crashed nodes (fault injection).
    pub crashed: u64,
    /// Sum of corrupted payloads (fault injection).
    pub corrupted: u64,
    /// Points whose every attempt failed (each has a
    /// `qdc-campaign-failure/v1` record in the journal).
    pub points_failed: u64,
    /// Total extra attempts spent on failed points (`Σ attempts − 1`
    /// over failure records). A point that failed transiently and then
    /// succeeded is *not* counted: under the determinism contract a
    /// success always takes one attempt, and counting only journaled
    /// attempts keeps a resumed aggregate identical to a live one.
    pub points_retried: u64,
}

impl Aggregate {
    /// The key table of the object [`Aggregate::to_json`] writes: the
    /// fourteen counters, in order, integers only. The campaign summary
    /// and the service's job documents both nest it.
    pub const TABLE: Table = Table {
        required: &[
            ("points", Shape::U64),
            ("ok", Shape::U64),
            ("errors", Shape::U64),
            ("accepted", Shape::U64),
            ("rejected", Shape::U64),
            ("rounds", Shape::U64),
            ("messages", Shape::U64),
            ("bits", Shape::U64),
            ("max_bits_per_round", Shape::U64),
            ("dropped", Shape::U64),
            ("crashed", Shape::U64),
            ("corrupted", Shape::U64),
            ("points_failed", Shape::U64),
            ("points_retried", Shape::U64),
        ],
        optional: &[],
    };

    /// Folds one successful point into the counters. A point that would
    /// push any counter past `u64::MAX` is refused whole: the counters
    /// stay as they were.
    pub fn add_point(
        &mut self,
        report: &RunReport,
        accept: Option<bool>,
        errored: bool,
    ) -> Result<(), TotalsOverflow> {
        let mut next = *self;
        next.points = sum(next.points, 1)?;
        if errored {
            next.errors = sum(next.errors, 1)?;
        } else {
            next.ok = sum(next.ok, 1)?;
        }
        match accept {
            Some(true) => next.accepted = sum(next.accepted, 1)?,
            Some(false) => next.rejected = sum(next.rejected, 1)?,
            None => {}
        }
        next.rounds = sum(next.rounds, report.rounds as u64)?;
        next.messages = sum(next.messages, report.messages_sent)?;
        next.bits = sum(next.bits, report.bits_sent)?;
        next.max_bits_per_round = next.max_bits_per_round.max(report.max_bits_per_round);
        next.dropped = sum(next.dropped, report.messages_dropped)?;
        next.crashed = sum(next.crashed, report.nodes_crashed)?;
        next.corrupted = sum(next.corrupted, report.bits_corrupted)?;
        *self = next;
        Ok(())
    }

    /// Folds one journaled failure into the counters, refused whole like
    /// [`add_point`](Aggregate::add_point) on overflow.
    pub fn add_failure(&mut self, attempts: u64) -> Result<(), TotalsOverflow> {
        let mut next = *self;
        next.points = sum(next.points, 1)?;
        next.points_failed = sum(next.points_failed, 1)?;
        next.points_retried = sum(next.points_retried, attempts.saturating_sub(1))?;
        *self = next;
        Ok(())
    }

    /// Folds records and failures together (in any order).
    ///
    /// # Panics
    ///
    /// Panics if a counter would overflow `u64`, which the counts of
    /// points run in one process cannot reach.
    pub fn fold_full(records: &[PointRecord], failures: &[PointFailure]) -> Aggregate {
        let mut agg = Aggregate::default();
        for rec in records {
            agg.add_point(&rec.metrics, rec.accept, rec.error.is_some())
                .expect("in-process counters fit u64");
        }
        for f in failures {
            agg.add_failure(u64::from(f.attempts))
                .expect("in-process counters fit u64");
        }
        agg
    }

    /// Canonical JSON form (stable field order, integers only).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("points", Json::Num(self.points)),
            ("ok", Json::Num(self.ok)),
            ("errors", Json::Num(self.errors)),
            ("accepted", Json::Num(self.accepted)),
            ("rejected", Json::Num(self.rejected)),
            ("rounds", Json::Num(self.rounds)),
            ("messages", Json::Num(self.messages)),
            ("bits", Json::Num(self.bits)),
            ("max_bits_per_round", Json::Num(self.max_bits_per_round)),
            ("dropped", Json::Num(self.dropped)),
            ("crashed", Json::Num(self.crashed)),
            ("corrupted", Json::Num(self.corrupted)),
            ("points_failed", Json::Num(self.points_failed)),
            ("points_retried", Json::Num(self.points_retried)),
        ])
    }
}

/// Everything one in-memory campaign run produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The campaign's name (copied from the spec).
    pub spec_name: String,
    /// Per-point records of the successful points, in point-index order
    /// (each carries its own `index`; failed indices are absent here and
    /// present in `failures` instead).
    pub records: Vec<PointRecord>,
    /// Failures of the points whose every attempt failed, in
    /// point-index order.
    pub failures: Vec<PointFailure>,
    /// Per-point telemetry profiles, indexed by grid point (`None` for
    /// unprofiled kinds, failed points, streamed runs — whose archives
    /// live on disk, not in memory — and every point under
    /// [`TelemetryMode::Off`]).
    pub telemetry: Vec<Option<TelemetryReport>>,
    /// The order-independent fold of `records` and `failures`.
    pub aggregate: Aggregate,
    /// Wall-clock time of the whole campaign in milliseconds.
    /// Excluded from the determinism contract.
    pub wall_ms: u64,
    /// Thread count the campaign ran with.
    pub threads: usize,
}

impl CampaignOutcome {
    /// The deterministic portion of the run as JSONL: one line per grid
    /// point in index order — a `qdc-campaign-point/v1` record for each
    /// success, a `qdc-campaign-failure/v1` record for each failure —
    /// without wall-clock fields. Two runs of the same spec agree on
    /// this string byte for byte regardless of thread count, and a
    /// journaled `--deterministic` run's file holds exactly these bytes.
    pub fn deterministic_jsonl(&self) -> String {
        let mut out = String::new();
        let mut records = self.records.iter().peekable();
        let mut failures = self.failures.iter().peekable();
        loop {
            let take_record = match (records.peek(), failures.peek()) {
                (Some(r), Some(f)) => r.index < f.index,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_record {
                let rec = records.next().expect("peeked");
                out.push_str(&record_json(&self.spec_name, rec, false));
            } else {
                let f = failures.next().expect("peeked");
                out.push_str(&failure_json(&self.spec_name, f));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders the campaign summary document (`BENCH_<name>.json` shape).
/// The `aggregate` object inside it is the byte-identical part; the
/// `threads` and `wall_ms` fields describe this particular run.
pub fn summary_json(outcome: &CampaignOutcome) -> String {
    summary_doc(
        &outcome.spec_name,
        outcome.threads,
        outcome.wall_ms,
        &outcome.aggregate,
        false,
    )
}

/// Renders the summary of a journaled run. An interrupted run's summary
/// carries a trailing `"interrupted": true` marker so downstream
/// tooling can tell a resumable partial summary from a complete one.
pub fn journal_summary_json(outcome: &JournalOutcome) -> String {
    summary_doc(
        &outcome.spec_name,
        outcome.threads,
        outcome.wall_ms,
        &outcome.aggregate,
        outcome.interrupted,
    )
}

fn summary_doc(
    campaign: &str,
    threads: usize,
    wall_ms: u64,
    aggregate: &Aggregate,
    interrupted: bool,
) -> String {
    let mut fields = vec![
        ("schema".to_string(), Json::Str(CAMPAIGN_SCHEMA.to_string())),
        ("campaign".to_string(), Json::Str(campaign.to_string())),
        ("threads".to_string(), Json::Num(threads as u64)),
        ("wall_ms".to_string(), Json::Num(wall_ms)),
        ("aggregate".to_string(), aggregate.to_json()),
    ];
    if interrupted {
        fields.push(("interrupted".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields).to_json()
}

/// The `qdc-campaign/v1` key table. The one optional field is a
/// trailing boolean `interrupted` marker (present only on the partial
/// summary of an interrupted journaled run).
const SUMMARY_TABLE: Table = Table {
    required: &[
        ("schema", Shape::Tag(CAMPAIGN_SCHEMA)),
        ("campaign", Shape::Str),
        ("threads", Shape::U64),
        ("wall_ms", Shape::U64),
        ("aggregate", Shape::Table(&Aggregate::TABLE)),
    ],
    optional: &[("interrupted", Shape::Bool)],
};

/// Strict conformance check for one `qdc-campaign/v1` summary document
/// against `SUMMARY_TABLE`. A trailing newline (as written by the
/// campaign binary) is accepted.
pub fn validate_summary(text: &str) -> Result<(), String> {
    json::check(&json::parse(text)?, &SUMMARY_TABLE)
}

/// One point's fully executed slot: the record plus its optional
/// telemetry profile.
type Slot = (PointRecord, Option<TelemetryReport>);

/// What the supervisor ultimately committed for one point.
enum PointOutcome {
    /// All good (possibly after retries).
    Done(Box<Slot>),
    /// Every allowed attempt failed.
    Failed(PointFailure),
}

/// SplitMix64 — the tiny seeded mixer behind the deterministic backoff
/// jitter (no wall-clock, no global RNG state).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic backoff before retry attempt `attempt + 1` of point
/// `index`: exponential base (25 ms doubling per attempt) plus jitter
/// mixed from the index and attempt, capped at 250 ms. A pure function
/// of its arguments — never of the wall clock — so two runs of the same
/// spec retry on the same schedule.
fn backoff_ms(index: usize, attempt: u32) -> u64 {
    let base = 25u64 << (attempt.min(4) - 1);
    let jitter =
        splitmix64((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt)) % 25;
    (base + jitter).min(250)
}

/// One attempt under `catch_unwind`: a panic anywhere inside the point
/// (simulator budget assertions included) becomes a classified
/// [`PointFailure`] instead of unwinding into the worker loop.
fn guarded_attempt(
    index: usize,
    point: &PointSpec,
    telemetry: &TelemetryMode,
    sim: qdc_congest::RunOptions,
) -> Result<Slot, PointFailure> {
    match catch_unwind(AssertUnwindSafe(|| {
        execute_point_sharded(index, point, telemetry, sim)
            .map(|(record, _, profile)| (record, profile))
    })) {
        Ok(result) => result,
        Err(payload) => Err(PointFailure::from_panic(index, payload.as_ref())),
    }
}

/// One attempt, with the optional wall-clock deadline layered on top:
/// the attempt runs on a dedicated thread and is abandoned (left to
/// finish into a dropped channel) if it misses the deadline.
fn run_attempt(
    index: usize,
    point: &PointSpec,
    options: &RunOptions,
) -> Result<Slot, PointFailure> {
    let sim = qdc_congest::RunOptions {
        threads: options.sim_threads,
    };
    match options.point_deadline_ms {
        None => guarded_attempt(index, point, &options.telemetry, sim),
        Some(deadline_ms) => {
            let (tx, rx) = mpsc::channel();
            let point = point.clone();
            let telemetry = options.telemetry.clone();
            std::thread::spawn(move || {
                let _ = tx.send(guarded_attempt(index, &point, &telemetry, sim));
            });
            match rx.recv_timeout(Duration::from_millis(deadline_ms)) {
                Ok(result) => result,
                Err(_) => Err(PointFailure::deadline(index, deadline_ms)),
            }
        }
    }
}

/// The per-point supervisor: attempt, classify, maybe back off and
/// retry, and stamp the final attempt count into the failure.
fn supervised_execute(index: usize, point: &PointSpec, options: &RunOptions) -> PointOutcome {
    let mut attempt = 1u32;
    loop {
        match run_attempt(index, point, options) {
            Ok(slot) => return PointOutcome::Done(Box::new(slot)),
            Err(mut failure) => {
                failure.attempts = attempt;
                if failure.retryable && attempt < options.max_attempts {
                    std::thread::sleep(Duration::from_millis(backoff_ms(index, attempt)));
                    attempt += 1;
                } else {
                    return PointOutcome::Failed(failure);
                }
            }
        }
    }
}

/// How an [`execute_grid`] run ended.
struct ExecStatus {
    /// Whether cancellation stopped the run short of the full grid.
    interrupted: bool,
    /// Points committed by this run (excludes recovered ones).
    executed: usize,
}

/// The shared execution engine: dispense indices to supervised workers,
/// reorder completions, and hand `commit` the outcomes in strict index
/// order starting at `start_at`, as `commit(first_index, batch)`. A
/// batch is every outcome contiguous with the committed prefix once the
/// channel is drained: whatever finished while the previous commit ran.
/// `commit` failing (an I/O error, a failed archive or a refused fold)
/// stops this run's workers and surfaces the error; `cancel` is only
/// read, since the caller may share it with other runs.
fn execute_grid<F>(
    points: &[PointSpec],
    start_at: usize,
    options: &RunOptions,
    cancel: &CancelToken,
    mut commit: F,
) -> Result<ExecStatus, CampaignRunError>
where
    F: FnMut(usize, Vec<PointOutcome>) -> Result<(), CampaignRunError>,
{
    let total = points.len();
    let mut committed = start_at.min(total);
    if committed < total {
        let threads = options.threads.min(total - committed).max(1);
        let next = AtomicUsize::new(committed);
        let stop = AtomicBool::new(false);
        let mut buffer: BTreeMap<usize, PointOutcome> = BTreeMap::new();
        let mut commit_err: Option<CampaignRunError> = None;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, PointOutcome)>();
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let tx = tx.clone();
                let (next, stop) = (&next, &stop);
                handles.push(scope.spawn(move || {
                    // Graceful drain on cancellation: the cancel check
                    // sits *before* the dispenser, so a point already
                    // taken is always finished and reported.
                    loop {
                        if cancel.is_cancelled() || stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= total {
                            break;
                        }
                        if options.throttle_ms > 0 {
                            std::thread::sleep(Duration::from_millis(options.throttle_ms));
                        }
                        let out = supervised_execute(i, &points[i], options);
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    }
                }));
            }
            drop(tx);
            // Committer: workers finish out of order; the journal
            // contract wants strict index order, so buffer everything
            // that has arrived and commit the contiguous prefix as one
            // batch (group commit).
            while let Ok(first) = rx.recv() {
                buffer.extend(std::iter::once(first).chain(rx.try_iter()));
                let mut batch = Vec::new();
                while let Some(out) = buffer.remove(&(committed + batch.len())) {
                    batch.push(out);
                }
                if batch.is_empty() {
                    continue;
                }
                let ready = batch.len();
                if let Err(e) = commit(committed, batch) {
                    commit_err = Some(e);
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                committed += ready;
            }
            for h in handles {
                // catch_unwind contains point panics, so workers do not
                // normally die; if one does anyway, its lost work is
                // re-executed by the orphan sweep below — joining here
                // only reaps the thread.
                let _ = h.join();
            }
        });
        if let Some(e) = commit_err {
            return Err(e);
        }
        // Orphan sweep: commit whatever the reorder buffer still holds
        // and re-execute (inline, in index order) any index a dead
        // worker took but never reported.
        while !cancel.is_cancelled() && committed < total {
            let out = match buffer.remove(&committed) {
                Some(out) => out,
                None => supervised_execute(committed, &points[committed], options),
            };
            commit(committed, vec![out])?;
            committed += 1;
        }
    }
    Ok(ExecStatus {
        interrupted: committed < total,
        executed: committed - start_at.min(total),
    })
}

fn validate_options(options: &RunOptions) -> Result<(), CampaignError> {
    if options.threads == 0 || options.sim_threads == 0 {
        return Err(CampaignError::ZeroThreads);
    }
    if options.max_attempts == 0 {
        return Err(CampaignError::ZeroAttempts);
    }
    Ok(())
}

/// Validates, expands, shards and runs a campaign, collecting
/// everything in memory.
///
/// Point failures do not abort the run: they are isolated, retried
/// within the attempt budget, and collected into
/// [`CampaignOutcome::failures`]. For crash-safe streaming execution
/// use [`run_campaign_journaled`].
pub fn run_campaign(
    spec: &CampaignSpec,
    options: &RunOptions,
) -> Result<CampaignOutcome, CampaignError> {
    validate_options(options)?;
    spec.validate()?;
    let points = spec.points();
    let start = std::time::Instant::now();

    let mut records = Vec::with_capacity(points.len());
    let mut failures = Vec::new();
    let mut telemetry: Vec<Option<TelemetryReport>> = Vec::new();
    telemetry.resize_with(points.len(), || None);

    let cancel = CancelToken::new();
    execute_grid(&points, 0, options, &cancel, |first, batch| {
        for (i, out) in (first..).zip(batch) {
            match out {
                PointOutcome::Done(slot) => {
                    let (rec, profile) = *slot;
                    telemetry[i] = profile;
                    records.push(rec);
                }
                PointOutcome::Failed(f) => failures.push(f),
            }
        }
        Ok(())
    })
    .expect("in-memory commit is infallible");

    let aggregate = Aggregate::fold_full(&records, &failures);
    Ok(CampaignOutcome {
        spec_name: spec.name.clone(),
        records,
        failures,
        telemetry,
        aggregate,
        wall_ms: start.elapsed().as_millis() as u64,
        threads: options.threads,
    })
}

/// Where and how a journaled run persists its output.
#[derive(Clone, Debug, Default)]
pub struct JournalConfig {
    /// The journal path — the campaign's JSONL output file.
    pub out_path: String,
    /// Archive each profiled point as `<dir>/point_<i>.telemetry.jsonl`.
    pub telemetry_dir: Option<String>,
    /// Recover an existing journal at `out_path` and resume at the
    /// first missing index instead of starting over. A missing file
    /// resumes from zero (resuming a campaign that never started is
    /// just starting it).
    pub resume: bool,
    /// Include the volatile wall-clock fields in records and telemetry
    /// archives. `false` is the byte-identical deterministic form.
    pub with_wall: bool,
}

/// Why a journaled campaign run failed (beyond ordinary point failures,
/// which are journaled, not raised).
#[derive(Debug)]
pub enum CampaignRunError {
    /// The spec or the run options were rejected up front.
    Spec(CampaignError),
    /// The journal or an archive could not be read or written.
    Io(std::io::Error),
    /// The existing journal is not a recoverable prefix of this
    /// campaign (wrong campaign, or more records than the grid has
    /// points).
    Corrupt(String),
}

impl std::fmt::Display for CampaignRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignRunError::Spec(e) => write!(f, "{e}"),
            CampaignRunError::Io(e) => write!(f, "journal I/O failed: {e}"),
            CampaignRunError::Corrupt(msg) => write!(f, "corrupt journal: {msg}"),
        }
    }
}

impl std::error::Error for CampaignRunError {}

impl From<CampaignError> for CampaignRunError {
    fn from(e: CampaignError) -> Self {
        CampaignRunError::Spec(e)
    }
}

impl From<std::io::Error> for CampaignRunError {
    fn from(e: std::io::Error) -> Self {
        CampaignRunError::Io(e)
    }
}

/// What a journaled run reports back (the records themselves live in
/// the journal file, not in memory — journaled campaigns stream).
#[derive(Clone, Debug)]
pub struct JournalOutcome {
    /// The campaign's name (copied from the spec).
    pub spec_name: String,
    /// Size of the expanded grid.
    pub total_points: usize,
    /// Points recovered from an existing journal (0 for fresh runs).
    pub recovered: usize,
    /// Points executed and committed by *this* run.
    pub executed: usize,
    /// The fold of every committed point — recovered and fresh alike.
    pub aggregate: Aggregate,
    /// Whether cancellation stopped the run before the grid finished.
    /// The journal is resumable either way; an interrupted summary is
    /// marked (see [`journal_summary_json`]).
    pub interrupted: bool,
    /// Wall-clock time of this run in milliseconds (excluded from the
    /// determinism contract).
    pub wall_ms: u64,
    /// Thread count the run used.
    pub threads: usize,
}

/// Runs a campaign with crash-safe journaling: committed points are
/// durably appended to `config.out_path` as soon as their index is
/// reached (one `write_all` per line, one `sync_data` per batch of
/// ready records, and no line left unsynced when the committer waits
/// or the run returns), archives land *before* their journal line, and
/// `config.resume` recovers an interrupted journal and executes only
/// the missing tail — byte-identical (in the deterministic form) to an
/// uninterrupted run at any thread count.
pub fn run_campaign_journaled(
    spec: &CampaignSpec,
    options: &RunOptions,
    config: &JournalConfig,
    cancel: &CancelToken,
) -> Result<JournalOutcome, CampaignRunError> {
    validate_options(options)?;
    spec.validate().map_err(CampaignRunError::Spec)?;
    let points = spec.points();
    let start = std::time::Instant::now();

    let (mut aggregate, recovered) = if config.resume {
        let recovery = journal::resume(Path::new(&config.out_path), spec)?
            .map_err(CampaignRunError::Corrupt)?;
        (recovery.aggregate, recovery.committed)
    } else {
        (Aggregate::default(), 0)
    };

    let mut journal = if config.resume {
        Journal::append(&config.out_path)
    } else {
        Journal::create(&config.out_path)
    }?;
    if let Some(dir) = &config.telemetry_dir {
        std::fs::create_dir_all(dir)?;
    }

    let status = execute_grid(&points, recovered, options, cancel, |first, batch| {
        let mut lines = Vec::with_capacity(batch.len());
        let encoded = (first..).zip(batch).try_for_each(|(i, out)| {
            // Fold before appending, so a journal never holds a prefix
            // whose fold `journal::recover` would refuse.
            match &out {
                PointOutcome::Done(slot) => {
                    let rec = &slot.0;
                    aggregate.add_point(&rec.metrics, rec.accept, rec.error.is_some())
                }
                PointOutcome::Failed(f) => aggregate.add_failure(u64::from(f.attempts)),
            }
            .map_err(|e| CampaignRunError::Corrupt(format!("journal line {i}: {e}")))?;
            lines.push(match out {
                PointOutcome::Done(slot) => {
                    let (rec, profile) = &*slot;
                    // Archives land before the journal line: a journaled
                    // record implies its archives exist, and a crash in
                    // the gap simply re-runs the point into identical
                    // bytes.
                    if let (Some(dir), Some(profile)) = (&config.telemetry_dir, profile) {
                        let archive = profile.to_jsonl(config.with_wall);
                        Staged::write(stream_telemetry_path(dir, i), archive.as_bytes())?;
                    }
                    record_json(&spec.name, rec, config.with_wall)
                }
                PointOutcome::Failed(f) => failure_json(&spec.name, &f),
            });
            Ok::<_, CampaignRunError>(())
        });
        // Write the lines encoded so far and sync once *before* an error
        // surfaces: a refusal mid-batch leaves the journal holding
        // exactly the records before it, all synced.
        journal.append_lines(lines.iter().map(String::as_str))?;
        encoded
    })?;
    journal.sync_all()?;

    Ok(JournalOutcome {
        spec_name: spec.name.clone(),
        total_points: points.len(),
        recovered,
        executed: status.executed,
        aggregate,
        interrupted: status.interrupted,
        wall_ms: start.elapsed().as_millis() as u64,
        threads: options.threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{builtin, CampaignGrid};

    fn opts(threads: usize) -> RunOptions {
        RunOptions {
            threads,
            ..RunOptions::default()
        }
    }

    #[test]
    fn runner_rejects_zero_threads_and_zero_attempts() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let err = run_campaign(&spec, &opts(0)).expect_err("zero threads is invalid");
        assert_eq!(err, CampaignError::ZeroThreads);
        let err = run_campaign(
            &spec,
            &RunOptions {
                max_attempts: 0,
                ..RunOptions::default()
            },
        )
        .expect_err("zero attempts is invalid");
        assert_eq!(err, CampaignError::ZeroAttempts);
    }

    #[test]
    fn runner_one_and_four_threads_agree_byte_for_byte() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let one = run_campaign(&spec, &opts(1)).expect("runs");
        let four = run_campaign(&spec, &opts(4)).expect("runs");
        assert_eq!(one.deterministic_jsonl(), four.deterministic_jsonl());
        assert_eq!(one.aggregate, four.aggregate);
        assert_eq!(
            one.aggregate.to_json().to_json(),
            four.aggregate.to_json().to_json()
        );
    }

    #[test]
    fn runner_records_are_in_point_order_with_complete_coverage() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let out = run_campaign(&spec, &opts(3)).expect("runs");
        assert_eq!(out.records.len(), spec.points().len());
        for (i, rec) in out.records.iter().enumerate() {
            assert_eq!(rec.index, i);
        }
        assert!(out.failures.is_empty());
        assert_eq!(out.aggregate.points, out.records.len() as u64);
        assert_eq!(out.aggregate.accepted, out.records.len() as u64);
        assert_eq!(out.aggregate.errors, 0);
        assert_eq!(out.aggregate.points_failed, 0);
    }

    #[test]
    fn runner_aggregate_fold_is_order_independent() {
        let spec = builtin("gadget_sweep").expect("builtin");
        let out = run_campaign(&spec, &opts(2)).expect("runs");
        let mut reversed = out.records.clone();
        reversed.reverse();
        assert_eq!(Aggregate::fold_full(&reversed, &[]), out.aggregate);
    }

    #[test]
    fn runner_summary_parses_and_carries_the_aggregate() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let out = run_campaign(&spec, &RunOptions::default()).expect("runs");
        let doc = json::parse(&summary_json(&out)).expect("summary is valid JSON");
        assert_eq!(
            doc.get("schema"),
            Some(&Json::Str(CAMPAIGN_SCHEMA.to_string()))
        );
        let agg = doc.get("aggregate").expect("aggregate present");
        assert_eq!(
            agg.get("points").and_then(Json::as_u64),
            Some(out.aggregate.points)
        );
        assert_eq!(agg.get("errors").and_then(Json::as_u64), Some(0));
        assert_eq!(agg.get("points_failed").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn runner_exact_telemetry_profiles_points_without_perturbing_records() {
        let spec = builtin("telemetry_smoke").expect("builtin");
        let plain = run_campaign(&spec, &RunOptions::default()).expect("runs");
        let observed = run_campaign(
            &spec,
            &RunOptions {
                threads: 2,
                telemetry: TelemetryMode::Exact,
                ..RunOptions::default()
            },
        )
        .expect("runs");
        // Observation never perturbs the deterministic output.
        assert_eq!(plain.deterministic_jsonl(), observed.deterministic_jsonl());
        assert!(plain.telemetry.iter().all(Option::is_none));
        assert_eq!(observed.telemetry.len(), observed.records.len());
        for (rec, profile) in observed.records.iter().zip(&observed.telemetry) {
            let profile = profile.as_ref().expect("simthm points are profiled");
            let totals = profile.totals();
            assert_eq!(totals.messages, rec.metrics.messages_sent);
            assert_eq!(totals.bits, rec.metrics.bits_sent);
            assert_eq!(profile.rounds.len(), rec.metrics.rounds);
        }
    }

    #[test]
    fn runner_summary_validator_accepts_real_output_and_rejects_mutants() {
        let spec = builtin("telemetry_smoke").expect("builtin");
        let out = run_campaign(&spec, &RunOptions::default()).expect("runs");
        let summary = summary_json(&out);
        validate_summary(&summary).expect("real summary conforms");
        validate_summary(&format!("{summary}\n")).expect("trailing newline is fine");
        for (broken, why) in [
            (
                summary.replace("qdc-campaign/v1", "qdc-campaign/v0"),
                "wrong schema tag",
            ),
            (
                summary.replace("\"points\"", "\"pts\""),
                "unknown aggregate key",
            ),
            (
                summary.replace("\"wall_ms\"", "\"wall_us\""),
                "wrong field name",
            ),
            (
                summary.replace("{\"schema\"", "{\"campaign\":\"x\",\"schema\""),
                "reordered fields",
            ),
        ] {
            assert!(validate_summary(&broken).is_err(), "should reject {why}");
        }
        // Every record line passes the strict line validator too.
        for line in out.deterministic_jsonl().lines() {
            crate::point::validate_record_line(line).expect("record line conforms");
        }
    }

    #[test]
    fn runner_summary_validator_accepts_the_interrupted_marker() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let out = run_campaign(&spec, &RunOptions::default()).expect("runs");
        let partial = JournalOutcome {
            spec_name: out.spec_name.clone(),
            total_points: 4,
            recovered: 0,
            executed: 2,
            aggregate: out.aggregate,
            interrupted: true,
            wall_ms: 3,
            threads: 1,
        };
        let summary = journal_summary_json(&partial);
        assert!(summary.ends_with("\"interrupted\":true}"));
        validate_summary(&summary).expect("interrupted summary conforms");
        assert!(
            validate_summary(&summary.replace("\"interrupted\":true", "\"interrupted\":1"))
                .is_err(),
            "non-boolean marker is rejected"
        );
    }

    #[test]
    fn runner_chaos_ensemble_runs_under_faults() {
        // A trimmed chaos grid (the builtin's shape, fewer seeds) to keep
        // unit-test wall time down while still exercising the fallible path.
        let spec = CampaignSpec {
            name: "chaos_mini".into(),
            grid: CampaignGrid::Chaos {
                nodes: 12,
                extra_edges: 3,
                drop_pm: vec![0, 250],
                seeds: vec![1, 2],
                bandwidth: 8,
            },
        };
        let out = run_campaign(&spec, &opts(2)).expect("runs");
        assert_eq!(out.aggregate.points, 4);
        assert_eq!(out.aggregate.errors, 0);
        assert_eq!(out.aggregate.points_failed, 0);
        assert_eq!(
            out.aggregate.accepted, 4,
            "robust broadcast should inform everyone"
        );
        assert!(
            out.aggregate.dropped > 0,
            "the lossy half must drop messages"
        );
    }

    #[test]
    fn runner_panicking_points_become_failure_records_and_grid_continues() {
        // B = 1 passes gadget validation but the verifier's id-width
        // messages cannot fit, so every point panics inside the
        // algorithm layer. The grid must commit a failure record per
        // index and keep going — never abort.
        let spec = CampaignSpec {
            name: "panic_grid".into(),
            grid: CampaignGrid::Gadgets {
                bit_sizes: vec![4],
                seeds: vec![1],
                bandwidth: 1,
            },
        };
        let total = spec.points().len() as u64;
        assert!(total >= 2, "both gadget families expand");
        let out = run_campaign(&spec, &opts(2)).expect("run survives panicking points");
        assert_eq!(out.aggregate.points, total);
        assert_eq!(out.aggregate.points_failed, total);
        assert_eq!(out.aggregate.ok, 0);
        assert!(out.records.is_empty());
        for (i, f) in out.failures.iter().enumerate() {
            assert_eq!(f.index, i);
            // The width assertions panic with plain text (not a SimError
            // Display string), so this lands in the generic panic bucket.
            assert_eq!(f.kind, "panic", "unexpected classification: {}", f.error);
            assert!(f.error.contains("exceeds B"), "payload kept: {}", f.error);
            assert_eq!(f.attempts, 1, "the default budget is one attempt");
        }
        // Every journal line of this outcome is a valid failure record.
        for line in out.deterministic_jsonl().lines() {
            crate::point::validate_failure_line(line).expect("failure line conforms");
        }
        // And the mixed-line fold matches the order-independent fold.
        assert_eq!(
            Aggregate::fold_full(&out.records, &out.failures),
            out.aggregate
        );
    }

    #[test]
    fn runner_deadline_failures_are_retried_to_the_attempt_budget() {
        // A zero deadline cannot be met; each attempt times out, the
        // supervisor retries once (deadlines are transient), then
        // commits a failure with the full attempt count. The point is
        // deliberately heavy (~75 ms in debug builds) so the attempt
        // thread cannot finish before the deadline check even under
        // scheduler contention.
        let spec = CampaignSpec {
            name: "deadline_grid".into(),
            grid: CampaignGrid::SimThm {
                gammas: vec![10],
                lengths: vec![129],
                bandwidth: 16,
            },
        };
        let out = run_campaign(
            &spec,
            &RunOptions {
                point_deadline_ms: Some(0),
                max_attempts: 2,
                ..RunOptions::default()
            },
        )
        .expect("run survives deadline overruns");
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.kind, "deadline");
        assert!(f.retryable);
        assert_eq!(f.attempts, 2, "the budget allows exactly one retry");
        assert_eq!(out.aggregate.points_failed, 1);
        assert_eq!(out.aggregate.points_retried, 1);
    }

    #[test]
    fn runner_backoff_schedule_is_deterministic_and_bounded() {
        for (index, attempt) in [(0usize, 1u32), (3, 2), (11, 4), (2, 9)] {
            let a = backoff_ms(index, attempt);
            let b = backoff_ms(index, attempt);
            assert_eq!(a, b, "pure function of its arguments");
            assert!(a <= 250, "capped at 250 ms, got {a}");
            assert!(a >= 25, "at least the base delay, got {a}");
        }
        assert_ne!(backoff_ms(0, 1), backoff_ms(1, 1), "index moves the jitter");
    }

    /// The batches `execute_grid` hands its commit callback on a
    /// 64-point chaos grid, as `(first_index, point indices)`. The
    /// callback sleeps `stall_ms` on its first batch, so the workers
    /// run ahead of it.
    fn commit_batches(threads: usize, stall_ms: u64) -> Vec<(usize, Vec<usize>)> {
        let spec = CampaignSpec {
            name: "batch_grid".into(),
            grid: CampaignGrid::Chaos {
                nodes: 8,
                extra_edges: 2,
                drop_pm: vec![0, 100],
                seeds: (0..32).collect(),
                bandwidth: 4,
            },
        };
        let points = spec.points();
        assert_eq!(points.len(), 64);
        let mut batches: Vec<(usize, Vec<usize>)> = Vec::new();
        let status = execute_grid(
            &points,
            0,
            &opts(threads),
            &CancelToken::new(),
            |first, batch| {
                if batches.is_empty() {
                    std::thread::sleep(Duration::from_millis(stall_ms));
                }
                let indices = batch.iter().map(|out| match out {
                    PointOutcome::Done(slot) => slot.0.index,
                    PointOutcome::Failed(f) => f.index,
                });
                batches.push((first, indices.collect()));
                Ok(())
            },
        )
        .expect("this commit never fails");
        assert!(!status.interrupted);
        assert_eq!(status.executed, 64);
        batches
    }

    #[test]
    fn runner_commits_contiguous_batches_covering_every_index_once() {
        for (threads, stall_ms) in [(4, 50), (1, 0)] {
            let batches = commit_batches(threads, stall_ms);
            let mut next = 0;
            for (first, indices) in &batches {
                assert_eq!(*first, next, "batches arrive in index order");
                assert!(!indices.is_empty(), "no empty batch");
                let run: Vec<usize> = (next..next + indices.len()).collect();
                assert_eq!(*indices, run, "a batch is one contiguous run");
                next += indices.len();
            }
            assert_eq!(next, 64, "every index, exactly once");
            if threads > 1 {
                assert!(
                    batches.iter().any(|(_, indices)| indices.len() > 1),
                    "outcomes ready during the stall share a batch: {batches:?}"
                );
            }
        }
    }

    #[test]
    fn runner_journaled_telemetry_dir_archives_every_profiled_point() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let dir = std::env::temp_dir().join(format!("qdc_runner_telemetry_{}", std::process::id()));
        let out_path = dir.join("records.jsonl").to_string_lossy().into_owned();
        let telemetry_dir = dir.join("telemetry").to_string_lossy().into_owned();
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let options = RunOptions {
            telemetry: TelemetryMode::Exact,
            ..opts(2)
        };
        let config = JournalConfig {
            out_path: out_path.clone(),
            telemetry_dir: Some(telemetry_dir.clone()),
            ..JournalConfig::default()
        };
        run_campaign_journaled(&spec, &options, &config, &CancelToken::new()).expect("runs");
        let journal = std::fs::read_to_string(&out_path).expect("journal exists");
        assert_eq!(journal.lines().count(), spec.points().len());
        for (i, line) in journal.lines().enumerate() {
            let record = json::parse(line).expect("record parses");
            let metrics = record.get("metrics").expect("metrics");
            let path = stream_telemetry_path(&telemetry_dir, i);
            let text = std::fs::read_to_string(&path).expect("simthm runs are profiled");
            let totals = TelemetryReport::from_jsonl(&text)
                .expect("archive parses")
                .totals();
            assert_eq!(
                (Some(totals.messages), Some(totals.bits)),
                (
                    metrics.get("messages_sent").and_then(Json::as_u64),
                    metrics.get("bits_sent").and_then(Json::as_u64)
                ),
                "{}",
                path.display()
            );
        }
        let archives: Vec<String> = std::fs::read_dir(&telemetry_dir)
            .expect("telemetry dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !archives.iter().any(|n| n.ends_with(".part")),
            "{archives:?}"
        );
        assert_eq!(archives.len(), spec.points().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runner_cancelled_token_interrupts_before_any_point() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let cancel = CancelToken::new();
        cancel.cancel();
        let dir = std::env::temp_dir().join("qdc_runner_cancel_test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let out_path = dir.join("cancelled.jsonl").to_string_lossy().into_owned();
        let outcome = run_campaign_journaled(
            &spec,
            &RunOptions::default(),
            &JournalConfig {
                out_path: out_path.clone(),
                resume: false,
                ..JournalConfig::default()
            },
            &cancel,
        )
        .expect("cancelled run still returns cleanly");
        assert!(outcome.interrupted);
        assert_eq!(outcome.executed, 0);
        assert_eq!(
            std::fs::read_to_string(&out_path).expect("journal exists"),
            "",
            "nothing was committed"
        );
        // Resume with a live token completes the grid.
        let resumed = run_campaign_journaled(
            &spec,
            &RunOptions::default(),
            &JournalConfig {
                out_path: out_path.clone(),
                resume: true,
                ..JournalConfig::default()
            },
            &CancelToken::new(),
        )
        .expect("resume runs");
        assert!(!resumed.interrupted);
        assert_eq!(resumed.executed, resumed.total_points);
        let reference = run_campaign(&spec, &RunOptions::default()).expect("reference");
        assert_eq!(
            std::fs::read_to_string(&out_path).expect("journal exists"),
            reference.deterministic_jsonl(),
            "resumed journal matches the in-memory deterministic form"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
