//! Crash-safe campaign journaling: append-only record durability and
//! the one recovery pass behind `campaign resume`, the service's startup
//! scan, live job progress and `campaign verify`.
//!
//! # Journal format
//!
//! The journal *is* the campaign's JSONL output file — there is no
//! sidecar. Line `i` of the file is the outcome of grid point `i`:
//! either a `qdc-campaign-point/v1` record or a
//! `qdc-campaign-failure/v1` record. Because the runner commits lines
//! strictly in index order, "resume at the first missing index" is
//! well-defined: a journal with `k` complete, valid lines means points
//! `0..k` are done and point `k` is next.
//!
//! # Durability discipline
//!
//! [`Journal::append_lines`] writes each record as **one** `write_all`
//! call (line plus trailing newline in a single buffer — the writer
//! never leaves a partial line in an OS buffer across a flush), then
//! calls `sync_data` **once for the batch**; [`Journal::append_line`]
//! is its one-line case. The runner's committer appends every record
//! that is ready in index order as one batch (group commit): the batch
//! is whatever finished while the previous sync ran, with no timer and
//! no size limit. What holds:
//!
//! - The journal is a record-boundary prefix at every instant. A crash
//!   can never interleave two lines or persist a record without its
//!   newline fence except as a recognizable torn tail.
//! - Archives land before their line.
//! - The output is byte-identical at any thread count and after resume.
//! - The committer never blocks on its channel with a written line
//!   unsynced, and the run never returns with one: every batch ends
//!   with its sync, error paths included.
//! - SIGKILL loses nothing that was written.
//! - A power cut can lose the batch being synced. The run has reported
//!   none of those records, and resume recomputes them into the same
//!   bytes.
//! - The service's job submissions are not journal lines: each is still
//!   persisted before it is acknowledged.
//!
//! # Recovery pass
//!
//! [`recover`] scans an existing journal prefix-wise: every complete,
//! schema-valid line whose `point` index matches its position is kept;
//! the first torn, unparsable, out-of-order or unknown-schema line —
//! and everything after it — is truncated (re-run on resume). Torn
//! bytes never swallow a preceding valid record because truncation
//! always lands on the newline fence of the last valid line. A line
//! that is valid but names a *different campaign* is not truncatable
//! damage — the caller pointed the runner at the wrong file — and
//! surfaces as a hard error instead. So does a line whose counters
//! would push the folded [`Aggregate`] past `u64::MAX`: the pass folds
//! each kept line as it scans, so it holds O(1) state, and it refuses
//! the file rather than wrap a total.
//!
//! [`check`] adds the refusal of more records than the grid has points,
//! and [`resume`] is that check for a writer: it is the only code that
//! truncates a journal. Read-only callers use [`recover`] or [`check`].
//!
//! # Commit watch
//!
//! A reader that follows a live journal waits on a [`CommitWatch`]
//! instead of re-reading the file on a timer. The journaled runner
//! publishes the journal's durable length there: the recovered length
//! once it has opened the file, then the new length after each batch's
//! `sync_data`. Every published length is a record boundary whose bytes
//! are synced, so what a reader takes from below it survives a power
//! cut.

use crate::point::{metrics_from_json, FAILURE_TABLE, RECORD_TABLE};
use crate::runner::Aggregate;
use crate::spec::{CampaignSpec, FAILURE_SCHEMA, POINT_SCHEMA};
use qdc_congest::json::{self, Json};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Append-only journal writer: one `write_all` per line and one
/// `sync_data` per batch, as described in the module docs.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Creates (or truncates) a fresh journal at `path`.
    pub fn create(path: &str) -> std::io::Result<Journal> {
        Ok(Journal {
            file: std::fs::File::create(path)?,
        })
    }

    /// Opens an existing journal for appending (creating it if absent —
    /// resuming a campaign that never started is just starting it).
    pub fn append(path: &str) -> std::io::Result<Journal> {
        Ok(Journal {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        })
    }

    /// Durably appends a batch of record lines: one `write_all` per
    /// line, then one `sync_data`. Lines must not themselves contain a
    /// newline; the record boundary `\n` is added here so each whole
    /// line reaches the file in a single `write_all`. The sync runs even
    /// when a write fails, so no written line is left unsynced.
    pub fn append_lines<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        let written = lines.into_iter().try_for_each(|line| {
            debug_assert!(!line.contains('\n'), "journal lines are newline-free");
            buf.clear();
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            self.file.write_all(&buf)
        });
        let synced = self.file.sync_data();
        written.and(synced)
    }

    /// Durably appends one record line: the one-line batch of
    /// [`append_lines`](Journal::append_lines).
    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        self.append_lines([line])
    }

    /// Flushes file metadata too (used once at shutdown; per-batch
    /// durability only needs `sync_data`).
    pub fn sync_all(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// What a [`CommitWatch`] has published.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Committed {
    /// Bytes of the journal known to be synced: a record boundary.
    pub len: u64,
    /// Whether the run is over: nothing more will be published.
    pub closed: bool,
}

/// A journal's durable length and a closed flag under one mutex, with a
/// condvar that every change notifies (see the module docs). The run's
/// owner closes the watch once the run has returned.
#[derive(Debug, Default)]
pub struct CommitWatch {
    committed: Mutex<Committed>,
    changed: Condvar,
}

impl CommitWatch {
    /// Publishes `len` durable bytes and wakes every waiter.
    pub fn publish(&self, len: u64) {
        self.update(|c| c.len = len);
    }

    /// Marks the run over and wakes every waiter.
    pub fn close(&self) {
        self.update(|c| c.closed = true);
    }

    /// Wakes every waiter without publishing anything, so each re-checks
    /// its condition. A waiter whose condition also reads a flag set
    /// elsewhere (a cancel) checks it under this watch's mutex, and this
    /// notifies under the same mutex, so a wake-up made after the flag is
    /// set is never lost.
    pub fn wake(&self) {
        self.update(|_| {});
    }

    /// Blocks until `ready` holds for what is published, and returns it.
    pub fn wait_until(&self, mut ready: impl FnMut(Committed) -> bool) -> Committed {
        *self
            .changed
            .wait_while(self.lock(), |c| !ready(*c))
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A panic cannot leave a [`Committed`] half-written, so a poisoned
    /// lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Committed> {
        self.committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn update(&self, change: impl FnOnce(&mut Committed)) {
        let mut committed = self.lock();
        change(&mut committed);
        self.changed.notify_all();
    }
}

/// What the recovery pass found in an existing journal.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Lines that survived, which is the first point index left to run.
    pub committed: usize,
    /// The fold of the surviving lines: exactly the aggregate a live run
    /// had when it committed the same prefix.
    pub aggregate: Aggregate,
    /// Byte length of the surviving prefix (always on a `\n` fence).
    pub kept_bytes: usize,
    /// Bytes past the surviving prefix (torn tail; `0` for a clean
    /// journal). The caller truncates the file to `kept_bytes` before
    /// appending.
    pub truncated_bytes: usize,
}

/// Recovers the journal at `path` for `spec` and truncates its torn
/// tail on the last record boundary (`set_len`, then `sync_all`), so
/// the file is ready to append to. A missing file is an empty journal.
///
/// # Errors
///
/// The outer `Err` is an I/O failure. The inner `Err` means the file is
/// refused, as [`check`] refuses it. Such a file is left untouched.
pub fn resume(path: &Path, spec: &CampaignSpec) -> io::Result<Result<Recovery, String>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let recovery = match check(&bytes, spec) {
        Ok(recovery) => recovery,
        Err(reason) => return Ok(Err(reason)),
    };
    if recovery.truncated_bytes > 0 {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(recovery.kept_bytes as u64)?;
        file.sync_all()?;
    }
    Ok(Ok(recovery))
}

/// [`recover`] for `spec`, refusing also a journal that holds more
/// records than the grid has points: the read-only check [`resume`]
/// runs before it truncates.
pub fn check(bytes: &[u8], spec: &CampaignSpec) -> Result<Recovery, String> {
    let recovery = recover(bytes, &spec.name)?;
    let points = spec.point_count();
    if recovery.committed as u64 > points {
        return Err(format!(
            "journal holds {} records but the grid has only {points} points",
            recovery.committed
        ));
    }
    Ok(recovery)
}

/// Scans the journal's `bytes` for campaign `campaign` and returns the
/// surviving prefix, folded line by line, per the recovery policy in
/// the module docs. Records are UTF-8, so everything past the longest
/// valid UTF-8 prefix is torn tail too: a cut inside a multi-byte
/// character (a campaign name may hold one) is truncated like any
/// other cut.
///
/// # Errors
///
/// Returns a message when a (valid) line belongs to a different
/// campaign — truncating someone else's results would destroy data, so
/// that is a hard mismatch, not recoverable damage — or when folding a
/// line would push a counter past `u64::MAX`. That message is
/// `journal line <index>: ` followed by `TotalsOverflow`'s text, which
/// is how `campaign verify` tells it from a foreign line.
pub fn recover<B: AsRef<[u8]> + ?Sized>(bytes: &B, campaign: &str) -> Result<Recovery, String> {
    let bytes = bytes.as_ref();
    let text = bytes.utf8_chunks().next().map_or("", |chunk| chunk.valid());
    let mut recovery = Recovery::default();
    let mut pos = 0usize;
    while pos < text.len() {
        let Some(nl) = text[pos..].find('\n') else {
            break; // torn final line: no newline fence, truncate it
        };
        let line = &text[pos..pos + nl];
        if !fold_line(line, campaign, recovery.committed, &mut recovery.aggregate)? {
            break; // invalid line: truncate from here on
        }
        pos += nl + 1;
        recovery.committed += 1;
        recovery.kept_bytes = pos;
    }
    recovery.truncated_bytes = bytes.len() - recovery.kept_bytes;
    Ok(recovery)
}

/// Validates the line in position `index` and folds it into
/// `aggregate`. `Ok(true)` keeps it, `Ok(false)` truncates from here,
/// and `Err` is a campaign mismatch or a refused fold.
fn fold_line(
    line: &str,
    campaign: &str,
    index: usize,
    aggregate: &mut Aggregate,
) -> Result<bool, String> {
    let Ok(doc) = json::parse(line) else {
        return Ok(false);
    };
    let (table, failure) = match doc.get("schema") {
        Some(Json::Str(s)) if s == POINT_SCHEMA => (&RECORD_TABLE, false),
        Some(Json::Str(s)) if s == FAILURE_SCHEMA => (&FAILURE_TABLE, true),
        _ => return Ok(false),
    };
    if json::check(&doc, table).is_err() {
        return Ok(false);
    }
    // The line is schema-valid: now it must belong to *this* campaign…
    match doc.get("campaign") {
        Some(Json::Str(c)) if c == campaign => {}
        Some(Json::Str(c)) => {
            return Err(format!(
                "journal line {index} belongs to campaign `{c}`, not `{campaign}` \
                 — refusing to truncate another campaign's results"
            ));
        }
        _ => return Ok(false),
    }
    // …and sit at its own index (the index-ordered commit contract).
    if doc.get("point").and_then(Json::as_u64) != Some(index as u64) {
        return Ok(false);
    }
    let folded = if failure {
        let attempts = doc.get("attempts").and_then(Json::as_u64);
        aggregate.add_failure(attempts.expect("validated above"))
    } else {
        let accept = match doc.get("accept") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        };
        let errored = matches!(doc.get("error"), Some(Json::Str(_)));
        metrics_from_json(doc.get("metrics").expect("validated above"))
            .and_then(|report| aggregate.add_point(&report, accept, errored))
    };
    folded.map_err(|e| format!("journal line {index}: {e}"))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{execute_point, failure_json, record_json, PointFailure, PointRecord};
    use crate::spec::{builtin, PointSpec};
    use qdc_congest::{RunReport, TotalsOverflow};

    fn chaos_record(index: usize) -> PointRecord {
        let spec = PointSpec::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: 100,
            seed: 1,
            bandwidth: 4,
        };
        execute_point(index, &spec).expect("runs").0
    }

    fn watchdog_failure(index: usize) -> PointFailure {
        PointFailure {
            index,
            kind: "watchdog_tripped",
            retryable: true,
            attempts: 3,
            error: "watchdog tripped: no quiescence after 40 rounds".into(),
        }
    }

    fn sample_lines(campaign: &str) -> Vec<String> {
        vec![
            record_json(campaign, &chaos_record(0), false),
            failure_json(campaign, &watchdog_failure(1)),
            record_json(campaign, &chaos_record(2), false),
        ]
    }

    #[test]
    fn journal_recover_accepts_a_clean_file() {
        let lines = sample_lines("t");
        let text = lines.join("\n") + "\n";
        let rec = recover(&text, "t").expect("clean journal");
        assert_eq!(rec.committed, 3);
        assert_eq!(rec.kept_bytes, text.len());
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(
            rec.aggregate,
            Aggregate::fold_full(&[chaos_record(0), chaos_record(2)], &[watchdog_failure(1)])
        );
    }

    #[test]
    fn journal_recover_truncates_a_torn_tail() {
        let lines = sample_lines("t");
        let clean = lines[..2].join("\n") + "\n";
        // Torn fragments (no newline fence), complete-but-invalid lines
        // and bytes that are not UTF-8 (a cut after the first byte of a
        // two-byte `é`, a stray byte) are all truncated from the first
        // bad byte onward.
        let tails: [&[u8]; 7] = [
            b"",
            b"{\"schema\":\"qdc-camp",
            b"garbage",
            b"{}\n",
            b"null\nmore",
            b"{\"campaign\":\"\xC3",
            b"\xFF\n{}\n",
        ];
        for tail in tails {
            let torn = [clean.as_bytes(), tail].concat();
            let rec = recover(&torn, "t").expect("recoverable");
            assert_eq!(rec.committed, 2, "tail {tail:?}");
            assert_eq!(rec.kept_bytes, clean.len());
            assert_eq!(rec.truncated_bytes, tail.len());
        }
    }

    #[test]
    fn journal_recover_truncates_an_out_of_order_index() {
        let lines = sample_lines("t");
        // Drop line 1: line at position 1 then carries point index 2.
        let text = format!("{}\n{}\n", lines[0], lines[2]);
        let rec = recover(&text, "t").expect("recoverable");
        assert_eq!(rec.committed, 1);
        assert_eq!(rec.kept_bytes, lines[0].len() + 1);
    }

    #[test]
    fn journal_recover_rejects_a_foreign_campaign() {
        let text = sample_lines("other").join("\n") + "\n";
        let err = recover(&text, "t").expect_err("foreign journal");
        assert!(err.contains("`other`"), "message names the culprit: {err}");
    }

    #[test]
    fn journal_recover_of_empty_text_resumes_from_zero() {
        let rec = recover("", "t").expect("empty journal");
        assert_eq!(rec.committed, 0);
        assert_eq!(rec.aggregate, Aggregate::default());
        assert_eq!(rec.kept_bytes, 0);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn journal_recovered_metrics_match_the_original_record() {
        let spec = PointSpec::Chaos {
            nodes: 10,
            extra_edges: 3,
            drop_pm: 200,
            seed: 7,
            bandwidth: 8,
        };
        let (orig, _) = execute_point(0, &spec).expect("runs");
        let line = record_json("t", &orig, false);
        let doc = json::parse(&line).expect("record parses");
        let metrics = doc.get("metrics").expect("metrics present");
        assert_eq!(metrics_from_json(metrics), Ok(orig.metrics));
        let rec = recover(&(line + "\n"), "t").expect("clean journal");
        assert_eq!(rec.aggregate, Aggregate::fold_full(&[orig], &[]));
    }

    #[test]
    fn journal_recover_refuses_a_fold_past_u64_max() {
        let spec = builtin("simthm_smoke").expect("builtin");
        let name = spec.name.as_str();
        let mut heavy = chaos_record(0);
        heavy.metrics.messages_sent = u64::MAX;
        let mut next = chaos_record(1);
        next.metrics.messages_sent = 1;
        let max_attempts = |f: &PointFailure| {
            failure_json(name, f).replace("\"attempts\":3", &format!("\"attempts\":{}", u64::MAX))
        };
        // Two point lines whose messages sum past u64::MAX, and two
        // failure lines whose retries do.
        for lines in [
            [
                record_json(name, &heavy, false),
                record_json(name, &next, false),
            ],
            [
                max_attempts(&watchdog_failure(0)),
                max_attempts(&watchdog_failure(1)),
            ],
        ] {
            recover(&format!("{}\n", lines[0]), name).expect("line 0 alone fits");
            let text = format!("{}\n{}\n{{\"torn", lines[0], lines[1]);
            let err = recover(&text, name).expect_err("the fold overflows");
            assert_eq!(err, format!("journal line 1: {TotalsOverflow}"));

            // `resume` refuses the file before it truncates anything.
            let path = std::env::temp_dir().join(format!(
                "qdc_journal_overflow_{}_{:?}.jsonl",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::write(&path, &text).expect("write");
            let refused = resume(&path, &spec).expect("readable");
            assert_eq!(refused.expect_err("refused"), err);
            assert_eq!(std::fs::read_to_string(&path).expect("read"), text);
            std::fs::remove_file(&path).expect("cleanup");
        }
    }

    #[test]
    fn journal_refused_folds_leave_the_aggregate_as_it_was() {
        let mut agg = Aggregate::default();
        let heavy = RunReport {
            rounds: 3,
            completed: true,
            messages_sent: 10,
            bits_sent: u64::MAX - 1,
            max_bits_per_round: 7,
            messages_dropped: 1,
            nodes_crashed: 1,
            bits_corrupted: 1,
        };
        agg.add_point(&heavy, Some(true), false).expect("fits");
        agg.add_failure(u64::MAX).expect("fits");
        let before = agg;
        let light = RunReport {
            max_bits_per_round: 9,
            ..heavy
        };
        assert_eq!(
            agg.add_point(&light, Some(false), true),
            Err(TotalsOverflow)
        );
        assert_eq!(agg.add_failure(3), Err(TotalsOverflow));
        assert_eq!(agg, before, "a refused fold moves no counter");
    }

    #[test]
    fn journal_truncation_never_removes_a_valid_record() {
        // Satellite property: cutting the journal at *every* byte
        // position (a model of SIGKILL mid-write) recovers exactly the
        // complete lines that fully precede the cut — never fewer.
        let lines = sample_lines("t");
        let text = lines.join("\n") + "\n";
        let mut fence = Vec::new(); // fence[i] = bytes up to end of line i
        let mut acc = 0;
        for l in &lines {
            acc += l.len() + 1;
            fence.push(acc);
        }
        for cut in 0..=text.len() {
            let prefix = &text[..cut];
            let rec = recover(prefix, "t").expect("prefix recovers");
            let complete = fence.iter().filter(|&&f| f <= cut).count();
            assert_eq!(
                rec.committed, complete,
                "cut at byte {cut}: every fully-written line survives"
            );
            assert_eq!(
                rec.kept_bytes,
                if complete == 0 {
                    0
                } else {
                    fence[complete - 1]
                }
            );
        }
    }
}
