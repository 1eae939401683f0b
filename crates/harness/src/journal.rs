//! Crash-safe campaign journaling: append-only record durability and
//! the startup recovery pass behind `campaign resume`.
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
//! [`Journal::append_line`] writes each record as **one** `write_all`
//! call (line plus trailing newline in a single buffer — the writer
//! never leaves a partial line in an OS buffer across a flush) followed
//! by `sync_data`. A crash can therefore lose at most the line being
//! written; it can never interleave two lines or persist a record
//! without its newline fence except as a recognizable torn tail.
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
//! surfaces as a hard error instead.

use crate::point::{FAILURE_TABLE, RECORD_TABLE};
use crate::spec::{FAILURE_SCHEMA, POINT_SCHEMA};
use qdc_congest::json::{self, Json};
use qdc_congest::RunMetrics;
use std::io::Write;

/// Append-only journal writer with the one-line-per-write + fsync
/// discipline described in the module docs.
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

    /// Durably appends one record line. The line must not itself
    /// contain a newline; the record boundary `\n` is added here so the
    /// whole line reaches the file in a single `write_all`.
    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal lines are newline-free");
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        self.file.sync_data()
    }

    /// Flushes file metadata too (used once at shutdown; per-line
    /// durability only needs `sync_data`).
    pub fn sync_all(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// One recovered journal line, reduced to exactly what the aggregate
/// fold needs (the verbatim line bytes stay in the file untouched).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveredEntry {
    /// A completed point record.
    Point {
        /// The record's traffic metrics.
        metrics: RunMetrics,
        /// The record's verdict field.
        accept: Option<bool>,
        /// Whether the record carried a (legacy) error string.
        errored: bool,
    },
    /// A journaled point failure.
    Failure {
        /// How many attempts the supervisor made before giving up.
        attempts: u64,
    },
}

/// What the recovery pass found in an existing journal.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// One entry per surviving line, in index order — entry `i` is
    /// point `i`, so `entries.len()` is the first index left to run.
    pub entries: Vec<RecoveredEntry>,
    /// Byte length of the surviving prefix (always on a `\n` fence).
    pub kept_bytes: usize,
    /// Bytes past the surviving prefix (torn tail; `0` for a clean
    /// journal). The caller truncates the file to `kept_bytes` before
    /// appending.
    pub truncated_bytes: usize,
}

/// Scans journal `text` for campaign `campaign` and returns the
/// surviving prefix, per the recovery policy in the module docs.
///
/// # Errors
///
/// Returns a message when a (valid) line belongs to a different
/// campaign — truncating someone else's results would destroy data, so
/// that is a hard mismatch, not recoverable damage.
pub fn recover(text: &str, campaign: &str) -> Result<Recovery, String> {
    let mut entries = Vec::new();
    let mut kept = 0usize;
    let mut pos = 0usize;
    while pos < text.len() {
        let Some(nl) = text[pos..].find('\n') else {
            break; // torn final line: no newline fence, truncate it
        };
        let line = &text[pos..pos + nl];
        match classify_line(line, campaign, entries.len())? {
            Some(entry) => {
                entries.push(entry);
                pos += nl + 1;
                kept = pos;
            }
            None => break, // invalid line: truncate from here on
        }
    }
    Ok(Recovery {
        entries,
        kept_bytes: kept,
        truncated_bytes: text.len() - kept,
    })
}

/// Validates one line in position `index`. `Ok(Some(_))` keeps it,
/// `Ok(None)` truncates from here, `Err` is a campaign mismatch.
fn classify_line(
    line: &str,
    campaign: &str,
    index: usize,
) -> Result<Option<RecoveredEntry>, String> {
    let Ok(doc) = json::parse(line) else {
        return Ok(None);
    };
    let (table, failure) = match doc.get("schema") {
        Some(Json::Str(s)) if s == POINT_SCHEMA => (&RECORD_TABLE, false),
        Some(Json::Str(s)) if s == FAILURE_SCHEMA => (&FAILURE_TABLE, true),
        _ => return Ok(None),
    };
    if json::check(&doc, table).is_err() {
        return Ok(None);
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
        _ => return Ok(None),
    }
    // …and sit at its own index (the index-ordered commit contract).
    if doc.get("point").and_then(Json::as_u64) != Some(index as u64) {
        return Ok(None);
    }
    if failure {
        let attempts = doc
            .get("attempts")
            .and_then(Json::as_u64)
            .expect("validated above");
        return Ok(Some(RecoveredEntry::Failure { attempts }));
    }
    let m = doc.get("metrics").expect("validated above");
    let get = |k: &str| m.get(k).and_then(Json::as_u64).expect("validated above");
    Ok(Some(RecoveredEntry::Point {
        metrics: RunMetrics {
            rounds: get("rounds"),
            completed: get("completed"),
            messages_sent: get("messages_sent"),
            bits_sent: get("bits_sent"),
            max_bits_per_round: get("max_bits_per_round"),
            messages_dropped: get("messages_dropped"),
            nodes_crashed: get("nodes_crashed"),
            bits_corrupted: get("bits_corrupted"),
        },
        accept: match doc.get("accept") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        },
        errored: matches!(doc.get("error"), Some(Json::Str(_))),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{execute_point, failure_json, record_json, PointFailure};
    use crate::spec::PointSpec;

    fn sample_lines(campaign: &str) -> Vec<String> {
        let spec = PointSpec::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: 100,
            seed: 1,
            bandwidth: 4,
        };
        let (rec0, _) = execute_point(0, &spec).expect("runs");
        let (rec2, _) = execute_point(2, &spec).expect("runs");
        let fail1 = PointFailure {
            index: 1,
            kind: "watchdog_tripped",
            retryable: true,
            attempts: 3,
            error: "watchdog tripped: no quiescence after 40 rounds".into(),
        };
        vec![
            record_json(campaign, &rec0, false),
            failure_json(campaign, &fail1),
            record_json(campaign, &rec2, false),
        ]
    }

    #[test]
    fn journal_recover_accepts_a_clean_file() {
        let lines = sample_lines("t");
        let text = lines.join("\n") + "\n";
        let rec = recover(&text, "t").expect("clean journal");
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.kept_bytes, text.len());
        assert_eq!(rec.truncated_bytes, 0);
        assert!(matches!(rec.entries[0], RecoveredEntry::Point { .. }));
        assert_eq!(rec.entries[1], RecoveredEntry::Failure { attempts: 3 });
    }

    #[test]
    fn journal_recover_truncates_a_torn_tail() {
        let lines = sample_lines("t");
        let clean = lines[..2].join("\n") + "\n";
        // Torn fragments (no newline fence) and complete-but-invalid
        // lines are both truncated from the first bad byte onward.
        for tail in [
            "",
            "{\"schema\":\"qdc-camp",
            "garbage",
            "{}\n",
            "null\nmore",
        ] {
            let torn = format!("{clean}{tail}");
            let rec = recover(&torn, "t").expect("recoverable");
            assert_eq!(rec.entries.len(), 2, "tail {tail:?}");
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
        assert_eq!(rec.entries.len(), 1);
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
        assert!(rec.entries.is_empty());
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
        let text = record_json("t", &orig, false) + "\n";
        let rec = recover(&text, "t").expect("clean journal");
        let RecoveredEntry::Point {
            metrics,
            accept,
            errored,
        } = &rec.entries[0]
        else {
            panic!("point line recovers as a point entry");
        };
        assert_eq!(*metrics, orig.metrics);
        assert_eq!(*accept, orig.accept);
        assert!(!errored);
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
                rec.entries.len(),
                complete,
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
