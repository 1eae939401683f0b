//! Journal classification and service data-dir recovery.
//!
//! The service keeps one directory with three kinds of entries per job:
//!
//! ```text
//! <data>/job_<id>.json            — the submission (id, client, spec)
//! <data>/job_<id>.records.jsonl   — the fsync-per-line journal
//! <data>/job_<id>.telemetry/      — per-point telemetry archives
//! ```
//!
//! On startup the service scans this directory and rebuilds its queue:
//! a job whose journal holds every grid point is restored as completed;
//! anything less — a missing journal, a clean prefix, or a torn tail —
//! is re-enqueued and resumes at the first missing index. The journal
//! triage lives in [`classify_journal`] so the `campaign verify`
//! subcommand can run exactly the same dry-run classification on any
//! records file without a service in sight.

use crate::core::{Job, JobState};
use qdc_congest::json::{self, Json};
use qdc_harness::{journal, spec_from_json, spec_to_json, Aggregate, CampaignSpec};
use std::io;
use std::path::{Path, PathBuf};

/// The verdict on one journal file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalClass {
    /// Every byte belongs to a committed record (an empty file counts:
    /// zero records is a valid prefix).
    Clean {
        /// Committed records in the journal.
        entries: usize,
    },
    /// A torn tail follows a valid record prefix — the crash-recovery
    /// path truncates the tail on its record boundary and resumes.
    Recoverable {
        /// Committed records in the valid prefix.
        entries: usize,
        /// Bytes of the valid prefix.
        kept_bytes: usize,
        /// Bytes of the torn tail that truncation would drop.
        truncated_bytes: usize,
    },
    /// The file is not a prefix of the expected campaign at all — a
    /// different campaign's journal, or no recognizable record on the
    /// first line. Resuming over it would destroy someone else's data,
    /// so this is a hard stop.
    Foreign {
        /// What disqualified the file.
        reason: String,
    },
}

/// Classifies a journal. When `expected_campaign` is `None` the
/// campaign name is taken from the journal's own first record (the
/// `verify` use case: "is this file internally consistent?"); passing
/// `Some(name)` additionally pins the campaign (the service use case,
/// where the submission says which campaign the journal must belong to).
pub fn classify_journal(text: &str, expected_campaign: Option<&str>) -> JournalClass {
    if text.is_empty() {
        return JournalClass::Clean { entries: 0 };
    }
    let campaign = match expected_campaign {
        Some(name) => name.to_string(),
        None => {
            let first = text.lines().next().unwrap_or("");
            match json::parse(first).ok().as_ref().and_then(|doc| {
                doc.get("campaign").and_then(|v| match v {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
            }) {
                Some(name) => name,
                None => {
                    return JournalClass::Foreign {
                        reason: "first line is not a campaign record".into(),
                    }
                }
            }
        }
    };
    match journal::recover(text, &campaign) {
        Err(reason) => JournalClass::Foreign { reason },
        Ok(recovery) if recovery.truncated_bytes == 0 => JournalClass::Clean {
            entries: recovery.entries.len(),
        },
        Ok(recovery) => JournalClass::Recoverable {
            entries: recovery.entries.len(),
            kept_bytes: recovery.kept_bytes,
            truncated_bytes: recovery.truncated_bytes,
        },
    }
}

/// The submission document persisted as `job_<id>.json`. Internal to
/// the service (it is not served), but written in the same strict
/// hand-rolled dialect as everything else so a restart can trust it.
pub fn job_doc_json(id: u64, client: &str, telemetry: bool, spec: &CampaignSpec) -> String {
    Json::obj([
        ("id", Json::Num(id)),
        ("client", Json::Str(client.to_string())),
        ("telemetry", Json::Bool(telemetry)),
        ("spec", spec_to_json(spec)),
    ])
    .to_json()
}

/// Parses one persisted submission document back.
pub fn parse_job_doc(text: &str) -> Result<(u64, String, bool, CampaignSpec), String> {
    let doc = json::parse(text.strip_suffix('\n').unwrap_or(text))?;
    json::require_keys(&doc, &["id", "client", "telemetry", "spec"], &[])?;
    let id = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("`id` must be an unsigned integer")?;
    let Some(Json::Str(client)) = doc.get("client") else {
        return Err("`client` must be a string".into());
    };
    let Some(Json::Bool(telemetry)) = doc.get("telemetry") else {
        return Err("`telemetry` must be a boolean".into());
    };
    let spec = spec_from_json(doc.get("spec").expect("checked above"))?;
    Ok((id, client.clone(), *telemetry, spec))
}

/// Paths of one job's on-disk artifacts.
pub fn job_paths(data_dir: &Path, id: u64) -> (PathBuf, PathBuf, PathBuf) {
    (
        data_dir.join(format!("job_{id}.json")),
        data_dir.join(format!("job_{id}.records.jsonl")),
        data_dir.join(format!("job_{id}.telemetry")),
    )
}

/// What a startup scan recovered.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Jobs rebuilt from disk, in id order, ready for
    /// [`ServiceCore::restore`](crate::core::ServiceCore::restore).
    pub jobs: Vec<Job>,
    /// Entries that could not be recovered (foreign journals, unreadable
    /// submission documents). The scan skips them rather than failing:
    /// one damaged job must not take the service down.
    pub warnings: Vec<String>,
}

/// Scans a service data dir and rebuilds every job from its submission
/// document and journal. Torn journal tails are truncated on their
/// record boundary here (exactly what a resumed run would do), so
/// everything the service later streams from these files is committed
/// bytes only.
pub fn scan_data_dir(data_dir: &Path) -> io::Result<ScanReport> {
    let mut report = ScanReport::default();
    let mut doc_paths = Vec::new();
    for entry in std::fs::read_dir(data_dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("job_") && name.ends_with(".json") {
            doc_paths.push(path);
        }
    }
    doc_paths.sort();

    for doc_path in doc_paths {
        let text = std::fs::read_to_string(&doc_path)?;
        let (id, client, telemetry, spec) = match parse_job_doc(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                report.warnings.push(format!(
                    "{}: unreadable submission: {e}",
                    doc_path.display()
                ));
                continue;
            }
        };
        let total_points = spec.point_count();
        let (_, records_path, _) = job_paths(data_dir, id);
        let journal_text = match std::fs::read_to_string(&records_path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let (entries, kept_bytes, truncate) =
            match classify_journal(&journal_text, Some(&spec.name)) {
                JournalClass::Clean { entries } => (entries, journal_text.len(), false),
                JournalClass::Recoverable {
                    entries,
                    kept_bytes,
                    ..
                } => (entries, kept_bytes, true),
                JournalClass::Foreign { reason } => {
                    report.warnings.push(format!(
                        "{}: foreign journal, job {id} skipped: {reason}",
                        records_path.display()
                    ));
                    continue;
                }
            };
        if truncate {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&records_path)?;
            file.set_len(kept_bytes as u64)?;
            file.sync_all()?;
        }
        let mut aggregate = Aggregate::default();
        if entries > 0 {
            // Re-fold the kept prefix; classify_journal proved it valid.
            let recovery = journal::recover(&journal_text[..kept_bytes], &spec.name)
                .expect("classified as recoverable");
            for entry in &recovery.entries {
                aggregate.add_entry(entry);
            }
        }
        let state = if entries as u64 >= total_points {
            JobState::Completed
        } else {
            JobState::Interrupted
        };
        report.jobs.push(Job {
            id,
            client,
            spec,
            telemetry,
            total_points,
            state,
            committed: entries as u64,
            aggregate,
        });
    }
    report.jobs.sort_by_key(|j| j.id);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdc_harness::{builtin, run_campaign, RunOptions};

    fn smoke_jsonl() -> String {
        let spec = builtin("simthm_smoke").expect("builtin");
        run_campaign(&spec, &RunOptions::default())
            .expect("runs")
            .deterministic_jsonl()
    }

    #[test]
    fn scan_classifies_clean_torn_and_foreign_journals() {
        let clean = smoke_jsonl();
        assert_eq!(
            classify_journal(&clean, None),
            JournalClass::Clean { entries: 4 }
        );
        assert_eq!(
            classify_journal("", Some("simthm_smoke")),
            JournalClass::Clean { entries: 0 }
        );

        let torn = format!("{}{}", clean, &clean.lines().next().expect("line")[..40]);
        match classify_journal(&torn, None) {
            JournalClass::Recoverable {
                entries,
                kept_bytes,
                truncated_bytes,
            } => {
                assert_eq!(entries, 4);
                assert_eq!(kept_bytes, clean.len());
                assert_eq!(truncated_bytes, 40);
            }
            other => panic!("expected recoverable, got {other:?}"),
        }

        assert!(matches!(
            classify_journal(&clean, Some("another_campaign")),
            JournalClass::Foreign { .. }
        ));
        assert!(matches!(
            classify_journal("not json at all\n", None),
            JournalClass::Foreign { .. }
        ));
    }

    #[test]
    fn scan_job_doc_round_trips() {
        let spec = builtin("chaos_ensemble").expect("builtin");
        let text = job_doc_json(7, "alice", true, &spec);
        let (id, client, telemetry, back) = parse_job_doc(&text).expect("parses");
        assert_eq!(id, 7);
        assert_eq!(client, "alice");
        assert!(telemetry);
        assert_eq!(back, spec);
        assert!(parse_job_doc("{\"id\":1}").is_err());
    }

    #[test]
    fn scan_rebuilds_completed_interrupted_and_fresh_jobs() {
        let dir = std::env::temp_dir().join(format!(
            "qdc_scan_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = builtin("simthm_smoke").expect("builtin");
        let jsonl = smoke_jsonl();

        // Job 1: complete journal. Job 2: half a journal plus a torn
        // tail. Job 3: no journal yet. Job 4: a foreign journal.
        for (id, client) in [(1, "a"), (2, "b"), (3, "c"), (4, "d")] {
            std::fs::write(
                dir.join(format!("job_{id}.json")),
                job_doc_json(id, client, false, &spec),
            )
            .expect("write doc");
        }
        std::fs::write(dir.join("job_1.records.jsonl"), &jsonl).expect("write");
        let two_lines: String = jsonl.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(
            dir.join("job_2.records.jsonl"),
            format!("{two_lines}{{\"torn"),
        )
        .expect("write");
        std::fs::write(
            dir.join("job_4.records.jsonl"),
            jsonl.replace("simthm_smoke", "someone_elses"),
        )
        .expect("write");

        let report = scan_data_dir(&dir).expect("scans");
        assert_eq!(report.jobs.len(), 3, "foreign job 4 is skipped");
        assert_eq!(report.warnings.len(), 1, "and warned about");
        let by_id: Vec<_> = report
            .jobs
            .iter()
            .map(|j| (j.id, j.state, j.committed))
            .collect();
        assert_eq!(
            by_id,
            vec![
                (1, JobState::Completed, 4),
                (2, JobState::Interrupted, 2),
                (3, JobState::Interrupted, 0),
            ]
        );
        // The torn tail was truncated on its record boundary.
        let kept = std::fs::read_to_string(dir.join("job_2.records.jsonl")).expect("read");
        assert_eq!(kept, two_lines);

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
