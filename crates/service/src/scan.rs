//! Service data-dir recovery.
//!
//! The service keeps one directory with three kinds of entries per job:
//!
//! ```text
//! <data>/job_<id>.json            — the submission (id, client, spec)
//! <data>/job_<id>.records.jsonl   — the journal (fsync per batch)
//! <data>/job_<id>.telemetry/      — per-point telemetry archives
//! ```
//!
//! On startup the service scans this directory and rebuilds its queue:
//! a job whose journal holds every grid point is counted as completed;
//! anything less — a missing journal, a clean prefix, or a torn tail —
//! is re-enqueued and resumes at the first missing index. Each journal
//! goes through [`journal::resume`], the same reader `campaign resume`
//! uses, so the scan and a resumed run agree on every file. The scan
//! keeps nothing of the recovery but that verdict: a job's progress is
//! folded from its journal whenever it is asked for, and a finished
//! job's state by the same rule (completed iff every point is there).

use crate::core::{Job, JobState};
use qdc_congest::json::{self, Json};
use qdc_harness::{journal, spec_from_json, spec_to_json, CampaignSpec, Recovery};
use std::io;
use std::path::{Path, PathBuf};

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

/// Parses one persisted submission document back from its bytes.
pub fn parse_job_doc<B: AsRef<[u8]> + ?Sized>(bytes: &B) -> Result<Job, String> {
    let text = std::str::from_utf8(bytes.as_ref()).map_err(|_| "not UTF-8")?;
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
    Ok(Job {
        id,
        client: client.clone(),
        spec,
        telemetry: *telemetry,
    })
}

/// A finished job's state, as the startup scan and `GET /jobs/<id>`
/// read it: completed iff its journal holds every grid point.
pub(crate) fn finished_state(job: &Job, progress: &Recovery) -> JobState {
    if progress.committed as u64 == job.spec.point_count() {
        JobState::Completed
    } else {
        JobState::Interrupted
    }
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
    /// Jobs rebuilt from disk, in id order, each with whether its
    /// journal holds every grid point: the two arguments of
    /// [`ServiceCore::restore`](crate::core::ServiceCore::restore).
    pub jobs: Vec<(Job, bool)>,
    /// Entries that could not be recovered (journals that
    /// [`journal::resume`] refuses, unreadable submission documents).
    /// The scan skips them rather than failing: one damaged job must not
    /// take the service down.
    pub warnings: Vec<String>,
    /// The largest id that any `job_<id>.*` entry names, skipped jobs
    /// included (0 when there is none). New jobs must be numbered past
    /// it: a skipped job's id handed out again would have its document
    /// overwritten and its journal resumed by a stranger.
    pub max_id: u64,
}

/// Scans a service data dir and rebuilds every job from its submission
/// document and journal. Each journal goes through [`journal::resume`],
/// which truncates a torn tail on its record boundary, so everything
/// the service later streams from these files is committed bytes only.
pub fn scan_data_dir(data_dir: &Path) -> io::Result<ScanReport> {
    let mut report = ScanReport::default();
    let mut doc_paths = Vec::new();
    for entry in std::fs::read_dir(data_dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((id, _)) = name.strip_prefix("job_").and_then(|n| n.split_once('.')) else {
            continue;
        };
        if let Ok(id) = id.parse::<u64>() {
            report.max_id = report.max_id.max(id);
        }
        if name.ends_with(".json") {
            doc_paths.push(path);
        }
    }
    doc_paths.sort();

    for doc_path in doc_paths {
        let job = match parse_job_doc(&std::fs::read(&doc_path)?) {
            Ok(job) => job,
            Err(e) => {
                report.warnings.push(format!(
                    "{}: unreadable submission: {e}",
                    doc_path.display()
                ));
                continue;
            }
        };
        let id = job.id;
        let (_, records_path, _) = job_paths(data_dir, id);
        let recovery = match journal::resume(&records_path, &job.spec)? {
            Ok(recovery) => recovery,
            Err(reason) => {
                report.warnings.push(format!(
                    "{}: journal refused, job {id} skipped: {reason}",
                    records_path.display()
                ));
                continue;
            }
        };
        let completed = finished_state(&job, &recovery) == JobState::Completed;
        report.jobs.push((job, completed));
    }
    report.jobs.sort_by_key(|(job, _)| job.id);
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
    fn scan_job_doc_round_trips() {
        let spec = builtin("chaos_ensemble").expect("builtin");
        let text = job_doc_json(7, "alice", true, &spec);
        let job = parse_job_doc(&text).expect("parses");
        assert_eq!(job.id, 7);
        assert_eq!(job.client, "alice");
        assert!(job.telemetry);
        assert_eq!(job.spec, spec);
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
        // tail. Job 3: no journal yet. Job 4: a foreign journal. Job 5:
        // one record more than its grid has points. Job 6: a first
        // record claiming u64::MAX messages, so the fold overflows.
        for (id, client) in [(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e"), (6, "f")] {
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
        let last = jsonl.lines().last().expect("line");
        let over_long = format!("{jsonl}{}\n", last.replace("\"point\":3", "\"point\":4"));
        std::fs::write(dir.join("job_5.records.jsonl"), &over_long).expect("write");
        let sent = jsonl.split("\"messages_sent\":").nth(1).expect("metric");
        let sent = &sent[..sent.find(',').expect("next field")];
        let overflowing = jsonl.replacen(
            &format!("\"messages_sent\":{sent},"),
            &format!("\"messages_sent\":{},", u64::MAX),
            1,
        );
        std::fs::write(dir.join("job_6.records.jsonl"), &overflowing).expect("write");

        let report = scan_data_dir(&dir).expect("scans");
        assert_eq!(report.max_id, 6, "skipped jobs count toward the largest id");
        assert_eq!(
            report.jobs.len(),
            3,
            "foreign job 4, over-long job 5 and overflowing job 6 are skipped"
        );
        assert_eq!(report.warnings.len(), 3, "and warned about");
        assert!(
            report.warnings[2].contains("job 6 skipped: journal line 1"),
            "{:?}",
            report.warnings
        );
        let by_id: Vec<_> = report.jobs.iter().map(|(j, done)| (j.id, *done)).collect();
        assert_eq!(by_id, vec![(1, true), (2, false), (3, false)]);
        // The torn tail was truncated on its record boundary.
        let kept = std::fs::read_to_string(dir.join("job_2.records.jsonl")).expect("read");
        assert_eq!(kept, two_lines);
        // A refused journal is left as it was.
        let refused = std::fs::read_to_string(dir.join("job_5.records.jsonl")).expect("read");
        assert_eq!(refused, over_long);
        let refused = std::fs::read_to_string(dir.join("job_6.records.jsonl")).expect("read");
        assert_eq!(refused, overflowing);

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn scan_skips_a_submission_that_is_not_utf8() {
        let dir = std::env::temp_dir().join(format!(
            "qdc_scan_utf8_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = builtin("simthm_smoke").expect("builtin");
        std::fs::write(dir.join("job_1.json"), job_doc_json(1, "a", false, &spec)).expect("doc");
        // A client key whose two-byte `é` lost its second byte.
        let mut doc = job_doc_json(2, "é", false, &spec).into_bytes();
        let lead = doc.iter().position(|&b| b == 0xC3).expect("é");
        doc.remove(lead + 1);
        std::fs::write(dir.join("job_2.json"), doc).expect("doc");

        let report = scan_data_dir(&dir).expect("one damaged document fails only its job");
        assert_eq!(report.max_id, 2);
        let ids: Vec<_> = report.jobs.iter().map(|(j, _)| j.id).collect();
        assert_eq!(ids, vec![1]);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(
            report.warnings[0].ends_with("job_2.json: unreadable submission: not UTF-8"),
            "{:?}",
            report.warnings
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
