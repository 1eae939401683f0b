//! Currency checks for the campaign artifacts committed at the repository
//! root: `campaign_simthm_grid.jsonl`, `BENCH_simthm_grid.json` and
//! `BENCH_ex11_separation.json`.
//!
//! Each campaign is re-run deterministically in memory. The fresh
//! records must equal the committed journal byte for byte, and the
//! fresh aggregate must equal the one in the committed summary. The
//! strict validators then read every committed file, so a file written
//! under an older schema fails here rather than downstream.
//!
//! Regenerate the files after a deliberate change with:
//!
//! ```text
//! cargo run --release -p qdc-bench --bin campaign -- simthm_grid --threads 4 --deterministic
//! cargo run --release -p qdc-bench --bin campaign -- ex11_separation --threads 2 \
//!     --deterministic --out ex11.jsonl --summary BENCH_ex11_separation.json
//! ```

use qdc::congest::json;
use qdc::harness::{
    builtin, run_campaign, validate_record_line, validate_summary, CampaignOutcome, RunOptions,
};
use std::path::Path;

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed artifact {} unreadable: {e}", path.display()))
}

fn rerun(campaign: &str) -> CampaignOutcome {
    let spec = builtin(campaign).expect("builtin campaign");
    run_campaign(&spec, &RunOptions::default()).expect("campaign runs")
}

/// The committed summary validates strictly and carries exactly the
/// aggregate a fresh run folds.
fn assert_summary_current(file: &str, outcome: &CampaignOutcome) {
    let text = committed(file);
    validate_summary(&text).unwrap_or_else(|e| panic!("{file} fails validate_summary: {e}"));
    let doc = json::parse(&text).expect("validated summary parses");
    assert_eq!(
        doc.get("aggregate"),
        Some(&outcome.aggregate.to_json()),
        "{file} aggregate is stale; regenerate it with the campaign binary"
    );
}

#[test]
fn simthm_grid_records_and_summary_are_current() {
    let outcome = rerun("simthm_grid");
    assert!(outcome.failures.is_empty());
    let records = committed("campaign_simthm_grid.jsonl");
    for (i, line) in records.lines().enumerate() {
        validate_record_line(line)
            .unwrap_or_else(|e| panic!("campaign_simthm_grid.jsonl line {}: {e}", i + 1));
    }
    assert_eq!(
        outcome.deterministic_jsonl(),
        records,
        "campaign_simthm_grid.jsonl is stale; regenerate it with \
         `campaign simthm_grid --deterministic`"
    );
    assert_summary_current("BENCH_simthm_grid.json", &outcome);
}

#[test]
fn ex11_separation_summary_is_current() {
    let outcome = rerun("ex11_separation");
    assert!(outcome.failures.is_empty());
    assert_summary_current("BENCH_ex11_separation.json", &outcome);
}
