//! Golden tests for the `profile query` CLI: the rendered summary and
//! metric-series output are pinned byte-for-byte against committed
//! fixtures, driven through the real binary (`CARGO_BIN_EXE_profile`)
//! over archives a real streaming campaign wrote.
//!
//! Regenerate after a deliberate output change with:
//!
//! ```text
//! QDC_UPDATE_GOLDEN=1 cargo test -p qdc-bench --test query_golden
//! ```

use qdc_congest::{CongestConfig, StreamSink};
use qdc_harness::{builtin, run_campaign, RunOptions, StreamTelemetry, TelemetryMode};
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `produced` against the committed fixture, or rewrites the
/// fixture when `QDC_UPDATE_GOLDEN=1` is set.
fn assert_matches_golden(name: &str, produced: &str) {
    let path = golden_path(name);
    if std::env::var("QDC_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, produced).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with QDC_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        produced,
        want,
        "query output drifted from {}; if the change is deliberate, \
         regenerate with QDC_UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Runs the deterministic `telemetry_smoke` campaign with the streaming
/// sink into `dir` (2 points, `qdc-telemetry-stream/v1` archives).
fn write_archives(dir: &Path) {
    let spec = builtin("telemetry_smoke").expect("builtin");
    let options = RunOptions {
        telemetry: TelemetryMode::Stream(StreamTelemetry::new(dir.to_string_lossy().into_owned())),
        ..RunOptions::default()
    };
    run_campaign(&spec, &options).expect("campaign runs");
}

/// Writes a quantum-channel archive: seeded distributed-Grover
/// Disjointness (b = 64, D = 3) under EPR/teleportation accounting, so
/// the footer totals carry the classical/qubit `qsplit`.
fn write_quantum_archive(path: &Path) {
    let mut x = qdc_graph::generate::random_bits(64, 164);
    let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
    x[32] = true;
    y[32] = true;
    let mut buf = Vec::new();
    let mut sink = StreamSink::new(&mut buf, 4, 3, 16, 8).with_quantum(true);
    let _ = qdc_algos::disjointness::quantum_disjointness(
        &x,
        &y,
        3,
        CongestConfig::quantum_teleport(16),
        11,
        qdc_congest::RunOptions::default(),
        &mut sink,
    );
    sink.finish().expect("in-memory write");
    std::fs::write(path, buf).expect("write quantum archive");
}

fn profile_query(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .arg("query")
        .args(args)
        .output()
        .expect("profile runs");
    assert!(
        out.status.success(),
        "profile query {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn profile_query_summary_series_and_merge_match_goldens() {
    let dir = std::env::temp_dir().join(format!("qdc_query_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_archives(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();
    let point0 = dir.join("point_0.telemetry.jsonl");
    let point0_arg = point0.to_string_lossy().into_owned();

    // One archive, full summary.
    let summary = profile_query(&[&point0_arg, "--top-k", "4"]);
    assert_matches_golden("query_summary.txt", &summary);

    // The whole directory folded through the merge.
    let merged = profile_query(&[&dir_arg, "--merge", "--top-k", "4"]);
    assert_matches_golden("query_merge.txt", &merged);

    // Metric series over a round window.
    let series = profile_query(&[&point0_arg, "--metric", "bits", "--rounds", "1..2"]);
    assert_matches_golden("query_series.txt", &series);

    // Merging an archive with itself doubles every additive counter —
    // checked here through the CLI rather than the unit layer.
    let doubled = profile_query(&[&point0_arg, &point0_arg, "--merge", "--top-k", "4"]);
    assert!(
        doubled.starts_with("2 archive(s):"),
        "merge counts its inputs: {doubled}"
    );

    // A quantum-channel archive surfaces the classical/qubit split.
    let quantum = dir.join("quantum_ex11.telemetry.jsonl");
    write_quantum_archive(&quantum);
    let quantum_arg = quantum.to_string_lossy().into_owned();
    let qsummary = profile_query(&[&quantum_arg, "--top-k", "4"]);
    assert_matches_golden("query_quantum.txt", &qsummary);
    assert!(
        qsummary.contains("qsplit: classical "),
        "the summary must render the teleportation accounting: {qsummary}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_query_merge_refuses_an_overflowing_total() {
    let dir = std::env::temp_dir().join(format!("qdc_query_overflow_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_archives(&dir);
    // Raise the hottest edge's weight to u64::MAX: the archive still
    // reads, but a self-merge would overflow that weight.
    let text = std::fs::read_to_string(dir.join("point_0.telemetry.jsonl")).expect("archive");
    let at = text.find("\"top_edges\":[[").expect("footer sketch") + "\"top_edges\":[[".len();
    let bits = at + text[at..].find(',').expect("entry index") + 1;
    let end = bits + text[bits..].find(',').expect("entry bits");
    let hostile = dir.join("hostile.telemetry.jsonl");
    std::fs::write(
        &hostile,
        format!("{}18446744073709551615{}", &text[..bits], &text[end..]),
    )
    .expect("write hostile archive");
    let hostile_arg = hostile.to_string_lossy().into_owned();
    assert!(profile_query(&[&hostile_arg]).contains("1 archive(s):"));

    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .args(["query", &hostile_arg, &hostile_arg, "--merge"])
        .output()
        .expect("profile runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(5), "{stderr}");
    assert!(stderr.contains("hostile.telemetry.jsonl"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
