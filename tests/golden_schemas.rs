//! Golden-file conformance tests for the eight JSONL/JSON schemas the
//! workspace emits: `qdc-telemetry/v1`, `qdc-telemetry-stream/v1`,
//! `qdc-campaign-point/v1`, `qdc-campaign-failure/v1`,
//! `qdc-campaign/v1`, and the campaign service's `qdc-job/v1`,
//! `qdc-service-status/v1` and `qdc-service-error/v1`.
//!
//! Each schema has a committed fixture under `tests/golden/`, generated
//! from a fixed, fully deterministic workload. The tests pin three
//! things per schema:
//!
//! 1. **Byte-exact emission**: the writer reproduces the fixture byte
//!    for byte (any formatting drift is a schema change and must be
//!    made deliberately, by regenerating);
//! 2. **Round-trip**: the strict parser accepts the fixture and
//!    re-serializes it byte-identically;
//! 3. **Rejection corpus**: truncation, an unknown field, a wrong
//!    version tag, a non-integer value and a leading-zero integer are
//!    each rejected with an error.
//!
//! Across all fixtures, two more properties hold every reader to the
//! one strict JSON layer (`qdc::congest::json`): a copy of each fixture
//! with a space after every `{`, `[`, `:` and `,` reads to the same
//! value, and a seeded mutation fuzz (bit flips, truncation, duplicated,
//! deleted and spliced slices, out-of-range integers) never panics a
//! reader — every mutant is either rejected with a line number and a
//! message, or accepted and re-emitted to text that reads back equal.
//! An accepted stream archive must also merge with itself and with its
//! fixture without a panic or a wrapped total.
//!
//! The telemetry and campaign-point schemas additionally pin
//! quantum-channel fixtures (`telemetry_v1_quantum.jsonl`,
//! `telemetry_stream_v1_quantum.jsonl`, `campaign_point_ex11_v1.jsonl`)
//! exercising the optional `qsplit` qubit/classical accounting fields,
//! each with its own rejection corpus for malformed qubit fields.
//!
//! Regenerate fixtures after a deliberate schema change with:
//!
//! ```text
//! QDC_UPDATE_GOLDEN=1 cargo test --test golden_schemas
//! ```

use proptest::prelude::*;
use qdc::congest::json;
use qdc::congest::{
    read_aggregate, CongestConfig, RoundProfiler, StreamAggregate, StreamReader, StreamSink,
    TelemetryReport,
};
use qdc::harness::{
    builtin, execute_point, failure_json, journal, record_json, run_campaign, summary_json,
    validate_failure_line, validate_record_line, validate_summary, PointFailure, PointSpec,
    Recovery, RunOptions,
};
use qdc::service::{
    job_json, status_json, submit_error_json, validate_error, validate_job, validate_status, Job,
    JobState, QuotaConfig, ServiceCore, SubmitError,
};
use qdc::simthm::campaign::{highway_classes, run_point};
use qdc::simthm::SimThmPoint;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
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
        "writer output drifted from {}; if the change is deliberate, \
         regenerate with QDC_UPDATE_GOLDEN=1",
        path.display()
    );
}

/// The fixed telemetry workload: the Γ=4, L=9 simulation-theorem point,
/// profiled with the highway/path classification (exercises the split).
fn golden_telemetry() -> TelemetryReport {
    let point = SimThmPoint {
        gamma: 4,
        l: 9,
        bandwidth: 16,
    };
    let (_, profiler) = run_point(&point, qdc::congest::RunOptions::default(), |net| {
        let g = net.graph();
        RoundProfiler::new(g.node_count(), g.edge_count(), 16).with_classes(highway_classes(net))
    });
    profiler.finish()
}

/// The fixed stream-telemetry workload: the same Γ=4, L=9,
/// B=16 simulation-theorem point as the exact fixture, streamed through
/// a classified [`StreamSink`] with top-k capacity 8 (small enough that
/// the sketches run in the approximation regime and the fixture pins
/// nonzero `err` bounds).
fn golden_stream_archive() -> (String, StreamAggregate) {
    let mut buf = Vec::new();
    let point = SimThmPoint {
        gamma: 4,
        l: 9,
        bandwidth: 16,
    };
    let (_, sink) = run_point(&point, qdc::congest::RunOptions::default(), |net| {
        let g = net.graph();
        StreamSink::new(&mut buf, g.node_count(), g.edge_count(), 16, 8)
            .with_classes(highway_classes(net))
    });
    let agg = sink.finish().expect("in-memory write");
    (String::from_utf8(buf).expect("utf8 archive"), agg)
}

#[test]
fn golden_telemetry_stream_v1_byte_exact_round_trip() {
    let (text, agg) = golden_stream_archive();
    assert_matches_golden("telemetry_stream_v1.jsonl", &text);
    let back = read_aggregate(text.as_bytes()).expect("fixture parses");
    assert_eq!(
        back, agg,
        "the parsed footer equals the sink's own final aggregate"
    );
}

#[test]
fn golden_telemetry_stream_v1_rejection_corpus() {
    let (text, _) = golden_stream_archive();
    let without_footer: String = {
        let body = text.trim_end_matches('\n');
        let cut = body.rfind('\n').expect("multi-line archive");
        body[..=cut].to_string()
    };
    // The first two round lines each claim u64::MAX drops: their running
    // total overflows, which the reader must reject rather than wrap (or
    // panic on) before it ever reaches the footer cross-check.
    let overflow: String = text
        .lines()
        .enumerate()
        .map(|(i, line)| match i {
            1 | 2 => line.replacen("\"dropped\":0", "\"dropped\":18446744073709551615", 1) + "\n",
            _ => format!("{line}\n"),
        })
        .collect();
    assert_eq!(overflow.matches("18446744073709551615").count(), 2);
    let err = read_aggregate(overflow.as_bytes()).expect_err("overflowing running totals");
    assert_eq!(err.line, 3, "rejected at the round that overflows: {err}");
    let cases = [
        (
            text.trim_end_matches('\n').to_string(),
            "truncated (missing final newline)",
        ),
        (without_footer, "archive ends before the footer"),
        (overflow, "running totals overflowing u64"),
        (text.replacen("\"bits\"", "\"bitz\"", 1), "unknown field"),
        (
            text.replace("qdc-telemetry-stream/v1", "qdc-telemetry-stream/v9"),
            "wrong version tag",
        ),
        (
            text.replacen("\"round\":1,", "\"round\":1.5,", 1),
            "non-integer value",
        ),
        (
            text.replacen("\"round\":1,", "\"round\":01,", 1),
            "leading-zero integer",
        ),
        (
            // `"totals":{"rounds":` is unique to the footer (round lines
            // spell `"round"`), so this tampers the footer count without
            // touching the rounds it must summarize.
            text.replace("\"totals\":{\"rounds\":", "\"totals\":{\"rounds\":9"),
            "footer contradicting the streamed rounds",
        ),
    ];
    for (bad, why) in cases {
        let err = read_aggregate(bad.as_bytes()).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

/// The stream fixture with its hottest edge's weight raised to
/// `u64::MAX`: the ranking still holds, so the reader accepts it.
fn hostile_stream_archive(text: &str) -> String {
    let at = text.find("\"top_edges\":[[").expect("footer sketch") + "\"top_edges\":[[".len();
    let bits = at + text[at..].find(',').expect("entry index") + 1;
    let end = bits + text[bits..].find(',').expect("entry bits");
    format!("{}18446744073709551615{}", &text[..bits], &text[end..])
}

#[test]
fn golden_telemetry_stream_v1_merge_refuses_overflow() {
    let (text, fixture) = golden_stream_archive();
    let agg = read_aggregate(hostile_stream_archive(&text).as_bytes()).expect("accepted");
    assert_eq!(agg.top_edges.ranked()[0].bits, u64::MAX);
    for other in [&agg, &fixture] {
        let mut merged = agg.clone();
        assert!(merged.merge(other).is_err(), "the weight would overflow");
        assert_eq!(merged, agg, "a refused merge changes nothing");
    }
}

/// The fixed quantum instance behind the qubit-split fixtures: the
/// b = 64 Example 1.1 pair with one planted intersection.
fn golden_quantum_instance() -> (Vec<bool>, Vec<bool>) {
    let mut x = qdc::graph::generate::random_bits(64, 164);
    let mut y: Vec<bool> = x.iter().map(|&v| !v).collect();
    x[32] = true;
    y[32] = true;
    (x, y)
}

/// The fixed quantum telemetry workload: seeded distributed-Grover
/// Disjointness on a 3-hop path under EPR/teleportation accounting, so
/// every round line carries a `qsplit` charging 2 classical bits per
/// delivered qubit.
fn golden_quantum_telemetry() -> TelemetryReport {
    let (x, y) = golden_quantum_instance();
    let mut profiler = RoundProfiler::new(4, 3, 16).with_quantum(true);
    let _ = qdc::algos::disjointness::quantum_disjointness(
        &x,
        &y,
        3,
        CongestConfig::quantum_teleport(16),
        11,
        qdc::congest::RunOptions::default(),
        &mut profiler,
    );
    profiler.finish()
}

/// The same quantum workload streamed through a [`StreamSink`] in
/// teleport accounting mode: round lines and the footer totals carry
/// the optional `qsplit` field.
fn golden_quantum_stream_archive() -> (String, StreamAggregate) {
    let (x, y) = golden_quantum_instance();
    let mut buf = Vec::new();
    let mut sink = StreamSink::new(&mut buf, 4, 3, 16, 8).with_quantum(true);
    let _ = qdc::algos::disjointness::quantum_disjointness(
        &x,
        &y,
        3,
        CongestConfig::quantum_teleport(16),
        11,
        qdc::congest::RunOptions::default(),
        &mut sink,
    );
    let agg = sink.finish().expect("in-memory write");
    (String::from_utf8(buf).expect("utf8 archive"), agg)
}

#[test]
fn golden_telemetry_v1_quantum_byte_exact_round_trip() {
    let profile = golden_quantum_telemetry();
    let text = profile.to_jsonl(false);
    assert_matches_golden("telemetry_v1_quantum.jsonl", &text);
    let back = TelemetryReport::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(false), text, "round-trip is byte-exact");
    for r in &back.rounds {
        let q = r.qsplit.expect("quantum rounds carry the split");
        assert_eq!(
            q.classical_bits,
            2 * q.qubit_bits,
            "teleportation charges exactly 2 classical bits per qubit"
        );
    }
}

#[test]
fn golden_telemetry_v1_quantum_rejection_corpus() {
    let text = golden_quantum_telemetry().to_jsonl(false);
    assert!(
        text.contains("\"qsplit\":[12,6]"),
        "the fixture must exercise the qubit split: {text}"
    );
    let cases = [
        (
            text.replacen("\"qsplit\"", "\"qsplat\"", 1),
            "unknown field name",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12]", 1),
            "one-element split",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12,6,0]", 1),
            "three-element split",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12.5,6]", 1),
            "non-integer qubit count",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[012,6]", 1),
            "leading-zero integer",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[-12,6]", 1),
            "negative count",
        ),
    ];
    for (bad, why) in cases {
        let err = TelemetryReport::from_jsonl(&bad).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_telemetry_stream_v1_quantum_byte_exact_round_trip() {
    let (text, agg) = golden_quantum_stream_archive();
    assert_matches_golden("telemetry_stream_v1_quantum.jsonl", &text);
    let back = read_aggregate(text.as_bytes()).expect("fixture parses");
    assert_eq!(back.totals, agg.totals, "footer equals the sink's totals");
    let q = back.totals.qsplit.expect("quantum totals carry the split");
    assert_eq!(q.classical_bits, 2 * q.qubit_bits);
    assert_eq!(q.qubit_bits, back.totals.bits);
}

#[test]
fn golden_telemetry_stream_v1_quantum_rejection_corpus() {
    let (text, agg) = golden_quantum_stream_archive();
    let q = agg.totals.qsplit.expect("quantum totals carry the split");
    let footer_qsplit = format!(
        "\"qsplit\":[{},{}]}},\"top_edges\"",
        q.classical_bits, q.qubit_bits
    );
    assert!(
        text.contains(&footer_qsplit),
        "fixture footer must carry the split: {text}"
    );
    let cases = [
        (
            text.replace(
                &footer_qsplit,
                &format!(
                    "\"qsplit\":[{},{}]}},\"top_edges\"",
                    q.classical_bits + 1,
                    q.qubit_bits
                ),
            ),
            "footer contradicting the streamed splits",
        ),
        (
            text.replace(&footer_qsplit, "}.\"top_edges\""),
            "mangled footer",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[12,6,1]", 1),
            "three-element round split",
        ),
        (
            text.replacen("\"qsplit\":[12,6]", "\"qsplit\":[1e1,6]", 1),
            "scientific-notation count",
        ),
    ];
    for (bad, why) in cases {
        let err = read_aggregate(bad.as_bytes()).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

/// The fixed Example 1.1 campaign record: the quantum b = 64 cell at
/// B = 16, D = 2 (every field a pure function of the spec — the Grover
/// measurement stream is protocol-seeded).
fn golden_ex11_record() -> String {
    let spec = PointSpec::Ex11 {
        bits: 64,
        bandwidth: 16,
        distance: 2,
        quantum: true,
    };
    let (rec, _) = execute_point(17, &spec).expect("golden point runs");
    record_json("golden", &rec, false) + "\n"
}

#[test]
fn golden_campaign_point_ex11_byte_exact_and_validated() {
    let line = golden_ex11_record();
    assert_matches_golden("campaign_point_ex11_v1.jsonl", &line);
    validate_record_line(line.trim_end()).expect("fixture conforms");
    assert!(
        line.contains("\"channel\":\"quantum\"") && line.contains("\"queries\""),
        "the ex11 record carries its channel and query count: {line}"
    );
}

#[test]
fn golden_campaign_point_ex11_rejection_corpus() {
    let line = golden_ex11_record();
    let line = line.trim_end();
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (
            line.replace("\"channel\"", "\"chanel\""),
            "misspelled param key breaks the byte-exact emission contract",
        ),
        (
            line.replace("qdc-campaign-point/v1", "qdc-campaign-point/v2"),
            "wrong version tag",
        ),
        (
            line.replace("\"point\":17", "\"point\":17.5"),
            "non-integer point",
        ),
    ];
    for (bad, why) in cases {
        // The param-key mutation survives the shape validator (params
        // are an open object) but must fail the byte-exact golden — the
        // other three fail the strict validator outright.
        if bad.contains("chanel") {
            assert_ne!(bad, line, "{why}");
        } else {
            let err = validate_record_line(&bad).expect_err(why);
            assert!(!err.is_empty(), "{why} must explain itself");
        }
    }
}

/// The fixed point record: a deterministic lossy chaos point.
fn golden_record() -> String {
    let spec = PointSpec::Chaos {
        nodes: 8,
        extra_edges: 2,
        drop_pm: 250,
        seed: 4,
        bandwidth: 8,
    };
    let (rec, _) = execute_point(3, &spec).expect("golden point runs");
    record_json("golden", &rec, false) + "\n"
}

/// The fixed failure record: a deadline overrun committed after three
/// attempts (every field of the failure schema is a pure function of
/// the constructor arguments — nothing volatile to pin).
fn golden_failure() -> String {
    let mut failure = PointFailure::deadline(11, 250);
    failure.attempts = 3;
    failure_json("golden", &failure) + "\n"
}

/// The fixed campaign summary: the telemetry_smoke builtin with the
/// volatile wall-clock field pinned (wall time is the one legitimate
/// run-to-run difference; the fixture pins everything else).
fn golden_summary() -> String {
    let spec = builtin("telemetry_smoke").expect("builtin");
    let mut outcome = run_campaign(&spec, &RunOptions::default()).expect("runs");
    outcome.wall_ms = 7;
    summary_json(&outcome) + "\n"
}

#[test]
fn golden_telemetry_v1_byte_exact_round_trip() {
    let profile = golden_telemetry();
    let text = profile.to_jsonl(false);
    assert_matches_golden("telemetry_v1.jsonl", &text);
    let back = TelemetryReport::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(false), text, "round-trip is byte-exact");
    // Structural equality holds on everything but the wall-clock spans,
    // which the deterministic form deliberately omits (parsed back as 0).
    assert_eq!(back.node_totals, profile.node_totals);
    assert_eq!(back.edge_totals, profile.edge_totals);
    assert_eq!(back.totals(), profile.totals());
}

/// The wall-clock form of the telemetry fixture: the same profile with
/// its volatile per-round spans pinned to a deterministic ramp (real
/// spans legitimately differ run to run; the fixture pins the schema,
/// not the timings).
fn golden_telemetry_wall() -> TelemetryReport {
    let mut profile = golden_telemetry();
    for (i, r) in profile.rounds.iter_mut().enumerate() {
        r.wall_ns = 1_000 * (i as u64 + 1);
    }
    profile
}

#[test]
fn golden_telemetry_v1_wall_byte_exact_round_trip() {
    let profile = golden_telemetry_wall();
    let text = profile.to_jsonl(true);
    assert_matches_golden("telemetry_v1_wall.jsonl", &text);
    let back = TelemetryReport::from_jsonl(&text).expect("fixture parses");
    assert_eq!(back.to_jsonl(true), text, "wall round-trip is byte-exact");
    for (a, b) in back.rounds.iter().zip(&profile.rounds) {
        assert_eq!(a.wall_ns, b.wall_ns, "spans survive the round-trip");
    }
    // Dropping the spans recovers the deterministic fixture exactly.
    assert_eq!(profile.to_jsonl(false), golden_telemetry().to_jsonl(false));
}

#[test]
fn golden_telemetry_v1_rejection_corpus() {
    let text = golden_telemetry().to_jsonl(false);
    let cases = [
        (
            text.trim_end_matches('\n').to_string(),
            "truncated (missing final newline)",
        ),
        (text.replacen("\"bits\"", "\"bitz\"", 1), "unknown field"),
        (
            text.replace("qdc-telemetry/v1", "qdc-telemetry/v2"),
            "wrong version tag",
        ),
        (
            text.replacen("\"round\":1", "\"round\":1.5", 1),
            "non-integer value",
        ),
        (
            text.replacen("\"round\":1", "\"round\":01", 1),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = TelemetryReport::from_jsonl(&bad).expect_err(why);
        assert!(!err.to_string().is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_point_v1_byte_exact_and_validated() {
    let line = golden_record();
    assert_matches_golden("campaign_point_v1.jsonl", &line);
    validate_record_line(line.trim_end()).expect("fixture conforms");
}

#[test]
fn golden_campaign_point_v1_rejection_corpus() {
    let line = golden_record();
    let line = line.trim_end();
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (
            line.replace("\"bits_sent\"", "\"bits_cent\""),
            "unknown field",
        ),
        (
            line.replace("qdc-campaign-point/v1", "qdc-campaign-point/v0"),
            "wrong version tag",
        ),
        (
            line.replace("\"point\":3", "\"point\":3.5"),
            "non-integer value",
        ),
        (
            line.replace("\"point\":3", "\"point\":03"),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_record_line(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_failure_v1_byte_exact_and_validated() {
    let line = golden_failure();
    assert_matches_golden("campaign_failure_v1.jsonl", &line);
    validate_failure_line(line.trim_end()).expect("fixture conforms");
}

#[test]
fn golden_campaign_failure_v1_rejection_corpus() {
    let line = golden_failure();
    let line = line.trim_end();
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (line.replace("\"kind\"", "\"kynd\""), "unknown field"),
        (
            line.replace("qdc-campaign-failure/v1", "qdc-campaign-failure/v0"),
            "wrong version tag",
        ),
        (
            line.replace("\"attempts\":3", "\"attempts\":3.5"),
            "non-integer value",
        ),
        (
            line.replace("\"retryable\":true", "\"retryable\":1"),
            "non-boolean retryable flag",
        ),
        (
            line.replace("\"attempts\":3", "\"attempts\":0"),
            "zero attempts (the first try counts)",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_failure_line(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_v1_byte_exact_and_validated() {
    let summary = golden_summary();
    assert_matches_golden("campaign_v1.json", &summary);
    validate_summary(&summary).expect("fixture conforms");
}

/// The fixed service workload behind all three service fixtures: two
/// clients, one completed job, one queued telemetry job — every field a
/// pure function of the specs.
fn golden_service_core() -> ServiceCore {
    let mut core = ServiceCore::new(QuotaConfig::default());
    let done = core
        .submit("alice", builtin("telemetry_smoke").expect("builtin"), false)
        .expect("admits");
    core.submit("bob", builtin("simthm_smoke").expect("builtin"), true)
        .expect("admits");
    let job = core.take_next().expect("dispatch");
    assert_eq!(job.id, done);
    core.finish(done, false);
    core
}

/// The fixed `qdc-job/v1` fixture: both jobs of the golden core, one
/// line each, rendered from their submissions — a completed job with
/// its aggregate tail, the fold of its real deterministic journal, then
/// a queued one without.
fn golden_jobs() -> String {
    let job = |id, client: &str, name, telemetry| Job {
        id,
        client: client.to_string(),
        spec: builtin(name).expect("builtin"),
        telemetry,
    };
    let done = job(1, "alice", "telemetry_smoke", false);
    let journal = run_campaign(&done.spec, &RunOptions::default())
        .expect("runs")
        .deterministic_jsonl();
    let fold = journal::recover(&journal, &done.spec.name).expect("own journal");
    let queued = job(2, "bob", "simthm_smoke", true);
    [
        job_json(&done, JobState::Completed, &fold),
        job_json(&queued, JobState::Queued, &Recovery::default()),
    ]
    .map(|line| line + "\n")
    .concat()
}

fn golden_service_status() -> String {
    status_json(&golden_service_core()) + "\n"
}

/// The fixed `qdc-service-error/v1` fixture: one line per rejection
/// class the submit path can produce, in status order.
fn golden_service_errors() -> String {
    [
        SubmitError::InvalidSpec(qdc::harness::CampaignError::EmptyName),
        SubmitError::QueueFull { depth: 64, max: 64 },
        SubmitError::ClientQueueFull { queued: 8, max: 8 },
        SubmitError::QuotaExceeded {
            requested: 32,
            active: 4090,
            max: 4096,
        },
    ]
    .iter()
    .map(|e| submit_error_json(e).1 + "\n")
    .collect()
}

#[test]
fn golden_job_v1_byte_exact_and_validated() {
    let lines = golden_jobs();
    assert_matches_golden("job_v1.jsonl", &lines);
    for line in lines.lines() {
        validate_job(line).expect("fixture conforms");
    }
    assert!(
        lines
            .lines()
            .next()
            .expect("two lines")
            .contains("\"aggregate\":{"),
        "the completed job carries its aggregate"
    );
    assert!(
        !lines
            .lines()
            .nth(1)
            .expect("two lines")
            .contains("aggregate"),
        "the queued job does not"
    );
}

#[test]
fn golden_job_v1_rejection_corpus() {
    let lines = golden_jobs();
    let line = lines.lines().next().expect("fixture line");
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (line.replace("\"state\"", "\"stat\""), "unknown field"),
        (
            line.replace("qdc-job/v1", "qdc-job/v2"),
            "wrong version tag",
        ),
        (line.replace("\"id\":1", "\"id\":1.5"), "non-integer value"),
        (
            line.replace("\"id\":1", "\"id\":01"),
            "leading-zero integer",
        ),
        (
            line.replace("\"state\":\"completed\"", "\"state\":\"paused\""),
            "unknown state word",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_job(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_service_status_v1_byte_exact_and_validated() {
    let status = golden_service_status();
    assert_matches_golden("service_status_v1.json", &status);
    validate_status(&status).expect("fixture conforms");
}

#[test]
fn golden_service_status_v1_rejection_corpus() {
    let status = golden_service_status();
    let cases = [
        (status[..status.len() - 3].to_string(), "truncated document"),
        (status.replace("\"queued\"", "\"qeued\""), "unknown field"),
        (
            status.replace("qdc-service-status/v1", "qdc-service-status/v0"),
            "wrong version tag",
        ),
        (
            status.replace("\"jobs\":2", "\"jobs\":2.5"),
            "non-integer value",
        ),
        (
            status.replace("\"jobs\":2", "\"jobs\":02"),
            "leading-zero integer",
        ),
        (
            status.replace("\"submitted\":1,", ""),
            "missing client counter",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_status(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_service_error_v1_byte_exact_and_validated() {
    let lines = golden_service_errors();
    assert_matches_golden("service_error_v1.jsonl", &lines);
    for line in lines.lines() {
        validate_error(line).expect("fixture conforms");
    }
}

#[test]
fn golden_service_error_v1_rejection_corpus() {
    let lines = golden_service_errors();
    let line = lines.lines().next().expect("fixture line");
    let cases = [
        (line[..line.len() - 2].to_string(), "truncated document"),
        (line.replace("\"error\"", "\"erorr\""), "unknown field"),
        (
            line.replace("qdc-service-error/v1", "qdc-service-error/v2"),
            "wrong version tag",
        ),
        (
            line.replace("\"status\":400", "\"status\":400.5"),
            "non-integer value",
        ),
        (
            line.replace("\"status\":400", "\"status\":0400"),
            "leading-zero integer",
        ),
        (
            line.replace("\"status\":400", "\"status\":900"),
            "out-of-range status",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_error(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

#[test]
fn golden_campaign_v1_rejection_corpus() {
    let summary = golden_summary();
    let cases = [
        (
            summary[..summary.len() - 3].to_string(),
            "truncated document",
        ),
        (
            summary.replace("\"accepted\"", "\"acepted\""),
            "unknown field",
        ),
        (
            summary.replace("qdc-campaign/v1", "qdc-campaign/v2"),
            "wrong version tag",
        ),
        (
            summary.replace("\"wall_ms\":7", "\"wall_ms\":7.5"),
            "non-integer value",
        ),
        (
            summary.replace("\"wall_ms\":7", "\"wall_ms\":07"),
            "leading-zero integer",
        ),
    ];
    for (bad, why) in cases {
        let err = validate_summary(&bad).expect_err(why);
        assert!(!err.is_empty(), "{why} must explain itself");
    }
}

/// The strict reader a golden fixture belongs to.
#[derive(Clone, Copy)]
enum Reader {
    Telemetry,
    Stream,
    /// One tree document per line, checked by its schema's validator.
    Tree(fn(&str) -> Result<(), String>),
}

/// Every fixture under `tests/golden/`, with its reader.
const FIXTURES: [(&str, Reader); 12] = [
    ("telemetry_v1.jsonl", Reader::Telemetry),
    ("telemetry_v1_quantum.jsonl", Reader::Telemetry),
    ("telemetry_v1_wall.jsonl", Reader::Telemetry),
    ("telemetry_stream_v1.jsonl", Reader::Stream),
    ("telemetry_stream_v1_quantum.jsonl", Reader::Stream),
    (
        "campaign_point_v1.jsonl",
        Reader::Tree(validate_record_line),
    ),
    (
        "campaign_point_ex11_v1.jsonl",
        Reader::Tree(validate_record_line),
    ),
    (
        "campaign_failure_v1.jsonl",
        Reader::Tree(validate_failure_line),
    ),
    ("campaign_v1.json", Reader::Tree(validate_summary)),
    ("job_v1.jsonl", Reader::Tree(validate_job)),
    ("service_status_v1.json", Reader::Tree(validate_status)),
    ("service_error_v1.jsonl", Reader::Tree(validate_error)),
];

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(golden_path(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Reads `bytes` with `reader`. Accepted input comes back as its value
/// in canonical text: the re-emitted archive or documents (for a stream
/// archive, which has no whole-archive writer, the record list). A
/// rejection comes back as `(line, message)`.
fn read(reader: Reader, bytes: &[u8]) -> Result<String, (usize, String)> {
    let text = String::from_utf8_lossy(bytes);
    match reader {
        Reader::Telemetry => TelemetryReport::from_jsonl(&text)
            .map(|r| r.to_jsonl(true))
            .map_err(|e| (e.line, e.msg)),
        Reader::Stream => {
            let mut stream = StreamReader::new(bytes);
            let mut records = Vec::new();
            while let Some(record) = stream.next_record().map_err(|e| (e.line, e.msg))? {
                records.push(record);
            }
            Ok(format!("{records:?}"))
        }
        Reader::Tree(validate) => text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                validate(line)
                    .and_then(|()| json::parse(line))
                    .map(|doc| doc.to_json() + "\n")
                    .map_err(|e| (i + 1, e))
            })
            .collect(),
    }
}

/// One space after every `{`, `[`, `:` and `,` outside strings.
fn spaced(text: &str) -> String {
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    for ch in text.chars() {
        out.push(ch);
        if in_string {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if ch == '"' {
            in_string = true;
        } else if matches!(ch, '{' | '[' | ':' | ',') {
            out.push(' ');
        }
    }
    out
}

#[test]
fn golden_fixtures_share_one_whitespace_rule() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_path(""))
        .expect("golden dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut listed: Vec<&str> = FIXTURES.iter().map(|&(name, _)| name).collect();
    listed.sort();
    assert_eq!(on_disk, listed, "every fixture has a reader");
    for (name, reader) in FIXTURES {
        let text = String::from_utf8(fixture(name)).expect("utf8 fixture");
        let want = read(reader, text.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let spaced = spaced(&text);
        assert!(spaced.len() > text.len());
        assert_eq!(
            read(reader, spaced.as_bytes()),
            Ok(want),
            "{name} with a space after each structural token"
        );
    }
}

/// CI-provided seed perturbation (defaults to 0 for local runs).
fn env_seed() -> u64 {
    std::env::var("QDC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// SplitMix64: the mutation stream's position source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies one mutation, chosen and placed by `next(bound)` (a draw
/// below `bound`), splicing from `donor` when it picks a splice.
fn mutate(bytes: &mut Vec<u8>, donor: &[u8], next: &mut impl FnMut(usize) -> usize) {
    let n = bytes.len();
    let lo = next(n + 1);
    let hi = (lo + next(64)).min(n);
    match next(6) {
        0 if n > 0 => bytes[lo.min(n - 1)] ^= 1 << next(8),
        1 => bytes.truncate(lo),
        2 => {
            let slice = bytes[lo..hi].to_vec();
            bytes.splice(hi..hi, slice);
        }
        3 => {
            bytes.drain(lo..hi);
        }
        4 => {
            let from = next(donor.len() + 1);
            let to = (from + next(64)).min(donor.len());
            bytes.splice(lo..lo, donor[from..to].iter().copied());
        }
        _ => {
            let runs: Vec<(usize, usize)> = bytes
                .iter()
                .enumerate()
                .filter(|&(i, b)| b.is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
                .map(|(i, _)| {
                    (
                        i,
                        i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count(),
                    )
                })
                .collect();
            if !runs.is_empty() {
                let (start, end) = runs[next(runs.len())];
                let big: &[u8] = if next(2) == 0 {
                    b"18446744073709551615"
                } else {
                    b"18446744073709551616"
                };
                bytes.splice(start..end, big.iter().copied());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Mutants of every fixture never panic their reader; each is
    /// rejected with a line number and a message, or accepted and
    /// re-emitted to text that reads back to the same value. Accepted
    /// stream archives also merge with themselves and their fixture.
    #[test]
    fn golden_fixtures_survive_mutation_fuzz(seed in any::<u64>()) {
        let mut state = seed ^ env_seed().wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut next = |bound: usize| (splitmix(&mut state) % bound.max(1) as u64) as usize;
        let (name, reader) = FIXTURES[next(FIXTURES.len())];
        let donor = fixture(FIXTURES[next(FIXTURES.len())].0);
        let mut mutant = fixture(name);
        for _ in 0..1 + next(2) {
            mutate(&mut mutant, &donor, &mut next);
        }
        let shown = String::from_utf8_lossy(&mutant).into_owned();
        let verdict = std::panic::catch_unwind(|| read(reader, &mutant));
        prop_assert!(verdict.is_ok(), "{} reader panicked on {:?}", name, shown);
        match verdict.expect("checked") {
            Err((line, msg)) => {
                prop_assert!(line >= 1, "{}: rejection without a line: {}", name, msg);
                prop_assert!(!msg.is_empty(), "{}: rejection without a message", name);
            }
            Ok(canonical) if !matches!(reader, Reader::Stream) => {
                let back = read(reader, canonical.as_bytes());
                prop_assert_eq!(back, Ok(canonical.clone()), "{} re-emission of {:?}", name, shown);
            }
            Ok(_) => {
                // An accepted archive merges with itself and with its
                // fixture: the sums are exact, or the merge is refused
                // whole — never a panic or a wrapped total.
                let agg = read_aggregate(&mutant[..]).expect("accepted above");
                let original = read_aggregate(&fixture(name)[..]).expect("fixture parses");
                for other in [&agg, &original] {
                    let outcome = std::panic::catch_unwind(|| {
                        let mut merged = agg.clone();
                        let result = merged.merge(other);
                        (merged, result)
                    });
                    prop_assert!(outcome.is_ok(), "{} merge panicked on {:?}", name, shown);
                    let (merged, result) = outcome.expect("checked");
                    if result.is_ok() {
                        prop_assert_eq!(
                            Some(merged.totals.bits),
                            agg.totals.bits.checked_add(other.totals.bits)
                        );
                    } else {
                        prop_assert_eq!(&merged, &agg, "a refused merge changes nothing");
                    }
                }
            }
        }
    }
}
