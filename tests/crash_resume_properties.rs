//! Kill-and-resume properties for the crash-safe campaign journal.
//!
//! The tentpole guarantee (see `crates/harness/src/journal.rs` and the
//! runner's journaled mode): a campaign interrupted at **any** point —
//! even mid-write, leaving a torn final line — and then resumed
//! produces a journal and aggregate **byte-identical** to an
//! uninterrupted run, at any thread count. These tests simulate every
//! such interruption deterministically:
//!
//! 1. **Every-prefix resume**: for each prefix of k committed points
//!    (and for each prefix further mangled with a torn tail), resuming
//!    completes the grid into the uninterrupted bytes — on 1 worker and
//!    on 4.
//! 2. **Random specs**: the same property over proptest-generated
//!    grids, interrupting at a random prefix.
//! 3. **Fault isolation**: a grid whose points panic inside the
//!    algorithm layer still commits one failure record per index,
//!    resumes cleanly, and never aborts the run.
//! 4. **Huge counters**: journals and exact telemetry archives whose
//!    counters sum past `u64::MAX` are refused, never wrapped, and
//!    nothing panics. A live fold that would pass it is refused too,
//!    the journal keeps exactly the records before the refused one, and
//!    the caller's cancel token is left alone.

use proptest::prelude::*;
use qdc::congest::{
    EdgeTotals, NodeTotals, RoundProfile, RunReport, TelemetryReport, TotalsOverflow,
};
use qdc::harness::{
    failure_json, journal, record_json, run_campaign, run_campaign_journaled, Aggregate,
    CampaignGrid, CampaignRunError, CampaignSpec, CancelToken, JournalConfig, PointFailure,
    PointRecord, RunOptions,
};

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        ..RunOptions::default()
    }
}

/// A scratch directory unique to this test (the suite runs tests in
/// parallel; path collisions would corrupt each other's journals).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qdc_crash_resume_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(out_path: &std::path::Path, resume: bool) -> JournalConfig {
    JournalConfig {
        out_path: out_path.to_string_lossy().into_owned(),
        resume,
        ..JournalConfig::default()
    }
}

/// Writes `prefix` (the first k lines of `full`, optionally with a torn
/// tail appended) as an interrupted journal, resumes, and asserts the
/// result is byte-identical to `full`.
fn resume_from_prefix(
    spec: &CampaignSpec,
    full: &str,
    out_path: &std::path::Path,
    prefix: &str,
    threads: usize,
) {
    std::fs::write(out_path, prefix).expect("seed interrupted journal");
    let outcome = run_campaign_journaled(
        spec,
        &opts(threads),
        &config(out_path, true),
        &CancelToken::new(),
    )
    .expect("resume succeeds");
    assert!(!outcome.interrupted);
    let resumed = std::fs::read_to_string(out_path).expect("journal readable");
    assert_eq!(
        resumed, full,
        "resume must reproduce the uninterrupted journal byte for byte"
    );
    assert_eq!(
        outcome.recovered + outcome.executed,
        outcome.total_points,
        "every point is accounted for exactly once"
    );
}

#[test]
fn resume_at_every_prefix_is_byte_identical() {
    let spec = qdc::harness::builtin("simthm_smoke").expect("builtin");
    let reference = run_campaign(&spec, &opts(1)).expect("reference run");
    let full = reference.deterministic_jsonl();
    let lines: Vec<&str> = full.lines().collect();
    let dir = scratch("every_prefix");
    let out_path = dir.join("journal.jsonl");

    for threads in [1usize, 4] {
        for k in 0..=lines.len() {
            let mut prefix: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
            resume_from_prefix(&spec, &full, &out_path, &prefix, threads);

            // The same prefix with a torn tail — a half-written line the
            // crash left behind. Recovery must truncate it on the record
            // boundary and re-run exactly that point.
            if k < lines.len() {
                prefix.push_str(&lines[k][..lines[k].len() / 2]);
                resume_from_prefix(&spec, &full, &out_path, &prefix, threads);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupting_mid_write_leaves_a_recoverable_journal() {
    // Simulate the worst crash: the journal ends mid-byte at *every*
    // possible offset of the full file. Recovery must keep exactly the
    // complete lines and resume into the uninterrupted bytes.
    let spec = qdc::harness::builtin("telemetry_smoke").expect("builtin");
    let reference = run_campaign(&spec, &opts(1)).expect("reference run");
    let full = reference.deterministic_jsonl();
    let dir = scratch("mid_write");
    let out_path = dir.join("journal.jsonl");

    for cut in 0..=full.len() {
        resume_from_prefix(&spec, &full, &out_path, &full[..cut], 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panicking_grid_journals_failures_and_resumes() {
    // B = 1 passes gadget validation but the algorithm layer's width
    // assertions blow up on every point; the journal must hold one
    // failure record per index, and a resume of the half-written
    // journal must complete to the same bytes.
    let spec = CampaignSpec {
        name: "panic_grid".into(),
        grid: CampaignGrid::Gadgets {
            bit_sizes: vec![4],
            seeds: vec![1],
            bandwidth: 1,
        },
    };
    let reference = run_campaign(&spec, &opts(2)).expect("panics are isolated");
    let total = spec.points().len();
    assert_eq!(reference.failures.len(), total, "every point fails");
    assert_eq!(reference.aggregate.points_failed, total as u64);
    let full = reference.deterministic_jsonl();
    for line in full.lines() {
        qdc::harness::validate_failure_line(line).expect("failure lines conform");
    }

    let dir = scratch("panic_grid");
    let out_path = dir.join("journal.jsonl");
    let first_line = full.lines().next().expect("at least one line");
    resume_from_prefix(&spec, &full, &out_path, &format!("{first_line}\n"), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_refused_live_fold_keeps_exactly_the_records_before_it() {
    // Line 0 of a resumed journal claims just enough bits that the fold
    // of lines 0..=j lands exactly on u64::MAX, so the live committer
    // must refuse line j + 1 and leave exactly the lines before it on
    // disk. At 4 workers, lines 1..=j + 1 can reach the committer
    // together.
    let spec = CampaignSpec {
        name: "live_refusal".into(),
        grid: CampaignGrid::Chaos {
            nodes: 8,
            extra_edges: 2,
            drop_pm: vec![0, 100],
            seeds: (0..16).collect(),
            bandwidth: 4,
        },
    };
    let reference = run_campaign(&spec, &opts(1)).expect("reference run");
    let records = &reference.records;
    assert!(reference.failures.is_empty(), "every chaos point completes");
    assert_eq!(records.len(), 32);
    assert!(records.iter().all(|r| r.metrics.bits_sent > 0));
    let full = reference.deterministic_jsonl();
    let lines: Vec<&str> = full.lines().collect();
    let dir = scratch("live_refusal");
    let out_path = dir.join("journal.jsonl");

    for j in [0usize, 1, 7, 20, 30] {
        let rest: u64 = records[1..=j].iter().map(|r| r.metrics.bits_sent).sum();
        let mut heavy = records[0].clone();
        heavy.metrics.bits_sent = u64::MAX - rest;
        let line0 = record_json(&spec.name, &heavy, false);
        let kept: String = std::iter::once(line0.as_str())
            .chain(lines[1..=j].iter().copied())
            .map(|l| format!("{l}\n"))
            .collect();
        for threads in [1usize, 4] {
            std::fs::write(&out_path, format!("{line0}\n")).expect("seed journal");
            let err = run_campaign_journaled(
                &spec,
                &opts(threads),
                &config(&out_path, true),
                &CancelToken::new(),
            )
            .expect_err("the fold of line j + 1 overflows");
            assert!(matches!(err, CampaignRunError::Corrupt(_)), "{err:?}");
            assert_eq!(
                err.to_string(),
                format!(
                    "corrupt journal: journal line {}: a running total would overflow u64",
                    j + 1
                )
            );
            assert_eq!(
                std::fs::read_to_string(&out_path).expect("journal readable"),
                kept,
                "j = {j}, {threads} worker(s)"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_refused_commit_leaves_the_callers_token_alone() {
    // The service runs every job under its own shutdown token, so a
    // refused commit must stop this run only, not cancel the token.
    let spec = qdc::harness::builtin("simthm_smoke").expect("builtin");
    let reference = run_campaign(&spec, &opts(1)).expect("reference run");
    let mut heavy = reference.records[0].clone();
    heavy.metrics.bits_sent = u64::MAX - 1;
    let dir = scratch("token_alone");
    let out_path = dir.join("journal.jsonl");
    let line0 = format!("{}\n", record_json(&spec.name, &heavy, false));
    std::fs::write(&out_path, &line0).expect("seed journal");
    let cancel = CancelToken::new();
    let err = run_campaign_journaled(&spec, &opts(2), &config(&out_path, true), &cancel)
        .expect_err("the fold of line 1 overflows");
    assert!(matches!(err, CampaignRunError::Corrupt(_)), "{err:?}");
    assert!(!cancel.is_cancelled(), "the caller's token was cancelled");
    assert_eq!(std::fs::read_to_string(&out_path).expect("read"), line0);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small grids, interrupted at a random committed prefix
    /// (with and without a torn tail), resumed on 1 and 4 workers.
    #[test]
    fn random_specs_survive_kill_and_resume(
        ((kind, axis_a, axis_b, seeds, drop_pm, bandwidth), cut_seed) in (
            (
                0usize..3,
                proptest::collection::vec(1usize..8, 1..3),
                proptest::collection::vec(1usize..10, 1..3),
                proptest::collection::vec(0u64..64, 1..3),
                proptest::collection::vec(0u32..300, 1..3),
                1usize..32,
            ),
            0usize..1000,
        )
    ) {
        let grid = match kind % 3 {
            0 => CampaignGrid::SimThm {
                gammas: axis_a,
                lengths: axis_b.into_iter().map(|l| l + 2).collect(),
                bandwidth: 16 + bandwidth,
            },
            1 => CampaignGrid::Chaos {
                nodes: 4 + axis_a[0] % 10,
                extra_edges: axis_b[0] % 5,
                drop_pm,
                seeds,
                bandwidth: bandwidth.max(2),
            },
            _ => CampaignGrid::Gadgets {
                bit_sizes: axis_a.into_iter().map(|b| b.min(6)).collect(),
                seeds,
                bandwidth: 32 + bandwidth,
            },
        };
        let spec = CampaignSpec { name: format!("prop_resume_{cut_seed}"), grid };
        prop_assert!(spec.validate().is_ok(), "generated specs are valid");
        let reference = run_campaign(&spec, &opts(1)).expect("reference run");
        let full = reference.deterministic_jsonl();
        let lines: Vec<&str> = full.lines().collect();
        let k = cut_seed % (lines.len() + 1);

        let dir = scratch(&format!("prop_{cut_seed}_{kind}"));
        let out_path = dir.join("journal.jsonl");
        for threads in [1usize, 4] {
            let mut prefix: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
            resume_from_prefix(&spec, &full, &out_path, &prefix, threads);
            if k < lines.len() {
                // Torn tail: cut the next line at a pseudo-random byte.
                let cut = 1 + cut_seed % lines[k].len().max(1);
                prefix.push_str(&lines[k][..cut.min(lines[k].len())]);
                resume_from_prefix(&spec, &full, &out_path, &prefix, threads);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// Journals of 1–4 real record and failure lines whose counters are
    /// drawn from {0, small, u64::MAX / 2, u64::MAX}: `recover` never
    /// panics, and returns the sum of every counter, or `Err` naming the
    /// first line whose fold would pass u64::MAX. The oracle sums in
    /// u128, so it cannot overflow itself.
    #[test]
    fn recovery_refuses_counters_that_overflow_instead_of_wrapping(
        lines in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((0usize..4, 1u64..100), 8),
                0usize..3,
            ),
            1..5,
        )
    ) {
        let mut text = String::new();
        // The Aggregate's summed counters, in its field order: points,
        // ok, accepted, rejected, rounds, messages, bits, dropped,
        // crashed, corrupted, points_failed, points_retried.
        let mut sums = [0u128; 12];
        let mut max_bits_per_round = 0;
        let mut committed = 0;
        let mut overflow_at = None;
        for (index, (failure, picks, verdict)) in lines.iter().enumerate() {
            let m: Vec<u64> = picks.iter().map(|&p| magnitude(p)).collect();
            let w: Vec<u128> = m.iter().map(|&v| u128::from(v)).collect();
            let accept = [None, Some(true), Some(false)][*verdict];
            let add = if *failure {
                let line = failure_json("huge", &PointFailure {
                    index,
                    kind: "panic",
                    retryable: true,
                    attempts: 1,
                    error: "boom".into(),
                });
                text += &line.replace("\"attempts\":1", &format!("\"attempts\":{}", m[0]));
                text.push('\n');
                if m[0] == 0 {
                    break; // zero attempts is schema-invalid: truncated
                }
                [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, w[0] - 1]
            } else {
                let record = PointRecord {
                    index,
                    kind: "chaos",
                    params: Vec::new(),
                    metrics: RunReport {
                        rounds: usize::try_from(m[0]).expect("64-bit usize"),
                        completed: m[1] > 0,
                        messages_sent: m[2],
                        bits_sent: m[3],
                        max_bits_per_round: m[4],
                        messages_dropped: m[5],
                        nodes_crashed: m[6],
                        bits_corrupted: m[7],
                    },
                    accept,
                    extra: Vec::new(),
                    error: None,
                    wall_us: 0,
                };
                text += &record_json("huge", &record, false);
                text.push('\n');
                max_bits_per_round = max_bits_per_round.max(m[4]);
                let (accepted, rejected) = (accept == Some(true), accept == Some(false));
                [1, 1, accepted.into(), rejected.into(), w[0], w[2], w[3], w[5], w[6], w[7], 0, 0]
            };
            for (sum, x) in sums.iter_mut().zip(add) {
                *sum += x;
            }
            if sums.iter().any(|&s| s > u128::from(u64::MAX)) {
                overflow_at = Some(index);
                break;
            }
            committed += 1;
        }
        match (journal::recover(&text, "huge"), overflow_at) {
            (Err(reason), Some(index)) => {
                prop_assert_eq!(reason, format!("journal line {index}: {TotalsOverflow}"));
            }
            (Ok(recovery), None) => {
                let s = sums.map(|s| u64::try_from(s).expect("no overflow"));
                let expected = Aggregate {
                    points: s[0],
                    ok: s[1],
                    errors: 0,
                    accepted: s[2],
                    rejected: s[3],
                    rounds: s[4],
                    messages: s[5],
                    bits: s[6],
                    max_bits_per_round,
                    dropped: s[7],
                    crashed: s[8],
                    corrupted: s[9],
                    points_failed: s[10],
                    points_retried: s[11],
                };
                prop_assert_eq!(recovery.committed, committed);
                prop_assert_eq!(recovery.aggregate, expected);
            }
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "recover gave {got:?}, the oracle's overflowing line is {want:?}"
                )));
            }
        }
    }

    /// Exact archives of 1–4 rounds with the same huge counts go through
    /// `from_jsonl` and, when it accepts them, `totals()`, without a
    /// panic: an archive is refused exactly when a total would pass
    /// u64::MAX.
    #[test]
    fn exact_archives_refuse_round_series_that_overflow(
        picks in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 1u64..100), 5),
            1..5,
        )
    ) {
        let rounds: Vec<Vec<u64>> = picks
            .iter()
            .map(|round| round.iter().map(|&p| magnitude(p)).collect())
            .collect();
        let report = TelemetryReport {
            nodes: 2,
            edges: 1,
            bandwidth: 8,
            classified: false,
            rounds: rounds
                .iter()
                .enumerate()
                .map(|(i, m)| RoundProfile {
                    round: i + 1,
                    messages: m[0],
                    bits: m[1],
                    dropped: m[2],
                    corrupted_bits: m[3],
                    crashes: m[4],
                    ..RoundProfile::default()
                })
                .collect(),
            node_totals: vec![NodeTotals::default(); 2],
            edge_totals: vec![EdgeTotals::default()],
        };
        let mut sums = [0u128; 5];
        for m in &rounds {
            for (sum, v) in sums.iter_mut().zip(m) {
                *sum += u128::from(*v);
            }
        }
        let fits = sums.iter().all(|&s| s <= u128::from(u64::MAX));
        match TelemetryReport::from_jsonl(&report.to_jsonl(false)) {
            Ok(back) => {
                prop_assert!(fits, "an overflowing archive was accepted");
                let t = back.totals();
                prop_assert_eq!(
                    [t.messages, t.bits, t.dropped, t.corrupted_bits, t.crashes].map(u128::from),
                    sums
                );
            }
            Err(e) => {
                prop_assert!(!fits, "a fitting archive was refused: {}", e);
                prop_assert!(e.msg == TotalsOverflow.to_string(), "{}", e);
            }
        }
    }
}

/// A counter read back from disk, picked by `(which, small)`: zero,
/// small, half the range, or the top of it.
fn magnitude((which, small): (usize, u64)) -> u64 {
    [0, small, u64::MAX / 2, u64::MAX][which]
}
