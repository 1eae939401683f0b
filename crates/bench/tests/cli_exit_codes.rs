//! Pins the error paths of the command-line tools `campaign`, `profile`
//! and `stream_soak`: each case runs the real binary
//! (`CARGO_BIN_EXE_<name>`) and checks its exit code and the first line
//! it writes to stderr. `campaign verify`'s verdicts on a real journal
//! are pinned the same way, with their stdout line, and so are the
//! refusals of `campaign resume` on that journal.
//!
//! Every case runs from a temporary directory of its own tool, so anything
//! a rejected run might write lands there and is removed afterwards.

use std::path::PathBuf;
use std::process::Command;

const CAMPAIGN_USAGE: &str = "usage: campaign [resume] <spec> [--threads N] \
     [--deterministic] [--max-attempts N] [--deadline-ms MS] [--throttle-ms MS] \
     [--out FILE.jsonl] [--summary FILE.json] [--telemetry-dir DIR] \
     [--telemetry-stream] [--telemetry-top-k K] [--list]";
const PROFILE_USAGE: &str = "usage: profile <telemetry.jsonl> [--top K]";
const SOAK_USAGE: &str = "usage: stream_soak [--rounds N] [--nodes N] [--seed S] \
     [--sink stream|exact|null] [--out PATH] [--top-k K]";
const NOT_FOUND: &str = "No such file or directory (os error 2)";
/// A top-K far beyond any network: it bounds the sketches and reserves
/// nothing, so a run asking for it exits 0 with an empty first stderr
/// line (reserving it up front aborted the process with exit 134).
const HUGE_TOP_K: &str = "1000000000000000";
/// A `qdc-telemetry/v1` archive whose two rounds deliver u64::MAX + 1
/// messages.
const OVERFLOWING_ARCHIVE: &str = "\
{\"schema\":\"qdc-telemetry/v1\",\"nodes\":2,\"edges\":1,\"bandwidth\":8,\"classified\":0,\"rounds\":2}
{\"round\":1,\"messages\":18446744073709551615,\"bits\":8,\"dropped\":0,\"corrupted\":0,\"crashes\":0,\"quiescent\":0,\"util\":[1,0,0,0,1],\"split\":[0,0,0]}
{\"round\":2,\"messages\":1,\"bits\":8,\"dropped\":0,\"corrupted\":0,\"crashes\":0,\"quiescent\":1,\"util\":[1,0,0,0,1],\"split\":[0,0,0]}
{\"node_totals\":[[0,0,0,0],[0,0,0,0]]}
{\"edge_totals\":[[0,0,0,0]]}
";

/// A `qdc-telemetry/v1` archive whose second line holds a byte that is
/// not UTF-8.
const NOT_UTF8_ARCHIVE: &[u8] = b"\
{\"schema\":\"qdc-telemetry/v1\",\"nodes\":2,\"edges\":1,\"bandwidth\":8,\"classified\":0,\"rounds\":1}
{\"round\":1,\"messages\":\xff}
";

/// (arguments, exit code, first stderr line).
type Case<'a> = (&'a [&'a str], i32, String);

/// Runs every case of one tool from a fresh temporary directory holding
/// the files `not_an_archive.txt`, `not_utf8.jsonl` and
/// `overflow.telemetry.jsonl`, with `not_utf8.jsonl` on its stdin.
fn run_cases(tool: &str, exe: &str, cases: &[Case<'_>]) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("qdc_cli_exit_codes_{tool}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("not_an_archive.txt"), "not an archive\n").expect("fixture");
    std::fs::write(dir.join("not_utf8.jsonl"), NOT_UTF8_ARCHIVE).expect("fixture");
    std::fs::write(dir.join("overflow.telemetry.jsonl"), OVERFLOWING_ARCHIVE).expect("fixture");
    for (args, code, first_line) in cases {
        let stdin = std::fs::File::open(dir.join("not_utf8.jsonl")).expect("fixture");
        let out = Command::new(exe)
            .args(*args)
            .current_dir(&dir)
            .stdin(stdin)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            (out.status.code(), stderr.lines().next().unwrap_or("")),
            (Some(*code), first_line.as_str()),
            "{tool} {args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_error_paths() {
    let cases: &[Case<'_>] = &[
        (
            &["simthm_smoke", "--threads", "x"],
            2,
            CAMPAIGN_USAGE.into(),
        ),
        (
            &["simthm_smoke", "--bogus"],
            2,
            "unknown flag `--bogus`".into(),
        ),
        (
            &["simthm_smoke", "--trace-dir", "traces"],
            2,
            "unknown flag `--trace-dir`".into(),
        ),
        (
            &["simthm_smoke", "--sim-threads", "2"],
            2,
            "unknown flag `--sim-threads`".into(),
        ),
        (&[], 2, CAMPAIGN_USAGE.into()),
        (
            &["nope_spec"],
            2,
            "campaign: unknown spec `nope_spec`".into(),
        ),
        (
            &["simthm_smoke", "--threads", "0"],
            3,
            "campaign: thread count must be at least 1".into(),
        ),
        (
            &["simthm_smoke", "--telemetry-stream"],
            3,
            "campaign: --telemetry-stream requires --telemetry-dir".into(),
        ),
        (
            &["simthm_smoke", "--telemetry-top-k", "0"],
            2,
            CAMPAIGN_USAGE.into(),
        ),
        (
            &[
                "simthm_smoke",
                "--telemetry-dir",
                "d",
                "--telemetry-top-k",
                "4",
            ],
            3,
            "campaign: --telemetry-top-k requires --telemetry-stream".into(),
        ),
        (
            &[
                "simthm_smoke",
                "--out",
                "same.json",
                "--summary",
                "same.json",
            ],
            3,
            "campaign: records and summary would both be written to `same.json`".into(),
        ),
        (
            &["verify", "missing.jsonl"],
            4,
            format!("campaign verify: cannot read `missing.jsonl`: {NOT_FOUND}"),
        ),
        (
            &["verify"],
            2,
            "usage: campaign verify <records.jsonl> [--campaign NAME]".into(),
        ),
        (
            &["verify", "not_an_archive.txt"],
            5,
            "campaign verify: `not_an_archive.txt` is not this campaign's journal: \
             first line is not a campaign record"
                .into(),
        ),
        (
            &["serve", "--workers", "x"],
            2,
            "usage: campaign serve [--addr HOST:PORT] [--data-dir DIR] [--workers N] \
             [--job-threads N] [--max-queue N] [--max-client-jobs N] \
             [--max-client-points N] [--throttle-ms MS]"
                .into(),
        ),
        (
            &[
                "telemetry_smoke",
                "--out",
                "r.jsonl",
                "--summary",
                "s.json",
                "--telemetry-dir",
                "tel",
                "--telemetry-stream",
                "--telemetry-top-k",
                HUGE_TOP_K,
            ],
            0,
            String::new(),
        ),
    ];
    run_cases("campaign", env!("CARGO_BIN_EXE_campaign"), cases);
}

/// `campaign verify`'s verdicts on a journal the binary wrote itself,
/// and `campaign resume`'s refusals of its overflowing copies: the exit
/// code and the first line of stdout (verdicts) or stderr (refusals).
/// A refused journal is left byte-identical.
#[test]
fn campaign_verify_verdicts() {
    let exe = env!("CARGO_BIN_EXE_campaign");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("qdc_cli_exit_codes_verify_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |args: &[&str]| {
        let out = Command::new(exe)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let first = |bytes: &[u8]| {
            let text = String::from_utf8_lossy(bytes);
            text.lines().next().unwrap_or("").to_string()
        };
        (out.status.code(), first(&out.stdout), first(&out.stderr))
    };
    let written = run(&[
        "simthm_smoke",
        "--deterministic",
        "--out",
        "journal.jsonl",
        "--summary",
        "summary.json",
    ]);
    assert_eq!(written.0, Some(0), "{written:?}");
    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal");
    std::fs::write(dir.join("torn.jsonl"), &journal[..journal.len() - 40]).expect("torn");
    std::fs::write(dir.join("empty.jsonl"), "").expect("empty");
    // The journal of a campaign named `é`, cut one byte into line 2's
    // `é`: a split character is torn tail like any other cut.
    let relabelled = journal.replace("simthm_smoke", "é");
    let kept: usize = relabelled.lines().take(2).map(|l| l.len() + 1).sum();
    let line2 = &relabelled[kept..];
    let cut = kept + line2.find('é').expect("line 2 names its campaign") + 1;
    std::fs::write(dir.join("torn_utf8.jsonl"), &relabelled.as_bytes()[..cut]).expect("torn");
    std::fs::write(
        dir.join("foreign.jsonl"),
        journal.replace("simthm_smoke", "someone_elses"),
    )
    .expect("foreign");
    // Two lines whose first claims u64::MAX messages, and one line
    // claiming u64::MAX − 1, which only the live fold of point 1 passes.
    let sent = journal.split("\"messages_sent\":").nth(1).expect("metric");
    let sent = format!(
        "\"messages_sent\":{},",
        &sent[..sent.find(',').expect("field")]
    );
    let first_lines = |n: usize, messages: u64| {
        let lines: String = journal.lines().take(n).map(|l| format!("{l}\n")).collect();
        lines.replacen(&sent, &format!("\"messages_sent\":{messages},"), 1)
    };
    let overflowing = [
        ("overflow.jsonl", first_lines(2, u64::MAX)),
        ("near_max.jsonl", first_lines(1, u64::MAX - 1)),
    ];
    for (name, text) in &overflowing {
        std::fs::write(dir.join(name), text).expect("overflowing journal");
    }
    let refusal = "journal line 1: a running total would overflow u64";

    let cases: &[(&[&str], i32, &str, &str)] = &[
        (
            &["verify", "journal.jsonl"],
            0,
            "journal.jsonl: clean — 4 committed record(s), every byte accounted for",
            "",
        ),
        (
            &["verify", "torn.jsonl"],
            0,
            "torn.jsonl: recoverable — 3 committed record(s) in 1282 bytes, \
             torn tail of 391 byte(s) would be truncated on resume",
            "",
        ),
        (
            &["verify", "torn_utf8.jsonl"],
            0,
            &format!(
                "torn_utf8.jsonl: recoverable — 2 committed record(s) in {kept} bytes, \
                 torn tail of {} byte(s) would be truncated on resume",
                cut - kept
            ),
            "",
        ),
        (
            &["verify", "empty.jsonl"],
            0,
            "empty.jsonl: clean — 0 committed record(s), every byte accounted for",
            "",
        ),
        (
            &["verify", "foreign.jsonl", "--campaign", "simthm_smoke"],
            5,
            "",
            "campaign verify: `foreign.jsonl` is not this campaign's journal: \
             journal line 0 belongs to campaign `someone_elses`, not `simthm_smoke` \
             — refusing to truncate another campaign's results",
        ),
        (
            &["verify", "overflow.jsonl"],
            5,
            "",
            &format!("campaign verify: `overflow.jsonl` overflows: {refusal}"),
        ),
        (
            &["resume", "simthm_smoke", "--out", "overflow.jsonl"],
            5,
            "",
            &format!("campaign: corrupt journal `overflow.jsonl`: {refusal}"),
        ),
        (
            &["resume", "simthm_smoke", "--out", "near_max.jsonl"],
            5,
            "",
            &format!("campaign: corrupt journal `near_max.jsonl`: {refusal}"),
        ),
    ];
    for (args, code, stdout, stderr) in cases {
        assert_eq!(
            run(args),
            (Some(*code), stdout.to_string(), stderr.to_string()),
            "campaign {args:?}"
        );
    }
    for (name, text) in &overflowing {
        let after = std::fs::read_to_string(dir.join(name)).expect("journal");
        assert_eq!(&after, text, "{name} changed");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_error_paths() {
    let cases: &[Case<'_>] = &[
        (&[], 2, PROFILE_USAGE.into()),
        (&["--top", "x", "f"], 2, PROFILE_USAGE.into()),
        (
            &["missing.jsonl"],
            4,
            format!("profile: cannot read `missing.jsonl`: {NOT_FOUND}"),
        ),
        (
            &["not_an_archive.txt"],
            5,
            "profile: `not_an_archive.txt` is not a valid telemetry archive: \
             telemetry line 1: expected `{`, found `not an archive`"
                .into(),
        ),
        (
            &["overflow.telemetry.jsonl"],
            5,
            "profile: `overflow.telemetry.jsonl` is not a valid telemetry archive: \
             telemetry line 3: a running total would overflow u64"
                .into(),
        ),
        (
            &["not_utf8.jsonl"],
            5,
            "profile: `not_utf8.jsonl` is not a valid telemetry archive: \
             telemetry line 2: not valid UTF-8"
                .into(),
        ),
        (
            &["-"],
            5,
            "profile: `-` is not a valid telemetry archive: telemetry line 2: not valid UTF-8"
                .into(),
        ),
        (
            &["query", "--rounds", "5..2", "x"],
            2,
            "profile query: bad --rounds: empty window 5..2".into(),
        ),
        (
            &["query", "--metric", "nope", "x"],
            2,
            "profile query: unknown metric `nope` (one of: messages, bits, dropped, \
             corrupted, crashes, path, highway, cross)"
                .into(),
        ),
        (
            &["query", "--merge", "--metric", "bits", "x"],
            2,
            "profile query: --merge combines footers; --metric streams rounds — pick one".into(),
        ),
        (
            &["query", "missing.jsonl"],
            4,
            format!("profile query: cannot read `missing.jsonl`: {NOT_FOUND}"),
        ),
    ];
    run_cases("profile", env!("CARGO_BIN_EXE_profile"), cases);
}

#[test]
fn stream_soak_error_paths() {
    let cases: &[Case<'_>] = &[
        (&["--nodes", "1"], 2, SOAK_USAGE.into()),
        (&["--sink", "bogus"], 2, SOAK_USAGE.into()),
        (&["--rounds", "0"], 2, SOAK_USAGE.into()),
        (&["--rounds", "2", "--top-k", HUGE_TOP_K], 0, String::new()),
    ];
    run_cases("stream_soak", env!("CARGO_BIN_EXE_stream_soak"), cases);
}
