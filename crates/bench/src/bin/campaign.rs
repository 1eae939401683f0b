//! Campaign runner CLI: execute a named experiment campaign on a worker
//! pool with crash-safe journaling, and write machine-readable results.
//!
//! ```text
//! campaign [resume] <spec> [--threads N] [--deterministic]
//!                          [--max-attempts N] [--deadline-ms MS] [--throttle-ms MS]
//!                          [--out FILE.jsonl] [--summary FILE.json]
//!                          [--telemetry-dir DIR] [--telemetry-stream]
//!                          [--telemetry-top-k K] [--list]
//! campaign serve  [--addr HOST:PORT] [--data-dir DIR] [--workers N]
//!                 [--job-threads N] [--max-queue N] [--max-client-jobs N]
//!                 [--max-client-points N] [--throttle-ms MS]
//! campaign verify <records.jsonl> [--campaign NAME]
//! ```
//!
//! * `<spec>` — a built-in campaign name (`campaign --list` prints them);
//! * `resume` — recover the journal at `--out`, truncate any
//!   torn final line on its record boundary, fold the surviving records
//!   into the aggregate, and execute only the missing tail. A resumed
//!   deterministic run is byte-identical to an uninterrupted one;
//! * `--threads N` — worker pool size (default 1). The deterministic
//!   output is byte-identical for every `N`;
//! * `--deterministic` — omit the volatile wall-clock fields from the
//!   record and telemetry files, so two runs of the same spec can be
//!   diffed byte-for-byte (CI's parallel-differential and
//!   interrupt-resume jobs do exactly this). The summary keeps its
//!   `threads`/`wall_ms` fields — its schema pins them — so only records
//!   and archives are diffable;
//! * `--max-attempts N` — attempt budget per point (default 1; the first
//!   try counts). Transient failures (watchdog trips, panics, deadline
//!   overruns) are retried with deterministic backoff; permanent
//!   protocol violations are journaled after the first attempt;
//! * `--deadline-ms MS` — wall-clock deadline per attempt; an overrun
//!   becomes a `"deadline"` failure record (off by default);
//! * `--throttle-ms MS` — testing aid: sleep before each point so
//!   interruption tests can land a signal mid-grid (default 0);
//! * `--out` — per-point JSONL journal (default `campaign_<spec>.jsonl`).
//!   Every committed point is durably appended (one write per line,
//!   one fsync per batch of ready records, no line left unsynced when
//!   the committer waits or the run returns), so the file is a valid
//!   record-boundary prefix at every instant — SIGKILL included;
//! * `--summary` — aggregate summary (default `BENCH_<spec>.json`);
//! * `--telemetry-dir` — profile each point with a telemetry sink
//!   (observation never changes results) and archive each profile as
//!   `<dir>/point_<i>.telemetry.jsonl` (the `profile` binary renders
//!   these). By default the sink is the exact in-memory profiler
//!   (`qdc-telemetry/v1` archives, O(rounds) memory);
//! * `--telemetry-stream` — swap the sink for the O(1)-memory streaming
//!   aggregator: each point's archive is written incrementally as
//!   `qdc-telemetry-stream/v1` JSONL the moment each round commits
//!   (windowed flush, never a full-run buffer), with mergeable totals,
//!   a utilisation histogram, and deterministic top-K hottest-edge /
//!   hottest-node sketches in the footer. Requires `--telemetry-dir`.
//!   Streamed archives obey the same byte-identical contract at any
//!   `--threads` count (`profile query` reads them);
//! * `--telemetry-top-k K` — capacity of the streaming top-K sketches
//!   (default 16; exact whenever K ≥ the number of distinct edges or
//!   nodes). Requires `--telemetry-stream`.
//!
//! `campaign serve` keeps the process resident as the campaign service
//! (`qdc-service`): clients POST specs to `/jobs`, a worker pool runs
//! them through the same journaled runner, and `/jobs/<id>/records`
//! streams each journal live as chunked JSONL. The first stdout line is
//! `listening on <addr>` (with the resolved port — `--addr 127.0.0.1:0`
//! binds an ephemeral one), and SIGINT/SIGTERM drains gracefully to
//! exit 130: in-flight jobs stop on a journal flush, queued jobs stay
//! on disk, and a restart with the same `--data-dir` re-enqueues and
//! resumes them byte-identically.
//!
//! `campaign verify` runs the recovery pass of resume and the service's
//! startup scan, dry, on one file: `clean` (every byte committed),
//! `recoverable` (valid prefix plus a torn tail that resume would
//! truncate), `foreign` (not this campaign's journal; without
//! `--campaign`, the campaign is the one its first line names), or
//! `overflows` (folding its counters would pass `u64::MAX`, so resume
//! refuses it). Exit 0 for the first two, 5 for the last two, 4 if the
//! file cannot be read.
//!
//! On SIGINT/SIGTERM the runner drains in-flight points, flushes the
//! journal, writes a partial summary marked `"interrupted": true`, and
//! exits 130; `campaign resume <spec>` finishes the grid later.
//!
//! After running, the binary re-reads the JSONL journal and recovers
//! it: every line must be a strict, in-order record of this campaign
//! (point and failure records alike), one per committed point. With the
//! summary validated too, a zero exit status certifies the output is
//! schema-conformant (CI's smoke jobs rely on this).
//!
//! Exit codes: `0` success, `2` usage, `3` invalid spec or options,
//! `4` I/O failure, `5` corrupt journal or failed self-check, `130`
//! interrupted by signal.

use qdc_bench::{cli, print_header, print_row};
use qdc_congest::json::{self, Json};
use qdc_congest::TotalsOverflow;
use qdc_harness::{
    builtin, builtin_names, journal, journal_summary_json, run_campaign_journaled,
    validate_output_paths, CampaignRunError, CancelToken, JournalConfig, JournalOutcome,
    RunOptions, StreamTelemetry, TelemetryMode,
};
use std::num::NonZeroUsize;

/// Signal plumbing: SIGINT/SIGTERM flip the shared [`CancelToken`] and
/// nothing else — the handler is a single atomic store, which is
/// async-signal-safe. The runner notices the token, drains, and shuts
/// down gracefully on the normal control path.
#[cfg(unix)]
mod signals {
    use qdc_harness::CancelToken;
    use std::sync::OnceLock;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    pub fn install(token: CancelToken) {
        let _ = TOKEN.set(token);
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    use qdc_harness::CancelToken;

    pub fn install(_token: CancelToken) {}
}

struct Args {
    spec: String,
    threads: usize,
    deterministic: bool,
    resume: bool,
    max_attempts: u32,
    deadline_ms: Option<u64>,
    throttle_ms: u64,
    out: Option<String>,
    summary: Option<String>,
    telemetry_dir: Option<String>,
    telemetry_stream: bool,
    telemetry_top_k: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign [resume] <spec> [--threads N] [--deterministic] \
         [--max-attempts N] [--deadline-ms MS] [--throttle-ms MS] \
         [--out FILE.jsonl] [--summary FILE.json] [--telemetry-dir DIR] \
         [--telemetry-stream] [--telemetry-top-k K] [--list]"
    );
    eprintln!("built-in specs: {}", builtin_names().join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: String::new(),
        threads: 1,
        deterministic: false,
        resume: false,
        max_attempts: 1,
        deadline_ms: None,
        throttle_ms: 0,
        out: None,
        summary: None,
        telemetry_dir: None,
        telemetry_stream: false,
        telemetry_top_k: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for name in builtin_names() {
                    let spec = builtin(name).expect("listed builtins exist");
                    println!("{name}  ({} points)", spec.points().len());
                }
                std::process::exit(0);
            }
            "--threads" => args.threads = cli::value(&mut it, usage),
            "--deterministic" => args.deterministic = true,
            "--max-attempts" => args.max_attempts = cli::value(&mut it, usage),
            "--deadline-ms" => args.deadline_ms = Some(cli::value(&mut it, usage)),
            "--throttle-ms" => args.throttle_ms = cli::value(&mut it, usage),
            "--out" => args.out = Some(cli::value(&mut it, usage)),
            "--summary" => args.summary = Some(cli::value(&mut it, usage)),
            "--telemetry-dir" => args.telemetry_dir = Some(cli::value(&mut it, usage)),
            "--telemetry-stream" => args.telemetry_stream = true,
            "--telemetry-top-k" => {
                args.telemetry_top_k = Some(cli::value::<NonZeroUsize>(&mut it, usage).get())
            }
            "--help" | "-h" => usage(),
            s if s.starts_with('-') => {
                eprintln!("unknown flag `{s}`");
                usage();
            }
            "resume" if args.spec.is_empty() && !args.resume => args.resume = true,
            s if args.spec.is_empty() => args.spec = s.to_string(),
            _ => usage(),
        }
    }
    if args.spec.is_empty() {
        usage();
    }
    args
}

/// Re-reads the journal and summary from disk and checks every byte the
/// campaign claims to have written. Returns the number of journal lines.
fn self_check(
    out_path: &str,
    summary_path: &str,
    outcome: &JournalOutcome,
) -> Result<usize, String> {
    let written = std::fs::read(out_path).map_err(|e| format!("cannot re-read journal: {e}"))?;
    let recovery = journal::recover(&written, &outcome.spec_name)?;
    let n = recovery.committed;
    if recovery.truncated_bytes > 0 {
        return Err(format!(
            "journal line {n} is not a valid record of point {n} of `{}`",
            outcome.spec_name
        ));
    }
    let expected = outcome.recovered + outcome.executed;
    if n != expected {
        return Err(format!(
            "journal holds {n} lines but the run committed {expected} points"
        ));
    }
    let summary = std::fs::read_to_string(summary_path)
        .map_err(|e| format!("cannot re-read summary: {e}"))?;
    qdc_harness::validate_summary(&summary).map_err(|e| format!("summary: {e}"))?;
    Ok(n)
}

/// `campaign serve` — bind, recover the data dir, run until a signal.
fn serve_main(args: &[String]) -> ! {
    fn usage() -> ! {
        cli::fail(
            2,
            "usage: campaign serve [--addr HOST:PORT] [--data-dir DIR] [--workers N] \
             [--job-threads N] [--max-queue N] [--max-client-jobs N] \
             [--max-client-points N] [--throttle-ms MS]",
        )
    }
    let mut addr = "127.0.0.1:7411".to_string();
    let mut config = qdc_service::ServiceConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = cli::value(&mut it, usage),
            "--data-dir" => config.data_dir = cli::value(&mut it, usage),
            "--workers" => config.workers = cli::value(&mut it, usage),
            "--job-threads" => config.job_threads = cli::value(&mut it, usage),
            "--max-queue" => config.quotas.max_queue = cli::value(&mut it, usage),
            "--max-client-jobs" => config.quotas.max_queued_per_client = cli::value(&mut it, usage),
            "--max-client-points" => {
                config.quotas.max_points_per_client = cli::value(&mut it, usage)
            }
            "--throttle-ms" => config.throttle_ms = cli::value(&mut it, usage),
            _ => usage(),
        }
    }

    let cancel = CancelToken::new();
    signals::install(cancel.clone());
    let data_dir = config.data_dir.clone();
    let server = qdc_service::Server::bind(&addr, config, cancel.clone())
        .unwrap_or_else(|e| cli::fail(4, format!("campaign serve: cannot start on `{addr}`: {e}")));
    for warning in server.scan_warnings() {
        eprintln!("campaign serve: {warning}");
    }
    let local = server.local_addr().expect("bound listener has an address");
    // The `listening` line is the machine-readable handshake: tests and
    // scripts bind port 0 and read the resolved address from here. The
    // explicit flush matters — piped stdout is block-buffered.
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "listening on {local}");
        let _ = writeln!(out, "data dir: {}", data_dir.display());
        let _ = out.flush();
    }
    if let Err(e) = server.run() {
        cli::fail(4, format!("campaign serve: {e}"));
    }
    if cancel.is_cancelled() {
        cli::fail(
            130,
            "campaign serve: interrupted — journals flushed, queue preserved on disk",
        );
    }
    std::process::exit(0);
}

/// `campaign verify` — dry-run journal triage, no writes.
fn verify_main(args: &[String]) -> ! {
    fn usage() -> ! {
        cli::fail(
            2,
            "usage: campaign verify <records.jsonl> [--campaign NAME]",
        )
    }
    let mut path = String::new();
    let mut campaign: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--campaign" => campaign = Some(cli::value(&mut it, usage)),
            "--help" | "-h" => usage(),
            s if s.starts_with('-') => {
                eprintln!("unknown flag `{s}`");
                usage();
            }
            s if path.is_empty() => path = s.to_string(),
            _ => usage(),
        }
    }
    if path.is_empty() {
        usage();
    }
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| cli::fail(4, format!("campaign verify: cannot read `{path}`: {e}")));
    // Without `--campaign`, the journal names its campaign on line 0.
    let campaign = campaign.or_else(|| {
        let text = bytes.utf8_chunks().next()?.valid();
        let first = json::parse(text.lines().next()?).ok()?;
        match first.get("campaign")? {
            Json::Str(name) => Some(name.clone()),
            _ => None,
        }
    });
    let verdict = match campaign {
        Some(name) => journal::recover(&bytes, &name),
        // An empty file is the empty journal of any campaign.
        None if bytes.is_empty() => journal::recover(&bytes, ""),
        None => Err("first line is not a campaign record".to_string()),
    };
    match verdict {
        Err(reason) if reason.ends_with(&TotalsOverflow.to_string()) => {
            cli::fail(5, format!("campaign verify: `{path}` overflows: {reason}"))
        }
        Err(reason) => cli::fail(
            5,
            format!("campaign verify: `{path}` is not this campaign's journal: {reason}"),
        ),
        Ok(r) if r.truncated_bytes == 0 => println!(
            "{path}: clean — {} committed record(s), every byte accounted for",
            r.committed
        ),
        Ok(r) => println!(
            "{path}: recoverable — {} committed record(s) in {} bytes, \
             torn tail of {} byte(s) would be truncated on resume",
            r.committed, r.kept_bytes, r.truncated_bytes
        ),
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => serve_main(&argv[1..]),
        Some("verify") => verify_main(&argv[1..]),
        _ => {}
    }
    let args = parse_args();
    let spec = builtin(&args.spec).unwrap_or_else(|| {
        let names = builtin_names().join(", ");
        cli::fail(
            2,
            format!(
                "campaign: unknown spec `{}`\nbuilt-in specs: {names}",
                args.spec
            ),
        )
    });
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("campaign_{}.jsonl", spec.name));
    let summary_path = args
        .summary
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", spec.name));
    if let Err(e) = validate_output_paths(&out_path, &summary_path) {
        cli::fail(3, format!("campaign: {e}"));
    }
    if args.telemetry_stream && args.telemetry_dir.is_none() {
        cli::fail(3, "campaign: --telemetry-stream requires --telemetry-dir");
    }
    if args.telemetry_top_k.is_some() && !args.telemetry_stream {
        cli::fail(3, "campaign: --telemetry-top-k requires --telemetry-stream");
    }

    // Stream mode: the workers write `qdc-telemetry-stream/v1` archives
    // incrementally themselves, so the journal committer has nothing to
    // archive. Exact mode keeps the committer-written `qdc-telemetry/v1`
    // path.
    let telemetry = match &args.telemetry_dir {
        Some(dir) if args.telemetry_stream => {
            let mut cfg = StreamTelemetry::new(dir.clone());
            cfg.top_k = args.telemetry_top_k.unwrap_or(cfg.top_k);
            cfg.with_wall = !args.deterministic;
            TelemetryMode::Stream(cfg)
        }
        Some(_) => TelemetryMode::Exact,
        None => TelemetryMode::Off,
    };
    let options = RunOptions {
        threads: args.threads,
        telemetry,
        max_attempts: args.max_attempts,
        point_deadline_ms: args.deadline_ms,
        throttle_ms: args.throttle_ms,
    };
    let config = JournalConfig {
        out_path: out_path.clone(),
        telemetry_dir: args.telemetry_dir.clone(),
        resume: args.resume,
        with_wall: !args.deterministic,
        watch: None,
    };
    let cancel = CancelToken::new();
    signals::install(cancel.clone());

    let outcome =
        run_campaign_journaled(&spec, &options, &config, &cancel).unwrap_or_else(|e| match e {
            CampaignRunError::Spec(e) => cli::fail(3, format!("campaign: {e}")),
            CampaignRunError::Io(e) => cli::fail(4, format!("campaign: journal I/O failed: {e}")),
            CampaignRunError::Corrupt(msg) => {
                cli::fail(5, format!("campaign: corrupt journal `{out_path}`: {msg}"))
            }
        });

    // The summary is written even for an interrupted run — marked, so
    // downstream tooling can tell the partial fold from a complete one.
    if let Err(e) = std::fs::write(&summary_path, journal_summary_json(&outcome) + "\n") {
        cli::fail(4, format!("campaign: writing summary failed: {e}"));
    }

    let validated = self_check(&out_path, &summary_path, &outcome)
        .unwrap_or_else(|e| cli::fail(5, format!("campaign: self-check failed: {e}")));

    let agg = &outcome.aggregate;
    if outcome.recovered > 0 {
        println!(
            "campaign `{}`: recovered {} point(s) from `{out_path}`, resumed at point {}",
            outcome.spec_name, outcome.recovered, outcome.recovered
        );
    }
    println!(
        "campaign `{}`: {} of {} points on {} thread(s) in {} ms",
        outcome.spec_name, agg.points, outcome.total_points, outcome.threads, outcome.wall_ms
    );
    let widths = [10, 10, 10, 10, 12, 14, 12];
    print_header(
        &[
            "ok", "errors", "failed", "retried", "rounds", "bits", "dropped",
        ],
        &widths,
    );
    print_row(
        &[
            &agg.ok.to_string(),
            &agg.errors.to_string(),
            &agg.points_failed.to_string(),
            &agg.points_retried.to_string(),
            &agg.rounds.to_string(),
            &agg.bits.to_string(),
            &agg.dropped.to_string(),
        ],
        &widths,
    );
    println!("records: {out_path} (validated {validated} lines)");
    println!("summary: {summary_path}");

    if outcome.interrupted {
        cli::fail(
            130,
            format!(
                "campaign: interrupted after {} of {} points — run `campaign resume {}` to finish",
                agg.points, outcome.total_points, outcome.spec_name
            ),
        );
    }
}
