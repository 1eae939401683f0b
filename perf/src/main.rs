//! `perf`: the qdc performance benchmark. It measures four workloads
//! end to end and, in a separate traced run, layer by layer, checking
//! every output it measures against a reference.
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! perf [--seed N] [--seconds S] [--quick] [--out DIR] [--check-counters REPORT]
//! ```
//!
//! With `--workload`, one run of one workload: every metric is printed
//! as `workload metric value unit`, and the last line is the result as
//! one JSON object. Without it, the whole suite: each workload runs
//! untraced and traced, each in a child process of its own (so its
//! peak RSS is its own), and the `qdc-perf/v1` report is written to
//! `DIR/perf.json`. `--check-counters` compares the suite's counters
//! with a committed report's and fails on any drift.
//!
//! Exit codes: `0` success, `1` a failed or incorrect run, `2` usage.

mod alloc;
mod inputs;
mod layers;
mod probe;
mod report;
mod run;
mod service;
mod stats;
mod trace;
mod workloads;

use report::{counter_drift, Report, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds measured per run when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 25;
/// Seconds measured per run under `--quick`.
const QUICK_SECONDS: u64 = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    out: PathBuf,
    check_counters: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n\
         \x20      perf [--seed N] [--seconds S] [--quick] [--out DIR] [--check-counters REPORT]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: PathBuf::from(".bench_work"),
        check_counters: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--workload" => args.workload = Some(Workload::parse(&it.next()?)?),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = Some(it.next()?.parse().ok().filter(|&s| s > 0)?),
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => args.out = PathBuf::from(it.next()?),
            "--check-counters" => args.check_counters = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    alloc::retain_freed_memory();
    let Some(args) = parse_args() else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perf: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let outcome = match args.workload {
        Some(workload) => run_one(&run::Options {
            workload,
            seed: args.seed,
            seconds,
            trace: args.trace,
            quick: args.quick,
            out: args.out.clone(),
        }),
        None if args.trace => return usage(),
        None => run_suite(&args, seconds),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn result_path(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    let kind = if trace { "traced" } else { "untraced" };
    out.join(format!("result-{}-{kind}.json", workload.name()))
}

/// One workload, in this process.
fn run_one(o: &run::Options) -> Result<(), String> {
    let result = run::measure(o)?;
    let path = result_path(&o.out, o.workload, o.trace);
    std::fs::write(&path, result.to_json_text()).map_err(|e| format!("{}: {e}", path.display()))?;
    for m in &result.metrics {
        println!("{} {} {} {}", result.workload, m.name, m.value, m.unit);
    }
    println!("{}", result.result_line());
    if result.correct {
        Ok(())
    } else {
        Err(format!(
            "{}: {} of {} ops failed their check",
            result.workload, result.failed, result.attempted
        ))
    }
}

/// Every workload, untraced then traced, each in a child process.
fn run_suite(args: &Args, seconds: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut report = Report {
        seed: args.seed,
        seconds,
        quick: args.quick,
        results: Vec::new(),
    };
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let path = result_path(&args.out, workload, trace);
            let _ = std::fs::remove_file(&path);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out);
            if args.quick {
                child.arg("--quick");
            }
            let output = child
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            // The metric lines; the span table and result line stay in
            // the child's files.
            for line in stdout.lines().filter(|l| !l.starts_with(['#', '{'])) {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if let Ok(text) = std::fs::read_to_string(&path) {
                let doc = qdc_harness::json::parse(&text)?;
                report.results.push(WorkloadResult::from_json(&doc)?);
            }
            if !output.status.success() {
                failures.push(format!(
                    "{} (trace {trace}) exited {}",
                    workload.name(),
                    output.status
                ));
            }
        }
    }
    let path = args.out.join("perf.json");
    std::fs::write(&path, report.to_json_text() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());

    let counters = report.counters()?;
    if let Some(baseline) = &args.check_counters {
        let text = std::fs::read_to_string(baseline)
            .map_err(|e| format!("{}: {e}", baseline.display()))?;
        let drift = counter_drift(&counters, &Report::parse(&text)?.counters()?);
        for d in &drift {
            println!("counter drift: {d}");
        }
        if drift.is_empty() {
            println!("counters: {} match {}", counters.len(), baseline.display());
        } else {
            failures.push(format!("{} counters drifted", drift.len()));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}
