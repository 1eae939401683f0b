//! Telemetry archive viewer and query engine.
//!
//! ```text
//! profile <telemetry.jsonl> [--top K]
//! profile - [--top K]            # read the archive from stdin
//! profile query <path|dir|->... [--merge] [--metric NAME]
//!                               [--rounds A..B] [--top-k K]
//! ```
//!
//! The bare form renders one **exact-mode** `qdc-telemetry/v1` archive
//! (from `campaign --telemetry-dir`, or any
//! [`TelemetryReport::to_jsonl`] output) as a per-round utilisation
//! table plus the top-k hottest edges; `-` reads the same bytes from
//! stdin, so service endpoints pipe straight in:
//! `curl -sN host/jobs/1/telemetry/0 | profile -`.
//!
//! `profile query` is the archive engine for **streaming**
//! `qdc-telemetry-stream/v1` archives (`campaign --telemetry-dir D
//! --telemetry-stream`). It runs entirely on the streaming parser —
//! record in, record out — so memory stays flat no matter how many
//! rounds an archive holds:
//!
//! * each input is a file, a directory (every
//!   `point_<i>.telemetry.jsonl` inside, in point order), or `-` for
//!   stdin;
//! * default output is one summary block per archive: merged totals,
//!   the utilisation histogram, the classified split, and the top-K
//!   hottest-edge / hottest-node sketches with their `±err` bounds;
//! * `--merge` folds every archive's footer through the associative
//!   merge and prints a single combined summary (bandwidth renders as
//!   `mixed` when archives disagree);
//! * `--metric NAME` switches to series mode: one `r<round> <value>`
//!   line per round (names: `messages`, `bits`, `dropped`,
//!   `corrupted`, `crashes`, `path`, `highway`, `cross`);
//! * `--rounds A..B` restricts series mode to an inclusive window
//!   (`A..`, `..B`, and a single `A` also work);
//! * `--top-k K` caps the sketch rows a summary lists (default 5).
//!
//! The utilisation columns bucket each delivered message against the
//! per-edge budget `B`: `idle` counts directed edge slots that carried
//! nothing, and `<=B/4 … <=B` count messages by how much of the budget
//! they used. For classified profiles (simulation-theorem networks) the
//! path/highway/cross split of each round's bits is shown as well.
//!
//! Exit codes: `0` success, `2` usage, `4` an input cannot be read,
//! `5` an archive is empty, truncated, or otherwise malformed, or
//! `--merge` would push a total past `u64::MAX` (the parsers and the
//! merge report structured errors — they never panic on bad input).

use qdc_bench::query::{expand_input, metric_value, render_summary, RoundWindow, METRICS};
use qdc_bench::{cli, print_header, print_row};
use qdc_congest::{StreamAggregate, StreamReader, StreamRecord, TelemetryReport};
use std::io::BufRead;

fn usage() -> ! {
    cli::fail(
        2,
        "usage: profile <telemetry.jsonl> [--top K]\n       \
         profile query <path|dir|->... [--merge] [--metric NAME] [--rounds A..B] [--top-k K]",
    )
}

/// One resolved `profile query` input.
enum Source {
    Stdin,
    File(std::path::PathBuf),
}

impl Source {
    fn label(&self) -> String {
        match self {
            Source::Stdin => "-".to_string(),
            Source::File(p) => p.display().to_string(),
        }
    }
}

struct QueryArgs {
    sources: Vec<Source>,
    merge: bool,
    top_k: usize,
    rounds: RoundWindow,
    metric: Option<String>,
}

fn parse_query_args(args: &[String]) -> QueryArgs {
    let mut inputs: Vec<String> = Vec::new();
    let mut merge = false;
    let mut top_k = 5usize;
    let mut rounds = RoundWindow::all();
    let mut metric = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--merge" => merge = true,
            "--top-k" => top_k = cli::value(&mut it, usage),
            "--rounds" => match RoundWindow::parse(&cli::value::<String>(&mut it, usage)) {
                Ok(w) => rounds = w,
                Err(e) => {
                    eprintln!("profile query: bad --rounds: {e}");
                    usage();
                }
            },
            "--metric" => match cli::value::<String>(&mut it, usage) {
                name if METRICS.contains(&name.as_str()) => metric = Some(name),
                name => {
                    eprintln!(
                        "profile query: unknown metric `{name}` (one of: {})",
                        METRICS.join(", ")
                    );
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            "-" => inputs.push("-".to_string()),
            s if s.starts_with('-') => {
                eprintln!("unknown flag `{s}`");
                usage();
            }
            s => inputs.push(s.to_string()),
        }
    }
    if inputs.is_empty() {
        usage();
    }
    if merge && metric.is_some() {
        eprintln!("profile query: --merge combines footers; --metric streams rounds — pick one");
        usage();
    }
    let mut sources = Vec::new();
    for input in &inputs {
        if input == "-" {
            sources.push(Source::Stdin);
            continue;
        }
        let paths = expand_input(std::path::Path::new(input))
            .unwrap_or_else(|e| cli::fail(4, format!("profile query: {e}")));
        sources.extend(paths.into_iter().map(Source::File));
    }
    QueryArgs {
        sources,
        merge,
        top_k,
        rounds,
        metric,
    }
}

/// Streams one archive record-by-record: prints the metric series when
/// in series mode, and returns the validated footer aggregate. Memory
/// is one record at a time.
fn drain_archive<R: BufRead>(
    input: R,
    metric: Option<&str>,
    window: RoundWindow,
) -> Result<StreamAggregate, String> {
    let mut reader = StreamReader::new(input);
    loop {
        match reader.next_record().map_err(|e| e.to_string())? {
            Some(StreamRecord::Header(_)) => {}
            Some(StreamRecord::Round(r)) => {
                if let Some(name) = metric {
                    if window.contains(r.round) {
                        let value = metric_value(&r, name).expect("metric name validated");
                        println!("r{} {}", r.round, value);
                    }
                }
            }
            Some(StreamRecord::Footer(agg)) => return Ok(*agg),
            None => return Err("archive ended without a footer".to_string()),
        }
    }
}

/// `profile query` — stream, filter, merge, render.
fn query_main(args: &[String]) -> ! {
    let q = parse_query_args(args);
    let multi = q.sources.len() > 1;
    let mut merged: Option<StreamAggregate> = None;
    let mut folded = 0usize;
    for source in &q.sources {
        let label = source.label();
        if multi && !q.merge {
            println!("== {label}");
        }
        let result = match source {
            Source::Stdin => drain_archive(std::io::stdin().lock(), q.metric.as_deref(), q.rounds),
            Source::File(path) => {
                let file = std::fs::File::open(path).unwrap_or_else(|e| {
                    cli::fail(4, format!("profile query: cannot read `{label}`: {e}"))
                });
                drain_archive(std::io::BufReader::new(file), q.metric.as_deref(), q.rounds)
            }
        };
        let agg = result.unwrap_or_else(|e| {
            cli::fail(
                5,
                format!("profile query: `{label}` is not a valid stream archive: {e}"),
            )
        });
        folded += 1;
        if q.merge {
            match merged.as_mut() {
                Some(m) => {
                    if let Err(e) = m.merge(&agg) {
                        cli::fail(5, format!("profile query: cannot merge `{label}`: {e}"));
                    }
                }
                None => merged = Some(agg),
            }
        } else if q.metric.is_none() {
            print!("{}", render_summary(&agg, 1, q.top_k));
        }
    }
    if let Some(m) = &merged {
        print!("{}", render_summary(m, folded, q.top_k));
    }
    std::process::exit(0);
}

fn parse_args() -> (String, usize) {
    let mut path = String::new();
    let mut top = 5usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => top = cli::value(&mut it, usage),
            "--help" | "-h" => usage(),
            // A bare `-` is the stdin pseudo-path, not a flag.
            "-" if path.is_empty() => path = "-".to_string(),
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
    (path, top)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("query") {
        query_main(&argv[1..]);
    }
    let (path, top) = parse_args();
    let text = if path == "-" {
        std::io::read_to_string(std::io::stdin())
            .unwrap_or_else(|e| cli::fail(4, format!("profile: cannot read stdin: {e}")))
    } else {
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| cli::fail(4, format!("profile: cannot read `{path}`: {e}")))
    };
    let report = TelemetryReport::from_jsonl(&text).unwrap_or_else(|e| {
        cli::fail(
            5,
            format!("profile: `{path}` is not a valid telemetry archive: {e}"),
        )
    });

    println!(
        "profile `{path}`: {} nodes, {} edges, B = {} bits, {} round(s){}",
        report.nodes,
        report.edges,
        report.bandwidth,
        report.rounds.len(),
        if report.classified {
            ", highway/path classified"
        } else {
            ""
        }
    );

    let base: &[&str] = &[
        "round", "msgs", "bits", "idle", "<=B/4", "<=B/2", "<=3B/4", "<=B",
    ];
    let split: &[&str] = &["path", "hwy", "cross"];
    let faults: &[&str] = &["drop", "corr", "crash"];
    let any_faults = report
        .rounds
        .iter()
        .any(|r| r.dropped + r.corrupted_bits + r.crashes > 0);
    let mut cols: Vec<&str> = base.to_vec();
    if report.classified {
        cols.extend_from_slice(split);
    }
    if any_faults {
        cols.extend_from_slice(faults);
    }
    let widths: Vec<usize> = cols.iter().map(|c| c.len().max(7)).collect();
    print_header(&cols, &widths);
    for r in &report.rounds {
        let mut row: Vec<String> = vec![
            r.round.to_string(),
            r.messages.to_string(),
            r.bits.to_string(),
        ];
        row.extend(r.util.iter().map(u64::to_string));
        if report.classified {
            row.extend([
                r.path_bits.to_string(),
                r.highway_bits.to_string(),
                r.cross_bits.to_string(),
            ]);
        }
        if any_faults {
            row.extend([
                r.dropped.to_string(),
                r.corrupted_bits.to_string(),
                r.crashes.to_string(),
            ]);
        }
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        print_row(&refs, &widths);
    }

    println!();
    println!("top {top} hottest edges (by delivered bits):");
    let widths = [8, 10, 12, 10, 12];
    print_header(&["edge", "msgs", "bits", "dropped", "corrupted"], &widths);
    for (edge, totals) in report.hottest_edges(top) {
        print_row(
            &[
                &edge.to_string(),
                &totals.messages.to_string(),
                &totals.bits.to_string(),
                &totals.dropped.to_string(),
                &totals.corrupted_bits.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "totals: {} messages, {} bits, {} dropped, {} bits corrupted",
        report.total_messages(),
        report.total_bits(),
        report.total_dropped(),
        report.total_corrupted_bits()
    );
}
