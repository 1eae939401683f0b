//! Long-horizon telemetry soak: drive a never-quiescing gossip for a
//! chosen number of rounds and measure what the telemetry sink costs.
//!
//! ```text
//! stream_soak [--rounds N] [--nodes N] [--seed S] [--sink stream|exact|null]
//!             [--out PATH] [--top-k K]
//! ```
//!
//! Every node broadcasts a fresh 16-bit word each round and never
//! terminates, so the run length is exactly `--rounds` (default 1000)
//! — the workload that separates an O(1)-memory sink from an O(rounds)
//! one. Three sinks:
//!
//! * `stream` (default) — [`StreamSink`] writing a
//!   `qdc-telemetry-stream/v1` archive to `--out` incrementally; peak
//!   memory is independent of `--rounds`;
//! * `exact` — [`RoundProfiler`], the buffered reference: the whole
//!   per-round series is held in memory and serialized to `--out` at
//!   the end;
//! * `null` — [`NullTelemetry`], the zero-cost baseline.
//!
//! The `totals:` line is printed identically for every sink, so two
//! runs can be diffed to prove the streaming counters match the exact
//! ones; `peak_rss_kb` (Linux `VmHWM`, 0 elsewhere) is the measured
//! high-water mark the EXPERIMENTS §STREAM table records. CI's
//! telemetry-stream job runs the `stream` sink under a `ulimit -v`
//! address-space ceiling that the buffered profiler's archive alone
//! would overrun.
//!
//! Exit codes: `0` success, `2` usage, `4` I/O failure.

use qdc_bench::cli;
use qdc_congest::{
    CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, NullTelemetry, Outbox, RoundProfiler,
    Stepper, StreamSink, Telemetry,
};
use qdc_graph::generate;
use std::io::Write as _;
use std::num::NonZeroUsize;

/// Gossip that never terminates: a fresh 16-bit broadcast every round.
struct Chatter {
    id: u64,
    beat: u64,
}

impl NodeAlgorithm for Chatter {
    fn on_start(&mut self, _: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(self.id & 0xffff, 16));
    }
    fn on_round(&mut self, _: &NodeInfo, _: &Inbox, out: &mut Outbox) {
        self.beat += 1;
        out.broadcast(Message::from_uint((self.id + self.beat) & 0xffff, 16));
    }
    fn is_terminated(&self) -> bool {
        false
    }
}

struct Args {
    rounds: usize,
    nodes: usize,
    seed: u64,
    sink: String,
    out: Option<String>,
    top_k: usize,
}

fn usage() -> ! {
    cli::fail(
        2,
        "usage: stream_soak [--rounds N] [--nodes N] [--seed S] \
         [--sink stream|exact|null] [--out PATH] [--top-k K]",
    )
}

fn parse_args() -> Args {
    let mut args = Args {
        rounds: 1000,
        nodes: 32,
        seed: 7,
        sink: "stream".to_string(),
        out: None,
        top_k: 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rounds" => args.rounds = cli::value::<NonZeroUsize>(&mut it, usage).get(),
            "--nodes" => match cli::value(&mut it, usage) {
                n if n >= 2 => args.nodes = n,
                _ => usage(),
            },
            "--seed" => args.seed = cli::value(&mut it, usage),
            "--sink" => match cli::value::<String>(&mut it, usage) {
                s if ["stream", "exact", "null"].contains(&s.as_str()) => args.sink = s,
                _ => usage(),
            },
            "--out" => args.out = Some(cli::value(&mut it, usage)),
            "--top-k" => args.top_k = cli::value::<NonZeroUsize>(&mut it, usage).get(),
            _ => usage(),
        }
    }
    args
}

fn drive<T: Telemetry>(stepper: &mut Stepper<'_, Chatter>, sink: &mut T, rounds: usize) {
    for _ in 0..rounds {
        stepper.step_observed(sink);
    }
}

/// Peak resident set in KiB (Linux `VmHWM`); 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn die_io(e: &dyn std::fmt::Display) -> ! {
    cli::fail(4, format!("stream_soak: {e}"))
}

fn main() {
    let args = parse_args();
    const B: usize = 16;
    let g = generate::random_connected(args.nodes, args.nodes / 4, args.seed);
    let make = |info: &NodeInfo| Chatter {
        id: info.id.0 as u64,
        beat: 0,
    };
    let mut stepper = Stepper::new(&g, CongestConfig::classical(B), make);

    println!(
        "stream_soak: nodes={} edges={} B={B} rounds={} sink={}",
        g.node_count(),
        g.edge_count(),
        args.rounds,
        args.sink
    );

    // (rounds, messages, bits, dropped) from the sink's own accounting —
    // printed identically for every sink so runs can be diffed.
    let (rounds, messages, bits, dropped) = match args.sink.as_str() {
        "stream" => {
            let path = args.out.as_deref().unwrap_or("soak.telemetry.jsonl");
            let file = std::fs::File::create(path).unwrap_or_else(|e| die_io(&e));
            let mut sink = StreamSink::new(file, g.node_count(), g.edge_count(), B, args.top_k);
            drive(&mut stepper, &mut sink, args.rounds);
            let agg = sink.finish().unwrap_or_else(|e| die_io(&e));
            let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!("archive: {path} ({size} bytes)");
            (
                agg.totals.rounds,
                agg.totals.messages,
                agg.totals.bits,
                agg.totals.dropped,
            )
        }
        "exact" => {
            let mut sink = RoundProfiler::new(g.node_count(), g.edge_count(), B);
            drive(&mut stepper, &mut sink, args.rounds);
            let profile = sink.finish();
            if let Some(path) = &args.out {
                let mut file = std::fs::File::create(path).unwrap_or_else(|e| die_io(&e));
                file.write_all(profile.to_jsonl(false).as_bytes())
                    .unwrap_or_else(|e| die_io(&e));
                let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                println!("archive: {path} ({size} bytes)");
            }
            let totals = profile.totals();
            (totals.rounds, totals.messages, totals.bits, totals.dropped)
        }
        _ => {
            let mut sink = NullTelemetry;
            drive(&mut stepper, &mut sink, args.rounds);
            let report = stepper.report();
            (
                report.rounds as u64,
                report.messages_sent,
                report.bits_sent,
                0,
            )
        }
    };

    println!("totals: rounds={rounds} messages={messages} bits={bits} dropped={dropped}");
    println!("peak_rss_kb={}", peak_rss_kb());
}
