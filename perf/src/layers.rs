//! The layer suite: per-layer numbers from spans the benchmark records
//! around direct calls into each layer's public functions, on inputs
//! derived from the workload seed. Every traced run executes it, so
//! every workload reports every per-layer metric.
//!
//! Which end-to-end number each layer should move, and on which
//! workload, is tabulated in `README.md`.

use crate::alloc;
use crate::inputs::{self, Chatter, SOAK_BITS};
use crate::report::Metric;
use crate::service::{self, Loopback};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use qdc_congest::{
    BitString, CongestConfig, NullTelemetry, RoundProfiler, RunOptions as SimOptions, Stepper,
    StreamSink, Telemetry,
};
use qdc_graph::generate;
use qdc_harness::point::execute_point_sharded;
use qdc_harness::{
    execute_point, parse_spec, record_json, run_campaign_journaled, spec_to_json,
    validate_record_line, CancelToken, Journal, JournalConfig, PointRecord, PointSpec, RunOptions,
    StreamTelemetry, TelemetryMode,
};
use qdc_service::{QuotaConfig, ServiceCore};
use qdc_simthm::SimulationNetwork;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rounds 1 and 2 set up per-node state; counters start at round 3.
const COUNTED_FROM_ROUND: usize = 3;
/// Rounds each counter covers: the same in `--quick` and full runs.
const COUNTED_ROUNDS: usize = 200;

/// Loop sizes; `--quick` shrinks the timing loops, never the counters.
struct Sizes {
    /// Batches per codec measurement.
    codec_batches: usize,
    /// Soak rounds timed per sink (at least [`COUNTED_ROUNDS`]).
    soak_rounds: usize,
    /// Journal appends timed.
    appends: usize,
    /// Repetitions of each JSON batch and runner pass.
    reps: usize,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                codec_batches: 5,
                soak_rounds: COUNTED_ROUNDS,
                appends: 128,
                reps: 3,
            }
        } else {
            Sizes {
                codec_batches: 20,
                soak_rounds: 1000,
                appends: 1024,
                reps: 8,
            }
        }
    }
}

/// Runs the whole suite under `tracer` (which must be enabled), with
/// scratch files under `dir`.
pub fn suite(
    seed: u64,
    quick: bool,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    assert!(
        tracer.enabled(),
        "the layer suite reads its numbers from spans"
    );
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let sizes = Sizes::new(quick);
    let mut out = Vec::new();
    codec(seed, &sizes, tracer, &mut out)?;
    engine_and_sinks(seed, &sizes, dir, tracer, &mut out)?;
    simthm_points(seed, tracer, &mut out)?;
    let records = harness_points(seed, dir, tracer, &mut out)?;
    json_and_journal(seed, &sizes, dir, &records, tracer, &mut out)?;
    runner(seed, &sizes, dir, tracer, &mut out)?;
    service_layers(seed, &sizes, dir, tracer, &mut out)?;
    Ok(out)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn io_err(what: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", what.display())
}

/// `BitString::push_uint` / `BitReader::read_uint` at the soak payload
/// width (16) and the grid's bandwidth (32).
fn codec(
    seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const WORDS: usize = 1000;
    const REPS: usize = 10;
    for (width, encode, decode) in [
        (16, "bits.encode_ns_16", "bits.decode_ns_16"),
        (32, "bits.encode_ns_32", "bits.decode_ns_32"),
    ] {
        let (push, read) = match width {
            16 => (
                "congest.BitString::push_uint/16",
                "congest.BitReader::read_uint/16",
            ),
            _ => (
                "congest.BitString::push_uint/32",
                "congest.BitReader::read_uint/32",
            ),
        };
        let values: Vec<u64> = (0..WORDS as u64)
            .map(|i| inputs::derive(seed, 50, i) & ((1u64 << width) - 1))
            .collect();
        // Cleared, not rebuilt, between repetitions: the codec at
        // steady capacity, without the allocator.
        let mut encoded = BitString::new();
        for _ in 0..sizes.codec_batches {
            tracer.span(push, |_| {
                for _ in 0..REPS {
                    encoded.clear();
                    for &v in &values {
                        encoded.push_uint(black_box(v), width);
                    }
                    black_box(&encoded);
                }
            });
        }
        let mut decoded = Vec::with_capacity(WORDS);
        for _ in 0..sizes.codec_batches {
            decoded = tracer.span(read, |_| {
                let mut words = Vec::with_capacity(WORDS);
                for _ in 0..REPS {
                    words.clear();
                    let mut r = black_box(&encoded).reader();
                    for _ in 0..WORDS {
                        words.push(r.read_uint(width).unwrap_or(u64::MAX));
                    }
                }
                words
            });
        }
        if decoded != values {
            return Err(format!("{width}-bit codec does not round-trip"));
        }
        let per_op = (WORDS * REPS) as f64;
        let n = sizes.codec_batches;
        out.push(Metric::new(
            encode,
            "ns",
            median(&tracer.durations_ns(push)) / per_op,
            n,
        ));
        out.push(Metric::new(
            decode,
            "ns",
            median(&tracer.durations_ns(read)) / per_op,
            n,
        ));
    }
    Ok(())
}

/// A soak stepper observed by one sink, with the allocation calls its
/// counted rounds made.
struct Observed<'g, T> {
    stepper: Stepper<'g, Chatter>,
    sink: T,
    span: &'static str,
    allocs: u64,
}

impl<'g, T: Telemetry> Observed<'g, T> {
    /// A fresh run of the soak gossip on `graph`, stepped past the
    /// rounds that set up per-node state.
    fn new(graph: &'g qdc_graph::Graph, mut sink: T, span: &'static str) -> Self {
        let mut stepper = Stepper::new(graph, CongestConfig::classical(SOAK_BITS), Chatter::new);
        for _ in 1..COUNTED_FROM_ROUND {
            stepper.step_observed(&mut sink);
        }
        Observed {
            stepper,
            sink,
            span,
            allocs: 0,
        }
    }

    /// One traced round, its allocation calls added when `counted`.
    fn step(&mut self, tracer: &mut Tracer, counted: bool) {
        let before = alloc::calls();
        tracer.span(self.span, |_| self.stepper.step_observed(&mut self.sink));
        if counted {
            self.allocs += alloc::calls() - before;
        }
    }

    fn traffic(&self) -> (usize, u64, u64) {
        let r = self.stepper.report();
        (r.rounds, r.messages_sent, r.bits_sent)
    }
}

/// The round engine under the null, streaming and buffered sinks, on
/// the soak network. The three runs advance in lockstep, one round
/// each in turn, so that all three meet the same machine conditions.
fn engine_and_sinks(
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const NULL: &str = "congest.step_observed/null";
    const STREAM: &str = "congest.step_observed/stream";
    const PROFILER: &str = "congest.step_observed/profiler";
    let graph = inputs::soak_graph(seed);
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let rounds = sizes.soak_rounds;
    let path = dir.join("layers.telemetry.jsonl");
    let file = std::fs::File::create(&path).map_err(io_err(&path))?;

    let mut null = Observed::new(&graph, NullTelemetry, NULL);
    let mut stream = Observed::new(
        &graph,
        StreamSink::new(file, nodes, edges, SOAK_BITS, 16),
        STREAM,
    );
    let mut profiled = Observed::new(
        &graph,
        RoundProfiler::new(nodes, edges, SOAK_BITS),
        PROFILER,
    );
    tracer.reserve(3 * rounds);
    for i in 0..rounds {
        let counted = i < COUNTED_ROUNDS;
        null.step(tracer, counted);
        stream.step(tracer, counted);
        profiled.step(tracer, counted);
    }
    if stream.traffic() != null.traffic() || profiled.traffic() != null.traffic() {
        return Err("soak traffic differs between sinks".into());
    }
    stream.sink.finish().map_err(io_err(&path))?;
    // Round line r is line r of the archive (line 0 is the header).
    let archive = std::fs::read_to_string(&path).map_err(io_err(&path))?;
    let counted_bytes: usize = archive
        .split_inclusive('\n')
        .skip(COUNTED_FROM_ROUND)
        .take(COUNTED_ROUNDS)
        .map(str::len)
        .sum();

    let (null_allocs, stream_allocs) = (null.allocs, stream.allocs);
    let null = tracer.durations_ns(NULL);
    let null_p50 = median(&null);
    let per_round = COUNTED_ROUNDS as f64;
    out.push(Metric::new("sim.round_us_p50", "us", us(null_p50), rounds));
    out.push(Metric::new(
        "sim.round_us_tail",
        "us",
        us(tail(&null).value),
        rounds,
    ));
    out.push(Metric::new(
        "sim.allocs_per_round",
        "count",
        null_allocs as f64 / per_round,
        COUNTED_ROUNDS,
    ));
    out.push(Metric::new(
        "stream.sink_us_per_round",
        "us",
        us(median(&tracer.durations_ns(STREAM)) - null_p50),
        rounds,
    ));
    out.push(Metric::new(
        "stream.bytes_per_round",
        "bytes",
        counted_bytes as f64 / per_round,
        COUNTED_ROUNDS,
    ));
    out.push(Metric::new(
        "stream.allocs_per_round",
        "count",
        stream_allocs as f64 / per_round,
        COUNTED_ROUNDS,
    ));
    out.push(Metric::new(
        "profiler.sink_us_per_round",
        "us",
        us(median(&tracer.durations_ns(PROFILER)) - null_p50),
        rounds,
    ));
    Ok(())
}

/// One seeded `simthm_grid` pass, point by point: the network build on
/// its own, then the whole point through `execute_point`.
fn simthm_points(seed: u64, tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    const BUILD: &str = "simthm.SimulationNetwork::build+embed_matchings";
    const POINT: &str = "harness.execute_point/simthm";
    let points = inputs::grid_spec(seed).points();
    tracer.reserve(2 * points.len());
    let (mut allocs, mut deliveries, mut bits) = (0, 0, 0);
    for (i, point) in points.iter().enumerate() {
        let PointSpec::SimThm(p) = point else {
            return Err("the grid holds simthm points only".into());
        };
        tracer.span(BUILD, |_| {
            // The point adapter's own rule: bump Γ when Γ + k is odd.
            let mut net = SimulationNetwork::build(p.gamma, p.l);
            if net.track_count() % 2 == 1 {
                net = SimulationNetwork::build(p.gamma + 1, p.l);
            }
            let (carol, david) = generate::hamiltonian_matching_pair(net.track_count());
            black_box(net.embed_matchings(&carol, &david));
        });
        let a0 = alloc::calls();
        let (record, _) = tracer
            .span(POINT, |_| execute_point(i, point))
            .map_err(|f| f.error)?;
        allocs += alloc::calls() - a0;
        deliveries += record.metrics.messages_sent;
        bits += record.metrics.bits_sent;
    }
    // The Theorem 3.5 audit grid's traffic, whatever the Γ order.
    if (deliveries, bits) != (2_883_280, 34_453_712) {
        return Err(format!(
            "simthm_grid pass delivered {deliveries} messages / {bits} bits"
        ));
    }
    let build = tracer.durations_ns(BUILD);
    let run = tracer.durations_ns(POINT);
    let n = points.len();
    let (build_ns, run_ns): (f64, f64) = (build.iter().sum(), run.iter().sum());
    out.push(Metric::new("sim.deliveries", "count", deliveries as f64, 1));
    out.push(Metric::new("sim.bits", "count", bits as f64, 1));
    out.push(Metric::new("simthm.build_ms", "ms", ms(build_ns), n));
    out.push(Metric::new("simthm.run_ms", "ms", ms(run_ns - build_ns), n));
    out.push(Metric::new("point.ms_p50", "ms", ms(median(&run)), n));
    out.push(Metric::new("point.ms_tail", "ms", ms(tail(&run).value), n));
    out.push(Metric::new(
        "point.allocs",
        "count",
        allocs as f64 / n as f64,
        n,
    ));
    Ok(())
}

/// Chaos and Example 1.1 points through `execute_point_sharded`, chaos
/// with telemetry off and streamed. Returns the chaos records.
fn harness_points(
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<Vec<PointRecord>, String> {
    const OFF: &str = "harness.execute_point_sharded/chaos";
    const STREAMED: &str = "harness.execute_point_sharded/chaos+stream";
    const CLASSICAL: &str = "harness.execute_point_sharded/ex11-classical";
    const QUANTUM: &str = "harness.execute_point_sharded/ex11-quantum";
    let chaos = inputs::chaos_spec(seed, true);
    let stream = TelemetryMode::Stream(StreamTelemetry::new(
        dir.join("point_telemetry").to_string_lossy(),
    ));
    let sim = SimOptions::default();
    let mut records = Vec::new();
    for (i, point) in chaos.points().iter().enumerate() {
        let (record, _, _) = tracer
            .span(OFF, |_| {
                execute_point_sharded(i, point, &TelemetryMode::Off, sim)
            })
            .map_err(|f| f.error)?;
        tracer
            .span(STREAMED, |_| execute_point_sharded(i, point, &stream, sim))
            .map_err(|f| f.error)?;
        records.push(record);
    }
    for (i, point) in inputs::ex11_spec().points().iter().enumerate() {
        let name = match point {
            PointSpec::Ex11 { quantum: true, .. } => QUANTUM,
            _ => CLASSICAL,
        };
        tracer
            .span(name, |_| {
                execute_point_sharded(i, point, &TelemetryMode::Off, sim)
            })
            .map_err(|f| f.error)?;
    }
    let off = tracer.durations_ns(OFF);
    let overhead: Vec<f64> = tracer
        .durations_ns(STREAMED)
        .iter()
        .zip(&off)
        .map(|(s, o)| s - o)
        .collect();
    for (metric, name) in [
        ("chaos.point_ms_p50", OFF),
        ("ex11.classical_point_ms_p50", CLASSICAL),
        ("ex11.quantum_point_ms_p50", QUANTUM),
    ] {
        let d = tracer.durations_ns(name);
        out.push(Metric::new(metric, "ms", ms(median(&d)), d.len()));
    }
    out.push(Metric::new(
        "telemetry.point_overhead_us",
        "us",
        us(median(&overhead)),
        overhead.len(),
    ));
    Ok(records)
}

/// Write calls and bytes written by this process so far (Linux
/// `/proc/self/io`, which also counts threads that have exited).
fn io_counts() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string("/proc/self/io")
        .map_err(|e| format!("/proc/self/io: {e} (the suite needs Linux)"))?;
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/io has no {key}"))
    };
    Ok((field("syscw:")?, field("wchar:")?))
}

/// Record encode/validate and spec parsing, then durable journal
/// appends of the chaos record lines.
fn json_and_journal(
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    records: &[PointRecord],
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const ENCODE: &str = "harness.record_json";
    const VALIDATE: &str = "harness.validate_record_line";
    const PARSE: &str = "harness.parse_spec";
    const APPEND: &str = "harness.Journal::append_line";
    const BATCH: usize = 20;
    let chaos = inputs::chaos_spec(seed, true);
    let pool = inputs::service_pool(seed);
    let docs: Vec<String> = pool.iter().map(|s| spec_to_json(s).to_json()).collect();
    let mut lines = Vec::new();
    for _ in 0..sizes.reps {
        lines = tracer.span(ENCODE, |_| {
            let mut v = Vec::new();
            for _ in 0..BATCH {
                v = records
                    .iter()
                    .map(|r| record_json(&chaos.name, r, false))
                    .collect();
            }
            v
        });
        tracer.span(VALIDATE, |_| {
            (0..BATCH).try_for_each(|_| lines.iter().try_for_each(|l| validate_record_line(l)))
        })?;
        let parsed = tracer.span(PARSE, |_| {
            let mut v = Vec::new();
            for _ in 0..BATCH {
                v = docs
                    .iter()
                    .map(|d| parse_spec(d))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            Ok::<_, String>(v)
        })?;
        if parsed != pool {
            return Err("parse_spec does not round-trip the pool".into());
        }
    }
    let per = |n: usize| (n * BATCH) as f64;
    out.push(Metric::new(
        "json.record_encode_us",
        "us",
        us(median(&tracer.durations_ns(ENCODE)) / per(lines.len())),
        sizes.reps,
    ));
    out.push(Metric::new(
        "json.record_validate_us",
        "us",
        us(median(&tracer.durations_ns(VALIDATE)) / per(lines.len())),
        sizes.reps,
    ));
    out.push(Metric::new(
        "json.spec_parse_us",
        "us",
        us(median(&tracer.durations_ns(PARSE)) / per(docs.len())),
        sizes.reps,
    ));

    let path = dir.join("journal_probe.jsonl");
    let mut journal = Journal::create(&path.to_string_lossy()).map_err(io_err(&path))?;
    for k in 0..sizes.appends {
        tracer
            .span(APPEND, |_| journal.append_line(&lines[k % lines.len()]))
            .map_err(io_err(&path))?;
    }
    let appends = tracer.durations_ns(APPEND);
    out.push(Metric::new(
        "journal.append_us_p50",
        "us",
        us(median(&appends)),
        appends.len(),
    ));
    out.push(Metric::new(
        "journal.append_us_tail",
        "us",
        us(tail(&appends).value),
        appends.len(),
    ));

    // The I/O a journaled, streamed pass does per point: one journal
    // line (then `sync_data`) plus one staged archive per point.
    let (w0, b0) = io_counts()?;
    run_campaign_journaled(
        &chaos,
        &RunOptions {
            telemetry: TelemetryMode::Stream(StreamTelemetry::new(
                dir.join("io_telemetry").to_string_lossy(),
            )),
            ..RunOptions::default()
        },
        &JournalConfig {
            out_path: dir.join("io_journal.jsonl").to_string_lossy().into_owned(),
            ..JournalConfig::default()
        },
        &CancelToken::new(),
    )
    .map_err(|e| e.to_string())?;
    let (w1, b1) = io_counts()?;
    let points = chaos.point_count() as f64;
    out.push(Metric::new(
        "journal.writes_per_point",
        "count",
        (w1 - w0) as f64 / points,
        1,
    ));
    out.push(Metric::new(
        "journal.bytes_per_point",
        "bytes",
        (b1 - b0) as f64 / points,
        1,
    ));
    Ok(())
}

/// Harness overhead of `run_campaign_journaled`: its untraced wall time
/// against the traced sum of the calls it is made of (execute, encode,
/// append), on the 128-point chaos grid. The share is negative when the
/// runner's committer thread hides appends behind the next execution.
fn runner(
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const PASS: &str = "perf.runner_pass";
    let chaos = inputs::chaos_spec(seed, true);
    let points = chaos.points();
    let path = dir.join("runner.jsonl");
    let out_path = path.to_string_lossy().into_owned();
    let mut wall = Vec::new();
    for _ in 0..sizes.reps {
        let start = Instant::now();
        run_campaign_journaled(
            &chaos,
            &RunOptions::default(),
            &JournalConfig {
                out_path: out_path.clone(),
                ..JournalConfig::default()
            },
            &CancelToken::new(),
        )
        .map_err(|e| e.to_string())?;
        wall.push(start.elapsed().as_nanos() as f64);
        tracer.span(PASS, |t| {
            let mut journal = Journal::create(&out_path).map_err(io_err(&path))?;
            for (i, point) in points.iter().enumerate() {
                let (record, _, _) = t
                    .span("harness.execute_point_sharded", |_| {
                        execute_point_sharded(i, point, &TelemetryMode::Off, SimOptions::default())
                    })
                    .map_err(|f| f.error)?;
                let line = t.span("harness.record_json", |_| {
                    record_json(&chaos.name, &record, false)
                });
                t.span("harness.Journal::append_line", |_| {
                    journal.append_line(&line)
                })
                .map_err(io_err(&path))?;
            }
            Ok::<_, String>(())
        })?;
    }
    let wall = median(&wall);
    let parts = median(&tracer.covered_ns(PASS));
    out.push(Metric::new(
        "runner.overhead_share",
        "ratio",
        (wall - parts) / wall,
        sizes.reps,
    ));
    Ok(())
}

/// The service layers: admission in-process, one job's campaign run
/// in-process, and full HTTP cycles against a loopback service.
fn service_layers(
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const ADMIT: &str = "service.ServiceCore::submit";
    const JOB: &str = "harness.run_campaign_journaled/job";
    let pool = inputs::service_pool(seed);
    let clients: Vec<String> = (0..pool.len()).map(|j| format!("perf-{j}")).collect();
    for _ in 0..sizes.reps {
        let specs = pool.clone();
        tracer.span(ADMIT, |_| {
            let mut core = ServiceCore::new(QuotaConfig::default());
            for (client, spec) in clients.iter().zip(specs) {
                core.submit(client, spec, false)
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(())
        })?;
    }
    let (bodies, expected) = service::pool(seed)?;
    for (j, spec) in pool.iter().enumerate() {
        let path = dir.join(format!("job_{j}.jsonl"));
        let config = JournalConfig {
            out_path: path.to_string_lossy().into_owned(),
            ..JournalConfig::default()
        };
        tracer
            .span(JOB, |_| {
                run_campaign_journaled(spec, &RunOptions::default(), &config, &CancelToken::new())
            })
            .map_err(|e| e.to_string())?;
        if std::fs::read_to_string(&path).map_err(io_err(&path))? != expected[j] {
            return Err(format!("in-process job {j} differs from its reference"));
        }
    }
    let server = Loopback::start(&dir.join("service"))?;
    let mut cycles = Vec::new();
    for j in 0..pool.len() {
        cycles.push(service::cycle(
            server.addr(),
            "perf-probe",
            &bodies[j],
            &expected[j],
            tracer,
        )?);
    }
    drop(server);

    let admit_us = us(median(&tracer.durations_ns(ADMIT))) / pool.len() as f64;
    let parse_us = out
        .iter()
        .find(|m| m.name == "json.spec_parse_us")
        .map_or(0.0, |m| m.value);
    let job_ms = ms(median(&tracer.durations_ns(JOB)));
    let ack = median(&cycles.iter().map(|c| c.ack_ms).collect::<Vec<_>>());
    let done = median(&cycles.iter().map(|c| c.done_ms).collect::<Vec<_>>());
    let status = median(&cycles.iter().map(|c| c.status_ms).collect::<Vec<_>>());
    let n = cycles.len();
    out.push(Metric::new("service.admit_us", "us", admit_us, sizes.reps));
    out.push(Metric::new("service.job_run_ms", "ms", job_ms, pool.len()));
    out.push(Metric::new("service.ack_ms_p50", "ms", ack, n));
    out.push(Metric::new(
        "service.ack_wait_ms",
        "ms",
        ack - (admit_us + parse_us) / 1e3,
        n,
    ));
    out.push(Metric::new("service.done_ms_p50", "ms", done, n));
    out.push(Metric::new(
        "service.records_wait_ms",
        "ms",
        done - ack - job_ms,
        n,
    ));
    out.push(Metric::new("service.status_ms_p50", "ms", status, n));
    Ok(())
}
