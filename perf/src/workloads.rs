//! The four workloads. Each is a closed loop driven from this process:
//! the next batch starts only when the previous one has returned and
//! been checked against outputs precomputed during set-up.
//!
//! | workload | one op | one latency sample |
//! |---|---|---|
//! | `campaign_grid` | a grid point | one journaled pass of the grid |
//! | `soak_stream` | a round | one round |
//! | `campaign_journaled` | a grid point | one journaled pass of both grids |
//! | `service_loopback` | a job | submit → last streamed record |

use crate::inputs::{self, Chatter, SOAK_BITS};
use crate::probe;
use crate::service::ServiceBench;
use crate::stats::median;
use crate::trace::Tracer;
use qdc_congest::{
    CongestConfig, NullTelemetry, RunReport, Stepper, StreamReader, StreamRecord, StreamSink,
    StreamTotals,
};
use qdc_harness::{
    run_campaign, run_campaign_journaled, validate_record_line, Aggregate, CampaignRunError,
    CampaignSpec, CancelToken, JournalConfig, JournalOutcome, RunOptions, StreamTelemetry,
    TelemetryMode,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Repeated journaled passes of the 32-point Theorem 3.5 audit grid,
    /// telemetry off, one thread: the network build and round engine.
    CampaignGrid,
    /// The never-quiescing 16-bit gossip on 512 nodes, stepped with a
    /// `StreamSink` writing an archive: the telemetry sink.
    SoakStream,
    /// Repeated journaled passes of a 2048-point chaos ensemble plus the
    /// 32-point Example 1.1 sweep (whose archives are streamed): per-point
    /// harness work (fsync, record JSON, archive staging, dispatch).
    CampaignJournaled,
    /// Two closed-loop HTTP clients against an in-process service:
    /// submit, stream the records, read the status.
    ServiceLoopback,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CampaignGrid,
        Workload::SoakStream,
        Workload::CampaignJournaled,
        Workload::ServiceLoopback,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignGrid => "campaign_grid",
            Workload::SoakStream => "soak_stream",
            Workload::CampaignJournaled => "campaign_journaled",
            Workload::ServiceLoopback => "service_loopback",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One timed stretch of a closed loop: a pass, a chunk of rounds, or
/// (for the service) the whole run.
#[derive(Debug, Default)]
pub struct Sample {
    /// Ops completed in it.
    pub ops: u64,
    /// Its wall time in seconds.
    pub secs: f64,
    /// The latencies of the ops in it, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The host-speed probe run right after it, in milliseconds; `None`
    /// for a stretch reported as plain wall-clock time.
    pub probe_ms: Option<f64>,
}

impl Sample {
    /// The factor that scales this stretch's times to the reference
    /// host speed (see [`probe`]).
    fn scale(&self) -> f64 {
        self.probe_ms.map_or(1.0, probe::scale)
    }

    /// Ops per second at the reference host speed.
    fn rate(&self) -> f64 {
        self.ops as f64 / (self.secs * self.scale())
    }
}

/// What one closed-loop run did.
#[derive(Debug, Default)]
pub struct Batch {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, or produced wrong output.
    pub failed: u64,
    /// The run's timed stretches, in order.
    pub samples: Vec<Sample>,
}

impl Batch {
    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Batch) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
    }

    /// The median of the samples' host-speed scale factors (1 for a
    /// wall-clock workload).
    pub fn host_scale(&self) -> f64 {
        median(&self.samples.iter().map(Sample::scale).collect::<Vec<_>>())
    }

    /// The median of the samples' ops per second at the reference host
    /// speed.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.samples.iter().map(Sample::rate).collect::<Vec<_>>())
    }

    /// Every op latency, in milliseconds at the reference host speed.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .flat_map(|s| s.latencies_ms.iter().map(|l| l * s.scale()))
            .collect()
    }
}

/// A set-up workload, ready to run.
pub trait Bench {
    /// Runs closed-loop batches until `until`, checking every output.
    /// May be called more than once; later calls continue the workload.
    fn run(&mut self, until: Instant, tracer: &mut Tracer) -> Batch;

    /// The end-of-run correctness gate, over everything the runs did
    /// (most workloads check each batch as it returns instead).
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Builds workload `w`'s inputs from `seed`, precomputes the outputs it
/// checks against, and warms it up, under `dir`.
pub fn setup(w: Workload, seed: u64, quick: bool, dir: &Path) -> Result<Box<dyn Bench>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(match w {
        Workload::CampaignGrid => Box::new(CampaignBench::new(
            vec![(inputs::grid_spec(seed), false)],
            dir,
        )?),
        // Only the Example 1.1 sweep streams archives: 2048 archive
        // files per pass turned over so many inodes that, on an ext4
        // virtual disk, passes slowed from 230 to 900 ms within minutes.
        Workload::CampaignJournaled => Box::new(CampaignBench::new(
            vec![
                (inputs::chaos_spec(seed, quick), false),
                (inputs::ex11_spec(), true),
            ],
            dir,
        )?),
        Workload::SoakStream => Box::new(SoakBench::new(seed, dir)?),
        Workload::ServiceLoopback => Box::new(ServiceBench::new(seed, dir)?),
    })
}

/// One campaign of a pass, with the bytes it must journal.
struct Campaign {
    spec: CampaignSpec,
    options: RunOptions,
    config: JournalConfig,
    /// The deterministic journal lines (no `wall_us`), from an
    /// in-memory run during set-up.
    lines: Vec<String>,
    aggregate: Aggregate,
}

impl Campaign {
    fn new(spec: CampaignSpec, stream: bool, dir: &Path, index: usize) -> Result<Campaign, String> {
        let reference = run_campaign(&spec, &RunOptions::default()).map_err(|e| e.to_string())?;
        if reference.aggregate.points_failed > 0 {
            return Err(format!("{}: a reference point failed", spec.name));
        }
        let telemetry = if stream {
            let dir = dir.join(format!("telemetry_{index}"));
            TelemetryMode::Stream(StreamTelemetry::new(dir.to_string_lossy()))
        } else {
            TelemetryMode::Off
        };
        Ok(Campaign {
            options: RunOptions {
                telemetry,
                ..RunOptions::default()
            },
            config: JournalConfig {
                out_path: path_string(&dir.join(format!("journal_{index}.jsonl"))),
                with_wall: true,
                ..JournalConfig::default()
            },
            lines: reference
                .deterministic_jsonl()
                .lines()
                .map(String::from)
                .collect(),
            aggregate: reference.aggregate,
            spec,
        })
    }

    /// Lines of this pass's journal that are missing or wrong (every
    /// line, when the run itself failed).
    fn failures(&self, outcome: Result<JournalOutcome, CampaignRunError>) -> u64 {
        let all = self.lines.len() as u64;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: run failed: {e}", self.spec.name);
                return all;
            }
        };
        if outcome.interrupted || outcome.aggregate != self.aggregate {
            eprintln!("{}: aggregate differs from the reference", self.spec.name);
            return all;
        }
        let text = match std::fs::read_to_string(&self.config.out_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: {e}", self.config.out_path);
                return all;
            }
        };
        let mut got = text.lines();
        let mut failed = 0;
        for want in &self.lines {
            let ok = got.next().is_some_and(|line| {
                validate_record_line(line).is_ok() && strip_wall(line).as_deref() == Some(want)
            });
            if !ok {
                failed += 1;
            }
        }
        if failed > 0 || got.next().is_some() {
            eprintln!("{}: journal differs from the reference", self.spec.name);
            failed = failed.max(1);
        }
        failed
    }
}

/// A record line with its trailing volatile `wall_us` field removed:
/// the deterministic form.
fn strip_wall(line: &str) -> Option<String> {
    let (head, tail) = line.rsplit_once(",\"wall_us\":")?;
    let digits = tail.strip_suffix('}')?;
    digits
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| format!("{head}}}"))
}

fn path_string(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// `campaign_grid` and `campaign_journaled`: passes over a fixed list
/// of campaigns through `run_campaign_journaled`, one thread.
pub struct CampaignBench {
    campaigns: Vec<Campaign>,
    points: u64,
}

impl CampaignBench {
    fn new(specs: Vec<(CampaignSpec, bool)>, dir: &Path) -> Result<CampaignBench, String> {
        let campaigns = specs
            .into_iter()
            .enumerate()
            .map(|(i, (spec, stream))| Campaign::new(spec, stream, dir, i))
            .collect::<Result<Vec<_>, _>>()?;
        let points = campaigns.iter().map(|c| c.lines.len() as u64).sum();
        Ok(CampaignBench { campaigns, points })
    }
}

impl Bench for CampaignBench {
    fn run(&mut self, until: Instant, tracer: &mut Tracer) -> Batch {
        let mut batch = Batch::default();
        while Instant::now() < until {
            let start = Instant::now();
            let outcomes: Vec<_> = tracer.span("perf.pass", |t| {
                self.campaigns
                    .iter()
                    .map(|c| {
                        t.span("harness.run_campaign_journaled", |_| {
                            run_campaign_journaled(
                                &c.spec,
                                &c.options,
                                &c.config,
                                &CancelToken::new(),
                            )
                        })
                    })
                    .collect()
            });
            let secs = start.elapsed().as_secs_f64();
            batch.attempted += self.points;
            batch.samples.push(Sample {
                ops: self.points,
                secs,
                latencies_ms: vec![secs * 1e3],
                probe_ms: Some(probe::run()),
            });
            batch.failed += tracer.span("perf.verify", |_| {
                self.campaigns
                    .iter()
                    .zip(outcomes)
                    .map(|(c, outcome)| c.failures(outcome))
                    .sum::<u64>()
            });
        }
        batch
    }
}

/// Rounds stepped (null sink) before the archive opens.
const SOAK_WARMUP_ROUNDS: usize = 1000;
/// Rounds per throughput sample.
const SOAK_CHUNK_ROUNDS: usize = 250;
/// Sketch capacity of the soak archive.
const SOAK_TOP_K: usize = 16;

/// `soak_stream`: one long stepped gossip whose every round streams into
/// a `qdc-telemetry-stream/v1` archive.
pub struct SoakBench {
    stepper: Stepper<'static, Chatter>,
    sink: StreamSink<std::fs::File>,
    archive: PathBuf,
    /// The stepper's accounting when the archive opened.
    base: RunReport,
}

impl SoakBench {
    fn new(seed: u64, dir: &Path) -> Result<SoakBench, String> {
        // The stepper borrows its graph for as long as the workload
        // lives; leaking it (a few hundred KB per set-up) avoids a
        // self-referential struct.
        let graph = Box::leak(Box::new(inputs::soak_graph(seed)));
        let config = CongestConfig::classical(SOAK_BITS);
        let mut warmup = Stepper::new(graph, config, Chatter::new);
        for _ in 0..SOAK_WARMUP_ROUNDS {
            warmup.step_observed(&mut NullTelemetry);
        }
        // An archive starts at round 1, so the measured run is a fresh one.
        let stepper = Stepper::new(graph, config, Chatter::new);
        let archive = dir.join("soak.telemetry.jsonl");
        let file =
            std::fs::File::create(&archive).map_err(|e| format!("{}: {e}", archive.display()))?;
        let sink = StreamSink::new(
            file,
            graph.node_count(),
            graph.edge_count(),
            SOAK_BITS,
            SOAK_TOP_K,
        );
        Ok(SoakBench {
            base: stepper.report(),
            stepper,
            sink,
            archive,
        })
    }
}

impl Bench for SoakBench {
    fn run(&mut self, until: Instant, tracer: &mut Tracer) -> Batch {
        let mut batch = Batch::default();
        while Instant::now() < until {
            let mut latencies_ms = Vec::with_capacity(SOAK_CHUNK_ROUNDS);
            let start = Instant::now();
            for _ in 0..SOAK_CHUNK_ROUNDS {
                let t = Instant::now();
                tracer.span("congest.step_observed", |_| {
                    self.stepper.step_observed(&mut self.sink)
                });
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            batch.samples.push(Sample {
                ops: SOAK_CHUNK_ROUNDS as u64,
                secs: start.elapsed().as_secs_f64(),
                latencies_ms,
                probe_ms: Some(probe::run()),
            });
            batch.attempted += SOAK_CHUNK_ROUNDS as u64;
        }
        batch
    }

    /// Re-folds the archive with `StreamReader` and checks the result
    /// against the footer, the sink's own aggregate and the stepper's
    /// report.
    fn finish(self: Box<Self>) -> Result<(), String> {
        let SoakBench {
            stepper,
            sink,
            archive,
            base,
        } = *self;
        let agg = sink
            .finish()
            .map_err(|e| format!("archive write failed: {e}"))?;
        let file =
            std::fs::File::open(&archive).map_err(|e| format!("{}: {e}", archive.display()))?;
        let mut reader = StreamReader::new(std::io::BufReader::new(file));
        let mut folded = StreamTotals::default();
        let mut footer = None;
        while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
            match record {
                StreamRecord::Header(h) if h != agg.header => {
                    return Err("archive header differs from the sink's".into())
                }
                StreamRecord::Header(_) => {}
                StreamRecord::Round(r) => folded.absorb(&r),
                StreamRecord::Footer(f) => footer = Some(f),
            }
        }
        let footer = footer.ok_or("archive has no footer")?;
        let report = stepper.report();
        let stepped = (
            (report.rounds - base.rounds) as u64,
            report.messages_sent - base.messages_sent,
            report.bits_sent - base.bits_sent,
        );
        if folded != footer.totals || *footer != agg {
            return Err("archive re-fold differs from its footer".into());
        }
        if (folded.rounds, folded.messages, folded.bits) != stepped {
            return Err(format!(
                "archive totals {:?} differ from the stepper's {stepped:?}",
                (folded.rounds, folded.messages, folded.bits)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_wall_recovers_the_deterministic_line() {
        assert_eq!(
            strip_wall("{\"a\":1,\"wall_us\":123}").as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(strip_wall("{\"a\":1}"), None);
        assert_eq!(strip_wall("{\"a\":1,\"wall_us\":x}"), None);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
