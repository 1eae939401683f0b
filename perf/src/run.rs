//! One run of one workload: set-up (several times, timed), the
//! measured closed loop, and the correctness gate — untraced for the
//! end-to-end metrics, or traced for the per-layer ones.

use crate::layers;
use crate::probe;
use crate::report::{Metric, WorkloadResult};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The shortest measured loop a traced run gives each half, however
/// long its layer suite took.
const MIN_TRACED_LOOP: Duration = Duration::from_millis(500);

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) instead of untraced (end-to-end).
    pub trace: bool,
    /// Reduced layer-suite and chaos sizes.
    pub quick: bool,
    /// Where scratch files, spans and the result document go.
    pub out: PathBuf,
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e} (peak RSS needs Linux)"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

/// Runs `o` in a scratch directory under `o.out`, removed afterwards.
pub fn measure(o: &Options) -> Result<WorkloadResult, String> {
    let work = o
        .out
        .join(format!("{}-{}", o.workload.name(), std::process::id()));
    let result = measure_in(o, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure_in(o: &Options, work: &Path) -> Result<WorkloadResult, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        drop(bench.take());
        let dir = work.join(format!("setup_{rep}"));
        let start = Instant::now();
        bench = Some(workloads::setup(o.workload, o.seed, o.quick, &dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPS is positive");
    let seconds = Duration::from_secs(o.seconds);

    let (mut batch, metrics) = if o.trace {
        let mut tracer = Tracer::new(true, Instant::now(), 1);
        let start = Instant::now();
        let mut metrics = layers::suite(o.seed, o.quick, &work.join("layers"), &mut tracer)?;
        let half = (seconds.saturating_sub(start.elapsed()) / 2).max(MIN_TRACED_LOOP);
        let mut batch = bench.run(Instant::now() + half, &mut Tracer::off());
        let traced = bench.run(Instant::now() + half, &mut tracer);
        let latencies = batch.latencies_ms();
        metrics.push(Metric::new(
            "loop.latency_ms_tail",
            "ms",
            tail(&latencies).value,
            latencies.len(),
        ));
        metrics.push(Metric::new(
            "trace.slowdown",
            "ratio",
            batch.ops_per_s() / traced.ops_per_s(),
            batch.samples.len().min(traced.samples.len()),
        ));
        batch.absorb(traced);
        let spans = o.out.join(format!("spans-{}.jsonl", o.workload.name()));
        std::fs::write(&spans, tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        print_span_table(&tracer);
        (batch, metrics)
    } else {
        let batch = bench.run(Instant::now() + seconds, &mut Tracer::off());
        let latencies = batch.latencies_ms();
        // Set-up ran seconds before the loop, on a host whose speed
        // drifts over minutes: the loop's probes scale it too.
        let metrics = vec![
            Metric::new(
                "setup_s",
                "s",
                median(&setup_s) * batch.host_scale(),
                SETUP_REPS,
            ),
            Metric::new("ops_per_s", "1/s", batch.ops_per_s(), batch.samples.len()),
            Metric::new("latency_ms_p50", "ms", median(&latencies), latencies.len()),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb()?, 1),
        ];
        let lat = tail(&latencies);
        println!(
            "# {}: latency tail p{:.2} = {} ms of {} samples",
            o.workload.name(),
            lat.percentile,
            lat.value,
            latencies.len()
        );
        let probes: Vec<f64> = batch.samples.iter().filter_map(|s| s.probe_ms).collect();
        if !probes.is_empty() {
            let unscaled: Vec<f64> = batch
                .samples
                .iter()
                .map(|s| s.ops as f64 / s.secs)
                .collect();
            println!(
                "# {}: unscaled {} ops/s; probe median {} ms (reference {} ms)",
                o.workload.name(),
                median(&unscaled),
                median(&probes),
                probe::REFERENCE_MS
            );
        }
        (batch, metrics)
    };

    if let Err(e) = bench.finish() {
        eprintln!("{}: {e}", o.workload.name());
        batch.failed = batch.attempted;
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured no value ({})", m.name, m.value));
    }
    Ok(WorkloadResult {
        workload: o.workload.name().to_string(),
        trace: o.trace,
        correct: batch.failed == 0 && batch.attempted > 0,
        attempted: batch.attempted.max(1),
        failed: batch.failed,
        metrics,
    })
}

/// Where the traced run's time went, per span name: count, total and
/// self milliseconds.
fn print_span_table(tracer: &Tracer) {
    println!("# span                                              count    total_ms     self_ms");
    for (name, (count, total, own)) in tracer.by_name() {
        println!(
            "# {name:<48} {count:>7} {:>11.3} {:>11.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_run(workload: Workload, trace: bool) -> WorkloadResult {
        let out = std::env::temp_dir().join(format!(
            "qdc_perf_smoke_{}_{}_{trace}",
            workload.name(),
            std::process::id()
        ));
        let result = measure(&Options {
            workload,
            seed: 2,
            seconds: 1,
            trace,
            quick: true,
            out: out.clone(),
        });
        let _ = std::fs::remove_dir_all(&out);
        result.unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    #[test]
    fn every_workload_runs_correctly_at_quick_size() {
        for w in Workload::ALL {
            let r = quick_run(w, false);
            assert!(r.correct, "{r:?}");
            assert!(r.attempted > 0 && r.failed == 0);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                ["setup_s", "ops_per_s", "latency_ms_p50", "peak_rss_mb"]
            );
            assert!(r.metrics.iter().all(|m| m.value > 0.0), "{r:?}");
        }
    }

    #[test]
    fn the_traced_run_reports_every_layer_metric() {
        let r = quick_run(Workload::CampaignGrid, true);
        assert!(r.correct, "{r:?}");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        for counter in crate::report::COUNTERS {
            assert!(names.contains(&counter), "{counter} missing from {names:?}");
        }
        assert!(names.contains(&"loop.latency_ms_tail"));
        assert!(names.contains(&"trace.slowdown"));
        let get = |n: &str| r.metrics.iter().find(|m| m.name == n).expect(n).value;
        assert_eq!(get("sim.deliveries"), 2_883_280.0);
        assert_eq!(get("sim.bits"), 34_453_712.0);
    }
}
