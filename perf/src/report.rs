//! Result documents: the one-line result of a single workload run, and
//! the `qdc-perf/v1` report of a whole suite.
//!
//! `qdc-perf/v1` is written in the repository's strict JSON dialect
//! (fixed key order, integers only): metric values are carried as
//! strings holding Rust's shortest round-trip decimal form, so a report
//! re-parses to exactly the numbers that were measured.
//!
//! ```text
//! {"schema":"qdc-perf/v1","seed":1,"seconds":15,"quick":false,"workloads":[
//!   {"workload":"soak_stream","trace":false,"correct":true,"attempted":52000,"failed":0,
//!    "metrics":[{"name":"ops_per_s","unit":"1/s","value":"3512.7","samples":208},…]},…]}
//! ```

use qdc_harness::json::{self, Json};
use std::collections::BTreeMap;

/// Schema tag of a suite report.
pub const SCHEMA: &str = "qdc-perf/v1";

/// Per-layer metrics that count work rather than time. They repeat
/// exactly from run to run and are normalised (per round, point or
/// pass) so `--quick` runs compare with full ones; `--check-counters`
/// gates on them.
pub const COUNTERS: [&str; 8] = [
    "sim.deliveries",
    "sim.bits",
    "sim.allocs_per_round",
    "stream.bytes_per_round",
    "stream.allocs_per_round",
    "point.allocs",
    "journal.writes_per_point",
    "journal.bytes_per_point",
];

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
}

impl Metric {
    /// A metric from `samples` samples.
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples: samples as u64,
        }
    }
}

/// What one run of one workload measured.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// The workload's name.
    pub workload: String,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or produced wrong output.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    /// The single-line result, printed last by a one-workload run:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    Json::Str(m.name.clone()).to_json(),
                    m.value,
                    Json::Str(m.unit.clone()).to_json()
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.clone())),
                    ("unit", Json::Str(m.unit.clone())),
                    ("value", Json::Str(m.value.to_string())),
                    ("samples", Json::Num(m.samples)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    /// The result as one strict JSON document (a `workloads` entry of a
    /// `qdc-perf/v1` report).
    pub fn to_json_text(&self) -> String {
        self.to_json().to_json()
    }

    /// Parses one `workloads` entry.
    pub fn from_json(doc: &Json) -> Result<WorkloadResult, String> {
        json::require_keys(
            doc,
            &[
                "workload",
                "trace",
                "correct",
                "attempted",
                "failed",
                "metrics",
            ],
            &[],
        )?;
        let Some(Json::Arr(items)) = doc.get("metrics") else {
            return Err("`metrics` must be an array".into());
        };
        let metrics = items
            .iter()
            .map(|m| {
                json::require_keys(m, &["name", "unit", "value", "samples"], &[])?;
                let value = str_field(m, "value")?;
                Ok(Metric {
                    name: str_field(m, "name")?,
                    unit: str_field(m, "unit")?,
                    value: value
                        .parse()
                        .map_err(|_| format!("metric value `{value}` is not a number"))?,
                    samples: num_field(m, "samples")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(WorkloadResult {
            workload: str_field(doc, "workload")?,
            trace: bool_field(doc, "trace")?,
            correct: bool_field(doc, "correct")?,
            attempted: num_field(doc, "attempted")?,
            failed: num_field(doc, "failed")?,
            metrics,
        })
    }
}

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    match doc.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("`{key}` must be a string")),
    }
}

fn num_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("`{key}` must be an unsigned integer"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("`{key}` must be a boolean")),
    }
}

/// A whole suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Whether the reduced `--quick` sizes were used.
    pub quick: bool,
    /// One untraced and one traced result per workload.
    pub results: Vec<WorkloadResult>,
}

impl Report {
    /// The `qdc-perf/v1` document.
    pub fn to_json_text(&self) -> String {
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("seed", Json::Num(self.seed)),
            ("seconds", Json::Num(self.seconds)),
            ("quick", Json::Bool(self.quick)),
            (
                "workloads",
                Json::Arr(self.results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
        .to_json()
    }

    /// Parses and checks a `qdc-perf/v1` document (a trailing newline
    /// is accepted).
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = json::parse(text.strip_suffix('\n').unwrap_or(text))?;
        json::require_keys(
            &doc,
            &["schema", "seed", "seconds", "quick", "workloads"],
            &[],
        )?;
        if str_field(&doc, "schema")? != SCHEMA {
            return Err(format!("schema tag must be `{SCHEMA}`"));
        }
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            return Err("`workloads` must be an array".into());
        };
        Ok(Report {
            seed: num_field(&doc, "seed")?,
            seconds: num_field(&doc, "seconds")?,
            quick: bool_field(&doc, "quick")?,
            results: items
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The [`COUNTERS`] of the traced results. Every traced run
    /// measures the same layer suite, so they must agree exactly.
    pub fn counters(&self) -> Result<BTreeMap<String, String>, String> {
        let mut out: BTreeMap<String, String> = BTreeMap::new();
        for r in self.results.iter().filter(|r| r.trace) {
            for m in r
                .metrics
                .iter()
                .filter(|m| COUNTERS.contains(&m.name.as_str()))
            {
                let value = m.value.to_string();
                match out.get(&m.name) {
                    Some(v) if *v != value => {
                        return Err(format!(
                            "counter {} reads {v} in one run and {value} in {}",
                            m.name, r.workload
                        ))
                    }
                    _ => {
                        out.insert(m.name.clone(), value);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Every counter of `baseline` that `current` lacks or reads
/// differently, as messages.
pub fn counter_drift(
    current: &BTreeMap<String, String>,
    baseline: &BTreeMap<String, String>,
) -> Vec<String> {
    baseline
        .iter()
        .filter_map(|(name, want)| match current.get(name) {
            Some(got) if got == want => None,
            Some(got) => Some(format!("{name}: {got}, baseline {want}")),
            None => Some(format!("{name}: missing, baseline {want}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let result = |trace, allocs: f64| WorkloadResult {
            workload: "soak_stream".into(),
            trace,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("ops_per_s", "1/s", 3_512.734_512_8, 40),
                Metric::new("latency_ms_p50", "ms", 0.000_123_4, 1000),
                Metric::new("sim.allocs_per_round", "count", allocs, 200),
            ],
        };
        Report {
            seed: 2,
            seconds: 15,
            quick: true,
            results: vec![result(false, 1.0), result(true, 1279.5)],
        }
    }

    #[test]
    fn report_round_trips_through_the_strict_json_parser() {
        let report = sample();
        let text = report.to_json_text();
        assert!(!text.contains(['\n', ' ']), "one compact line: {text}");
        assert_eq!(Report::parse(&text).expect("parses"), report);
        assert_eq!(Report::parse(&format!("{text}\n")).expect("parses"), report);
        for broken in [
            text.replace(SCHEMA, "qdc-perf/v0"),
            text.replace("\"seed\"", "\"sead\""),
            text.replace("\"3512.7345128\"", "\"fast\""),
            text.replace("\"samples\":40", "\"samples\":\"40\""),
        ] {
            assert!(Report::parse(&broken).is_err(), "accepted {broken}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let line = sample().results[0].result_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"ops_per_s\":{\"value\":3512.7345128,\"unit\":\"1/s\"},\
             \"latency_ms_p50\":{\"value\":0.0001234,\"unit\":\"ms\"},\
             \"sim.allocs_per_round\":{\"value\":1,\"unit\":\"count\"}}}"
        );
    }

    #[test]
    fn counters_come_from_traced_runs_and_drift_is_reported() {
        let mut report = sample();
        let counters = report
            .counters()
            .expect("one traced run agrees with itself");
        assert_eq!(counters.len(), 1);
        assert_eq!(counters["sim.allocs_per_round"], "1279.5");
        assert!(counter_drift(&counters, &counters).is_empty());
        let mut moved = counters.clone();
        moved.insert("sim.allocs_per_round".into(), "1280".into());
        assert_eq!(counter_drift(&moved, &counters).len(), 1);
        assert_eq!(counter_drift(&BTreeMap::new(), &counters).len(), 1);
        // Two traced runs that disagree are themselves an error.
        let mut other = report.results[1].clone();
        other.metrics[2].value = 1280.0;
        report.results.push(other);
        assert!(report.counters().is_err());
    }
}
