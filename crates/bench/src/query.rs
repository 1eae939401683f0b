//! Archive query engine for `qdc-telemetry-stream/v1` archives: input
//! expansion, round windows, per-round metric extraction, and the
//! summary renderer behind `profile query`.
//!
//! Everything here is pure string-in/string-out (or path expansion) so
//! the `profile` binary stays a thin shell and the golden tests in
//! `crates/bench/tests/` can pin the rendered output byte-for-byte.
//! The binary drives [`qdc_congest::StreamReader`] record-by-record and
//! calls into these helpers; no function in this module ever buffers an
//! archive.

use crate::{fmt_header, fmt_row};
use qdc_congest::{RoundProfile, StreamAggregate, TopK};
use qdc_harness::stream_telemetry_archives;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Per-round metrics `--metric` understands, in help order.
pub const METRICS: &[&str] = &[
    "messages",
    "bits",
    "dropped",
    "corrupted",
    "crashes",
    "path",
    "highway",
    "cross",
];

/// Extracts one named per-round metric. `None` for unknown names — the
/// CLI turns that into a usage error listing [`METRICS`].
pub fn metric_value(r: &RoundProfile, metric: &str) -> Option<u64> {
    Some(match metric {
        "messages" => r.messages,
        "bits" => r.bits,
        "dropped" => r.dropped,
        "corrupted" => r.corrupted_bits,
        "crashes" => r.crashes,
        "path" => r.path_bits,
        "highway" => r.highway_bits,
        "cross" => r.cross_bits,
        _ => return None,
    })
}

/// Inclusive round window parsed from `--rounds`: `A..B`, `A..`
/// (everything from `A`), `..B` (everything up to `B`), or a single
/// round `A`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundWindow {
    /// First round included (1-based).
    pub first: usize,
    /// Last round included.
    pub last: usize,
}

impl RoundWindow {
    /// The unbounded window.
    pub fn all() -> RoundWindow {
        RoundWindow {
            first: 1,
            last: usize::MAX,
        }
    }

    /// Parses the `--rounds` argument. Rejects empty and inverted
    /// windows with a human-readable message.
    pub fn parse(s: &str) -> Result<RoundWindow, String> {
        let parse_bound = |t: &str, default: usize| -> Result<usize, String> {
            if t.is_empty() {
                return Ok(default);
            }
            t.parse()
                .map_err(|_| format!("`{t}` is not a round number"))
        };
        let (first, last) = match s.split_once("..") {
            Some((a, b)) => (parse_bound(a, 1)?, parse_bound(b, usize::MAX)?),
            None => {
                let r = parse_bound(s, 0)?;
                (r, r)
            }
        };
        if first == 0 {
            return Err("rounds are 1-based".into());
        }
        if first > last {
            return Err(format!("empty window {first}..{last}"));
        }
        Ok(RoundWindow { first, last })
    }

    /// Whether `round` falls inside the window.
    pub fn contains(&self, round: usize) -> bool {
        (self.first..=self.last).contains(&round)
    }
}

/// Expands one CLI input into archive paths: a file maps to itself, a
/// directory to every `point_<i>.telemetry.jsonl` inside it in point
/// order. `-` is handled by the caller (stdin has no path).
pub fn expand_input(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let archives = stream_telemetry_archives(path)
        .map_err(|e| format!("cannot list `{}`: {e}", path.display()))?;
    if archives.is_empty() {
        return Err(format!(
            "`{}` holds no point_<i>.telemetry.jsonl archives",
            path.display()
        ));
    }
    Ok(archives)
}

fn top_table(out: &mut String, what: &str, sketch: &TopK, limit: usize) {
    let entries = sketch.ranked();
    let shown = entries.len().min(limit);
    let _ = writeln!(
        out,
        "top {shown} hottest {what} (of {} tracked, capacity {}):",
        entries.len(),
        sketch.capacity()
    );
    let widths = [8, 12, 10, 10];
    let _ = writeln!(
        out,
        "{}",
        fmt_header(&[what, "bits", "msgs", "±err"], &widths)
    );
    for e in entries.iter().take(limit) {
        let _ = writeln!(
            out,
            "{}",
            fmt_row(
                &[
                    &e.index.to_string(),
                    &e.bits.to_string(),
                    &e.messages.to_string(),
                    &e.err.to_string(),
                ],
                &widths,
            )
        );
    }
}

/// Renders one aggregate — a single archive's footer, or the result of
/// `--merge` across many — as the `profile query` summary block.
///
/// `archives` is how many archives were folded in; `top_k` caps how
/// many sketch rows are listed. Counter semantics (and the `±err`
/// column: each sketch entry's bits overcount by at most `err`) are
/// documented in DESIGN.md §4g.
pub fn render_summary(agg: &StreamAggregate, archives: usize, top_k: usize) -> String {
    let h = &agg.header;
    let t = &agg.totals;
    let mut out = String::new();
    let bandwidth = if h.bandwidth == 0 {
        "mixed".to_string()
    } else {
        format!("{} bits", h.bandwidth)
    };
    let _ = writeln!(
        out,
        "{archives} archive(s): {} nodes, {} edges, B = {bandwidth}{}",
        h.nodes,
        h.edges,
        if h.classified {
            ", highway/path classified"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "totals: {} round(s) ({} quiescent), {} messages, {} bits, {} dropped, \
         {} bits corrupted, {} crash(es)",
        t.rounds, t.quiescent, t.messages, t.bits, t.dropped, t.corrupted_bits, t.crashes
    );
    let _ = writeln!(
        out,
        "util: idle {}, <=B/4 {}, <=B/2 {}, <=3B/4 {}, <=B {}",
        t.util[0], t.util[1], t.util[2], t.util[3], t.util[4]
    );
    if h.classified {
        let _ = writeln!(
            out,
            "split: path {}, highway {}, cross {}",
            t.path_bits, t.highway_bits, t.cross_bits
        );
    }
    if let Some(q) = &t.qsplit {
        let _ = writeln!(
            out,
            "qsplit: classical {}, qubit {}",
            q.classical_bits, q.qubit_bits
        );
    }
    top_table(&mut out, "edges", &agg.top_edges, top_k);
    top_table(&mut out, "nodes", &agg.top_nodes, top_k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_windows_parse_and_reject() {
        assert_eq!(
            RoundWindow::parse("3..7"),
            Ok(RoundWindow { first: 3, last: 7 })
        );
        assert_eq!(
            RoundWindow::parse("5.."),
            Ok(RoundWindow {
                first: 5,
                last: usize::MAX
            })
        );
        assert_eq!(
            RoundWindow::parse("..4"),
            Ok(RoundWindow { first: 1, last: 4 })
        );
        assert_eq!(
            RoundWindow::parse("9"),
            Ok(RoundWindow { first: 9, last: 9 })
        );
        assert!(RoundWindow::parse("7..3").is_err());
        assert!(RoundWindow::parse("0..2").is_err());
        assert!(RoundWindow::parse("x").is_err());
        let w = RoundWindow::parse("2..4").unwrap();
        assert!(!w.contains(1) && w.contains(2) && w.contains(4) && !w.contains(5));
    }

    #[test]
    fn metric_names_cover_the_table() {
        let r = RoundProfile {
            round: 1,
            messages: 2,
            bits: 30,
            dropped: 1,
            corrupted_bits: 4,
            crashes: 1,
            quiescent: false,
            util: [0; 5],
            path_bits: 10,
            highway_bits: 15,
            cross_bits: 5,
            qsplit: None,
            wall_ns: 0,
        };
        for m in METRICS {
            assert!(metric_value(&r, m).is_some(), "metric `{m}` extracts");
        }
        assert_eq!(metric_value(&r, "corrupted"), Some(4));
        assert_eq!(metric_value(&r, "wall"), None);
    }

    #[test]
    fn summary_renders_merged_headers() {
        let mut a = StreamAggregate::new(4, 6, 16, 2);
        a.header.classified = true;
        a.totals.rounds = 3;
        a.totals.messages = 12;
        a.totals.bits = 96;
        a.top_edges.observe(2, 64, 8);
        a.top_edges.observe(0, 32, 4);
        a.top_nodes.observe(1, 96, 12);
        let text = render_summary(&a, 1, 10);
        assert!(
            text.contains("1 archive(s): 4 nodes, 6 edges, B = 16 bits"),
            "{text}"
        );
        assert!(text.contains("highway/path classified"), "{text}");
        assert!(text.contains("3 round(s)"), "{text}");
        // Ranked by bits desc; err column present.
        let edge_pos = text.find("top 2 hottest edges").expect("edge table");
        assert!(text[edge_pos..].contains('2') && text[edge_pos..].contains('0'));

        // A poisoned merge renders the bandwidth as mixed.
        let b = StreamAggregate::new(4, 6, 32, 2);
        a.merge(&b).expect("no overflow");
        let text = render_summary(&a, 2, 10);
        assert!(text.contains("B = mixed"), "{text}");
        assert!(!text.contains("classified,"), "{text}");
    }

    #[test]
    fn summary_renders_the_qubit_split_only_when_present() {
        let mut a = StreamAggregate::new(3, 2, 8, 2);
        a.totals.rounds = 2;
        assert!(
            !render_summary(&a, 1, 10).contains("qsplit"),
            "classical archives carry no qsplit line"
        );
        a.totals.qsplit = Some(qdc_congest::QubitSplit {
            classical_bits: 14,
            qubit_bits: 7,
        });
        let text = render_summary(&a, 1, 10);
        assert!(text.contains("qsplit: classical 14, qubit 7"), "{text}");
    }
}
