//! In-memory spans recorded by the benchmark around its calls into the
//! library's public functions (never inside the library).
//!
//! A span is `{id, parent, name, start_ns, end_ns}`, times relative to
//! one shared epoch so spans from several threads line up. Spans stay
//! in memory until the run ends and are written out as JSONL then.
//! A span's *self time* is its duration minus the part of it that its
//! child spans cover.

use qdc_harness::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.function` of the call the span wraps.
    pub name: &'static str,
    /// Open time, nanoseconds since the epoch.
    pub start_ns: u64,
    /// Close time, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled tracer runs the wrapped
/// closures and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A tracer timing from `epoch` whose span ids start at `id_base`
    /// (give every thread its own base so merged ids stay unique).
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: id_base,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread: same switch and epoch, ids from
    /// `id_base`.
    pub fn fork(&self, id_base: u64) -> Tracer {
        Tracer::new(self.enabled, self.epoch, id_base)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Takes over the spans another thread's tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Reserves room for `spans` more spans, so that recording them
    /// allocates nothing inside a section whose allocations are counted.
    pub fn reserve(&mut self, spans: usize) {
        if self.enabled {
            self.spans.reserve(spans);
        }
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    fn children(&self) -> BTreeMap<u64, Vec<&Span>> {
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(s);
            }
        }
        children
    }

    /// Per span name: (count, total ns, total self ns), by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let children = self.children();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += self_ns(s, kids);
        }
        out
    }

    /// For each span named `name`, the nanoseconds its children cover
    /// (its duration minus its self time).
    pub fn covered_ns(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
                (s.ns() - self_ns(s, kids)) as f64
            })
            .collect()
    }

    /// The spans as JSONL, one `{id,parent,name,start_ns,end_ns}`
    /// object per line, ordered by open time.
    pub fn to_jsonl(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            out.push_str(
                &Json::obj([
                    ("id", Json::Num(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::Num)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns)),
                    ("end_ns", Json::Num(s.end_ns)),
                ])
                .to_json(),
            );
            out.push('\n');
        }
        out
    }
}

/// `span`'s duration minus the union of its children's intervals
/// (clipped to the span, so overlapping children on other threads are
/// not counted twice).
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let p = span(1, None, 0, 100);
        let (a, b) = (span(2, Some(1), 10, 30), span(3, Some(1), 50, 60));
        assert_eq!(self_ns(&p, &[&a, &b]), 70);
        assert_eq!(self_ns(&p, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let p = span(1, None, 100, 200);
        let a = span(2, Some(1), 110, 150);
        let b = span(3, Some(1), 140, 170); // overlaps a by 10
        let c = span(4, Some(1), 90, 105); // starts before the parent
        let d = span(5, Some(1), 190, 250); // ends after it
        assert_eq!(self_ns(&p, &[&a, &b, &c, &d]), 100 - 60 - 5 - 10);
        assert_eq!(self_ns(&p, &[&b, &a]), 40, "order does not matter");
        let all = span(6, Some(1), 0, 300);
        assert_eq!(self_ns(&p, &[&all]), 0);
    }

    #[test]
    fn tracer_nests_spans_and_sums_self_time_by_name() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| {});
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id)));
        let table = t.by_name();
        let (count, total, own) = table["inner"];
        assert_eq!(count, 2);
        assert_eq!(total, own, "leaf spans are all self time");
        let (_, outer_total, outer_self) = table["outer"];
        assert_eq!(outer_self, outer_total - total);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
