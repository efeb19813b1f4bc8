//! The benchmark's own spans: one around every call it makes into a
//! layer, each carrying its parent and the round it belongs to. Spans
//! stay in memory and are written as JSONL when the run ends; spans
//! *inside* the product are drained from `oc_telemetry::trace` and
//! written alongside, unmodified.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One completed (or still open) benchmark span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Dense id, in opening order.
    pub id: usize,
    /// The span that was open on the generator thread when this one opened.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one measured round (`0` =
    /// outside any round).
    pub round: u64,
    /// Static span name (`bench.*`).
    pub name: &'static str,
    /// Start, microseconds since the telemetry clock's epoch (the time
    /// base of the product's own spans, so the two streams line up).
    pub start_us: f64,
    /// End, same time base.
    pub end_us: f64,
}

/// Records spans opened and closed on the single generator thread, so the
/// open spans form a stack and a span's parent is the top of it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    round: u64,
    stack: Vec<usize>,
    spans: Vec<SpanRec>,
    product: Vec<oc_telemetry::TraceEvent>,
    product_skipped: u64,
}

/// Product trace events kept for the JSONL file; the rest are counted.
const PRODUCT_EVENTS_KEPT: usize = 20_000;

impl Tracer {
    /// A tracer; a disabled one records nothing and costs a branch.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: oc_telemetry::clock::epoch(),
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            product: Vec::new(),
            product_skipped: 0,
        }
    }

    /// Drains the product's own trace rings (`serve.request`, `sim.tick`,
    /// ...). Called at round boundaries, so a ring holds one round at
    /// most; `keep = false` discards what set-up recorded.
    pub fn drain_product(&mut self, keep: bool) {
        if !self.enabled {
            return;
        }
        let mut events = oc_telemetry::trace::drain();
        if keep {
            let room = PRODUCT_EVENTS_KEPT.saturating_sub(self.product.len());
            self.product_skipped += events.len().saturating_sub(room) as u64;
            events.truncate(room);
            self.product.append(&mut events);
        }
    }

    /// The product events kept, and how many were recorded but not kept
    /// (over the cap, or dropped by a full ring).
    pub fn product(&self) -> (&[oc_telemetry::TraceEvent], u64) {
        (
            &self.product,
            self.product_skipped + oc_telemetry::trace::dropped(),
        )
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the round identifier stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(SpanRec {
            id,
            parent: self.stack.last().copied(),
            round: self.round,
            name,
            start_us,
            end_us: start_us,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, microseconds.
    pub total_us: f64,
    /// Sum of self times: each span's duration minus the part of its
    /// interval its direct children cover.
    pub self_us: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time per span name: duration minus child coverage, summed by name.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_us - s.start_us;
        let child = children
            .remove(&s.id)
            .map_or(0.0, |c| covered(c, s.start_us, s.end_us));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += dur;
        t.self_us += dur - child;
    }
    out
}

/// Writes the benchmark spans, the drained product events, the per-name
/// self times and the scraped counters as one JSONL stream.
pub fn write_jsonl(
    out: &mut impl Write,
    spans: &[SpanRec],
    product: &[oc_telemetry::TraceEvent],
    counters: &BTreeMap<String, f64>,
) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"kind\":\"bench_span\",\"id\":{},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
            s.id,
            s.round,
            s.name,
            s.start_us,
            s.end_us - s.start_us
        )?;
    }
    let mut line = String::new();
    for e in product {
        line.clear();
        oc_telemetry::json::encode_event(&mut line, e);
        writeln!(out, "{line}")?;
    }
    for (name, t) in self_times(spans) {
        writeln!(
            out,
            "{{\"kind\":\"self_time\",\"name\":\"{name}\",\"count\":{},\"total_us\":{:.1},\"self_us\":{:.1}}}",
            t.count, t.total_us, t.self_us
        )?;
    }
    for (name, value) in counters {
        writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}"
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> SpanRec {
        SpanRec {
            id,
            parent,
            round: 1,
            name,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            rec(0, None, "round", 0.0, 100.0),
            rec(1, Some(0), "call", 10.0, 40.0),
            rec(2, Some(0), "call", 50.0, 70.0),
            rec(3, Some(1), "inner", 15.0, 20.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"].count, 1);
        assert_eq!(t["round"].total_us, 100.0);
        assert_eq!(t["round"].self_us, 50.0);
        assert_eq!(t["call"].count, 2);
        assert_eq!(t["call"].total_us, 50.0);
        assert_eq!(t["call"].self_us, 45.0);
        assert_eq!(t["inner"].self_us, 5.0);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            rec(0, None, "p", 0.0, 10.0),
            rec(1, Some(0), "c", 2.0, 6.0),
            rec(2, Some(0), "c", 4.0, 12.0),
        ];
        // Children cover [2, 10] of the parent: 8 of its 10 µs.
        assert_eq!(self_times(&spans)["p"].self_us, 2.0);
    }

    #[test]
    fn tracer_nests_parents_and_stamps_rounds() {
        let mut tr = Tracer::new(true);
        tr.set_round(7);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {});
        });
        tr.set_round(0);
        tr.span("after", |_| {});
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].round), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].round), ("inner", Some(0), 7));
        assert_eq!((s[2].name, s[2].parent, s[2].round), ("after", None, 0));
        assert!(s[0].end_us >= s[1].end_us);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 5), 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let spans = vec![rec(0, None, "bench.round", 0.0, 5.0)];
        let mut counters = BTreeMap::new();
        counters.insert("run.rounds".to_string(), 3.0);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &spans, &[], &counters).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"self_us\":5.0"));
        assert!(lines[2].contains("\"run.rounds\""));
    }
}
