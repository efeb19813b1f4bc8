//! Unified metrics registry: named counters, gauges, and histograms.
//!
//! # Model
//!
//! A [`MetricsRegistry`] maps stable dotted names (`serve.busy`,
//! `serve.shard.contended.0`) to metric instruments:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, requests).
//! * [`Gauge`] — signed level that moves both ways (open connections,
//!   live machines).
//! * [`HistogramHandle`] — a [`HistogramSnapshot`] behind a mutex: the
//!   log-bucketed [`oc_stats::Histogram`] plus exact sum/max, so means
//!   and maxima don't suffer bucketing error.
//!
//! Instruments are registered once (get-or-create by name) and the
//! returned [`Arc`] handle is cached by the caller; hot-path updates on
//! counters and gauges are single relaxed atomic RMWs. Histogram records
//! take a per-instrument mutex — intended for per-shard/per-thread
//! instruments where the lock is uncontended.
//!
//! # Snapshots and merging
//!
//! [`MetricsRegistry::snapshot`] captures a [`MetricsSnapshot`]: pure
//! data, no atomics. Snapshots [`merge`](MetricsSnapshot::merge) by
//! *summing* counters and gauges and bucket-merging histograms, which is the
//! right semantics for aggregating per-shard registries into one
//! service-wide view (a gauge like open connections sums to the
//! cluster-wide total across members).
//!
//! # Wire exposition
//!
//! [`encode_exposition`] renders a snapshot as the single-line `v=1`
//! text format served by `oc-serve`'s `METRICS` verb and specified in
//! `docs/PROTOCOL.md`; [`parse_exposition`] reads it back.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use oc_stats::Histogram;

/// A monotonically increasing counter. Updates are relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level that can move both ways. Updates are relaxed atomic RMWs.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registered histogram instrument. Records take the instrument's own
/// mutex; use one instrument per shard/thread where contention matters.
#[derive(Debug, Default)]
pub struct HistogramHandle(Mutex<HistogramSnapshot>);

impl HistogramHandle {
    /// Records one observation.
    pub fn record(&self, x: f64) {
        self.0.lock().unwrap().record(x);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        self.0.lock().unwrap().clone()
    }
}

/// A distribution as the service carries it everywhere — behind a
/// registry instrument, in a shard's metrics, in a load report: the
/// log-bucketed [`Histogram`] for quantiles plus the exact sum and
/// maximum, which bucketing would distort. Any two merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// The bucketed distribution; its `total()` is the sample count.
    pub hist: Histogram,
    /// Exact sum of all recorded observations.
    pub sum: f64,
    /// Exact maximum observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Records `n` observations of the same value in one bucket update —
    /// a coalesced chunk or a `BATCH` frame resolves that way, one
    /// latency covering every line it carried.
    pub fn record_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.hist.push_n(x, n);
        self.sum += x * n as f64;
        if x > self.max {
            self.max = x;
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.hist.total()
    }

    /// Exact mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    /// Quantile, `p` in `[0, 100]`: within one bucket
    /// ([`Histogram::BUCKET_WIDTH`], ≈ 3 %) of the sample at that rank,
    /// never above the exact maximum, 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        self.hist.quantile(p).min(self.max)
    }

    /// Exact maximum, or 0 when empty.
    pub fn max_or_zero(&self) -> f64 {
        self.max
    }

    /// Folds `other` into `self`: buckets and sums add, max takes the
    /// larger.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.hist.merge(&other.hist);
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Registry of named instruments. Get-or-create is locked; the returned
/// handles are lock-free (counters/gauges) on the update path.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramHandle>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it at zero on
    /// first use. Names must match `[A-Za-z0-9_.:-]+` (no spaces or `=`;
    /// enforced by a debug assertion) so the exposition format stays
    /// parseable.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        debug_assert!(valid_name(name), "invalid metric name: {name:?}");
        Arc::clone(
            self.counters
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        debug_assert!(valid_name(name), "invalid metric name: {name:?}");
        Arc::clone(
            self.gauges
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Returns the histogram registered under `name`, creating it empty
    /// on first use.
    pub fn histogram(&self, name: &str) -> Arc<HistogramHandle> {
        debug_assert!(valid_name(name), "invalid metric name: {name:?}");
        Arc::clone(
            self.histograms
                .lock()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Captures every instrument's current value as pure data.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-'))
}

/// Pure-data snapshot of a registry. Snapshots merge across shards and
/// encode into the wire exposition format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sets (or overwrites) a counter value directly. For layers that
    /// keep authoritative counts outside the registry (e.g. the serve
    /// shards' owned counters) and fold them into an exposition.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Sets (or overwrites) a gauge value directly.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Sets (or overwrites) a histogram snapshot directly.
    pub fn set_histogram(&mut self, name: &str, h: HistogramSnapshot) {
        self.histograms.insert(name.to_string(), h);
    }

    /// Folds `other` into `self`: counters and gauges *sum* (a name absent
    /// on one side is treated as zero), histograms merge per
    /// [`HistogramSnapshot::merge`]. Summing gauges is the aggregation
    /// members want: per-member connection counts sum to the cluster's.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }
}

/// Exposition format version emitted by [`encode_exposition`].
pub const EXPOSITION_VERSION: u32 = 1;

/// Renders a snapshot as the single-line `v=1` wire exposition:
///
/// ```text
/// v=1 serve.busy=3 serve.conns=2 serve.latency_us.count=10 serve.latency_us.p50=120 …
/// ```
///
/// Space-separated `name=value` pairs sorted by name after the leading
/// `v=1`. Counters and gauges print as integers; each histogram expands
/// into `.count`, `.mean`, `.p50`, `.p99`, and `.max` scalars, with
/// floats in Rust's shortest round-trip notation. One line total, so the
/// response fits the protocol's one-line-per-request framing.
pub fn encode_exposition(snap: &MetricsSnapshot) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for (name, v) in snap.counters() {
        pairs.push((name.to_string(), v.to_string()));
    }
    for (name, v) in snap.gauges() {
        pairs.push((name.to_string(), v.to_string()));
    }
    for (name, h) in snap.histograms() {
        pairs.push((format!("{name}.count"), h.count().to_string()));
        pairs.push((format!("{name}.mean"), h.mean().to_string()));
        pairs.push((format!("{name}.p50"), h.quantile(50.0).to_string()));
        pairs.push((format!("{name}.p99"), h.quantile(99.0).to_string()));
        pairs.push((format!("{name}.max"), h.max_or_zero().to_string()));
    }
    pairs.sort();
    let mut out = format!("v={EXPOSITION_VERSION}");
    for (name, value) in &pairs {
        out.push(' ');
        out.push_str(name);
        out.push('=');
        out.push_str(value);
    }
    out
}

/// Parses an exposition line back into name → value. Returns `None` on a
/// missing/unsupported version token, a malformed pair, or an unparseable
/// number. Integer-rendered values come back as exact `f64`s for every
/// magnitude the exposition emits in practice (they round-trip below
/// 2^53).
pub fn parse_exposition(line: &str) -> Option<BTreeMap<String, f64>> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != format!("v={EXPOSITION_VERSION}") {
        return None;
    }
    let mut out = BTreeMap::new();
    for pair in parts {
        let (name, value) = pair.split_once('=')?;
        if name.is_empty() {
            return None;
        }
        out.insert(name.to_string(), value.parse().ok()?);
    }
    Some(out)
}

/// Merges `v=1` exposition lines across processes — the wire extension
/// of [`MetricsSnapshot::merge`] used by cluster-wide `METRICS`
/// aggregation, where each member process contributes one exposition.
///
/// Per-name rules, mirroring the in-memory merge as closely as the flat
/// format allows:
///
/// * names ending in `.max` take the max of maxes (exact);
/// * names ending in `.mean`, `.p50`, or `.p99` become averages
///   weighted by their sibling `.count` (an approximation — quantiles do
///   not compose; an absent or zero sibling falls back to unweighted);
/// * everything else (counters, gauges, `.count`) sums, exactly as
///   [`MetricsSnapshot::merge`] sums them.
///
/// Returns `None` if any input fails [`parse_exposition`]. Merging a
/// single exposition with itself-empty input is the identity:
/// `merge_expositions(&[e])` reproduces `e`'s values.
pub fn merge_expositions(lines: &[&str]) -> Option<String> {
    let parsed: Vec<BTreeMap<String, f64>> = lines
        .iter()
        .map(|l| parse_exposition(l))
        .collect::<Option<_>>()?;
    let mut merged: BTreeMap<String, f64> = BTreeMap::new();
    // Pass 1: sums and maxes.
    for snap in &parsed {
        for (name, v) in snap {
            if name.ends_with(".mean") || name.ends_with(".p50") || name.ends_with(".p99") {
                continue;
            }
            let slot = merged.entry(name.clone()).or_insert(0.0);
            if name.ends_with(".max") {
                *slot = slot.max(*v);
            } else {
                *slot += v;
            }
        }
    }
    // Pass 2: count-weighted statistics.
    let stat_names: BTreeSet<String> = parsed
        .iter()
        .flat_map(|s| s.keys())
        .filter(|n| n.ends_with(".mean") || n.ends_with(".p50") || n.ends_with(".p99"))
        .cloned()
        .collect();
    for name in stat_names {
        let base = &name[..name.rfind('.').expect("suffix-matched name has a dot")];
        let count_key = format!("{base}.count");
        let mut weighted = 0.0;
        let mut total_w = 0.0;
        for snap in &parsed {
            if let Some(v) = snap.get(&name) {
                let w = snap.get(&count_key).copied().unwrap_or(0.0).max(0.0);
                weighted += v * w;
                total_w += w;
            }
        }
        let value = if total_w > 0.0 {
            weighted / total_w
        } else {
            // No weights anywhere: plain average over the members that
            // reported the name.
            let vals: Vec<f64> = parsed
                .iter()
                .filter_map(|s| s.get(&name))
                .copied()
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        merged.insert(name, value);
    }
    let mut out = format!("v={EXPOSITION_VERSION}");
    for (name, value) in &merged {
        out.push(' ');
        out.push_str(name);
        out.push('=');
        out.push_str(&value.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = MetricsRegistry::new();
        let c = r.counter("t.requests");
        c.add(5);
        c.inc();
        assert_eq!(
            r.counter("t.requests").get(),
            6,
            "same name, same instrument"
        );
        assert_eq!(r.snapshot().counter("t.requests"), Some(6));
        assert_eq!(r.snapshot().counter("t.missing"), None);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("t.depth");
        g.inc();
        g.inc();
        g.dec();
        g.add(10);
        assert_eq!(r.snapshot().gauge("t.depth"), Some(11));
        g.set(-3);
        assert_eq!(r.snapshot().gauge("t.depth"), Some(-3));
    }

    #[test]
    fn histogram_is_get_or_create_with_exact_scalars() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t.lat");
        h.record(5.0);
        h.record(55.0);
        h.record(1000.0);
        r.histogram("t.lat").record(5.0);
        let snap = r.snapshot();
        let hs = snap.histogram("t.lat").unwrap();
        assert_eq!(hs.count(), 4, "second handle hit the same instrument");
        assert_eq!(hs.max, 1000.0);
        assert!((hs.mean() - (5.0 + 55.0 + 1000.0 + 5.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_merge_sums_everything() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("t.c").add(2);
        b.counter("t.c").add(3);
        b.counter("t.only_b").add(7);
        a.gauge("t.g").add(4);
        b.gauge("t.g").add(-1);
        a.histogram("t.h").record(1.0);
        b.histogram("t.h").record(9.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("t.c"), Some(5));
        assert_eq!(merged.counter("t.only_b"), Some(7));
        assert_eq!(merged.gauge("t.g"), Some(3));
        let h = merged.histogram("t.h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max, 9.0);
        assert!((h.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn exposition_round_trips() {
        let r = MetricsRegistry::new();
        r.counter("t.busy").add(41);
        r.gauge("t.depth").set(-2);
        let h = r.histogram("t.lat_us");
        for i in 0..100 {
            h.record(i as f64 * 10.0);
        }
        let snap = r.snapshot();
        let line = encode_exposition(&snap);
        assert!(line.starts_with("v=1 "), "{line}");
        assert!(!line.contains('\n'));
        let parsed = parse_exposition(&line).unwrap();
        assert_eq!(parsed["t.busy"], 41.0);
        assert_eq!(parsed["t.depth"], -2.0);
        assert_eq!(parsed["t.lat_us.count"], 100.0);
        assert_eq!(parsed["t.lat_us.max"], 990.0);
        let p50 = parsed["t.lat_us.p50"];
        assert!((400.0..=600.0).contains(&p50), "{p50}");
        // Pairs are sorted by name.
        let names: Vec<&str> = line
            .split_ascii_whitespace()
            .skip(1)
            .map(|p| p.split_once('=').unwrap().0)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn exposition_rejects_garbage() {
        assert!(parse_exposition("").is_none());
        assert!(parse_exposition("v=2 a=1").is_none());
        assert!(parse_exposition("v=1 noequals").is_none());
        assert!(parse_exposition("v=1 a=notanumber").is_none());
        assert!(parse_exposition("v=1 =5").is_none());
        assert_eq!(parse_exposition("v=1").unwrap().len(), 0);
    }

    #[test]
    fn empty_histogram_exposes_zeros() {
        let r = MetricsRegistry::new();
        r.histogram("t.empty");
        let line = encode_exposition(&r.snapshot());
        let parsed = parse_exposition(&line).unwrap();
        assert_eq!(parsed["t.empty.count"], 0.0);
        assert_eq!(parsed["t.empty.mean"], 0.0);
        assert_eq!(parsed["t.empty.p50"], 0.0);
        assert_eq!(parsed["t.empty.max"], 0.0);
    }
}
