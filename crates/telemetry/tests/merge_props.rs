//! Property tests for [`MetricsSnapshot`] aggregation: merging per-shard
//! snapshots must equal summing every shard's raw updates, which is the
//! law the serve layer's `METRICS` verb relies on when it folds shard
//! registries into one service-wide exposition.

use oc_telemetry::metrics::{
    encode_exposition, parse_exposition, HistogramSnapshot, MetricsSnapshot,
};
use oc_telemetry::MetricsRegistry;
use proptest::prelude::*;

/// Per-shard raw updates: counter adds, gauge deltas (biased by -50 at
/// apply time so gauges go negative), histogram samples as decimal
/// exponents. The vendored proptest has no signed-range or mapped
/// strategy, hence the encodings.
type ShardLoad = (Vec<u64>, Vec<u64>, Vec<f64>);

fn shard_load() -> impl Strategy<Value = ShardLoad> {
    (
        proptest::collection::vec(0u64..1_000, 0..20),
        proptest::collection::vec(0u64..100, 0..20),
        proptest::collection::vec(-3.0f64..7.0, 0..30),
    )
}

/// The sample an exponent stands for: 1 ns to 10 s in microseconds, so
/// about one in five falls below the first bucket.
fn sample_us(exponent: f64) -> f64 {
    10f64.powf(exponent)
}

/// `a ⊕ b` without mutating either operand.
fn merged(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Structural equality with float-associativity slack on histogram
/// sums (bucket counts, extremes, counters, and gauges must be exact).
fn assert_equivalent(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Result<(), String> {
    prop_assert_eq!(a.counter("prop.counter"), b.counter("prop.counter"));
    prop_assert_eq!(a.gauge("prop.gauge"), b.gauge("prop.gauge"));
    match (a.histogram("prop.hist"), b.histogram("prop.hist")) {
        (None, None) => {}
        (Some(ha), Some(hb)) => {
            prop_assert_eq!(&ha.hist, &hb.hist);
            prop_assert_eq!(ha.max.to_bits(), hb.max.to_bits());
            prop_assert!((ha.sum - hb.sum).abs() <= 1e-9 * (1.0 + hb.sum.abs()));
        }
        (a, b) => prop_assert!(false, "histogram presence differs: {:?} vs {:?}", a, b),
    }
    Ok(())
}

fn apply(load: &ShardLoad) -> MetricsSnapshot {
    let (counts, deltas, samples) = load;
    let reg = MetricsRegistry::new();
    let c = reg.counter("prop.counter");
    for &n in counts {
        c.add(n);
    }
    let g = reg.gauge("prop.gauge");
    for &d in deltas {
        g.add(d as i64 - 50);
    }
    let h = reg.histogram("prop.hist");
    for &e in samples {
        h.record(sample_us(e));
    }
    reg.snapshot()
}

proptest! {
    /// Merging any number of per-shard snapshots (in any association
    /// order: left fold here) equals one registry that saw every update.
    #[test]
    fn merged_snapshot_equals_per_shard_sums(
        shards in proptest::collection::vec(shard_load(), 1..6),
    ) {
        let mut merged = MetricsSnapshot::default();
        for s in &shards {
            merged.merge(&apply(s));
        }

        let combined: ShardLoad = (
            shards.iter().flat_map(|s| s.0.iter().copied()).collect(),
            shards.iter().flat_map(|s| s.1.iter().copied()).collect(),
            shards.iter().flat_map(|s| s.2.iter().copied()).collect(),
        );
        let reference = apply(&combined);

        // Sums accumulate in a different order across shards, hence the
        // slack `assert_equivalent` gives them and nothing else.
        assert_equivalent(&merged, &reference)?;
    }

    /// `record_n(x, n)` is `n` records of `x`: same buckets, same max,
    /// same sum up to the rounding of one multiply against `n` adds.
    #[test]
    fn record_n_equals_n_records(
        before in proptest::collection::vec(-3.0f64..7.0, 0..20),
        e in -3.0f64..7.0,
        n in 0u64..50,
    ) {
        let mut bulk = HistogramSnapshot::default();
        for &b in &before {
            bulk.record(sample_us(b));
        }
        let mut single = bulk.clone();
        bulk.record_n(sample_us(e), n);
        for _ in 0..n {
            single.record(sample_us(e));
        }
        prop_assert_eq!(&bulk.hist, &single.hist);
        prop_assert_eq!(bulk.count(), before.len() as u64 + n);
        prop_assert_eq!(bulk.max.to_bits(), single.max.to_bits());
        prop_assert!((bulk.sum - single.sum).abs() <= 1e-9 * (1.0 + single.sum.abs()));
    }

    /// Quantiles are ordered and no quantile exceeds the exact maximum,
    /// on one shard's snapshot or on a merge of two — including when
    /// every sample sits low in its bucket (or below the first one),
    /// where the bucket edge would. An empty instrument reads all zeros.
    #[test]
    fn quantiles_never_exceed_the_exact_max(a in shard_load(), b in shard_load()) {
        let (sa, sb) = (apply(&a), apply(&b));
        for snap in [&sa, &sb, &merged(&sa, &sb)] {
            let h = snap.histogram("prop.hist").unwrap();
            let mut prev = 0.0;
            for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
                let q = h.quantile(p);
                prop_assert!(prev <= q, "p{} = {} below {}", p, q, prev);
                prop_assert!(
                    q <= h.max_or_zero(),
                    "p{} = {} above max {}", p, q, h.max_or_zero()
                );
                prev = q;
            }
            if h.count() == 0 {
                prop_assert_eq!((h.mean(), h.max_or_zero()), (0.0, 0.0));
            }
        }
    }

    /// The wire exposition of a merged snapshot parses back to the same
    /// values the snapshot reports — counters/gauges exactly, histogram
    /// scalars through the float formatter's round trip.
    #[test]
    fn exposition_of_merged_snapshot_round_trips(
        shards in proptest::collection::vec(shard_load(), 1..4),
    ) {
        let mut merged = MetricsSnapshot::default();
        for s in &shards {
            merged.merge(&apply(s));
        }
        let parsed = parse_exposition(&encode_exposition(&merged)).unwrap();
        prop_assert_eq!(
            parsed["prop.counter"],
            merged.counter("prop.counter").unwrap() as f64
        );
        prop_assert_eq!(
            parsed["prop.gauge"],
            merged.gauge("prop.gauge").unwrap() as f64
        );
        let h = merged.histogram("prop.hist").unwrap();
        prop_assert_eq!(parsed["prop.hist.count"], h.count() as f64);
        prop_assert_eq!(parsed["prop.hist.mean"].to_bits(), h.mean().to_bits());
        prop_assert_eq!(parsed["prop.hist.p50"].to_bits(), h.quantile(50.0).to_bits());
        prop_assert_eq!(parsed["prop.hist.p99"].to_bits(), h.quantile(99.0).to_bits());
        prop_assert_eq!(parsed["prop.hist.max"].to_bits(), h.max_or_zero().to_bits());
    }

    /// Associativity: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`. The cluster layer
    /// leans on this — a supervisor may fold members one at a time while
    /// an aggregator folds a pre-merged subset, and both must report the
    /// same service-wide view.
    #[test]
    fn merge_is_associative(
        a in shard_load(), b in shard_load(), c in shard_load(),
    ) {
        let (sa, sb, sc) = (apply(&a), apply(&b), apply(&c));
        let left = merged(&merged(&sa, &sb), &sc);
        let right = merged(&sa, &merged(&sb, &sc));
        assert_equivalent(&left, &right)?;
    }

    /// Commutativity: `a ⊕ b == b ⊕ a`, exactly — member fan-out order
    /// is nondeterministic, so order must not leak into the aggregate.
    /// (Float sums commute exactly; only association reorders rounding.)
    #[test]
    fn merge_is_commutative(a in shard_load(), b in shard_load()) {
        let (sa, sb) = (apply(&a), apply(&b));
        prop_assert_eq!(merged(&sa, &sb), merged(&sb, &sa));
    }

    /// The empty snapshot is a two-sided identity: merging a fresh
    /// (default) snapshot in either direction changes nothing, so dead
    /// or not-yet-scraped members drop out of aggregation cleanly.
    #[test]
    fn empty_snapshot_is_identity(a in shard_load()) {
        let sa = apply(&a);
        let empty = MetricsSnapshot::default();
        prop_assert_eq!(merged(&sa, &empty), sa.clone());
        prop_assert_eq!(merged(&empty, &sa), sa);
    }
}
