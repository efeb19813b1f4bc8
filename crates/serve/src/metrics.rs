//! Per-shard counters and service-latency accounting.
//!
//! Each shard holds one [`ShardMetrics`] behind its lock: plain counters
//! plus the latency accumulator every layer shares ([`HistogramSnapshot`]:
//! the log-bucketed `oc_stats::Histogram` with an exact sum and maximum).
//! Latency runs from the caller's stamp on a piece of work to the instant
//! it was applied. A connection stamps an observe chunk when it buffers
//! the chunk's first sample and does not stamp `PREDICT`/`ADMIT` at all
//! (they are computed on the spot, with nothing to wait in), so on a
//! live server this is the **observe coalescing delay**: first sample
//! buffered → chunk applied, the wait for the shard's lock included.
//!
//! Snapshots from all shards merge bucket for bucket and are summarized
//! into the wire-level [`StatsSnapshot`]. p50/p99 are read off the merged
//! buckets, each within one bucket (≈ 3 %) of the sample at its rank
//! whether that sample took microseconds or seconds; mean and max are
//! exact.

use crate::proto::StatsSnapshot;
use oc_telemetry::metrics::HistogramSnapshot;
use std::time::Duration;

/// One shard's counters. Cheap to update on every request.
#[derive(Debug, Clone, Default)]
pub struct ShardMetrics {
    /// Samples ingested into machine state.
    pub observes: u64,
    /// Predictions served.
    pub predicts: u64,
    /// Admission checks served.
    pub admits: u64,
    /// Samples rejected as stale.
    pub stale: u64,
    /// Other errors (gap, invalid sample, unknown machine).
    pub errors: u64,
    /// Machines with live state (filled in at snapshot time).
    pub machines: u64,
    /// Injected faults (filled in at the server from the connection
    /// layer's [`crate::fault::FaultCounters`]; always 0 at shard level).
    pub faults: u64,
    /// Idle-deadline connection closes (filled in at the server; always 0
    /// at shard level).
    pub timeouts: u64,
    /// Connections rejected at the max-connections cap (filled in at the
    /// server; always 0 at shard level).
    pub conn_rejects: u64,
    /// Stamp-to-applied latencies, microseconds: one sample per observe
    /// outcome (first sample buffered in its chunk → applied), plus one
    /// per `Predict`/`Admit` that came in as a stamped
    /// [`ShardMsg`](crate::shard::ShardMsg).
    pub latency: HistogramSnapshot,
}

impl ShardMetrics {
    /// Records one service latency.
    pub fn record_latency(&mut self, d: Duration) {
        self.record_latency_n(d, 1);
    }

    /// Records `n` samples of the same service latency in one bucket
    /// update — a coalesced chunk's items all share one stamp.
    pub fn record_latency_n(&mut self, d: Duration, n: u64) {
        self.latency.record_n(d.as_secs_f64() * 1e6, n);
    }

    /// Merges another shard's metrics into this one.
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.observes += other.observes;
        self.predicts += other.predicts;
        self.admits += other.admits;
        self.stale += other.stale;
        self.errors += other.errors;
        self.machines += other.machines;
        self.faults += other.faults;
        self.timeouts += other.timeouts;
        self.conn_rejects += other.conn_rejects;
        self.latency.merge(&other.latency);
    }

    /// Summarizes into the wire snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            observes: self.observes,
            predicts: self.predicts,
            admits: self.admits,
            // Reserved: this server never answers `BUSY`.
            busy: 0,
            stale: self.stale,
            errors: self.errors,
            machines: self.machines,
            faults: self.faults,
            timeouts: self.timeouts,
            conn_rejects: self.conn_rejects,
            // Stamped by the server (`Shared::epoch`); shard metrics have
            // no identity of their own.
            epoch: 0,
            p50_us: self.latency.quantile(50.0),
            p99_us: self.latency.quantile(99.0),
            mean_us: self.latency.mean(),
            max_us: self.latency.max_or_zero(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_come_from_histogram() {
        let mut m = ShardMetrics::default();
        for us in 1..=100u64 {
            m.record_latency(Duration::from_micros(us));
        }
        let s = m.snapshot();
        assert!((s.p50_us - 50.0).abs() < 6.0, "p50 {}", s.p50_us);
        assert!((s.p99_us - 99.0).abs() < 6.0, "p99 {}", s.p99_us);
        assert!((s.mean_us - 50.5).abs() < 1.0);
        assert!((s.max_us - 100.0).abs() < 1.0);
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = ShardMetrics::default();
        let mut b = ShardMetrics::default();
        a.observes = 10;
        a.machines = 2;
        b.observes = 5;
        b.stale = 1;
        b.machines = 3;
        a.record_latency(Duration::from_micros(10));
        b.record_latency(Duration::from_micros(30));
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.observes, 15);
        assert_eq!(s.stale, 1);
        assert_eq!(s.machines, 5);
        assert_eq!(s.busy, 0);
        assert!(s.max_us >= 30.0);
    }

    /// The `cluster-1m` reading (`server_p50_us == server_p99_us ==
    /// max`): 900 of 1 000 latencies between 50 ms and 5 s used to
    /// overflow a 20 ms range and every quantile became the maximum. Each
    /// percentile must stay within one bucket of the exact one over the
    /// same samples (plus the 0.5 % step between neighbouring samples the
    /// exact percentile interpolates across), and the maximum exact.
    #[test]
    fn heavy_tail_keeps_its_percentiles() {
        let spaced = |lo: f64, hi: f64, n: usize| {
            (0..n).map(move |i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        };
        let samples_us: Vec<f64> = spaced(100.0, 10_000.0, 100)
            .chain(spaced(50_000.0, 5_000_000.0, 900))
            .map(f64::round)
            .collect();
        let mut m = ShardMetrics::default();
        for &us in &samples_us {
            m.record_latency(Duration::from_micros(us as u64));
        }
        let s = m.snapshot();
        assert!(
            s.p50_us < s.p99_us && s.p99_us <= s.max_us,
            "p50 {} p99 {} max {}",
            s.p50_us,
            s.p99_us,
            s.max_us
        );
        assert_eq!(s.max_us, 5_000_000.0);
        let tolerance = oc_stats::Histogram::BUCKET_WIDTH + 0.006;
        for (p, got) in [(50.0, s.p50_us), (99.0, s.p99_us)] {
            let exact = oc_stats::percentile_slice(&samples_us, p).unwrap();
            assert!(
                (got - exact).abs() <= exact * tolerance,
                "p{p}: {got} vs exact {exact}"
            );
        }
    }

    /// Regression for the impossible cluster-1m pair (mean 264 ms, p99
    /// 14 ms): a quantile that ignores the slow majority reports the fast
    /// minority as p99 while the exact mean counts everything. Every
    /// sample is bucketed wherever it lands, so mean <= p99 <= max — and
    /// the merged snapshot stays inside the merged min/max, per shard and
    /// across members.
    #[test]
    fn heavy_tail_keeps_mean_at_or_below_p99_across_a_merge() {
        let mut a = ShardMetrics::default();
        let mut b = ShardMetrics::default();
        // Shard a: a fast minority and a slow majority.
        for _ in 0..100 {
            a.record_latency(Duration::from_micros(200));
        }
        for _ in 0..400 {
            a.record_latency(Duration::from_millis(250));
        }
        // Shard b: an even slower tail.
        for _ in 0..50 {
            b.record_latency(Duration::from_micros(900));
        }
        for _ in 0..100 {
            b.record_latency(Duration::from_millis(800));
        }
        for (m, max) in [(&a, 250_000.0), (&b, 800_000.0)] {
            let s = m.snapshot();
            assert!(
                s.mean_us <= s.p99_us,
                "mean {} above p99 {}",
                s.mean_us,
                s.p99_us
            );
            assert!((s.max_us - max).abs() < 2_000.0);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let s = merged.snapshot();
        assert!(s.p50_us <= s.p99_us && s.p99_us <= s.max_us);
        assert!(
            s.mean_us <= s.p99_us,
            "merged mean {} above merged p99 {}",
            s.mean_us,
            s.p99_us
        );
        // Mean must lie within the merged distribution's support.
        assert!(s.mean_us >= 200.0 && s.mean_us <= s.max_us);
    }
}
