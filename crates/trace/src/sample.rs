//! Per-tick usage summaries, mirroring the trace's within-window histogram.

use crate::error::TraceError;
use crate::time::SUBSAMPLES_PER_TICK;

/// Summary of one task's CPU usage within one 5-minute tick.
///
/// Trace v3 reports a distribution of instantaneous usage per window rather
/// than a single number. Here the window is the tick's
/// [`SUBSAMPLES_PER_TICK`] instantaneous points, summarised by
/// [`UsageSample::from_subsamples`]; predictors and oracles pick which field
/// of the summary to consume (the paper uses the 90th percentile as a
/// conservative machine-peak estimator, Figure 6). All values are in
/// normalized machine capacity units and are already capped at the task's
/// limit, as Borg's machine-level enforcement would do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageSample {
    /// Mean usage over the window.
    pub avg: f64,
    /// Median instantaneous usage.
    pub p50: f64,
    /// 90th percentile instantaneous usage.
    pub p90: f64,
    /// 95th percentile instantaneous usage.
    pub p95: f64,
    /// 99th percentile instantaneous usage.
    pub p99: f64,
    /// Maximum instantaneous usage (the task-level within-window peak).
    pub max: f64,
}

/// Which field of a [`UsageSample`] a consumer reads.
///
/// The simulator's `metric` configuration (the artifact's "choose the metric
/// a user wants to use for predicting the peak resource usage").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UsageMetric {
    /// Window average.
    Avg,
    /// Median.
    P50,
    /// 90th percentile — the paper's default machine-peak estimator.
    #[default]
    P90,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// Window maximum.
    Max,
}

impl UsageMetric {
    /// Reads the selected field from a sample.
    pub fn of(self, s: &UsageSample) -> f64 {
        match self {
            UsageMetric::Avg => s.avg,
            UsageMetric::P50 => s.p50,
            UsageMetric::P90 => s.p90,
            UsageMetric::P95 => s.p95,
            UsageMetric::P99 => s.p99,
            UsageMetric::Max => s.max,
        }
    }

    /// All metric variants, for sweeps.
    pub fn all() -> [UsageMetric; 6] {
        [
            UsageMetric::Avg,
            UsageMetric::P50,
            UsageMetric::P90,
            UsageMetric::P95,
            UsageMetric::P99,
            UsageMetric::Max,
        ]
    }

    /// A short stable name, used in CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            UsageMetric::Avg => "avg",
            UsageMetric::P50 => "p50",
            UsageMetric::P90 => "p90",
            UsageMetric::P95 => "p95",
            UsageMetric::P99 => "p99",
            UsageMetric::Max => "max",
        }
    }

    /// Reads an arbitrary percentile `p in [0, 100]` by interpolating the
    /// stored summary points (0→min treated as p50 floor, 50, 90, 95, 99,
    /// 100→max). The RC-like predictor sweeps percentiles that may fall
    /// between stored points.
    pub fn interpolate(s: &UsageSample, p: f64) -> f64 {
        // Piecewise-linear through the stored quantiles. Below the median we
        // only know avg/p50; clamp to p50 which is conservative enough for
        // the sweeps the paper runs (80..=100).
        let pts = [
            (50.0, s.p50),
            (90.0, s.p90),
            (95.0, s.p95),
            (99.0, s.p99),
            (100.0, s.max),
        ];
        if p <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if p <= x1 {
                let f = (p - x0) / (x1 - x0);
                return y0 + (y1 - y0) * f;
            }
        }
        s.max
    }
}

impl UsageSample {
    /// A zero sample (task absent or idle).
    pub const ZERO: UsageSample = UsageSample {
        avg: 0.0,
        p50: 0.0,
        p90: 0.0,
        p95: 0.0,
        p99: 0.0,
        max: 0.0,
    };

    /// Summarizes one tick's window of instantaneous usage points.
    ///
    /// A stack copy of the window is sorted by a fixed sorting network, the
    /// four percentiles are read from it by
    /// [`oc_stats::percentile_of_sorted`]'s linear interpolation, and the
    /// mean is summed in the window's own order. Nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InconsistentTask`] if a point is not finite.
    pub fn from_subsamples(points: &[f64; SUBSAMPLES_PER_TICK]) -> Result<UsageSample, TraceError> {
        if points.iter().any(|p| !p.is_finite()) {
            return Err(TraceError::InconsistentTask {
                what: "usage window contains a non-finite subsample".into(),
            });
        }
        let mut sorted = *points;
        sort_window(&mut sorted);
        let pct = |p: f64| -> f64 {
            oc_stats::percentile_of_sorted(&sorted, p).expect("non-empty, valid percentile")
        };
        Ok(UsageSample {
            avg: points.iter().sum::<f64>() / SUBSAMPLES_PER_TICK as f64,
            p50: pct(50.0),
            p90: pct(90.0),
            p95: pct(95.0),
            p99: pct(99.0),
            max: sorted[SUBSAMPLES_PER_TICK - 1],
        })
    }

    /// Whether the summary is internally consistent
    /// (`0 <= avg <= max`, percentiles monotone).
    pub fn is_consistent(&self) -> bool {
        0.0 <= self.avg
            && self.avg <= self.max
            && self.p50 <= self.p90
            && self.p90 <= self.p95
            && self.p95 <= self.p99
            && self.p99 <= self.max
            && self.p50 >= 0.0
    }
}

/// Sorts one window ascending with a fixed comparator network: Batcher's
/// odd-even merge sort for 16 inputs, less the comparators on the 16th wire
/// (which would hold +inf and never move). 59 compare-exchanges in 10
/// layers, each a branch-free min/max pair on a local copy of the window,
/// which the compiler keeps in registers.
///
/// For finite points the result equals a comparison sort's to the bit,
/// except that the network may order `-0.0` and `+0.0` differently; no
/// caller produces `-0.0` (see the test module).
fn sort_window(v: &mut [f64; SUBSAMPLES_PER_TICK]) {
    const _: () = assert!(SUBSAMPLES_PER_TICK == 15, "the network sorts 15 points");
    let mut w = *v;
    macro_rules! network {
        ($($a:literal $b:literal),*) => {$(
            let (x, y) = (w[$a], w[$b]);
            w[$a] = if y < x { y } else { x };
            w[$b] = if x > y { x } else { y };
        )*};
    }
    network! {
        0 1, 2 3, 0 2, 1 3, 1 2, 4 5, 6 7, 4 6, 5 7, 5 6,
        0 4, 2 6, 2 4, 1 5, 3 7, 3 5, 1 2, 3 4, 5 6, 8 9,
        10 11, 8 10, 9 11, 9 10, 12 13, 12 14, 13 14, 8 12, 10 14, 10 12,
        9 13, 11 13, 9 10, 11 12, 13 14, 0 8, 4 12, 4 8, 2 10, 6 14,
        6 10, 2 4, 6 8, 10 12, 1 9, 5 13, 5 9, 3 11, 7 11, 3 5,
        7 9, 11 13, 1 2, 3 4, 5 6, 7 8, 9 10, 11 12, 13 14
    }
    *v = w;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summary as it was computed before the sorting network: a heap
    /// copy sorted by comparison. Kept as the oracle the network must match
    /// to the bit.
    fn summary_by_comparison_sort(points: &[f64]) -> UsageSample {
        let mut sorted = points.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |p: f64| oc_stats::percentile_of_sorted(&sorted, p).unwrap();
        UsageSample {
            avg: points.iter().sum::<f64>() / points.len() as f64,
            p50: pct(50.0),
            p90: pct(90.0),
            p95: pct(95.0),
            p99: pct(99.0),
            max: *sorted.last().unwrap(),
        }
    }

    fn bits(s: &UsageSample) -> [u64; 6] {
        [s.avg, s.p50, s.p90, s.p95, s.p99, s.max].map(f64::to_bits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        /// On any finite window the stack summary is bit-equal to the
        /// comparison-sort oracle, field by field.
        ///
        /// No drawn point is `-0.0`, the one finite value on which the
        /// network and a comparison sort may disagree in bits (they can
        /// order `-0.0` and `+0.0` differently). Neither caller produces it:
        /// the generator's points are `(util + jitter).clamp(0.0, 1.0) *
        /// limit` with `util >= 0.01` and a positive limit, so a zero is
        /// `+0.0`; `SimMachine::advance` multiplies such a point by a scale
        /// that is a quotient of positive values, `1.0`, or `+0.0`.
        ///
        /// Each point is one of four kinds, so windows carry runs of zeros
        /// and ties: `0.0`, a quarter step in `0..=2`, a fraction of a
        /// limit, or a wide-range magnitude.
        #[test]
        fn stack_summary_matches_comparison_sort(
            draws in proptest::collection::vec((0u32..4, 0.0f64..1.0), SUBSAMPLES_PER_TICK),
        ) {
            let points: [f64; SUBSAMPLES_PER_TICK] = std::array::from_fn(|i| {
                let (kind, x) = draws[i];
                match kind {
                    0 => 0.0,
                    1 => (x * 8.0).floor() / 4.0,
                    2 => x * 0.2,
                    _ => x * 1e6,
                }
            });
            let fast = UsageSample::from_subsamples(&points).unwrap();
            let oracle = summary_by_comparison_sort(&points);
            proptest::prop_assert_eq!(bits(&fast), bits(&oracle), "window {:?}", points);
        }
    }

    /// The network sorts every 0/1 window, hence (by the 0-1 principle)
    /// every window.
    #[test]
    fn network_sorts_every_zero_one_window() {
        for mask in 0u32..1 << SUBSAMPLES_PER_TICK {
            let mut v = std::array::from_fn(|i| f64::from((mask >> i) & 1));
            sort_window(&mut v);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "mask {mask:#x}: {v:?}");
        }
    }

    #[test]
    fn summarizes_window() {
        // 1..=15, shuffled. Sorted ranks are p/100 * 14: p50 -> 7 (the
        // value 8), p90 -> 12.6 (13.6), p95 -> 13.3 (14.3), p99 -> 13.86
        // (14.86).
        let pts = [
            9.0, 2.0, 15.0, 4.0, 11.0, 1.0, 13.0, 6.0, 8.0, 3.0, 14.0, 10.0, 5.0, 12.0, 7.0,
        ];
        let s = UsageSample::from_subsamples(&pts).unwrap();
        assert_eq!(s.avg, 8.0);
        assert_eq!(s.p50, 8.0);
        assert!((s.p90 - 13.6).abs() < 1e-9);
        assert!((s.p95 - 14.3).abs() < 1e-9);
        assert!((s.p99 - 14.86).abs() < 1e-9);
        assert_eq!(s.max, 15.0);
        assert!(s.is_consistent());
    }

    #[test]
    fn rejects_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut pts = [1.0; SUBSAMPLES_PER_TICK];
            pts[SUBSAMPLES_PER_TICK - 1] = bad;
            assert!(UsageSample::from_subsamples(&pts).is_err());
        }
    }

    #[test]
    fn metric_selection() {
        let s = UsageSample {
            avg: 1.0,
            p50: 2.0,
            p90: 3.0,
            p95: 4.0,
            p99: 5.0,
            max: 6.0,
        };
        assert_eq!(UsageMetric::Avg.of(&s), 1.0);
        assert_eq!(UsageMetric::P90.of(&s), 3.0);
        assert_eq!(UsageMetric::Max.of(&s), 6.0);
        assert_eq!(UsageMetric::default(), UsageMetric::P90);
    }

    #[test]
    fn interpolation_hits_anchors_and_midpoints() {
        let s = UsageSample {
            avg: 0.0,
            p50: 10.0,
            p90: 20.0,
            p95: 30.0,
            p99: 40.0,
            max: 50.0,
        };
        assert_eq!(UsageMetric::interpolate(&s, 50.0), 10.0);
        assert_eq!(UsageMetric::interpolate(&s, 90.0), 20.0);
        assert_eq!(UsageMetric::interpolate(&s, 100.0), 50.0);
        assert!((UsageMetric::interpolate(&s, 70.0) - 15.0).abs() < 1e-12);
        assert!((UsageMetric::interpolate(&s, 97.0) - 35.0).abs() < 1e-12);
        // Below the median clamps to p50.
        assert_eq!(UsageMetric::interpolate(&s, 10.0), 10.0);
    }

    #[test]
    fn zero_sample_is_consistent() {
        assert!(UsageSample::ZERO.is_consistent());
    }

    #[test]
    fn metric_names_unique() {
        let names: std::collections::HashSet<_> =
            UsageMetric::all().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
