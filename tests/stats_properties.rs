//! Property-based tests for the statistics substrate.

use overcommit_repro::stats::{
    ols, pearson, percentile_slice, spearman, Ecdf, MovingWindow, Welford,
};
use proptest::prelude::*;

fn samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, 1..200)
}

proptest! {
    /// Welford matches the naive two-pass mean/variance.
    #[test]
    fn welford_matches_naive(xs in samples()) {
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((w.population_variance() - var).abs() < 1e-6 * (1.0 + var));
        prop_assert_eq!(w.count(), xs.len() as u64);
    }

    /// Merging two Welford accumulators equals accumulating the
    /// concatenation.
    #[test]
    fn welford_merge_is_concatenation(a in samples(), b in samples()) {
        let mut wa = Welford::new();
        wa.extend(a.iter().copied());
        let mut wb = Welford::new();
        wb.extend(b.iter().copied());
        wa.merge(&wb);
        let mut all = Welford::new();
        all.extend(a.iter().chain(b.iter()).copied());
        prop_assert!((wa.mean() - all.mean()).abs() < 1e-8 * (1.0 + all.mean().abs()));
        prop_assert!(
            (wa.population_variance() - all.population_variance()).abs()
                < 1e-6 * (1.0 + all.population_variance())
        );
        prop_assert_eq!(wa.count(), all.count());
        prop_assert_eq!(wa.max(), all.max());
    }

    /// The moving window over the full stream equals direct statistics of
    /// the tail.
    #[test]
    fn moving_window_is_suffix_stats(xs in samples(), cap in 1usize..50) {
        let mut w = MovingWindow::new(cap).unwrap();
        for &x in &xs {
            w.push(x);
        }
        let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-8 * (1.0 + mean.abs()));
        prop_assert_eq!(w.len(), tail.len());
        prop_assert_eq!(w.last(), tail.last().copied());
        let wmax = w.max().expect("window is non-empty");
        let tmax = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(wmax, tmax);
    }

    /// Percentiles are monotone in `p`, bounded by min/max, and exact at
    /// the endpoints.
    #[test]
    fn percentile_monotone_and_bounded(xs in samples()) {
        let lo = percentile_slice(&xs, 0.0).unwrap();
        let hi = percentile_slice(&xs, 100.0).unwrap();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
        let mut last = lo;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let v = percentile_slice(&xs, p).unwrap();
            prop_assert!(v + 1e-12 >= last);
            prop_assert!(v >= min && v <= max);
            last = v;
        }
    }

    /// The ECDF is a proper distribution function: prob_le is monotone,
    /// hits 0 below the min and 1 at the max, and quantile inverts it.
    #[test]
    fn ecdf_is_a_cdf(xs in samples()) {
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let e = Ecdf::new(xs).unwrap();
        prop_assert_eq!(e.prob_le(min - 1.0), 0.0);
        prop_assert_eq!(e.prob_le(max), 1.0);
        let mut last = 0.0;
        let step = (max - min) / 7.0;
        if step > 0.0 {
            for k in 0..8 {
                let p = e.prob_le(min + step * k as f64);
                prop_assert!(p >= last);
                last = p;
            }
        }
        // Interpolated quantiles sit between order statistics, so the
        // step CDF at the quantile may undershoot by at most one sample.
        let slack = 1.0 / e.len() as f64 + 1e-12;
        for q in [0.1, 0.5, 0.9] {
            let x = e.quantile(q).unwrap();
            prop_assert!(e.prob_le(x) + slack >= q);
        }
    }

    /// Pearson is exactly ±1 on affine relationships; Spearman is
    /// invariant under strictly monotone transforms.
    #[test]
    fn correlation_laws(
        xs in proptest::collection::vec(-50.0f64..50.0, 3..100),
        a in 0.1f64..5.0,
        b in -10.0f64..10.0,
    ) {
        // Need variation for correlation to exist.
        let spread = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-6);
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        prop_assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-6);
        let neg: Vec<f64> = xs.iter().map(|&x| -a * x + b).collect();
        prop_assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-6);

        // Monotone transform: exp(x/50) preserves ranks.
        let zs: Vec<f64> = xs.iter().map(|&x| (x / 50.0).exp()).collect();
        let s1 = spearman(&xs, &ys).unwrap();
        let s2 = spearman(&zs, &ys).unwrap();
        prop_assert!((s1 - s2).abs() < 1e-9);
    }

    /// OLS recovers exact affine coefficients.
    #[test]
    fn ols_recovers_lines(
        xs in proptest::collection::vec(-50.0f64..50.0, 3..80),
        slope in -5.0f64..5.0,
        intercept in -10.0f64..10.0,
    ) {
        let spread = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-3);
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let fit = ols(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        prop_assert!((fit.predict(1.0) - (slope + intercept)).abs() < 1e-5);
    }
}

/// Error paths behave: empty inputs and mismatched lengths are rejected,
/// never panicking.
#[test]
fn error_paths() {
    assert!(percentile_slice(&[], 50.0).is_err());
    assert!(percentile_slice(&[1.0], -1.0).is_err());
    assert!(percentile_slice(&[1.0], 101.0).is_err());
    assert!(Ecdf::new(vec![]).is_err());
    assert!(Ecdf::new(vec![f64::NAN]).is_err());
    assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
    assert!(spearman(&[], &[]).is_err());
    assert!(ols(&[1.0, 1.0], &[2.0, 3.0]).is_err()); // Degenerate x.
    assert!(MovingWindow::new(0).is_err());
}
