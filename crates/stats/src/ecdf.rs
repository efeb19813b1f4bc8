//! Empirical cumulative distribution functions.

use crate::error::StatsError;
use crate::percentile::percentile_of_sorted;

/// An empirical CDF over a finite sample.
///
/// Nearly every figure in the paper is a CDF over machines, tasks or time
/// instants; this type is the common currency between the simulator and the
/// experiment harness. Construction sorts once; queries are O(log n).
///
/// # Examples
///
/// ```
/// use oc_stats::Ecdf;
///
/// let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
/// assert_eq!(cdf.prob_le(2.0), 0.75);
/// assert_eq!(cdf.prob_le(0.5), 0.0);
/// assert_eq!(cdf.quantile(1.0).unwrap(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (order irrelevant).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] for an empty sample and
    /// [`StatsError::NonFinite`] if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Result<Self, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        if samples.iter().any(|x| x.is_nan()) {
            return Err(StatsError::NonFinite);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        Ok(Ecdf { sorted: samples })
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `P(X <= x)`.
    pub fn prob_le(&self, x: f64) -> f64 {
        // partition_point returns the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value `v` with `P(X <= v) >= q`,
    /// interpolated linearly between order statistics.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `0 <= q <= 1`.
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::InvalidParameter {
                what: "quantile must be in [0, 1]",
            });
        }
        percentile_of_sorted(&self.sorted, q * 100.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Yields `(x, P(X <= x))` points suitable for plotting the CDF as a
    /// step function: one point per sample, cumulative probability at each.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_nan() {
        assert_eq!(Ecdf::new(vec![]).unwrap_err(), StatsError::Empty);
        assert_eq!(
            Ecdf::new(vec![1.0, f64::NAN]).unwrap_err(),
            StatsError::NonFinite
        );
    }

    #[test]
    fn prob_le_step_behavior() {
        let cdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(cdf.prob_le(0.0), 0.0);
        assert_eq!(cdf.prob_le(1.0), 0.25);
        assert_eq!(cdf.prob_le(2.5), 0.5);
        assert_eq!(cdf.prob_le(4.0), 1.0);
        assert_eq!(cdf.prob_le(9.0), 1.0);
    }

    #[test]
    fn quantile_bounds() {
        let cdf = Ecdf::new(vec![5.0, 1.0, 3.0]).unwrap();
        assert_eq!(cdf.quantile(0.0).unwrap(), 1.0);
        assert_eq!(cdf.quantile(1.0).unwrap(), 5.0);
        assert_eq!(cdf.quantile(0.5).unwrap(), 3.0);
        assert!(cdf.quantile(1.5).is_err());
    }

    #[test]
    fn duplicates_accumulate() {
        let cdf = Ecdf::new(vec![2.0, 2.0, 2.0, 8.0]).unwrap();
        assert_eq!(cdf.prob_le(2.0), 0.75);
        assert_eq!(cdf.prob_le(1.9), 0.0);
    }

    #[test]
    fn points_are_monotone() {
        let cdf = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]).unwrap();
        let pts: Vec<_> = cdf.points().collect();
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn summary_stats() {
        let cdf = Ecdf::new(vec![4.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 4.0);
        assert_eq!(cdf.mean(), 2.5);
        assert_eq!(cdf.len(), 4);
    }
}
