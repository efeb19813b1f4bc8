//! Streaming mean / variance via Welford's online algorithm.

/// Numerically stable streaming accumulator for count, mean, variance,
/// minimum and maximum.
///
/// Welford's algorithm avoids the catastrophic cancellation that the naive
/// `E[x^2] - E[x]^2` formula suffers from when the mean is large relative to
/// the spread — exactly the regime of machine-level CPU usage series.
///
/// # Examples
///
/// ```
/// use oc_stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert!((w.population_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every observation in `xs`.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Merges another accumulator into this one (Chan's parallel formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no observation has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; `0.0` for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divide by `n`); `0.0` with fewer than 1 sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Minimum observation; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_var(xs: &[f64]) -> f64 {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n
    }

    #[test]
    fn empty_is_safe() {
        let w = Welford::new();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut w = Welford::new();
        w.push(42.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.population_variance(), 0.0);
        assert_eq!(w.min(), 42.0);
        assert_eq!(w.max(), 42.0);
    }

    #[test]
    fn matches_naive_formula() {
        let xs = [1.5, 2.5, 2.5, 2.75, 3.25, 4.75];
        let mut w = Welford::new();
        w.extend(xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.population_variance() - naive_var(&xs)).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0];
        let mut left = Welford::new();
        left.extend(a);
        let mut right = Welford::new();
        right.extend(b);
        left.merge(&right);

        let mut seq = Welford::new();
        seq.extend(a.iter().chain(b.iter()).copied());
        assert_eq!(left.count(), seq.count());
        assert!((left.mean() - seq.mean()).abs() < 1e-12);
        assert!((left.population_variance() - seq.population_variance()).abs() < 1e-12);
        assert_eq!(left.min(), seq.min());
        assert_eq!(left.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.extend([5.0, 6.0]);
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);

        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn stable_under_large_offset() {
        // The naive formula loses all precision here; Welford must not.
        let offset = 1e9;
        let xs: Vec<f64> = (0..1000).map(|i| offset + (i % 10) as f64).collect();
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        assert!((w.population_variance() - naive_var(&xs)).abs() < 1e-6);
    }
}
