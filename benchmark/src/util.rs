//! The benchmark's own arithmetic: medians, quantiles and a log-bucketed
//! latency histogram. Kept free of product code so a product change can
//! never change how a number is computed.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` in `[0, 1]` with linear interpolation between the two
/// nearest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sub-buckets per power of two: 1024 gives buckets at most 0.1 % wide,
/// far below the run-to-run spread of any latency on this host.
const SUB_BUCKETS: usize = 1024;
/// Mantissa bits below the sub-bucket index.
const SHIFT: u32 = 52 - SUB_BUCKETS.trailing_zeros();
/// Powers of two covered, from 1/16 µs to ~4.7 hours in microseconds.
const OCTAVES: usize = 38;
/// `log2` of the smallest resolved value (1/16 µs).
const MIN_EXP: i32 = -4;

/// Log-bucketed histogram of latencies in microseconds with exact count,
/// maximum and a count of samples at or below a fixed limit.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    max: f64,
    limit: f64,
    within_limit: u64,
}

impl LogHist {
    /// An empty histogram counting samples `<= limit_us` as within limit.
    pub fn new(limit_us: f64) -> LogHist {
        LogHist {
            buckets: vec![0; OCTAVES * SUB_BUCKETS],
            count: 0,
            max: 0.0,
            limit: limit_us,
            within_limit: 0,
        }
    }

    /// Bucket of `x`: the exponent and the top mantissa bits of the float,
    /// so a push costs a shift, not a logarithm.
    fn index(x: f64) -> usize {
        if !(x >= 2f64.powi(MIN_EXP)) {
            return 0;
        }
        let key = (x.to_bits() >> SHIFT) as usize;
        let base = ((1023 + MIN_EXP) as usize) * SUB_BUCKETS;
        (key - base).min(OCTAVES * SUB_BUCKETS - 1)
    }

    /// Lower edge of bucket `i`.
    fn edge(i: usize) -> f64 {
        let octave = 2f64.powi(MIN_EXP + (i / SUB_BUCKETS) as i32);
        octave * (1.0 + (i % SUB_BUCKETS) as f64 / SUB_BUCKETS as f64)
    }

    /// Records one latency shared by `n` ops (a call or a frame that
    /// carried `n` of them).
    #[inline]
    pub fn push_n(&mut self, us: f64, n: u64) {
        self.buckets[LogHist::index(us)] += n;
        self.count += n;
        if us > self.max {
            self.max = us;
        }
        if us <= self.limit {
            self.within_limit += n;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples at or below the limit.
    pub fn within_limit(&self) -> u64 {
        self.within_limit
    }

    /// Exact maximum (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Quantile `q` in `[0, 1]`, interpolated inside the bucket the rank
    /// lands in and never above the exact maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0.0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n as f64 >= rank {
                let frac = ((rank - seen) / n as f64).clamp(0.0, 1.0);
                let (lo, hi) = (LogHist::edge(i), LogHist::edge(i + 1));
                return (lo + (hi - lo) * frac).min(self.max);
            }
            seen += n as f64;
        }
        self.max
    }
}

/// Seeded 64-bit mixer (splitmix64): the benchmark's only source of
/// pseudo-randomness, so inputs are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert!((quantile(&v, 0.9) - 46.0).abs() < 1e-9);
    }

    #[test]
    fn log_hist_quantiles_are_within_one_bucket() {
        let mut h = LogHist::new(500.0);
        for i in 1..=1000 {
            h.push_n(f64::from(i), 1);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000.0);
        assert_eq!(h.within_limit(), 500);
        for (q, exact) in [(0.5, 500.0), (0.99, 990.0), (0.1, 100.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.002,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn log_hist_handles_extremes() {
        let mut h = LogHist::new(10.0);
        h.push_n(0.0, 1);
        h.push_n(1e12, 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1e12);
        assert_eq!(h.within_limit(), 1);
        assert_eq!(LogHist::new(1.0).quantile(0.5), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let f = a.next_f64();
            b.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(a.below(7) < 7);
            b.below(7);
        }
    }
}
