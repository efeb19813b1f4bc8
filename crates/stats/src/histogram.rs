//! The log-bucketed histogram: one fixed shape, fixed relative error.

/// Sub-buckets per power of two.
const SUB_BUCKETS: usize = 32;
/// Mantissa bits below the sub-bucket index.
const SHIFT: u32 = 52 - SUB_BUCKETS.trailing_zeros();
/// `log2` of the smallest resolved value.
const MIN_EXP: i32 = -4;
/// The smallest resolved value, `2^MIN_EXP`: the first bucket's left edge.
const FIRST_EDGE: f64 = 1.0 / 16.0;
/// Powers of two resolved, `2^MIN_EXP .. 2^(MIN_EXP + OCTAVES)`.
const OCTAVES: usize = 38;
/// Buckets in every histogram.
const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A histogram of non-negative magnitudes with one shape for every
/// caller: each power of two from 1/16 to 2^34 is cut into 32 equal
/// buckets, so a bucket is at most [`Histogram::BUCKET_WIDTH`] (≈ 3 %)
/// of the values it holds. Recording microseconds, that resolves 62.5 ns
/// to 4.7 hours in under 10 KiB, and any two histograms merge.
///
/// The bucket of a value is read off its float representation (exponent
/// and top five mantissa bits), so a [`push`](Histogram::push) costs a
/// shift, not a logarithm. Values below the first edge — negatives and
/// NaN with them — are counted in [`underflow`](Histogram::underflow)
/// and read as 0; values past the last edge count in the last bucket.
///
/// This is the service's latency ruler: `oc-telemetry` pairs it with an
/// exact sum and maximum, and every latency the server or a load driver
/// reports is read through that pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    underflow: u64,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Widest a bucket gets relative to its left edge (`1/32`): the
    /// bound on how far a [`quantile`](Histogram::quantile) can sit from
    /// the sample whose bucket it landed in.
    pub const BUCKET_WIDTH: f64 = 1.0 / SUB_BUCKETS as f64;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            underflow: 0,
            total: 0,
        }
    }

    /// Bucket of `x`, or `None` below the first edge (negatives, NaN).
    fn index(x: f64) -> Option<usize> {
        if !(x >= FIRST_EDGE) {
            return None;
        }
        let key = (x.to_bits() >> SHIFT) as usize;
        let base = ((1023 + MIN_EXP) as usize) * SUB_BUCKETS;
        Some((key - base).min(BUCKETS - 1))
    }

    /// Left edge of bucket `i` (`i == BUCKETS` is the last right edge).
    fn edge(i: usize) -> f64 {
        let octave = 2f64.powi(MIN_EXP + (i / SUB_BUCKETS) as i32);
        octave * (1.0 + (i % SUB_BUCKETS) as f64 * Histogram::BUCKET_WIDTH)
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        self.push_n(x, 1);
    }

    /// Records the same observation `n` times in one bucket update.
    pub fn push_n(&mut self, x: f64, n: u64) {
        self.total += n;
        match Histogram::index(x) {
            Some(i) => self.buckets[i] += n,
            None => self.underflow += n,
        }
    }

    /// Observations below the first bucket (negative and NaN included).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations recorded, underflow included.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(left_edge, right_edge, count)` of every bucket, lowest first.
    /// Edges are contiguous and a value equal to a left edge counts in
    /// the bucket that edge opens.
    pub fn bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (Histogram::edge(i), Histogram::edge(i + 1), c))
    }

    /// Quantile over all recorded mass, `p` in `[0, 100]` (clamped);
    /// 0 when empty.
    ///
    /// The answer lies in the bucket that holds the sample of rank
    /// `p/100 · total`, interpolated as if the bucket's mass were spread
    /// evenly: within [`Histogram::BUCKET_WIDTH`] of that sample,
    /// whatever its magnitude. A rank inside the underflow mass
    /// answers 0.
    pub fn quantile(&self, p: f64) -> f64 {
        let rank = (p / 100.0).clamp(0.0, 1.0) * self.total as f64;
        let mut seen = self.underflow as f64;
        if self.total == 0 || (self.underflow > 0 && seen >= rank) {
            return 0.0;
        }
        let mut last = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (left, right) = (Histogram::edge(i), Histogram::edge(i + 1));
            if seen + c as f64 >= rank {
                let frac = ((rank - seen) / c as f64).clamp(0.0, 1.0);
                return left + frac * (right - left);
            }
            seen += c as f64;
            last = right;
        }
        // Only float rounding of `rank` gets here: the top of the mass.
        last
    }

    /// Adds another histogram's counts to this one, bucket for bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_covers_a_sixteenth_of_a_microsecond_to_hours() {
        let h = Histogram::new();
        let edges: Vec<(f64, f64, u64)> = h.bins().collect();
        assert_eq!(edges.len(), BUCKETS);
        assert_eq!(edges[0].0, FIRST_EDGE);
        assert_eq!(edges[BUCKETS - 1].1, 2f64.powi(34));
        // An hour of microseconds is resolved, not clamped.
        assert!(edges[BUCKETS - 1].0 > 3.6e9);
        for (left, right, _) in edges {
            assert!((right - left) / left <= Histogram::BUCKET_WIDTH);
        }
    }

    #[test]
    fn out_of_range_values_are_counted_not_dropped() {
        let mut h = Histogram::new();
        for x in [-1.0, f64::NAN, 0.0, 0.01] {
            h.push(x);
        }
        h.push_n(f64::INFINITY, 2);
        h.push(1e300);
        assert_eq!(h.underflow(), 4);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bins().last().unwrap().2, 3);
        assert_eq!(h.quantile(50.0), 0.0, "rank 3.5 of 7 is underflow mass");
        assert!(h.quantile(100.0) <= 2f64.powi(34));
    }

    #[test]
    fn quantile_stays_in_the_bucket_of_its_rank() {
        let mut h = Histogram::new();
        for _ in 0..7 {
            h.push(42.5);
        }
        let (left, right, _) = h.bins().find(|&(_, _, c)| c == 7).unwrap();
        assert!(left <= 42.5 && 42.5 < right);
        for p in [-5.0, 0.0, 50.0, 99.0, 100.0, 250.0] {
            let q = h.quantile(p);
            assert!((left..=right).contains(&q), "p{p}: {q}");
        }
        assert_eq!(Histogram::new().quantile(50.0), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.push_n(3.0, 2);
        a.push(-1.0);
        b.push(3.0);
        b.push(5e6);
        a.merge(&b);
        let mut both = Histogram::new();
        both.push_n(3.0, 3);
        both.push(-1.0);
        both.push(5e6);
        assert_eq!(a, both);
    }
}
