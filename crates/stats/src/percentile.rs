//! Exact percentile estimation.
//!
//! The RC-like predictor is defined as a sum of per-task usage percentiles,
//! so percentile computation sits on the simulator's hot path.
//! [`percentile_slice`] / [`percentile_of_sorted`] are exact, with linear
//! interpolation between order statistics (the same convention as NumPy's
//! default `linear` method). They are used wherever the window is already
//! materialized (the per-task moving window is small by design).

use crate::error::StatsError;

/// Returns the `p`-th percentile (0..=100) of `sorted`, which must already be
/// ascending, using linear interpolation between closest ranks.
///
/// # Errors
///
/// Returns [`StatsError::Empty`] on an empty slice and
/// [`StatsError::InvalidParameter`] if `p` is outside `[0, 100]` or NaN.
///
/// # Examples
///
/// ```
/// use oc_stats::percentile_of_sorted;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_of_sorted(&xs, 0.0).unwrap(), 1.0);
/// assert_eq!(percentile_of_sorted(&xs, 100.0).unwrap(), 4.0);
/// assert_eq!(percentile_of_sorted(&xs, 50.0).unwrap(), 2.5);
/// ```
#[inline]
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> Result<f64, StatsError> {
    percentile_by_rank(sorted.len(), p, |i| sorted[i])
}

/// The `p`-th percentile of `n` ascending samples, reading the sample of
/// ascending rank `i` as `at(i)`: the one rank arithmetic behind
/// [`percentile_of_sorted`] and [`crate::TopKWindow::percentile`], so the
/// two read the same ranks and interpolate to the same bits.
#[inline]
pub(crate) fn percentile_by_rank(
    n: usize,
    p: f64,
    at: impl Fn(usize) -> f64,
) -> Result<f64, StatsError> {
    if n == 0 {
        return Err(StatsError::Empty);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter {
            what: "percentile must be in [0, 100]",
        });
    }
    if n == 1 {
        return Ok(at(0));
    }
    let (lo, hi, frac) = ranks(n, p);
    let below = at(lo);
    if lo == hi {
        return Ok(below);
    }
    Ok(below + (at(hi) - below) * frac)
}

/// The closest ranks `(lo, hi)` that the `p`-th percentile of `n ≥ 2`
/// ascending samples interpolates between, and the weight of `hi`.
///
/// For `p ∈ [0, 100]` the rank is non-negative, so truncating it is
/// `floor`, and it lies strictly between two ranks exactly when its
/// fraction is positive, so `hi` is `ceil`. The integer forms avoid
/// `f64::floor`/`f64::ceil`, which are library calls on targets without
/// SSE4.1 (the baseline x86-64 one), and give the same ranks and bits.
#[inline]
fn ranks(n: usize, p: f64) -> (usize, usize, f64) {
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank as usize;
    let frac = rank - lo as f64;
    (lo, lo + usize::from(frac > 0.0), frac)
}

/// How many of the largest samples the `p`-th percentile reads, at worst,
/// over every fill `n ∈ 1..=w` of a `w`-sample window: the depth a
/// [`crate::TopKWindow`] needs to answer it. Each fill is checked with the
/// rank arithmetic of [`percentile_of_sorted`] itself (no closed form), so
/// the bound holds for exactly the ranks a read computes. A `p` outside
/// `[0, 100]` reads nothing and needs depth 1; `w = 0` needs 0.
///
/// # Examples
///
/// ```
/// use oc_stats::percentile::percentile_depth;
///
/// assert_eq!(percentile_depth(99.0, 120), 3);
/// assert_eq!(percentile_depth(80.0, 120), 25);
/// assert_eq!(percentile_depth(100.0, 120), 1);
/// assert_eq!(percentile_depth(0.0, 120), 120);
/// ```
pub fn percentile_depth(p: f64, w: usize) -> usize {
    if !(0.0..=100.0).contains(&p) {
        return w.min(1);
    }
    (1..=w)
        .map(|n| if n == 1 { 1 } else { n - ranks(n, p).0 })
        .max()
        .unwrap_or(0)
}

/// Returns the `p`-th percentile (0..=100) of an unsorted slice.
///
/// Sorts a copy; prefer [`percentile_of_sorted`] when computing several
/// percentiles of the same data.
///
/// # Errors
///
/// Same as [`percentile_of_sorted`], plus [`StatsError::NonFinite`] if the
/// data contains NaN (which has no place in a sort order).
pub fn percentile_slice(xs: &[f64], p: f64) -> Result<f64, StatsError> {
    if xs.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    percentile_of_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile_of_sorted(&[], 50.0), Err(StatsError::Empty));
        assert!(matches!(
            percentile_of_sorted(&[1.0], -1.0),
            Err(StatsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            percentile_of_sorted(&[1.0], 101.0),
            Err(StatsError::InvalidParameter { .. })
        ));
        assert_eq!(
            percentile_slice(&[1.0, f64::NAN], 50.0),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_of_sorted(&xs, 25.0).unwrap(), 20.0);
        assert_eq!(percentile_of_sorted(&xs, 10.0).unwrap(), 14.0);
        assert_eq!(percentile_of_sorted(&xs, 90.0).unwrap(), 46.0);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_of_sorted(&[7.0], 99.0).unwrap(), 7.0);
    }

    /// The `floor`/`ceil` form of [`ranks`] it replaced.
    fn float_ranks(n: usize, p: f64) -> (usize, usize, f64) {
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        (lo, rank.ceil() as usize, rank - lo as f64)
    }

    #[test]
    fn integer_ranks_equal_float_ranks() {
        let grid = [0.0, 0.1, 1.0, 50.0, 80.0, 90.0, 95.0, 99.0, 99.9, 100.0];
        // A fixed xorshift stream of p in [0, 100], both ends included.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let random: Vec<f64> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / ((1u64 << 53) - 1) as f64 * 100.0
            })
            .collect();
        for n in 2..=4096 {
            for &p in grid.iter().chain(&random) {
                let (lo, hi, frac) = ranks(n, p);
                let (flo, fhi, ffrac) = float_ranks(n, p);
                assert_eq!(
                    (lo, hi, frac.to_bits()),
                    (flo, fhi, ffrac.to_bits()),
                    "n {n} p {p}"
                );
            }
        }
    }

    #[test]
    fn percentile_unsorted_matches_sorted() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile_slice(&xs, 50.0).unwrap(), 2.0);
    }
}
