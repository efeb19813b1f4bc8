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
    if sorted.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter {
            what: "percentile must be in [0, 100]",
        });
    }
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        return Ok(sorted[lo]);
    }
    let frac = rank - lo as f64;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
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

    #[test]
    fn percentile_unsorted_matches_sorted() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile_slice(&xs, 50.0).unwrap(), 2.0);
    }
}
