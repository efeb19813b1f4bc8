//! Bounded moving windows over recent samples.

use crate::error::StatsError;
use crate::percentile::percentile_of_sorted;
use crate::state::{expect_capacity, put_f64, put_u64, StateReader};
use std::collections::VecDeque;

/// A fixed-capacity window over the most recent samples.
///
/// This is the paper's per-task history buffer: "for each task, we only
/// maintain a moving window to store the most recent samples; we denote the
/// window size by `max_num_samples`" (Section 4). Mean and standard
/// deviation are O(1): the window maintains a running sum plus shifted
/// running moments Σ(x−origin) and Σ(x−origin)², where the origin is pinned
/// to the first sample after each refresh. The shift is what makes the
/// incremental sum-of-squares identity usable here — the textbook ΣX²
/// version loses all precision when the mean is large relative to the
/// spread, which CPU-usage series routinely are, while the shifted moments
/// stay the size of the spread itself.
///
/// All running accumulators are recomputed from scratch periodically
/// (every `REFRESH_EVERY` = 4096 pushes) to bound floating-point drift from the
/// add/subtract updates; the refresh also re-pins the origin, so a series
/// that wanders far from its first value regains a local origin.
///
/// # Examples
///
/// ```
/// use oc_stats::MovingWindow;
///
/// let mut w = MovingWindow::new(3).unwrap();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// // Window holds [2, 3, 4].
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.mean(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct MovingWindow {
    buf: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    /// Shift origin for the incremental second moment; the first sample
    /// after each refresh.
    origin: f64,
    /// Σ (x − origin) over the retained samples.
    sum_shifted: f64,
    /// Σ (x − origin)² over the retained samples.
    sumsq_shifted: f64,
    /// Pushes since the last exact refresh of the running accumulators.
    since_refresh: usize,
}

/// Refresh the running accumulators after this many pushes to bound
/// floating-point drift from the add/subtract updates.
const REFRESH_EVERY: usize = 4096;

impl MovingWindow {
    /// Creates a window retaining the `capacity` most recent samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `capacity` is zero.
    pub fn new(capacity: usize) -> Result<Self, StatsError> {
        if capacity == 0 {
            return Err(StatsError::InvalidParameter {
                what: "window capacity must be positive",
            });
        }
        // The buffer grows on demand (amortized doubling, capped by the
        // eviction bound) rather than reserving `capacity` up front: a
        // fleet holds millions of windows that never fill, and eager
        // reservation made window creation the dominant source of
        // fresh-page faults at scale.
        Ok(MovingWindow {
            buf: VecDeque::new(),
            capacity,
            sum: 0.0,
            origin: 0.0,
            sum_shifted: 0.0,
            sumsq_shifted: 0.0,
            since_refresh: 0,
        })
    }

    /// Appends a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        if self.buf.is_empty() {
            self.origin = x;
        }
        if self.buf.len() == self.capacity {
            let old = self.buf.pop_front().expect("window is full");
            self.sum -= old;
            let shifted = old - self.origin;
            self.sum_shifted -= shifted;
            self.sumsq_shifted -= shifted * shifted;
        }
        self.buf.push_back(x);
        self.sum += x;
        let shifted = x - self.origin;
        self.sum_shifted += shifted;
        self.sumsq_shifted += shifted * shifted;
        self.since_refresh += 1;
        if self.since_refresh >= REFRESH_EVERY {
            self.refresh();
        }
    }

    /// Recomputes all running accumulators exactly from the buffer,
    /// re-pinning the shift origin to the oldest retained sample.
    fn refresh(&mut self) {
        self.sum = self.buf.iter().sum();
        self.origin = self.buf.front().copied().unwrap_or(0.0);
        self.sum_shifted = self.buf.iter().map(|x| x - self.origin).sum();
        self.sumsq_shifted = self.buf.iter().map(|x| (x - self.origin).powi(2)).sum();
        self.since_refresh = 0;
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean of the retained samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Population standard deviation of the retained samples; `0.0` when
    /// fewer than two samples are held.
    ///
    /// O(1) on the common path: computed from the shifted running moments
    /// as `var = (Σs² − (Σs)²/n) / n` with `s = x − origin`. The shift
    /// keeps the subtraction between quantities the size of the spread,
    /// not the mean, and the periodic exact refresh bounds accumulator
    /// drift. When the subtraction cancels almost completely — the true
    /// variance is below rounding noise relative to the second moment, as
    /// for a near-constant window — the residual is meaningless, so the
    /// rare degenerate case falls back to the exact two-pass computation.
    pub fn population_std(&self) -> f64 {
        let n = self.buf.len();
        if n < 2 {
            return 0.0;
        }
        let n = n as f64;
        let var = (self.sumsq_shifted - self.sum_shifted * self.sum_shifted / n) / n;
        // f64 has ~2e-16 relative precision; anything this far below the
        // second moment is cancellation noise, not signal.
        let noise_floor = 1e-12 * self.sumsq_shifted.abs() / n;
        if var <= noise_floor {
            let mean = self.mean();
            let exact = self.buf.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            return exact.sqrt();
        }
        var.sqrt()
    }

    /// Largest retained sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.buf.iter().copied().reduce(f64::max)
    }

    /// `p`-th percentile (0..=100) of the retained samples.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when the window is empty or an
    /// invalid-percentile error from the underlying routine.
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        if self.buf.is_empty() {
            return Err(StatsError::Empty);
        }
        let mut sorted: Vec<f64> = self.buf.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        percentile_of_sorted(&sorted, p)
    }

    /// Iterates over retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    /// Most recent sample, if any.
    pub fn last(&self) -> Option<f64> {
        self.buf.back().copied()
    }

    /// Appends the window's exact state to `out`: capacity, samples in
    /// arrival order, the running accumulators and the pushes since the
    /// last refresh. Every `f64` travels as its bits, so the shifted
    /// moments — and with them every later `population_std` — decode
    /// bit-identically.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.capacity as u64);
        put_u64(out, self.buf.len() as u64);
        for &x in &self.buf {
            put_f64(out, x);
        }
        for acc in [self.sum, self.origin, self.sum_shifted, self.sumsq_shifted] {
            put_f64(out, acc);
        }
        put_u64(out, self.since_refresh as u64);
    }

    /// Decodes a window written by [`MovingWindow::encode`] into a window
    /// of `capacity`.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record, a capacity other
    /// than `capacity`, more samples than it, a non-finite sample, or a
    /// refresh count at or past the refresh period.
    pub fn decode(r: &mut StateReader<'_>, capacity: usize) -> Result<Self, StatsError> {
        let mut w = MovingWindow::new(capacity)?;
        expect_capacity(r, capacity)?;
        for _ in 0..r.count(capacity)? {
            w.buf.push_back(r.finite()?);
        }
        w.sum = r.f64()?;
        w.origin = r.f64()?;
        w.sum_shifted = r.f64()?;
        w.sumsq_shifted = r.f64()?;
        w.since_refresh = r.count(REFRESH_EVERY - 1)?;
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(MovingWindow::new(0).is_err());
    }

    #[test]
    fn eviction_keeps_most_recent() {
        let mut w = MovingWindow::new(2).unwrap();
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        let held: Vec<f64> = w.iter().collect();
        assert_eq!(held, vec![2.0, 3.0]);
        assert_eq!(w.last(), Some(3.0));
        assert_eq!(w.mean(), 2.5);
    }

    #[test]
    fn std_matches_welford() {
        use crate::welford::Welford;
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = MovingWindow::new(8).unwrap();
        let mut wf = Welford::new();
        for x in data {
            w.push(x);
            wf.push(x);
        }
        assert!((w.population_std() - wf.population_std()).abs() < 1e-12);
    }

    #[test]
    fn std_after_eviction() {
        let mut w = MovingWindow::new(3).unwrap();
        for x in [100.0, 1.0, 2.0, 3.0] {
            w.push(x);
        }
        // Window is [1, 2, 3]: mean 2, population var 2/3.
        assert_eq!(w.mean(), 2.0);
        assert!((w.population_std() - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_max() {
        let mut w = MovingWindow::new(4).unwrap();
        assert!(w.percentile(50.0).is_err());
        for x in [4.0, 2.0, 8.0, 6.0] {
            w.push(x);
        }
        assert_eq!(w.percentile(50.0).unwrap(), 5.0);
        assert_eq!(w.max(), Some(8.0));
    }

    #[test]
    fn max_is_none_when_empty() {
        // Regression: this used to return -inf, which silently poisoned any
        // downstream comparison or subtraction.
        let mut w = MovingWindow::new(2).unwrap();
        assert_eq!(w.max(), None);
        w.push(5.0);
        assert_eq!(w.max(), Some(5.0));
        w.push(1.0);
        w.push(2.0); // Evicts the 5.0.
        assert_eq!(w.max(), Some(2.0));
    }

    #[test]
    fn incremental_std_matches_two_pass_across_refresh() {
        // Push enough to cross the REFRESH_EVERY boundary several times and
        // check the O(1) std against an exact two-pass recomputation.
        let mut w = MovingWindow::new(32).unwrap();
        for i in 0..3 * REFRESH_EVERY + 17 {
            let x = ((i * 37) % 113) as f64 * 0.25 - 10.0;
            w.push(x);
            if i % 997 == 0 || i > 3 * REFRESH_EVERY {
                let held: Vec<f64> = w.iter().collect();
                let mean = held.iter().sum::<f64>() / held.len() as f64;
                let var = held.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / held.len() as f64;
                assert!(
                    (w.population_std() - var.sqrt()).abs() < 1e-9,
                    "push {i}: incremental {} vs exact {}",
                    w.population_std(),
                    var.sqrt()
                );
            }
        }
    }

    #[test]
    fn no_drift_under_large_offset() {
        let mut w = MovingWindow::new(16).unwrap();
        for i in 0..100_000 {
            w.push(1e9 + (i % 7) as f64);
        }
        let exact: Vec<f64> = w.iter().collect();
        let mean = exact.iter().sum::<f64>() / exact.len() as f64;
        let var = exact.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / exact.len() as f64;
        assert!((w.population_std() - var.sqrt()).abs() < 1e-6);
        assert!((w.mean() - mean).abs() < 1e-3);
    }

    #[test]
    fn empty_window_defaults() {
        let w = MovingWindow::new(4).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_std(), 0.0);
        assert_eq!(w.last(), None);
        assert_eq!(w.capacity(), 4);
    }
}
