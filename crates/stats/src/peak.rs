//! Sliding-window peak: O(1) amortized push, O(1) max read.
//!
//! The memory lane of the resource vector needs exactly one order
//! statistic per task — the windowed peak — because memory is
//! incompressible: a machine that runs out of memory kills tasks rather
//! than throttling them, so admission must cover the recent *peak*
//! demand, not an interpolated percentile of it. Maintaining a full
//! [`crate::OrderStatWindow`] for that one read would double the
//! dominant cost of the vectorized observe path (two binary searches
//! plus two memmoves per sample per lane); [`PeakWindow`] answers the
//! same question with a classic monotonic deque instead — every sample
//! enters and leaves the deque at most once, so a push is O(1)
//! amortized and never moves more than a handful of entries.

use crate::error::StatsError;
use crate::state::{corrupt, expect_capacity, put_f64, put_u64, StateReader};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// A fixed-capacity FIFO window that tracks only its maximum.
///
/// Retention semantics match [`crate::MovingWindow`] and
/// [`crate::OrderStatWindow`]: `push` appends a sample and evicts the
/// oldest once `capacity` samples are retained. Only the window maximum
/// is readable — that is the point: dropping the full sorted index is
/// what makes the second resource lane almost free on the hot path.
///
/// | operation | [`crate::OrderStatWindow`] | `PeakWindow` |
/// |---|---|---|
/// | `push` | O(log w) search + O(w) shift | O(1) amortized |
/// | `max` | O(1) | O(1) |
/// | arbitrary percentile | O(1) | not supported |
///
/// Ordering uses [`f64::total_cmp`], so signed zeros and (defensively)
/// NaNs behave deterministically, exactly as in `OrderStatWindow`.
///
/// # Examples
///
/// ```
/// use oc_stats::PeakWindow;
///
/// let mut w = PeakWindow::new(3).unwrap();
/// for x in [5.0, 1.0, 4.0, 2.0] {
///     w.push(x);
/// }
/// // FIFO retains [1, 4, 2]: the 5.0 peak has aged out.
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.max(), Some(4.0));
/// ```
#[derive(Debug, Clone)]
pub struct PeakWindow {
    /// `(sequence, value)` candidates, values strictly decreasing from
    /// front to back; the front is the current window maximum.
    deque: VecDeque<(u64, f64)>,
    /// Samples pushed over the window's lifetime.
    pushed: u64,
    capacity: usize,
}

impl PeakWindow {
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
        Ok(PeakWindow {
            deque: VecDeque::new(),
            pushed: 0,
            capacity,
        })
    }

    /// Appends a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        let seq = self.pushed;
        self.pushed += 1;
        // A new sample dominates every older sample that is <= it: those
        // can never be the maximum again while `x` is retained.
        while let Some(&(_, back)) = self.deque.back() {
            if back.total_cmp(&x) != Ordering::Greater {
                self.deque.pop_back();
            } else {
                break;
            }
        }
        self.deque.push_back((seq, x));
        // Drop front candidates that have aged out of the window.
        while let Some(&(front_seq, _)) = self.deque.front() {
            if front_seq + self.capacity as u64 <= seq {
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        (self.pushed.min(self.capacity as u64)) as usize
    }

    /// Returns `true` if no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Largest retained sample; `None` when empty. O(1).
    pub fn max(&self) -> Option<f64> {
        self.deque.front().map(|&(_, x)| x)
    }

    /// Appends the window's exact state to `out`: capacity, lifetime push
    /// count, then the candidate deque as `(stamp, bits)` pairs.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.capacity as u64);
        put_u64(out, self.pushed);
        put_u64(out, self.deque.len() as u64);
        for &(seq, x) in &self.deque {
            put_u64(out, seq);
            put_f64(out, x);
        }
    }

    /// Decodes a window written by [`PeakWindow::encode`] into a window of
    /// `capacity`, checking the deque's invariants: stamps strictly
    /// increasing and inside the last `capacity` pushes, values strictly
    /// decreasing, and the newest push present (it always is a
    /// candidate).
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record, a capacity other
    /// than `capacity`, a non-finite value, or inconsistent stamps.
    pub fn decode(r: &mut StateReader<'_>, capacity: usize) -> Result<Self, StatsError> {
        let mut w = PeakWindow::new(capacity)?;
        expect_capacity(r, capacity)?;
        w.pushed = r.counter()?;
        let oldest = w.pushed.saturating_sub(capacity as u64);
        for _ in 0..r.count(capacity)? {
            let (seq, x) = (r.u64()?, r.finite()?);
            let follows = w
                .deque
                .back()
                .is_none_or(|&(prev, y)| prev < seq && y.total_cmp(&x) == Ordering::Greater);
            if !follows || seq < oldest || seq >= w.pushed {
                return Err(corrupt("peak window stamps are inconsistent"));
            }
            w.deque.push_back((seq, x));
        }
        if w.deque.back().map_or(0, |&(seq, _)| seq + 1) != w.pushed {
            return Err(corrupt("peak window stamps are inconsistent"));
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(PeakWindow::new(0).is_err());
    }

    #[test]
    fn empty_window_defaults() {
        let w = PeakWindow::new(3).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn peak_ages_out() {
        let mut w = PeakWindow::new(2).unwrap();
        w.push(9.0);
        assert_eq!(w.max(), Some(9.0));
        w.push(1.0);
        assert_eq!(w.max(), Some(9.0));
        w.push(2.0); // Evicts the 9.0.
        assert_eq!(w.max(), Some(2.0));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn matches_order_stat_window_max() {
        // The deque must agree with the full sorted index on every
        // prefix of an adversarial stream (rises, falls, duplicates).
        let mut peak = PeakWindow::new(7).unwrap();
        let mut full = crate::OrderStatWindow::new(7).unwrap();
        let stream: Vec<f64> = (0u64..200)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                (h % 13) as f64 / 4.0
            })
            .collect();
        for &x in &stream {
            peak.push(x);
            full.push(x);
            assert_eq!(peak.max(), full.max());
            assert_eq!(peak.len(), full.len());
        }
    }

    #[test]
    fn signed_zero_and_duplicates_are_deterministic() {
        let mut w = PeakWindow::new(3).unwrap();
        w.push(-0.0);
        w.push(0.0);
        assert!(w.max().unwrap() == 0.0 && w.max().unwrap().is_sign_positive());
        w.push(0.0);
        w.push(0.0);
        assert_eq!(w.max(), Some(0.0));
        assert_eq!(w.len(), 3);
    }
}
