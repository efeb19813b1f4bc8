//! Order-statistics sliding window: O(log w) insert, O(1) percentile reads.
//!
//! The RC-like predictor asks for a per-task usage percentile on every
//! simulated tick, and [`crate::MovingWindow::percentile`] answers it by
//! cloning and sorting the whole buffer — O(w log w) *per call*, plus an
//! allocation. [`OrderStatWindow`] keeps the same FIFO semantics but also
//! maintains a sorted index of the retained samples, updated by binary
//! search on each push, so percentile, min, and max reads are O(1)-ish
//! (percentile does two slice reads and an interpolation) and no call on
//! the hot path allocates after construction.
//!
//! Ordering uses [`f64::total_cmp`], so `-0.0`/`0.0` and NaN inputs have a
//! deterministic position instead of poisoning the sort. For ordinary
//! (non-NaN) data the sorted index is exactly what sorting the buffer would
//! produce, so percentiles are bit-identical to the sort-based path.

use crate::error::StatsError;
use crate::percentile::percentile_of_sorted;
use crate::state::{expect_capacity, put_f64, put_u64, StateReader};
use std::collections::VecDeque;

/// A fixed-capacity FIFO window that maintains its samples in sorted order.
///
/// Semantically identical to [`crate::MovingWindow`] for retention —
/// `push` appends and evicts the oldest once full — but the sorted index
/// makes order statistics cheap enough for a per-tick hot path:
///
/// | operation | [`crate::MovingWindow`] | `OrderStatWindow` |
/// |---|---|---|
/// | `push` (filling) | O(1) | O(log w) search + O(w) insert |
/// | `push` (full) | O(1) | two O(log w) searches in lockstep + one shift of the slots between the evicted and the new rank |
/// | `percentile` | O(w log w) + alloc | O(1), no alloc |
/// | `max` / `min` | O(w) | O(1) |
///
/// The shift inside a full window's `push` is one contiguous `copy_within`
/// over at most w slots of a small buffer (the paper's `max_num_samples`
/// is 120), and usually far fewer: only the samples ranked between the
/// evicted one and the new one move. That is far cheaper than re-sorting;
/// the win is removing the comparison sort and the allocation from every
/// read.
///
/// # Examples
///
/// ```
/// use oc_stats::OrderStatWindow;
///
/// let mut w = OrderStatWindow::new(3).unwrap();
/// for x in [5.0, 1.0, 4.0, 2.0] {
///     w.push(x);
/// }
/// // FIFO holds [1, 4, 2]; sorted view is [1, 2, 4].
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.max(), Some(4.0));
/// assert_eq!(w.percentile(50.0).unwrap(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct OrderStatWindow {
    /// Samples in arrival order (front = oldest).
    buf: VecDeque<f64>,
    /// The same samples in ascending `total_cmp` order.
    sorted: Vec<f64>,
    capacity: usize,
}

impl OrderStatWindow {
    /// Creates a window retaining the `capacity` most recent samples.
    ///
    /// Storage grows on demand (amortized doubling, capped by the
    /// eviction bound at roughly `capacity` slots) instead of reserving
    /// `capacity` up front: per-task windows exist by the million in
    /// fleet-scale serving and most hold far fewer samples than their
    /// capacity, so eager reservation wasted the bulk of per-machine
    /// memory — and page-fault time — at scale.
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
        Ok(OrderStatWindow {
            buf: VecDeque::new(),
            sorted: Vec::new(),
            capacity,
        })
    }

    /// Appends a sample, evicting the oldest if the window is full.
    ///
    /// A full window ranks the evicted sample and the new one in one
    /// lockstep search, then shifts only the slots between the two ranks:
    /// one `copy_within`, where a remove followed by an insert would move
    /// both tails. Samples that order equal have identical bits, so which
    /// of several equal entries leaves the index does not matter.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() < self.capacity {
            let at = self.sorted.partition_point(|&v| key(v) < key(x));
            self.sorted.insert(at, x);
        } else {
            let old = self.buf.pop_front().expect("window is full");
            let (a, b) = (key(old), key(x));
            // Below a target whose sign bit is clear (its key is its raw
            // bits), a sample's key and its raw bits read as `i64` agree:
            // both are the raw bits when the sample's sign is clear, and
            // both are negative when it is set. So usage-like data skips
            // the per-probe transform, which sits on the search's
            // load-to-load chain.
            let (gone, at) = if (a | b) >= 0 {
                lower_bounds(&self.sorted, a, b, |v| v.to_bits() as i64)
            } else {
                lower_bounds(&self.sorted, a, b, key)
            };
            assert!(
                self.sorted[gone].to_bits() == old.to_bits(),
                "evicted sample is present in the sorted index"
            );
            // `at` ranks `x` among the samples *including* `old`.
            if at <= gone {
                self.sorted.copy_within(at..gone, at + 1);
                self.sorted[at] = x;
            } else {
                self.sorted.copy_within(gone + 1..at, gone);
                self.sorted[at - 1] = x;
            }
        }
        self.buf.push_back(x);
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

    /// `p`-th percentile (0..=100) of the retained samples, with linear
    /// interpolation between closest ranks. O(1); does not allocate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Empty`] when the window is empty or
    /// [`StatsError::InvalidParameter`] for `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        percentile_of_sorted(&self.sorted, p)
    }

    /// Largest retained sample; `None` when empty. O(1).
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Smallest retained sample; `None` when empty. O(1).
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Most recent sample, if any.
    pub fn last(&self) -> Option<f64> {
        self.buf.back().copied()
    }

    /// Iterates over retained samples in arrival order, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }

    /// The retained samples in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Appends the window's exact state to `out`: the capacity, then the
    /// samples in arrival order, each as its bits. The sorted index is
    /// not shipped; [`OrderStatWindow::decode`] rebuilds it.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.capacity as u64);
        put_u64(out, self.buf.len() as u64);
        for &x in &self.buf {
            put_f64(out, x);
        }
    }

    /// Decodes a window written by [`OrderStatWindow::encode`] into a
    /// window of `capacity`. The sorted index is rebuilt by sorting the
    /// samples under `total_cmp`: samples that order equal have identical
    /// bits, so the rebuilt index is exactly the one `push` maintained,
    /// duplicates and signed zeros included.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record, a capacity other
    /// than `capacity`, more samples than it, or a non-finite sample.
    pub fn decode(r: &mut StateReader<'_>, capacity: usize) -> Result<Self, StatsError> {
        let mut w = OrderStatWindow::new(capacity)?;
        expect_capacity(r, capacity)?;
        for _ in 0..r.count(capacity)? {
            w.buf.push_back(r.finite()?);
        }
        w.sorted = w.buf.iter().copied().collect();
        w.sorted.sort_unstable_by(f64::total_cmp);
        Ok(w)
    }
}

/// The integer whose signed order is [`f64::total_cmp`]'s order (the same
/// transform `total_cmp` applies before comparing).
fn key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Lower bounds of keys `a` and `b` in `sorted`: for each, the index of
/// the first sample `v` with `key(v)` not below it. The two searches share
/// one loop and select their next base without branching, so their loads
/// overlap instead of each waiting on a mispredicted compare.
#[inline(always)]
fn lower_bounds(sorted: &[f64], a: i64, b: i64, key: impl Fn(f64) -> i64) -> (usize, usize) {
    use std::hint::select_unpredictable;
    let mut size = sorted.len();
    if size == 0 {
        return (0, 0);
    }
    let (mut base_a, mut base_b) = (0, 0);
    while size > 1 {
        let half = size / 2;
        let (mid_a, mid_b) = (base_a + half, base_b + half);
        base_a = select_unpredictable(key(sorted[mid_a]) < a, mid_a, base_a);
        base_b = select_unpredictable(key(sorted[mid_b]) < b, mid_b, base_b);
        size -= half;
    }
    (
        base_a + usize::from(key(sorted[base_a]) < a),
        base_b + usize::from(key(sorted[base_b]) < b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(OrderStatWindow::new(0).is_err());
    }

    #[test]
    fn fifo_eviction_keeps_most_recent() {
        let mut w = OrderStatWindow::new(2).unwrap();
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        let held: Vec<f64> = w.iter().collect();
        assert_eq!(held, vec![2.0, 3.0]);
        assert_eq!(w.last(), Some(3.0));
        assert_eq!(w.sorted(), &[2.0, 3.0]);
    }

    #[test]
    fn sorted_index_tracks_duplicates() {
        let mut w = OrderStatWindow::new(4).unwrap();
        for x in [2.0, 2.0, 1.0, 2.0] {
            w.push(x);
        }
        assert_eq!(w.sorted(), &[1.0, 2.0, 2.0, 2.0]);
        w.push(3.0); // Evicts one of the 2.0s.
        assert_eq!(w.sorted(), &[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn signed_zero_eviction_is_consistent() {
        // total_cmp orders -0.0 before 0.0, so evicting -0.0 must not
        // remove a 0.0 entry (and vice versa).
        let mut w = OrderStatWindow::new(2).unwrap();
        w.push(-0.0);
        w.push(0.0);
        w.push(1.0); // Evicts -0.0.
        assert_eq!(w.sorted().len(), 2);
        assert!(w.sorted()[0] == 0.0 && w.sorted()[0].is_sign_positive());
        assert_eq!(w.max(), Some(1.0));
    }

    #[test]
    fn percentile_matches_sorted_definition() {
        let mut w = OrderStatWindow::new(4).unwrap();
        assert!(w.percentile(50.0).is_err());
        for x in [4.0, 2.0, 8.0, 6.0] {
            w.push(x);
        }
        assert_eq!(w.percentile(0.0).unwrap(), 2.0);
        assert_eq!(w.percentile(50.0).unwrap(), 5.0);
        assert_eq!(w.percentile(100.0).unwrap(), 8.0);
        assert!(w.percentile(101.0).is_err());
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(8.0));
    }

    #[test]
    fn empty_window_defaults() {
        let w = OrderStatWindow::new(3).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.max(), None);
        assert_eq!(w.min(), None);
        assert_eq!(w.last(), None);
    }

    #[test]
    fn storage_growth_stops_at_the_eviction_bound() {
        // Lazy construction: an unused window owns no heap at all.
        let mut w = OrderStatWindow::new(8).unwrap();
        assert_eq!(w.sorted.capacity(), 0);
        assert_eq!(w.buf.capacity(), 0);
        // Once full, eviction holds `len` at capacity, so amortized
        // doubling settles and pushes stop reallocating.
        for i in 0..100 {
            w.push((i % 13) as f64);
        }
        let settled = (w.sorted.capacity(), w.buf.capacity());
        for i in 0..1000 {
            w.push((i % 17) as f64);
        }
        assert_eq!((w.sorted.capacity(), w.buf.capacity()), settled);
        assert_eq!(w.len(), 8);
    }
}
