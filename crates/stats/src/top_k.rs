//! Sliding window that keeps only the ranks its reader can reach.
//!
//! The per-task window of the paper's node agent is read through one
//! order statistic: RC-like's percentile. At p99 over at most 120
//! samples that read only ever touches the three largest samples, yet a
//! full sorted index ([`crate::OrderStatWindow`]) stores every sample
//! twice. [`TopKWindow`] answers the same reads from the samples that can
//! still be among the `depth` largest of the window, by one rule:
//!
//! > a sample that `depth` newer samples are `≥` can never again be among
//! > the `depth` largest of the window, so it is dropped.
//!
//! Every newer sample outlives it in the window, so once `depth` of them
//! are at least as large, at least `depth` samples rank at or above it
//! for the rest of its life. What is left is every sample with fewer than
//! `depth` newer samples `≥` it, and that set holds the window's `depth`
//! largest: the sample `r` places from the top (ties broken newest first)
//! has at most `r` newer samples `≥` it.
//!
//! Reads are bit-identical to [`crate::OrderStatWindow`]'s for every
//! percentile whose ranks lie within `depth` of the top
//! ([`crate::percentile::percentile_depth`] gives that depth for a
//! percentile and a window). Ordering uses [`f64::total_cmp`], so equal
//! samples have equal bits and signed zeros have a fixed place.

use crate::error::StatsError;
use crate::percentile::percentile_by_rank;
use crate::state::{corrupt, expect_capacity, put_f64, put_u64, StateReader};

/// A fixed-capacity FIFO window that keeps only the samples that can
/// still rank among its `depth` largest.
///
/// Retention matches [`crate::OrderStatWindow`]: `push` appends and, once
/// `capacity` samples are held, the oldest leaves. `len`, `max`, `last`
/// and every `percentile` that reads within `depth` of the top return the
/// same bits. A deeper read is a programming error and panics: answering
/// it with an error would let a caller substitute a fallback value and
/// predict from it silently.
///
/// | | [`crate::OrderStatWindow`] | `TopKWindow` |
/// |---|---|---|
/// | stored | every sample, twice | the samples with fewer than `depth` newer samples `≥` them |
/// | `push` | O(log w) search + shift of up to w slots | one walk over the retained entries at or below the new sample |
/// | `percentile` within `depth` of the top | O(1) | O(1) |
///
/// An i.i.d. stream retains about `depth · ln(w)` entries (14 at the
/// paper's p99 over 120 samples); a strictly decreasing one retains all
/// `w`, since no newer sample is ever `≥` an older one. `depth = capacity`
/// is the full window, exact at any percentile.
///
/// # Examples
///
/// ```
/// use oc_stats::TopKWindow;
///
/// let mut w = TopKWindow::new(4, 1).unwrap();
/// for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
///     w.push(x);
/// }
/// // The window holds [1, 4, 2, 3]; only 4 and 3 can still be its max.
/// assert_eq!(w.len(), 4);
/// assert_eq!(w.retained(), 2);
/// assert_eq!(w.max(), Some(4.0));
/// assert_eq!(w.percentile(100.0), Ok(4.0));
/// ```
#[derive(Debug, Clone)]
pub struct TopKWindow {
    /// Retained samples in descending `total_cmp` order, equal samples
    /// newest first.
    entries: Vec<Entry>,
    /// Samples pushed over the window's lifetime.
    pushed: u64,
    capacity: u32,
    depth: u32,
    /// Arrival index (mod 2³²) of a sample no newer than any retained
    /// entry: the oldest entry when it was last looked for. Entries that
    /// leave by domination never make it wrong, so it is looked for again
    /// only when the sample it names leaves the window.
    oldest: u32,
}

/// Entries added to a full window's storage at once.
const GROWTH: usize = 8;

/// One retained sample (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The sample's [`key`]: its `total_cmp` order as a signed integer,
    /// from which its bits are recovered exactly.
    key: i64,
    /// The sample's arrival index modulo 2³², which tells its age apart
    /// inside any window of at most `u32::MAX` samples.
    seq: u32,
    /// Newer samples `≥` this one; it leaves when this reaches `depth`.
    /// Every such sample is retained (were one dropped, the `depth`
    /// samples that dropped it would have dropped this one too), so this
    /// is also the count of newer retained entries `≥` it.
    newer: u32,
}

impl Entry {
    fn value(self) -> f64 {
        f64::from_bits(flip(self.key) as u64)
    }
}

impl TopKWindow {
    /// Creates a window of the `capacity` most recent samples that answers
    /// reads within `depth` of the top.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] unless `1 ≤ depth ≤ capacity ≤
    /// u32::MAX`.
    pub fn new(capacity: usize, depth: usize) -> Result<Self, StatsError> {
        if capacity == 0 {
            return Err(StatsError::InvalidParameter {
                what: "window capacity must be positive",
            });
        }
        let Ok(capacity) = u32::try_from(capacity) else {
            return Err(StatsError::InvalidParameter {
                what: "window capacity must fit in 32 bits",
            });
        };
        if depth == 0 || depth > capacity as usize {
            return Err(StatsError::InvalidParameter {
                what: "window depth must be in 1..=capacity",
            });
        }
        Ok(TopKWindow {
            entries: Vec::new(),
            pushed: 0,
            capacity,
            depth: depth as u32,
            oldest: 0,
        })
    }

    /// Appends a sample; once the window is full the oldest leaves.
    ///
    /// The retained entries at or below `x` are a suffix of the
    /// descending order. One walk from the back gives each of them a
    /// newer sample `≥` it and moves those still under `depth` one slot
    /// right, packed against the end, and stops at the first entry above
    /// `x`; `x` takes the slot in front of the packed ones. When entries
    /// left, the packed run then closes the gap they left. No search
    /// runs, and only the suffix moves.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let k = key(x);
        let seq = self.pushed as u32;
        self.pushed += 1;
        let entries = &mut self.entries;
        if self.pushed > u64::from(self.capacity) {
            let gone = seq.wrapping_sub(self.capacity);
            // The leaving sample is the window's oldest, so it can be
            // retained only if the bound names it; that spares the scan
            // on almost every push.
            if self.oldest == gone {
                self.oldest = age_out(entries, gone, seq);
            }
        }
        if entries.len() == entries.capacity() {
            // Grow by a fixed step, not by doubling: a window holds about
            // a dozen entries and rarely many more, and doubling would
            // leave a third of its storage empty on average.
            entries.reserve_exact(GROWTH);
        }
        let (depth, len) = (self.depth, entries.len());
        let new = Entry {
            key: k,
            seq,
            newer: 0,
        };
        entries.push(new);
        // Each step stores the entry it reads at `to` and moves `to` left
        // past it only if it stays, so no branch depends on which entries
        // leave.
        let slots = entries.as_mut_slice();
        let (mut to, mut from) = (len, len);
        while from > 0 && slots[from - 1].key <= k {
            from -= 1;
            let mut e = slots[from];
            e.newer += 1;
            slots[to] = e;
            to -= usize::from(e.newer < depth);
        }
        slots[to] = new;
        let left = to - from;
        if left > 0 {
            slots.copy_within(to..=len, from);
            entries.truncate(len + 1 - left);
        }
        if entries.capacity() > entries.len() + 2 * GROWTH {
            // A falling stretch retains many entries; once they have
            // left, the storage they took is given back.
            entries.shrink_to(entries.len() + GROWTH);
        }
    }

    /// Number of samples in the window, retained or not.
    pub fn len(&self) -> usize {
        self.pushed.min(u64::from(self.capacity)) as usize
    }

    /// Returns `true` if no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// How many of the largest samples reads may reach.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Number of samples actually stored.
    pub fn retained(&self) -> usize {
        self.entries.len()
    }

    /// `p`-th percentile (0..=100) of the window's samples, with linear
    /// interpolation between closest ranks, bit-identical to
    /// [`crate::percentile_of_sorted`] over all of them. O(1).
    ///
    /// # Errors
    ///
    /// [`StatsError::Empty`] when the window is empty and
    /// [`StatsError::InvalidParameter`] for `p` outside `[0, 100]`.
    ///
    /// # Panics
    ///
    /// When the percentile reads a rank more than `depth` places from the
    /// top: the window was built too shallow for its reader.
    #[inline]
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        let n = self.len();
        percentile_by_rank(n, p, |i| {
            let from_top = n - 1 - i;
            match self.entries.get(from_top) {
                Some(e) if from_top < self.depth as usize => e.value(),
                _ => self.too_deep(p, n),
            }
        })
    }

    #[cold]
    #[inline(never)]
    fn too_deep(&self, p: f64, n: usize) -> ! {
        panic!(
            "percentile p{p} over {n} samples reads deeper than this window's depth {}",
            self.depth
        )
    }

    /// Largest sample in the window; `None` when empty. O(1).
    pub fn max(&self) -> Option<f64> {
        self.entries.first().map(|e| e.value())
    }

    /// Most recent sample, if any (it is always retained).
    pub fn last(&self) -> Option<f64> {
        let newest = self.pushed.checked_sub(1)? as u32;
        self.entries
            .iter()
            .find(|e| e.seq == newest)
            .map(|e| e.value())
    }

    /// Appends the window's exact state to `out`: capacity, depth,
    /// lifetime push count, then the retained entries in descending
    /// order (equal samples newest first) as `(arrival index, bits)`
    /// pairs. Each entry's count of newer samples `≥` it is not written:
    /// it is the count of the retained entries before it that are newer.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::from(self.capacity));
        put_u64(out, u64::from(self.depth));
        put_u64(out, self.pushed);
        put_u64(out, self.entries.len() as u64);
        let newest = self.pushed.wrapping_sub(1);
        for e in &self.entries {
            let age = (newest as u32).wrapping_sub(e.seq);
            put_u64(out, newest - u64::from(age));
            put_f64(out, e.value());
        }
    }

    /// Decodes a window written by [`TopKWindow::encode`] into a window of
    /// `capacity` and `depth`, checking what every reachable state has:
    /// values descending (equal values newest first), arrival indices
    /// distinct and inside the window, fewer than `depth` newer entries
    /// before each entry, the newest sample present, and at least
    /// `min(depth, len)` entries. Each entry's count is rebuilt from the
    /// entries before it, so the window keeps these invariants through
    /// every later push and no read the depth allows can miss.
    ///
    /// # Errors
    ///
    /// [`StatsError::Corrupt`] for a truncated record, a capacity or depth
    /// other than the given ones, a non-finite value or any broken
    /// invariant above.
    pub fn decode(
        r: &mut StateReader<'_>,
        capacity: usize,
        depth: usize,
    ) -> Result<Self, StatsError> {
        let mut w = TopKWindow::new(capacity, depth)?;
        expect_capacity(r, capacity)?;
        if r.u64()? != depth as u64 {
            return Err(corrupt("window depth differs from the configured one"));
        }
        w.pushed = r.counter()?;
        let len = w.len();
        let oldest = w.pushed - len as u64;
        let n = r.count(len)?;
        if n < depth.min(len) {
            return Err(corrupt("window keeps fewer entries than its depth"));
        }
        let newest = w.pushed.wrapping_sub(1) as u32;
        let mut prev: Option<(i64, u64)> = None;
        for _ in 0..n {
            let (seq, k) = (r.u64()?, key(r.finite()?));
            if seq < oldest || seq >= w.pushed {
                return Err(corrupt("window entry outside its history"));
            }
            if prev.is_some_and(|(pk, ps)| pk < k || (pk == k && ps <= seq)) {
                return Err(corrupt("window entries out of order"));
            }
            // Inside one window, ages modulo 2³² are exact; the entries
            // before this one are `≥` it, so the younger ones count.
            let age = newest.wrapping_sub(seq as u32);
            let mut newer = 0;
            for e in &w.entries {
                match newest.wrapping_sub(e.seq).cmp(&age) {
                    std::cmp::Ordering::Less => newer += 1,
                    std::cmp::Ordering::Equal => {
                        return Err(corrupt("window entries repeat an arrival"))
                    }
                    std::cmp::Ordering::Greater => {}
                }
            }
            if newer >= depth {
                return Err(corrupt("window entry past its depth"));
            }
            prev = Some((k, seq));
            w.entries.push(Entry {
                key: k,
                seq: seq as u32,
                newer: newer as u32,
            });
        }
        if w.pushed > 0 && w.last().is_none() {
            return Err(corrupt("window lacks its newest sample"));
        }
        w.oldest = oldest_of(&w.entries, w.pushed as u32);
        Ok(w)
    }
}

/// Removes the entry that arrived at index `gone` (mod 2³²), if it is
/// retained, and returns the arrival index of the oldest entry left, as
/// [`oldest_of`] does. Off the push's hot path: it runs only when the
/// window's `oldest` bound leaves the window.
#[cold]
#[inline(never)]
fn age_out(entries: &mut Vec<Entry>, gone: u32, next: u32) -> u32 {
    if let Some(i) = entries.iter().position(|e| e.seq == gone) {
        entries.remove(i);
    }
    oldest_of(entries, next)
}

/// The arrival index of the oldest of `entries`, all within one window
/// of samples that arrived before index `next` (mod 2³²); `next` when
/// there are none.
fn oldest_of(entries: &[Entry], next: u32) -> u32 {
    entries
        .iter()
        .map(|e| e.seq)
        .max_by_key(|&seq| next.wrapping_sub(seq))
        .unwrap_or(next)
}

/// The integer whose signed order is [`f64::total_cmp`]'s order (the same
/// transform `total_cmp` applies before comparing).
fn key(x: f64) -> i64 {
    flip(x.to_bits() as i64)
}

/// Flips every bit but the sign of a negative word: maps an `f64`'s bits
/// to its [`key`] and, being its own inverse, a key back to the bits.
fn flip(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderStatWindow;

    #[test]
    fn parameters_are_checked() {
        assert!(TopKWindow::new(0, 1).is_err());
        assert!(TopKWindow::new(3, 0).is_err());
        assert!(TopKWindow::new(3, 4).is_err());
        assert!(TopKWindow::new(3, 3).is_ok());
    }

    #[test]
    fn empty_window_defaults() {
        let w = TopKWindow::new(3, 2).unwrap();
        assert!(w.is_empty());
        assert_eq!(
            (w.len(), w.capacity(), w.depth(), w.retained()),
            (0, 3, 2, 0)
        );
        assert_eq!((w.max(), w.last()), (None, None));
        assert_eq!(w.percentile(50.0), Err(StatsError::Empty));
    }

    #[test]
    fn dominated_samples_leave() {
        let mut w = TopKWindow::new(10, 2).unwrap();
        for x in [1.0, 3.0, 2.0, 2.0] {
            w.push(x);
        }
        // 1.0 has three newer samples ≥ it; the first 2.0 has one.
        let values: Vec<f64> = w.entries.iter().map(|e| e.value()).collect();
        assert_eq!(values, [3.0, 2.0, 2.0]);
        assert_eq!(w.entries[1].seq, 3, "equal samples are newest first");
        assert_eq!(w.percentile(100.0), Ok(3.0));
        assert_eq!(w.last(), Some(2.0));
    }

    #[test]
    fn aged_out_samples_leave() {
        let mut w = TopKWindow::new(3, 3).unwrap();
        for x in [9.0, 1.0, 2.0, 0.5] {
            w.push(x);
        }
        assert_eq!(w.max(), Some(2.0));
        assert_eq!(w.len(), 3);
        assert_eq!(w.retained(), 3);
    }

    #[test]
    #[should_panic(expected = "reads deeper")]
    fn a_read_past_the_depth_panics() {
        let mut w = TopKWindow::new(8, 2).unwrap();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let _ = w.percentile(0.0);
    }

    #[test]
    fn signed_zeros_keep_their_order() {
        let mut w = TopKWindow::new(4, 4).unwrap();
        let mut full = OrderStatWindow::new(4).unwrap();
        for x in [0.0, -0.0, 0.0, -0.0, -0.0] {
            w.push(x);
            full.push(x);
            for p in [0.0, 50.0, 100.0] {
                assert_eq!(
                    w.percentile(p).unwrap().to_bits(),
                    full.percentile(p).unwrap().to_bits()
                );
            }
        }
    }
}
