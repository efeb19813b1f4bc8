//! A max segment tree over `f64`, used by the scheduled-tasks peak oracle.
//!
//! The oracle needs range-maximum queries over a usage series that *grows*
//! as the replay admits tasks (each task's samples are added exactly once,
//! when the replay reaches the task's start tick). A segment tree gives
//! O(log n) range-max queries, and the samples of the tasks a tick admits
//! land as leaf adds followed by one bottom-up [`MaxTree::rebuild`] over
//! the leaves they touched — O(touched + log n) per tick instead of a root
//! walk per sample — keeping the whole oracle computation
//! O(samples + ticks · log ticks) per machine.

/// A fixed-size max segment tree over `f64` values, initialized to zero.
#[derive(Debug, Clone)]
pub struct MaxTree {
    /// Number of leaves.
    n: usize,
    /// 1-based implicit binary tree; `tree[1]` is the root.
    tree: Vec<f64>,
}

impl MaxTree {
    /// Creates a tree over `n` zero-valued slots.
    pub fn new(n: usize) -> MaxTree {
        let size = n.next_power_of_two().max(1);
        MaxTree {
            n,
            tree: vec![0.0; 2 * size],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `delta` to slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn add(&mut self, i: usize, delta: f64) {
        assert!(i < self.n, "index {i} out of bounds {}", self.n);
        let size = self.tree.len() / 2;
        let mut node = size + i;
        self.tree[node] += delta;
        node /= 2;
        while node >= 1 {
            self.tree[node] = self.tree[2 * node].max(self.tree[2 * node + 1]);
            node /= 2;
        }
    }

    /// Adds `delta` to slot `i`'s leaf only. The maxima above it are stale
    /// until a [`MaxTree::rebuild`] over a range holding `i`, so a batch
    /// of leaf adds pays one bottom-up pass instead of a root walk each.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn add_leaf(&mut self, i: usize, delta: f64) {
        assert!(i < self.n, "index {i} out of bounds {}", self.n);
        let size = self.tree.len() / 2;
        self.tree[size + i] += delta;
    }

    /// Recomputes every maximum above the slots `[lo, hi)`, level by
    /// level from the leaves up: O(hi − lo + log n). Each node is the
    /// `max` of its two children, exactly as [`MaxTree::add`] computes
    /// it, so leaf adds then one rebuild leave the tree node for node
    /// where point adds would.
    pub fn rebuild(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.n);
        if lo >= hi {
            return;
        }
        let size = self.tree.len() / 2;
        let (mut first, mut last) = (size + lo, size + hi - 1);
        while first > 1 {
            first /= 2;
            last /= 2;
            for node in first..=last {
                self.tree[node] = self.tree[2 * node].max(self.tree[2 * node + 1]);
            }
        }
    }

    /// The value at slot `i`.
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.n, "index {i} out of bounds {}", self.n);
        self.tree[self.tree.len() / 2 + i]
    }

    /// Maximum over the half-open slot range `[lo, hi)`; `0.0` for an empty
    /// range (every slot starts at zero and usage is non-negative).
    pub fn range_max(&self, lo: usize, hi: usize) -> f64 {
        let hi = hi.min(self.n);
        if lo >= hi {
            return 0.0;
        }
        let size = self.tree.len() / 2;
        let mut lo = size + lo;
        let mut hi = size + hi; // Exclusive.
        let mut best = f64::NEG_INFINITY;
        while lo < hi {
            if lo % 2 == 1 {
                best = best.max(self.tree[lo]);
                lo += 1;
            }
            if hi % 2 == 1 {
                hi -= 1;
                best = best.max(self.tree[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_updates_and_queries() {
        let mut t = MaxTree::new(10);
        t.add(3, 5.0);
        t.add(7, 2.0);
        assert_eq!(t.get(3), 5.0);
        assert_eq!(t.range_max(0, 10), 5.0);
        assert_eq!(t.range_max(4, 10), 2.0);
        assert_eq!(t.range_max(4, 7), 0.0);
        t.add(3, -1.0);
        assert_eq!(t.range_max(0, 10), 4.0);
    }

    #[test]
    fn empty_and_clamped_ranges() {
        let t = MaxTree::new(5);
        assert_eq!(t.range_max(3, 3), 0.0);
        assert_eq!(t.range_max(4, 100), 0.0); // hi clamps to n.
        assert!(!t.is_empty());
        assert_eq!(t.len(), 5);
        assert!(MaxTree::new(0).is_empty());
    }

    #[test]
    fn batched_leaf_adds_match_point_adds_node_for_node() {
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 11
        };
        for n in [1usize, 2, 5, 37, 64, 100] {
            let mut point = MaxTree::new(n);
            let mut batched = MaxTree::new(n);
            for _ in 0..60 {
                // One batch: a run of leaves, some hit twice, with signed
                // zeros and negatives among the deltas.
                let lo = (next() % n as u64) as usize;
                let hi = lo + 1 + (next() % (n - lo) as u64) as usize;
                for _ in 0..1 + next() % 12 {
                    let i = lo + (next() % (hi - lo) as u64) as usize;
                    let delta = match next() % 5 {
                        0 => -0.0,
                        1 => 0.0,
                        k => (next() % 1000) as f64 / 7.0 - 40.0 * k as f64,
                    };
                    point.add(i, delta);
                    batched.add_leaf(i, delta);
                }
                batched.rebuild(lo, hi);
                let bits = |t: &MaxTree| t.tree.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&batched), bits(&point), "n={n} batch [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn matches_naive_on_random_workload() {
        let n = 37; // Non-power-of-two.
        let mut t = MaxTree::new(n);
        let mut naive = vec![0.0f64; n];
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        for _ in 0..500 {
            let i = (next() % n as u64) as usize;
            let delta = ((next() % 1000) as f64 - 300.0) / 100.0;
            t.add(i, delta);
            naive[i] += delta;
            let lo = (next() % n as u64) as usize;
            let hi = lo + (next() % (n as u64 - lo as u64 + 1)) as usize;
            let expected = if lo >= hi {
                0.0
            } else {
                naive[lo..hi]
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            let got = t.range_max(lo, hi);
            assert!(
                (got - expected).abs() < 1e-9,
                "range [{lo}, {hi}): got {got}, expected {expected}"
            );
        }
    }
}
