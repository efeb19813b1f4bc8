//! Equivalence of the incremental sliding-window statistics against naive
//! recomputation from the retained samples.
//!
//! The hot-path engine answers percentile and std queries from running
//! state ([`OrderStatWindow`]'s sorted index, [`MovingWindow`]'s shifted
//! moments). These properties pin that state to the ground truth — sort
//! the buffer, take two passes — after arbitrary push sequences, including
//! eviction at every capacity from 1 to 128 and streams long enough to
//! cross the internal exact-recompute refresh boundary (4096 pushes).

use overcommit_repro::stats::{percentile_of_sorted, MovingWindow, OrderStatWindow};
use proptest::prelude::*;

fn naive_percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p).unwrap()
}

fn naive_std(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    var.sqrt()
}

proptest! {
    /// OrderStatWindow percentiles are bit-identical to sorting the FIFO
    /// tail, at every prefix of the stream and at several percentiles.
    #[test]
    fn order_stat_percentile_matches_sort(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..400),
        cap in 1usize..128,
        p in 0.0f64..=100.0,
    ) {
        let mut w = OrderStatWindow::new(cap).unwrap();
        let mut fifo: Vec<f64> = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            w.push(x);
            fifo.push(x);
            let tail = &fifo[fifo.len().saturating_sub(cap)..];
            // Spot-check each prefix at the sampled percentile, and the
            // final state at the fixed grid below.
            prop_assert_eq!(w.percentile(p).unwrap(), naive_percentile(tail, p), "prefix {}", i);
        }
        let tail = &fifo[fifo.len().saturating_sub(cap)..];
        for q in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(w.percentile(q).unwrap(), naive_percentile(tail, q), "p{}", q);
        }
        prop_assert_eq!(w.max(), tail.iter().copied().reduce(f64::max));
        prop_assert_eq!(w.min(), tail.iter().copied().reduce(f64::min));
        prop_assert_eq!(w.len(), tail.len());
    }

    /// After every push the sorted index is, bit for bit, a `total_cmp`
    /// sort of the retained samples. Values come from a tiny set with both
    /// signed zeros, so long runs of equal samples are evicted and inserted
    /// at both ends of the index and on either side of each other.
    #[test]
    fn order_stat_sorted_index_matches_sort_after_every_push(
        picks in proptest::collection::vec(0usize..6, 1..600),
        cap in 1usize..=130,
    ) {
        const VALUES: [f64; 6] = [-0.0, 0.0, 0.25, 1.0, 1.0e-300, 7.5];
        let mut w = OrderStatWindow::new(cap).unwrap();
        for (i, &k) in picks.iter().enumerate() {
            w.push(VALUES[k]);
            let mut expected: Vec<f64> = w.iter().collect();
            expected.sort_by(f64::total_cmp);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(w.sorted()), bits(&expected), "push {}", i);
        }
    }

    /// Incremental mean/std match two-pass recomputation after arbitrary
    /// pushes with eviction.
    #[test]
    fn moving_window_std_matches_two_pass(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..400),
        cap in 1usize..128,
    ) {
        let mut w = MovingWindow::new(cap).unwrap();
        let mut fifo: Vec<f64> = Vec::new();
        for &x in &xs {
            w.push(x);
            fifo.push(x);
        }
        let tail = &fifo[fifo.len().saturating_sub(cap)..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!((w.mean() - mean).abs() <= 1e-9 * (1.0 + mean.abs()));
        let exact = naive_std(tail);
        prop_assert!(
            (w.population_std() - exact).abs() <= 1e-9 * (1.0 + exact),
            "incremental {} vs exact {}", w.population_std(), exact
        );
    }

    /// Long streams cross the REFRESH_EVERY = 4096 exact-recompute
    /// boundary; statistics must stay pinned to the ground truth on both
    /// sides of it.
    #[test]
    fn refresh_boundary_preserves_equivalence(
        cap in 1usize..128,
        seed in 0u64..1000,
        p in 0.0f64..=100.0,
    ) {
        let n = 4200usize; // > 4096, crosses the refresh boundary.
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                let h = (i as u64 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                1e6 + ((h >> 11) % 100_000) as f64 / 1000.0
            })
            .collect();
        let mut mw = MovingWindow::new(cap).unwrap();
        let mut ow = OrderStatWindow::new(cap).unwrap();
        for &x in &xs {
            mw.push(x);
            ow.push(x);
        }
        let tail = &xs[n - cap.min(n)..];
        prop_assert_eq!(ow.percentile(p).unwrap(), naive_percentile(tail, p));
        let exact = naive_std(tail);
        prop_assert!(
            (mw.population_std() - exact).abs() <= 1e-6 * (1.0 + exact),
            "incremental {} vs exact {} (cap {})", mw.population_std(), exact, cap
        );
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!((mw.mean() - mean).abs() <= 1e-9 * (1.0 + mean.abs()));
    }
}

/// Duplicates, signed zeros, and eviction order interact correctly: the
/// sorted index must evict exactly the sample that left the FIFO.
#[test]
fn eviction_with_duplicates_is_exact() {
    let mut w = OrderStatWindow::new(3).unwrap();
    for x in [1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 1.0] {
        w.push(x);
    }
    // FIFO tail is [2, 2, 1].
    assert_eq!(w.sorted(), &[1.0, 2.0, 2.0]);
    assert_eq!(w.percentile(50.0).unwrap(), 2.0);
}
