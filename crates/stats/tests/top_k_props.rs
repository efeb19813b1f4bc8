//! [`TopKWindow`] against the full sorted index: every read the depth
//! allows — `len`, `last`, `max` and each percentile whose ranks lie
//! within the depth — returns the same bits as [`OrderStatWindow`]'s,
//! after every push of streams built to stress the retention rule.

use oc_stats::{percentile_depth, OrderStatWindow, TopKWindow};
use proptest::prelude::*;

/// The percentiles read after every push: the paper's p99 and p80, the
/// ends, a median and off-grid ranks.
const GRID: [f64; 9] = [0.0, 33.3, 50.0, 80.0, 90.0, 95.0, 99.0, 99.9, 100.0];

/// A stream of `kind`: 0 random, 1 heavily tied (a few values, both
/// zeros among them), 2 monotone decreasing (every sample retained), 3
/// only signed zeros, 4 monotone increasing (each sample dominates all
/// before it).
fn stream(kind: u64, draws: &[(f64, u64)]) -> Vec<f64> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &(x, pick))| match kind {
            0 => x,
            1 => [-0.0, 0.0, 0.25, 0.5, 1.0][pick as usize % 5],
            2 => 1e3 - i as f64 - x.abs() / 1e3,
            3 => [0.0, -0.0][pick as usize % 2],
            _ => i as f64 + x.abs() / 1e3,
        })
        .collect()
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Pushes `xs` into both windows and compares every allowed read after
/// each push. Returns the most entries the top-k window ever held.
fn check(xs: &[f64], cap: usize, depth: usize) -> Result<usize, String> {
    let mut top = TopKWindow::new(cap, depth).unwrap();
    let mut full = OrderStatWindow::new(cap).unwrap();
    let mut most = 0;
    for (i, &x) in xs.iter().enumerate() {
        top.push(x);
        full.push(x);
        most = most.max(top.retained());
        prop_assert_eq!(top.len(), full.len(), "len after push {}", i);
        prop_assert_eq!(bits(top.last()), bits(full.last()), "last after push {}", i);
        prop_assert_eq!(bits(top.max()), bits(full.max()), "max after push {}", i);
        for p in GRID {
            if percentile_depth(p, cap) <= depth {
                prop_assert_eq!(
                    top.percentile(p).unwrap().to_bits(),
                    full.percentile(p).unwrap().to_bits(),
                    "p{} after push {} (cap {}, depth {})",
                    p,
                    i,
                    cap,
                    depth
                );
            }
        }
    }
    Ok(most)
}

proptest! {
    /// Any depth: the reads its percentiles allow match bit for bit.
    #[test]
    fn top_k_reads_match_order_stat_window(
        draws in proptest::collection::vec((-100.0f64..100.0, 0u64..1000), 1..400),
        kind in 0u64..5,
        cap in 1usize..131,
        depth in 1usize..131,
    ) {
        check(&stream(kind, &draws), cap, depth.min(cap))?;
    }

    /// The depths the predictors derive (p99 and p80 over the window,
    /// and the full window), on the same streams.
    #[test]
    fn derived_depths_answer_their_percentile(
        draws in proptest::collection::vec((-100.0f64..100.0, 0u64..1000), 1..400),
        kind in 0u64..5,
        cap in 1usize..131,
    ) {
        for depth in [percentile_depth(99.0, cap), percentile_depth(80.0, cap), cap] {
            check(&stream(kind, &draws), cap, depth)?;
        }
    }
}

/// The two extremes of retention at the paper's window and p99 depth: a
/// decreasing stream keeps every sample (nothing newer is ever `≥`), an
/// increasing one only the newest `depth`.
#[test]
fn monotone_streams_bound_retention() {
    let (cap, depth) = (120, percentile_depth(99.0, 120));
    let draws: Vec<(f64, u64)> = (0..500).map(|i| (i as f64 / 7.0, i)).collect();
    assert_eq!(check(&stream(2, &draws), cap, depth).unwrap(), cap);
    assert_eq!(check(&stream(4, &draws), cap, depth).unwrap(), depth);
}
