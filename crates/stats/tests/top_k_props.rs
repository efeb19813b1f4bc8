//! [`TopKWindow`] against the full sorted index: every read the depth
//! allows — `len`, `last`, `max` and each percentile whose ranks lie
//! within the depth — returns the same bits as [`OrderStatWindow`]'s,
//! after every push of streams built to stress the retention rule. The
//! retained entries themselves, read through the window's record, match
//! a brute-force recomputation of the rule after every push.

use oc_stats::state::StateReader;
use oc_stats::{percentile_depth, OrderStatWindow, TopKWindow};
use proptest::prelude::*;
use std::cmp::Ordering;

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

/// The retained entries of `w` as its record lists them: `(arrival
/// index, bits)` pairs, in record order.
fn recorded_entries(w: &TopKWindow) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    w.encode(&mut out);
    let mut r = StateReader::new(&out);
    // Capacity, depth and push count come first.
    for _ in 0..3 {
        r.u64().unwrap();
    }
    let n = r.u64().unwrap();
    let entries = (0..n)
        .map(|_| (r.u64().unwrap(), r.f64().unwrap().to_bits()))
        .collect();
    r.finish().unwrap();
    entries
}

/// The entries a `cap`-sample window of each of `depths` must retain
/// after the pushes `xs`, from the rule itself: of the last `cap`
/// samples, each one fewer than `depth` newer samples are `≥` (by
/// `total_cmp`), ordered largest first, equal samples newest first.
fn brute_force_entries(xs: &[f64], cap: usize, depths: &[usize]) -> Vec<Vec<(u64, u64)>> {
    let start = xs.len().saturating_sub(cap);
    let window = &xs[start..];
    let newer_ge: Vec<usize> = (0..window.len())
        .map(|i| {
            let x = window[i];
            window[i + 1..]
                .iter()
                .filter(|y| y.total_cmp(&x) != Ordering::Less)
                .count()
        })
        .collect();
    let mut order: Vec<usize> = (0..window.len()).collect();
    order.sort_by(|&i, &j| window[j].total_cmp(&window[i]).then(j.cmp(&i)));
    depths
        .iter()
        .map(|&depth| {
            order
                .iter()
                .filter(|&&i| newer_ge[i] < depth)
                .map(|&i| ((start + i) as u64, window[i].to_bits()))
                .collect()
        })
        .collect()
}

/// Pushes `xs` into a window of each of `depths` and compares its
/// retained entries and their order with [`brute_force_entries`] after
/// each push.
fn check_retention(xs: &[f64], cap: usize, depths: &[usize]) -> Result<(), String> {
    let mut windows: Vec<TopKWindow> = depths
        .iter()
        .map(|&depth| TopKWindow::new(cap, depth).unwrap())
        .collect();
    for i in 0..xs.len() {
        let want = brute_force_entries(&xs[..=i], cap, depths);
        for (w, want) in windows.iter_mut().zip(want) {
            w.push(xs[i]);
            prop_assert_eq!(
                recorded_entries(w),
                want,
                "entries after push {} (cap {}, depth {})",
                i,
                cap,
                w.depth()
            );
        }
    }
    Ok(())
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

    /// Retention, not only reads: after every push the window keeps
    /// exactly the entries the rule keeps, in the rule's order, at depths
    /// 1, 3, 25 and the full window.
    #[test]
    fn top_k_retains_exactly_the_rule(
        draws in proptest::collection::vec((-100.0f64..100.0, 0u64..1000), 1..400),
        kind in 0u64..5,
        cap in 1usize..131,
    ) {
        let depths = [1, 3, 25, cap].map(|depth| depth.min(cap));
        check_retention(&stream(kind, &draws), cap, &depths)?;
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
