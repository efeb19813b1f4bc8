//! Property tests for [`Histogram`]: the accuracy bound every reported
//! latency percentile rests on, the shape laws `bins()` promises, and
//! the merge-equals-concatenation law the serving layer's `STATS`
//! aggregation rests on (per-shard histograms merged bucket-wise must
//! behave exactly as if one histogram had ingested every shard's stream).

use oc_stats::{percentile_slice, Histogram};
use proptest::prelude::*;

/// Microsecond latencies from 1 µs to 10 s, spread evenly over the
/// decades: the tests draw exponents (the vendored proptest has no
/// mapped or log-uniform strategy) and raise ten to them here.
fn latencies_us(exponents: &[f64]) -> Vec<f64> {
    exponents.iter().map(|&e| 10f64.powf(e)).collect()
}

/// Latencies plus what the underflow counter exists for: one draw in
/// ten is negated, one in ten shrunk below the first bucket.
fn any_values(draws: &[(f64, u64)]) -> Vec<f64> {
    draws
        .iter()
        .map(|&(e, kind)| match kind {
            0 => -(10f64.powf(e)),
            1 => 10f64.powf(e - 9.0),
            _ => 10f64.powf(e),
        })
        .collect()
}

fn hist(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &x in values {
        h.push(x);
    }
    h
}

/// One bucket's relative width, with slack for the float rounding of
/// `percentile_slice`'s own interpolation.
const WIDTH: f64 = Histogram::BUCKET_WIDTH * (1.0 + 1e-9);

proptest! {
    /// At every sample's own rank the quantile is within one bucket's
    /// relative width of the exact percentile; between two ranks it lies
    /// within a bucket of the two samples `percentile_slice` interpolates
    /// across. Quantiles are monotone in `p`.
    #[test]
    fn quantiles_are_within_one_bucket_of_exact(
        exponents in proptest::collection::vec(0.0f64..7.0, 1..200),
        p in 0.0f64..=100.0,
    ) {
        let values = latencies_us(&exponents);
        let h = hist(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mut prev = 0.0;
        for k in 0..n {
            let p_k = if n == 1 { 50.0 } else { 100.0 * k as f64 / (n - 1) as f64 };
            let exact = percentile_slice(&values, p_k).unwrap();
            let q = h.quantile(p_k);
            prop_assert!(
                (q - exact).abs() <= exact * WIDTH,
                "rank {k}/{n}: quantile({p_k}) = {q}, exact {exact}"
            );
            prop_assert!(prev <= q, "quantile({p_k}) = {q} below {prev}");
            prev = q;
        }
        let below = ((n - 1) as f64 * p / 100.0).floor() as usize;
        let (lo, hi) = (sorted[below], sorted[(below + 1).min(n - 1)]);
        let q = h.quantile(p);
        prop_assert!(
            lo / (1.0 + WIDTH) <= q && q <= hi * (1.0 + WIDTH),
            "quantile({p}) = {q} outside [{lo}, {hi}] by more than a bucket"
        );
    }

    /// The bound does not depend on magnitude: a lone sample anywhere
    /// from 1 µs to past an hour reads back within one bucket width.
    #[test]
    fn relative_error_is_constant_from_a_microsecond_to_hours(
        e in 0.0f64..9.6,
        p in 0.0f64..=100.0,
    ) {
        let x = 10f64.powf(e);
        let q = hist(&[x]).quantile(p);
        prop_assert!((q - x).abs() <= x * WIDTH, "{x} read back as {q}");
    }

    /// `quantile` is monotone in `p` with underflow mass present too,
    /// and an empty histogram answers 0.
    #[test]
    fn quantile_is_monotone_in_p(
        draws in proptest::collection::vec((0.0f64..7.0, 0u64..10), 0..200),
        p_lo in 0.0f64..=100.0,
        p_hi in 0.0f64..=100.0,
    ) {
        let values = any_values(&draws);
        let h = hist(&values);
        let (p_lo, p_hi) = if p_lo <= p_hi { (p_lo, p_hi) } else { (p_hi, p_lo) };
        let (q_lo, q_hi) = (h.quantile(p_lo), h.quantile(p_hi));
        prop_assert!(
            q_lo <= q_hi,
            "quantile({p_lo}) = {q_lo} > quantile({p_hi}) = {q_hi}"
        );
        if values.is_empty() {
            prop_assert_eq!(q_hi, 0.0);
        }
    }

    /// `a.merge(&b)` equals ingesting the concatenated stream bucket for
    /// bucket (so every quantile agrees bit for bit), and `push_n(x, n)`
    /// equals `n` pushes of `x`.
    #[test]
    fn merge_equals_concatenated_stream_bucket_for_bucket(
        xs in proptest::collection::vec((0.0f64..7.0, 0u64..10), 0..150),
        ys in proptest::collection::vec((0.0f64..7.0, 0u64..10), 0..150),
        repeat in (0.0f64..7.0, 0u64..10),
        n in 0u64..40,
    ) {
        let (xs, ys, x) = (any_values(&xs), any_values(&ys), any_values(&[repeat])[0]);
        let mut merged = hist(&xs);
        merged.merge(&hist(&ys));
        let concat: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        let mut reference = hist(&concat);
        prop_assert_eq!(&merged, &reference);

        merged.push_n(x, n);
        for _ in 0..n {
            reference.push(x);
        }
        prop_assert_eq!(merged, reference);
    }
}

/// `bins()` edges are contiguous and strictly increasing, and a value
/// equal to a left edge counts in the bucket that edge opens.
#[test]
fn bin_edges_are_contiguous_and_open_their_own_bucket() {
    let edges: Vec<(f64, f64, u64)> = Histogram::new().bins().collect();
    for (i, &(left, right, _)) in edges.iter().enumerate() {
        assert!(left < right, "bucket {i}: [{left}, {right})");
        if let Some(&(next_left, _, _)) = edges.get(i + 1) {
            assert_eq!(right, next_left, "gap after bucket {i}");
        }
        let mut h = Histogram::new();
        h.push(left);
        assert_eq!(
            h.bins().position(|(_, _, c)| c == 1),
            Some(i),
            "edge {left} landed outside bucket {i}"
        );
    }
}
