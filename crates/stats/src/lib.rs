//! Statistics substrate for the overcommit reproduction.
//!
//! This crate collects the numerical building blocks that the paper's
//! evaluation relies on, implemented from scratch so the workspace stays
//! dependency-light:
//!
//! * [`Ecdf`] — empirical cumulative distribution functions, the plot type
//!   used by almost every figure in the paper.
//! * [`Welford`] — numerically stable streaming mean / variance
//!   (used by the N-sigma predictor and by metric accumulation).
//! * [`percentile`] — exact percentiles with linear interpolation.
//! * [`MovingWindow`] — the bounded per-task sample window
//!   (`max_num_samples` in the paper) with O(1) mean/std.
//! * [`OrderStatWindow`] — the same FIFO window with a sorted index for
//!   O(1) percentile/min/max reads on the per-tick prediction hot path.
//! * [`resource`] — fixed-arity per-resource vectors ([`Res2`]) for
//!   multi-resource (CPU + memory) overcommit.
//! * [`correlation`] — Pearson and Spearman rank correlation
//!   (Section 3.3's violation-rate vs. latency analysis).
//! * [`regression`] — ordinary least squares (the "slope = 14.1" fit).
//! * [`bucket`] — bucketed error-bar summaries (Figure 3(d)).
//! * [`state`] — exact binary encode/decode of window state (every
//!   `f64` as its bits), the unit of member-to-member state transfer.
//! * [`Histogram`] — the one log-bucketed histogram (fixed shape, ≤ 1/32
//!   relative bucket width) behind every latency the service reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod correlation;
pub mod ecdf;
pub mod error;
pub mod histogram;
pub mod moving;
pub mod order_stat;
pub mod peak;
pub mod percentile;
pub mod regression;
pub mod resource;
pub mod state;
pub mod welford;

pub use bucket::{BucketStat, Bucketed};
pub use correlation::{pearson, spearman};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use histogram::Histogram;
pub use moving::MovingWindow;
pub use order_stat::OrderStatWindow;
pub use peak::PeakWindow;
pub use percentile::{percentile_of_sorted, percentile_slice};
pub use regression::{ols, OlsFit};
pub use resource::{Res2, ResourceVec};
pub use welford::Welford;
