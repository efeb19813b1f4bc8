//! The N-sigma machine-aggregate predictor.

use crate::predictor::{clamp_prediction_lane, PeakPredictor};
use crate::view::MachineView;
use oc_stats::resource::CPU;

/// Predicts `mean(U(J)) + N · std(U(J))` over the machine-level aggregate
/// usage window, plus the limits of tasks still in warm-up.
///
/// The key insight (Section 4): although per-task usage is neither
/// independent nor identically distributed, the Gaussian approximation of
/// the *total* machine load matches the actual distribution well. Working
/// on the aggregate makes this predictor the only built-in policy that
/// prices in statistical multiplexing — sibling tasks that never co-peak
/// produce a low aggregate variance and therefore a low, accurate
/// prediction, where the task-level RC-like predictor must assume the
/// worst.
///
/// Under the Gaussian approximation, `N = 2` tracks the 95th percentile of
/// the load distribution and `N = 3` the 99th. The paper picks `N = 5` in
/// simulation and `N = 3` in production.
#[derive(Debug, Clone, Copy)]
pub struct NSigma {
    n: f64,
}

impl NSigma {
    /// Creates the predictor with multiplier `n >= 0`.
    pub fn new(n: f64) -> NSigma {
        NSigma { n }
    }

    /// The configured multiplier.
    pub fn n(&self) -> f64 {
        self.n
    }
}

impl PeakPredictor for NSigma {
    fn name(&self) -> String {
        format!("n-sigma({})", self.n)
    }

    fn window_depth(&self, _w: usize) -> usize {
        0
    }

    fn predict(&self, view: &MachineView) -> f64 {
        self.predict_lane(view, CPU)
    }

    fn predict_lane(&self, view: &MachineView, lane: usize) -> f64 {
        let w = view.warm_aggregate_lane(lane);
        let raw = if w.is_empty() {
            // Nothing observed at all: be conservative.
            view.total_limit_lane(lane)
        } else {
            w.mean() + self.n * w.population_std() + view.cold_limit_sum_lane(lane)
        };
        clamp_prediction_lane(raw, view, lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::test_util::{feed_constant, small_view};
    use oc_trace::ids::{JobId, TaskId};
    use oc_trace::time::Tick;

    #[test]
    fn constant_usage_predicts_mean() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.4, 0.1)], 10);
        // Aggregate window (capacity 8) once warm holds 0.1s, but the first
        // two cold ticks recorded 0.0 and have been evicted by tick 10.
        let p = NSigma::new(5.0).predict(&view);
        assert!((p - 0.1).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn larger_n_predicts_more() {
        let (mut view, _) = small_view();
        let id = TaskId::new(JobId(1), 0);
        for (t, u) in [0.1, 0.3, 0.1, 0.3, 0.1, 0.3, 0.1, 0.3].iter().enumerate() {
            view.observe(Tick(t as u64), [(id, 1.0, *u)]);
        }
        let p2 = NSigma::new(2.0).predict(&view);
        let p5 = NSigma::new(5.0).predict(&view);
        assert!(p5 > p2, "5-sigma {p5} should exceed 2-sigma {p2}");
    }

    #[test]
    fn empty_view_is_conservative() {
        let (view, _) = small_view();
        assert_eq!(NSigma::new(3.0).predict(&view), 0.0); // Σ limits = 0.
    }

    #[test]
    fn cold_tasks_add_their_limits() {
        let (mut view, _) = small_view();
        // 1 tick => task is cold; aggregate window holds one 0.0 sample.
        feed_constant(&mut view, &[(0.4, 0.1)], 1);
        let p = NSigma::new(5.0).predict(&view);
        assert!((p - 0.4).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn capped_at_total_limit() {
        let (mut view, _) = small_view();
        let id = TaskId::new(JobId(1), 0);
        // Wildly varying usage pushes mean + 5σ above the limit.
        for (t, u) in [0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0.0, 0.5].iter().enumerate() {
            view.observe(Tick(t as u64), [(id, 0.5, *u)]);
        }
        let p = NSigma::new(10.0).predict(&view);
        assert!(p <= view.total_limit() + 1e-12);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_benefits_from_multiplexing() {
        // Two anti-correlated tasks: aggregate variance ~0, so N-sigma on
        // the aggregate predicts far less than per-task worst cases would.
        let (mut view, _) = small_view();
        let a = TaskId::new(JobId(1), 0);
        let b = TaskId::new(JobId(2), 0);
        // 16 ticks: the cold-era zero entries age out of the 8-slot window.
        for t in 0..16u64 {
            let (ua, ub) = if t % 2 == 0 { (0.4, 0.1) } else { (0.1, 0.4) };
            view.observe(Tick(t), [(a, 0.5, ua), (b, 0.5, ub)]);
        }
        let p = NSigma::new(5.0).predict(&view);
        // Aggregate is constant 0.5 => prediction ~0.5, far below Σ L = 1.0.
        assert!((p - 0.5).abs() < 1e-9, "got {p}");
    }
}
