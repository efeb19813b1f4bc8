//! Resource-Central-style per-task percentile predictor.

use crate::predictor::{clamp_prediction, clamp_prediction_lane, PeakPredictor};
use crate::view::MachineView;

/// Predicts the sum of a per-task usage percentile:
/// `P(J, t) = Σᵢ percₖ(Uᵢ) + Σ_cold Lᵢ`.
///
/// Modeled on Microsoft Resource Central's overcommit policy, which sums a
/// percentile of each VM's historical usage. Because percentiles are taken
/// *per task* before summing, this predictor inherits the pooling-effect
/// blind spot of all task-level approaches: tasks do not co-peak, so the
/// sum of high per-task percentiles overestimates the machine peak — yet
/// the usage variability of individual tasks still produces violations
/// when `k` is low (the Figure 9 trade-off).
///
/// Tasks still in warm-up contribute their limit instead of a percentile.
#[derive(Debug, Clone, Copy)]
pub struct RcLike {
    percentile: f64,
}

impl RcLike {
    /// Creates the predictor using the `percentile`-th per-task percentile
    /// (`(0, 100]`).
    pub fn new(percentile: f64) -> RcLike {
        RcLike { percentile }
    }

    /// The configured percentile.
    pub fn percentile(&self) -> f64 {
        self.percentile
    }
}

impl PeakPredictor for RcLike {
    fn name(&self) -> String {
        format!("rc-like(p{})", self.percentile)
    }

    fn window_depth(&self, w: usize) -> usize {
        oc_stats::percentile_depth(self.percentile, w)
    }

    fn predict(&self, view: &MachineView) -> f64 {
        let mut total = view.cold_limit_sum();
        for (_, task) in view.warm_tasks() {
            let pct = task
                .window()
                .percentile(self.percentile)
                // A warm task always has samples; treat a failed percentile
                // (empty window) as the conservative limit. A window too
                // shallow for this percentile panics instead.
                .unwrap_or(task.limit());
            total += pct.min(task.limit());
        }
        clamp_prediction(total, view)
    }

    fn predict_lane(&self, view: &MachineView, lane: usize) -> f64 {
        if lane == oc_stats::resource::CPU {
            return self.predict(view);
        }
        let mut total = view.cold_limit_sum_lane(lane);
        for (_, task) in view.warm_tasks() {
            let limit = task.limit_lane(lane);
            // The memory lane tracks the windowed *peak*, not a full
            // percentile index: memory is incompressible, so the warm
            // contribution must cover the recent peak — and peak-only
            // tracking is what keeps the second lane's observe cost O(1)
            // (see `TaskView::mem_peak`). A lane that was never observed
            // (scalar-only task) falls back to its limit (0.0 here).
            let peak = task.mem_peak().unwrap_or(limit);
            total += peak.min(limit);
        }
        clamp_prediction_lane(total, view, lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::test_util::{feed_constant, small_view};
    use oc_trace::ids::{JobId, TaskId};
    use oc_trace::time::Tick;

    #[test]
    fn cold_tasks_contribute_limits() {
        let (mut view, _) = small_view();
        // One tick: both tasks cold.
        feed_constant(&mut view, &[(0.4, 0.1), (0.3, 0.2)], 1);
        let p = RcLike::new(95.0);
        assert!((p.predict(&view) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn warm_tasks_contribute_percentiles() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.4, 0.1)], 6);
        // Constant usage: every percentile is 0.1.
        let p = RcLike::new(99.0);
        assert!((p.predict(&view) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_ordering() {
        // Varying usage: a higher percentile predicts at least as much.
        let (mut view, _) = small_view();
        let id = TaskId::new(JobId(1), 0);
        for (t, u) in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8].iter().enumerate() {
            view.observe(Tick(t as u64), [(id, 1.0, *u)]);
        }
        let lo = RcLike::new(50.0).predict(&view);
        let hi = RcLike::new(99.0).predict(&view);
        assert!(hi > lo, "p99 {hi} should exceed p50 {lo}");
    }

    #[test]
    fn prediction_capped_at_total_limit() {
        let (mut view, _) = small_view();
        // Usage equal to limit: percentile = limit, sum = total limit.
        feed_constant(&mut view, &[(0.4, 0.4), (0.3, 0.3)], 6);
        let p = RcLike::new(100.0).predict(&view);
        assert!(p <= view.total_limit() + 1e-12);
    }

    #[test]
    fn mixed_warm_and_cold() {
        let (mut view, _) = small_view();
        let warm = TaskId::new(JobId(1), 0);
        let cold = TaskId::new(JobId(2), 0);
        for t in 0..5u64 {
            if t < 4 {
                view.observe(Tick(t), [(warm, 0.5, 0.2)]);
            } else {
                view.observe(Tick(t), [(warm, 0.5, 0.2), (cold, 0.3, 0.25)]);
            }
        }
        // warm task contributes p95(0.2..) = 0.2; cold contributes 0.3.
        let p = RcLike::new(95.0).predict(&view);
        assert!((p - 0.5).abs() < 1e-9, "got {p}");
    }
}
