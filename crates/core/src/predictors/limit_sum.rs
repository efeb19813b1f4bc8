//! The conservative no-overcommit baseline.

use crate::predictor::PeakPredictor;
use crate::view::MachineView;
use oc_stats::resource::CPU;

/// Predicts the sum of all task limits.
///
/// This is "the most conservative peak predictor, which yields the most
/// unused capacity and never overcommits" (Section 3.2): since per-task
/// usage is capped at the limit, total usage can never exceed `Σ Lᵢ`, so
/// this predictor has zero violations and zero savings by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct LimitSum;

impl PeakPredictor for LimitSum {
    fn name(&self) -> String {
        "limit-sum".into()
    }

    fn predict(&self, view: &MachineView) -> f64 {
        self.predict_lane(view, CPU)
    }

    fn predict_lane(&self, view: &MachineView, lane: usize) -> f64 {
        view.total_limit_lane(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::test_util::{feed_constant, small_view};

    #[test]
    fn predicts_sum_of_limits() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.4, 0.1), (0.3, 0.05)], 5);
        assert!((LimitSum.predict(&view) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_machine_predicts_zero() {
        let (view, _) = small_view();
        assert_eq!(LimitSum.predict(&view), 0.0);
    }
}
