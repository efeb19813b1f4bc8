//! Borg's static, limit-based default overcommit policy.

use crate::predictor::PeakPredictor;
use crate::view::MachineView;
use oc_stats::resource::CPU;

/// Predicts a fixed fraction of the sum of task limits: `φ · Σ Lᵢ`.
///
/// This mirrors the policy Borg has used since ~2016 and that many other
/// platforms adopt for its simplicity (Mesos, OpenShift, vSphere, GCE
/// sole-tenant overcommit). `φ = 1.0` disables overcommit; the paper
/// derives `φ = 0.9` from the observation that the 95th-percentile
/// usage-to-limit ratio stays below 0.9 in every trace cell (Figure 7(c)).
///
/// The policy ignores the workload entirely — the same fraction applies to
/// a calm machine and a bursty one — which is exactly the weakness the
/// usage-based predictors exploit.
#[derive(Debug, Clone, Copy)]
pub struct BorgDefault {
    phi: f64,
}

impl BorgDefault {
    /// Creates the policy with overcommit fraction `phi` in `(0, 1]`.
    pub fn new(phi: f64) -> BorgDefault {
        BorgDefault { phi }
    }

    /// The configured fraction.
    pub fn phi(&self) -> f64 {
        self.phi
    }
}

impl PeakPredictor for BorgDefault {
    fn name(&self) -> String {
        format!("borg-default({})", self.phi)
    }

    fn window_depth(&self, _w: usize) -> usize {
        0
    }

    fn predict(&self, view: &MachineView) -> f64 {
        self.predict_lane(view, CPU)
    }

    fn predict_lane(&self, view: &MachineView, lane: usize) -> f64 {
        self.phi * view.total_limit_lane(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::test_util::{feed_constant, small_view};

    #[test]
    fn scales_limit_sum() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.5, 0.1), (0.5, 0.4)], 5);
        let p = BorgDefault::new(0.9);
        assert!((p.predict(&view) - 0.9).abs() < 1e-12);
        assert_eq!(p.phi(), 0.9);
    }

    #[test]
    fn phi_one_is_no_overcommit() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.5, 0.1)], 5);
        assert!((BorgDefault::new(1.0).predict(&view) - view.total_limit()).abs() < 1e-12);
    }

    #[test]
    fn ignores_usage_entirely() {
        let (mut calm, _) = small_view();
        feed_constant(&mut calm, &[(0.5, 0.01)], 5);
        let (mut busy, _) = small_view();
        feed_constant(&mut busy, &[(0.5, 0.49)], 5);
        let p = BorgDefault::new(0.9);
        assert_eq!(p.predict(&calm), p.predict(&busy));
    }
}
