//! The composite max-over-predictors policy.

use crate::predictor::PeakPredictor;
use crate::view::MachineView;
use oc_stats::resource::CPU;

/// Predicts the pointwise maximum over a set of component predictors.
///
/// "No single predictor is best suited for all the machines at all times"
/// (Section 5.4): the N-sigma predictor wins on machines where aggregate
/// load is near-Gaussian, the RC-like predictor guards machines whose
/// aggregate variance is deceptively low (trace cell `b`). Taking the max
/// inherits the safety of whichever component is currently the more
/// conservative, at a small cost in savings. `max(N-sigma, RC-like)` is
/// the policy the paper deploys to ≈12,000 production machines.
pub struct MaxPeak {
    components: Vec<Box<dyn PeakPredictor>>,
}

impl MaxPeak {
    /// Creates the composite from its components (at least one).
    pub fn new(components: Vec<Box<dyn PeakPredictor>>) -> MaxPeak {
        MaxPeak { components }
    }
}

impl std::fmt::Debug for MaxPeak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaxPeak")
            .field("name", &self.name())
            .finish()
    }
}

impl PeakPredictor for MaxPeak {
    fn name(&self) -> String {
        let inner: Vec<String> = self.components.iter().map(|c| c.name()).collect();
        format!("max({})", inner.join(","))
    }

    fn components(&self) -> &[Box<dyn PeakPredictor>] {
        &self.components
    }

    fn window_depth(&self, w: usize) -> usize {
        self.components
            .iter()
            .map(|c| c.window_depth(w))
            .max()
            .unwrap_or(0)
    }

    fn predict(&self, view: &MachineView) -> f64 {
        self.predict_lane(view, CPU)
    }

    fn predict_lane(&self, view: &MachineView, lane: usize) -> f64 {
        self.components
            .iter()
            .map(|c| c.predict_lane(view, lane))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorSpec;
    use crate::predictors::test_util::{feed_constant, small_view};
    use crate::predictors::{BorgDefault, NSigma};

    #[test]
    fn takes_the_maximum() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.5, 0.1)], 10);
        let n_sigma = NSigma::new(5.0);
        let borg = BorgDefault::new(0.9);
        let lo = n_sigma.predict(&view); // ~0.1.
        let hi = borg.predict(&view); // 0.45.
        let max = MaxPeak::new(vec![Box::new(n_sigma), Box::new(borg)]);
        let p = max.predict(&view);
        assert_eq!(p, lo.max(hi));
        assert!((p - 0.45).abs() < 1e-12);
    }

    #[test]
    fn name_lists_components() {
        let max = PredictorSpec::paper_max().build().unwrap();
        assert_eq!(max.name(), "max(n-sigma(5),rc-like(p99))");
    }

    #[test]
    fn dominates_each_component() {
        let (mut view, _) = small_view();
        feed_constant(&mut view, &[(0.4, 0.2), (0.3, 0.1)], 10);
        let spec = PredictorSpec::paper_max();
        let max = spec.build().unwrap();
        let PredictorSpec::Max(children) = &spec else {
            unreachable!()
        };
        for child in children {
            let c = child.build().unwrap();
            assert!(max.predict(&view) >= c.predict(&view) - 1e-12);
        }
    }
}
