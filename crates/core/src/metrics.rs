//! Evaluation metrics (Section 5.1.3 of the paper).
//!
//! Three metrics judge an overcommit policy against the peak oracle:
//!
//! * **Violation rate** — the fraction of ticks where the prediction is
//!   below the oracle (`P < PO`). The benefit-side proxy for risk; it is
//!   what correlates with tail CPU scheduling latency (Section 3.3).
//! * **Violation severity** — `max(0, PO − P) / PO` per tick; how *far*
//!   below the oracle a violating prediction is.
//! * **Savings ratio** — `(L − P) / L` per tick, where `L = Σ limits`: the
//!   additional usable capacity the policy creates relative to
//!   no-overcommit.
//!
//! Metrics are accumulated per machine over the simulated period; cells
//! aggregate machines.

use oc_stats::resource::{Res2, NUM_RESOURCES};
use oc_stats::Welford;
use oc_trace::ids::MachineId;

/// Tolerance for floating-point comparisons between predictions and oracle
/// values. A prediction within this distance of the oracle is not a
/// violation (it would be a tie in exact arithmetic).
pub const VIOLATION_EPS: f64 = 1e-9;

/// Per-machine, per-predictor metric summary.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// The machine the metrics describe.
    pub machine: MachineId,
    /// Display name of the predictor.
    pub predictor: String,
    /// Ticks simulated.
    pub ticks: u64,
    /// Ticks where the prediction violated the oracle.
    pub violations: u64,
    /// Severity values over all ticks (zero when not violating).
    pub severity: Welford,
    /// Savings ratio over all ticks.
    pub savings: Welford,
    /// Raw predictions.
    pub prediction: Welford,
    /// Oracle values.
    pub oracle: Welford,
    /// Σ limits per tick.
    pub limit: Welford,
}

impl MachineReport {
    /// Creates an empty report.
    pub fn new(machine: MachineId, predictor: String) -> MachineReport {
        MachineReport {
            machine,
            predictor,
            ticks: 0,
            violations: 0,
            severity: Welford::new(),
            savings: Welford::new(),
            prediction: Welford::new(),
            oracle: Welford::new(),
            limit: Welford::new(),
        }
    }

    /// Accumulates one tick: prediction `p`, oracle `po`, total limit `l`.
    pub fn record(&mut self, p: f64, po: f64, l: f64) {
        self.ticks += 1;
        let violating = p + VIOLATION_EPS < po;
        if violating {
            self.violations += 1;
        }
        let severity = if violating && po > 0.0 {
            ((po - p) / po).max(0.0)
        } else {
            0.0
        };
        self.severity.push(severity);
        let savings = if l > 0.0 { (l - p) / l } else { 0.0 };
        self.savings.push(savings);
        self.prediction.push(p);
        self.oracle.push(po);
        self.limit.push(l);
    }

    /// Fraction of ticks with an oracle violation.
    pub fn violation_rate(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.violations as f64 / self.ticks as f64
        }
    }

    /// Mean violation severity over the whole period (zeros included).
    pub fn mean_severity(&self) -> f64 {
        self.severity.mean()
    }

    /// Largest single-tick severity.
    pub fn max_severity(&self) -> f64 {
        if self.severity.is_empty() {
            0.0
        } else {
            self.severity.max()
        }
    }

    /// Mean savings ratio over the period.
    pub fn mean_savings(&self) -> f64 {
        self.savings.mean()
    }

    /// Whether the policy ever overcommitted (predicted below Σ limits).
    pub fn ever_overcommitted(&self) -> bool {
        self.savings.max() > VIOLATION_EPS
    }
}

/// Per-machine, per-predictor metric summaries for every resource lane.
///
/// Lane 0 (CPU) of a vector replay is accounted with exactly the same
/// [`MachineReport::record`] calls as a scalar replay, so its counters and
/// Welford moments are bit-identical to the scalar path.
#[derive(Debug, Clone)]
pub struct LaneReports {
    /// One report per resource lane, indexed by
    /// [`oc_stats::resource::CPU`] / [`oc_stats::resource::MEM`].
    pub lanes: [MachineReport; NUM_RESOURCES],
}

impl LaneReports {
    /// Creates empty per-lane reports for one machine and predictor.
    pub fn new(machine: MachineId, predictor: String) -> LaneReports {
        LaneReports {
            lanes: std::array::from_fn(|_| MachineReport::new(machine, predictor.clone())),
        }
    }

    /// Accumulates one tick of per-lane values.
    pub fn record(&mut self, p: Res2, po: Res2, l: Res2) {
        for (lane, report) in self.lanes.iter_mut().enumerate() {
            report.record(p.lane(lane), po.lane(lane), l.lane(lane));
        }
    }

    /// The report of one lane.
    pub fn lane(&self, lane: usize) -> &MachineReport {
        &self.lanes[lane]
    }
}

/// Full per-tick series retained when `record_series` is on.
#[derive(Debug, Clone)]
pub struct MachineSeries {
    /// Σ limits per tick.
    pub limit: Vec<f64>,
    /// Peak-oracle value per tick.
    pub oracle: Vec<f64>,
    /// Ground-truth within-tick machine peak.
    pub true_peak: Vec<f64>,
    /// Average machine usage per tick.
    pub avg_usage: Vec<f64>,
    /// Predictions per predictor (outer index = predictor).
    pub predictions: Vec<Vec<f64>>,
}

/// One machine's simulation output: one report per predictor, plus the
/// optional per-tick series.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The simulated machine.
    pub machine: MachineId,
    /// Machine capacity (for utilization normalization downstream).
    pub capacity: f64,
    /// One report per configured predictor, in configuration order.
    pub reports: Vec<MachineReport>,
    /// Per-tick series when requested.
    pub series: Option<MachineSeries>,
}

/// Full per-lane per-tick series retained by the vector replay when
/// `record_series` is on.
#[derive(Debug, Clone)]
pub struct MachineSeriesVec {
    /// Per-lane Σ limits per tick.
    pub limit: Vec<Res2>,
    /// Per-lane peak-oracle value per tick.
    pub oracle: Vec<Res2>,
    /// Per-lane predictions per predictor (outer index = predictor).
    pub predictions: Vec<Vec<Res2>>,
    /// Average machine CPU usage per tick (trace ground truth; the input
    /// of node power models).
    pub avg_usage: Vec<f64>,
    /// Total derived memory usage per tick.
    pub mem_usage: Vec<f64>,
}

/// One machine's vector-simulation output: per-lane reports per predictor.
#[derive(Debug, Clone)]
pub struct SimResultVec {
    /// The simulated machine.
    pub machine: MachineId,
    /// Per-lane machine capacity.
    pub capacity: Res2,
    /// Per-lane reports per configured predictor, in configuration order.
    pub reports: Vec<LaneReports>,
    /// Per-lane per-tick series when requested.
    pub series: Option<MachineSeriesVec>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_accounting() {
        let mut r = MachineReport::new(MachineId(0), "test".into());
        r.record(0.5, 0.8, 1.0); // Violation, severity 0.375, savings 0.5.
        r.record(0.9, 0.8, 1.0); // Safe.
        assert_eq!(r.ticks, 2);
        assert_eq!(r.violations, 1);
        assert!((r.violation_rate() - 0.5).abs() < 1e-12);
        assert!((r.mean_severity() - 0.1875).abs() < 1e-12);
        assert!((r.max_severity() - 0.375).abs() < 1e-12);
        assert!((r.mean_savings() - 0.3).abs() < 1e-12);
        assert!(r.ever_overcommitted());
    }

    #[test]
    fn exact_tie_is_not_a_violation() {
        let mut r = MachineReport::new(MachineId(0), "test".into());
        r.record(0.8, 0.8, 1.0);
        assert_eq!(r.violations, 0);
        assert_eq!(r.mean_severity(), 0.0);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let r = MachineReport::new(MachineId(0), "test".into());
        assert_eq!(r.violation_rate(), 0.0);
        assert_eq!(r.mean_severity(), 0.0);
        assert_eq!(r.max_severity(), 0.0);
        assert!(!r.ever_overcommitted());
    }

    #[test]
    fn zero_limit_yields_zero_savings() {
        let mut r = MachineReport::new(MachineId(0), "test".into());
        r.record(0.0, 0.0, 0.0);
        assert_eq!(r.mean_savings(), 0.0);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn limit_sum_never_violates() {
        // The conservative predictor P = L >= PO always.
        let mut r = MachineReport::new(MachineId(0), "limit-sum".into());
        for (po, l) in [(0.5, 1.0), (0.9, 1.0), (1.0, 1.0)] {
            r.record(l, po, l);
        }
        assert_eq!(r.violations, 0);
        assert_eq!(r.mean_savings(), 0.0);
    }
}
