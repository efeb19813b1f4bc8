//! Peak prediction-driven overcommitment — the paper's core contribution.
//!
//! This crate implements Sections 3–5 of *"Take it to the Limit: Peak
//! Prediction-driven Resource Overcommitment in Datacenters"* (EuroSys '21):
//!
//! * [`oracle`] — the clairvoyant peak oracle
//!   `PO(J, τ) = max_{t ≥ τ} Σᵢ Uᵢ(t)`, the provably safe and maximally
//!   efficient baseline, computed in O(n) per machine for any horizon.
//! * [`view`] — the node-agent state practical predictors are allowed to
//!   see: bounded per-task sample windows and warm-up counters.
//! * [`predictor`] / [`predictors`] — the [`PeakPredictor`] trait and the
//!   paper's policies: `limit-sum` (no overcommit), `borg-default`
//!   (static φ·ΣL), `RC-like` (per-task percentiles), `N-sigma`
//!   (machine-aggregate Gaussian), and `max` composites.
//! * [`sim`] / [`runner`] — the fortune-teller replay loop and the
//!   parallel cell-level runner.
//! * [`admission`] — the admission rule `P + L ≤ M`, on every lane.
//! * [`metrics`] — violation rate, violation severity and savings ratio
//!   (Section 5.1.3).
//!
//! # Examples
//!
//! Simulate one generated machine under the deployed policy:
//!
//! ```
//! use oc_core::config::SimConfig;
//! use oc_core::predictor::PredictorSpec;
//! use oc_core::sim::simulate_machine;
//! use oc_trace::cell::{CellConfig, CellPreset};
//! use oc_trace::gen::WorkloadGenerator;
//! use oc_trace::ids::MachineId;
//!
//! let mut cell = CellConfig::preset(CellPreset::A);
//! cell.duration_ticks = 288;
//! let gen = WorkloadGenerator::new(cell).unwrap();
//! let trace = gen.generate_machine(MachineId(0)).unwrap();
//!
//! let predictors = vec![PredictorSpec::paper_max().build().unwrap()];
//! let result = simulate_machine(&trace, &SimConfig::default(), &predictors).unwrap();
//! let report = &result.reports[0];
//! println!(
//!     "violation rate {:.4}, savings {:.3}",
//!     report.violation_rate(),
//!     report.mean_savings()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod autopilot;
pub mod config;
pub mod error;
pub mod ingest;
pub mod metrics;
pub mod oracle;
pub mod predictor;
pub mod predictors;
pub mod runner;
pub mod segtree;
pub mod sim;
pub mod view;

pub use config::SimConfig;
pub use error::CoreError;
pub use ingest::IncrementalView;
pub use metrics::{
    LaneReports, MachineReport, MachineSeries, MachineSeriesVec, SimResult, SimResultVec,
};
pub use predictor::{PeakPredictor, PredictorSpec};
pub use runner::{run_cell, run_cell_streaming, CellRun};
pub use view::MachineView;
