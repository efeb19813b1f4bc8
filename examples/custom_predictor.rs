//! Implementing a custom peak predictor.
//!
//! ```text
//! cargo run --release --example custom_predictor
//! ```
//!
//! The artifact's stated goal is to let users "add any data-driven,
//! machine learning-based predictors as long as they use the specified
//! interfaces". This example adds an exponentially-weighted predictor:
//! an EWMA of the machine aggregate plus a multiple of the EWM deviation —
//! a cheap cousin of N-sigma that reacts faster to level shifts — and
//! benchmarks it against the built-ins on a whole cell.

use overcommit_repro::core::config::SimConfig;
use overcommit_repro::core::predictor::{clamp_prediction, PeakPredictor, PredictorSpec};
use overcommit_repro::core::runner::run_cell;
use overcommit_repro::core::view::MachineView;
use overcommit_repro::core::MachineReport;
use overcommit_repro::trace::cell::{CellConfig, CellPreset};
use overcommit_repro::trace::gen::WorkloadGenerator;

/// EWMA + k·EWM-deviation over the machine's warm aggregate window.
struct EwmaPredictor {
    /// Smoothing factor in `(0, 1]`; higher weights recent ticks more.
    alpha: f64,
    /// Deviation multiplier (plays the role of N in N-sigma).
    k: f64,
}

impl PeakPredictor for EwmaPredictor {
    fn name(&self) -> String {
        format!("ewma(a={},k={})", self.alpha, self.k)
    }

    // It reads the machine's aggregate window, no per-task one, so its
    // views need keep no per-task samples beyond the max.
    fn window_depth(&self, _w: usize) -> usize {
        0
    }

    fn predict(&self, view: &MachineView) -> f64 {
        let window = view.warm_aggregate();
        if window.is_empty() {
            return view.total_limit();
        }
        let mut level = 0.0;
        let mut dev = 0.0;
        let mut primed = false;
        for x in window.iter() {
            if !primed {
                level = x;
                primed = true;
            } else {
                dev = (1.0 - self.alpha) * dev + self.alpha * (x - level).abs();
                level = (1.0 - self.alpha) * level + self.alpha * x;
            }
        }
        clamp_prediction(level + self.k * dev + view.cold_limit_sum(), view)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 25;
    cell.duration_ticks = 3 * 288;
    let gen = WorkloadGenerator::new(cell)?;
    let machines = gen.generate_cell()?;

    // Built-ins run through the parallel runner...
    let cfg = SimConfig::default();
    let run = run_cell(
        gen.config().id.clone(),
        &machines,
        &cfg,
        &PredictorSpec::comparison_set(),
        4,
    )?;

    // ...while the custom predictor runs through `simulate_machine`
    // directly (the trait is all it needs to implement).
    let custom: Vec<Box<dyn PeakPredictor>> = vec![Box::new(EwmaPredictor { alpha: 0.1, k: 6.0 })];
    let mut custom_reports: Vec<MachineReport> = Vec::new();
    for m in &machines {
        let result = overcommit_repro::core::sim::simulate_machine(m, &cfg, &custom)?;
        custom_reports.extend(result.reports);
    }

    let summarize = |name: &str, rates: Vec<f64>, savings: Vec<f64>| {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:>30}  mean violation rate {:.4}  mean savings {:.4}",
            name,
            mean(&rates),
            mean(&savings)
        );
    };

    println!("cell a, {} machines, 3 days:\n", machines.len());
    for (i, name) in run.predictors.iter().enumerate() {
        summarize(name, run.violation_rates(i), run.machine_savings(i));
    }
    summarize(
        &custom[0].name(),
        custom_reports.iter().map(|r| r.violation_rate()).collect(),
        custom_reports.iter().map(|r| r.mean_savings()).collect(),
    );
    println!(
        "\nThe EWMA predictor slots into every harness in this workspace —\n\
         runner, A/B experiment, benches — through the PeakPredictor trait."
    );
    Ok(())
}
