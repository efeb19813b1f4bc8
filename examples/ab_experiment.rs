//! A small production-style A/B experiment.
//!
//! ```text
//! cargo run --release --example ab_experiment
//! ```
//!
//! One mixed cluster — even machines run the borg-default control policy,
//! odd machines the max-predictor experiment policy — serves one arrival
//! stream, exactly as in the paper's Section 6 deployment. The example
//! prints the side-by-side group metrics behind Figures 13 and 14.

use overcommit_repro::scheduler::ab::{run_ab, AbConfig};
use overcommit_repro::scheduler::GroupOutcome;
use overcommit_repro::trace::cell::{CellConfig, CellPreset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cell = CellConfig::preset(CellPreset::Prod2);
    cell.machines = 16; // Total; groups split 8/8 by parity.
    cell.runtime.short_frac = 0.45;
    cell.runtime.long_median_hours = 60.0;
    let mut cfg = AbConfig::paper_default(cell, 0.07);
    cfg.cluster.duration_ticks = 4 * 288; // Four days.

    // Risk-matched experiment arm (Section 6: the max predictor is tuned
    // in simulation to match borg-default's violation profile).
    cfg.experiment = overcommit_repro::core::predictor::PredictorSpec::paper_max();

    let out = run_ab(&cfg)?;
    println!(
        "cluster admission rate: {:.1}% of offered tasks\n",
        100.0 * out.admission_rate
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let row = |g: &GroupOutcome| {
        let rates = g.reports.violation_rates(0);
        println!(
            "{:>8}  savings {:.3}  alloc {:.3}  usage {:.3}  viol.rate {:.4}  p90 latency {:.2}",
            g.name,
            mean(&g.stats.savings),
            mean(&g.stats.alloc_ratio),
            mean(&g.stats.usage_ratio),
            mean(&rates),
            mean(&g.qos.iter().map(|q| q.p90).collect::<Vec<_>>()),
        );
    };
    row(&out.control);
    row(&out.experiment);

    println!(
        "\nThe experiment group advertises more capacity (higher savings), so\n\
         the shared scheduler routes it more workload; its usage-based\n\
         predictor keeps the violation profile at or below control's."
    );
    Ok(())
}
