//! Figure 4: task submission rates across trace cells.

use crate::common::{per_cell, Opts};
use crate::output::Report;
use oc_trace::gen::submission_counts;
use std::error::Error;

/// Runs the Figure 4 reproduction: per-cell CDFs of tasks submitted per
/// 5-minute tick. The initial fill at tick 0 is excluded — it is an
/// artifact of starting the simulated cell hot, not an arrival.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let mut medians = Vec::new();
    let counts = per_cell(opts.trace_cells(3), |cell| {
        let ticks = cell.duration_ticks;
        let machines = opts.generate(cell)?;
        let counts: Vec<f64> = submission_counts(&machines, ticks)
            .into_iter()
            .skip(1) // Tick 0 is the initial fill.
            .map(|c| c as f64)
            .collect();
        let median = oc_stats::percentile_slice(&counts, 50.0)?;
        medians.push(1000.0 * median / machines.len() as f64);
        Ok(counts)
    })?;
    let mut r = Report::default();
    r.cdf_csv("fig4.csv", "", "cell (tasks/5min)", counts);
    let lo = medians.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = medians.iter().cloned().fold(0.0, f64::max);
    r.claim(
        "median submission rate per 1000 machines",
        format!("{lo:.0}..{hi:.0} tasks/5min"),
        "paper cells: ~50-1000 tasks/5min at 10-40k machines ⇒ ~5-40 per 1000 machines",
        lo >= 5.0 && hi <= 40.0,
    );
    Ok(r)
}
