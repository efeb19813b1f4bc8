//! Workload characterization report (`repro workload`).
//!
//! Reports the per-cell [`CellProfile`](oc_trace::CellProfile) the
//! substitution argument rests on
//! (DESIGN.md §2): size inventory, usage-to-limit gap, job structure,
//! diurnal strength and burstiness memory — the quantities a user would
//! compare against the real trace v3 before trusting conclusions drawn
//! from the generator.

use crate::common::{mean, per_cell, Opts};
use crate::output::{f, Report};
use oc_trace::analysis::profile;
use std::error::Error;

/// Runs the workload characterization across trace cells `a..h`.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let profiles = per_cell(opts.trace_cells(3), |cell| {
        Ok(profile(&opts.generate(cell)?).ok_or("empty cell profile")?)
    })?;
    let (mut t, mut csv) = (Vec::new(), Vec::new());
    let mut gaps = Vec::new();
    for (name, p) in profiles {
        gaps.push(1.0 - p.mean_usage_to_limit);
        t.push(vec![
            name.clone(),
            p.machines.to_string(),
            p.tasks.to_string(),
            p.jobs.to_string(),
            format!("{:.1}", p.tasks_per_job),
            format!("{:.1}", p.mean_runtime_hours),
            format!("{:.0}%", 100.0 * p.frac_under_24h),
            f(p.mean_usage_to_limit),
            f(p.mean_utilization),
            f(p.mean_limit_ratio),
            f(p.diurnal_strength),
            f(p.hourly_autocorrelation),
        ]);
        csv.push(vec![
            name,
            p.machines.to_string(),
            p.tasks.to_string(),
            p.jobs.to_string(),
            p.mean_usage_to_limit.to_string(),
            p.mean_utilization.to_string(),
            p.diurnal_strength.to_string(),
        ]);
    }
    let mut r = Report::default();
    let header = [
        "cell",
        "machines",
        "tasks",
        "jobs",
        "tasks/job",
        "runtime h",
        "<24h",
        "usage/limit",
        "util",
        "ΣL/cap",
        "diurnal",
        "ac(1h)",
    ];
    r.table(&header, t);
    r.claim(
        "mean relative slack (1 − usage/limit) across cells",
        format!("{:.2}", mean(&gaps)),
        "Autopilot reports ≈0.23 after tuning; untuned user limits leave much more",
    );
    r.csv(
        "workload.csv",
        &[
            "cell",
            "machines",
            "tasks",
            "jobs",
            "usage_to_limit",
            "utilization",
            "diurnal",
        ],
        csv,
    );
    Ok(r)
}
