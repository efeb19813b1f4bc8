//! Figure 6: estimating the machine-level peak from per-task within-window
//! percentiles.

use crate::common::{share, Opts};
use crate::output::Report;
use oc_trace::sample::UsageMetric;
use std::error::Error;

/// The per-task percentiles the paper sweeps.
const PERCENTILES: [f64; 7] = [50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 100.0];

/// Runs the Figure 6 reproduction.
///
/// For every machine-tick of cell `a`, estimates the machine-level peak as
/// the sum of each running task's `k`-th within-window usage percentile
/// and compares it against the ground-truth within-tick machine peak —
/// which only exists because the generator (like Borg, unlike the public
/// trace) knows the instantaneous series. The paper picks the 90th
/// percentile since it exceeds the actual peak ≈95 % of the time while
/// the sum of task maxima wildly overestimates.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let machines = opts.generate(opts.cell_a(3))?;

    let mut diffs: Vec<Vec<f64>> = vec![Vec::new(); PERCENTILES.len()];
    for m in &machines {
        for t in m.horizon.iter() {
            let Some(actual) = m.true_peak_at(t) else {
                continue;
            };
            let mut approx = [0.0f64; PERCENTILES.len()];
            for task in m.tasks_at(t) {
                let Some(s) = task.sample_at(t) else { continue };
                for (j, &p) in PERCENTILES.iter().enumerate() {
                    approx[j] += UsageMetric::interpolate(s, p);
                }
            }
            for (j, &a) in approx.iter().enumerate() {
                diffs[j].push(a - actual);
            }
        }
    }

    let p90 = PERCENTILES
        .iter()
        .position(|&p| p == 90.0)
        .expect("90 is swept");
    let safe_90 = share(&diffs[p90], |d| d >= 0.0);
    let series = PERCENTILES
        .iter()
        .zip(diffs)
        .map(|(p, d)| (format!("sum({p:.0}%ile)"), d))
        .collect();
    let mut r = Report::default();
    r.cdf_csv("fig6.csv", "", "estimator (approx − actual)", series);
    r.claim(
        "P(Σ 90%ile ≥ actual peak)",
        format!("{:.1}%", 100.0 * safe_90),
        "> 95% of the time",
    );
    Ok(r)
}
