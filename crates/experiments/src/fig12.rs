//! Figure 12: the max predictor over four consecutive weeks of cell `a`.

use crate::common::{Opts, Scale};
use crate::fig10::{savings_table, severity, violation_panels, Outcome};
use crate::output::Report;
use oc_core::metrics::VIOLATION_EPS;
use oc_core::predictor::PredictorSpec;
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::time::TICKS_PER_DAY;
use std::error::Error;

/// Four weeks of cell `a`; a quick run keeps four slices, but shorter
/// ones (4 × 2 days), on a quarter of the machines.
pub(crate) fn cell(opts: &Opts) -> CellConfig {
    let mut cell = CellConfig::preset(CellPreset::A).with_weeks(4);
    if opts.scale == Scale::Quick {
        cell.machines = (cell.machines / 4).max(6);
        cell.duration_ticks = 8 * TICKS_PER_DAY;
    }
    opts.seeded(cell)
}

/// Runs the Figure 12 reproduction: a single four-week simulation of cell
/// `a` under the max predictor, sliced per week — violation rate,
/// severity and savings must be stable across weeks.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let cell = cell(opts);
    let slice_len = (cell.duration_ticks / 4) as usize;
    let slice_name = if opts.scale == Scale::Quick {
        "slice"
    } else {
        "week"
    };

    let run = opts.simulate(cell, &[PredictorSpec::paper_max()])?;

    let mut rows = Vec::new();
    for week in 0..4usize {
        let lo = week * slice_len;
        let hi = lo + slice_len;
        let mut rates = Vec::new();
        let mut severities = Vec::new();
        let mut limit_sum = vec![0.0; slice_len];
        let mut pred_sum = vec![0.0; slice_len];
        for r in &run.results {
            let s = r.series.as_ref().expect("series enabled");
            let mut violations = 0usize;
            for i in lo..hi {
                let (p, po) = (s.predictions[0][i], s.oracle[i]);
                if p + VIOLATION_EPS < po {
                    violations += 1;
                }
                severities.push(severity(p, po));
                limit_sum[i - lo] += s.limit[i];
                pred_sum[i - lo] += s.predictions[0][i];
            }
            rates.push(violations as f64 / slice_len as f64);
        }
        let savings = limit_sum
            .iter()
            .zip(pred_sum.iter())
            .map(|(&l, &p)| if l > 0.0 { (l - p) / l } else { 0.0 })
            .collect();
        rows.push(Outcome {
            name: format!("{slice_name} {}", week + 1),
            rates,
            severities,
            savings,
        });
    }
    let mut r = Report::default();
    let csv = "fig12a_violation_rate.csv";
    violation_panels(&mut r, slice_name, &rows, csv, "(b) violation severity");
    r.line("(c) savings");
    savings_table(&mut r, slice_name, &rows);

    let week_medians = rows
        .iter()
        .map(|o| oc_stats::percentile_slice(&o.rates, 50.0))
        .collect::<Result<Vec<f64>, _>>()?;
    let spread = week_medians.iter().cloned().fold(0.0, f64::max)
        - week_medians.iter().cloned().fold(f64::INFINITY, f64::min);
    let w1 = week_medians[0];
    r.claim(
        "median violation rate spread across weeks",
        format!("{spread:.4}"),
        "consistent with week 1: every median within ±20% of week 1's",
        week_medians.iter().all(|&m| (m - w1).abs() <= 0.2 * w1),
    );
    Ok(r)
}
