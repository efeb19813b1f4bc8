//! Figure 12: the max predictor over four consecutive weeks of cell `a`.

use crate::common::{banner, claim, Opts, Scale};
use crate::output::{cdf_header, cdf_row, f, write_cdf_csv, Table};
use oc_core::config::SimConfig;
use oc_core::metrics::VIOLATION_EPS;
use oc_core::predictor::PredictorSpec;
use oc_core::runner::run_cell_streaming;
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::gen::WorkloadGenerator;
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
///
/// # Errors
///
/// Propagates simulation and I/O errors.
pub fn run(opts: &Opts) -> Result<(), Box<dyn Error>> {
    banner("fig12", "max predictor across four weeks of cell a");
    let cell = cell(opts);
    let slice_len = (cell.duration_ticks / 4) as usize;
    let slice_name = if opts.scale == Scale::Quick {
        "slice"
    } else {
        "week"
    };

    let gen = WorkloadGenerator::new(cell)?;
    let run = run_cell_streaming(
        &gen,
        &SimConfig::default().with_series(),
        &[PredictorSpec::paper_max()],
        opts.threads,
    )?;

    let mut viol = Table::new(&cdf_header(&format!("{slice_name} (violation rate)")));
    let mut sev = Table::new(&cdf_header(&format!("{slice_name} (tick severity)")));
    let mut save = Table::new(&[slice_name, "mean cell savings"]);
    let mut viol_csv = Vec::new();
    let mut week_medians = Vec::new();

    for week in 0..4usize {
        let lo = week * slice_len;
        let hi = lo + slice_len;
        let mut rates = Vec::new();
        let mut sevs = Vec::new();
        let mut limit_sum = vec![0.0; slice_len];
        let mut pred_sum = vec![0.0; slice_len];
        for r in &run.results {
            let s = r.series.as_ref().expect("series enabled");
            let mut violations = 0usize;
            for i in lo..hi {
                let (p, po) = (s.predictions[0][i], s.oracle[i]);
                let violating = p + VIOLATION_EPS < po;
                if violating {
                    violations += 1;
                }
                sevs.push(if violating && po > 0.0 {
                    (po - p) / po
                } else {
                    0.0
                });
                limit_sum[i - lo] += s.limit[i];
                pred_sum[i - lo] += s.predictions[0][i];
            }
            rates.push(violations as f64 / slice_len as f64);
        }
        let savings: Vec<f64> = limit_sum
            .iter()
            .zip(pred_sum.iter())
            .map(|(&l, &p)| if l > 0.0 { (l - p) / l } else { 0.0 })
            .collect();
        let label = format!("{slice_name} {}", week + 1);
        viol.row(cdf_row(&label, &rates));
        sev.row(cdf_row(&label, &sevs));
        save.row(vec![
            label.clone(),
            f(savings.iter().sum::<f64>() / savings.len().max(1) as f64),
        ]);
        week_medians.push(oc_stats::percentile_slice(&rates, 50.0)?);
        viol_csv.push((label, rates));
    }
    println!("(a) per-machine violation rate");
    viol.print();
    println!("(b) violation severity");
    sev.print();
    println!("(c) savings");
    save.print();

    let spread = week_medians.iter().cloned().fold(0.0, f64::max)
        - week_medians.iter().cloned().fold(f64::INFINITY, f64::min);
    claim(
        "median violation rate spread across weeks",
        format!("{spread:.4}"),
        "consistent with week 1 (small spread)",
    );
    write_cdf_csv(&opts.csv("fig12a_violation_rate.csv"), &viol_csv)?;
    Ok(())
}
