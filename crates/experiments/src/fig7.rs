//! Figure 7: exploratory analysis configuring the oracle and borg-default.

use crate::common::{per_cell, share, Opts};
use crate::output::Report;
use oc_core::oracle::machine_oracle;
use oc_trace::sample::UsageMetric;
use oc_trace::time::TICKS_PER_HOUR;
use std::error::Error;

/// Runs Figure 7(a): task-runtime CDFs across cells.
pub fn run_a(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    // Runtime distributions need the full week to show the tail.
    let mut cells = opts.trace_cells(7);
    if opts.scale == crate::common::Scale::Quick {
        for cell in &mut cells {
            cell.machines = cell.machines.min(12);
        }
    }
    let runtimes = per_cell(cells, |cell| {
        Ok(opts
            .generate(cell)?
            .iter()
            .flat_map(|m| m.tasks.iter().map(|task| task.spec.runtime_hours()))
            .collect::<Vec<f64>>())
    })?;
    let under_24: Vec<(String, f64)> = runtimes
        .iter()
        .map(|(name, hours)| (name.clone(), share(hours, |h| h < 24.0)))
        .collect();
    let mut r = Report::default();
    r.cdf_csv("fig7a.csv", "", "cell (runtime hours)", runtimes);
    for (name, frac) in under_24 {
        let paper = match name.as_str() {
            "c" => "≈98% (the short-task cell)",
            "g" => "≈75% (the long-task cell)",
            _ => "75–98% depending on cell",
        };
        r.claim(
            format!("cell {name}: tasks shorter than 24h"),
            format!("{:.1}%", 100.0 * frac),
            paper,
        );
    }
    Ok(r)
}

/// Runs Figure 7(b): shorter-horizon oracles vs the 72-hour oracle.
pub fn run_b(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let machines = opts.generate(opts.cell_a(7))?;
    let metric = UsageMetric::P90;
    let horizons_h: [u64; 5] = [3, 6, 12, 24, 48];

    let mut diffs: Vec<Vec<f64>> = vec![Vec::new(); horizons_h.len()];
    for m in &machines {
        let reference = machine_oracle(m, metric, 72 * TICKS_PER_HOUR);
        for (j, &h) in horizons_h.iter().enumerate() {
            let shorter = machine_oracle(m, metric, h * TICKS_PER_HOUR);
            for (s, r) in shorter.iter().zip(reference.iter()) {
                if *r > 0.0 {
                    diffs[j].push((r - s) / r);
                }
            }
        }
    }

    let i24 = horizons_h
        .iter()
        .position(|&h| h == 24)
        .expect("24h is swept");
    let within_5 = share(&diffs[i24], |d| d < 0.05);
    let series = horizons_h
        .iter()
        .zip(diffs)
        .map(|(h, d)| (format!("oracle_{h}h"), d))
        .collect();
    let mut r = Report::default();
    r.cdf_csv("fig7b.csv", "", "oracle (norm. diff)", series);
    r.claim(
        "24h oracle within 5% of 72h oracle",
        format!("{:.1}% of points", 100.0 * within_5),
        "≥95% of points",
    );
    Ok(r)
}

/// Runs Figure 7(c): per-task usage-to-limit ratio CDFs across cells.
pub fn run_c(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let mut worst_p95 = 0.0f64;
    let ratios = per_cell(opts.trace_cells(3), |cell| {
        let machines = opts.generate(cell)?;
        let mut ratios = Vec::new();
        for m in &machines {
            for task in &m.tasks {
                for (k, s) in task.samples.iter().enumerate() {
                    // Subsample task-ticks 7× to bound memory. The ratio
                    // uses the window-average usage — the canonical usage
                    // field of trace v3.
                    if k % 7 == 0 {
                        ratios.push(s.avg / task.spec.limit);
                    }
                }
            }
        }
        worst_p95 = worst_p95.max(oc_stats::percentile_slice(&ratios, 95.0)?);
        Ok(ratios)
    })?;
    let mut r = Report::default();
    r.cdf_csv("fig7c.csv", "", "cell (usage/limit)", ratios);
    r.claim(
        "max over cells of 95%ile usage/limit",
        format!("{worst_p95:.3}"),
        "< 0.9 in every cell (motivates borg-default φ = 0.9)",
    );
    Ok(r)
}
