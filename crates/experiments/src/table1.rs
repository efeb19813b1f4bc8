//! Table 1: the production-cell inventory.

use crate::common::{per_cell, Opts};
use crate::output::Report;
use oc_trace::cell::CellConfig;
use std::error::Error;

/// Paper machine counts (×10³) for production cells 1–5.
const PAPER_MACHINES: [f64; 5] = [40.0, 11.0, 10.5, 11.0, 3.5];
/// Paper task counts (×10⁶) for production cells 1–5.
const PAPER_TASKS: [f64; 5] = [14.8, 12.8, 9.4, 81.3, 3.7];

/// Runs the Table 1 reproduction: generates the five production cells and
/// reports machine and task counts next to the paper's (the presets keep
/// the paper's *ratios* at ≈400× smaller machine counts).
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    // Inventory ratios are the point of this table; keep the presets'
    // machine counts and shorten the period in quick runs instead.
    let cells = CellConfig::production_cells()
        .into_iter()
        .map(|preset| CellConfig {
            machines: preset.machines,
            ..opts.scaled(preset.clone(), 7)
        })
        .collect();
    let rows = per_cell(cells, |cell| {
        let machines = opts.generate(cell)?;
        let tasks: usize = machines.iter().map(|m| m.task_count()).sum();
        Ok((machines.len(), tasks))
    })?;
    let machine_counts: Vec<f64> = rows.iter().map(|(_, (m, _))| *m as f64).collect();
    let task_counts: Vec<f64> = rows.iter().map(|(_, (_, t))| *t as f64).collect();
    let median = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    let m_med = median(&machine_counts);
    let t_med = median(&task_counts);
    let pm_med = median(&PAPER_MACHINES);
    let pt_med = median(&PAPER_TASKS);

    let (mut t, mut csv_rows) = (Vec::new(), Vec::new());
    for (i, (name, (machines, tasks))) in rows.iter().enumerate() {
        t.push(vec![
            name.clone(),
            machines.to_string(),
            tasks.to_string(),
            format!("{:.2}", *machines as f64 / m_med),
            format!("{:.2}", PAPER_MACHINES[i] / pm_med),
            format!("{:.2}", *tasks as f64 / t_med),
            format!("{:.2}", PAPER_TASKS[i] / pt_med),
        ]);
        csv_rows.push(vec![name.clone(), machines.to_string(), tasks.to_string()]);
    }
    let mut r = Report::default();
    let header = [
        "cell",
        "machines",
        "tasks",
        "machines/median",
        "paper machines/median",
        "tasks/median",
        "paper tasks/median",
    ];
    r.table(&header, t);
    r.claim(
        "largest/smallest machine ratio",
        format!(
            "{:.1}",
            machine_counts.iter().cloned().fold(0.0, f64::max)
                / machine_counts.iter().cloned().fold(f64::INFINITY, f64::min)
        ),
        "40/3.5 ≈ 11.4",
    );
    r.csv("table1.csv", &["cell", "machines", "tasks"], csv_rows);
    Ok(r)
}
