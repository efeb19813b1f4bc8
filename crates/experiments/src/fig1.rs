//! Figure 1: the pooling effect — cell-level future peak computed from
//! machine-level peaks vs task-level peaks.

use crate::common::Opts;
use crate::output::Report;
use oc_core::oracle::{machine_oracle, task_future_peak};
use oc_trace::sample::UsageMetric;
use oc_trace::time::Tick;
use std::error::Error;

/// Runs the Figure 1 reproduction.
///
/// For every tick of trace cell `a`, sums (i) each machine's future peak
/// of its scheduled tasks and (ii) each task's individual future peak,
/// both normalized to the cell's total limit, and reports the two CDFs.
/// The paper reports the task-level sum ≈ 50 % above the machine-level
/// sum at the median.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let cell = opts.cell_a(3);
    let n = cell.duration_ticks as usize;
    let machines = opts.generate(cell)?;
    let metric = UsageMetric::P90;
    let full = n as u64;

    let mut machine_sum = vec![0.0; n];
    let mut task_sum = vec![0.0; n];
    let mut limit_sum = vec![0.0; n];
    for m in &machines {
        for (i, v) in machine_oracle(m, metric, full).into_iter().enumerate() {
            machine_sum[i] += v;
        }
        for task in &m.tasks {
            let start = task.spec.start.index() as usize;
            for (k, v) in task_future_peak(task, metric, full).into_iter().enumerate() {
                task_sum[start + k] += v;
            }
            for k in 0..task.samples.len() {
                limit_sum[start + k] += task.spec.limit;
            }
        }
    }
    for i in 0..n {
        assert!(
            (limit_sum[i]
                - machines
                    .iter()
                    .map(|m| m.total_limit_at(Tick(i as u64)))
                    .sum::<f64>())
            .abs()
                < 1e-6
        );
    }

    let norm = |series: &[f64]| -> Vec<f64> {
        series
            .iter()
            .zip(limit_sum.iter())
            .filter(|&(_, &l)| l > 0.0)
            .map(|(&v, &l)| v / l)
            .collect()
    };
    let machine_level = norm(&machine_sum);
    let task_level = norm(&task_sum);

    let median = |v: &[f64]| oc_stats::percentile_slice(v, 50.0).unwrap_or(0.0);
    let ratio = median(&task_level) / median(&machine_level);
    let mut r = Report::default();
    r.cdf(
        "",
        "series",
        vec![
            ("sum(machine-level peak)".into(), machine_level.clone()),
            ("sum(task-level peak)".into(), task_level.clone()),
        ],
    );
    r.claim(
        "median Σ task peaks / Σ machine peaks",
        format!("{ratio:.2}"),
        "≈1.5 (task-level ~50% higher)",
    );
    r.csv_cdf(
        "fig1.csv",
        vec![
            ("machine_level".into(), machine_level),
            ("task_level".into(), task_level),
        ],
    );
    Ok(r)
}
