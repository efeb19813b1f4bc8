//! Extension experiments beyond the paper's figures.
//!
//! * `autopilot` — quantifies the paper's orthogonality argument: even
//!   after Autopilot-style per-task limit tuning, the pooling effect
//!   leaves machine-level overcommit headroom (Section 2.2 / Figure 1).
//! * `seasonal` — evaluates the seasonal daily-peak predictor extension
//!   against the paper's max predictor on the Figure 10 setup.

use crate::common::{mean, Opts};
use crate::fig10::{column, savings_table, Outcome};
use crate::output::Report;
use oc_core::autopilot::{recommend_limits, relative_slack, AutopilotConfig};
use oc_core::oracle::machine_oracle;
use oc_core::predictor::PredictorSpec;
use oc_trace::sample::UsageMetric;
use std::error::Error;

/// Runs the Autopilot orthogonality experiment.
pub fn run_autopilot(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let machines = opts.generate(opts.cell_a(3))?;
    let cfg = AutopilotConfig::default();

    let mut slack_before = Vec::new();
    let mut slack_after = Vec::new();
    let mut headroom_before = Vec::new();
    let mut headroom_after = Vec::new();
    for m in &machines {
        let n = m.horizon.len() as usize;
        let mut declared = vec![0.0; n];
        let mut tuned = vec![0.0; n];
        for task in &m.tasks {
            // Autopilot only helps tasks that live long enough to profile.
            let limits = recommend_limits(task, &cfg)?;
            let start = task.spec.start.index() as usize;
            if task.samples.len() > cfg.warmup_ticks {
                slack_before.push(relative_slack(
                    task,
                    &vec![task.spec.limit; task.samples.len()],
                ));
                slack_after.push(relative_slack(task, &limits));
            }
            for (k, &l) in limits.iter().enumerate() {
                declared[start + k] += task.spec.limit;
                tuned[start + k] += l;
            }
        }
        // Machine-level headroom left by each limit regime: ΣL / future
        // peak of the scheduled tasks.
        let po = machine_oracle(m, UsageMetric::P90, 288);
        for i in 0..n {
            if po[i] > 1e-9 {
                headroom_before.push(declared[i] / po[i]);
                headroom_after.push(tuned[i] / po[i]);
            }
        }
    }

    let mut r = Report::default();
    r.cdf(
        "",
        "distribution",
        vec![
            ("task slack, declared limits".into(), slack_before.clone()),
            ("task slack, autopilot limits".into(), slack_after.clone()),
            (
                "ΣL / machine peak, declared".into(),
                headroom_before.clone(),
            ),
            (
                "ΣL / machine peak, autopilot".into(),
                headroom_after.clone(),
            ),
        ],
    );
    let slack = mean(&slack_after);
    r.claim(
        "mean relative slack after Autopilot",
        format!("{slack:.2} (down from {:.2})", mean(&slack_before)),
        "Autopilot leaves ≈23% slack (its own paper), band 18–28%",
        (0.18..=0.28).contains(&slack),
    );
    let headroom = mean(&headroom_after);
    r.claim(
        "machine-level overcommit headroom surviving Autopilot",
        format!(
            "ΣL/peak {headroom:.2}× (down from {:.2}×) — still > 1",
            mean(&headroom_before)
        ),
        "pooling effect persists: per-task tuning cannot reach it (Fig. 1 argument)",
        headroom > 1.0,
    );
    r.csv_cdf(
        "ext_autopilot.csv",
        vec![
            ("slack_declared".into(), slack_before),
            ("slack_autopilot".into(), slack_after),
            ("headroom_declared".into(), headroom_before),
            ("headroom_autopilot".into(), headroom_after),
        ],
    );
    Ok(r)
}

/// Runs the seasonal-predictor extension on the Figure 10 setup.
pub fn run_seasonal(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let specs = [
        PredictorSpec::paper_max(),
        PredictorSpec::Seasonal {
            slots: 24,
            decay: 0.05,
            horizon_ticks: 288,
        },
        PredictorSpec::seasonal_max(),
    ];
    let run = opts.simulate(opts.cell_a(3), &specs)?;
    let rows: Vec<Outcome> = (0..run.predictors.len())
        .map(|i| Outcome::of(&run, i))
        .collect();
    let mut r = Report::default();
    let rates = column(&rows, |o| &o.rates);
    r.cdf_csv("ext_seasonal.csv", "", "predictor (violation rate)", rates);
    savings_table(&mut r, "predictor", &rows);

    let p90 = |i: usize| oc_stats::percentile_slice(&rows[i].rates, 90.0).unwrap_or(f64::NAN);
    r.claim(
        "adding the seasonal guard to the max composite",
        format!("p90 violation rate {:.4} → {:.4}", p90(0), p90(2)),
        "extension: closes the diurnal-trough blind spot at a modest savings cost",
        p90(2) <= 0.0,
    );
    Ok(r)
}
