//! Figures 13 and 14: the production A/B experiment.

use crate::common::{mean, Opts, Scale};
use crate::output::{Report, Series};
use oc_scheduler::ab::{run_ab, AbConfig, GroupOutcome};
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::time::TICKS_PER_DAY;
use std::error::Error;

/// Ticks skipped at the start of the run (cluster fill-up transient).
const WARMUP_DAYS: u64 = 1;

/// The A/B configuration Figures 13 and 14 run: control borg-default(0.9)
/// against the seasonal max composite on one shared cluster.
pub(crate) fn config(opts: &Opts) -> AbConfig {
    let mut cell = opts.seeded(CellConfig::preset(CellPreset::Prod2));
    // Total machines across both groups (split by parity inside run_ab).
    let (machines, days) = match opts.scale {
        Scale::Quick => (24usize, 6u64),
        Scale::Full => (80usize, 32u64),
    };
    cell.machines = machines;
    // Production serving jobs are long-running: a machine's job mix (hot or
    // cold) persists for days, which is what makes limit-based placement
    // imbalanced. Shift the runtime mixture toward long services.
    cell.runtime.short_frac = 0.45;
    cell.runtime.long_median_hours = 60.0;
    cell.runtime.max_hours = 30.0 * 24.0;
    // Rough steady-state sizing: offered limit inflow × mean runtime should
    // exceed cluster capacity so admission is the binding constraint.
    let jobs_per_tick = 0.0045 * machines as f64;
    let mut cfg = AbConfig::paper_default(cell, jobs_per_tick);
    cfg.duration_ticks = days * TICKS_PER_DAY;
    cfg.replay_threads = opts.threads;
    // Borg spreads load across its candidate sample; worst-fit placement is
    // the closest classic policy and is what lets the usage-based
    // experiment group balance *actual* load rather than limits.
    cfg.placement = oc_scheduler::PlacementPolicy::WorstFit;
    // Section 6: "we tuned our max predictor in simulation to match the
    // risk profile of our borg-default peak predictor". Under this
    // generator's workload the matching configuration is the
    // simulation-tuned max composite guarded by the seasonal daily-peak
    // profile (Section 4's "max peak across predictors" with one more
    // component; see DESIGN.md §10) — without the guard, month-long runs
    // accumulate diurnal-trough overfill that control's limit gate is
    // structurally immune to.
    cfg.experiment = oc_core::predictor::PredictorSpec::seasonal_max();
    cfg
}

/// Runs the Figure 13 + Figure 14 reproduction.
///
/// Two identical clusters are offered the same arrival stream; the control
/// runs borg-default(0.9), the experiment runs max(N-sigma(3),
/// RC-like(p80)) — the production configuration of Section 6.1. Reported:
/// violation rate and severity (13a/b), relative savings (13c), total
/// allocations and workload (13d/e), per-task and per-machine latency
/// (14a/b), and machine-utilization percentiles (14c/d/e).
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let cfg = config(opts);
    let out = run_ab(&cfg)?;

    let skip = (WARMUP_DAYS * TICKS_PER_DAY) as usize;
    let tail = |v: &[f64]| -> Vec<f64> { v.iter().skip(skip).copied().collect() };
    let series = |f: &dyn Fn(&GroupOutcome) -> Vec<f64>| -> Vec<Series> {
        [&out.control, &out.experiment]
            .iter()
            .map(|g| (g.name.clone(), f(g)))
            .collect()
    };
    let mut r = Report::default();

    // --- Figure 13 -------------------------------------------------------
    r.cdf(
        "(13a) per-machine violation rate",
        "group (violation rate)",
        series(&|g| g.replay.violation_rates(0)),
    );
    r.cdf(
        "(13b) per-machine mean violation severity",
        "group (machine severity)",
        series(&|g| g.replay.mean_severities(0)),
    );
    r.cdf_csv(
        "fig13c_savings.csv",
        "(13c) relative savings (ΣL − ΣP)/ΣL per tick",
        "group (relative savings)",
        series(&|g| tail(&g.stats.savings)),
    );
    r.cdf(
        "(13d) total allocations (Σ limits / Σ capacity) per tick",
        "group (alloc/capacity)",
        series(&|g| tail(&g.stats.alloc_ratio)),
    );
    r.cdf(
        "(13e) total workload (Σ usage / Σ capacity) per tick",
        "group (usage/capacity)",
        series(&|g| tail(&g.stats.usage_ratio)),
    );

    let c_save = mean(&tail(&out.control.stats.savings));
    let e_save = mean(&tail(&out.experiment.stats.savings));
    r.claim(
        "savings: control vs experiment",
        format!("control {:.3}, exp {:.3}", c_save, e_save),
        "exp consistently above control (paper: 0.10-0.12 vs >0.16)",
    );
    let c_alloc = mean(&tail(&out.control.stats.alloc_ratio));
    let e_alloc = mean(&tail(&out.experiment.stats.alloc_ratio));
    r.claim(
        "workload increase by allocations",
        format!("{:+.1}%", 100.0 * (e_alloc - c_alloc)),
        "≈ +2%",
    );
    let c_use = mean(&tail(&out.control.stats.usage_ratio));
    let e_use = mean(&tail(&out.experiment.stats.usage_ratio));
    r.claim(
        "workload increase by usage",
        format!("{:+.1}%", 100.0 * (e_use - c_use)),
        "≈ +6%",
    );

    // --- Figure 14 -------------------------------------------------------
    let norm_unit = mean(&out.control.task_latency);
    r.cdf_csv(
        "fig14a_task_latency.csv",
        "(14a) per-task CPU scheduling latency (normalized to control mean)",
        "group (norm. task latency)",
        series(&|g| g.task_latency.iter().map(|&l| l / norm_unit).collect()),
    );
    r.cdf(
        "(14b) per-machine 90%ile CPU scheduling latency",
        "group (norm. p90 machine latency)",
        series(&|g| g.qos.iter().map(|q| q.p90 / norm_unit).collect()),
    );
    r.cdf(
        "(14c) median machine utilization",
        "group (p50 machine util)",
        series(&|g| g.util_p50.clone()),
    );
    r.cdf(
        "(14d) average machine utilization",
        "group (avg machine util)",
        series(&|g| g.util_avg.clone()),
    );
    r.cdf(
        "(14e) 99%ile machine utilization",
        "group (p99 machine util)",
        series(&|g| g.util_p99.clone()),
    );

    let p90 = |v: &[f64]| oc_stats::percentile_slice(v, 90.0).unwrap_or(f64::NAN);
    let c_l = p90(&out.control.task_latency);
    let e_l = p90(&out.experiment.task_latency);
    r.claim(
        "tail task latency: exp vs control at p90",
        format!("{:+.1}%", 100.0 * (e_l - c_l) / c_l),
        "exp lower (≈ −5%; needs production-scale pools — see EXPERIMENTS.md)",
    );
    let p99m = |g: &GroupOutcome| {
        let v: Vec<f64> = g.qos.iter().map(|q| q.p90).collect();
        oc_stats::percentile_slice(&v, 99.0).unwrap_or(f64::NAN)
    };
    r.claim(
        "hottest machine's p90 latency: exp vs control",
        format!(
            "{:+.1}%",
            100.0 * (p99m(&out.experiment) - p99m(&out.control)) / p99m(&out.control)
        ),
        "exp's worst machines no hotter than control's",
    );
    let med = |v: &[f64]| oc_stats::percentile_slice(v, 50.0).unwrap_or(f64::NAN);
    r.claim(
        "median machine utilization: exp vs control",
        format!(
            "exp {:.3} vs control {:.3}",
            med(&out.experiment.util_avg),
            med(&out.control.util_avg)
        ),
        "exp higher on the average machine",
    );
    let hot = |g: &GroupOutcome| {
        let mut v = g.util_p99.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.last().copied().unwrap_or(f64::NAN)
    };
    r.claim(
        "hottest machine p99 utilization: exp vs control",
        format!(
            "exp {:.3} vs control {:.3}",
            hot(&out.experiment),
            hot(&out.control)
        ),
        "exp's hottest machines are cooler (better balance)",
    );

    // Risk-profile matching (Section 6.2): the experiment group's
    // violation rates should be no worse than control's.
    let med_rate = |g: &GroupOutcome| {
        let v = g.replay.violation_rates(0);
        oc_stats::percentile_slice(&v, 50.0).unwrap_or(f64::NAN)
    };
    r.claim(
        "median violation rate: exp vs control",
        format!(
            "exp {:.4} vs control {:.4}",
            med_rate(&out.experiment),
            med_rate(&out.control)
        ),
        "exp slightly better (risk profile matched by design)",
    );

    Ok(r)
}
