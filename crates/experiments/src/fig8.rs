//! Figures 8 and 9: configuring the N-sigma and RC-like predictors.
//!
//! Both figures run one sweep on trace cell `a`, each over its own
//! predictor family: (a/b) the family's parameter at 2 h warm-up and 10 h
//! history, with violation-rate CDFs and mean cell savings; (c) warm-up
//! ∈ {1,2,3} h and (d) history ∈ {2,5,10} h at a fixed parameter.

use crate::common::{mean, Opts};
use crate::output::{f, Report, Series};
use oc_core::config::SimConfig;
use oc_core::predictor::PredictorSpec;
use oc_core::runner::run_cell_streaming;
use oc_trace::gen::WorkloadGenerator;
use std::error::Error;

/// One predictor family's sweep.
struct Sweep {
    /// Figure id, the prefix of the CSV files.
    fig: &'static str,
    /// The parameter's name in row labels and headings.
    param: &'static str,
    /// The parameter as the subject of a claim.
    subject: &'static str,
    /// The swept values, ascending.
    values: [f64; 4],
    /// Short labels of the first and last value, for claims.
    ends: [&'static str; 2],
    /// The parameter value of the warm-up and history sweeps, and its label.
    fixed: (f64, &'static str),
    /// The family's predictor at a parameter value.
    spec: fn(f64) -> PredictorSpec,
    /// The paper's text for the history-vs-warm-up claim.
    history_paper: &'static str,
}

const N_SIGMA: Sweep = Sweep {
    fig: "fig8",
    param: "n",
    subject: "n",
    values: [2.0, 3.0, 5.0, 10.0],
    ends: ["n=2", "n=10"],
    fixed: (5.0, "n=5"),
    spec: |n| PredictorSpec::NSigma { n },
    history_paper: "warm-up barely matters; history has pronounced impact",
};

const RC_LIKE: Sweep = Sweep {
    fig: "fig9",
    param: "percentile",
    subject: "the percentile",
    values: [80.0, 90.0, 95.0, 99.0],
    ends: ["p80", "p99"],
    fixed: (95.0, "95%ile"),
    spec: |percentile| PredictorSpec::RcLike { percentile },
    history_paper: "same behaviour as the N-sigma predictor",
};

/// Runs the Figure 8 reproduction: the N-sigma predictor under
/// `n ∈ {2,3,5,10}`, then warm-up and history at `n = 5`.
pub fn run_n_sigma(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    sweep(opts, &N_SIGMA)
}

/// Runs the Figure 9 reproduction: the RC-like predictor under
/// percentile ∈ {80,90,95,99}, then warm-up and history at the 95th.
pub fn run_rc_like(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    sweep(opts, &RC_LIKE)
}

fn sweep(opts: &Opts, s: &Sweep) -> Result<Report, Box<dyn Error>> {
    let gen = WorkloadGenerator::new(opts.cell_a(3))?;
    // One point: per-machine violation rates and mean cell savings `1 − ΣP/ΣL`.
    let point = |label: String, spec: PredictorSpec, warmup_hours: f64, history_hours: f64| {
        let cfg = SimConfig::default()
            .with_warmup_hours(warmup_hours)
            .with_history_hours(history_hours)
            .with_series();
        let run = run_cell_streaming(&gen, &cfg, &[spec], opts.threads)?;
        let savings = run
            .cell_savings_series(0)
            .expect("series recording enabled");
        Ok::<_, Box<dyn Error>>(((label, run.violation_rates(0)), mean(&savings)))
    };
    let fixed = (s.spec)(s.fixed.0);
    let (by_param, savings): (Vec<Series>, Vec<f64>) = s
        .values
        .iter()
        .map(|&v| point(format!("{} = {v}", s.param), (s.spec)(v), 2.0, 10.0))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let warm = [1.0, 2.0, 3.0]
        .into_iter()
        .map(|w| Ok(point(format!("warm-up = {w}h"), fixed.clone(), w, 10.0)?.0))
        .collect::<Result<Vec<Series>, Box<dyn Error>>>()?;
    let hist = [2.0, 5.0, 10.0]
        .into_iter()
        .map(|h| Ok(point(format!("history = {h}h"), fixed.clone(), 2.0, h)?.0))
        .collect::<Result<Vec<Series>, Box<dyn Error>>>()?;

    let med = |(_, rates): &Series| oc_stats::percentile_slice(rates, 50.0).unwrap_or(0.0);
    let spread = |points: &[Series]| {
        let meds: Vec<f64> = points.iter().map(med).collect();
        meds.iter().cloned().fold(0.0, f64::max)
            - meds.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    // Monotone decrease: no step up, and lower at the end than at the start.
    let falls = |v: &[f64]| v.windows(2).all(|w| w[1] <= w[0]) && v[v.len() - 1] < v[0];
    let meds: Vec<f64> = by_param.iter().map(med).collect();
    let [lo, hi] = s.ends;
    let last = s.values.len() - 1;
    let rate_claim = format!("median {:.3} ({lo}) → {:.3} ({hi})", meds[0], meds[last]);
    let savings_claim = format!("{:.3} ({lo}) → {:.3} ({hi})", savings[0], savings[last]);
    let (spread_hist, spread_warm) = (spread(&hist), spread(&warm));
    let history_claim =
        format!("median spread: history {spread_hist:.4} vs warm-up {spread_warm:.4}");

    let mut r = Report::default();
    let t = by_param.iter().zip(&savings);
    let t = t
        .map(|((label, _), saved)| vec![label.clone(), f(*saved)])
        .collect();
    let (fig, param, fixed) = (s.fig, s.param, s.fixed.1);
    r.cdf_csv(
        &format!("{fig}a.csv"),
        &format!("(a) effect of {param}  (b) effect of {param} on savings"),
        "config (violation rate)",
        by_param,
    );
    r.table(&["config", "mean cell savings (1 − ΣP/ΣL)"], t);
    let subject = s.subject;
    r.claim(
        format!("violation rate falls as {subject} grows"),
        rate_claim,
        "monotone decrease",
        falls(&meds),
    );
    r.claim(
        format!("savings fall as {subject} grows"),
        savings_claim,
        "monotone decrease",
        falls(&savings),
    );
    r.cdf_csv(
        &format!("{fig}c.csv"),
        &format!("(c) effect of warm-up ({fixed}, 10h history)"),
        "config (violation rate)",
        warm,
    );
    r.cdf_csv(
        &format!("{fig}d.csv"),
        &format!("(d) effect of history ({fixed}, 2h warm-up)"),
        "config (violation rate)",
        hist,
    );
    r.claim(
        "history moves violations more than warm-up",
        history_claim,
        s.history_paper,
        spread_hist > spread_warm,
    );
    Ok(r)
}
