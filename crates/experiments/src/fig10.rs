//! Figure 10: the four-policy comparison on trace cell `a`, and the
//! violation, severity and savings panels Figures 10–12 and ext-seasonal
//! share.

use crate::common::{mean, Opts};
use crate::output::{f, Report, Series};
use oc_core::metrics::VIOLATION_EPS;
use oc_core::predictor::PredictorSpec;
use oc_core::runner::CellRun;
use std::error::Error;

/// One row of the violation, severity and savings panels — a predictor, a
/// cell or a week: per-machine violation rates, per-tick violation
/// severities pooled over all machines, and per-tick cell savings
/// `1 − ΣP/ΣL`.
pub(crate) struct Outcome {
    pub(crate) name: String,
    pub(crate) rates: Vec<f64>,
    pub(crate) severities: Vec<f64>,
    pub(crate) savings: Vec<f64>,
}

impl Outcome {
    /// Predictor `idx` of `run`, named after the predictor.
    pub(crate) fn of(run: &CellRun, idx: usize) -> Outcome {
        let series = || {
            run.results
                .iter()
                .map(|r| r.series.as_ref().expect("series recording enabled"))
        };
        let severities = series()
            .flat_map(|s| s.predictions[idx].iter().zip(&s.oracle))
            .map(|(&p, &po)| severity(p, po))
            .collect();
        Outcome {
            name: run.predictors[idx].clone(),
            rates: run.violation_rates(idx),
            severities,
            savings: run
                .cell_savings_series(idx)
                .expect("series recording enabled"),
        }
    }
}

/// The severity of one tick: the relative shortfall of the prediction `p`
/// below the oracle `po`, or 0 when it is not a violation.
pub(crate) fn severity(p: f64, po: f64) -> f64 {
    if p + VIOLATION_EPS < po && po > 0.0 {
        (po - p) / po
    } else {
        0.0
    }
}

/// `(name, pick(row))` for every row: the series of one panel.
pub(crate) fn column(rows: &[Outcome], pick: fn(&Outcome) -> &Vec<f64>) -> Vec<Series> {
    rows.iter()
        .map(|o| (o.name.clone(), pick(o).clone()))
        .collect()
}

/// Reports panel (a), the per-machine violation rates of `rows` (also
/// written to `csv`), and panel (b), their tick severities under
/// `severity_title`, each row labelled by `what`.
pub(crate) fn violation_panels(
    r: &mut Report,
    what: &str,
    rows: &[Outcome],
    csv: &str,
    severity_title: &str,
) {
    let rates = column(rows, |o| &o.rates);
    r.cdf_csv(
        csv,
        "(a) per-machine violation rate",
        &format!("{what} (violation rate)"),
        rates,
    );
    let severities = column(rows, |o| &o.severities);
    r.cdf(
        severity_title,
        &format!("{what} (tick severity)"),
        severities,
    );
}

/// Reports the mean cell savings of `rows` as a table, each row labelled
/// by `what`.
pub(crate) fn savings_table(r: &mut Report, what: &str, rows: &[Outcome]) {
    let rows = rows
        .iter()
        .map(|o| vec![o.name.clone(), f(mean(&o.savings))]);
    r.table(&[what, "mean cell savings"], rows.collect());
}

/// Runs the Figure 10 reproduction: violation-rate, severity, per-machine
/// savings and cell-level savings CDFs for borg-default, RC-like(p99),
/// N-sigma(5) and max(N-sigma, RC-like) on one week of cell `a`.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let specs = PredictorSpec::comparison_set();
    let run = opts.simulate(opts.cell_a(3), &specs)?;
    let rows: Vec<Outcome> = (0..specs.len()).map(|i| Outcome::of(&run, i)).collect();

    let mut r = Report::default();
    let severity_title = "(b) violation severity (per machine-tick)";
    violation_panels(
        &mut r,
        "predictor",
        &rows,
        "fig10a_violation_rate.csv",
        severity_title,
    );
    let machine_savings = (0..rows.len())
        .map(|i| (rows[i].name.clone(), run.machine_savings(i)))
        .collect();
    r.cdf(
        "(c) per-machine savings",
        "predictor (machine savings)",
        machine_savings,
    );
    r.cdf_csv(
        "fig10d_cell_savings.csv",
        "(d) cell-level savings",
        "predictor (cell savings)",
        column(&rows, |o| &o.savings),
    );

    // Headline ordering claims.
    let med = |i: usize| oc_stats::percentile_slice(&rows[i].rates, 50.0).unwrap_or(0.0);
    let mean_save = |i: usize| mean(&rows[i].savings);
    let [borg, rc, nsigma, max] = [0, 1, 2, 3];
    r.claim(
        "max beats N-sigma beats {RC-like, borg-default} on median violation rate",
        format!(
            "max {:.4}, n-sigma {:.4}, rc {:.4}, borg {:.4}",
            med(max),
            med(nsigma),
            med(rc),
            med(borg)
        ),
        "same ordering (Fig. 10(a))",
        med(max) <= med(nsigma) && med(nsigma) <= med(rc).min(med(borg)),
    );
    r.claim(
        "borg-default cell savings are pinned at 10%",
        format!("{:.4}", mean_save(borg)),
        "exactly 0.10 (to 1e-9)",
        (mean_save(borg) - 0.10).abs() <= 1e-9,
    );
    let (save_rc, save_nsigma, save_max) = (mean_save(rc), mean_save(nsigma), mean_save(max));
    r.claim(
        "RC-like generates the highest savings",
        format!("rc {save_rc:.3} vs n-sigma {save_nsigma:.3} vs max {save_max:.3}"),
        "RC-like highest; max slightly below N-sigma",
        save_rc > save_nsigma && save_nsigma >= save_max,
    );
    Ok(r)
}
