//! Figure 11: the max predictor across all trace cells.

use crate::common::{mean, Opts};
use crate::fig10::{savings_table, violation_panels, Outcome};
use crate::output::Report;
use oc_core::predictor::PredictorSpec;
use std::error::Error;

/// Runs the Figure 11 reproduction: violation rate, severity and savings
/// of `max(N-sigma(5), RC-like(p99))` across trace cells `a..h`.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let spec = [PredictorSpec::paper_max()];
    let mut rows = Vec::new();
    for cell in opts.trace_cells(3) {
        let name = cell.id.name().to_string();
        rows.push(Outcome {
            name,
            ..Outcome::of(&opts.simulate(cell, &spec)?, 0)
        });
    }
    let mut r = Report::default();
    violation_panels(
        &mut r,
        "cell",
        &rows,
        "fig11a_violation_rate.csv",
        "(b) violation severity",
    );
    r.line("(c) savings");
    savings_table(&mut r, "cell", &rows);

    let cell = |name: &str| rows.iter().find(|o| o.name == name).expect("cell present");
    let (a, b) = (cell("a"), cell("b"));
    let p90 = |o: &Outcome| oc_stats::percentile_slice(&o.rates, 90.0);
    r.claim(
        "cell b (lowest usage variance) vs cell a violation rate",
        format!("p90 rate: b {:.4} vs a {:.4}", p90(b)?, p90(a)?),
        "cell b stands out as the worst; others comparable to a",
    );
    let others_better = rows
        .iter()
        .filter(|o| o.name != "a" && o.name != "b")
        .filter(|o| mean(&o.savings) >= mean(&a.savings))
        .count();
    r.claim(
        "savings in other cells vs cell a",
        format!("{others_better}/6 cells save at least as much as a"),
        "almost always greater than cell a",
    );
    Ok(r)
}
