//! Generator diagnostics: where the oracle sits relative to limits.
//!
//! Not a paper figure — a calibration aid. Reports, for one cell, the
//! distribution of the oracle-to-limit ratio `PO(τ)/ΣL(τ)` over machine-
//! ticks, plus the usage-to-limit ratio. The borg-default policy violates
//! exactly when `PO/ΣL > φ`, so this table shows directly how much of the
//! trace sits above any static threshold.

use crate::common::Opts;
use crate::output::Report;
use oc_core::oracle::machine_oracle;
use oc_trace::sample::UsageMetric;
use std::error::Error;

/// Runs the diagnostic on trace cell `a`.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let machines = opts.generate(opts.cell_a(3))?;

    let mut po_ratio = Vec::new();
    let mut usage_ratio = Vec::new();
    let mut frac_above_09 = 0usize;
    let mut total = 0usize;
    for m in &machines {
        let po = machine_oracle(m, UsageMetric::P90, 24 * oc_trace::time::TICKS_PER_HOUR);
        for (i, t) in m.horizon.iter().enumerate() {
            let l = m.total_limit_at(t);
            if l > 0.0 {
                let r = po[i] / l;
                po_ratio.push(r);
                usage_ratio.push(m.total_usage_at(t, UsageMetric::P90) / l);
                if r > 0.9 {
                    frac_above_09 += 1;
                }
                total += 1;
            }
        }
    }
    let mut r = Report::default();
    r.cdf(
        "",
        "ratio",
        vec![
            ("PO(24h)/ΣL".into(), po_ratio),
            ("usage/ΣL".into(), usage_ratio),
        ],
    );
    r.line(format!(
        "  machine-ticks with PO/ΣL > 0.9 (borg-default violations): {:.2}%",
        100.0 * frac_above_09 as f64 / total.max(1) as f64
    ));
    Ok(r)
}
