//! Figure 3: oracle violations vs CPU scheduling latency in the
//! production cells (the paper's methodology-validation experiment).

use crate::common::{mean, Opts};
use crate::output::{f, Report};
use oc_core::predictor::PredictorSpec;
use oc_qos::LatencyModel;
use oc_stats::{ols, spearman, Bucketed};
use oc_trace::cell::CellConfig;
use std::error::Error;

/// Width of the panel-(d) violation-rate buckets. The paper buckets
/// 10,795 machines at width 0.005 and drops buckets below 50 machines;
/// the ~190 machines here (at either scale: fig3 does not depend on it)
/// need wider buckets and a proportionally lower sparsity cut-off.
const BUCKET_WIDTH: f64 = 0.02;
/// Buckets with fewer machines than this end panel (d).
const MIN_BUCKET_MACHINES: u64 = 3;

/// The five production cells Figure 3 simulates, with the full machine
/// inventory at a fixed 10-day window for both scales: violations in this
/// workload are episodic (a co-peak marks the preceding 24 h), so
/// month-long averaging dilutes the violation-rate axis into a sliver
/// near zero. Ten days keeps the per-machine rates spread over the
/// paper's 0–0.11 range; see EXPERIMENTS.md.
pub(crate) fn cells(opts: &Opts) -> Vec<CellConfig> {
    CellConfig::production_cells()
        .into_iter()
        .map(|mut cell| {
            cell.duration_ticks = cell.duration_ticks.min(10 * oc_trace::time::TICKS_PER_DAY);
            opts.seeded(cell)
        })
        .collect()
}

/// Runs the Figure 3 reproduction.
///
/// Simulates the five production cells under a borg-default-style static
/// policy, derives per-machine CPU scheduling latency from the contention
/// model, and reproduces the paper's four panels: (a) per-machine
/// violation-rate CDFs, (b) latency CDFs, (c) cell-utilization CDFs, and
/// (d) the bucketed 99 %ile-latency-vs-violation-rate error-bar plot with
/// its Spearman correlations and fitted slope.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let spec = [PredictorSpec::borg_default()];
    let latency_model = LatencyModel::default();

    let mut pairs: Vec<(f64, f64)> = Vec::new(); // (violation rate, p99 latency).
    let (mut viol, mut lat, mut util) = (Vec::new(), Vec::new(), Vec::new());
    for cell in cells(opts) {
        let name = cell.id.name().to_string();
        let run = opts.simulate(cell, &spec)?;
        let rates = run.violation_rates(0);

        // Latency per machine from the ground-truth peak series.
        let mut p99s = Vec::with_capacity(run.results.len());
        for r in &run.results {
            let series = r.series.as_ref().expect("series recording enabled");
            let lat =
                latency_model.machine_series(&series.true_peak, r.capacity, u64::from(r.machine.0));
            p99s.push(oc_stats::percentile_slice(&lat, 99.0)?);
        }
        for (&rate, &p99) in rates.iter().zip(p99s.iter()) {
            pairs.push((rate, p99));
        }
        let mean_p99 = mean(&p99s);
        lat.push((name.clone(), p99s.iter().map(|&l| l / mean_p99).collect()));
        viol.push((name.clone(), rates));
        let series = run.cell_utilization_series();
        util.push((name, series.expect("series recording enabled")));
    }
    let mut r = Report::default();
    r.cdf_csv(
        "fig3a_violation_rate.csv",
        "(a) per-machine violation rate",
        "cell (violation rate)",
        viol,
    );
    r.cdf(
        "(b) per-machine 99%ile latency, normalized to the cell mean",
        "cell (norm. p99 latency)",
        lat,
    );
    r.cdf("(c) cell utilization over time", "cell (utilization)", util);

    // (d) Bucketed tail latency vs violation rate, pooled over all cells,
    // normalized to the zero-violation mean as in the paper.
    let zero_mean = {
        let zeros: Vec<f64> = pairs
            .iter()
            .filter(|(r, _)| *r < 1e-9)
            .map(|&(_, l)| l)
            .collect();
        if zeros.is_empty() {
            mean(&pairs.iter().map(|&(_, l)| l).collect::<Vec<f64>>())
        } else {
            mean(&zeros)
        }
    };
    let rates: Vec<f64> = pairs.iter().map(|&(r, _)| r).collect();
    let norm_lat: Vec<f64> = pairs.iter().map(|&(_, l)| l / zero_mean).collect();

    let mut buckets = Bucketed::new(0.0, BUCKET_WIDTH)?;
    buckets.extend(rates.iter().copied().zip(norm_lat.iter().copied()));
    let stats = buckets.stats_until_sparse(MIN_BUCKET_MACHINES);

    r.line(format!(
        "(d) 99%ile latency vs violation rate (bucket width {BUCKET_WIDTH}, normalized to zero-violation mean)"
    ));
    let (mut t, mut csv_rows) = (Vec::new(), Vec::new());
    for b in &stats {
        t.push(vec![f(b.mid()), b.count.to_string(), f(b.mean), f(b.std)]);
        csv_rows.push(vec![
            b.mid().to_string(),
            b.count.to_string(),
            b.mean.to_string(),
            b.std.to_string(),
        ]);
    }
    r.table(&["bucket mid", "machines", "mean latency", "std"], t);

    let raw_rho = spearman(&rates, &norm_lat)?;
    let mids: Vec<f64> = stats.iter().map(|b| b.mid()).collect();
    let means: Vec<f64> = stats.iter().map(|b| b.mean).collect();
    let (bucket_rho, slope) = if mids.len() >= 3 {
        (spearman(&mids, &means)?, ols(&mids, &means)?.slope)
    } else {
        (f64::NAN, f64::NAN)
    };
    r.claim(
        "Spearman (raw machines)",
        format!("{raw_rho:.2}"),
        "0.42, band 0.34–0.50",
        (0.34..=0.50).contains(&raw_rho),
    );
    r.claim(
        "Spearman (bucket means)",
        format!("{bucket_rho:.2}"),
        "0.95, band 0.76–1",
        (0.76..=1.0).contains(&bucket_rho),
    );
    r.claim(
        "fitted slope (bucket means)",
        format!("{slope:.1}"),
        "14.1, band 11.3–16.9",
        (11.3..=16.9).contains(&slope),
    );
    let header = ["bucket_mid", "count", "mean_latency", "std"];
    r.csv("fig3d_buckets.csv", &header, csv_rows);
    Ok(r)
}
