//! Figure 3: oracle violations vs CPU scheduling latency in the
//! production cells (the paper's methodology-validation experiment).

use crate::common::{banner, claim, Opts};
use crate::output::{cdf_header, cdf_row, f, write_cdf_csv, write_csv, Table};
use oc_core::config::SimConfig;
use oc_core::predictor::PredictorSpec;
use oc_core::runner::run_cell_streaming;
use oc_qos::LatencyModel;
use oc_stats::{ols, spearman, Bucketed};
use oc_trace::cell::CellConfig;
use oc_trace::gen::WorkloadGenerator;
use std::error::Error;

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
///
/// # Errors
///
/// Propagates simulation and I/O errors.
pub fn run(opts: &Opts) -> Result<(), Box<dyn Error>> {
    banner(
        "fig3",
        "per-machine violation rate vs CPU scheduling latency (prod cells)",
    );
    let cfg = SimConfig::default().with_series();
    let spec = [PredictorSpec::borg_default()];
    let latency_model = LatencyModel::default();

    let mut viol_table = Table::new(&cdf_header("cell (violation rate)"));
    let mut lat_table = Table::new(&cdf_header("cell (norm. p99 latency)"));
    let mut util_table = Table::new(&cdf_header("cell (utilization)"));
    let mut viol_csv = Vec::new();
    let mut pairs: Vec<(f64, f64)> = Vec::new(); // (violation rate, p99 latency).

    for cell in cells(opts) {
        let name = cell.id.name().to_string();
        let gen = WorkloadGenerator::new(cell)?;
        let run = run_cell_streaming(&gen, &cfg, &spec, opts.threads)?;

        let rates = run.violation_rates(0);
        viol_table.row(cdf_row(&name, &rates));
        viol_csv.push((name.clone(), rates.clone()));

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
        let mean_p99 = p99s.iter().sum::<f64>() / p99s.len().max(1) as f64;
        let norm: Vec<f64> = p99s.iter().map(|&l| l / mean_p99).collect();
        lat_table.row(cdf_row(&name, &norm));

        let util = run
            .cell_utilization_series()
            .expect("series recording enabled");
        util_table.row(cdf_row(&name, &util));
    }

    println!("(a) per-machine violation rate");
    viol_table.print();
    println!("(b) per-machine 99%ile latency, normalized to the cell mean");
    lat_table.print();
    println!("(c) cell utilization over time");
    util_table.print();

    // (d) Bucketed tail latency vs violation rate, pooled over all cells,
    // normalized to the zero-violation mean as in the paper.
    let zero_mean = {
        let zeros: Vec<f64> = pairs
            .iter()
            .filter(|(r, _)| *r < 1e-9)
            .map(|&(_, l)| l)
            .collect();
        if zeros.is_empty() {
            pairs.iter().map(|&(_, l)| l).sum::<f64>() / pairs.len().max(1) as f64
        } else {
            zeros.iter().sum::<f64>() / zeros.len() as f64
        }
    };
    let rates: Vec<f64> = pairs.iter().map(|&(r, _)| r).collect();
    let norm_lat: Vec<f64> = pairs.iter().map(|&(_, l)| l / zero_mean).collect();

    // The paper buckets 10,795 machines at width 0.005 and drops buckets
    // below 50 machines; the quick scale has ~100 machines, so it widens
    // the buckets and lowers the sparsity cut-off proportionally.
    let (width, min_count) = match opts.scale {
        crate::common::Scale::Quick => (0.02, 3),
        crate::common::Scale::Full => (0.02, 3),
    };
    let mut buckets = Bucketed::new(0.0, width)?;
    buckets.extend(rates.iter().copied().zip(norm_lat.iter().copied()));
    let stats = buckets.stats_until_sparse(min_count);

    println!(
        "(d) 99%ile latency vs violation rate (bucket width {width}, normalized to zero-violation mean)"
    );
    let mut t = Table::new(&["bucket mid", "machines", "mean latency", "std"]);
    let mut csv_rows = Vec::new();
    for b in &stats {
        t.row(vec![f(b.mid()), b.count.to_string(), f(b.mean), f(b.std)]);
        csv_rows.push(vec![
            b.mid().to_string(),
            b.count.to_string(),
            b.mean.to_string(),
            b.std.to_string(),
        ]);
    }
    t.print();

    let raw_rho = spearman(&rates, &norm_lat)?;
    let mids: Vec<f64> = stats.iter().map(|b| b.mid()).collect();
    let means: Vec<f64> = stats.iter().map(|b| b.mean).collect();
    let (bucket_rho, slope) = if mids.len() >= 3 {
        (spearman(&mids, &means)?, ols(&mids, &means)?.slope)
    } else {
        (f64::NAN, f64::NAN)
    };
    claim("Spearman (raw machines)", format!("{raw_rho:.2}"), "0.42");
    claim(
        "Spearman (bucket means)",
        format!("{bucket_rho:.2}"),
        "0.95",
    );
    claim("fitted slope (bucket means)", format!("{slope:.1}"), "14.1");

    write_cdf_csv(&opts.csv("fig3a_violation_rate.csv"), &viol_csv)?;
    write_csv(
        &opts.csv("fig3d_buckets.csv"),
        &["bucket_mid", "count", "mean_latency", "std"],
        csv_rows,
    )?;
    Ok(())
}
