//! Power-cap extension: multi-resource overcommit meets the power budget.
//!
//! Two scenarios, both built on the vectorized CPU+memory replay
//! ([`simulate_machine_vec`]):
//!
//! 1. **Cap frontier.** Node power is derived from each machine's realized
//!    CPU lane through the linear [`PowerModel`]; sweeping the cap ratio
//!    traces the frontier between energy clipped and latency stretch per
//!    [`QosTier`]. Prediction-violation ticks — the moments overcommit
//!    under-estimated the peak — are exactly where demand, and therefore
//!    power, spikes, so the sweep also measures how strongly cap events
//!    concentrate on violation ticks.
//! 2. **Memory-bound gating demo.** A cell whose tasks are CPU-light
//!    memory hogs: admission gated on the CPU lane alone happily packs
//!    machines whose memory lane is oversubscribed, while the worst-lane
//!    vector gate ([`SimMachine::fits`]) stops at memory capacity. This is
//!    the worked example the README quickstart walks through.

use crate::common::Opts;
use crate::output::Report;
use oc_core::admission::{ADMIT_SLACK, MEM_CAPACITY};
use oc_core::config::SimConfig;
use oc_core::metrics::VIOLATION_EPS;
use oc_core::predictor::PredictorSpec;
use oc_core::sim::simulate_machine_vec;
use oc_qos::power::{apply_cap, PowerModel, QosTier};
use oc_scheduler::arrival::TaskRequest;
use oc_scheduler::machine::SimMachine;
use oc_stats::resource::CPU;
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::ids::{JobId, MachineId, TaskId};
use oc_trace::task::SchedulingClass;
use oc_trace::time::Tick;
use oc_trace::MemoryModel;
use std::error::Error;

/// Cap ratios swept by the frontier (fractions of full-load power).
const CAP_RATIOS: [f64; 6] = [0.55, 0.65, 0.75, 0.85, 0.95, 1.0];

/// One machine-tick of the frontier input: realized CPU utilization and
/// whether the deployed predictor was in violation on the CPU lane.
struct TickLoad {
    util: f64,
    cpu_violation: bool,
}

/// Runs the power-cap scenario.
pub fn run(opts: &Opts) -> Result<Report, Box<dyn Error>> {
    let mut r = Report::default();
    frontier(&mut r, &collect_loads(opts)?);
    gating_demo(&mut r)?;
    Ok(r)
}

/// Replays cell A through the vector simulator and flattens every
/// machine-tick into the frontier's input.
fn collect_loads(opts: &Opts) -> Result<Vec<TickLoad>, Box<dyn Error>> {
    let machines = opts.generate(opts.cell_a(2))?;
    let cfg = SimConfig::default().with_series();
    let mem_model = MemoryModel::default();
    let mut loads = Vec::new();
    for trace in &machines {
        let specs = [PredictorSpec::paper_max().build()?];
        let out = simulate_machine_vec(trace, &cfg, &specs, &mem_model)?;
        let series = out.series.as_ref().expect("series enabled");
        let cpu_capacity = out.capacity.lane(CPU);
        for i in 0..series.avg_usage.len() {
            let prediction = series.predictions[0][i].lane(CPU);
            let oracle = series.oracle[i].lane(CPU);
            loads.push(TickLoad {
                util: (series.avg_usage[i] / cpu_capacity).clamp(0.0, 1.0),
                cpu_violation: prediction + VIOLATION_EPS < oracle,
            });
        }
    }
    Ok(loads)
}

/// Sweeps the cap ratios and reports the frontier.
fn frontier(r: &mut Report, loads: &[TickLoad]) {
    let model = PowerModel::default();
    let n = loads.len().max(1) as f64;
    let violation_base = loads.iter().filter(|l| l.cpu_violation).count() as f64 / n;
    let mut table = Vec::new();
    let mut rows = Vec::new();
    let mut claim_85: Option<(f64, f64, f64)> = None;
    for cap in CAP_RATIOS {
        let mut capped = 0u64;
        let mut capped_violations = 0u64;
        let mut energy_uncapped = 0.0;
        let mut energy_capped = 0.0;
        let mut stretches: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for load in loads {
            let out = apply_cap(&model, load.util, cap);
            energy_uncapped += out.power;
            energy_capped += model.power(out.granted_util);
            if out.clipped_frac > 0.0 {
                capped += 1;
                if load.cpu_violation {
                    capped_violations += 1;
                }
            }
            for (k, &tier) in QosTier::ALL.iter().enumerate() {
                stretches[k].push(out.tier_stretch(tier));
            }
        }
        let capped_frac = capped as f64 / n;
        let saved = if energy_uncapped > 0.0 {
            1.0 - energy_capped / energy_uncapped
        } else {
            0.0
        };
        // Among capped ticks, how many were prediction violations — the
        // enrichment over the base rate is what links the two mechanisms.
        let overlap = if capped > 0 {
            capped_violations as f64 / capped as f64
        } else {
            0.0
        };
        let p99 = |v: &[f64]| oc_stats::percentile_slice(v, 99.0).unwrap_or(1.0);
        let p99s: Vec<f64> = stretches.iter().map(|s| p99(s)).collect();
        table.push(vec![
            format!("{cap:.2}"),
            format!("{:.1}%", capped_frac * 100.0),
            format!("{:.2}%", saved * 100.0),
            format!(
                "{:.1}% (base {:.1}%)",
                overlap * 100.0,
                violation_base * 100.0
            ),
            format!("{:.3}/{:.3}/{:.3}", p99s[0], p99s[1], p99s[2]),
        ]);
        rows.push(vec![
            format!("{cap}"),
            format!("{capped_frac}"),
            format!("{saved}"),
            format!("{overlap}"),
            format!("{violation_base}"),
            format!("{}", p99s[0]),
            format!("{}", p99s[1]),
            format!("{}", p99s[2]),
        ]);
        if cap == 0.85 {
            claim_85 = Some((capped_frac, overlap, p99s[2]));
            // The operating-point metrics (docs/OPERATIONS.md §2): only
            // advanced while tracing is enabled, like the sim counters.
            if oc_telemetry::enabled() {
                let m = oc_telemetry::global_metrics();
                m.counter("powercap.capped_ticks").add(capped);
                m.counter("powercap.capped_violation_ticks")
                    .add(capped_violations);
                m.gauge("powercap.energy_saved_permille")
                    .set((saved * 1000.0) as i64);
            }
        }
    }
    let header = [
        "cap",
        "capped ticks",
        "energy saved",
        "violation overlap",
        "stretch p99 (prm/std/be)",
    ];
    r.table(&header, table);
    if let Some((capped_frac, overlap, be_stretch)) = claim_85 {
        r.claim(
            "ticks throttled at a 0.85 power cap",
            format!(
                "{:.1}% (best-effort p99 stretch {be_stretch:.3})",
                capped_frac * 100.0
            ),
            "extension: power oversubscription tolerates overcommit when caps are rare \
             (under 5% of ticks)",
            capped_frac < 0.05,
        );
        r.claim(
            "cap events landing on CPU prediction-violation ticks",
            format!(
                "{:.1}% vs {:.1}% base rate",
                overlap * 100.0,
                violation_base * 100.0
            ),
            "extension: the max composite keeps violations off the power peaks, \
             so capping and misprediction do not compound",
            overlap <= violation_base,
        );
    }
    r.csv(
        "powercap_frontier.csv",
        &[
            "cap",
            "capped_tick_frac",
            "energy_saved_frac",
            "violation_overlap",
            "violation_base_rate",
            "stretch_p99_premium",
            "stretch_p99_standard",
            "stretch_p99_best_effort",
        ],
        rows,
    );
}

/// A CPU-light memory hog submission.
fn hog(job: u64) -> TaskRequest {
    TaskRequest {
        id: TaskId::new(JobId(job), 0),
        limit: 0.05,
        memory_limit: 0.45,
        runtime_ticks: 1000,
        class: SchedulingClass::Class2,
        priority: 200,
        job_seed: job,
        job_phase: 0.3,
        job_util_base: 0.6,
    }
}

/// An idle machine deploying limit-sum (no overcommit — the gate itself
/// is what is under test, not the predictor).
fn demo_machine() -> Result<SimMachine, Box<dyn Error>> {
    let cell = CellConfig::preset(CellPreset::A);
    Ok(SimMachine::new(
        MachineId(0),
        1.0,
        cell.usage,
        &SimConfig::default(),
        PredictorSpec::LimitSum.build()?,
        7,
    ))
}

/// The memory-bound cell walked through in the README: CPU-only gating
/// admits machines whose memory lane is oversubscribed; the worst-lane
/// vector gate does not.
fn gating_demo(r: &mut Report) -> Result<(), Box<dyn Error>> {
    let mut vector = demo_machine()?;
    let mut cpu_only = demo_machine()?;
    let mut admitted_vector = 0u32;
    let mut admitted_cpu_only = 0u32;
    for job in 0..4u64 {
        let req = hog(job);
        // The worst-lane gate: both the CPU and memory projections must
        // stay under their capacities.
        if vector.fits(req.limit, req.memory_limit) {
            vector.admit(&req, Tick(0));
            admitted_vector += 1;
        }
        // CPU-only gating: blind to the candidate's memory demand, the
        // pre-vector admission rule.
        if cpu_only.fits(req.limit, 0.0) {
            cpu_only.admit(&req, Tick(0));
            admitted_cpu_only += 1;
        }
    }
    for t in 0..24u64 {
        vector.advance(Tick(t));
        cpu_only.advance(Tick(t));
    }
    let mem_peak = |m: &SimMachine| m.mem_predictions.last().copied().unwrap_or(0.0);
    let (vec_peak, cpu_peak) = (mem_peak(&vector), mem_peak(&cpu_only));
    let row = |gate: &str, admitted: u32, peak: f64| {
        let peak = format!("{:.2}x capacity", peak / MEM_CAPACITY);
        vec![gate.to_string(), admitted.to_string(), peak]
    };
    r.table(
        &["gate", "tasks admitted", "mem-lane predicted peak"],
        vec![
            row("worst-lane (vector)", admitted_vector, vec_peak),
            row("cpu-only", admitted_cpu_only, cpu_peak),
        ],
    );
    r.claim(
        "memory-bound cell: tasks admitted per machine",
        format!("cpu-only gate {admitted_cpu_only}, worst-lane gate {admitted_vector}"),
        "extension: the CPU lane alone cannot see the binding resource",
        admitted_cpu_only > admitted_vector,
    );
    r.claim(
        "memory-lane predicted peak after admission",
        format!(
            "cpu-only {:.2}x capacity (violating), worst-lane {:.2}x (safe)",
            cpu_peak / MEM_CAPACITY,
            vec_peak / MEM_CAPACITY
        ),
        "extension: worst-lane admission keeps every lane under capacity",
        vec_peak <= MEM_CAPACITY + ADMIT_SLACK && cpu_peak > MEM_CAPACITY,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gating_demo_invariants_hold() {
        // Both claims hold: the vector gate admits fewer hogs and stays
        // under memory capacity, cpu-only oversubscribes.
        let mut r = Report::default();
        gating_demo(&mut r).unwrap();
        let verdicts: Vec<_> = r.claims().map(|c| c.verdict).collect();
        assert_eq!(verdicts, [crate::output::Verdict::Holds; 2]);
    }

    #[test]
    fn frontier_runs_on_a_tiny_cell() {
        let opts = Opts {
            threads: 2,
            ..Opts::default()
        };
        let loads = {
            let mut loads = collect_loads(&opts).unwrap();
            loads.truncate(2000);
            loads
        };
        let mut r = Report::default();
        frontier(&mut r, &loads);
        let dir = std::env::temp_dir().join(format!("oc-powercap-test-{}", std::process::id()));
        r.write_csvs(&dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("powercap_frontier.csv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(csv.lines().count() == CAP_RATIOS.len() + 1, "{csv}");
        assert!(csv.starts_with("cap,"), "{csv}");
    }
}
