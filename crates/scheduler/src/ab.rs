//! The production A/B experiment harness (Section 6 of the paper).
//!
//! The paper samples ≈24,000 machines *within shared production cells*,
//! deploys `max(N-sigma, RC-like)` to half (the experiment group) and
//! leaves the tuned borg-default policy on the other half (the control
//! group). Both groups serve the same task stream under the same
//! scheduler; only the machines' advertised free capacity differs. The
//! harness reproduces that design exactly: one cluster, one arrival
//! stream, predictors assigned to machines by parity. Every downstream
//! difference — how much workload a group attracts, how balanced it is,
//! how contended its machines get — is attributable to the policy.
//!
//! Each group is judged by the predictions its machines served: every
//! machine's online prediction series is scored, tick by tick, against
//! the peak oracle of the trace it realized, so the violation metrics
//! describe exactly the estimates admission used.

use crate::cluster::{run_cluster, ClusterConfig, ClusterOutcome, GroupStats};
use crate::error::SchedulerError;
use crate::placement::PlacementPolicy;
use oc_core::config::SimConfig;
use oc_core::metrics::{MachineReport, SimResult};
use oc_core::oracle::machine_oracle;
use oc_core::predictor::PredictorSpec;
use oc_core::runner::CellRun;
use oc_qos::{LatencyModel, QosReport};
use oc_stats::percentile_slice;
use oc_trace::cell::CellConfig;
use oc_trace::ids::CellId;
use oc_trace::MachineTrace;

/// Configuration of one A/B experiment.
#[derive(Debug, Clone)]
pub struct AbConfig {
    /// The shared cluster; its cell's machine count is the *total* of
    /// both groups.
    pub cluster: ClusterConfig,
    /// Policy of the control group (the paper: tuned borg-default).
    pub control: PredictorSpec,
    /// Policy of the experiment group (the paper: max(3σ, p80)).
    pub experiment: PredictorSpec,
    /// The contention → latency model.
    pub latency: LatencyModel,
}

impl AbConfig {
    /// The paper's production setup, scaled down: borg-default(0.9) control
    /// vs max(N-sigma(3), RC-like(p80)) experiment, 32 simulated days.
    pub fn paper_default(cell: CellConfig, jobs_per_tick: f64) -> AbConfig {
        AbConfig {
            cluster: ClusterConfig {
                cell,
                jobs_per_tick,
                duration_ticks: 32 * oc_trace::time::TICKS_PER_DAY,
                sim: SimConfig::default(),
                placement: PlacementPolicy::WorstFit,
                arrival_seed: 0xAB_2021,
            },
            control: PredictorSpec::borg_default(),
            experiment: PredictorSpec::production_max(),
            latency: LatencyModel::default(),
        }
    }

    /// The policy machine `i` deploys: control on even indices,
    /// experiment on odd ones.
    pub fn policy(&self, i: usize) -> &PredictorSpec {
        if i.is_multiple_of(2) {
            &self.control
        } else {
            &self.experiment
        }
    }
}

/// Everything measured for one group.
#[derive(Debug)]
pub struct GroupOutcome {
    /// Group label (`"control"` / `"exp"`).
    pub name: String,
    /// Per-tick group aggregates.
    pub stats: GroupStats,
    /// The served predictions, scored: per-machine violation rates,
    /// severities and savings of what each machine predicted online,
    /// against the peak oracle of its realized trace.
    pub reports: CellRun,
    /// Per-machine CPU scheduling latency series.
    pub latency: Vec<Vec<f64>>,
    /// Per-machine latency summaries.
    pub qos: Vec<QosReport>,
    /// Per-task mean latency over each task's lifetime (Figure 14(a)).
    pub task_latency: Vec<f64>,
    /// Per-machine median utilization (Figure 14(c)).
    pub util_p50: Vec<f64>,
    /// Per-machine mean utilization (Figure 14(d)).
    pub util_avg: Vec<f64>,
    /// Per-machine 99th-percentile utilization (Figure 14(e)).
    pub util_p99: Vec<f64>,
}

/// Control and experiment outcomes side by side.
#[derive(Debug)]
pub struct AbOutcome {
    /// The control group (even machine indices).
    pub control: GroupOutcome,
    /// The experiment group (odd machine indices).
    pub experiment: GroupOutcome,
    /// Fraction of offered tasks the shared cluster admitted.
    pub admission_rate: f64,
}

/// Runs the A/B experiment: one mixed cluster, groups split by machine
/// parity (see [`AbConfig::policy`]).
///
/// # Errors
///
/// Propagates configuration and simulation errors.
pub fn run_ab(cfg: &AbConfig) -> Result<AbOutcome, SchedulerError> {
    let outcome = run_cluster(&cfg.cluster, |i| cfg.policy(i).clone())?;
    let admission_rate = outcome.stats.admission_rate();
    let control = extract_group(cfg, &outcome, "control", 0)?;
    let experiment = extract_group(cfg, &outcome, "exp", 1)?;
    Ok(AbOutcome {
        control,
        experiment,
        admission_rate,
    })
}

/// Derives the metrics of the group whose machine indices have `parity`
/// from the mixed-cluster outcome.
fn extract_group(
    cfg: &AbConfig,
    outcome: &ClusterOutcome,
    name: &str,
    parity: usize,
) -> Result<GroupOutcome, SchedulerError> {
    let idx: Vec<usize> = (parity..outcome.traces.len()).step_by(2).collect();
    let traces: Vec<&MachineTrace> = idx.iter().map(|&i| &outcome.traces[i]).collect();
    let stats = outcome.group_stats(&idx);

    // Score each machine's served predictions, tick by tick, against the
    // peak oracle of its realized trace.
    let sim = &cfg.cluster.sim;
    let predictor_name = cfg.policy(parity).name();
    let results = idx
        .iter()
        .zip(&traces)
        .map(|(&i, m)| {
            let oracle = machine_oracle(m, sim.metric, sim.oracle_horizon_ticks);
            let mut report = MachineReport::new(m.machine, predictor_name.clone());
            for ((&p, &po), &l) in outcome.machine_prediction[i]
                .iter()
                .zip(&oracle)
                .zip(&outcome.machine_limit[i])
            {
                report.record(p, po, l);
            }
            SimResult {
                machine: m.machine,
                capacity: m.capacity,
                reports: vec![report],
                series: None,
            }
        })
        .collect();
    let reports = CellRun {
        cell: CellId::new(name),
        predictors: vec![predictor_name],
        results,
    };

    // QoS from uncapped demand.
    let mut latency = Vec::with_capacity(traces.len());
    let mut qos = Vec::with_capacity(traces.len());
    for (&i, m) in idx.iter().zip(&traces) {
        let series =
            cfg.latency
                .machine_series(&outcome.demand_peak[i], m.capacity, u64::from(m.machine.0));
        qos.push(QosReport::from_series(&series).map_err(oc_core::CoreError::Stats)?);
        latency.push(series);
    }

    // Per-task mean latency over each task's lifetime. As in the paper's
    // production evaluation, only latency-sensitive serving tasks count —
    // batch tasks have no CPU-latency SLO.
    let mut task_latency = Vec::new();
    for (m, lat) in traces.iter().zip(&latency) {
        for task in &m.tasks {
            if !task.spec.class.is_latency_sensitive() {
                continue;
            }
            let s = task.spec.start.index() as usize;
            let e = (task.spec.end.index() as usize).min(lat.len());
            if s < e {
                task_latency.push(lat[s..e].iter().sum::<f64>() / (e - s) as f64);
            }
        }
    }

    // Per-machine utilization percentiles.
    let mut util_p50 = Vec::with_capacity(traces.len());
    let mut util_avg = Vec::with_capacity(traces.len());
    let mut util_p99 = Vec::with_capacity(traces.len());
    for m in &traces {
        let util: Vec<f64> = m.avg_usage.iter().map(|&u| u / m.capacity).collect();
        util_p50.push(percentile_slice(&util, 50.0).map_err(oc_core::CoreError::Stats)?);
        util_avg.push(util.iter().sum::<f64>() / util.len().max(1) as f64);
        util_p99.push(percentile_slice(&util, 99.0).map_err(oc_core::CoreError::Stats)?);
    }

    Ok(GroupOutcome {
        name: name.into(),
        stats,
        reports,
        latency,
        qos,
        task_latency,
        util_p50,
        util_avg,
        util_p99,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::cell::CellPreset;

    fn tiny_ab() -> AbConfig {
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.machines = 6;
        let mut cfg = AbConfig::paper_default(cell, 0.5);
        cfg.cluster.duration_ticks = 240;
        cfg
    }

    #[test]
    fn ab_runs_and_reports() {
        let out = run_ab(&tiny_ab()).unwrap();
        assert_eq!(out.control.name, "control");
        assert_eq!(out.experiment.name, "exp");
        assert!((0.0..=1.0).contains(&out.admission_rate));
        for g in [&out.control, &out.experiment] {
            assert_eq!(g.qos.len(), 3);
            assert_eq!(g.util_p50.len(), 3);
            assert_eq!(g.reports.results.len(), 3);
            assert!(!g.task_latency.is_empty());
            assert_eq!(g.stats.alloc_ratio.len(), 240);
            assert_eq!(g.stats.savings.len(), 240);
            for (p50, (avg, p99)) in g
                .util_p50
                .iter()
                .zip(g.util_avg.iter().zip(g.util_p99.iter()))
            {
                assert!(p50 <= p99, "median utilization above p99");
                assert!(*avg >= 0.0 && *avg <= 1.0);
            }
        }
    }

    #[test]
    fn groups_partition_the_cluster() {
        let out = run_ab(&tiny_ab()).unwrap();
        // Machines split by parity: ids 0,2,4 control; 1,3,5 experiment.
        let c: Vec<u32> = out
            .control
            .reports
            .results
            .iter()
            .map(|r| r.machine.0)
            .collect();
        let e: Vec<u32> = out
            .experiment
            .reports
            .results
            .iter()
            .map(|r| r.machine.0)
            .collect();
        assert_eq!(c, vec![0, 2, 4]);
        assert_eq!(e, vec![1, 3, 5]);
    }

    #[test]
    fn control_savings_are_borg_shaped() {
        // Once loaded, the control group's savings sit at exactly 10 %
        // (borg-default 0.9): its predictions are always 0.9 ΣL.
        let out = run_ab(&tiny_ab()).unwrap();
        let s = &out.control.stats.savings;
        for (i, v) in s.iter().enumerate().skip(10) {
            assert!((v - 0.1).abs() < 1e-9, "tick {i}: control savings {v}");
        }
    }

    #[test]
    fn deterministic() {
        let a = run_ab(&tiny_ab()).unwrap();
        let b = run_ab(&tiny_ab()).unwrap();
        assert_eq!(
            a.experiment.stats.usage_ratio,
            b.experiment.stats.usage_ratio
        );
        assert_eq!(a.admission_rate, b.admission_rate);
    }
}
