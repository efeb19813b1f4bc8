//! The live cluster: arrival-driven, predictor-gated scheduling.
//!
//! Each tick the cluster (1) collects the tick's task submissions from the
//! arrival stream, (2) runs the two-step scheduling of Section 2.1 —
//! feasibility filtering via each machine's advertised free capacity, then
//! bin-packing via a [`PlacementPolicy`] — and (3) advances every machine's
//! usage, throttling contention and updating node-agent state. Submissions
//! that fit nowhere are rejected and counted (a real cell would queue or
//! spill them to another cell; either way they are workload the cluster
//! could not take, which is exactly what the savings comparison measures).

use crate::arrival::ArrivalStream;
use crate::error::SchedulerError;
use crate::machine::SimMachine;
use crate::placement::PlacementPolicy;
use oc_core::config::SimConfig;
use oc_core::predictor::PredictorSpec;
use oc_trace::cell::CellConfig;
use oc_trace::gen::splitmix;
use oc_trace::ids::MachineId;
use oc_trace::time::{Tick, TickRange};
use oc_trace::MachineTrace;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration of one live-cluster run. The policy each machine deploys
/// is given to [`run_cluster`] per machine.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Workload models, machine count, capacity and seed.
    pub cell: CellConfig,
    /// Mean job submissions offered per tick.
    pub jobs_per_tick: f64,
    /// Run length in ticks.
    pub duration_ticks: u64,
    /// Node-agent configuration (metric, warm-up, history).
    pub sim: SimConfig,
    /// The bin-packing step.
    pub placement: PlacementPolicy,
    /// Seed of the arrival stream (shared across A/B groups).
    pub arrival_seed: u64,
}

impl ClusterConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerError::InvalidConfig`] for an empty cluster or
    /// zero duration, and propagates cell/sim validation.
    pub fn validate(&self) -> Result<(), SchedulerError> {
        self.cell.validate()?;
        self.sim.validate()?;
        if self.duration_ticks == 0 {
            return Err(SchedulerError::InvalidConfig {
                what: "duration must be positive".into(),
            });
        }
        if !(self.jobs_per_tick >= 0.0) {
            return Err(SchedulerError::InvalidConfig {
                what: "jobs_per_tick must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// Per-run admission counts.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Tasks admitted.
    pub admitted: u64,
    /// Tasks rejected (no feasible machine).
    pub rejected: u64,
}

impl ClusterStats {
    /// Fraction of offered tasks the cluster admitted.
    pub fn admission_rate(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            1.0
        } else {
            self.admitted as f64 / total as f64
        }
    }
}

/// Per-tick aggregates over a set of machines (an A/B group, or the
/// whole cluster).
#[derive(Debug, Clone, Default)]
pub struct GroupStats {
    /// Per tick: Σ limits / Σ capacity (Figure 13(d)).
    pub alloc_ratio: Vec<f64>,
    /// Per tick: Σ realized usage / Σ capacity (Figure 13(e)).
    pub usage_ratio: Vec<f64>,
    /// Per tick: relative savings `(ΣL − ΣP)/ΣL` (Figure 13(c)).
    pub savings: Vec<f64>,
}

/// Outcome of a completed cluster run. Every per-machine vector is
/// indexed by machine (sorted by machine id).
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Admission counts.
    pub stats: ClusterStats,
    /// Realized traces: the tasks each machine ran, their throttled usage
    /// and the machine's realized peak and average usage per tick.
    pub traces: Vec<MachineTrace>,
    /// Uncapped demand-peak series (drives the QoS model).
    pub demand_peak: Vec<Vec<f64>>,
    /// Per-tick Σ limits of the tasks the machine observed.
    pub machine_limit: Vec<Vec<f64>>,
    /// Per-tick peak predictions the machine served to admission.
    pub machine_prediction: Vec<Vec<f64>>,
}

impl ClusterOutcome {
    /// Per-tick aggregates over `machines` (indices into this outcome),
    /// each tick summed in the given machine order.
    pub fn group_stats(&self, machines: &[usize]) -> GroupStats {
        let n_ticks = machines.first().map_or(0, |&i| self.machine_limit[i].len());
        let capacity: f64 = machines.iter().map(|&i| self.traces[i].capacity).sum();
        let mut limit_sum = vec![0.0; n_ticks];
        let mut pred_sum = vec![0.0; n_ticks];
        let mut usage_sum = vec![0.0; n_ticks];
        for &i in machines {
            for t in 0..n_ticks {
                limit_sum[t] += self.machine_limit[i][t];
                pred_sum[t] += self.machine_prediction[i][t];
                usage_sum[t] += self.traces[i].avg_usage[t];
            }
        }
        GroupStats {
            alloc_ratio: limit_sum.iter().map(|&l| l / capacity).collect(),
            usage_ratio: usage_sum.iter().map(|&u| u / capacity).collect(),
            savings: limit_sum
                .iter()
                .zip(&pred_sum)
                .map(|(&l, &p)| if l > 0.0 { (l - p) / l } else { 0.0 })
                .collect(),
        }
    }
}

/// Runs one cluster for the configured duration, where machine `i`
/// deploys `assign(i)` as its policy.
///
/// This is the paper's actual A/B design: control and experiment machines
/// live in the *same* cells, managed by the same scheduler, competing for
/// the same task stream — only their on-board overcommit policies differ.
/// A single-policy cluster assigns every machine the same spec.
///
/// # Errors
///
/// Returns configuration errors (the cluster's and each assigned
/// policy's) up front and internal consistency errors (simulation bugs)
/// from trace assembly.
pub fn run_cluster(
    cfg: &ClusterConfig,
    assign: impl Fn(usize) -> PredictorSpec,
) -> Result<ClusterOutcome, SchedulerError> {
    cfg.validate()?;
    let mut machines: Vec<SimMachine> = (0..cfg.cell.machines)
        .map(|i| {
            let spec = assign(i);
            spec.validate()?;
            Ok(SimMachine::new(
                MachineId(i as u32),
                cfg.cell.capacity,
                cfg.cell.usage,
                &cfg.sim,
                spec.build()?,
                cfg.cell.seed,
            ))
        })
        .collect::<Result<_, SchedulerError>>()?;
    let mut stream = ArrivalStream::new(cfg.cell.clone(), cfg.jobs_per_tick, cfg.arrival_seed);
    let mut place_rng = SmallRng::seed_from_u64(splitmix(cfg.arrival_seed ^ 0x91ACE));
    let mut stats = ClusterStats::default();

    for ti in 0..cfg.duration_ticks {
        let t = Tick(ti);

        // --- Scheduling ----------------------------------------------------
        for req in stream.tick(t) {
            let candidates: Vec<(usize, f64)> = machines
                .iter()
                .enumerate()
                .filter(|(_, m)| m.fits(req.limit, req.memory_limit))
                .map(|(i, m)| (i, m.advertised_free()))
                .collect();
            match cfg.placement.choose(&candidates, &mut place_rng) {
                Some(i) => {
                    machines[i].admit(&req, t);
                    stats.admitted += 1;
                }
                None => stats.rejected += 1,
            }
        }

        // --- Usage ---------------------------------------------------------
        for m in machines.iter_mut() {
            m.advance(t);
        }
    }

    let horizon = TickRange::from_len(cfg.duration_ticks);
    let mut traces = Vec::with_capacity(machines.len());
    let mut demand_peak = Vec::with_capacity(machines.len());
    let mut machine_limit = Vec::with_capacity(machines.len());
    let mut machine_prediction = Vec::with_capacity(machines.len());
    for mut m in machines {
        demand_peak.push(std::mem::take(&mut m.demand_peak));
        machine_limit.push(std::mem::take(&mut m.limit_sum));
        machine_prediction.push(std::mem::take(&mut m.predictions));
        traces.push(m.into_trace(horizon)?);
    }
    Ok(ClusterOutcome {
        stats,
        traces,
        demand_peak,
        machine_limit,
        machine_prediction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::cell::CellPreset;

    fn small_cfg() -> ClusterConfig {
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.machines = 4;
        ClusterConfig {
            cell,
            jobs_per_tick: 1.0,
            duration_ticks: 200,
            sim: SimConfig::default(),
            placement: PlacementPolicy::WorstFit,
            arrival_seed: 11,
        }
    }

    fn run(spec: PredictorSpec) -> ClusterOutcome {
        run_cluster(&small_cfg(), |_| spec.clone()).unwrap()
    }

    fn all_machines(out: &ClusterOutcome) -> GroupStats {
        out.group_stats(&(0..out.traces.len()).collect::<Vec<_>>())
    }

    #[test]
    fn cluster_admits_and_fills() {
        let out = run(PredictorSpec::LimitSum);
        assert!(out.stats.admitted > 0);
        assert_eq!(all_machines(&out).alloc_ratio.len(), 200);
        assert_eq!(out.traces.len(), 4);
        // With no overcommit, Σ limits per machine never exceeds capacity.
        for trace in &out.traces {
            for tick in (0..200).map(Tick) {
                assert!(
                    trace.total_limit_at(tick) <= trace.capacity + 1e-9,
                    "machine {} overcommitted under limit-sum",
                    trace.machine
                );
            }
        }
    }

    #[test]
    fn overcommit_admits_more_than_no_overcommit() {
        let base = run(PredictorSpec::LimitSum);
        let over = run(PredictorSpec::production_max());
        assert!(
            over.stats.admitted >= base.stats.admitted,
            "overcommit {} vs baseline {}",
            over.stats.admitted,
            base.stats.admitted
        );
        // Saturated clusters must actually reject something for the
        // comparison to be meaningful.
        assert!(base.stats.rejected > 0);
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = run(PredictorSpec::paper_max());
        let b = run(PredictorSpec::paper_max());
        assert_eq!(a.stats.admitted, b.stats.admitted);
        assert_eq!(all_machines(&a).usage_ratio, all_machines(&b).usage_ratio);
    }

    #[test]
    fn savings_and_admission_rate() {
        let out = run(PredictorSpec::borg_default());
        let savings = all_machines(&out).savings;
        assert_eq!(savings.len(), 200);
        // borg-default predicts 0.9 ΣL, so savings are exactly 10 %.
        for (i, s) in savings.iter().enumerate().skip(1) {
            assert!((s - 0.1).abs() < 1e-9, "tick {i}: savings {s}");
        }
        let rate = out.stats.admission_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn invalid_configs_rejected() {
        let limit_sum = |_| PredictorSpec::LimitSum;
        let mut cfg = small_cfg();
        cfg.duration_ticks = 0;
        assert!(run_cluster(&cfg, limit_sum).is_err());
        let mut cfg = small_cfg();
        cfg.jobs_per_tick = f64::NAN;
        assert!(run_cluster(&cfg, limit_sum).is_err());
        // Every assigned policy is validated.
        let bad = |i| {
            if i == 3 {
                PredictorSpec::BorgDefault { phi: 1.5 }
            } else {
                PredictorSpec::LimitSum
            }
        };
        assert!(run_cluster(&small_cfg(), bad).is_err());
    }
}
