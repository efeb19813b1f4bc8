//! A live machine: running tasks, node-agent state, and an on-board
//! peak predictor.

use crate::arrival::TaskRequest;
use oc_core::config::SimConfig;
use oc_core::predictor::{clamp_prediction_vec, PeakPredictor};
use oc_core::view::MachineView;
use oc_stats::resource::{Res2, CPU, MEM, NUM_RESOURCES};
use oc_trace::cell::UsageModel;
use oc_trace::gen::UsageProcess;
use oc_trace::ids::{MachineId, TaskId};
use oc_trace::memory::MemoryModel;
use oc_trace::sample::UsageSample;
use oc_trace::task::{SchedulingClass, TaskSpec, TaskTrace};
use oc_trace::time::{Tick, TickRange, SUBSAMPLES_PER_TICK};
use oc_trace::{MachineTrace, TraceError};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One running task.
#[derive(Debug)]
struct LiveTask {
    id: TaskId,
    limit: f64,
    memory_limit: f64,
    start: Tick,
    end: Tick,
    class: SchedulingClass,
    priority: u16,
    process: UsageProcess,
    /// This tick's drawn demand, one value per subsample.
    demand: [f64; SUBSAMPLES_PER_TICK],
    /// Realized per-tick metric values (for post-hoc replay).
    recorded: Vec<f64>,
}

/// Normalized machine memory capacity: one machine-memory unit, the same
/// normalization the trace generator uses for `memory_limit`.
pub const MEM_CAPACITY: f64 = 1.0;

/// A finished (or horizon-truncated) task with its realized usage.
#[derive(Debug, Clone)]
pub struct RecordedTask {
    /// Static task properties as they ran.
    pub spec: TaskSpec,
    /// Realized per-tick usage (by the configured metric), throttled.
    pub usage: Vec<f64>,
}

/// A machine in the live cluster.
///
/// Each tick the machine advances every task's usage process, throttles
/// demand that exceeds physical capacity (proportionally across tasks, as
/// the CPU scheduler's fair shares would), feeds the node-agent view, and
/// records the series the experiment needs: uncapped demand peak (drives
/// the QoS model), realized usage, Σ limits, and the on-board predictor's
/// estimate.
pub struct SimMachine {
    id: MachineId,
    capacity: f64,
    metric: oc_trace::sample::UsageMetric,
    usage_model: UsageModel,
    view: MachineView,
    predictor: Box<dyn PeakPredictor>,
    live: Vec<LiveTask>,
    finished: Vec<RecordedTask>,
    rng: SmallRng,
    /// Derived memory-usage model (deterministic; consumes no RNG).
    mem_model: MemoryModel,
    /// Per-lane Σ limits of tasks admitted this tick but not yet observed.
    pending_limit: Res2,
    /// Per-lane clamped prediction from the end of the previous tick.
    cached_prediction: Res2,
    // --- Recorded series, one entry per advanced tick. ------------------
    /// Uncapped within-tick peak demand.
    pub demand_peak: Vec<f64>,
    /// Realized (throttled) within-tick peak usage.
    pub realized_peak: Vec<f64>,
    /// Realized average usage.
    pub realized_avg: Vec<f64>,
    /// Σ limits of running tasks.
    pub limit_sum: Vec<f64>,
    /// The predictor's estimate after observing the tick.
    pub predictions: Vec<f64>,
    /// The predictor's memory-lane estimate after observing the tick.
    pub mem_predictions: Vec<f64>,
}

impl std::fmt::Debug for SimMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMachine")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("live_tasks", &self.live.len())
            .finish()
    }
}

impl SimMachine {
    /// Creates an idle machine.
    pub fn new(
        id: MachineId,
        capacity: f64,
        usage_model: UsageModel,
        sim: &SimConfig,
        predictor: Box<dyn PeakPredictor>,
        seed: u64,
    ) -> SimMachine {
        SimMachine {
            id,
            capacity,
            metric: sim.metric,
            usage_model,
            view: MachineView::new(capacity, sim),
            predictor,
            live: Vec::new(),
            finished: Vec::new(),
            rng: SmallRng::seed_from_u64(oc_trace::gen::splitmix(
                seed ^ oc_trace::gen::splitmix(0x5EED ^ u64::from(id.0)),
            )),
            mem_model: MemoryModel::default(),
            pending_limit: Res2::ZERO,
            cached_prediction: Res2::ZERO,
            demand_peak: Vec::new(),
            realized_peak: Vec::new(),
            realized_avg: Vec::new(),
            limit_sum: Vec::new(),
            predictions: Vec::new(),
            mem_predictions: Vec::new(),
        }
    }

    /// The machine id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Physical capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of running tasks.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Σ limits over running tasks (including this tick's admissions).
    pub fn total_limit(&self) -> f64 {
        self.live.iter().map(|t| t.limit).sum()
    }

    /// The free capacity advertised to the scheduler: capacity minus the
    /// predicted peak minus limits pending from this tick's admissions.
    pub fn advertised_free(&self) -> f64 {
        self.capacity - self.cached_prediction.lane(CPU) - self.pending_limit.lane(CPU)
    }

    /// Feasibility check for a new task: the paper's admission rule
    /// `P(J_s, t) + L_J ≤ M`, applied to *every* resource lane. A machine
    /// fits a task only if both its CPU and its memory projections stay
    /// within the respective capacities — worst-lane gating, so a
    /// memory-bound machine with plenty of CPU headroom still rejects.
    pub fn fits(&self, limit: f64, memory_limit: f64) -> bool {
        let projected =
            self.cached_prediction + self.pending_limit + Res2::from_lanes([limit, memory_limit]);
        let capacity = Res2::from_lanes([self.capacity, MEM_CAPACITY]);
        (0..NUM_RESOURCES).all(|lane| projected.lane(lane) <= capacity.lane(lane) + 1e-9)
    }

    /// Admits a task; it starts producing usage this tick.
    pub fn admit(&mut self, req: &TaskRequest, now: Tick) {
        let process = UsageProcess::sample_new(
            &mut self.rng,
            &self.usage_model,
            req.limit,
            req.job_seed,
            req.job_phase,
            req.class.is_latency_sensitive(),
            req.job_util_base,
        );
        self.pending_limit = self.pending_limit + Res2::from_lanes([req.limit, req.memory_limit]);
        self.live.push(LiveTask {
            id: req.id,
            limit: req.limit,
            memory_limit: req.memory_limit,
            start: now,
            end: now.plus(req.runtime_ticks),
            class: req.class,
            priority: req.priority,
            process,
            demand: [0.0; SUBSAMPLES_PER_TICK],
            recorded: Vec::new(),
        });
    }

    /// Advances one tick: usage, throttling, observation, prediction.
    ///
    /// Throttling honours scheduling classes the way CPU shares do: when
    /// instantaneous demand exceeds capacity, batch tasks (classes 0–1)
    /// are squeezed first; serving tasks (classes 2–3) are scaled down
    /// only when their demand alone exceeds capacity. This is the paper's
    /// "limits are soft, enforced only in the case of resource
    /// contention" plus the SLO asymmetry between the two job classes.
    pub fn advance(&mut self, t: Tick) {
        // Draw every task's demand, split by class.
        let mut serving_demand = [0.0f64; SUBSAMPLES_PER_TICK];
        let mut batch_demand = [0.0f64; SUBSAMPLES_PER_TICK];
        for task in &mut self.live {
            task.process.tick(&mut self.rng, t, &mut task.demand);
            let acc = if task.class.is_latency_sensitive() {
                &mut serving_demand
            } else {
                &mut batch_demand
            };
            for (a, &v) in acc.iter_mut().zip(task.demand.iter()) {
                *a += v;
            }
        }

        // Per-instant scales for each class.
        let mut serving_scale = [1.0f64; SUBSAMPLES_PER_TICK];
        let mut batch_scale = [1.0f64; SUBSAMPLES_PER_TICK];
        let mut demand = [0.0f64; SUBSAMPLES_PER_TICK];
        let mut realized_sum = [0.0f64; SUBSAMPLES_PER_TICK];
        for k in 0..SUBSAMPLES_PER_TICK {
            demand[k] = serving_demand[k] + batch_demand[k];
            if demand[k] > self.capacity {
                if serving_demand[k] >= self.capacity {
                    serving_scale[k] = self.capacity / serving_demand[k];
                    batch_scale[k] = 0.0;
                } else {
                    let room = self.capacity - serving_demand[k];
                    batch_scale[k] = if batch_demand[k] > 0.0 {
                        room / batch_demand[k]
                    } else {
                        1.0
                    };
                }
            }
            realized_sum[k] =
                serving_demand[k] * serving_scale[k] + batch_demand[k] * batch_scale[k];
        }

        // Record per-task realized usage and feed the node-agent view as
        // the view reads each task. Observations go through the vector
        // path: its CPU lane is the scalar observe, and the memory lane
        // carries the deterministic derived series.
        let metric = self.metric;
        let mem_model = self.mem_model;
        self.view.observe_vec(
            t,
            self.live.iter_mut().map(|task| {
                let scale = if task.class.is_latency_sensitive() {
                    &serving_scale
                } else {
                    &batch_scale
                };
                let realized: [f64; SUBSAMPLES_PER_TICK] =
                    std::array::from_fn(|k| task.demand[k] * scale[k]);
                let sample = UsageSample::from_subsamples(&realized)
                    .expect("realized window is non-empty and finite");
                let value = metric.of(&sample);
                task.recorded.push(value);
                let mem = mem_model.usage_raw(
                    task.id.job.0,
                    task.id.index,
                    task.limit,
                    task.memory_limit,
                    t,
                    value,
                );
                (
                    task.id,
                    Res2::from_lanes([task.limit, task.memory_limit]),
                    Res2::from_lanes([value, mem]),
                )
            }),
        );

        // Per-tick records.
        self.demand_peak
            .push(demand.iter().copied().fold(0.0, f64::max));
        self.realized_peak
            .push(realized_sum.iter().copied().fold(0.0, f64::max));
        self.realized_avg
            .push(realized_sum.iter().sum::<f64>() / SUBSAMPLES_PER_TICK as f64);
        self.limit_sum.push(self.total_limit());
        self.cached_prediction =
            clamp_prediction_vec(self.predictor.predict_vec(&self.view), &self.view);
        self.predictions.push(self.cached_prediction.lane(CPU));
        self.mem_predictions.push(self.cached_prediction.lane(MEM));
        self.pending_limit = Res2::ZERO;

        // Retire tasks whose lifetime ends before the next tick.
        let next = t.plus(1);
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].end <= next {
                let task = self.live.swap_remove(i);
                self.finished.push(finish(task, None));
            } else {
                i += 1;
            }
        }
    }

    /// Ends the simulation at `horizon_end`, truncating still-running
    /// tasks, and returns every recorded task.
    pub fn finish(mut self, horizon_end: Tick) -> Vec<RecordedTask> {
        for task in self.live.drain(..) {
            self.finished.push(finish(task, Some(horizon_end)));
        }
        self.finished
    }

    /// Converts the machine's realized run into a [`MachineTrace`] suitable
    /// for post-hoc replay (oracle computation, violation accounting). Task
    /// samples are "flat" — every summary field carries the realized metric
    /// value — so any replay metric reads the same number.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the assembled trace is inconsistent
    /// (which would indicate a simulation bug).
    pub fn into_trace(self, horizon: TickRange) -> Result<MachineTrace, TraceError> {
        let capacity = self.capacity;
        let id = self.id;
        let true_peak = self.realized_peak.clone();
        let avg_usage = self.realized_avg.clone();
        let recorded = self.finish(horizon.end);
        let mut tasks = Vec::with_capacity(recorded.len());
        for r in recorded {
            let samples: Vec<UsageSample> = r
                .usage
                .iter()
                .map(|&v| UsageSample {
                    avg: v,
                    p50: v,
                    p90: v,
                    p95: v,
                    p99: v,
                    max: v,
                })
                .collect();
            tasks.push(TaskTrace::new(r.spec, samples)?);
        }
        tasks.sort_by_key(|t| (t.spec.start, t.spec.id));
        let trace = MachineTrace {
            machine: id,
            capacity,
            horizon,
            tasks,
            true_peak,
            avg_usage,
        };
        trace.validate()?;
        Ok(trace)
    }
}

/// Seals one live task into a [`RecordedTask`], truncating at the horizon
/// if given.
fn finish(task: LiveTask, horizon_end: Option<Tick>) -> RecordedTask {
    let mut end = task.end;
    let mut usage = task.recorded;
    if let Some(h) = horizon_end {
        end = Tick(end.index().min(h.index()));
    }
    // The recorded length is authoritative: the task ran exactly that many
    // ticks (admission mid-simulation means fewer than the nominal
    // runtime).
    let ran = usage.len() as u64;
    end = Tick(end.index().min(task.start.index() + ran));
    usage.truncate((end.index() - task.start.index()) as usize);
    RecordedTask {
        spec: TaskSpec {
            id: task.id,
            limit: task.limit,
            memory_limit: task.memory_limit,
            start: task.start,
            end,
            class: task.class,
            priority: task.priority,
        },
        usage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_core::predictor::PredictorSpec;
    use oc_trace::cell::{CellConfig, CellPreset};
    use oc_trace::ids::JobId;

    fn request(job: u64, limit: f64, runtime: u64) -> TaskRequest {
        TaskRequest {
            id: TaskId::new(JobId(job), 0),
            limit,
            memory_limit: 0.05,
            runtime_ticks: runtime,
            class: SchedulingClass::Class2,
            priority: 200,
            job_seed: job,
            job_phase: 0.3,
            job_util_base: 0.5,
        }
    }

    fn machine(spec: &PredictorSpec) -> SimMachine {
        let cell = CellConfig::preset(CellPreset::A);
        SimMachine::new(
            MachineId(0),
            1.0,
            cell.usage,
            &SimConfig::default(),
            spec.build().unwrap(),
            42,
        )
    }

    #[test]
    fn admission_and_retirement() {
        let mut m = machine(&PredictorSpec::LimitSum);
        m.admit(&request(1, 0.3, 5), Tick(0));
        m.admit(&request(2, 0.2, 10), Tick(0));
        assert_eq!(m.live_count(), 2);
        assert!((m.total_limit() - 0.5).abs() < 1e-12);
        for t in 0..5u64 {
            m.advance(Tick(t));
        }
        assert_eq!(m.live_count(), 1, "5-tick task must have retired");
        for t in 5..10u64 {
            m.advance(Tick(t));
        }
        assert_eq!(m.live_count(), 0);
        let recorded = m.finish(Tick(10));
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded.iter().map(|r| r.usage.len()).sum::<usize>(), 15);
    }

    #[test]
    fn pending_limits_gate_admission() {
        let mut m = machine(&PredictorSpec::LimitSum);
        assert!(m.fits(0.6, 0.05));
        m.admit(&request(1, 0.6, 5), Tick(0));
        // Before any observation the prediction is stale (0) but the
        // pending limit already counts.
        assert!(!m.fits(0.6, 0.05));
        assert!(m.fits(0.4, 0.05));
    }

    #[test]
    fn memory_lane_gates_admission() {
        let mut m = machine(&PredictorSpec::LimitSum);
        // Plenty of CPU headroom, but a memory hog fills the memory lane.
        let mut hog = request(1, 0.1, 5);
        hog.memory_limit = 0.9;
        m.admit(&hog, Tick(0));
        // CPU alone would fit easily; the memory lane must reject.
        assert!(!m.fits(0.1, 0.2));
        assert!(m.fits(0.1, 0.05));
        // After observation, limit-sum predicts Σ memory limits too.
        m.advance(Tick(0));
        assert!((m.mem_predictions[0] - 0.9).abs() < 1e-12);
        assert!(!m.fits(0.1, 0.2));
    }

    #[test]
    fn throttling_caps_realized_usage() {
        // Grossly overcommit a tiny machine so demand exceeds capacity.
        let cell = CellConfig::preset(CellPreset::A);
        let mut m2 = SimMachine::new(
            MachineId(1),
            0.1,
            cell.usage,
            &SimConfig::default(),
            PredictorSpec::LimitSum.build().unwrap(),
            7,
        );
        for j in 0..10 {
            m2.admit(&request(j, 0.1, 50), Tick(0));
        }
        for t in 0..50u64 {
            m2.advance(Tick(t));
        }
        for (&peak, &demand) in m2.realized_peak.iter().zip(m2.demand_peak.iter()) {
            assert!(peak <= 0.1 + 1e-9, "realized peak {peak} above capacity");
            assert!(demand + 1e-12 >= peak);
        }
        // The uncapped demand must actually have exceeded capacity at
        // least once for this test to mean anything.
        assert!(m2.demand_peak.iter().any(|&d| d > 0.1));
    }

    #[test]
    fn batch_is_throttled_before_serving() {
        // A tiny machine hosting one serving and one batch task, both
        // demanding ~the whole capacity: the batch task must be squeezed
        // while the serving task keeps (almost) its demand.
        let cell = CellConfig::preset(CellPreset::A);
        let mut usage = cell.usage;
        usage.util_range = (0.85, 0.9);
        usage.spike_prob = 0.0;
        usage.job_spike_prob = 0.0;
        usage.subsample_sigma = 0.001;
        usage.warmup_ticks = 0;
        usage.diurnal_amp = (0.0, 0.001);
        usage.ou_sigma = (0.0001, 0.0002);
        let mut m = SimMachine::new(
            MachineId(0),
            1.0,
            usage,
            &SimConfig::default(),
            PredictorSpec::LimitSum.build().unwrap(),
            3,
        );
        let mut serving = request(1, 0.9, 30); // Class2 via the helper.
        serving.job_util_base = 0.88;
        let mut batch = request(2, 0.9, 30);
        batch.class = SchedulingClass::Class0;
        batch.job_util_base = 0.88;
        m.admit(&serving, Tick(0));
        m.admit(&batch, Tick(0));
        for t in 0..30u64 {
            m.advance(Tick(t));
        }
        let recorded = m.finish(Tick(30));
        let serving_mean: f64 = recorded[0].usage.iter().sum::<f64>() / 30.0;
        let batch_mean: f64 = recorded[1].usage.iter().sum::<f64>() / 30.0;
        let (serving_mean, batch_mean) = if recorded[0].spec.class.is_latency_sensitive() {
            (serving_mean, batch_mean)
        } else {
            (batch_mean, serving_mean)
        };
        // Serving keeps ~0.77 of limit demand (≈0.9 × 0.86 util); batch is
        // squeezed into the leftover ~0.3.
        assert!(
            serving_mean > 2.0 * batch_mean,
            "serving {serving_mean} vs batch {batch_mean}"
        );
    }

    #[test]
    fn prediction_updates_after_observation() {
        let mut m = machine(&PredictorSpec::borg_default());
        m.admit(&request(1, 0.5, 100), Tick(0));
        m.advance(Tick(0));
        // borg-default(0.9): prediction = 0.9 * 0.5.
        assert!((m.predictions[0] - 0.45).abs() < 1e-12);
        assert!((m.advertised_free() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn into_trace_roundtrips_validation() {
        let mut m = machine(&PredictorSpec::paper_max());
        m.admit(&request(1, 0.3, 30), Tick(0));
        for t in 0..20u64 {
            if t == 5 {
                m.admit(&request(2, 0.2, 8), Tick(5));
            }
            m.advance(Tick(t));
        }
        let trace = m.into_trace(TickRange::from_len(20)).unwrap();
        assert_eq!(trace.tasks.len(), 2);
        assert_eq!(trace.true_peak.len(), 20);
        // Task 1 was truncated at the horizon.
        assert_eq!(trace.tasks[0].spec.end, Tick(20));
        // Task 2 ran its full 8 ticks.
        assert_eq!(trace.tasks[1].spec.end, Tick(13));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = machine(&PredictorSpec::paper_max());
            m.admit(&request(1, 0.4, 40), Tick(0));
            for t in 0..40u64 {
                m.advance(Tick(t));
            }
            m.realized_avg.clone()
        };
        assert_eq!(run(), run());
    }
}
