//! The synthetic workload generator.
//!
//! [`WorkloadGenerator`] turns a [`CellConfig`] into per-machine traces with
//! the same shape as the Google cluster trace v3. Machines are generated
//! independently and deterministically: machine `m` of a cell with seed `s`
//! always produces the same tasks and usage series, regardless of the order
//! machines are generated in or how many threads are used.
//!
//! The generation loop per machine:
//!
//! 1. Each tick, while the machine's `Σ limits / capacity` is below its
//!    target ratio, new tasks arrive with a diurnally modulated probability
//!    (tick 0 fills the machine to its target immediately so experiments do
//!    not start from an empty cell).
//! 2. Tasks are grouped into jobs. A job's tasks share a limit, class,
//!    priority, diurnal phase and a slowly varying "load balancer" factor —
//!    the intra-job correlation that makes the pooling effect statistical
//!    rather than total.
//! 3. Each live task advances its [`UsageProcess`] one tick, emitting
//!    [`SUBSAMPLES_PER_TICK`] instantaneous usage points into one stack
//!    window, which [`UsageSample::from_subsamples`] summarises without
//!    allocating. The ground-truth machine peak of the tick is the max over
//!    those instants of the *sum* across tasks, which is strictly smaller
//!    than the sum of per-task peaks whenever tasks do not co-peak.
//!
//! Per task-tick the cost is the process's normal draws (one for its AR(1)
//! state, one jitter per subsample): everything fixed for a task or its job
//! (the job factor's periods and phases included) is derived once, when the
//! task is admitted. A task's sample vector is reserved at the length it
//! will have, its runtime cut at the horizon.
//!
//! [`WorkloadGenerator::generate_cell`] is
//! [`WorkloadGenerator::generate_cell_parallel`] with one thread, which
//! runs on the caller's thread: both share one loop over machines.

pub mod dist;
pub mod usage;

pub use usage::{splitmix, UsageProcess};

use crate::cell::CellConfig;
use crate::error::TraceError;
use crate::ids::{JobId, MachineId, TaskId};
use crate::machine::MachineTrace;
use crate::sample::UsageSample;
use crate::task::{SchedulingClass, TaskSpec, TaskTrace};
use crate::time::{Tick, TickRange, SUBSAMPLES_PER_TICK, TICKS_PER_HOUR};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic synthetic workload generator for one cell.
///
/// # Examples
///
/// ```
/// use oc_trace::cell::{CellConfig, CellPreset};
/// use oc_trace::gen::WorkloadGenerator;
///
/// let cfg = CellConfig::preset(CellPreset::A).with_machines(2);
/// let gen = WorkloadGenerator::new(cfg).unwrap();
/// let machines = gen.generate_cell().unwrap();
/// assert_eq!(machines.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    cfg: CellConfig,
}

/// A job template shared by sibling tasks placed on one machine.
#[derive(Debug, Clone)]
struct JobTemplate {
    id: JobId,
    remaining: u32,
    next_index: u32,
    limit: f64,
    memory_limit: f64,
    class: SchedulingClass,
    priority: u16,
    phase: f64,
    seed: u64,
    util_base: f64,
}

/// A task currently running during generation.
#[derive(Debug)]
struct LiveTask {
    spec: TaskSpec,
    process: UsageProcess,
    samples: Vec<UsageSample>,
}

impl WorkloadGenerator {
    /// Creates a generator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] if the cell config is invalid.
    pub fn new(cfg: CellConfig) -> Result<WorkloadGenerator, TraceError> {
        cfg.validate()?;
        Ok(WorkloadGenerator { cfg })
    }

    /// The cell configuration this generator was built from.
    pub fn config(&self) -> &CellConfig {
        &self.cfg
    }

    /// Generates every machine of the cell on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates any internal consistency error (which would indicate a
    /// generator bug; the output is validated before being returned).
    pub fn generate_cell(&self) -> Result<Vec<MachineTrace>, TraceError> {
        self.generate_cell_parallel(1)
    }

    /// Generates every machine of the cell on `threads` threads: the calling
    /// thread takes the first contiguous chunk of machines and one scoped
    /// thread takes each further chunk, so one thread spawns nothing.
    ///
    /// The output does not depend on `threads` (machines are seeded
    /// independently).
    ///
    /// # Errors
    ///
    /// Propagates the first per-machine error, in machine order.
    pub fn generate_cell_parallel(&self, threads: usize) -> Result<Vec<MachineTrace>, TraceError> {
        let n = self.cfg.machines;
        let mut results: Vec<Option<Result<MachineTrace, TraceError>>> = Vec::new();
        results.resize_with(n, || None);
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let fill = |first: usize, slots: &mut [Option<Result<MachineTrace, TraceError>>]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = Some(self.generate_machine(MachineId((first + j) as u32)));
            }
        };
        std::thread::scope(|scope| {
            let mut chunks = results.chunks_mut(chunk).enumerate();
            let own = chunks.next();
            for (i, slots) in chunks {
                scope.spawn(move || fill(i * chunk, slots));
            }
            if let Some((_, slots)) = own {
                fill(0, slots);
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every chunk slot filled by its thread"))
            .collect()
    }

    /// Generates the full trace of a single machine.
    ///
    /// Deterministic: depends only on the cell config and the machine id.
    ///
    /// # Errors
    ///
    /// Returns an error only if the generated trace fails its own validation
    /// (a generator bug, not a user error).
    pub fn generate_machine(&self, machine: MachineId) -> Result<MachineTrace, TraceError> {
        let cfg = &self.cfg;
        let mut rng = SmallRng::seed_from_u64(splitmix(
            cfg.seed ^ splitmix(0x6D61_6368 ^ u64::from(machine.0).wrapping_add(1)),
        ));

        let duration = cfg.duration_ticks;
        let target_ratio =
            dist::uniform(&mut rng, cfg.target_limit_ratio.0, cfg.target_limit_ratio.1);
        let target_limit = target_ratio * cfg.capacity;

        let mut live: Vec<LiveTask> = Vec::new();
        let mut done: Vec<TaskTrace> = Vec::new();
        let mut job: Option<JobTemplate> = None;
        let mut job_counter: u64 = 0;
        let mut true_peak = Vec::with_capacity(duration as usize);
        let mut avg_usage = Vec::with_capacity(duration as usize);
        let mut instant = [0.0f64; SUBSAMPLES_PER_TICK];
        let mut buf = [0.0f64; SUBSAMPLES_PER_TICK];

        for ti in 0..duration {
            let t = Tick(ti);

            // --- Arrivals -------------------------------------------------
            let diurnal =
                1.0 + cfg.arrival_diurnal_amp * (std::f64::consts::TAU * t.day_fraction()).sin();
            let p_admit = (cfg.refill_prob * diurnal).clamp(0.0, 1.0);
            // Tick 0 fills the machine to its target so the trace starts hot,
            // as a steady-state cluster would be.
            let max_arrivals = if ti == 0 {
                u32::MAX
            } else {
                cfg.max_arrivals_per_tick
            };
            let mut admitted = 0u32;
            while admitted < max_arrivals {
                let total_limit: f64 = live.iter().map(|l| l.spec.limit).sum();
                if total_limit >= target_limit {
                    break;
                }
                if ti != 0 && rng.random::<f64>() >= p_admit {
                    break;
                }
                let task = self.admit_task(&mut rng, machine, &mut job, &mut job_counter, t);
                live.push(task);
                admitted += 1;
            }

            // --- Usage ----------------------------------------------------
            instant.fill(0.0);
            for task in live.iter_mut() {
                task.process.tick(&mut rng, t, &mut buf);
                for (acc, &v) in instant.iter_mut().zip(buf.iter()) {
                    *acc += v;
                }
                task.samples.push(
                    UsageSample::from_subsamples(&buf)
                        .expect("generator emits non-empty finite windows"),
                );
            }
            true_peak.push(instant.iter().copied().fold(0.0, f64::max));
            avg_usage.push(instant.iter().sum::<f64>() / SUBSAMPLES_PER_TICK as f64);

            // --- Departures -----------------------------------------------
            let next = t.plus(1);
            let mut i = 0;
            while i < live.len() {
                if !live[i].spec.alive_at(next) {
                    let LiveTask { spec, samples, .. } = live.swap_remove(i);
                    done.push(TaskTrace::new(spec, samples)?);
                } else {
                    i += 1;
                }
            }
        }
        // Flush tasks still running at the horizon.
        for task in live {
            let LiveTask {
                mut spec,
                mut samples,
                ..
            } = task;
            // The spec may extend past the horizon; truncate to what ran.
            spec.end = Tick(duration);
            samples.truncate(spec.runtime_ticks() as usize);
            done.push(TaskTrace::new(spec, samples)?);
        }
        done.sort_by_key(|t| (t.spec.start, t.spec.id));

        let trace = MachineTrace {
            machine,
            capacity: cfg.capacity,
            horizon: TickRange::from_len(duration),
            tasks: done,
            true_peak,
            avg_usage,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Draws a new task, starting a fresh job when the current one is
    /// exhausted.
    fn admit_task(
        &self,
        rng: &mut SmallRng,
        machine: MachineId,
        job: &mut Option<JobTemplate>,
        job_counter: &mut u64,
        now: Tick,
    ) -> LiveTask {
        let cfg = &self.cfg;
        if job.as_ref().is_none_or(|j| j.remaining == 0) {
            *job = Some(self.new_job(rng, machine, job_counter));
        }
        let tpl = job.as_mut().expect("job template refreshed above");
        tpl.remaining -= 1;
        let index = tpl.next_index;
        tpl.next_index += 1;

        let runtime_ticks = self.draw_runtime_ticks(rng);
        let spec = TaskSpec {
            id: TaskId::new(tpl.id, index),
            limit: tpl.limit,
            memory_limit: tpl.memory_limit,
            start: now,
            end: now.plus(runtime_ticks),
            class: tpl.class,
            priority: tpl.priority,
        };
        let process = UsageProcess::sample_new(
            rng,
            &cfg.usage,
            tpl.limit,
            tpl.seed,
            tpl.phase,
            tpl.class.is_latency_sensitive(),
            tpl.util_base,
        );
        // The task records one sample per tick until it ends or the horizon
        // cuts it off, whichever comes first: reserve exactly that.
        let ticks = runtime_ticks.min(cfg.duration_ticks - now.index());
        LiveTask {
            spec,
            process,
            samples: Vec::with_capacity(ticks as usize),
        }
    }

    /// Draws a fresh job template.
    fn new_job(
        &self,
        rng: &mut SmallRng,
        machine: MachineId,
        job_counter: &mut u64,
    ) -> JobTemplate {
        let cfg = &self.cfg;
        *job_counter += 1;
        // Job ids are unique cell-wide: the machine index occupies the high
        // bits, the per-machine counter the low bits.
        let id = JobId((u64::from(machine.0) << 32) | *job_counter);
        let count = rng.random_range(cfg.tasks_per_job.0..=cfg.tasks_per_job.1);
        let limit = dist::lognormal(rng, cfg.limits.log_mean, cfg.limits.log_sigma)
            .clamp(cfg.limits.min, cfg.limits.max);
        let serving = rng.random::<f64>() < cfg.serving_fraction;
        let (class, priority) = if serving {
            if rng.random::<f64>() < 0.5 {
                (SchedulingClass::Class2, 200)
            } else {
                (SchedulingClass::Class3, 360)
            }
        } else if rng.random::<f64>() < 0.5 {
            (SchedulingClass::Class0, 25)
        } else {
            (SchedulingClass::Class1, 100)
        };
        JobTemplate {
            id,
            remaining: count,
            next_index: 0,
            limit,
            memory_limit: dist::lognormal(rng, (0.04f64).ln(), 0.8).clamp(0.005, 0.5),
            class,
            priority,
            phase: cfg.diurnal_phase + dist::normal(rng, 0.0, cfg.usage.diurnal_phase_jitter),
            seed: splitmix(cfg.seed ^ splitmix(id.0)),
            util_base: usage::draw_job_base(rng, &cfg.usage),
        }
    }

    /// Draws a runtime in ticks from the two-component lognormal mixture.
    fn draw_runtime_ticks(&self, rng: &mut SmallRng) -> u64 {
        let m = &self.cfg.runtime;
        let hours = if rng.random::<f64>() < m.short_frac {
            dist::lognormal(rng, m.short_median_hours.ln(), m.short_sigma)
        } else {
            dist::lognormal(rng, m.long_median_hours.ln(), m.long_sigma)
        };
        let hours = hours.min(m.max_hours);
        ((hours * TICKS_PER_HOUR as f64).round() as u64).max(1)
    }
}

/// Per-tick cell-level task submission counts (Figure 4's series).
///
/// Counts, for each tick of the cell horizon, how many tasks across all
/// `machines` have that tick as their start.
pub fn submission_counts(machines: &[MachineTrace], duration_ticks: u64) -> Vec<u64> {
    let mut counts = vec![0u64; duration_ticks as usize];
    for m in machines {
        for t in &m.tasks {
            let idx = t.spec.start.index();
            if idx < duration_ticks {
                counts[idx as usize] += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellPreset;
    use crate::sample::UsageMetric;

    fn small_cfg() -> CellConfig {
        let mut c = CellConfig::preset(CellPreset::A);
        c.machines = 3;
        c.duration_ticks = 3 * 24 * TICKS_PER_HOUR; // 3 days
        c
    }

    #[test]
    fn generates_requested_machine_count() {
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let cell = g.generate_cell().unwrap();
        assert_eq!(cell.len(), 3);
        for m in &cell {
            m.validate().unwrap();
            assert!(m.task_count() > 0, "machine {} has no tasks", m.machine);
        }
    }

    #[test]
    fn deterministic_per_machine() {
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let a = g.generate_machine(MachineId(1)).unwrap();
        let b = g.generate_machine(MachineId(1)).unwrap();
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.true_peak, b.true_peak);
        for (x, y) in a.tasks.iter().zip(b.tasks.iter()) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let seq = g.generate_cell().unwrap();
        let par = g.generate_cell_parallel(4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.true_peak, b.true_peak);
        }
    }

    /// FNV-1a over the bits of every generated number of a seeded cell:
    /// all six fields of every task's every sample, then the machine's
    /// `true_peak` and `avg_usage` series.
    fn cell_digest(cell: &[MachineTrace]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: f64| {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for m in cell {
            for task in &m.tasks {
                for s in &task.samples {
                    for x in [s.avg, s.p50, s.p90, s.p95, s.p99, s.max] {
                        eat(x);
                    }
                }
            }
            m.true_peak.iter().chain(&m.avg_usage).for_each(|&x| eat(x));
        }
        h
    }

    /// The generator's output, every summary field included, is pinned to
    /// the bit. A speed-up of the generator must leave this value alone;
    /// a deliberate change to the generated traces edits it and says so.
    #[test]
    fn cell_digest_is_pinned() {
        let mut cfg = CellConfig::preset(CellPreset::A)
            .with_machines(6)
            .with_seed(42);
        cfg.duration_ticks = 288;
        let cell = WorkloadGenerator::new(cfg)
            .unwrap()
            .generate_cell()
            .unwrap();
        let samples: usize = cell
            .iter()
            .flat_map(|m| &m.tasks)
            .map(|t| t.samples.len())
            .sum();
        assert_eq!(samples, 26_159);
        assert_eq!(cell_digest(&cell), 0xf32f_9843_5dc2_a083);
    }

    #[test]
    fn different_machines_differ() {
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let a = g.generate_machine(MachineId(0)).unwrap();
        let b = g.generate_machine(MachineId(1)).unwrap();
        assert_ne!(a.true_peak, b.true_peak);
    }

    #[test]
    fn machine_starts_hot() {
        // Tick 0 must already carry a workload near the target ratio.
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let m = g.generate_machine(MachineId(0)).unwrap();
        let ratio = m.total_limit_at(Tick(0)) / m.capacity;
        assert!(
            ratio >= g.config().target_limit_ratio.0 * 0.9,
            "limit ratio at t0 is only {ratio}"
        );
    }

    #[test]
    fn pooling_effect_exists() {
        // Sum of per-task peaks must exceed the machine-level true peak.
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let m = g.generate_machine(MachineId(0)).unwrap();
        let sum_task_peaks: f64 = m.tasks.iter().map(|t| t.peak()).sum();
        // Compare against max over ticks of machine peak; per-task peaks
        // happen at different times so their sum is far larger.
        assert!(
            sum_task_peaks > 1.2 * m.lifetime_peak(),
            "sum of task peaks {sum_task_peaks} vs machine peak {}",
            m.lifetime_peak()
        );
    }

    #[test]
    fn true_peak_bounds_metric_sums() {
        // The ground-truth within-tick peak is at most the sum of per-task
        // window maxima and at least the sum of window averages (up to
        // subsample noise on the average side).
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let m = g.generate_machine(MachineId(2)).unwrap();
        for ti in (0..m.horizon.len()).step_by(7) {
            let t = Tick(ti);
            let max_sum = m.total_usage_at(t, UsageMetric::Max);
            let peak = m.true_peak_at(t).unwrap();
            assert!(
                peak <= max_sum + 1e-9,
                "tick {t}: true peak {peak} above sum of maxima {max_sum}"
            );
        }
    }

    #[test]
    fn usage_to_limit_gap_exists() {
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let cell = g.generate_cell().unwrap();
        let mut usage = 0.0;
        let mut limit = 0.0;
        for m in &cell {
            for t in (0..m.horizon.len()).map(Tick) {
                usage += m.total_usage_at(t, UsageMetric::Avg);
                limit += m.total_limit_at(t);
            }
        }
        let ratio = usage / limit;
        assert!(
            (0.2..0.85).contains(&ratio),
            "cell usage-to-limit ratio {ratio} out of expected band"
        );
    }

    #[test]
    fn submission_counts_cover_all_tasks() {
        let g = WorkloadGenerator::new(small_cfg()).unwrap();
        let cell = g.generate_cell().unwrap();
        let counts = submission_counts(&cell, g.config().duration_ticks);
        let total: u64 = counts.iter().sum();
        let tasks: usize = cell.iter().map(|m| m.task_count()).sum();
        assert_eq!(total as usize, tasks);
        // Tick 0 carries the initial fill.
        assert!(counts[0] > 0);
    }

    #[test]
    fn serving_fraction_is_respected() {
        let mut cfg = small_cfg();
        cfg.serving_fraction = 1.0;
        let g = WorkloadGenerator::new(cfg).unwrap();
        let m = g.generate_machine(MachineId(0)).unwrap();
        assert!(m.tasks.iter().all(|t| t.spec.class.is_latency_sensitive()));
    }

    #[test]
    fn runtimes_respect_cap() {
        let mut cfg = small_cfg();
        cfg.runtime.max_hours = 5.0;
        let g = WorkloadGenerator::new(cfg).unwrap();
        let m = g.generate_machine(MachineId(0)).unwrap();
        for t in &m.tasks {
            // Tasks may also be truncated by the horizon; the cap applies to
            // the drawn runtime either way.
            assert!(
                t.spec.runtime_hours() <= 5.0 + 1e-9,
                "task {} runs {} h",
                t.spec.id,
                t.spec.runtime_hours()
            );
        }
    }
}
