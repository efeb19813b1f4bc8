//! The machine-local state practical predictors operate on.
//!
//! The paper's predictors run in the Borglet, on the machine, with strictly
//! bounded state: for every task a moving window of its most recent usage
//! samples (`max_num_samples`), an age counter for warm-up accounting, and
//! the task's limit. [`MachineView`] is exactly that state. It is fed one
//! observation per 5-minute tick — by the trace replayer in simulation or
//! by the live cluster in the scheduler — and predictors read it without
//! seeing anything a real node agent would not have.
//!
//! Warm-up semantics follow Section 4: a task with fewer than
//! `min_num_samples` observed samples is *cold*; predictions are made over
//! warm tasks only and the limits of cold tasks are added on top. The
//! machine-level aggregate window used by the N-sigma predictor records,
//! per tick, the summed usage of the tasks that were warm at that tick.
//!
//! # Window depth
//!
//! A per-task CPU window is read only through the predictors' per-task
//! percentile, and a percentile near the top reaches only the few largest
//! samples. So each window is a [`TopKWindow`] that keeps just the
//! samples that can still rank within its *depth* of the top: a view
//! built with [`MachineView::with_depth`] for the depth its predictors
//! derive ([`crate::predictor::PeakPredictor::window_depth`]; 3 for the
//! paper's p99 over 120 samples) holds a handful of entries per task, and
//! answers every read those predictors make with the bits a full window
//! would give. [`MachineView::new`] keeps the full window.
//!
//! # Resource lanes
//!
//! The view tracks a small fixed set of resource *lanes* (see
//! [`oc_stats::resource`]): lane 0 is CPU, lane 1 memory. State is laid
//! out structure-of-arrays — CPU-lane windows and sums in the primary
//! fields, memory-lane ones in parallel fields — so each lane's
//! incremental update works on its own contiguous buffer. One per-tick
//! body serves both ingest paths: [`MachineView::observe_vec`] runs it
//! with the memory lane, and the scalar [`MachineView::observe`] runs it
//! with the memory lane compiled out, so the scalar path is the CPU lane
//! by construction. Ticks fed through the scalar path do not advance
//! memory-lane windows (a scalar sample carries no memory information).
//!
//! # State transfer
//!
//! A view's whole state encodes to bytes and decodes back bit-exactly
//! (through [`crate::ingest::IncrementalView::encode`]): windows, running
//! accumulators, limit sums, ages and generation stamps all travel as
//! their bits, so a decoded view predicts — and keeps evolving — exactly
//! like the original.

use crate::config::SimConfig;
use crate::error::CoreError;
use oc_stats::resource::{Res2, CPU, MEM};
use oc_stats::state::{corrupt, put_bool, put_f64, put_u64, StateReader};
use oc_stats::{MovingWindow, PeakWindow, TopKWindow};
use oc_telemetry::Counter;
use oc_trace::ids::{JobId, TaskId};
use oc_trace::time::Tick;
use std::sync::{Arc, OnceLock};

/// Cached handle for the `core.view.observe_ticks` counter: one count per
/// [`MachineView::observe`] call across every view in the process.
fn observe_ticks_counter() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| oc_telemetry::global_metrics().counter("core.view.observe_ticks"))
}

/// Memory-lane state of one task: limit plus a windowed-peak tracker,
/// boxed so that scalar-only (CPU) serving pays one pointer per task,
/// not a whole second window.
///
/// The memory lane deliberately keeps a [`PeakWindow`], the depth-1 case
/// of the CPU lane's window: memory is incompressible (overrunning it kills
/// tasks instead of throttling them), so per-task admission needs the
/// recent *peak*, and tracking only the peak keeps the second lane's
/// push O(1) amortized. The benchmark's `layers` probes read the
/// vectorized observe path's cost (`core.view.observe_vec_ns_per_sample`)
/// against the scalar one's (`core.view.observe_ns_per_sample`).
#[derive(Debug, Clone)]
struct MemLane {
    limit: f64,
    window: PeakWindow,
}

/// Per-task state maintained by the node agent.
#[derive(Debug, Clone)]
pub struct TaskView {
    limit: f64,
    window: TopKWindow,
    age: usize,
    /// Generation stamp of the last tick this task was observed alive.
    last_seen: u64,
    /// Memory-lane state; `None` until the task is observed through
    /// [`MachineView::observe_vec`].
    mem: Option<Box<MemLane>>,
}

impl TaskView {
    /// The task's CPU resource limit.
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// The task's limit in resource lane `lane` (0.0 for a memory lane
    /// that has never been observed).
    pub fn limit_lane(&self, lane: usize) -> f64 {
        match lane {
            CPU => self.limit,
            MEM => self.mem.as_ref().map_or(0.0, |m| m.limit),
            _ => panic!("resource lane {lane} out of range"),
        }
    }

    /// Window of the most recent CPU usage samples, kept to the view's
    /// depth. Order statistics within it (percentile, max) are O(1) reads
    /// — this is what keeps the RC-like predictor's per-tick cost flat.
    pub fn window(&self) -> &TopKWindow {
        &self.window
    }

    /// Windowed peak of the task's recent memory usage; `None` for a
    /// task that has never been observed through
    /// [`MachineView::observe_vec`].
    ///
    /// The memory lane exposes only its peak (no arbitrary percentiles):
    /// memory is incompressible, so predictors gate the lane on peak
    /// demand, and the O(1)-push [`PeakWindow`] behind this accessor is
    /// what keeps the vectorized observe path inside the hot-path bench
    /// envelope.
    pub fn mem_peak(&self) -> Option<f64> {
        self.mem.as_deref().and_then(|m| m.window.max())
    }

    /// Number of memory-usage samples currently retained (0 for a task
    /// never observed through [`MachineView::observe_vec`]).
    pub fn mem_samples(&self) -> usize {
        self.mem.as_deref().map_or(0, |m| m.window.len())
    }

    /// Number of samples observed over the task's lifetime (may exceed the
    /// window capacity).
    pub fn age(&self) -> usize {
        self.age
    }

    fn encode(&self, id: TaskId, out: &mut Vec<u8>) {
        put_u64(out, id.job.0);
        put_u64(out, u64::from(id.index));
        put_f64(out, self.limit);
        put_u64(out, self.age as u64);
        put_u64(out, self.last_seen);
        self.window.encode(out);
        put_bool(out, self.mem.is_some());
        if let Some(mem) = &self.mem {
            put_f64(out, mem.limit);
            mem.window.encode(out);
        }
    }

    /// Decodes one task of a view whose windows hold `cap` samples to
    /// `depth` and whose generation is `generation`: every alive task was
    /// stamped by the view's latest observation, and its window holds
    /// exactly its last `min(age, cap)` samples.
    fn decode(
        r: &mut StateReader<'_>,
        cap: usize,
        depth: usize,
        generation: u64,
    ) -> Result<(TaskId, TaskView), CoreError> {
        let job = JobId(r.u64()?);
        let index = u32::try_from(r.u64()?).map_err(|_| corrupt("task index out of range"))?;
        let limit = r.non_negative()?;
        let age = usize::try_from(r.counter()?).map_err(|_| corrupt("task age out of range"))?;
        let last_seen = r.u64()?;
        let window = TopKWindow::decode(r, cap, depth)?;
        if age == 0 || last_seen != generation || window.len() != age.min(cap) {
            return Err(corrupt("task age, stamp and window disagree").into());
        }
        let mem = if r.bool()? {
            let limit = r.non_negative()?;
            let window = PeakWindow::decode(r, cap)?;
            if window.len() > age.min(cap) {
                return Err(corrupt("memory window longer than the task's history").into());
            }
            Some(Box::new(MemLane { limit, window }))
        } else {
            None
        };
        let task = TaskView {
            limit,
            window,
            age,
            last_seen,
            mem,
        };
        Ok((TaskId::new(job, index), task))
    }
}

/// One machine's predictor-visible state.
///
/// # Examples
///
/// ```
/// use oc_core::config::SimConfig;
/// use oc_core::view::MachineView;
/// use oc_trace::ids::{JobId, TaskId};
/// use oc_trace::time::Tick;
///
/// let cfg = SimConfig::default();
/// let mut view = MachineView::new(1.0, &cfg);
/// let task = TaskId::new(JobId(1), 0);
/// view.observe(Tick(0), [(task, 0.4, 0.1)]);
/// assert_eq!(view.total_limit(), 0.4);
/// // One sample < 24-sample warm-up: the task is still cold.
/// assert_eq!(view.cold_limit_sum(), 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct MachineView {
    capacity: f64,
    now: Tick,
    min_num_samples: usize,
    max_num_samples: usize,
    /// How many of the largest samples each task's CPU window keeps
    /// readable, in `1..=max_num_samples`.
    depth: usize,
    /// Alive tasks, sorted by [`TaskId`]. A sorted `Vec` rather than a
    /// `BTreeMap`: fleets hold millions of machines with a handful of
    /// tasks each, and a one-entry B-tree still allocates a full
    /// node-sized block (~1 KiB), which dominated per-machine memory —
    /// and on hosts with slow first-touch page faults, ingest wall time.
    /// Iteration order (ascending `TaskId`) is identical, so every
    /// order-sensitive float reduction over tasks is bit-preserved.
    tasks: Vec<(TaskId, TaskView)>,
    /// Per-tick summed CPU usage of then-warm tasks.
    warm_window: MovingWindow,
    /// Per-tick summed memory usage of then-warm tasks; advanced only by
    /// [`MachineView::observe_vec`].
    warm_mem_window: MovingWindow,
    /// Current Σ CPU limits over cold tasks.
    cold_limit_sum: f64,
    /// Current Σ CPU limits over all tasks.
    total_limit: f64,
    /// Current Σ memory limits over cold tasks.
    cold_mem_limit_sum: f64,
    /// Current Σ memory limits over all tasks.
    total_mem_limit: f64,
    /// Observation counter; each [`MachineView::observe`] call stamps the
    /// tasks it sees, and the sweep drops tasks with a stale stamp.
    generation: u64,
}

impl MachineView {
    /// Creates an empty view for a machine of the given capacity whose
    /// per-task windows are full: exact at any percentile.
    pub fn new(capacity: f64, cfg: &SimConfig) -> MachineView {
        MachineView::with_depth(capacity, cfg, cfg.max_num_samples)
    }

    /// Creates an empty view whose per-task CPU windows keep the `depth`
    /// largest of their samples readable (clamped to `1..=` the window
    /// size): pass the [`crate::predictor::PeakPredictor::window_depth`]
    /// of the predictors that will read it. Every read within the depth
    /// returns the bits of a full window; a deeper one panics.
    pub fn with_depth(capacity: f64, cfg: &SimConfig, depth: usize) -> MachineView {
        let cap = cfg.max_num_samples.max(1);
        MachineView {
            capacity,
            now: Tick::ZERO,
            min_num_samples: cfg.min_num_samples,
            max_num_samples: cap,
            depth: depth.clamp(1, cap),
            tasks: Vec::new(),
            warm_window: MovingWindow::new(cap).expect("capacity >= 1"),
            warm_mem_window: MovingWindow::new(cap).expect("capacity >= 1"),
            cold_limit_sum: 0.0,
            total_limit: 0.0,
            cold_mem_limit_sum: 0.0,
            total_mem_limit: 0.0,
            generation: 0,
        }
    }

    /// Feeds one tick of observations: `(task, limit, usage)` for every
    /// task alive on the machine this tick. Departed tasks (present before,
    /// absent now) are dropped, new tasks are registered, and the aggregate
    /// warm-usage window advances by one sample.
    ///
    /// The limit sums are refreshed only when an event that can change them
    /// occurs — a task admission, departure, limit change, or cold→warm
    /// transition. Task limits are static in traces and warm-up happens
    /// once per task, so steady-state ticks skip the O(tasks) rescans the
    /// sums used to cost; when a refresh does run it is the same exact
    /// summation as before, so the sums never drift. Departures are found
    /// by a generation-stamp sweep (each seen task is stamped with the
    /// current observation number), replacing the per-tick sort +
    /// binary-search membership test.
    ///
    /// Each sample's task is looked up at the slot after the previous
    /// sample's task first, and by binary search only when it is not
    /// there. In a tick fed in ascending [`TaskId`] order (a generated
    /// cell's replay feeds its live tasks in that order) a known task
    /// costs one comparison, except the one after a task that departs
    /// this tick: departed tasks keep their slots until the sweep after
    /// the loop, so that sample misses and costs one binary search, as
    /// does every new task. A served shard feeds its client's order, so
    /// its hit rate depends on that order. Any other order, a task
    /// repeated within the tick included, reaches the same tasks and
    /// leaves the same state; only the warm-usage sum follows the input
    /// order, as it always has.
    ///
    /// This is the CPU lane of [`MachineView::observe_vec`]: one body,
    /// run with the memory lane compiled out.
    pub fn observe(&mut self, t: Tick, alive: impl IntoIterator<Item = (TaskId, f64, f64)>) {
        self.observe_tick::<false>(
            t,
            alive
                .into_iter()
                .map(|(id, limit, usage)| (id, Res2::cpu_only(limit), Res2::cpu_only(usage))),
        );
    }

    /// Vector counterpart of [`MachineView::observe`]: feeds one tick of
    /// per-lane observations, `(task, limits, usage)` as [`Res2`] values.
    ///
    /// Both methods run one per-tick body, so the CPU lane is the scalar
    /// path by construction: a stream of scalar samples promoted with
    /// [`Res2::cpu_only`] produces bit-identical CPU-lane state. The
    /// memory lane additionally pushes into each task's lazily-created
    /// memory window and advances the memory warm-aggregate window.
    pub fn observe_vec(&mut self, t: Tick, alive: impl IntoIterator<Item = (TaskId, Res2, Res2)>) {
        self.observe_tick::<true>(t, alive);
    }

    /// [`MachineView::observe_vec`] when `mem_lane`, else
    /// [`MachineView::observe`] on the samples' CPU lane.
    pub(crate) fn observe_lanes(
        &mut self,
        t: Tick,
        alive: impl IntoIterator<Item = (TaskId, Res2, Res2)>,
        mem_lane: bool,
    ) {
        if mem_lane {
            self.observe_tick::<true>(t, alive);
        } else {
            self.observe_tick::<false>(t, alive);
        }
    }

    /// The one per-tick body. `MEM_LANE` is a const parameter so the
    /// scalar instance carries no memory-lane work at all: no
    /// [`MemLane`] box, no memory-window push, and lane 1 of its samples
    /// is never read.
    fn observe_tick<const MEM_LANE: bool>(
        &mut self,
        t: Tick,
        alive: impl IntoIterator<Item = (TaskId, Res2, Res2)>,
    ) {
        // Guarded so a replay with observability off pays one relaxed
        // load per tick, nothing more.
        if oc_telemetry::enabled() {
            observe_ticks_counter().inc();
        }
        self.now = t;
        self.generation += 1;
        let generation = self.generation;
        let (max_num_samples, depth) = (self.max_num_samples, self.depth);
        let mut warm_total = 0.0;
        let mut warm_mem_total = 0.0;
        let mut sums_stale = false;
        // Index just past the previous sample's task: callers feed tasks
        // in `TaskId` order, so the next one is usually there.
        let mut cursor = 0;
        for (id, limit, usage) in alive {
            let found = match self.tasks.get(cursor) {
                Some((tid, _)) if *tid == id => Ok(cursor),
                _ => self.tasks.binary_search_by(|(tid, _)| tid.cmp(&id)),
            };
            let (Ok(i) | Err(i)) = found;
            cursor = i + 1;
            let entry = match found {
                Ok(i) => &mut self.tasks[i].1,
                Err(i) => {
                    let view = TaskView {
                        limit: limit.lane(CPU),
                        window: TopKWindow::new(max_num_samples, depth)
                            .expect("1 <= depth <= capacity"),
                        age: 0,
                        last_seen: 0,
                        mem: None,
                    };
                    self.tasks.insert(i, (id, view));
                    &mut self.tasks[i].1
                }
            };
            let admitted = entry.age == 0;
            let was_warm = !admitted && entry.age >= self.min_num_samples;
            sums_stale |= admitted || entry.limit != limit.lane(CPU);
            entry.limit = limit.lane(CPU);
            entry.window.push(usage.lane(CPU));
            if MEM_LANE {
                let mem = entry.mem.get_or_insert_with(|| {
                    Box::new(MemLane {
                        limit: 0.0,
                        window: PeakWindow::new(max_num_samples).expect("capacity >= 1"),
                    })
                });
                sums_stale |= mem.limit != limit.lane(MEM);
                mem.limit = limit.lane(MEM);
                mem.window.push(usage.lane(MEM));
            }
            entry.age += 1;
            entry.last_seen = generation;
            if entry.age >= self.min_num_samples {
                warm_total += usage.lane(CPU);
                if MEM_LANE {
                    warm_mem_total += usage.lane(MEM);
                }
                sums_stale |= !was_warm;
            }
        }
        let mut departed = false;
        self.tasks.retain(|(_, task)| {
            let keep = task.last_seen == generation;
            departed |= !keep;
            keep
        });
        sums_stale |= departed;
        self.warm_window.push(warm_total);
        if MEM_LANE {
            self.warm_mem_window.push(warm_mem_total);
        }

        if sums_stale {
            self.refresh_limit_sums();
        }
    }

    /// Recomputes the event-triggered limit sums for every lane. The CPU
    /// sums use the exact summation order the scalar path always used.
    fn refresh_limit_sums(&mut self) {
        self.total_limit = self.tasks.iter().map(|(_, t)| t.limit).sum();
        self.cold_limit_sum = self
            .tasks
            .iter()
            .filter(|(_, t)| t.age < self.min_num_samples)
            .map(|(_, t)| t.limit)
            .sum();
        self.total_mem_limit = self.tasks.iter().map(|(_, t)| t.limit_lane(MEM)).sum();
        self.cold_mem_limit_sum = self
            .tasks
            .iter()
            .filter(|(_, t)| t.age < self.min_num_samples)
            .map(|(_, t)| t.limit_lane(MEM))
            .sum();
    }

    /// The machine's physical capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The tick of the most recent observation.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The warm-up threshold in samples.
    pub fn min_num_samples(&self) -> usize {
        self.min_num_samples
    }

    /// The per-task window capacity in samples.
    pub fn max_num_samples(&self) -> usize {
        self.max_num_samples
    }

    /// Number of tasks currently alive.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Σ CPU limits over all alive tasks — the conservative no-overcommit
    /// peak.
    pub fn total_limit(&self) -> f64 {
        self.total_limit
    }

    /// Σ CPU limits over tasks still in warm-up.
    pub fn cold_limit_sum(&self) -> f64 {
        self.cold_limit_sum
    }

    /// Σ limits over all alive tasks in resource lane `lane`.
    pub fn total_limit_lane(&self, lane: usize) -> f64 {
        match lane {
            CPU => self.total_limit,
            MEM => self.total_mem_limit,
            _ => panic!("resource lane {lane} out of range"),
        }
    }

    /// Σ limits over tasks still in warm-up, in resource lane `lane`.
    pub fn cold_limit_sum_lane(&self, lane: usize) -> f64 {
        match lane {
            CPU => self.cold_limit_sum,
            MEM => self.cold_mem_limit_sum,
            _ => panic!("resource lane {lane} out of range"),
        }
    }

    /// Per-lane Σ limits over all alive tasks as a vector.
    pub fn total_limit_vec(&self) -> Res2 {
        Res2::from_lanes([self.total_limit, self.total_mem_limit])
    }

    /// Iterates over warm tasks (those past the warm-up threshold).
    pub fn warm_tasks(&self) -> impl Iterator<Item = (&TaskId, &TaskView)> {
        self.tasks
            .iter()
            .filter(|(_, t)| t.age >= self.min_num_samples)
            .map(|(id, t)| (id, t))
    }

    /// Iterates over all alive tasks, in ascending [`TaskId`] order.
    pub fn tasks(&self) -> impl Iterator<Item = (&TaskId, &TaskView)> {
        self.tasks.iter().map(|(id, t)| (id, t))
    }

    /// The machine-level aggregate CPU usage window (per tick, Σ usage
    /// over the tasks that were warm at that tick).
    pub fn warm_aggregate(&self) -> &MovingWindow {
        &self.warm_window
    }

    /// The machine-level aggregate usage window for resource lane `lane`.
    /// The memory-lane window only advances on [`MachineView::observe_vec`]
    /// ticks.
    pub fn warm_aggregate_lane(&self, lane: usize) -> &MovingWindow {
        match lane {
            CPU => &self.warm_window,
            MEM => &self.warm_mem_window,
            _ => panic!("resource lane {lane} out of range"),
        }
    }

    /// Appends the view's exact state to `out`. The event-triggered limit
    /// sums travel as their bits rather than being recomputed on decode.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.capacity);
        put_u64(out, self.min_num_samples as u64);
        put_u64(out, self.max_num_samples as u64);
        put_u64(out, self.depth as u64);
        put_u64(out, self.now.0);
        put_u64(out, self.generation);
        for sum in [
            self.cold_limit_sum,
            self.total_limit,
            self.cold_mem_limit_sum,
            self.total_mem_limit,
        ] {
            put_f64(out, sum);
        }
        put_u64(out, self.tasks.len() as u64);
        for (id, task) in &self.tasks {
            task.encode(*id, out);
        }
        self.warm_window.encode(out);
        self.warm_mem_window.encode(out);
    }

    /// Decodes a view written by [`MachineView::encode`]. The record must
    /// carry `like`'s configuration — machine capacity, warm-up threshold,
    /// window capacity and window depth — or it is refused, never coerced.
    pub(crate) fn decode(
        r: &mut StateReader<'_>,
        like: &MachineView,
    ) -> Result<MachineView, CoreError> {
        let capacity = r.f64()?;
        let (min_num_samples, max_num_samples, depth) = (r.u64()?, r.u64()?, r.u64()?);
        if capacity.to_bits() != like.capacity.to_bits()
            || min_num_samples != like.min_num_samples as u64
            || max_num_samples != like.max_num_samples as u64
            || depth != like.depth as u64
        {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "state record for capacity {capacity} with {min_num_samples}..{max_num_samples} \
                     sample windows of depth {depth}; this view has capacity {} with {}..{} \
                     of depth {}",
                    like.capacity, like.min_num_samples, like.max_num_samples, like.depth
                ),
            });
        }
        let (cap, depth) = (like.max_num_samples, like.depth);
        let now = Tick(r.u64()?);
        let generation = r.counter()?;
        let [cold_limit_sum, total_limit, cold_mem_limit_sum, total_mem_limit] = [
            r.non_negative()?,
            r.non_negative()?,
            r.non_negative()?,
            r.non_negative()?,
        ];
        let mut tasks: Vec<(TaskId, TaskView)> = Vec::new();
        for _ in 0..r.count(usize::MAX)? {
            let (id, task) = TaskView::decode(r, cap, depth, generation)?;
            if tasks.last().is_some_and(|(prev, _)| *prev >= id) {
                return Err(corrupt("tasks out of order").into());
            }
            tasks.push((id, task));
        }
        Ok(MachineView {
            capacity,
            now,
            min_num_samples: like.min_num_samples,
            max_num_samples: cap,
            depth,
            tasks,
            warm_window: MovingWindow::decode(r, cap)?,
            warm_mem_window: MovingWindow::decode(r, cap)?,
            cold_limit_sum,
            total_limit,
            cold_mem_limit_sum,
            total_mem_limit,
            generation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::ids::JobId;

    fn tid(j: u64, i: u32) -> TaskId {
        TaskId::new(JobId(j), i)
    }

    fn small_cfg() -> SimConfig {
        let mut c = SimConfig::default();
        c.min_num_samples = 3;
        c.max_num_samples = 5;
        c
    }

    #[test]
    fn warmup_transitions() {
        let mut v = MachineView::new(1.0, &small_cfg());
        for k in 0..5u64 {
            v.observe(Tick(k), [(tid(1, 0), 0.4, 0.1)]);
            let warm = v.warm_tasks().count();
            if k < 2 {
                assert_eq!(warm, 0, "tick {k}");
                assert_eq!(v.cold_limit_sum(), 0.4);
            } else {
                assert_eq!(warm, 1, "tick {k}");
                assert_eq!(v.cold_limit_sum(), 0.0);
            }
        }
        assert_eq!(v.total_limit(), 0.4);
        assert_eq!(v.now(), Tick(4));
    }

    #[test]
    fn departed_tasks_are_dropped() {
        let mut v = MachineView::new(1.0, &small_cfg());
        v.observe(Tick(0), [(tid(1, 0), 0.4, 0.1), (tid(2, 0), 0.2, 0.05)]);
        assert_eq!(v.task_count(), 2);
        v.observe(Tick(1), [(tid(2, 0), 0.2, 0.05)]);
        assert_eq!(v.task_count(), 1);
        assert_eq!(v.total_limit(), 0.2);
    }

    #[test]
    fn aggregate_window_counts_only_then_warm_tasks() {
        let mut v = MachineView::new(1.0, &small_cfg());
        // Tick 0-1: task cold, aggregate records 0.
        v.observe(Tick(0), [(tid(1, 0), 0.4, 0.10)]);
        v.observe(Tick(1), [(tid(1, 0), 0.4, 0.20)]);
        assert_eq!(v.warm_aggregate().last(), Some(0.0));
        // Tick 2: third sample — warm from now on.
        v.observe(Tick(2), [(tid(1, 0), 0.4, 0.30)]);
        assert_eq!(v.warm_aggregate().last(), Some(0.30));
        assert_eq!(v.warm_aggregate().len(), 3);
    }

    #[test]
    fn window_capacity_is_bounded() {
        let mut v = MachineView::new(1.0, &small_cfg());
        for k in 0..50u64 {
            v.observe(Tick(k), [(tid(1, 0), 0.4, k as f64)]);
        }
        let (_, t) = v.tasks().next().unwrap();
        assert_eq!(t.window().len(), 5);
        assert_eq!(t.age(), 50);
        assert_eq!(t.window().last(), Some(49.0));
        assert_eq!(v.warm_aggregate().len(), 5);
    }

    #[test]
    fn readmitted_task_restarts_cold() {
        let mut v = MachineView::new(1.0, &small_cfg());
        for k in 0..4u64 {
            v.observe(Tick(k), [(tid(1, 0), 0.4, 0.1)]);
        }
        assert_eq!(v.warm_tasks().count(), 1);
        v.observe(Tick(4), []); // Departs.
        v.observe(Tick(5), [(tid(1, 0), 0.4, 0.1)]); // Same id returns.
        assert_eq!(v.warm_tasks().count(), 0);
        assert_eq!(v.cold_limit_sum(), 0.4);
    }

    #[test]
    fn limit_updates_are_tracked() {
        // Autopilot-style limit changes must be reflected immediately.
        let mut v = MachineView::new(1.0, &small_cfg());
        v.observe(Tick(0), [(tid(1, 0), 0.4, 0.1)]);
        v.observe(Tick(1), [(tid(1, 0), 0.6, 0.1)]);
        assert_eq!(v.total_limit(), 0.6);
    }

    #[test]
    fn vector_cpu_lane_is_bit_identical_to_scalar() {
        // The same observation stream through observe() and through
        // observe_vec() (scalar samples promoted with cpu_only) must leave
        // identical CPU-lane state — sums, per-task windows, aggregate.
        let mut scalar = MachineView::new(1.0, &small_cfg());
        let mut vector = MachineView::new(1.0, &small_cfg());
        let stream: Vec<Vec<(TaskId, f64, f64)>> = (0..12u64)
            .map(|t| {
                let mut obs = vec![(tid(1, 0), 0.4, 0.05 + 0.01 * t as f64)];
                if t % 3 != 0 {
                    obs.push((tid(2, 0), 0.3, 0.2 - 0.01 * t as f64));
                }
                obs
            })
            .collect();
        for (t, obs) in stream.iter().enumerate() {
            scalar.observe(Tick(t as u64), obs.iter().copied());
            vector.observe_vec(
                Tick(t as u64),
                obs.iter()
                    .map(|&(id, l, u)| (id, Res2::cpu_only(l), Res2::cpu_only(u))),
            );
            assert_eq!(
                scalar.total_limit().to_bits(),
                vector.total_limit().to_bits()
            );
            assert_eq!(
                scalar.cold_limit_sum().to_bits(),
                vector.cold_limit_sum().to_bits()
            );
            assert_eq!(
                scalar.warm_aggregate().mean().to_bits(),
                vector.warm_aggregate().mean().to_bits()
            );
        }
        for ((_, a), (_, b)) in scalar.tasks().zip(vector.tasks()) {
            let (mut wa, mut wb) = (Vec::new(), Vec::new());
            a.window().encode(&mut wa);
            b.window().encode(&mut wb);
            assert_eq!(wa, wb, "per-task windows hold the same state");
        }
        // Promoted scalar samples record zero in the memory lane.
        assert_eq!(vector.total_limit_lane(MEM), 0.0);
    }

    #[test]
    fn memory_lane_tracks_sums_and_windows() {
        let mut v = MachineView::new(1.0, &small_cfg());
        for t in 0..4u64 {
            v.observe_vec(
                Tick(t),
                [(
                    tid(1, 0),
                    Res2::from_lanes([0.4, 0.2]),
                    Res2::from_lanes([0.1, 0.08]),
                )],
            );
        }
        assert_eq!(v.total_limit_lane(MEM), 0.2);
        assert_eq!(v.cold_limit_sum_lane(MEM), 0.0); // Warm after 3 ticks.
        assert_eq!(v.total_limit_vec().lanes(), &[0.4, 0.2]);
        let (_, t) = v.tasks().next().unwrap();
        assert_eq!(t.limit_lane(MEM), 0.2);
        assert_eq!(t.mem_peak(), Some(0.08));
        assert_eq!(v.warm_aggregate_lane(MEM).last(), Some(0.08));
    }

    #[test]
    fn scalar_ticks_leave_memory_lane_untouched() {
        let mut v = MachineView::new(1.0, &small_cfg());
        v.observe_vec(
            Tick(0),
            [(
                tid(1, 0),
                Res2::from_lanes([0.4, 0.2]),
                Res2::from_lanes([0.1, 0.08]),
            )],
        );
        let mem_len = v.tasks().next().unwrap().1.mem_samples();
        v.observe(Tick(1), [(tid(1, 0), 0.4, 0.1)]);
        let (_, t) = v.tasks().next().unwrap();
        assert_eq!(t.mem_samples(), mem_len);
        assert_eq!(t.window().len(), 2);
        // The memory limit survives a scalar tick (sums stay exact).
        assert_eq!(v.total_limit_lane(MEM), 0.2);
    }
}
