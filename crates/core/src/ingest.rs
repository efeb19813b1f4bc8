//! Incremental, out-of-order-tolerant observation ingestion.
//!
//! The batch simulator ([`crate::sim`]) feeds a [`MachineView`] one
//! complete tick at a time: every alive task's `(id, limit, usage)` triple
//! arrives in a single [`MachineView::observe`] call. An *online* service
//! sees the same data as a stream of per-task samples — one RPC per task
//! per tick, interleaved across tasks, possibly duplicated, and advancing
//! to the next tick without any end-of-tick marker.
//!
//! [`IncrementalView`] bridges the two. It buffers samples for the current
//! tick and flushes the accumulated batch into the wrapped [`MachineView`]
//! exactly as the batch path would, when either
//!
//! * a sample for a **later** tick arrives (the natural end-of-tick signal
//!   in a sample stream), or
//! * the caller forces a [`flush`](IncrementalView::flush) — which is what
//!   a `PREDICT` request does, so predictions always reflect every sample
//!   received so far.
//!
//! Two properties make the online path equivalent to the batch path:
//!
//! 1. **Gap filling.** Ticks with no samples still advance the machine
//!    aggregate window in the batch path (`observe(t, [])` pushes a zero
//!    and departs every task). The incremental view synthesizes those
//!    empty observations for any tick between the last flushed tick (or
//!    tick 0) and the tick being flushed, bounded by
//!    [`max_gap`](IncrementalView::with_max_gap) to stop a corrupt
//!    timestamp from looping for months of virtual time.
//! 2. **Arrival-order preservation.** Within a tick, samples are applied
//!    in first-arrival order (a repeated sample for the same task updates
//!    in place). The machine aggregate is a floating-point sum, so
//!    replaying a tick's samples in the batch path's order reproduces the
//!    batch state *bit for bit* — the guarantee `tests/serve_smoke.rs`
//!    checks end to end. Reordering within a tick changes only the
//!    summation order, perturbing the aggregate by rounding alone.
//!
//! Samples for an already-flushed tick are rejected as
//! [`CoreError::StaleSample`]: the view cannot rewrite history without
//! replaying every later tick.
//!
//! # State transfer
//!
//! [`IncrementalView::encode`] writes the view's whole state — the
//! wrapped [`MachineView`], the flush bookkeeping, the pending tick's
//! buffered samples and the vector-mode flag — as bytes, every `f64` as
//! its bits; [`IncrementalView::decode`] reads it back. The copy answers
//! every prediction bit-identically and stays identical under further
//! ingest, which is how a cluster member hands a machine to a
//! replacement without replaying its history: the record costs the
//! retained windows, not the samples ever ingested.

use crate::config::SimConfig;
use crate::error::CoreError;
use crate::view::MachineView;
use oc_stats::resource::{Res2, NUM_RESOURCES, RESOURCE_NAMES};
use oc_stats::state::{corrupt, put_bool, put_f64, put_u64, StateReader};
use oc_trace::ids::{JobId, TaskId};
use oc_trace::time::Tick;

/// Default bound on synthesized empty ticks between two samples
/// (one week of 5-minute ticks per day × ~23: roughly 7.5 months).
pub const DEFAULT_MAX_GAP: u64 = 1 << 16;

/// A [`MachineView`] fed by a stream of per-task samples instead of
/// complete per-tick batches.
///
/// # Examples
///
/// ```
/// use oc_core::config::SimConfig;
/// use oc_core::ingest::IncrementalView;
/// use oc_trace::ids::{JobId, TaskId};
/// use oc_trace::time::Tick;
///
/// let mut v = IncrementalView::new(1.0, &SimConfig::default());
/// let task = TaskId::new(JobId(1), 0);
/// v.ingest(Tick(0), task, 0.4, 0.1).unwrap();
/// // Tick 0 is still pending; a sample for tick 1 flushes it.
/// v.ingest(Tick(1), task, 0.4, 0.2).unwrap();
/// assert_eq!(v.flushed(), Some(Tick(0)));
/// v.flush();
/// assert_eq!(v.view().now(), Tick(1));
/// assert_eq!(v.view().total_limit(), 0.4);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalView {
    view: MachineView,
    max_gap: u64,
    last_flushed: Option<Tick>,
    pending_tick: Option<Tick>,
    /// Samples of the pending tick in first-arrival order. Duplicate
    /// tasks within a tick are updated in place via linear scan — a
    /// machine hosts few tasks, and the side map this replaces cost a
    /// heap allocation per machine, which dominated fleet-scale memory.
    ///
    /// Scalar samples are stored with [`Res2::cpu_only`]; a scalar view
    /// flushes them with the memory lane compiled out, so only lane 0 is
    /// ever read and the promotion is lossless.
    pending: Vec<(TaskId, Res2, Res2)>,
    /// Sticky: set on the first [`ingest_vec`](IncrementalView::ingest_vec)
    /// and never cleared. A vector view flushes as
    /// [`MachineView::observe_vec`] does; a scalar view as
    /// [`MachineView::observe`] does, preserving bit-identity with the
    /// batch scalar path.
    vector_mode: bool,
    /// Samples accepted over the view's lifetime.
    samples: u64,
}

impl IncrementalView {
    /// Creates an empty incremental view for a machine of the given
    /// capacity, with full per-task windows. The first flush fills empty
    /// ticks from [`Tick::ZERO`]; the gap bound defaults to
    /// [`DEFAULT_MAX_GAP`].
    pub fn new(capacity: f64, cfg: &SimConfig) -> IncrementalView {
        IncrementalView::with_depth(capacity, cfg, cfg.max_num_samples)
    }

    /// [`IncrementalView::new`] over a [`MachineView::with_depth`]: the
    /// per-task windows keep the `depth` largest samples readable.
    pub fn with_depth(capacity: f64, cfg: &SimConfig, depth: usize) -> IncrementalView {
        IncrementalView {
            view: MachineView::with_depth(capacity, cfg, depth),
            max_gap: DEFAULT_MAX_GAP,
            last_flushed: None,
            pending_tick: None,
            pending: Vec::new(),
            vector_mode: false,
            samples: 0,
        }
    }

    /// Sets the bound on synthesized empty ticks per flush.
    pub fn with_max_gap(mut self, max_gap: u64) -> IncrementalView {
        self.max_gap = max_gap;
        self
    }

    /// Buffers one `(task, limit, usage)` sample for tick `t`, flushing
    /// the previously pending tick if `t` is later.
    ///
    /// # Errors
    ///
    /// * [`CoreError::StaleSample`] — `t` precedes the pending or an
    ///   already-flushed tick; the sample is dropped and the view is
    ///   unchanged.
    /// * [`CoreError::TickGap`] — flushing `t` would synthesize more than
    ///   the configured bound of empty ticks; the sample is dropped.
    /// * [`CoreError::InvalidSample`] — non-finite or negative `limit` or
    ///   `usage`.
    pub fn ingest(
        &mut self,
        t: Tick,
        task: TaskId,
        limit: f64,
        usage: f64,
    ) -> Result<(), CoreError> {
        let (limit, usage) = (Res2::cpu_only(limit), Res2::cpu_only(usage));
        check_sample(limit, usage, 1)?;
        self.ingest_inner(t, task, limit, usage)
    }

    /// Buffers one per-resource `(task, limit, usage)` sample for tick `t`,
    /// flushing the previously pending tick if `t` is later.
    ///
    /// The first vector sample switches the view into vector mode for its
    /// whole lifetime: all subsequent flushes (including gap fills) go
    /// through [`MachineView::observe_vec`], so the memory lane's windows
    /// advance with every tick. Scalar samples ingested after the switch
    /// record a memory usage and limit of zero — the wire protocol's
    /// backward-compatible reading of a scalar `OBSERVE`.
    ///
    /// # Errors
    ///
    /// Same as [`ingest`](IncrementalView::ingest);
    /// [`CoreError::InvalidSample`] checks every lane.
    pub fn ingest_vec(
        &mut self,
        t: Tick,
        task: TaskId,
        limit: Res2,
        usage: Res2,
    ) -> Result<(), CoreError> {
        check_sample(limit, usage, NUM_RESOURCES)?;
        self.vector_mode = true;
        self.ingest_inner(t, task, limit, usage)
    }

    fn ingest_inner(
        &mut self,
        t: Tick,
        task: TaskId,
        limit: Res2,
        usage: Res2,
    ) -> Result<(), CoreError> {
        match self.pending_tick {
            Some(pt) if t < pt => {
                return Err(CoreError::StaleSample {
                    tick: t.0,
                    flushed: pt.0.saturating_sub(1),
                })
            }
            Some(pt) if t == pt => {
                self.push_pending(task, limit, usage);
                return Ok(());
            }
            Some(_) => {
                // t > pending: the pending tick is complete.
                self.check_gap(t)?;
                self.flush();
            }
            None => {
                if let Some(f) = self.last_flushed {
                    if t <= f {
                        return Err(CoreError::StaleSample {
                            tick: t.0,
                            flushed: f.0,
                        });
                    }
                }
                self.check_gap(t)?;
            }
        }
        self.pending_tick = Some(t);
        self.push_pending(task, limit, usage);
        Ok(())
    }

    /// Applies the pending tick (if any) to the wrapped view, synthesizing
    /// empty observations for any skipped ticks first. Returns whether a
    /// tick was flushed.
    pub fn flush(&mut self) -> bool {
        let Some(pt) = self.pending_tick.take() else {
            return false;
        };
        for k in self.fill_start()..pt.0 {
            self.view
                .observe_lanes(Tick(k), std::iter::empty(), self.vector_mode);
        }
        self.view
            .observe_lanes(pt, self.pending.drain(..), self.vector_mode);
        self.last_flushed = Some(pt);
        true
    }

    /// Whether a vector sample has ever been ingested (flushes go through
    /// the vector path once set).
    pub fn is_vector(&self) -> bool {
        self.vector_mode
    }

    /// The wrapped machine view, reflecting flushed ticks only. Call
    /// [`flush`](IncrementalView::flush) first to fold in the pending tick.
    pub fn view(&self) -> &MachineView {
        &self.view
    }

    /// The most recently flushed tick, if any.
    pub fn flushed(&self) -> Option<Tick> {
        self.last_flushed
    }

    /// The tick currently buffering samples, if any.
    pub fn pending_tick(&self) -> Option<Tick> {
        self.pending_tick
    }

    /// Number of samples buffered for the pending tick.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Samples accepted over the view's lifetime, a repeat of a task
    /// within one tick included; rejected samples are not counted. Two
    /// copies of one machine fed the same stream agree on it, and a copy
    /// that missed part of the stream counts fewer.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Appends the view's exact state to `out` (see the module docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use oc_core::config::SimConfig;
    /// use oc_core::ingest::IncrementalView;
    /// use oc_trace::ids::{JobId, TaskId};
    /// use oc_trace::time::Tick;
    ///
    /// let cfg = SimConfig::default();
    /// let mut v = IncrementalView::new(1.0, &cfg);
    /// v.ingest(Tick(0), TaskId::new(JobId(1), 0), 0.4, 0.1).unwrap();
    /// let mut bytes = Vec::new();
    /// v.encode(&mut bytes);
    /// let copy = IncrementalView::decode(&bytes, &IncrementalView::new(1.0, &cfg)).unwrap();
    /// assert_eq!(copy.samples(), 1);
    /// assert_eq!(copy.pending_tick(), Some(Tick(0)));
    /// ```
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        put_u64(out, self.max_gap);
        for tick in [self.last_flushed, self.pending_tick] {
            put_bool(out, tick.is_some());
            put_u64(out, tick.map_or(0, |t| t.0));
        }
        put_u64(out, self.pending.len() as u64);
        for (id, limit, usage) in &self.pending {
            put_u64(out, id.job.0);
            put_u64(out, u64::from(id.index));
            for lane in 0..NUM_RESOURCES {
                put_f64(out, limit.lane(lane));
                put_f64(out, usage.lane(lane));
            }
        }
        put_bool(out, self.vector_mode);
        put_u64(out, self.samples);
    }

    /// Decodes a view written by [`IncrementalView::encode`], configured
    /// like `like` (typically a fresh view built from the receiver's own
    /// configuration).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] — the record was written under a
    ///   different machine capacity, warm-up threshold, window capacity or
    ///   gap bound than `like`'s; it is refused, not coerced.
    /// * [`CoreError::Stats`] carrying [`oc_stats::StatsError::Corrupt`] —
    ///   the bytes are truncated, carry trailing bytes, or break an
    ///   invariant the view maintains (a window longer than its capacity,
    ///   inconsistent stamps, a pending sample ingest would have
    ///   rejected, ...). Decoding never panics, whatever the bytes.
    pub fn decode(bytes: &[u8], like: &IncrementalView) -> Result<IncrementalView, CoreError> {
        let mut r = StateReader::new(bytes);
        let view = MachineView::decode(&mut r, &like.view)?;
        let max_gap = r.u64()?;
        if max_gap != like.max_gap {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "state record for gap bound {max_gap}; this view has {}",
                    like.max_gap
                ),
            });
        }
        let mut ticks = [None; 2];
        for tick in &mut ticks {
            let present = r.bool()?;
            *tick = Some(Tick(r.u64()?)).filter(|_| present);
        }
        let [last_flushed, pending_tick] = ticks;
        let mut pending = Vec::new();
        for _ in 0..r.count(usize::MAX)? {
            let job = JobId(r.u64()?);
            let index = u32::try_from(r.u64()?).map_err(|_| corrupt("task index out of range"))?;
            let (mut limit, mut usage) = (Res2::default(), Res2::default());
            for lane in 0..NUM_RESOURCES {
                limit.set_lane(lane, r.non_negative()?);
                usage.set_lane(lane, r.non_negative()?);
            }
            pending.push((TaskId::new(job, index), limit, usage));
        }
        // The pending tick follows the last flushed one within the gap
        // bound, exactly as ingest admitted it — so the flush it is owed
        // synthesizes at most `max_gap` empty ticks.
        let fill_start = last_flushed.map_or(0, |f| f.0.saturating_add(1));
        let admissible = match pending_tick {
            Some(p) => {
                last_flushed.is_none_or(|f| f < p) && p.0.saturating_sub(fill_start) <= max_gap
            }
            None => true,
        };
        if pending.is_empty() != pending_tick.is_none() || !admissible {
            return Err(corrupt("pending tick inconsistent with its samples").into());
        }
        let vector_mode = r.bool()?;
        let samples = r.counter()?;
        r.finish()?;
        Ok(IncrementalView {
            view,
            max_gap,
            last_flushed,
            pending_tick,
            pending,
            vector_mode,
            samples,
        })
    }

    /// First tick a flush of tick `>= fill_start` would synthesize.
    fn fill_start(&self) -> u64 {
        self.last_flushed.map_or(0, |f| f.0 + 1)
    }

    fn check_gap(&self, t: Tick) -> Result<(), CoreError> {
        // Count the empty ticks `t`'s flush would synthesize, as if the
        // pending tick (which flushes first) were already applied.
        let start = match self.pending_tick {
            Some(pt) => pt.0 + 1,
            None => self.fill_start(),
        };
        let gap = t.0.saturating_sub(start);
        if gap > self.max_gap {
            return Err(CoreError::TickGap {
                gap,
                max: self.max_gap,
            });
        }
        Ok(())
    }

    fn push_pending(&mut self, task: TaskId, limit: Res2, usage: Res2) {
        self.samples += 1;
        match self.pending.iter_mut().find(|(t, _, _)| *t == task) {
            Some(slot) => *slot = (task, limit, usage),
            None => self.pending.push((task, limit, usage)),
        }
    }
}

/// Refuses a sample whose limit or usage is non-finite or negative in any
/// of its first `lanes` lanes.
fn check_sample(limit: Res2, usage: Res2, lanes: usize) -> Result<(), CoreError> {
    for (lane, name) in RESOURCE_NAMES.iter().enumerate().take(lanes) {
        for (what, x) in [("limit", limit.lane(lane)), ("usage", usage.lane(lane))] {
            if !x.is_finite() || x < 0.0 {
                return Err(CoreError::InvalidSample {
                    what: format!("{name} {what} {x} must be finite and >= 0"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorSpec;
    use oc_stats::resource::CPU;
    use oc_trace::cell::{CellConfig, CellPreset};
    use oc_trace::gen::WorkloadGenerator;
    use oc_trace::ids::{JobId, MachineId};

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
    fn batch_equivalence_in_arrival_order() {
        // Replaying a generated machine sample by sample, in the batch
        // path's task order, reproduces the batch view bit for bit.
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.duration_ticks = 96;
        let trace = WorkloadGenerator::new(cell)
            .unwrap()
            .generate_machine(MachineId(0))
            .unwrap();
        let cfg = SimConfig::default();
        let predictor = PredictorSpec::paper_max().build().unwrap();

        let mut batch = MachineView::new(trace.capacity, &cfg);
        let mut inc = IncrementalView::new(trace.capacity, &cfg);
        for t in trace.horizon.iter() {
            let alive: Vec<_> = trace
                .tasks_at(t)
                .map(|task| {
                    let usage = task.sample_at(t).map(|s| cfg.metric.of(s)).unwrap_or(0.0);
                    (task.spec.id, task.spec.limit, usage)
                })
                .collect();
            batch.observe(t, alive.iter().copied());
            for &(id, limit, usage) in &alive {
                inc.ingest(t, id, limit, usage).unwrap();
            }
            inc.flush();
            assert_eq!(
                predictor.predict(&batch).to_bits(),
                predictor.predict(inc.view()).to_bits(),
                "tick {t}"
            );
            assert_eq!(
                batch.total_limit().to_bits(),
                inc.view().total_limit().to_bits()
            );
            assert_eq!(batch.task_count(), inc.view().task_count());
        }
    }

    #[test]
    fn reordering_within_a_tick_is_tolerated() {
        // Samples of one tick arriving in any order produce the same task
        // set; the aggregate differs only by summation rounding.
        let cfg = small_cfg();
        let mut fwd = IncrementalView::new(1.0, &cfg);
        let mut rev = IncrementalView::new(1.0, &cfg);
        let samples = [
            (tid(1, 0), 0.4, 0.10),
            (tid(1, 1), 0.3, 0.20),
            (tid(2, 0), 0.2, 0.05),
        ];
        for t in 0..6u64 {
            for &(id, l, u) in &samples {
                fwd.ingest(Tick(t), id, l, u).unwrap();
            }
            for &(id, l, u) in samples.iter().rev() {
                rev.ingest(Tick(t), id, l, u).unwrap();
            }
        }
        fwd.flush();
        rev.flush();
        assert_eq!(fwd.view().task_count(), rev.view().task_count());
        assert_eq!(fwd.view().total_limit(), rev.view().total_limit());
        let (a, b) = (
            fwd.view().warm_aggregate().mean(),
            rev.view().warm_aggregate().mean(),
        );
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn duplicate_sample_updates_in_place() {
        let mut v = IncrementalView::new(1.0, &small_cfg());
        v.ingest(Tick(0), tid(1, 0), 0.4, 0.1).unwrap();
        v.ingest(Tick(0), tid(1, 0), 0.4, 0.3).unwrap();
        assert_eq!(v.pending_len(), 1);
        v.flush();
        let (_, t) = v.view().tasks().next().unwrap();
        assert_eq!(t.window().last(), Some(0.3));
    }

    #[test]
    fn stale_samples_are_rejected() {
        let mut v = IncrementalView::new(1.0, &small_cfg());
        v.ingest(Tick(5), tid(1, 0), 0.4, 0.1).unwrap();
        v.ingest(Tick(6), tid(1, 0), 0.4, 0.1).unwrap(); // flushes 5
        assert!(matches!(
            v.ingest(Tick(5), tid(1, 0), 0.4, 0.1),
            Err(CoreError::StaleSample {
                tick: 5,
                flushed: 5
            })
        ));
        v.flush();
        assert!(matches!(
            v.ingest(Tick(6), tid(1, 0), 0.4, 0.1),
            Err(CoreError::StaleSample {
                tick: 6,
                flushed: 6
            })
        ));
        // The view survives rejects.
        v.ingest(Tick(7), tid(1, 0), 0.4, 0.1).unwrap();
        v.flush();
        assert_eq!(v.flushed(), Some(Tick(7)));
    }

    #[test]
    fn gap_filling_matches_batch_empty_ticks() {
        let cfg = small_cfg();
        let mut batch = MachineView::new(1.0, &cfg);
        let mut inc = IncrementalView::new(1.0, &cfg);
        // Ticks 0-1 idle, task appears at tick 2, disappears 3-4, returns 5.
        let script: [&[(TaskId, f64, f64)]; 6] = [
            &[],
            &[],
            &[(tid(1, 0), 0.4, 0.2)],
            &[],
            &[],
            &[(tid(1, 0), 0.4, 0.2)],
        ];
        for (t, alive) in script.iter().enumerate() {
            batch.observe(Tick(t as u64), alive.iter().copied());
            for &(id, l, u) in alive.iter() {
                inc.ingest(Tick(t as u64), id, l, u).unwrap();
            }
        }
        inc.flush();
        assert_eq!(batch.now(), inc.view().now());
        assert_eq!(batch.task_count(), inc.view().task_count());
        assert_eq!(
            batch.warm_aggregate().len(),
            inc.view().warm_aggregate().len()
        );
        // The re-appearing task restarted cold in both paths.
        assert_eq!(batch.cold_limit_sum(), inc.view().cold_limit_sum());
        let (_, bt) = batch.tasks().next().unwrap();
        let (_, it) = inc.view().tasks().next().unwrap();
        assert_eq!(bt.age(), it.age());
        assert_eq!(bt.age(), 1);
    }

    #[test]
    fn oversized_gap_is_rejected_without_poisoning() {
        let mut v = IncrementalView::new(1.0, &small_cfg()).with_max_gap(10);
        v.ingest(Tick(0), tid(1, 0), 0.4, 0.1).unwrap();
        assert!(matches!(
            v.ingest(Tick(100), tid(1, 0), 0.4, 0.1),
            Err(CoreError::TickGap { gap: 99, max: 10 })
        ));
        // Pending tick 0 is still intact.
        assert_eq!(v.pending_tick(), Some(Tick(0)));
        v.ingest(Tick(5), tid(1, 0), 0.4, 0.1).unwrap();
        v.flush();
        assert_eq!(v.flushed(), Some(Tick(5)));
    }

    #[test]
    fn non_finite_samples_are_rejected() {
        let mut v = IncrementalView::new(1.0, &small_cfg());
        assert!(matches!(
            v.ingest(Tick(0), tid(1, 0), 0.4, f64::NAN),
            Err(CoreError::InvalidSample { .. })
        ));
        assert!(matches!(
            v.ingest(Tick(0), tid(1, 0), f64::INFINITY, 0.1),
            Err(CoreError::InvalidSample { .. })
        ));
        assert!(matches!(
            v.ingest(Tick(0), tid(1, 0), 0.4, -0.5),
            Err(CoreError::InvalidSample { .. })
        ));
        assert_eq!(v.pending_len(), 0);
    }

    #[test]
    fn vector_ingest_matches_batch_observe_vec() {
        // Vector samples replayed through the incremental path reproduce
        // an observe_vec batch replay, lane for lane.
        let cfg = small_cfg();
        let mut batch = MachineView::new(1.0, &cfg);
        let mut inc = IncrementalView::new(1.0, &cfg);
        let samples = [
            (tid(1, 0), Res2::from_lanes([0.4, 0.2]), 0.10, 0.05),
            (tid(1, 1), Res2::from_lanes([0.3, 0.1]), 0.20, 0.08),
        ];
        for t in 0..8u64 {
            let alive: Vec<_> = samples
                .iter()
                .map(|&(id, l, cu, mu)| (id, l, Res2::from_lanes([cu, mu])))
                .collect();
            batch.observe_vec(Tick(t), alive.iter().copied());
            for &(id, l, u) in &alive {
                inc.ingest_vec(Tick(t), id, l, u).unwrap();
            }
        }
        inc.flush();
        assert!(inc.is_vector());
        for lane in 0..NUM_RESOURCES {
            assert_eq!(
                batch.total_limit_lane(lane).to_bits(),
                inc.view().total_limit_lane(lane).to_bits(),
                "lane {lane} limit"
            );
            assert_eq!(
                batch.warm_aggregate_lane(lane).mean().to_bits(),
                inc.view().warm_aggregate_lane(lane).mean().to_bits(),
                "lane {lane} aggregate"
            );
        }
    }

    #[test]
    fn vector_mode_is_sticky_and_gap_fills_memory_lane() {
        let cfg = small_cfg();
        let mut inc = IncrementalView::new(1.0, &cfg);
        let limit = Res2::from_lanes([0.4, 0.2]);
        inc.ingest_vec(Tick(0), tid(1, 0), limit, Res2::from_lanes([0.1, 0.05]))
            .unwrap();
        // A scalar sample after the switch stays on the vector path.
        inc.ingest(Tick(3), tid(1, 0), 0.4, 0.1).unwrap();
        inc.flush();
        assert!(inc.is_vector());
        // Gap ticks 1-2 advanced the memory aggregate window too.
        assert_eq!(
            inc.view().warm_aggregate_lane(CPU).len(),
            inc.view()
                .warm_aggregate_lane(oc_stats::resource::MEM)
                .len()
        );
        // The scalar sample recorded zero memory usage/limit.
        assert_eq!(inc.view().total_limit_lane(oc_stats::resource::MEM), 0.0);
    }

    #[test]
    fn vector_samples_validate_every_lane() {
        let mut v = IncrementalView::new(1.0, &small_cfg());
        assert!(matches!(
            v.ingest_vec(
                Tick(0),
                tid(1, 0),
                Res2::from_lanes([0.4, f64::NAN]),
                Res2::from_lanes([0.1, 0.0])
            ),
            Err(CoreError::InvalidSample { .. })
        ));
        assert!(matches!(
            v.ingest_vec(
                Tick(0),
                tid(1, 0),
                Res2::from_lanes([0.4, 0.2]),
                Res2::from_lanes([0.1, -0.1])
            ),
            Err(CoreError::InvalidSample { .. })
        ));
        // Rejected samples do not flip the mode.
        assert!(!v.is_vector());
    }

    /// The first flush fills empty ticks from tick 0, as a batch replay
    /// that starts at tick 0 observes them.
    #[test]
    fn origin_controls_leading_gap() {
        let cfg = small_cfg();
        let mut batch = MachineView::new(1.0, &cfg);
        for t in 0..4u64 {
            let alive: &[(TaskId, f64, f64)] = if t == 3 {
                &[(tid(1, 0), 0.4, 0.2)]
            } else {
                &[]
            };
            batch.observe(Tick(t), alive.iter().copied());
        }
        let mut inc = IncrementalView::new(1.0, &cfg);
        inc.ingest(Tick(3), tid(1, 0), 0.4, 0.2).unwrap();
        inc.flush();
        assert_eq!(
            batch.warm_aggregate().len(),
            inc.view().warm_aggregate().len()
        );
        assert_eq!(batch.now(), inc.view().now());
    }

    /// One step of a generated sample stream.
    #[derive(Debug, Clone)]
    enum Act {
        Sample {
            tick: u64,
            task: TaskId,
            limit: Res2,
            usage: Res2,
            two_lanes: bool,
        },
        Flush,
    }

    /// Renders generated `(kind, task, x, v)` tuples, one tick each, into
    /// a stream of samples and flushes. Every resident task samples once
    /// per tick; on top of that a tick may repeat a task's sample, admit
    /// or retire a task (it departs from the next tick on), change a
    /// limit, carry a stale sample, flush, or be followed by a gap — a few
    /// ticks, or thousands up to [`DEFAULT_MAX_GAP`], long enough to
    /// cross the aggregate window's accumulator refresh. Usage sits on a
    /// coarse grid, so windows hold duplicates, and its zero alternates
    /// between `-0.0` and `0.0`.
    fn render(ops: &[(u32, u32, u64, f64)], vector: bool) -> Vec<Act> {
        let mut tick = 0u64;
        let mut resident = [true, true, true, false, false];
        let mut limits = [0.25, 0.5, 0.75, 0.25, 0.5];
        let mut acts = Vec::new();
        for &(kind, task, x, v) in ops {
            let sample = |tick: u64, k: usize, limit: f64| {
                let u = ((v * 4.0).floor() + k as f64) % 4.0 / 4.0;
                Act::Sample {
                    tick,
                    task: tid(k as u64, 0),
                    limit: Res2::from_lanes([limit, limit / 2.0]),
                    usage: Res2::from_lanes([
                        if u == 0.0 && (k as u64 + tick).is_multiple_of(2) {
                            -0.0
                        } else {
                            u
                        },
                        v / 3.0 + k as f64 / 16.0,
                    ]),
                    two_lanes: vector && !(kind as usize + k).is_multiple_of(3),
                }
            };
            let k = task as usize % resident.len();
            for (i, _) in resident.iter().enumerate().filter(|(_, r)| **r) {
                acts.push(sample(tick, i, limits[i]));
            }
            match kind {
                6 => acts.push(sample(tick, k, limits[k])),
                7 => resident[k] = !resident[k],
                8 => limits[k] += 0.125,
                9 => acts.push(sample(tick.saturating_sub(1), k, limits[k])),
                10 => acts.push(Act::Flush),
                11 => tick += 1 + x % 8,
                12 if x == 0 => tick += DEFAULT_MAX_GAP,
                12 if x % 8 == 0 => tick += 4_096 + x * 8,
                _ => {}
            }
            tick += 1;
        }
        acts
    }

    /// Applies one step; the outcome is what two copies must agree on.
    fn apply(view: &mut IncrementalView, act: &Act) -> String {
        match *act {
            Act::Sample {
                tick,
                task,
                limit,
                usage,
                two_lanes: true,
            } => format!("{:?}", view.ingest_vec(Tick(tick), task, limit, usage)),
            Act::Sample {
                tick,
                task,
                limit,
                usage,
                two_lanes: false,
            } => format!(
                "{:?}",
                view.ingest(Tick(tick), task, limit.lane(CPU), usage.lane(CPU))
            ),
            Act::Flush => format!("{:?}", view.flush()),
        }
    }

    /// The six predictors of this crate, freshly built: the seasonal one
    /// keeps a profile of its own, so each copy of a view gets its own.
    fn predictors() -> Vec<Box<dyn crate::predictor::PeakPredictor>> {
        [
            PredictorSpec::LimitSum,
            PredictorSpec::borg_default(),
            PredictorSpec::RcLike { percentile: 99.0 },
            PredictorSpec::NSigma { n: 5.0 },
            PredictorSpec::paper_max(),
            PredictorSpec::Seasonal {
                slots: 24,
                decay: 0.05,
                horizon_ticks: 24,
            },
        ]
        .iter()
        .map(|spec| spec.build().unwrap())
        .collect()
    }

    /// Every predictor's scalar and per-lane answer, as bits.
    fn answers(
        predictors: &[Box<dyn crate::predictor::PeakPredictor>],
        v: &IncrementalView,
    ) -> Vec<u64> {
        let mut bits = Vec::new();
        for p in predictors {
            bits.push(p.predict(v.view()).to_bits());
            for lane in 0..NUM_RESOURCES {
                bits.push(p.predict_lane(v.view(), lane).to_bits());
            }
        }
        bits
    }

    fn encoded(v: &IncrementalView) -> Vec<u8> {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        bytes
    }

    fn stream_cfg(window: usize) -> SimConfig {
        let mut c = SimConfig::default();
        c.max_num_samples = window;
        c.min_num_samples = 1 + window / 2;
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Cut a stream anywhere — a pending tick included — and ship the
        /// view: the decoded copy re-encodes to the same bytes, answers
        /// every predictor bit-identically after every flush of the rest
        /// of the stream, accepts and rejects the same samples, and ends
        /// in byte-identical state.
        #[test]
        fn restored_view_predicts_and_evolves_like_the_original(
            ops in proptest::collection::vec((0u32..14, 0u32..5, 0u64..1_000, 0.0f64..1.0), 1..120),
            cut in 0.0f64..1.0,
            vector in 0u32..2,
            window in 2usize..9,
        ) {
            let cfg = stream_cfg(window);
            let fresh = || IncrementalView::new(1.5, &cfg);
            let acts = render(&ops, vector == 1);
            let cut = ((acts.len() + 1) as f64 * cut) as usize;
            let mut original = fresh();
            for act in &acts[..cut] {
                apply(&mut original, act);
            }
            let bytes = encoded(&original);
            let mut restored = IncrementalView::decode(&bytes, &fresh()).map_err(|e| e.to_string())?;
            proptest::prop_assert!(encoded(&restored) == bytes, "encode(decode(b)) != b");
            let (ours, theirs) = (predictors(), predictors());
            for act in &acts[cut..] {
                let flushed = original.flushed();
                proptest::prop_assert_eq!(apply(&mut original, act), apply(&mut restored, act));
                if matches!(act, Act::Flush) || original.flushed() != flushed {
                    proptest::prop_assert_eq!(answers(&ours, &original), answers(&theirs, &restored));
                }
            }
            original.flush();
            restored.flush();
            proptest::prop_assert_eq!(answers(&ours, &original), answers(&theirs, &restored));
            proptest::prop_assert!(encoded(&original) == encoded(&restored), "states diverged");
        }

        /// Hostile bytes never panic the decoder: every strict prefix of a
        /// record and arbitrary junk are errors, a record with trailing
        /// bytes is an error, and a record with flipped bytes either fails
        /// to decode or decodes to a view that ingests and predicts.
        #[test]
        fn truncated_and_arbitrary_records_are_errors_not_panics(
            ops in proptest::collection::vec((0u32..14, 0u32..5, 0u64..1_000, 0.0f64..1.0), 1..40),
            vector in 0u32..2,
            flips in proptest::collection::vec((0usize..1 << 20, 1u32..256), 1..6),
            junk in proptest::collection::vec(0u32..256, 0..300),
        ) {
            let cfg = stream_cfg(4);
            let like = IncrementalView::new(1.5, &cfg);
            let mut v = IncrementalView::new(1.5, &cfg);
            for act in render(&ops, vector == 1) {
                apply(&mut v, &act);
            }
            let bytes = encoded(&v);
            for cut in 0..bytes.len() {
                proptest::prop_assert!(IncrementalView::decode(&bytes[..cut], &like).is_err(), "prefix {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            proptest::prop_assert!(IncrementalView::decode(&long, &like).is_err());
            let junk: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
            proptest::prop_assert!(IncrementalView::decode(&junk, &like).is_err());
            let mut flipped = bytes;
            for &(at, mask) in &flips {
                let at = at % flipped.len();
                flipped[at] ^= mask as u8;
            }
            if let Ok(mut w) = IncrementalView::decode(&flipped, &like) {
                let tick = w.pending_tick().or(w.flushed()).map_or(0, |t| t.0.saturating_add(1));
                let _ = w.ingest(Tick(tick), tid(1, 0), 0.5, 0.25);
                w.flush();
                answers(&predictors(), &w);
            }
        }
    }

    #[test]
    fn records_of_another_configuration_are_refused() {
        let mut v = IncrementalView::new(1.0, &small_cfg());
        v.ingest(Tick(0), tid(1, 0), 0.4, 0.1).unwrap();
        let bytes = encoded(&v);
        let mut wider = small_cfg();
        wider.max_num_samples += 1;
        for like in [
            IncrementalView::new(2.0, &small_cfg()),
            IncrementalView::new(1.0, &wider),
            IncrementalView::new(1.0, &small_cfg()).with_max_gap(9),
        ] {
            assert!(matches!(
                IncrementalView::decode(&bytes, &like),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
        assert!(IncrementalView::decode(&bytes, &IncrementalView::new(1.0, &small_cfg())).is_ok());
    }
}
