//! The sharded state layer.
//!
//! Machines are partitioned across `N` shards by a stable hash of
//! `(cell, machine)`. A shard is plain data — the [`IncrementalView`]s of
//! its machines, its counters and a predictor — behind one `Mutex`.
//! There are no shard threads and no queue: the frontend thread that
//! parsed a request line takes the owning shard's lock and applies the
//! request itself (run to completion), so an answer costs a lock
//! acquisition and the work, never a cross-thread wake-up.
//!
//! **Backpressure.** Nothing is buffered between the socket and the
//! state, so there is nothing to bound and nothing to reject: a frontend
//! thread that is busy applying does not read its sockets, the kernel's
//! receive buffers fill, and TCP gates the senders. Memory per shard is
//! its live machine state, bounded per machine by the views' windows.
//!
//! **State transfer.** A shard dumps each machine's view as a state
//! record ([`crate::proto::encode_view_record`]) and installs decoded
//! views into machines it does not hold yet; that is how a replacement
//! cluster member takes over a slot without replaying history.
//!
//! **Ordering.** One connection's requests are applied in arrival order
//! by the one thread that serves it; requests of different connections
//! are applied in lock-acquisition order. Per-machine sample order is
//! therefore preserved end to end as long as one machine's stream stays
//! on one connection (the load generator pins machines to connections for
//! exactly this reason). An acknowledged sample is an *applied* sample.
//!
//! **Contention.** Two frontend threads that need the same shard
//! serialize on its lock for the 0.1–0.3 µs per sample the apply holds
//! it. `serve.shard.contended.<i>` counts the acquisitions that had to
//! wait — the "is one shard hot?" signal.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::ShardMetrics;
use crate::proto::{encode_view_record, ErrCode, Response};
use crate::ring::{HashRing, KeyRole};
use oc_core::ingest::IncrementalView;
use oc_core::predictor::{clamp_prediction, clamp_prediction_vec, PeakPredictor};
use oc_core::CoreError;
use oc_stats::resource::{Res2, CPU, MEM};
use oc_telemetry::{Counter, MetricsRegistry};
use oc_trace::ids::{CellId, MachineId, TaskId};
use oc_trace::time::Tick;
use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// A machine's routing key.
pub type MachineKey = (CellId, MachineId);

/// Samples one [`ObserveChunk`] holds. Small and fixed: a connection
/// buffers consecutive same-shard samples here and applies them under one
/// lock acquisition, so the lock and the map lookups are amortized across
/// up to this many samples while a flush can only ever defer this many
/// acknowledgements. Sized for the high fan-in workload, where whole
/// `BATCH` frames stream in per connection.
pub const OBS_CHUNK: usize = 64;

/// One coalesced sample inside an [`ObserveChunk`].
#[derive(Debug, Clone, Default)]
pub struct ObserveItem {
    /// Routing key (every item of a chunk routes to the same shard, but
    /// not necessarily to the same machine).
    pub key: MachineKey,
    /// The sampled task.
    pub task: TaskId,
    /// Observed usage.
    pub usage: f64,
    /// Task limit.
    pub limit: f64,
    /// Optional memory lane as `(usage, limit)`; `Some` for samples that
    /// arrived in the multi-resource `OBSERVE` form.
    pub mem: Option<(f64, f64)>,
    /// Sample tick.
    pub tick: Tick,
}

/// A fixed-capacity run of consecutive same-shard samples, built by the
/// connection handler's micro-batcher and applied in arrival order
/// (identical outcome to applying each item individually).
#[derive(Debug)]
pub struct ObserveChunk {
    /// The samples; only `items[..len]` are meaningful.
    pub items: [ObserveItem; OBS_CHUNK],
    /// Number of live items.
    pub len: usize,
    /// When the chunk's first sample was buffered, for per-item
    /// service-latency accounting.
    pub enqueued: Instant,
}

impl ObserveChunk {
    /// An empty chunk stamped `now`.
    pub fn new() -> ObserveChunk {
        ObserveChunk {
            // `[T; 64]` has no `Default` impl (std stops at 32).
            items: std::array::from_fn(|_| ObserveItem::default()),
            len: 0,
            enqueued: Instant::now(),
        }
    }
}

impl Default for ObserveChunk {
    fn default() -> ObserveChunk {
        ObserveChunk::new()
    }
}

/// A shard's command set, applied by [`ShardPool::send`] on the calling
/// thread. The connection layer does not build these — it calls the typed
/// methods of the locked shard — but they remain the way to drive a pool
/// from outside the crate.
///
/// Replies are sent *before* `send` returns, on the calling thread, so a
/// reply channel needs capacity ≥ 1: a rendezvous channel
/// (`sync_channel(0)`) would block the caller on its own reply forever.
#[derive(Debug)]
pub enum ShardMsg {
    /// Ingest one per-task sample.
    Observe {
        /// Routing key.
        key: MachineKey,
        /// The sampled task.
        task: TaskId,
        /// Observed usage.
        usage: f64,
        /// Task limit.
        limit: f64,
        /// Optional memory lane as `(usage, limit)`.
        mem: Option<(f64, f64)>,
        /// Sample tick.
        tick: Tick,
        /// Caller's stamp, for service-latency accounting.
        enqueued: Instant,
    },
    /// Ingest a coalesced run of same-shard samples, item by item in
    /// order — outcome identical to the equivalent sequence of `Observe`
    /// messages, under one lock acquisition.
    ObserveBatch(Box<ObserveChunk>),
    /// Predict a machine's peak; the response is sent on `reply`.
    Predict {
        /// Routing key.
        key: MachineKey,
        /// `true` for the multi-resource form: the reply carries both the
        /// CPU and memory peaks (`PRED cpu,mem`).
        vector: bool,
        /// Reply channel (capacity ≥ 1, see [`ShardMsg`]).
        reply: SyncSender<Response>,
        /// Caller's stamp, for service-latency accounting.
        enqueued: Instant,
    },
    /// Admission check; the response is sent on `reply`.
    Admit {
        /// Routing key.
        key: MachineKey,
        /// Candidate task limit.
        limit: f64,
        /// Reply channel (capacity ≥ 1, see [`ShardMsg`]).
        reply: SyncSender<Response>,
        /// Caller's stamp, for service-latency accounting.
        enqueued: Instant,
    },
    /// Snapshot this shard's metrics.
    Snapshot {
        /// Reply channel (capacity ≥ 1, see [`ShardMsg`]).
        reply: SyncSender<ShardMetrics>,
    },
}

/// The shard no longer applies anything: the pool was shut down (server
/// shutting down), or a thread panicked while holding the shard's lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// Stable hash of a machine key — the basis of [`ShardPool::route`], of
/// the cluster ring's ownership check and of the frontend predict cache's
/// generation stripes, so "same stripe" implies "same shard". The
/// connection layer computes it once per request line and hands the
/// `u64` to all three.
pub fn key_hash(key: &MachineKey) -> u64 {
    // DefaultHasher::new() is deterministic (fixed keys), unlike
    // RandomState — routing must not change across connections.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// One shard's state. Only ever touched through the pool's lock on it.
pub(crate) struct Shard {
    /// Views are boxed so the map stores a pointer, not the ~200-byte
    /// struct: with fleet-scale machine counts every rehash of an inline
    /// table rewrites hundreds of megabytes of fresh pages, which on slow
    /// first-touch hosts costs more than the ingest work itself.
    views: HashMap<MachineKey, Box<IncrementalView>>,
    metrics: ShardMetrics,
    predictor: Box<dyn PeakPredictor>,
    cfg: ServeConfig,
    /// Set by [`ShardPool::shutdown`]; a closed shard applies nothing.
    closed: bool,
}

/// A fresh view configured by `cfg`: what a first sample creates, and the
/// configuration a restored state record must match.
pub(crate) fn new_view(cfg: &ServeConfig) -> Box<IncrementalView> {
    Box::new(IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap))
}

impl Shard {
    /// Applies `items` in order; every item is stamped with the same
    /// service latency `waited` (a chunk's items share one stamp).
    pub(crate) fn observe(&mut self, items: &[ObserveItem], waited: Duration) {
        let mut i = 0;
        while i < items.len() {
            // One map lookup per run of same-machine samples: a fan-in
            // connection fills whole chunks from a single machine, and the
            // per-item key hash would otherwise dominate the ingest loop.
            let key = &items[i].key;
            let view = match self.views.get_mut(key) {
                Some(view) => view,
                None => self
                    .views
                    .entry(key.clone())
                    .or_insert_with(|| new_view(&self.cfg)),
            };
            let run_start = i;
            while i < items.len() && items[i].key == *key {
                let item = &items[i];
                // Scalar samples take the scalar ingest path (bit-identical
                // to the pre-vector server); a `cpu,mem` pair routes through
                // `ingest_vec`, which flips the view into vector mode for
                // good.
                let ingested = match item.mem {
                    None => view.ingest(item.tick, item.task, item.limit, item.usage),
                    Some((mu, ml)) => view.ingest_vec(
                        item.tick,
                        item.task,
                        Res2::from_lanes([item.limit, ml]),
                        Res2::from_lanes([item.usage, mu]),
                    ),
                };
                match ingested {
                    Ok(()) => self.metrics.observes += 1,
                    Err(CoreError::StaleSample { .. }) => self.metrics.stale += 1,
                    Err(_) => self.metrics.errors += 1,
                }
                i += 1;
            }
            // One latency sample per item, not per chunk, so the
            // `latency_us.count == observes + stale + errors` identity
            // holds whether or not samples were coalesced.
            self.metrics
                .record_latency_n(waited, (i - run_start) as u64);
        }
    }

    /// Answers `PREDICT` for `key` in the query's shape.
    pub(crate) fn predict(&mut self, key: &MachineKey, vector: bool) -> Response {
        self.metrics.predicts += 1;
        let Some(view) = self.views.get_mut(key) else {
            self.metrics.errors += 1;
            return Response::Err {
                code: ErrCode::UnknownMachine,
                detail: format!("{}/{} never observed", key.0, key.1),
            };
        };
        view.flush();
        let v = view.view();
        if vector {
            let peak = clamp_prediction_vec(self.predictor.predict_vec(v), v);
            Response::Pred {
                peak: peak.lane(CPU),
                mem: Some(peak.lane(MEM)),
            }
        } else {
            Response::Pred {
                peak: clamp_prediction(self.predictor.predict(v), v),
                mem: None,
            }
        }
    }

    /// Answers `ADMIT` for a candidate task of `limit` on `key`.
    pub(crate) fn admit(&mut self, key: &MachineKey, limit: f64) -> Response {
        self.metrics.admits += 1;
        // An admission check on a never-observed machine is legal: the
        // scheduler probes idle machines too. State is created on demand,
        // exactly as a first OBSERVE would.
        let view = self
            .views
            .entry(key.clone())
            .or_insert_with(|| new_view(&self.cfg));
        view.flush();
        let v = view.view();
        let projected = clamp_prediction(self.predictor.predict(v), v) + limit;
        Response::Admitted {
            admit: projected <= v.capacity(),
            projected,
        }
    }

    /// This shard's counters, with `machines` filled in.
    pub(crate) fn snapshot(&self) -> ShardMetrics {
        let mut m = self.metrics.clone();
        m.machines = self.views.len() as u64;
        m
    }

    /// Appends one state record per machine this shard holds to `out`
    /// and returns how many it wrote. Views are encoded as they are,
    /// a pending tick included: nothing is flushed.
    pub(crate) fn dump(&self, out: &mut Vec<u8>) -> u64 {
        let mut state = Vec::new();
        for ((cell, machine), view) in &self.views {
            state.clear();
            view.encode(&mut state);
            encode_view_record(cell, *machine, view.samples(), &state, out);
        }
        self.views.len() as u64
    }

    /// Drops the views of machines `ring` gives member `index` no role
    /// for.
    pub(crate) fn drop_unheld(&mut self, ring: &HashRing, index: usize) {
        self.views
            .retain(|key, _| ring.role(index, key_hash(key)) != KeyRole::Remote);
    }

    /// Installs a restored view for `key` unless the shard already holds
    /// the machine; returns whether it did.
    pub(crate) fn install(&mut self, key: MachineKey, view: Box<IncrementalView>) -> bool {
        match self.views.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(view);
                true
            }
        }
    }
}

/// A shard's lock and the counter of acquisitions that had to wait for it.
struct Slot {
    shard: Mutex<Shard>,
    /// `serve.shard.contended.<i>`.
    contended: Arc<Counter>,
}

/// The pool of shards.
pub struct ShardPool {
    slots: Vec<Slot>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl ShardPool {
    /// Builds `cfg.shards` shards. Per-shard contention counters
    /// (`serve.shard.contended.<i>`) are registered on `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `cfg` fails validation (including
    /// an unbuildable predictor spec).
    pub fn new(cfg: &ServeConfig, registry: &MetricsRegistry) -> Result<ShardPool, ServeError> {
        cfg.validate()?;
        let slots = (0..cfg.shards)
            .map(|i| {
                Ok(Slot {
                    shard: Mutex::new(Shard {
                        views: HashMap::new(),
                        metrics: ShardMetrics::default(),
                        predictor: cfg.predictor.build()?,
                        cfg: cfg.clone(),
                        closed: false,
                    }),
                    contended: registry.counter(&format!("serve.shard.contended.{i}")),
                })
            })
            .collect::<Result<Vec<Slot>, ServeError>>()?;
        Ok(ShardPool { slots })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The shard a key routes to: a stable hash, so one machine's state
    /// always lives in one shard.
    pub fn route(&self, key: &MachineKey) -> usize {
        self.route_hash(key_hash(key))
    }

    /// [`ShardPool::route`] for a caller that already holds the key's
    /// [`key_hash`].
    pub fn route_hash(&self, hash: u64) -> usize {
        (hash % self.slots.len() as u64) as usize
    }

    /// Locks `shard` for the calling thread. An acquisition that would
    /// have to wait is counted in `serve.shard.contended.<i>` first.
    ///
    /// # Errors
    ///
    /// [`Closed`] after [`ShardPool::shutdown`], and for a poisoned lock:
    /// a shard whose apply panicked is out of service, not a reason to
    /// take every frontend thread down with it.
    pub(crate) fn lock(&self, shard: usize) -> Result<MutexGuard<'_, Shard>, Closed> {
        let slot = &self.slots[shard];
        let guard = match slot.shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                slot.contended.inc();
                slot.shard.lock().map_err(|_| Closed)?
            }
            Err(TryLockError::Poisoned(_)) => return Err(Closed),
        };
        if guard.closed {
            return Err(Closed);
        }
        Ok(guard)
    }

    /// Locks `shard` and applies `msg` on the calling thread; a reply is
    /// sent before this returns (see [`ShardMsg`] for what that asks of
    /// the reply channel).
    ///
    /// # Errors
    ///
    /// [`Closed`] if the shard no longer applies anything; `msg` is
    /// dropped unapplied.
    pub fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), Closed> {
        let mut s = self.lock(shard)?;
        match msg {
            ShardMsg::Observe {
                key,
                task,
                usage,
                limit,
                mem,
                tick,
                enqueued,
            } => {
                let item = ObserveItem {
                    key,
                    task,
                    usage,
                    limit,
                    mem,
                    tick,
                };
                s.observe(std::slice::from_ref(&item), enqueued.elapsed());
            }
            ShardMsg::ObserveBatch(chunk) => {
                s.observe(&chunk.items[..chunk.len], chunk.enqueued.elapsed());
            }
            ShardMsg::Predict {
                key,
                vector,
                reply,
                enqueued,
            } => {
                let _ = reply.send(s.predict(&key, vector));
                s.metrics.record_latency(enqueued.elapsed());
            }
            ShardMsg::Admit {
                key,
                limit,
                reply,
                enqueued,
            } => {
                let _ = reply.send(s.admit(&key, limit));
                s.metrics.record_latency(enqueued.elapsed());
            }
            ShardMsg::Snapshot { reply } => {
                let _ = reply.send(s.snapshot());
            }
        }
        Ok(())
    }

    /// Closes every shard under its lock and returns the merged final
    /// metrics. Whatever was acknowledged was applied before its `OK` was
    /// written, so there is nothing to drain: the counters returned here
    /// cover every acknowledged sample. Afterwards [`ShardPool::send`]
    /// answers [`Closed`]. A shard whose lock is poisoned (or that was
    /// closed already) contributes nothing.
    pub fn shutdown(&self) -> ShardMetrics {
        let mut merged = ShardMetrics::default();
        for shard in 0..self.slots.len() {
            if let Ok(mut s) = self.lock(shard) {
                s.closed = true;
                merged.merge(&s.snapshot());
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::ids::JobId;
    use std::sync::mpsc::sync_channel;

    fn key(m: u32) -> MachineKey {
        (CellId::new("t"), MachineId(m))
    }

    fn observe(m: u32, tick: u64, usage: f64) -> ShardMsg {
        ShardMsg::Observe {
            key: key(m),
            task: TaskId::new(JobId(1), 0),
            usage,
            limit: 0.5,
            mem: None,
            tick: Tick(tick),
            enqueued: Instant::now(),
        }
    }

    fn pool_of(cfg: &ServeConfig) -> ShardPool {
        ShardPool::new(cfg, &MetricsRegistry::new()).unwrap()
    }

    fn pool(shards: usize) -> ShardPool {
        pool_of(&ServeConfig::default().with_shards(shards))
    }

    /// Sends a read built around a capacity-1 reply channel and returns
    /// the answer, which `send` has already put there.
    fn ask(
        p: &ShardPool,
        shard: usize,
        msg: impl FnOnce(SyncSender<Response>) -> ShardMsg,
    ) -> Response {
        let (reply, rx) = sync_channel(1);
        p.send(shard, msg(reply)).unwrap();
        rx.try_recv().expect("send replies before it returns")
    }

    fn ask_predict(p: &ShardPool, k: MachineKey) -> Response {
        ask(p, p.route(&k), |reply| ShardMsg::Predict {
            key: k,
            vector: false,
            reply,
            enqueued: Instant::now(),
        })
    }

    fn ask_admit(p: &ShardPool, k: MachineKey, limit: f64) -> Response {
        ask(p, p.route(&k), |reply| ShardMsg::Admit {
            key: k,
            limit,
            reply,
            enqueued: Instant::now(),
        })
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let p = pool(4);
        for m in 0..100 {
            let s = p.route(&key(m));
            assert!(s < 4);
            assert_eq!(s, p.route(&key(m)));
            assert_eq!(s, p.route_hash(key_hash(&key(m))));
        }
    }

    #[test]
    fn observe_then_predict_round_trip() {
        let p = pool(1);
        for t in 0..30u64 {
            p.send(0, observe(1, t, 0.2)).unwrap();
        }
        let resp = ask_predict(&p, key(1));
        let Response::Pred { peak, .. } = resp else {
            panic!("expected PRED, got {resp:?}");
        };
        assert!(peak > 0.0 && peak <= 0.5, "{peak}");
        let m = p.shutdown();
        assert_eq!(m.observes, 30);
        assert_eq!(m.predicts, 1);
        assert_eq!(m.machines, 1);
        assert_eq!(m.latency.count(), 31, "one stamp per message");
    }

    #[test]
    fn predict_unknown_machine_is_typed_error() {
        let p = pool(2);
        assert!(matches!(
            ask_predict(&p, key(9)),
            Response::Err {
                code: ErrCode::UnknownMachine,
                ..
            }
        ));
    }

    #[test]
    fn admit_on_empty_machine_accepts_within_capacity() {
        let p = pool(1);
        let Response::Admitted { admit, projected } = ask_admit(&p, key(3), 0.4) else {
            panic!("expected ADMITTED");
        };
        assert!(admit);
        assert_eq!(projected, 0.4);
        let Response::Admitted { admit, .. } = ask_admit(&p, key(3), 1.5) else {
            panic!("expected ADMITTED");
        };
        assert!(!admit, "1.5 exceeds capacity 1.0");
    }

    /// A chunk applies exactly like its items sent one by one, and the
    /// final metrics of a shutdown count every applied sample; after it
    /// the shards answer `Closed` and apply nothing.
    #[test]
    fn shutdown_counts_everything_applied_then_closes_the_shards() {
        let p = pool(2);
        let mut chunks: Vec<Box<ObserveChunk>> =
            (0..2).map(|_| Box::new(ObserveChunk::new())).collect();
        for t in 0..20u64 {
            for m in 0..3u32 {
                let chunk = &mut chunks[p.route(&key(m))];
                chunk.items[chunk.len] = ObserveItem {
                    key: key(m),
                    task: TaskId::new(JobId(1), 0),
                    usage: 0.2,
                    limit: 0.5,
                    mem: None,
                    tick: Tick(t),
                };
                chunk.len += 1;
            }
        }
        let one_by_one = pool(2);
        for chunk in &chunks {
            for item in &chunk.items[..chunk.len] {
                one_by_one
                    .send(
                        one_by_one.route(&item.key),
                        observe(item.key.1 .0, item.tick.0, item.usage),
                    )
                    .unwrap();
            }
        }
        for (shard, chunk) in chunks.into_iter().enumerate() {
            p.send(shard, ShardMsg::ObserveBatch(chunk)).unwrap();
        }
        for m in 0..3 {
            assert_eq!(ask_predict(&p, key(m)), ask_predict(&one_by_one, key(m)));
        }
        let m = p.shutdown();
        assert_eq!((m.observes, m.predicts, m.machines), (60, 3, 3));
        assert_eq!(m.latency.count(), 63);

        assert_eq!(p.send(0, observe(1, 99, 0.2)), Err(Closed));
        let (reply, rx) = sync_channel(1);
        assert_eq!(p.send(1, ShardMsg::Snapshot { reply }), Err(Closed));
        assert!(rx.try_recv().is_err(), "a closed shard answers nothing");
        assert_eq!(p.shutdown().observes, 0, "nothing is counted twice");
    }

    /// A thread that panics while it holds a shard's lock takes that
    /// shard out of service — `Closed`, not a panic in every caller —
    /// and leaves the other shards serving.
    #[test]
    fn a_poisoned_shard_is_closed_not_contagious() {
        let p = pool(2);
        p.send(1, observe(1, 0, 0.2)).unwrap();
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = p.lock(0).unwrap();
                    panic!("apply blew up");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert_eq!(p.send(0, observe(2, 0, 0.2)), Err(Closed));
        p.send(1, observe(1, 1, 0.2)).unwrap();
        assert_eq!(p.shutdown().observes, 2, "the healthy shard's samples");
    }

    /// `serve.shard.contended.<i>` counts exactly the acquisitions that
    /// found the lock held.
    #[test]
    fn contended_counts_acquisitions_that_had_to_wait() {
        let registry = MetricsRegistry::new();
        let p = ShardPool::new(&ServeConfig::default().with_shards(2), &registry).unwrap();
        let contended = |i: usize| {
            registry
                .snapshot()
                .counter(&format!("serve.shard.contended.{i}"))
        };
        p.send(0, observe(1, 0, 0.2)).unwrap();
        assert_eq!(contended(0), Some(0), "an idle lock is not contention");
        let held = p.lock(0).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| p.send(0, observe(1, 1, 0.2)));
            // The waiter counts before it blocks; release it only then.
            while contended(0) == Some(0) {
                std::thread::yield_now();
            }
            drop(held);
            waiter.join().unwrap().unwrap();
        });
        assert_eq!(contended(0), Some(1));
        assert_eq!(contended(1), Some(0));
        assert_eq!(p.shutdown().observes, 2);
    }

    /// A dumped shard reinstalls into an empty one: every record decodes
    /// against the receiver's configuration, predicts what the original
    /// predicts, and a machine the receiver already holds is refused.
    #[test]
    fn dumped_views_install_once_and_predict_identically() {
        use crate::proto::{decode_view_part, parse_view_header};
        let (from, to) = (pool(1), pool(1));
        for t in 0..30u64 {
            for m in 0..3u32 {
                from.send(0, observe(m, t, 0.1 + f64::from(m) / 8.0))
                    .unwrap();
            }
        }
        to.send(0, observe(2, 0, 0.3)).unwrap();
        let mut dump = Vec::new();
        assert_eq!(from.lock(0).unwrap().dump(&mut dump), 3);
        let text = String::from_utf8(dump).unwrap();
        let mut lines = text.lines();
        let mut installed = Vec::new();
        while let Some(header) = lines.next() {
            let header = parse_view_header(header).unwrap();
            let mut state = Vec::new();
            for _ in 0..header.parts {
                decode_view_part(lines.next().unwrap(), &mut state).unwrap();
            }
            let like = new_view(&ServeConfig::default());
            let view = Box::new(IncrementalView::decode(&state, &like).unwrap());
            assert_eq!(view.samples(), header.samples);
            let key = (header.cell, header.machine);
            installed.push((key.1 .0, to.lock(0).unwrap().install(key, view)));
        }
        installed.sort_unstable();
        assert_eq!(installed, [(0, true), (1, true), (2, false)]);
        for m in 0..2 {
            assert_eq!(ask_predict(&to, key(m)), ask_predict(&from, key(m)));
        }
    }

    #[test]
    fn stale_samples_count_without_killing_the_shard() {
        let p = pool(1);
        p.send(0, observe(1, 5, 0.2)).unwrap();
        p.send(0, observe(1, 6, 0.2)).unwrap();
        p.send(0, observe(1, 5, 0.2)).unwrap(); // stale
        p.send(0, observe(1, 7, 0.2)).unwrap();
        let m = p.shutdown();
        assert_eq!(m.observes, 3);
        assert_eq!(m.stale, 1);
    }
}
