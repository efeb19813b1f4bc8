//! The sharded state layer.
//!
//! Machines are partitioned across `N` shard workers by a stable hash of
//! `(cell, machine)`. Each worker is a plain actor: it exclusively owns the
//! [`IncrementalView`]s of its machines plus its counters, and drains one
//! bounded MPSC queue. No machine state is ever shared between threads, so
//! there are no locks on the hot path — the queue is the only
//! synchronization point.
//!
//! **Backpressure contract.** Queues are bounded
//! ([`ServeConfig::queue_depth`]); producers use non-blocking
//! `try_send`. A full queue means the caller gets [`SendFail::Busy`] and
//! the request is *dropped*, never buffered — the server translates this
//! into the retryable `BUSY` response (a read is first retried once, after
//! the connection's own earlier reads have drained). Memory per shard is
//! therefore bounded by `queue_depth` messages plus live machine state, no
//! matter how hard clients push.
//!
//! **Ordering.** A connection's requests for one machine are enqueued in
//! arrival order and each queue is FIFO, so per-machine sample order is
//! preserved end to end as long as one machine's stream stays on one
//! connection (the load generator pins machines to connections for exactly
//! this reason).

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::metrics::ShardMetrics;
use crate::proto::{ErrCode, Response};
use oc_core::ingest::IncrementalView;
use oc_core::predictor::{clamp_prediction, clamp_prediction_lane, PeakPredictor};
use oc_core::CoreError;
use oc_stats::resource::{Res2, CPU, MEM};
use oc_telemetry::{Gauge, MetricsRegistry};
use oc_trace::ids::{CellId, MachineId, TaskId};
use oc_trace::time::Tick;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A machine's routing key.
pub type MachineKey = (CellId, MachineId);

/// Samples carried by one coalesced [`ShardMsg::ObserveBatch`] message.
/// Small and fixed: the chunk lives inline in one boxed message, so the
/// `sync_channel` hop and the shard wakeup are amortized across up to
/// this many samples while a stalled flush can only ever defer this many
/// acknowledgements. Sized for the high fan-in workload, where whole
/// `BATCH` frames stream in per connection and every chunk send costs a
/// queue lock plus a possible futex wake.
pub const OBS_CHUNK: usize = 64;

/// `PREDICT`/`ADMIT` replies one connection may be waiting on at once.
/// The frontend enqueues the reads of a burst without waiting and
/// collects the replies afterwards; the cap bounds the receivers and the
/// held-back response bytes a connection can pin, and the shard-queue
/// slots its reads can occupy at a time.
pub const MAX_PENDING_READS: usize = 64;

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
/// connection handler's micro-batcher and applied by the worker in
/// arrival order (identical outcome to sending each item individually).
#[derive(Debug)]
pub struct ObserveChunk {
    /// The samples; only `items[..len]` are meaningful.
    pub items: [ObserveItem; OBS_CHUNK],
    /// Number of live items.
    pub len: usize,
    /// Enqueue instant of the chunk, for per-item service-latency
    /// accounting.
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

/// One message on a shard queue.
#[derive(Debug)]
pub enum ShardMsg {
    /// Ingest one per-task sample (fire-and-forget; acked on enqueue).
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
        /// Enqueue instant, for service-latency accounting.
        enqueued: Instant,
    },
    /// Ingest a coalesced run of same-shard samples (fire-and-forget;
    /// acked on enqueue). Applied item by item in order — outcome
    /// identical to the equivalent sequence of `Observe` messages, but
    /// with one queue hop for the whole run.
    ObserveBatch(Box<ObserveChunk>),
    /// Predict a machine's peak; the response is sent on `reply`.
    ///
    /// The reply is a `SyncSender` so callers choose the blocking
    /// behavior: the server uses capacity 1 (the worker never blocks),
    /// tests use a rendezvous channel to pause the worker on purpose.
    Predict {
        /// Routing key.
        key: MachineKey,
        /// `true` for the multi-resource form: the reply carries both the
        /// CPU and memory peaks (`PRED cpu,mem`).
        vector: bool,
        /// Reply channel.
        reply: SyncSender<Response>,
        /// Enqueue instant.
        enqueued: Instant,
    },
    /// Admission check; the response is sent on `reply`.
    Admit {
        /// Routing key.
        key: MachineKey,
        /// Candidate task limit.
        limit: f64,
        /// Reply channel.
        reply: SyncSender<Response>,
        /// Enqueue instant.
        enqueued: Instant,
    },
    /// Snapshot this shard's metrics.
    Snapshot {
        /// Reply channel.
        reply: SyncSender<ShardMetrics>,
    },
    /// Dump this shard's handoff log (empty when the log is disabled).
    /// Entries arrive in original ingest order, so per-machine sample
    /// order is preserved.
    Handoff {
        /// Reply channel for the log copy.
        reply: SyncSender<Vec<HandoffEntry>>,
    },
    /// Drain (everything already queued is processed first — the queue is
    /// FIFO), report final metrics, and exit.
    Shutdown {
        /// Reply channel for the final metrics.
        reply: SyncSender<ShardMetrics>,
    },
}

/// One successfully ingested sample, as recorded in a shard's handoff
/// log ([`ServeConfig::handoff_log`]). Replaying a machine's entries in
/// log order through ordinary `OBSERVE` lines reproduces its
/// [`IncrementalView`] bit-identically (arrival-order equivalence plus
/// shortest-round-trip float formatting), which is how a replacement
/// member rebuilds state from a survivor.
#[derive(Debug, Clone)]
pub struct HandoffEntry {
    /// Routing key.
    pub key: MachineKey,
    /// The sampled task.
    pub task: TaskId,
    /// Observed usage.
    pub usage: f64,
    /// Task limit.
    pub limit: f64,
    /// Optional memory lane as `(usage, limit)`; replayed in the same
    /// wire form it arrived in, so a vector stream rebuilds a vector view.
    pub mem: Option<(f64, f64)>,
    /// Sample tick.
    pub tick: Tick,
}

/// Why a `try_send` to a shard failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFail {
    /// The shard queue is full; the request was dropped (retryable).
    Busy,
    /// The shard has exited (server shutting down).
    Closed,
}

/// Stable hash of a machine key — the basis of [`ShardPool::route`] and
/// of the frontend predict cache's generation stripes, so "same stripe"
/// implies "same shard queue" and generation bumps are ordered with the
/// samples they describe.
pub fn key_hash(key: &MachineKey) -> u64 {
    // DefaultHasher::new() is deterministic (fixed keys), unlike
    // RandomState — routing must not change across connections.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// The pool of shard workers.
#[derive(Debug)]
pub struct ShardPool {
    senders: Vec<SyncSender<ShardMsg>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-shard queue-depth gauges (`serve.shard.queue_depth.<i>`):
    /// incremented on every successful enqueue, decremented by the worker
    /// as it dequeues, so the gauge reads the live backlog.
    queue_depth: Vec<Arc<Gauge>>,
}

impl ShardPool {
    /// Spawns `cfg.shards` workers with bounded queues. Per-shard
    /// queue-depth gauges are registered on `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `cfg` fails validation (including
    /// an unbuildable predictor spec).
    pub fn new(cfg: &ServeConfig, registry: &MetricsRegistry) -> Result<ShardPool, ServeError> {
        cfg.validate()?;
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        let mut queue_depth = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let (tx, rx) = sync_channel(cfg.queue_depth);
            let predictor = cfg.predictor.build()?;
            let worker_cfg = cfg.clone();
            let depth = registry.gauge(&format!("serve.shard.queue_depth.{i}"));
            let worker_depth = Arc::clone(&depth);
            let handle = std::thread::Builder::new()
                .name(format!("oc-serve-shard-{i}"))
                .spawn(move || shard_worker(rx, worker_cfg, predictor, worker_depth))
                .map_err(ServeError::Io)?;
            senders.push(tx);
            handles.push(handle);
            queue_depth.push(depth);
        }
        Ok(ShardPool {
            senders,
            handles,
            queue_depth,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard a key routes to: a stable hash, so one machine's state
    /// always lives on one worker.
    pub fn route(&self, key: &MachineKey) -> usize {
        (key_hash(key) % self.senders.len() as u64) as usize
    }

    /// Non-blocking enqueue onto the shard owning `key`'s machine.
    ///
    /// # Errors
    ///
    /// [`SendFail::Busy`] if the bounded queue is full (backpressure),
    /// [`SendFail::Closed`] if the worker exited. The rejected message
    /// comes back with the reason: a read is retried once after the
    /// connection's own earlier reads have drained, everything else drops
    /// it.
    pub fn try_send(&self, shard: usize, msg: ShardMsg) -> Result<(), (SendFail, ShardMsg)> {
        self.senders[shard]
            .try_send(msg)
            .map(|()| self.queue_depth[shard].inc())
            .map_err(|e| match e {
                TrySendError::Full(msg) => (SendFail::Busy, msg),
                TrySendError::Disconnected(msg) => (SendFail::Closed, msg),
            })
    }

    /// Blocking enqueue (used for rare control messages like `STATS`).
    ///
    /// # Errors
    ///
    /// [`SendFail::Closed`] if the worker exited.
    pub fn send(&self, shard: usize, msg: ShardMsg) -> Result<(), SendFail> {
        self.senders[shard]
            .send(msg)
            .map(|()| self.queue_depth[shard].inc())
            .map_err(|_| SendFail::Closed)
    }

    /// Like [`ShardPool::shutdown`] but callable through a shared
    /// reference, for when live connection handlers still hold the pool.
    /// Queues drain and workers exit; their threads are left to finish on
    /// their own instead of being joined.
    pub fn shutdown_shared(&self) -> ShardMetrics {
        let mut replies = Vec::with_capacity(self.senders.len());
        for (i, tx) in self.senders.iter().enumerate() {
            let (reply, rx) = sync_channel(1);
            if tx.send(ShardMsg::Shutdown { reply }).is_ok() {
                self.queue_depth[i].inc();
                replies.push(rx);
            }
        }
        let mut merged = ShardMetrics::default();
        for rx in replies {
            if let Ok(m) = rx.recv() {
                merged.merge(&m);
            }
        }
        merged
    }

    /// Sends `Shutdown` to every shard, waits for each to drain its queue,
    /// joins the workers, and returns the merged final metrics.
    pub fn shutdown(self) -> ShardMetrics {
        let mut replies = Vec::with_capacity(self.senders.len());
        for (i, tx) in self.senders.iter().enumerate() {
            let (reply, rx) = sync_channel(1);
            // A full queue makes this block until the worker drains —
            // that *is* the graceful part of the shutdown.
            if tx.send(ShardMsg::Shutdown { reply }).is_ok() {
                self.queue_depth[i].inc();
                replies.push(rx);
            }
        }
        drop(self.senders);
        let mut merged = ShardMetrics::default();
        for rx in replies {
            if let Ok(m) = rx.recv() {
                merged.merge(&m);
            }
        }
        for h in self.handles {
            let _ = h.join();
        }
        merged
    }
}

/// The worker loop: exclusive owner of its machines' state.
fn shard_worker(
    rx: Receiver<ShardMsg>,
    cfg: ServeConfig,
    predictor: Box<dyn PeakPredictor>,
    queue_depth: Arc<Gauge>,
) {
    // Views are boxed so the map stores a pointer, not the ~200-byte
    // struct: with fleet-scale machine counts every rehash of an inline
    // table rewrites hundreds of megabytes of fresh pages, which on slow
    // first-touch hosts costs more than the ingest work itself.
    let mut views: HashMap<MachineKey, Box<IncrementalView>> = HashMap::new();
    let mut metrics = ShardMetrics::default();
    // Handoff log: every successfully ingested sample, in arrival order
    // (per-machine order is what replay needs; a machine lives on exactly
    // one shard, so one flat vector suffices). Grows with total ingest —
    // only enabled for cluster runs that need member replacement.
    let mut handoff: Vec<HandoffEntry> = Vec::new();
    let log_handoff = cfg.handoff_log;
    let new_view = |cfg: &ServeConfig| {
        Box::new(
            IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap),
        )
    };
    // Scalar samples take the scalar ingest path (bit-identical to the
    // pre-vector server); a `cpu,mem` pair routes through `ingest_vec`,
    // which flips the view into vector mode for good.
    let ingest = |view: &mut IncrementalView,
                  tick: Tick,
                  task: TaskId,
                  limit: f64,
                  usage: f64,
                  mem: Option<(f64, f64)>| match mem {
        None => view.ingest(tick, task, limit, usage),
        Some((mu, ml)) => view.ingest_vec(
            tick,
            task,
            Res2::from_lanes([limit, ml]),
            Res2::from_lanes([usage, mu]),
        ),
    };
    while let Ok(msg) = rx.recv() {
        queue_depth.dec();
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
                let view = views.entry(key.clone()).or_insert_with(|| new_view(&cfg));
                match ingest(view, tick, task, limit, usage, mem) {
                    Ok(()) => {
                        metrics.observes += 1;
                        if log_handoff {
                            handoff.push(HandoffEntry {
                                key,
                                task,
                                usage,
                                limit,
                                mem,
                                tick,
                            });
                        }
                    }
                    Err(CoreError::StaleSample { .. }) => metrics.stale += 1,
                    Err(_) => metrics.errors += 1,
                }
                metrics.record_latency(enqueued.elapsed());
            }
            ShardMsg::ObserveBatch(chunk) => {
                // One latency sample per item, not per chunk, so the
                // `latency_us.count == observes+stale+errors+…` identity
                // holds whether or not samples were coalesced.
                let elapsed = chunk.enqueued.elapsed();
                let items = &chunk.items[..chunk.len];
                let mut i = 0;
                while i < items.len() {
                    // One map lookup per run of same-machine samples: a
                    // fan-in connection fills whole chunks from a single
                    // machine, and the per-item key hash would otherwise
                    // dominate the ingest loop.
                    let key = &items[i].key;
                    let view = views.entry(key.clone()).or_insert_with(|| new_view(&cfg));
                    let run_start = i;
                    while i < items.len() && items[i].key == *key {
                        let item = &items[i];
                        match ingest(view, item.tick, item.task, item.limit, item.usage, item.mem) {
                            Ok(()) => {
                                metrics.observes += 1;
                                if log_handoff {
                                    handoff.push(HandoffEntry {
                                        key: item.key.clone(),
                                        task: item.task,
                                        usage: item.usage,
                                        limit: item.limit,
                                        mem: item.mem,
                                        tick: item.tick,
                                    });
                                }
                            }
                            Err(CoreError::StaleSample { .. }) => metrics.stale += 1,
                            Err(_) => metrics.errors += 1,
                        }
                        i += 1;
                    }
                    metrics.record_latency_n(elapsed, (i - run_start) as u64);
                }
            }
            ShardMsg::Predict {
                key,
                vector,
                reply,
                enqueued,
            } => {
                metrics.predicts += 1;
                let resp = match views.get_mut(&key) {
                    Some(view) => {
                        view.flush();
                        if vector {
                            let v = view.view();
                            let cpu = clamp_prediction_lane(predictor.predict_lane(v, CPU), v, CPU);
                            let mem = clamp_prediction_lane(predictor.predict_lane(v, MEM), v, MEM);
                            Response::Pred {
                                peak: cpu,
                                mem: Some(mem),
                            }
                        } else {
                            let peak =
                                clamp_prediction(predictor.predict(view.view()), view.view());
                            Response::Pred { peak, mem: None }
                        }
                    }
                    None => {
                        metrics.errors += 1;
                        Response::Err {
                            code: ErrCode::UnknownMachine,
                            detail: format!("{}/{} never observed", key.0, key.1),
                        }
                    }
                };
                let _ = reply.send(resp);
                metrics.record_latency(enqueued.elapsed());
            }
            ShardMsg::Admit {
                key,
                limit,
                reply,
                enqueued,
            } => {
                metrics.admits += 1;
                // An admission check on a never-observed machine is legal:
                // the scheduler probes idle machines too. State is created
                // on demand, exactly as a first OBSERVE would.
                let view = views.entry(key).or_insert_with(|| new_view(&cfg));
                view.flush();
                let peak = clamp_prediction(predictor.predict(view.view()), view.view());
                let projected = peak + limit;
                let resp = Response::Admitted {
                    admit: projected <= view.view().capacity(),
                    projected,
                };
                let _ = reply.send(resp);
                metrics.record_latency(enqueued.elapsed());
            }
            ShardMsg::Snapshot { reply } => {
                let mut m = metrics.clone();
                m.machines = views.len() as u64;
                let _ = reply.send(m);
            }
            ShardMsg::Handoff { reply } => {
                // A copy, not a drain: the log keeps serving future
                // replacements (and the member keeps appending).
                let _ = reply.send(handoff.clone());
            }
            ShardMsg::Shutdown { reply } => {
                let mut m = metrics.clone();
                m.machines = views.len() as u64;
                let _ = reply.send(m);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::ids::JobId;

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

    fn pool(shards: usize, depth: usize) -> ShardPool {
        ShardPool::new(
            &ServeConfig::default()
                .with_shards(shards)
                .with_queue_depth(depth),
            &MetricsRegistry::new(),
        )
        .unwrap()
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let p = pool(4, 16);
        for m in 0..100 {
            let s = p.route(&key(m));
            assert!(s < 4);
            assert_eq!(s, p.route(&key(m)));
        }
        p.shutdown();
    }

    #[test]
    fn observe_then_predict_round_trip() {
        let p = pool(1, 64);
        for t in 0..30u64 {
            p.try_send(0, observe(1, t, 0.2)).unwrap();
        }
        let (reply, rx) = sync_channel(1);
        p.try_send(
            0,
            ShardMsg::Predict {
                key: key(1),
                vector: false,
                reply,
                enqueued: Instant::now(),
            },
        )
        .unwrap();
        let resp = rx.recv().unwrap();
        let Response::Pred { peak, .. } = resp else {
            panic!("expected PRED, got {resp:?}");
        };
        assert!(peak > 0.0 && peak <= 0.5, "{peak}");
        let m = p.shutdown();
        assert_eq!(m.observes, 30);
        assert_eq!(m.predicts, 1);
        assert_eq!(m.machines, 1);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        let p = pool(1, 2);
        // Block the worker: a Predict whose reply goes to a rendezvous
        // channel stalls in reply.send() until we receive — deterministic,
        // no sleeps.
        p.try_send(0, observe(1, 0, 0.2)).unwrap();
        let (reply, rx) = sync_channel::<Response>(0);
        p.send(
            0,
            ShardMsg::Predict {
                key: key(1),
                vector: false,
                reply,
                enqueued: Instant::now(),
            },
        )
        .unwrap();
        // The worker is (or will shortly be) parked in reply.send on the
        // rendezvous channel; keep filling the bounded queue until the
        // depth-2 bound trips. This terminates: at most `depth` sends
        // succeed after the worker parks.
        let mut busy = false;
        for t in 1..10_000u64 {
            match p.try_send(0, observe(1, t, 0.2)) {
                Ok(()) => {}
                Err((SendFail::Busy, _)) => {
                    busy = true;
                    break;
                }
                Err((SendFail::Closed, _)) => panic!("worker died"),
            }
        }
        assert!(busy, "bounded queue never reported Busy");
        // Release the worker and drain.
        let resp = rx.recv().unwrap();
        assert!(matches!(resp, Response::Pred { .. }));
        p.shutdown();
    }

    #[test]
    fn predict_unknown_machine_is_typed_error() {
        let p = pool(2, 8);
        let k = key(9);
        let shard = p.route(&k);
        let (reply, rx) = sync_channel(1);
        p.try_send(
            shard,
            ShardMsg::Predict {
                key: k,
                vector: false,
                reply,
                enqueued: Instant::now(),
            },
        )
        .unwrap();
        assert!(matches!(
            rx.recv().unwrap(),
            Response::Err {
                code: ErrCode::UnknownMachine,
                ..
            }
        ));
        p.shutdown();
    }

    #[test]
    fn admit_on_empty_machine_accepts_within_capacity() {
        let p = pool(1, 8);
        let (reply, rx) = sync_channel(1);
        p.try_send(
            0,
            ShardMsg::Admit {
                key: key(3),
                limit: 0.4,
                reply,
                enqueued: Instant::now(),
            },
        )
        .unwrap();
        let Response::Admitted { admit, projected } = rx.recv().unwrap() else {
            panic!("expected ADMITTED");
        };
        assert!(admit);
        assert_eq!(projected, 0.4);
        let (reply, rx) = sync_channel(1);
        p.try_send(
            0,
            ShardMsg::Admit {
                key: key(3),
                limit: 1.5,
                reply,
                enqueued: Instant::now(),
            },
        )
        .unwrap();
        let Response::Admitted { admit, .. } = rx.recv().unwrap() else {
            panic!("expected ADMITTED");
        };
        assert!(!admit, "1.5 exceeds capacity 1.0");
        p.shutdown();
    }

    #[test]
    fn queue_depth_gauge_balances_to_zero_after_drain() {
        let registry = MetricsRegistry::new();
        let p = ShardPool::new(
            &ServeConfig::default().with_shards(2).with_queue_depth(1024),
            &registry,
        )
        .unwrap();
        for t in 0..100u64 {
            let k = key((t % 7) as u32);
            let shard = p.route(&k);
            p.try_send(shard, observe((t % 7) as u32, t / 7, 0.2))
                .unwrap();
        }
        p.shutdown();
        let snap = registry.snapshot();
        for i in 0..2 {
            assert_eq!(
                snap.gauge(&format!("serve.shard.queue_depth.{i}")),
                Some(0),
                "every enqueue must be matched by a dequeue"
            );
        }
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let p = pool(1, 1024);
        for t in 0..500u64 {
            p.try_send(0, observe(1, t, 0.2)).unwrap();
        }
        let m = p.shutdown();
        assert_eq!(m.observes, 500, "shutdown must drain, not drop");
    }

    #[test]
    fn handoff_log_keeps_ingested_samples_in_order_and_skips_rejects() {
        let p = ShardPool::new(
            &ServeConfig::default()
                .with_shards(1)
                .with_queue_depth(64)
                .with_handoff_log(true),
            &MetricsRegistry::new(),
        )
        .unwrap();
        p.try_send(0, observe(1, 5, 0.2)).unwrap();
        p.try_send(0, observe(1, 6, 0.3)).unwrap();
        p.try_send(0, observe(1, 5, 0.2)).unwrap(); // stale: not logged
        p.try_send(0, observe(2, 1, 0.1)).unwrap();
        let (reply, rx) = sync_channel(1);
        p.send(0, ShardMsg::Handoff { reply }).unwrap();
        let log = rx.recv().unwrap();
        assert_eq!(log.len(), 3, "only successful ingests are logged");
        assert_eq!(
            log.iter()
                .map(|e| (e.key.1 .0, e.tick.0))
                .collect::<Vec<_>>(),
            vec![(1, 5), (1, 6), (2, 1)],
            "arrival order preserved"
        );
        // Disabled log answers empty, not an error at this layer (the
        // frontend turns it into ERR internal before asking).
        let p2 = pool(1, 8);
        p2.try_send(0, observe(1, 0, 0.2)).unwrap();
        let (reply, rx) = sync_channel(1);
        p2.send(0, ShardMsg::Handoff { reply }).unwrap();
        assert!(rx.recv().unwrap().is_empty());
        p.shutdown();
        p2.shutdown();
    }

    #[test]
    fn stale_samples_count_without_killing_the_shard() {
        let p = pool(1, 64);
        p.try_send(0, observe(1, 5, 0.2)).unwrap();
        p.try_send(0, observe(1, 6, 0.2)).unwrap();
        p.try_send(0, observe(1, 5, 0.2)).unwrap(); // stale
        p.try_send(0, observe(1, 7, 0.2)).unwrap();
        let m = p.shutdown();
        assert_eq!(m.observes, 3);
        assert_eq!(m.stale, 1);
    }
}
