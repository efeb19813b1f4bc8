//! The TCP front end.
//!
//! One readiness-driven accept thread feeds a small fixed pool of reactor
//! threads multiplexing every connection over `epoll`/`poll` (the
//! `reactor` module). Each request line is applied to the owning shard
//! (see [`crate::shard`]) by the reactor thread that parsed it, under
//! that shard's lock, and answered with exactly one response line, in
//! request order, so clients may pipeline freely.
//!
//! `OBSERVE` is acknowledged once *applied*: a run of consecutive
//! same-shard samples is buffered per connection, applied under one lock
//! acquisition, and only then answered with its `OK`s. Whether a sample
//! was ingested, stale or invalid surfaces in the `STATS` counters
//! (`stale`, `errors`) rather than per request. `PREDICT`/`ADMIT` are
//! computed on the spot and always reflect every sample acknowledged
//! before them, on any connection.
//!
//! **Connection lifecycle.** Every accepted socket is bounded by an idle
//! deadline (`idle_timeout`, after which the connection is answered
//! `ERR timeout` and closed) and a write deadline (`write_timeout`, so a
//! peer that stops reading its responses cannot pin server resources),
//! and counted against a `max_connections` cap — excess connects get
//! `ERR conn-limit` and are closed immediately (both are retryable;
//! `oc-client` does so). The deadlines are enforced by each reactor
//! thread's periodic deadline sweep (see `docs/PROTOCOL.md` for the
//! timing contract).
//!
//! **Shutdown.** [`Server::shutdown`] raises the stop flag and fires the
//! accept waker (the accept thread is readiness-driven — there is no
//! polling interval to wait out), wakes and joins the reactor threads
//! (each applies and acknowledges what its connections still buffer),
//! closes every shard under its lock, and returns the final merged
//! [`StatsSnapshot`] — the "flush a final snapshot" part of the contract.
//! There is no queue to drain: what was acknowledged was applied.
//! [`ShutdownOutcome::clean`] records that every frontend thread exited
//! normally. A truncated final line (EOF without a newline) is
//! discarded as an incomplete request, never dispatched — a client that
//! died mid-write cannot ingest a half request.

use crate::accept::{accept_loop, accept_poller};
use crate::config::{OwnershipMap, RingInfo, ServeConfig};
use crate::error::ServeError;
use crate::fault::FaultCounters;
use crate::metrics::ShardMetrics;
use crate::proto::{pack_epoch, ErrCode, Request, Response, StatsSnapshot};
use crate::reactor::ReactorPool;
use crate::shard::{HandoffEntry, MachineKey, ShardPool};
use oc_telemetry::metrics::encode_exposition;
use oc_telemetry::{Counter, Gauge, MetricsRegistry};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared state between the server handle and its threads.
#[derive(Debug)]
pub(crate) struct Shared {
    /// Accept no further connections; the accept and reactor threads exit
    /// at their next wake.
    pub(crate) stop: AtomicBool,
    /// The server's metrics registry — every counter/gauge below lives
    /// here so the `METRICS` verb can expose them by name (see
    /// `docs/OPERATIONS.md` for the dictionary).
    pub(crate) metrics: MetricsRegistry,
    /// Connections closed at the idle deadline (`serve.timeouts`).
    pub(crate) timeouts: Arc<Counter>,
    /// Connections rejected at the cap (`serve.conn_rejects`).
    pub(crate) conn_rejects: Arc<Counter>,
    /// Accept-path failures — a socket dropped because it could not be
    /// made non-blocking or registered with a reactor, or a listener
    /// `accept` error (`serve.accept.errors`).
    pub(crate) accept_errors: Arc<Counter>,
    /// Live connections (`serve.connections`).
    pub(crate) connections: Arc<Gauge>,
    /// Reactor event-loop iterations (`serve.reactor.wakeups`).
    pub(crate) reactor_wakeups: Arc<Counter>,
    /// Connections currently owned by reactor threads
    /// (`serve.reactor.conns_active`).
    pub(crate) reactor_conns: Arc<Gauge>,
    /// Writes that hit `WouldBlock` and armed write interest — one per
    /// blocked transition, not per retry
    /// (`serve.reactor.writes_blocked`).
    pub(crate) reactor_writes_blocked: Arc<Counter>,
    /// Request lines answered `ERR parse` (`serve.parse_errors`).
    pub(crate) parse_errors: Arc<Counter>,
    /// Per-verb request counters (`serve.requests.<verb>`).
    pub(crate) requests: RequestCounters,
    /// Sub-requests received inside `BATCH` frames
    /// (`serve.batch.requests`).
    pub(crate) batch_requests: Arc<Counter>,
    /// Lock acquisitions saved by the frontend micro-batcher: for every
    /// multi-sample chunk applied, `len - 1` (`serve.batch.coalesced`).
    pub(crate) batch_coalesced: Arc<Counter>,
    /// Frontend `PREDICT` result cache.
    pub(crate) cache: PredictCache,
    /// Requests answered `ERR not-mine` because the key's role is
    /// [`KeyRole::Remote`](crate::config::KeyRole::Remote) under the cluster ring
    /// (`serve.cluster.not_mine`).
    pub(crate) not_mine: Arc<Counter>,
    /// Server identity stamp: process start (unix seconds) packed with
    /// the ring generation — reported in every `STATS` line. Re-packed
    /// (same start, new generation) when `RINGSET` bumps the ring.
    pub(crate) epoch: AtomicU64,
    /// The process-start half of the epoch, retained so an online
    /// generation bump re-packs with the original start stamp.
    pub(crate) epoch_start: u64,
    /// Ring description served by `RING` and replaced by `RINGSET`.
    pub(crate) ring: Mutex<RingState>,
    /// The live ownership classifier (`None` = standalone). Swapped as a
    /// whole by `RINGSET`; the hot path reads a per-connection cached
    /// clone refreshed on [`Shared::ring_version`] changes, so steady
    /// state costs one atomic load per line, not a lock.
    pub(crate) ownership: Mutex<Option<OwnershipMap>>,
    /// Bumped on every ownership swap; connections compare it against
    /// their cached snapshot's stamp.
    pub(crate) ring_version: AtomicU64,
    /// Faults injected by the server-side chaos plan (if configured).
    pub(crate) faults: Arc<FaultCounters>,
    /// Connection-id allocator: the fault plan seeds every connection's
    /// schedules from its id.
    pub(crate) next_conn_id: AtomicU64,
    /// Per-connection deadlines, the connection cap, and the optional
    /// fault plan.
    pub(crate) cfg: ConnSettings,
    /// Set when a client sent `SHUTDOWN`; wakes [`Server::wait`].
    pub(crate) shutdown_requested: Mutex<bool>,
    pub(crate) shutdown_cv: Condvar,
}

impl Shared {
    /// Registers every server-level metric on `metrics` and snapshots the
    /// connection settings and ring state out of `cfg`. `metrics` must be
    /// the registry the [`ShardPool`] was built on, so shard counters
    /// and server counters share one namespace.
    pub(crate) fn new(cfg: &ServeConfig, metrics: MetricsRegistry, epoch_start: u64) -> Shared {
        // Reserved: this server has no condition under which it answers
        // `BUSY`, but the name stays in the exposition (always 0) beside
        // `STATS busy=` for the dashboards and aggregators that read it.
        metrics.counter("serve.busy");
        Shared {
            stop: AtomicBool::new(false),
            timeouts: metrics.counter("serve.timeouts"),
            conn_rejects: metrics.counter("serve.conn_rejects"),
            accept_errors: metrics.counter("serve.accept.errors"),
            connections: metrics.gauge("serve.connections"),
            reactor_wakeups: metrics.counter("serve.reactor.wakeups"),
            reactor_conns: metrics.gauge("serve.reactor.conns_active"),
            reactor_writes_blocked: metrics.counter("serve.reactor.writes_blocked"),
            parse_errors: metrics.counter("serve.parse_errors"),
            requests: RequestCounters::new(&metrics),
            batch_requests: metrics.counter("serve.batch.requests"),
            batch_coalesced: metrics.counter("serve.batch.coalesced"),
            cache: PredictCache::new(&metrics),
            not_mine: metrics.counter("serve.cluster.not_mine"),
            epoch: AtomicU64::new(pack_epoch(epoch_start, cfg.ring_generation)),
            epoch_start,
            ring: Mutex::new(RingState {
                info: cfg.ring_info,
                generation: cfg.ring_generation,
                addrs: Vec::new(),
            }),
            ownership: Mutex::new(cfg.ownership.clone()),
            ring_version: AtomicU64::new(0),
            metrics,
            faults: Arc::new(FaultCounters::default()),
            next_conn_id: AtomicU64::new(0),
            cfg: ConnSettings {
                idle_timeout: cfg.idle_timeout,
                write_timeout: cfg.write_timeout,
                max_connections: cfg.max_connections,
                faults: cfg.faults.clone(),
                reactor_threads_effective: cfg.effective_reactor_threads(),
                handoff_log: cfg.handoff_log,
                ownership_factory: cfg.ownership_factory.clone(),
            },
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        }
    }
}

/// Mutable cluster-ring description, replaced online by `RINGSET`.
#[derive(Debug)]
pub(crate) struct RingState {
    /// Ring geometry; `None` on a standalone server (RING answers `ERR`).
    pub(crate) info: Option<RingInfo>,
    /// Full 64-bit ring generation (the epoch only carries it mod 2^16).
    pub(crate) generation: u64,
    /// Member data-plane addresses in ring-index order; empty until the
    /// supervisor pushes them.
    pub(crate) addrs: Vec<String>,
}

/// One counter per protocol verb, bumped at dispatch.
#[derive(Debug)]
pub(crate) struct RequestCounters {
    pub(crate) observe: Arc<Counter>,
    pub(crate) predict: Arc<Counter>,
    pub(crate) admit: Arc<Counter>,
    pub(crate) stats: Arc<Counter>,
    pub(crate) metrics: Arc<Counter>,
    pub(crate) ring: Arc<Counter>,
    pub(crate) ring_set: Arc<Counter>,
    pub(crate) handoff: Arc<Counter>,
    pub(crate) shutdown: Arc<Counter>,
}

impl RequestCounters {
    fn new(registry: &MetricsRegistry) -> RequestCounters {
        RequestCounters {
            observe: registry.counter("serve.requests.observe"),
            predict: registry.counter("serve.requests.predict"),
            admit: registry.counter("serve.requests.admit"),
            stats: registry.counter("serve.requests.stats"),
            metrics: registry.counter("serve.requests.metrics"),
            ring: registry.counter("serve.requests.ring"),
            ring_set: registry.counter("serve.requests.ringset"),
            handoff: registry.counter("serve.requests.handoff"),
            shutdown: registry.counter("serve.requests.shutdown"),
        }
    }
}

/// Generation stripes in the [`PredictCache`]. Collisions between
/// machines on one stripe only cause spurious invalidation (extra cache
/// misses), never a stale hit.
const GEN_STRIPES: usize = 1024;

/// Frontend `PREDICT` result cache, invalidated by observe-generation
/// stamps.
///
/// Every *applied* observe bumps its machine's generation stripe (bump
/// strictly after the apply, before the `OK` is written, so a
/// connection's own predicts always see its own acknowledged samples). A
/// predict reads the generation *before* it touches the shard, and the
/// computed peak is stored stamped with that generation; a later predict
/// whose current generation still matches is served the stored bits
/// without taking the shard's lock. A matching generation proves no
/// sample was applied to the stripe since the stored value was computed,
/// and predictions are a pure function of ingested state — so a hit is
/// bit-identical to what the shard would recompute, preserving the
/// served-vs-offline identity (including under chaos, where retried
/// observes simply bump again). Races only ever invalidate
/// conservatively: a generation read concurrent with an apply misses.
#[derive(Debug)]
pub(crate) struct PredictCache {
    /// Striped observe-generation stamps, indexed by
    /// [`key_hash`](crate::shard::key_hash).
    gens: Vec<AtomicU64>,
    /// Last computed result per machine and shape, stamped with the
    /// generation read before its shard was touched.
    entries: Mutex<HashMap<MachineKey, CacheSlot>>,
    /// Predicts served from the cache (`serve.predict.cache_hit`).
    pub(crate) hits: Arc<Counter>,
    /// Predicts computed on a shard (`serve.predict.cache_miss`).
    pub(crate) misses: Arc<Counter>,
}

/// One machine's cached predictions, one slot per response shape. The
/// scalar and vector forms answer different questions (a blended peak vs
/// per-lane CPU/memory peaks), so a hit must match the query's shape —
/// but both slots share the machine's generation stripe, so any observe
/// (either lane arrives in the same `OBSERVE` line) invalidates both.
#[derive(Debug, Clone, Copy, Default)]
struct CacheSlot {
    /// `(generation, peak)` for `PREDICT cell machine`.
    scalar: Option<(u64, f64)>,
    /// `(generation, cpu_peak, mem_peak)` for `PREDICT cell machine *`.
    vector: Option<(u64, f64, f64)>,
}

impl PredictCache {
    fn new(registry: &MetricsRegistry) -> PredictCache {
        PredictCache {
            gens: (0..GEN_STRIPES).map(|_| AtomicU64::new(0)).collect(),
            entries: Mutex::new(HashMap::new()),
            hits: registry.counter("serve.predict.cache_hit"),
            misses: registry.counter("serve.predict.cache_miss"),
        }
    }

    /// The generation stripe of the key hashing to `hash`.
    pub(crate) fn stripe_of(&self, hash: u64) -> usize {
        (hash % GEN_STRIPES as u64) as usize
    }

    pub(crate) fn generation(&self, stripe: usize) -> u64 {
        self.gens[stripe].load(Ordering::SeqCst)
    }

    /// Bumps a stripe once for `n` samples. Generations are only ever
    /// compared for equality, so one `+n` invalidates exactly like `n`
    /// separate bumps while costing a single atomic.
    pub(crate) fn bump_n(&self, stripe: usize, n: u64) {
        self.gens[stripe].fetch_add(n, Ordering::SeqCst);
    }

    /// The cached response for `key` in the query's shape, if its stamp
    /// still matches `gen_now`.
    pub(crate) fn lookup(&self, key: &MachineKey, gen_now: u64, vector: bool) -> Option<Response> {
        let entries = self.entries.lock().expect("predict cache lock");
        let slot = entries.get(key)?;
        if vector {
            match slot.vector {
                Some((gen, cpu, mem)) if gen == gen_now => Some(Response::Pred {
                    peak: cpu,
                    mem: Some(mem),
                }),
                _ => None,
            }
        } else {
            match slot.scalar {
                Some((gen, peak)) if gen == gen_now => Some(Response::Pred { peak, mem: None }),
                _ => None,
            }
        }
    }

    /// Stores a shard-computed prediction under the generation read
    /// before the shard was touched. The other shape's slot is left alone: its own stamp
    /// already decides whether it is still current.
    pub(crate) fn store(&self, key: MachineKey, gen: u64, peak: f64, mem: Option<f64>) {
        let mut entries = self.entries.lock().expect("predict cache lock");
        let slot = entries.entry(key).or_default();
        match mem {
            Some(mem) => slot.vector = Some((gen, peak, mem)),
            None => slot.scalar = Some((gen, peak)),
        }
    }

    /// Drops every cached entry. Called on a ring install: ownership may
    /// have moved keys, and a full clear is cheap at ring-change
    /// frequency.
    pub(crate) fn clear(&self) {
        self.entries.lock().expect("predict cache lock").clear();
    }
}

/// The slice of [`ServeConfig`] the accept loop and the reactors need.
#[derive(Debug, Clone)]
pub(crate) struct ConnSettings {
    pub(crate) idle_timeout: Duration,
    pub(crate) write_timeout: Duration,
    pub(crate) max_connections: usize,
    pub(crate) faults: Option<crate::fault::FaultPlan>,
    /// Resolved reactor pool size
    /// ([`ServeConfig::effective_reactor_threads`]).
    pub(crate) reactor_threads_effective: usize,
    /// Whether shards keep the handoff sample log (`HANDOFF` answers
    /// `ERR internal` when disabled).
    pub(crate) handoff_log: bool,
    /// Rebuilds this process's ownership map for a pushed ring geometry
    /// (`RINGSET`); `None` limits pushes to same-geometry metadata.
    pub(crate) ownership_factory: Option<crate::config::OwnershipFactory>,
}

/// What [`Server::shutdown_outcome`] observed while draining.
#[derive(Debug, Clone)]
pub struct ShutdownOutcome {
    /// The final merged snapshot, identical to what a last `STATS` would
    /// have reported (plus what the reactor threads applied on their way
    /// out).
    pub stats: StatsSnapshot,
    /// `true` when the accept thread and every reactor thread exited
    /// normally, so the snapshot covers everything they acknowledged. A
    /// frontend thread that panicked may have poisoned a shard's lock,
    /// and that shard's counters are then missing from `stats`.
    pub clean: bool,
}

/// A running peak-prediction service.
///
/// # Examples
///
/// ```no_run
/// use oc_serve::config::ServeConfig;
/// use oc_serve::server::Server;
///
/// let server = Server::start(ServeConfig::default()).unwrap();
/// println!("serving on {}", server.addr());
/// let stats = server.shutdown();
/// println!("served {} observes", stats.observes);
/// ```
pub struct Server {
    addr: SocketAddr,
    pool: Option<Arc<ShardPool>>,
    accept_handle: Option<JoinHandle<()>>,
    /// Wakes the accept thread out of its readiness wait at shutdown.
    accept_waker: Arc<oc_reactor::Waker>,
    reactor: Arc<ReactorPool>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `cfg.addr`, spawns the shard pool, the reactor pool, and
    /// the accept loop.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid config and
    /// [`ServeError::Io`] for bind failures — including an `Unsupported`
    /// error on targets without a readiness backend (non-Unix).
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        cfg.validate()?;
        // Serving tens of thousands of connections needs the fd headroom;
        // best-effort, the connection cap still governs admission.
        let _ = oc_reactor::raise_nofile_limit();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics = MetricsRegistry::new();
        let pool = Arc::new(ShardPool::new(&cfg, &metrics)?);
        let epoch_start = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let shared = Arc::new(Shared::new(&cfg, metrics, epoch_start));

        // Readiness-driven accept: the thread sleeps until a connection
        // arrives or the waker fires at shutdown — no stop-poll interval.
        let (poller, waker) = accept_poller(&listener)?;
        let reactor = Arc::new(ReactorPool::start(
            shared.cfg.reactor_threads_effective,
            &pool,
            &shared,
        )?);

        let accept_reactor = Arc::clone(&reactor);
        let accept_shared = Arc::clone(&shared);
        let accept_waker = Arc::clone(&waker);
        let accept_handle = std::thread::Builder::new()
            .name("oc-serve-accept".to_string())
            .spawn(move || {
                accept_loop(
                    listener,
                    poller,
                    accept_waker,
                    accept_reactor,
                    accept_shared,
                )
            })
            .map_err(ServeError::Io)?;

        Ok(Server {
            addr,
            pool: Some(pool),
            accept_handle: Some(accept_handle),
            accept_waker: waker,
            reactor,
            shared,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client sends `SHUTDOWN`.
    pub fn wait(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag lock");
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .expect("shutdown flag lock");
        }
    }

    /// Stops accepting, joins every frontend thread, closes every shard,
    /// and returns the final merged snapshot.
    pub fn shutdown(self) -> StatsSnapshot {
        self.shutdown_outcome().stats
    }

    /// Like [`Server::shutdown`] but also reports whether every frontend
    /// thread exited normally (it always should; tests assert it).
    pub fn shutdown_outcome(mut self) -> ShutdownOutcome {
        self.finish()
    }

    fn finish(&mut self) -> ShutdownOutcome {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept thread is blocked in a readiness wait; the waker
        // makes the join immediate.
        let _ = self.accept_waker.wake();
        let accept_clean = match self.accept_handle.take() {
            Some(h) => h.join().is_ok(),
            None => true,
        };
        // Reactor threads are woken explicitly; each applies what its
        // connections still buffer before it exits, so once they are
        // joined the shards hold every acknowledged sample.
        let clean = self.reactor.stop_and_join() && accept_clean;
        match self.pool.take() {
            Some(pool) => {
                let stats = server_stats(pool.shutdown(), &self.shared);
                ShutdownOutcome { stats, clean }
            }
            None => ShutdownOutcome {
                stats: StatsSnapshot::default(),
                clean: true,
            },
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.pool.is_some() {
            let _ = self.finish();
        }
    }
}

/// Answers an over-cap connection with a retryable error and closes it.
pub(crate) fn reject_over_cap(mut stream: TcpStream, shared: &Shared) {
    // Accepted sockets are non-blocking; the one-line reject is simplest
    // with blocking writes and a deadline.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let resp = Response::Err {
        code: ErrCode::ConnLimit,
        detail: format!(
            "server at its {}-connection cap; retry later",
            shared.cfg.max_connections
        ),
    };
    let _ = stream.write_all(resp.encode().as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Folds the server-level counters into merged shard metrics and
/// summarizes them into the wire snapshot (`STATS`, and the final
/// snapshot of a shutdown).
fn server_stats(mut merged: ShardMetrics, shared: &Shared) -> StatsSnapshot {
    merged.faults += shared.faults.total();
    merged.timeouts += shared.timeouts.get();
    merged.conn_rejects += shared.conn_rejects.get();
    // `predicts` reports predictions *served*: the shard counter only
    // sees cache misses.
    merged.predicts += shared.cache.hits.get();
    let mut snapshot = merged.snapshot();
    snapshot.epoch = shared.epoch.load(Ordering::SeqCst);
    snapshot
}

/// Answers a control verb. The data plane never comes through here:
/// `OBSERVE` is micro-batched, `PREDICT`/`ADMIT` are computed under the
/// shard's lock, and `HANDOFF`'s multi-line dump is streamed, all by the
/// connection layer (`conn::process_line`).
pub(crate) fn dispatch(req: Request, pool: &ShardPool, shared: &Shared) -> Response {
    match req {
        Request::Observe { .. }
        | Request::Predict { .. }
        | Request::Admit { .. }
        | Request::Handoff => {
            unreachable!("data-plane verbs and HANDOFF are handled by the connection layer")
        }
        Request::Stats => {
            shared.requests.stats.inc();
            match merge_shard_metrics(pool) {
                Ok(merged) => Response::Stats(server_stats(merged, shared)),
                Err(resp) => resp,
            }
        }
        Request::Metrics => {
            shared.requests.metrics.inc();
            let merged = match merge_shard_metrics(pool) {
                Ok(m) => m,
                Err(resp) => return resp,
            };
            // Registry view (serve.* counters/gauges, per-shard lock
            // contention) plus the shard-owned counters and the latency
            // distribution, all in one exposition.
            let mut snap = shared.metrics.snapshot();
            snap.set_counter("serve.observes", merged.observes);
            snap.set_counter("serve.predicts", merged.predicts + shared.cache.hits.get());
            snap.set_counter("serve.admits", merged.admits);
            snap.set_counter("serve.stale", merged.stale);
            snap.set_counter("serve.errors", merged.errors);
            snap.set_counter("serve.faults", shared.faults.total());
            snap.set_gauge("serve.machines", merged.machines as i64);
            snap.set_histogram("serve.latency_us", merged.latency);
            Response::Metrics {
                exposition: encode_exposition(&snap),
            }
        }
        Request::Ring => {
            shared.requests.ring.inc();
            let ring = shared.ring.lock().expect("ring state lock");
            match ring.info {
                Some(info) => Response::Ring {
                    nodes: info.nodes as u64,
                    vnodes: info.vnodes as u64,
                    seed: info.seed,
                    generation: ring.generation,
                    epoch: shared.epoch.load(Ordering::SeqCst),
                    addrs: ring.addrs.clone(),
                },
                None => Response::Err {
                    code: ErrCode::Internal,
                    detail: "standalone server: no ring installed".to_string(),
                },
            }
        }
        Request::RingSet {
            nodes,
            vnodes,
            seed,
            generation,
            addrs,
        } => {
            shared.requests.ring_set.inc();
            install_ring(shared, nodes, vnodes, seed, generation, addrs)
        }
        Request::Shutdown => {
            shared.requests.shutdown.inc();
            let mut requested = shared
                .shutdown_requested
                .lock()
                .expect("shutdown flag lock");
            *requested = true;
            shared.shutdown_cv.notify_all();
            Response::Ok
        }
    }
}

/// Installs a pushed ring (`RINGSET`): rejects stale generations,
/// rebuilds the ownership map, re-packs the epoch with the original
/// start stamp, clears the predict cache, and bumps the ownership
/// version so every connection refreshes its cached map.
fn install_ring(
    shared: &Shared,
    nodes: u64,
    vnodes: u64,
    seed: u64,
    generation: u64,
    addrs: Vec<String>,
) -> Response {
    if nodes == 0 || vnodes == 0 {
        return Response::Err {
            code: ErrCode::Parse,
            detail: "RINGSET needs nodes >= 1 and vnodes >= 1".to_string(),
        };
    }
    let mut ring = shared.ring.lock().expect("ring state lock");
    if generation < ring.generation {
        return Response::Err {
            code: ErrCode::Stale,
            detail: format!(
                "pushed generation {generation} is behind installed {}",
                ring.generation
            ),
        };
    }
    let info = RingInfo {
        nodes: nodes as usize,
        vnodes: vnodes as usize,
        seed,
    };
    // A server with an ownership factory recomputes its slot's map for
    // the pushed geometry; one without (ownership handed in fixed at
    // start, or standalone) can only adopt generation/address updates
    // on the geometry it was built with.
    let rebuilt = match &shared.cfg.ownership_factory {
        Some(factory) => match factory.build(info.nodes, info.vnodes, info.seed) {
            Some(map) => map,
            None => {
                return Response::Err {
                    code: ErrCode::Internal,
                    detail: "this process holds no slot in the pushed ring".to_string(),
                }
            }
        },
        None => {
            let standalone = shared.ownership.lock().expect("ownership lock").is_none();
            if ring.info != Some(info) && !standalone {
                return Response::Err {
                    code: ErrCode::Internal,
                    detail: "no ownership factory: cannot adopt a new ring geometry".to_string(),
                };
            }
            ring.info = Some(info);
            ring.generation = generation;
            ring.addrs = addrs;
            drop(ring);
            shared
                .epoch
                .store(pack_epoch(shared.epoch_start, generation), Ordering::SeqCst);
            shared.ring_version.fetch_add(1, Ordering::SeqCst);
            return Response::Ok;
        }
    };
    ring.info = Some(info);
    ring.generation = generation;
    ring.addrs = addrs;
    drop(ring);
    *shared.ownership.lock().expect("ownership lock") = Some(rebuilt);
    shared
        .epoch
        .store(pack_epoch(shared.epoch_start, generation), Ordering::SeqCst);
    // Ownership may have moved keys to or away from this process;
    // cached predictions must not outlive the map they were computed
    // under.
    shared.cache.clear();
    shared.ring_version.fetch_add(1, Ordering::SeqCst);
    Response::Ok
}

/// Copies every shard's handoff log for a `HANDOFF` dump, in shard
/// order, one lock at a time. Per-machine sample order is preserved: a
/// machine lives on exactly one shard and each shard's log is
/// append-only.
pub(crate) fn collect_handoff(pool: &ShardPool) -> Result<Vec<HandoffEntry>, Response> {
    let mut entries = Vec::new();
    for shard in 0..pool.shards() {
        let locked = pool.lock(shard).map_err(|_closed| shutting_down())?;
        entries.extend_from_slice(locked.handoff());
    }
    Ok(entries)
}

/// Merges every shard's metrics snapshot, one lock at a time (the
/// `STATS` / `METRICS` read path).
fn merge_shard_metrics(pool: &ShardPool) -> Result<ShardMetrics, Response> {
    let mut merged = ShardMetrics::default();
    for shard in 0..pool.shards() {
        let locked = pool.lock(shard).map_err(|_closed| shutting_down())?;
        merged.merge(&locked.snapshot());
    }
    Ok(merged)
}

pub(crate) fn shutting_down() -> Response {
    Response::Err {
        code: ErrCode::Shutdown,
        detail: "server is shutting down".to_string(),
    }
}

/// Version-stamped clone of the live ownership map, for per-connection
/// caching: callers re-snapshot when [`ring_version`] moves past the
/// stamp. The version is read *before* the map, so a concurrent
/// `RINGSET` can only make the pair look older than it is — forcing a
/// refresh, never pinning a stale map.
pub(crate) fn ownership_snapshot(shared: &Shared) -> (u64, Option<OwnershipMap>) {
    let version = shared.ring_version.load(Ordering::SeqCst);
    let map = shared.ownership.lock().expect("ownership lock").clone();
    (version, map)
}

/// Current ownership version stamp (see [`ownership_snapshot`]).
pub(crate) fn ring_version(shared: &Shared) -> u64 {
    shared.ring_version.load(Ordering::SeqCst)
}

/// The `ERR not-mine` redirect, counted in `serve.cluster.not_mine`.
pub(crate) fn not_mine(shared: &Shared) -> Response {
    shared.not_mine.inc();
    Response::Err {
        code: ErrCode::NotMine,
        detail: "key not owned by this process; re-resolve the ring".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader};
    use std::net::Shutdown;
    use std::time::Instant;

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    fn roundtrip(
        reader: &mut BufReader<TcpStream>,
        writer: &mut TcpStream,
        line: &str,
    ) -> Response {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut buf = String::new();
        reader.read_line(&mut buf).unwrap();
        Response::parse(buf.trim_end()).unwrap()
    }

    #[test]
    fn end_to_end_observe_predict_stats() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let (mut r, mut w) = client(server.addr());
        for t in 0..30u64 {
            let resp = roundtrip(&mut r, &mut w, &format!("OBSERVE a 0 1:0 0.2 0.5 {t}"));
            assert_eq!(resp, Response::Ok);
        }
        let Response::Pred { peak, .. } = roundtrip(&mut r, &mut w, "PREDICT a 0") else {
            panic!("expected PRED");
        };
        assert!(peak > 0.0 && peak <= 0.5);
        let Response::Stats(s) = roundtrip(&mut r, &mut w, "STATS") else {
            panic!("expected STATS");
        };
        assert_eq!(s.observes, 30);
        assert_eq!(s.predicts, 1);
        assert_eq!(s.machines, 1);
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.conn_rejects, 0);
        assert_eq!(s.faults, 0);
        assert!(s.p50_us >= 0.0);
        drop((r, w));
        let final_stats = server.shutdown();
        assert_eq!(final_stats.observes, 30);
    }

    #[test]
    fn metrics_verb_exposes_registry_and_shard_state() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let (mut r, mut w) = client(server.addr());
        for t in 0..25u64 {
            assert_eq!(
                roundtrip(&mut r, &mut w, &format!("OBSERVE a 0 1:0 0.2 0.5 {t}")),
                Response::Ok
            );
        }
        assert!(matches!(
            roundtrip(&mut r, &mut w, "PREDICT a 0"),
            Response::Pred { .. }
        ));
        roundtrip(&mut r, &mut w, "NONSENSE");
        let Response::Metrics { exposition } = roundtrip(&mut r, &mut w, "METRICS") else {
            panic!("expected METRICS");
        };
        let m = oc_telemetry::metrics::parse_exposition(&exposition).unwrap();
        assert_eq!(m["serve.observes"], 25.0);
        assert_eq!(m["serve.requests.observe"], 25.0);
        assert_eq!(m["serve.predicts"], 1.0);
        assert_eq!(m["serve.requests.predict"], 1.0);
        assert_eq!(m["serve.parse_errors"], 1.0);
        assert_eq!(m["serve.requests.metrics"], 1.0);
        assert_eq!(m["serve.connections"], 1.0, "this connection is live");
        assert_eq!(m["serve.machines"], 1.0);
        assert_eq!(m["serve.busy"], 0.0);
        assert_eq!(m["serve.accept.errors"], 0.0);
        assert!(m.contains_key("serve.reactor.wakeups"));
        assert!(m.contains_key("serve.reactor.conns_active"));
        assert!(m.contains_key("serve.reactor.writes_blocked"));
        assert_eq!(m["serve.shard.contended.0"], 0.0, "one connection");
        assert_eq!(m["serve.shard.contended.1"], 0.0);
        assert_eq!(m["serve.predict.cache_miss"], 1.0);
        assert_eq!(m["serve.latency_us.count"], 25.0, "one per observe");
        assert!(m["serve.latency_us.p50"] >= 0.0);
        assert!(m["serve.latency_us.max"] >= m["serve.latency_us.p50"]);
        // The exposition agrees with STATS on the shared counters.
        let Response::Stats(s) = roundtrip(&mut r, &mut w, "STATS") else {
            panic!("expected STATS");
        };
        assert_eq!(s.observes, m["serve.observes"] as u64);
        assert_eq!(s.predicts, m["serve.predicts"] as u64);
        drop((r, w));
        server.shutdown();
    }

    /// Satellite: vector `PREDICT … *` results participate in the
    /// frontend predict cache. A cached vector hit must be bit-identical
    /// to the shard-computed answer, a scalar query must never be served
    /// vector bits (or vice versa), and an observe on *either* lane —
    /// cpu-only or a cpu,mem pair, both arriving as one `OBSERVE` line —
    /// invalidates the machine's vector entry.
    #[test]
    fn vector_predicts_hit_the_cache_until_either_lane_observes() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        let cache_counts = |r: &mut BufReader<TcpStream>, w: &mut TcpStream| {
            let Response::Metrics { exposition } = roundtrip(r, w, "METRICS") else {
                panic!("expected METRICS");
            };
            let m = oc_telemetry::metrics::parse_exposition(&exposition).unwrap();
            (
                m["serve.predict.cache_hit"] as u64,
                m["serve.predict.cache_miss"] as u64,
            )
        };
        for t in 0..8u64 {
            assert_eq!(
                roundtrip(
                    &mut r,
                    &mut w,
                    &format!("OBSERVE a 7 1:0 0.2,0.35 0.5,0.6 {t}")
                ),
                Response::Ok
            );
        }
        let shard_computed = roundtrip(&mut r, &mut w, "PREDICT a 7 *");
        let Response::Pred {
            peak: cpu0,
            mem: Some(mem0),
        } = shard_computed
        else {
            panic!("expected two-lane PRED, got {shard_computed:?}");
        };
        let (h0, m0) = cache_counts(&mut r, &mut w);
        let cached = roundtrip(&mut r, &mut w, "PREDICT a 7 *");
        let (h1, m1) = cache_counts(&mut r, &mut w);
        assert_eq!(h1, h0 + 1, "second vector predict is a cache hit");
        assert_eq!(m1, m0, "no extra shard dispatch");
        let Response::Pred {
            peak: cpu1,
            mem: Some(mem1),
        } = cached
        else {
            panic!("expected two-lane PRED, got {cached:?}");
        };
        assert_eq!(cpu1.to_bits(), cpu0.to_bits(), "cached cpu lane diverged");
        assert_eq!(mem1.to_bits(), mem0.to_bits(), "cached mem lane diverged");

        // A scalar query on the same (warm) machine is a different shape:
        // it must miss the vector slot and come back one-laned.
        let scalar = roundtrip(&mut r, &mut w, "PREDICT a 7");
        let (_, m2) = cache_counts(&mut r, &mut w);
        assert_eq!(m2, m1 + 1, "scalar query never reuses the vector slot");
        assert!(
            matches!(scalar, Response::Pred { mem: None, .. }),
            "scalar shape preserved: {scalar:?}"
        );

        // A cpu-only observe bumps the stripe: the vector entry is stale.
        assert_eq!(
            roundtrip(&mut r, &mut w, "OBSERVE a 7 1:0 0.4 0.5 8"),
            Response::Ok
        );
        let (_, m3) = cache_counts(&mut r, &mut w);
        let recomputed = roundtrip(&mut r, &mut w, "PREDICT a 7 *");
        let (_, m4) = cache_counts(&mut r, &mut w);
        assert_eq!(m4, m3 + 1, "cpu-lane observe invalidated the vector entry");
        assert!(matches!(recomputed, Response::Pred { mem: Some(_), .. }));

        // A mem-carrying observe invalidates again.
        assert_eq!(
            roundtrip(&mut r, &mut w, "OBSERVE a 7 1:0 0.1,0.5 0.5,0.6 9"),
            Response::Ok
        );
        let (_, m5) = cache_counts(&mut r, &mut w);
        let after_mem = roundtrip(&mut r, &mut w, "PREDICT a 7 *");
        let (h6, m6) = cache_counts(&mut r, &mut w);
        assert_eq!(m6, m5 + 1, "mem-lane observe invalidated the vector entry");
        let Response::Pred { mem: Some(_), .. } = after_mem else {
            panic!("expected two-lane PRED, got {after_mem:?}");
        };
        // And the fresh entry serves hits again, bit-identical.
        let warm = roundtrip(&mut r, &mut w, "PREDICT a 7 *");
        let (h7, _) = cache_counts(&mut r, &mut w);
        assert_eq!(h7, h6 + 1);
        let (
            Response::Pred {
                peak: a,
                mem: Some(b),
            },
            Response::Pred {
                peak: c,
                mem: Some(d),
            },
        ) = (after_mem, warm)
        else {
            panic!("expected two-lane PREDs");
        };
        assert_eq!(a.to_bits(), c.to_bits());
        assert_eq!(b.to_bits(), d.to_bits());
        drop((r, w));
        server.shutdown();
    }

    /// The reactor frontend reports its own liveness metrics.
    #[test]
    fn reactor_metrics_track_connection_ownership() {
        if !cfg!(unix) {
            return;
        }
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        assert_eq!(
            roundtrip(&mut r, &mut w, "OBSERVE a 0 1:0 0.2 0.5 1"),
            Response::Ok
        );
        let Response::Metrics { exposition } = roundtrip(&mut r, &mut w, "METRICS") else {
            panic!("expected METRICS");
        };
        let m = oc_telemetry::metrics::parse_exposition(&exposition).unwrap();
        assert_eq!(
            m["serve.reactor.conns_active"], 1.0,
            "this connection is reactor-owned"
        );
        assert!(m["serve.reactor.wakeups"] >= 1.0);
        drop((r, w));
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_parse_errors_not_disconnects() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        for bad in [
            "NONSENSE",
            "OBSERVE a 0",
            "OBSERVE a 0 1:0 NaN 0.5 1",
            "OBSERVE a 0 badtask 0.1 0.5 1",
        ] {
            let resp = roundtrip(&mut r, &mut w, bad);
            assert!(
                matches!(
                    resp,
                    Response::Err {
                        code: ErrCode::Parse,
                        ..
                    }
                ),
                "{bad}: {resp:?}"
            );
        }
        // The connection is still usable.
        assert_eq!(
            roundtrip(&mut r, &mut w, "OBSERVE a 0 1:0 0.1 0.5 1"),
            Response::Ok
        );
        drop((r, w));
        server.shutdown();
    }

    #[test]
    fn oversized_line_closes_connection_with_error() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        let long = "X".repeat(MAX_LINE_BYTES * 2);
        w.write_all(long.as_bytes()).unwrap();
        w.flush().unwrap();
        let mut buf = String::new();
        r.read_line(&mut buf).unwrap();
        let resp = Response::parse(buf.trim_end()).unwrap();
        assert!(matches!(
            resp,
            Response::Err {
                code: ErrCode::Parse,
                ..
            }
        ));
        // Server closed its end.
        buf.clear();
        assert_eq!(r.read_line(&mut buf).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_verb_wakes_wait() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let addr = server.addr();
        let (mut r, mut w) = client(addr);
        assert_eq!(
            roundtrip(&mut r, &mut w, "OBSERVE a 0 1:0 0.1 0.5 1"),
            Response::Ok
        );
        assert_eq!(roundtrip(&mut r, &mut w, "SHUTDOWN"), Response::Ok);
        server.wait(); // Returns because the client asked for shutdown.
                       // The SHUTDOWN sender's connection is still open — shutdown must
                       // still join the reactor thread that serves it.
        let outcome = server.shutdown_outcome();
        assert!(outcome.clean, "unclean exit with a live SHUTDOWN sender");
        assert_eq!(outcome.stats.observes, 1);
        drop((r, w));
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        let mut batch = String::new();
        for t in 0..100u64 {
            batch.push_str(&format!("OBSERVE a 7 1:0 0.2 0.5 {t}\n"));
        }
        batch.push_str("PREDICT a 7\n");
        w.write_all(batch.as_bytes()).unwrap();
        w.flush().unwrap();
        let mut buf = String::new();
        for i in 0..100 {
            buf.clear();
            r.read_line(&mut buf).unwrap();
            assert_eq!(buf.trim_end(), "OK", "response {i}");
        }
        buf.clear();
        r.read_line(&mut buf).unwrap();
        assert!(buf.starts_with("PRED "), "{buf}");
        drop((r, w));
        server.shutdown();
    }

    /// Two reactor threads, one shard: four connections interleave
    /// `OBSERVE`/`PREDICT`/`ADMIT` over disjoint machines and meet on the
    /// one lock. Every served prediction carries the bits of an offline
    /// recompute of its machine's acknowledged samples, every
    /// acknowledged line is in the ledger, and nothing is turned away.
    #[test]
    fn connections_contending_for_one_shard_stay_bit_identical() {
        use oc_core::ingest::IncrementalView;
        use oc_core::predictor::clamp_prediction;
        use oc_trace::ids::{JobId, TaskId};
        use oc_trace::time::Tick;

        const CONNS: u32 = 4;
        const MACHINES_PER_CONN: u32 = 3;
        const TICKS: u64 = 60;
        let cfg = ServeConfig::default()
            .with_shards(1)
            .with_reactor_threads(2);
        let server = Server::start(cfg.clone()).unwrap();
        let addr = server.addr();
        let usage = |m: u32, t: u64| 0.05 + ((m as u64 * 7 + t * 3) % 40) as f64 / 100.0;
        let offline = |m: u32, through: u64| {
            let predictor = cfg.predictor.build().unwrap();
            let mut view =
                IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap);
            for t in 0..=through {
                view.ingest(Tick(t), TaskId::new(JobId(1), 0), 0.5, usage(m, t))
                    .unwrap();
            }
            view.flush();
            clamp_prediction(predictor.predict(view.view()), view.view())
        };
        // Each connection: per tick, one pipelined burst of an OBSERVE, a
        // PREDICT and an ADMIT for each of its own machines.
        let acked: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CONNS)
                .map(|c| {
                    scope.spawn(move || {
                        let (mut r, mut w) = client(addr);
                        let machines = c * MACHINES_PER_CONN..(c + 1) * MACHINES_PER_CONN;
                        let mut acked = 0u64;
                        let mut line = String::new();
                        for t in 0..TICKS {
                            let mut burst = String::new();
                            for m in machines.clone() {
                                burst.push_str(&format!(
                                    "OBSERVE c {m} 1:0 {} 0.5 {t}\nPREDICT c {m}\nADMIT c {m} 0.1\n",
                                    usage(m, t)
                                ));
                            }
                            w.write_all(burst.as_bytes()).unwrap();
                            for m in machines.clone() {
                                let mut next = || {
                                    line.clear();
                                    r.read_line(&mut line).unwrap();
                                    Response::parse(line.trim_end()).unwrap()
                                };
                                assert_eq!(next(), Response::Ok);
                                acked += 1;
                                let expected = offline(m, t);
                                match next() {
                                    Response::Pred { peak, mem: None } => assert_eq!(
                                        peak.to_bits(),
                                        expected.to_bits(),
                                        "machine {m} tick {t}"
                                    ),
                                    other => panic!("machine {m} tick {t}: {other:?}"),
                                }
                                match next() {
                                    Response::Admitted { projected, .. } => {
                                        assert_eq!(projected.to_bits(), (expected + 0.1).to_bits())
                                    }
                                    other => panic!("machine {m} tick {t}: {other:?}"),
                                }
                            }
                        }
                        acked
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(acked, (CONNS * MACHINES_PER_CONN) as u64 * TICKS);
        let stats = server.shutdown();
        assert_eq!(
            stats.observes, acked,
            "an acknowledged line is an applied line"
        );
        assert_eq!((stats.stale, stats.errors, stats.busy), (0, 0, 0));
        assert_eq!(stats.machines, (CONNS * MACHINES_PER_CONN) as u64);
    }

    /// Regression (PR 3): an idle connection used to pin a thread in a
    /// deadline-less `read_line` and stall `finish()`. Reactor threads are
    /// woken and joined, so the full merged snapshot must come back
    /// quickly and cleanly.
    #[test]
    fn idle_connection_does_not_block_clean_shutdown() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let (mut r, mut w) = client(server.addr());
        for t in 0..5u64 {
            assert_eq!(
                roundtrip(&mut r, &mut w, &format!("OBSERVE a 0 1:0 0.2 0.5 {t}")),
                Response::Ok
            );
        }
        // A second connection that never sends anything at all.
        let (_idle_r, _idle_w) = client(server.addr());
        let t0 = Instant::now();
        let outcome = server.shutdown_outcome();
        assert!(outcome.clean, "idle connection made the exit unclean");
        assert_eq!(outcome.stats.observes, 5, "full snapshot expected");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown took {:?}",
            t0.elapsed()
        );
        drop((r, w));
    }

    /// Regression (PR 3): the accept thread used to be woken by a single
    /// fire-and-forget self-connect; if that failed, the join hung. The
    /// waker-driven accept loop needs no wake-up connection at all —
    /// prove shutdown is promptly bounded across repeated start/stop
    /// cycles.
    #[test]
    fn shutdown_never_hangs_on_the_accept_thread() {
        for _ in 0..10 {
            let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
            let t0 = Instant::now();
            let outcome = server.shutdown_outcome();
            assert!(outcome.clean);
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "accept join took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn idle_connection_is_closed_at_the_deadline() {
        let server = Server::start(
            ServeConfig::default()
                .with_shards(1)
                .with_idle_timeout(Duration::from_millis(120)),
        )
        .unwrap();
        let (mut r, mut w) = client(server.addr());
        assert_eq!(
            roundtrip(&mut r, &mut w, "OBSERVE a 0 1:0 0.2 0.5 1"),
            Response::Ok
        );
        // Go idle; the server must answer ERR timeout and close.
        let mut buf = String::new();
        r.read_line(&mut buf).unwrap();
        let resp = Response::parse(buf.trim_end()).unwrap();
        assert!(
            matches!(
                resp,
                Response::Err {
                    code: ErrCode::Timeout,
                    ..
                }
            ),
            "{resp:?}"
        );
        buf.clear();
        assert_eq!(
            r.read_line(&mut buf).unwrap(),
            0,
            "connection must be closed"
        );
        // The close is visible in STATS from a fresh connection.
        let (mut r2, mut w2) = client(server.addr());
        let Response::Stats(s) = roundtrip(&mut r2, &mut w2, "STATS") else {
            panic!("expected STATS");
        };
        assert_eq!(s.timeouts, 1);
        drop((r2, w2));
        server.shutdown();
    }

    #[test]
    fn connection_cap_rejects_with_retryable_error() {
        let server = Server::start(
            ServeConfig::default()
                .with_shards(1)
                .with_max_connections(1),
        )
        .unwrap();
        let (mut r1, mut w1) = client(server.addr());
        assert_eq!(
            roundtrip(&mut r1, &mut w1, "OBSERVE a 0 1:0 0.2 0.5 1"),
            Response::Ok
        );
        // Second connection: over the cap.
        let (mut r2, _w2) = client(server.addr());
        let mut buf = String::new();
        r2.read_line(&mut buf).unwrap();
        let resp = Response::parse(buf.trim_end()).unwrap();
        assert!(
            matches!(
                resp,
                Response::Err {
                    code: ErrCode::ConnLimit,
                    ..
                }
            ),
            "{resp:?}"
        );
        buf.clear();
        assert_eq!(r2.read_line(&mut buf).unwrap(), 0);
        // Free the slot; a later connection gets in (the close runs on a
        // server thread and races with us, so poll briefly).
        drop((r1, w1));
        let mut admitted = false;
        for _ in 0..100 {
            // A rejected attempt races with the server's close: the
            // write (or the read) of a still-over-cap probe can fail
            // with a broken pipe instead of delivering the conn-limit
            // error line, so any I/O failure here just means "retry".
            let (mut r3, mut w3) = client(server.addr());
            let sent = w3.write_all(b"STATS\n").and_then(|()| w3.flush());
            let mut buf = String::new();
            if sent.is_err() || r3.read_line(&mut buf).unwrap_or(0) == 0 {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            match Response::parse(buf.trim_end()).unwrap() {
                Response::Stats(s) => {
                    assert!(s.conn_rejects >= 1);
                    admitted = true;
                    break;
                }
                Response::Err {
                    code: ErrCode::ConnLimit,
                    ..
                } => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(admitted, "slot never freed after the first client left");
        server.shutdown();
    }

    /// A peer that dies mid-request must not ingest half a line: the
    /// truncated fragment (which would even parse, with a mangled tick!)
    /// is discarded at EOF.
    #[test]
    fn truncated_final_line_is_discarded_not_dispatched() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut w = stream.try_clone().unwrap();
        // A prefix of "OBSERVE a 0 1:0 0.2 0.5 1234\n" that still parses
        // as a complete OBSERVE with tick 12 — exactly the corruption a
        // mid-write death could cause.
        w.write_all(b"OBSERVE a 0 1:0 0.2 0.5 12").unwrap();
        w.flush().unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Wait for the server to see the EOF and drop the connection.
        let mut buf = String::new();
        let mut r = BufReader::new(stream);
        let _ = r.read_line(&mut buf);
        let (mut r2, mut w2) = client(server.addr());
        let Response::Stats(s) = roundtrip(&mut r2, &mut w2, "STATS") else {
            panic!("expected STATS");
        };
        assert_eq!(s.observes, 0, "truncated OBSERVE must not be ingested");
        assert_eq!(s.errors, 0);
        drop((r2, w2));
        let final_stats = server.shutdown();
        assert_eq!(final_stats.observes, 0);
    }

    /// Write backpressure: a peer that pipelines a large frame but reads
    /// nothing until the end still gets every response byte, in order.
    #[test]
    fn slow_reader_still_receives_every_response() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        let n = 20_000u64;
        let mut frame = String::new();
        for t in 0..n {
            frame.push_str(&format!("OBSERVE a 9 1:0 0.2 0.5 {t}\n"));
        }
        // Blast the whole frame without reading a single response; the
        // server's output buffer must absorb or backpressure it, never
        // drop or reorder.
        w.write_all(frame.as_bytes()).unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        for i in 0..n {
            line.clear();
            r.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "OK", "response {i}");
        }
        drop((r, w));
        assert_eq!(server.shutdown().observes, n);
    }

    /// Server-side fault injection: with only delay/partial faults (no
    /// drops) every request still completes, and the injected count
    /// surfaces in STATS.
    #[test]
    fn server_side_faults_surface_in_stats() {
        use crate::fault::{FaultKinds, FaultPlan};
        let plan = FaultPlan::new(7, 0.3).with_kinds(FaultKinds {
            delays: false, // keep the test fast
            partials: true,
            drops: false,
        });
        let server =
            Server::start(ServeConfig::default().with_shards(1).with_faults(plan)).unwrap();
        let (mut r, mut w) = client(server.addr());
        for t in 0..20u64 {
            assert_eq!(
                roundtrip(&mut r, &mut w, &format!("OBSERVE a 0 1:0 0.2 0.5 {t}")),
                Response::Ok
            );
        }
        let Response::Stats(s) = roundtrip(&mut r, &mut w, "STATS") else {
            panic!("expected STATS");
        };
        assert_eq!(s.observes, 20);
        assert!(s.faults > 0, "fault plan never fired");
        drop((r, w));
        let final_stats = server.shutdown();
        assert!(final_stats.faults > 0);
    }

    /// An accepted socket that cannot be made non-blocking is counted,
    /// not silently dropped — exercised
    /// indirectly: the counter exists and starts at zero.
    #[test]
    fn accept_error_counter_is_registered() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (mut r, mut w) = client(server.addr());
        let Response::Metrics { exposition } = roundtrip(&mut r, &mut w, "METRICS") else {
            panic!("expected METRICS");
        };
        let m = oc_telemetry::metrics::parse_exposition(&exposition).unwrap();
        assert_eq!(m["serve.accept.errors"], 0.0);
        drop((r, w));
        server.shutdown();
    }
}
