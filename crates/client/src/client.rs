//! The typed client: one connection, transparent reconnect, bounded retry.
//!
//! A [`Client`] is the one-lane case of the crate's send engine
//! (`engine.rs`): everything it sends is a pipeline of frames on one
//! connection, and [`Client::request`] is a pipeline of one.
//!
//! # Retry semantics
//!
//! A [`Client`] distinguishes three failure classes:
//!
//! * **`ERR timeout` / `ERR conn-limit`** — the server closed (or refused)
//!   this connection but is otherwise healthy. The connection is dropped
//!   and what it had on the wire is sent again on a fresh one after
//!   backoff.
//! * **Transient I/O** (reset, broken pipe, EOF, deadline…) — the fate of
//!   an in-flight request is unknown: it may or may not have been applied.
//!   Re-sending is still safe because ingestion is idempotent — a repeated
//!   `OBSERVE` for a still-pending tick updates in place bit-identically,
//!   a repeated one for a flushed tick is counted `stale`, and
//!   `PREDICT`/`ADMIT` are read-only. The client reconnects and re-sends.
//! * **Everything else** (`ERR shutdown`, non-transient I/O, a reply line
//!   that is not a response of PROTOCOL.md §4) — terminal; surfaced to
//!   the caller immediately, a bad line as [`ClientError::Proto`].
//!
//! Each failed connect or loss of the connection is one strike; a
//! resolved frame (or, for [`Client::connect`], the connection) clears
//! them, and [`RetryPolicy::max_attempts`] strikes in a row exhaust the
//! budget ([`ClientError::Exhausted`]). Between strikes the client naps:
//! exponential (`base * 2^attempt`, capped) with deterministic jitter
//! from a seeded [`SmallRng`], so two clients created with different
//! seeds never stampede in lockstep and a failing run replays
//! identically. Nothing naps after the last attempt.
//!
//! A connection a [`ClusterClient`](crate::ClusterClient) holds to a ring
//! member differs in one point: after a transient failure it re-dials at
//! once, and a *refused* connect is terminal rather than transient — the
//! process is gone, and the cluster layer has a replica to go to.
//!
//! # Pipelining
//!
//! [`Client::pipeline_with`] streams a slice of requests through a
//! sliding window: up to [`ClientConfig::pipeline_window`] requests ride
//! the wire, and once replies have freed half of it the room is refilled
//! in one flush while the other half is still being answered (the
//! protocol answers strictly in order, so responses match requests
//! FIFO). A lost connection sends everything it had not resolved again,
//! in submission order, ahead of the rest.
//!
//! # One frame path
//!
//! Everything that goes on the wire is a *frame* of `n` requests (`BATCH n`
//! header iff `n > 1`) appended by `Link::write_frame`; its replies are
//! read by `Link::fill` and taken, once all there, by `Link::take_frame`.
//! A single request is a frame of one, a window is a run of frames flushed
//! once, and the cluster's lanes and the load driver ([`crate::loadgen`])
//! use the same path. A frame is acknowledged or lost whole — a transport
//! failure, its reply deadline or a server-side close (`ERR timeout`/
//! `conn-limit`, also where a `BATCHR` header is due) discards the replies
//! already read for it and it is sent again.

use crate::engine::{Engine, Policy, Shape};
use crate::error::ClientError;
use crate::pipe::{Entry, MemberPipe, SentFrame};
use oc_serve::fault::{FaultCounters, FaultPlan, FaultStream};
use oc_serve::proto::{
    parse_batchr_header, push_u64, ErrCode, ProtoError, Request, Response, StatsSnapshot, MAX_BATCH,
};
use oc_telemetry::{trace, Counter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Bounded-retry policy.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// First backoff; doubles each retry.
    pub base: Duration,
    /// Upper bound on one backoff nap.
    pub cap: Duration,
}

impl RetryPolicy {
    /// How long to nap before retry number `attempt`:
    /// `min(cap, base * 2^attempt)` scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn from `rng`.
    pub fn nap(&self, attempt: u32, rng: &mut SmallRng) -> Duration {
        let exp = self.base.as_secs_f64() * f64::from(2u32.saturating_pow(attempt.min(16)));
        let jitter = 0.5 + 0.5 * rng.random::<f64>();
        Duration::from_secs_f64(exp.min(self.cap.as_secs_f64()) * jitter)
    }
}

impl Default for RetryPolicy {
    /// 6 attempts, 5 ms initial backoff, capped at 500 ms.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for one TCP connect.
    pub connect_timeout: Duration,
    /// Deadline for all of a frame's replies, from its write; elapsing
    /// counts as a transient failure (reconnect + retry).
    pub response_timeout: Duration,
    /// Deadline for one socket write.
    pub write_timeout: Duration,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Seed for backoff jitter and fault sub-schedules. Give every client
    /// of a run a distinct seed.
    pub seed: u64,
    /// Client-side fault injection (chaos testing); `None` in production.
    pub faults: Option<FaultPlan>,
    /// Max requests in flight before the oldest response is awaited.
    pub pipeline_window: usize,
    /// Sub-requests per `BATCH` wire frame in pipelined ingest (`1`
    /// disables framing). Runs of consecutive data-plane requests
    /// (`OBSERVE`/`PREDICT`/`ADMIT`) are framed transparently — responses
    /// still resolve per request, in order — amortizing one round of
    /// server-side parse/dispatch bookkeeping per frame. Control verbs
    /// are never framed.
    pub batch: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            response_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            seed: 0,
            faults: None,
            pipeline_window: 512,
            batch: 1,
        }
    }
}

impl ClientConfig {
    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the jitter/fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables client-side fault injection.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the pipelining window.
    pub fn with_pipeline_window(mut self, window: usize) -> Self {
        self.pipeline_window = window;
        self
    }

    /// Sets the `BATCH` frame size for pipelined ingest (1 = off).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Config`] for a zero timeout, window or
    /// attempt budget, a batch outside `1..=MAX_BATCH`, or an invalid
    /// fault plan.
    pub fn validate(&self) -> Result<(), ClientError> {
        for (name, t) in [
            ("connect_timeout", self.connect_timeout),
            ("response_timeout", self.response_timeout),
            ("write_timeout", self.write_timeout),
        ] {
            if t.is_zero() {
                return Err(ClientError::Config(format!("{name} must be > 0")));
            }
        }
        if self.retry.max_attempts == 0 {
            return Err(ClientError::Config("max_attempts must be >= 1".into()));
        }
        if self.pipeline_window == 0 {
            return Err(ClientError::Config("pipeline_window must be >= 1".into()));
        }
        if self.batch == 0 || self.batch > MAX_BATCH {
            return Err(ClientError::Config(format!(
                "batch must be in 1..={MAX_BATCH}"
            )));
        }
        if let Some(plan) = &self.faults {
            plan.validate()
                .map_err(|e| ClientError::Config(e.to_string()))?;
        }
        Ok(())
    }
}

/// Counters of everything the retry machinery did on one client.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientMetrics {
    /// Request attempts beyond the first (all causes).
    pub retries: u64,
    /// Connections re-established after the first.
    pub reconnects: u64,
    /// Retries caused by transient I/O failures (including `ERR timeout`
    /// and `ERR conn-limit` reconnects).
    pub io_retries: u64,
}

/// Cached handles into the process-wide metrics registry
/// ([`oc_telemetry::global_metrics`]); bumped alongside the per-client
/// [`ClientMetrics`] so a multi-client process (e.g. loadgen) gets one
/// aggregate view without collecting every client by hand.
#[derive(Debug)]
struct GlobalCounters {
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    io_retries: Arc<Counter>,
}

impl GlobalCounters {
    fn new() -> GlobalCounters {
        let m = oc_telemetry::global_metrics();
        GlobalCounters {
            retries: m.counter("client.retries"),
            reconnects: m.counter("client.reconnects"),
            io_retries: m.counter("client.retries.io"),
        }
    }
}

/// One logical connection to an `oc-serve` server.
///
/// # Examples
///
/// ```no_run
/// use oc_client::{Client, ClientConfig};
///
/// let mut client = Client::connect("127.0.0.1:7071".parse().unwrap(),
///                                  ClientConfig::default()).unwrap();
/// let stats = client.stats().unwrap();
/// println!("server has {} machines", stats.machines);
/// ```
#[derive(Debug)]
pub struct Client {
    /// The one lane; its lines are indices into the slice being sent.
    engine: Engine<usize>,
}

/// One connection of the engine: the socket, its reader and writer, and
/// the retry bookkeeping that survives a reconnect.
#[derive(Debug)]
pub(crate) struct Link {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Conn>,
    rng: SmallRng,
    /// Connect epoch; salts the fault sub-seed so every reconnect gets a
    /// fresh deterministic schedule.
    epoch: u64,
    metrics: ClientMetrics,
    global: GlobalCounters,
    fault_counters: Arc<FaultCounters>,
    /// Set for a [`ClusterClient`](crate::ClusterClient) member: a lost
    /// connection is re-dialled at once, and a *refused* connect —
    /// Linux answers `ECONNREFUSED` only when nothing listens on the
    /// port — is terminal instead of retried, so the cluster layer
    /// hears of a dead member before any backoff is napped. A plain
    /// client keeps retrying: its server may be restarting, and it has
    /// no replica to go to.
    ring_member: bool,
}

/// One socket shared by both halves of a connection: `&TcpStream` reads
/// and writes, so the halves need no second descriptor.
struct Socket(Arc<TcpStream>);

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self.0).flush()
    }
}

/// The two halves of an established connection, boxed so the fault
/// wrapper is transparent to the rest of the client.
struct Conn {
    /// The socket both halves share (one descriptor per connection).
    stream: Arc<TcpStream>,
    reader: Box<dyn Read + Send>,
    writer: BufWriter<Box<dyn Write + Send>>,
    /// Encode buffer of the frame being written.
    frame: Vec<u8>,
    /// Reply bytes read so far; `replies[taken..]` is not taken yet.
    replies: Vec<u8>,
    taken: usize,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Conn { .. }")
    }
}

/// I/O error kinds treated as transient: the connection is torn down and
/// the request retried on a fresh one.
fn is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionReset
            | ConnectionAborted
            | ConnectionRefused
            | BrokenPipe
            | UnexpectedEof
            | WouldBlock
            | TimedOut
            | Interrupted
    )
}

impl Client {
    /// Connects to `addr`, retrying transient connect failures within the
    /// configured budget.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Config`] for an invalid config and
    /// [`ClientError::Exhausted`]/[`ClientError::Io`] when the server
    /// cannot be reached.
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Result<Client, ClientError> {
        cfg.validate()?;
        let shape = Shape {
            batch: cfg.batch.min(cfg.pipeline_window),
            lines: cfg.pipeline_window,
            frames: usize::MAX,
        };
        let mut engine = Engine::new(shape, &cfg);
        engine.add(Link::new(addr, cfg, false));
        engine.dial(&mut Pipeline::new(&[], |_, _, _| {}))?;
        Ok(Client { engine })
    }

    /// The client's connection, for the load driver to run as one lane
    /// of its own engine.
    pub(crate) fn into_link(self) -> Link {
        let Client { mut engine } = self;
        engine.lanes.pop().expect("a client has one lane").link
    }

    fn link(&self) -> &Link {
        &self.engine.lanes[0].link
    }

    /// What the retry machinery has done so far.
    pub fn metrics(&self) -> ClientMetrics {
        self.link().metrics
    }

    /// Faults injected by this client's own fault plan.
    pub fn faults_injected(&self) -> u64 {
        self.link().faults_injected()
    }

    /// Sends one request — a pipeline of one — retrying transient
    /// failures within the budget. Non-retryable `ERR` responses are
    /// returned as [`Response::Err`] values, not errors.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when the budget runs out; terminal
    /// transport and protocol failures as their own variants.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut reply = None;
        self.pipeline_with(std::slice::from_ref(req), |_, resp, _| {
            reply = Some(resp.clone());
        })?;
        Ok(reply.expect("a drained pipeline of one has its reply"))
    }
    /// Streams a usage sample. `Ok` means *accepted for ingestion* (the
    /// server acknowledges on enqueue); apply outcomes surface in `STATS`.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures; a non-`OK` response (e.g.
    /// `ERR stale` is impossible here — staleness is counted server-side —
    /// but `ERR shutdown` is not) becomes [`ClientError::Server`].
    pub fn observe(
        &mut self,
        cell: &oc_trace::ids::CellId,
        machine: oc_trace::MachineId,
        task: oc_trace::ids::TaskId,
        usage: f64,
        limit: f64,
        tick: u64,
    ) -> Result<(), ClientError> {
        self.observe_lanes(cell, machine, task, usage, limit, None, tick)
    }

    /// Reports one multi-resource sample: CPU plus memory lanes in a
    /// single `OBSERVE` line (`usage` and `limit` become `cpu,mem` pairs
    /// on the wire). The first vector sample flips the machine's
    /// server-side view into vector mode for good.
    ///
    /// # Errors
    ///
    /// As [`Client::observe`].
    #[allow(clippy::too_many_arguments)]
    pub fn observe_vec(
        &mut self,
        cell: &oc_trace::ids::CellId,
        machine: oc_trace::MachineId,
        task: oc_trace::ids::TaskId,
        usage: f64,
        limit: f64,
        mem_usage: f64,
        mem_limit: f64,
        tick: u64,
    ) -> Result<(), ClientError> {
        let mem = Some((mem_usage, mem_limit));
        self.observe_lanes(cell, machine, task, usage, limit, mem, tick)
    }

    /// The one `OBSERVE` request path: [`Client::observe`] with no memory
    /// lane, [`Client::observe_vec`] with one.
    #[allow(clippy::too_many_arguments)]
    fn observe_lanes(
        &mut self,
        cell: &oc_trace::ids::CellId,
        machine: oc_trace::MachineId,
        task: oc_trace::ids::TaskId,
        usage: f64,
        limit: f64,
        mem: Option<(f64, f64)>,
        tick: u64,
    ) -> Result<(), ClientError> {
        let req = Request::Observe {
            cell: cell.clone(),
            machine,
            task,
            usage,
            limit,
            mem,
            tick,
        };
        match self.request(&req)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::unexpected("OK", &other)),
        }
    }

    /// Fetches the predicted peak for one machine.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures; a non-`PRED` response
    /// becomes [`ClientError::Server`].
    pub fn predict(
        &mut self,
        cell: &oc_trace::ids::CellId,
        machine: oc_trace::MachineId,
    ) -> Result<f64, ClientError> {
        let req = Request::Predict {
            cell: cell.clone(),
            machine,
            vector: false,
        };
        match self.request(&req)? {
            Response::Pred { peak, .. } => Ok(peak),
            other => Err(ClientError::unexpected("PRED", &other)),
        }
    }

    /// Fetches the predicted `(cpu, mem)` peaks for one machine via the
    /// multi-resource `PREDICT ... *` form.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures; a scalar `PRED` (server
    /// that never saw vector samples still answers both lanes — memory is
    /// `0`) or non-`PRED` response becomes [`ClientError::Server`].
    pub fn predict_vec(
        &mut self,
        cell: &oc_trace::ids::CellId,
        machine: oc_trace::MachineId,
    ) -> Result<(f64, f64), ClientError> {
        let req = Request::Predict {
            cell: cell.clone(),
            machine,
            vector: true,
        };
        match self.request(&req)? {
            Response::Pred {
                peak,
                mem: Some(mem),
            } => Ok((peak, mem)),
            Response::Pred { peak, mem: None } => Err(ClientError::unexpected(
                "PRED cpu,mem",
                &Response::Pred { peak, mem: None },
            )),
            other => Err(ClientError::unexpected("PRED", &other)),
        }
    }

    /// Runs an admission check: would adding `limit` keep the machine's
    /// projected peak under capacity?
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures; a non-`ADMITTED` response
    /// becomes [`ClientError::Server`].
    pub fn admit(
        &mut self,
        cell: &oc_trace::ids::CellId,
        machine: oc_trace::MachineId,
        limit: f64,
    ) -> Result<(bool, f64), ClientError> {
        let req = Request::Admit {
            cell: cell.clone(),
            machine,
            limit,
        };
        match self.request(&req)? {
            Response::Admitted { admit, projected } => Ok((admit, projected)),
            other => Err(ClientError::unexpected("ADMITTED", &other)),
        }
    }

    /// Fetches the merged server counters.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures; a non-`STATS` response
    /// becomes [`ClientError::Server`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::unexpected("STATS", &other)),
        }
    }

    /// Fetches the server's merged metrics exposition (the `METRICS`
    /// verb) as a name → value map. Not to be confused with
    /// [`Client::metrics`], which reports this *client's* retry counters;
    /// this call reports the *server's* unified registry — see
    /// `docs/OPERATIONS.md` for the metric dictionary.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures; a non-`METRICS` response
    /// or an undecodable exposition becomes [`ClientError::Server`].
    pub fn server_metrics(&mut self) -> Result<BTreeMap<String, f64>, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { exposition } => {
                oc_telemetry::metrics::parse_exposition(&exposition).ok_or(ClientError::Server {
                    expected: "METRICS",
                    got: exposition,
                })
            }
            other => Err(ClientError::unexpected("METRICS", &other)),
        }
    }

    /// Streams `reqs` through the sliding window; `on_resp(index,
    /// response, latency_us)` fires once per request, in resolution order
    /// (submission order; a retry re-sends in order too), with the
    /// latency of the frame that carried it.
    ///
    /// Responses match requests FIFO because the protocol answers in
    /// order. `ERR timeout`/`conn-limit` and transient I/O failures
    /// re-send every unresolved request, in order, after a nap; each
    /// loss with no frame resolved since the last one is a strike, and
    /// `max_attempts` strikes exhaust the budget.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] after `max_attempts` strikes; terminal
    /// transport and protocol failures as their own variants.
    pub fn pipeline_with<F>(&mut self, reqs: &[Request], on_resp: F) -> Result<(), ClientError>
    where
        F: FnMut(usize, &Response, f64),
    {
        let mut pipeline = Pipeline::new(reqs, on_resp);
        // The last drive ended with its lane drained (or failed and
        // emptied), so this one only has to offer it a write.
        self.engine.wake(0);
        while !self.engine.step(&mut pipeline, true)? {}
        Ok(())
    }
}

impl<'a, F: FnMut(usize, &Response, f64)> Pipeline<'a, F> {
    fn new(reqs: &'a [Request], on_resp: F) -> Self {
        Pipeline {
            reqs,
            next: 0,
            left: reqs.len(),
            on_resp,
        }
    }
}

/// One [`Client::pipeline_with`] call as the engine's policy: lines are
/// indices into the slice, fed on demand and pinned to the one lane.
struct Pipeline<'a, F> {
    reqs: &'a [Request],
    /// The next request to feed.
    next: usize,
    /// Requests not resolved yet.
    left: usize,
    on_resp: F,
}

impl<F: FnMut(usize, &Response, f64)> Policy<usize> for Pipeline<'_, F> {
    fn request<'a>(&'a self, &idx: &'a usize) -> &'a Request {
        &self.reqs[idx]
    }

    fn refill(&mut self, _lane: usize, pipe: &mut MemberPipe<usize>, want: usize) {
        let end = self.reqs.len().min(self.next + want);
        for idx in self.next..end {
            pipe.push(Entry::pinned(idx));
        }
        self.next = end;
    }

    fn resolved(
        &mut self,
        _: &mut Engine<usize>,
        _: usize,
        frame: &mut SentFrame<usize>,
        replies: &[Response],
    ) {
        let lat_us = frame.sent_at.elapsed().as_secs_f64() * 1e6;
        for (e, resp) in frame.entries.iter().zip(replies) {
            (self.on_resp)(e.req, resp, lat_us);
        }
        self.left -= frame.entries.len();
    }

    fn failed(
        &mut self,
        _: &mut Engine<usize>,
        _: usize,
        _: Vec<Entry<usize>>,
        _: usize,
        err: ClientError,
    ) -> Result<(), ClientError> {
        Err(err)
    }

    fn done(&self, _: &Engine<usize>, _: bool) -> bool {
        self.left == 0
    }
}

impl Link {
    /// An unconnected link to `addr`; it dials on first use.
    pub(crate) fn new(addr: SocketAddr, cfg: ClientConfig, ring_member: bool) -> Link {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC11E_57A9);
        Link {
            addr,
            cfg,
            conn: None,
            rng,
            epoch: 0,
            metrics: ClientMetrics::default(),
            global: GlobalCounters::new(),
            fault_counters: Arc::new(FaultCounters::default()),
            ring_member,
        }
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the retry machinery has done on this link.
    pub(crate) fn metrics(&self) -> ClientMetrics {
        self.metrics
    }

    /// Faults injected by this link's fault plan.
    pub(crate) fn faults_injected(&self) -> u64 {
        self.fault_counters.total()
    }

    /// Opens the connection unless one is open.
    pub(crate) fn connect(&mut self) -> std::io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.cfg.write_timeout))?;
        let stream = Arc::new(stream);
        if self.epoch > 0 {
            self.metrics.reconnects += 1;
            self.global.reconnects.inc();
            trace::event("client.reconnect", self.epoch, 0);
        }
        let half = || Socket(Arc::clone(&stream));
        let (r, w): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match &self.cfg.faults {
            Some(plan) => {
                // Salt by seed and epoch so every client and every
                // reconnect runs a distinct deterministic schedule.
                let base = self.cfg.seed.wrapping_shl(20).wrapping_add(self.epoch * 2);
                (
                    Box::new(FaultStream::new(
                        half(),
                        plan,
                        plan.stream_seed(base),
                        Arc::clone(&self.fault_counters),
                    )),
                    Box::new(FaultStream::new(
                        half(),
                        plan,
                        plan.stream_seed(base + 1),
                        Arc::clone(&self.fault_counters),
                    )),
                )
            }
            None => (Box::new(half()), Box::new(half())),
        };
        self.epoch += 1;
        self.conn = Some(Conn {
            stream,
            reader: r,
            writer: BufWriter::new(w),
            frame: Vec::new(),
            replies: Vec::with_capacity(8 << 10),
            taken: 0,
        });
        Ok(())
    }

    /// Whether a failure is worth another attempt: any transient kind —
    /// and for a ring member anything but a refused connect.
    pub(crate) fn retryable(&self, e: &std::io::Error) -> bool {
        if self.ring_member {
            e.kind() != std::io::ErrorKind::ConnectionRefused
        } else {
            is_transient(e)
        }
    }

    /// Closes the connection; the next frame dials a fresh one.
    pub(crate) fn close(&mut self) {
        self.conn = None;
    }

    /// Drops the connection after a transport failure. A ring member is
    /// re-dialled at once: a live one is reconnected before the
    /// engine's nap instead of after it, a dead one refuses.
    ///
    /// # Errors
    ///
    /// Only for a ring member: the refused reconnect, as
    /// [`ClientError::Io`].
    pub(crate) fn drop_conn(&mut self) -> Result<(), ClientError> {
        self.conn = None;
        if self.ring_member {
            if let Err(e) = self.connect() {
                if !self.retryable(&e) {
                    return Err(ClientError::Io(e));
                }
            }
        }
        Ok(())
    }

    /// The connection's socket descriptor, for readiness polling.
    pub(crate) fn raw_fd(&self) -> Option<oc_reactor::RawFd> {
        use std::os::unix::io::AsRawFd;
        self.conn.as_ref().map(|conn| conn.stream.as_raw_fd())
    }

    /// The retry policy's nap before retry number `attempt + 1`.
    pub(crate) fn nap(&mut self, attempt: u32) -> Duration {
        self.cfg.retry.nap(attempt, &mut self.rng)
    }

    /// Records one transient-I/O retry and emits `client.retry.io`
    /// (`a` = requests re-queued by the failure).
    pub(crate) fn note_io(&mut self, affected: u64) {
        self.metrics.io_retries += 1;
        self.global.io_retries.inc();
        trace::event("client.retry.io", affected, 0);
    }

    /// Records `n` request attempts beyond the first.
    pub(crate) fn note_retries(&mut self, n: u64) {
        self.metrics.retries += n;
        self.global.retries.add(n);
    }

    /// Appends `n` requests to the connection's writer as one frame — a
    /// `BATCH` wrapper when more than one — without flushing: the caller
    /// decides how many frames make one burst ([`Link::flush_frames`]).
    /// Nothing is read back; replies are taken later with
    /// [`Link::take_frame`]. A transient transport failure
    /// drops the connection and comes back as [`FrameIo::Lost`]; nothing
    /// of the frame counts as delivered.
    pub(crate) fn write_frame<'a, I>(&mut self, n: usize, reqs: I) -> Result<FrameIo, ClientError>
    where
        I: IntoIterator<Item = &'a Request>,
    {
        if let Err(e) = self.connect() {
            return if self.retryable(&e) {
                Ok(FrameIo::Lost(e.to_string()))
            } else {
                Err(ClientError::Io(e))
            };
        }
        let conn = self.conn.as_mut().expect("ensured above");
        conn.frame.clear();
        if n > 1 {
            conn.frame.extend_from_slice(b"BATCH ");
            push_u64(&mut conn.frame, n as u64);
            conn.frame.push(b'\n');
        }
        for req in reqs {
            req.encode_into(&mut conn.frame);
            conn.frame.push(b'\n');
        }
        match conn.writer.write_all(&conn.frame) {
            Ok(()) => Ok(FrameIo::Done),
            Err(e) => self.lose(e),
        }
    }

    /// Pushes every frame written since the last flush onto the wire.
    pub(crate) fn flush_frames(&mut self) -> Result<FrameIo, ClientError> {
        match self.conn.as_mut().map(|conn| conn.writer.flush()) {
            Some(Err(e)) => self.lose(e),
            _ => Ok(FrameIo::Done),
        }
    }

    /// A transport error under a frame: a retryable one drops the
    /// connection and loses the frame, anything else is terminal.
    fn lose(&mut self, e: std::io::Error) -> Result<FrameIo, ClientError> {
        if !self.retryable(&e) {
            return Err(ClientError::Io(e));
        }
        self.drop_conn()?;
        Ok(FrameIo::Lost(e.to_string()))
    }

    /// Reads once from the socket into the reply buffer; called when the
    /// socket is readable, so the read does not block. EOF or a transient
    /// failure drops the connection and loses what it had on the wire.
    pub(crate) fn fill(&mut self) -> Result<FrameIo, ClientError> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(FrameIo::Lost("connection lost".to_string()));
        };
        // Keep the untaken bytes at the front, and room behind them.
        let buf = &mut conn.replies;
        buf.drain(..std::mem::take(&mut conn.taken));
        let filled = buf.len();
        buf.resize(buf.capacity().max(2 * filled), 0);
        let read = conn.reader.read(&mut buf[filled..]);
        buf.truncate(filled + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => self.lose(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e) if e.kind() != std::io::ErrorKind::Interrupted => self.lose(e),
            _ => Ok(FrameIo::Done),
        }
    }

    /// Takes one frame's replies — a `BATCHR` header when `n > 1`, then
    /// `n` response lines — out of the reply buffer into `out` once all
    /// are there; until then `None`, with nothing taken. Only the fate of
    /// the frame is decided here: a server-side `ERR timeout`/`conn-limit`
    /// close — an idle reap says so where the next frame's header is due —
    /// drops the connection and the whole frame is [`FrameIo::Lost`]: the
    /// caller replays it, and replays of applied samples are stale no-ops.
    pub(crate) fn take_frame(
        &mut self,
        n: usize,
        out: &mut Vec<Response>,
    ) -> Result<Option<FrameIo>, ClientError> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(Some(FrameIo::Lost("connection lost".to_string())));
        };
        let buffered = &conn.replies[conn.taken..];
        let mut ends = (1..=buffered.len()).filter(|&k| buffered[k - 1] == b'\n');
        let head = ends.clone().next();
        let whole = ends.nth(n + usize::from(n > 1) - 1);
        // Until the frame is whole, only its head line is looked at.
        let Some(end) = whole.or(head) else {
            return Ok(None);
        };
        let mut lines = buffered[..end - 1].split(|&b| b == b'\n');
        let from = out.len();
        let mut header_due = n > 1;
        while out.len() - from < n {
            let Some(line) = lines.next() else {
                // The head line was sound; the rest has not arrived.
                out.truncate(from);
                return Ok(None);
            };
            let line = std::str::from_utf8(line).unwrap_or("\u{fffd}").trim_end();
            if header_due {
                // The header count always matches `n`: servers write it
                // up front from the frame header and answer one line per
                // sub-request even when rejecting. A mismatch means the
                // reply stream is out of step — unrecoverable, so fail
                // loudly rather than mis-attributing responses.
                match parse_batchr_header(line) {
                    Ok(Some(k)) if k == n => {
                        header_due = false;
                        continue;
                    }
                    // No header at all: only a closing notice may stand
                    // in its place (checked below).
                    Ok(None) => {}
                    Ok(Some(_)) => return Err(out_of_step(line)),
                    Err(e) => return Err(ClientError::Proto(e)),
                }
            }
            let resp = Response::parse(line).map_err(ClientError::Proto)?;
            if let Response::Err {
                code: code @ (ErrCode::Timeout | ErrCode::ConnLimit),
                detail,
            } = &resp
            {
                // The server closed (or refused) this connection; later
                // frames cannot be answered, but a fresh one may succeed.
                let what = format!("{}: {detail}", code.as_str());
                self.conn = None;
                out.truncate(from);
                return Ok(Some(FrameIo::Lost(what)));
            }
            if header_due {
                return Err(out_of_step(line));
            }
            out.push(resp);
        }
        conn.taken += end;
        Ok(Some(FrameIo::Done))
    }
}

/// The error for a reply line that cannot belong where it arrived.
fn out_of_step(line: &str) -> ClientError {
    ClientError::Proto(ProtoError::BadResponse {
        line: line.trim_end().chars().take(80).collect(),
    })
}

/// Outcome of one low-level frame I/O step.
#[derive(Debug)]
pub(crate) enum FrameIo {
    /// The step completed.
    Done,
    /// A transient failure (described) dropped the connection; the frame
    /// involved is wholly unacknowledged.
    Lost(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::config::ServeConfig;
    use oc_serve::server::Server;
    use oc_trace::ids::{CellId, JobId, TaskId};
    use oc_trace::MachineId;
    use std::time::Instant;

    fn cell() -> CellId {
        CellId::new("t")
    }

    fn task(i: u32) -> TaskId {
        TaskId::new(JobId(1), i)
    }

    #[test]
    fn typed_round_trip() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let mut c = Client::connect(server.addr(), ClientConfig::default()).unwrap();
        for t in 0..30u64 {
            c.observe(&cell(), MachineId(0), task(0), 0.2, 0.5, t)
                .unwrap();
        }
        let peak = c.predict(&cell(), MachineId(0)).unwrap();
        assert!(peak > 0.0 && peak <= 0.5);
        let (admit, projected) = c.admit(&cell(), MachineId(0), 0.1).unwrap();
        assert!(projected >= peak);
        assert!(admit || projected > 1.0);
        let stats = c.stats().unwrap();
        assert_eq!(stats.observes, 30);
        assert_eq!(c.metrics().retries, 0);
        let m = c.server_metrics().unwrap();
        assert_eq!(m.get("serve.observes"), Some(&30.0));
        assert_eq!(m.get("serve.machines"), Some(&1.0));
        assert!(m.contains_key("serve.latency_us.p99"));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn vector_round_trip_reports_both_lanes() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let mut c = Client::connect(server.addr(), ClientConfig::default()).unwrap();
        // Memory hog, CPU mouse: scalar PREDICT would look harmless.
        for t in 0..30u64 {
            c.observe_vec(&cell(), MachineId(0), task(0), 0.1, 0.5, 0.8, 0.9, t)
                .unwrap();
        }
        let (cpu, mem) = c.predict_vec(&cell(), MachineId(0)).unwrap();
        assert!(cpu > 0.0 && cpu <= 0.5, "cpu {cpu}");
        assert!(mem > 0.0 && mem <= 0.9, "mem {mem}");
        assert!(mem > cpu, "memory lane must dominate: cpu {cpu} mem {mem}");
        // The scalar form still answers on the same machine (CPU lane).
        let peak = c.predict(&cell(), MachineId(0)).unwrap();
        assert!(peak > 0.0 && peak <= 0.5, "scalar peak {peak}");
        drop(c);
        server.shutdown();
    }

    #[test]
    fn reconnects_after_a_server_side_close() {
        // Tiny idle timeout: the server will close our connection; the
        // next request must transparently reconnect.
        let server = Server::start(
            ServeConfig::default()
                .with_shards(1)
                .with_idle_timeout(Duration::from_millis(80)),
        )
        .unwrap();
        let reconnects_before = oc_telemetry::global_metrics()
            .counter("client.reconnects")
            .get();
        let mut c = Client::connect(server.addr(), ClientConfig::default()).unwrap();
        c.observe(&cell(), MachineId(0), task(0), 0.2, 0.5, 1)
            .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // The server has closed the idle connection by now.
        c.observe(&cell(), MachineId(0), task(0), 0.3, 0.5, 2)
            .unwrap();
        assert!(c.metrics().reconnects >= 1, "{:?}", c.metrics());
        // The process-wide registry moves with the per-client counters
        // (>=: other tests in this process may reconnect concurrently).
        let reconnects_after = oc_telemetry::global_metrics()
            .counter("client.reconnects")
            .get();
        assert!(reconnects_after > reconnects_before);
        let stats = c.stats().unwrap();
        assert_eq!(stats.observes, 2);
        assert_eq!(stats.timeouts, 1);
        drop(c);
        server.shutdown();
    }

    /// A pipelined client that sits idle past the server's deadline finds
    /// `ERR timeout` where its next window's first reply is due — for a
    /// framed window, where the `BATCHR` header is due. Either way that
    /// is a reconnect and a re-send, never a protocol error.
    fn pipeline_resumes_after_an_idle_close(batch: usize) {
        let server = Server::start(
            ServeConfig::default()
                .with_shards(1)
                .with_idle_timeout(Duration::from_millis(80)),
        )
        .unwrap();
        let mut c =
            Client::connect(server.addr(), ClientConfig::default().with_batch(batch)).unwrap();
        let observes = |first_tick: u64| -> Vec<Request> {
            (first_tick..first_tick + 16)
                .map(|tick| Request::Observe {
                    cell: cell(),
                    machine: MachineId(0),
                    task: task(0),
                    usage: 0.2,
                    limit: 0.5,
                    mem: None,
                    tick,
                })
                .collect()
        };
        let mut oks = 0;
        let mut count_oks = |_: usize, resp: &Response, _: f64| {
            assert_eq!(resp, &Response::Ok);
            oks += 1;
        };
        c.pipeline_with(&observes(0), &mut count_oks).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // The server has closed the idle connection by now.
        c.pipeline_with(&observes(16), &mut count_oks).unwrap();
        assert_eq!(oks, 32);
        assert!(c.metrics().reconnects >= 1, "{:?}", c.metrics());
        let stats = c.stats().unwrap();
        assert_eq!(stats.observes, 32);
        assert_eq!(stats.timeouts, 1);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn batched_pipeline_resumes_after_an_idle_close() {
        pipeline_resumes_after_an_idle_close(8);
    }

    #[test]
    fn unbatched_pipeline_resumes_after_an_idle_close() {
        pipeline_resumes_after_an_idle_close(1);
    }

    /// A plain client has no replica to go to and its server may be
    /// restarting, so a refused connect stays on the retry ladder for
    /// the whole budget; only a ring member's connection gives up on it
    /// at once.
    #[test]
    fn plain_client_keeps_retrying_a_refused_connect() {
        let cfg = ClientConfig::default().with_retry(RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(20),
        });
        // A port nobody listens on.
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let started = Instant::now();
        let err = Client::connect(closed, cfg.clone()).unwrap_err();
        assert!(
            matches!(err, ClientError::Exhausted { attempts: 3, .. }),
            "{err:?}"
        );
        // Three attempts, two backoff naps of [10, 20) ms each: none
        // after the last attempt.
        assert!(started.elapsed() >= Duration::from_millis(20));
        let mut member = Link::new(closed, cfg.clone(), true);
        let err = member.connect().unwrap_err();
        assert!(!member.retryable(&err), "{err:?}");

        // The same on an established connection whose server went away.
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let mut c = Client::connect(server.addr(), cfg).unwrap();
        c.observe(&cell(), MachineId(0), task(0), 0.2, 0.5, 1)
            .unwrap();
        server.shutdown();
        let err = c
            .observe(&cell(), MachineId(0), task(0), 0.2, 0.5, 2)
            .unwrap_err();
        assert!(
            matches!(err, ClientError::Exhausted { attempts: 3, .. }),
            "{err:?}"
        );
        assert_eq!(c.metrics().io_retries, 3);
    }

    /// An exhausted budget is reported when the last attempt fails, not
    /// one nap later: a single attempt with a 1 s backoff returns at once.
    #[test]
    fn exhausted_connect_returns_without_a_last_nap() {
        let cfg = ClientConfig::default().with_retry(RetryPolicy {
            max_attempts: 1,
            base: Duration::from_secs(1),
            cap: Duration::from_secs(1),
        });
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let started = Instant::now();
        let err = Client::connect(closed, cfg).unwrap_err();
        assert!(
            matches!(err, ClientError::Exhausted { attempts: 1, .. }),
            "{err:?}"
        );
        assert!(started.elapsed() < Duration::from_millis(400));
    }

    /// A frame's reply deadline runs from its write, not from the last
    /// reply line: a server that trickles a 16-line frame's replies one
    /// line every 300 ms loses the frame at the 1 s deadline.
    #[test]
    fn a_trickled_frame_is_lost_at_its_deadline() {
        use std::io::BufRead;
        let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stub.local_addr().unwrap();
        let trickler = std::thread::spawn(move || {
            let (conn, _) = stub.accept().unwrap();
            let mut frame = std::io::BufReader::new(&conn);
            let mut line = String::new();
            for _ in 0..17 {
                frame.read_line(&mut line).unwrap();
            }
            assert!(line.starts_with("BATCH 16\n"), "{line}");
            let replies = std::iter::once("BATCHR 16\n").chain(["OK\n"; 16]);
            for reply in replies {
                if (&conn).write_all(reply.as_bytes()).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        let cfg = ClientConfig {
            response_timeout: Duration::from_secs(1),
            ..ClientConfig::default()
        };
        let retry = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut c = Client::connect(addr, cfg.with_batch(16).with_retry(retry)).unwrap();
        let reqs: Vec<Request> = (0..16)
            .map(|tick| Request::Observe {
                cell: cell(),
                machine: MachineId(0),
                task: task(0),
                usage: 0.2,
                limit: 0.5,
                mem: None,
                tick,
            })
            .collect();
        let started = Instant::now();
        let err = c.pipeline_with(&reqs, |_, _, _| {}).unwrap_err();
        let took = started.elapsed();
        assert!(
            matches!(err, ClientError::Exhausted { attempts: 1, .. }),
            "{err:?}"
        );
        assert!(
            took >= Duration::from_secs(1) && took < Duration::from_millis(1_500),
            "lost after {took:?}"
        );
        drop(c);
        trickler.join().unwrap();
    }

    #[test]
    fn retries_past_the_connection_cap() {
        let server = Server::start(
            ServeConfig::default()
                .with_shards(1)
                .with_max_connections(1),
        )
        .unwrap();
        // Occupy the only slot…
        let mut holder = Client::connect(server.addr(), ClientConfig::default()).unwrap();
        holder
            .observe(&cell(), MachineId(0), task(0), 0.2, 0.5, 1)
            .unwrap();
        // …then let a second client fight for it while the holder leaves.
        let addr = server.addr();
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            drop(holder);
        });
        let mut c = Client::connect(
            addr,
            ClientConfig::default().with_retry(RetryPolicy {
                max_attempts: 20,
                base: Duration::from_millis(20),
                cap: Duration::from_millis(100),
            }),
        )
        .unwrap();
        let stats = c.stats().unwrap();
        assert!(stats.conn_rejects >= 1, "cap never hit: {stats:?}");
        release.join().unwrap();
        drop(c);
        server.shutdown();
    }

    #[test]
    fn chaos_does_not_lose_acknowledged_samples() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let plan = FaultPlan::new(42, 0.08).with_max_delay(Duration::from_micros(200));
        let mut c = Client::connect(
            server.addr(),
            ClientConfig::default().with_seed(7).with_faults(plan),
        )
        .unwrap();
        let mut acked = 0u64;
        for t in 0..200u64 {
            c.observe(
                &cell(),
                MachineId(0),
                task(0),
                0.2 + (t as f64) * 1e-3,
                0.9,
                t,
            )
            .unwrap();
            acked += 1;
        }
        assert!(c.faults_injected() > 0, "fault plan never fired");
        drop(c);
        let stats = server.shutdown();
        // Idempotent retries may re-apply (observes > acked) or go stale,
        // but an acknowledged sample can never vanish without a counter.
        assert!(
            stats.observes + stats.stale >= acked,
            "lost acked samples: {stats:?} vs {acked} acked"
        );
    }

    #[test]
    fn pipeline_resolves_every_request_in_order() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let mut c = Client::connect(
            server.addr(),
            ClientConfig::default().with_pipeline_window(16),
        )
        .unwrap();
        let mut reqs: Vec<Request> = Vec::new();
        for t in 0..100u64 {
            reqs.push(Request::Observe {
                cell: cell(),
                machine: MachineId(3),
                task: task(0),
                usage: 0.1,
                limit: 0.5,
                mem: None,
                tick: t,
            });
        }
        reqs.push(Request::Predict {
            cell: cell(),
            machine: MachineId(3),
            vector: false,
        });
        let mut seen: Vec<usize> = Vec::new();
        let mut preds = 0;
        c.pipeline_with(&reqs, |idx, resp, lat_us| {
            seen.push(idx);
            assert!(lat_us >= 0.0);
            if let Response::Pred { peak, .. } = resp {
                assert!(*peak > 0.0);
                preds += 1;
            }
        })
        .unwrap();
        assert_eq!(preds, 1);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..reqs.len()).collect::<Vec<_>>());
        assert_eq!(
            seen, sorted,
            "no retries, so resolution order == submission order"
        );
        drop(c);
        let stats = server.shutdown();
        assert_eq!(stats.observes, 100);
    }

    #[test]
    fn config_validation() {
        assert!(ClientConfig::default().validate().is_ok());
        let mut zero_attempts = ClientConfig::default();
        zero_attempts.retry.max_attempts = 0;
        assert!(zero_attempts.validate().is_err());
        assert!(ClientConfig::default()
            .with_pipeline_window(0)
            .validate()
            .is_err());
        assert!(ClientConfig::default()
            .with_faults(FaultPlan::new(0, 7.0))
            .validate()
            .is_err());
        assert!(ClientConfig::default().with_batch(0).validate().is_err());
        assert!(ClientConfig::default()
            .with_batch(MAX_BATCH + 1)
            .validate()
            .is_err());
        assert!(ClientConfig::default()
            .with_batch(MAX_BATCH)
            .validate()
            .is_ok());
        for zero in [
            ClientConfig {
                connect_timeout: Duration::ZERO,
                ..ClientConfig::default()
            },
            ClientConfig {
                response_timeout: Duration::ZERO,
                ..ClientConfig::default()
            },
            ClientConfig {
                write_timeout: Duration::ZERO,
                ..ClientConfig::default()
            },
        ] {
            assert!(
                matches!(zero.validate(), Err(ClientError::Config(_))),
                "{zero:?}"
            );
        }
    }

    /// A plain client's lines are pinned: no redirect can move them, so
    /// they never wait on the no-span rule. At batch 1, all 64 reads of
    /// one machine go onto the wire in the first round, before any reply
    /// is read.
    #[test]
    fn pinned_lines_never_stall_on_no_span() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let mut c = Client::connect(
            server.addr(),
            ClientConfig::default()
                .with_batch(1)
                .with_pipeline_window(64),
        )
        .unwrap();
        let reqs = vec![
            Request::Predict {
                cell: cell(),
                machine: MachineId(0),
                vector: false,
            };
            64
        ];
        let mut answered = 0;
        let mut pipeline = Pipeline::new(&reqs, |_, _, _| answered += 1);
        assert!(!c.engine.step(&mut pipeline, true).unwrap());
        // The round wrote all 64 and then read at most what had come back.
        let pipe = &c.engine.lanes[0].pipe;
        assert_eq!(pipeline.next, 64, "every line left the open frame");
        assert_eq!(pipe.open_len(), 0);
        assert_eq!(pipe.inflight_len() + (64 - pipeline.left), 64);
        while !c.engine.step(&mut pipeline, true).unwrap() {}
        assert_eq!(answered, 64);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn batched_pipeline_matches_unbatched() {
        let mk_reqs = || -> Vec<Request> {
            let mut reqs: Vec<Request> = Vec::new();
            for t in 0..100u64 {
                reqs.push(Request::Observe {
                    cell: cell(),
                    machine: MachineId(t as u32 % 4),
                    task: task(0),
                    usage: 0.1 + (t as f64) * 0.003,
                    limit: 0.5,
                    mem: None,
                    tick: t / 4,
                });
                if t % 10 == 9 {
                    reqs.push(Request::Predict {
                        cell: cell(),
                        machine: MachineId(t as u32 % 4),
                        vector: false,
                    });
                }
            }
            reqs
        };
        let run = |batch: usize| -> (Vec<u64>, StatsSnapshot) {
            let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
            let mut c = Client::connect(
                server.addr(),
                ClientConfig::default()
                    .with_pipeline_window(32)
                    .with_batch(batch),
            )
            .unwrap();
            let reqs = mk_reqs();
            let mut peaks: Vec<u64> = Vec::new();
            c.pipeline_with(&reqs, |_, resp, _| {
                if let Response::Pred { peak, .. } = resp {
                    peaks.push(peak.to_bits());
                }
            })
            .unwrap();
            drop(c);
            (peaks, server.shutdown())
        };
        let (plain_peaks, plain_stats) = run(1);
        let (batched_peaks, batched_stats) = run(8);
        assert_eq!(plain_peaks.len(), 10);
        assert_eq!(
            plain_peaks, batched_peaks,
            "batching must not change prediction bits"
        );
        assert_eq!(plain_stats.observes, batched_stats.observes);
        assert_eq!(plain_stats.predicts, batched_stats.predicts);
    }

    #[test]
    fn pipeline_survives_chaos_without_losing_acks() {
        pipeline_survives_chaos(1, FaultPlan::new(1234, 0.25), 9);
    }

    #[test]
    fn batched_pipeline_survives_chaos() {
        pipeline_survives_chaos(8, FaultPlan::new(4321, 0.2), 11);
    }

    /// Under chaos every request still resolves `OK` and no acknowledged
    /// sample goes missing. Buffered windows make few, large socket ops,
    /// so the per-op rate is high to get a meaningful fault count over
    /// one small replay.
    fn pipeline_survives_chaos(batch: usize, plan: FaultPlan, seed: u64) {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let mut c = Client::connect(
            server.addr(),
            ClientConfig::default()
                .with_seed(seed)
                .with_faults(plan.with_max_delay(Duration::from_micros(200)))
                .with_pipeline_window(32)
                .with_batch(batch)
                .with_retry(RetryPolicy {
                    max_attempts: 12,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                }),
        )
        .unwrap();
        let reqs: Vec<Request> = (0..400u64)
            .map(|t| Request::Observe {
                cell: cell(),
                machine: MachineId(t as u32 % 8),
                task: task(0),
                usage: 0.2,
                limit: 0.5,
                mem: None,
                tick: t / 3,
            })
            .collect();
        let mut acked = 0u64;
        c.pipeline_with(&reqs, |_, resp, _| {
            if matches!(resp, Response::Ok) {
                acked += 1;
            }
        })
        .unwrap();
        assert_eq!(acked, 400, "every request must eventually resolve OK");
        assert!(c.faults_injected() > 0);
        drop(c);
        let stats = server.shutdown();
        assert!(
            stats.observes + stats.stale >= acked,
            "lost acked samples: {stats:?}"
        );
    }
}
