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
//! header iff `n > 1`) encoded by `Link::write_frame` into the link's out
//! buffer, which goes to the transport whenever it holds `WRITE_AT` bytes
//! and at the end of the burst (`Link::flush_frames`); its replies are read by `Link::fill` and
//! taken, once all there, by `Link::take_frame`. A single request is a
//! frame of one, a window is a run of frames flushed once, and the
//! cluster's lanes and the load driver ([`crate::loadgen`]) use the same
//! path. A frame is acknowledged or lost whole — a transport
//! failure, its reply deadline or a server-side close (`ERR timeout`/
//! `conn-limit`, also where a `BATCHR` header is due) discards the replies
//! already read for it and it is sent again.

use crate::engine::{Engine, Policy, Shape};
use crate::error::ClientError;
use crate::pipe::{Entry, MemberPipe};
use oc_serve::fault::{Fault, FaultPlan, FaultSchedule};
use oc_serve::proto::{
    find_newline, parse_batchr_header, push_u64, ErrCode, ProtoError, Request, Response,
    StatsSnapshot, MAX_BATCH,
};
use oc_telemetry::{trace, Counter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Out-buffer bytes at which a burst's frames are written before the
/// burst ends, so that the server starts on a long burst's first frames
/// while the later ones are encoded; short frames still share one write.
const WRITE_AT: usize = 4 << 10;

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
    /// How long a connection with bytes to send may make no write
    /// progress before it is lost (a transient failure, as for
    /// `response_timeout`). Writes never block: the lane waits for the
    /// socket to take bytes while the other lanes go on.
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

/// One connection of the engine: its transport and buffers, and the
/// retry bookkeeping that survives a reconnect.
#[derive(Debug)]
pub(crate) struct Link {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Conn>,
    /// Frames encoded since the last flush.
    out: Vec<u8>,
    rng: SmallRng,
    /// Connect epoch; salts the fault sub-seed so every reconnect gets a
    /// fresh deterministic schedule.
    epoch: u64,
    metrics: ClientMetrics,
    global: GlobalCounters,
    /// Faults the fault plan injected, across reconnects.
    pub(crate) injected: u64,
    /// Set for a [`ClusterClient`](crate::ClusterClient) member: a lost
    /// connection is re-dialled at once, and a *refused* connect —
    /// Linux answers `ECONNREFUSED` only when nothing listens on the
    /// port — is terminal instead of retried, so the cluster layer
    /// hears of a dead member before any backoff is napped. A plain
    /// client keeps retrying: its server may be restarting, and it has
    /// no replica to go to.
    ring_member: bool,
}

/// An established connection.
#[derive(Debug)]
struct Conn {
    /// Non-blocking: a write the socket cannot take waits in `Link::out`.
    stream: TcpStream,
    /// Since when the socket has taken none of the bytes waiting to be
    /// written; `None` while writes progress or nothing waits.
    stalled: Option<Instant>,
    /// The fault plan's schedule, if any: every read and write draws.
    schedule: Option<FaultSchedule>,
    /// Reply bytes read so far; `replies[taken..]` is not taken yet.
    replies: Vec<u8>,
    taken: usize,
}

impl Conn {
    /// Draws the fault of one read or write of `len` bytes, counting one
    /// that changes the operation into `injected`.
    fn draw(&mut self, len: usize, injected: &mut u64) -> Fault {
        let fault = (self.schedule.as_mut()).map_or(Fault::Go(len), |s| s.draw(len));
        *injected += u64::from(fault != Fault::Go(len));
        fault
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
        self.link().injected
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

    /// Runs an admission check: would a task of CPU `limit` keep every
    /// lane of the machine's projected peak within capacity?
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
        frame: &mut Vec<Entry<usize>>,
        sent_at: Instant,
        replies: &[Response],
    ) {
        let lat_us = sent_at.elapsed().as_secs_f64() * 1e6;
        for (e, resp) in frame.iter().zip(replies) {
            (self.on_resp)(e.req, resp, lat_us);
        }
        self.left -= frame.len();
    }

    /// The call fails, and its unresolved lines — indices into this
    /// call's slice — leave the lane with it.
    fn failed(
        &mut self,
        eng: &mut Engine<usize>,
        lane: usize,
        _: usize,
        err: ClientError,
    ) -> Result<(), ClientError> {
        eng.lanes[lane].pipe = MemberPipe::default();
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
            out: Vec::new(),
            rng,
            epoch: 0,
            metrics: ClientMetrics::default(),
            global: GlobalCounters::new(),
            injected: 0,
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

    /// Opens the connection unless one is open.
    pub(crate) fn connect(&mut self) -> std::io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        if self.epoch > 0 {
            self.metrics.reconnects += 1;
            self.global.reconnects.inc();
            trace::event("client.reconnect", self.epoch, 0);
        }
        // Salt by seed and epoch so every client and every reconnect
        // runs a distinct deterministic schedule.
        let salt = self.cfg.seed.wrapping_shl(20).wrapping_add(self.epoch);
        let schedule =
            (self.cfg.faults.as_ref()).map(|plan| FaultSchedule::new(plan, plan.stream_seed(salt)));
        self.epoch += 1;
        self.conn = Some(Conn {
            stream,
            stalled: None,
            schedule,
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

    /// Closes the connection and drops unwritten bytes; the next frame redials.
    pub(crate) fn close(&mut self) {
        self.conn = None;
        self.out.clear();
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
        self.close();
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
        self.conn.as_ref().map(|conn| conn.stream.as_raw_fd())
    }

    /// Since when the socket has taken none of the bytes waiting to be
    /// written: the link waits for it to be writable.
    pub(crate) fn stalled_since(&self) -> Option<Instant> {
        self.conn.as_ref().and_then(|conn| conn.stalled)
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

    /// Encodes `n` requests into the out buffer as one frame — a `BATCH`
    /// wrapper when more than one — and writes the buffer once it holds
    /// [`WRITE_AT`] bytes, unless the link is stalled; the caller writes
    /// the rest at the end of its burst ([`Link::flush_frames`]). Nothing
    /// is read back; replies are taken later with [`Link::take_frame`].
    pub(crate) fn write_frame<'a, I>(&mut self, n: usize, reqs: I) -> Result<FrameIo, ClientError>
    where
        I: IntoIterator<Item = &'a Request>,
    {
        let out = &mut self.out;
        if n > 1 {
            out.extend_from_slice(b"BATCH ");
            push_u64(out, n as u64);
            out.push(b'\n');
        }
        for req in reqs {
            req.encode_into(out);
            out.push(b'\n');
        }
        if out.len() < WRITE_AT || self.stalled_since().is_some() {
            return Ok(FrameIo::Done);
        }
        self.flush_frames()
    }

    /// Writes every frame encoded since the last write to the transport,
    /// connecting first unless a connection is open, one fault draw per
    /// write. A transient failure — to connect among them — loses
    /// everything on the wire, and drops the connection if one was open;
    /// a hold, or a socket that takes no more now, leaves what is not
    /// written yet for the next call (the latter marks the link stalled).
    pub(crate) fn flush_frames(&mut self) -> Result<FrameIo, ClientError> {
        if self.out.is_empty() {
            return Ok(FrameIo::Done);
        }
        if let Err(e) = self.connect() {
            self.out.clear();
            return if self.retryable(&e) {
                Ok(FrameIo::Lost(e.to_string()))
            } else {
                Err(ClientError::Io(e))
            };
        }
        let conn = self.conn.as_mut().expect("connected above");
        while !self.out.is_empty() {
            let wrote = match conn.draw(self.out.len(), &mut self.injected) {
                Fault::Go(n) => conn.stream.write(&self.out[..n]),
                Fault::Drop => Err(std::io::ErrorKind::ConnectionReset.into()),
                Fault::Hold(d) => return Ok(FrameIo::Held(d)),
            };
            match wrote {
                Ok(n) => {
                    drop(self.out.drain(..n));
                    conn.stalled = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.stalled.get_or_insert_with(Instant::now);
                    break;
                }
                Err(e) => return self.lose(e),
            }
        }
        Ok(FrameIo::Done)
    }

    /// A transport error under a frame: a retryable one drops the
    /// connection and loses the frame, anything else is terminal. Either
    /// way what was not written yet is gone.
    fn lose(&mut self, e: std::io::Error) -> Result<FrameIo, ClientError> {
        self.out.clear();
        if !self.retryable(&e) {
            return Err(ClientError::Io(e));
        }
        self.drop_conn()?;
        Ok(FrameIo::Lost(e.to_string()))
    }

    /// Reads once from the socket into the reply buffer, after one fault
    /// draw; called when the socket is readable (a spurious wake-up reads
    /// nothing). EOF or a transient failure drops the connection and
    /// loses what it had on the wire; a hold reads nothing.
    pub(crate) fn fill(&mut self) -> Result<FrameIo, ClientError> {
        let Some(conn) = self.conn.as_mut() else {
            return Ok(FrameIo::Lost("connection lost".to_string()));
        };
        // Keep the untaken bytes at the front, and room behind them.
        conn.replies.drain(..std::mem::take(&mut conn.taken));
        let filled = conn.replies.len();
        let room = conn.replies.capacity().max(2 * filled) - filled;
        let read = match conn.draw(room, &mut self.injected) {
            Fault::Go(n) => {
                conn.replies.resize(filled + room, 0);
                conn.stream.read(&mut conn.replies[filled..filled + n])
            }
            Fault::Drop => Err(std::io::ErrorKind::ConnectionReset.into()),
            Fault::Hold(d) => return Ok(FrameIo::Held(d)),
        };
        conn.replies
            .truncate(filled + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => self.lose(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(e) if !matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                self.lose(e)
            }
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
        // One scan for the frame's last line end, past its head line's.
        let (mut head, mut end, mut left) = (None, 0, n + usize::from(n > 1));
        while let Some(at) = find_newline(&buffered[end..]) {
            end += at + 1;
            head.get_or_insert(end);
            left -= 1;
            if left == 0 {
                break;
            }
        }
        // Until the frame is whole, only its head line is looked at.
        let Some(end) = (if left == 0 { Some(end) } else { head }) else {
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
                self.close();
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
    /// A fault plan's delay holds the step this long; it has not happened.
    Held(Duration),
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::config::ServeConfig;
    use oc_serve::fault::FaultKinds;
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

    /// A link to a listener that never answers, under a rate-1.0 plan
    /// of the one fault kind `kinds` enables, with one two-line frame
    /// encoded; and the frame's bytes.
    fn faulted_link(kinds: FaultKinds) -> (Link, std::net::TcpListener, Vec<u8>) {
        let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let plan = FaultPlan::new(8, 1.0).with_kinds(kinds);
        let cfg = ClientConfig::default().with_faults(plan);
        let mut link = Link::new(stub.local_addr().unwrap(), cfg, false);
        let frame = [Request::Stats, Request::Metrics];
        assert!(matches!(link.write_frame(2, &frame), Ok(FrameIo::Done)));
        (link, stub, b"BATCH 2\nSTATS\nMETRICS\n".to_vec())
    }

    fn received(stub: &std::net::TcpListener, len: usize) -> Vec<u8> {
        let mut got = vec![0; len];
        stub.accept().unwrap().0.read_exact(&mut got).unwrap();
        got
    }

    /// Under partials every write moves one byte, and the link's write
    /// loop still delivers the whole frame, in order. The last byte's
    /// partial changes nothing and is not counted.
    #[test]
    fn partial_writes_still_deliver_the_whole_frame() {
        let (mut link, stub, frame) = faulted_link(FaultKinds {
            delays: false,
            partials: true,
            drops: false,
        });
        assert!(matches!(link.flush_frames(), Ok(FrameIo::Done)));
        assert_eq!(received(&stub, frame.len()), frame);
        assert_eq!(link.injected, frame.len() as u64 - 1);
    }

    /// A drop is counted once and ends the connection: the frame is
    /// lost with it, and nothing more is drawn on it.
    #[test]
    fn a_drop_is_counted_once_and_ends_the_connection() {
        let (mut link, _stub, _) = faulted_link(FaultKinds {
            delays: false,
            partials: false,
            drops: true,
        });
        assert!(matches!(link.flush_frames(), Ok(FrameIo::Lost(_))));
        assert!(link.raw_fd().is_none() && link.out.is_empty());
        assert!(matches!(link.fill(), Ok(FrameIo::Lost(_))));
        assert_eq!(link.injected, 1);
    }

    /// A delay holds the link instead of sleeping: the frame stays
    /// unwritten, and once the hold is over the held write goes on.
    #[test]
    fn a_delay_holds_the_frame_until_the_next_flush() {
        let (mut link, stub, frame) = faulted_link(FaultKinds {
            delays: true,
            partials: false,
            drops: false,
        });
        assert!(matches!(link.flush_frames(), Ok(FrameIo::Held(_))));
        assert!(!link.out.is_empty());
        assert!(matches!(link.flush_frames(), Ok(FrameIo::Done)));
        assert_eq!(received(&stub, frame.len()), frame);
        assert_eq!(link.injected, 1);
    }

    /// A policy over `OBSERVE` lines: lane 0 is fed lines near the line
    /// cap without end, lane 1 `small` short ones; replies to lane 1 are
    /// counted, lane 0 is never answered.
    struct Starved {
        big: Request,
        small: Vec<Request>,
        fed: usize,
        resolved: usize,
    }

    impl Starved {
        fn new(small: usize) -> Starved {
            let observe = |cell: CellId, tick| Request::Observe {
                cell,
                machine: MachineId(0),
                task: task(0),
                usage: 0.2,
                limit: 0.5,
                mem: None,
                tick,
            };
            Starved {
                big: observe(CellId::new("c".repeat(440)), 0),
                small: (0..small as u64).map(|t| observe(cell(), t)).collect(),
                fed: 0,
                resolved: 0,
            }
        }
    }

    impl Policy for Starved {
        fn request<'a>(&'a self, line: &'a Request) -> &'a Request {
            line
        }

        fn refill(&mut self, lane: usize, pipe: &mut MemberPipe, want: usize) {
            for _ in 0..want {
                let req = match lane {
                    0 => self.big.clone(),
                    _ if self.fed < self.small.len() => {
                        self.fed += 1;
                        self.small[self.fed - 1].clone()
                    }
                    _ => return,
                };
                pipe.push(Entry::pinned(req));
            }
        }

        fn resolved(
            &mut self,
            _: &mut Engine,
            lane: usize,
            frame: &mut Vec<Entry>,
            _: Instant,
            replies: &[Response],
        ) {
            assert_eq!(lane, 1, "the starved peer never answers");
            assert!(replies.iter().all(|r| *r == Response::Ok), "{replies:?}");
            self.resolved += frame.len();
        }

        fn failed(
            &mut self,
            _: &mut Engine,
            _: usize,
            _: usize,
            err: ClientError,
        ) -> Result<(), ClientError> {
            Err(err)
        }

        fn done(&self, _: &Engine, _: bool) -> bool {
            self.resolved == self.small.len()
        }
    }

    /// A listener that accepts one connection and never reads from it,
    /// holding it until the returned sender drops.
    fn never_reads() -> (
        SocketAddr,
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<()>,
    ) {
        let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stub.local_addr().unwrap();
        let (hold, release) = std::sync::mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (conn, _) = stub.accept().unwrap();
            let _ = release.recv();
            drop(conn);
        });
        (addr, hold, peer)
    }

    /// Half a window of lines near the line cap, so a lane fills its
    /// socket's buffers many times over.
    const STARVING: Shape = Shape {
        batch: 64,
        lines: 1 << 16,
        frames: usize::MAX,
    };

    /// A peer that stops reading stalls only its own lane: lane 0's
    /// socket buffers fill and its link waits for writability, while
    /// lane 1 of the same engine gets every reply well inside the write
    /// timeout.
    #[test]
    fn a_peer_that_stops_reading_stalls_only_its_own_lane() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let (stub, hold, peer) = never_reads();
        let cfg = ClientConfig {
            write_timeout: Duration::from_secs(10),
            response_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        };
        let mut eng: Engine = Engine::new(STARVING, &cfg);
        eng.add(Link::new(stub, cfg.clone(), false));
        eng.add(Link::new(server.addr(), cfg, false));
        let mut policy = Starved::new(512);
        let started = Instant::now();
        while !eng.step(&mut policy, true).unwrap() {}
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "lane 1 resolved after {took:?}"
        );
        assert!(
            eng.lanes[0].link.stalled_since().is_some(),
            "lane 0's socket never filled"
        );
        drop(eng);
        drop(hold);
        peer.join().unwrap();
        server.shutdown();
    }

    /// A stalled link is lost at its write timeout, which counts as a
    /// strike like a missed reply deadline.
    #[test]
    fn a_stalled_link_is_lost_at_its_write_timeout() {
        let (stub, hold, peer) = never_reads();
        let cfg = ClientConfig {
            write_timeout: Duration::from_millis(300),
            response_timeout: Duration::from_secs(30),
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..ClientConfig::default()
        };
        let mut eng: Engine = Engine::new(STARVING, &cfg);
        eng.add(Link::new(stub, cfg, false));
        let mut policy = Starved::new(1);
        let started = Instant::now();
        let err = loop {
            if let Err(e) = eng.step(&mut policy, true) {
                break e;
            }
        };
        let took = started.elapsed();
        assert!(
            matches!(&err, ClientError::Exhausted { attempts: 1, last } if last.contains("write")),
            "{err:?}"
        );
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_secs(2),
            "lost after {took:?}"
        );
        drop(hold);
        peer.join().unwrap();
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
