//! The typed client: one connection, transparent reconnect, bounded retry.
//!
//! # Retry semantics
//!
//! A [`Client::request`] distinguishes four failure classes:
//!
//! * **`BUSY`** — the server shed the request. It was *not* applied;
//!   re-sending is always safe. Retried after a seeded exponential
//!   backoff. (Reserved in the protocol: `oc-serve` no longer has a queue
//!   to fill and never sends it.)
//! * **`ERR timeout` / `ERR conn-limit`** — the server closed (or refused)
//!   this connection but is otherwise healthy. The connection is dropped
//!   and the request retried on a fresh one after backoff.
//! * **Transient I/O** (reset, broken pipe, EOF, deadline…) — the fate of
//!   an in-flight request is unknown: it may or may not have been applied.
//!   Re-sending is still safe because ingestion is idempotent — a repeated
//!   `OBSERVE` for a still-pending tick updates in place bit-identically,
//!   a repeated one for a flushed tick is counted `stale`, and
//!   `PREDICT`/`ADMIT` are read-only. The client reconnects and re-sends.
//! * **Everything else** (`ERR shutdown`, parse errors, non-transient I/O)
//!   — terminal; surfaced to the caller immediately.
//!
//! A connection a [`ClusterClient`](crate::ClusterClient) holds to a ring
//! member differs in one point: after a transient failure it re-dials at
//! once, and a *refused* connect is terminal rather than transient — the
//! process is gone, and the cluster layer has a replica to go to.
//!
//! Backoff is exponential (`base * 2^attempt`, capped) with deterministic
//! jitter from a seeded [`SmallRng`], so two clients created with
//! different seeds never stampede in lockstep and a failing run replays
//! identically.
//!
//! # Pipelining
//!
//! [`Client::pipeline_with`] streams a slice of requests through bounded
//! windows: up to [`ClientConfig::pipeline_window`] requests are written
//! before the first response is awaited (the protocol answers strictly in
//! order, so responses match requests FIFO). Retryable failures re-queue
//! their request *ahead* of everything not yet written, preserving
//! submission order as closely as a retry allows.
//!
//! # One frame path
//!
//! Everything that goes on the wire is a *frame* of `n` requests (`BATCH n`
//! header iff `n > 1`) appended by `Client::write_frame`, and everything
//! that comes back is drained by `Client::read_frame_replies`: a single
//! [`Client::request`] is a frame of one, a pipelined window is a run of
//! frames flushed once, and the cluster pipes use the same pair. A frame
//! is acknowledged or lost whole — a transport failure or a server-side
//! close (`ERR timeout`/`conn-limit`, also where a `BATCHR` header is due)
//! discards the replies already read for it and it is sent again.

use crate::error::ClientError;
use oc_serve::fault::{FaultCounters, FaultPlan, FaultStream};
use oc_serve::proto::{
    parse_batchr_header, push_u64, ErrCode, ProtoError, ProtoScratch, Request, Response,
    StatsSnapshot, MAX_BATCH,
};
use oc_telemetry::{trace, Counter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded-retry policy.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// First backoff; doubles each retry.
    pub base: Duration,
    /// Upper bound on one backoff sleep.
    pub cap: Duration,
}

impl RetryPolicy {
    /// How long to sleep before retry number `attempt`:
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
    /// Deadline for one response read; elapsing counts as a transient
    /// failure (reconnect + retry).
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
    /// Returns [`ClientError::Config`] for a zero window, zero attempt
    /// budget, or invalid fault plan.
    pub fn validate(&self) -> Result<(), ClientError> {
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
    /// Retries caused by `BUSY` backpressure.
    pub busy_retries: u64,
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
    busy_retries: Arc<Counter>,
    io_retries: Arc<Counter>,
}

impl GlobalCounters {
    fn new() -> GlobalCounters {
        let m = oc_telemetry::global_metrics();
        GlobalCounters {
            retries: m.counter("client.retries"),
            reconnects: m.counter("client.reconnects"),
            busy_retries: m.counter("client.retries.busy"),
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
    /// hears of a dead member before any backoff is slept. A plain
    /// client keeps retrying: its server may be restarting, and it has
    /// no replica to go to.
    ring_member: bool,
}

/// The two halves of an established connection, boxed so the fault
/// wrapper is transparent to the rest of the client.
struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: BufWriter<Box<dyn Write + Send>>,
    /// Encode buffer of the frame being written.
    frame: Vec<u8>,
    /// The reply line being read, and the parser's scratch.
    line: String,
    scratch: ProtoScratch,
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
        Client::dial(addr, cfg, false)
    }

    /// [`Client::connect`] for a ring member's connection: a refused
    /// connect, now or on any later reconnect, surfaces at once as
    /// [`ClientError::Io`] ([`ClientError::is_refused`]) instead of
    /// riding the retry ladder.
    pub(crate) fn connect_member(
        addr: SocketAddr,
        cfg: ClientConfig,
    ) -> Result<Client, ClientError> {
        Client::dial(addr, cfg, true)
    }

    fn dial(addr: SocketAddr, cfg: ClientConfig, ring_member: bool) -> Result<Client, ClientError> {
        cfg.validate()?;
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC11E_57A9);
        let mut client = Client {
            addr,
            cfg,
            conn: None,
            rng,
            epoch: 0,
            metrics: ClientMetrics::default(),
            global: GlobalCounters::new(),
            fault_counters: Arc::new(FaultCounters::default()),
            ring_member,
        };
        for attempt in 0..client.cfg.retry.max_attempts {
            match client.ensure_conn() {
                Ok(_) => return Ok(client),
                Err(e) if client.connect_retryable(&e) => client.backoff(attempt),
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        Err(ClientError::Exhausted {
            attempts: client.cfg.retry.max_attempts,
            last: format!("could not connect to {addr}"),
        })
    }

    /// What the retry machinery has done so far.
    pub fn metrics(&self) -> ClientMetrics {
        self.metrics
    }

    /// Faults injected by this client's own fault plan.
    pub fn faults_injected(&self) -> u64 {
        self.fault_counters.total()
    }

    fn ensure_conn(&mut self) -> std::io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.response_timeout))?;
        stream.set_write_timeout(Some(self.cfg.write_timeout))?;
        let read_half = stream.try_clone()?;
        if self.epoch > 0 {
            self.metrics.reconnects += 1;
            self.global.reconnects.inc();
            trace::event("client.reconnect", self.epoch, 0);
        }
        let (r, w): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match &self.cfg.faults {
            Some(plan) => {
                // Salt by seed and epoch so every client and every
                // reconnect runs a distinct deterministic schedule.
                let base = self.cfg.seed.wrapping_shl(20).wrapping_add(self.epoch * 2);
                (
                    Box::new(FaultStream::new(
                        read_half,
                        plan,
                        plan.stream_seed(base),
                        Arc::clone(&self.fault_counters),
                    )),
                    Box::new(FaultStream::new(
                        stream,
                        plan,
                        plan.stream_seed(base + 1),
                        Arc::clone(&self.fault_counters),
                    )),
                )
            }
            None => (Box::new(read_half), Box::new(stream)),
        };
        self.epoch += 1;
        self.conn = Some(Conn {
            reader: BufReader::new(r),
            writer: BufWriter::new(w),
            frame: Vec::new(),
            line: String::new(),
            scratch: ProtoScratch::new(),
        });
        Ok(())
    }

    /// Whether a failed connect is worth another attempt: any transient
    /// kind, except a refused connect to a ring member.
    fn connect_retryable(&self, e: &std::io::Error) -> bool {
        is_transient(e) && !(self.ring_member && e.kind() == std::io::ErrorKind::ConnectionRefused)
    }

    /// Drops the connection after a transient transport failure. A ring
    /// member is re-dialled at once: a live one is reconnected before
    /// the caller's backoff instead of after it, a dead one refuses.
    ///
    /// # Errors
    ///
    /// Only for a ring member: the refused (or otherwise terminal)
    /// reconnect, as [`ClientError::Io`].
    fn drop_conn(&mut self) -> Result<(), ClientError> {
        self.conn = None;
        if self.ring_member {
            if let Err(e) = self.ensure_conn() {
                if !self.connect_retryable(&e) {
                    return Err(ClientError::Io(e));
                }
            }
        }
        Ok(())
    }

    /// Sleeps the retry policy's nap for `attempt`.
    fn backoff(&mut self, attempt: u32) {
        std::thread::sleep(self.cfg.retry.nap(attempt, &mut self.rng));
    }

    /// Records one `BUSY` retry (per-client and process-wide) and emits a
    /// `client.retry.busy` trace event (`a` = requests affected).
    fn note_busy(&mut self, affected: u64) {
        self.metrics.busy_retries += 1;
        self.global.busy_retries.inc();
        trace::event("client.retry.busy", affected, 0);
    }

    /// Records one transient-I/O retry and emits `client.retry.io`
    /// (`a` = requests re-queued by the failure).
    fn note_io(&mut self, affected: u64) {
        self.metrics.io_retries += 1;
        self.global.io_retries.inc();
        trace::event("client.retry.io", affected, 0);
    }

    /// Records `n` request attempts beyond the first.
    fn note_retries(&mut self, n: u64) {
        self.metrics.retries += n;
        self.global.retries.add(n);
    }

    /// Sends one request, retrying `BUSY` and transient failures within
    /// the budget. Non-retryable `ERR` responses are returned as
    /// [`Response::Err`] values, not errors.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when the budget runs out; terminal
    /// transport and protocol failures as their own variants.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut replies = Vec::with_capacity(1);
        let mut last = String::new();
        for attempt in 0..self.cfg.retry.max_attempts {
            if attempt > 0 {
                self.note_retries(1);
            }
            let io = self
                .write_frame(1, std::iter::once(req))?
                .then(|| self.flush_frames())?
                .then(|| self.read_frame_replies(1, &mut replies))?;
            match io {
                FrameIo::Done => match replies.pop().expect("a frame of one has one reply") {
                    Response::Busy => {
                        self.note_busy(1);
                        last = "BUSY".to_string();
                    }
                    resp => return Ok(resp),
                },
                FrameIo::Lost(what) => {
                    self.note_io(1);
                    last = what;
                }
            }
            self.backoff(attempt);
        }
        Err(ClientError::Exhausted {
            attempts: self.cfg.retry.max_attempts,
            last,
        })
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
        let req = Request::Observe {
            cell: cell.clone(),
            machine,
            task,
            usage,
            limit,
            mem: None,
            tick,
        };
        match self.request(&req)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::unexpected("OK", &other)),
        }
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
        let req = Request::Observe {
            cell: cell.clone(),
            machine,
            task,
            usage,
            limit,
            mem: Some((mem_usage, mem_limit)),
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

    /// Asks the server to shut down. Success if the server acknowledged
    /// or was already shutting down.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::request`] failures.
    pub fn request_shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Ok
            | Response::Err {
                code: ErrCode::Shutdown,
                ..
            } => Ok(()),
            other => Err(ClientError::unexpected("OK", &other)),
        }
    }

    /// Streams `reqs` through bounded pipelined windows; `on_resp(index,
    /// response, latency_us)` fires once per request, in resolution order
    /// (usually submission order; retries resolve late).
    ///
    /// Responses match requests FIFO because the protocol answers in
    /// order. `BUSY`, `ERR timeout`/`conn-limit`, and transient I/O
    /// failures re-queue the affected requests ahead of everything not
    /// yet written; a window that makes zero progress counts one strike,
    /// and `max_attempts` consecutive strikes exhaust the budget.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] after `max_attempts` zero-progress
    /// windows; terminal transport and protocol failures as their own
    /// variants.
    pub fn pipeline_with<F>(&mut self, reqs: &[Request], mut on_resp: F) -> Result<(), ClientError>
    where
        F: FnMut(usize, &Response, f64),
    {
        let mut todo: VecDeque<usize> = (0..reqs.len()).collect();
        let mut strikes = 0u32;
        let mut last = String::new();
        while !todo.is_empty() {
            if strikes >= self.cfg.retry.max_attempts {
                return Err(ClientError::Exhausted {
                    attempts: self.cfg.retry.max_attempts,
                    last,
                });
            }
            if let Err(e) = self.ensure_conn() {
                if self.connect_retryable(&e) {
                    self.note_io(0);
                    last = e.to_string();
                    self.backoff(strikes);
                    strikes += 1;
                    continue;
                }
                return Err(ClientError::Io(e));
            }
            let window: Vec<usize> = {
                let n = todo.len().min(self.cfg.pipeline_window);
                todo.drain(..n).collect()
            };
            match self.run_window(reqs, &window, &mut todo, &mut on_resp)? {
                WindowOutcome::Progress => strikes = 0,
                WindowOutcome::Stalled(what) => {
                    last = what;
                    self.backoff(strikes);
                    strikes += 1;
                }
            }
        }
        Ok(())
    }

    /// Writes one window — every frame, then one flush — and drains its
    /// responses frame by frame. Unresolved indices go back onto the
    /// *front* of `todo`, in order.
    ///
    /// With `cfg.batch > 1`, consecutive data-plane requests (`OBSERVE`,
    /// `PREDICT`, `ADMIT`) are framed as `BATCH` frames of up to
    /// `cfg.batch` sub-requests; control verbs and singleton runs are
    /// sent bare. A frame lost to the transport is re-sent whole, with
    /// everything after it (idempotent, see module docs).
    fn run_window<F>(
        &mut self,
        reqs: &[Request],
        window: &[usize],
        todo: &mut VecDeque<usize>,
        on_resp: &mut F,
    ) -> Result<WindowOutcome, ClientError>
    where
        F: FnMut(usize, &Response, f64),
    {
        let frames = plan_frames(reqs, window, self.cfg.batch);
        // The server must see the window as one burst (it settles reads
        // once per burst), so nothing is flushed until all of it is
        // encoded.
        let mut stamps = Vec::with_capacity(frames.len());
        let mut wrote = FrameIo::Done;
        for frame in &frames {
            stamps.push(Instant::now());
            let members = window[frame.clone()].iter().map(|&idx| &reqs[idx]);
            wrote = wrote.then(|| self.write_frame(frame.len(), members))?;
        }
        if let FrameIo::Lost(what) = wrote.then(|| self.flush_frames())? {
            // Nothing in this window is resolved; the server discards
            // any truncated trailing line, so a clean re-send of the
            // whole window is safe.
            self.note_io(window.len() as u64);
            self.note_retries(window.len() as u64);
            requeue_front(todo, window.iter().copied());
            return Ok(WindowOutcome::Stalled(what));
        }

        let mut resolved = false;
        let mut deferred: Vec<usize> = Vec::new();
        let mut replies: Vec<Response> = Vec::new();
        for (frame, sent_at) in frames.iter().zip(stamps) {
            replies.clear();
            if let FrameIo::Lost(what) = self.read_frame_replies(frame.len(), &mut replies)? {
                // This frame and all later responses of the window are
                // gone; re-send the lot.
                let rest = &window[frame.start..];
                self.note_io(rest.len() as u64);
                self.note_retries(rest.len() as u64);
                requeue_front(todo, deferred.iter().chain(rest).copied());
                return Ok(if resolved {
                    WindowOutcome::Progress
                } else {
                    WindowOutcome::Stalled(what)
                });
            }
            for (&idx, resp) in window[frame.clone()].iter().zip(&replies) {
                if matches!(resp, Response::Busy) {
                    self.note_busy(1);
                    self.note_retries(1);
                    deferred.push(idx);
                } else {
                    on_resp(idx, resp, sent_at.elapsed().as_secs_f64() * 1e6);
                    resolved = true;
                }
            }
        }
        requeue_front(todo, deferred.iter().copied());
        Ok(if resolved || window.is_empty() {
            WindowOutcome::Progress
        } else {
            WindowOutcome::Stalled("every request in the window was deferred".to_string())
        })
    }

    /// Appends `n` requests to the connection's writer as one frame — a
    /// `BATCH` wrapper when more than one — without flushing: the caller
    /// decides how many frames make one burst ([`Client::flush_frames`]).
    /// Nothing is read back; replies are drained later with
    /// [`Client::read_frame_replies`]. A transient transport failure
    /// drops the connection and comes back as [`FrameIo::Lost`]; nothing
    /// of the frame counts as delivered.
    pub(crate) fn write_frame<'a, I>(&mut self, n: usize, reqs: I) -> Result<FrameIo, ClientError>
    where
        I: IntoIterator<Item = &'a Request>,
    {
        if let Err(e) = self.ensure_conn() {
            return if self.connect_retryable(&e) {
                self.conn = None;
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

    /// A transport error under a frame: a transient one drops the
    /// connection and loses the frame, anything else is terminal.
    fn lose(&mut self, e: std::io::Error) -> Result<FrameIo, ClientError> {
        if !is_transient(&e) {
            return Err(ClientError::Io(e));
        }
        self.drop_conn()?;
        Ok(FrameIo::Lost(e.to_string()))
    }

    /// Drains one frame's replies — a `BATCHR` header when `n > 1`, then
    /// `n` response lines — appending the raw responses to `out`. `BUSY`
    /// and every other per-request answer are the caller's to handle;
    /// what is decided here is the fate of the frame. On a transient
    /// failure (EOF included) or a server-side `ERR timeout`/`conn-limit`
    /// close — an idle reap says so where the next frame's header is
    /// due — the connection is dropped, the partial replies are rolled
    /// back and the whole frame is [`FrameIo::Lost`]: the caller replays
    /// it, and replays of already-applied samples are stale no-ops
    /// server-side.
    pub(crate) fn read_frame_replies(
        &mut self,
        n: usize,
        out: &mut Vec<Response>,
    ) -> Result<FrameIo, ClientError> {
        let from = out.len();
        let mut header_due = n > 1;
        while out.len() - from < n {
            let Some(conn) = self.conn.as_mut() else {
                out.truncate(from);
                return Ok(FrameIo::Lost("connection lost".to_string()));
            };
            conn.line.clear();
            let read = match conn.reader.read_line(&mut conn.line) {
                Ok(0) => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )),
                Ok(_) => Ok(()),
                Err(e) => Err(e),
            };
            if let Err(e) = read {
                out.truncate(from);
                return self.lose(e);
            }
            let line = conn.line.trim_end();
            if header_due {
                // The header count always matches `n`: servers write it
                // up front from the frame header and answer one line per
                // sub-request even when rejecting. A mismatch means the
                // reply stream is out of step — unrecoverable, so fail
                // loudly rather than mis-attributing responses.
                match parse_batchr_header(line, &mut conn.scratch) {
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
                return Ok(FrameIo::Lost(what));
            }
            if header_due {
                return Err(out_of_step(line));
            }
            out.push(resp);
        }
        Ok(FrameIo::Done)
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

impl FrameIo {
    /// Runs `next` if this step completed; a lost frame stays lost.
    pub(crate) fn then(
        self,
        next: impl FnOnce() -> Result<FrameIo, ClientError>,
    ) -> Result<FrameIo, ClientError> {
        match self {
            FrameIo::Done => next(),
            lost => Ok(lost),
        }
    }
}

/// One contiguous run of window positions written as one frame.
type Frame = std::ops::Range<usize>;

/// True for the data-plane verbs the protocol allows inside `BATCH`.
fn is_batchable(req: &Request) -> bool {
    matches!(
        req,
        Request::Observe { .. } | Request::Predict { .. } | Request::Admit { .. }
    )
}

/// Splits window positions into frames: maximal runs of consecutive
/// batchable requests, chunked to at most `batch` sub-requests each.
/// Singleton runs skip the frame overhead and go bare.
fn plan_frames(reqs: &[Request], window: &[usize], batch: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < window.len() {
        if batch > 1 && is_batchable(&reqs[window[pos]]) {
            let mut end = pos + 1;
            while end < window.len() && end - pos < batch && is_batchable(&reqs[window[end]]) {
                end += 1;
            }
            frames.push(pos..end);
            pos = end;
        } else {
            frames.push(pos..pos + 1);
            pos += 1;
        }
    }
    frames
}

/// How one pipelined window ended.
enum WindowOutcome {
    /// At least one request resolved; the strike counter resets.
    Progress,
    /// Zero requests resolved; one strike.
    Stalled(String),
}

/// Pushes `indices` onto the front of `todo`, preserving their order.
fn requeue_front(todo: &mut VecDeque<usize>, indices: impl DoubleEndedIterator<Item = usize>) {
    for idx in indices.rev() {
        todo.push_front(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::config::ServeConfig;
    use oc_serve::server::Server;
    use oc_trace::ids::{CellId, JobId, TaskId};
    use oc_trace::MachineId;

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
    /// the whole budget; only a ring member's connection
    /// (`connect_member`) gives up on it at once.
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
        // Three backoff sleeps of [10, 20) ms each.
        assert!(started.elapsed() >= Duration::from_millis(30));
        let err = Client::connect_member(closed, cfg.clone()).unwrap_err();
        assert!(err.is_refused(), "{err:?}");

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
    fn pipeline_survives_chaos_without_losing_acks() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        // Buffered windows make few, large socket ops, so the per-op rate
        // is high to get a meaningful fault count over one small replay.
        let plan = FaultPlan::new(1234, 0.25).with_max_delay(Duration::from_micros(200));
        let mut c = Client::connect(
            server.addr(),
            ClientConfig::default()
                .with_seed(9)
                .with_faults(plan)
                .with_pipeline_window(32)
                .with_retry(RetryPolicy {
                    max_attempts: 12,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                }),
        )
        .unwrap();
        let reqs: Vec<Request> = (0..400u64)
            .map(|t| Request::Observe {
                cell: cell(),
                machine: MachineId(0),
                task: task((t % 3) as u32),
                usage: 0.1,
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
    fn batched_pipeline_survives_chaos() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let plan = FaultPlan::new(4321, 0.2).with_max_delay(Duration::from_micros(200));
        let mut c = Client::connect(
            server.addr(),
            ClientConfig::default()
                .with_seed(11)
                .with_faults(plan)
                .with_pipeline_window(32)
                .with_batch(8)
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
