//! The load driver for `oc-serve`: one thread, one engine, N connections.
//!
//! [`run`] drives every connection of a run — four replaying a cell or
//! ten thousand node agents — from a single thread as lanes of the
//! crate's send engine (`engine.rs`), the path every other caller in
//! this crate uses. Each connection replays a script of [`Request`]s
//! ([`Script`]), fed to its lane as the lane has room.
//!
//! # Schedule
//!
//! Paced (`target_qps > 0`): frame `k` of the run is released at
//! `start + k·stagger` to connection `k mod N`, `stagger = batch /
//! target_qps` — a due time in the engine's heap — so arrivals at the
//! server are smooth rather than phase-locked bursts. Unpaced: a
//! connection refills as its frames complete. Either way a connection
//! keeps at most `max(2·batch, 64)` lines on the wire, in frames of
//! exactly `batch` lines (its lines are pinned to it, so no ordering
//! rule holds one back), and refills once at most half of that is on
//! the wire. Replies are read when the poller reports the socket
//! readable, and a connection's reply deadline is a due time too, so one
//! whose server sends no reply, or stops mid-frame, holds up no other.
//!
//! # Failures
//!
//! A frame the transport loses (reset, EOF, an idle close, a chaos drop,
//! no reply within the client's response timeout) puts every line that
//! connection had on the wire back ahead of its script, in order, to be
//! sent again on a fresh connection after the retry policy's nap — a due
//! time in the engine's heap, never a sleep of the driver thread. Re-sending
//! is safe because ingestion is idempotent (see [`crate::client`]).
//! `max_attempts` losses with no frame resolved in between fail the
//! connection into [`LoadReport::conn_failures`]; the others carry on.
//!
//! Chaos mode ([`LoadgenConfig::chaos`], `loadgen --chaos RATE`) runs
//! every connection under a seeded [`FaultPlan`]: delayed, partial, and
//! dropped reads/writes at the configured rate. A delay holds only its
//! own connection, as a due time in the engine's heap. Its invariant is
//! **zero lost acknowledged samples**: every `OBSERVE` the server
//! acknowledged is visible in its `observes`/`stale`/`errors` counters
//! ([`LoadReport::lost`] must be 0).
//!
//! Every resolved line records its frame's ack latency (write to last
//! reply line, pipelining queue time included), hence
//! `latency.count() == ok + errors`; connect time goes to `setup`.

use crate::client::{Client, ClientConfig};
use crate::engine::{Engine, Policy, Shape};
use crate::error::ClientError;
use crate::pipe::{Entry, MemberPipe};
use oc_serve::fault::FaultPlan;
use oc_serve::proto::{Request, Response, StatsSnapshot};
use oc_telemetry::metrics::HistogramSnapshot;
use oc_telemetry::trace;
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::ids::{CellId, JobId, TaskId};
use oc_trace::time::Tick;
use oc_trace::{MachineId, WorkloadGenerator};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What each connection replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// The generated cell (`preset`, `machines`, `seed`, `predicts`):
    /// machines pinned to connections round-robin, so per-machine order
    /// survives the trip; each machine's samples tick-major in trace
    /// task order, then its `PREDICT` for the tick.
    Cell,
    /// The node-agent fan-in: connection `i` streams machine `i` of cell
    /// `fanin` — 8 tasks (at most `batch`) at usage 0.2 of limit 0.5,
    /// tick-major.
    Fanin,
}

/// Load-generator settings.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// What each connection replays.
    pub script: Script,
    /// Cell preset replayed (defines machine count, task mix, seed).
    pub preset: CellPreset,
    /// Machines replayed from the cell (capped at the cell size).
    pub machines: usize,
    /// Ticks replayed per machine.
    pub ticks: u64,
    /// Generator seed override; `None` keeps the preset's seed.
    pub seed: Option<u64>,
    /// Client connections (a cell script uses at most one per machine).
    pub connections: usize,
    /// Aggregate target rate in lines per second across connections;
    /// `0` = unpaced.
    pub target_qps: u64,
    /// Issue one `PREDICT` per machine per tick alongside the samples.
    pub predicts: bool,
    /// Lines per frame (`1..=MAX_BATCH`; above 1 a frame is `BATCH`).
    pub batch: usize,
    /// Client-side fault injection on every connection (chaos mode).
    pub chaos: Option<FaultPlan>,
}

impl Default for LoadgenConfig {
    /// Cell preset A, 64 machines, one day of ticks, 4 connections,
    /// unpaced, with per-tick predictions, no chaos.
    fn default() -> Self {
        LoadgenConfig {
            script: Script::Cell,
            preset: CellPreset::A,
            machines: 64,
            ticks: oc_trace::TICKS_PER_DAY,
            seed: None,
            connections: 4,
            target_qps: 0,
            predicts: true,
            batch: 1,
            chaos: None,
        }
    }
}

/// What one [`run`] measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests submitted (OBSERVE + PREDICT), counting each once however
    /// many retries it took.
    pub sent: u64,
    /// `OK`/`PRED` resolutions.
    pub ok: u64,
    /// `ERR` resolutions.
    pub errors: u64,
    /// Request attempts beyond the first, all causes.
    pub retries: u64,
    /// Connections re-established after a transport failure.
    pub reconnects: u64,
    /// Faults injected by the chaos plan (0 without `--chaos`).
    pub faults: u64,
    /// `OBSERVE` requests the server acknowledged `OK`.
    pub acked_observes: u64,
    /// Acknowledged samples unaccounted for on the server: `acked -
    /// (observes + stale + errors)`, floored at 0. Must be 0 — an `OK` is
    /// a promise the sample reaches the ingestion counters.
    pub lost: u64,
    /// Connections whose retry budget ran out (or whose thread panicked).
    pub failed_connections: u64,
    /// One description per failed connection.
    pub conn_failures: Vec<String>,
    /// Connections the run drove (including failed ones).
    pub connections: u64,
    /// Wall-clock duration of the replay, seconds.
    pub wall_secs: f64,
    /// Achieved request throughput (resolved / wall), requests per second.
    pub achieved_qps: f64,
    /// Client-observed request latencies, microseconds, recorded as
    /// replies resolve. Histograms merge bucket for bucket, so reports
    /// are combined by merging these, never by averaging percentiles (a
    /// p99 of averages is not the p99 of the union).
    pub latency: HistogramSnapshot,
    /// Per-connection connect/setup times (TCP connect + socket
    /// configuration), microseconds. Kept apart from `latency` so
    /// steady-state percentiles are not polluted by the one-off connection
    /// storm of a high fan-in run.
    pub setup: HistogramSnapshot,
    /// Server-side snapshot taken right after the replay.
    pub server: StatsSnapshot,
}

impl LoadReport {
    /// The one epilogue every driver ends with: derives what a report
    /// derives (`failed_connections`, `achieved_qps`, `lost`) from what
    /// the driver counted into `self`. Throughput counts the requests
    /// that got a final answer (`ok + errors`) within `wall_secs`.
    ///
    /// `server` is the `STATS` snapshot taken after the drive; without
    /// one (a segment of a longer drive) there is no ledger to check and
    /// `lost` stays 0.
    pub(crate) fn finish(mut self, wall_secs: f64, server: Option<StatsSnapshot>) -> LoadReport {
        self.wall_secs = wall_secs;
        self.failed_connections = self.conn_failures.len() as u64;
        self.achieved_qps = rate(self.ok + self.errors, wall_secs);
        if let Some(server) = server {
            self.lost = ledger_gap(self.acked_observes, &server);
            self.server = server;
        }
        self
    }

    /// Client-observed p50 latency, microseconds (0 when nothing
    /// resolved): read off `latency`, within one bucket (≈ 3 %) of the
    /// sample at that rank.
    pub fn p50_us(&self) -> f64 {
        self.latency.quantile(50.0)
    }

    /// Client-observed p99 latency, microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.quantile(99.0)
    }
}

/// `count / secs`, 0 for an instantaneous run.
fn rate(count: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// Acknowledged samples the server's ingestion counters do not account
/// for: `acked - (observes + stale + errors)`, floored at 0.
fn ledger_gap(acked: u64, server: &StatsSnapshot) -> u64 {
    acked.saturating_sub(server.observes + server.stale + server.errors)
}

/// One connection's script.
type Lines = Box<dyn ExactSizeIterator<Item = Request>>;

/// Tasks per synthetic fan-in machine (fewer when a frame is smaller).
const FANIN_TASKS: usize = 8;

/// The [`Script::Cell`] scripts, one per connection.
///
/// Request order per machine is tick-major and, within a tick, trace task
/// order — the same order `simulate_machine` feeds its `MachineView`.
fn cell_scripts(cfg: &LoadgenConfig) -> Result<Vec<Lines>, ClientError> {
    let mut cell_cfg: CellConfig = CellConfig::preset(cfg.preset);
    if let Some(seed) = cfg.seed {
        cell_cfg = cell_cfg.with_seed(seed);
    }
    let generator = WorkloadGenerator::new(cell_cfg)?;
    let cell = CellId::new(format!("{:?}", cfg.preset).to_lowercase());
    let n_machines = cfg.machines.min(generator.config().machines).max(1);
    let connections = cfg.connections.clamp(1, n_machines);
    let mut plans = vec![Vec::new(); connections];
    let metric = oc_core::config::SimConfig::default().metric;
    for m in 0..n_machines {
        let trace = generator.generate_machine(MachineId(m as u32))?;
        let plan = &mut plans[m % connections];
        let end = trace.horizon.start.0 + cfg.ticks.min(trace.horizon.len());
        for t in trace.horizon.start.0..end {
            let tick = Tick(t);
            for task in trace.tasks_at(tick) {
                let usage = task.sample_at(tick).map(|s| metric.of(s)).unwrap_or(0.0);
                plan.push(Request::Observe {
                    cell: cell.clone(),
                    machine: trace.machine,
                    task: task.spec.id,
                    usage,
                    limit: task.spec.limit,
                    mem: None,
                    tick: t,
                });
            }
            if cfg.predicts {
                plan.push(Request::Predict {
                    cell: cell.clone(),
                    machine: trace.machine,
                    vector: false,
                });
            }
        }
    }
    let script = |plan: Vec<Request>| Box::new(plan.into_iter()) as Lines;
    Ok(plans.into_iter().map(script).collect())
}

/// The [`Script::Fanin`] scripts: connection `i` streams machine `i`,
/// generated as it is sent.
fn fanin_scripts(cfg: &LoadgenConfig, batch: usize) -> Vec<Lines> {
    let tasks = FANIN_TASKS.min(batch);
    let lines = cfg.ticks as usize * tasks;
    let cell = CellId::new("fanin");
    (0..cfg.connections.max(1) as u32)
        .map(|machine| {
            let cell = cell.clone();
            Box::new((0..lines).map(move |i| Request::Observe {
                cell: cell.clone(),
                machine: MachineId(machine),
                task: TaskId::new(JobId((i % tasks) as u64), 0),
                usage: 0.2,
                limit: 0.5,
                mem: None,
                tick: (i / tasks) as u64,
            })) as Lines
        })
        .collect()
}

/// A run's lanes as the engine's policy: each lane is fed from its
/// script, and its replies are counted into the report.
#[derive(Default)]
struct Replay {
    /// Connection index of each lane (trace payload, failure messages).
    ids: Vec<usize>,
    /// `loadgen.conn` of each lane, open from connect to settle.
    spans: Vec<Option<trace::Span>>,
    scripts: Vec<Lines>,
    tally: LoadReport,
    /// Lanes not settled yet.
    live: usize,
}

impl Replay {
    /// Adds a connected lane replaying `script`.
    fn add(
        &mut self,
        eng: &mut Engine,
        id: usize,
        client: Client,
        span: trace::Span,
        script: Lines,
    ) {
        let empty = script.len() == 0;
        let lane = eng.add(client.into_link());
        self.ids.push(id);
        self.spans.push(Some(span));
        self.scripts.push(script);
        self.live += 1;
        if empty {
            self.settle(eng, lane, None);
        }
    }

    /// Lane `i` is finished — done, or failed for the reason given, which
    /// the report records: its connection closes, its span ends, its
    /// pipe is forgotten (so no deadline can lose it again), and its
    /// retry and fault counts join the report.
    fn settle(&mut self, eng: &mut Engine, i: usize, failure: Option<String>) {
        let id = self.ids[i];
        if let Some(why) = failure {
            trace::event("loadgen.conn.fail", id as u64, 0);
            self.tally
                .conn_failures
                .push(format!("connection {id}: {why}"));
        }
        eng.retire(i);
        self.spans[i] = None;
        let link = &eng.lanes[i].link;
        let m = link.metrics();
        self.tally.retries += m.retries;
        self.tally.reconnects += m.reconnects;
        self.tally.faults += link.injected;
        self.live -= 1;
    }
}

impl Policy for Replay {
    fn request<'a>(&'a self, req: &'a Request) -> &'a Request {
        req
    }

    fn refill(&mut self, lane: usize, pipe: &mut MemberPipe, want: usize) {
        for req in self.scripts[lane].by_ref().take(want) {
            pipe.push(Entry::pinned(req));
        }
    }

    fn resolved(
        &mut self,
        eng: &mut Engine,
        lane: usize,
        frame: &mut Vec<Entry>,
        sent_at: Instant,
        replies: &[Response],
    ) {
        let tally = &mut self.tally;
        let lat_us = sent_at.elapsed().as_secs_f64() * 1e6;
        tally.latency.record_n(lat_us, frame.len() as u64);
        for (e, resp) in frame.iter().zip(replies) {
            match resp {
                Response::Err { .. } => tally.errors += 1,
                Response::Ok if matches!(e.req, Request::Observe { .. }) => {
                    tally.ok += 1;
                    tally.acked_observes += 1;
                }
                _ => tally.ok += 1,
            }
        }
        if eng.lanes[lane].pipe.is_empty() && self.scripts[lane].len() == 0 {
            self.settle(eng, lane, None);
        }
    }

    fn failed(
        &mut self,
        eng: &mut Engine,
        lane: usize,
        _: usize,
        err: ClientError,
    ) -> Result<(), ClientError> {
        self.settle(eng, lane, Some(err.to_string()));
        Ok(())
    }

    fn done(&self, _: &Engine, _: bool) -> bool {
        self.live == 0
    }
}

/// Drives `cfg.connections` connections against `addr` from this thread
/// (schedule and failure rules in the module docs) and gathers a report.
/// A connection that fails is recorded in it, not propagated.
/// `achieved_qps` counts resolved lines over the replay's wall time,
/// which starts once every connection is set up. The final `STATS`
/// snapshot is ordered behind every acknowledged sample (a sample is
/// applied before it is acknowledged), so `lost` is exact, not a race.
///
/// # Errors
///
/// [`ClientError::Config`] for an invalid batch or fault plan, generator
/// errors, a poller that cannot be created, and a failed final `STATS`
/// fetch (unless every connection already failed: then the snapshot is
/// zeroed).
pub fn run(addr: SocketAddr, cfg: &LoadgenConfig) -> Result<LoadReport, ClientError> {
    let batch = cfg.batch.max(1);
    let client_cfg = ClientConfig {
        faults: cfg.chaos.clone(),
        ..ClientConfig::default()
    }
    .with_batch(batch);
    client_cfg.validate()?;
    let scripts = match cfg.script {
        Script::Cell => cell_scripts(cfg)?,
        Script::Fanin => fanin_scripts(cfg, batch),
    };
    let shape = Shape {
        batch,
        lines: (2 * batch).max(64),
        frames: usize::MAX,
    };
    let _ = oc_reactor::raise_nofile_limit();
    let mut eng = Engine::new(shape, &client_cfg);
    let mut replay = Replay {
        tally: LoadReport {
            connections: scripts.len() as u64,
            ..LoadReport::default()
        },
        ..Replay::default()
    };
    for (id, script) in scripts.into_iter().enumerate() {
        replay.tally.sent += script.len() as u64;
        let span = trace::span_ab("loadgen.conn", id as u64, script.len() as u64);
        let setup = Instant::now();
        match Client::connect(addr, client_cfg.clone().with_seed(id as u64 + 1)) {
            Ok(client) => {
                let setup_us = setup.elapsed().as_secs_f64() * 1e6;
                replay.tally.setup.record(setup_us);
                replay.add(&mut eng, id, client, span, script);
            }
            Err(e) => {
                trace::event("loadgen.conn.fail", id as u64, 0);
                let why = format!("connection {id}: connect: {e}");
                replay.tally.conn_failures.push(why);
            }
        }
    }
    let stagger = (cfg.target_qps > 0)
        .then(|| Duration::from_secs_f64(batch as f64 / cfg.target_qps as f64))
        .filter(|s| !s.is_zero() && !eng.lanes.is_empty());
    if let Some(stagger) = stagger {
        eng.pace(stagger);
    }
    let start = Instant::now();
    while !eng.step(&mut replay, true)? {}
    let wall_secs = start.elapsed().as_secs_f64();
    let tally = replay.tally;
    let server = match fetch_stats(addr) {
        Ok(s) => s,
        Err(_) if tally.conn_failures.len() as u64 == tally.connections => StatsSnapshot::default(),
        Err(e) => return Err(e),
    };
    Ok(tally.finish(wall_secs, Some(server)))
}

/// Asks a running server for its `STATS` snapshot.
///
/// # Errors
///
/// Propagates client failures; a non-`STATS` reply is a
/// [`ClientError::Server`].
pub fn fetch_stats(addr: SocketAddr) -> Result<StatsSnapshot, ClientError> {
    Client::connect(addr, ClientConfig::default())?.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::config::ServeConfig;
    use oc_serve::server::Server;

    /// Runs `cfg` against a fresh 2-shard server and checks what every
    /// clean run holds: each line resolved once, with one latency sample,
    /// and no acknowledged sample lost.
    fn run_clean(cfg: &LoadgenConfig) -> LoadReport {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let report = run(server.addr(), cfg).unwrap();
        server.shutdown();
        assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
        assert_eq!(report.ok + report.errors, report.sent);
        assert_eq!(report.latency.count(), report.ok + report.errors);
        assert_eq!(report.lost, 0, "acked samples vanished: {report:?}");
        report
    }

    /// A cell replay, framed or not, resolves the same request set and
    /// drives the server to the same counters.
    #[test]
    fn small_replay_round_trips() {
        for batch in [1, 32] {
            let report = run_clean(&LoadgenConfig {
                machines: 4,
                ticks: 16,
                connections: 2,
                batch,
                ..LoadgenConfig::default()
            });
            assert!(report.server.observes > 0);
            assert_eq!(report.errors, 0);
            assert_eq!(report.server.machines, 4);
            // 4 machines x 16 ticks of predictions.
            assert_eq!(report.server.predicts, 64);
        }
    }

    /// The fan-in script: one synthetic machine per connection, 8 tasks
    /// per tick, paced across every connection.
    #[test]
    fn fanin_script_streams_one_machine_per_connection() {
        let report = run_clean(&LoadgenConfig {
            script: Script::Fanin,
            connections: 8,
            target_qps: 8 * 4_000,
            batch: 16,
            ticks: 8,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.connections, 8);
        // 8 connections x 8 ticks x 8 tasks.
        assert_eq!(report.sent, 512);
        assert_eq!(report.acked_observes, 512);
        assert_eq!(report.server.machines, 8);
        assert_eq!(report.server.observes + report.server.stale, report.ok);
        assert!(report.setup.quantile(50.0) > 0.0);
    }

    /// The fan-in shape under chaos — 5 % of socket operations delayed,
    /// cut short or dropped — loses no acknowledged sample and fails no
    /// connection: a lost frame is sent again on a fresh connection.
    #[test]
    fn fanin_survives_chaos_with_reconnects() {
        let report = run_clean(&LoadgenConfig {
            script: Script::Fanin,
            connections: 32,
            target_qps: 32 * 4_000,
            batch: 16,
            ticks: 32,
            chaos: Some(FaultPlan::new(29, 0.05).with_max_delay(Duration::from_micros(200))),
            ..LoadgenConfig::default()
        });
        assert!(report.faults > 0, "chaos plan never fired");
        assert!(report.reconnects > 0, "no dropped connection re-dialled");
    }

    /// A fault delay holds only the lane it hit: with every read and
    /// write of 32 connections delayed by up to 20 ms, the replay takes
    /// a small share of the delays' sum, because the other lanes keep
    /// being written and read meanwhile. A hold is no loss: nothing is
    /// retried or re-dialled.
    #[test]
    fn a_delay_holds_only_its_own_lane() {
        let max_delay = Duration::from_millis(20);
        let plan = FaultPlan::new(54, 1.0)
            .with_kinds(oc_serve::fault::FaultKinds {
                delays: true,
                partials: false,
                drops: false,
            })
            .with_max_delay(max_delay);
        let report = run_clean(&LoadgenConfig {
            script: Script::Fanin,
            connections: 32,
            batch: 16,
            ticks: 8,
            chaos: Some(plan),
            ..LoadgenConfig::default()
        });
        let delays = report.faults;
        assert!(delays >= 64, "every read and write is delayed: {delays}");
        let serial = max_delay.as_secs_f64() * delays as f64;
        assert!(
            report.wall_secs < serial / 4.0,
            "{delays} delays took {:.3} s: the lanes waited for each other",
            report.wall_secs
        );
        assert_eq!((report.retries, report.reconnects), (0, 0));
    }

    #[test]
    fn paced_replay_respects_target() {
        // One-line frames due every 0.5 ms: the plan spans well over a
        // hundred milliseconds at the target.
        let report = run_clean(&LoadgenConfig {
            machines: 1,
            ticks: 32,
            connections: 1,
            target_qps: 2_000,
            predicts: false,
            ..LoadgenConfig::default()
        });
        // Unambitious bound: pacing must not *exceed* the target by 5x
        // (it may undershoot on a loaded CI box).
        assert!(
            report.achieved_qps < 10_000.0,
            "pacing ignored: {} qps",
            report.achieved_qps
        );
    }

    /// The acceptance invariant for chaos mode: with ~5% injected faults
    /// (including dropped connections) the replay completes and no
    /// acknowledged sample is lost.
    #[test]
    fn chaos_replay_loses_no_acknowledged_samples() {
        let report = run_clean(&LoadgenConfig {
            machines: 4,
            ticks: 16,
            connections: 2,
            chaos: Some(FaultPlan::new(77, 0.05).with_max_delay(Duration::from_micros(200))),
            ..LoadgenConfig::default()
        });
        assert!(report.faults > 0, "chaos plan never fired");
    }

    /// A connection that cannot make progress is captured in the report
    /// instead of aborting the whole run (regression: the old harness
    /// panicked on the first failed connection thread).
    #[test]
    fn failed_connections_are_captured_not_fatal() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        let cfg = LoadgenConfig {
            machines: 2,
            ticks: 4,
            connections: 2,
            predicts: false,
            // Drop every single operation: no connection can ever resolve
            // a request, so every retry budget exhausts.
            chaos: Some(
                FaultPlan::new(5, 1.0).with_kinds(oc_serve::fault::FaultKinds {
                    delays: false,
                    partials: false,
                    drops: true,
                }),
            ),
            ..LoadgenConfig::default()
        };
        let report = run(server.addr(), &cfg).unwrap();
        assert_eq!(report.failed_connections, 2, "{:?}", report.conn_failures);
        assert_eq!(report.conn_failures.len(), 2);
        assert_eq!(report.ok, 0);
        assert_eq!(report.latency.count(), 0);
        server.shutdown();
    }

    /// A lane that fails terminally with frames on the wire is settled
    /// once: the response-timeout sweep, which keeps running for the
    /// other lanes, neither loses those frames again nor fails it twice.
    #[test]
    fn a_failed_lane_is_not_lost_again_by_the_timeout_sweep() {
        use std::io::Write;
        let stub = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stub.local_addr().unwrap();
        let cfg = LoadgenConfig {
            script: Script::Fanin,
            connections: 2,
            batch: 16,
            ticks: 32,
            ..LoadgenConfig::default()
        };
        // A reply deadline well inside the first nap, so the sweep below
        // finds lane 1 overdue and leaves it napping.
        let client_cfg = ClientConfig {
            response_timeout: Duration::from_millis(50),
            ..ClientConfig::default()
        }
        .with_batch(16)
        .with_retry(crate::client::RetryPolicy {
            max_attempts: 6,
            base: Duration::from_secs(1),
            cap: Duration::from_secs(1),
        });
        let shape = Shape {
            batch: 16,
            lines: 64,
            frames: usize::MAX,
        };
        let mut eng = Engine::new(shape, &client_cfg);
        let mut d = Replay::default();
        for (id, script) in fanin_scripts(&cfg, 16).into_iter().enumerate() {
            let client = Client::connect(addr, client_cfg.clone()).unwrap();
            let span = trace::span_ab("loadgen.conn", id as u64, 0);
            d.add(&mut eng, id, client, span, script);
        }
        // Lane 0's first reply is not a reply; lane 1's never comes.
        let (mut first, _) = stub.accept().unwrap();
        let _second = stub.accept().unwrap();
        first.write_all(b"garbage\n").unwrap();
        eng.write(0, &mut d, true).unwrap();
        eng.write(1, &mut d, true).unwrap();
        assert!(
            eng.lanes[0].pipe.inflight_len() > 1,
            "frames on lane 0's wire"
        );
        eng.read(0, &mut d).unwrap();
        assert!(eng.lanes[0].retired);
        assert_eq!(d.tally.conn_failures.len(), 1);

        let timeout = client_cfg.response_timeout;
        eng.fire(Instant::now() + 2 * timeout, &mut d).unwrap();
        assert_eq!(d.tally.conn_failures.len(), 1);
        assert_eq!(d.live, 1);
        assert_eq!(eng.lanes[0].link.metrics().io_retries, 0);
        // Only lane 1 lost its wire and naps before sending it again.
        assert_eq!(eng.lanes[1].strikes, 1);
        let napping: Vec<usize> = (0..2).filter(|&i| eng.lanes[i].napping).collect();
        assert_eq!(napping, [1]);
    }
}
