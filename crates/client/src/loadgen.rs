//! Load-generator harness for `oc-serve`.
//!
//! Replays a [`WorkloadGenerator`] cell against a running server: every
//! per-task usage sample of every machine becomes one `OBSERVE` line, and
//! each machine gets one `PREDICT` per tick. Machines are pinned to
//! connections round-robin so per-machine sample order survives the trip
//! (the server only guarantees ordering within a connection).
//!
//! Each connection drives one [`Client`] with pipelined windows;
//! transient transport failures are retried by the client within its
//! budget (`retries` in the report counts them). Latency is measured per
//! request from write to matching response — with pipelining this
//! includes queueing time, so percentiles degrade visibly as the offered
//! rate approaches capacity.
//!
//! A connection whose retry budget runs out does not abort the run (and a
//! panicked connection thread does not poison the others): its failure is
//! captured in [`LoadReport::conn_failures`] and the surviving
//! connections' counts still report.
//!
//! Chaos mode ([`LoadgenConfig::chaos`], `loadgen --chaos RATE`) wraps
//! every connection in a seeded [`FaultPlan`]: delayed, partial, and
//! dropped reads/writes at the configured rate. The accounting invariant
//! under chaos is **zero lost acknowledged samples** — every `OBSERVE`
//! the server acknowledged is visible in its `observes`/`stale`/`errors`
//! counters ([`LoadReport::lost`] must be 0).
//!
//! Pacing: `target_qps > 0` meters the *aggregate* request rate across
//! connections by slicing time into small batches; `target_qps == 0` means
//! open throttle (as fast as the socket accepts).

use crate::client::{Client, ClientConfig};
use crate::error::ClientError;
use oc_serve::fault::FaultPlan;
use oc_serve::proto::{Request, Response, StatsSnapshot};
use oc_telemetry::metrics::HistogramSnapshot;
use oc_telemetry::trace;
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::ids::CellId;
use oc_trace::time::Tick;
use oc_trace::WorkloadGenerator;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-generator settings.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Cell preset replayed (defines machine count, task mix, seed).
    pub preset: CellPreset,
    /// Machines replayed from the cell (capped at the cell size).
    pub machines: usize,
    /// Ticks replayed per machine.
    pub ticks: u64,
    /// Generator seed override; `None` keeps the preset's seed.
    pub seed: Option<u64>,
    /// Client connections; machines are pinned round-robin.
    pub connections: usize,
    /// Aggregate target request rate; `0` = unpaced (open throttle).
    pub target_qps: u64,
    /// Issue one `PREDICT` per machine per tick alongside the samples.
    pub predicts: bool,
    /// Sub-requests per `BATCH` frame on every connection (1 = no
    /// framing); see [`ClientConfig::with_batch`].
    pub batch: usize,
    /// Client-side fault injection on every connection (chaos mode).
    pub chaos: Option<FaultPlan>,
}

impl Default for LoadgenConfig {
    /// Cell preset A, 64 machines, one day of ticks, 4 connections,
    /// unpaced, with per-tick predictions, no chaos.
    fn default() -> Self {
        LoadgenConfig {
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
    /// Client-observed request latencies, microseconds. Recorded as
    /// replies resolve and merged bucket for bucket by
    /// [`LoadReport::merge`], so the percentiles read off it are those of
    /// the union — averaging percentiles across processes is wrong (a p99
    /// of averages is not the p99 of the union).
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

    /// Folds `other` (another process's or another run segment's report)
    /// into `self`, the way a fleet drive folds its per-member reports:
    ///
    /// * counters sum; `conn_failures` concatenate;
    /// * `wall_secs` takes the max (segments overlap in wall time when
    ///   they ran in parallel, so summing would deflate throughput);
    /// * the latency and setup distributions merge, so every percentile
    ///   read afterwards is the union's;
    /// * `achieved_qps` is recomputed as merged `ok + errors` over the
    ///   merged wall;
    /// * the server snapshot merges via [`StatsSnapshot::merge`] and
    ///   `lost` is re-derived from the merged ledger.
    pub fn merge(&mut self, other: &LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.faults += other.faults;
        self.acked_observes += other.acked_observes;
        self.failed_connections += other.failed_connections;
        self.conn_failures
            .extend(other.conn_failures.iter().cloned());
        self.connections += other.connections;
        self.wall_secs = self.wall_secs.max(other.wall_secs);
        self.latency.merge(&other.latency);
        self.setup.merge(&other.setup);
        self.achieved_qps = rate(self.ok + self.errors, self.wall_secs);
        self.server.merge(&other.server);
        self.lost = ledger_gap(self.acked_observes, &self.server);
    }

    /// Client-observed p50 latency, microseconds (0 when nothing
    /// resolved). Like every percentile here: read off `latency` or
    /// `setup`, within one bucket (≈ 3 %) of the sample at that rank.
    pub fn p50_us(&self) -> f64 {
        self.latency.quantile(50.0)
    }

    /// Client-observed p99 latency, microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.quantile(99.0)
    }

    /// Client-observed maximum latency, microseconds (exact).
    pub fn max_us(&self) -> f64 {
        self.latency.max_or_zero()
    }

    /// Per-connection setup time, p50, microseconds.
    pub fn setup_p50_us(&self) -> f64 {
        self.setup.quantile(50.0)
    }

    /// Per-connection setup time, p99, microseconds.
    pub fn setup_p99_us(&self) -> f64 {
        self.setup.quantile(99.0)
    }

    /// Per-connection setup time, maximum, microseconds (exact).
    pub fn setup_max_us(&self) -> f64 {
        self.setup.max_or_zero()
    }

    /// Serializes the report as a JSON object (hand-rolled; the workspace
    /// vendors no serde).
    pub fn to_json(&self, label: &str) -> String {
        format!(
            concat!(
                "{{\"label\":\"{}\",\"sent\":{},\"ok\":{},",
                "\"errors\":{},\"retries\":{},\"reconnects\":{},",
                "\"faults\":{},\"acked_observes\":{},\"lost\":{},",
                "\"failed_connections\":{},\"connections\":{},",
                "\"wall_secs\":{:.6},\"achieved_qps\":{:.1},",
                "\"client_p50_us\":{:.1},",
                "\"client_p99_us\":{:.1},\"client_max_us\":{:.1},",
                "\"setup_p50_us\":{:.1},\"setup_p99_us\":{:.1},",
                "\"setup_max_us\":{:.1},",
                "\"server_p50_us\":{:.1},\"server_p99_us\":{:.1},",
                "\"server_mean_us\":{:.1},\"server_observes\":{},",
                "\"server_stale\":{},\"server_machines\":{}}}"
            ),
            label,
            self.sent,
            self.ok,
            self.errors,
            self.retries,
            self.reconnects,
            self.faults,
            self.acked_observes,
            self.lost,
            self.failed_connections,
            self.connections,
            self.wall_secs,
            self.achieved_qps,
            self.p50_us(),
            self.p99_us(),
            self.max_us(),
            self.setup_p50_us(),
            self.setup_p99_us(),
            self.setup_max_us(),
            self.server.p50_us,
            self.server.p99_us,
            self.server.mean_us,
            self.server.observes,
            self.server.stale,
            self.server.machines,
        )
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

/// Builds per-connection request scripts from the generated cell.
///
/// Request order per machine is tick-major and, within a tick, trace task
/// order — the same order `simulate_machine` feeds its `MachineView`.
fn build_plans(cfg: &LoadgenConfig) -> Result<Vec<Vec<Request>>, ClientError> {
    let mut cell_cfg: CellConfig = CellConfig::preset(cfg.preset);
    if let Some(seed) = cfg.seed {
        cell_cfg = cell_cfg.with_seed(seed);
    }
    let generator = WorkloadGenerator::new(cell_cfg)?;
    let cell = CellId::new(format!("{:?}", cfg.preset).to_lowercase());
    let n_machines = cfg.machines.min(generator.config().machines).max(1);
    let connections = cfg.connections.clamp(1, n_machines);
    let mut plans: Vec<Vec<Request>> = (0..connections).map(|_| Vec::new()).collect();
    let metric = oc_core::config::SimConfig::default().metric;
    for m in 0..n_machines {
        let trace = generator.generate_machine(oc_trace::MachineId(m as u32))?;
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
    Ok(plans)
}

/// Replays one connection's script through a retrying [`Client`] and
/// returns what it counted as a one-connection report for [`run`] to
/// merge.
///
/// `pace` is the per-connection request interval; `Duration::ZERO` means
/// unpaced. Failures never propagate: they end up in `conn_failures` and
/// the counts gathered so far still report.
fn run_conn(
    addr: SocketAddr,
    plan: Vec<Request>,
    pace: Duration,
    conn_idx: usize,
    batch: usize,
    chaos: Option<FaultPlan>,
) -> LoadReport {
    // One span per connection thread covering its whole replay
    // (`a` = connection index, `b` = scripted request count).
    let _conn_span = trace::span_ab("loadgen.conn", conn_idx as u64, plan.len() as u64);
    let mut res = LoadReport {
        sent: plan.len() as u64,
        ..LoadReport::default()
    };
    let mut cfg = ClientConfig::default()
        .with_seed(conn_idx as u64 + 1)
        .with_batch(batch.max(1));
    if let Some(plan) = chaos {
        cfg = cfg.with_faults(plan);
    }
    // Pace in batches of 64: per-request sleeps can't hit 100k+ QPS, and
    // coarse batches keep the meter honest without melting the clock.
    const BATCH: usize = 64;
    if !pace.is_zero() {
        cfg = cfg.with_pipeline_window(BATCH);
    }
    let fail = |res: &mut LoadReport, why: String| {
        trace::event("loadgen.conn.fail", conn_idx as u64, 0);
        res.conn_failures
            .push(format!("connection {conn_idx}: {why}"));
    };
    let setup_start = Instant::now();
    let mut client = match Client::connect(addr, cfg) {
        Ok(c) => c,
        Err(e) => {
            fail(&mut res, format!("connect: {e}"));
            return res;
        }
    };
    res.setup.record(setup_start.elapsed().as_secs_f64() * 1e6);
    let start = Instant::now();
    let mut submitted = 0usize;
    for chunk in plan.chunks(BATCH) {
        if !pace.is_zero() {
            let due = start + pace * (submitted as u32);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let outcome = client.pipeline_with(chunk, |idx, resp, lat_us| {
            res.latency.record(lat_us);
            match resp {
                Response::Err { .. } => res.errors += 1,
                Response::Ok => {
                    res.ok += 1;
                    if matches!(chunk[idx], Request::Observe { .. }) {
                        res.acked_observes += 1;
                    }
                }
                _ => res.ok += 1,
            }
        });
        submitted += chunk.len();
        if let Err(e) = outcome {
            fail(&mut res, e.to_string());
            break;
        }
    }
    let m = client.metrics();
    res.retries = m.retries;
    res.reconnects = m.reconnects;
    res.faults = client.faults_injected();
    res
}

/// Replays the configured cell against `addr` and gathers a report.
///
/// Per-connection failures (an exhausted retry budget, even a panicked
/// thread) are *captured in the report*, not propagated — only setup
/// failures (an unreachable generator config) error out. The final
/// server snapshot is fetched with a plain retrying client; if even that
/// fails while every connection also failed, the snapshot is zeroed.
///
/// # Errors
///
/// Propagates generator errors and a failed final `STATS` fetch (unless
/// every connection already failed, which the report records instead).
pub fn run(addr: SocketAddr, cfg: &LoadgenConfig) -> Result<LoadReport, ClientError> {
    let plans = build_plans(cfg)?;
    let n_conns = plans.len();
    let pace = if cfg.target_qps == 0 {
        Duration::ZERO
    } else {
        // Aggregate QPS split evenly across connections.
        Duration::from_secs_f64(n_conns as f64 / cfg.target_qps as f64)
    };
    let start = Instant::now();
    let mut joins = Vec::with_capacity(n_conns);
    for (i, plan) in plans.into_iter().enumerate() {
        let chaos = cfg.chaos.clone();
        let batch = cfg.batch;
        joins.push(
            std::thread::Builder::new()
                .name("loadgen-conn".to_string())
                .spawn(move || run_conn(addr, plan, pace, i, batch, chaos))?,
        );
    }
    let mut totals = LoadReport {
        connections: n_conns as u64,
        ..LoadReport::default()
    };
    for (i, j) in joins.into_iter().enumerate() {
        match j.join() {
            Ok(res) => totals.merge(&res),
            Err(_) => totals
                .conn_failures
                .push(format!("connection {i}: thread panicked")),
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let server = match fetch_stats(addr) {
        Ok(s) => s,
        Err(_) if totals.conn_failures.len() == n_conns => StatsSnapshot::default(),
        Err(e) => return Err(e),
    };
    Ok(totals.finish(wall_secs, Some(server)))
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

/// Sends `SHUTDOWN` to a running server.
///
/// # Errors
///
/// Propagates client failures.
pub fn request_shutdown(addr: SocketAddr) -> Result<(), ClientError> {
    Client::connect(addr, ClientConfig::default())?.request_shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::config::ServeConfig;
    use oc_serve::server::Server;

    #[test]
    fn small_replay_round_trips() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let cfg = LoadgenConfig {
            machines: 4,
            ticks: 16,
            connections: 2,
            predicts: true,
            ..LoadgenConfig::default()
        };
        let report = run(server.addr(), &cfg).unwrap();
        assert!(report.sent > 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.ok, report.sent);
        assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
        assert_eq!(report.lost, 0);
        assert!(report.server.observes > 0);
        assert_eq!(report.server.machines, 4);
        // 4 machines x 16 ticks of predictions.
        assert_eq!(report.server.predicts, 64);
        server.shutdown();
    }

    /// A batched replay resolves the same request set and drives the
    /// server to the same counters as the unbatched one above.
    #[test]
    fn batched_replay_round_trips() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let cfg = LoadgenConfig {
            machines: 4,
            ticks: 16,
            connections: 2,
            predicts: true,
            batch: 32,
            ..LoadgenConfig::default()
        };
        let report = run(server.addr(), &cfg).unwrap();
        assert_eq!(report.ok, report.sent);
        assert_eq!(report.errors, 0);
        assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
        assert_eq!(report.lost, 0);
        assert_eq!(report.server.machines, 4);
        assert_eq!(report.server.predicts, 64);
        server.shutdown();
    }

    /// Merging two per-process reports sums the counters, recomputes
    /// rates from the merged counts (not an average of rates), and takes
    /// percentiles from the merged latency distribution.
    #[test]
    fn merge_folds_reports_not_averages() {
        let mk = |ok: u64, retries: u64, lat: &[f64], wall: f64, observes: u64| {
            let mut report = LoadReport {
                sent: ok,
                ok,
                retries,
                reconnects: 1,
                acked_observes: ok,
                connections: 1,
                ..Default::default()
            };
            for &us in lat {
                report.latency.record(us);
            }
            let server = StatsSnapshot {
                observes,
                machines: 10,
                ..StatsSnapshot::default()
            };
            report.finish(wall, Some(server))
        };
        // A fast member and a slow one that retried a lot.
        let fast: Vec<f64> = (0..100).map(|i| 100.0 + i as f64).collect();
        let slow: Vec<f64> = (0..100).map(|i| 10_000.0 + i as f64).collect();
        let mut merged = mk(100, 0, &fast, 1.0, 100);
        let b = mk(100, 300, &slow, 2.0, 100);
        merged.merge(&b);

        assert_eq!(merged.sent, 200);
        assert_eq!(merged.ok, 200);
        assert_eq!(merged.retries, 300);
        assert_eq!(merged.connections, 2);
        assert_eq!(merged.server.observes, 200);
        // wall = max (parallel members), qps = merged resolved / wall —
        // a rate from merged counts, not an average of the two rates.
        assert!((merged.wall_secs - 2.0).abs() < 1e-12);
        assert!((merged.achieved_qps - 100.0).abs() < 1e-9);
        assert_eq!(merged.lost, 0);
        // Percentiles are the union's, each within one bucket of the
        // sample at its rank among all 200: p50 is the fast member's
        // slowest request — neither member's own p50 (≈150 and ≈10050)
        // nor their average — and p99 the slow member's 98th.
        for (got, at_rank) in [(merged.p50_us(), 199.0), (merged.p99_us(), 10_097.0)] {
            assert!(
                (got - at_rank).abs() <= at_rank * oc_stats::Histogram::BUCKET_WIDTH,
                "{got} vs {at_rank}"
            );
        }
        // Max is exact.
        assert_eq!(merged.max_us(), 10_099.0);
        assert_eq!(merged.latency.count(), 200);
    }

    #[test]
    fn paced_replay_respects_target() {
        let server = Server::start(ServeConfig::default().with_shards(1)).unwrap();
        // Pacing sleeps between 64-request chunks, so the plan must span
        // several chunks for the meter to engage at all — 8 ticks of one
        // machine is exactly one chunk, which a fast frontend resolves in
        // a couple of milliseconds, no pacing involved.
        let cfg = LoadgenConfig {
            machines: 1,
            ticks: 32,
            connections: 1,
            target_qps: 2_000,
            predicts: false,
            ..LoadgenConfig::default()
        };
        let report = run(server.addr(), &cfg).unwrap();
        // Unambitious bound: pacing must not *exceed* the target by 5x
        // (it may undershoot on a loaded CI box).
        assert!(
            report.achieved_qps < 10_000.0,
            "pacing ignored: {} qps",
            report.achieved_qps
        );
        server.shutdown();
    }

    /// The acceptance invariant for chaos mode: with ~5% injected faults
    /// (including dropped connections) the replay completes and no
    /// acknowledged sample is lost.
    #[test]
    fn chaos_replay_loses_no_acknowledged_samples() {
        let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
        let cfg = LoadgenConfig {
            machines: 4,
            ticks: 16,
            connections: 2,
            predicts: true,
            chaos: Some(FaultPlan::new(77, 0.05).with_max_delay(Duration::from_micros(200))),
            ..LoadgenConfig::default()
        };
        let report = run(server.addr(), &cfg).unwrap();
        assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
        assert!(report.faults > 0, "chaos plan never fired");
        assert_eq!(report.lost, 0, "acked samples vanished: {report:?}");
        assert_eq!(report.ok + report.errors, report.sent);
        server.shutdown();
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
        server.shutdown();
    }
}
