//! The fleet driver: replays a synthetic fleet against a whole ring of
//! cluster members and folds the per-member results into one
//! [`LoadReport`] via [`LoadReport::merge`].
//!
//! Routing is client-side, exactly as `ClusterClient` routes: every
//! machine's samples go to the key's live owner, and (with mirroring
//! on) to its replica — but the driver precomputes whole per-member
//! request plans and streams them over one pipelined connection per
//! member, because the interesting throughput number is the fleet's,
//! not a router's. [`verify`] then proves end-state identity: each
//! machine's served prediction must be bit-identical to an offline
//! recompute over the same sample stream ([predictions are a pure
//! function of ingested state](oc_core::ingest::IncrementalView)), the
//! strongest form of the `lost == 0` ledger.

use crate::client::{Client, ClientConfig};
use crate::cluster::ClusterClient;
use crate::error::ClientError;
use crate::loadgen::LoadReport;
use oc_cluster::RingSpec;
use oc_core::ingest::IncrementalView;
use oc_core::predictor::clamp_prediction;
use oc_serve::config::ServeConfig;
use oc_serve::proto::{Request, Response, StatsSnapshot};
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use std::net::SocketAddr;
use std::time::Instant;

/// Per-task limit every fleet sample carries.
const FLEET_LIMIT: f64 = 0.5;

/// The single synthetic task each fleet machine runs.
fn fleet_task() -> TaskId {
    TaskId::new(JobId(1), 0)
}

/// Deterministic per-(machine, tick) usage in `(0, 0.5]`. Every machine
/// traces a distinct series, so cross-machine state mixups cannot
/// produce a coincidentally-correct prediction.
pub fn fleet_usage(machine: u64, tick: u64) -> f64 {
    0.05 + 0.45 * ((machine.wrapping_mul(31).wrapping_add(tick.wrapping_mul(7)) % 97) as f64 / 97.0)
}

/// Shape of one fleet drive.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Cell name (the routing key's first half).
    pub cell: String,
    /// Fleet size.
    pub machines: u64,
    /// First tick of this drive (segmented drives continue a series).
    pub first_tick: u64,
    /// Ticks driven, `first_tick..first_tick + ticks`.
    pub ticks: u64,
    /// Mirror every sample to the key's replica member.
    pub mirror: bool,
    /// `BATCH` frame size per connection (1 disables framing).
    pub batch: usize,
    /// Pipeline window per connection, in *frames* of `batch` lines.
    /// The in-flight volume is `window × batch` lines: what a member's
    /// socket buffers must hold while its reactor thread applies.
    pub window: usize,
    /// Fetch each member's `STATS` after the drive. Segmented drives
    /// skip intermediate fetches — only the final state matters, and a
    /// mid-run snapshot would double-count when reports merge.
    pub fetch_stats: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            cell: "fleet".to_string(),
            machines: 1000,
            first_tick: 0,
            ticks: 30,
            mirror: true,
            batch: 64,
            window: 32,
            fetch_stats: true,
        }
    }
}

/// Machines in a block of streamed plan requests. Each block expands to
/// `PLAN_BLOCK_MACHINES × ticks` [`Request`]s, so per-member request
/// memory stays a few megabytes no matter the fleet size — materializing
/// a whole million-machine plan up front cost hundreds of megabytes of
/// fresh pages, which on slow first-touch hosts dwarfed the drive itself.
const PLAN_BLOCK_MACHINES: usize = 4096;

/// Builds one machine list per member: every machine on its owner,
/// mirrored to its replica when that replica held a role under the full
/// ring (members enforce all-alive ownership, so any other target would
/// bounce the mirror with `not-mine`). The per-tick requests are
/// expanded block-wise by [`drive_member`], in the same
/// machine-major/tick-minor order a materialized plan had.
fn build_plans(
    spec: RingSpec,
    alive: &[bool],
    cfg: &FleetConfig,
) -> Result<Vec<Vec<u32>>, ClientError> {
    let ring = spec.build();
    let cell = CellId::new(cfg.cell.clone());
    let mut plans: Vec<Vec<u32>> = (0..spec.nodes).map(|_| Vec::new()).collect();
    for m in 0..cfg.machines {
        let machine = MachineId(m as u32);
        let h = key_hash(&(cell.clone(), machine));
        let Some(owner) = ring.owner(h, alive) else {
            return Err(ClientError::Config("no live ring member".to_string()));
        };
        if cfg.mirror {
            if let Some(r) = ring.mirror_target(h, alive) {
                plans[r].push(machine.0);
            }
        }
        plans[owner].push(machine.0);
    }
    Ok(plans)
}

/// Expands one block of a member's machine list into per-tick `OBSERVE`
/// requests, reusing `reqs`'s storage across blocks.
fn expand_block(reqs: &mut Vec<Request>, cell: &CellId, machines: &[u32], cfg: &FleetConfig) {
    let task = fleet_task();
    reqs.clear();
    for &m in machines {
        for t in cfg.first_tick..cfg.first_tick + cfg.ticks {
            reqs.push(Request::Observe {
                cell: cell.clone(),
                machine: MachineId(m),
                task,
                usage: fleet_usage(u64::from(m), t),
                limit: FLEET_LIMIT,
                mem: None,
                tick: t,
            });
        }
    }
}

/// Streams one member's plan over one pipelined connection and measures
/// it as a single-connection [`LoadReport`]. The plan arrives as a
/// machine list and is expanded into requests block by block.
fn drive_member(addr: SocketAddr, index: usize, plan: Vec<u32>, cfg: &FleetConfig) -> LoadReport {
    let mut report = LoadReport {
        connections: 1,
        ..Default::default()
    };
    // A fleet drive is open-throttle by design, so a member buried in
    // first-observe allocation (a million new machine views) can hold
    // its queue full for whole seconds. Patience is cheaper than a
    // failed drive: double the default retry budget.
    let retry = crate::client::RetryPolicy {
        max_attempts: 12,
        ..Default::default()
    };
    // `pipeline_window` counts *lines*: a window of `cfg.window` frames
    // must translate to `window × batch` lines or batching degrades to
    // stop-and-wait per frame — the regression that held the routed
    // cluster path 5× under the single-node data plane.
    let client_cfg = ClientConfig::default()
        .with_seed(0xF1EE7 + index as u64)
        .with_batch(cfg.batch.max(1))
        .with_pipeline_window(cfg.window.max(1).saturating_mul(cfg.batch.max(1)))
        .with_retry(retry);
    let setup_start = Instant::now();
    let mut client = match Client::connect(addr, client_cfg) {
        Ok(c) => c,
        Err(e) => {
            report.conn_failures.push(format!("member {index}: {e}"));
            return report.finish(0.0, 0, None);
        }
    };
    report
        .setup
        .record(setup_start.elapsed().as_secs_f64() * 1e6);
    let start = Instant::now();
    report.sent = plan.len() as u64 * cfg.ticks;
    let cell = CellId::new(cfg.cell.clone());
    let mut reqs: Vec<Request> = Vec::new();
    for machines in plan.chunks(PLAN_BLOCK_MACHINES.max(1)) {
        expand_block(&mut reqs, &cell, machines, cfg);
        let outcome = client.pipeline_with(&reqs, |_, resp, lat_us| {
            report.latency.record(lat_us);
            match resp {
                Response::Err { .. } => report.errors += 1,
                _ => report.ok += 1,
            }
        });
        if let Err(e) = outcome {
            report.conn_failures.push(format!("member {index}: {e}"));
            break;
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    report.acked_observes = report.ok;
    let m = client.metrics();
    report.busy = m.busy_retries;
    report.retries = m.retries;
    report.reconnects = m.reconnects;
    // A failed fetch leaves a zero ledger: every ack then counts as lost.
    let server = cfg.fetch_stats.then(|| {
        client.stats().unwrap_or_else(|e| {
            report
                .conn_failures
                .push(format!("member {index} stats: {e}"));
            StatsSnapshot::default()
        })
    });
    // The client retries `BUSY`, so only `OK` and `ERR` are final.
    let resolved = report.ok + report.errors;
    report.finish(wall_secs, resolved, server)
}

/// Drives the fleet: one plan and one pipelined connection per live
/// member, in parallel, folded into one report.
///
/// # Errors
///
/// Plan construction failures (dead ring, bad membership); per-member
/// transport failures land in the report's `failed_connections`
/// instead.
pub fn run(
    spec: RingSpec,
    addrs: &[SocketAddr],
    alive: &[bool],
    cfg: &FleetConfig,
) -> Result<LoadReport, ClientError> {
    if addrs.len() != spec.nodes || alive.len() != spec.nodes {
        return Err(ClientError::Config(format!(
            "{} addresses / {} liveness flags for a {}-node ring",
            addrs.len(),
            alive.len(),
            spec.nodes
        )));
    }
    let plans = build_plans(spec, alive, cfg)?;
    let mut joins = Vec::new();
    for (index, plan) in plans.into_iter().enumerate() {
        if plan.is_empty() {
            continue;
        }
        let addr = addrs[index];
        let cfg = cfg.clone();
        joins.push(
            std::thread::Builder::new()
                .name("fleet-conn".to_string())
                .spawn(move || drive_member(addr, index, plan, &cfg))?,
        );
    }
    let mut merged = LoadReport::default();
    for j in joins {
        match j.join() {
            Ok(r) => merged.merge(&r),
            Err(_) => {
                merged.failed_connections += 1;
                merged
                    .conn_failures
                    .push("fleet thread panicked".to_string());
            }
        }
    }
    Ok(merged)
}

/// Drives the fleet through one [`ClusterClient`] — every sample routed
/// per-key with failover, mirroring, and ring auto-adoption live, the
/// path an application's writes take. (The planned [`run`] measures raw
/// member throughput over precomputed per-member streams instead.) The
/// `cluster-replace` bench phase uses this for its post-replacement
/// segment, where the client starts on a stale generation and must
/// adopt the pushed ring on its own.
///
/// Samples go through [`ClusterClient::observe_pipelined`]: consecutive
/// same-member runs coalesce into `BATCH` frames and every member's
/// window rides the wire concurrently, so this path now paces with the
/// planned drive instead of serializing one round trip per line.
/// Latency is measured per *frame* ack and attributed to every line the
/// frame resolved.
///
/// `cfg.mirror`, `cfg.batch`, and `cfg.window` are ignored here: the
/// client's own [`ClusterClientConfig`](crate::cluster::ClusterClientConfig)
/// governs mirroring, frame size (`client.batch`), and window
/// (`pipeline_frames`).
///
/// # Errors
///
/// Routing exhaustion and non-transport failures. Individual member
/// deaths are absorbed as failovers, visible in `cc.metrics()`.
pub fn run_routed(cc: &mut ClusterClient, cfg: &FleetConfig) -> Result<LoadReport, ClientError> {
    let cell = CellId::new(cfg.cell.clone());
    let task = fleet_task();
    let mut report = LoadReport {
        connections: 1,
        ..Default::default()
    };
    report.sent = cfg.machines * cfg.ticks;
    let start = Instant::now();
    for m in 0..cfg.machines {
        let machine = MachineId(m as u32);
        for t in cfg.first_tick..cfg.first_tick + cfg.ticks {
            cc.observe_pipelined(&cell, machine, task, fleet_usage(m, t), FLEET_LIMIT, t)?;
        }
    }
    cc.flush_pipeline()?;
    cc.flush_mirrors()?;
    let wall_secs = start.elapsed().as_secs_f64();
    report.latency = cc.take_frame_latencies();
    (report.ok, report.errors, report.busy) = cc.take_pipeline_tallies();
    report.acked_observes = report.ok;
    let server = if cfg.fetch_stats {
        Some(cc.stats()?)
    } else {
        None
    };
    // The cluster client re-sends `BUSY` lines until they resolve.
    let resolved = report.ok + report.errors;
    Ok(report.finish(wall_secs, resolved, server))
}

/// Proves served-vs-offline final-state identity: for every machine,
/// the prediction served by its current live owner must be bit-identical
/// to an offline recompute over the machine's full sample stream
/// (`0..ticks`). Returns the mismatch count — the cluster's true `lost`
/// figure, stronger than counter arithmetic because it checks *state*,
/// not bookkeeping.
///
/// # Errors
///
/// Ring/membership validation and predictor construction; a machine
/// whose predict fails (unreachable owner, `unknown-machine`) counts as
/// a mismatch rather than erroring the sweep.
pub fn verify(
    spec: RingSpec,
    addrs: &[SocketAddr],
    alive: &[bool],
    cell: &str,
    machines: u64,
    ticks: u64,
) -> Result<u64, ClientError> {
    if addrs.len() != spec.nodes || alive.len() != spec.nodes {
        return Err(ClientError::Config(format!(
            "{} addresses / {} liveness flags for a {}-node ring",
            addrs.len(),
            alive.len(),
            spec.nodes
        )));
    }
    let ring = spec.build();
    let cell = CellId::new(cell);
    let task = fleet_task();
    // The members run `ServeConfig::default()` semantics; rebuild the
    // same predictor and view shape for the offline recompute.
    let serve_cfg = ServeConfig::default();
    let predictor = serve_cfg
        .predictor
        .build()
        .map_err(|e| ClientError::Config(format!("predictor: {e}")))?;
    let mut clients: Vec<Option<Client>> = (0..spec.nodes).map(|_| None).collect();
    let mut mismatches = 0u64;
    for m in 0..machines {
        let machine = MachineId(m as u32);
        let h = key_hash(&(cell.clone(), machine));
        let Some(owner) = ring.owner(h, alive) else {
            mismatches += 1;
            continue;
        };
        if clients[owner].is_none() {
            clients[owner] = Client::connect(addrs[owner], ClientConfig::default()).ok();
        }
        let served = clients[owner]
            .as_mut()
            .ok_or(())
            .and_then(|c| c.predict(&cell, machine).map_err(|_| ()));
        let mut view = IncrementalView::new(serve_cfg.machine_capacity, &serve_cfg.sim)
            .with_max_gap(serve_cfg.max_tick_gap);
        for t in 0..ticks {
            let _ = view.ingest(oc_trace::Tick(t), task, FLEET_LIMIT, fleet_usage(m, t));
        }
        view.flush();
        let expected = clamp_prediction(predictor.predict(view.view()), view.view());
        match served {
            Ok(peak) if peak.to_bits() == expected.to_bits() => {}
            _ => mismatches += 1,
        }
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::server::Server;
    use std::time::Duration;

    fn ring_servers(nodes: usize) -> (RingSpec, Vec<Server>, Vec<SocketAddr>) {
        ring_servers_with(nodes, |cfg| cfg)
    }

    /// [`ring_servers`] with every member's config passed through `tune`.
    fn ring_servers_with(
        nodes: usize,
        tune: impl Fn(ServeConfig) -> ServeConfig,
    ) -> (RingSpec, Vec<Server>, Vec<SocketAddr>) {
        let spec = RingSpec::new(nodes);
        let ring = spec.build();
        let servers: Vec<Server> = (0..nodes)
            .map(|i| {
                let cfg = ServeConfig::default()
                    .with_addr("127.0.0.1:0")
                    .with_shards(1)
                    .with_ownership(ring.ownership_for(i));
                Server::start(tune(cfg)).expect("server starts")
            })
            .collect();
        let addrs = servers.iter().map(|s| s.addr()).collect();
        (spec, servers, addrs)
    }

    #[test]
    fn fleet_drive_verifies_bit_identical() {
        let (spec, servers, addrs) = ring_servers(3);
        let alive = vec![true; 3];
        let cfg = FleetConfig {
            machines: 60,
            ticks: 10,
            ..FleetConfig::default()
        };
        let report = run(spec, &addrs, &alive, &cfg).expect("fleet run");
        assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
        assert_eq!(report.ok, report.sent);
        assert_eq!(report.lost, 0);
        // Owner + replica each ingested every machine's stream.
        assert_eq!(report.server.observes, 60 * 10 * 2);
        let mismatches = verify(spec, &addrs, &alive, "fleet", 60, 10).expect("verify");
        assert_eq!(mismatches, 0);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn routed_drive_matches_offline_recompute() {
        let (spec, servers, addrs) = ring_servers(3);
        let mut cc =
            ClusterClient::connect(spec, &addrs, crate::cluster::ClusterClientConfig::default())
                .expect("connect");
        let cfg = FleetConfig {
            machines: 40,
            ticks: 8,
            ..FleetConfig::default()
        };
        let report = run_routed(&mut cc, &cfg).expect("routed run");
        assert_eq!(report.ok, report.sent);
        assert_eq!(report.lost, 0);
        // Owner + mirrored replica each ingested every machine's stream.
        assert_eq!(report.server.observes, 40 * 8 * 2);
        assert_eq!(cc.metrics().redirects, 0);
        let mismatches = verify(spec, &addrs, &[true; 3], "fleet", 40, 8).expect("verify");
        assert_eq!(mismatches, 0);
        for s in servers {
            s.shutdown();
        }
    }

    /// A member dies with pipelined frames still on its wire. The
    /// unacknowledged tail must replay through failover without
    /// reordering any machine's stream: the surviving members' served
    /// predictions stay bit-identical to an offline recompute over each
    /// machine's *full* series.
    #[test]
    fn pipelined_drive_replays_tail_through_failover() {
        let (spec, mut servers, addrs) = ring_servers(3);
        let mut ccfg = crate::cluster::ClusterClientConfig::default();
        // Real frames (the default client batch is 1): multi-line
        // coalescing plus several frames in flight per member.
        ccfg.client = ccfg.client.with_batch(16);
        ccfg.pipeline_frames = 8;
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg).expect("connect");
        let machines = 45u64;
        pipeline_ticks(&mut cc, machines, 0..6);
        // Member 0 goes away while the client still holds undrained
        // frames for it (nothing was flushed yet).
        servers.remove(0).shutdown();
        pipeline_ticks(&mut cc, machines, 6..12);
        cc.flush_pipeline().expect("flush");
        assert!(!cc.alive()[0], "member 0 discovered dead");
        let m = cc.metrics();
        assert!(m.replayed_tails >= 1, "no tail replayed: {m:?}");
        assert!(m.frames > 0 && m.coalesced_runs > 0, "{m:?}");
        let alive = vec![false, true, true];
        let mismatches = verify(spec, &addrs, &alive, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "pipelined replay broke bit-identity");
        for s in servers {
            s.shutdown();
        }
    }

    /// Queues ticks `ticks` of every machine on the pipelined path.
    fn pipeline_ticks(cc: &mut ClusterClient, machines: u64, ticks: std::ops::Range<u64>) {
        let cell = CellId::new("fleet");
        for m in 0..machines {
            for t in ticks.clone() {
                cc.observe_pipelined(
                    &cell,
                    MachineId(m as u32),
                    fleet_task(),
                    fleet_usage(m, t),
                    FLEET_LIMIT,
                    t,
                )
                .expect("observe");
            }
        }
    }

    /// A refused reconnect is a death verdict: the member is marked
    /// dead on the spot, its tail replayed to the replica, and nothing
    /// waits out the retry ladder — which here would sleep 5–10 s per
    /// rung. Covers the pipelined path (death under undrained frames),
    /// a synchronous read whose owner is down, and a client created
    /// after the death (the lazy connect).
    #[test]
    fn refused_reconnect_is_a_death_verdict() {
        let glacial = crate::client::RetryPolicy {
            max_attempts: 6,
            base: Duration::from_secs(10),
            cap: Duration::from_secs(10),
        };
        let mut ccfg = crate::cluster::ClusterClientConfig::default();
        ccfg.client = ccfg.client.with_batch(16).with_retry(glacial);
        ccfg.pipeline_frames = 8;
        let machines = 45u64;
        let survivors = vec![false, true, true];
        let assert_verdict = |cc: &ClusterClient, took: Duration| {
            assert!(took < Duration::from_secs(2), "slept a ladder: {took:?}");
            assert!(!cc.alive()[0], "member 0 discovered dead");
            let m = cc.metrics();
            assert_eq!(m.failovers, 1, "{m:?}");
            assert_eq!(m.backoff_sleeps, 0, "{m:?}");
        };

        // Pipelined: member 0 goes away under undrained frames.
        let (spec, mut servers, addrs) = ring_servers(3);
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg.clone()).expect("connect");
        pipeline_ticks(&mut cc, machines, 0..6);
        servers.remove(0).shutdown();
        let started = Instant::now();
        pipeline_ticks(&mut cc, machines, 6..12);
        cc.flush_pipeline().expect("flush");
        assert_verdict(&cc, started.elapsed());
        assert!(cc.metrics().replayed_tails >= 1, "{:?}", cc.metrics());
        let mismatches = verify(spec, &addrs, &survivors, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "pipelined verdict broke bit-identity");
        for s in servers {
            s.shutdown();
        }

        // Synchronous: a read whose owner went away.
        let (spec, mut servers, addrs) = ring_servers(3);
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg.clone()).expect("connect");
        let cell = CellId::new("fleet");
        for m in 0..machines {
            for t in 0..12 {
                let machine = MachineId(m as u32);
                cc.observe(
                    &cell,
                    machine,
                    fleet_task(),
                    fleet_usage(m, t),
                    FLEET_LIMIT,
                    t,
                )
                .expect("observe");
            }
        }
        cc.flush_mirrors().expect("flush");
        servers.remove(0).shutdown();
        let started = Instant::now();
        let failed = (0..machines)
            .filter(|&m| cc.predict(&cell, MachineId(m as u32)).is_err())
            .count();
        assert_eq!(failed, 0, "reads failed instead of failing over");
        assert_verdict(&cc, started.elapsed());
        let mismatches = verify(spec, &addrs, &survivors, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "sync verdict broke bit-identity");
        for s in servers {
            s.shutdown();
        }

        // A client created after the death: the lazy connect is refused.
        let (spec, mut servers, addrs) = ring_servers(3);
        servers.remove(0).shutdown();
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg).expect("connect");
        let started = Instant::now();
        pipeline_ticks(&mut cc, machines, 0..12);
        cc.flush_pipeline().expect("flush");
        assert_verdict(&cc, started.elapsed());
        let mismatches = verify(spec, &addrs, &survivors, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "late client broke bit-identity");
        for s in servers {
            s.shutdown();
        }
    }

    /// The other half of the verdict: a member that still listens is
    /// not condemned for losing a connection. The reconnect succeeds,
    /// the failure costs one strike of the ordinary ladder (a counted
    /// sleep), and the replayed tail keeps every machine's stream whole.
    #[test]
    fn lost_connection_to_a_live_member_is_no_verdict() {
        let machines = 45u64;
        let all = vec![true; 3];
        let mut ccfg = crate::cluster::ClusterClientConfig::default();
        ccfg.client = ccfg.client.with_batch(16);
        ccfg.pipeline_frames = 8;
        let reconnects = oc_telemetry::global_metrics().counter("client.reconnects");
        let assert_spared = |cc: &ClusterClient, reconnects_before: u64| {
            let m = cc.metrics();
            assert_eq!(m.failovers, 0, "{m:?}");
            assert_eq!(cc.alive(), &all[..]);
            assert!(m.backoff_sleeps >= 1, "the ladder was never entered: {m:?}");
            assert!(m.replayed_tails >= 1, "{m:?}");
            // (>: other tests in this process may reconnect too.)
            assert!(reconnects.get() > reconnects_before);
        };

        // The members reap idle connections while the client pauses.
        let (spec, servers, addrs) =
            ring_servers_with(3, |cfg| cfg.with_idle_timeout(Duration::from_millis(80)));
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg.clone()).expect("connect");
        let before = reconnects.get();
        pipeline_ticks(&mut cc, machines, 0..6);
        cc.flush_pipeline().expect("flush");
        std::thread::sleep(Duration::from_millis(300));
        pipeline_ticks(&mut cc, machines, 6..12);
        cc.flush_pipeline().expect("flush after the idle close");
        assert_spared(&cc, before);
        let mismatches = verify(spec, &addrs, &all, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "idle-close replay broke bit-identity");
        for s in servers {
            s.shutdown();
        }

        // The client's own sockets drop (seeded `ConnectionReset`s).
        let (spec, servers, addrs) = ring_servers(3);
        let drops =
            oc_serve::fault::FaultPlan::new(77, 0.08).with_kinds(oc_serve::fault::FaultKinds {
                delays: false,
                partials: false,
                drops: true,
            });
        ccfg.client = ccfg
            .client
            .with_faults(drops)
            .with_retry(crate::client::RetryPolicy {
                max_attempts: 12,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(5),
            });
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg).expect("connect");
        let before = reconnects.get();
        pipeline_ticks(&mut cc, machines, 0..12);
        cc.flush_pipeline().expect("flush through drops");
        assert_spared(&cc, before);
        let mismatches = verify(spec, &addrs, &all, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "drop replay broke bit-identity");
        for s in servers {
            s.shutdown();
        }
    }

    /// Segmented drive with a member stopped between the halves: the
    /// merged report and the identity sweep must both come out clean.
    #[test]
    fn segmented_drive_survives_member_stop() {
        let (spec, mut servers, addrs) = ring_servers(3);
        let alive = vec![true; 3];
        let first = FleetConfig {
            machines: 45,
            first_tick: 0,
            ticks: 6,
            fetch_stats: false,
            ..FleetConfig::default()
        };
        let r1 = run(spec, &addrs, &alive, &first).expect("first half");
        assert_eq!(r1.failed_connections, 0, "{:?}", r1.conn_failures);

        // Graceful stop of member 0 (SIGKILL needs child processes; the
        // supervisor smoke covers that path).
        servers.remove(0).shutdown();
        let shrunk = vec![false, true, true];
        let second = FleetConfig {
            machines: 45,
            first_tick: 6,
            ticks: 6,
            fetch_stats: true,
            ..FleetConfig::default()
        };
        let r2 = run(spec, &addrs, &shrunk, &second).expect("second half");
        assert_eq!(r2.failed_connections, 0, "{:?}", r2.conn_failures);
        let sent_first = r1.sent;
        let mut merged = r1;
        merged.merge(&r2);
        assert_eq!(merged.sent, sent_first + r2.sent);
        // Keys that had a role on the dead member lose their mirror
        // (replication is degraded until the ring is regenerated), so
        // the second half sends strictly less.
        assert!(r2.sent < sent_first, "{} !< {sent_first}", r2.sent);

        let mismatches = verify(spec, &addrs, &shrunk, "fleet", 45, 12).expect("verify");
        assert_eq!(mismatches, 0, "post-failover predictions diverged");
        for s in servers {
            s.shutdown();
        }
    }
}
