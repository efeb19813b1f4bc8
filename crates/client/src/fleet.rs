//! The fleet driver: replays a synthetic fleet through one
//! [`ClusterClient`] and measures the drive as one [`LoadReport`].
//!
//! [`run_routed`] sends every sample the way an application's writes
//! go — routed per key to the live owner, framed and pipelined per
//! member, mirrored to the replica, failed over and re-ringed as members
//! die or are replaced. [`verify`] then proves end-state identity: each
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
use oc_core::predictor::{clamp_prediction, PeakPredictor};
use oc_serve::config::ServeConfig;
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use std::net::SocketAddr;
use std::time::Instant;

/// Per-task limit every fleet sample carries.
pub(crate) const FLEET_LIMIT: f64 = 0.5;

/// The single synthetic task each fleet machine runs.
pub(crate) fn fleet_task() -> TaskId {
    TaskId::new(JobId(1), 0)
}

/// Deterministic per-(machine, tick) usage in `(0, 0.5]`. Every machine
/// traces a distinct series, so cross-machine state mixups cannot
/// produce a coincidentally-correct prediction.
pub fn fleet_usage(machine: u64, tick: u64) -> f64 {
    0.05 + 0.45 * ((machine.wrapping_mul(31).wrapping_add(tick.wrapping_mul(7)) % 97) as f64 / 97.0)
}

/// Shape of one fleet drive. How the samples travel — mirroring, frame
/// size, window — is the [`ClusterClient`]'s own configuration.
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
    /// Fetch the ring's merged `STATS` after the drive. Segmented drives
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
            fetch_stats: true,
        }
    }
}

/// Drives the fleet through one [`ClusterClient`]: every sample routed
/// per key with failover, mirroring, and ring auto-adoption live, the
/// path an application's writes take. A segmented drive keeps one
/// client across its segments, so a member killed or replaced between
/// them is discovered by the client itself.
///
/// Samples go through [`ClusterClient::observe`]: consecutive
/// same-member runs coalesce into `BATCH` frames and every member's
/// window rides the wire concurrently. Latency is measured per *frame*
/// ack and attributed to every line the frame resolved.
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
            cc.observe(&cell, machine, task, fleet_usage(m, t), FLEET_LIMIT, t)?;
        }
    }
    cc.flush()?;
    let wall_secs = start.elapsed().as_secs_f64();
    report.latency = cc.take_frame_latencies();
    (report.ok, report.errors) = cc.take_pipeline_tallies();
    report.acked_observes = report.ok;
    let server = if cfg.fetch_stats {
        Some(cc.stats()?)
    } else {
        None
    };
    Ok(report.finish(wall_secs, server))
}

/// What a member running `ServeConfig::default()` must serve for fleet
/// machine `m` after ticks `0..ticks` of [`fleet_usage`] (task `1:0`,
/// limit 0.5): the offline recompute [`verify`] holds every member to.
/// `predictor` is `ServeConfig::default().predictor`, built.
pub fn offline_peak(predictor: &dyn PeakPredictor, m: u64, ticks: u64) -> f64 {
    let serve_cfg = ServeConfig::default();
    let mut view = IncrementalView::new(serve_cfg.machine_capacity, &serve_cfg.sim)
        .with_max_gap(serve_cfg.max_tick_gap);
    let task = fleet_task();
    for t in 0..ticks {
        let _ = view.ingest(oc_trace::Tick(t), task, FLEET_LIMIT, fleet_usage(m, t));
    }
    view.flush();
    clamp_prediction(predictor.predict(view.view()), view.view())
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
    // The members run `ServeConfig::default()` semantics; rebuild the
    // same predictor for the offline recompute.
    let predictor = ServeConfig::default()
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
        let expected = offline_peak(predictor.as_ref(), m, ticks);
        match served {
            Ok(peak) if peak.to_bits() == expected.to_bits() => {}
            _ => mismatches += 1,
        }
    }
    Ok(mismatches)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use oc_serve::server::Server;
    use std::time::Duration;

    /// An in-process N-member ring (cargo's test harness owns `main`,
    /// so child processes are out; a ring slot in its config makes an
    /// in-process server behave exactly like a cluster member).
    pub(crate) fn ring_servers(nodes: usize) -> (RingSpec, Vec<Server>, Vec<SocketAddr>) {
        let spec = RingSpec::new(nodes);
        let (servers, addrs) = members_on(spec, |cfg| cfg);
        (spec, servers, addrs)
    }

    /// One in-process member per slot of `spec`'s ring, every member's
    /// config passed through `tune`.
    pub(crate) fn members_on(
        spec: RingSpec,
        tune: impl Fn(ServeConfig) -> ServeConfig,
    ) -> (Vec<Server>, Vec<SocketAddr>) {
        let servers: Vec<Server> = (0..spec.nodes)
            .map(|i| {
                let cfg = ServeConfig::default()
                    .with_addr("127.0.0.1:0")
                    .with_shards(1)
                    .with_ring(spec, i);
                Server::start(tune(cfg)).expect("server starts")
            })
            .collect();
        let addrs = servers.iter().map(|s| s.addr()).collect();
        (servers, addrs)
    }

    /// A routed drive resolves every sample, lands it on owner and
    /// replica, and ends in offline bits for every machine.
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
        observe_ticks(&mut cc, machines, 0..6);
        // Member 0 goes away while the client still holds undrained
        // frames for it (nothing was flushed yet).
        servers.remove(0).shutdown();
        observe_ticks(&mut cc, machines, 6..12);
        cc.flush().expect("flush");
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

    /// Queues ticks `ticks` of every machine.
    fn observe_ticks(cc: &mut ClusterClient, machines: u64, ticks: std::ops::Range<u64>) {
        let cell = CellId::new("fleet");
        for m in 0..machines {
            for t in ticks.clone() {
                cc.observe(
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
    /// rung. Covers ingest (death under undrained frames), a read whose
    /// owner is down after ingest settled, and a client created after
    /// the death (the lazy connect).
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

        // Ingest: member 0 goes away under undrained frames.
        let (spec, mut servers, addrs) = ring_servers(3);
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg.clone()).expect("connect");
        observe_ticks(&mut cc, machines, 0..6);
        servers.remove(0).shutdown();
        let started = Instant::now();
        observe_ticks(&mut cc, machines, 6..12);
        cc.flush().expect("flush");
        assert_verdict(&cc, started.elapsed());
        assert!(cc.metrics().replayed_tails >= 1, "{:?}", cc.metrics());
        let mismatches = verify(spec, &addrs, &survivors, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "pipelined verdict broke bit-identity");
        for s in servers {
            s.shutdown();
        }

        // A read whose owner went away after ingest settled.
        let (spec, mut servers, addrs) = ring_servers(3);
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg.clone()).expect("connect");
        let cell = CellId::new("fleet");
        observe_ticks(&mut cc, machines, 0..12);
        cc.flush().expect("flush");
        servers.remove(0).shutdown();
        let started = Instant::now();
        let failed = (0..machines)
            .filter(|&m| cc.predict(&cell, MachineId(m as u32)).is_err())
            .count();
        assert_eq!(failed, 0, "reads failed instead of failing over");
        assert_verdict(&cc, started.elapsed());
        let mismatches = verify(spec, &addrs, &survivors, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "read verdict broke bit-identity");
        for s in servers {
            s.shutdown();
        }

        // A client created after the death: the lazy connect is refused.
        let (spec, mut servers, addrs) = ring_servers(3);
        servers.remove(0).shutdown();
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg).expect("connect");
        let started = Instant::now();
        observe_ticks(&mut cc, machines, 0..12);
        cc.flush().expect("flush");
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
        let spec = RingSpec::new(3);
        let (servers, addrs) =
            members_on(spec, |cfg| cfg.with_idle_timeout(Duration::from_millis(80)));
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg.clone()).expect("connect");
        let before = reconnects.get();
        observe_ticks(&mut cc, machines, 0..6);
        cc.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(300));
        observe_ticks(&mut cc, machines, 6..12);
        cc.flush().expect("flush after the idle close");
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
        observe_ticks(&mut cc, machines, 0..12);
        cc.flush().expect("flush through drops");
        assert_spared(&cc, before);
        let mismatches = verify(spec, &addrs, &all, "fleet", machines, 12).expect("verify");
        assert_eq!(mismatches, 0, "drop replay broke bit-identity");
        for s in servers {
            s.shutdown();
        }
    }

    /// Segmented drive with a member stopped between the halves: one
    /// client carries on across the stop, and the identity sweep comes
    /// out clean.
    #[test]
    fn segmented_drive_survives_member_stop() {
        let (spec, mut servers, addrs) = ring_servers(3);
        let mut cc =
            ClusterClient::connect(spec, &addrs, crate::cluster::ClusterClientConfig::default())
                .expect("connect");
        let first = FleetConfig {
            machines: 45,
            first_tick: 0,
            ticks: 6,
            fetch_stats: false,
            ..FleetConfig::default()
        };
        let r1 = run_routed(&mut cc, &first).expect("first half");
        assert_eq!(r1.ok, r1.sent);

        // Graceful stop of member 0 (SIGKILL needs child processes;
        // oc-cluster's `rebuild` scenarios cover that path).
        servers.remove(0).shutdown();
        let second = FleetConfig {
            first_tick: 6,
            fetch_stats: true,
            ..first
        };
        let r2 = run_routed(&mut cc, &second).expect("second half");
        assert_eq!(r2.ok, r2.sent);
        assert!(!cc.alive()[0], "member 0 discovered stopped");
        let mut merged = r1;
        merged.merge(&r2);
        assert_eq!(merged.sent, 45 * 12);
        assert_eq!(merged.lost, 0);

        let shrunk = vec![false, true, true];
        let mismatches = verify(spec, &addrs, &shrunk, "fleet", 45, 12).expect("verify");
        assert_eq!(mismatches, 0, "post-failover predictions diverged");
        for s in servers {
            s.shutdown();
        }
    }
}
