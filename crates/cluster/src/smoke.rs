//! The 3-process smoke scenario run by `oc-clusterd --smoke` (and CI):
//! ingest a mirrored fleet, verify redirects, SIGKILL one member, prove
//! the ring successor serves bit-identical predictions, keep ingesting on
//! the survivors, then replace the dead member from the survivors' state
//! records and prove that every machine's owner *and* replica serve the
//! bits the surviving holder served before the replacement.
//!
//! The fleet, its routed ingest and the holder check are public so the
//! multi-process tests (`crates/cluster/tests/rebuild.rs`) drive the same
//! shapes.

use crate::aggregator::{self, Aggregator};
use crate::control;
use crate::supervisor::{Cluster, ClusterConfig};
use crate::HashRing;
use oc_serve::proto::{epoch_ring_generation, ErrCode, Request, Response};
use oc_serve::ring::KeyRole;
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, MachineId};
use std::net::SocketAddr;
use std::ops::Range;

/// Machines in the smoke fleet.
const MACHINES: u64 = 120;
/// Samples per machine before the kill.
const TICKS: u64 = 30;
/// Samples per machine ingested on the survivors after the kill.
const FAILOVER_TICKS: u64 = 10;

/// A deterministic per-(machine, tick) usage in `(0, 0.5]` so every
/// machine's prediction differs — state mixups cannot cancel out.
pub fn usage(machine: u64, tick: u64) -> f64 {
    0.05 + 0.45 * (((machine * 31 + tick * 7) % 97) as f64 / 97.0)
}

/// The `OBSERVE` line of `machine`'s sample at `tick` (task `1:0`, limit
/// 0.5).
pub fn observe_line(cell: &str, machine: u64, tick: u64) -> String {
    format!(
        "OBSERVE {cell} {machine} 1:0 {} 0.5 {tick}",
        usage(machine, tick)
    )
}

/// A scalar `PREDICT` of `machine` in `cell`, served by `addr`.
///
/// # Errors
///
/// The exchange failed, or the member answered anything but `PRED`.
pub fn predict(addr: SocketAddr, cell: &str, machine: u64) -> Result<f64, String> {
    let req = Request::Predict {
        cell: CellId::new(cell),
        machine: MachineId(machine as u32),
        vector: false,
    };
    match control::request(addr, &req).map_err(|e| format!("predict via {addr}: {e}"))? {
        Response::Pred { peak, .. } => Ok(peak),
        other => Err(format!("predict via {addr}: got {other:?}")),
    }
}

/// Ingests `ticks` of machines `0..machines` the way a mirroring cluster
/// client routes them under the liveness mask `alive`: every sample to
/// the machine's live owner and to [`HashRing::mirror_target`].
///
/// # Errors
///
/// A member refused a line or could not be driven.
pub fn drive_pass(
    ring: &HashRing,
    addrs: &[SocketAddr],
    alive: &[bool],
    cell: &str,
    machines: u64,
    ticks: Range<u64>,
) -> Result<(), String> {
    let mut plans: Vec<Vec<String>> = vec![Vec::new(); addrs.len()];
    for m in 0..machines {
        let h = key_hash(&(CellId::new(cell), MachineId(m as u32)));
        let owner = ring.owner(h, alive).ok_or("no live owner")?;
        let mirror = ring.mirror_target(h, alive);
        for t in ticks.clone() {
            let line = observe_line(cell, m, t);
            if let Some(r) = mirror {
                plans[r].push(line.clone());
            }
            plans[owner].push(line);
        }
    }
    for (node, plan) in plans.iter().enumerate() {
        let (oks, rejected) = control::drive_lines(addrs[node], plan)
            .map_err(|e| format!("drive node {node}: {e}"))?;
        if oks != plan.len() as u64 || rejected != 0 {
            return Err(format!(
                "node {node}: {oks}/{} samples acknowledged, {rejected} rejected",
                plan.len()
            ));
        }
    }
    Ok(())
}

/// Checks that both holders — owner and replica under the all-alive
/// `ring` — of every machine `0..machines` serve the bits of
/// `expected(machine)`. Returns how many machines `slot` holds.
///
/// # Errors
///
/// The first machine whose holder diverged, or a failed exchange.
pub fn check_holders(
    ring: &HashRing,
    addrs: &[SocketAddr],
    cell: &str,
    machines: u64,
    slot: usize,
    expected: impl Fn(u64) -> f64,
) -> Result<u64, String> {
    let mut held = 0;
    for m in 0..machines {
        let h = key_hash(&(CellId::new(cell), MachineId(m as u32)));
        let want = expected(m);
        let (owner, replica) = ring.holders(h);
        for holder in [owner, replica].into_iter().flatten() {
            held += u64::from(holder == slot);
            let got = predict(addrs[holder], cell, m)?;
            if got.to_bits() != want.to_bits() {
                return Err(format!("machine {m} on member {holder}: {got} != {want}"));
            }
        }
    }
    Ok(held)
}

/// What the live owner of every machine `0..machines` serves under the
/// liveness mask `alive`.
fn served(
    ring: &HashRing,
    addrs: &[SocketAddr],
    alive: &[bool],
    cell: &str,
    machines: u64,
) -> Result<Vec<f64>, String> {
    (0..machines)
        .map(|m| {
            let h = key_hash(&(CellId::new(cell), MachineId(m as u32)));
            let owner = ring.owner(h, alive).ok_or("no live owner")?;
            predict(addrs[owner], cell, m)
        })
        .collect()
}

/// Runs the scenario. `Ok` means every invariant held.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn run() -> Result<(), String> {
    let cfg = ClusterConfig {
        nodes: 3,
        shards: 2,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(&cfg).map_err(|e| format!("cluster start: {e}"))?;
    let ring: HashRing = cluster.spec().build();
    let addrs = cluster.addrs();
    let all_alive = vec![true; 3];
    let cell = CellId::new("smoke");

    // Route the fleet: every machine's samples go to its owner and are
    // mirrored to its replica.
    drive_pass(&ring, &addrs, &all_alive, "smoke", MACHINES, 0..TICKS)?;
    println!("smoke: ingested {MACHINES} machines x {TICKS} ticks, mirrored");

    // A member that owns neither the key nor its replica slot must
    // redirect rather than silently ingest.
    let h0 = key_hash(&(cell.clone(), MachineId(0)));
    let remote = (0..3)
        .find(|&n| ring.role(n, h0) == KeyRole::Remote)
        .expect("3 nodes, 2 roles");
    match control::request(
        addrs[remote],
        &Request::Predict {
            cell: cell.clone(),
            machine: MachineId(0),
            vector: false,
        },
    ) {
        Ok(Response::Err {
            code: ErrCode::NotMine,
            ..
        }) => {}
        other => return Err(format!("expected ERR not-mine from remote, got {other:?}")),
    }
    println!("smoke: remote member redirects with ERR not-mine");

    // Epochs: nonzero, ring generation 0.
    for &addr in &addrs {
        let s = control::stats(addr).map_err(|e| format!("stats {addr}: {e}"))?;
        if s.epoch == 0 {
            return Err(format!("{addr}: epoch missing from STATS"));
        }
        if epoch_ring_generation(s.epoch) != 0 {
            return Err(format!("{addr}: unexpected ring generation"));
        }
    }
    // Owner and replica agree on every machine before the failure.
    let before = served(&ring, &addrs, &all_alive, "smoke", MACHINES)?;
    check_holders(&ring, &addrs, "smoke", MACHINES, 0, |m| before[m as usize])?;

    // SIGKILL member 0 mid-service; its replicas hold every sample.
    cluster.kill(0).map_err(|e| format!("kill: {e}"))?;
    let alive = cluster.alive();
    println!("smoke: SIGKILLed member 0");

    let after = served(&ring, &addrs, &alive, "smoke", MACHINES)?;
    let mut failed_over = 0u64;
    for m in 0..MACHINES {
        let h = key_hash(&(cell.clone(), MachineId(m as u32)));
        failed_over += u64::from(ring.owner(h, &all_alive) == Some(0));
        let (got, expected) = (after[m as usize], before[m as usize]);
        if got.to_bits() != expected.to_bits() {
            return Err(format!(
                "machine {m}: prediction diverged after failover ({got} != {expected})"
            ));
        }
    }
    if failed_over == 0 {
        return Err("member 0 owned no machines; smoke proves nothing".to_string());
    }
    println!("smoke: {failed_over} machines failed over with bit-identical predictions");

    // Keep ingesting on the two survivors: the machines member 0 held
    // move on without it.
    let ticks = TICKS + FAILOVER_TICKS;
    drive_pass(&ring, &addrs, &alive, "smoke", MACHINES, TICKS..ticks)?;
    let survivors = served(&ring, &addrs, &alive, "smoke", MACHINES)?;

    // Cluster-wide aggregation over the survivors, directly and through
    // the aggregator endpoint.
    let merged = cluster.merged_stats().map_err(|e| format!("stats: {e}"))?;
    if merged.machines < MACHINES {
        return Err(format!(
            "merged machines {} < fleet size {MACHINES}",
            merged.machines
        ));
    }
    let members = aggregator::members(&addrs);
    members.lock().expect("members lock")[0].1 = false;
    let agg = Aggregator::start("127.0.0.1:0", members).map_err(|e| format!("agg: {e}"))?;
    let via_agg = control::stats(agg.addr()).map_err(|e| format!("agg stats: {e}"))?;
    if via_agg.observes != merged.observes || via_agg.machines != merged.machines {
        return Err(format!(
            "aggregator disagrees with supervisor: {via_agg:?} vs {merged:?}"
        ));
    }
    let metrics = control::metrics_exposition(agg.addr()).map_err(|e| format!("agg m: {e}"))?;
    let map = oc_telemetry::metrics::parse_exposition(&metrics)
        .ok_or_else(|| "merged exposition unparseable".to_string())?;
    if map.get("serve.observes").copied().unwrap_or(0.0) as u64 != merged.observes {
        return Err("merged METRICS disagrees with merged STATS".to_string());
    }
    agg.stop();
    println!(
        "smoke: aggregated {} observes / {} machines across survivors",
        merged.observes, merged.machines
    );

    // Replace the killed member into its slot: state installed from the
    // survivors' state records, generation bumped, ring pushed.
    let report = cluster.replace(0).map_err(|e| format!("replace: {e}"))?;
    if report.replayed == 0 {
        return Err("replace installed no samples".to_string());
    }
    if report.rejected != 0 {
        return Err(format!(
            "replace sent {} records the slot refused; the supervisor's ring \
             and the member disagree",
            report.rejected
        ));
    }
    let addrs = cluster.addrs(); // slot 0 has a fresh address
    let s0 = control::stats(addrs[0]).map_err(|e| format!("stats replaced: {e}"))?;
    if s0.observes != 0 || s0.stale != 0 || s0.errors != 0 {
        return Err(format!(
            "a restored member ingests nothing: observes {}, stale {}, errors {}",
            s0.observes, s0.stale, s0.errors
        ));
    }
    if epoch_ring_generation(s0.epoch) != 1 {
        return Err(format!(
            "replaced member should stamp ring generation 1, epoch {:#x}",
            s0.epoch
        ));
    }
    // Every machine's owner and replica — the replaced member among
    // them — serve what the survivors served for the full stream, the
    // ticks ingested while member 0 was dead included.
    let back_home = check_holders(&ring, &addrs, "smoke", MACHINES, 0, |m| {
        survivors[m as usize]
    })?;
    if back_home == 0 {
        return Err("member 0 holds no machines; replace proves nothing".to_string());
    }
    if report.replayed != back_home * ticks {
        return Err(format!(
            "replace installed {} samples for {back_home} machines of {ticks} ticks",
            report.replayed
        ));
    }
    // Any member answers RING with the bumped description — what
    // clients auto-adopt from.
    let (spec, members) = control::ring(addrs[1]).map_err(|e| format!("ring: {e}"))?;
    if spec.generation != 1 || members.len() != 3 {
        return Err(format!("unexpected RING answer: {spec:?} {members:?}"));
    }
    println!(
        "smoke: replaced member 0 (installed {} samples' worth of state from {} survivors); \
         {back_home} machines served bit-identically by owner and replica at generation 1",
        report.replayed, report.sources
    );

    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("smoke: PASS");
    Ok(())
}
