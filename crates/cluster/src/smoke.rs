//! The 3-process smoke scenario run by `oc-clusterd --smoke` (and CI):
//! ingest a mirrored fleet, verify redirects, SIGKILL one member, and
//! prove the ring successor serves bit-identical predictions.

use crate::aggregator::{self, Aggregator};
use crate::control;
use crate::ring::HashRing;
use crate::supervisor::{Cluster, ClusterConfig};
use oc_serve::proto::{epoch_ring_generation, ErrCode, Request, Response};
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, MachineId};
use std::net::SocketAddr;

/// Machines in the smoke fleet.
const MACHINES: u64 = 120;
/// Samples per machine.
const TICKS: u64 = 30;

/// A deterministic per-(machine, tick) usage in `(0, 0.5]` so every
/// machine's prediction differs — state mixups cannot cancel out.
pub(crate) fn usage(machine: u64, tick: u64) -> f64 {
    0.05 + 0.45 * (((machine * 31 + tick * 7) % 97) as f64 / 97.0)
}

pub(crate) fn observe_line(cell: &str, machine: u64, tick: u64) -> String {
    format!(
        "OBSERVE {cell} {machine} 1:0 {} 0.5 {tick}",
        usage(machine, tick)
    )
}

fn predict(addr: SocketAddr, cell: &CellId, machine: u64) -> Result<f64, String> {
    let req = Request::Predict {
        cell: cell.clone(),
        machine: MachineId(machine as u32),
        vector: false,
    };
    match control::request(addr, &req).map_err(|e| format!("predict via {addr}: {e}"))? {
        Response::Pred { peak, .. } => Ok(peak),
        other => Err(format!("predict via {addr}: got {other:?}")),
    }
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
    let mut plans: Vec<Vec<String>> = vec![Vec::new(); 3];
    let mut owner_of = Vec::with_capacity(MACHINES as usize);
    for m in 0..MACHINES {
        let h = key_hash(&(cell.clone(), MachineId(m as u32)));
        let (owner, replica) = ring.routes(h, &all_alive);
        let (owner, replica) = (owner.unwrap(), replica.unwrap());
        owner_of.push(owner);
        for t in 0..TICKS {
            let line = observe_line("smoke", m, t);
            plans[owner].push(line.clone());
            plans[replica].push(line);
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
    println!("smoke: ingested {MACHINES} machines x {TICKS} ticks, mirrored");

    // A member that owns neither the key nor its replica slot must
    // redirect rather than silently ingest.
    let h0 = key_hash(&(cell.clone(), MachineId(0)));
    let (o0, r0) = ring.routes(h0, &all_alive);
    let remote = (0..3)
        .find(|n| Some(*n) != o0 && Some(*n) != r0)
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

    // Owner-served predictions before the failure.
    let mut expected = Vec::with_capacity(MACHINES as usize);
    for m in 0..MACHINES {
        expected.push(predict(addrs[owner_of[m as usize]], &cell, m)?);
    }

    // SIGKILL member 0 mid-service; its replicas hold every sample.
    cluster.kill(0).map_err(|e| format!("kill: {e}"))?;
    let alive = cluster.alive();
    println!("smoke: SIGKILLed member 0");

    let mut failed_over = 0u64;
    for m in 0..MACHINES {
        let h = key_hash(&(cell.clone(), MachineId(m as u32)));
        let new_owner = ring
            .owner(h, &alive)
            .ok_or_else(|| "no live owner".to_string())?;
        if owner_of[m as usize] == 0 {
            failed_over += 1;
        }
        let got = predict(addrs[new_owner], &cell, m)?;
        if got.to_bits() != expected[m as usize].to_bits() {
            return Err(format!(
                "machine {m}: prediction diverged after failover ({got} != {})",
                expected[m as usize]
            ));
        }
    }
    if failed_over == 0 {
        return Err("member 0 owned no machines; smoke proves nothing".to_string());
    }
    println!("smoke: {failed_over} machines failed over with bit-identical predictions");

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

    // Replace the killed member into its slot: state rebuilt from the
    // survivors' handoff logs, generation bumped, ring pushed.
    let report = cluster.replace(0).map_err(|e| format!("replace: {e}"))?;
    if report.replayed == 0 {
        return Err("replace replayed no samples".to_string());
    }
    if report.rejected != 0 {
        return Err(format!(
            "replace drove {} lines the slot refused; the supervisor's ring \
             and the member's ownership disagree",
            report.rejected
        ));
    }
    let addrs = cluster.addrs(); // slot 0 has a fresh address
    let s0 = control::stats(addrs[0]).map_err(|e| format!("stats replaced: {e}"))?;
    if s0.stale != 0 || s0.errors != 0 {
        return Err(format!(
            "replay reached the replaced member out of order: stale {}, errors {}",
            s0.stale, s0.errors
        ));
    }
    if epoch_ring_generation(s0.epoch) != 1 {
        return Err(format!(
            "replaced member should stamp ring generation 1, epoch {:#x}",
            s0.epoch
        ));
    }
    // The replaced member serves its original ranges bit-identically.
    let mut back_home = 0u64;
    for m in 0..MACHINES {
        if owner_of[m as usize] != 0 {
            continue;
        }
        back_home += 1;
        let got = predict(addrs[0], &cell, m)?;
        if got.to_bits() != expected[m as usize].to_bits() {
            return Err(format!(
                "machine {m}: prediction diverged after replace ({got} != {})",
                expected[m as usize]
            ));
        }
    }
    if back_home == 0 {
        return Err("member 0 owned no machines; replace proves nothing".to_string());
    }
    // Any member answers RING with the bumped description — what
    // clients auto-adopt from.
    let desc = control::ring(addrs[1]).map_err(|e| format!("ring: {e}"))?;
    if desc.generation != 1 || desc.addrs.len() != 3 {
        return Err(format!("unexpected RING answer: {desc:?}"));
    }
    println!(
        "smoke: replaced member 0 (replayed {} from {} survivors); \
         {back_home} machines served bit-identically at generation 1",
        report.replayed, report.sources
    );

    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("smoke: PASS");
    Ok(())
}
