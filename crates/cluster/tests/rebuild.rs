//! Member replacement and ring resizing against real member processes.
//!
//! `Cluster::start` re-executes the current binary as its members, which
//! the standard test harness cannot host (it would reject the
//! `--cluster-node` arguments), so this target has its own `main`: it
//! diverts member invocations into node-serving mode first, then runs
//! each scenario and reports in the harness's format. Arguments that do
//! not start with `-` filter scenarios by substring, as test names do.
//!
//! Every scenario ingests through `oc-client`'s `ClusterClient`, a fresh
//! one per pass on the supervisor's current ring, so the client itself
//! finds a killed member and fails over. Each checks state, not
//! bookkeeping: both holders of every machine (owner and replica) must
//! serve the bits of `fleet::offline_peak`, the offline recompute over
//! the machine's full stream.

use oc_client::fleet::{self, offline_peak, FleetConfig};
use oc_client::{Client, ClientConfig, ClusterClient, ClusterClientConfig};
use oc_cluster::control::{self, ViewRecord};
use oc_cluster::{Cluster, ClusterConfig, RingSpec};
use oc_serve::config::ServeConfig;
use oc_serve::proto::{epoch_ring_generation, ErrCode, Request, Response};
use oc_serve::ring::KeyRole;
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, MachineId};
use std::collections::HashMap;
use std::process::ExitCode;

const CELL: &str = "rebuild";
const MACHINES: u64 = 60;

type Scenario = fn() -> Result<(), String>;

fn start(nodes: usize) -> Result<Cluster, String> {
    Cluster::start(&ClusterConfig {
        nodes,
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("cluster start: {e}"))
}

/// Ingests ticks `from..to` of the fleet through a fresh `ClusterClient`
/// on the cluster's current ring: every sample to its live owner and
/// mirrored to its replica. The client starts with every member presumed
/// alive and must find each dead one itself.
fn pass(cluster: &Cluster, from: u64, to: u64) -> Result<(), String> {
    let mut cfg = ClusterClientConfig::default();
    cfg.client = cfg.client.with_batch(64);
    let mut cc = ClusterClient::connect(cluster.spec(), &cluster.addrs(), cfg)
        .map_err(|e| format!("connect: {e}"))?;
    let drive = FleetConfig {
        cell: CELL.to_string(),
        machines: MACHINES,
        first_tick: from,
        ticks: to - from,
        fetch_stats: false,
    };
    let report = fleet::run_routed(&mut cc, &drive).map_err(|e| format!("ingest: {e}"))?;
    let dead = cluster.alive().iter().filter(|&&alive| !alive).count() as u64;
    if report.ok != report.sent || report.errors != 0 || cc.metrics().failovers != dead {
        return Err(format!(
            "ingest {from}..{to}: {report:?} {:?}",
            cc.metrics()
        ));
    }
    Ok(())
}

/// Both holders (owner and replica under the all-alive ring) of every
/// machine serve the offline bits after `ticks` ticks, and the members
/// hold exactly the fleet twice over — a member keeps no state for
/// machines the ring moved away from it. Returns how many machines
/// `slot` holds.
fn check(cluster: &Cluster, ticks: u64, slot: usize) -> Result<u64, String> {
    let predictor = ServeConfig::default()
        .predictor
        .build()
        .map_err(|e| format!("predictor: {e}"))?;
    let ring = cluster.spec().build();
    let mut clients = cluster
        .addrs()
        .into_iter()
        .map(|addr| Client::connect(addr, ClientConfig::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let cell = CellId::new(CELL);
    let mut held = 0;
    for m in 0..MACHINES {
        let machine = MachineId(m as u32);
        let want = offline_peak(predictor.as_ref(), m, ticks);
        let (owner, replica) = ring.holders(key_hash(&(cell.clone(), machine)));
        for holder in [owner, replica].into_iter().flatten() {
            held += u64::from(holder == slot);
            let got = clients[holder]
                .predict(&cell, machine)
                .map_err(|e| format!("machine {m} on member {holder}: {e}"))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!("machine {m} on member {holder}: {got} != {want}"));
            }
        }
    }
    let machines = cluster
        .merged_stats()
        .map_err(|e| format!("merged STATS: {e}"))?
        .machines;
    if machines != 2 * MACHINES {
        return Err(format!(
            "members hold {machines} machines, want {}",
            2 * MACHINES
        ));
    }
    Ok(held)
}

/// Grow 3 → 4 and shrink 4 → 3 with ingest before and after each step.
fn resize_grow_and_shrink_keep_both_holders_offline_exact() -> Result<(), String> {
    let mut cluster = start(3)?;
    pass(&cluster, 0, 40)?;
    check(&cluster, 40, 0)?;
    for (nodes, ticks) in [(4, 40), (3, 60)] {
        let report = cluster
            .resize(nodes)
            .map_err(|e| format!("resize to {nodes}: {e}"))?;
        if report.rejected != 0 || report.replayed == 0 {
            return Err(format!("resize to {nodes}: {report:?}"));
        }
        check(&cluster, ticks, 0)?;
        pass(&cluster, ticks, ticks + 20)?;
        check(&cluster, ticks + 20, 0)?;
    }
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

/// Each live member's state bytes per machine: the record text after
/// its `VIEW` header line.
fn state_bytes(cluster: &Cluster) -> Result<HashMap<(usize, u32), usize>, String> {
    let mut out = HashMap::new();
    for (member, addr) in cluster.addrs().into_iter().enumerate() {
        for ViewRecord { machine, text, .. } in
            control::handoff(addr).map_err(|e| format!("dump {member}: {e}"))?
        {
            let header = text.find('\n').expect("a record has a header line");
            out.insert((member, machine), text.len() - header - 1);
        }
    }
    Ok(out)
}

/// `replace` after 300 ticks per machine, more than the 120-sample
/// window: the dump costs what it cost at 150 ticks, byte for byte, and
/// the replaced member serves offline bits.
fn replace_after_long_history_ships_bounded_state() -> Result<(), String> {
    let mut cluster = start(3)?;
    pass(&cluster, 0, 150)?;
    let at_150 = state_bytes(&cluster)?;
    pass(&cluster, 150, 300)?;
    let at_300 = state_bytes(&cluster)?;
    if at_300 != at_150 || at_300.len() as u64 != 2 * MACHINES {
        return Err("a machine's state grew with its history".to_string());
    }
    cluster.kill(0).map_err(|e| format!("kill: {e}"))?;
    let report = cluster.replace(0).map_err(|e| format!("replace: {e}"))?;
    let held = check(&cluster, 300, 0)?;
    if report.rejected != 0 || report.replayed != held * 300 {
        return Err(format!("replace of {held} machines: {report:?}"));
    }
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

/// Kill a member, run one pass on the two survivors, then `replace`.
/// Before the kill, a member that holds neither copy of a machine
/// redirects its reads and every member stamps ring generation 0.
/// Right after the kill, before any more ingest, each machine's live
/// owner serves what the all-alive owner served. After the replace,
/// each installed record is the complete one (its sample count covers
/// the failover pass), the replaced member has ingested nothing and
/// stamps generation 1, the survivors answer `RING` with it, and the
/// replaced member and the replicas of its machines serve offline bits.
fn replace_after_a_failover_pass_installs_complete_records() -> Result<(), String> {
    let mut cluster = start(3)?;
    pass(&cluster, 0, 30)?;
    let (ring, addrs) = (cluster.spec().build(), cluster.addrs());
    let cell = CellId::new(CELL);
    let h0 = key_hash(&(cell.clone(), MachineId(0)));
    let remote = (0..3)
        .find(|&n| ring.role(n, h0) == KeyRole::Remote)
        .ok_or("every member holds machine 0")?;
    let read = Request::Predict {
        cell,
        machine: MachineId(0),
        vector: false,
    };
    let mut client =
        Client::connect(addrs[remote], ClientConfig::default()).map_err(|e| e.to_string())?;
    match client.request(&read) {
        Ok(Response::Err {
            code: ErrCode::NotMine,
            ..
        }) => {}
        other => return Err(format!("remote member {remote} answered {other:?}")),
    }
    for (member, &addr) in addrs.iter().enumerate() {
        let epoch = control::stats(addr).map_err(|e| e.to_string())?.epoch;
        if epoch == 0 || epoch_ring_generation(epoch) != 0 {
            return Err(format!("member {member}: epoch {epoch:#x}"));
        }
    }
    check(&cluster, 30, 0)?;
    cluster.kill(0).map_err(|e| format!("kill: {e}"))?;
    let diverged = fleet::verify(cluster.spec(), &addrs, &cluster.alive(), CELL, MACHINES, 30)
        .map_err(|e| format!("verify: {e}"))?;
    if diverged != 0 {
        return Err(format!("{diverged} machines diverged at failover"));
    }
    pass(&cluster, 30, 45)?;
    let report = cluster.replace(0).map_err(|e| format!("replace: {e}"))?;
    let addrs = cluster.addrs();
    let s0 = control::stats(addrs[0]).map_err(|e| e.to_string())?;
    if (s0.observes, s0.stale, s0.errors) != (0, 0, 0) || epoch_ring_generation(s0.epoch) != 1 {
        return Err(format!("replaced member: {s0:?}"));
    }
    let (spec, members) = control::ring(addrs[1]).map_err(|e| format!("ring: {e}"))?;
    if spec.generation != 1 || members.len() != 3 {
        return Err(format!("RING answered {spec:?} {members:?}"));
    }
    let held = check(&cluster, 45, 0)?;
    if held == 0 || report.rejected != 0 || report.replayed != held * 45 {
        return Err(format!("replace of {held} machines: {report:?}"));
    }
    cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(())
}

/// A ring push that fails after the new member is in place: the step
/// has taken effect (new member serving, generation bumped), and
/// `push_ring` completes it once the failing member is out of the way.
fn replace_push_failure_leaves_the_new_member_in_place() -> Result<(), String> {
    let mut cluster = start(3)?;
    pass(&cluster, 0, 20)?;
    let addrs: Vec<String> = cluster.addrs().iter().map(|a| a.to_string()).collect();
    // Member 2 runs ahead of the supervisor: it refuses generation 1.
    let ahead = RingSpec {
        generation: 5,
        ..cluster.spec()
    };
    control::ring_set(cluster.addrs()[2], &ahead, &addrs).map_err(|e| format!("ringset: {e}"))?;
    cluster.kill(0).map_err(|e| format!("kill: {e}"))?;
    if cluster.replace(0).is_ok() {
        return Err("the ring push was refused, yet replace succeeded".to_string());
    }
    if cluster.spec().generation != 1 || !cluster.alive()[0] {
        return Err(format!(
            "after the failed push: generation {}, alive {:?}",
            cluster.spec().generation,
            cluster.alive()
        ));
    }
    cluster.kill(2).map_err(|e| format!("kill: {e}"))?;
    cluster.push_ring().map_err(|e| format!("push_ring: {e}"))?;
    let (spec, addrs, alive) = (cluster.spec(), cluster.addrs(), cluster.alive());
    for member in [0, 1] {
        let (spec, _) = control::ring(addrs[member]).map_err(|e| format!("ring: {e}"))?;
        if spec.generation != 1 {
            return Err(format!(
                "member {member} runs generation {}",
                spec.generation
            ));
        }
    }
    let diverged = fleet::verify(spec, &addrs, &alive, CELL, MACHINES, 20)
        .map_err(|e| format!("verify: {e}"))?;
    if diverged != 0 {
        return Err(format!(
            "{diverged} machines diverged from the offline bits"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    oc_cluster::run_child_if_node();
    let scenarios: [(&str, Scenario); 4] = [
        (
            "resize::grow_and_shrink_keep_both_holders_offline_exact",
            resize_grow_and_shrink_keep_both_holders_offline_exact,
        ),
        (
            "replace::after_long_history_ships_bounded_state",
            replace_after_long_history_ships_bounded_state,
        ),
        (
            "replace::after_a_failover_pass_installs_complete_records",
            replace_after_a_failover_pass_installs_complete_records,
        ),
        (
            "replace::push_failure_leaves_the_new_member_in_place",
            replace_push_failure_leaves_the_new_member_in_place,
        ),
    ];
    // Harness flags are accepted and ignored; the ones that take a value
    // consume it.
    let mut filters = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for (name, _) in &scenarios {
                    println!("{name}: test");
                }
                return ExitCode::SUCCESS;
            }
            "--test-threads" | "--skip" | "--color" | "--format" | "--logfile" => {
                args.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter.to_string()),
        }
    }
    let (mut passed, mut failed) = (0, 0);
    for (name, scenario) in scenarios {
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        match scenario() {
            Ok(()) => {
                passed += 1;
                println!("test {name} ... ok");
            }
            Err(e) => {
                failed += 1;
                println!("test {name} ... FAILED: {e}");
            }
        }
    }
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    println!("\ntest result: {verdict}. {passed} passed; {failed} failed");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
