//! Member replacement and ring resizing against real member processes.
//!
//! `Cluster::start` re-executes the current binary as its members, which
//! the standard test harness cannot host (it would reject the
//! `--cluster-node` arguments), so this target has its own `main`: it
//! diverts member invocations into node-serving mode first, then runs
//! each scenario and reports in the harness's format. Arguments that do
//! not start with `-` filter scenarios by substring, as test names do.
//!
//! Every scenario ingests through the same routing a mirroring cluster
//! client uses and checks state, not bookkeeping: both holders of every
//! machine (owner and replica) must serve the bits of an offline
//! recompute over the machine's full stream.

use oc_cluster::control::{self, ViewRecord};
use oc_cluster::smoke::{check_holders, drive_pass, predict, usage};
use oc_cluster::{Cluster, ClusterConfig, RingSpec};
use oc_core::ingest::IncrementalView;
use oc_core::predictor::clamp_prediction;
use oc_serve::config::ServeConfig;
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use oc_trace::Tick;
use std::collections::HashMap;
use std::process::ExitCode;

const CELL: &str = "rebuild";
const MACHINES: u64 = 60;

type Scenario = fn() -> Result<(), String>;

/// What a member predicts for `machine` once it has ingested ticks
/// `0..ticks` of the smoke fleet's stream, recomputed offline.
fn offline_prediction(machine: u64, ticks: u64) -> f64 {
    let cfg = ServeConfig::default();
    let predictor = cfg.predictor.build().expect("default predictor");
    let mut view =
        IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap);
    for t in 0..ticks {
        view.ingest(Tick(t), TaskId::new(JobId(1), 0), 0.5, usage(machine, t))
            .expect("a fresh stream ingests");
    }
    view.flush();
    clamp_prediction(predictor.predict(view.view()), view.view())
}

fn start(nodes: usize) -> Result<Cluster, String> {
    Cluster::start(&ClusterConfig {
        nodes,
        ..ClusterConfig::default()
    })
    .map_err(|e| format!("cluster start: {e}"))
}

/// Ingests ticks `from..to` on the cluster's current ring, every member
/// alive.
fn pass(cluster: &Cluster, from: u64, to: u64) -> Result<(), String> {
    let ring = cluster.spec().build();
    drive_pass(
        &ring,
        &cluster.addrs(),
        &cluster.alive(),
        CELL,
        MACHINES,
        from..to,
    )
}

/// Both holders of every machine serve the offline bits after `ticks`
/// ticks, and the members hold exactly the fleet twice over — a member
/// keeps no state for machines the ring moved away from it.
fn check(cluster: &Cluster, ticks: u64, slot: usize) -> Result<u64, String> {
    let held = check_holders(
        &cluster.spec().build(),
        &cluster.addrs(),
        CELL,
        MACHINES,
        slot,
        |m| offline_prediction(m, ticks),
    )?;
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

/// Kill a member, run one pass on the two survivors, then `replace`:
/// each installed record is the complete one (its sample count covers
/// the failover pass), and the replaced member and the replicas of its
/// machines serve offline bits.
fn replace_after_a_failover_pass_installs_complete_records() -> Result<(), String> {
    let mut cluster = start(3)?;
    pass(&cluster, 0, 30)?;
    cluster.kill(0).map_err(|e| format!("kill: {e}"))?;
    pass(&cluster, 30, 45)?;
    let report = cluster.replace(0).map_err(|e| format!("replace: {e}"))?;
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
    let (ring, addrs, alive) = (cluster.spec().build(), cluster.addrs(), cluster.alive());
    for member in [0, 1] {
        let (spec, _) = control::ring(addrs[member]).map_err(|e| format!("ring: {e}"))?;
        if spec.generation != 1 {
            return Err(format!(
                "member {member} runs generation {}",
                spec.generation
            ));
        }
    }
    for m in 0..MACHINES {
        let h = key_hash(&(CellId::new(CELL), MachineId(m as u32)));
        let owner = ring.owner(h, &alive).ok_or("no live owner")?;
        let got = predict(addrs[owner], CELL, m)?;
        if got.to_bits() != offline_prediction(m, 20).to_bits() {
            return Err(format!("machine {m} on member {owner}: {got}"));
        }
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
