//! Multi-process cluster quickstart: a 2-member ring, one logical client.
//!
//! ```text
//! cargo run --release --example cluster_quickstart
//! ```
//!
//! Boots two real `oc-serve` processes under the `oc-cluster` supervisor
//! (this binary re-execs itself as the members), routes a small fleet's
//! samples through a `ClusterClient` — consistent hashing picks each
//! machine's owner, and every `OBSERVE` is mirrored to its replica —
//! then SIGKILLs one member mid-service and shows that every prediction
//! survives bit-identically on the survivor. Along the way it reads each
//! member's `epoch` stamp (PROTOCOL.md §7.4) and the cluster-wide folded
//! `STATS`.

use overcommit_repro::client::{Client, ClientConfig, ClusterClient, ClusterClientConfig};
use overcommit_repro::cluster::{Cluster, ClusterConfig};
use overcommit_repro::serve::proto::epoch_ring_generation;
use overcommit_repro::trace::ids::{CellId, JobId, MachineId, TaskId};

const MACHINES: u32 = 8;
const TICKS: u64 = 30;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Must run before anything else: `Cluster::start` re-execs this
    // binary as its member processes, and this call diverts those
    // children into node-serving mode (it never returns for them).
    overcommit_repro::cluster::run_child_if_node();

    let mut cluster = Cluster::start(&ClusterConfig {
        nodes: 2,
        shards: 1,
        ..ClusterConfig::default()
    })?;
    let addrs = cluster.addrs();
    println!("2-process ring: {} and {}", addrs[0], addrs[1]);

    // Each member stamps STATS with its epoch: start time in the high
    // bits, ring generation in the low 16. Equal generations, distinct
    // processes.
    for (i, addr) in addrs.iter().enumerate() {
        let mut member = Client::connect(*addr, ClientConfig::default())?;
        let s = member.stats()?;
        println!(
            "member {i}: epoch {:#014x} (ring generation {})",
            s.epoch,
            epoch_ring_generation(s.epoch)
        );
    }

    // One client over the whole ring. `observe` queues each sample on
    // its owner's pipe and returns; reads settle the pipes first.
    // Mirroring is on by default: every acknowledged sample also reaches
    // the key's replica, so losing a whole process loses nothing.
    let mut client =
        ClusterClient::connect(cluster.spec(), &addrs, ClusterClientConfig::default())?;

    let cell = CellId::new("demo");
    let task = TaskId::new(JobId(1), 0);
    for t in 0..TICKS {
        for m in 0..MACHINES {
            let usage = 0.10 + 0.05 * ((u64::from(m) + t) % 5) as f64;
            client.observe(&cell, MachineId(m), task, usage, 0.6, t)?;
        }
    }

    let before: Vec<f64> = (0..MACHINES)
        .map(|m| client.predict(&cell, MachineId(m)))
        .collect::<Result<_, _>>()?;
    println!(
        "predicted peaks: machine 0 -> {:.3}, machine {} -> {:.3}",
        before[0],
        MACHINES - 1,
        before[MACHINES as usize - 1]
    );

    let s = client.stats()?;
    println!(
        "cluster-wide STATS (both members folded): {} observes, {} machine \
         copies (each machine counted at its owner and its replica)",
        s.observes, s.machines
    );

    // Kill a member the hard way — SIGKILL, no drain, mid-service. The
    // client discovers the death on the next request and fails over to
    // the replica, which already holds every acknowledged sample.
    cluster.kill(0)?;
    println!("SIGKILLed member 0");

    let after: Vec<f64> = (0..MACHINES)
        .map(|m| client.predict(&cell, MachineId(m)))
        .collect::<Result<_, _>>()?;
    for m in 0..MACHINES as usize {
        assert_eq!(
            before[m].to_bits(),
            after[m].to_bits(),
            "machine {m} prediction changed across the kill"
        );
    }
    let cm = client.metrics();
    println!(
        "all {MACHINES} predictions survived bit-identically \
         (failovers: {}, redirects: {}, replayed tails: {})",
        cm.failovers, cm.redirects, cm.replayed_tails
    );

    drop(client);
    let final_stats = cluster.shutdown()?;
    println!(
        "survivor drained: final snapshot has {} observes across {} machines",
        final_stats.observes, final_stats.machines
    );
    Ok(())
}
