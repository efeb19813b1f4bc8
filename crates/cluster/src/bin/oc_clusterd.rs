//! `oc-clusterd` — run a multi-process cluster under one supervisor.
//!
//! ```text
//! oc-clusterd [--nodes N] [--vnodes V] [--seed S] [--shards K]
//!             [--agg-addr IP:PORT]      # aggregator bind, default 127.0.0.1:0
//! ```
//!
//! The default mode spawns `N` member processes, prints one
//! `NODE <index> <addr>` line per member plus `AGG <addr>` for the
//! aggregation endpoint, and serves until a client sends `SHUTDOWN` to
//! the aggregator (which drains every member first).

use oc_cluster::{aggregator, Cluster, ClusterConfig};
use std::process::ExitCode;
use std::time::Duration;

fn fail(msg: &str) -> ExitCode {
    eprintln!("oc-clusterd: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    oc_cluster::run_child_if_node();
    let mut cfg = ClusterConfig::default();
    let mut agg_addr = "127.0.0.1:0".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        let parsed = match flag.as_str() {
            "--nodes" => value.parse().map(|v| cfg.nodes = v).is_ok(),
            "--vnodes" => value.parse().map(|v| cfg.vnodes = v).is_ok(),
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--shards" => value.parse().map(|v| cfg.shards = v).is_ok(),
            "--agg-addr" => {
                agg_addr.clone_from(&value);
                !value.is_empty()
            }
            other => return fail(&format!("unknown flag {other}")),
        };
        if !parsed {
            return fail(&format!("{flag}: invalid value {value:?}"));
        }
    }
    let cluster = match Cluster::start(&cfg) {
        Ok(c) => c,
        Err(e) => return fail(&format!("start: {e}")),
    };
    for (i, addr) in cluster.addrs().iter().enumerate() {
        println!("NODE {i} {addr}");
    }
    let members = aggregator::members(&cluster.addrs());
    let agg = match aggregator::Aggregator::start(&agg_addr, members) {
        Ok(a) => a,
        Err(e) => return fail(&format!("aggregator: {e}")),
    };
    println!("AGG {}", agg.addr());

    // Serve until a SHUTDOWN lands on the aggregator (it drains the
    // members itself before raising the flag).
    while !agg.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    agg.stop();
    drop(cluster); // Members already drained; reap any stragglers.
    ExitCode::SUCCESS
}
