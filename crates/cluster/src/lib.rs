//! # oc-cluster — multi-process fleet serving
//!
//! Runs N `oc-serve` processes as one logical peak-prediction service:
//!
//! * [`HashRing`] (re-exported from [`oc_serve::ring`]) — a seeded
//!   consistent-hash ring with virtual nodes maps every machine key to
//!   an owning process and a replica (the ring successor, which is
//!   exactly the takeover target if the owner dies). Deterministic and
//!   std-only: a shared [`RingSpec`] is the whole membership protocol.
//! * [`node`] — the member entry point: an ordinary `oc-serve` server
//!   configured with the [`RingSpec`] and its own ring index
//!   ([`oc_serve::config::ServeConfig::ring`]), which enforces the ring
//!   (`ERR not-mine` for keys owned elsewhere) and stamps the ring
//!   generation into its `epoch`.
//! * [`supervisor`] — spawns members as child processes, SIGKILLs them
//!   (chaos) or retires them through the drain-then-snapshot `SHUTDOWN`
//!   path (handoff), and merges their `STATS`/`METRICS`.
//! * [`aggregator`] — a TCP endpoint that answers cluster-wide `STATS`
//!   and `METRICS` by fanning out and merging.
//! * [`control`] — the one-shot control-plane exchanges everything
//!   above rides on.
//!
//! Ingest replication is client-side: `oc-client`'s `ClusterClient`
//! mirrors every `OBSERVE` to the key's replica, so a SIGKILLed member
//! loses nothing an acknowledged sample ever carried — the replica
//! ingested the same ordered stream and serves bit-identical
//! predictions (predictions are a pure function of ingested state).
//! See `docs/PROTOCOL.md` §7 for the wire contract and
//! `docs/OPERATIONS.md` for the failover runbook. The process-level
//! scenarios (kill, failover, `replace`, `resize`, each checked against
//! an offline recompute) are `crates/cluster/tests/rebuild.rs`, which
//! drives the ring through `ClusterClient`.

pub mod aggregator;
pub mod control;
pub mod node;
pub mod supervisor;

pub use aggregator::Aggregator;
pub use oc_serve::ring::{HashRing, RingSpec, DEFAULT_SEED, DEFAULT_VNODES};
pub use supervisor::{Cluster, ClusterConfig, ReplayReport};

/// If this process was launched as a cluster member (`--cluster-node`,
/// the supervisor's child convention), runs the member to completion
/// and **exits the process**. Any binary that may host members — by
/// calling [`Cluster::start`], which re-invokes the current executable
/// — must call this first thing in `main`.
pub fn run_child_if_node() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some("--cluster-node") {
        return;
    }
    std::process::exit(node::run(&args[2..]));
}
