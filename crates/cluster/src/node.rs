//! The member-process entry point.
//!
//! A cluster member is an ordinary `oc-serve` [`Server`] whose
//! [`ServeConfig`] carries the ring's [`OwnershipMap`] for its index and
//! the ring generation (stamped into the server's `epoch`). The
//! supervisor spawns members as child processes of the *current
//! executable* re-invoked with `--cluster-node` — any binary that calls
//! [`crate::run_child_if_node`] first thing in `main` can host members,
//! so loadgen, `oc-clusterd`, and the examples all reuse one launcher.
//!
//! The child announces `ADDR <ip:port>` on stdout once it is serving
//! (the parent blocks on that line), then waits for a `SHUTDOWN` verb
//! and exits through the drain-then-snapshot path.
//!
//! [`OwnershipMap`]: oc_serve::config::OwnershipMap

use crate::ring::RingSpec;
use oc_serve::config::{OwnershipFactory, RingInfo, ServeConfig};
use oc_serve::server::Server;
use std::io::Write;

/// Everything a member needs to configure itself, carried on the child
/// command line.
#[derive(Debug, Clone)]
pub struct NodeArgs {
    /// The shared ring description.
    pub spec: RingSpec,
    /// This member's ring index.
    pub index: usize,
    /// Shards inside the member.
    pub shards: usize,
    /// Connection cap.
    pub max_connections: usize,
    /// Override for `sim.max_num_samples` (the per-task history window)
    /// — fleet-scale runs shrink it to bound per-machine memory.
    pub history_samples: Option<usize>,
    /// Whether the member keeps the handoff sample log that
    /// `Cluster::replace`/`Cluster::resize` rebuild state from. Costs
    /// memory proportional to ingested samples; fleet-scale memory
    /// diets turn it off (losing online replacement).
    pub handoff_log: bool,
}

impl NodeArgs {
    /// Renders the child command line (everything after
    /// `--cluster-node`).
    pub fn to_args(&self) -> Vec<String> {
        let mut out = vec![
            "--ring-nodes".into(),
            self.spec.nodes.to_string(),
            "--ring-index".into(),
            self.index.to_string(),
            "--ring-vnodes".into(),
            self.spec.vnodes.to_string(),
            "--ring-seed".into(),
            self.spec.seed.to_string(),
            "--ring-gen".into(),
            self.spec.generation.to_string(),
            "--shards".into(),
            self.shards.to_string(),
            "--max-connections".into(),
            self.max_connections.to_string(),
        ];
        if let Some(h) = self.history_samples {
            out.push("--history-samples".into());
            out.push(h.to_string());
        }
        if self.handoff_log {
            out.push("--handoff-log".into());
        }
        out
    }

    /// Parses a child command line produced by [`NodeArgs::to_args`].
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown flag, a missing value, or
    /// an unparseable number.
    pub fn parse(args: &[String]) -> Result<NodeArgs, String> {
        let mut spec = RingSpec::new(1);
        let mut index = 0usize;
        let mut shards = 2usize;
        let mut max_connections = 1024usize;
        let mut history_samples = None;
        let mut handoff_log = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = |flag: &str| {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            macro_rules! num {
                ($flag:expr, $ty:ty) => {
                    val($flag)?
                        .parse::<$ty>()
                        .map_err(|e| format!("{}: {e}", $flag))?
                };
            }
            match flag.as_str() {
                "--ring-nodes" => spec.nodes = num!("--ring-nodes", usize),
                "--ring-index" => index = num!("--ring-index", usize),
                "--ring-vnodes" => spec.vnodes = num!("--ring-vnodes", usize),
                "--ring-seed" => spec.seed = num!("--ring-seed", u64),
                "--ring-gen" => spec.generation = num!("--ring-gen", u64),
                "--shards" => shards = num!("--shards", usize),
                "--max-connections" => max_connections = num!("--max-connections", usize),
                "--history-samples" => {
                    history_samples = Some(num!("--history-samples", usize));
                }
                "--handoff-log" => handoff_log = true,
                other => return Err(format!("unknown node flag {other}")),
            }
        }
        if index >= spec.nodes {
            return Err(format!(
                "--ring-index {index} out of range for {} nodes",
                spec.nodes
            ));
        }
        Ok(NodeArgs {
            spec,
            index,
            shards,
            max_connections,
            history_samples,
            handoff_log,
        })
    }

    /// The [`ServeConfig`] this member runs: ownership from the ring,
    /// generation into the epoch, ephemeral local port.
    pub fn serve_config(&self) -> ServeConfig {
        let ring = self.spec.build();
        // The factory lets a `RINGSET` push rebuild ownership for a new
        // geometry online: this member's identity is its ring index, so
        // any pushed (nodes, vnodes, seed) resolves to the index's slots
        // — or to no slot at all once the ring shrinks past it.
        let index = self.index;
        let factory = OwnershipFactory::new(move |nodes, vnodes, seed| {
            if index >= nodes {
                return None;
            }
            let spec = RingSpec {
                nodes,
                vnodes,
                seed,
                generation: 0,
            };
            Some(spec.build().ownership_for(index))
        });
        let mut cfg = ServeConfig::default()
            .with_addr("127.0.0.1:0")
            .with_shards(self.shards)
            .with_max_connections(self.max_connections)
            .with_ownership(ring.ownership_for(self.index))
            .with_ring_generation(self.spec.generation)
            .with_ring_info(RingInfo {
                nodes: self.spec.nodes,
                vnodes: self.spec.vnodes,
                seed: self.spec.seed,
            })
            .with_ownership_factory(factory)
            .with_handoff_log(self.handoff_log);
        if let Some(h) = self.history_samples {
            cfg.sim.max_num_samples = h.max(1);
            cfg.sim.min_num_samples = cfg.sim.min_num_samples.min(cfg.sim.max_num_samples);
        }
        cfg
    }
}

/// Runs a member to completion: serve, announce `ADDR`, wait for
/// `SHUTDOWN`, drain. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let parsed = match NodeArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cluster node: {e}");
            return 2;
        }
    };
    let server = match Server::start(parsed.serve_config()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cluster node: start failed: {e}");
            return 1;
        }
    };
    // The parent blocks on this line; flush so it is not buffered away.
    println!("ADDR {}", server.addr());
    let _ = std::io::stdout().flush();
    server.wait();
    let outcome = server.shutdown_outcome();
    if outcome.clean {
        0
    } else {
        eprintln!("cluster node: a frontend thread panicked");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_round_trip() {
        let args = NodeArgs {
            spec: RingSpec {
                nodes: 5,
                vnodes: 32,
                seed: 99,
                generation: 7,
            },
            index: 3,
            shards: 4,
            max_connections: 64,
            history_samples: Some(12),
            handoff_log: true,
        };
        let back = NodeArgs::parse(&args.to_args()).unwrap();
        assert_eq!(back.spec, args.spec);
        assert_eq!(back.index, args.index);
        assert_eq!(back.shards, args.shards);
        assert_eq!(back.max_connections, args.max_connections);
        assert_eq!(back.history_samples, args.history_samples);
        assert_eq!(back.handoff_log, args.handoff_log);
    }

    #[test]
    fn bad_args_are_rejected() {
        let bad = |args: &[&str]| {
            NodeArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(bad(&["--ring-nodes"]).is_err(), "missing value");
        assert!(bad(&["--ring-nodes", "x"]).is_err(), "bad number");
        assert!(bad(&["--wat", "1"]).is_err(), "unknown flag");
        assert!(
            bad(&["--ring-nodes", "2", "--ring-index", "2"]).is_err(),
            "index out of range"
        );
    }

    #[test]
    fn history_override_shrinks_the_window() {
        let args = NodeArgs::parse(
            &[
                "--ring-nodes",
                "2",
                "--ring-index",
                "0",
                "--history-samples",
                "8",
            ]
            .map(String::from),
        )
        .unwrap();
        let cfg = args.serve_config();
        assert_eq!(cfg.sim.max_num_samples, 8);
        assert!(cfg.sim.min_num_samples <= cfg.sim.max_num_samples);
        cfg.validate().unwrap();
    }
}
