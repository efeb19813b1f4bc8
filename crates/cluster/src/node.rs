//! The member-process entry point.
//!
//! A cluster member is an ordinary `oc-serve` [`Server`] whose
//! [`ServeConfig::ring`] is the shared [`RingSpec`] and the member's own
//! ring index: the server enforces the ring, stamps its generation into
//! the `epoch`, and rebuilds it from any `RINGSET` push. The
//! supervisor spawns members as child processes of the *current
//! executable* re-invoked with `--cluster-node` — any binary that calls
//! [`crate::run_child_if_node`] first thing in `main` can host members,
//! so `oc-clusterd`, the examples, the benchmark and the `rebuild` test
//! binary all reuse one launcher.
//!
//! The child announces `ADDR <ip:port>` on stdout once it is serving
//! (the parent blocks on that line), then waits for a `SHUTDOWN` verb
//! and exits through the drain-then-snapshot path.

use crate::RingSpec;
use oc_serve::config::ServeConfig;
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
}

impl NodeArgs {
    /// Renders the child command line (everything after
    /// `--cluster-node`).
    pub fn to_args(&self) -> Vec<String> {
        vec![
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
        ]
    }

    /// Parses a child command line produced by [`NodeArgs::to_args`].
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown flag, a missing value, an
    /// unparseable number, or a [`ServeConfig`] that does not validate —
    /// a ring [`RingSpec::check`] refuses or an index outside the ring
    /// among them.
    pub fn parse(args: &[String]) -> Result<NodeArgs, String> {
        let mut spec = RingSpec::new(1);
        let mut index = 0usize;
        let mut shards = 2usize;
        let mut max_connections = 1024usize;
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
                other => return Err(format!("unknown node flag {other}")),
            }
        }
        let parsed = NodeArgs {
            spec,
            index,
            shards,
            max_connections,
        };
        parsed
            .serve_config()
            .validate()
            .map_err(|e| e.to_string())?;
        Ok(parsed)
    }

    /// The [`ServeConfig`] this member runs: its ring slot, ephemeral
    /// local port.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_addr("127.0.0.1:0")
            .with_shards(self.shards)
            .with_max_connections(self.max_connections)
            .with_ring(self.spec, self.index)
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
        };
        let back = NodeArgs::parse(&args.to_args()).unwrap();
        assert_eq!(back.spec, args.spec);
        assert_eq!(back.index, args.index);
        assert_eq!(back.shards, args.shards);
        assert_eq!(back.max_connections, args.max_connections);
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
        assert!(bad(&["--ring-vnodes", "0"]).is_err(), "no vnodes");
    }
}
