//! The process supervisor: spawns N member processes, tracks liveness,
//! kills, retires, or **replaces** members, rebalances the ring when it
//! grows or shrinks, and aggregates member `STATS`/`METRICS`.
//!
//! Members are children of the current executable re-invoked with
//! `--cluster-node` (see [`crate::run_child_if_node`]). Retirement goes
//! through the member's `SHUTDOWN` verb, i.e. the existing
//! drain-then-snapshot path: every queued sample is applied before the
//! process exits, so an acknowledged sample is never dropped by a
//! handoff — the ring successor (which mirrored the ingest stream)
//! serves the migrated range under a bumped ring generation.
//!
//! [`Cluster::replace`] closes the loop: a dead or retired slot is
//! respawned in place, its machine state rebuilt by replaying the
//! survivors' `HANDOFF` logs over the wire, and the bumped ring pushed
//! to every member via `RINGSET` — from where clients auto-adopt it
//! through the `RING` probe (PROTOCOL.md §7.4), no operator calls.

use crate::control;
use crate::node::NodeArgs;
use crate::ring::{RingSpec, DEFAULT_SEED, DEFAULT_VNODES};
use oc_serve::config::KeyRole;
use oc_serve::proto::StatsSnapshot;
use oc_telemetry::metrics::merge_expositions;
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Handoff-log lines keyed by `(cell, machine)` — the unit of replay.
type LogsByMachine = HashMap<(String, u32), Vec<String>>;

/// How a [`Cluster`] is shaped.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Member process count.
    pub nodes: usize,
    /// Virtual nodes per member.
    pub vnodes: usize,
    /// Ring placement seed.
    pub seed: u64,
    /// Shards per member.
    pub shards: usize,
    /// Connection cap per member.
    pub max_connections: usize,
    /// Per-task history window override (`sim.max_num_samples`) for
    /// fleet-scale memory bounding; `None` keeps the paper default.
    pub history_samples: Option<usize>,
    /// Whether members keep the handoff sample log that
    /// [`Cluster::replace`]/[`Cluster::resize`] rebuild state from. On
    /// by default; fleet-scale memory diets turn it off (replacement
    /// then has nothing to replay).
    pub handoff_log: bool,
}

impl Default for ClusterConfig {
    /// Three members, two shards each, paper-default windows.
    fn default() -> ClusterConfig {
        ClusterConfig {
            nodes: 3,
            vnodes: DEFAULT_VNODES,
            seed: DEFAULT_SEED,
            shards: 2,
            max_connections: 1024,
            history_samples: None,
            handoff_log: true,
        }
    }
}

/// One member process.
#[derive(Debug)]
struct Member {
    child: Child,
    addr: SocketAddr,
    alive: bool,
    /// Kept open so a late child write cannot die on `SIGPIPE`.
    _stdout: Option<BufReader<ChildStdout>>,
}

/// Spawns one member child process for the given node arguments.
/// Injectable so tests can force spawn failures without real members.
type Spawner = Box<dyn Fn(&NodeArgs) -> io::Result<Child> + Send>;

/// The production spawner: the current executable re-invoked with
/// `--cluster-node`.
fn exe_spawner(exe: std::path::PathBuf) -> Spawner {
    Box::new(move |node| {
        Command::new(&exe)
            .arg("--cluster-node")
            .args(node.to_args())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    })
}

/// Kills and reaps every already-started member when dropped — the
/// spawn guard that keeps [`Cluster::start`] error paths (and panics)
/// from leaking child processes. `disarm` hands the members over once
/// every spawn has succeeded.
struct SpawnGuard {
    members: Vec<Member>,
}

impl SpawnGuard {
    fn disarm(mut self) -> Vec<Member> {
        std::mem::take(&mut self.members)
    }
}

impl Drop for SpawnGuard {
    fn drop(&mut self) {
        for m in &mut self.members {
            let _ = m.child.kill();
            let _ = m.child.wait();
        }
    }
}

/// What a [`Cluster::replace`] / [`Cluster::resize`] state rebuild did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// `OBSERVE` lines replayed and acknowledged by rebuilt members.
    pub replayed: u64,
    /// Lines a target refused (`ERR not-mine`: keys outside its
    /// slots). The supervisor only drives what the target's slots hold,
    /// so this is an alarm, expected 0: non-zero means the supervisor's
    /// ring and the member's ownership map disagree.
    pub rejected: u64,
    /// Live members whose handoff logs fed the rebuild.
    pub sources: usize,
}

/// A running multi-process cluster.
pub struct Cluster {
    spec: RingSpec,
    cfg: ClusterConfig,
    spawner: Spawner,
    members: Vec<Member>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("spec", &self.spec)
            .field("members", &self.members)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Spawns `cfg.nodes` member processes (children of the current
    /// executable) and waits for each to announce its address.
    ///
    /// # Errors
    ///
    /// I/O errors from spawning or from a child that exits or misprints
    /// before announcing `ADDR`. No child outlives an error: members
    /// started before the failure are killed and reaped.
    pub fn start(cfg: &ClusterConfig) -> io::Result<Cluster> {
        let exe = std::env::current_exe()?;
        Cluster::start_with(cfg, exe_spawner(exe))
    }

    /// [`Cluster::start`] with an injected spawner (tests force spawn
    /// and announce failures through it).
    fn start_with(cfg: &ClusterConfig, spawner: Spawner) -> io::Result<Cluster> {
        let spec = RingSpec {
            nodes: cfg.nodes,
            vnodes: cfg.vnodes,
            seed: cfg.seed,
            generation: 0,
        };
        let mut cluster = Cluster {
            spec,
            cfg: cfg.clone(),
            spawner,
            members: Vec::new(),
        };
        let mut guard = SpawnGuard {
            members: Vec::with_capacity(cfg.nodes),
        };
        for index in 0..cfg.nodes {
            // An early return here (spawn or announce failure) drops the
            // guard, which kills and reaps members 0..index.
            guard.members.push(cluster.spawn_member(index)?);
        }
        cluster.members = guard.disarm();
        // From here the Cluster owns the members: an error below drops
        // it, and `Drop` kills whatever is still alive.
        cluster.push_ring()?;
        Ok(cluster)
    }

    /// The [`NodeArgs`] for ring slot `index` under the current spec.
    fn node_args(&self, index: usize) -> NodeArgs {
        NodeArgs {
            spec: self.spec,
            index,
            shards: self.cfg.shards,
            max_connections: self.cfg.max_connections,
            history_samples: self.cfg.history_samples,
            handoff_log: self.cfg.handoff_log,
        }
    }

    /// Spawns one member child for ring slot `index` and waits for its
    /// `ADDR` announcement. The child never outlives an error: any
    /// failure after a successful spawn kills and reaps it first.
    fn spawn_member(&self, index: usize) -> io::Result<Member> {
        let node = self.node_args(index);
        let mut child = (self.spawner)(&node)?;
        let announce = (|| {
            let stdout = child.stdout.take().ok_or_else(|| {
                io::Error::new(io::ErrorKind::BrokenPipe, "member stdout was not piped")
            })?;
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let addr: SocketAddr = line
                .trim_end()
                .strip_prefix("ADDR ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("member {index} announced {line:?}, expected 'ADDR <ip:port>'"),
                    )
                })?;
            Ok((addr, reader))
        })();
        match announce {
            Ok((addr, reader)) => Ok(Member {
                child,
                addr,
                alive: true,
                _stdout: Some(reader),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The shared ring description (generation included — it bumps on
    /// every [`Cluster::replace`]/[`Cluster::resize`]).
    pub fn spec(&self) -> RingSpec {
        self.spec
    }

    /// Every member's address, by ring index (including dead members —
    /// pair with [`Cluster::alive`]).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.members.iter().map(|m| m.addr).collect()
    }

    /// Liveness mask by ring index.
    pub fn alive(&self) -> Vec<bool> {
        self.members.iter().map(|m| m.alive).collect()
    }

    /// Live member count.
    pub fn live_count(&self) -> usize {
        self.members.iter().filter(|m| m.alive).count()
    }

    /// Pushes the current spec and address list to every live member
    /// (`RINGSET`), so any of them can answer `RING` — the seed of the
    /// client auto-adopt handshake.
    ///
    /// # Errors
    ///
    /// Propagates the first member that rejects or cannot be reached.
    pub fn push_ring(&self) -> io::Result<()> {
        let addrs: Vec<String> = self.members.iter().map(|m| m.addr.to_string()).collect();
        for m in self.members.iter().filter(|m| m.alive) {
            control::ring_set(m.addr, &self.spec, &addrs)?;
        }
        Ok(())
    }

    /// SIGKILLs member `index` — the chaos primitive. No drain, no
    /// goodbye: every sample not yet applied by its shards dies with it,
    /// which is exactly what replicated ingest must absorb.
    ///
    /// # Errors
    ///
    /// Propagates the kill/wait failure.
    pub fn kill(&mut self, index: usize) -> io::Result<()> {
        let m = &mut self.members[index];
        if !m.alive {
            return Ok(());
        }
        m.child.kill()?; // SIGKILL on Unix.
        let _ = m.child.wait()?;
        m.alive = false;
        Ok(())
    }

    /// Gracefully retires member `index` through its `SHUTDOWN` verb —
    /// the drain-then-snapshot handoff: all acknowledged samples are
    /// applied before exit, and the survivors serve the migrated range
    /// (they mirrored its ingest as replicas). Callers should follow
    /// with [`Cluster::replace`] or hand clients a bumped spec.
    ///
    /// # Errors
    ///
    /// Propagates the control exchange or the child wait failure.
    pub fn retire(&mut self, index: usize) -> io::Result<()> {
        let m = &mut self.members[index];
        if !m.alive {
            return Ok(());
        }
        control::shutdown(m.addr)?;
        let _ = m.child.wait()?;
        m.alive = false;
        Ok(())
    }

    /// Respawns a dead or retired member into the same ring slot,
    /// rebuilds its machine state by replaying the survivors' handoff
    /// logs over the wire, bumps the ring generation, and pushes the
    /// new ring to every member — from where clients auto-adopt it.
    ///
    /// Placement depends only on `(seed, node, vnode)`, never on the
    /// generation, so a same-slot replacement moves no keys (pinned by
    /// the `ring_props` proptests): the rebuilt member serves exactly
    /// its predecessor's ranges. For every key the dead member owned,
    /// its ring replica mirrored the full ingest stream; for every key
    /// it replicated, the owner holds it — so across the survivors the
    /// longest per-machine log is the complete one, and replaying it
    /// reproduces bit-identical predictions (replay order per machine
    /// is arrival order; predictions are a pure function of ingested
    /// state).
    ///
    /// A member that is still alive is retired (drained) first. Samples
    /// ingested *between* the kill and the replace live only on the
    /// failover survivors; quiesce ingest around `replace` (or accept
    /// that the rebuilt member serves only what the logs held — the
    /// survivors still answer for the window, see OPERATIONS.md).
    ///
    /// # Errors
    ///
    /// Propagates spawn, handoff-collection, replay, and ring-push
    /// failures. On error the slot stays dead and the old ring remains
    /// in force.
    pub fn replace(&mut self, index: usize) -> io::Result<ReplayReport> {
        assert!(index < self.members.len(), "slot beyond ring membership");
        if self.members[index].alive {
            self.retire(index)?;
        }
        self.spec.generation += 1;
        let (member, report) = match self.rebuild_slot(index) {
            Ok(rebuilt) => rebuilt,
            Err(e) => {
                // The slot stays dead; undo the bump so a retry does not
                // skip generations.
                self.spec.generation -= 1;
                return Err(e);
            }
        };
        self.members[index] = member;
        self.push_ring()?;
        Ok(report)
    }

    /// Spawns the replacement for slot `index` while the survivors'
    /// logs stream in, then replays what the slot holds into it: the
    /// machines the slot's own ownership map (the one the new member
    /// enforces) does not call `Remote`, one lookup per machine. The
    /// member's check stays on as the safety net behind this filter.
    /// The child never outlives an error.
    fn rebuild_slot(&self, index: usize) -> io::Result<(Member, ReplayReport)> {
        let (logs, spawned) = self.collect_logs(|| self.spawn_member(index));
        let guard = SpawnGuard {
            members: vec![spawned?],
        };
        let (per_machine, sources) = logs?;
        let ownership = self.spec.build().ownership_for(index);
        // Per-machine line order is arrival order; machines interleave
        // arbitrarily, which ingestion does not care about.
        let lines: Vec<String> = per_machine
            .into_iter()
            .filter(|((cell, machine), _)| {
                ownership.role_of(control::machine_hash(cell, *machine)) != KeyRole::Remote
            })
            .flat_map(|(_, lines)| lines)
            .collect();
        let (replayed, rejected) = control::drive_lines(guard.members[0].addr, &lines)?;
        let member = guard.disarm().pop().expect("the guarded member");
        Ok((
            member,
            ReplayReport {
                replayed,
                rejected,
                sources,
            },
        ))
    }

    /// Grows or shrinks the ring to `new_nodes` members: spawns or
    /// retires the tail slots, bumps the generation, pushes the new
    /// geometry to every member (each rebuilds its ownership through
    /// its factory), and replays **only the moved ranges** — machines
    /// whose owner/replica set changed get their logs driven to each
    /// new holder that did not hold them before.
    ///
    /// # Errors
    ///
    /// Propagates spawn, retire, handoff, replay, and push failures.
    pub fn resize(&mut self, new_nodes: usize) -> io::Result<ReplayReport> {
        assert!(new_nodes >= 1, "ring needs at least one member");
        let old_nodes = self.members.len();
        if new_nodes == old_nodes {
            return Ok(ReplayReport::default());
        }
        let old_ring = self.spec.build();
        let (per_machine, sources) = self.collect_logs(|| ()).0?;
        let mut new_spec = self.spec;
        new_spec.nodes = new_nodes;
        new_spec.generation += 1;
        let new_ring = new_spec.build();
        self.spec = new_spec;
        if new_nodes > old_nodes {
            for index in old_nodes..new_nodes {
                let member = self.spawn_member(index)?;
                self.members.push(member);
            }
        } else {
            // Logs were collected above, while the retiring members
            // still served; drain them before the ring shrinks.
            for index in new_nodes..old_nodes {
                self.retire(index)?;
            }
            self.members.truncate(new_nodes);
        }
        self.push_ring()?;
        // Replay machines whose holder set changed, grouped per target
        // so each rebuilt member gets one replay connection.
        let old_alive = vec![true; old_nodes];
        let new_alive = vec![true; new_nodes];
        let mut per_target: HashMap<usize, Vec<String>> = HashMap::new();
        for ((cell, machine), lines) in per_machine {
            let hash = control::machine_hash(&cell, machine);
            let (old_owner, old_replica) = old_ring.routes(hash, &old_alive);
            let old_holders: HashSet<usize> =
                [old_owner, old_replica].into_iter().flatten().collect();
            let (new_owner, new_replica) = new_ring.routes(hash, &new_alive);
            for target in [new_owner, new_replica].into_iter().flatten() {
                if old_holders.contains(&target) {
                    continue; // already holds the stream: range did not move
                }
                per_target
                    .entry(target)
                    .or_default()
                    .extend_from_slice(&lines);
            }
        }
        let mut report = ReplayReport {
            sources,
            ..ReplayReport::default()
        };
        for (target, lines) in per_target {
            if !self.members[target].alive {
                continue;
            }
            let (ok, rejected) = control::drive_lines(self.members[target].addr, &lines)?;
            report.replayed += ok;
            report.rejected += rejected;
        }
        Ok(report)
    }

    /// Collects every live member's handoff log, deduplicated to the
    /// longest per-machine copy (the complete stream lives on the
    /// machine's owner and its replica; a shorter copy is a partial
    /// failover view). The dumps are fetched and grouped concurrently,
    /// one thread per member, while `meanwhile` runs on the calling
    /// thread; its result is returned beside the logs.
    fn collect_logs<T>(
        &self,
        meanwhile: impl FnOnce() -> T,
    ) -> (io::Result<(LogsByMachine, usize)>, T) {
        std::thread::scope(|scope| {
            let fetches: Vec<_> = self
                .members
                .iter()
                .filter(|m| m.alive)
                .map(|m| {
                    let addr = m.addr;
                    scope.spawn(move || -> io::Result<LogsByMachine> {
                        let mut local: LogsByMachine = HashMap::new();
                        for entry in control::handoff(addr)? {
                            local
                                .entry((entry.cell, entry.machine))
                                .or_default()
                                .push(entry.line);
                        }
                        Ok(local)
                    })
                })
                .collect();
            let side = meanwhile();
            let sources = fetches.len();
            // (The scope joins whatever a first failure leaves unjoined.)
            let logs = (|| {
                let mut per_machine: LogsByMachine = HashMap::new();
                for fetch in fetches {
                    let local = fetch.join().expect("handoff fetch thread panicked")?;
                    for (key, lines) in local {
                        match per_machine.get(&key) {
                            Some(best) if best.len() >= lines.len() => {}
                            _ => {
                                per_machine.insert(key, lines);
                            }
                        }
                    }
                }
                Ok((per_machine, sources))
            })();
            (logs, side)
        })
    }

    /// Cluster-wide `STATS`: every live member's snapshot folded through
    /// [`StatsSnapshot::merge`].
    ///
    /// # Errors
    ///
    /// Fails if any live member cannot be reached — partial aggregates
    /// would silently under-report.
    pub fn merged_stats(&self) -> io::Result<StatsSnapshot> {
        let mut merged = StatsSnapshot::default();
        for m in self.members.iter().filter(|m| m.alive) {
            merged.merge(&control::stats(m.addr)?);
        }
        Ok(merged)
    }

    /// Cluster-wide `METRICS`: every live member's exposition merged via
    /// [`merge_expositions`].
    ///
    /// # Errors
    ///
    /// Fails if a member is unreachable or answers an invalid
    /// exposition.
    pub fn merged_metrics(&self) -> io::Result<String> {
        let mut lines = Vec::new();
        for m in self.members.iter().filter(|m| m.alive) {
            lines.push(control::metrics_exposition(m.addr)?);
        }
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        merge_expositions(&refs).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "member exposition failed to parse",
            )
        })
    }

    /// Retires every live member and returns the merged final snapshot
    /// (fetched just before each member drains).
    ///
    /// # Errors
    ///
    /// Propagates the first member that cannot be stopped.
    pub fn shutdown(mut self) -> io::Result<StatsSnapshot> {
        let mut merged = StatsSnapshot::default();
        for index in 0..self.members.len() {
            if !self.members[index].alive {
                continue;
            }
            merged.merge(&control::stats(self.members[index].addr)?);
            self.retire(index)?;
        }
        Ok(merged)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for m in &mut self.members {
            if m.alive {
                let _ = m.child.kill();
                let _ = m.child.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn fake_member_spawner(
        fail_at: usize,
        announce: &'static str,
        pids: Arc<Mutex<Vec<u32>>>,
    ) -> Spawner {
        Box::new(move |node: &NodeArgs| {
            if node.index == fail_at {
                return Err(io::Error::other("forced spawn failure"));
            }
            // A stand-in member: announces like a node, then lingers the
            // way a real child would.
            let child = Command::new("/bin/sh")
                .args(["-c", &format!("echo {announce}; exec sleep 1000")])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()?;
            pids.lock().expect("pid list lock").push(child.id());
            Ok(child)
        })
    }

    fn assert_all_reaped(pids: &[u32]) {
        for pid in pids {
            assert!(
                !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                "member pid {pid} left running after start failure"
            );
        }
    }

    /// The spawn-guard fix: a forced mid-start spawn failure must kill
    /// and reap the members that already started — no leaked children.
    #[cfg(target_os = "linux")]
    #[test]
    fn start_failure_leaves_no_live_children() {
        let cfg = ClusterConfig {
            nodes: 3,
            ..ClusterConfig::default()
        };
        let pids = Arc::new(Mutex::new(Vec::new()));
        let err = Cluster::start_with(
            &cfg,
            fake_member_spawner(2, "ADDR 127.0.0.1:1", Arc::clone(&pids)),
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "forced spawn failure");
        let pids = pids.lock().expect("pid list lock");
        assert_eq!(pids.len(), 2, "two members spawned before the failure");
        assert_all_reaped(&pids);
    }

    /// The announce-path fix: a child that misprints its `ADDR` line is
    /// killed before `start` returns the parse error (the old code's
    /// `?` on `read_line` skipped the kill).
    #[cfg(target_os = "linux")]
    #[test]
    fn bad_announce_kills_the_child() {
        let cfg = ClusterConfig {
            nodes: 1,
            ..ClusterConfig::default()
        };
        let pids = Arc::new(Mutex::new(Vec::new()));
        let err = Cluster::start_with(
            &cfg,
            fake_member_spawner(usize::MAX, "BOGUS", Arc::clone(&pids)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let pids = pids.lock().expect("pid list lock");
        assert_eq!(pids.len(), 1);
        assert_all_reaped(&pids);
    }
}
