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
//! respawned in place, its machine state installed from the survivors'
//! state records (`HANDOFF` dumps each machine's view, `RESTORE`
//! installs it — no sample is replayed), and the bumped ring pushed to
//! every member via `RINGSET` — from where clients auto-adopt it through
//! the `RING` probe (PROTOCOL.md §7.4), no operator calls.

use crate::control::{self, ViewRecord};
use crate::node::NodeArgs;
use crate::{RingSpec, DEFAULT_SEED, DEFAULT_VNODES};
use oc_serve::proto::StatsSnapshot;
use oc_serve::ring::KeyRole;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

/// The most complete state record of each `(cell, machine)` across the
/// members that were asked — the unit of state transfer.
type RecordsByMachine = HashMap<(String, u32), ViewRecord>;

/// Keeps `record` if it is the most complete copy of its machine so far:
/// the one carrying the most samples. Owner and replica ingest the same
/// stream and agree; a copy that missed part of it carries fewer.
fn keep_most_complete(best: &mut RecordsByMachine, record: ViewRecord) {
    let key = (record.cell.clone(), record.machine);
    match best.get(&key) {
        Some(held) if held.samples >= record.samples => {}
        _ => {
            best.insert(key, record);
        }
    }
}

/// `spec`, if [`RingSpec::check`] accepts it; `InvalidInput` otherwise.
fn checked(spec: RingSpec) -> io::Result<RingSpec> {
    spec.check()
        .map(|()| spec)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))
}

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
    /// Has no effect: members keep no sample log, and
    /// [`Cluster::replace`]/[`Cluster::resize`] always move view state.
    /// Kept only so the repository benchmark package, which sets it,
    /// builds unchanged; it goes with that package's next revision.
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

/// What a [`Cluster::replace`] / [`Cluster::resize`] state transfer did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Samples the installed machine states carry — the sum of their
    /// ingested-sample counts: the number of `OBSERVE` lines a replay
    /// would have had to drive to rebuild the same state.
    pub replayed: u64,
    /// State records a target refused: a machine outside its slots
    /// (its ring role is `Remote`), or one it already holds. The
    /// supervisor only sends what the target's slots hold and what it
    /// lacks, so this is an alarm, expected 0: non-zero means the
    /// supervisor's ring and the member disagree, or ingest was not
    /// quiesced around the step.
    pub rejected: u64,
    /// Live members whose state dumps fed the transfer.
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
    /// `InvalidInput` for a ring [`RingSpec::check`] refuses, before
    /// anything is spawned; I/O errors from spawning or from a child that
    /// exits or misprints before announcing `ADDR`. No child outlives an
    /// error: members started before the failure are killed and reaped.
    pub fn start(cfg: &ClusterConfig) -> io::Result<Cluster> {
        let exe = std::env::current_exe()?;
        Cluster::start_with(cfg, exe_spawner(exe))
    }

    /// [`Cluster::start`] with an injected spawner (tests force spawn
    /// and announce failures through it).
    fn start_with(cfg: &ClusterConfig, spawner: Spawner) -> io::Result<Cluster> {
        let spec = checked(RingSpec {
            nodes: cfg.nodes,
            vnodes: cfg.vnodes,
            seed: cfg.seed,
            generation: 0,
        })?;
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
    /// installs its machine state from the survivors' state records,
    /// bumps the ring generation, and pushes the new ring to every
    /// member — from where clients auto-adopt it.
    ///
    /// Placement depends only on `(seed, node, vnode)`, never on the
    /// generation, so a same-slot replacement moves no keys (pinned by
    /// the `ring_props` proptests): the new member serves exactly its
    /// predecessor's ranges. For every key the dead member owned, its
    /// ring replica ingested the full stream; for every key it
    /// replicated, the owner holds it. Each survivor dumps every machine
    /// it holds as one state record (the view's exact state, see
    /// `oc_core::ingest`); per machine the record carrying the most
    /// samples wins, and the records the ring gives the slot a role for
    /// are installed with `RESTORE` — no sample is replayed, so the
    /// step costs the retained windows, not the history.
    ///
    /// A member that is still alive is retired (drained) first. Samples
    /// ingested *between* the dump and the ring push reach only the
    /// survivors: quiesce ingest around `replace` (the survivors still
    /// answer for the window, see OPERATIONS.md).
    ///
    /// # Errors
    ///
    /// Propagates spawn, dump, restore and ring-push failures.
    ///
    /// * A spawn, dump or restore failure leaves the slot dead and the
    ///   old ring in force: the replacement child is killed and the
    ///   generation is not bumped.
    /// * A failed ring push comes after the step took effect: the new
    ///   member holds the slot and serves its state, [`Cluster::spec`]
    ///   reports the bumped generation, and the members before the
    ///   failing one (in ring order) already run it. Once the failing
    ///   member is reachable again — or marked dead with
    ///   [`Cluster::kill`] — [`Cluster::push_ring`] completes the step.
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
    /// dumps stream in, then installs what the slot holds: the machines
    /// whose ring role for the slot (what the new member enforces) is not
    /// `Remote`, one lookup per machine. The member's
    /// check stays on as the safety net behind this filter. The child
    /// never outlives an error.
    fn rebuild_slot(&self, index: usize) -> io::Result<(Member, ReplayReport)> {
        let (records, spawned) = self.collect_views(|| self.spawn_member(index));
        let guard = SpawnGuard {
            members: vec![spawned?],
        };
        let (best, sources) = records?;
        let ring = self.spec.build();
        let slot = best
            .values()
            .filter(|record| ring.role(index, record.key_hash()) != KeyRole::Remote);
        let restored = control::restore(guard.members[0].addr, slot)?;
        let member = guard.disarm().pop().expect("the guarded member");
        Ok((
            member,
            ReplayReport {
                replayed: restored.samples,
                rejected: restored.rejected,
                sources,
            },
        ))
    }

    /// Grows or shrinks the ring to `new_nodes` members: spawns or
    /// retires the tail slots, bumps the generation, pushes the new
    /// geometry to every member (each rebuilds its ring for its own
    /// index and drops the machines it no longer holds), and moves
    /// **only the changed ranges** — each machine whose owner/replica set
    /// changed has its most complete state record installed on every new
    /// holder that did not hold it before.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a ring [`RingSpec::check`] refuses (no
    /// members, or too many points); otherwise propagates spawn, retire,
    /// dump, restore, and push failures.
    pub fn resize(&mut self, new_nodes: usize) -> io::Result<ReplayReport> {
        let old_nodes = self.members.len();
        if new_nodes == old_nodes {
            return Ok(ReplayReport::default());
        }
        let new_spec = checked(RingSpec {
            nodes: new_nodes,
            generation: self.spec.generation + 1,
            ..self.spec
        })?;
        let (old_ring, new_ring) = (self.spec.build(), new_spec.build());
        let (best, sources) = self.collect_views(|| ()).0?;
        self.spec = new_spec;
        if new_nodes > old_nodes {
            for index in old_nodes..new_nodes {
                let member = self.spawn_member(index)?;
                self.members.push(member);
            }
        } else {
            // The dumps were taken above, while the retiring members
            // still served; drain them before the ring shrinks.
            for index in new_nodes..old_nodes {
                self.retire(index)?;
            }
            self.members.truncate(new_nodes);
        }
        self.push_ring()?;
        // A machine moves to each new holder that was not an old one;
        // grouped per target, one restore connection per new holder.
        let mut per_target: HashMap<usize, Vec<&ViewRecord>> = HashMap::new();
        for record in best.values() {
            let hash = record.key_hash();
            let (old_owner, old_replica) = old_ring.holders(hash);
            let (new_owner, new_replica) = new_ring.holders(hash);
            for target in [new_owner, new_replica].into_iter().flatten() {
                if Some(target) != old_owner && Some(target) != old_replica {
                    per_target.entry(target).or_default().push(record);
                }
            }
        }
        let mut report = ReplayReport {
            sources,
            ..ReplayReport::default()
        };
        for (target, records) in per_target {
            if !self.members[target].alive {
                continue;
            }
            let restored = control::restore(self.members[target].addr, records)?;
            report.replayed += restored.samples;
            report.rejected += restored.rejected;
        }
        Ok(report)
    }

    /// Collects every live member's state dump, keeping per machine the
    /// record that carries the most samples (the complete copy lives on
    /// the machine's owner and its replica; a copy with fewer samples
    /// missed part of the stream). The dumps are fetched concurrently,
    /// one thread per member, while `meanwhile` runs on the calling
    /// thread; its result is returned beside the records.
    fn collect_views<T>(
        &self,
        meanwhile: impl FnOnce() -> T,
    ) -> (io::Result<(RecordsByMachine, usize)>, T) {
        std::thread::scope(|scope| {
            let fetches: Vec<_> = self
                .members
                .iter()
                .filter(|m| m.alive)
                .map(|m| {
                    let addr = m.addr;
                    scope.spawn(move || control::handoff(addr))
                })
                .collect();
            let side = meanwhile();
            let sources = fetches.len();
            // (The scope joins whatever a first failure leaves unjoined.)
            let records = (|| {
                let mut best = RecordsByMachine::new();
                for fetch in fetches {
                    for record in fetch.join().expect("state dump thread panicked")? {
                        keep_most_complete(&mut best, record);
                    }
                }
                Ok((best, sources))
            })();
            (records, side)
        })
    }

    /// The live members' addresses, in ring-index order.
    fn live_addrs(&self) -> Vec<SocketAddr> {
        self.members
            .iter()
            .filter(|m| m.alive)
            .map(|m| m.addr)
            .collect()
    }

    /// Cluster-wide `STATS`: every live member's snapshot folded through
    /// [`StatsSnapshot::merge`].
    ///
    /// # Errors
    ///
    /// Fails if any live member cannot be reached — partial aggregates
    /// would silently under-report.
    pub fn merged_stats(&self) -> io::Result<StatsSnapshot> {
        control::merged_stats(&self.live_addrs())
    }

    /// Cluster-wide `METRICS`: every live member's exposition merged via
    /// `oc_telemetry::metrics::merge_expositions`.
    ///
    /// # Errors
    ///
    /// Fails if a member is unreachable or answers an invalid
    /// exposition.
    pub fn merged_metrics(&self) -> io::Result<String> {
        control::merged_metrics(&self.live_addrs())
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

    /// Per machine the record carrying the most samples wins, whichever
    /// member's dump it came from and in whatever order the dumps land.
    #[test]
    fn the_most_complete_record_of_each_machine_wins() {
        let record = |machine: u32, samples: u64| ViewRecord {
            cell: "c".to_string(),
            machine,
            samples,
            lines: 1,
            text: format!("VIEW c {machine} {samples} 1\n"),
        };
        for dumps in [[(1, 45), (1, 15), (2, 30)], [(1, 15), (2, 30), (1, 45)]] {
            let mut best = RecordsByMachine::new();
            for (machine, samples) in dumps {
                keep_most_complete(&mut best, record(machine, samples));
            }
            assert_eq!(best.len(), 2);
            assert_eq!(best[&("c".to_string(), 1)], record(1, 45));
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

    /// A ring with no vnodes is refused before any member is spawned
    /// (each would panic building it and garble its `ADDR` announce).
    #[test]
    fn zero_vnodes_is_refused_before_any_spawn() {
        let cfg = ClusterConfig {
            vnodes: 0,
            ..ClusterConfig::default()
        };
        let pids = Arc::new(Mutex::new(Vec::new()));
        let err = Cluster::start_with(
            &cfg,
            fake_member_spawner(usize::MAX, "ADDR 127.0.0.1:1", Arc::clone(&pids)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(pids.lock().expect("pid list lock").is_empty());
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
