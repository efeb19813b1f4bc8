//! Seeded consistent-hash ring with virtual nodes.
//!
//! Machine keys are placed on a `u64` ring by their stable
//! [`crate::shard::key_hash`]; each process contributes `vnodes`
//! points hashed from `(seed, node, vnode)`. A key's **owner** is the
//! first live node clockwise from the key's hash, and its **replica**
//! is the next *distinct* live node after the owner — which is exactly
//! the node that becomes owner if the current owner is removed. That
//! successor identity is the basis of failover correctness: a replica
//! that mirrored the owner's ingest stream already holds the state the
//! new ring expects it to serve.
//!
//! Everything is deterministic and std-only: `DefaultHasher::new()`
//! uses fixed keys, so every process (and every client) that shares a
//! [`RingSpec`] computes bit-identical placement — there is no ring
//! gossip, only the spec and a generation number. A cluster member is a
//! spec and its own ring index ([`crate::config::ServeConfig::ring`]);
//! [`HashRing::role`] is the whole of what it enforces.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Default virtual nodes per process. 64 points per node keeps the
/// expected ownership imbalance of a small ring under ~15%.
pub const DEFAULT_VNODES: usize = 64;

/// Default placement seed.
pub const DEFAULT_SEED: u64 = 17;

/// Most points (`nodes × vnodes`) a valid ring may have: 1,024 members
/// at [`DEFAULT_VNODES`]. Bounds what a spec read off the wire or a
/// command line can make a process allocate.
pub const MAX_RING_POINTS: usize = 1 << 16;

/// How a machine key relates to one ring member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRole {
    /// This process is the key's primary owner: all verbs accepted.
    Owner,
    /// This process is the key's ring successor: it accepts the mirrored
    /// ingest stream (`OBSERVE`) and serves reads (`PREDICT`/`ADMIT`)
    /// so clients can fail over when the owner dies. Clients should
    /// prefer the owner while it is alive.
    Replica,
    /// Some other process owns the key: every data-plane verb is
    /// answered `ERR not-mine` so a stale client re-resolves the ring.
    Remote,
}

/// The shared description of a ring: everything a process or client
/// needs to compute identical placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSpec {
    /// Number of member processes (ring indices `0..nodes`).
    pub nodes: usize,
    /// Virtual nodes per process.
    pub vnodes: usize,
    /// Placement seed, folded into every point hash.
    pub seed: u64,
    /// Ring generation: bumped whenever membership changes (a retired
    /// or replaced node), stamped into each server's `epoch` so clients
    /// can detect a re-ring (see [`crate::proto::pack_epoch`]).
    pub generation: u64,
}

impl RingSpec {
    /// A spec with default vnodes/seed at generation 0.
    pub fn new(nodes: usize) -> RingSpec {
        RingSpec {
            nodes,
            vnodes: DEFAULT_VNODES,
            seed: DEFAULT_SEED,
            generation: 0,
        }
    }

    /// Checks that the spec describes a ring that can be built: at least
    /// one node, at least one vnode per node, and at most
    /// [`MAX_RING_POINTS`] points.
    ///
    /// # Errors
    ///
    /// A human-readable reason the spec is refused.
    pub fn check(&self) -> Result<(), String> {
        if self.nodes == 0 || self.vnodes == 0 {
            return Err("a ring needs nodes >= 1 and vnodes >= 1".to_string());
        }
        match self.nodes.checked_mul(self.vnodes) {
            Some(points) if points <= MAX_RING_POINTS => Ok(()),
            _ => Err(format!(
                "a ring of {} nodes x {} vnodes exceeds {MAX_RING_POINTS} points",
                self.nodes, self.vnodes
            )),
        }
    }

    /// Builds the ring this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if [`RingSpec::check`] refuses the spec — an empty or
    /// oversized ring is a config error, not a runtime state.
    pub fn build(&self) -> HashRing {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let mut points = Vec::with_capacity(self.nodes * self.vnodes);
        for node in 0..self.nodes {
            for vnode in 0..self.vnodes {
                points.push((point_hash(self.seed, node, vnode), node as u32));
            }
        }
        points.sort_unstable();
        HashRing {
            spec: *self,
            points,
        }
    }
}

/// A built ring: sorted vnode points over the member processes.
#[derive(Debug, Clone)]
pub struct HashRing {
    spec: RingSpec,
    /// `(point, node)` sorted by point; ties broken by node index so the
    /// sort is total and placement is deterministic.
    points: Vec<(u64, u32)>,
}

/// The hash of one virtual node: `(seed, node, vnode)` through the
/// deterministic `DefaultHasher`.
fn point_hash(seed: u64, node: usize, vnode: usize) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    (node as u64).hash(&mut h);
    (vnode as u64).hash(&mut h);
    h.finish()
}

impl HashRing {
    /// The spec this ring was built from.
    pub fn spec(&self) -> &RingSpec {
        &self.spec
    }

    /// Index into `points` of the first vnode clockwise from `hash`.
    fn first_point(&self, hash: u64) -> usize {
        match self.points.binary_search(&(hash, 0)) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        }
    }

    /// The live owner of a key hash: the first point clockwise whose
    /// node is marked alive. `None` if no node is alive.
    pub fn owner(&self, hash: u64, alive: &[bool]) -> Option<usize> {
        debug_assert_eq!(alive.len(), self.spec.nodes);
        let start = self.first_point(hash);
        for i in 0..self.points.len() {
            let node = self.points[(start + i) % self.points.len()].1 as usize;
            if alive[node] {
                return Some(node);
            }
        }
        None
    }

    /// The owner and the replica (the next distinct live node after the
    /// owner — the takeover target if the owner dies). The replica is
    /// `None` when fewer than two nodes are alive.
    pub fn routes(&self, hash: u64, alive: &[bool]) -> (Option<usize>, Option<usize>) {
        debug_assert_eq!(alive.len(), self.spec.nodes);
        self.routes_where(hash, |node| alive[node])
    }

    /// [`HashRing::routes`] over the nodes `live` accepts.
    fn routes_where(
        &self,
        hash: u64,
        live: impl Fn(usize) -> bool,
    ) -> (Option<usize>, Option<usize>) {
        let start = self.first_point(hash);
        let mut owner = None;
        for i in 0..self.points.len() {
            let node = self.points[(start + i) % self.points.len()].1 as usize;
            if !live(node) {
                continue;
            }
            match owner {
                None => owner = Some(node),
                Some(o) if node != o => return (owner, Some(node)),
                Some(_) => {}
            }
        }
        (owner, None)
    }

    /// Where a client mirrors an acknowledged sample of this key: the
    /// live replica, but only if it was owner or replica under the
    /// all-alive ring — members enforce all-alive ownership
    /// ([`HashRing::role`]), anything else would bounce with
    /// `ERR not-mine` — and never the live owner itself.
    pub fn mirror_target(&self, hash: u64, alive: &[bool]) -> Option<usize> {
        let (o_all, r_all) = self.holders(hash);
        let (owner, replica) = self.routes(hash, alive);
        replica
            .filter(|r| Some(*r) == o_all || Some(*r) == r_all)
            .filter(|r| Some(*r) != owner)
    }

    /// A key's owner and replica under the all-alive ring: the members
    /// [`HashRing::role`] does not call `Remote`, found in one walk.
    pub fn holders(&self, hash: u64) -> (Option<usize>, Option<usize>) {
        self.routes_where(hash, |_| true)
    }

    /// The [`KeyRole`] member `index` plays for a key hash: `Owner` for
    /// keys it owns, `Replica` for keys whose replica it is, `Remote`
    /// otherwise. All `spec.nodes` members are treated as alive — a
    /// process cannot observe peer deaths itself; clients steer traffic,
    /// and a replica already accepts everything it needs to take over.
    pub fn role(&self, index: usize, hash: u64) -> KeyRole {
        match self.holders(hash) {
            (Some(o), _) if o == index => KeyRole::Owner,
            (_, Some(r)) if r == index => KeyRole::Replica,
            _ => KeyRole::Remote,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::key_hash;
    use oc_trace::ids::{CellId, MachineId};

    fn hashes(n: u64) -> impl Iterator<Item = u64> {
        let cell = CellId::new("fleet");
        (0..n).map(move |m| key_hash(&(cell.clone(), MachineId(m as u32))))
    }

    #[test]
    fn placement_is_deterministic() {
        let a = RingSpec::new(3).build();
        let b = RingSpec::new(3).build();
        let alive = vec![true; 3];
        for h in hashes(1000) {
            assert_eq!(a.owner(h, &alive), b.owner(h, &alive));
        }
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let ring = RingSpec::new(3).build();
        let alive = vec![true; 3];
        let mut counts = [0u64; 3];
        for h in hashes(30_000) {
            counts[ring.owner(h, &alive).unwrap()] += 1;
        }
        for &c in &counts {
            assert!(
                (4_000..=16_000).contains(&c),
                "pathological imbalance: {counts:?}"
            );
        }
    }

    #[test]
    fn replica_is_distinct_from_owner() {
        let ring = RingSpec::new(3).build();
        let alive = vec![true; 3];
        for h in hashes(1000) {
            let (o, r) = ring.routes(h, &alive);
            assert_ne!(o.unwrap(), r.unwrap());
        }
    }

    /// The failover invariant: for every key, the replica under the full
    /// ring is the owner once the old owner is marked dead.
    #[test]
    fn replica_becomes_owner_after_owner_death() {
        let ring = RingSpec::new(3).build();
        let alive = vec![true; 3];
        for h in hashes(2000) {
            let (owner, replica) = ring.routes(h, &alive);
            let mut shrunk = alive.clone();
            shrunk[owner.unwrap()] = false;
            assert_eq!(ring.owner(h, &shrunk), replica);
        }
    }

    #[test]
    fn keys_not_placed_on_dead_nodes() {
        let ring = RingSpec::new(4).build();
        let alive = vec![true, false, true, false];
        for h in hashes(2000) {
            let (o, r) = ring.routes(h, &alive);
            assert!(matches!(o, Some(0) | Some(2)));
            assert!(matches!(r, Some(0) | Some(2)));
            assert_ne!(o, r);
        }
    }

    #[test]
    fn no_live_node_means_no_owner() {
        let ring = RingSpec::new(2).build();
        assert_eq!(ring.owner(42, &[false, false]), None);
        assert_eq!(ring.routes(42, &[false, false]), (None, None));
    }

    #[test]
    fn single_live_node_owns_everything_without_replica() {
        let ring = RingSpec::new(3).build();
        let alive = vec![false, true, false];
        for h in hashes(500) {
            assert_eq!(ring.routes(h, &alive), (Some(1), None));
        }
    }

    #[test]
    fn ownership_map_partitions_every_key() {
        let ring = RingSpec::new(3).build();
        let alive = vec![true; 3];
        for h in hashes(1000) {
            let roles: Vec<_> = (0..3).map(|i| ring.role(i, h)).collect();
            let owners = roles.iter().filter(|r| **r == KeyRole::Owner).count();
            let replicas = roles.iter().filter(|r| **r == KeyRole::Replica).count();
            assert_eq!(owners, 1, "exactly one owner per key: {roles:?}");
            assert_eq!(replicas, 1, "exactly one replica per key: {roles:?}");
            let (o, r) = ring.routes(h, &alive);
            assert_eq!(roles[o.unwrap()], KeyRole::Owner);
            assert_eq!(roles[r.unwrap()], KeyRole::Replica);
        }
    }
}
