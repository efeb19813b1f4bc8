//! Property tests for ring placement stability under membership events
//! — the invariants `Cluster::replace` leans on.
//!
//! Placement hashes only `(seed, node, vnode)`; the generation is pure
//! metadata. So replacing a member *at the same slot* under a bumped
//! generation must move no keys, and the owner/replica relationship
//! (mirror targets distinct from owners) must survive any generation.

use oc_cluster::{HashRing, RingSpec};
use proptest::prelude::*;

fn ring(nodes: usize, vnodes: usize, seed: u64, generation: u64) -> HashRing {
    HashRing::new(RingSpec {
        nodes,
        vnodes,
        seed,
        generation,
    })
}

/// An alive mask with at least two live members: bit `i` of `bits`
/// decides member `i`, and the two lowest indices are forced alive.
fn alive_mask(nodes: usize, bits: u64) -> Vec<bool> {
    let mut alive: Vec<bool> = (0..nodes).map(|i| bits >> (i % 64) & 1 == 1).collect();
    alive[0] = true;
    alive[1] = true;
    alive
}

proptest! {
    /// Same-slot replacement (the `Cluster::replace` path) moves no
    /// keys: rings that differ only in generation route identically,
    /// under any liveness mask.
    #[test]
    fn same_slot_replacement_moves_no_keys(
        nodes in 2usize..7,
        vnodes in 1usize..48,
        seed in 0u64..u64::MAX,
        gen_a in 0u64..u64::MAX,
        gen_b in 0u64..u64::MAX,
        mask in 0u64..u64::MAX,
        hashes in proptest::collection::vec(0u64..u64::MAX, 1..128),
    ) {
        let a = ring(nodes, vnodes, seed, gen_a);
        let b = ring(nodes, vnodes, seed, gen_b);
        let alive = alive_mask(nodes, mask);
        for h in hashes {
            prop_assert_eq!(a.routes(h, &alive), b.routes(h, &alive));
        }
    }

    /// Mirror targets stay distinct from owners across generation
    /// bumps: with at least two live members, every key's replica
    /// exists and differs from its owner, at any generation.
    #[test]
    fn mirror_targets_distinct_from_owners_across_generations(
        nodes in 2usize..7,
        vnodes in 1usize..48,
        seed in 0u64..u64::MAX,
        generation in 0u64..u64::MAX,
        mask in 0u64..u64::MAX,
        hashes in proptest::collection::vec(0u64..u64::MAX, 1..128),
    ) {
        let r = ring(nodes, vnodes, seed, generation);
        let alive = alive_mask(nodes, mask);
        for h in hashes {
            let (owner, replica) = r.routes(h, &alive);
            let owner = owner.expect("live members exist");
            let replica = replica.expect(">=2 live members yield a replica");
            prop_assert!(owner != replica, "owner {owner} == replica");
            prop_assert!(alive[owner] && alive[replica]);
        }
    }

    /// The per-member ownership maps (what each process enforces with
    /// `ERR not-mine`) partition every key into exactly one owner and
    /// one replica, and the partition is generation-independent — the
    /// rebuilt member's map equals its predecessor's.
    #[test]
    fn ownership_maps_partition_identically_across_generations(
        nodes in 2usize..6,
        vnodes in 1usize..32,
        seed in 0u64..u64::MAX,
        gen_a in 0u64..u64::MAX,
        gen_b in 0u64..u64::MAX,
        hashes in proptest::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        use oc_serve::config::KeyRole;
        let a = ring(nodes, vnodes, seed, gen_a);
        let b = ring(nodes, vnodes, seed, gen_b);
        let maps_a: Vec<_> = (0..nodes).map(|i| a.ownership_for(i)).collect();
        let maps_b: Vec<_> = (0..nodes).map(|i| b.ownership_for(i)).collect();
        for h in hashes {
            let roles_a: Vec<_> = maps_a.iter().map(|m| m.role_of(h)).collect();
            let roles_b: Vec<_> = maps_b.iter().map(|m| m.role_of(h)).collect();
            prop_assert_eq!(&roles_a, &roles_b);
            let owners = roles_a.iter().filter(|r| **r == KeyRole::Owner).count();
            let replicas = roles_a.iter().filter(|r| **r == KeyRole::Replica).count();
            prop_assert_eq!(owners, 1);
            prop_assert_eq!(replicas, 1);
        }
    }

    /// The replay filter of `Cluster::replace` can never drop a line
    /// the rebuilt member would have applied: "slot is owner or replica
    /// under the all-alive ring" is exactly "the slot's ownership map
    /// (the supervisor's filter, and the member's own check) does not
    /// call the key `Remote`".
    #[test]
    fn replay_filter_equals_member_ownership(
        nodes in 2usize..7,
        vnodes in 1usize..48,
        seed in 0u64..u64::MAX,
        slot in 0usize..7,
        hashes in proptest::collection::vec(0u64..u64::MAX, 1..128),
    ) {
        use oc_serve::config::KeyRole;
        let slot = slot % nodes;
        let r = ring(nodes, vnodes, seed, 0);
        let ownership = r.ownership_for(slot);
        let all_alive = vec![true; nodes];
        for h in hashes {
            let (owner, replica) = r.routes(h, &all_alive);
            let holds = owner == Some(slot) || replica == Some(slot);
            prop_assert_eq!(holds, ownership.role_of(h) != KeyRole::Remote);
        }
    }

    /// The mirror-target rule (`ClusterClient` and the fleet planner
    /// both call it): a mirror goes to a live member other than the
    /// live owner, and only to one whose own ownership map accepts the
    /// key — under any liveness mask, including a lone survivor.
    #[test]
    fn mirror_target_is_a_live_non_owner_that_accepts_the_key(
        nodes in 1usize..7,
        vnodes in 1usize..48,
        seed in 0u64..u64::MAX,
        mask in 0u64..u64::MAX,
        hashes in proptest::collection::vec(0u64..u64::MAX, 1..128),
    ) {
        use oc_serve::config::KeyRole;
        let r = ring(nodes, vnodes, seed, 0);
        let alive: Vec<bool> = (0..nodes).map(|i| mask >> i & 1 == 1).collect();
        for h in hashes {
            let Some(target) = r.mirror_target(h, &alive) else {
                // With everyone alive the replica always qualifies.
                prop_assert!(nodes < 2 || alive.contains(&false));
                continue;
            };
            prop_assert!(alive[target]);
            prop_assert!(Some(target) != r.owner(h, &alive));
            prop_assert!(r.ownership_for(target).role_of(h) != KeyRole::Remote);
        }
    }
}
