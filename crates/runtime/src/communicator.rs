//! Communicators: groups of ranks with point-to-point messaging and
//! `ncclCommSplit`-style splitting.
//!
//! DynMo's re-packing (paper §3.4.2) relies on splitting the world
//! communicator into an *active* sub-communicator (ranks that still hold
//! layers) and an *idle* one (ranks released back to the job manager).  The
//! [`Communicator::split`] and [`Communicator::split_subset`] methods
//! reproduce that behaviour: messages on different communicators never mix,
//! and ranks excluded from the active communicator simply stop participating.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, RuntimeError};
use crate::fabric::{Endpoint, Envelope, Fabric};
use crate::payload::Payload;
use crate::{RankId, Tag};

/// Tags at or above this value are reserved for internal collective
/// plumbing; user code must use tags below it.
pub const SYSTEM_TAG_BASE: Tag = 0x8000_0000;

/// The id of the world communicator created by [`crate::launch`].
pub const WORLD_COMM_ID: u64 = 1;

/// A group of ranks that can exchange messages, analogous to an MPI or NCCL
/// communicator.
#[derive(Debug, Clone)]
pub struct Communicator {
    fabric: Arc<Fabric>,
    endpoint: Arc<Mutex<Endpoint>>,
    id: u64,
    /// Global ranks of the members, indexed by local rank.
    members: Arc<Vec<RankId>>,
    /// This rank's index within `members`.
    local_rank: usize,
    /// Monotonic counter making ids of successive splits distinct.  Shared
    /// between clones of the same communicator on the same rank so that
    /// clones stay in lock-step.
    split_seq: Arc<AtomicU64>,
}

impl Communicator {
    /// Construct a communicator directly.  Most users obtain communicators
    /// from [`crate::launch`] (the world) or from [`Communicator::split`].
    pub fn new(
        fabric: Arc<Fabric>,
        endpoint: Arc<Mutex<Endpoint>>,
        id: u64,
        members: Vec<RankId>,
        local_rank: usize,
    ) -> Self {
        debug_assert!(local_rank < members.len());
        Communicator {
            fabric,
            endpoint,
            id,
            members: Arc::new(members),
            local_rank,
            split_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// This rank's index within the communicator (0-based).
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The communicator's id (unique within a fabric for a given split
    /// sequence).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The global rank backing a local rank.
    pub fn global_rank(&self, local: usize) -> Result<RankId> {
        self.members
            .get(local)
            .copied()
            .ok_or(RuntimeError::UnknownRank(local))
    }

    /// Global rank of this process.
    pub fn my_global_rank(&self) -> RankId {
        self.members[self.local_rank]
    }

    /// All member global ranks, in local-rank order.
    pub fn members(&self) -> &[RankId] {
        &self.members
    }

    /// Access the fabric this communicator lives on.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Send `payload` to local rank `dst` with `tag`.
    pub fn send(&self, dst: usize, tag: Tag, payload: Payload) -> Result<()> {
        if tag >= SYSTEM_TAG_BASE {
            return Err(RuntimeError::InvalidArgument(format!(
                "user tag {tag:#x} is in the reserved system range"
            )));
        }
        self.send_internal(dst, tag, payload)
    }

    pub(crate) fn send_internal(&self, dst: usize, tag: Tag, payload: Payload) -> Result<()> {
        let dst_global = self.global_rank(dst)?;
        self.fabric.route(Envelope {
            src: self.my_global_rank(),
            dst: dst_global,
            comm: self.id,
            tag,
            payload,
        })
    }

    /// Receive a message from local rank `src` with `tag`.
    pub fn recv(&self, src: usize, tag: Tag) -> Result<Payload> {
        if tag >= SYSTEM_TAG_BASE {
            return Err(RuntimeError::InvalidArgument(format!(
                "user tag {tag:#x} is in the reserved system range"
            )));
        }
        self.recv_internal(src, tag)
    }

    pub(crate) fn recv_internal(&self, src: usize, tag: Tag) -> Result<Payload> {
        let src_global = self.global_rank(src)?;
        let envelope =
            self.endpoint
                .lock()
                .recv_match(self.id, &self.members, Some(src_global), tag)?;
        Ok(envelope.payload)
    }

    /// Receive a message with `tag` from any member rank, returning the
    /// sender's local rank alongside the payload.
    pub fn recv_any(&self, tag: Tag) -> Result<(usize, Payload)> {
        let envelope = self
            .endpoint
            .lock()
            .recv_match(self.id, &self.members, None, tag)?;
        let local = self
            .members
            .iter()
            .position(|&g| g == envelope.src)
            .ok_or(RuntimeError::UnknownRank(envelope.src))?;
        Ok((local, envelope.payload))
    }

    /// Split the communicator by `color`: ranks sharing a color form a new
    /// communicator, ordered by `key` then by parent rank.  Every member of
    /// the parent must call `split` (collectively), mirroring
    /// `ncclCommSplit`/`MPI_Comm_split`.  Returns `None` when `color` is
    /// `None` (the rank opts out, like `NCCL_SPLIT_NOCOLOR`).
    pub fn split(&self, color: Option<u64>, key: u64) -> Result<Option<Communicator>> {
        // Exchange (color, key) from every rank via an internal allgather.
        let encoded = vec![
            color.map(|c| c + 1).unwrap_or(0), // 0 encodes "no color"
            key,
        ];
        let all = self.allgather_u64_internal(&encoded)?;
        let seq = self.split_seq.fetch_add(1, Ordering::SeqCst);

        let my_color = match color {
            Some(c) => c,
            None => return Ok(None),
        };

        // Collect members with the same color, sorted by (key, parent rank).
        let mut group: Vec<(u64, usize)> = Vec::new();
        for (parent_rank, entry) in all.iter().enumerate() {
            let c = entry[0];
            let k = entry[1];
            if c == my_color + 1 {
                group.push((k, parent_rank));
            }
        }
        group.sort_unstable();
        let members: Vec<RankId> = group
            .iter()
            .map(|&(_, parent_rank)| self.members[parent_rank])
            .collect();
        let local_rank = group
            .iter()
            .position(|&(_, parent_rank)| parent_rank == self.local_rank)
            .expect("calling rank must be part of its own color group");

        let id = derive_comm_id(self.id, seq, my_color);
        Ok(Some(Communicator {
            fabric: Arc::clone(&self.fabric),
            endpoint: Arc::clone(&self.endpoint),
            id,
            members: Arc::new(members),
            local_rank,
            split_seq: Arc::new(AtomicU64::new(0)),
        }))
    }

    /// Convenience wrapper over [`Communicator::split`]: ranks listed in
    /// `active` (as parent-local ranks) join the new communicator in the
    /// given order; everyone else opts out.  All parent members must call
    /// this with the same `active` list.
    pub fn split_subset(&self, active: &[usize]) -> Result<Option<Communicator>> {
        let position = active.iter().position(|&r| r == self.local_rank);
        let color = position.map(|_| 1u64);
        let key = position.unwrap_or(0) as u64;
        self.split(color, key)
    }

    /// Global ranks of the members that have *not* been marked failed, in
    /// local-rank order.
    pub fn surviving_members(&self) -> Vec<RankId> {
        let detector = self.fabric.detector();
        self.members
            .iter()
            .copied()
            .filter(|&g| !detector.is_failed(g))
            .collect()
    }

    /// Whether any member of this communicator has been marked failed (in
    /// which case collectives on it are poisoned and it must be rebuilt).
    pub fn has_failed_member(&self) -> bool {
        self.fabric
            .detector()
            .first_failed_of(&self.members)
            .is_some()
    }

    /// Re-form the communicator over the surviving members after a failure —
    /// the fault-tolerant sibling of [`Communicator::split_subset`]
    /// (`ncclCommShrink` semantics).
    ///
    /// A collective split is impossible once a member is dead (it cannot
    /// participate), so the new communicator is derived *without
    /// communication*: every survivor reads the same failed set from the
    /// fabric's failure detector and computes the same member list and
    /// communicator id.  Returns `None` when the calling rank is itself
    /// marked failed; returns a clone of `self` when no member has failed.
    pub fn rebuild_survivors(&self) -> Result<Option<Communicator>> {
        let survivors = self.surviving_members();
        if survivors.len() == self.members.len() {
            return Ok(Some(self.clone()));
        }
        // A calling rank that is itself marked failed is not a survivor
        // (and an alive caller guarantees the survivor set is non-empty).
        let me = self.my_global_rank();
        let Some(local_rank) = survivors.iter().position(|&g| g == me) else {
            return Ok(None);
        };
        // Mix the survivor set into the id so successive failures (and
        // rebuilds) of the same parent never reuse a communicator id.
        let mut set_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &g in &survivors {
            set_hash ^= g as u64;
            set_hash = set_hash.wrapping_mul(0x100_0000_01b3);
        }
        let id = derive_comm_id(self.id, set_hash, survivors.len() as u64);
        Ok(Some(Communicator {
            fabric: Arc::clone(&self.fabric),
            endpoint: Arc::clone(&self.endpoint),
            id,
            members: Arc::new(survivors),
            local_rank,
            split_seq: Arc::new(AtomicU64::new(0)),
        }))
    }

    /// Internal allgather of a fixed-size `u64` vector, used by `split` and
    /// the collectives module.  Uses the system tag space.
    pub(crate) fn allgather_u64_internal(&self, value: &[u64]) -> Result<Vec<Vec<u64>>> {
        let tag = SYSTEM_TAG_BASE + 1;
        let n = self.size();
        // Gather to rank 0 then broadcast: simple and adequate for a
        // simulation fabric.
        if self.local_rank == 0 {
            let mut all = vec![Vec::new(); n];
            all[0] = value.to_vec();
            for _ in 1..n {
                let envelope =
                    self.endpoint
                        .lock()
                        .recv_match(self.id, &self.members, None, tag)?;
                let src_local = self
                    .members
                    .iter()
                    .position(|&g| g == envelope.src)
                    .ok_or(RuntimeError::UnknownRank(envelope.src))?;
                all[src_local] = envelope.payload.into_u64()?;
            }
            // Flatten and broadcast.
            let lengths: Vec<u64> = all.iter().map(|v| v.len() as u64).collect();
            let flat: Vec<u64> = all.iter().flatten().copied().collect();
            for dst in 1..n {
                self.send_internal(dst, tag + 1, Payload::U64(lengths.clone()))?;
                self.send_internal(dst, tag + 2, Payload::U64(flat.clone()))?;
            }
            Ok(all)
        } else {
            self.send_internal(0, tag, Payload::U64(value.to_vec()))?;
            let lengths = self.recv_internal(0, tag + 1)?.into_u64()?;
            let flat = self.recv_internal(0, tag + 2)?.into_u64()?;
            let mut all = Vec::with_capacity(n);
            let mut offset = 0usize;
            for len in lengths {
                let len = len as usize;
                all.push(flat[offset..offset + len].to_vec());
                offset += len;
            }
            Ok(all)
        }
    }
}

/// Derive a deterministic communicator id from the parent id, the split
/// sequence number and the color.  All members compute the same value
/// without extra coordination.
fn derive_comm_id(parent: u64, seq: u64, color: u64) -> u64 {
    // A simple SplitMix64-style mix; collisions across live communicators
    // are practically impossible for the fleet sizes simulated here.
    let mut x = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(color.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x | 0x8000_0000_0000_0000 // never collide with the world id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launcher::launch;

    #[test]
    fn user_tags_in_system_range_are_rejected() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let err = comm.send(1, SYSTEM_TAG_BASE, Payload::Empty).unwrap_err();
                matches!(err, RuntimeError::InvalidArgument(_))
            } else {
                let err = comm.recv(0, SYSTEM_TAG_BASE + 4).unwrap_err();
                matches!(err, RuntimeError::InvalidArgument(_))
            }
        })
        .unwrap();
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn p2p_send_recv_between_ranks() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            match ctx.rank() {
                0 => {
                    comm.send(2, 5, Payload::F32(vec![1.5, 2.5])).unwrap();
                    Vec::new()
                }
                2 => comm.recv(0, 5).unwrap().into_f32().unwrap(),
                _ => Vec::new(),
            }
        })
        .unwrap();
        assert_eq!(results[2], vec![1.5, 2.5]);
    }

    #[test]
    fn recv_any_reports_sender_local_rank() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 1 {
                comm.send(0, 9, Payload::U32(vec![42])).unwrap();
                None
            } else if ctx.rank() == 0 {
                let (src, payload) = comm.recv_any(9).unwrap();
                Some((src, payload.into_u32().unwrap()[0]))
            } else {
                None
            }
        })
        .unwrap();
        assert_eq!(results[0], Some((1, 42)));
    }

    #[test]
    fn split_subset_builds_disjoint_active_group() {
        // 4 ranks; re-pack onto ranks {0, 2}; the others become idle.
        let results = launch(4, |ctx| {
            let comm = ctx.world();
            let active = comm.split_subset(&[0, 2]).unwrap();
            match active {
                Some(sub) => {
                    // Active ranks exchange a message on the new communicator.
                    let peer = 1 - sub.rank();
                    sub.send(peer, 3, Payload::U32(vec![sub.rank() as u32]))
                        .unwrap();
                    let got = sub.recv(peer, 3).unwrap().into_u32().unwrap()[0];
                    Some((sub.size(), sub.rank(), got))
                }
                None => None,
            }
        })
        .unwrap();
        assert_eq!(results[0], Some((2, 0, 1)));
        assert_eq!(results[2], Some((2, 1, 0)));
        assert_eq!(results[1], None);
        assert_eq!(results[3], None);
    }

    #[test]
    fn split_by_color_orders_by_key() {
        let results = launch(4, |ctx| {
            let comm = ctx.world();
            // Two groups: even ranks and odd ranks; key reverses order.
            let color = Some((ctx.rank() % 2) as u64);
            let key = (10 - ctx.rank()) as u64;
            let sub = comm.split(color, key).unwrap().unwrap();
            (sub.size(), sub.rank(), sub.my_global_rank())
        })
        .unwrap();
        // Even group = global {0, 2}; key 10, 8 → rank 2 first.
        assert_eq!(results[2], (2, 0, 2));
        assert_eq!(results[0], (2, 1, 0));
        // Odd group = global {1, 3}; key 9, 7 → rank 3 first.
        assert_eq!(results[3], (2, 0, 3));
        assert_eq!(results[1], (2, 1, 1));
    }

    #[test]
    fn messages_do_not_cross_communicators() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            let sub = comm.split_subset(&[0, 1]).unwrap().unwrap();
            if ctx.rank() == 0 {
                // Send on the sub-communicator only.
                sub.send(1, 7, Payload::U32(vec![77])).unwrap();
                0
            } else {
                // A recv on the *world* communicator for the same tag must
                // time out (message was scoped to the sub-communicator)...
                // use the sub communicator to actually receive it first so
                // the test terminates quickly.

                sub.recv(0, 7).unwrap().into_u32().unwrap()[0]
            }
        })
        .unwrap();
        assert_eq!(results[1], 77);
    }

    #[test]
    fn send_touching_a_failed_rank_errors() {
        // No barrier before the failure: a rank still inside a barrier's
        // receive when rank 0 marks rank 2 failed would see RankFailed there
        // instead.  `send` checks the detector synchronously, so rank 0
        // needs no synchronisation with the others.
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.fabric().detector().mark_failed(2);
                let err = comm.send(2, 4, Payload::Empty).unwrap_err();
                matches!(err, RuntimeError::RankFailed { rank: 2 })
            } else {
                true
            }
        })
        .unwrap();
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn collectives_on_a_poisoned_communicator_fail_then_survivors_rebuild() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 2 {
                // Simulated crash: mark failed and stop participating.
                ctx.fabric().detector().mark_failed(2);
                return None;
            }
            // The world collective can never complete once rank 2 is dead;
            // both survivors must see RankFailed promptly (not a timeout).
            let err = comm.allreduce_sum_f32(&[1.0]).unwrap_err();
            assert_eq!(err, RuntimeError::RankFailed { rank: 2 });
            assert!(comm.has_failed_member());
            assert_eq!(comm.surviving_members(), vec![0, 1]);
            // Rebuild over the survivors and finish the collective there.
            let rebuilt = comm.rebuild_survivors().unwrap().unwrap();
            assert_eq!(rebuilt.size(), 2);
            let sum = rebuilt.allreduce_sum_f32(&[1.0]).unwrap();
            Some((rebuilt.rank(), sum[0] as usize))
        })
        .unwrap();
        assert_eq!(results[0], Some((0, 2)));
        assert_eq!(results[1], Some((1, 2)));
        assert_eq!(results[2], None);
    }

    #[test]
    fn rebuild_without_failures_is_an_identity() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            let rebuilt = comm.rebuild_survivors().unwrap().unwrap();
            (rebuilt.id() == comm.id(), rebuilt.size())
        })
        .unwrap();
        assert_eq!(results, vec![(true, 2), (true, 2)]);
    }

    #[test]
    fn rebuild_on_the_failed_rank_returns_none() {
        let results = launch(2, |ctx| {
            if ctx.rank() == 1 {
                ctx.fabric().detector().mark_failed(1);
                ctx.world().rebuild_survivors().unwrap().is_none()
            } else {
                // Wait for the mark so the rebuild below observes it.
                while !ctx.fabric().detector().is_failed(1) {
                    std::thread::yield_now();
                }
                let rebuilt = ctx.world().rebuild_survivors().unwrap().unwrap();
                rebuilt.size() == 1 && rebuilt.rank() == 0
            }
        })
        .unwrap();
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn derive_comm_id_is_deterministic_and_distinct() {
        let a = derive_comm_id(1, 0, 1);
        let b = derive_comm_id(1, 0, 1);
        let c = derive_comm_id(1, 1, 1);
        let d = derive_comm_id(1, 0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, WORLD_COMM_ID);
    }
}
