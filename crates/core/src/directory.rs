//! The home directory: which shard owns what.
//!
//! A sharded DSD partitions the home service into `S` independent
//! home shards. The directory is the *deterministic*
//! function every node evaluates locally to route work — there is no
//! directory server and no lookup traffic:
//!
//! * index-table entry `e` is owned by shard `e % S` (its authoritative
//!   bytes, update log and sequence horizon live there);
//! * mutex `l`, barrier `b` and condition variable `c` are homed
//!   round-robin the same way (`id % S`);
//! * shard `s` listens on endpoint rank `s` (ranks `0..S`); with
//!   replication enabled its warm standby listens at `S + s`; worker
//!   thread rank `r` (ranks start at 1) sits after all home endpoints,
//!   at `S * (1 + R) + r - 1`.
//!
//! With `S == 1` and `R == 0` every function collapses to the
//! single-home layout the rest of the stack grew up with: shard 0 at
//! endpoint 0, worker rank `r` at endpoint `r`.
//!
//! The *epoch* of a shard is not part of the static map: it starts at 0
//! (primary serving) and each promotion or handoff bumps it by one.
//! Clients track observed epochs per shard and re-resolve between the
//! primary and replica endpoint when a fenced shard answers with
//! `ViewChange` — see DESIGN.md §14.

use crate::protocol::is_client_request;
use hdsm_net::message::MsgKind;
use std::collections::BTreeMap;

/// Deterministic entry/lock/barrier/cond → shard mapping for a home
/// service sharded `S` ways, with `R` warm standby replicas per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directory {
    shards: u32,
    replicas: u32,
}

impl Directory {
    /// Directory over `shards` home shards without replication.
    /// `shards` must be at least 1.
    pub fn new(shards: u32) -> Directory {
        Directory::with_replicas(shards, 0)
    }

    /// Directory over `shards` home shards, each with `replicas` warm
    /// standbys (at most 1 today).
    pub fn with_replicas(shards: u32, replicas: u32) -> Directory {
        assert!(shards >= 1, "a cluster needs at least one home shard");
        assert!(replicas <= 1, "at most one replica per shard is supported");
        Directory { shards, replicas }
    }

    /// The classic single-home layout.
    pub fn single() -> Directory {
        Directory {
            shards: 1,
            replicas: 0,
        }
    }

    /// Number of home shards.
    pub fn n_shards(&self) -> u32 {
        self.shards
    }

    /// Number of warm standby replicas per shard (0 = replication off).
    pub fn n_replicas(&self) -> u32 {
        self.replicas
    }

    /// The envelope rule, stated once for client, heartbeat pump and home
    /// alike: a frame of `kind` carries an epoch stamp after its request
    /// id iff the directory has replicas and the frame is a client
    /// request. Replies and the control plane always keep the plain
    /// envelope, and without replicas the wire is byte-identical to the
    /// unreplicated protocol.
    pub fn epoch_stamped(&self, kind: MsgKind) -> bool {
        self.replicas > 0 && is_client_request(kind)
    }

    /// Shard owning index-table entry `entry`.
    pub fn entry_shard(&self, entry: u32) -> u32 {
        entry % self.shards
    }

    /// Shard homing mutex `lock`.
    pub fn lock_shard(&self, lock: u32) -> u32 {
        lock % self.shards
    }

    /// Shard coordinating barrier `barrier` (arrival fan-in point).
    pub fn barrier_shard(&self, barrier: u32) -> u32 {
        barrier % self.shards
    }

    /// Shard homing condition variable `cond`. `MTh_cond_wait` atomically
    /// releases a mutex and parks, so the client requires
    /// `cond_shard(cond) == lock_shard(lock)` when `S > 1`.
    pub fn cond_shard(&self, cond: u32) -> u32 {
        cond % self.shards
    }

    /// Endpoint rank shard `shard`'s primary listens on.
    pub fn shard_ep(&self, shard: u32) -> u32 {
        debug_assert!(shard < self.shards);
        shard
    }

    /// Endpoint rank shard `shard`'s warm standby listens on. Only
    /// meaningful when `n_replicas() > 0`.
    pub fn replica_ep(&self, shard: u32) -> u32 {
        debug_assert!(shard < self.shards);
        debug_assert!(self.replicas > 0, "replication is off");
        self.shards + shard
    }

    /// Endpoint rank worker thread `rank` (threads rank from 1) sits on.
    pub fn worker_ep(&self, rank: u32) -> u32 {
        debug_assert!(rank >= 1, "thread ranks start at 1");
        self.shards * (1 + self.replicas) + rank - 1
    }

    /// All *primary* shard endpoint ranks.
    pub fn shard_eps(&self) -> impl Iterator<Item = u32> {
        0..self.shards
    }

    /// Every home-service endpoint rank: primaries, then replicas.
    pub fn home_eps(&self) -> impl Iterator<Item = u32> {
        0..self.shards * (1 + self.replicas)
    }
}

/// Who owns each index-table entry *now*: the static [`Directory`] plus
/// the ordered `entry → (shard, epoch)` overlay the adaptive placement
/// engine writes when it re-homes an entry away from its modulo shard.
/// Every node that tracks ownership holds one — it replaces
/// `HomeShard::{directory, entry_home}`, `DsdClient::{directory,
/// entry_overrides}`, the cluster stitch's `overrides` map with its
/// `effective_shard` closure, and the placement actor's `owners` — and
/// [`Placement::adopt`] is the only statement of the merge rule they all
/// follow (DESIGN.md §16, *max-epoch-wins*).
#[derive(Debug, Clone)]
pub struct Placement {
    directory: Directory,
    moved: BTreeMap<u32, (u32, u32)>,
}

impl Placement {
    /// The static placement of `directory`: nothing re-homed yet.
    pub fn new(directory: Directory) -> Placement {
        Placement {
            directory,
            moved: BTreeMap::new(),
        }
    }

    /// The static map underneath the overlay.
    pub fn directory(&self) -> Directory {
        self.directory
    }

    /// The shard that currently owns `entry`: its overlay row if it was
    /// ever re-homed, else the modulo map.
    pub fn owner(&self, entry: u32) -> u32 {
        match self.moved.get(&entry) {
            Some(&(shard, _)) => shard,
            None => self.directory.entry_shard(entry),
        }
    }

    /// The ownership epoch of `entry`: 0 until its first move, then
    /// strictly increasing with every move or abort revert.
    pub fn epoch(&self, entry: u32) -> u32 {
        self.moved.get(&entry).map_or(0, |&(_, epoch)| epoch)
    }

    /// Max-epoch-wins: take the row `entry → (shard, epoch)` iff `epoch`
    /// is strictly above the entry's current one, so late, duplicated or
    /// reordered rows never roll ownership backwards. Returns whether the
    /// row won.
    pub fn adopt(&mut self, entry: u32, shard: u32, epoch: u32) -> bool {
        let won = epoch > self.epoch(entry);
        if won {
            self.moved.insert(entry, (shard, epoch));
        }
        won
    }

    /// The overlay as `(entry, owning shard, epoch)` rows, entry-sorted.
    pub fn rows(&self) -> Vec<(u32, u32, u32)> {
        self.moved
            .iter()
            .map(|(&entry, &(shard, epoch))| (entry, shard, epoch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_adopts_strictly_newer_rows_only() {
        let mut p = Placement::new(Directory::new(3));
        // Untouched entries follow the modulo map at epoch 0.
        assert_eq!((p.owner(7), p.epoch(7)), (1, 0));
        assert!(p.rows().is_empty());
        assert!(!p.adopt(7, 2, 0), "epoch 0 is the static map's own");
        assert!(p.adopt(7, 2, 1));
        assert!(p.adopt(4, 0, 3));
        assert!(!p.adopt(7, 0, 1), "an equal epoch loses");
        assert!(!p.adopt(4, 2, 2), "a lower epoch loses");
        assert_eq!((p.owner(7), p.epoch(7)), (2, 1));
        assert!(p.adopt(7, 1, 2), "a higher epoch wins, even back home");
        assert_eq!(p.rows(), [(4, 0, 3), (7, 1, 2)], "entry-sorted");
        assert_eq!(p.owner(5), 2, "no row: modulo map");
        assert_eq!(p.directory(), Directory::new(3));
    }

    #[test]
    fn single_home_layout_is_preserved() {
        let d = Directory::single();
        assert_eq!(d.n_shards(), 1);
        assert_eq!(d.n_replicas(), 0);
        for id in [0u32, 1, 7, 4095, u32::MAX] {
            assert_eq!(d.entry_shard(id), 0);
            assert_eq!(d.lock_shard(id), 0);
        }
        // Worker rank r at endpoint r — exactly the pre-shard layout.
        assert_eq!(d.worker_ep(1), 1);
        assert_eq!(d.worker_ep(5), 5);
        assert_eq!(d.shard_ep(0), 0);
    }

    #[test]
    fn round_robin_covers_every_shard() {
        let d = Directory::new(3);
        assert_eq!(
            (0..6).map(|e| d.entry_shard(e)).collect::<Vec<_>>(),
            [0, 1, 2, 0, 1, 2]
        );
        assert_eq!(d.worker_ep(1), 3);
        assert_eq!(d.worker_ep(2), 4);
        assert_eq!(d.shard_eps().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn replicated_layout_slots_standbys_between_shards_and_workers() {
        let d = Directory::with_replicas(3, 1);
        // Primaries keep their legacy endpoints, so the modulo routing
        // is untouched by replication.
        assert_eq!(d.shard_ep(2), 2);
        assert_eq!(d.replica_ep(0), 3);
        assert_eq!(d.replica_ep(2), 5);
        // Workers shift up past the replica block.
        assert_eq!(d.worker_ep(1), 6);
        assert_eq!(d.worker_ep(4), 9);
        assert_eq!(d.home_eps().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(d.shard_eps().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn epoch_stamping_covers_exactly_the_client_request_kinds_under_replication() {
        let (plain, replicated) = (Directory::new(2), Directory::with_replicas(2, 1));
        for k in [
            MsgKind::LockRequest,
            MsgKind::UnlockRequest,
            MsgKind::BarrierEnter,
            MsgKind::Join,
            MsgKind::CondWait,
            MsgKind::Heartbeat,
            MsgKind::UpdateFlush,
            MsgKind::UpdateFetch,
            MsgKind::RangeFetch,
        ] {
            assert!(replicated.epoch_stamped(k), "{k:?}");
            assert!(!plain.epoch_stamped(k), "{k:?}");
        }
        for k in [
            MsgKind::LockGrant,
            MsgKind::Ack,
            MsgKind::Shutdown,
            MsgKind::Replicate,
            MsgKind::ViewChange,
            MsgKind::HandoffRequest,
            MsgKind::ReplicaBeat,
            MsgKind::EntryHandoff,
            MsgKind::EntryState,
            MsgKind::EntryMoved,
            MsgKind::Other,
        ] {
            assert!(!replicated.epoch_stamped(k), "{k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one home shard")]
    fn zero_shards_rejected() {
        Directory::new(0);
    }

    #[test]
    #[should_panic(expected = "at most one replica")]
    fn multi_replica_rejected() {
        Directory::with_replicas(2, 2);
    }
}
