//! Message envelope.

use bytes::Bytes;
use hdsm_obs::OpCtx;

/// Protocol message kinds, used for routing within a node and for traffic
/// statistics bucketing. The DSD protocol (hdsm-core) maps its message
/// types onto these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum MsgKind {
    /// `MTh_lock` request (remote → home).
    LockRequest = 1,
    /// Lock grant carrying outstanding updates (home → remote).
    LockGrant = 2,
    /// `MTh_unlock` release carrying updates (remote → home).
    UnlockRequest = 3,
    /// Release acknowledgement (home → remote).
    UnlockAck = 4,
    /// Barrier entry carrying updates (remote → home).
    BarrierEnter = 5,
    /// Barrier release carrying merged updates (home → remote).
    BarrierRelease = 6,
    /// `MTh_join` sign-off (remote → home).
    Join = 7,
    /// Program shutdown (home → remote).
    Shutdown = 8,
    /// `MTh_cond_wait` request (remote → home).
    CondWait = 11,
    /// `MTh_cond_signal` / broadcast (remote → home).
    CondSignal = 12,
    /// Cold-copy resynchronisation notice after migration (remote → home).
    Resync = 13,
    /// Generic acknowledgement for otherwise fire-and-forget requests
    /// (home → remote; part of the reliability layer).
    Ack = 14,
    /// Liveness heartbeat (remote → home).
    Heartbeat = 15,
    /// A participant was declared dead; the receiver's blocked operation
    /// cannot complete (home → remote).
    WorkerLost = 16,
    /// Release-time diff fan-out to a non-owning home shard
    /// (remote → shard; carries updates, acknowledged with `Ack`).
    UpdateFlush = 17,
    /// Acquire-time horizon pull from a non-owning home shard
    /// (remote → shard; replied to with `UpdateBatch`).
    UpdateFetch = 18,
    /// Outstanding updates for one shard's slice (shard → remote).
    UpdateBatch = 19,
    /// Primary → replica replication relay: one deduplicated client
    /// request forwarded verbatim for shadow replay, or one decision of
    /// the primary's own (a lease expiry, an ownership flip, a handoff).
    Replicate = 20,
    /// Replica → deposed primary: a new epoch rules this shard; stop
    /// answering clients (fencing).
    Depose = 21,
    /// Deposed primary → replica: fencing acknowledged.
    DeposeAck = 22,
    /// Fenced shard → client: your directory view is stale; re-resolve
    /// to the shard's current primary and retry under the new epoch.
    ViewChange = 23,
    /// Admin → primary: drain this shard and hand it to its replica.
    /// The primary relays it down the replication stream, where it is
    /// the standby's order to promote.
    HandoffRequest = 24,
    /// Promoted replica → old primary: the relayed handoff was replayed
    /// behind every earlier frame, new epoch live.
    HandoffInstalled = 26,
    /// Primary → admin: handoff complete, old shard retiring.
    HandoffDone = 27,
    /// Replica → primary liveness beat on the replication link.
    ReplicaBeat = 28,
    /// Admin → source shard: migrate one entry's home to another shard
    /// (per-entry-grain handoff, driven by the placement engine).
    EntryHandoff = 29,
    /// Source shard → target shard: the entry's current contents as an
    /// opaque snapshot, installed before ownership flips.
    EntryState = 30,
    /// Target shard → source shard: entry state installed, ownership live.
    EntryInstalled = 31,
    /// Source shard → admin: entry re-homing complete.
    EntryDone = 32,
    /// Shard → client: some flushed entries are no longer homed here;
    /// re-route them to their new owner and resend.
    EntryMoved = 33,
    /// Fetch-before-use: a client asks the owning shard for the current
    /// bytes of element ranges it was told are stale (remote → shard;
    /// replied to with `UpdateBatch`).
    RangeFetch = 34,
    /// Shard → writer: send the bytes of ranges only the writer's copy has
    /// current (held at a barrier), which a reader is about to use.
    HeldFetch = 35,
    /// Writer → shard: the bytes a `HeldFetch` asked for. Never answered.
    HeldData = 36,
    /// Anything else (tests, applications).
    Other = 255,
}

impl MsgKind {
    /// All kinds (for stats iteration).
    pub const ALL: [MsgKind; 34] = [
        MsgKind::LockRequest,
        MsgKind::LockGrant,
        MsgKind::UnlockRequest,
        MsgKind::UnlockAck,
        MsgKind::BarrierEnter,
        MsgKind::BarrierRelease,
        MsgKind::Join,
        MsgKind::Shutdown,
        MsgKind::CondWait,
        MsgKind::CondSignal,
        MsgKind::Resync,
        MsgKind::Ack,
        MsgKind::Heartbeat,
        MsgKind::WorkerLost,
        MsgKind::UpdateFlush,
        MsgKind::UpdateFetch,
        MsgKind::UpdateBatch,
        MsgKind::Replicate,
        MsgKind::Depose,
        MsgKind::DeposeAck,
        MsgKind::ViewChange,
        MsgKind::HandoffRequest,
        MsgKind::HandoffInstalled,
        MsgKind::HandoffDone,
        MsgKind::ReplicaBeat,
        MsgKind::EntryHandoff,
        MsgKind::EntryState,
        MsgKind::EntryInstalled,
        MsgKind::EntryDone,
        MsgKind::EntryMoved,
        MsgKind::RangeFetch,
        MsgKind::HeldFetch,
        MsgKind::HeldData,
        MsgKind::Other,
    ];

    /// The kind whose discriminant is `raw`, if any — the inverse of
    /// `kind as u16` for frames that carry a nested kind (replication
    /// relays).
    pub fn from_u16(raw: u16) -> Option<MsgKind> {
        MsgKind::ALL.iter().copied().find(|k| *k as u16 == raw)
    }

    /// Short label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            MsgKind::LockRequest => "lock-req",
            MsgKind::LockGrant => "lock-grant",
            MsgKind::UnlockRequest => "unlock-req",
            MsgKind::UnlockAck => "unlock-ack",
            MsgKind::BarrierEnter => "barrier-enter",
            MsgKind::BarrierRelease => "barrier-release",
            MsgKind::Join => "join",
            MsgKind::Shutdown => "shutdown",
            MsgKind::CondWait => "cond-wait",
            MsgKind::CondSignal => "cond-signal",
            MsgKind::Resync => "resync",
            MsgKind::Ack => "ack",
            MsgKind::Heartbeat => "heartbeat",
            MsgKind::WorkerLost => "worker-lost",
            MsgKind::UpdateFlush => "update-flush",
            MsgKind::UpdateFetch => "update-fetch",
            MsgKind::UpdateBatch => "update-batch",
            MsgKind::Replicate => "replicate",
            MsgKind::Depose => "depose",
            MsgKind::DeposeAck => "depose-ack",
            MsgKind::ViewChange => "view-change",
            MsgKind::HandoffRequest => "handoff-req",
            MsgKind::HandoffInstalled => "handoff-installed",
            MsgKind::HandoffDone => "handoff-done",
            MsgKind::ReplicaBeat => "replica-beat",
            MsgKind::EntryHandoff => "entry-handoff",
            MsgKind::EntryState => "entry-state",
            MsgKind::EntryInstalled => "entry-installed",
            MsgKind::EntryDone => "entry-done",
            MsgKind::EntryMoved => "entry-moved",
            MsgKind::RangeFetch => "range-fetch",
            MsgKind::HeldFetch => "held-fetch",
            MsgKind::HeldData => "held-data",
            MsgKind::Other => "other",
        }
    }

    /// Does this kind's payload carry shared-data updates? Separates the
    /// paper's update traffic (diffed data moving at releases/acquires,
    /// Figure 8) from pure protocol control traffic.
    pub const fn carries_updates(self) -> bool {
        matches!(
            self,
            MsgKind::LockGrant
                | MsgKind::UnlockRequest
                | MsgKind::BarrierEnter
                | MsgKind::BarrierRelease
                | MsgKind::Join
                | MsgKind::CondWait
                | MsgKind::Resync
                | MsgKind::UpdateFlush
                | MsgKind::UpdateBatch
                | MsgKind::HeldData
        )
    }
}

/// Causal trace context riding on a message when observability is
/// enabled: a flow id binding this send to its receive event(s), and the
/// sync operation the message is doing work for. Stamped by the fabric
/// send path, recorded again by the receiving endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Flow id linking the send event to the receive event (unique per
    /// physical transmission, so retransmits and dups stay distinct).
    pub flow: u64,
    /// The sync operation that caused this message.
    pub op: OpCtx,
}

/// A message in flight between two nodes.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Protocol kind.
    pub kind: MsgKind,
    /// Opaque serialized payload (sender-native format + tags).
    pub payload: Bytes,
    /// Causal trace context. `None` whenever the recorder is disabled —
    /// the envelope is then identical to the untraced wire format.
    pub trace: Option<TraceCtx>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in MsgKind::ALL {
            assert!(seen.insert(k.label()));
        }
    }

    #[test]
    fn discriminants_roundtrip_through_from_u16() {
        for k in MsgKind::ALL {
            assert_eq!(MsgKind::from_u16(k as u16), Some(k));
        }
        assert_eq!(MsgKind::from_u16(200), None);
    }

    #[test]
    fn update_kinds_are_the_data_movers() {
        assert!(MsgKind::LockGrant.carries_updates());
        assert!(MsgKind::BarrierEnter.carries_updates());
        assert!(MsgKind::UnlockRequest.carries_updates());
        assert!(!MsgKind::LockRequest.carries_updates());
        assert!(!MsgKind::Heartbeat.carries_updates());
        assert!(!MsgKind::Ack.carries_updates());
    }
}
