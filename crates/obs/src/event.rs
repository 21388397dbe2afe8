//! Structured runtime events.
//!
//! An [`Event`] is one timestamped happening on one rank — a span (has a
//! duration) or an instant (duration zero). Events are deliberately flat
//! and `Copy`-cheap: two integer arguments plus a static label cover every
//! site in the stack without allocation on the hot path.

use std::fmt;

/// The class of distributed sync operation an event belongs to.
///
/// Together with [`OpCtx`] this is the *trace context*: it names the
/// lock/unlock/barrier/cond/join call that *caused* a message, span or
/// fault event, so the critical-path analyzer can group everything that
/// happened on behalf of one operation — across ranks, shards,
/// retransmits and lease machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Not attributed to any sync operation.
    #[default]
    None,
    /// `MTh_lock` acquire.
    Lock,
    /// `MTh_unlock` release.
    Unlock,
    /// `MTh_barrier`.
    Barrier,
    /// Condition-variable wait/signal.
    Cond,
    /// `MTh_join`.
    Join,
    /// Administrative shard handoff (fence → relay → promote → retire).
    /// Not a worker-initiated sync op: `id` is the shard, `origin` 0.
    Handoff,
}

impl OpKind {
    /// Stable short name (report key, Chrome-trace argument).
    pub const fn name(self) -> &'static str {
        match self {
            OpKind::None => "none",
            OpKind::Lock => "lock",
            OpKind::Unlock => "unlock",
            OpKind::Barrier => "barrier",
            OpKind::Cond => "cond",
            OpKind::Join => "join",
            OpKind::Handoff => "handoff",
        }
    }
}

/// Which concrete sync operation an event happened on behalf of.
///
/// `epoch` distinguishes successive uses of the same id (the 7th time
/// barrier 3 fires, the 4th acquisition of lock 0 by rank 2); `origin`
/// is the worker rank whose call started the operation. The default
/// (all zero, kind `None`) means "unattributed".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpCtx {
    /// Operation class.
    pub kind: OpKind,
    /// Lock / barrier / cond id (0 for join).
    pub id: u32,
    /// Per-(kind, id, origin) use counter, starting at 1.
    pub epoch: u32,
    /// Worker rank that initiated the operation.
    pub origin: u32,
}

impl OpCtx {
    /// Is this context attributed to a real operation?
    pub fn is_some(&self) -> bool {
        self.kind != OpKind::None
    }
}

impl fmt::Display for OpCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_some() {
            write!(
                f,
                "{} {} epoch {} (rank {})",
                self.kind.name(),
                self.id,
                self.epoch,
                self.origin
            )
        } else {
            write!(f, "unattributed")
        }
    }
}

/// What happened. The taxonomy mirrors the paper's cost decomposition
/// (Eq. 1: `t_index + t_tag + t_pack + t_unpack + t_conv`) plus the
/// synchronization, transport, reliability and failover machinery around
/// it — see DESIGN.md §10 for the full mapping and each kind's reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Waiting for a distributed lock grant (`arg0` = lock id).
    LockWait,
    /// Holding a distributed lock, acquire→release (`arg0` = lock id).
    LockHold,
    /// Releasing a distributed lock (`arg0` = lock id).
    LockRelease,
    /// Inside a barrier, enter→release (`arg0` = barrier id).
    Barrier,
    /// Twin/diff scan of the dirty pages straight to index ranges
    /// (`t_index`; `arg0` = bytes of changed elements, `arg1` = ranges
    /// found).
    DiffScan,
    /// Settling the ranges that ship, one tag each — whole-entry promotion
    /// on a client, coalescing the update log on a home (`t_tag`; `arg0` =
    /// tag count).
    TagBuild,
    /// Packing tag + data frames (`t_pack`; `arg0` = bytes).
    Pack,
    /// Unpacking received frames (`t_unpack`; `arg0` = bytes).
    Unpack,
    /// Applying data — memcpy or heterogeneous conversion (`t_conv`;
    /// `arg0` = updates, `arg1` = bytes).
    Convert,
    /// A message left this rank (`arg0` = payload bytes, `arg1` = dst;
    /// `label` = message kind).
    MsgSend,
    /// A message arrived at this rank (`arg0` = payload bytes, `arg1` =
    /// src; `label` = message kind).
    MsgRecv,
    /// The reliability layer retransmitted a request.
    Retransmit,
    /// Fault injection dropped a message (`label` = message kind).
    FaultDrop,
    /// Fault injection duplicated a message (`label` = message kind).
    FaultDup,
    /// Fault injection held a message back for reordering.
    FaultReorder,
    /// The home's failure detector declared a worker dead (`arg0` = rank).
    LeaseExpired,
    /// A home shard was killed by fault injection or its endpoint died
    /// (`arg0` = shard).
    ShardKill,
    /// A standby replica promoted itself to primary (`arg0` = shard,
    /// `arg1` = new epoch).
    Promote,
    /// A shard fenced itself — deposed, drained for handoff, or
    /// self-fenced on a severed replication link (`arg0` = shard,
    /// `arg1` = epoch it stopped serving).
    Fence,
    /// Proactive shard handoff, fence → relay → replay-then-promote →
    /// retire (`arg0` = shard, `arg1` = the epoch the standby promoted
    /// to). A span on the old primary.
    Handoff,
    /// First client request served after a promotion (`arg0` = shard,
    /// `arg1` = epoch) — the recovery-latency endpoint.
    FirstGrant,
    /// The stall watchdog found a sync op over budget (`arg0` = age µs,
    /// `arg1` = budget µs; `op` = the stuck operation).
    Stall,
    /// Anything else (tests, applications).
    Other,
}

impl EventKind {
    /// Stable short name (Chrome-trace event name, report key).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::LockWait => "lock-wait",
            EventKind::LockHold => "lock-hold",
            EventKind::LockRelease => "lock-release",
            EventKind::Barrier => "barrier",
            EventKind::DiffScan => "diff-scan",
            EventKind::TagBuild => "tag-build",
            EventKind::Pack => "pack",
            EventKind::Unpack => "unpack",
            EventKind::Convert => "convert",
            EventKind::MsgSend => "msg-send",
            EventKind::MsgRecv => "msg-recv",
            EventKind::Retransmit => "retransmit",
            EventKind::FaultDrop => "fault-drop",
            EventKind::FaultDup => "fault-dup",
            EventKind::FaultReorder => "fault-reorder",
            EventKind::LeaseExpired => "lease-expired",
            EventKind::ShardKill => "shard-kill",
            EventKind::Promote => "promote",
            EventKind::Fence => "fence",
            EventKind::Handoff => "handoff",
            EventKind::FirstGrant => "first-grant",
            EventKind::Stall => "stall",
            EventKind::Other => "other",
        }
    }

    /// Chrome-trace category, used to colour-group tracks.
    pub const fn category(self) -> &'static str {
        match self {
            EventKind::LockWait
            | EventKind::LockHold
            | EventKind::LockRelease
            | EventKind::Barrier => "sync",
            EventKind::DiffScan
            | EventKind::TagBuild
            | EventKind::Pack
            | EventKind::Unpack
            | EventKind::Convert => "share",
            EventKind::MsgSend | EventKind::MsgRecv => "net",
            EventKind::Retransmit
            | EventKind::FaultDrop
            | EventKind::FaultDup
            | EventKind::FaultReorder
            | EventKind::LeaseExpired
            | EventKind::Stall => "fault",
            EventKind::ShardKill
            | EventKind::Promote
            | EventKind::Fence
            | EventKind::Handoff
            | EventKind::FirstGrant => "failover",
            EventKind::Other => "misc",
        }
    }
}

/// One recorded event. Timestamps are microseconds since the recorder's
/// epoch; `dur_us == 0` marks an instant event. `(t_us, seq)` is the
/// order [`crate::Recorder::events`] returns, a causal one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Rank the event happened on (home = 0, workers = 1..).
    pub rank: u32,
    /// Event taxonomy entry.
    pub kind: EventKind,
    /// Start time, µs since the recorder epoch.
    pub t_us: u64,
    /// Duration in µs (0 for instants).
    pub dur_us: u64,
    /// First argument (see [`EventKind`] docs for the meaning per kind).
    pub arg0: u64,
    /// Second argument.
    pub arg1: u64,
    /// Free-form static qualifier (e.g. the message kind label).
    pub label: &'static str,
    /// Global record sequence: the order the recorder took events in,
    /// across every rank (0 for an event built by hand).
    pub seq: u64,
    /// Flow id binding a `MsgSend` to its `MsgRecv` (0 = no flow).
    pub flow: u64,
    /// The sync operation this event happened on behalf of.
    pub op: OpCtx,
}

impl Default for Event {
    fn default() -> Self {
        Event {
            rank: 0,
            kind: EventKind::Other,
            t_us: 0,
            dur_us: 0,
            arg0: 0,
            arg1: 0,
            label: "",
            seq: 0,
            flow: 0,
            op: OpCtx::default(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}us r{}] {:<17} dur={}us arg0={} arg1={} {}",
            self.t_us,
            self.rank,
            self.kind.name(),
            self.dur_us,
            self.arg0,
            self.arg1,
            self.label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [EventKind; 23] = [
        EventKind::LockWait,
        EventKind::LockHold,
        EventKind::LockRelease,
        EventKind::Barrier,
        EventKind::DiffScan,
        EventKind::TagBuild,
        EventKind::Pack,
        EventKind::Unpack,
        EventKind::Convert,
        EventKind::MsgSend,
        EventKind::MsgRecv,
        EventKind::Retransmit,
        EventKind::FaultDrop,
        EventKind::FaultDup,
        EventKind::FaultReorder,
        EventKind::LeaseExpired,
        EventKind::ShardKill,
        EventKind::Promote,
        EventKind::Fence,
        EventKind::Handoff,
        EventKind::FirstGrant,
        EventKind::Stall,
        EventKind::Other,
    ];

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in ALL {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert!(!k.category().is_empty());
        }
    }

    #[test]
    fn display_is_compact() {
        let e = Event {
            rank: 2,
            kind: EventKind::DiffScan,
            t_us: 10,
            dur_us: 5,
            arg0: 64,
            ..Default::default()
        };
        let s = e.to_string();
        assert!(s.contains("diff-scan"));
        assert!(s.contains("r2"));
    }

    #[test]
    fn op_ctx_defaults_to_unattributed() {
        let op = OpCtx::default();
        assert!(!op.is_some());
        assert_eq!(op.to_string(), "unattributed");
        let b = OpCtx {
            kind: OpKind::Barrier,
            id: 3,
            epoch: 7,
            origin: 1,
        };
        assert!(b.is_some());
        assert_eq!(b.to_string(), "barrier 3 epoch 7 (rank 1)");
    }

    #[test]
    fn op_kind_names_are_unique() {
        let kinds = [
            OpKind::None,
            OpKind::Lock,
            OpKind::Unlock,
            OpKind::Barrier,
            OpKind::Cond,
            OpKind::Join,
            OpKind::Handoff,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k.name()));
        }
    }
}
