//! DSD protocol messages.
//!
//! The four primitives of paper §4 — `MTh_lock(index, rank)`,
//! `MTh_unlock(index, rank)`, `MTh_barrier(index, rank)`, `MTh_join()` —
//! plus the grant/ack/release replies of Figure 5, a `Resync` notice sent
//! by a freshly migrated thread (its new node's copy is cold), and the
//! final `Shutdown`. Updates ride inside messages as CGT-RMR wire batches.
//!
//! Two things ride *behind* a message body as bare 20-byte
//! `(entry, first, count)` rows, none of them costing a byte when there
//! is nothing to say: a grant's or release's **notices** (ranges that
//! changed and were not shipped — the reader fetches them before use)
//! follow its update batch, and a client's **interest report** (ranges it
//! has newly read) follows the body of whatever request it sends next —
//! part of the request as relayed to a replica, not of any one variant.
//!
//! Threads are identified by a stable *thread rank* independent of the
//! transport endpoint, so a thread keeps its identity when it migrates.

use crate::runs::UpdateRange;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_net::message::MsgKind;
use hdsm_tags::wire::{bounded_vec, split_batch, UpdateBatch, WireError};
use std::fmt;

/// Bytes of one `(entry, first, count)` row.
const RANGE_BYTES: usize = 4 + 8 + 8;

/// A decoded DSD protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum DsdMsg {
    /// Thread `rank` requests mutex `lock`.
    LockRequest {
        /// Mutex index.
        lock: u32,
        /// Requesting thread rank.
        rank: u32,
    },
    /// Home grants mutex `lock`; `updates` are the outstanding updates the
    /// acquirer has not yet seen (paper §4.1).
    LockGrant {
        /// Mutex index.
        lock: u32,
        /// Outstanding updates, for what the acquirer has read.
        updates: UpdateBatch,
        /// Ranges that changed too and were not shipped: stale at the
        /// acquirer until it fetches them ([`DsdMsg::RangeFetch`]).
        notices: Vec<UpdateRange>,
    },
    /// Thread `rank` releases mutex `lock`, propagating its updates back
    /// to the home thread (paper §4.2).
    UnlockRequest {
        /// Mutex index.
        lock: u32,
        /// Releasing thread rank.
        rank: u32,
        /// The thread's modifications since acquire.
        updates: UpdateBatch,
    },
    /// Home acknowledges the release.
    UnlockAck {
        /// Mutex index.
        lock: u32,
    },
    /// Thread `rank` enters barrier `barrier`, releasing its updates.
    BarrierEnter {
        /// Barrier index.
        barrier: u32,
        /// Entering thread rank.
        rank: u32,
        /// The thread's modifications since its last release.
        updates: UpdateBatch,
    },
    /// Home releases a thread from the barrier with merged updates.
    BarrierRelease {
        /// Barrier index.
        barrier: u32,
        /// Merged outstanding updates for this thread.
        updates: UpdateBatch,
        /// Ranges that changed too and were not shipped.
        notices: Vec<UpdateRange>,
    },
    /// Thread `rank` signs off (called immediately before termination).
    Join {
        /// Joining thread rank.
        rank: u32,
    },
    /// `MTh_cond_wait(cond, lock, rank)`: atomically release mutex `lock`
    /// (propagating `updates`) and sleep on condition `cond`; the reply is
    /// a [`DsdMsg::LockGrant`] once signalled and the mutex re-acquired —
    /// the distributed analogue of `pthread_cond_wait`.
    CondWait {
        /// Condition variable index.
        cond: u32,
        /// Mutex to release and later re-acquire.
        lock: u32,
        /// Waiting thread rank.
        rank: u32,
        /// The thread's modifications since acquire (its release).
        updates: UpdateBatch,
    },
    /// `MTh_cond_signal` / `MTh_cond_broadcast`: wake one (or all) waiters
    /// of condition `cond`. Fire-and-forget, like its Pthreads
    /// counterpart.
    CondSignal {
        /// Condition variable index.
        cond: u32,
        /// Signalling thread rank.
        rank: u32,
        /// Wake all waiters instead of one.
        broadcast: bool,
    },
    /// A migrated thread announces that its local copy is cold and must be
    /// fully refreshed at its next acquire.
    Resync {
        /// Thread rank that migrated.
        rank: u32,
    },
    /// Generic acknowledgement. The reliability layer uses it as the reply
    /// to requests that have no richer answer (`CondSignal`, `Resync`,
    /// `Join`), so every request/reply pair can be retried idempotently.
    Ack,
    /// Liveness heartbeat from thread `rank`; refreshes its lease at the
    /// home service. No reply.
    Heartbeat {
        /// Thread rank asserting liveness.
        rank: u32,
    },
    /// The home service declared thread `rank` dead (lease expired). Sent
    /// instead of a grant/release that can never come, so survivors fail
    /// fast instead of hanging. Carries the forensic context of the
    /// expiry: how long ago the home last heard from the rank, and the
    /// lease it blew through (both 0 when unknown).
    WorkerLost {
        /// The dead thread's rank.
        rank: u32,
        /// Milliseconds since the home last heard from the rank.
        heard_ms: u64,
        /// The lease duration (ms) that expired.
        lease_ms: u64,
    },
    /// Home tells everyone the program is over (maps to `pthread_join`
    /// completing at the home node).
    Shutdown,
    /// Release-time fan-out under a sharded home: thread `rank` pushes the
    /// updates owned by a *non-coordinating* shard before it sends the
    /// release itself to the owning/coordinating shard. Replied to with
    /// [`DsdMsg::Ack`]; the ack must arrive before the release is sent so
    /// the next acquirer's fetch observes these updates.
    UpdateFlush {
        /// Flushing thread rank.
        rank: u32,
        /// Updates for entries this shard owns.
        updates: UpdateBatch,
    },
    /// Acquire-time pull under a sharded home: thread `rank` asks a
    /// non-granting shard for the outstanding updates of its slice.
    UpdateFetch {
        /// Fetching thread rank.
        rank: u32,
    },
    /// Reply to [`DsdMsg::UpdateFetch`]: the outstanding updates of this
    /// shard's slice since the fetcher's horizon.
    UpdateBatch {
        /// Outstanding updates.
        updates: UpdateBatch,
        /// Ranges that changed too and were not shipped (always empty in
        /// the reply to a [`DsdMsg::RangeFetch`]).
        notices: Vec<UpdateRange>,
    },
    /// Fetch before use: thread `rank` is about to access `ranges`, which
    /// a notice told it are stale, and asks their owning shard for the
    /// current bytes. Replied to with [`DsdMsg::UpdateBatch`] extracted
    /// from the authoritative copy — possibly newer than the acquire that
    /// brought the notice required, which only a racy program can tell —
    /// or with [`DsdMsg::EntryMoved`] when an entry is homed elsewhere by
    /// now. The fetcher's horizon does not move.
    RangeFetch {
        /// Fetching thread rank.
        rank: u32,
        /// The ranges to extract.
        ranges: Vec<UpdateRange>,
    },
    /// Primary → replica: one deduplicated state-mutating client request,
    /// relayed verbatim *before* the primary processes it, so the replica
    /// replays the identical sequence against its shadow state. Lease
    /// expiries travel the same stream as a relayed [`DsdMsg::WorkerLost`]
    /// body (`req_id` 0), so the replica never has to re-derive
    /// timing-dependent decisions; a handoff travels it as a relayed
    /// [`DsdMsg::HandoffRequest`].
    Replicate {
        /// Endpoint the original request arrived from (route seed).
        src_ep: u32,
        /// The original request id (dedup/reply-cache replay key).
        req_id: u64,
        /// The original transport kind, as its raw `u16`.
        kind: u16,
        /// The original message body (envelope stripped).
        body: Bytes,
    },
    /// Replica → old primary after promotion: epoch `epoch` now rules
    /// `shard`; the receiver must fence itself. Retried until
    /// [`DsdMsg::DeposeAck`] (or the primary's endpoint is gone).
    Depose {
        /// Shard being taken over.
        shard: u32,
        /// The promoted replica's epoch.
        epoch: u32,
    },
    /// Deposed primary → replica: fencing acknowledged.
    DeposeAck {
        /// Shard.
        shard: u32,
        /// Acknowledged epoch.
        epoch: u32,
    },
    /// Fenced shard → client: this endpoint no longer serves `shard`;
    /// re-resolve to the shard's other endpoint and retry the same
    /// request under `epoch`.
    ViewChange {
        /// Shard the request addressed.
        shard: u32,
        /// The epoch now ruling the shard.
        epoch: u32,
    },
    /// Admin → primary: drain `shard` and hand it to its replica. The
    /// fenced primary relays it to the replica as a decision of its own
    /// (`req_id` 0), where it orders the promotion: the replica meets it
    /// after replaying every frame relayed before it.
    HandoffRequest {
        /// Shard to drain.
        shard: u32,
    },
    /// Promoted replica → old primary: the relayed handoff was replayed,
    /// new epoch live.
    HandoffInstalled {
        /// Shard.
        shard: u32,
        /// Installed epoch.
        epoch: u32,
    },
    /// Primary → admin: handoff complete; the old shard is retiring.
    HandoffDone {
        /// Shard.
        shard: u32,
        /// The epoch the shard now serves under (at the replica).
        epoch: u32,
    },
    /// Replica → primary liveness beat on the replication link; lets the
    /// primary self-fence when the link is cut (split-brain guard).
    ReplicaBeat {
        /// Shard.
        shard: u32,
    },
    /// Admin → source shard: migrate the home of `entry` to `to_shard`
    /// (per-entry-grain handoff; the placement engine's actuator).
    EntryHandoff {
        /// Entry whose home moves.
        entry: u32,
        /// Shard that takes ownership.
        to_shard: u32,
    },
    /// Source shard → target shard: the entry's current contents (packed
    /// update batch), stamped with the entry's new ownership epoch so
    /// duplicated offers dedup at the target.
    EntryState {
        /// Entry being re-homed.
        entry: u32,
        /// Ownership epoch the target installs under.
        epoch: u32,
        /// Opaque snapshot (see `home::pack_entry_state`).
        state: Bytes,
    },
    /// Target shard → source shard: entry state installed; the target now
    /// owns the entry under `epoch`.
    EntryInstalled {
        /// Entry.
        entry: u32,
        /// Installed ownership epoch.
        epoch: u32,
    },
    /// Source shard → admin: re-homing of `entry` to `to_shard` complete.
    EntryDone {
        /// Entry.
        entry: u32,
        /// New owning shard.
        to_shard: u32,
    },
    /// Shard → client, replacing the `Ack` of an [`DsdMsg::UpdateFlush`]
    /// that named entries no longer homed here: each row is
    /// `(entry, owning shard, ownership epoch)`. The client re-buckets
    /// those updates and resends; nothing from the bounced flush was
    /// absorbed.
    EntryMoved {
        /// `(entry, to_shard, ownership_epoch)` rows, epoch-monotonic so
        /// a late duplicate never rolls a newer mapping back.
        entries: Vec<(u32, u32, u32)>,
    },
}

/// Protocol-level decode errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// Frame too short.
    Truncated,
    /// Message kind unknown / payload shape mismatch.
    BadMessage(&'static str),
    /// Embedded update batch failed to decode.
    Wire(WireError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "truncated protocol frame"),
            ProtocolError::BadMessage(s) => write!(f, "bad message: {s}"),
            ProtocolError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

/// Append `ranges` as bare `(entry, first, count)` rows.
fn put_ranges(out: &mut BytesMut, ranges: &[UpdateRange]) {
    for r in ranges {
        out.put_u32(r.entry);
        out.put_u64(r.first);
        out.put_u64(r.count);
    }
}

/// Read `(entry, first, count)` rows off the front of `b`: `count` of
/// them, or with `None` all that is left of it, which must then be whole
/// rows. What a row *names* is checked where it is used, against an index
/// table.
fn take_ranges(b: &mut Bytes, count: Option<u32>) -> Result<Vec<UpdateRange>, ProtocolError> {
    let left = b.remaining();
    if left == 0 && count.is_none_or(|n| n == 0) {
        return Ok(Vec::new()); // nearly every message: nothing rides behind
    }
    let n = match count {
        Some(n) => n,
        None if left.is_multiple_of(RANGE_BYTES) => (left / RANGE_BYTES) as u32,
        None => return Err(ProtocolError::Truncated),
    };
    let mut ranges = bounded_vec(n, RANGE_BYTES, left, ProtocolError::Truncated)?;
    for _ in 0..n {
        ranges.push(UpdateRange {
            entry: b.get_u32(),
            first: b.get_u64(),
            count: b.get_u64(),
        });
    }
    Ok(ranges)
}

impl DsdMsg {
    /// The transport kind this message travels under.
    pub fn kind(&self) -> MsgKind {
        match self {
            DsdMsg::LockRequest { .. } => MsgKind::LockRequest,
            DsdMsg::LockGrant { .. } => MsgKind::LockGrant,
            DsdMsg::UnlockRequest { .. } => MsgKind::UnlockRequest,
            DsdMsg::UnlockAck { .. } => MsgKind::UnlockAck,
            DsdMsg::BarrierEnter { .. } => MsgKind::BarrierEnter,
            DsdMsg::BarrierRelease { .. } => MsgKind::BarrierRelease,
            DsdMsg::Join { .. } => MsgKind::Join,
            DsdMsg::CondWait { .. } => MsgKind::CondWait,
            DsdMsg::CondSignal { .. } => MsgKind::CondSignal,
            DsdMsg::Resync { .. } => MsgKind::Resync,
            DsdMsg::Ack => MsgKind::Ack,
            DsdMsg::Heartbeat { .. } => MsgKind::Heartbeat,
            DsdMsg::WorkerLost { .. } => MsgKind::WorkerLost,
            DsdMsg::Shutdown => MsgKind::Shutdown,
            DsdMsg::UpdateFlush { .. } => MsgKind::UpdateFlush,
            DsdMsg::UpdateFetch { .. } => MsgKind::UpdateFetch,
            DsdMsg::UpdateBatch { .. } => MsgKind::UpdateBatch,
            DsdMsg::Replicate { .. } => MsgKind::Replicate,
            DsdMsg::Depose { .. } => MsgKind::Depose,
            DsdMsg::DeposeAck { .. } => MsgKind::DeposeAck,
            DsdMsg::ViewChange { .. } => MsgKind::ViewChange,
            DsdMsg::HandoffRequest { .. } => MsgKind::HandoffRequest,
            DsdMsg::HandoffInstalled { .. } => MsgKind::HandoffInstalled,
            DsdMsg::HandoffDone { .. } => MsgKind::HandoffDone,
            DsdMsg::ReplicaBeat { .. } => MsgKind::ReplicaBeat,
            DsdMsg::EntryHandoff { .. } => MsgKind::EntryHandoff,
            DsdMsg::EntryState { .. } => MsgKind::EntryState,
            DsdMsg::EntryInstalled { .. } => MsgKind::EntryInstalled,
            DsdMsg::EntryDone { .. } => MsgKind::EntryDone,
            DsdMsg::EntryMoved { .. } => MsgKind::EntryMoved,
            DsdMsg::RangeFetch { .. } => MsgKind::RangeFetch,
        }
    }

    /// Encode the message body: one buffer, sized before the first byte
    /// is written, into which the fixed fields and the update batch's
    /// frame (if any) are each copied once — this is the `t_pack` work
    /// left after extraction wrote the frame.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_bound());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// At least as many bytes as the envelope and body occupy: the
    /// variable-length tail exactly, the few fixed fields by their
    /// largest sum (`WorkerLost`'s 20) after a 12-byte envelope.
    fn encoded_bound(&self) -> usize {
        32 + match self {
            DsdMsg::LockGrant {
                updates, notices, ..
            }
            | DsdMsg::BarrierRelease {
                updates, notices, ..
            }
            | DsdMsg::UpdateBatch { updates, notices } => {
                updates.frame().len() + RANGE_BYTES * notices.len()
            }
            DsdMsg::UnlockRequest { updates, .. }
            | DsdMsg::BarrierEnter { updates, .. }
            | DsdMsg::CondWait { updates, .. }
            | DsdMsg::UpdateFlush { updates, .. } => updates.frame().len(),
            DsdMsg::RangeFetch { ranges, .. } => 4 + RANGE_BYTES * ranges.len(),
            DsdMsg::Replicate { body: tail, .. } | DsdMsg::EntryState { state: tail, .. } => {
                tail.len()
            }
            DsdMsg::EntryMoved { entries } => 4 + 12 * entries.len(),
            _ => 0,
        }
    }

    /// Append the message body to `out`.
    fn encode_into(&self, out: &mut BytesMut) {
        match self {
            DsdMsg::LockRequest { lock, rank } => {
                out.put_u32(*lock);
                out.put_u32(*rank);
            }
            DsdMsg::LockGrant {
                lock,
                updates,
                notices,
            } => {
                out.put_u32(*lock);
                out.put_slice(updates.frame());
                put_ranges(out, notices);
            }
            DsdMsg::UnlockRequest {
                lock,
                rank,
                updates,
            } => {
                out.put_u32(*lock);
                out.put_u32(*rank);
                out.put_slice(updates.frame());
            }
            DsdMsg::UnlockAck { lock } => out.put_u32(*lock),
            DsdMsg::BarrierEnter {
                barrier,
                rank,
                updates,
            } => {
                out.put_u32(*barrier);
                out.put_u32(*rank);
                out.put_slice(updates.frame());
            }
            DsdMsg::BarrierRelease {
                barrier,
                updates,
                notices,
            } => {
                out.put_u32(*barrier);
                out.put_slice(updates.frame());
                put_ranges(out, notices);
            }
            DsdMsg::Join { rank } | DsdMsg::Resync { rank } | DsdMsg::Heartbeat { rank } => {
                out.put_u32(*rank)
            }
            DsdMsg::WorkerLost {
                rank,
                heard_ms,
                lease_ms,
            } => {
                out.put_u32(*rank);
                out.put_u64(*heard_ms);
                out.put_u64(*lease_ms);
            }
            DsdMsg::CondWait {
                cond,
                lock,
                rank,
                updates,
            } => {
                out.put_u32(*cond);
                out.put_u32(*lock);
                out.put_u32(*rank);
                out.put_slice(updates.frame());
            }
            DsdMsg::CondSignal {
                cond,
                rank,
                broadcast,
            } => {
                out.put_u32(*cond);
                out.put_u32(*rank);
                out.put_u8(u8::from(*broadcast));
            }
            DsdMsg::UpdateFlush { rank, updates } => {
                out.put_u32(*rank);
                out.put_slice(updates.frame());
            }
            DsdMsg::UpdateFetch { rank } => out.put_u32(*rank),
            DsdMsg::UpdateBatch { updates, notices } => {
                out.put_slice(updates.frame());
                put_ranges(out, notices);
            }
            DsdMsg::RangeFetch { rank, ranges } => {
                out.put_u32(*rank);
                out.put_u32(ranges.len() as u32);
                put_ranges(out, ranges);
            }
            DsdMsg::Replicate {
                src_ep,
                req_id,
                kind,
                body,
            } => {
                out.put_u32(*src_ep);
                out.put_u64(*req_id);
                out.put_u16(*kind);
                out.put_slice(body);
            }
            DsdMsg::Depose { shard, epoch }
            | DsdMsg::DeposeAck { shard, epoch }
            | DsdMsg::ViewChange { shard, epoch }
            | DsdMsg::HandoffInstalled { shard, epoch }
            | DsdMsg::HandoffDone { shard, epoch } => {
                out.put_u32(*shard);
                out.put_u32(*epoch);
            }
            DsdMsg::HandoffRequest { shard } | DsdMsg::ReplicaBeat { shard } => out.put_u32(*shard),
            DsdMsg::EntryHandoff { entry, to_shard } | DsdMsg::EntryDone { entry, to_shard } => {
                out.put_u32(*entry);
                out.put_u32(*to_shard);
            }
            DsdMsg::EntryState {
                entry,
                epoch,
                state,
            } => {
                out.put_u32(*entry);
                out.put_u32(*epoch);
                out.put_slice(state);
            }
            DsdMsg::EntryInstalled { entry, epoch } => {
                out.put_u32(*entry);
                out.put_u32(*epoch);
            }
            DsdMsg::EntryMoved { entries } => {
                out.put_u32(entries.len() as u32);
                for (entry, to_shard, epoch) in entries {
                    out.put_u32(*entry);
                    out.put_u32(*to_shard);
                    out.put_u32(*epoch);
                }
            }
            DsdMsg::Ack | DsdMsg::Shutdown => {}
        }
    }

    /// Decode a payload received under `kind` — the `t_unpack` work. An
    /// update batch is validated once, here, and kept as the slice of
    /// `payload` it arrived in. Rows behind a request's body (an interest
    /// report) are not part of the message: [`Self::decode_reported`]
    /// returns them.
    pub fn decode(kind: MsgKind, payload: Bytes) -> Result<DsdMsg, ProtocolError> {
        Ok(DsdMsg::decode_reported(kind, payload)?.0)
    }

    /// [`Self::decode`] plus the interest report riding behind the body:
    /// what a home shard decodes a request with, as received or as relayed
    /// by its primary. Empty for every message that is not a client
    /// request (a reply's trailing rows are its notices, a field).
    pub fn decode_reported(
        kind: MsgKind,
        payload: Bytes,
    ) -> Result<(DsdMsg, Vec<UpdateRange>), ProtocolError> {
        let (msg, mut behind) = DsdMsg::take_message(kind, payload)?;
        Ok((msg, take_ranges(&mut behind, None)?))
    }

    /// Split the body of a `kind` message off the front of `payload`; what
    /// is behind it comes back too.
    fn take_message(kind: MsgKind, mut payload: Bytes) -> Result<(DsdMsg, Bytes), ProtocolError> {
        fn u32_of(b: &mut Bytes) -> Result<u32, ProtocolError> {
            if b.remaining() < 4 {
                return Err(ProtocolError::Truncated);
            }
            Ok(b.get_u32())
        }
        let msg = match kind {
            MsgKind::LockRequest => Ok(DsdMsg::LockRequest {
                lock: u32_of(&mut payload)?,
                rank: u32_of(&mut payload)?,
            }),
            MsgKind::LockGrant => Ok(DsdMsg::LockGrant {
                lock: u32_of(&mut payload)?,
                updates: split_batch(&mut payload)?,
                notices: take_ranges(&mut payload, None)?,
            }),
            MsgKind::UnlockRequest => Ok(DsdMsg::UnlockRequest {
                lock: u32_of(&mut payload)?,
                rank: u32_of(&mut payload)?,
                updates: split_batch(&mut payload)?,
            }),
            MsgKind::UnlockAck => Ok(DsdMsg::UnlockAck {
                lock: u32_of(&mut payload)?,
            }),
            MsgKind::BarrierEnter => Ok(DsdMsg::BarrierEnter {
                barrier: u32_of(&mut payload)?,
                rank: u32_of(&mut payload)?,
                updates: split_batch(&mut payload)?,
            }),
            MsgKind::BarrierRelease => Ok(DsdMsg::BarrierRelease {
                barrier: u32_of(&mut payload)?,
                updates: split_batch(&mut payload)?,
                notices: take_ranges(&mut payload, None)?,
            }),
            MsgKind::Join => Ok(DsdMsg::Join {
                rank: u32_of(&mut payload)?,
            }),
            MsgKind::CondWait => Ok(DsdMsg::CondWait {
                cond: u32_of(&mut payload)?,
                lock: u32_of(&mut payload)?,
                rank: u32_of(&mut payload)?,
                updates: split_batch(&mut payload)?,
            }),
            MsgKind::CondSignal => {
                let cond = u32_of(&mut payload)?;
                let rank = u32_of(&mut payload)?;
                if payload.remaining() < 1 {
                    return Err(ProtocolError::Truncated);
                }
                let broadcast = payload.get_u8() != 0;
                Ok(DsdMsg::CondSignal {
                    cond,
                    rank,
                    broadcast,
                })
            }
            MsgKind::Resync => Ok(DsdMsg::Resync {
                rank: u32_of(&mut payload)?,
            }),
            MsgKind::Ack => Ok(DsdMsg::Ack),
            MsgKind::Heartbeat => Ok(DsdMsg::Heartbeat {
                rank: u32_of(&mut payload)?,
            }),
            MsgKind::WorkerLost => {
                let rank = u32_of(&mut payload)?;
                if payload.remaining() < 16 {
                    return Err(ProtocolError::Truncated);
                }
                Ok(DsdMsg::WorkerLost {
                    rank,
                    heard_ms: payload.get_u64(),
                    lease_ms: payload.get_u64(),
                })
            }
            MsgKind::Shutdown => Ok(DsdMsg::Shutdown),
            MsgKind::UpdateFlush => Ok(DsdMsg::UpdateFlush {
                rank: u32_of(&mut payload)?,
                updates: split_batch(&mut payload)?,
            }),
            MsgKind::UpdateFetch => Ok(DsdMsg::UpdateFetch {
                rank: u32_of(&mut payload)?,
            }),
            MsgKind::UpdateBatch => Ok(DsdMsg::UpdateBatch {
                updates: split_batch(&mut payload)?,
                notices: take_ranges(&mut payload, None)?,
            }),
            MsgKind::RangeFetch => {
                let rank = u32_of(&mut payload)?;
                let n = u32_of(&mut payload)?;
                Ok(DsdMsg::RangeFetch {
                    rank,
                    ranges: take_ranges(&mut payload, Some(n))?,
                })
            }
            MsgKind::Replicate => {
                let src_ep = u32_of(&mut payload)?;
                if payload.remaining() < 10 {
                    return Err(ProtocolError::Truncated);
                }
                let req_id = payload.get_u64();
                let kind = payload.get_u16();
                Ok(DsdMsg::Replicate {
                    src_ep,
                    req_id,
                    kind,
                    body: payload.split_to(payload.len()),
                })
            }
            MsgKind::Depose => Ok(DsdMsg::Depose {
                shard: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
            }),
            MsgKind::DeposeAck => Ok(DsdMsg::DeposeAck {
                shard: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
            }),
            MsgKind::ViewChange => Ok(DsdMsg::ViewChange {
                shard: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
            }),
            MsgKind::HandoffRequest => Ok(DsdMsg::HandoffRequest {
                shard: u32_of(&mut payload)?,
            }),
            MsgKind::HandoffInstalled => Ok(DsdMsg::HandoffInstalled {
                shard: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
            }),
            MsgKind::HandoffDone => Ok(DsdMsg::HandoffDone {
                shard: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
            }),
            MsgKind::ReplicaBeat => Ok(DsdMsg::ReplicaBeat {
                shard: u32_of(&mut payload)?,
            }),
            MsgKind::EntryHandoff => Ok(DsdMsg::EntryHandoff {
                entry: u32_of(&mut payload)?,
                to_shard: u32_of(&mut payload)?,
            }),
            MsgKind::EntryState => Ok(DsdMsg::EntryState {
                entry: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
                state: payload.split_to(payload.len()),
            }),
            MsgKind::EntryInstalled => Ok(DsdMsg::EntryInstalled {
                entry: u32_of(&mut payload)?,
                epoch: u32_of(&mut payload)?,
            }),
            MsgKind::EntryDone => Ok(DsdMsg::EntryDone {
                entry: u32_of(&mut payload)?,
                to_shard: u32_of(&mut payload)?,
            }),
            MsgKind::EntryMoved => {
                let n = u32_of(&mut payload)?;
                let mut entries =
                    bounded_vec(n, 12, payload.remaining(), ProtocolError::Truncated)?;
                for _ in 0..n {
                    entries.push((
                        u32_of(&mut payload)?,
                        u32_of(&mut payload)?,
                        u32_of(&mut payload)?,
                    ));
                }
                Ok(DsdMsg::EntryMoved { entries })
            }
            _ => Err(ProtocolError::BadMessage("unexpected transport kind")),
        };
        Ok((msg?, payload))
    }

    /// The thread rank a client-originated message identifies itself with;
    /// `None` for home-originated messages. The home service keys its
    /// liveness and duplicate-suppression state on this.
    pub(crate) fn sender_rank(&self) -> Option<u32> {
        match self {
            DsdMsg::LockRequest { rank, .. }
            | DsdMsg::UnlockRequest { rank, .. }
            | DsdMsg::BarrierEnter { rank, .. }
            | DsdMsg::Join { rank }
            | DsdMsg::CondWait { rank, .. }
            | DsdMsg::CondSignal { rank, .. }
            | DsdMsg::Resync { rank }
            | DsdMsg::Heartbeat { rank }
            | DsdMsg::UpdateFlush { rank, .. }
            | DsdMsg::UpdateFetch { rank }
            | DsdMsg::RangeFetch { rank, .. } => Some(*rank),
            _ => None,
        }
    }

    /// Encode with the reliability envelope — the one request/reply codec:
    /// `req_id u64 | [epoch u32] | body | [interest rows]`. Replies echo
    /// the request's id so the client can match them up and discard stale
    /// duplicates; `0` is reserved for unsolicited messages (heartbeats,
    /// shutdown broadcasts). `epoch` is `Some` exactly when
    /// [`crate::directory::Directory::epoch_stamped`] says the frame
    /// carries a stamp: a home shard compares it against its own epoch to
    /// detect stale views (reply [`DsdMsg::ViewChange`]) and its own
    /// deposition (a stamp from the future means another epoch rules the
    /// shard). `interest` is the client's report of ranges it has newly
    /// read; empty (every reply, and a request with nothing new) adds no
    /// byte.
    pub fn encode_request(
        &self,
        req_id: u64,
        epoch: Option<u32>,
        interest: &[UpdateRange],
    ) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_bound() + RANGE_BYTES * interest.len());
        out.put_u64(req_id);
        if let Some(epoch) = epoch {
            out.put_u32(epoch);
        }
        self.encode_into(&mut out);
        put_ranges(&mut out, interest);
        out.freeze()
    }

    /// Decode what [`Self::encode_request`] wrote; `stamped` says whether
    /// an epoch follows the request id (the same
    /// [`crate::directory::Directory::epoch_stamped`] verdict the sender
    /// encoded under). Returns the request id, the stamp, the message and
    /// the interest report.
    #[allow(clippy::type_complexity)]
    pub fn decode_request(
        kind: MsgKind,
        mut payload: Bytes,
        stamped: bool,
    ) -> Result<(u64, Option<u32>, DsdMsg, Vec<UpdateRange>), ProtocolError> {
        if payload.remaining() < if stamped { 12 } else { 8 } {
            return Err(ProtocolError::Truncated);
        }
        let req_id = payload.get_u64();
        let epoch = stamped.then(|| payload.get_u32());
        let (msg, interest) = DsdMsg::decode_reported(kind, payload)?;
        Ok((req_id, epoch, msg, interest))
    }

    /// [`Self::encode_request`] without an epoch stamp: replies and the
    /// replication/admin control plane.
    pub fn encode_enveloped(&self, req_id: u64) -> Bytes {
        self.encode_request(req_id, None, &[])
    }

    /// Forwarder to [`Self::encode_enveloped`]; the flag is ignored (there
    /// is one batch format). It exists only because `benchmark/` is frozen
    /// between benchmark PRs and `benchmark/src/replay.rs` still calls this
    /// signature; the next benchmark PR switches that call and deletes
    /// this.
    #[doc(hidden)]
    pub fn encode_enveloped_mode(&self, req_id: u64, _fast: bool) -> Bytes {
        self.encode_enveloped(req_id)
    }

    /// [`Self::decode_request`] for an unstamped frame.
    pub fn decode_enveloped(kind: MsgKind, payload: Bytes) -> Result<(u64, DsdMsg), ProtocolError> {
        let (req_id, _, msg, _) = DsdMsg::decode_request(kind, payload, false)?;
        Ok((req_id, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_platform::endian::Endianness;
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_tags::generate::tag_for_scalar_run;
    use hdsm_tags::wire::reference::{batch_of, WireUpdate};

    fn sample_batch() -> UpdateBatch {
        batch_of(&[sample_update()])
    }

    fn sample_ranges() -> Vec<UpdateRange> {
        let range = |entry, first, count| UpdateRange {
            entry,
            first,
            count,
        };
        vec![
            range(3, 0, 100),
            range(3, 400, 1),
            range(7, u64::MAX - 1, 1),
        ]
    }

    fn sample_update() -> WireUpdate {
        WireUpdate {
            entry: 3,
            elem_offset: 100,
            endian: Endianness::Big,
            sender: "solaris-sparc".into(),
            tag: tag_for_scalar_run(ScalarKind::Int, 4, 8),
            data: Bytes::from(vec![1u8; 32]),
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let msgs = vec![
            DsdMsg::LockRequest { lock: 2, rank: 5 },
            DsdMsg::LockGrant {
                lock: 2,
                updates: sample_batch(),
                notices: vec![],
            },
            DsdMsg::LockGrant {
                lock: 2,
                updates: UpdateBatch::default(),
                notices: sample_ranges(),
            },
            DsdMsg::UnlockRequest {
                lock: 2,
                rank: 5,
                updates: sample_batch(),
            },
            DsdMsg::UnlockAck { lock: 2 },
            DsdMsg::BarrierEnter {
                barrier: 0,
                rank: 5,
                updates: UpdateBatch::default(),
            },
            DsdMsg::BarrierRelease {
                barrier: 0,
                updates: sample_batch(),
                notices: sample_ranges(),
            },
            DsdMsg::Join { rank: 5 },
            DsdMsg::CondWait {
                cond: 1,
                lock: 0,
                rank: 5,
                updates: sample_batch(),
            },
            DsdMsg::CondSignal {
                cond: 1,
                rank: 5,
                broadcast: true,
            },
            DsdMsg::Resync { rank: 5 },
            DsdMsg::Ack,
            DsdMsg::Heartbeat { rank: 5 },
            DsdMsg::WorkerLost {
                rank: 5,
                heard_ms: 31_000,
                lease_ms: 30_000,
            },
            DsdMsg::Shutdown,
            DsdMsg::UpdateFlush {
                rank: 5,
                updates: sample_batch(),
            },
            DsdMsg::UpdateFetch { rank: 5 },
            DsdMsg::UpdateBatch {
                updates: sample_batch(),
                notices: sample_ranges(),
            },
            DsdMsg::RangeFetch {
                rank: 5,
                ranges: sample_ranges(),
            },
            DsdMsg::RangeFetch {
                rank: 5,
                ranges: vec![],
            },
            DsdMsg::Replicate {
                src_ep: 7,
                req_id: 41,
                kind: MsgKind::LockRequest as u16,
                body: DsdMsg::LockRequest { lock: 2, rank: 5 }.encode(),
            },
            DsdMsg::Depose { shard: 1, epoch: 2 },
            DsdMsg::DeposeAck { shard: 1, epoch: 2 },
            DsdMsg::ViewChange { shard: 1, epoch: 2 },
            DsdMsg::HandoffRequest { shard: 1 },
            DsdMsg::HandoffInstalled { shard: 1, epoch: 2 },
            DsdMsg::HandoffDone { shard: 1, epoch: 2 },
            DsdMsg::ReplicaBeat { shard: 1 },
            DsdMsg::EntryHandoff {
                entry: 4,
                to_shard: 2,
            },
            DsdMsg::EntryState {
                entry: 4,
                epoch: 3,
                state: Bytes::from_static(b"packed-entry"),
            },
            DsdMsg::EntryInstalled { entry: 4, epoch: 3 },
            DsdMsg::EntryDone {
                entry: 4,
                to_shard: 2,
            },
            DsdMsg::EntryMoved {
                entries: vec![(4, 2, 3), (9, 0, 1)],
            },
            DsdMsg::EntryMoved { entries: vec![] },
        ];
        for m in msgs {
            let kind = m.kind();
            let bytes = m.encode();
            let back = DsdMsg::decode(kind, bytes).unwrap();
            assert_eq!(back, m);
            // And through the reliability envelope.
            let (req_id, back) = DsdMsg::decode_enveloped(kind, m.encode_enveloped(77)).unwrap();
            assert_eq!(req_id, 77);
            assert_eq!(back, m);
        }
    }

    #[test]
    fn grouped_batches_roundtrip_through_every_update_carrier() {
        // Many small same-entry updates — the shape the v2 grouped format
        // exists for — must survive every message that carries a batch.
        let updates: Vec<_> = (0..40u32)
            .map(|i| WireUpdate {
                elem_offset: u64::from(i) * 2,
                ..sample_update()
            })
            .collect();
        let updates = batch_of(&updates);
        assert_eq!(updates.len(), 40);
        let msgs = vec![
            DsdMsg::LockGrant {
                lock: 2,
                updates: updates.clone(),
                notices: sample_ranges(),
            },
            DsdMsg::UnlockRequest {
                lock: 2,
                rank: 5,
                updates: updates.clone(),
            },
            DsdMsg::BarrierEnter {
                barrier: 0,
                rank: 5,
                updates: updates.clone(),
            },
            DsdMsg::BarrierRelease {
                barrier: 0,
                updates: updates.clone(),
                notices: vec![],
            },
            DsdMsg::CondWait {
                cond: 1,
                lock: 0,
                rank: 5,
                updates: updates.clone(),
            },
            DsdMsg::UpdateFlush {
                rank: 5,
                updates: updates.clone(),
            },
            DsdMsg::UpdateBatch {
                updates,
                notices: sample_ranges(),
            },
        ];
        for m in msgs {
            let kind = m.kind();
            assert_eq!(DsdMsg::decode(kind, m.encode()).unwrap(), m);
            let (rid, back) = DsdMsg::decode_enveloped(kind, m.encode_enveloped(9)).unwrap();
            assert_eq!(rid, 9);
            assert_eq!(back, m);
        }
    }

    #[test]
    fn a_decoded_batch_is_a_slice_of_the_payload_it_came_in() {
        let m = DsdMsg::BarrierEnter {
            barrier: 0,
            rank: 5,
            updates: sample_batch(),
        };
        let payload = m.encode_enveloped(9);
        let (_, back) = DsdMsg::decode_enveloped(m.kind(), payload.clone()).unwrap();
        let DsdMsg::BarrierEnter { updates, .. } = back else {
            panic!("decoded {back:?}");
        };
        let frame = updates.frame();
        assert_eq!(
            frame.as_ptr(),
            payload[payload.len() - frame.len()..].as_ptr(),
            "the frame was copied out of the payload"
        );
    }

    #[test]
    fn removed_leniencies_are_rejected() {
        // No sender ships Resync under the catch-all kind, a WorkerLost
        // without its forensic tail or a count-prefixed batch.
        assert!(DsdMsg::decode(MsgKind::Other, DsdMsg::Resync { rank: 9 }.encode()).is_err());
        assert_eq!(
            DsdMsg::decode(
                MsgKind::LockGrant,
                Bytes::from_static(&[0, 0, 0, 2, 0, 0, 0, 0])
            ),
            Err(ProtocolError::Wire(WireError::BadHeader))
        );
        assert_eq!(
            DsdMsg::decode(MsgKind::WorkerLost, Bytes::from_static(&[0, 0, 0, 5])),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn epoch_envelope_roundtrips_and_detects_truncation() {
        let m = DsdMsg::LockRequest { lock: 2, rank: 5 };
        let bytes = m.encode_request(77, Some(3), &[]);
        let (rid, epoch, back, interest) = DsdMsg::decode_request(m.kind(), bytes, true).unwrap();
        assert_eq!((rid, epoch), (77, Some(3)));
        assert_eq!(back, m);
        assert!(interest.is_empty());
        assert_eq!(
            DsdMsg::decode_request(MsgKind::Join, Bytes::from_static(&[0; 11]), true),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn interest_rides_behind_any_request_and_through_the_relay() {
        let report = sample_ranges();
        let requests = vec![
            DsdMsg::LockRequest { lock: 2, rank: 5 },
            DsdMsg::UnlockRequest {
                lock: 2,
                rank: 5,
                updates: sample_batch(),
            },
            DsdMsg::BarrierEnter {
                barrier: 0,
                rank: 5,
                updates: UpdateBatch::default(),
            },
            DsdMsg::CondWait {
                cond: 1,
                lock: 0,
                rank: 5,
                updates: sample_batch(),
            },
            DsdMsg::CondSignal {
                cond: 1,
                rank: 5,
                broadcast: false,
            },
            DsdMsg::UpdateFlush {
                rank: 5,
                updates: sample_batch(),
            },
            DsdMsg::UpdateFetch { rank: 5 },
            DsdMsg::RangeFetch {
                rank: 5,
                ranges: sample_ranges(),
            },
            DsdMsg::Resync { rank: 5 },
            DsdMsg::Join { rank: 5 },
        ];
        for m in requests {
            for epoch in [None, Some(3)] {
                let wire = m.encode_request(77, epoch, &report);
                let (rid, stamp, back, interest) =
                    DsdMsg::decode_request(m.kind(), wire.clone(), epoch.is_some()).unwrap();
                assert_eq!((rid, stamp, &back, &interest), (77, epoch, &m, &report));
                // A primary relays the frame behind the envelope as it is;
                // its replica reads the same message and the same report.
                let body = wire.slice(if epoch.is_some() { 12 } else { 8 }..);
                assert_eq!(
                    DsdMsg::decode_reported(m.kind(), body.clone()).unwrap(),
                    (m.clone(), report.clone())
                );
                assert_eq!(DsdMsg::decode(m.kind(), body.clone()).unwrap(), m);
                // Rows are whole or the frame is refused.
                let ragged = body.slice(..body.len() - 1);
                assert!(DsdMsg::decode_reported(m.kind(), ragged).is_err());
            }
            // Nothing to report: the request as it always was.
            let plain = [&77u64.to_be_bytes()[..], &m.encode()[..]].concat();
            assert_eq!(m.encode_request(77, None, &[]), plain);
        }
    }

    #[test]
    fn a_reply_without_notices_is_the_reply_as_it_always_was() {
        let batch = sample_batch();
        let frame = batch.frame();
        let no_notices = Vec::new;
        let replies = [
            (
                DsdMsg::LockGrant {
                    lock: 2,
                    updates: batch.clone(),
                    notices: no_notices(),
                },
                [&2u32.to_be_bytes()[..], frame].concat(),
            ),
            (
                DsdMsg::BarrierRelease {
                    barrier: 1,
                    updates: batch.clone(),
                    notices: no_notices(),
                },
                [&1u32.to_be_bytes()[..], frame].concat(),
            ),
            (
                DsdMsg::UpdateBatch {
                    updates: batch.clone(),
                    notices: no_notices(),
                },
                frame.to_vec(),
            ),
        ];
        for (m, body) in replies {
            assert_eq!(m.encode(), body, "{m:?}");
            // And each notice is twenty bytes behind it.
            let mut noticed = m.clone();
            let (DsdMsg::LockGrant { notices, .. }
            | DsdMsg::BarrierRelease { notices, .. }
            | DsdMsg::UpdateBatch { notices, .. }) = &mut noticed
            else {
                unreachable!()
            };
            *notices = sample_ranges();
            assert_eq!(noticed.encode().len(), body.len() + 3 * 20);
            assert_eq!(&noticed.encode()[..body.len()], &body[..]);
        }
    }

    #[test]
    fn envelope_truncation_detected() {
        assert_eq!(
            DsdMsg::decode_enveloped(MsgKind::Ack, Bytes::from_static(&[0; 7])),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn truncation_detected() {
        assert_eq!(
            DsdMsg::decode(MsgKind::LockRequest, Bytes::from_static(&[0, 0])),
            Err(ProtocolError::Truncated)
        );
        assert!(DsdMsg::decode(MsgKind::LockGrant, Bytes::from_static(&[0, 0, 0, 1])).is_err());
    }

    #[test]
    fn a_kind_without_a_message_is_rejected_here() {
        assert!(matches!(
            DsdMsg::decode(MsgKind::Other, Bytes::new()),
            Err(ProtocolError::BadMessage(_))
        ));
    }
}
