//! DSD protocol messages.
//!
//! The four primitives of paper §4 — `MTh_lock(index, rank)`,
//! `MTh_unlock(index, rank)`, `MTh_barrier(index, rank)`, `MTh_join()` —
//! plus the grant/ack/release replies of Figure 5, a `Resync` notice sent
//! by a freshly migrated thread (its new node's copy is cold), and the
//! final `Shutdown`. Updates ride inside messages as CGT-RMR wire batches.
//!
//! **A message's layout lives in one place: its row of the table below.**
//! A row is the variant with its docs, travelling under the [`MsgKind`] of
//! the same name; `: client` if a worker sends it to a home (such a row
//! names its sender in a `rank` field); and its fields in wire order, each
//! written and read by the codec of its type or by the one named after
//! `as`. The table expands into [`DsdMsg`] and everything that walks its
//! variants — `kind`, the exact size bound, the encoder, the decoder, the
//! sender's rank and `is_client_request` — so adding or removing a message
//! is one row. A codec is ordinary code, one small impl per wire type. Only
//! the count-prefixed codec reads a count off the wire, and it reserves
//! nothing before [`bounded_vec`] has held the count to the bytes left.
//!
//! Two things ride *behind* a message body as bare 20-byte
//! `(entry, first, count)` rows, none of them costing a byte when there
//! is nothing to say: a grant's or release's **notices** (ranges that
//! changed and were not shipped — the reader fetches them before use)
//! follow its update batch, and a client's [`Report`] follows the body of
//! whatever request it sends next — part of the request as relayed to a
//! replica, not of any one variant. A report is the ranges the client has
//! newly read (its **interest**) and, behind a barrier entry, the ranges
//! it wrote and **holds** (rows whose entry has [`HELD_ROW`] set).
//!
//! Threads are identified by a stable *thread rank* independent of the
//! transport endpoint, so a thread keeps its identity when it migrates.

use crate::runs::UpdateRange;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_net::message::MsgKind;
use hdsm_platform::endian::Endianness;
use hdsm_platform::scalar::ScalarKind;
use hdsm_tags::generate::tag_for_scalar_run;
use hdsm_tags::wire::reference::{batch_of, WireUpdate};
use hdsm_tags::wire::{bounded_vec, split_batch, UpdateBatch, WireError};
use std::fmt;

/// Expands the message table into [`DsdMsg`], its walks and
/// [`is_client_request`]; see the module docs for a row's syntax.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $name:ident $(: $client:ident)? $({
            $($(#[$field_doc:meta])* $field:ident: $ty:ty $(as $codec:ty)?,)*
        })?,
    )*) => {
        /// A decoded DSD protocol message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum DsdMsg {
            $($(#[$doc])* $name $({ $($(#[$field_doc])* $field: $ty,)* })?,)*
        }

        impl DsdMsg {
            /// The transport kind this message travels under: the one of
            /// its name.
            pub fn kind(&self) -> MsgKind {
                match self {
                    $(DsdMsg::$name { .. } => MsgKind::$name,)*
                }
            }

            /// Exactly the bytes of the body: the sum of its fields'.
            fn encoded_bound(&self) -> usize {
                match self {
                    $(DsdMsg::$name { $($($field,)*)? } => {
                        0 $($(+ <codec!($ty $(as $codec)?) as Codec<$ty>>::bound($field))*)?
                    })*
                }
            }

            /// Append the message body to `out`, field by field.
            fn encode_into(&self, out: &mut BytesMut) {
                match self {
                    $(DsdMsg::$name { $($($field,)*)? } => {
                        $($(<codec!($ty $(as $codec)?) as Codec<$ty>>::put($field, out);)*)?
                    })*
                }
            }

            /// Split the body of a `kind` message off the front of
            /// `payload`; what is behind it comes back too.
            fn take_message(
                kind: MsgKind,
                mut payload: Bytes,
            ) -> Result<(DsdMsg, Bytes), ProtocolError> {
                let msg = match kind {
                    $(MsgKind::$name => DsdMsg::$name {
                        $($($field: <codec!($ty $(as $codec)?) as Codec<$ty>>::take(&mut payload)?,)*)?
                    },)*
                    _ => return Err(ProtocolError::BadMessage("unexpected transport kind")),
                };
                Ok((msg, payload))
            }

            /// The thread rank a client request identifies itself with;
            /// `None` for every other message. The home service keys its
            /// liveness and duplicate-suppression state on this.
            pub(crate) fn sender_rank(&self) -> Option<u32> {
                match self {
                    $($(DsdMsg::$name { rank, .. } => client!($client, Some(*rank)),)?)*
                    _ => None,
                }
            }

            /// Values of every variant, built from a few samples of each
            /// field type (empty and full row tables, extreme integers,
            /// batches of none, one and many updates, nested relays) — for
            /// round-trip and fuzz tests.
            #[doc(hidden)]
            pub fn samples() -> Vec<DsdMsg> {
                let mut all = Vec::new();
                $(
                    let n = 1usize $($(.max(<$ty as Sample>::samples().len()))*)?;
                    all.extend((0..n).map(|_i| DsdMsg::$name { $($($field: pick(_i),)*)? }));
                )*
                all
            }
        }

        /// Is `kind` a client request — a row marked `client`? These are
        /// the frames a home shard routes through its epoch check, relay
        /// and dedup path; everything else is a reply or the
        /// replication/admin control plane.
        pub(crate) fn is_client_request(kind: MsgKind) -> bool {
            match kind {
                $($(MsgKind::$name => client!($client, true),)?)*
                _ => false,
            }
        }

        /// Each row's kind and the types of its fields.
        #[cfg(test)]
        const ROWS: &[(MsgKind, &[&str])] = &[$((MsgKind::$name, &[$($(stringify!($ty),)*)?]),)*];
    };
}

/// The codec of a table field: its type's, or the one named after `as`.
macro_rules! codec {
    ($ty:ty as $codec:ty) => {
        $codec
    };
    ($ty:ty) => {
        $ty
    };
}

/// What a `client` row expands to; any other marker does not compile.
macro_rules! client {
    (client, $($then:tt)*) => {
        $($then)*
    };
}

messages! {
    /// Thread `rank` requests mutex `lock`.
    LockRequest: client {
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
        notices: Vec<UpdateRange> as Trailing,
    },
    /// Thread `rank` releases mutex `lock`, propagating its updates back
    /// to the home thread (paper §4.2).
    UnlockRequest: client {
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
    /// Thread `rank` enters barrier `barrier`, releasing its updates. The
    /// ranges it wrote and holds instead of shipping ride behind the body,
    /// in its [`Report`].
    BarrierEnter: client {
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
        /// What the thread ships at its next barrier entry: for each entry
        /// this shard owns, the ranges the other participants have
        /// reported reading (the whole entry if one of them never said).
        /// The rest of what it writes there it holds.
        ship: Vec<UpdateRange> as Counted,
        /// Ranges that changed too and were not shipped.
        notices: Vec<UpdateRange> as Trailing,
    },
    /// Thread `rank` signs off (called immediately before termination).
    Join: client {
        /// Joining thread rank.
        rank: u32,
        /// The current bytes of what it still holds of this shard's
        /// entries: applied where they are still held at it.
        updates: UpdateBatch,
    },
    /// `MTh_cond_wait(cond, lock, rank)`: atomically release mutex `lock`
    /// (propagating `updates`) and sleep on condition `cond`; the reply is
    /// a [`DsdMsg::LockGrant`] once signalled and the mutex re-acquired —
    /// the distributed analogue of `pthread_cond_wait`.
    CondWait: client {
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
    CondSignal: client {
        /// Condition variable index.
        cond: u32,
        /// Signalling thread rank.
        rank: u32,
        /// Wake all waiters instead of one.
        broadcast: bool,
    },
    /// A migrated thread announces that its local copy is cold and must be
    /// fully refreshed at its next acquire.
    Resync: client {
        /// Thread rank that migrated.
        rank: u32,
        /// The current bytes of what it held of this shard's entries,
        /// gathered before the copy went: applied where they are still
        /// held at it.
        updates: UpdateBatch,
    },
    /// Generic acknowledgement. The reliability layer uses it as the reply
    /// to requests that have no richer answer (`CondSignal`, `Resync`,
    /// `Join`), so every request/reply pair can be retried idempotently.
    Ack,
    /// Liveness heartbeat from thread `rank`; refreshes its lease at the
    /// home service. No reply.
    Heartbeat: client {
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
    UpdateFlush: client {
        /// Flushing thread rank.
        rank: u32,
        /// Updates for entries this shard owns.
        updates: UpdateBatch,
    },
    /// Acquire-time pull under a sharded home: thread `rank` asks a
    /// non-granting shard for the outstanding updates of its slice.
    UpdateFetch: client {
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
        notices: Vec<UpdateRange> as Trailing,
    },
    /// Fetch before use: thread `rank` is about to access `ranges`, which
    /// a notice told it are stale, and asks their owning shard for the
    /// current bytes. Replied to with [`DsdMsg::UpdateBatch`] extracted
    /// from the authoritative copy — possibly newer than the acquire that
    /// brought the notice required, which only a racy program can tell —
    /// or with [`DsdMsg::EntryMoved`] when an entry is homed elsewhere by
    /// now. The fetcher's horizon does not move.
    RangeFetch: client {
        /// Fetching thread rank.
        rank: u32,
        /// The ranges to extract.
        ranges: Vec<UpdateRange> as Counted,
    },
    /// Shard → writer: a reader is about to use `ranges`, which the
    /// writer holds (its copy alone has them current); send their bytes.
    /// Sent with request id 0 and again on idle ticks until they arrive;
    /// a client serves it in whatever blocking call it is in.
    HeldFetch {
        /// Whole held spans, as the shard records them.
        ranges: Vec<UpdateRange> as Counted,
    },
    /// Writer → shard: the bytes a [`DsdMsg::HeldFetch`] asked for,
    /// applied where they are still held at the writer. Never answered.
    HeldData: client {
        /// Writing thread rank.
        rank: u32,
        /// The id of the last request the writer sent before it served
        /// this. A shard that has handled a later request of the writer's
        /// drops the bytes: that request may have held the ranges anew.
        after: u64,
        /// The current bytes of the asked ranges.
        updates: UpdateBatch,
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
    /// update batch) and where its current copy is, stamped with the
    /// entry's new ownership epoch so duplicated offers dedup at the
    /// target.
    EntryState {
        /// Entry being re-homed.
        entry: u32,
        /// Ownership epoch the target installs under.
        epoch: u32,
        /// `(writer rank, first, count)`: what of the entry is held, and
        /// at whom.
        held: Vec<(u32, u64, u64)> as Counted,
        /// `(writer rank, first, count)`: what of the entry another wrote
        /// since the writer's horizon at the source. Until the writer pulls
        /// from the target, it is not held at the writer again.
        written: Vec<(u32, u64, u64)> as Counted,
        /// A fetch of the entry was forwarded: its writers ship it whole.
        forwarded: bool,
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
        entries: Vec<(u32, u32, u32)> as Counted,
    },
}

/// The entry bit that marks a row of a [`Report`] as held, not read. An
/// index table never has that many entries.
pub const HELD_ROW: u32 = 1 << 31;

/// What rides behind a client request's body, 20 bytes a row and nothing
/// when there is nothing to say: the rows of `interest` as they are, then
/// those of `held` with [`HELD_ROW`] set in their entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Ranges the client's read accessors returned that the shard has not
    /// been told of.
    pub interest: Vec<UpdateRange>,
    /// Behind a barrier entry: spans of what the client holds that its
    /// writes since its last release touched. Each is written, and current
    /// in the client's copy alone.
    pub held: Vec<UpdateRange>,
}

impl Report {
    /// Bytes of the rows.
    fn bytes(&self) -> usize {
        UpdateRange::BYTES * (self.interest.len() + self.held.len())
    }

    fn put(&self, out: &mut BytesMut) {
        self.interest.iter().for_each(|r| r.put_row(out));
        for r in &self.held {
            let marked = UpdateRange {
                entry: r.entry | HELD_ROW,
                ..*r
            };
            marked.put_row(out);
        }
    }

    /// Read the rows to the end of `b`, which must hold whole rows; a held
    /// row keeps its entry without the mark.
    fn take(b: &mut Bytes) -> Result<Report, ProtocolError> {
        if !b.remaining().is_multiple_of(UpdateRange::BYTES) {
            return Err(ProtocolError::Truncated);
        }
        let mut report = Report::default();
        while b.has_remaining() {
            let r = UpdateRange::get_row(b);
            if r.entry & HELD_ROW == 0 {
                report.interest.push(r);
            } else {
                if report.held.is_empty() {
                    // Held rows are the tail: this one and the rest.
                    report
                        .held
                        .reserve_exact(1 + b.remaining() / UpdateRange::BYTES);
                }
                report.held.push(UpdateRange {
                    entry: r.entry & !HELD_ROW,
                    ..r
                });
            }
        }
        Ok(report)
    }

    /// Whether no row rides.
    pub fn is_empty(&self) -> bool {
        self.interest.is_empty() && self.held.is_empty()
    }
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

/// How one field of the table is sized, written and read. `T` is the
/// field's type; the implementing type is its codec.
trait Codec<T> {
    /// Bytes `v` occupies on the wire.
    fn bound(v: &T) -> usize;
    /// Append `v` to `out`.
    fn put(v: &T, out: &mut BytesMut);
    /// Read a `T` off the front of `b`.
    fn take(b: &mut Bytes) -> Result<T, ProtocolError>;
}

/// `Truncated` unless `b` has `n` bytes left.
fn need(b: &Bytes, n: usize) -> Result<(), ProtocolError> {
    if b.remaining() < n {
        return Err(ProtocolError::Truncated);
    }
    Ok(())
}

impl Codec<u16> for u16 {
    fn bound(_: &u16) -> usize {
        2
    }
    fn put(v: &u16, out: &mut BytesMut) {
        out.put_u16(*v);
    }
    fn take(b: &mut Bytes) -> Result<u16, ProtocolError> {
        need(b, 2)?;
        Ok(b.get_u16())
    }
}

impl Codec<u32> for u32 {
    fn bound(_: &u32) -> usize {
        4
    }
    fn put(v: &u32, out: &mut BytesMut) {
        out.put_u32(*v);
    }
    fn take(b: &mut Bytes) -> Result<u32, ProtocolError> {
        need(b, 4)?;
        Ok(b.get_u32())
    }
}

impl Codec<u64> for u64 {
    fn bound(_: &u64) -> usize {
        8
    }
    fn put(v: &u64, out: &mut BytesMut) {
        out.put_u64(*v);
    }
    fn take(b: &mut Bytes) -> Result<u64, ProtocolError> {
        need(b, 8)?;
        Ok(b.get_u64())
    }
}

/// One byte; anything but 0 is `true`.
impl Codec<bool> for bool {
    fn bound(_: &bool) -> usize {
        1
    }
    fn put(v: &bool, out: &mut BytesMut) {
        out.put_u8(u8::from(*v));
    }
    fn take(b: &mut Bytes) -> Result<bool, ProtocolError> {
        need(b, 1)?;
        Ok(b.get_u8() != 0)
    }
}

/// The batch's frame, copied in once; read back, it is validated once and
/// kept as the slice of the payload it arrived in.
impl Codec<UpdateBatch> for UpdateBatch {
    fn bound(v: &UpdateBatch) -> usize {
        v.frame().len()
    }
    fn put(v: &UpdateBatch, out: &mut BytesMut) {
        out.put_slice(v.frame());
    }
    fn take(b: &mut Bytes) -> Result<UpdateBatch, ProtocolError> {
        Ok(split_batch(b)?)
    }
}

/// Everything left of the frame, as it is: a relayed body, a packed entry.
impl Codec<Bytes> for Bytes {
    fn bound(v: &Bytes) -> usize {
        v.len()
    }
    fn put(v: &Bytes, out: &mut BytesMut) {
        out.put_slice(v);
    }
    fn take(b: &mut Bytes) -> Result<Bytes, ProtocolError> {
        Ok(b.split_to(b.len()))
    }
}

/// A fixed-width row of a row table. What a row *names* is checked where
/// it is used, against an index table.
trait Row {
    /// Bytes of one row.
    const BYTES: usize;
    /// Append the row.
    fn put_row(&self, out: &mut BytesMut);
    /// Read a row; the caller has checked that `BYTES` are left.
    fn get_row(b: &mut Bytes) -> Self;
}

/// `(entry, first, count)`: a notice, a range to fetch, an interest row.
impl Row for UpdateRange {
    const BYTES: usize = 4 + 8 + 8;
    fn put_row(&self, out: &mut BytesMut) {
        out.put_u32(self.entry);
        out.put_u64(self.first);
        out.put_u64(self.count);
    }
    fn get_row(b: &mut Bytes) -> UpdateRange {
        UpdateRange {
            entry: b.get_u32(),
            first: b.get_u64(),
            count: b.get_u64(),
        }
    }
}

/// `(writer, first, count)`: who holds which elements of a moving entry.
impl Row for (u32, u64, u64) {
    const BYTES: usize = 4 + 8 + 8;
    fn put_row(&self, out: &mut BytesMut) {
        out.put_u32(self.0);
        out.put_u64(self.1);
        out.put_u64(self.2);
    }
    fn get_row(b: &mut Bytes) -> (u32, u64, u64) {
        (b.get_u32(), b.get_u64(), b.get_u64())
    }
}

/// `(entry, to_shard, ownership_epoch)`: where an entry went.
impl Row for (u32, u32, u32) {
    const BYTES: usize = 12;
    fn put_row(&self, out: &mut BytesMut) {
        out.put_u32(self.0);
        out.put_u32(self.1);
        out.put_u32(self.2);
    }
    fn get_row(b: &mut Bytes) -> (u32, u32, u32) {
        (b.get_u32(), b.get_u32(), b.get_u32())
    }
}

/// Rows to the end of the frame, which must hold whole rows; nothing is
/// counted, so nothing is read that could size a reservation.
struct Trailing;

impl<R: Row> Codec<Vec<R>> for Trailing {
    fn bound(v: &Vec<R>) -> usize {
        R::BYTES * v.len()
    }
    fn put(v: &Vec<R>, out: &mut BytesMut) {
        v.iter().for_each(|r| r.put_row(out));
    }
    fn take(b: &mut Bytes) -> Result<Vec<R>, ProtocolError> {
        if !b.remaining().is_multiple_of(R::BYTES) {
            return Err(ProtocolError::Truncated);
        }
        Ok((0..b.remaining() / R::BYTES)
            .map(|_| R::get_row(b))
            .collect())
    }
}

/// `count u32 | count rows`: the one codec that reads a count, and it
/// reserves nothing before [`bounded_vec`] has held the count to the bytes
/// left.
struct Counted;

impl<R: Row> Codec<Vec<R>> for Counted {
    fn bound(v: &Vec<R>) -> usize {
        4 + Trailing::bound(v)
    }
    fn put(v: &Vec<R>, out: &mut BytesMut) {
        out.put_u32(v.len() as u32);
        Trailing::put(v, out);
    }
    fn take(b: &mut Bytes) -> Result<Vec<R>, ProtocolError> {
        let n = <u32 as Codec<u32>>::take(b)?;
        let mut rows = bounded_vec(n, R::BYTES, b.remaining(), ProtocolError::Truncated)?;
        rows.extend((0..n).map(|_| R::get_row(b)));
        Ok(rows)
    }
}

/// A few values of a field type, for [`DsdMsg::samples`].
trait Sample: Sized + Clone {
    fn samples() -> Vec<Self>;
}

/// The `i`-th sample of `T`, counting round its samples.
fn pick<T: Sample>(i: usize) -> T {
    let samples = T::samples();
    samples[i % samples.len()].clone()
}

impl Sample for u16 {
    fn samples() -> Vec<u16> {
        vec![MsgKind::LockRequest as u16, MsgKind::Replicate as u16]
    }
}

impl Sample for u32 {
    fn samples() -> Vec<u32> {
        vec![5, 2, u32::MAX]
    }
}

impl Sample for u64 {
    fn samples() -> Vec<u64> {
        vec![31_000, 41, u64::MAX]
    }
}

impl Sample for bool {
    fn samples() -> Vec<bool> {
        vec![false, true]
    }
}

impl Sample for UpdateBatch {
    /// None, one, and many small same-entry updates: the shape the
    /// grouped format exists for.
    fn samples() -> Vec<UpdateBatch> {
        let update = |i: u64| WireUpdate {
            entry: 3,
            elem_offset: 2 * i,
            endian: Endianness::Big,
            sender: "solaris-sparc".into(),
            tag: tag_for_scalar_run(ScalarKind::Int, 4, 1),
            data: Bytes::from(vec![1u8; 4]),
        };
        let many: Vec<_> = (0..40).map(update).collect();
        vec![
            UpdateBatch::default(),
            batch_of(&[update(50)]),
            batch_of(&many),
        ]
    }
}

impl Sample for Vec<UpdateRange> {
    fn samples() -> Vec<Vec<UpdateRange>> {
        let range = |entry, first, count| UpdateRange {
            entry,
            first,
            count,
        };
        let rows = vec![
            range(3, 0, 100),
            range(3, 400, 1),
            range(7, u64::MAX - 1, 1),
        ];
        vec![Vec::new(), rows]
    }
}

impl Sample for Vec<(u32, u64, u64)> {
    fn samples() -> Vec<Vec<(u32, u64, u64)>> {
        vec![Vec::new(), vec![(2, 0, 100), (3, 400, u64::MAX - 400)]]
    }
}

impl Sample for Vec<(u32, u32, u32)> {
    fn samples() -> Vec<Vec<(u32, u32, u32)>> {
        vec![Vec::new(), vec![(4, 2, 3), (9, 0, 1)]]
    }
}

impl Sample for Bytes {
    /// Nothing, an opaque blob, and relayed bodies: a request, and a relay
    /// of it.
    fn samples() -> Vec<Bytes> {
        let lock = DsdMsg::LockRequest { lock: 2, rank: 5 }.encode();
        let relay = DsdMsg::Replicate {
            src_ep: 7,
            req_id: 41,
            kind: MsgKind::LockRequest as u16,
            body: lock.clone(),
        };
        vec![
            Bytes::new(),
            Bytes::from_static(b"packed-entry"),
            lock,
            relay.encode(),
        ]
    }
}

impl DsdMsg {
    /// Encode the message body: one buffer, sized exactly before the
    /// first byte is written, into which the fixed fields and the update
    /// batch's frame (if any) are each copied once — this is the `t_pack`
    /// work left after extraction wrote the frame.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_bound());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// Decode a payload received under `kind` — the `t_unpack` work. An
    /// update batch is validated once, here, and kept as the slice of
    /// `payload` it arrived in. Rows behind a request's body (its
    /// [`Report`]) are not part of the message: [`Self::decode_reported`]
    /// returns them.
    pub fn decode(kind: MsgKind, payload: Bytes) -> Result<DsdMsg, ProtocolError> {
        Ok(DsdMsg::decode_reported(kind, payload)?.0)
    }

    /// [`Self::decode`] plus the [`Report`] riding behind the body: what a
    /// home shard decodes a request with, as received or as relayed by its
    /// primary. Empty for every message that is not a client request (a
    /// reply's trailing rows are its notices, a field).
    pub fn decode_reported(
        kind: MsgKind,
        payload: Bytes,
    ) -> Result<(DsdMsg, Report), ProtocolError> {
        let (msg, mut behind) = DsdMsg::take_message(kind, payload)?;
        Ok((msg, Report::take(&mut behind)?))
    }

    /// Encode with the reliability envelope — the one request/reply codec:
    /// `req_id u64 | [epoch u32] | body | [report rows]`. Replies echo
    /// the request's id so the client can match them up and discard stale
    /// duplicates; `0` is reserved for unsolicited messages (heartbeats,
    /// shutdown broadcasts). `epoch` is `Some` exactly when
    /// [`crate::directory::Directory::epoch_stamped`] says the frame
    /// carries a stamp: a home shard compares it against its own epoch to
    /// detect stale views (reply [`DsdMsg::ViewChange`]) and its own
    /// deposition (a stamp from the future means another epoch rules the
    /// shard). `report` is what the client has newly read and, behind a
    /// barrier entry, what it holds; empty (every reply, and a request
    /// with nothing new) adds no byte.
    pub fn encode_request(&self, req_id: u64, epoch: Option<u32>, report: &Report) -> Bytes {
        let stamp = epoch.map_or(0, |_| 4);
        let mut out = BytesMut::with_capacity(8 + stamp + self.encoded_bound() + report.bytes());
        out.put_u64(req_id);
        if let Some(epoch) = epoch {
            out.put_u32(epoch);
        }
        self.encode_into(&mut out);
        report.put(&mut out);
        out.freeze()
    }

    /// Decode what [`Self::encode_request`] wrote; `stamped` says whether
    /// an epoch follows the request id (the same
    /// [`crate::directory::Directory::epoch_stamped`] verdict the sender
    /// encoded under). Returns the request id, the stamp, the message and
    /// the report.
    pub fn decode_request(
        kind: MsgKind,
        mut payload: Bytes,
        stamped: bool,
    ) -> Result<(u64, Option<u32>, DsdMsg, Report), ProtocolError> {
        if payload.remaining() < if stamped { 12 } else { 8 } {
            return Err(ProtocolError::Truncated);
        }
        let req_id = payload.get_u64();
        let epoch = stamped.then(|| payload.get_u32());
        let (msg, report) = DsdMsg::decode_reported(kind, payload)?;
        Ok((req_id, epoch, msg, report))
    }

    /// [`Self::encode_request`] without an epoch stamp: replies and the
    /// replication/admin control plane.
    pub fn encode_enveloped(&self, req_id: u64) -> Bytes {
        self.encode_request(req_id, None, &Report::default())
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

    fn sample_batch() -> UpdateBatch {
        UpdateBatch::samples().swap_remove(1)
    }

    fn sample_ranges() -> Vec<UpdateRange> {
        Vec::<UpdateRange>::samples().swap_remove(1)
    }

    /// Read rows and held rows, the held ones past the last real entry.
    fn sample_report() -> Report {
        let mut held = sample_ranges();
        held[2].entry = HELD_ROW - 1;
        Report {
            interest: sample_ranges(),
            held,
        }
    }

    /// The absolute byte layout of every message, bare and as a stamped
    /// request with a one-row interest report behind it. A round trip
    /// alone would pass a symmetric layout change; this hex changes only
    /// when the wire format does, on purpose.
    #[test]
    fn every_message_has_its_committed_layout() {
        let batch = batch_of(&[WireUpdate {
            entry: 3,
            elem_offset: 100,
            endian: Endianness::Big,
            sender: "s".into(),
            tag: tag_for_scalar_run(ScalarKind::Int, 4, 1),
            data: Bytes::from_static(&[1, 2, 3, 4]),
        }]);
        let row = |entry, first, count| UpdateRange {
            entry,
            first,
            count,
        };
        // `batch`'s frame: the marker, one group, its one run (element
        // 100) and the run's four payload bytes.
        const B: &str = "ffffffff00000001000100000000040000000301730000000100000000\
                         0000006400000001000000000000000401020304";
        // The empty batch: the marker and no group.
        const E: &str = "ffffffff00000000";
        let golden: [(DsdMsg, String); 33] = [
            (
                DsdMsg::LockRequest { lock: 2, rank: 5 },
                "0000000200000005".into(),
            ),
            (
                DsdMsg::LockGrant {
                    lock: 2,
                    updates: batch.clone(),
                    notices: vec![row(3, 400, 1)],
                },
                format!("00000002{B}0000000300000000000001900000000000000001"),
            ),
            (
                DsdMsg::UnlockRequest {
                    lock: 2,
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("0000000200000005{B}"),
            ),
            (DsdMsg::UnlockAck { lock: 2 }, "00000002".into()),
            (
                DsdMsg::BarrierEnter {
                    barrier: 1,
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("0000000100000005{B}"),
            ),
            (
                DsdMsg::BarrierRelease {
                    barrier: 1,
                    updates: batch.clone(),
                    ship: vec![row(3, 0, 100)],
                    notices: vec![],
                },
                format!("00000001{B}000000010000000300000000000000000000000000000064"),
            ),
            (
                DsdMsg::Join {
                    rank: 5,
                    updates: UpdateBatch::default(),
                },
                format!("00000005{E}"),
            ),
            (
                DsdMsg::CondWait {
                    cond: 1,
                    lock: 2,
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("000000010000000200000005{B}"),
            ),
            (
                DsdMsg::CondSignal {
                    cond: 1,
                    rank: 5,
                    broadcast: true,
                },
                "000000010000000501".into(),
            ),
            (
                DsdMsg::Resync {
                    rank: 5,
                    updates: UpdateBatch::default(),
                },
                format!("00000005{E}"),
            ),
            (DsdMsg::Ack, String::new()),
            (DsdMsg::Heartbeat { rank: 5 }, "00000005".into()),
            (
                DsdMsg::WorkerLost {
                    rank: 5,
                    heard_ms: 31_000,
                    lease_ms: 30_000,
                },
                "0000000500000000000079180000000000007530".into(),
            ),
            (DsdMsg::Shutdown, String::new()),
            (
                DsdMsg::UpdateFlush {
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("00000005{B}"),
            ),
            (DsdMsg::UpdateFetch { rank: 5 }, "00000005".into()),
            (
                DsdMsg::UpdateBatch {
                    updates: batch.clone(),
                    notices: vec![],
                },
                B.into(),
            ),
            (
                DsdMsg::RangeFetch {
                    rank: 5,
                    ranges: vec![row(3, 0, 100)],
                },
                "00000005000000010000000300000000000000000000000000000064".into(),
            ),
            (
                DsdMsg::HeldFetch {
                    ranges: vec![row(3, 0, 100)],
                },
                "000000010000000300000000000000000000000000000064".into(),
            ),
            (
                DsdMsg::HeldData {
                    rank: 5,
                    after: 41,
                    updates: batch.clone(),
                },
                format!("000000050000000000000029{B}"),
            ),
            (
                DsdMsg::Replicate {
                    src_ep: 7,
                    req_id: 41,
                    kind: MsgKind::LockRequest as u16,
                    body: DsdMsg::LockRequest { lock: 2, rank: 5 }.encode(),
                },
                "00000007000000000000002900010000000200000005".into(),
            ),
            (
                DsdMsg::Depose { shard: 1, epoch: 2 },
                "0000000100000002".into(),
            ),
            (
                DsdMsg::DeposeAck { shard: 1, epoch: 2 },
                "0000000100000002".into(),
            ),
            (
                DsdMsg::ViewChange { shard: 1, epoch: 2 },
                "0000000100000002".into(),
            ),
            (DsdMsg::HandoffRequest { shard: 1 }, "00000001".into()),
            (
                DsdMsg::HandoffInstalled { shard: 1, epoch: 2 },
                "0000000100000002".into(),
            ),
            (
                DsdMsg::HandoffDone { shard: 1, epoch: 2 },
                "0000000100000002".into(),
            ),
            (DsdMsg::ReplicaBeat { shard: 1 }, "00000001".into()),
            (
                DsdMsg::EntryHandoff {
                    entry: 4,
                    to_shard: 2,
                },
                "0000000400000002".into(),
            ),
            (
                DsdMsg::EntryState {
                    entry: 4,
                    epoch: 3,
                    held: vec![(5, 1, 2)],
                    written: vec![(6, 3, 1)],
                    forwarded: true,
                    state: Bytes::from_static(b"st"),
                },
                "000000040000000300000001000000050000000000000001000000000000000\
                 2000000010000000600000000000000030000000000000001\
                 01\
                 7374"
                    .into(),
            ),
            (
                DsdMsg::EntryInstalled { entry: 4, epoch: 3 },
                "0000000400000003".into(),
            ),
            (
                DsdMsg::EntryDone {
                    entry: 4,
                    to_shard: 2,
                },
                "0000000400000002".into(),
            ),
            (
                DsdMsg::EntryMoved {
                    entries: vec![(4, 2, 3)],
                },
                "00000001000000040000000200000003".into(),
            ),
        ];
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        // Request id 77 and epoch 3 ahead of the body, the row behind it.
        let head = "000000000000004d00000003";
        let tail = "00000007fffffffffffffffe0000000000000001";
        let report = Report {
            interest: vec![row(7, u64::MAX - 1, 1)],
            held: Vec::new(),
        };
        for (m, body) in golden {
            assert_eq!(hex(&m.encode()), body, "{m:?}");
            let wire = m.encode_request(77, Some(3), &report);
            assert_eq!(hex(&wire), format!("{head}{body}{tail}"), "{m:?}");
        }
        // A held row behind a barrier entry: its entry carries the mark.
        let enter = DsdMsg::BarrierEnter {
            barrier: 1,
            rank: 5,
            updates: batch,
        };
        let held = Report {
            interest: report.interest,
            held: vec![row(3, 400, 2)],
        };
        assert_eq!(
            hex(&enter.encode_request(77, Some(3), &held)),
            format!(
                "{head}0000000100000005{B}{tail}\
                 800000030000000000000190000000000000000\
                 2"
            )
        );
    }

    #[test]
    fn all_messages_roundtrip() {
        let all = DsdMsg::samples();
        for m in &all {
            let kind = m.kind();
            assert_eq!(m.sender_rank().is_some(), is_client_request(kind));
            // Each buffer is reserved to the exact byte, so none grew.
            let bare = m.encode();
            assert_eq!(bare.len(), m.encoded_bound(), "{m:?}");
            assert_eq!(&DsdMsg::decode(kind, bare).unwrap(), m);
            let (rid, back) = DsdMsg::decode_enveloped(kind, m.encode_enveloped(77)).unwrap();
            assert_eq!((rid, &back), (77, m));
            // A report rides behind a request only: the rows behind a
            // reply are its own.
            let report = if is_client_request(kind) {
                sample_report()
            } else {
                Report::default()
            };
            let wire = m.encode_request(77, Some(3), &report);
            assert_eq!(wire.len(), 12 + m.encoded_bound() + report.bytes());
            assert_eq!(
                DsdMsg::decode_request(kind, wire, true).unwrap(),
                (77, Some(3), m.clone(), report)
            );
        }
        // One row per kind but `Other`, every row generated, and a kind
        // carries updates exactly when its row has a batch.
        assert_eq!(ROWS.len(), MsgKind::ALL.len() - 1);
        for k in MsgKind::ALL.into_iter().filter(|&k| k != MsgKind::Other) {
            let rows: Vec<_> = ROWS.iter().filter(|(kind, _)| *kind == k).collect();
            assert_eq!(rows.len(), 1, "{k:?}");
            assert_eq!(k.carries_updates(), rows[0].1.contains(&"UpdateBatch"));
            assert!(all.iter().any(|m| m.kind() == k), "{k:?} generated");
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
        let resync = DsdMsg::Resync {
            rank: 9,
            updates: UpdateBatch::default(),
        };
        assert!(DsdMsg::decode(MsgKind::Other, resync.encode()).is_err());
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
        let bytes = m.encode_request(77, Some(3), &Report::default());
        let (rid, epoch, back, report) = DsdMsg::decode_request(m.kind(), bytes, true).unwrap();
        assert_eq!((rid, epoch), (77, Some(3)));
        assert_eq!(back, m);
        assert!(report.is_empty());
        assert_eq!(
            DsdMsg::decode_request(MsgKind::Join, Bytes::from_static(&[0; 11]), true),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn interest_rides_behind_any_request_and_through_the_relay() {
        let report = sample_report();
        let requests = DsdMsg::samples()
            .into_iter()
            .filter(|m| is_client_request(m.kind()));
        for m in requests {
            for epoch in [None, Some(3)] {
                let wire = m.encode_request(77, epoch, &report);
                let (rid, stamp, back, got) =
                    DsdMsg::decode_request(m.kind(), wire.clone(), epoch.is_some()).unwrap();
                assert_eq!((rid, stamp, &back, &got), (77, epoch, &m, &report));
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
            assert_eq!(m.encode_request(77, None, &Report::default()), plain);
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
                    ship: Vec::new(),
                    notices: no_notices(),
                },
                [&1u32.to_be_bytes()[..], frame, &[0; 4]].concat(),
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
