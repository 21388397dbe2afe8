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
//! is one row. A codec is ordinary code, one small impl per wire type.
//! Every integer, in a field, a row, a count or the envelope, is one
//! canonical varint of [`varint`], in the bytes its value needs; a decoder
//! refuses one that is overlong, not canonical or out of its field's
//! range. Only the count-prefixed codec reads a count off the wire, and it
//! reserves nothing before [`bounded_vec`] has held the count to the bytes
//! left.
//!
//! Two things ride *behind* a message body as bare `(entry, first,
//! count)` rows of three varints, none of them costing a byte when there
//! is nothing to say: a grant's or release's **notices** (ranges that
//! changed and were not shipped — the reader fetches them before use)
//! follow its update batch, and a client's [`Report`] follows the body of
//! whatever request it sends next — part of the request as relayed to a
//! replica, not of any one variant. A report is the ranges the client has
//! newly read (its **interest**) and, behind a barrier entry, the ranges
//! it wrote and **holds** (rows whose entry varint has its low bit set).
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
use hdsm_tags::wire::varint::{self, VarintError};
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

/// The bound on a [`Report`] row's entry: the row's first varint is the
/// entry shifted left by one, its low bit set for a held row, and must fit
/// a `u32`. An index table never has that many entries.
const HELD_ROW: u32 = 1 << 31;

/// What rides behind a client request's body, a few varint bytes a row
/// and nothing when there is nothing to say: the rows of `interest`, then
/// those of `held`, each held one marked by the low bit of its entry's
/// varint.
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
    /// Every row's fields, the held mark in the entry's low bit.
    fn rows(&self) -> impl Iterator<Item = [u64; 3]> + '_ {
        let interest = self.interest.iter().map(|r| (r, 0));
        interest
            .chain(self.held.iter().map(|r| (r, 1)))
            .map(|(r, held)| {
                debug_assert!(r.entry < HELD_ROW, "entry {} in a report", r.entry);
                [u64::from(r.entry) << 1 | held, r.first, r.count]
            })
    }

    /// Bytes of the rows.
    fn bytes(&self) -> usize {
        self.rows().map(fields_bytes).sum()
    }

    fn put(&self, out: &mut BytesMut) {
        self.rows().for_each(|f| put_fields(f, out));
    }

    /// Read the rows to the end of `b`, which must hold whole rows; a held
    /// row keeps its entry without the mark.
    fn take(b: &mut Bytes) -> Result<Report, ProtocolError> {
        let mut report = Report::default();
        while b.has_remaining() {
            // The marked entry fits a `u32`, so the entry is below `HELD_ROW`.
            let [marked, first, count] = take_fields(b, UpdateRange::MAX)?;
            let r = UpdateRange {
                entry: (marked >> 1) as u32,
                first,
                count,
            };
            if marked & 1 == 0 {
                report.interest.push(r);
            } else {
                if report.held.is_empty() {
                    // Held rows are the tail: this one and the rest.
                    report.held.reserve_exact(1 + b.remaining() / MIN_ROW_BYTES);
                }
                report.held.push(r);
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

impl From<VarintError> for ProtocolError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => ProtocolError::Truncated,
            VarintError::Invalid => ProtocolError::BadMessage("bad varint"),
        }
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

/// An unsigned field: a varint no larger than its type's maximum.
macro_rules! varint_codec {
    ($($ty:ty),*) => {$(
        impl Codec<$ty> for $ty {
            fn bound(v: &$ty) -> usize {
                varint::len((*v).into())
            }
            fn put(v: &$ty, out: &mut BytesMut) {
                varint::put(out, (*v).into());
            }
            fn take(b: &mut Bytes) -> Result<$ty, ProtocolError> {
                Ok(varint::get(b, <$ty>::MAX.into())? as $ty)
            }
        }
    )*};
}

varint_codec!(u16, u32, u64);

/// One byte; anything but 0 is `true`.
impl Codec<bool> for bool {
    fn bound(_: &bool) -> usize {
        1
    }
    fn put(v: &bool, out: &mut BytesMut) {
        out.put_u8(u8::from(*v));
    }
    fn take(b: &mut Bytes) -> Result<bool, ProtocolError> {
        if !b.has_remaining() {
            return Err(ProtocolError::Truncated);
        }
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

/// Fewest bytes a row takes: three one-byte varints.
const MIN_ROW_BYTES: usize = 3;

/// Bytes of a row's fields.
fn fields_bytes([a, b, c]: [u64; 3]) -> usize {
    varint::len(a) + varint::len(b) + varint::len(c)
}

/// Append a row's fields.
fn put_fields([a, b, c]: [u64; 3], out: &mut BytesMut) {
    varint::put(out, a);
    varint::put(out, b);
    varint::put(out, c);
}

/// Read a row's fields, each no larger than its `max`.
fn take_fields(b: &mut Bytes, max: [u64; 3]) -> Result<[u64; 3], ProtocolError> {
    let mut fields = [0; 3];
    for (v, max) in fields.iter_mut().zip(max) {
        *v = varint::get(b, max)?;
    }
    Ok(fields)
}

/// A row of a row table: three integers, each a varint. What a row
/// *names* is checked where it is used, against an index table.
trait Row: Sized {
    /// Each field's largest value.
    const MAX: [u64; 3];
    /// The row's fields in wire order.
    fn fields(&self) -> [u64; 3];
    /// The row of fields no larger than [`Self::MAX`].
    fn of(fields: [u64; 3]) -> Self;
}

/// `(entry, first, count)`: a notice, a range to fetch, an interest row.
impl Row for UpdateRange {
    const MAX: [u64; 3] = [u32::MAX as u64, u64::MAX, u64::MAX];
    fn fields(&self) -> [u64; 3] {
        [self.entry.into(), self.first, self.count]
    }
    fn of([entry, first, count]: [u64; 3]) -> UpdateRange {
        UpdateRange {
            entry: entry as u32,
            first,
            count,
        }
    }
}

/// `(writer, first, count)`: who holds which elements of a moving entry.
impl Row for (u32, u64, u64) {
    const MAX: [u64; 3] = [u32::MAX as u64, u64::MAX, u64::MAX];
    fn fields(&self) -> [u64; 3] {
        [self.0.into(), self.1, self.2]
    }
    fn of([writer, first, count]: [u64; 3]) -> (u32, u64, u64) {
        (writer as u32, first, count)
    }
}

/// `(entry, to_shard, ownership_epoch)`: where an entry went.
impl Row for (u32, u32, u32) {
    const MAX: [u64; 3] = [u32::MAX as u64; 3];
    fn fields(&self) -> [u64; 3] {
        [self.0.into(), self.1.into(), self.2.into()]
    }
    fn of([entry, shard, epoch]: [u64; 3]) -> (u32, u32, u32) {
        (entry as u32, shard as u32, epoch as u32)
    }
}

/// Rows to the end of the frame, which must hold whole rows; nothing is
/// counted, so nothing is read that could size a reservation beyond the
/// bytes left.
struct Trailing;

impl<R: Row> Codec<Vec<R>> for Trailing {
    fn bound(v: &Vec<R>) -> usize {
        v.iter().map(|r| fields_bytes(r.fields())).sum()
    }
    fn put(v: &Vec<R>, out: &mut BytesMut) {
        v.iter().for_each(|r| put_fields(r.fields(), out));
    }
    fn take(b: &mut Bytes) -> Result<Vec<R>, ProtocolError> {
        let mut rows = Vec::with_capacity(b.remaining() / MIN_ROW_BYTES);
        while b.has_remaining() {
            rows.push(R::of(take_fields(b, R::MAX)?));
        }
        Ok(rows)
    }
}

/// `count | count rows`: the one codec that reads a count, and it
/// reserves nothing before [`bounded_vec`] has held the count to the bytes
/// left.
struct Counted;

impl<R: Row> Codec<Vec<R>> for Counted {
    fn bound(v: &Vec<R>) -> usize {
        varint::len(v.len() as u64) + Trailing::bound(v)
    }
    fn put(v: &Vec<R>, out: &mut BytesMut) {
        varint::put(out, v.len() as u64);
        Trailing::put(v, out);
    }
    fn take(b: &mut Bytes) -> Result<Vec<R>, ProtocolError> {
        let n = <u32 as Codec<u32>>::take(b)?;
        let mut rows = bounded_vec(n, MIN_ROW_BYTES, b.remaining(), ProtocolError::Truncated)?;
        for _ in 0..n {
            rows.push(R::of(take_fields(b, R::MAX)?));
        }
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
    /// `req_id | [epoch] | body | [report rows]`, the id and the epoch as
    /// varints (`envelope_bytes` of them). Replies echo
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
        let mut out = BytesMut::with_capacity(
            DsdMsg::envelope_bytes(req_id, epoch) + self.encoded_bound() + report.bytes(),
        );
        <u64 as Codec<u64>>::put(&req_id, &mut out);
        if let Some(epoch) = epoch {
            <u32 as Codec<u32>>::put(&epoch, &mut out);
        }
        self.encode_into(&mut out);
        report.put(&mut out);
        out.freeze()
    }

    /// Bytes of the envelope ahead of a body: the request id's varint and
    /// the epoch's, if stamped. A decoded envelope took exactly these, as
    /// every varint read is canonical, so the body of a received frame
    /// starts there.
    pub(crate) fn envelope_bytes(req_id: u64, epoch: Option<u32>) -> usize {
        varint::len(req_id) + epoch.map_or(0, |e| varint::len(e.into()))
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
        let req_id = <u64 as Codec<u64>>::take(&mut payload)?;
        let epoch = match stamped {
            true => Some(<u32 as Codec<u32>>::take(&mut payload)?),
            false => None,
        };
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
            tag: tag_for_scalar_run(ScalarKind::Int, 4, 1),
            data: Bytes::from_static(&[1, 2, 3, 4]),
        }]);
        let row = |entry, first, count| UpdateRange {
            entry,
            first,
            count,
        };
        // `batch`'s frame: the marker, one group, its shape (big-endian,
        // four bytes), entry 3, one run (element 100, one element) and the
        // run's four payload bytes.
        const B: &str = "d501440301640101020304";
        // The empty batch: the marker and no group.
        const E: &str = "d500";
        let golden: [(DsdMsg, String); 33] = [
            (DsdMsg::LockRequest { lock: 2, rank: 5 }, "0205".into()),
            (
                DsdMsg::LockGrant {
                    lock: 2,
                    updates: batch.clone(),
                    notices: vec![row(3, 400, 1)],
                },
                format!("02{B}03900301"),
            ),
            (
                DsdMsg::UnlockRequest {
                    lock: 2,
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("0205{B}"),
            ),
            (DsdMsg::UnlockAck { lock: 2 }, "02".into()),
            (
                DsdMsg::BarrierEnter {
                    barrier: 1,
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("0105{B}"),
            ),
            (
                DsdMsg::BarrierRelease {
                    barrier: 1,
                    updates: batch.clone(),
                    ship: vec![row(3, 0, 100)],
                    notices: vec![],
                },
                format!("01{B}01030064"),
            ),
            (
                DsdMsg::Join {
                    rank: 5,
                    updates: UpdateBatch::default(),
                },
                format!("05{E}"),
            ),
            (
                DsdMsg::CondWait {
                    cond: 1,
                    lock: 2,
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("010205{B}"),
            ),
            (
                DsdMsg::CondSignal {
                    cond: 1,
                    rank: 5,
                    broadcast: true,
                },
                "010501".into(),
            ),
            (
                DsdMsg::Resync {
                    rank: 5,
                    updates: UpdateBatch::default(),
                },
                format!("05{E}"),
            ),
            (DsdMsg::Ack, String::new()),
            (DsdMsg::Heartbeat { rank: 5 }, "05".into()),
            (
                DsdMsg::WorkerLost {
                    rank: 5,
                    heard_ms: 31_000,
                    lease_ms: 30_000,
                },
                "0598f201b0ea01".into(),
            ),
            (DsdMsg::Shutdown, String::new()),
            (
                DsdMsg::UpdateFlush {
                    rank: 5,
                    updates: batch.clone(),
                },
                format!("05{B}"),
            ),
            (DsdMsg::UpdateFetch { rank: 5 }, "05".into()),
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
                "0501030064".into(),
            ),
            (
                DsdMsg::HeldFetch {
                    ranges: vec![row(3, 0, 100)],
                },
                "01030064".into(),
            ),
            (
                DsdMsg::HeldData {
                    rank: 5,
                    after: 41,
                    updates: batch.clone(),
                },
                format!("0529{B}"),
            ),
            (
                DsdMsg::Replicate {
                    src_ep: 7,
                    req_id: 41,
                    kind: MsgKind::LockRequest as u16,
                    body: DsdMsg::LockRequest { lock: 2, rank: 5 }.encode(),
                },
                "0729010205".into(),
            ),
            (DsdMsg::Depose { shard: 1, epoch: 2 }, "0102".into()),
            (DsdMsg::DeposeAck { shard: 1, epoch: 2 }, "0102".into()),
            (DsdMsg::ViewChange { shard: 1, epoch: 2 }, "0102".into()),
            (DsdMsg::HandoffRequest { shard: 1 }, "01".into()),
            (
                DsdMsg::HandoffInstalled { shard: 1, epoch: 2 },
                "0102".into(),
            ),
            (DsdMsg::HandoffDone { shard: 1, epoch: 2 }, "0102".into()),
            (DsdMsg::ReplicaBeat { shard: 1 }, "01".into()),
            (
                DsdMsg::EntryHandoff {
                    entry: 4,
                    to_shard: 2,
                },
                "0402".into(),
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
                "0403\
                 01050102\
                 01060301\
                 01\
                 7374"
                    .into(),
            ),
            (DsdMsg::EntryInstalled { entry: 4, epoch: 3 }, "0403".into()),
            (
                DsdMsg::EntryDone {
                    entry: 4,
                    to_shard: 2,
                },
                "0402".into(),
            ),
            (
                DsdMsg::EntryMoved {
                    entries: vec![(4, 2, 3)],
                },
                "01040203".into(),
            ),
        ];
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        // Request id 77 and epoch 3 ahead of the body, the row behind it:
        // entry 7 shifted past the held mark, a ten-byte first element and
        // a count of one.
        let head = "4d03";
        let tail = "0efeffffffffffffffff0101";
        let report = Report {
            interest: vec![row(7, u64::MAX - 1, 1)],
            held: Vec::new(),
        };
        for (m, body) in golden {
            assert_eq!(hex(&m.encode()), body, "{m:?}");
            let wire = m.encode_request(77, Some(3), &report);
            assert_eq!(hex(&wire), format!("{head}{body}{tail}"), "{m:?}");
        }
        // A held row behind a barrier entry: its entry's low bit is the
        // mark.
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
            format!("{head}0105{B}{tail}07900302")
        );
    }

    /// What a one-element release and the grant before it cost, field by
    /// field: the per-op bill of a lock kernel.
    #[test]
    fn a_one_element_release_and_an_empty_grant_pin_every_field() {
        let int_at = |entry, elem_offset| WireUpdate {
            entry,
            elem_offset,
            endian: Endianness::Big,
            tag: tag_for_scalar_run(ScalarKind::Int, 4, 1),
            data: Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
        };
        let release = DsdMsg::UnlockRequest {
            lock: 2,
            rank: 5,
            updates: batch_of(&[int_at(3, 100)]),
        };
        let fields: [(&str, &[u8]); 11] = [
            ("request id 300", &[0xac, 0x02]),
            ("lock 2", &[0x02]),
            ("rank 5", &[0x05]),
            ("batch marker", &[0xd5]),
            ("one group", &[0x01]),
            ("shape: big-endian, not a pointer, 4 bytes", &[0x44]),
            ("entry 3", &[0x03]),
            ("one run", &[0x01]),
            ("element 100", &[0x64]),
            ("one element", &[0x01]),
            ("payload", &[0xde, 0xad, 0xbe, 0xef]),
        ];
        let wire = release.encode_enveloped(300);
        let mut at = 0;
        for (what, bytes) in fields {
            assert_eq!(&wire[at..at + bytes.len()], bytes, "{what}");
            at += bytes.len();
        }
        // Seven bytes frame the four of the payload.
        assert_eq!(wire.len(), at);
        assert_eq!((wire.len(), release.encode().len()), (15, 13));

        let grant = DsdMsg::LockGrant {
            lock: 2,
            updates: UpdateBatch::default(),
            notices: Vec::new(),
        };
        let wire = grant.encode_enveloped(300);
        // Request id, lock, then the empty batch: marker and no group.
        assert_eq!(&wire[..], &[0xac, 0x02, 0x02, 0xd5, 0x00]);
        assert_eq!((wire.len(), grant.encode().len()), (5, 3));
    }

    /// A varint spelled longer than its value needs, longer than its type
    /// allows or above its field's range is refused wherever it stands:
    /// in the envelope, a field, a row, a count, a report and a batch.
    #[test]
    fn overlong_non_canonical_and_out_of_range_varints_are_refused() {
        let bad = ProtocolError::BadMessage("bad varint");
        let six = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let above_u32 = [0x80, 0x80, 0x80, 0x80, 0x10];
        let eleven = [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        let decode = |kind, parts: &[&[u8]]| DsdMsg::decode(kind, Bytes::from(parts.concat()));
        for lock in [&[0x82, 0x00][..], &six, &above_u32] {
            assert_eq!(
                decode(MsgKind::LockRequest, &[lock, &[5]]),
                Err(bad.clone())
            );
        }
        // `u64` fields: eleven bytes, and a trailing zero group.
        for heard in [&eleven[..], &[0xff, 0x80, 0x00]] {
            assert_eq!(
                decode(MsgKind::WorkerLost, &[&[5], heard, &[1]]),
                Err(bad.clone())
            );
        }
        // A relayed kind above `u16::MAX`.
        assert_eq!(
            decode(MsgKind::Replicate, &[&[7, 41], &[0x80, 0x80, 0x04]]),
            Err(bad.clone())
        );
        // A row count, a row's entry and a row's count.
        for rows in [
            &[0x81, 0x00, 3, 0, 1][..],
            &[1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 1],
        ] {
            assert_eq!(decode(MsgKind::RangeFetch, &[&[5], rows]), Err(bad.clone()));
        }
        assert_eq!(
            decode(MsgKind::HeldFetch, &[&[1, 3, 0], &eleven]),
            Err(bad.clone())
        );
        // A report row behind a request, and a notice behind a reply.
        assert_eq!(
            decode(MsgKind::Heartbeat, &[&[5, 6, 0x80, 0x00, 1]]),
            Err(bad.clone())
        );
        assert_eq!(
            decode(MsgKind::UpdateBatch, &[&[0xd5, 0], &above_u32, &[0, 1]]),
            Err(bad.clone())
        );
        // The envelope's request id and epoch.
        for envelope in [
            &eleven[..],
            &[77, 0x80, 0x00],
            &[77, 0x80, 0x80, 0x80, 0x80, 0x10],
        ] {
            let frame = Bytes::from([envelope, &[5][..]].concat());
            assert_eq!(
                DsdMsg::decode_request(MsgKind::Heartbeat, frame, true),
                Err(bad.clone())
            );
        }
        // Inside a batch, the wire's own refusal.
        let batch = [0xd5, 1, 0x44, 3, 1, 0xe4, 0x00, 1, 9, 9, 9, 9];
        assert_eq!(
            decode(MsgKind::UnlockRequest, &[&[2, 5], &batch]),
            Err(ProtocolError::Wire(WireError::BadHeader))
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
            let envelope = DsdMsg::envelope_bytes(77, Some(3));
            assert_eq!(wire.len(), envelope + m.encoded_bound() + report.bytes());
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
            DsdMsg::decode(MsgKind::WorkerLost, Bytes::from_static(&[5])),
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
        // Cut inside the request id, and before the stamp.
        for cut in [&[0x80][..], &[77]] {
            assert_eq!(
                DsdMsg::decode_request(MsgKind::Join, Bytes::copy_from_slice(cut), true),
                Err(ProtocolError::Truncated)
            );
        }
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
                let body = wire.slice(DsdMsg::envelope_bytes(77, epoch)..);
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
            let plain = [&[77][..], &m.encode()[..]].concat();
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
                [&[2][..], frame].concat(),
            ),
            (
                DsdMsg::BarrierRelease {
                    barrier: 1,
                    updates: batch.clone(),
                    ship: Vec::new(),
                    notices: no_notices(),
                },
                [&[1][..], frame, &[0]].concat(),
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
            // And the notices behind it: (3, 0, 100) in three bytes,
            // (3, 400, 1) in four and (7, u64::MAX - 1, 1) in twelve.
            let mut noticed = m.clone();
            let (DsdMsg::LockGrant { notices, .. }
            | DsdMsg::BarrierRelease { notices, .. }
            | DsdMsg::UpdateBatch { notices, .. }) = &mut noticed
            else {
                unreachable!()
            };
            *notices = sample_ranges();
            assert_eq!(noticed.encode().len(), body.len() + 3 + 4 + 12);
            assert_eq!(&noticed.encode()[..body.len()], &body[..]);
        }
    }

    #[test]
    fn envelope_truncation_detected() {
        assert_eq!(
            DsdMsg::decode_enveloped(MsgKind::Ack, Bytes::from_static(&[0x80])),
            Err(ProtocolError::Truncated)
        );
    }

    #[test]
    fn truncation_detected() {
        assert_eq!(
            DsdMsg::decode(MsgKind::LockRequest, Bytes::from_static(&[2])),
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
