//! The computing thread's side of the DSD protocol.
//!
//! A [`DsdClient`] belongs to one application thread. It holds the
//! thread's node-local copy of `GThV` (in the node's native
//! representation) and implements the four primitives of paper §4:
//!
//! * [`DsdClient::acquire`] / [`DsdClient::lock`] — acquire a distributed
//!   mutex (the latter returns an RAII [`LockGuard`]); outstanding updates
//!   arrive with the grant — for the ranges this thread has read; a notice
//!   for the rest — and are converted (or memcpy'd) into the local copy,
//!   around what the thread has stored since its last release;
//! * [`DsdClient::release`] — turn the elements stored since the last
//!   release into application-level index ranges, tag, pack, ship to the
//!   home thread and release;
//! * [`DsdClient::barrier`] — a release followed by an acquire that
//!   completes when every thread has entered;
//! * [`DsdClient::join`] — sign off and wait for program shutdown.
//!
//! Each is one or more blocking request/reply exchanges with a home
//! shard, and every exchange is one shell around a step, as at the home
//! (`HomeShard::on`): the step takes a frame, a tick or the endpoints its
//! last sends found gone, at the instant it is handed, decides, and leaves
//! its sends in an outbox; the shell (`DsdClient::request_holding`) alone
//! sends and receives.
//!
//! Synchronization objects are addressed by typed handles ([`LockId`],
//! [`BarrierId`], [`CondId`]).
//!
//! Under a sharded home ([`Directory`] with `S > 1`) a release first fans
//! the collected updates out to their owning shards (`UpdateFlush`,
//! awaiting each ack) before the release itself goes to the mutex's (or
//! barrier's) home shard, and an acquire pulls outstanding updates
//! (`UpdateFetch`) from each non-granting shard where a write that happens
//! before it may be unseen. The client keeps, per shard, the highest
//! sequence of that shard's update log it knows happens before this point
//! and the horizon its last pull there covered; a release carries the
//! first for every other shard (its *stamp*), the lock's or barrier's
//! record keeps the maximum, and the grant hands it on (DESIGN §5, "Pull
//! only what happens before"). With one shard both loops vanish and the
//! message sequence is byte-identical to the classic single-home protocol.
//!
//! **Ship what is read** (DESIGN §5). The accessors are the only way to the
//! data, so the client knows exactly which element ranges it has read: it
//! keeps them per entry as a small interval set (its *interest*) and tells
//! each entry's owning shard what is new on its next request there. A
//! grant, barrier release or fetch reply then carries updates for stale
//! ranges inside the interest and a *notice* for the rest; noticed ranges
//! are remembered per entry (the *stale* set), and any accessor call, read
//! or write, that meets one first fetches exactly the intersection from
//! its owner ([`DsdMsg::RangeFetch`]). No access ever returns a
//! noticed-but-unfetched element.
//!
//! Interest flows the other way too: a barrier release says what the
//! other threads read of the entries its coordinator owns, and the next
//! barrier entry ships only that. The rest of the thread's writes it
//! *holds* — its copy alone has them current — and names behind the
//! entry; it sends them when a shard asks ([`DsdMsg::HeldFetch`], served
//! in whatever blocking call the thread is in) and at its join.
//!
//! **Know what was written.** The paper traps stores with `mprotect`
//! because a C store bypasses any API; here every store goes through the
//! write accessors, so the client records what they wrote as it happens:
//! per entry, the element ranges stored since the last release (the
//! *write set*, one span for a loop that walks forward). A release ships
//! that set, with no page, twin or compare behind it, and an incoming
//! update leaves its elements as they are. The copy is never
//! write-protected, so a store takes no fault and no twin.
//!
//! Every phase is timed into the Eq. 1 [`CostBreakdown`].

use crate::cluster::TimingConfig;
use crate::costs::{CostBreakdown, Phase};
use crate::directory::{Directory, Placement};
use crate::gthv::{GthvError, GthvInstance};
use crate::home::{Input, Outgoing};
use crate::ids::{BarrierId, CondId, LockId};
use crate::interval::IntervalSet;
use crate::protocol::{DsdMsg, ProtocolError, Report};
use crate::runs::UpdateRange;
use crate::update::{apply_batch, apply_keeping, extract_updates, full_ranges, UpdateError};
use bytes::Bytes;
use hdsm_migthread::packfmt::MigrateError;
use hdsm_net::endpoint::{Endpoint, NetError};
use hdsm_net::FabricInstant;
use hdsm_obs::{EventKind, OpCtx, OpKind, Recorder};
use hdsm_platform::spec::Platform;
use hdsm_tags::convert::ConversionStats;
use hdsm_tags::wire::UpdateBatch;
use std::fmt;
use std::time::Duration;

/// Errors from the client side of the protocol.
#[derive(Debug)]
pub enum DsdError {
    /// Transport failure.
    Net(NetError),
    /// Malformed message.
    Protocol(ProtocolError),
    /// Update extraction/application failure.
    Update(UpdateError),
    /// Typed data access failure.
    Gthv(GthvError),
    /// Unexpected message while waiting for a specific reply.
    Unexpected(&'static str),
    /// The home service declared a participant dead (lease expiry); the
    /// blocked operation cannot complete. Carries the lost worker's rank
    /// plus the failure detector's evidence at the moment it fired.
    WorkerLost {
        /// The lost worker's rank.
        rank: u32,
        /// How long the home had gone without hearing from the worker,
        /// if it said.
        heard_age: Option<Duration>,
        /// The lease deadline that silence exceeded (`None` as above).
        lease: Option<Duration>,
    },
    /// `MTh_cond_wait` under a sharded home requires the condition and
    /// its mutex to be homed at the same shard — the release+park must be
    /// atomic at a single owner.
    ShardMismatch {
        /// Condition variable index.
        cond: u32,
        /// Mutex index.
        lock: u32,
    },
    /// A thread migration failed: its program is not registered, or its
    /// state image did not restore on the target platform.
    Migration(MigrateError),
    /// [`DsdClient::rehost_cold`] found stores no release has shipped: the
    /// cold copy would drop them, so it refused and left the copy as it
    /// was. Carries the first entry with unreleased stores.
    Unreleased {
        /// Entry index.
        entry: u32,
    },
    /// Sentinel returned by a test body to simulate this worker crashing:
    /// the cluster harness stops the worker without signing it off, so
    /// the home's failure detector must notice the silence.
    Crashed,
}

impl fmt::Display for DsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsdError::Net(e) => write!(f, "net: {e}"),
            DsdError::Protocol(e) => write!(f, "protocol: {e}"),
            DsdError::Update(e) => write!(f, "update: {e}"),
            DsdError::Gthv(e) => write!(f, "gthv: {e}"),
            DsdError::Unexpected(s) => write!(f, "unexpected message, wanted {s}"),
            DsdError::WorkerLost {
                rank,
                heard_age,
                lease,
            } => match (heard_age, lease) {
                (Some(age), Some(lease)) => write!(
                    f,
                    "worker {rank} lost: silent {}ms, past its {}ms lease",
                    age.as_millis(),
                    lease.as_millis()
                ),
                _ => write!(f, "worker {rank} lost (lease expired)"),
            },
            DsdError::ShardMismatch { cond, lock } => write!(
                f,
                "cond {cond} and mutex {lock} are homed at different shards"
            ),
            DsdError::Migration(e) => write!(f, "migration: {e}"),
            DsdError::Unreleased { entry } => {
                write!(f, "entry {entry} has stores no release has shipped")
            }
            DsdError::Crashed => write!(f, "worker simulated a crash"),
        }
    }
}

impl std::error::Error for DsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsdError::Net(e) => Some(e),
            DsdError::Protocol(e) => Some(e),
            DsdError::Update(e) => Some(e),
            DsdError::Gthv(e) => Some(e),
            DsdError::Migration(e) => Some(e),
            _ => None,
        }
    }
}

/// `impl From<$source> for DsdError`, wrapping it as `DsdError::$variant`.
macro_rules! wrap_errors {
    ($($source:ty => $variant:ident),*) => {$(
        impl From<$source> for DsdError {
            fn from(e: $source) -> Self {
                DsdError::$variant(e)
            }
        }
    )*};
}
wrap_errors!(NetError => Net, ProtocolError => Protocol, UpdateError => Update, GthvError => Gthv,
    MigrateError => Migration);

/// One step of a xorshift64 PRNG — enough randomness for retry jitter
/// without dragging in a dependency. `state` must be non-zero.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The next retransmission delay under *decorrelated jitter* (the
/// AWS-architecture-blog variant): uniform in `[base, 3·prev]`, clamped
/// to `cap`. Successive delays wander instead of doubling in lockstep,
/// so clients whose requests died together do not thunder back together;
/// the cap bounds the worst-case stall a single client can self-inflict.
fn decorrelated_backoff(prev: Duration, base: Duration, cap: Duration, rng: &mut u64) -> Duration {
    let lo = base.as_micros() as u64;
    let hi = (prev.as_micros() as u64).saturating_mul(3).max(lo + 1);
    let pick = lo + xorshift64(rng) % (hi - lo);
    Duration::from_micros(pick).min(cap)
}

/// Hard ceiling on any single retransmission delay, whatever the jitter
/// rolls.
const RETRY_CAP: Duration = Duration::from_secs(5);

/// What this client has learned about one home shard's failover state —
/// one row per shard replaces the `shard_epochs` and `shard_overrides`
/// maps, which a `ViewChange` always wrote together.
#[derive(Debug, Clone, Copy, Default)]
struct ShardView {
    /// The shard's directory epoch, stamped on requests when the
    /// directory has replicas (0 = the shard's original primary).
    epoch: u32,
    /// The endpoint this client currently believes serves the shard,
    /// once a dead primary or a `ViewChange` taught it otherwise.
    ep: Option<u32>,
}

/// What this thread knows of one shard's update log.
#[derive(Debug, Clone, Copy, Default)]
struct LogView {
    /// The highest sequence there of a write that happens before this
    /// point of the thread: one of its own, one a grant's stamp carried, or
    /// the horizon of a grant from the shard (0: none).
    before: u64,
    /// The shard's horizon for this thread, as the shard last said or the
    /// thread worked out: every write logged there up to it, but the
    /// thread's own, is in the copy or its stale set. `None` until the
    /// thread's first pull there (the initial contents), and again once it
    /// has asked for a cold copy.
    pulled: Option<u64>,
}

impl LogView {
    /// A write that happens before this point may be missing from the copy.
    fn unseen(&self) -> bool {
        self.pulled.is_none_or(|p| self.before > p)
    }
}

/// A request in flight: what its steps ([`DsdClient::on`]) decide from,
/// one input to the next.
struct Request {
    shard: u32,
    dst: u32,
    req_id: u64,
    msg: DsdMsg,
    report: Report,
    /// `msg` and `report` as last packed: a retransmission resends it.
    payload: Bytes,
    /// Attempts posted; every one after the first is a retransmission.
    sent: u32,
    /// When the exchange fails with a timeout.
    deadline: FabricInstant,
    /// When the last attempt is retransmitted (never past `deadline`).
    retry_at: FabricInstant,
    /// Decorrelated-jitter state: the generator and the last delay.
    rng: u64,
    prev_wait: Duration,
}

/// What this thread knows about its copy of one entry beyond the bytes:
/// which elements it has read and written, and which it was told are out
/// of date.
#[derive(Debug, Clone, Default)]
struct EntryView {
    /// Elements the entry holds: an access past them is the accessor's to
    /// refuse, and never becomes interest.
    count: u64,
    /// The element ranges read accessors have returned. Only grows; a walk
    /// over adjacent rows is one span.
    interest: IntervalSet,
    /// The part of `interest` the entry's owning shard has not been told:
    /// owed on the next request to that shard.
    unreported: IntervalSet,
    /// Ranges a notice named and no fetch or update has refreshed since.
    stale: IntervalSet,
    /// The elements the store accessors wrote since the last release: what
    /// the next release ships, and what an incoming update leaves as it is.
    /// Stores that walk forward fold in at the tail, one compare each.
    written: IntervalSet,
    /// A range within one `interest` span and clear of `stale`: a read
    /// inside it has nothing to record and nothing to fetch, which is the
    /// two compares the load path pays. Empty until the first read, and
    /// again whenever a notice for the entry arrives.
    window: (u64, u64),
    /// A range clear of `stale`, read or not: a store inside it has
    /// nothing to fetch — the store path's two compares. Empty until the
    /// first store, and again whenever a notice for the entry arrives.
    fresh: (u64, u64),
    /// What this thread named held behind a barrier entry: elements it
    /// wrote in a barrier phase and did not ship. Its copy alone has them
    /// current, and it sends them
    /// when a shard asks ([`DsdMsg::HeldFetch`]) or it joins. A range
    /// leaves when a release ships it, when an update or notice for it
    /// arrives (someone wrote it later), when a fetch for it is served,
    /// and at the join.
    held: IntervalSet,
    /// What a barrier entry ships of the entry, as the last barrier
    /// release from the entry's owner said: what the other participants
    /// read. `None` until one says: everything ships.
    ship: Option<IntervalSet>,
}

/// One [`EntryView`] per entry of `gthv`, nothing read, written or stale.
fn fresh_views(gthv: &GthvInstance) -> Vec<EntryView> {
    let view = |row: &crate::index_table::IndexRow| EntryView {
        count: row.count,
        ..Default::default()
    };
    gthv.table().rows().iter().map(view).collect()
}

/// The spans of `set`, one of `entry`'s element sets, as update ranges.
fn ranges_of(entry: usize, set: &IntervalSet) -> impl Iterator<Item = UpdateRange> + '_ {
    set.spans()
        .map(move |(first, end)| UpdateRange::new(entry as u32, first, end - first))
}

/// A computing thread's handle on the distributed shared data.
pub struct DsdClient {
    thread_rank: u32,
    ep: Endpoint,
    /// Entry/lock/barrier → home-shard partition (the single-home layout
    /// unless the cluster was built with `shards(n)`), plus the per-entry
    /// ownership rows learned lazily from `EntryMoved` bounces when the
    /// adaptive placement engine re-homes an entry.
    placement: Placement,
    /// Rank used for this client's observability events: the transport
    /// endpoint rank, which never collides with home-shard ranks (it
    /// equals the thread rank in the classic single-home layout).
    obs_rank: u32,
    gthv: GthvInstance,
    costs: CostBreakdown,
    conv_stats: ConversionStats,
    recv_deadline: Duration,
    /// Monotonic request id for the at-most-once envelope.
    req_counter: u64,
    /// Retransmissions attempted before waiting out the full deadline.
    max_retries: u32,
    /// First retransmission delay; later delays use decorrelated jitter.
    retry_base: Duration,
    /// Failover view per shard, learned from dead endpoints and
    /// `ViewChange` replies; an absent shard is at its original primary.
    shard_views: std::collections::HashMap<u32, ShardView>,
    /// What this thread knows of each shard's update log, by shard.
    logs: Vec<LogView>,
    /// Observability hook (disabled by default: every use is a null check).
    recorder: Recorder,
    /// Interest, stale set and the access path's window, one row per
    /// entry — always on, recorder or not.
    views: Vec<EntryView>,
    /// The fabric's time source (wall clock in threaded mode, virtual
    /// clock in simulation mode). The request shell reads it, never
    /// `Instant`, and hands the step its `now`, so every deadline and
    /// backoff is seed-deterministic in sim runs.
    clock: hdsm_net::FabricClock,
    /// The sends of the request step being taken, in order; reused step to
    /// step and request to request.
    outbox: Vec<Outgoing>,
    /// Open lock-hold spans: lock id → (epoch µs, fabric start) at grant.
    held_since: std::collections::HashMap<u32, (u64, FabricInstant)>,
    /// The sync operation currently in progress; stamped into every span,
    /// send and retransmit so the cross-rank trace can attribute them.
    cur_op: OpCtx,
    /// Per-(kind, id) episode counters backing `cur_op.epoch`.
    op_epochs: std::collections::HashMap<(OpKind, u32), u32>,
}

impl DsdClient {
    /// Create a client for thread `thread_rank`, talking to the home
    /// service the directory names (one shard at endpoint 0 until
    /// [`Self::set_directory`] says otherwise). A store before the first
    /// acquire is in the write set like any other and ships at the first
    /// release, like a store between `mprotect` and the first lock in the
    /// original system (the acquire's incoming updates leave it as it is).
    pub(crate) fn new(thread_rank: u32, ep: Endpoint, gthv: GthvInstance) -> DsdClient {
        let obs_rank = ep.rank();
        let clock = ep.clock();
        let views = fresh_views(&gthv);
        DsdClient {
            thread_rank,
            ep,
            placement: Placement::new(Directory::single()),
            obs_rank,
            gthv,
            costs: CostBreakdown::default(),
            conv_stats: ConversionStats::default(),
            recv_deadline: Duration::from_secs(30),
            req_counter: 0,
            max_retries: 10,
            retry_base: Duration::from_millis(250),
            shard_views: std::collections::HashMap::new(),
            logs: vec![LogView::default()],
            recorder: Recorder::disabled(),
            views,
            clock,
            outbox: Vec::new(),
            held_since: std::collections::HashMap::new(),
            cur_op: OpCtx::default(),
            op_epochs: std::collections::HashMap::new(),
        }
    }

    /// The op bracket: run `body` as sync op `(kind, id)`. Everything
    /// recorded until the next bracket opens — phase spans, sends
    /// (including the flush/fetch fan-out), retransmits and the home's
    /// replies — is attributed to this `(kind, id, epoch, origin)` tuple,
    /// and the op sits in the recorder's in-flight table (which the stall
    /// watchdog ages) until `body` returns. `cur_op` outlives the bracket
    /// so trailing events stay attributed to the op that caused them. A
    /// disabled recorder leaves `cur_op` permanently unattributed.
    fn op<T>(
        &mut self,
        kind: OpKind,
        id: u32,
        body: impl FnOnce(&mut DsdClient) -> Result<T, DsdError>,
    ) -> Result<T, DsdError> {
        if self.recorder.is_enabled() {
            let epoch = self.op_epochs.entry((kind, id)).or_insert(0);
            *epoch += 1;
            self.cur_op = OpCtx {
                kind,
                id,
                epoch: *epoch,
                origin: self.obs_rank,
            };
            self.recorder.op_begin(self.obs_rank, self.cur_op);
        }
        let r = body(self);
        self.recorder.op_end(self.cur_op);
        r
    }

    /// Attach the cluster's home directory. Must match the directory the
    /// home shards were built with; the default single-home directory
    /// routes everything to endpoint 0.
    pub(crate) fn set_directory(&mut self, directory: Directory) {
        self.logs = vec![LogView::default(); directory.n_shards() as usize];
        self.placement = Placement::new(directory);
    }

    /// The entry/lock/barrier → shard directory this client routes by.
    pub fn directory(&self) -> Directory {
        self.placement.directory()
    }

    /// Endpoint rank home shard `shard` listens on: a failover override
    /// (learned from a dead endpoint or a `ViewChange`) wins over the
    /// directory's default.
    fn shard_ep(&self, shard: u32) -> u32 {
        let learned = self.shard_views.get(&shard).and_then(|v| v.ep);
        learned.unwrap_or_else(|| self.directory().shard_ep(shard))
    }

    /// The epoch this client stamps on requests to `shard` (0 until a
    /// `ViewChange` teaches it otherwise).
    fn epoch_of(&self, shard: u32) -> u32 {
        self.shard_views.get(&shard).map_or(0, |v| v.epoch)
    }

    /// The other endpoint serving `shard` — its replica if `not` is the
    /// primary, its primary otherwise. Only meaningful with replicas.
    fn other_ep(&self, shard: u32, not: u32) -> u32 {
        let primary = self.directory().shard_ep(shard);
        if not == primary {
            self.directory().replica_ep(shard)
        } else {
            primary
        }
    }

    /// Adopt `EntryMoved` rows into the placement. Each row carries the
    /// entry's monotonically increasing placement epoch, so stale bounces
    /// (from a shard that has since lost the entry again) never roll the
    /// view backwards.
    fn learn_moves(&mut self, rows: &[(u32, u32, u32)]) {
        let mut learned = 0;
        for &(entry, shard, epoch) in rows {
            if !self.placement.adopt(entry, shard, epoch) {
                continue;
            }
            learned += 1;
            // The new owner was never told what this thread reads of the
            // entry: the whole interest is news to it.
            if let Some(v) = self.views.get_mut(entry as usize) {
                v.unreported = v.interest.clone();
            }
        }
        if learned > 0 {
            self.recorder
                .count("client.entry_moves_learned", learned as u64);
        }
    }

    /// The interest `shard` has not been told: every unreported span of
    /// the entries it owns, handed over once — the request that carries
    /// them is retransmitted until it is answered.
    fn take_interest(&mut self, shard: u32) -> Vec<UpdateRange> {
        let mut rows = Vec::new();
        for (entry, v) in self.views.iter_mut().enumerate() {
            if v.unreported.is_empty() || self.placement.owner(entry as u32) != shard {
                continue;
            }
            rows.extend(ranges_of(entry, &std::mem::take(&mut v.unreported)));
        }
        rows
    }

    /// Encode request `req_id` for `shard` under the directory's envelope
    /// rule, stamped with the epoch this client last learned and followed
    /// by `report` — `t_pack`.
    fn pack_request(&mut self, msg: &DsdMsg, req_id: u64, shard: u32, report: &Report) -> Bytes {
        let stamped = self.directory().epoch_stamped(msg.kind());
        let epoch = stamped.then(|| self.epoch_of(shard));
        let mut t = Phase::Pack.begin(&self.recorder, self.obs_rank, self.cur_op);
        let payload = msg.encode_request(req_id, epoch, report);
        t.args(payload.len() as u64, 0);
        t.end(&mut self.costs);
        payload
    }

    /// Attach an observability recorder. Spans for every protocol phase,
    /// heatmap feeds and retransmit instants are recorded through it; the
    /// default disabled recorder makes all of that free.
    pub(crate) fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The client's observability recorder (disabled unless wired up).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Take a request's bounds from `timing`: its total budget across
    /// every attempt, its retransmissions and its first retry delay. What
    /// `timing` leaves `None` stays at the default: 30 s, 10, 250 ms.
    pub(crate) fn set_timing(&mut self, timing: &TimingConfig) {
        self.recv_deadline = timing.recv_deadline.unwrap_or(self.recv_deadline);
        self.max_retries = timing.max_retries.unwrap_or(self.max_retries);
        self.retry_base = timing.retry_base.unwrap_or(self.retry_base);
    }

    /// Handle to the fabric (stats, partitions).
    pub fn network(&self) -> &hdsm_net::Network {
        self.ep.network()
    }

    /// This thread's stable rank.
    pub fn thread_rank(&self) -> u32 {
        self.thread_rank
    }

    /// The local `GThV` copy as it stands: layout, index table, fault
    /// statistics. Not a way to read shared data — a range this thread was
    /// only *told* changed is refreshed by the client's own accessors, on
    /// the way to it, and by nothing else.
    pub fn gthv(&self) -> &GthvInstance {
        &self.gthv
    }

    /// This node's platform.
    pub fn platform(&self) -> Platform {
        self.gthv.platform().clone()
    }

    /// Cost breakdown accumulated so far.
    pub fn costs(&self) -> CostBreakdown {
        self.costs
    }

    /// Conversion statistics accumulated so far.
    pub fn conv_stats(&self) -> ConversionStats {
        self.conv_stats
    }

    /// The reliability core: send `msg` to home shard `shard` under a fresh
    /// request id, `behind` it the held spans of a barrier entry and the
    /// stamp of a release, and return the home's reply to *that* id. This
    /// is the shell, the only code here that sends or receives: it puts the
    /// step's sends on the
    /// wire, feeds one that found its endpoint gone back as
    /// [`Input::Gone`], waits until the request's next wake-up and steps on
    /// the frame or the tick. The step ([`Self::ask`], [`Self::on`])
    /// decides the rest:
    /// * it retransmits the same id (the home deduplicates) under capped
    ///   decorrelated-jitter backoff, within `recv_deadline` in all, with
    ///   the interest the shard is owed ([`Self::take_interest`]) behind
    ///   every attempt; it skips replies to older ids and ends on a
    ///   [`DsdMsg::WorkerLost`], whatever its id;
    /// * it serves every [`DsdMsg::HeldFetch`] that arrives, so two writers
    ///   fetching from each other cannot deadlock;
    /// * with replicas it fails over: a dead destination flips the request
    ///   to the shard's other endpoint (retransmission covers a standby not
    ///   yet promoted), and a [`DsdMsg::ViewChange`] re-resolves the shard
    ///   and resends, stamped with the new epoch, under the *same* id, so
    ///   the promoted replica's dedup keeps it at-most-once.
    fn request_holding(
        &mut self,
        shard: u32,
        msg: DsdMsg,
        behind: Report,
    ) -> Result<DsdMsg, DsdError> {
        let mut req = self.ask(self.clock.now(), shard, msg, behind);
        loop {
            let mut gone = Vec::new();
            for s in &self.outbox {
                match self.ep.send_op(s.to, s.kind, s.payload.clone(), s.op) {
                    Ok(()) => self.costs.bytes_sent += s.payload.len() as u64,
                    Err(NetError::Disconnected(_)) => gone.push(s.to),
                    Err(e) => return Err(e.into()),
                }
            }
            let left = req.retry_at.saturating_since(self.clock.now());
            let input = if !gone.is_empty() {
                Input::Gone(&gone)
            } else if left.is_zero() {
                Input::Tick
            } else {
                match self.ep.recv_timeout(left) {
                    Ok(m) => Input::Frame(m),
                    Err(NetError::Timeout) => Input::Tick,
                    Err(e) => return Err(e.into()),
                }
            };
            if let Some(reply) = self.on(&mut req, self.clock.now(), input)? {
                return Ok(reply);
            }
        }
    }

    /// The first step of a request: at `now`, take a request id and the
    /// interest `shard` is owed, pack them and the rest of `behind` behind
    /// `msg` and post it.
    fn ask(&mut self, now: FabricInstant, shard: u32, msg: DsdMsg, behind: Report) -> Request {
        self.req_counter += 1;
        let (dst, req_id) = (self.shard_ep(shard), self.req_counter);
        let report = Report {
            interest: self.take_interest(shard),
            ..behind
        };
        let mut req = Request {
            payload: self.pack_request(&msg, req_id, shard, &report),
            shard,
            dst,
            req_id,
            msg,
            report,
            sent: 0,
            deadline: now + self.recv_deadline,
            retry_at: now,
            // Rank and request id mixed: no two clients or requests share
            // a delay sequence.
            rng: (((self.thread_rank as u64) << 32) ^ req_id).max(1),
            prev_wait: self.retry_base,
        };
        self.post(&mut req, now);
        req
    }

    /// Post `req`'s next attempt at `now` and set when it is retransmitted.
    fn post(&mut self, req: &mut Request, now: FabricInstant) {
        let (attempt, kind) = (req.sent, req.msg.kind());
        req.sent += 1;
        if attempt > 0 {
            self.ep.network().note_retransmit();
            // arg1 carries the destination so the critical-path analyzer
            // can pin retransmits to a link.
            let (rank, dst, op) = (self.obs_rank, req.dst as u64, self.cur_op);
            let label = kind.label();
            self.recorder
                .instant_op(rank, EventKind::Retransmit, attempt as u64, dst, label, op);
        }
        self.outbox.push(Outgoing {
            to: req.dst,
            kind,
            payload: req.payload.clone(),
            op: self.cur_op,
            owed: true,
        });
        // Once the retry budget is spent, wait out the deadline.
        let wait = if attempt >= self.max_retries {
            self.recv_deadline
        } else if attempt == 0 {
            self.retry_base
        } else {
            req.prev_wait =
                decorrelated_backoff(req.prev_wait, self.retry_base, RETRY_CAP, &mut req.rng);
            req.prev_wait
        };
        req.retry_at = (now + wait).min(req.deadline);
    }

    /// One step of request `req`: take `input` at `now` and decide, leaving
    /// what is to be sent in the outbox; the reply, once it came.
    fn on(
        &mut self,
        req: &mut Request,
        now: FabricInstant,
        input: Input,
    ) -> Result<Option<DsdMsg>, DsdError> {
        let lost = match &input {
            Input::Gone(eps) => self.outbox.iter().any(|s| s.owed && eps.contains(&s.to)),
            _ => false,
        };
        self.outbox.clear();
        let m = match input {
            Input::Frame(m) => m,
            Input::Tick if now >= req.deadline => return Err(NetError::Timeout.into()),
            Input::Tick if now >= req.retry_at => {
                self.post(req, now);
                return Ok(None);
            }
            // Nothing is due, or a `HeldData` found its shard gone: whoever
            // serves the shard now asks again.
            _ if !lost => return Ok(None),
            _ if self.directory().n_replicas() == 0 => {
                return Err(NetError::Disconnected(req.dst).into())
            }
            _ => {
                // The request's endpoint is gone: fail over to the shard's
                // other endpoint and keep retrying there.
                req.dst = self.other_ep(req.shard, req.dst);
                self.shard_views.entry(req.shard).or_default().ep = Some(req.dst);
                return Ok(None);
            }
        };
        let src = m.src;
        let mut t = Phase::Unpack.begin(&self.recorder, self.obs_rank, self.cur_op);
        t.args(m.payload.len() as u64, src as u64);
        let Ok((rid, decoded)) = DsdMsg::decode_enveloped(m.kind, m.payload) else {
            // A frame that does not decode names no reply, and one bad
            // frame must not fail the op: drop it (the abandoned region
            // charges nothing); retransmission recovers the reply.
            self.recorder.count("client.bad_frames", 1);
            return Ok(None);
        };
        t.end(&mut self.costs);
        match decoded {
            DsdMsg::HeldFetch { ranges } => self.serve_held(src, ranges)?,
            DsdMsg::WorkerLost {
                rank,
                heard_ms,
                lease_ms,
            } => {
                let ms = |ms| (ms > 0).then(|| Duration::from_millis(ms));
                let (heard_age, lease) = (ms(heard_ms), ms(lease_ms));
                return Err(DsdError::WorkerLost {
                    rank,
                    heard_age,
                    lease,
                });
            }
            DsdMsg::ViewChange { shard, .. }
                if self.directory().n_replicas() == 0 || shard >= self.directory().n_shards() =>
            {
                // No other endpoint serves the shard: a redirect names
                // nowhere to go. Drop it, as a frame that does not decode.
                self.recorder.count("client.bad_frames", 1);
            }
            DsdMsg::ViewChange { shard, epoch } => {
                // A fenced shard bounced a request: learn the new epoch and
                // re-resolve to the surviving endpoint. A stale bounce (an
                // epoch already adopted) counts only from the fenced sender
                // this request still talks to.
                let newer = epoch > self.epoch_of(shard);
                if newer {
                    let ep = Some(self.other_ep(shard, src));
                    self.shard_views.insert(shard, ShardView { epoch, ep });
                }
                if shard == req.shard && (newer || req.dst == src) {
                    if req.dst == src && !newer {
                        let ep = Some(self.other_ep(shard, src));
                        self.shard_views.entry(shard).or_default().ep = ep;
                    }
                    // Resend now, stamped with the new epoch.
                    req.dst = self.shard_ep(shard);
                    req.payload = self.pack_request(&req.msg, req.req_id, shard, &req.report);
                    self.post(req, now);
                }
            }
            reply if rid == req.req_id => return Ok(Some(reply)),
            _ => {} // A late duplicate of an earlier reply: skip.
        }
        Ok(None)
    }

    /// Take in what an acquire brought (grant / barrier release / fetch;
    /// one batch per shard that had any): apply the updates to the local
    /// copy — t_conv — but for what the write set holds, and remember the
    /// notices as stale. The write set is not touched, so a store made
    /// before a nested acquire keeps its value and still ships at the next
    /// release.
    fn apply_incoming(
        &mut self,
        batches: &[UpdateBatch],
        notices: &[UpdateRange],
    ) -> Result<(), DsdError> {
        let updates: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let bytes: u64 = batches.iter().map(UpdateBatch::payload_bytes).sum();
        let mut t = Phase::Conv.begin(&self.recorder, self.obs_rank, self.cur_op);
        t.args(updates, bytes);
        let views = &self.views;
        let written = |entry: u32| views.get(entry as usize).map(|v| &v.written);
        for batch in batches {
            apply_keeping(&mut self.gthv, batch, &mut self.conv_stats, written)?;
        }
        t.end(&mut self.costs);
        self.costs.updates_applied += updates;
        self.costs.bytes_applied += bytes;
        self.recorder.heat(|h| {
            for g in batches.iter().flat_map(UpdateBatch::groups) {
                let (runs, elems) = g.rows().iter().fold((0, 0), |(runs, elems), r| {
                    (runs + if r.2 == 1 { 1 } else { r.1 }, elems + r.1)
                });
                h.update_applied(g.head.entry, runs, elems * u64::from(g.head.size));
            }
        });
        for g in batches.iter().flat_map(UpdateBatch::groups) {
            let Some(v) = self.views.get_mut(g.head.entry as usize) else {
                continue;
            };
            // An update refreshes what an earlier notice left stale (a
            // fetch's reply, or an owner that has not been told this
            // thread's interest yet and ships everything), and takes what
            // someone wrote later out of what this thread holds.
            if !v.stale.is_empty() || !v.held.is_empty() {
                for &row in g.rows() {
                    let r = UpdateRange::row(g.head.entry, row);
                    v.stale.subtract(r);
                    v.held.subtract(r);
                }
            }
        }
        for n in notices {
            let v = self.view_of(n, "notice outside the index table")?;
            v.stale.insert(n.first, n.end());
            v.held.subtract(*n);
            (v.window, v.fresh) = ((0, 0), (0, 0));
        }
        Ok(())
    }

    /// The view of the entry `r` names, if the entry holds all of `r`;
    /// otherwise a frame that named it is refused as `what`.
    fn view_of(&mut self, r: &UpdateRange, what: &'static str) -> Result<&mut EntryView, DsdError> {
        let v = self.views.get_mut(r.entry as usize);
        let within =
            |v: &&mut EntryView| r.first.checked_add(r.count).is_some_and(|e| e <= v.count);
        v.filter(within)
            .ok_or_else(|| ProtocolError::BadMessage(what).into())
    }

    /// Serve a shard's [`DsdMsg::HeldFetch`] from endpoint `src`: post the
    /// current bytes of `ranges` back (`HeldData`, request id 0, never
    /// answered; not owed, so a shard found gone drops it and whoever
    /// serves the shard now asks again) and take them out of the hold. A
    /// range outside the index table is refused, like a notice for one.
    fn serve_held(&mut self, src: u32, ranges: Vec<UpdateRange>) -> Result<(), DsdError> {
        for r in &ranges {
            self.view_of(r, "held fetch outside the index table")?;
        }
        let updates = self.extract(&ranges)?;
        for r in &ranges {
            self.views[r.entry as usize].held.subtract(*r);
        }
        let shard = ranges.first().map_or(0, |r| self.placement.owner(r.entry));
        let (rank, after) = (self.thread_rank, self.req_counter);
        let msg = DsdMsg::HeldData {
            rank,
            after,
            updates,
        };
        let payload = self.pack_request(&msg, 0, shard, &Report::default());
        let (kind, op) = (msg.kind(), self.cur_op);
        self.outbox.push(Outgoing {
            to: src,
            kind,
            payload,
            op,
            owed: false,
        });
        self.recorder.count("client.held_served", 1);
        Ok(())
    }

    /// Drain the write set into update ranges (the head of the release
    /// pipeline: t_index → t_tag in Eq. 1): a copy of each entry's rows,
    /// which are folded by the rule of the frame's strided rows already
    /// ([`IntervalSet`]), so a red-black writer's colour of a row is one
    /// strided range of `count` updates, and every later stage of the
    /// release works per range, not per element.
    fn collect_outgoing(&mut self) -> Result<Vec<UpdateRange>, DsdError> {
        let mut t = Phase::Index.begin(&self.recorder, self.obs_rank, self.cur_op);
        let rows: usize = self.views.iter().map(|v| v.written.rows().len()).sum();
        let mut ranges = Vec::with_capacity(rows);
        for (entry, v) in (0..).zip(&self.views) {
            ranges.extend(v.written.rows().map(|row| UpdateRange::row(entry, row)));
        }
        let updates: u64 = ranges.iter().map(UpdateRange::updates).sum();
        if self.recorder.is_enabled() {
            // The span carries the bytes written: every stored element
            // whole, as it ships.
            let table = self.gthv.table();
            let bytes = ranges.chunk_by(|a, b| a.entry == b.entry).map(|of_entry| {
                let size = table
                    .row(of_entry[0].entry)
                    .map_or(0, |row| u64::from(row.size));
                size * of_entry.iter().map(|r| r.count).sum::<u64>()
            });
            t.args(bytes.sum(), updates);
        }
        t.end(&mut self.costs);
        // t_tag: every update ships as it is, one tag each.
        let mut t = Phase::Tag.begin(&self.recorder, self.obs_rank, self.cur_op);
        t.args(updates, 0);
        t.end(&mut self.costs);
        // Freed, not cleared: a strided writer's set of thousands of spans
        // would otherwise stay allocated through the barrier wait.
        for v in &mut self.views {
            v.written = IntervalSet::default();
        }
        Ok(ranges)
    }

    /// Charge what a release puts out, once, an entry at a time: the
    /// updates it ships and the pieces it holds are both released, a
    /// strided range as its one-element updates.
    fn charge_released(&mut self, ship: &[UpdateRange], held: &[UpdateRange]) {
        let updates = |ranges: &[UpdateRange]| ranges.iter().map(UpdateRange::updates).sum::<u64>();
        self.costs.updates_sent += updates(ship) + updates(held);
        let table = self.gthv.table();
        let rank = self.thread_rank;
        self.recorder.heat(|h| {
            for of_entry in [ship, held]
                .into_iter()
                .flat_map(|ranges| ranges.chunk_by(|a, b| a.entry == b.entry))
            {
                let entry = of_entry[0].entry;
                if let Some(row) = table.row(entry) {
                    let counts = of_entry.iter().flat_map(|r| match r.stride {
                        1 => std::iter::repeat_n(r.count, 1),
                        _ => std::iter::repeat_n(1, r.count as usize),
                    });
                    h.update_sent(entry, rank, u64::from(row.size), counts);
                }
            }
        });
        if !held.is_empty() && self.recorder.is_enabled() {
            let size = |r: &UpdateRange| table.row(r.entry).map_or(0, |row| u64::from(row.size));
            let bytes = held.iter().map(|r| size(r) * r.count).sum();
            self.recorder.count("client.ranges_held", updates(held));
            self.recorder.count("client.bytes_held", bytes);
        }
    }

    /// Frame the current bytes of `ranges` (t_pack in Eq. 1: the raw
    /// native bytes, pointers swizzled, written once into the frame the
    /// message will carry; [`Self::pack_request`] copies that frame behind
    /// its envelope).
    fn extract(&mut self, ranges: &[UpdateRange]) -> Result<UpdateBatch, DsdError> {
        let mut t = Phase::Pack.begin(&self.recorder, self.obs_rank, self.cur_op);
        let ups = extract_updates(&self.gthv, ranges)?;
        t.args(ups.payload_bytes(), ups.len() as u64);
        t.end(&mut self.costs);
        Ok(ups)
    }

    /// The release pipeline, shared by unlock, cond-wait and barrier:
    /// drain the write set, fan the updates out to their owning shards
    /// (`UpdateFlush`), then send the release itself — `build(updates
    /// owned by owner)` — to `owner`, stamped with what happens before it
    /// at every other shard ([`Self::stamp`]), and return its reply. Each
    /// flush is acknowledged, with the sequence its updates were logged
    /// under, before the next is sent and before the release goes out, so
    /// by the time any shard grants a later acquire, every flushed update
    /// is already absorbed somewhere the acquirer's stamp names. A
    /// single-shard directory ships the whole batch inside the release
    /// without touching the wire first.
    ///
    /// What is bucketed by owning shard is the *ranges*; each bucket is
    /// framed when it is sent, from the address space, which nothing
    /// writes until the release returns.
    ///
    /// An `EntryMoved` reply — to a flush or to the release — means our
    /// placement view was stale: the shard refused the whole bucket
    /// without absorbing (or unlocking, or counting an arrival). Learn the
    /// new owners, re-route just the bounced ranges (framing them again)
    /// and go round again under fresh request ids; every bounce strictly
    /// advances the override map (entry epochs only grow), so the loop
    /// terminates.
    ///
    /// A barrier entry (`hold`) ships of what goes to its coordinator only
    /// what the last release said another participant reads, holds the
    /// rest and names it behind the message ([`Self::hold`]). Everything
    /// else — lock releases, cond-waits, the flushes to other shards —
    /// ships.
    fn release_via(
        &mut self,
        owner: u32,
        hold: bool,
        build: impl Fn(UpdateBatch) -> DsdMsg,
    ) -> Result<DsdMsg, DsdError> {
        let ranges = self.collect_outgoing()?;
        let (mut pending, mut holding) = self.hold(hold.then_some(owner), ranges);
        self.charge_released(&pending, &holding);
        let shards = self.directory().n_shards();
        let mut kept: Vec<UpdateRange> = Vec::new();
        loop {
            if shards == 1 {
                kept = std::mem::take(&mut pending);
            } else {
                let mut buckets: Vec<Vec<UpdateRange>> = (0..shards).map(|_| Vec::new()).collect();
                for r in pending.drain(..) {
                    buckets[self.placement.owner(r.entry) as usize].push(r);
                }
                kept.append(&mut buckets[owner as usize]);
                for shard in 0..shards {
                    let ranges = std::mem::take(&mut buckets[shard as usize]);
                    if ranges.is_empty() {
                        continue;
                    }
                    let updates = self.extract(&ranges)?;
                    let rank = self.thread_rank;
                    let flush = DsdMsg::UpdateFlush { rank, updates };
                    match self.request_holding(shard, flush, Report::default())? {
                        DsdMsg::Ack { stamp } => self.logged(shard, &stamp)?,
                        DsdMsg::EntryMoved { entries } => {
                            self.learn_moves(&entries);
                            pending.extend(ranges);
                        }
                        _ => return Err(DsdError::Unexpected("Ack (update flush)")),
                    }
                }
                if !pending.is_empty() {
                    continue;
                }
            }
            let behind = Report {
                held: self.held_names(&holding),
                stamp: self.stamp(owner),
                ..Report::default()
            };
            let updates = self.extract(&kept)?;
            let wrote = !updates.is_empty();
            match self.request_holding(owner, build(updates), behind)? {
                DsdMsg::EntryMoved { entries } => {
                    self.learn_moves(&entries);
                    pending = std::mem::take(&mut kept);
                    // What the coordinator no longer owns ships to its new
                    // owner instead.
                    let (stay, moved): (Vec<UpdateRange>, Vec<UpdateRange>) = holding
                        .into_iter()
                        .partition(|r| self.placement.owner(r.entry) == owner);
                    for r in &moved {
                        self.views[r.entry as usize].held.subtract(*r);
                    }
                    pending.extend(moved);
                    holding = stay;
                }
                reply => {
                    // An unlock's ack says what its writes were logged
                    // under; a cond-wait's or barrier entry's are in the
                    // horizon its grant or release names.
                    if let (DsdMsg::UnlockAck { stamp, .. }, true) = (&reply, wrote) {
                        self.logged(owner, stamp)?;
                    }
                    return Ok(reply);
                }
            }
        }
    }

    /// Split a release's `ranges` into what ships and what is held: a
    /// barrier entry to `coordinator` holds what falls outside the `ship`
    /// set of an entry the coordinator owns; everything else ships, and
    /// what ships leaves the hold. Ranges come ascending, so one cursor
    /// walks each set. Returns what ships and the pieces held, which the
    /// hold takes in and the entry names ([`Self::held_names`]).
    ///
    /// A piece is a range of the release's stride: a range is cut only at
    /// the spans of a set its elements meet (DESIGN §5, "A release's
    /// piece"), so a colour of a row that nobody reads, or that another
    /// reads whole, is one piece, and work per element is left to the rows
    /// a `ship` list cuts and to what first joins the hold.
    fn hold(
        &mut self,
        coordinator: Option<u32>,
        ranges: Vec<UpdateRange>,
    ) -> (Vec<UpdateRange>, Vec<UpdateRange>) {
        // What is held waits out the barrier: size it once.
        let size = coordinator.map_or(0, |_| ranges.len());
        let (mut ship, mut held) = (Vec::new(), Vec::with_capacity(size));
        for of_entry in ranges.chunk_by(|a, b| a.entry == b.entry) {
            let entry = of_entry[0].entry;
            let holds = coordinator == Some(self.placement.owner(entry));
            let EntryView {
                ship: read,
                held: hold,
                ..
            } = &mut self.views[entry as usize];
            let Some(read) = read.as_ref().filter(|_| holds) else {
                if !hold.is_empty() {
                    of_entry.iter().for_each(|r| hold.subtract(*r));
                }
                ship.extend_from_slice(of_entry);
                continue;
            };
            let (from_ship, from_held) = (ship.len(), held.len());
            let mut at_read = read.cursor();
            for r in of_entry {
                if at_read.misses(r.first, r.end()) {
                    held.push(*r); // read by nobody: the hull is exact
                    continue;
                }
                for (span, piece) in at_read.split(*r) {
                    match span {
                        Some(_) => ship.push(piece),
                        None => held.push(piece),
                    }
                }
            }
            if !hold.is_empty() {
                ship[from_ship..].iter().for_each(|r| hold.subtract(*r));
            }
            // Mostly held already: a stencil rewrites what it wrote.
            hold.extend(held[from_held..].iter().copied());
        }
        (ship, held)
    }

    /// What a barrier entry names held: each of its held `pieces`
    /// (ascending) as it is, cut to what the hold still has. A fetch that a
    /// flush's wait served took the rest out of the hold, and the shard
    /// has those bytes. A name is a row of the piece's stride, and what
    /// earlier barriers held is never named again.
    fn held_names(&self, pieces: &[UpdateRange]) -> Vec<UpdateRange> {
        let mut names = Vec::with_capacity(pieces.len());
        for of_entry in pieces.chunk_by(|a, b| a.entry == b.entry) {
            let mut at = self.views[of_entry[0].entry as usize].held.cursor();
            for piece in of_entry {
                if at.holds(*piece) {
                    names.push(*piece); // the hold has it all
                    continue;
                }
                // Parts in the hold with no gap part between them are
                // consecutive elements of the piece: one name.
                let mut open: Option<UpdateRange> = None;
                for (span, part) in at.split(*piece) {
                    match (span, &mut open) {
                        (Some(_), Some(name)) => name.count += part.count,
                        (Some(_), None) => open = Some(part),
                        (None, _) => names.extend(open.take()),
                    }
                }
                names.extend(open);
            }
        }
        names
    }

    /// The tail of every acquire (lock grant, cond wake, barrier
    /// release): `updates`, `notices` and `stamp` rode in with the reply
    /// from shard `granting`. Pull the outstanding updates of each other
    /// shard where a write that happens before the acquire may be unseen
    /// (`UpdateFetch` — never on a single-shard directory) and take the lot
    /// in. The grant's horizon happens before whatever this thread does
    /// next: its writes there are in the grant, or noticed.
    fn finish_acquire(
        &mut self,
        granting: u32,
        updates: UpdateBatch,
        mut notices: Vec<UpdateRange>,
        stamp: Vec<(u32, u64)>,
    ) -> Result<(), DsdError> {
        self.pulled(granting, &stamp)?;
        let mut batches = vec![updates];
        for shard in (0..self.directory().n_shards()).filter(|&s| s != granting) {
            if !self.logs[shard as usize].unseen() {
                continue;
            }
            let rank = self.thread_rank;
            let fetch = DsdMsg::UpdateFetch { rank };
            match self.request_holding(shard, fetch, Report::default())? {
                DsdMsg::UpdateBatch {
                    updates,
                    notices: more,
                    stamp,
                } => {
                    self.pulled(shard, &stamp)?;
                    batches.push(updates);
                    notices.extend(more);
                }
                _ => return Err(DsdError::Unexpected("UpdateBatch")),
            }
        }
        let granted = &mut self.logs[granting as usize];
        granted.before = granted.before.max(granted.pulled.unwrap_or(0));
        self.apply_incoming(&batches, &notices)
    }

    /// The stamp of a release to `owner`: for every other shard, the
    /// highest sequence of a write there that happens before the release.
    fn stamp(&self, owner: u32) -> Vec<(u32, u64)> {
        (0..)
            .zip(&self.logs)
            .filter(|&(shard, log)| shard != owner && log.before > 0)
            .map(|(shard, log)| (shard, log.before))
            .collect()
    }

    /// The row of `stamp` that names `shard`, if any; a row naming no
    /// shard refuses the reply it came in.
    fn row_for(&self, shard: u32, stamp: &[(u32, u64)]) -> Result<Option<u64>, DsdError> {
        if stamp.iter().any(|&(s, _)| s >= self.directory().n_shards()) {
            return Err(ProtocolError::BadMessage("stamp row for no shard").into());
        }
        Ok(stamp
            .iter()
            .find(|&&(s, _)| s == shard)
            .map(|&(_, seq)| seq))
    }

    /// Take in the stamp of a pull from `shard` (a grant, a barrier release
    /// or a fetch's reply): its row for `shard` is the shard's new horizon
    /// for this thread — none, the horizon did not move — and every other
    /// row what happens before the acquire at its shard.
    fn pulled(&mut self, shard: u32, stamp: &[(u32, u64)]) -> Result<(), DsdError> {
        let horizon = self.row_for(shard, stamp)?;
        for &(s, seq) in stamp.iter().filter(|&&(s, _)| s != shard) {
            let log = &mut self.logs[s as usize];
            log.before = log.before.max(seq);
        }
        let log = &mut self.logs[shard as usize];
        log.pulled = Some(horizon.or(log.pulled).unwrap_or(0));
        Ok(())
    }

    /// Take in the reply to writes `shard` absorbed: its row for `shard` is
    /// the sequence they were logged under, with this thread's horizon left
    /// behind another's write it has not seen. None: they were logged next
    /// after that horizon, which moved on to them.
    fn logged(&mut self, shard: u32, stamp: &[(u32, u64)]) -> Result<(), DsdError> {
        let row = self.row_for(shard, stamp)?;
        let log = &mut self.logs[shard as usize];
        let at = row.unwrap_or_else(|| {
            let next = log.pulled.unwrap_or(0) + 1;
            log.pulled = Some(next);
            next
        });
        log.before = log.before.max(at);
        Ok(())
    }

    /// Fetch before use: bring the stale part of `[first, end)` of `entry`
    /// up to date from the shard that owns it — exactly the intersection,
    /// one request (retransmitted, deduplicated and failed over like any
    /// other), re-routed when the entry has moved since the notice. What
    /// comes back may be newer than the acquire required; only a racy
    /// program can tell.
    #[cold]
    #[inline(never)]
    fn fetch_stale(&mut self, entry: u32, first: u64, end: u64) -> Result<(), DsdError> {
        let Some(v) = self.views.get(entry as usize) else {
            return Ok(());
        };
        let ranges: Vec<UpdateRange> = (v.stale.split(first, end))
            .filter(|p| p.inside)
            .map(|p| UpdateRange::new(entry, p.first, p.end - p.first))
            .collect();
        if ranges.is_empty() {
            return Ok(());
        }
        let rank = self.thread_rank;
        let updates = loop {
            let (owner, ranges) = (self.placement.owner(entry), ranges.clone());
            let fetch = DsdMsg::RangeFetch { rank, ranges };
            match self.request_holding(owner, fetch, Report::default())? {
                DsdMsg::UpdateBatch { updates, .. } => break updates,
                DsdMsg::EntryMoved { entries } => self.learn_moves(&entries),
                _ => return Err(DsdError::Unexpected("UpdateBatch (range fetch)")),
            }
        };
        self.recorder.count("client.range_fetches", 1);
        // Applying a run takes it out of the stale set: a reply that left
        // any of the run stale did not answer the request.
        self.apply_incoming(&[updates], &[])?;
        let stale = &self.views[entry as usize].stale;
        match stale.split(first, end).any(|p| p.inside) {
            false => Ok(()),
            true => Err(DsdError::Unexpected("every range of the fetch")),
        }
    }

    /// The read path off its window: the run `[first, end)` of `entry` is
    /// about to be returned. Fetch what is stale of it, add it to the
    /// interest (what is new of it is owed to the owning shard) and open
    /// the window around it.
    #[cold]
    #[inline(never)]
    fn note_read(&mut self, entry: u32, first: u64, end: u64) -> Result<(), DsdError> {
        let v = &self.views[entry as usize];
        if end <= first || end > v.count {
            return Ok(()); // nothing read, or the accessor refuses it
        }
        if !v.stale.is_empty() {
            self.fetch_stale(entry, first, end)?;
        }
        let v = &mut self.views[entry as usize];
        for p in v.interest.split(first, end).filter(|p| !p.inside) {
            v.unreported.insert(p.first, p.end);
        }
        v.interest.insert(first, end);
        let read = v.interest.around(first, end).expect("just inserted");
        let fresh = v.stale.around(first, end).expect("just fetched");
        v.window = (read.lo.max(fresh.lo), read.hi.min(fresh.hi));
        Ok(())
    }

    /// The store path off its window: fetch what is stale of `[first,
    /// end)` of `entry`, if anything is, and open the window over the
    /// stale-free stretch around it — the next store there, and every one
    /// while the entry has nothing stale at all, is back to two compares.
    #[cold]
    #[inline(never)]
    fn note_write(&mut self, entry: u32, first: u64, end: u64) -> Result<(), DsdError> {
        let v = &self.views[entry as usize];
        if end <= first || end > v.count {
            return Ok(()); // nothing stored, or the accessor refuses it
        }
        if v.stale.around(first, end).is_none_or(|p| p.inside) {
            self.fetch_stale(entry, first, end)?;
        }
        let v = &mut self.views[entry as usize];
        let fresh = v.stale.around(first, end).expect("just fetched");
        v.fresh = (fresh.lo, fresh.hi);
        Ok(())
    }

    /// Before a read of `n` elements of `entry` from `first` returns.
    #[inline]
    fn before_read(&mut self, entry: u32, first: u64, n: usize) -> Result<(), DsdError> {
        if let Some(v) = self.views.get(entry as usize) {
            let end = first.saturating_add(n as u64);
            if first < v.window.0 || end > v.window.1 {
                self.note_read(entry, first, end)?;
            }
        }
        Ok(())
    }

    /// Before a store to `n` elements of `entry` from `first`: a stale
    /// element is fetched first, so that fetch and message counts do not
    /// depend on whether a program stores to what it was only told of (the
    /// write set would ship the store either way). A store is not a read:
    /// the interest stays as it is, and the window it is checked against
    /// (`fresh`) is any stale-free range.
    #[inline]
    fn before_write(&mut self, entry: u32, first: u64, n: usize) -> Result<(), DsdError> {
        if let Some(v) = self.views.get(entry as usize) {
            let end = first.saturating_add(n as u64);
            if first < v.fresh.0 || end > v.fresh.1 {
                self.note_write(entry, first, end)?;
            }
        }
        Ok(())
    }

    /// After a store to `n` elements of `entry` from `first` succeeded:
    /// fold them into the write set.
    #[inline]
    fn wrote(&mut self, entry: u32, first: u64, n: usize) {
        if let Some(v) = self.views.get_mut(entry as usize) {
            v.written.insert(first, first + n as u64);
        }
    }

    // ----- the typed session API -----

    /// Acquire distributed mutex `lock` (paper §4.1 `MTh_lock`):
    /// outstanding updates arrive with the grant and are applied before
    /// this returns. Pair with [`Self::release`], or use [`Self::lock`]
    /// for an RAII guard.
    pub fn acquire(&mut self, lock: LockId) -> Result<(), DsdError> {
        let lock = lock.raw();
        self.op(OpKind::Lock, lock, |c| {
            let owner = c.directory().lock_shard(lock);
            let reply = {
                let mut span = c.recorder.span(c.obs_rank, EventKind::LockWait);
                span.args(lock as u64, 0);
                span.op(c.cur_op);
                let rank = c.thread_rank;
                let request = DsdMsg::LockRequest { lock, rank };
                c.request_holding(owner, request, Report::default())?
            };
            match reply {
                DsdMsg::LockGrant {
                    lock: l,
                    updates,
                    notices,
                    stamp,
                } if l == lock => {
                    if c.recorder.is_enabled() {
                        c.held_since
                            .insert(lock, (c.recorder.now_us(), c.clock.now()));
                    }
                    c.finish_acquire(owner, updates, notices, stamp)
                }
                _ => Err(DsdError::Unexpected("LockGrant")),
            }
        })
    }

    /// Release distributed mutex `lock` (paper §4.2 `MTh_unlock`): local
    /// modifications are diffed, tagged, packed and shipped home.
    pub fn release(&mut self, lock: LockId) -> Result<(), DsdError> {
        let lock = lock.raw();
        self.op(OpKind::Unlock, lock, |c| {
            let owner = c.directory().lock_shard(lock);
            let mut release = c.recorder.span(c.obs_rank, EventKind::LockRelease);
            release.args(lock as u64, 0);
            release.op(c.cur_op);
            let rank = c.thread_rank;
            match c.release_via(owner, false, |updates| DsdMsg::UnlockRequest {
                lock,
                rank,
                updates,
            })? {
                DsdMsg::UnlockAck { lock: l, .. } if l == lock => {
                    c.recorder.heat(|h| h.release_to(rank, owner));
                    if let Some((t_us, start)) = c.held_since.remove(&lock) {
                        c.recorder.span_at_op(
                            c.obs_rank,
                            EventKind::LockHold,
                            t_us,
                            c.clock.now().saturating_since(start).as_micros() as u64,
                            lock as u64,
                            0,
                            "",
                            c.cur_op,
                        );
                    }
                    Ok(())
                }
                _ => Err(DsdError::Unexpected("UnlockAck")),
            }
        })
    }

    /// Acquire mutex `lock` and return a guard that releases it when
    /// dropped — including on panic, so a failing critical section still
    /// flushes its diffs home. The guard dereferences to the client.
    pub fn lock(&mut self, lock: LockId) -> Result<LockGuard<'_>, DsdError> {
        self.acquire(lock)?;
        Ok(LockGuard {
            client: self,
            lock,
            released: false,
        })
    }

    /// `MTh_cond_wait(cond, lock)` — the distributed
    /// `pthread_cond_wait`: atomically release mutex `lock` (shipping this
    /// thread's updates, a full release) and sleep on condition `cond`;
    /// returns with the mutex re-acquired and outstanding updates applied
    /// (a full acquire). As with Pthreads, re-check the predicate in a
    /// loop — another thread may run between the signal and the wake.
    ///
    /// Under a sharded home the condition and the mutex must be homed at
    /// the same shard (`cond.raw() % S == lock.raw() % S`) so the
    /// release+park stays atomic at one owner.
    pub fn cond_wait(&mut self, cond: CondId, lock: LockId) -> Result<(), DsdError> {
        let (cond, lock) = (cond.raw(), lock.raw());
        self.op(OpKind::Cond, cond, |c| {
            let owner = c.directory().lock_shard(lock);
            if c.directory().cond_shard(cond) != owner {
                return Err(DsdError::ShardMismatch { cond, lock });
            }
            let rank = c.thread_rank;
            match c.release_via(owner, false, |updates| DsdMsg::CondWait {
                cond,
                lock,
                rank,
                updates,
            })? {
                DsdMsg::LockGrant {
                    lock: l,
                    updates,
                    notices,
                    stamp,
                } if l == lock => c.finish_acquire(owner, updates, notices, stamp),
                _ => Err(DsdError::Unexpected("LockGrant (cond wake)")),
            }
        })
    }

    /// `MTh_cond_signal(cond)` — wake one waiter. Acknowledged by the
    /// home so the signal survives a lossy fabric; callers conventionally
    /// hold the associated mutex while signalling.
    pub fn cond_signal(&mut self, cond: CondId) -> Result<(), DsdError> {
        self.cond_wake(cond.raw(), false)
    }

    /// `MTh_cond_broadcast(cond)` — wake every waiter.
    pub fn cond_broadcast(&mut self, cond: CondId) -> Result<(), DsdError> {
        self.cond_wake(cond.raw(), true)
    }

    fn cond_wake(&mut self, cond: u32, broadcast: bool) -> Result<(), DsdError> {
        self.op(OpKind::Cond, cond, |c| {
            let (shard, rank) = (c.directory().cond_shard(cond), c.thread_rank);
            let signal = DsdMsg::CondSignal {
                cond,
                rank,
                broadcast,
            };
            match c.request_holding(shard, signal, Report::default())? {
                DsdMsg::Ack { .. } => Ok(()),
                _ => Err(DsdError::Unexpected("Ack")),
            }
        })
    }

    /// `MTh_barrier(index, rank)` — a full release + acquire for every
    /// participant (paper §4: barriers spare the programmer from building
    /// them out of the distributed mutex).
    pub fn barrier(&mut self, barrier: BarrierId) -> Result<(), DsdError> {
        let barrier = barrier.raw();
        self.op(OpKind::Barrier, barrier, |c| {
            let coordinator = c.directory().barrier_shard(barrier);
            let mut span = c.recorder.span(c.obs_rank, EventKind::Barrier);
            span.args(barrier as u64, 0);
            span.op(c.cur_op);
            let rank = c.thread_rank;
            match c.release_via(coordinator, true, |updates| DsdMsg::BarrierEnter {
                barrier,
                rank,
                updates,
            })? {
                DsdMsg::BarrierRelease {
                    barrier: b,
                    updates,
                    ship,
                    notices,
                    stamp,
                } if b == barrier => {
                    c.recorder.heat(|h| h.release_to(rank, coordinator));
                    c.learn_ship(coordinator, &ship)?;
                    c.finish_acquire(coordinator, updates, notices, stamp)
                }
                _ => Err(DsdError::Unexpected("BarrierRelease")),
            }
        })
    }

    /// A barrier release from `coordinator` says what this thread ships of
    /// the entries the coordinator owns at its next barrier entry: `ship`
    /// replaces what the last one said.
    fn learn_ship(&mut self, coordinator: u32, ship: &[UpdateRange]) -> Result<(), DsdError> {
        for (entry, v) in self.views.iter_mut().enumerate() {
            if self.placement.owner(entry as u32) == coordinator {
                v.ship = Some(IntervalSet::default());
            }
        }
        for r in ship {
            let v = self.view_of(r, "ship row outside the index table")?;
            v.ship.get_or_insert_default().insert(r.first, r.end());
        }
        Ok(())
    }

    /// The current bytes of what this thread holds of the entries `shard`
    /// owns, framed for a `Join` or `Resync` (the empty frame when it
    /// holds nothing there).
    fn gather(&mut self, shard: u32) -> Result<UpdateBatch, DsdError> {
        let mut ranges = Vec::new();
        for (entry, v) in self.views.iter().enumerate() {
            if v.held.is_empty() || self.placement.owner(entry as u32) != shard {
                continue;
            }
            ranges.extend(v.held.rows().map(|row| UpdateRange::row(entry as u32, row)));
        }
        match ranges.is_empty() {
            true => Ok(UpdateBatch::default()),
            false => self.extract(&ranges),
        }
    }

    /// `MTh_join()` — sign off and wait for the program to end. Consumes
    /// the client; returns the accumulated costs and the final local copy.
    /// The home's shutdown broadcast is the (deferred, retransmittable)
    /// reply to this request. Each `Join` carries what this thread still
    /// holds of that shard's entries; a shard that finds a joined thread
    /// still holding some of its own asks for it first.
    pub fn join(mut self) -> Result<(CostBreakdown, ConversionStats, GthvInstance), DsdError> {
        self.op(OpKind::Join, 0, |c| {
            for shard in 0..c.directory().n_shards() {
                let updates = c.gather(shard)?;
                let rank = c.thread_rank;
                match c.request_holding(shard, DsdMsg::Join { rank, updates }, Report::default()) {
                    Ok(DsdMsg::Shutdown) => {}
                    // A shard cannot exit its service loop before
                    // processing every participant's Join — ours included.
                    // If it hung up mid-retransmission, the Shutdown reply
                    // was lost after a clean sign-off; nothing is owed to
                    // us.
                    Err(DsdError::Net(NetError::Disconnected(_))) => {}
                    Ok(_) => return Err(DsdError::Unexpected("Shutdown")),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;
        Ok((self.costs, self.conv_stats, self.gthv))
    }

    /// Re-host this thread on a different (possibly heterogeneous) node,
    /// carrying the global data segment with it — MigThread ships the
    /// globals as part of the thread state (paper §3.1: "thread states
    /// typically consist of the global data segment, stack, heap, and
    /// register contents"). The whole local copy is receiver-makes-right
    /// converted to the new platform's representation (t_conv). The write
    /// set, the interest, the stale ranges and what the thread holds are
    /// element indices and carry over as they are: unreleased stores still
    /// ship at the next release, and the thread's consistency horizon at
    /// the home node remains valid, so no resynchronisation round is
    /// needed.
    ///
    /// Must be called at an adaptation point with no lock held.
    pub fn rehost(&mut self, platform: Platform) -> Result<(), DsdError> {
        let full = extract_updates(&self.gthv, &full_ranges(&self.gthv))?;
        let mut fresh = GthvInstance::new(self.gthv.def().clone(), platform);
        let mut t = Phase::Conv.begin(&self.recorder, self.obs_rank, self.cur_op);
        t.args(full.len() as u64, full.payload_bytes());
        apply_batch(&mut fresh, &full, &mut self.conv_stats)?;
        t.end(&mut self.costs);
        self.gthv = fresh;
        Ok(())
    }

    /// Re-host with a *cold* copy instead of carrying the globals: the new
    /// node starts zeroed and the home service is told to fully refresh
    /// this thread at its next acquire. This models a skeleton thread that
    /// received only the compute state (stack/registers) without the
    /// global segment. What the old copy had read and been told goes: the
    /// interest and the stale ranges start empty, here and (with `Resync`)
    /// at every shard. What it held does not: each `Resync` carries the
    /// bytes of what it holds of that shard's entries, before the copy
    /// goes. Stores not yet released would go too, so the call refuses
    /// ([`DsdError::Unreleased`]) while the write set holds any, before it
    /// sends or changes anything: release first.
    pub fn rehost_cold(&mut self, platform: Platform) -> Result<(), DsdError> {
        if let Some(entry) = self.views.iter().position(|v| !v.written.is_empty()) {
            return Err(DsdError::Unreleased {
                entry: entry as u32,
            });
        }
        // Every shard tracks its own horizon for this thread; each must
        // drop it so the next acquire fully refreshes every slice. What
        // this thread holds goes along, before the copy does; a shard that
        // no longer owns an entry bounces, and its owner is told again.
        let mut todo: Vec<u32> = (0..self.directory().n_shards()).rev().collect();
        while let Some(shard) = todo.pop() {
            let updates = self.gather(shard)?;
            let rank = self.thread_rank;
            let resync = DsdMsg::Resync { rank, updates };
            match self.request_holding(shard, resync, Report::default())? {
                DsdMsg::Ack { .. } => self.logs[shard as usize].pulled = None,
                DsdMsg::EntryMoved { entries } => {
                    self.learn_moves(&entries);
                    todo.push(shard);
                    todo.extend(entries.iter().map(|&(_, to, _)| to));
                }
                _ => return Err(DsdError::Unexpected("Ack")),
            }
        }
        let def = self.gthv.def().clone();
        self.gthv = GthvInstance::new(def, platform);
        self.views = fresh_views(&self.gthv);
        Ok(())
    }

    // ----- typed accessors: the only way to the shared data -----
    //
    // A read returns nothing stale and is remembered as interest; a store
    // refreshes what is stale under it first (`before_read`,
    // `before_write`: two compares when the run lies in the entry's
    // window) and, once it succeeded, joins the write set (`wrote`). That
    // is why reads take `&mut self`.

    /// Read an integer element of the shared structure.
    #[inline]
    pub fn read_int(&mut self, entry: u32, elem: u64) -> Result<i128, DsdError> {
        self.before_read(entry, elem, 1)?;
        Ok(self.gthv.read_int(entry, elem)?)
    }

    /// Write an integer element (recorded in the write set).
    #[inline]
    pub fn write_int(&mut self, entry: u32, elem: u64, v: i128) -> Result<(), DsdError> {
        self.before_write(entry, elem, 1)?;
        self.gthv.write_int(entry, elem, v)?;
        self.wrote(entry, elem, 1);
        Ok(())
    }

    /// Read a float element.
    #[inline]
    pub fn read_float(&mut self, entry: u32, elem: u64) -> Result<f64, DsdError> {
        self.before_read(entry, elem, 1)?;
        Ok(self.gthv.read_float(entry, elem)?)
    }

    /// Write a float element (recorded in the write set).
    #[inline]
    pub fn write_float(&mut self, entry: u32, elem: u64, v: f64) -> Result<(), DsdError> {
        self.before_write(entry, elem, 1)?;
        self.gthv.write_float(entry, elem, v)?;
        self.wrote(entry, elem, 1);
        Ok(())
    }

    /// Read the `out.len()` integer elements of `entry` from `first`
    /// ([`GthvInstance::read_ints`]).
    pub fn read_ints(&mut self, entry: u32, first: u64, out: &mut [i128]) -> Result<(), DsdError> {
        self.before_read(entry, first, out.len())?;
        Ok(self.gthv.read_ints(entry, first, out)?)
    }

    /// Write `values` to the integer elements of `entry` from `first`
    /// (recorded in the write set; [`GthvInstance::write_ints`]).
    pub fn write_ints(&mut self, entry: u32, first: u64, values: &[i128]) -> Result<(), DsdError> {
        self.before_write(entry, first, values.len())?;
        self.gthv.write_ints(entry, first, values)?;
        self.wrote(entry, first, values.len());
        Ok(())
    }

    /// Read the `out.len()` float elements of `entry` from `first`
    /// ([`GthvInstance::read_floats`]).
    pub fn read_floats(&mut self, entry: u32, first: u64, out: &mut [f64]) -> Result<(), DsdError> {
        self.before_read(entry, first, out.len())?;
        Ok(self.gthv.read_floats(entry, first, out)?)
    }

    /// Write `values` to the float elements of `entry` from `first`
    /// (recorded in the write set; [`GthvInstance::write_floats`]).
    pub fn write_floats(&mut self, entry: u32, first: u64, values: &[f64]) -> Result<(), DsdError> {
        self.before_write(entry, first, values.len())?;
        self.gthv.write_floats(entry, first, values)?;
        self.wrote(entry, first, values.len());
        Ok(())
    }

    /// Read a pointer element as a logical `(entry, elem)` target.
    pub fn read_ptr(&mut self, entry: u32, elem: u64) -> Result<Option<(u32, u64)>, DsdError> {
        self.before_read(entry, elem, 1)?;
        Ok(self.gthv.read_ptr(entry, elem)?)
    }

    /// Write a pointer element (recorded in the write set).
    pub fn write_ptr(
        &mut self,
        entry: u32,
        elem: u64,
        target: Option<(u32, u64)>,
    ) -> Result<(), DsdError> {
        self.before_write(entry, elem, 1)?;
        self.gthv.write_ptr(entry, elem, target)?;
        self.wrote(entry, elem, 1);
        Ok(())
    }
}

/// RAII guard over an acquired distributed mutex, returned by
/// [`DsdClient::lock`]. Dereferences to the client so the critical
/// section reads and writes through the guard; the mutex is released —
/// shipping the section's diffs home — when the guard drops, explicitly
/// via [`LockGuard::unlock`] or implicitly at scope exit, including
/// during a panic unwind.
pub struct LockGuard<'a> {
    client: &'a mut DsdClient,
    lock: LockId,
    released: bool,
}

impl LockGuard<'_> {
    /// The mutex this guard holds.
    pub fn lock_id(&self) -> LockId {
        self.lock
    }

    /// Release explicitly, surfacing any protocol error (a drop-release
    /// can only swallow it).
    pub fn unlock(mut self) -> Result<(), DsdError> {
        self.released = true;
        self.client.release(self.lock)
    }
}

impl std::ops::Deref for LockGuard<'_> {
    type Target = DsdClient;
    fn deref(&self) -> &DsdClient {
        self.client
    }
}

impl std::ops::DerefMut for LockGuard<'_> {
    fn deref_mut(&mut self) -> &mut DsdClient {
        self.client
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        if !self.released {
            // Best effort: the release must not panic inside a drop
            // (possibly already unwinding). A failed release surfaces at
            // the next protocol operation instead.
            let _ = self.client.release(self.lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterBuilder, TopologyConfig};
    use crate::gthv::GthvDef;
    use crate::home::{HomeConfig, HomeShard};
    use hdsm_net::endpoint::Network;
    use hdsm_net::message::{Message, MsgKind};
    use hdsm_net::stats::NetConfig;
    use hdsm_net::FabricMode;
    use hdsm_platform::ctype::StructBuilder;
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::{Platform, PlatformSpec};
    use std::collections::VecDeque;

    /// The spans of `set`.
    fn spans(set: &IntervalSet) -> Vec<(u64, u64)> {
        set.spans().collect()
    }

    const L0: LockId = LockId::new(0);
    const B0: BarrierId = BarrierId::new(0);
    const C0: CondId = CondId::new(0);
    const C1: CondId = CondId::new(1);

    fn tiny_def() -> GthvDef {
        GthvDef::new(
            StructBuilder::new("G")
                .array("xs", ScalarKind::Int, 128)
                .scalar("flag", ScalarKind::Int)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    /// `tiny_def` on the sim fabric, the home on Linux/x86 with `xs[i] =
    /// 1000 + i`, one worker per platform, one mutex, one barrier and two
    /// condition variables.
    fn tiny_cluster(platforms: &[Platform]) -> ClusterBuilder {
        let sim = TopologyConfig {
            fabric: FabricMode::Sim { seed: 1 },
            ..Default::default()
        };
        let builder = ClusterBuilder::new()
            .gthv(tiny_def())
            .conds(2)
            .topology(sim);
        let builder = builder.init(init);
        platforms.iter().fold(builder, |b, p| b.worker(p.clone()))
    }

    /// The home's copy of `tiny_def` at the start: `xs[i] = 1000 + i`.
    fn init(g: &mut GthvInstance) {
        for i in 0..128 {
            g.write_int(0, i, 1000 + i as i128).unwrap();
        }
    }

    /// Run `body` on every worker of [`tiny_cluster`]; a worker that fails
    /// an assertion fails the run.
    fn run_on(platforms: &[Platform], body: impl Fn(&mut DsdClient) + Send + Sync) {
        let run = tiny_cluster(platforms).run(|c, _| {
            body(c);
            Ok(())
        });
        run.expect("every worker ran its body");
    }

    #[test]
    fn release_charges_its_ranges_to_the_heat_map_an_entry_at_a_time() {
        let recorder = Recorder::enabled();
        run_on(&[PlatformSpec::solaris_sparc()], |c| {
            c.set_recorder(recorder.clone());
            c.acquire(L0).unwrap();
            c.write_int(0, 0, 1).unwrap();
            c.write_ints(0, 20, &[2; 4]).unwrap();
            c.write_int(1, 0, 1).unwrap();
            c.release(L0).unwrap();
        });
        let snap = recorder.snapshot().expect("enabled recorder");
        let row = |entry| *snap.entries.iter().find(|e| e.entry == entry).unwrap();
        // Element 0 and elements 20..24 of entry 0, one element of entry
        // 1, all attributed to this writer.
        let sent = |e: u32| (row(e).updates_sent, row(e).elems_sent);
        assert_eq!((sent(0), sent(1)), ((2, 5), (1, 1)));
        let by_writer: Vec<_> = snap
            .write_heat
            .iter()
            .map(|w| (w.writer, w.updates))
            .collect();
        assert_eq!(by_writer, [(1, 2), (1, 1)]);
    }

    /// Bring rank 1 to the state "ship what is read" exists for: it has
    /// read `xs[0..8]`, its home knows, and `xs[50..60]` — rewritten by
    /// rank 2 to `2000 + i` — is noticed, not shipped. Rank 2 runs `other`
    /// from there, rank 1 `reader`.
    fn with_a_noticed_stripe(
        platforms: &[Platform],
        reader: impl Fn(&mut DsdClient) + Send + Sync,
        other: impl Fn(&mut DsdClient) + Send + Sync,
    ) {
        run_on(platforms, |c| {
            c.barrier(B0).unwrap(); // the initial pull
            if c.thread_rank() == 1 {
                c.read_ints(0, 0, &mut [0; 8]).unwrap();
                assert_eq!(spans(&c.views[0].unreported), [(0, 8)]);
                c.barrier(B0).unwrap(); // reports; the stripe is noticed
                assert_eq!(spans(&c.views[0].stale), [(50, 60)]);
                assert_eq!(c.read_int(0, 55).unwrap(), 1900 + 55);
                c.barrier(B0).unwrap(); // reports; the rewrite is noticed
                assert_eq!(spans(&c.views[0].interest), [(0, 8), (55, 56)]);
                assert_eq!(spans(&c.views[0].stale), [(50, 55), (56, 60)]);
                assert!(c.views[0].unreported.is_empty());
                reader(c);
            } else {
                for i in 50..60 {
                    c.write_int(0, i, 1900 + i as i128).unwrap();
                }
                c.barrier(B0).unwrap();
                for i in 50..55 {
                    c.write_int(0, i, 2000 + i as i128).unwrap();
                }
                for i in 56..60 {
                    c.write_int(0, i, 2000 + i as i128).unwrap();
                }
                c.barrier(B0).unwrap();
                other(c);
            }
        });
    }

    fn fetches(c: &DsdClient) -> u64 {
        let snap = c.recorder().snapshot().expect("armed");
        let row = snap
            .counters
            .iter()
            .find(|(k, _)| k == "client.range_fetches");
        row.map_or(0, |(_, v)| *v)
    }

    #[test]
    fn a_noticed_range_is_fetched_before_a_read_or_a_store_returns() {
        let recorder = Recorder::enabled();
        with_a_noticed_stripe(
            &[PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()],
            |c| {
                c.set_recorder(recorder.clone());
                let applied = c.costs().updates_applied;
                // Inside the window: nothing to fetch, nothing to say.
                assert_eq!(c.read_int(0, 3).unwrap(), 1003);
                assert_eq!(fetches(c), 0);
                // A read of a noticed element fetches exactly what of the
                // run is stale — [52, 55) of [52, 56) — and returns it.
                let mut got = [0; 4];
                c.read_ints(0, 52, &mut got).unwrap();
                assert_eq!(got, [2052, 2053, 2054, 1955]);
                assert_eq!(fetches(c), 1);
                assert_eq!(c.costs().updates_applied, applied + 1);
                assert_eq!(spans(&c.views[0].stale), [(50, 52), (56, 60)]);
                assert_eq!(spans(&c.views[0].interest), [(0, 8), (52, 56)]);
                assert_eq!(c.views[0].window, (52, 56));
                // A store fetches first too, even of the very value the
                // stale copy held (1957).
                c.write_int(0, 57, 1957).unwrap();
                assert_eq!(fetches(c), 2);
                assert_eq!(spans(&c.views[0].stale), [(50, 52), (56, 57), (58, 60)]);
                assert_eq!(c.views[0].fresh, (57, 58));
                // A store clear of everything stale fetches nothing and
                // opens the store window over the whole stale-free stretch.
                c.write_int(0, 100, 7).unwrap();
                assert_eq!((fetches(c), c.views[0].fresh), (2, (60, u64::MAX)));
                // Fetched values are nobody's local write: the release
                // ships the two stores and nothing else.
                let sent = c.costs().updates_sent;
                c.barrier(B0).unwrap();
                assert_eq!(c.costs().updates_sent, sent + 2);
                c.barrier(B0).unwrap();
            },
            |c| {
                c.barrier(B0).unwrap();
                assert_eq!(c.read_int(0, 57).unwrap(), 1957, "the store was shipped");
                assert_eq!(c.read_int(0, 53).unwrap(), 2053, "a fetch was not");
                c.barrier(B0).unwrap();
            },
        );
    }

    #[test]
    fn warm_rehost_keeps_what_is_stale_and_cold_rehost_forgets_it() {
        with_a_noticed_stripe(
            &[PlatformSpec::linux_x86(), PlatformSpec::linux_x86()],
            |c| {
                // Element indices mean the same on the new node.
                c.rehost(PlatformSpec::solaris_sparc64()).unwrap();
                assert_eq!(spans(&c.views[0].stale), [(50, 55), (56, 60)]);
                assert_eq!(c.read_int(0, 58).unwrap(), 2058, "fetched after the move");
                assert_eq!(spans(&c.views[0].stale), [(50, 55), (56, 58), (59, 60)]);
                // A cold copy has read nothing and been told nothing: its
                // next acquire refreshes everything but what the other
                // thread still holds — the part of its rewrite the fetch of
                // 58 did not bring (that one asked for the whole held span
                // 56..60), which comes as a notice and is fetched on the read.
                c.rehost_cold(PlatformSpec::linux_x86()).unwrap();
                assert!(c.views[0].stale.is_empty() && c.views[0].interest.is_empty());
                c.barrier(B0).unwrap();
                assert_eq!(spans(&c.views[0].stale), [(50, 55)]);
                let mut all = [0; 128];
                c.read_ints(0, 0, &mut all).unwrap();
                assert!(c.views[0].stale.is_empty());
                assert_eq!((all[3], all[52], all[55]), (1003, 2052, 1955));
            },
            |c| c.barrier(B0).unwrap(),
        );
    }

    /// One client per platform, rank `i + 1` at endpoint `i + 1` of a
    /// network no frame crosses: a test steps each by hand, the home at
    /// endpoint 0.
    fn by_hand(platforms: &[Platform]) -> Vec<DsdClient> {
        let (_net, eps) = Network::new(platforms.len() + 1, NetConfig::instant());
        let client = |(rank, (ep, p)): (u32, (Endpoint, &Platform))| {
            DsdClient::new(rank, ep, GthvInstance::new(tiny_def(), p.clone()))
        };
        (1..)
            .zip(eps.into_iter().skip(1).zip(platforms))
            .map(client)
            .collect()
    }

    /// `s`, which endpoint `src`'s step posted, as the wire carries it.
    fn on_wire(src: u32, s: &Outgoing) -> Message {
        let (dst, kind, payload, trace) = (s.to, s.kind, s.payload.clone(), None);
        Message {
            src,
            dst,
            kind,
            payload,
            trace,
        }
    }

    /// `msg` from the home at endpoint 0 to `c`, as reply `req_id`.
    fn from_home(c: &DsdClient, req_id: u64, msg: DsdMsg) -> Input<'static> {
        Input::Frame(Message {
            src: 0,
            dst: c.ep.rank(),
            kind: msg.kind(),
            payload: msg.encode_enveloped(req_id),
            trace: None,
        })
    }

    fn range(entry: u32, first: u64, count: u64) -> UpdateRange {
        UpdateRange::new(entry, first, count)
    }

    fn elems(first: u64, count: u64) -> UpdateRange {
        range(0, first, count)
    }

    /// Rows no notice or fetch may name: past the array, past `u64::MAX`,
    /// of an entry the table does not have.
    fn wild() -> [UpdateRange; 3] {
        [range(0, 120, 9), range(0, u64::MAX, 2), range(7, 0, 1)]
    }

    #[test]
    fn a_notice_outside_the_index_table_is_refused() {
        let mut c = by_hand(&[PlatformSpec::linux_x86()]).remove(0);
        let t = FabricInstant::from_micros(0);
        for wild in wild() {
            let mut req = c.ask(
                t,
                0,
                DsdMsg::LockRequest { lock: 0, rank: 1 },
                Report::default(),
            );
            let grant = DsdMsg::LockGrant {
                lock: 0,
                updates: UpdateBatch::default(),
                notices: vec![elems(0, 4), wild],
                stamp: Vec::new(),
            };
            let grant = from_home(&c, req.req_id, grant);
            let reply = c.on(&mut req, t, grant);
            let Ok(Some(DsdMsg::LockGrant {
                updates,
                notices,
                stamp,
                ..
            })) = reply
            else {
                panic!("the grant is the reply, got {reply:?}");
            };
            let res = c.finish_acquire(0, updates, notices, stamp);
            assert!(matches!(res, Err(DsdError::Protocol(_))), "{wild:?}");
        }
    }

    #[test]
    fn a_view_change_without_replicas_is_dropped_and_the_request_keeps_its_destination() {
        // No other endpoint serves a shard of an unreplicated directory,
        // nor one the directory does not have: the redirect is dropped,
        // like a frame that does not decode.
        let mut c = by_hand(&[PlatformSpec::linux_x86()]).remove(0);
        let t = FabricInstant::from_micros(0);
        let lock = DsdMsg::LockRequest { lock: 0, rank: 1 };
        let mut req = c.ask(t, 0, lock, Report::default());
        c.outbox.clear();
        let dst = req.dst;
        for shard in [0, 7] {
            let bounce = from_home(&c, req.req_id, DsdMsg::ViewChange { shard, epoch: 1 });
            let res = c.on(&mut req, t, bounce);
            assert!(matches!(res, Ok(None)), "{res:?}");
            assert_eq!((req.dst, c.epoch_of(0), c.shard_ep(0)), (dst, 0, dst));
            assert!(c.outbox.is_empty(), "nothing is resent");
        }
    }

    #[test]
    fn a_held_fetch_outside_the_index_table_is_refused() {
        let mut c = by_hand(&[PlatformSpec::linux_x86()]).remove(0);
        let t = FabricInstant::from_micros(0);
        for wild in wild() {
            let mut req = c.ask(
                t,
                0,
                DsdMsg::LockRequest { lock: 0, rank: 1 },
                Report::default(),
            );
            let fetch = DsdMsg::HeldFetch {
                ranges: vec![elems(0, 4), wild],
            };
            let res = c.on(&mut req, t, from_home(&c, 0, fetch));
            assert!(matches!(res, Err(DsdError::Protocol(_))), "{wild:?}");
            assert!(c.outbox.is_empty(), "nothing is served");
        }
    }

    #[test]
    fn lock_pulls_initial_state_heterogeneous() {
        run_on(&[PlatformSpec::solaris_sparc()], |c| {
            c.acquire(L0).unwrap();
            assert_eq!(c.read_int(0, 0).unwrap(), 1000);
            assert_eq!(c.read_int(0, 127).unwrap(), 1127);
            c.release(L0).unwrap();
        });
    }

    #[test]
    fn updates_flow_between_heterogeneous_threads() {
        // Thread 1 (sparc) increments flag; thread 2 (linux) waits to see
        // it. Use the lock to serialize.
        run_on(
            &[PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()],
            |c| {
                if c.thread_rank() == 1 {
                    c.acquire(L0).unwrap();
                    c.write_int(1, 0, 7).unwrap();
                    for i in 0..64 {
                        c.write_int(0, i, -(i as i128)).unwrap();
                    }
                    c.release(L0).unwrap();
                    c.barrier(B0).unwrap();
                } else {
                    c.barrier(B0).unwrap();
                    c.acquire(L0).unwrap();
                    assert_eq!(c.read_int(1, 0).unwrap(), 7);
                    assert_eq!(c.read_int(0, 63).unwrap(), -63);
                    // Untouched tail still has the initial contents.
                    assert_eq!(c.read_int(0, 100).unwrap(), 1100);
                    c.release(L0).unwrap();
                }
            },
        );
    }

    #[test]
    fn barrier_merges_disjoint_writes() {
        run_on(
            &[
                PlatformSpec::solaris_sparc(),
                PlatformSpec::linux_x86(),
                PlatformSpec::linux_x86_64(),
            ],
            |c| {
                let r = c.thread_rank() as u64 - 1;
                // Pull the initial state first — release consistency only
                // guarantees a coherent view after an acquire.
                c.barrier(B0).unwrap();
                // Each thread writes its own 32-element stripe.
                for i in (r * 32)..(r * 32 + 32) {
                    c.write_int(0, i, (i as i128) * 10).unwrap();
                }
                c.barrier(B0).unwrap();
                // Everyone sees every stripe.
                for i in 0..96 {
                    assert_eq!(c.read_int(0, i).unwrap(), (i as i128) * 10, "elem {i}");
                }
            },
        );
    }

    #[test]
    fn lock_contention_serializes_increments() {
        let counter_entry = 1; // "flag" scalar used as shared counter
        run_on(
            &[
                PlatformSpec::solaris_sparc(),
                PlatformSpec::linux_x86(),
                PlatformSpec::aix_power(),
            ],
            move |c| {
                for _ in 0..10 {
                    c.acquire(L0).unwrap();
                    let v = c.read_int(counter_entry, 0).unwrap();
                    c.write_int(counter_entry, 0, v + 1).unwrap();
                    c.release(L0).unwrap();
                }
                c.barrier(B0).unwrap();
                c.acquire(L0).unwrap();
                assert_eq!(c.read_int(counter_entry, 0).unwrap(), 30);
                c.release(L0).unwrap();
            },
        );
    }

    #[test]
    fn costs_are_recorded() {
        run_on(&[PlatformSpec::solaris_sparc()], |c| {
            c.acquire(L0).unwrap();
            for i in 0..128 {
                c.write_int(0, i, i as i128).unwrap();
            }
            c.release(L0).unwrap();
            let costs = c.costs();
            assert!(costs.updates_sent >= 1);
            assert!(costs.updates_applied >= 1); // initial state batch
            assert!(costs.c_share() > Duration::ZERO);
        });
    }

    #[test]
    fn condvar_producer_consumer_across_endiannesses() {
        // Classic bounded-buffer handshake through MTh_cond_wait /
        // MTh_cond_signal: thread 1 (big-endian) produces 10 items into
        // xs[0..10]; thread 2 (little-endian) consumes them. flag (entry
        // 1) holds the number of items available.
        run_on(
            &[PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()],
            |c| {
                const ITEMS: i128 = 10;
                if c.thread_rank() == 1 {
                    // Producer.
                    for i in 0..ITEMS {
                        c.acquire(L0).unwrap();
                        c.write_int(0, i as u64, 500 + i).unwrap();
                        c.write_int(1, 0, i + 1).unwrap();
                        c.cond_signal(C0).unwrap();
                        c.release(L0).unwrap();
                    }
                    c.barrier(B0).unwrap();
                } else {
                    // Consumer.
                    let mut consumed = 0i128;
                    c.acquire(L0).unwrap();
                    while consumed < ITEMS {
                        let available = c.read_int(1, 0).unwrap();
                        if available <= consumed {
                            // Predicate loop around cond_wait, as with
                            // pthread_cond_wait.
                            c.cond_wait(C0, L0).unwrap();
                            continue;
                        }
                        for i in consumed..available {
                            assert_eq!(c.read_int(0, i as u64).unwrap(), 500 + i, "item {i}");
                        }
                        consumed = available;
                    }
                    c.release(L0).unwrap();
                    c.barrier(B0).unwrap();
                }
            },
        );
    }

    #[test]
    fn cond_broadcast_wakes_all_waiters() {
        run_on(
            &[
                PlatformSpec::linux_x86(),
                PlatformSpec::solaris_sparc(),
                PlatformSpec::linux_x86_64(),
            ],
            |c| {
                if c.thread_rank() == 1 {
                    // The broadcaster waits for both waiters to park (they
                    // bump entry 1 under the lock before waiting), then
                    // sets the flag and wakes everyone.
                    loop {
                        c.acquire(L0).unwrap();
                        let parked = c.read_int(1, 0).unwrap();
                        if parked == 2 {
                            c.write_int(0, 0, 777).unwrap();
                            c.cond_broadcast(C1).unwrap();
                            c.release(L0).unwrap();
                            break;
                        }
                        c.release(L0).unwrap();
                        std::thread::yield_now();
                    }
                } else {
                    c.acquire(L0).unwrap();
                    let parked = c.read_int(1, 0).unwrap();
                    c.write_int(1, 0, parked + 1).unwrap();
                    while c.read_int(0, 0).unwrap() != 777 {
                        c.cond_wait(C1, L0).unwrap();
                    }
                    c.release(L0).unwrap();
                }
                c.barrier(B0).unwrap();
            },
        );
    }

    #[test]
    fn cold_rehost_pulls_full_state_on_new_platform() {
        run_on(&[PlatformSpec::linux_x86()], |c| {
            c.acquire(L0).unwrap();
            c.write_int(1, 0, 99).unwrap();
            c.release(L0).unwrap();
            // Migrate this thread to a big-endian LP64 node, cold.
            c.rehost_cold(PlatformSpec::solaris_sparc64()).unwrap();
            assert_eq!(c.platform().name, "solaris-sparc64");
            // Cold copy: zero until the next acquire.
            assert_eq!(c.read_int(1, 0).unwrap(), 0);
            c.acquire(L0).unwrap();
            assert_eq!(c.read_int(1, 0).unwrap(), 99);
            assert_eq!(c.read_int(0, 5).unwrap(), 1005);
            c.release(L0).unwrap();
        });
    }

    #[test]
    fn cold_rehost_refuses_unreleased_stores() {
        run_on(&[PlatformSpec::linux_x86()], |c| {
            c.acquire(L0).unwrap();
            c.write_ints(0, 4, &[7, 8]).unwrap();
            let sent = c.network().stats().total_messages();
            let res = c.rehost_cold(PlatformSpec::solaris_sparc64());
            assert!(
                matches!(res, Err(DsdError::Unreleased { entry: 0 })),
                "{res:?}"
            );
            // Nothing sent, the copy and the write set as they were.
            assert_eq!(c.network().stats().total_messages(), sent);
            assert_eq!(c.platform().name, "linux-x86");
            assert_eq!(c.read_int(0, 5).unwrap(), 8);
            assert_eq!(spans(&c.views[0].written), [(4, 6)]);
            // Released, the same move goes through and the stores survive.
            c.release(L0).unwrap();
            c.rehost_cold(PlatformSpec::solaris_sparc64()).unwrap();
            c.acquire(L0).unwrap();
            assert_eq!(c.read_int(0, 5).unwrap(), 8);
            c.release(L0).unwrap();
        });
    }

    #[test]
    fn warm_rehost_carries_globals_and_dirty_state() {
        run_on(&[PlatformSpec::linux_x86()], |c| {
            // Acquire initial state, then write *without releasing*.
            c.acquire(L0).unwrap();
            c.write_int(0, 10, -42).unwrap();
            // Migrate mid-critical-section data to a BE LP64 node.
            c.rehost(PlatformSpec::solaris_sparc64()).unwrap();
            assert_eq!(c.platform().name, "solaris-sparc64");
            // The global segment travelled with the thread: both the
            // pulled initial state and the unreleased write are visible.
            assert_eq!(c.read_int(0, 10).unwrap(), -42);
            assert_eq!(c.read_int(0, 5).unwrap(), 1005);
            // Releasing after the move still ships the pre-move write.
            c.release(L0).unwrap();
            c.rehost_cold(PlatformSpec::linux_x86()).unwrap();
            c.acquire(L0).unwrap();
            assert_eq!(c.read_int(0, 10).unwrap(), -42, "write survived");
            c.release(L0).unwrap();
        });
    }

    #[test]
    fn lock_guard_releases_on_drop() {
        run_on(&[PlatformSpec::linux_x86()], |c| {
            {
                let mut g = c.lock(L0).unwrap();
                g.write_int(1, 0, 11).unwrap();
                assert_eq!(g.lock_id(), L0);
            }
            // If the drop hadn't released, this second acquire would
            // deadlock (the home only grants a free mutex).
            let mut g = c.lock(L0).unwrap();
            assert_eq!(g.read_int(1, 0).unwrap(), 11);
            g.unlock().unwrap();
            assert!(c.costs().updates_sent >= 1, "drop shipped the diff");
        });
    }

    #[test]
    fn panicking_critical_section_still_flushes_diffs() {
        run_on(
            &[PlatformSpec::linux_x86(), PlatformSpec::solaris_sparc()],
            |c| {
                if c.thread_rank() == 1 {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut g = c.lock(L0).unwrap();
                        g.write_int(1, 0, 123).unwrap();
                        panic!("simulated failure inside the critical section");
                    }));
                    assert!(r.is_err());
                    c.barrier(B0).unwrap();
                } else {
                    c.barrier(B0).unwrap();
                    // The panicking thread's guard released on unwind and
                    // shipped its write home.
                    c.acquire(L0).unwrap();
                    assert_eq!(c.read_int(1, 0).unwrap(), 123);
                    c.release(L0).unwrap();
                }
            },
        );
    }

    /// Two home shards, two workers: entry 0 ("xs") is owned by shard 0,
    /// entry 1 ("flag") by shard 1, so a critical section touching both
    /// must flush to the non-owning shard and the next acquirer must
    /// fetch from it.
    #[test]
    fn updates_flow_across_two_shards() {
        let two = TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: 1 },
            ..Default::default()
        };
        let linux = PlatformSpec::linux_x86();
        let cluster = tiny_cluster(&[linux.clone(), linux]).topology(two);
        let run = cluster.run(|c, _| {
            assert_eq!(c.directory().n_shards(), 2);
            if c.thread_rank() == 1 {
                c.acquire(L0).unwrap();
                // Initial state arrived from shard 0's slice.
                assert_eq!(c.read_int(0, 5).unwrap(), 1005);
                c.write_int(0, 0, -1).unwrap(); // shard 0's entry
                c.write_int(1, 0, 77).unwrap(); // shard 1's entry
                c.release(L0).unwrap();
                c.barrier(B0).unwrap();
            } else {
                c.barrier(B0).unwrap();
                c.acquire(L0).unwrap();
                assert_eq!(c.read_int(0, 0).unwrap(), -1, "granting shard's slice");
                assert_eq!(c.read_int(1, 0).unwrap(), 77, "fetched shard's slice");
                assert_eq!(c.read_int(0, 99).unwrap(), 1099, "untouched initial state");
                c.release(L0).unwrap();
            }
            Ok(())
        });
        run.expect("both workers ran and joined");
    }

    /// A frame carried: source, destination, kind.
    type Hop = (u32, u32, MsgKind);

    /// Carry frames by hand between `home` (endpoint 0) and `clients`
    /// (endpoint `i + 1`, each blocked in its request), first what the
    /// clients posted, until none is in flight: each frame steps whoever it
    /// is addressed to. Returns each client's reply, if its request ended,
    /// and the frames carried.
    fn carry(
        home: &mut HomeShard,
        clients: &mut [(DsdClient, Request)],
        now: FabricInstant,
    ) -> (Vec<Option<DsdMsg>>, Vec<Hop>) {
        let posted = |c: &mut DsdClient| {
            let src = c.ep.rank();
            let sent: Vec<Message> = c.outbox.iter().map(|s| on_wire(src, s)).collect();
            c.outbox.clear();
            sent
        };
        let mut wire: VecDeque<Message> = clients.iter_mut().flat_map(|(c, _)| posted(c)).collect();
        let (mut replies, mut carried) = (vec![None; clients.len()], Vec::new());
        while let Some(m) = wire.pop_front() {
            carried.push((m.src, m.dst, m.kind));
            if m.dst == 0 {
                home.on(now, Input::Frame(m)).unwrap();
                wire.extend(home.outbox.drain(..).map(|s| on_wire(0, &s)));
                continue;
            }
            let i = m.dst as usize - 1;
            let (c, req) = &mut clients[i];
            if let Some(reply) = c.on(req, now, Input::Frame(m)).unwrap() {
                replies[i] = Some(reply);
            }
            wire.extend(posted(c));
        }
        (replies, carried)
    }

    impl DsdClient {
        /// The write set as dense update ranges, entry by entry: sorted,
        /// disjoint and maximal.
        pub(crate) fn write_set(&self) -> Vec<UpdateRange> {
            (self.views.iter().enumerate())
                .flat_map(|(entry, v)| ranges_of(entry, &v.written))
                .collect()
        }
    }

    /// A client of `def` on Linux/x86, stepped by hand.
    fn client_of(def: &GthvDef) -> DsdClient {
        let (_net, mut eps) = Network::new(2, NetConfig::instant());
        let gthv = GthvInstance::new(def.clone(), PlatformSpec::linux_x86());
        DsdClient::new(1, eps.remove(1), gthv)
    }

    /// The elements `ranges` name, in order.
    fn elements(ranges: &[UpdateRange]) -> Vec<(u32, u64)> {
        let each = |&r: &UpdateRange| r.spans().flat_map(|(a, b)| a..b).map(move |e| (r.entry, e));
        ranges.iter().flat_map(each).collect()
    }

    #[test]
    fn a_red_black_store_loop_drains_to_a_range_a_row() {
        let (width, rows) = (255, 9);
        let grid = StructBuilder::new("G").array("grid", ScalarKind::Double, width * rows);
        let mut c = client_of(&GthvDef::new(grid.build().unwrap()).unwrap());
        let width = width as u64;
        for row in 0..rows as u64 {
            for j in (1 + row % 2..width - 1).step_by(2) {
                c.write_float(0, row * width + j, 1.0).unwrap();
            }
        }
        // 127 and 126 one-element spans a row, by colour.
        assert_eq!(c.write_set().len(), 5 * 127 + 4 * 126);
        let ranges = c.collect_outgoing().unwrap();
        let shape: Vec<(u64, u64, u64)> = ranges
            .iter()
            .map(|r| (r.first, r.count, r.stride))
            .collect();
        let want: Vec<(u64, u64, u64)> = (0..rows as u64)
            .map(|row| (row * width + 1 + row % 2, 127 - row % 2, 2))
            .collect();
        assert_eq!(shape, want);
        assert!(c.views[0].written.is_empty());
    }

    #[test]
    fn the_release_of_strided_ranges_is_the_release_of_their_elements() {
        // Each case draws a write set, the `ship` and `held` sets of every
        // entry, whether the release is a barrier entry and what a fetch
        // serves out of the hold before the entry names it, then runs the
        // release pipeline twice on clients alike: on the drain's strided
        // ranges, and on the same write set drained as it stands, a range
        // of count 1 for each one-element span. Everything the release
        // decides must be the same element for element; the names are rows
        // of different shapes, so they are compared by their elements.
        let def = StructBuilder::new("R")
            .array("a", ScalarKind::Int, 400)
            .array("b", ScalarKind::Int, 400)
            .array("c", ScalarKind::Int, 400)
            .build()
            .unwrap();
        let def = GthvDef::new(def).unwrap();
        struct Draw(u64);
        impl Draw {
            fn below(&mut self, m: u64) -> u64 {
                self.0 = (self.0)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.0 >> 33) % m
            }

            /// Fewer than `most` spans of at most `len` elements.
            fn set(&mut self, most: u64, len: u64) -> IntervalSet {
                let mut set = IntervalSet::default();
                for _ in 0..self.below(most) {
                    let a = self.below(400);
                    set.insert(a, (a + 1 + self.below(len)).min(400));
                }
                set
            }
        }
        let mut draw = Draw(0x5EED_0F57);
        let (mut strided_cases, mut served_cases) = (0, 0);
        for case in 0..700 {
            let mut stores: Vec<(u32, u64)> = Vec::new();
            let mut sets: Vec<[Option<IntervalSet>; 3]> = Vec::new();
            for entry in 0..3 {
                let (ship, held, served) = (draw.set(6, 40), draw.set(8, 20), draw.set(5, 40));
                let (width, gap) = (5 + draw.below(40), 2 + draw.below(3));
                let (at, rows, pattern) = (draw.below(60), 1 + draw.below(8), draw.below(4));
                let mut mine = Vec::new();
                match pattern {
                    // Red-black rows, stored forwards or backwards.
                    0 | 1 => {
                        for row in 0..rows {
                            let from = at + row * width + 1 + (row + draw.below(2)) % gap;
                            let row_end = (at + (row + 1) * width - 1).min(400);
                            mine.extend((from..row_end).step_by(gap as usize));
                        }
                        if pattern == 1 {
                            mine.reverse();
                        }
                    }
                    // Dense spans and lone elements.
                    2 => {
                        for _ in 0..12 {
                            let a = draw.below(400);
                            let len = if draw.below(2) == 0 {
                                1
                            } else {
                                1 + draw.below(6)
                            };
                            mine.extend(a..(a + len).min(400));
                        }
                    }
                    _ => {}
                }
                stores.extend(mine.into_iter().map(|e| (entry, e)));
                let ship = (draw.below(4) != 0).then_some(ship);
                sets.push([ship, Some(held), Some(served)]);
            }
            let coordinator = [None, Some(0)][draw.below(2) as usize];
            let release = |strided: bool| {
                let mut c = client_of(&def);
                for &(entry, e) in &stores {
                    c.write_int(entry, e, i128::from(entry) * 1000 + e as i128)
                        .unwrap();
                }
                for (v, [ship, held, _]) in c.views.iter_mut().zip(sets.clone()) {
                    (v.ship, v.held) = (ship, held.unwrap());
                }
                let ranges = match strided {
                    true => c.collect_outgoing().unwrap(),
                    false => {
                        let dense = c.write_set();
                        c.collect_outgoing().unwrap();
                        dense
                    }
                };
                let drained = ranges.len();
                let many = ranges.iter().any(|r| r.stride > 1);
                let (ship, held) = c.hold(coordinator, ranges);
                c.charge_released(&ship, &held);
                // Every piece is in the hold: each is named as it is.
                assert_eq!(c.held_names(&held), held, "case {case}");
                // A fetch served out of the hold leaves its names.
                for (v, [.., served]) in c.views.iter_mut().zip(sets.clone()) {
                    let served = served.unwrap();
                    let served = served.rows().map(|row| UpdateRange::row(0, row));
                    served.for_each(|r| v.held.subtract(r));
                }
                let names = c.held_names(&held);
                let mut kept = elements(&held);
                kept.retain(|&(entry, e)| {
                    let served = sets[entry as usize][2].as_ref().unwrap();
                    !served.cursor().holds(UpdateRange::new(entry, e, 1))
                });
                assert_eq!(elements(&names), kept, "case {case}");
                let frame = c.extract(&ship).unwrap().frame().clone();
                let sets: Vec<Vec<(u64, u64)>> =
                    c.views.iter().map(|v| v.held.spans().collect()).collect();
                let cut = held.len() + ship.len() > drained;
                let served = kept.len() < elements(&held).len();
                let decided = (elements(&ship), elements(&held), kept, frame, sets);
                (decided, c.costs.updates_sent, many && cut, served)
            };
            let (strided, oracle) = (release(true), release(false));
            assert_eq!(strided.0, oracle.0, "case {case}");
            assert_eq!(strided.1, oracle.1, "case {case}: updates");
            // An incoming release of strided rows takes exactly their
            // elements out of what this thread holds and has stale.
            let mut c = client_of(&def);
            let mut rows = Vec::new();
            for (entry, (v, [_, held, stale])) in c.views.iter_mut().zip(sets.clone()).enumerate() {
                (v.held, v.stale) = (held.unwrap(), stale.unwrap());
                let (stride, count) = (1 + draw.below(3), 1 + draw.below(60));
                let first = draw.below(400 - (count - 1) * stride);
                let row = (first, count, stride);
                rows.push(UpdateRange::row(entry as u32, row));
            }
            let each = |c: &DsdClient, set: fn(&EntryView) -> &IntervalSet| -> Vec<(u32, u64)> {
                let of = |(entry, v): (usize, &EntryView)| {
                    let all = set(v).spans().flat_map(|(a, b)| a..b);
                    all.map(move |e| (entry as u32, e)).collect::<Vec<_>>()
                };
                c.views.iter().enumerate().flat_map(of).collect()
            };
            let (held, stale) = (each(&c, |v| &v.held), each(&c, |v| &v.stale));
            let batch = c.extract(&rows).unwrap();
            c.apply_incoming(&[batch], &[]).unwrap();
            let written = elements(&rows);
            let left = |was: Vec<_>| -> Vec<_> {
                was.into_iter().filter(|e| !written.contains(e)).collect()
            };
            assert_eq!(each(&c, |v| &v.held), left(held), "case {case}");
            assert_eq!(each(&c, |v| &v.stale), left(stale), "case {case}");
            strided_cases += usize::from(strided.2);
            served_cases += usize::from(strided.3);
        }
        assert!(
            strided_cases > 150 && served_cases > 150,
            "{strided_cases} {served_cases}"
        );
    }

    #[test]
    fn two_writers_blocked_on_each_others_hold_serve_each_other_from_inside_their_fetches() {
        // The deadlock freedom `request_holding` claims, on the steps with
        // no thread and no fabric: rank 1 holds xs[10..20] and rank 2
        // xs[30..40] behind a barrier, and then each fetches an element of
        // the other's hold.
        let t = FabricInstant::from_micros(1_000);
        let config = HomeConfig {
            participants: vec![1, 2],
            ..Default::default()
        };
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut home = HomeShard::new(gthv, config);
        home.init_with(init);
        home.start(t).unwrap();
        let platforms = [PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()];
        let mut both: Vec<(DsdClient, Request)> = Vec::new();
        let held = |rank: u32| elems(10 + 20 * u64::from(rank - 1), 10);
        let enter = |c: &mut DsdClient, held: Vec<UpdateRange>| {
            let rank = c.thread_rank();
            let updates = UpdateBatch::default();
            let msg = DsdMsg::BarrierEnter {
                barrier: 0,
                rank,
                updates,
            };
            let behind = Report {
                held,
                ..Report::default()
            };
            c.ask(t, 0, msg, behind)
        };
        for mut c in by_hand(&platforms) {
            let req = enter(&mut c, Vec::new()); // the initial pull
            both.push((c, req));
        }
        for round in 0..2 {
            let (replies, _) = carry(&mut home, &mut both, t);
            for ((c, req), reply) in both.iter_mut().zip(replies) {
                let Some(DsdMsg::BarrierRelease {
                    ship,
                    updates,
                    notices,
                    stamp,
                    ..
                }) = reply
                else {
                    panic!("round {round}: a release, got {reply:?}");
                };
                c.learn_ship(0, &ship).unwrap();
                c.finish_acquire(0, updates, notices, stamp).unwrap();
                if round == 1 {
                    continue;
                }
                // Each rewrites its stripe and holds it behind the next
                // barrier entry.
                let span = held(c.thread_rank());
                for i in span.first..span.end() {
                    c.gthv.write_int(0, i, 7000 + i as i128).unwrap();
                }
                c.views[0].held.insert(span.first, span.end());
                *req = enter(c, vec![span]);
            }
        }
        // Each is told of the other's hold, not sent it.
        assert_eq!(spans(&both[0].0.views[0].stale), [(30, 40)]);
        assert_eq!(spans(&both[1].0.views[0].stale), [(10, 20)]);
        for (c, req) in &mut both {
            let (rank, wants) = (c.thread_rank(), held(3 - c.thread_rank()).first + 5);
            let fetch = DsdMsg::RangeFetch {
                rank,
                ranges: vec![elems(wants, 1)],
            };
            *req = c.ask(t, 0, fetch, Report::default());
        }
        let (replies, carried) = carry(&mut home, &mut both, t);
        // Both fetches reach the home before either writer is asked, so
        // each serves the other's forwarded fetch while blocked in its own.
        let (fetch, forward) = (MsgKind::RangeFetch, MsgKind::HeldFetch);
        let (data, reply) = (MsgKind::HeldData, MsgKind::UpdateBatch);
        let order = [
            (1, 0, fetch),
            (2, 0, fetch),
            (0, 2, forward),
            (0, 1, forward),
        ];
        let then = [(2, 0, data), (1, 0, data), (0, 1, reply), (0, 2, reply)];
        assert_eq!(carried, [order, then].concat());
        for ((c, req), reply) in both.iter_mut().zip(replies) {
            let Some(DsdMsg::UpdateBatch {
                updates, notices, ..
            }) = reply
            else {
                panic!(
                    "rank {}: the fetch is answered, got {reply:?}",
                    c.thread_rank()
                );
            };
            assert!(notices.is_empty());
            c.apply_incoming(&[updates], &[]).unwrap();
            let wants = held(3 - c.thread_rank()).first + 5;
            assert_eq!(c.gthv.read_int(0, wants).unwrap(), 7000 + wants as i128);
            assert!(c.views[0].held.is_empty(), "what it served left its hold");
            assert_eq!(req.sent, 1, "no retransmission");
        }
        assert_eq!(both[0].0.network().stats().retransmitted, 0);
    }

    #[test]
    fn backoff_jitter_stays_within_bounds() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(800);
        let mut rng = 0x1234_5678_u64;
        let mut prev = base;
        for i in 0..10_000 {
            let next = decorrelated_backoff(prev, base, cap, &mut rng);
            assert!(next >= base.min(cap), "delay {i} fell below base: {next:?}");
            assert!(next <= cap, "delay {i} blew the cap: {next:?}");
            // Pre-cap the draw is bounded by 3x the previous delay (the
            // +1 keeps the uniform range non-empty when prev == base).
            let pre_cap_hi = (prev * 3).max(base + Duration::from_micros(1));
            assert!(next <= pre_cap_hi.min(cap), "delay {i} overshot: {next:?}");
            prev = next;
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(5);
        let draw = |seed: u64| {
            let mut rng = seed;
            let mut prev = base;
            (0..32)
                .map(|_| {
                    prev = decorrelated_backoff(prev, base, cap, &mut rng);
                    prev
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the same delays");
        assert_ne!(draw(7), draw(8), "different seeds must not march in step");
    }

    #[test]
    fn backoff_cap_clamps_even_a_tiny_cap() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(30); // cap below base: cap wins
        let mut rng = 99;
        let mut prev = base;
        for _ in 0..100 {
            prev = decorrelated_backoff(prev, base, cap, &mut rng);
            assert_eq!(prev, cap);
        }
    }

    #[test]
    fn worker_lost_error_reports_detector_evidence() {
        let e = DsdError::WorkerLost {
            rank: 3,
            heard_age: Some(Duration::from_millis(310)),
            lease: Some(Duration::from_millis(250)),
        };
        let s = e.to_string();
        assert!(s.contains("worker 3"), "{s}");
        assert!(s.contains("310"), "{s}");
        assert!(s.contains("250"), "{s}");
        let legacy = DsdError::WorkerLost {
            rank: 3,
            heard_age: None,
            lease: None,
        };
        assert!(legacy.to_string().contains("lease expired"));
    }
}
