//! The home node's stub service, shardable across several owners.
//!
//! Paper §3.1/§4: after local threads migrate away, stub threads remain at
//! the home node "for future resource access" — they own the authoritative
//! copy of `GThV`, the lock table and the barrier table, and serve
//! lock/unlock/barrier/join requests from every computing thread.
//!
//! The service is a [`HomeShard`]: one of `S` independent owners between
//! which the [`crate::directory::Directory`] partitions index-table
//! entries, mutexes, barriers and condition variables. Each shard keeps
//! authoritative bytes, update log, sequence horizon, lease table and
//! at-most-once dedup state for *its slice only*, and shards never talk
//! to each other — clients fan released updates out to the owning shards
//! (`UpdateFlush`) before releasing, and pull outstanding updates from
//! every non-granting shard (`UpdateFetch`) after acquiring. With `S == 1`
//! (the default directory) a shard *is* the classic single home service
//! and produces a byte-identical message sequence.
//!
//! Consistency bookkeeping is a sequence-numbered update log: every
//! absorbed [`UpdateRange`] is logged under a global sequence number, and
//! each thread records the highest sequence it has seen. A grant or
//! barrier release covers every range logged after the thread's horizon —
//! so updates naturally batch up for threads that have not synchronized
//! in a while (the paper's Figure 9 "batch update" spike is this
//! mechanism at work) — in one of two ways: the *current authoritative
//! bytes* of what falls inside the thread's reported **interest** (the
//! ranges its read accessors have returned; an entry it never read counts
//! whole), and a **notice** `(entry, first, count)` for the rest, which
//! the thread fetches ([`DsdMsg::RangeFetch`]) before any access to it
//! returns (DESIGN §5).
//!
//! An instance has one receive path, `process`, in every phase of its
//! life: serving, the grace period of a fenced instance (every client
//! frame is redirected with a `ViewChange`) and the linger after the
//! shutdown broadcast (a fresh request is answered `Shutdown`). A frame
//! that does not decode is dropped and counted (`home.bad_frames`); a
//! protocol violation still ends the shard.

use crate::costs::{CostBreakdown, Phase};
use crate::directory::{Directory, Placement};
use crate::gthv::GthvInstance;
use crate::interval::{IntervalSet, Piece};
use crate::protocol::{is_client_request, DsdMsg, ProtocolError};
use crate::runs::{coalesce, UpdateRange};
use crate::update::{apply_batch, extract_updates, full_ranges, UpdateError};
use bytes::Bytes;
use hdsm_net::endpoint::{Endpoint, NetError};
use hdsm_net::message::{Message, MsgKind};
use hdsm_net::{FabricClock, FabricInstant};
use hdsm_obs::{EventKind, OpCtx, OpKind, Recorder};
use hdsm_tags::convert::ConversionStats;
use hdsm_tags::wire::{unpack_batch, UpdateBatch};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the home service. Nothing here picks how the service
/// loop waits: it blocks in an untimed receive unless something timed is
/// due — a lease, a replication partner, a kill switch or an entry move's
/// retransmit — and then wakes every tick, a quarter of the lease (at
/// least 10 ms).
#[derive(Debug, Clone)]
pub struct HomeConfig {
    /// Number of distributed mutexes.
    pub n_locks: u32,
    /// Number of barriers.
    pub n_barriers: u32,
    /// Number of condition variables.
    pub n_conds: u32,
    /// Thread ranks that will participate (barriers wait for all of them;
    /// the program ends when all of them join).
    pub participants: Vec<u32>,
    /// Liveness lease: a participant that has neither joined nor been
    /// heard from (any message, including heartbeats) for this long is
    /// declared dead — its locks are reclaimed and blocked barrier
    /// entrants receive [`DsdMsg::WorkerLost`]. `None` disables failure
    /// detection (the service blocks forever, pre-reliability behaviour).
    pub lease: Option<Duration>,
    /// How long the service keeps answering after the final shutdown
    /// broadcast, so clients whose last reply was dropped by a faulty
    /// fabric can still complete. Those frames take the one receive path:
    /// a duplicate gets its cached reply, a fresh request `Shutdown`, a
    /// dead rank `WorkerLost`.
    pub linger: Duration,
    /// Observability hook for home-side spans (absorb/extract timing,
    /// lease expiries). Disabled by default.
    pub recorder: Recorder,
    /// Which shard of the home service this instance is (`0..S`).
    pub shard: u32,
    /// The deterministic entry/lock/barrier → shard partition shared by
    /// the whole cluster. Defaults to the single-home layout.
    pub directory: Directory,
    /// Is this instance the shard's warm standby? A standby starts as a
    /// mute shadow of the primary at `directory.shard_ep(shard)`: it drops
    /// direct client traffic, replays the primary's relay stream, and
    /// promotes itself (epoch + 1) when the primary goes silent past the
    /// lease, its endpoint dies or the stream relays a handoff. Otherwise
    /// the instance is the primary and, when the directory has replicas,
    /// relays every deduplicated client request to
    /// `directory.replica_ep(shard)` before processing.
    pub standby: bool,
    /// Cooperative kill switch for fault injection: when the flag flips,
    /// the shard abandons its loop mid-run (recording a `ShardKill`
    /// event) and drops its endpoint, exactly like a crashed process.
    pub kill: Option<Arc<AtomicBool>>,
}

impl Default for HomeConfig {
    fn default() -> Self {
        HomeConfig {
            n_locks: 1,
            n_barriers: 1,
            n_conds: 0,
            participants: Vec::new(),
            lease: None,
            linger: Duration::ZERO,
            recorder: Recorder::disabled(),
            shard: 0,
            directory: Directory::single(),
            standby: false,
            kill: None,
        }
    }
}

/// Where a participant is in its life: every rank starts `Expected` and
/// settles exactly once, by joining or by lease expiry. Replaces
/// membership in the `participants`, `joined` and `dead` sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Life {
    /// Configured and not yet signed off: barriers and the service loop
    /// wait for it, the lease detector watches it.
    #[default]
    Expected,
    /// Signed off with `Join`; owed a `Shutdown`.
    Joined,
    /// Declared dead by the lease detector; answered `WorkerLost`.
    Dead,
}

/// Everything the shard keeps about one computing thread — one row of
/// the rank-ordered `peers` table, whose keys are exactly the configured
/// participants.
#[derive(Debug, Default)]
struct Peer {
    life: Life,
    /// Transport endpoint of the thread's latest message.
    route: Option<u32>,
    /// Highest update-log sequence the thread has seen (0 = nothing, or
    /// a cold copy that needs a full refresh).
    seen: u64,
    /// Last time the thread was heard from (any message), on the fabric
    /// timeline — the lease clock and the `heard_ms` forensics of
    /// [`DsdMsg::WorkerLost`], virtual-clock exact in simulation mode.
    last_heard: Option<FabricInstant>,
    /// Highest request id handled (at-most-once dedup; 0 = none yet).
    last_req: u64,
    /// Last reply sent, resent verbatim when the same request id arrives
    /// again (the reply, not the request, was lost).
    reply: Option<(u64, MsgKind, Bytes)>,
    /// The sync operation the thread's outstanding request is doing work
    /// for (from the request's trace context), so replies — including
    /// deferred grants and barrier releases — and home-side spans are
    /// attributed to the op that caused them. Unset when obs is disabled.
    op: OpCtx,
    /// The element ranges the thread has reported reading, per entry: what
    /// a grant ships updates for. An entry without a row was never read
    /// (or its reader never said) and counts whole.
    interest: BTreeMap<u32, IntervalSet>,
}

/// A handoff drain in progress at a fenced primary — replaces the
/// `handoff` tuple and `handoff_start_us`.
#[derive(Debug)]
struct Drain {
    /// Endpoint of the admin that asked (gets `HandoffDone`).
    admin_ep: u32,
    /// The epoch the standby will serve under.
    epoch: u32,
    /// Start (µs) of the drain, for the obs span.
    start_us: u64,
}

/// This instance's place in its shard's replication pair. One state
/// replaces the nine flags `role`, `promoted`, `replica_ep`, `primary_ep`,
/// `replica_gone`, `pending_depose`, `handoff`, `handoff_start_us` and
/// `first_grant_recorded`, so a drain cannot exist without a standby to
/// drain into and a depose cannot be owed by an instance that never
/// promoted. (`fenced`, `mute`, `epoch` and `peer_last_heard` stay flat on
/// the shard: every state has them.)
#[derive(Debug)]
enum Standby {
    /// Unreplicated, or a primary whose standby's endpoint is gone:
    /// serves clients, relays nothing.
    Solo,
    /// Serves clients and relays every request to the standby at
    /// `replica_ep` before processing it.
    Primary {
        replica_ep: u32,
        drain: Option<Drain>,
    },
    /// Mute shadow of the primary at `primary_ep`: replays the relay
    /// stream, answers no client.
    Shadow { primary_ep: u32 },
    /// A shadow that took over (failover or handoff) and serves clients.
    Promoted {
        primary_ep: u32,
        /// The old primary is still owed a `Depose`.
        pending_depose: bool,
        /// First post-promotion client reply already recorded.
        first_grant_recorded: bool,
    },
}

/// What a finished [`HomeShard::run`] hands back: the instance and cost
/// books as before, plus the epoch the shard ended on and whether its
/// state is *authoritative* — `false` for a shadow replica that was never
/// promoted, a deposed/fenced primary, a drained handoff source, or a
/// killed shard. With replication off the outcome is always
/// `authoritative` at epoch 0, matching the pre-failover contract.
pub struct HomeRunOutcome {
    /// The shard's final instance (authoritative only for its slice).
    pub gthv: GthvInstance,
    /// Home-side share-operation cost breakdown.
    pub costs: CostBreakdown,
    /// Home-side conversion statistics.
    pub conv: ConversionStats,
    /// The epoch the shard last served under (0 = never failed over).
    pub epoch: u32,
    /// Is this instance the shard's authoritative survivor?
    pub authoritative: bool,
    /// Per-entry ownership overrides this shard learned during the run:
    /// its [`Placement::rows`]. Empty unless the placement engine
    /// re-homed entries. The cluster's final stitch adopts every winner's
    /// rows into one [`Placement`].
    pub entry_overrides: Vec<(u32, u32, u32)>,
}

/// Errors surfaced by the home service loop.
#[derive(Debug)]
pub enum HomeError {
    /// Transport failure.
    Net(NetError),
    /// Malformed message.
    Protocol(ProtocolError),
    /// Update application failed.
    Update(UpdateError),
    /// Protocol violation (e.g. unlocking a mutex the thread doesn't hold).
    Violation(String),
}

impl fmt::Display for HomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomeError::Net(e) => write!(f, "net: {e}"),
            HomeError::Protocol(e) => write!(f, "protocol: {e}"),
            HomeError::Update(e) => write!(f, "update: {e}"),
            HomeError::Violation(s) => write!(f, "protocol violation: {s}"),
        }
    }
}

impl std::error::Error for HomeError {}

impl From<NetError> for HomeError {
    fn from(e: NetError) -> Self {
        HomeError::Net(e)
    }
}
impl From<ProtocolError> for HomeError {
    fn from(e: ProtocolError) -> Self {
        HomeError::Protocol(e)
    }
}
impl From<UpdateError> for HomeError {
    fn from(e: UpdateError) -> Self {
        HomeError::Update(e)
    }
}

/// Writer id used for home-side initialisation log entries.
const HOME_WRITER: u32 = u32::MAX;

#[derive(Debug, Default)]
struct LockState {
    holder: Option<u32>,
    waiters: VecDeque<u32>,
}

#[derive(Debug, Default)]
struct BarrierState {
    entered: Vec<u32>,
}

#[derive(Debug, Default)]
struct CondState {
    /// Parked threads with the mutex each must re-acquire on wake.
    waiters: VecDeque<(u32, u32)>,
}

/// In-flight per-entry re-homing at the *source* shard: ownership has
/// already flipped in `placement` (and the log rows for the entry were
/// purged), but the target has not yet acknowledged installation — every
/// client-path message is deferred until it does, closing the window in
/// which neither shard could serve the entry's pre-move updates.
#[derive(Debug)]
struct EntryHandoffState {
    /// The entry being re-homed.
    entry: u32,
    /// Endpoint of the admin that requested the move (gets `EntryDone`).
    admin_ep: u32,
    /// The shard gaining ownership.
    to_shard: u32,
    /// The new ownership epoch (strictly above any previous epoch for
    /// this entry, so late/duplicate rows lose max-epoch-wins merges).
    epoch: u32,
    /// Packed authoritative contents of the entry, retransmitted until
    /// the target acknowledges with `EntryInstalled`.
    state: Bytes,
}

/// One shard of the home service: owns the authoritative bytes, update
/// log and synchronization tables of its directory slice and runs the
/// message loop until every participant has joined. A cluster with a
/// single shard is exactly the classic home service.
pub struct HomeShard {
    gthv: GthvInstance,
    ep: Endpoint,
    shard: u32,
    /// Who owns which entry: the cluster's directory plus the per-entry
    /// ownership overlay, written identically at a move's source and
    /// target (and relayed to replicas), so every surviving shard reports
    /// a consistent final ownership map.
    placement: Placement,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    conds: Vec<CondState>,
    /// Global sequence counter for absorbed updates.
    seq: u64,
    /// Update log: `(seq, writer, range)` in absorption order, so its
    /// sequences never decrease — what lets a horizon be found by
    /// `partition_point`. The writer rank lets grants exclude a thread's
    /// own updates without corrupting its horizon (a thread has by
    /// definition "seen" what it wrote itself, but nothing else absorbed
    /// in between).
    log: Vec<(u64, u32, UpdateRange)>,
    /// Oldest sequence still in the log; horizons below this need a full
    /// refresh (log compaction / cold migrated copies).
    log_floor: u64,
    /// The participants, by rank. Rank order is iteration order, which
    /// fixes the order of simultaneous lease expiries and of the shutdown
    /// broadcast — both decide bytes a same-seed simulation must
    /// reproduce.
    peers: BTreeMap<u32, Peer>,
    /// How many peers are still `Expected`, kept in step by
    /// [`Self::settle`]: the service loop runs while it is non-zero and a
    /// barrier releases once that many ranks have entered it.
    pending: usize,
    /// The lowest `Dead` rank, kept in step by [`Self::settle`]: the rank
    /// a barrier entrant is failed with, since no barrier can complete
    /// once any participant is dead.
    lowest_dead: Option<u32>,
    lease: Option<Duration>,
    linger: Duration,
    costs: CostBreakdown,
    conv_stats: ConversionStats,
    recorder: Recorder,
    standby: Standby,
    /// The epoch this instance serves under; bumped by promotion/handoff.
    epoch: u32,
    /// Fenced: stopped serving; answers clients with `ViewChange` only.
    fenced: bool,
    /// Last sign of life from the replication-link partner.
    peer_last_heard: FabricInstant,
    /// Replaying a relayed request: suppress every outbound send while
    /// still populating the reply cache, so the shadow's dedup state
    /// stays byte-identical to the primary's.
    mute: bool,
    /// Cooperative kill switch (fault injection).
    kill: Option<Arc<AtomicBool>>,
    /// The fabric's time source; every lease, drain and promotion timer
    /// reads it so failover timing is seed-deterministic in sim mode.
    clock: FabricClock,
    /// In-flight outbound entry re-homing (source side); at most one at
    /// a time per shard — the admin serializes moves cluster-wide.
    entry_handoff: Option<EntryHandoffState>,
    /// Client-path messages deferred while `entry_handoff` is in flight,
    /// drained in arrival order once the target installs (or the move
    /// aborts).
    entry_pending: VecDeque<Message>,
}

impl HomeShard {
    /// Create the service around the authoritative instance.
    pub fn new(gthv: GthvInstance, ep: Endpoint, config: HomeConfig) -> HomeShard {
        let locks = (0..config.n_locks).map(|_| LockState::default()).collect();
        let barriers = (0..config.n_barriers)
            .map(|_| BarrierState::default())
            .collect();
        let conds = (0..config.n_conds).map(|_| CondState::default()).collect();
        let clock = ep.clock();
        let (shard, directory) = (config.shard, config.directory);
        let peers: BTreeMap<u32, Peer> = config
            .participants
            .into_iter()
            .map(|r| (r, Peer::default()))
            .collect();
        HomeShard {
            gthv,
            ep,
            shard,
            placement: Placement::new(directory),
            locks,
            barriers,
            conds,
            seq: 0,
            log: Vec::new(),
            log_floor: 0,
            pending: peers.len(),
            lowest_dead: None,
            peers,
            lease: config.lease,
            linger: config.linger,
            costs: CostBreakdown::default(),
            conv_stats: ConversionStats::default(),
            recorder: config.recorder,
            standby: if config.standby {
                Standby::Shadow {
                    primary_ep: directory.shard_ep(shard),
                }
            } else if directory.n_replicas() > 0 {
                Standby::Primary {
                    replica_ep: directory.replica_ep(shard),
                    drain: None,
                }
            } else {
                Standby::Solo
            },
            epoch: 0,
            fenced: false,
            peer_last_heard: clock.now(),
            mute: false,
            kill: config.kill,
            clock,
            entry_handoff: None,
            entry_pending: VecDeque::new(),
        }
    }

    /// Record a failover milestone of this shard — kill, fence, promotion,
    /// first grant after one — as an instant event carrying the shard and
    /// the epoch it happened under.
    fn mark(&self, kind: EventKind, label: &'static str) {
        self.recorder.instant(
            self.ep.rank(),
            kind,
            self.shard as u64,
            self.epoch as u64,
            label,
        );
    }

    /// The sync op thread `rank`'s outstanding request belongs to.
    fn op_of(&self, rank: u32) -> OpCtx {
        self.peers.get(&rank).map(|p| p.op).unwrap_or_default()
    }

    /// Where rank `rank` is in its life; `None` for a rank outside the
    /// configured participants.
    fn life(&self, rank: u32) -> Option<Life> {
        self.peers.get(&rank).map(|p| p.life)
    }

    /// The one life transition, `Expected → to`, with the `pending` and
    /// `lowest_dead` summaries kept in step. Returns whether `rank` was
    /// still expected — a rank settles once, so a duplicate `Join` or a
    /// replayed expiry changes nothing.
    fn settle(&mut self, rank: u32, to: Life) -> bool {
        match self.peers.get_mut(&rank) {
            Some(p) if p.life == Life::Expected => {
                p.life = to;
                self.pending -= 1;
                if to == Life::Dead {
                    self.lowest_dead = Some(self.lowest_dead.map_or(rank, |d| d.min(rank)));
                }
                true
            }
            _ => false,
        }
    }

    /// Does this instance answer clients (anything but a mute shadow)?
    fn serves_clients(&self) -> bool {
        !matches!(self.standby, Standby::Shadow { .. })
    }

    /// A handoff drain of ours is in progress.
    fn draining(&self) -> bool {
        matches!(self.standby, Standby::Primary { drain: Some(_), .. })
    }

    /// `entry` is gained (or re-gained, on an abort revert) without its
    /// history, which lives at the old owner: raise the log floor above
    /// every horizon so each thread's next pull is a full refresh of the
    /// (now larger) owned slice.
    fn force_full_refresh(&mut self) {
        self.seq += 1;
        self.log_floor = self.seq;
    }

    /// Initialise the authoritative copy and log this shard's slice of the
    /// structure as one big update, so every thread pulls the initial
    /// contents at its first acquire. Every shard runs the same
    /// initialiser; each logs (and later serves) only the entries it owns,
    /// so with one shard the whole structure is logged exactly as before.
    pub fn init_with<F: FnOnce(&mut GthvInstance)>(&mut self, f: F) {
        f(&mut self.gthv);
        self.seq += 1;
        let s = self.seq;
        let owned = self.owned_full_ranges();
        self.log
            .extend(owned.into_iter().map(|r| (s, HOME_WRITER, r)));
    }

    /// Authoritative instance (read access for inspection). Under a
    /// sharded home only the entries this shard owns are authoritative.
    pub fn gthv(&self) -> &GthvInstance {
        &self.gthv
    }

    /// Does this shard currently own `entry`?
    fn owns_entry(&self, entry: u32) -> bool {
        self.placement.owner(entry) == self.shard
    }

    /// Full-structure ranges restricted to the entries this shard owns.
    fn owned_full_ranges(&self) -> Vec<UpdateRange> {
        let mut ranges = full_ranges(&self.gthv);
        ranges.retain(|r| self.owns_entry(r.entry));
        ranges
    }

    /// This shard is only authoritative for what it owns. Of `entries`
    /// that it does not, one that moved (epoch > 0) is a stale view at
    /// thread `rank`: reply the `EntryMoved` rows — the thread merges them,
    /// re-routes and resends — and return `true`, nothing else done. One
    /// that never moved is a routing bug, which must not silently corrupt
    /// (or be answered from) another shard's slice.
    fn bounce_unowned(
        &mut self,
        rank: u32,
        entries: impl Iterator<Item = u32>,
    ) -> Result<bool, HomeError> {
        let p = &self.placement;
        let (mut moved, misrouted): (Vec<_>, Vec<_>) = entries
            .map(|entry| (entry, p.owner(entry), p.epoch(entry)))
            .filter(|&(_, owner, _)| owner != self.shard)
            .partition(|&(_, _, epoch)| epoch > 0);
        if !moved.is_empty() {
            moved.sort_unstable();
            moved.dedup();
            self.recorder.count("home.entry_bounces", 1);
            self.send(rank, DsdMsg::EntryMoved { entries: moved })?;
            return Ok(true);
        }
        match misrouted.first() {
            Some((entry, owner, _)) => Err(HomeError::Violation(format!(
                "shard {} received a request for entry {entry} owned by shard {owner}",
                self.shard
            ))),
            None => Ok(false),
        }
    }

    /// Absorb a batch of incoming updates from thread `writer`: unpack
    /// time was already spent decoding; here we apply (t_conv) and log the
    /// ranges. Returns `false`, with nothing absorbed, when the batch
    /// targets an entry this shard re-homed away ([`Self::bounce_unowned`],
    /// asked once per group, whose runs share their entry).
    fn absorb(&mut self, writer: u32, updates: &UpdateBatch) -> Result<bool, HomeError> {
        if updates.is_empty() {
            return Ok(true);
        }
        if self.bounce_unowned(writer, updates.groups().map(|g| g.head.entry))? {
            return Ok(false);
        }
        let (n, bytes) = (updates.len() as u64, updates.payload_bytes());
        let mut t = Phase::Conv.begin(&self.recorder, self.ep.rank(), self.op_of(writer));
        t.args(n, bytes);
        apply_batch(&mut self.gthv, updates, &mut self.conv_stats)?;
        t.end(&mut self.costs);
        self.costs.updates_applied += n;
        self.costs.bytes_applied += bytes;
        self.seq += 1;
        let s = self.seq;
        for u in updates.iter() {
            self.log.push((
                s,
                writer,
                UpdateRange {
                    entry: u.entry,
                    first: u.elem_offset,
                    count: u.count,
                },
            ));
        }
        self.maybe_compact();
        Ok(true)
    }

    /// Drop log entries every participant still expected has already
    /// seen: a joined or dead rank is never granted again, so its frozen
    /// horizon must not pin the log.
    fn maybe_compact(&mut self) {
        if self.log.len() < 4096 {
            return;
        }
        let min_seen = self
            .peers
            .values()
            .filter(|p| p.life == Life::Expected)
            .map(|p| p.seen)
            .min()
            .unwrap_or(self.seq);
        let k = self.log.partition_point(|(s, ..)| *s <= min_seen);
        self.log.drain(..k);
        self.log_floor = self.log_floor.max(min_seen);
    }

    /// What thread `rank` has not seen: freshly extracted wire frames for
    /// the stale ranges inside its interest, notices for the rest. The
    /// interest/notice split and the coalescing of what ships are t_tag,
    /// the extraction t_pack (the reply's encode charges its own copy).
    fn stale_updates_for(
        &mut self,
        rank: u32,
    ) -> Result<(UpdateBatch, Vec<UpdateRange>), HomeError> {
        let everything = BTreeMap::new();
        let (horizon, op, interest) = match self.peers.get(&rank) {
            Some(p) => (p.seen, p.op, &p.interest),
            None => (0, OpCtx::default(), &everything),
        };
        let mut t = Phase::Tag.begin(&self.recorder, self.ep.rank(), op);
        let (ranges, notices) = if horizon < self.log_floor {
            // The thread's horizon predates the log: full refresh of
            // this shard's slice.
            split_by_interest(self.owned_full_ranges().into_iter(), interest)
        } else {
            let stale = self.log.partition_point(|(s, ..)| *s <= horizon);
            let unseen = self.log[stale..]
                .iter()
                .filter(|(_, w, _)| *w != rank)
                .map(|(_, _, r)| *r);
            split_by_interest(unseen, interest)
        };
        let ranges = coalesce(ranges);
        t.args(ranges.len() as u64, rank as u64);
        t.end(&mut self.costs);
        let ups = self.extract_for(op, &ranges)?;
        if !ranges.is_empty() {
            self.recorder
                .count("home.ranges_updated", ranges.len() as u64);
        }
        if !notices.is_empty() {
            self.recorder
                .count("home.ranges_noticed", notices.len() as u64);
        }
        if let Some(p) = self.peers.get_mut(&rank) {
            p.seen = self.seq;
        }
        Ok((ups, notices))
    }

    /// Frame the current authoritative bytes of `ranges` for the thread
    /// blocked in `op` — t_pack — and book them as sent.
    fn extract_for(&mut self, op: OpCtx, ranges: &[UpdateRange]) -> Result<UpdateBatch, HomeError> {
        let mut t = Phase::Pack.begin(&self.recorder, self.ep.rank(), op);
        let ups = extract_updates(&self.gthv, ranges)?;
        let bytes = ups.payload_bytes();
        t.args(bytes, ups.len() as u64);
        t.end(&mut self.costs);
        self.costs.updates_sent += ups.len() as u64;
        self.costs.bytes_sent += bytes;
        Ok(ups)
    }

    /// Take a thread's interest report into its table. The rows came off
    /// the wire: one the index table does not hold is a violation, like an
    /// update for it would be.
    fn note_interest(&mut self, rank: u32, rows: &[UpdateRange]) -> Result<(), HomeError> {
        let (Some(peer), index) = (self.peers.get_mut(&rank), self.gthv.table()) else {
            return Ok(());
        };
        for r in rows.iter().filter(|r| r.count > 0) {
            let count = index.row(r.entry).map_or(0, |row| row.count);
            if r.first.checked_add(r.count).is_none_or(|end| end > count) {
                return Err(HomeError::Violation(format!(
                    "thread {rank} reports interest in {r:?}, outside the index table"
                )));
            }
            peer.interest
                .entry(r.entry)
                .or_default()
                .insert(r.first, r.end());
        }
        Ok(())
    }

    /// The one transmit: put `payload` on the wire to endpoint `ep_rank`
    /// and report whether that peer is still there — a dropped endpoint
    /// (`Disconnected`) is the peer being gone, not a transport failure;
    /// each caller decides what a gone peer means. A shadow replaying a
    /// relayed request swallows the send (the primary already answered)
    /// while all bookkeeping above this call stays byte-identical to the
    /// primary's.
    fn post(
        &mut self,
        ep_rank: u32,
        kind: MsgKind,
        payload: Bytes,
        op: OpCtx,
    ) -> Result<bool, HomeError> {
        if self.mute {
            return Ok(true);
        }
        match self.ep.send_op(ep_rank, kind, payload, op) {
            Ok(()) => Ok(true),
            Err(NetError::Disconnected(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// The control-plane send: `msg` to endpoint `ep_rank` as an
    /// unsolicited frame (request id 0) — replication relay, depose and
    /// handoff traffic, admin confirmations. Returns whether the peer is
    /// alive.
    fn tell(&mut self, ep_rank: u32, msg: DsdMsg) -> Result<bool, HomeError> {
        self.post(
            ep_rank,
            msg.kind(),
            msg.encode_enveloped(0),
            OpCtx::default(),
        )
    }

    /// Reply to thread `rank`: `msg` enveloped with the request id of its
    /// outstanding request and cached for retransmission. Returns whether
    /// the thread's endpoint is still alive.
    fn reply(&mut self, rank: u32, msg: DsdMsg) -> Result<bool, HomeError> {
        let no_route = || HomeError::Violation(format!("no route for thread {rank}"));
        let peer = self.peers.get_mut(&rank).ok_or_else(no_route)?;
        let ep_rank = peer.route.ok_or_else(no_route)?;
        // The reply — including a deferred grant or barrier release —
        // belongs to the op the requester is blocked in.
        let (req_id, op) = (peer.last_req, peer.op);
        let mut t = Phase::Pack.begin(&self.recorder, self.ep.rank(), op);
        let payload = msg.encode_enveloped(req_id);
        t.args(payload.len() as u64, rank as u64);
        t.end(&mut self.costs);
        peer.reply = Some((req_id, msg.kind(), payload.clone()));
        let alive = self.post(ep_rank, msg.kind(), payload, op)?;
        if let Standby::Promoted {
            first_grant_recorded: recorded @ false,
            ..
        } = &mut self.standby
        {
            if !self.mute {
                // The recovery-latency endpoint: the first client request
                // this shard served after taking over.
                *recorded = true;
                self.mark(EventKind::FirstGrant, "");
            }
        }
        Ok(alive)
    }

    /// [`Self::reply`] to a thread that must still be there: a grant,
    /// release or ack its requester is blocked on.
    fn send(&mut self, rank: u32, msg: DsdMsg) -> Result<(), HomeError> {
        if self.reply(rank, msg)? {
            return Ok(());
        }
        let ep_rank = self.peers.get(&rank).and_then(|p| p.route);
        Err(NetError::Disconnected(ep_rank.unwrap_or_default()).into())
    }

    /// Resend thread `rank`'s cached reply if it answers request `req_id`
    /// (the reply, not the request, was lost). A requester only hangs up
    /// once it has its reply (and, under a sharded home, every other
    /// shard's), so a dropped endpoint means the duplicate outlived its
    /// sender. Returns whether there was such a reply.
    fn resend_cached(&mut self, rank: u32, req_id: u64) -> Result<bool, HomeError> {
        let Some(peer) = self.peers.get(&rank) else {
            return Ok(false);
        };
        let (Some((rid, kind, payload)), Some(ep_rank)) = (&peer.reply, peer.route) else {
            return Ok(false);
        };
        if *rid != req_id {
            return Ok(false);
        }
        let (kind, payload, op) = (*kind, payload.clone(), peer.op);
        self.post(ep_rank, kind, payload, op)?;
        Ok(true)
    }

    /// The enriched lost-worker notification for `rank`: how stale its
    /// lease was when it expired, so survivors can report forensics.
    fn worker_lost_msg(&self, rank: u32) -> DsdMsg {
        DsdMsg::WorkerLost {
            rank,
            heard_ms: self
                .peers
                .get(&rank)
                .and_then(|p| p.last_heard)
                .map(|t| self.clock.now().saturating_since(t).as_millis() as u64)
                .unwrap_or(0),
            lease_ms: self.lease.map(|l| l.as_millis() as u64).unwrap_or(0),
        }
    }

    fn grant(&mut self, lock: u32, rank: u32) -> Result<(), HomeError> {
        let (updates, notices) = self.stale_updates_for(rank)?;
        let grant = DsdMsg::LockGrant {
            lock,
            updates,
            notices,
        };
        self.send(rank, grant)
    }

    /// Period of the service loop's wake-ups: a quarter of the lease.
    fn tick(&self) -> Duration {
        self.lease
            .map(|l| (l / 4).max(Duration::from_millis(10)))
            .unwrap_or(Duration::from_millis(10))
    }

    /// Has the cooperative kill switch flipped?
    fn killed(&self) -> bool {
        self.kill
            .as_ref()
            .map(|k| k.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    /// Finish into the run outcome.
    fn outcome(self, authoritative: bool) -> HomeRunOutcome {
        let entry_overrides = self.placement.rows();
        HomeRunOutcome {
            gthv: self.gthv,
            costs: self.costs,
            conv: self.conv_stats,
            epoch: self.epoch,
            authoritative,
            entry_overrides,
        }
    }

    /// Run the service loop until all live participants joined (or this
    /// instance is killed, deposed or drained). Returns the instance,
    /// the home-side cost breakdown and the failover verdict.
    pub fn run(mut self) -> Result<HomeRunOutcome, HomeError> {
        self.restart_leases();
        self.peer_last_heard = self.clock.now();
        // Seed the telemetry epoch table (monotone max, so a replica's
        // epoch-0 report can't regress a promoted primary's).
        self.recorder.dir_epoch(self.shard, self.epoch as u64);
        while self.pending > 0 {
            if self.killed() {
                self.mark(EventKind::ShardKill, "");
                return Ok(self.outcome(false));
            }
            // A lease, a replication partner, the kill switch and an
            // entry move's retransmit need periodic wake-ups; without any
            // of them the classic blocking recv stands.
            let timed = self.lease.is_some()
                || !matches!(self.standby, Standby::Solo)
                || self.kill.is_some()
                || self.entry_handoff.is_some();
            let msg = if timed {
                match self.ep.recv_timeout(self.tick()) {
                    Ok(m) => Some(m),
                    Err(NetError::Timeout) => None,
                    Err(e) => return Err(e.into()),
                }
            } else {
                Some(self.ep.recv()?)
            };
            let idle = msg.is_none();
            if let Some(msg) = msg {
                self.process(msg)?;
            }
            self.tick_duties(idle)?;
            if self.fenced && !self.draining() {
                // Deposed, self-fenced or drained: this instance no
                // longer serves. Keep redirecting stragglers (and
                // re-acking deposes) for a grace period, then let the
                // endpoint drop — from then on senders get
                // `Disconnected` and probe the shard's other endpoint.
                let grace = self.lease.map_or(Duration::from_millis(100), |l| l * 2);
                let deadline = self.clock.now() + grace.max(self.linger);
                while let Some(m) = self.recv_until(deadline)? {
                    self.process(m)?;
                }
                return Ok(self.outcome(false));
            }
        }
        if !self.serves_clients() {
            // The primary drove the run to completion; this shadow's job
            // is done. The primary broadcasts the shutdown.
            return Ok(self.outcome(false));
        }
        if let Standby::Primary { .. } = self.standby {
            // The standby retired with the last settle it replayed: no
            // frame relayed from here on would be read, and no drain can
            // start into it.
            self.standby = Standby::Solo;
        }
        // An adaptive placement move may still be in flight: conclude it
        // before shutting down, or the ownership flip would outlive the
        // state transfer and the stitch would attribute the entry to a
        // shard that never installed its bytes. Keep offering every 10 ms
        // of silence for up to 500 ms; if the target never acknowledges
        // (it may be tearing down too), revert ownership — the bytes stay
        // authoritative here.
        let deadline = self.clock.now() + Duration::from_millis(500);
        while self.entry_handoff.is_some() {
            let now = self.clock.now();
            match self.recv_until(deadline.min(now + Duration::from_millis(10)))? {
                Some(m) => self.process(m)?,
                None => match self.clock.now() {
                    // A slice passed in silence: offer again.
                    t if now < t && t < deadline => self.send_entry_state()?,
                    // Past the deadline, or the fabric closed (no time
                    // passed): the bytes stay here.
                    _ => self.abort_entry_handoff()?,
                },
            }
        }
        // Every live participant joined: broadcast shutdown. The shutdown
        // is the (deferred) reply to each thread's Join request, so it is
        // cached and resent if the fabric drops it. The broadcast goes
        // out in rank order, so the send order (and with it the dedup
        // traffic of any straggler retransmits racing the broadcast) is
        // the same run to run.
        let ranks: Vec<u32> = self
            .peers
            .iter()
            .filter(|(_, p)| p.life == Life::Joined)
            .map(|(&r, _)| r)
            .collect();
        for r in ranks {
            // A duplicated copy of this very Shutdown (or a prior shard's)
            // may already have reached the worker, which then exits and
            // drops its endpoint before our enqueue lands. A disconnected
            // client has everything it was owed.
            self.reply(r, DsdMsg::Shutdown)?;
        }
        if self.lowest_dead.is_some() {
            // A declared-dead worker may only be partitioned and will
            // resurface retransmitting; stay around long enough to tell
            // it it was declared lost instead of letting it time out.
            if let Some(lease) = self.lease {
                self.linger = self.linger.max(lease * 2);
            }
        }
        let deadline = self.clock.now() + self.linger;
        while let Some(m) = self.recv_until(deadline)? {
            self.process(m)?;
        }
        Ok(self.outcome(true))
    }

    /// One incoming message, decoded once — the one receive path, in the
    /// service loop, the fenced grace period and the post-shutdown linger
    /// alike: client requests take the epoch-checked path into
    /// [`Self::dispatch`]; everything else is replication/failover/
    /// placement control.
    fn process(&mut self, msg: Message) -> Result<(), HomeError> {
        let op = msg.trace.map(|t| t.op).unwrap_or_default();
        if is_client_request(msg.kind) && self.entry_handoff.is_some() && !self.fenced {
            // An outbound entry move is in flight: the entry's log rows
            // are gone here and the target has not installed yet, so
            // neither shard could serve its pre-move updates. Defer every
            // client-path message until the target acknowledges — the
            // window is one round trip. A fenced source serves nothing
            // and redirects at once, below.
            self.entry_pending.push_back(msg);
            return Ok(());
        }
        let mut t = Phase::Unpack.begin(&self.recorder, self.ep.rank(), op);
        t.args(msg.payload.len() as u64, msg.src as u64);
        let stamped = self.placement.directory().epoch_stamped(msg.kind);
        let Ok((req_id, stamp, decoded, interest)) =
            DsdMsg::decode_request(msg.kind, msg.payload.clone(), stamped)
        else {
            // A frame that does not decode names no request to answer, and
            // one bad frame must not end the shard: drop it (the abandoned
            // region charges nothing) and keep serving. A real sender
            // retransmits.
            self.recorder.count("home.bad_frames", 1);
            return Ok(());
        };
        t.end(&mut self.costs);
        match decoded {
            DsdMsg::Replicate {
                src_ep,
                req_id,
                kind,
                body,
            } => self.on_replicate(src_ep, req_id, kind, body),
            DsdMsg::ReplicaBeat { .. } => {
                self.peer_last_heard = self.clock.now();
                Ok(())
            }
            DsdMsg::Depose { shard, epoch } => {
                if shard == self.shard && !self.fenced {
                    self.fence();
                }
                self.tell(msg.src, DsdMsg::DeposeAck { shard, epoch })?;
                Ok(())
            }
            DsdMsg::DeposeAck { .. } => {
                self.peer_last_heard = self.clock.now();
                self.depose_settled();
                Ok(())
            }
            DsdMsg::HandoffRequest { shard } if shard == self.shard => self.start_handoff(msg.src),
            DsdMsg::HandoffInstalled { shard, epoch } if shard == self.shard => {
                self.peer_last_heard = self.clock.now();
                self.finish_handoff(epoch)
            }
            DsdMsg::EntryHandoff { entry, to_shard } => {
                self.on_entry_handoff(msg.src, entry, to_shard)
            }
            DsdMsg::EntryState {
                entry,
                epoch,
                state,
            } => self.on_entry_state(msg.src, entry, epoch, state),
            DsdMsg::EntryInstalled { entry, epoch } => self.on_entry_installed(entry, epoch),
            // Control frames for another shard, a late `EntryDone`, or a
            // `ViewChange` another home bounced at us (an `EntryState`
            // offer that hit a fenced endpoint — the idle-tick retransmit
            // keeps offering to both endpoints until the promoted one
            // installs): nothing to do.
            DsdMsg::HandoffRequest { .. }
            | DsdMsg::HandoffInstalled { .. }
            | DsdMsg::EntryDone { .. }
            | DsdMsg::ViewChange { .. } => Ok(()),
            decoded => {
                if !self.serves_clients() {
                    // A shadow never answers clients: its state evolves
                    // through the relay stream only. The client
                    // retransmits; once this replica promotes, the
                    // retransmission is served (dedup catches anything the
                    // primary already answered).
                    return Ok(());
                }
                if stamp.is_some_and(|e| e > self.epoch) && !self.fenced {
                    // A request stamped from the future: some other
                    // instance already serves a later epoch of this shard.
                    self.fence();
                }
                if self.fenced {
                    return self.reply_view_change(msg.src, req_id);
                }
                // Relay *before* processing, envelope stripped (the
                // interest report behind the body rides along), so the
                // shadow can never miss a request whose effects the
                // primary exposed to a client and replays it through the
                // same dispatch path.
                let body = msg.payload.slice(if stamp.is_some() { 12 } else { 8 }..);
                self.relay(msg.src, req_id, msg.kind, body)?;
                self.dispatch(msg.src, req_id, decoded, &interest, op)
            }
        }
    }

    /// Redirect a client with a stale view: the shard now rules under
    /// `epoch + 1` at its other endpoint.
    fn reply_view_change(&mut self, src_ep: u32, req_id: u64) -> Result<(), HomeError> {
        let payload = DsdMsg::ViewChange {
            shard: self.shard,
            epoch: self.epoch + 1,
        }
        .encode_enveloped(req_id);
        self.post(src_ep, MsgKind::ViewChange, payload, OpCtx::default())?;
        Ok(())
    }

    /// Stop serving: every subsequent client request is answered with a
    /// redirect instead of a grant, so no split-brain double-grant can
    /// ever leave this instance.
    fn fence(&mut self) {
        self.fenced = true;
        self.mark(EventKind::Fence, "");
    }

    /// Ship one frame down the replication stream (a no-op unless this is
    /// a primary with a live standby): a client request (`src_ep`,
    /// `req_id` as received) or, with both 0, a home-side *decision* — a
    /// lease expiry, an ownership flip, an adopted entry — so that
    /// timing-dependent state transitions replay verbatim instead of
    /// being re-derived from the replica's own clock. A dead standby
    /// means continuing [`Standby::Solo`]: the cluster is back to the
    /// unreplicated availability level.
    fn relay(
        &mut self,
        src_ep: u32,
        req_id: u64,
        kind: MsgKind,
        body: Bytes,
    ) -> Result<(), HomeError> {
        let Standby::Primary { replica_ep, .. } = self.standby else {
            return Ok(());
        };
        let frame = DsdMsg::Replicate {
            src_ep,
            req_id,
            kind: kind as u16,
            body,
        };
        if !self.tell(replica_ep, frame)? {
            if self.draining() {
                // Fenced, with nobody left to take the shard over.
                return Err(HomeError::Violation(
                    "handoff target replica is gone".into(),
                ));
            }
            self.standby = Standby::Solo;
        }
        Ok(())
    }

    /// [`Self::relay`] a home-side decision.
    fn relay_decision(&mut self, inner: DsdMsg) -> Result<(), HomeError> {
        self.relay(0, 0, inner.kind(), inner.encode())
    }

    /// Replica side of the relay: replay the original request through the
    /// normal dispatch path with sends muted. The shadow's tables, log,
    /// dedup horizon and reply cache end up byte-identical to the
    /// primary's, so a promoted replica can serve retransmissions of
    /// requests the primary already answered.
    fn on_replicate(
        &mut self,
        src_ep: u32,
        req_id: u64,
        kind: u16,
        body: Bytes,
    ) -> Result<(), HomeError> {
        self.peer_last_heard = self.clock.now();
        let Some(kind) = MsgKind::from_u16(kind) else {
            return Err(HomeError::Protocol(ProtocolError::BadMessage(
                "relayed frame with unknown kind",
            )));
        };
        let (inner, interest) = DsdMsg::decode_reported(kind, body)?;
        if req_id == 0 && matches!(inner, DsdMsg::HandoffRequest { .. }) {
            // The primary's handoff decision; its ack is not muted.
            return self.take_over();
        }
        self.mute = true;
        let res = match inner {
            // Relayed home-side decisions (req id 0), not client requests.
            DsdMsg::WorkerLost { rank, .. } if req_id == 0 => self.declare_dead(rank),
            DsdMsg::EntryMoved { entries } if req_id == 0 => {
                // Mirror the primary's placement flips (including any
                // abort revert), so a promoted shadow reports and serves
                // the same per-entry ownership map.
                entries
                    .into_iter()
                    .try_for_each(|(entry, shard, epoch)| self.move_entry(entry, shard, epoch))
            }
            DsdMsg::EntryState {
                entry,
                epoch,
                state,
            } if req_id == 0 => {
                // The primary adopted an entry from another shard: replay
                // the install (muted — the primary sent the ack).
                self.install_entry(entry, epoch, state)
            }
            // A fetch changes no table but the interest riding behind it:
            // the shadow takes the rows and skips the extraction, so its
            // Eq. 1 ledger holds no Pack for a reply nobody receives. It
            // skips the request id too — a retransmission that reaches it
            // once promoted is a new request, answered from the same
            // authoritative bytes.
            DsdMsg::RangeFetch { rank, .. } => self.note_interest(rank, &interest),
            inner => self.dispatch(src_ep, req_id, inner, &interest, OpCtx::default()),
        };
        self.mute = false;
        res
    }

    /// Periodic failover duties, run on every loop turn (`idle` marks a
    /// receive-timeout turn, i.e. the inbound queue is drained).
    fn tick_duties(&mut self, idle: bool) -> Result<(), HomeError> {
        match self.standby {
            Standby::Shadow { primary_ep } => {
                // Beat the primary so it can self-fence if it loses us; a
                // dead endpoint on the other side means the primary
                // crashed outright.
                let primary_dead =
                    !self.tell(primary_ep, DsdMsg::ReplicaBeat { shard: self.shard })?;
                // A dead primary is succeeded only once the relay stream
                // has been quiet for a full tick, so every frame it
                // managed to send is replayed before this instance starts
                // serving. Quiet is measured on the stream itself, not by
                // waiting for a receive to time out: heartbeats arrive at
                // the tick's own period and can keep the queue from ever
                // looking idle.
                let quiet = self.clock.now().saturating_since(self.peer_last_heard);
                let primary_silent = self.lease.is_some_and(|l| quiet > l);
                if (primary_dead && quiet >= self.tick()) || primary_silent {
                    // Take over and start deposing the old primary.
                    self.promote(primary_ep, self.epoch + 1, true, "");
                }
                return Ok(()); // a shadow has nobody to serve
            }
            Standby::Primary { .. } => {
                // Split-brain guard: if the replication link has been
                // silent for ¾ of the lease, assume the replica is about
                // to promote (it does so at one full lease) and fence
                // *first*, so there is never a moment with two grant
                // authorities.
                let silence = self.clock.now().saturating_since(self.peer_last_heard);
                if !self.fenced && self.lease.is_some_and(|l| silence > l * 3 / 4) {
                    self.fence();
                }
            }
            Standby::Promoted {
                primary_ep,
                pending_depose: true,
                ..
            } => {
                let depose = DsdMsg::Depose {
                    shard: self.shard,
                    epoch: self.epoch,
                };
                if !self.tell(primary_ep, depose)? {
                    self.depose_settled(); // a dead primary needs no fencing
                }
            }
            Standby::Solo | Standby::Promoted { .. } => {}
        }
        if idle {
            // Keep relaying the handoff / offering the moved entry's state
            // until the other side confirms.
            self.relay_handoff()?;
            self.send_entry_state()?;
        }
        if !self.fenced {
            self.check_leases()?;
        }
        Ok(())
    }

    /// The old primary acknowledged its `Depose`, or is gone: none owed.
    fn depose_settled(&mut self) {
        if let Standby::Promoted { pending_depose, .. } = &mut self.standby {
            *pending_depose = false;
        }
    }

    /// Start serving the shard under `epoch` in place of the primary at
    /// `primary_ep`: restart every survivor's lease (they may have gone
    /// quiet waiting out the failover) and announce the view change.
    /// `depose` says whether the old primary still has to be fenced (a
    /// failover) or fenced itself (`how` = `"handoff"`).
    fn promote(&mut self, primary_ep: u32, epoch: u32, depose: bool, how: &'static str) {
        self.standby = Standby::Promoted {
            primary_ep,
            pending_depose: depose,
            first_grant_recorded: false,
        };
        self.epoch = epoch;
        self.restart_leases();
        self.mark(EventKind::Promote, how);
        self.recorder.dir_epoch(self.shard, self.epoch as u64);
        self.recorder.blackbox_trigger_once(
            "view-change",
            ((self.shard as u64) << 32) | self.epoch as u64,
        );
    }

    /// Admin asked this primary to drain: fence immediately (clients
    /// bounce to the replica with zero failed operations) and relay the
    /// request to the standby, which promotes once it has replayed every
    /// frame relayed before it. An instance that cannot start a drain —
    /// fenced, or with no standby to drain into — bounces the admin with a
    /// `ViewChange`, so `ClusterCtl` surfaces a typed busy error instead of
    /// retransmitting into it for its whole budget.
    fn start_handoff(&mut self, admin_ep: u32) -> Result<(), HomeError> {
        if self.draining() {
            return Ok(()); // duplicate request: drain already underway
        }
        let (epoch, start_us) = (self.epoch + 1, self.recorder.now_us());
        match &mut self.standby {
            Standby::Primary { drain, .. } if !self.fenced => {
                *drain = Some(Drain {
                    admin_ep,
                    epoch,
                    start_us,
                })
            }
            _ => return self.reply_view_change(admin_ep, 0),
        }
        self.fence();
        self.relay_handoff()
    }

    /// Relay the in-flight drain to the standby as a decision of this
    /// primary's. Called once at drain start and again on idle ticks until
    /// `HandoffInstalled` arrives.
    fn relay_handoff(&mut self) -> Result<(), HomeError> {
        if !self.draining() {
            return Ok(());
        }
        self.relay_decision(DsdMsg::HandoffRequest { shard: self.shard })
    }

    /// The replica confirmed installation: tell the admin, close the obs
    /// span, retire.
    fn finish_handoff(&mut self, epoch: u32) -> Result<(), HomeError> {
        let Standby::Primary { drain, .. } = &mut self.standby else {
            return Ok(());
        };
        let Some(drain) = drain.take_if(|d| d.epoch == epoch) else {
            return Ok(());
        };
        let now = self.recorder.now_us();
        self.recorder.span_at_op(
            self.ep.rank(),
            EventKind::Handoff,
            drain.start_us,
            now.saturating_sub(drain.start_us),
            self.shard as u64,
            epoch as u64,
            "",
            OpCtx {
                kind: OpKind::Handoff,
                id: self.shard,
                epoch,
                origin: 0,
            },
        );
        let done = DsdMsg::HandoffDone {
            shard: self.shard,
            epoch,
        };
        self.tell(drain.admin_ep, done)?;
        Ok(())
    }

    /// Replica side of the handoff: the relay link is FIFO, so every frame
    /// the primary relayed before fencing has been replayed — promote to
    /// the next epoch (the primary fenced itself: no depose) and confirm.
    /// A duplicate after promotion is only confirmed again.
    fn take_over(&mut self) -> Result<(), HomeError> {
        let primary_ep = match self.standby {
            Standby::Shadow { primary_ep } => {
                self.promote(primary_ep, self.epoch + 1, false, "handoff");
                primary_ep
            }
            Standby::Promoted { primary_ep, .. } => primary_ep,
            Standby::Solo | Standby::Primary { .. } => return Ok(()),
        };
        let ack = DsdMsg::HandoffInstalled {
            shard: self.shard,
            epoch: self.epoch,
        };
        self.tell(primary_ep, ack)?;
        Ok(())
    }

    // ----- per-entry re-homing (placement engine actuator) -----

    /// Admin asked this shard to migrate one entry's home to `to_shard`:
    /// snapshot the entry's authoritative bytes, flip the ownership
    /// overlay under a fresh per-entry epoch, purge the entry's log rows
    /// (the new owner starts a forced-full-refresh epoch instead) and
    /// start offering the state. Client traffic is deferred until the
    /// target acknowledges, closing the one-round-trip window in which
    /// neither shard could serve the entry's history.
    fn on_entry_handoff(
        &mut self,
        admin_ep: u32,
        entry: u32,
        to_shard: u32,
    ) -> Result<(), HomeError> {
        if !self.serves_clients() {
            return Ok(()); // shadows learn moves from the relay stream
        }
        if let Some(h) = &self.entry_handoff {
            if h.entry == entry && h.to_shard == to_shard {
                return Ok(()); // duplicate of the in-flight move
            }
            // Busy with a different move: tell the admin to back off.
            return self.reply_view_change(admin_ep, 0);
        }
        if self.fenced || self.pending == 0 {
            // Not serving, or the run is over: nothing to move.
            return self.reply_view_change(admin_ep, 0);
        }
        if to_shard == self.shard || !self.owns_entry(entry) {
            // Already there (or a duplicate of a completed move): the
            // idempotent confirmation is all the admin needs.
            self.tell(admin_ep, DsdMsg::EntryDone { entry, to_shard })?;
            return Ok(());
        }
        let state = self.pack_entry_state(entry)?;
        let epoch = self.placement.epoch(entry) + 1;
        self.move_entry(entry, to_shard, epoch)?;
        self.entry_handoff = Some(EntryHandoffState {
            entry,
            admin_ep,
            to_shard,
            epoch,
            state,
        });
        self.recorder.count("home.entry_handoffs", 1);
        self.send_entry_state()
    }

    /// Offer the in-flight entry snapshot to every endpoint of the
    /// target shard (a mute shadow drops it, a fenced endpoint bounces,
    /// the serving one installs and acks). Called once at move start and
    /// again on idle ticks until `EntryInstalled` arrives.
    fn send_entry_state(&mut self) -> Result<(), HomeError> {
        let Some(h) = &self.entry_handoff else {
            return Ok(());
        };
        let offer = DsdMsg::EntryState {
            entry: h.entry,
            epoch: h.epoch,
            state: h.state.clone(),
        };
        let (to_shard, directory) = (h.to_shard, self.placement.directory());
        let mut alive = self.tell(directory.shard_ep(to_shard), offer.clone())?;
        if directory.n_replicas() > 0 {
            alive |= self.tell(directory.replica_ep(to_shard), offer)?;
        }
        if !alive {
            // Every endpoint of the target shard is gone: abort the move
            // and keep serving the entry here.
            self.abort_entry_handoff()?;
        }
        Ok(())
    }

    /// The target shard vanished mid-move: take ownership back under a
    /// strictly higher epoch (so any `EntryMoved` rows clients already
    /// learned lose the max-epoch merge) and force a full refresh — the
    /// entry's log rows were purged at move start and cannot come back.
    fn abort_entry_handoff(&mut self) -> Result<(), HomeError> {
        let Some(h) = self.entry_handoff.take() else {
            return Ok(());
        };
        self.move_entry(h.entry, self.shard, h.epoch + 1)?;
        self.recorder.count("home.entry_handoff_aborts", 1);
        self.drain_entry_pending()
    }

    /// Target side: another shard is offering an entry it is re-homing
    /// to us. Install (idempotently — duplicate offers re-ack only) and
    /// acknowledge so the source can release its deferred traffic.
    fn on_entry_state(
        &mut self,
        src_ep: u32,
        entry: u32,
        epoch: u32,
        state: Bytes,
    ) -> Result<(), HomeError> {
        if !self.serves_clients() {
            return Ok(()); // the shadow's copy arrives on the relay stream
        }
        if self.fenced {
            return self.reply_view_change(src_ep, 0);
        }
        self.install_entry(entry, epoch, state)?;
        self.tell(src_ep, DsdMsg::EntryInstalled { entry, epoch })?;
        Ok(())
    }

    /// The current contents of `entry` as a packed update batch — the
    /// `state` of an [`DsdMsg::EntryState`] offer.
    fn pack_entry_state(&self, entry: u32) -> Result<Bytes, HomeError> {
        let ranges: Vec<UpdateRange> = full_ranges(&self.gthv)
            .into_iter()
            .filter(|r| r.entry == entry)
            .collect();
        Ok(extract_updates(&self.gthv, &ranges)?.frame().clone())
    }

    /// Take ownership of `entry` at `epoch` and apply its packed state
    /// (idempotently — a duplicate offer changes nothing). The install is
    /// relayed first, as with client requests, so a shadow replays it
    /// through this same path.
    fn install_entry(&mut self, entry: u32, epoch: u32, state: Bytes) -> Result<(), HomeError> {
        if !self.placement.adopt(entry, self.shard, epoch) {
            return Ok(());
        }
        self.relay_decision(DsdMsg::EntryState {
            entry,
            epoch,
            state: state.clone(),
        })?;
        let ups = unpack_batch(state).map_err(ProtocolError::from)?;
        apply_batch(&mut self.gthv, &ups, &mut self.conv_stats)?;
        self.force_full_refresh();
        self.recorder.count("home.entries_adopted", 1);
        Ok(())
    }

    /// One ownership flip without a state transfer — a move's start and
    /// its abort revert at the source, and the replay of both at its
    /// shadow. Shipped down the replication stream *before* acting on it,
    /// mirroring the relay-before-process discipline; the entry's log
    /// rows go with the ownership.
    fn move_entry(&mut self, entry: u32, shard: u32, epoch: u32) -> Result<(), HomeError> {
        self.relay_decision(DsdMsg::EntryMoved {
            entries: vec![(entry, shard, epoch)],
        })?;
        if self.placement.adopt(entry, shard, epoch) {
            self.log.retain(|(_, _, r)| r.entry != entry);
            if shard == self.shard {
                self.force_full_refresh();
            }
        }
        Ok(())
    }

    /// Source side: the target acknowledged installation. Confirm to the
    /// admin and release the deferred client traffic.
    fn on_entry_installed(&mut self, entry: u32, epoch: u32) -> Result<(), HomeError> {
        let inflight = |h: &mut EntryHandoffState| h.entry == entry && h.epoch == epoch;
        let Some(h) = self.entry_handoff.take_if(inflight) else {
            return Ok(()); // late ack for a move already concluded
        };
        self.recorder.count("home.entries_rehomed", 1);
        let done = DsdMsg::EntryDone {
            entry: h.entry,
            to_shard: h.to_shard,
        };
        self.tell(h.admin_ep, done)?;
        self.drain_entry_pending()
    }

    /// Re-process the messages deferred while an entry move was in
    /// flight, in arrival order. Stops early if one of them starts a new
    /// move (the rest stay queued behind it).
    fn drain_entry_pending(&mut self) -> Result<(), HomeError> {
        while self.entry_handoff.is_none() {
            let Some(m) = self.entry_pending.pop_front() else {
                return Ok(());
            };
            self.process(m)?;
        }
        Ok(())
    }

    /// The next message before `deadline`; `None` once it has passed or
    /// the fabric has closed.
    fn recv_until(&self, deadline: FabricInstant) -> Result<Option<Message>, HomeError> {
        let left = deadline.saturating_since(self.clock.now());
        if left.is_zero() {
            return Ok(None);
        }
        match self.ep.recv_timeout(left) {
            Ok(m) => Ok(Some(m)),
            Err(NetError::Timeout) | Err(NetError::ChannelClosed) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Reliability front-end: refresh liveness, deduplicate retransmitted
    /// requests (resending the cached reply), then hand fresh requests —
    /// their interest report taken in first, so the reply already goes by
    /// it — to [`Self::handle`]. Once every participant has settled, a
    /// fresh request is answered `Shutdown` instead.
    fn dispatch(
        &mut self,
        src_ep: u32,
        req_id: u64,
        msg: DsdMsg,
        interest: &[UpdateRange],
        op: OpCtx,
    ) -> Result<(), HomeError> {
        let Some(rank) = msg.sender_rank() else {
            // Rankless messages (e.g. stray Acks) carry no liveness or
            // dedup state; let handle() report the violation.
            return self.handle(msg);
        };
        let now = self.clock.now();
        let Some(peer) = self.peers.get_mut(&rank) else {
            return Err(HomeError::Violation(format!(
                "request from unknown participant {rank}"
            )));
        };
        peer.route = Some(src_ep);
        if peer.life != Life::Dead {
            peer.last_heard = Some(now);
        }
        if matches!(msg, DsdMsg::Heartbeat { .. }) {
            return Ok(());
        }
        if op.is_some() {
            // Remember which sync op this thread is blocked in, so its
            // reply (possibly deferred past other requests) and the spans
            // spent serving it are attributed to the right op.
            peer.op = op;
        }
        if peer.life == Life::Dead {
            // A declared-dead worker resurfaced (e.g. a healed partition
            // after its lease expired). Its synchronisation state is
            // gone; tell it so instead of corrupting the tables. If it
            // already hung up again, there is nobody left to tell.
            peer.last_req = req_id;
            let lost = self.worker_lost_msg(rank);
            self.reply(rank, lost)?;
            return Ok(());
        }
        if req_id != 0 {
            if req_id < peer.last_req {
                return Ok(()); // stale retransmission of an older request
            }
            if req_id == peer.last_req {
                // Duplicate of the current request: the reply (if already
                // produced) was lost — resend it verbatim. If the reply
                // is still pending (deferred grant/release), ignore.
                self.resend_cached(rank, req_id)?;
                return Ok(());
            }
            peer.last_req = req_id;
            peer.reply = None;
        }
        if self.pending == 0 {
            // A new request after every participant settled can only be
            // a stray late join (or a client that missed the broadcast):
            // answer Shutdown so it terminates.
            self.reply(rank, DsdMsg::Shutdown)?;
            return Ok(());
        }
        self.note_interest(rank, interest)?;
        self.handle(msg)
    }

    /// Start every live participant's lease afresh from now.
    fn restart_leases(&mut self) {
        let now = self.clock.now();
        for p in self.peers.values_mut() {
            if p.life == Life::Expected {
                p.last_heard = Some(now);
            }
        }
    }

    /// Declare participants dead whose lease has expired — in rank order,
    /// because the declaration order decides who inherits contended
    /// locks.
    fn check_leases(&mut self) -> Result<(), HomeError> {
        let Some(lease) = self.lease else {
            return Ok(());
        };
        let now = self.clock.now();
        let expired: Vec<u32> = self
            .peers
            .iter()
            .filter(|(_, p)| p.life == Life::Expected)
            .filter(|(_, p)| p.last_heard.is_none_or(|t| now.saturating_since(t) > lease))
            .map(|(&r, _)| r)
            .collect();
        for r in expired {
            // Ship the expiry decision down the replication stream first
            // (it is timing-dependent; the shadow must not re-derive it).
            let decision = self.worker_lost_msg(r);
            self.relay_decision(decision)?;
            self.declare_dead(r)?;
        }
        Ok(())
    }

    /// Reclaim a dead worker's synchronisation state: release its locks
    /// (granting the next waiter), drop it from wait queues, and fail any
    /// barrier it was blocking with [`DsdMsg::WorkerLost`].
    fn declare_dead(&mut self, rank: u32) -> Result<(), HomeError> {
        if !self.settle(rank, Life::Dead) {
            return Ok(()); // a replayed expiry: already settled
        }
        // Attributed to the dead rank's last known op — the op whose
        // participants will observe the expiry.
        self.recorder.instant_op(
            self.ep.rank(),
            EventKind::LeaseExpired,
            rank as u64,
            0,
            "",
            self.op_of(rank),
        );
        self.recorder.count("home.leases_expired", 1);
        self.recorder
            .blackbox_trigger_once("lease-expired", rank as u64);
        for idx in 0..self.locks.len() {
            self.locks[idx].waiters.retain(|&w| w != rank);
            if self.locks[idx].holder == Some(rank) {
                self.pass_lock(idx as u32)?;
            }
        }
        for c in &mut self.conds {
            c.waiters.retain(|&(w, _)| w != rank);
        }
        // Any barrier with entrants is now permanently stuck (the dead
        // worker can never enter): fail the survivors.
        for idx in 0..self.barriers.len() {
            let entered = std::mem::take(&mut self.barriers[idx].entered);
            for r in entered {
                if self.life(r) != Some(Life::Dead) {
                    let lost = self.worker_lost_msg(rank);
                    self.send(r, lost)?;
                }
            }
        }
        Ok(())
    }

    /// The table slot of synchronization object `id` of kind `what`
    /// (homed per `shard_of`, in a table of `len`). A misrouted operation
    /// or an unconfigured index is a protocol violation.
    fn slot(
        &self,
        what: &'static str,
        id: u32,
        shard_of: impl Fn(&Directory, u32) -> u32,
        len: usize,
    ) -> Result<usize, HomeError> {
        let owner = shard_of(&self.placement.directory(), id);
        if owner != self.shard {
            return Err(HomeError::Violation(format!(
                "{what} {id} homed at shard {owner}, not shard {}",
                self.shard
            )));
        }
        if id as usize >= len {
            return Err(HomeError::Violation(format!("no {what} {id}")));
        }
        Ok(id as usize)
    }

    /// Grant mutex `lock` to `rank` if it is free, else queue `rank`
    /// behind the holder — a lock request, or a woken cond waiter that
    /// must re-acquire its mutex before its `cond_wait` returns.
    fn grant_or_queue(&mut self, lock: u32, rank: u32) -> Result<(), HomeError> {
        let l = &mut self.locks[lock as usize];
        if l.holder.is_none() {
            l.holder = Some(rank);
            self.grant(lock, rank)
        } else {
            l.waiters.push_back(rank);
            Ok(())
        }
    }

    /// Free mutex `lock` and grant it to the next live waiter, if any —
    /// after an unlock, a cond-wait's release half, or the holder's death.
    fn pass_lock(&mut self, lock: u32) -> Result<(), HomeError> {
        self.locks[lock as usize].holder = None;
        while let Some(next) = self.locks[lock as usize].waiters.pop_front() {
            if self.life(next) != Some(Life::Dead) {
                self.locks[lock as usize].holder = Some(next);
                return self.grant(lock, next);
            }
        }
        Ok(())
    }

    /// One fresh (deduplicated, routed) request against the sync tables.
    fn handle(&mut self, msg: DsdMsg) -> Result<(), HomeError> {
        match msg {
            DsdMsg::LockRequest { lock, rank } => {
                self.slot("lock", lock, Directory::lock_shard, self.locks.len())?;
                self.grant_or_queue(lock, rank)
            }
            DsdMsg::UnlockRequest {
                lock,
                rank,
                updates,
            } => {
                let idx = self.slot("lock", lock, Directory::lock_shard, self.locks.len())?;
                if self.locks[idx].holder != Some(rank) {
                    return Err(HomeError::Violation(format!(
                        "thread {rank} unlocking mutex {lock} held by {:?}",
                        self.locks[idx].holder
                    )));
                }
                if !self.absorb(rank, &updates)? {
                    // Stale placement view: nothing absorbed, lock still
                    // held — the client re-routes and retries the release.
                    return Ok(());
                }
                self.send(rank, DsdMsg::UnlockAck { lock })?;
                self.pass_lock(lock)
            }
            DsdMsg::BarrierEnter {
                barrier,
                rank,
                updates,
            } => {
                let idx = self.slot(
                    "barrier",
                    barrier,
                    Directory::barrier_shard,
                    self.barriers.len(),
                )?;
                if !self.absorb(rank, &updates)? {
                    return Ok(()); // client re-routes and re-enters
                }
                if let Some(lost) = self.lowest_dead {
                    // The barrier can never complete with a dead
                    // participant outstanding: fail fast.
                    let lost_msg = self.worker_lost_msg(lost);
                    return self.send(rank, lost_msg);
                }
                self.barriers[idx].entered.push(rank);
                if self.barriers[idx].entered.len() >= self.pending {
                    let entered = std::mem::take(&mut self.barriers[idx].entered);
                    for r in entered {
                        let (updates, notices) = self.stale_updates_for(r)?;
                        let release = DsdMsg::BarrierRelease {
                            barrier,
                            updates,
                            notices,
                        };
                        self.send(r, release)?;
                    }
                }
                Ok(())
            }
            DsdMsg::Join { rank } => {
                self.settle(rank, Life::Joined);
                Ok(())
            }
            DsdMsg::CondWait {
                cond,
                lock,
                rank,
                updates,
            } => {
                let cidx = self.slot("cond", cond, Directory::cond_shard, self.conds.len())?;
                let lidx = self.slot("lock", lock, Directory::lock_shard, self.locks.len())?;
                if self.locks[lidx].holder != Some(rank) {
                    return Err(HomeError::Violation(format!(
                        "thread {rank} cond-waiting without holding mutex {lock}"
                    )));
                }
                // Atomic release + sleep: absorb the waiter's updates,
                // free the mutex (waking the next contender), park.
                if !self.absorb(rank, &updates)? {
                    return Ok(()); // client re-routes and retries the wait
                }
                self.pass_lock(lock)?;
                self.conds[cidx].waiters.push_back((rank, lock));
                Ok(())
            }
            DsdMsg::CondSignal {
                cond,
                rank,
                broadcast,
            } => {
                let cidx = self.slot("cond", cond, Directory::cond_shard, self.conds.len())?;
                let wake = if broadcast {
                    std::mem::take(&mut self.conds[cidx].waiters)
                } else {
                    self.conds[cidx].waiters.pop_front().into_iter().collect()
                };
                for (waiter, lock) in wake {
                    self.grant_or_queue(lock, waiter)?;
                }
                self.send(rank, DsdMsg::Ack)
            }
            DsdMsg::Resync { rank } => {
                // Cold copy: force a full refresh at the next acquire by
                // dropping the horizon below the log floor (or to zero).
                // The cold copy has read nothing either: what it reports
                // from here on is its whole interest.
                if let Some(p) = self.peers.get_mut(&rank) {
                    p.seen = 0;
                    p.interest.clear();
                }
                if self.log_floor == 0 && self.seq > 0 {
                    // Ensure "below floor" semantics even without
                    // compaction: raise the floor to the current sequence
                    // and prune nothing (full_ranges covers everything).
                    self.log_floor = self.log_floor.max(1);
                }
                self.send(rank, DsdMsg::Ack)
            }
            DsdMsg::UpdateFlush { rank, updates } => {
                // Release-time fan-out from a thread whose critical
                // section touched this shard's slice but whose release
                // goes to another shard. Absorb and ack; the thread holds
                // its release until the ack arrives, so the next acquirer
                // of any mutex is guaranteed to fetch these updates.
                if !self.absorb(rank, &updates)? {
                    return Ok(()); // client re-routes and re-flushes
                }
                self.send(rank, DsdMsg::Ack)
            }
            DsdMsg::UpdateFetch { rank } => {
                // Acquire-time pull: the thread just acquired at another
                // shard and needs this shard's outstanding updates too.
                let (updates, notices) = self.stale_updates_for(rank)?;
                self.send(rank, DsdMsg::UpdateBatch { updates, notices })
            }
            DsdMsg::RangeFetch { rank, ranges } => {
                // Fetch before use: the current bytes of ranges the thread
                // was only told about, straight from the authoritative
                // copy. Its horizon stays: the log rows these ranges came
                // from were accounted for when they were noticed.
                if self.bounce_unowned(rank, ranges.iter().map(|r| r.entry))? {
                    return Ok(()); // the thread re-routes and fetches again
                }
                let updates = self.extract_for(self.op_of(rank), &ranges)?;
                let notices = Vec::new();
                self.send(rank, DsdMsg::UpdateBatch { updates, notices })
            }
            other => Err(HomeError::Violation(format!(
                "home received unexpected {other:?}"
            ))),
        }
    }
}

/// Divide a reader's stale ranges by its `interest`: what falls inside a
/// span it has read (or in an entry it has no row for — never read, so
/// counted whole) is returned first, to be shipped; the rest is folded
/// into notices, one per gap between two spans that anything fell into,
/// covering from the first stale element in that gap to the last. A notice
/// may therefore cover more than was written, never an element of the
/// interest, and an entry yields at most one more notice than it has
/// spans — SOR's thousands of stride-2 ranges in a neighbour's stripe
/// become one. One pass, in log order: consecutive ranges mostly fall in
/// the span or gap the one before did, which costs them four compares.
fn split_by_interest(
    stale: impl Iterator<Item = UpdateRange>,
    interest: &BTreeMap<u32, IntervalSet>,
) -> (Vec<UpdateRange>, Vec<UpdateRange>) {
    /// Close the span or gap the walk is leaving: a gap's hull joins the
    /// notice of that gap (keyed by entry and where the gap starts).
    fn leave(at: Option<(u32, Piece)>, noticed: &mut BTreeMap<(u32, u64), (u64, u64)>) {
        if let Some((entry, p)) = at.filter(|(_, p)| !p.inside) {
            let hull = noticed.entry((entry, p.lo)).or_insert((p.first, p.end));
            *hull = (hull.0.min(p.first), hull.1.max(p.end));
        }
    }
    let mut ship = Vec::new();
    let mut noticed = BTreeMap::new();
    // The span or gap the last range fell in; in a gap, `first..end` is
    // the hull of what fell there since the walk entered it.
    let mut at: Option<(u32, Piece)> = None;
    for r in stale {
        if let Some((entry, p)) = &mut at {
            if *entry == r.entry && p.lo <= r.first && r.end() <= p.hi {
                if p.inside {
                    ship.push(r);
                } else {
                    (p.first, p.end) = (p.first.min(r.first), p.end.max(r.end()));
                }
                continue;
            }
        }
        leave(at.take(), &mut noticed);
        let Some(set) = interest.get(&r.entry) else {
            // Never read, or never said: all of the entry ships.
            ship.push(r);
            let entry = Piece {
                inside: true,
                first: r.first,
                end: r.end(),
                lo: 0,
                hi: u64::MAX,
            };
            at = Some((r.entry, entry));
            continue;
        };
        for p in set.split(r.first, r.end()) {
            leave(at.take(), &mut noticed);
            if p.inside {
                ship.push(UpdateRange {
                    entry: r.entry,
                    first: p.first,
                    count: p.end - p.first,
                });
            }
            at = Some((r.entry, p));
        }
    }
    leave(at, &mut noticed);
    let notices = noticed
        .into_iter()
        .map(|((entry, _), (first, end))| UpdateRange {
            entry,
            first,
            count: end - first,
        })
        .collect();
    (ship, notices)
}

#[cfg(test)]
mod tests {
    // The home service is exercised end-to-end in client.rs and the
    // integration suite; unit tests here cover bookkeeping edge cases
    // that are hard to reach through the full stack.
    use super::*;
    use crate::gthv::GthvDef;
    use hdsm_net::endpoint::Network;
    use hdsm_net::stats::NetConfig;
    use hdsm_platform::ctype::StructBuilder;
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::PlatformSpec;

    fn tiny_def() -> GthvDef {
        GthvDef::new(
            StructBuilder::new("G")
                .array("xs", ScalarKind::Int, 64)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn init_logs_full_structure() {
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
            eps.pop().unwrap(),
            HomeConfig {
                n_locks: 1,
                n_barriers: 1,
                n_conds: 0,
                participants: vec![1],
                ..Default::default()
            },
        );
        h.init_with(|g| {
            for i in 0..64 {
                g.write_int(0, i, i as i128).unwrap();
            }
        });
        assert_eq!(h.seq, 1);
        assert_eq!(h.log.len(), 1);
        assert_eq!(h.log[0].2.count, 64);
        assert_eq!(h.gthv().read_int(0, 63).unwrap(), 63);
    }

    #[test]
    fn stale_updates_respect_horizon() {
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
            eps.pop().unwrap(),
            HomeConfig {
                n_locks: 1,
                n_barriers: 0,
                n_conds: 0,
                participants: vec![1, 2],
                ..Default::default()
            },
        );
        h.init_with(|g| g.write_int(0, 0, 42).unwrap());
        // Thread 1 pulls: gets the init batch.
        let ups = h.stale_updates_for(1).unwrap().0;
        assert_eq!(ups.len(), 1);
        assert_eq!(ups.iter().next().unwrap().count, 64);
        // Pulling again with nothing new: empty.
        assert!(h.stale_updates_for(1).unwrap().0.is_empty());
        // Thread 2 still sees everything.
        assert_eq!(h.stale_updates_for(2).unwrap().0.len(), 1);
    }

    #[test]
    fn resync_forces_full_refresh() {
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
            eps.pop().unwrap(),
            HomeConfig {
                n_locks: 1,
                n_barriers: 0,
                n_conds: 0,
                participants: vec![1],
                ..Default::default()
            },
        );
        h.init_with(|g| g.write_int(0, 7, 7).unwrap());
        let _ = h.stale_updates_for(1).unwrap();
        assert!(h.stale_updates_for(1).unwrap().0.is_empty());
        h.note_interest(1, &[elems(3, 5)]).unwrap();
        // Simulate migration: cold copy.
        h.dispatch(0, 0, DsdMsg::Resync { rank: 1 }, &[], OpCtx::default())
            .unwrap();
        // The cold copy has read nothing: the refresh is whole again, not
        // five elements and a notice for the rest.
        assert!(h.peers[&1].interest.is_empty());
        let (ups, notices) = h.stale_updates_for(1).unwrap();
        assert_eq!(ups.len(), 1, "full refresh after resync");
        assert_eq!(ups.iter().next().unwrap().count, 64);
        assert!(notices.is_empty());
    }

    #[test]
    fn compaction_preserves_refresh_capability() {
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
            eps.pop().unwrap(),
            HomeConfig {
                n_locks: 1,
                n_barriers: 0,
                n_conds: 0,
                participants: vec![1, 2],
                ..Default::default()
            },
        );
        // Thread 1 keeps up; generate enough absorbed batches to trigger
        // compaction.
        for i in 0..5000u64 {
            h.absorb(9, &one_elem(i % 64, i as i128)).unwrap();
            if i % 2 == 0 {
                let _ = h.stale_updates_for(1).unwrap();
                let _ = h.stale_updates_for(2).unwrap();
            }
        }
        assert!(h.log.len() < 5000, "log was never compacted");
        // A thread below the floor still gets a full refresh.
        h.peers.get_mut(&2).unwrap().seen = 0;
        assert!(h.log_floor > 0);
        let ups = h.stale_updates_for(2).unwrap().0;
        assert_eq!(ups.iter().next().unwrap().count, 64);
    }

    #[test]
    fn a_dead_ranks_horizon_does_not_stop_compaction() {
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let config = HomeConfig {
            participants: vec![1, 2, 3],
            ..Default::default()
        };
        let mut h = HomeShard::new(gthv, eps.pop().unwrap(), config);
        h.init_with(|g| g.write_int(0, 0, 42).unwrap());
        // Rank 3 saw nothing before the lease detector declared it dead;
        // the live readers keep up with every row.
        assert!(h.settle(3, Life::Dead));
        for i in 0..5000u64 {
            h.absorb(9, &one_elem(i % 64, i as i128)).unwrap();
            let _ = h.stale_updates_for(1).unwrap();
            let _ = h.stale_updates_for(2).unwrap();
        }
        assert_eq!(h.peers[&3].seen, 0);
        assert!(h.log.len() < 4096, "{} rows kept", h.log.len());
        assert!(h.log_floor > 0);
    }

    #[test]
    fn sharded_home_owns_only_its_slice() {
        let def = || {
            GthvDef::new(
                StructBuilder::new("G")
                    .array("a", ScalarKind::Int, 8)
                    .array("b", ScalarKind::Int, 8)
                    .build()
                    .unwrap(),
            )
            .unwrap()
        };
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
            eps.pop().unwrap(),
            HomeConfig {
                participants: vec![1],
                shard: 1,
                directory: Directory::new(2),
                ..Default::default()
            },
        );
        h.init_with(|g| {
            for i in 0..8 {
                g.write_int(0, i, 1).unwrap();
                g.write_int(1, i, 2).unwrap();
            }
        });
        // Entry 0 belongs to shard 0; this shard logs and serves only
        // entry 1.
        assert!(!h.log.is_empty());
        assert!(h.log.iter().all(|(_, _, r)| r.entry == 1));
        let ups = h.stale_updates_for(1).unwrap().0;
        assert!(!ups.is_empty());
        assert!(ups.iter().all(|u| u.entry == 1));
        // A misrouted update for entry 0 is a protocol violation, not a
        // silent write into a non-authoritative copy.
        let mut src = GthvInstance::new(def(), PlatformSpec::linux_x86());
        src.write_int(0, 0, 9).unwrap();
        let bad = extract_updates(
            &src,
            &[UpdateRange {
                entry: 0,
                first: 0,
                count: 1,
            }],
        )
        .unwrap();
        assert!(matches!(h.absorb(1, &bad), Err(HomeError::Violation(_))));
    }

    /// A shard over `tiny_def` on `plat` with ranks 1..=5 and one mutex,
    /// plus the worker endpoints 1..=5 of its fabric.
    fn five_rank_shard(plat: hdsm_platform::spec::Platform) -> (HomeShard, Vec<Endpoint>) {
        let (_net, mut eps) = Network::new(6, NetConfig::instant());
        let config = HomeConfig {
            participants: (1..=5).collect(),
            ..Default::default()
        };
        let gthv = GthvInstance::new(tiny_def(), plat);
        (HomeShard::new(gthv, eps.remove(0), config), eps)
    }

    /// `count` elements of entry 0 from `first`.
    fn elems(first: u64, count: u64) -> UpdateRange {
        UpdateRange {
            entry: 0,
            first,
            count,
        }
    }

    /// One element of `tiny_def`'s array as a batch, as a writer ships it.
    fn one_elem(first: u64, value: i128) -> UpdateBatch {
        let mut src = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        src.write_int(0, first, value).unwrap();
        let range = UpdateRange {
            entry: 0,
            first,
            count: 1,
        };
        extract_updates(&src, &[range]).unwrap()
    }

    /// [`five_rank_shard`] driven until it holds a peer in every state:
    /// rank 1 joined (owed its `Shutdown`), rank 2 holding mutex 0 with
    /// its grant cached, rank 3 queued behind it, rank 4 dead, rank 5
    /// expected and never heard from — plus a two-row log and one
    /// ownership row.
    fn populated_shard() -> (HomeShard, Vec<Endpoint>) {
        let (mut h, eps) = five_rank_shard(PlatformSpec::solaris_sparc());
        h.init_with(|g| {
            for i in 0..64 {
                g.write_int(0, i, i as i128 * 7 - 100).unwrap();
            }
        });
        let op = OpCtx::default();
        h.dispatch(1, 1, DsdMsg::Join { rank: 1 }, &[], op).unwrap();
        for rank in [2, 3] {
            h.dispatch(rank, 7, DsdMsg::LockRequest { lock: 0, rank }, &[], op)
                .unwrap();
        }
        h.declare_dead(4).unwrap();
        assert!(h.absorb(2, &one_elem(9, -37)).unwrap());
        h.placement.adopt(0, 0, 2);
        h.note_interest(2, &[elems(0, 8), elems(8, 4), elems(40, 24)])
            .unwrap();
        h.note_interest(3, &[elems(63, 1)]).unwrap();
        (h, eps)
    }

    #[test]
    fn entry_states_roundtrip_through_the_grouped_batch() {
        // Entry-handoff state travels as a grouped batch and installs
        // byte-exactly, on the same representation and across one.
        let (src, _src_eps) = populated_shard();
        let state = src.pack_entry_state(0).unwrap();
        assert_eq!(
            &state[..4],
            &[0xFFu8; 4],
            "entry state must be a grouped batch"
        );
        for plat in [PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()] {
            let (mut adopter, _adopter_eps) = five_rank_shard(plat);
            adopter.install_entry(0, 1, state.clone()).unwrap();
            for i in 0..64 {
                let want = if i == 9 { -37 } else { i as i128 * 7 - 100 };
                assert_eq!(adopter.gthv().read_int(0, i).unwrap(), want);
            }
            assert!(adopter.owns_entry(0));
        }
    }

    #[test]
    fn random_bytes_never_panic_or_overreserve_installing_entry_state() {
        // `EntryState.state` arrives in a wire frame: whatever it holds,
        // `install_entry` answers Ok or Err — never a panic, never a
        // reservation sized by a length prefix. Each offer comes under a
        // fresh ownership epoch, so none is skipped as a duplicate.
        let (src, _src_eps) = populated_shard();
        let state = src.pack_entry_state(0).unwrap();
        let (mut victim, _eps) = five_rank_shard(PlatformSpec::linux_x86());
        let mut epoch = 0;
        let mut install = |victim: &mut HomeShard, state: Bytes| {
            epoch += 1;
            victim.install_entry(0, epoch, state)
        };
        for cut in 0..state.len() {
            assert!(
                install(&mut victim, state.slice(..cut)).is_err(),
                "strict prefix of {cut} bytes must be rejected"
            );
        }
        // Every count and length of a valid state, blown up in place; what
        // an accepted one holds is extracted for every rank afterwards.
        for at in 0..state.len() - 4 {
            let mut wild = state.to_vec();
            wild[at..at + 4].fill(0xFF);
            if install(&mut victim, wild.into()).is_ok() {
                for rank in 0..=6 {
                    let _ = victim.stale_updates_for(rank);
                }
            }
        }
        let mut seed = 0x5EED_5A17u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u8
        };
        for i in 0..1000usize {
            let buf = Bytes::from((0..i * 4200 / 999).map(|_| next()).collect::<Vec<u8>>());
            let _ = install(&mut victim, buf);
        }
    }

    #[test]
    fn a_handoff_request_to_a_shard_without_a_standby_is_bounced_not_fatal() {
        let (mut h, eps) = five_rank_shard(PlatformSpec::linux_x86());
        let request = Message {
            src: 1,
            dst: 0,
            kind: MsgKind::HandoffRequest,
            payload: DsdMsg::HandoffRequest { shard: 0 }.encode_enveloped(0),
            trace: None,
        };
        h.process(request).unwrap();
        let m = eps[0].recv_timeout(Duration::from_secs(1)).unwrap();
        let (_, bounce) = DsdMsg::decode_enveloped(m.kind, m.payload).unwrap();
        assert_eq!(bounce, DsdMsg::ViewChange { shard: 0, epoch: 1 });
        assert!(!h.fenced && matches!(h.standby, Standby::Solo));
    }

    #[test]
    fn a_relayed_handoff_promotes_the_shadow_once_and_is_confirmed_every_time() {
        // Endpoints: 0 the primary, 1 its standby (this shadow), 2 rank 1.
        let (_net, mut eps) = Network::new(3, NetConfig::instant());
        let recorder = Recorder::enabled();
        let config = HomeConfig {
            participants: vec![1],
            directory: Directory::with_replicas(1, 1),
            standby: true,
            recorder: recorder.clone(),
            ..Default::default()
        };
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(gthv, eps.remove(1), config);
        let (primary, worker) = (&eps[0], &eps[1]);
        let lock = DsdMsg::LockRequest { lock: 0, rank: 1 };
        h.on_replicate(2, 5, MsgKind::LockRequest as u16, lock.encode())
            .unwrap();
        let handoff = DsdMsg::HandoffRequest { shard: 0 };
        for _ in 0..2 {
            h.on_replicate(0, 0, MsgKind::HandoffRequest as u16, handoff.encode())
                .unwrap();
            let m = primary.recv_timeout(Duration::from_secs(1)).unwrap();
            let (_, ack) = DsdMsg::decode_enveloped(m.kind, m.payload).unwrap();
            assert_eq!(ack, DsdMsg::HandoffInstalled { shard: 0, epoch: 1 });
        }
        assert!(matches!(
            h.standby,
            Standby::Promoted {
                primary_ep: 0,
                pending_depose: false,
                ..
            }
        ));
        let promotions: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Promote)
            .map(|e| (e.arg1, e.label))
            .collect();
        assert_eq!(promotions, [(1, "handoff")]);
        // The replayed grant went nowhere; promoted, the shadow answers a
        // retransmission of it from the reply cache the stream filled.
        assert!(worker.recv_timeout(Duration::from_millis(10)).is_err());
        h.dispatch(2, 5, lock, &[], OpCtx::default()).unwrap();
        let m = worker.recv_timeout(Duration::from_secs(1)).unwrap();
        let (rid, grant) = DsdMsg::decode_enveloped(m.kind, m.payload).unwrap();
        assert!(matches!(grant, DsdMsg::LockGrant { lock: 0, .. }) && rid == 5);
        assert_eq!(h.locks[0].holder, Some(1));
    }

    /// Queue `msg` at the home (endpoint 0) from `eps[src - 1]`, endpoint
    /// `src`, enveloped as request `req_id`.
    fn queue(eps: &[Endpoint], src: u32, req_id: u64, msg: DsdMsg) {
        let frame = msg.encode_request(req_id, None, &[]);
        eps[src as usize - 1].send(0, msg.kind(), frame).unwrap();
    }

    /// The next frame endpoint `ep` was sent, and its decoded form.
    fn answer(ep: &Endpoint) -> (Bytes, u64, DsdMsg) {
        let m = ep.recv_timeout(Duration::from_secs(1)).unwrap();
        let (rid, msg) = DsdMsg::decode_enveloped(m.kind, m.payload.clone()).unwrap();
        (m.payload, rid, msg)
    }

    #[test]
    fn after_every_participant_settled_the_linger_answers_from_the_same_tables() {
        // Frames queued behind the last Join reach the home after its
        // shutdown broadcast, while it lingers.
        let (mut h, eps) = populated_shard();
        h.linger = Duration::from_millis(50);
        assert!(matches!(answer(&eps[1]).2, DsdMsg::LockGrant { .. }));
        for (rank, req_id) in [(2, 8), (3, 8), (5, 1)] {
            queue(&eps, rank, req_id, DsdMsg::Join { rank });
        }
        queue(&eps, 1, 1, DsdMsg::Join { rank: 1 }); // a duplicate
        queue(&eps, 1, 2, DsdMsg::LockRequest { lock: 0, rank: 1 });
        queue(&eps, 4, 9, DsdMsg::LockRequest { lock: 0, rank: 4 });
        queue(&eps, 2, 0, DsdMsg::Heartbeat { rank: 2 });
        assert!(h.run().unwrap().authoritative);
        // Rank 1: the broadcast's reply to its Join, the same bytes again
        // for the duplicate, and Shutdown for the fresh request.
        let (shutdown, rid, msg) = answer(&eps[0]);
        assert_eq!((rid, msg), (1, DsdMsg::Shutdown));
        assert_eq!(answer(&eps[0]).0, shutdown, "the cached reply, verbatim");
        let (_, rid, msg) = answer(&eps[0]);
        assert_eq!((rid, msg), (2, DsdMsg::Shutdown));
        for (rank, req_id) in [(2, 8), (3, 8), (5, 1)] {
            let (_, rid, msg) = answer(&eps[rank - 1]);
            assert_eq!((rid, msg), (req_id, DsdMsg::Shutdown), "rank {rank}");
        }
        // The dead rank is told so, under the request id it sent.
        let lost = DsdMsg::WorkerLost {
            rank: 4,
            heard_ms: 0,
            lease_ms: 0,
        };
        let (_, rid, msg) = answer(&eps[3]);
        assert_eq!((rid, msg), (9, lost));
        // The heartbeat is answered by nothing.
        for ep in &eps {
            assert!(ep.recv_timeout(Duration::from_millis(10)).is_err());
        }
    }

    #[test]
    fn a_fenced_instance_redirects_every_client_frame_through_its_grace_period() {
        // Endpoint 5 deposes the shard as a promoted standby would, then
        // probes it as an admin; ranks 3 and 5 retransmit into it. An
        // entry move is in flight, so a client frame would be deferred if
        // the instance still served.
        let (mut h, eps) = populated_shard();
        assert!(matches!(answer(&eps[1]).2, DsdMsg::LockGrant { .. }));
        h.entry_handoff = Some(EntryHandoffState {
            entry: 0,
            admin_ep: 5,
            to_shard: 1,
            epoch: 3,
            state: Bytes::new(),
        });
        let depose = DsdMsg::Depose { shard: 0, epoch: 1 };
        queue(&eps, 5, 0, depose.clone());
        queue(&eps, 3, 9, DsdMsg::LockRequest { lock: 0, rank: 3 });
        queue(&eps, 5, 0, DsdMsg::Heartbeat { rank: 5 });
        queue(&eps, 5, 0, depose);
        let elsewhere = DsdMsg::EntryHandoff {
            entry: 0,
            to_shard: 0,
        };
        queue(&eps, 5, 0, elsewhere);
        queue(&eps, 5, 0, DsdMsg::HandoffRequest { shard: 0 });
        assert!(!h.run().unwrap().authoritative);
        let redirect = DsdMsg::ViewChange { shard: 0, epoch: 1 };
        let (_, rid, msg) = answer(&eps[2]);
        assert_eq!((rid, msg), (9, redirect.clone()));
        let acked = DsdMsg::DeposeAck { shard: 0, epoch: 1 };
        for want in [&acked, &redirect, &acked, &redirect, &redirect] {
            let (_, rid, msg) = answer(&eps[4]);
            assert_eq!((rid, &msg), (0, want));
        }
        for ep in &eps {
            assert!(ep.recv_timeout(Duration::from_millis(10)).is_err());
        }
    }

    /// Shard 1 of two, re-homing entry 1 (of `xs`, `ys`) to shard 0 when
    /// its one participant joins: the move is still in flight when the
    /// service loop finds every participant settled. Endpoints: 0 the
    /// target shard, 1 this shard, 2 rank 1, 3 the admin; the returned
    /// ones are 0, 2 and 3.
    fn a_move_in_flight_past_the_last_join() -> (HomeShard, Vec<Endpoint>, Recorder) {
        let def = GthvDef::new(
            StructBuilder::new("G")
                .array("xs", ScalarKind::Int, 8)
                .array("ys", ScalarKind::Int, 8)
                .build()
                .unwrap(),
        )
        .unwrap();
        let (_net, mut eps) = Network::new(4, NetConfig::instant());
        let recorder = Recorder::enabled();
        let config = HomeConfig {
            participants: vec![1],
            shard: 1,
            directory: Directory::new(2),
            recorder: recorder.clone(),
            ..Default::default()
        };
        let gthv = GthvInstance::new(def, PlatformSpec::linux_x86());
        let mut h = HomeShard::new(gthv, eps.remove(1), config);
        h.init_with(|g| (0..8).for_each(|i| g.write_int(1, i, 10 + i as i128).unwrap()));
        h.on_entry_handoff(3, 1, 0).unwrap();
        let op = OpCtx::default();
        h.dispatch(2, 1, DsdMsg::Join { rank: 1 }, &[], op).unwrap();
        assert_eq!((h.pending, h.entry_handoff.is_some()), (0, true));
        (h, eps, recorder)
    }

    fn count(recorder: &Recorder, name: &str) -> u64 {
        let snap = recorder.snapshot().unwrap();
        let row = snap.counters.iter().find(|(k, _)| k == name);
        row.map_or(0, |(_, v)| *v)
    }

    #[test]
    fn a_move_acked_after_the_last_join_concludes_before_the_shutdown() {
        let (h, eps, recorder) = a_move_in_flight_past_the_last_join();
        let (target, worker, admin) = (&eps[0], &eps[1], &eps[2]);
        let (_, _, offer) = answer(target);
        assert!(matches!(
            offer,
            DsdMsg::EntryState {
                entry: 1,
                epoch: 1,
                ..
            }
        ));
        let ack = DsdMsg::EntryInstalled { entry: 1, epoch: 1 };
        target.send(1, ack.kind(), ack.encode_enveloped(0)).unwrap();
        let out = h.run().unwrap();
        assert!(out.authoritative);
        assert_eq!(out.entry_overrides, [(1, 0, 1)]);
        let done = DsdMsg::EntryDone {
            entry: 1,
            to_shard: 0,
        };
        assert_eq!(answer(admin).2, done);
        assert_eq!(answer(worker).2, DsdMsg::Shutdown);
        assert_eq!(count(&recorder, "home.entries_rehomed"), 1);
        assert_eq!(count(&recorder, "home.entry_handoff_aborts"), 0);
    }

    #[test]
    fn a_move_the_target_never_acks_reverts_within_half_a_second() {
        let (h, eps, recorder) = a_move_in_flight_past_the_last_join();
        let (target, worker, admin) = (&eps[0], &eps[1], &eps[2]);
        let t0 = std::time::Instant::now();
        let out = h.run().unwrap();
        let waited = t0.elapsed();
        assert!(
            (Duration::from_millis(500)..Duration::from_secs(2)).contains(&waited),
            "{waited:?}"
        );
        // Offered at the start and again on every 10 ms of silence.
        let mut offers = 0;
        while let Ok(m) = target.recv_timeout(Duration::from_millis(10)) {
            let (_, offer) = DsdMsg::decode_enveloped(m.kind, m.payload).unwrap();
            assert!(matches!(
                offer,
                DsdMsg::EntryState {
                    entry: 1,
                    epoch: 1,
                    ..
                }
            ));
            offers += 1;
        }
        assert!((2..=52).contains(&offers), "{offers} offers");
        // The owner reverts at epoch + 1 and keeps the source's bytes.
        assert!(out.authoritative);
        assert_eq!(out.entry_overrides, [(1, 1, 2)]);
        for i in 0..8 {
            assert_eq!(out.gthv.read_int(1, i).unwrap(), 10 + i as i128);
        }
        assert_eq!(count(&recorder, "home.entry_handoff_aborts"), 1);
        assert_eq!(count(&recorder, "home.entries_rehomed"), 0);
        assert_eq!(answer(worker).2, DsdMsg::Shutdown);
        assert!(admin.recv_timeout(Duration::from_millis(10)).is_err());
    }

    #[test]
    fn stale_updates_match_the_filter_reference_across_compaction() {
        // The reference: one filter over the whole log, which must pick
        // the rows `stale_updates_for` finds from `partition_point` on.
        fn reference(h: &HomeShard, rank: u32) -> UpdateBatch {
            let horizon = h.peers[&rank].seen;
            let ranges = if horizon < h.log_floor {
                h.owned_full_ranges()
            } else {
                coalesce(
                    h.log
                        .iter()
                        .filter(|(s, w, _)| *s > horizon && *w != rank)
                        .map(|(_, _, r)| *r)
                        .collect(),
                )
            };
            extract_updates(&h.gthv, &ranges).unwrap()
        }
        fn pull_and_compare(h: &mut HomeShard, rank: u32) {
            let want = reference(h, rank);
            let (got, notices) = h.stale_updates_for(rank).unwrap();
            assert_eq!(got.frame(), want.frame(), "rank {rank} at seq {}", h.seq);
            assert!(notices.is_empty(), "rank {rank} at seq {}", h.seq);
        }
        let (_net, mut eps) = Network::new(1, NetConfig::instant());
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let config = HomeConfig {
            participants: vec![1, 2, 3],
            ..Default::default()
        };
        let mut h = HomeShard::new(gthv, eps.pop().unwrap(), config);
        h.init_with(|g| g.write_int(0, 0, 42).unwrap());
        // Rank 2 has read the whole entry and said so: it is sent, byte
        // for byte, what a reader that never said anything is sent.
        h.note_interest(2, &[elems(0, 40), elems(40, 24)]).unwrap();
        // Three writers in turn; rank 1 pulls often, 2 seldom, 3 rarely,
        // so their horizons sit at different depths of the log.
        for i in 0..4500u64 {
            let writer = 1 + (i % 3) as u32;
            assert!(h.absorb(writer, &one_elem(i * 5 % 64, i as i128)).unwrap());
            for (rank, every) in [(1, 2), (2, 37), (3, 501)] {
                if i % every == 0 {
                    pull_and_compare(&mut h, rank);
                }
            }
        }
        assert!(h.log_floor > 0 && h.log.len() < 4500, "never compacted");
        // Horizons on both sides of the floor and at it, and one past the
        // newest row.
        for seen in [0, h.log_floor - 1, h.log_floor, h.log_floor + 1, h.seq] {
            h.peers.get_mut(&2).unwrap().seen = seen;
            pull_and_compare(&mut h, 2);
        }
    }

    #[test]
    fn no_notice_overlaps_the_readers_interest_and_nothing_stale_is_lost() {
        // Random interests and stale logs over two 64-element entries
        // (entry 1 never read: no row), held to a bitmap: what ships is
        // exactly the stale part of the interest, every other stale
        // element is under a notice, and no notice touches the interest.
        const N: u64 = 64;
        let mut seed = 0x1D1E_5EEDu64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _ in 0..300 {
            let mut set = IntervalSet::default();
            for _ in 0..next(5) {
                let first = next(N);
                set.insert(first, (first + 1 + next(12)).min(N));
            }
            let read: Vec<bool> = (0..N)
                .map(|e| set.spans().iter().any(|s| s.0 <= e && e < s.1))
                .collect();
            let spans = set.spans().len();
            let interest = BTreeMap::from([(0, set)]);
            let stale: Vec<UpdateRange> = (0..next(40))
                .map(|_| {
                    let first = next(N);
                    UpdateRange {
                        entry: next(2) as u32,
                        first,
                        count: (1 + next(6)).min(N - first),
                    }
                })
                .collect();
            let (ship, notices) = split_by_interest(stale.iter().copied(), &interest);
            let cover = |ranges: &[UpdateRange], entry: u32| -> Vec<bool> {
                let of_entry = |e| {
                    ranges
                        .iter()
                        .any(|r| r.entry == entry && r.first <= e && e < r.end())
                };
                (0..N).map(of_entry).collect()
            };
            for entry in [0, 1] {
                let (was, shipped, noticed) = (
                    cover(&stale, entry),
                    cover(&ship, entry),
                    cover(&notices, entry),
                );
                for e in 0..N as usize {
                    let wanted = entry == 1 || read[e];
                    assert_eq!(shipped[e], was[e] && wanted, "entry {entry} elem {e}");
                    assert!(!(noticed[e] && wanted), "entry {entry} elem {e} noticed");
                    assert!(
                        !was[e] || shipped[e] || noticed[e],
                        "entry {entry} elem {e} lost"
                    );
                }
            }
            assert!(notices.iter().all(|n| n.entry == 0 && n.count > 0));
            assert!(notices.len() <= spans + 1, "{notices:?}");
            assert!(notices.windows(2).all(|w| w[0].end() < w[1].first));
        }
    }

    #[test]
    fn a_stripe_of_strided_writes_outside_the_interest_is_one_notice() {
        // The SOR shape: a neighbour's stripe of stride-2 one-element
        // ranges, two of which fall in the rows this reader has read.
        let (mut h, _eps) = five_rank_shard(PlatformSpec::linux_x86());
        h.init_with(|_| {});
        for rank in [1, 2] {
            let _ = h.stale_updates_for(rank).unwrap(); // the initial pull
        }
        h.note_interest(1, &[elems(0, 16)]).unwrap();
        for first in (13..64).step_by(2) {
            assert!(h.absorb(2, &one_elem(first, first as i128)).unwrap());
        }
        let (ups, notices) = h.stale_updates_for(1).unwrap();
        let shipped: Vec<_> = ups.iter().map(|u| (u.elem_offset, u.count)).collect();
        assert_eq!(shipped, [(13, 1), (15, 1)]);
        assert_eq!(notices, [elems(17, 47)]);
        // The writer itself is owed nothing, and nothing is owed twice.
        let (ups, notices) = h.stale_updates_for(2).unwrap();
        assert!(ups.is_empty() && notices.is_empty());
        let (ups, notices) = h.stale_updates_for(1).unwrap();
        assert!(ups.is_empty() && notices.is_empty());
    }

    #[test]
    fn range_fetch_is_answered_from_the_authoritative_copy_or_bounced() {
        let (mut h, eps) = five_rank_shard(PlatformSpec::solaris_sparc());
        h.init_with(|g| {
            for i in 0..64 {
                g.write_int(0, i, 100 + i as i128).unwrap();
            }
        });
        let reply_to = |h: &mut HomeShard, req_id, ranges: Vec<UpdateRange>| {
            let fetch = DsdMsg::RangeFetch { rank: 2, ranges };
            h.dispatch(2, req_id, fetch, &[], OpCtx::default())?;
            let m = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
            let (rid, reply) = DsdMsg::decode_enveloped(m.kind, m.payload).unwrap();
            assert_eq!(rid, req_id);
            Ok::<_, HomeError>(reply)
        };
        let seen = h.peers[&2].seen;
        let DsdMsg::UpdateBatch { updates, notices } =
            reply_to(&mut h, 1, vec![elems(5, 2), elems(60, 4)]).unwrap()
        else {
            panic!("a fetch is answered with a batch");
        };
        assert!(notices.is_empty());
        let mut dst = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        apply_batch(&mut dst, &updates, &mut ConversionStats::default()).unwrap();
        let got: Vec<i128> = (0..64).map(|i| dst.read_int(0, i).unwrap()).collect();
        let want = |i: usize| {
            if [5, 6, 60, 61, 62, 63].contains(&i) {
                100 + i as i128
            } else {
                0
            }
        };
        assert_eq!(got, (0..64).map(want).collect::<Vec<_>>());
        assert_eq!(h.peers[&2].seen, seen, "a fetch moves no horizon");
        assert_eq!((h.costs.updates_sent, h.costs.bytes_sent), (2, 6 * 4));
        // A shadow is relayed the fetch for the report behind it: it takes
        // the rows and neither extracts nor remembers the request id.
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(5, 2)],
        };
        let relayed = fetch.encode_request(9, None, &[elems(5, 2)]).slice(8..);
        h.on_replicate(2, 9, MsgKind::RangeFetch as u16, relayed)
            .unwrap();
        assert_eq!(h.peers[&2].interest[&0].spans(), [(5, 7)]);
        assert_eq!((h.costs.updates_sent, h.peers[&2].last_req), (2, 1));
        assert!(eps[1].recv_timeout(Duration::from_millis(10)).is_err());
        // A range the index table does not hold is refused, not served.
        assert!(matches!(
            reply_to(&mut h, 2, vec![elems(60, 5)]),
            Err(HomeError::Update(UpdateError::RangeOutOfBounds { .. }))
        ));
        // The entry has moved: the fetcher is told where to.
        h.placement.adopt(0, 3, 1);
        let bounced = reply_to(&mut h, 3, vec![elems(5, 2)]).unwrap();
        let moved = DsdMsg::EntryMoved {
            entries: vec![(0, 3, 1)],
        };
        assert_eq!(bounced, moved);
    }

    #[test]
    fn an_interest_report_outside_the_index_table_is_a_violation() {
        let (mut h, _eps) = five_rank_shard(PlatformSpec::linux_x86());
        let lock = || DsdMsg::LockRequest { lock: 0, rank: 2 };
        let wild = [
            elems(60, 5),
            elems(u64::MAX, 2),
            UpdateRange {
                entry: 9,
                first: 0,
                count: 1,
            },
        ];
        for (req_id, row) in (1..).zip(wild) {
            let res = h.dispatch(2, req_id, lock(), &[row], OpCtx::default());
            assert!(matches!(res, Err(HomeError::Violation(_))), "{row:?}");
            assert!(h.peers[&2].interest.is_empty());
        }
        // A duplicate of a request is not taken in twice, nor is an empty
        // row: the table holds what fresh requests reported.
        h.dispatch(2, 9, lock(), &[elems(4, 4), elems(20, 0)], OpCtx::default())
            .unwrap();
        h.dispatch(2, 9, lock(), &[elems(30, 4)], OpCtx::default())
            .unwrap();
        assert_eq!(h.peers[&2].interest[&0].spans(), [(4, 8)]);
    }

    #[test]
    fn requests_from_outside_participants_are_violations_and_change_nothing() {
        let (mut h, _eps) = populated_shard();
        let tables = |h: &HomeShard| format!("{:?} {} {:?}", h.peers, h.pending, h.locks);
        let before = tables(&h);
        for msg in [
            DsdMsg::LockRequest { lock: 0, rank: 9 },
            DsdMsg::Heartbeat { rank: 9 },
        ] {
            match h.dispatch(5, 1, msg, &[], OpCtx::default()) {
                Err(HomeError::Violation(why)) => {
                    assert!(why.starts_with("request from unknown participant 9"))
                }
                other => panic!("expected a violation, got {other:?}"),
            }
            assert_eq!(tables(&h), before);
        }
    }
}
