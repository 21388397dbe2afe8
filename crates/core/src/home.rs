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
//! (`UpdateFlush`) before releasing, and pull outstanding updates from a
//! non-granting shard (`UpdateFetch`) after acquiring when the grant's
//! stamp names a write there they may not have seen. The stamp is built
//! from the shards' own sequences: an ack says what a flush was logged
//! under, a release names the highest it knows of per other shard, and
//! each lock and barrier keeps the maximum for its next acquirer
//! ([`Before`]). With `S == 1` (the default directory) a shard *is* the
//! classic single home service and produces a byte-identical message
//! sequence.
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
//! returns (DESIGN §5). A barrier's writers ship only what another
//! thread reads and *hold* the rest: the shard records the held spans,
//! notices them to readers, forwards a fetch of one to its writer
//! ([`DsdMsg::HeldFetch`]) and gathers what is still held when the writer
//! joins (invariant **H**), all in one record per entry ([`Whereabouts`]).
//! Whether a writer may hold an element again is read off the update log.
//!
//! An instance decides and its runner does the I/O. [`HomeShard::on`] is
//! one step: it takes a frame, a tick or the endpoints its last sends
//! found gone, at a fabric instant it is handed (decisions read no
//! clock), and leaves the encoded sends in an outbox. A runner *turn* is
//! the one code that touches an endpoint: it performs a step's sends,
//! waits as the instance's stage says and steps on what the wait brought.
//! [`HomeShard::run`] takes turns on its own thread; on the sim fabric a
//! [`HomeStep`] takes them on whichever thread the scheduler picked it
//! from, and yields where `run` would block.
//! Every frame takes one receive path, `process`, in every stage:
//! serving, the grace period of a fenced instance (every client frame is
//! redirected with a `ViewChange`), the conclusion of an entry move and
//! the linger after the shutdown broadcast (a fresh request is answered
//! `Shutdown`). A frame that does not decode is dropped and counted
//! (`home.bad_frames`); a protocol violation still ends the shard. What
//! the home sends unasked until it is answered (a beat, a `Depose`, a
//! relayed handoff, an entry offer, a held-range ask) goes out at once,
//! then in one round at most once a tick, busy or idle (DESIGN §14).

use crate::costs::{CostBreakdown, Phase};
use crate::directory::{Directory, Placement};
use crate::gthv::GthvInstance;
use crate::interval::{IntervalSet, Piece};
use crate::protocol::{is_client_request, DsdMsg, ProtocolError, Report};
use crate::runs::{coalesce, UpdateRange};
use crate::update::{apply_batch, apply_keeping, extract_updates, full_ranges, UpdateError};
use bytes::Bytes;
use hdsm_net::endpoint::{Endpoint, NetError};
use hdsm_net::message::{Message, MsgKind};
use hdsm_net::{FabricClock, FabricInstant, Step, Turn, Wake};
use hdsm_obs::{EventKind, OpCtx, OpKind, Recorder};
use hdsm_tags::convert::ConversionStats;
use hdsm_tags::wire::{last_element, unpack_batch, UpdateBatch};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the home service.
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
    /// Liveness lease: a participant neither joined nor heard from for
    /// this long is declared dead — its locks are reclaimed and blocked
    /// barrier entrants receive [`DsdMsg::WorkerLost`]. `None` disables
    /// failure detection.
    pub lease: Option<Duration>,
    /// How long the service keeps answering after the final shutdown
    /// broadcast, so clients whose last reply a faulty fabric dropped can
    /// still complete.
    pub linger: Duration,
    /// Observability hook for home-side spans (absorb/extract timing,
    /// lease expiries). Disabled by default.
    pub recorder: Recorder,
    /// Which shard of the home service this instance is (`0..S`).
    pub shard: u32,
    /// The deterministic entry/lock/barrier → shard partition shared by
    /// the whole cluster. Defaults to the single-home layout.
    pub directory: Directory,
    /// Is this instance the shard's warm standby? A standby shadows the
    /// primary through its relay stream and promotes itself (epoch + 1)
    /// when the primary goes silent past the lease, its endpoint dies or
    /// the stream relays a handoff.
    pub standby: bool,
    /// Cooperative kill switch for fault injection: when the flag flips,
    /// the shard drops its endpoint mid-run, like a crashed process.
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
/// settles exactly once, by joining or by lease expiry.
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
    /// Last time the thread was heard from (any message): the lease
    /// clock and the `heard_ms` of [`DsdMsg::WorkerLost`].
    last_heard: Option<FabricInstant>,
    /// Highest request id handled (at-most-once dedup; 0 = none yet).
    last_req: u64,
    /// Last reply sent, resent verbatim when the same request id arrives
    /// again (the reply, not the request, was lost).
    reply: Option<(u64, MsgKind, Bytes)>,
    /// The sync operation the thread's outstanding request works for, so
    /// replies (deferred ones too) and home-side spans are attributed to
    /// it. Unset when obs is disabled.
    op: OpCtx,
    /// The element ranges the thread has reported reading, per entry: what
    /// a grant ships updates for. An entry without a row was never read
    /// (or its reader never said) and counts whole.
    interest: BTreeMap<u32, IntervalSet>,
}

/// A handoff drain in progress at a fenced primary.
#[derive(Debug)]
struct Drain {
    /// Endpoint of the admin that asked (gets `HandoffDone`).
    admin_ep: u32,
    /// The epoch the standby will serve under.
    epoch: u32,
    /// Start (µs) of the drain, for the obs span.
    start_us: u64,
}

/// This instance's place in its shard's replication pair: a drain cannot
/// exist without a standby to drain into, nor a depose be owed by an
/// instance that never promoted.
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
    /// Shadow of the primary at `primary_ep`: replays the relay stream,
    /// the replay's sends dropped, and answers no client.
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

/// What a finished [`HomeShard::run`] hands back: the instance, its cost
/// books, the epoch it ended on and whether its state is *authoritative*
/// — `false` for a shadow never promoted, a deposed, fenced or drained
/// primary, or a killed shard.
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
    /// A joined writer (its rank) still held spans of this shard's entries
    /// (the rest) past the gather bound (DESIGN §14): the final bytes would
    /// lack them.
    NotGathered(u32, Vec<UpdateRange>),
}

impl fmt::Display for HomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomeError::Net(e) => write!(f, "net: {e}"),
            HomeError::Protocol(e) => write!(f, "protocol: {e}"),
            HomeError::Update(e) => write!(f, "update: {e}"),
            HomeError::Violation(s) => write!(f, "protocol violation: {s}"),
            HomeError::NotGathered(w, spans) => write!(f, "writer {w} never sent {spans:?}"),
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

/// What a pull hands a thread: the updates, the notices and the stamp.
type Pulled = (UpdateBatch, Vec<UpdateRange>, Vec<(u32, u64)>);

#[derive(Debug, Default)]
struct LockState {
    holder: Option<u32>,
    waiters: VecDeque<u32>,
    before: Before,
}

#[derive(Debug, Default)]
struct BarrierState {
    entered: Vec<u32>,
    before: Before,
}

/// What happens before the next acquire of one lock or barrier at the
/// other shards, as its releases said (DESIGN §5, "Pull only what happens
/// before"): per shard, the highest sequence a release named there and the
/// rank that named it. A grant hands the acquirer the rows another rank
/// named; it knows its own.
#[derive(Debug, Default)]
struct Before(BTreeMap<u32, (u64, u32)>);

impl Before {
    /// Take in the stamp of `rank`'s release.
    fn merge(&mut self, rank: u32, stamp: &[(u32, u64)]) {
        for &(shard, seq) in stamp {
            let row = self.0.entry(shard).or_insert((0, rank));
            if seq > row.0 {
                *row = (seq, rank);
            }
        }
    }

    /// The rows an acquire by `rank` is handed.
    fn rows_for(&self, rank: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let named = self.0.iter().filter(move |(_, &(_, by))| by != rank);
        named.map(|(&shard, &(seq, _))| (shard, seq))
    }
}

#[derive(Debug, Default)]
struct CondState {
    /// Parked threads with the mutex each must re-acquire on wake.
    waiters: VecDeque<(u32, u32)>,
}

/// In-flight per-entry re-homing at the *source* shard: ownership has
/// flipped and the entry's log rows are purged, but the target has not
/// acknowledged installation, so client-path messages are deferred.
#[derive(Debug)]
struct EntryHandoffState {
    /// The entry being re-homed.
    entry: u32,
    /// Endpoint of the admin that requested the move (gets `EntryDone`).
    admin_ep: u32,
    /// The shard gaining ownership.
    to_shard: u32,
    /// The new ownership epoch, above any previous one for this entry, so
    /// late or duplicate rows lose max-epoch-wins merges.
    epoch: u32,
    /// The entry's `EntryState`, offered until `EntryInstalled` (see
    /// [`HomeShard::pack_entry_state`]).
    offer: DsdMsg,
}

/// `(writer, first, count)` rows of one entry's elements.
type Rows = Vec<(u32, u64, u64)>;

/// Where one entry's current copy is, where it is not the shard's own
/// (DESIGN §5, invariant **H**), kept while it says anything. Kept,
/// unread, at the shard an entry left: a revert of the move reads it again.
#[derive(Debug, Default)]
struct Whereabouts {
    /// What each writer holds of it; no element is held at two.
    held: BTreeMap<u32, IntervalSet>,
    /// What of each writer's hold a `HeldFetch` asked for and has not
    /// brought: every round asks for it again (rule 7).
    asked: BTreeMap<u32, IntervalSet>,
    /// A fetch of the entry had to be forwarded: what is read of it moves
    /// from barrier to barrier, so its writers ship it whole (rule 9).
    forwarded: bool,
    /// The sequence the entry last left or came back at, and what others
    /// wrote of it since each writer's horizon before (`EntryState`'s
    /// `written`), read while that writer's horizon here is below it.
    moved: (u64, Rows),
}

impl Whereabouts {
    /// Take the elements of `r` from every writer's hold, and from what
    /// was asked of it.
    fn take(&mut self, r: &UpdateRange) {
        for sets in [&mut self.held, &mut self.asked] {
            sets.values_mut().for_each(|set| set.subtract(*r));
            sets.retain(|_, set| !set.is_empty());
        }
    }

    /// Whether it says nothing.
    fn is_empty(&self) -> bool {
        self.held.is_empty() && !self.forwarded && self.moved.1.is_empty()
    }
}

/// What the readers of one barrier release share (see `HomeShard::alike`).
#[derive(Default)]
struct Alike {
    /// The ranges last framed, and their frame.
    framed: Option<(Vec<UpdateRange>, UpdateBatch)>,
    /// The reply last encoded: its request id, the message, the payload.
    encoded: Option<(u64, DsdMsg, Bytes)>,
}

/// What one step of [`HomeShard::on`] is fed.
pub enum Input<'a> {
    /// A frame off the instance's endpoint.
    Frame(Message),
    /// A wait ended with nothing received: a tick of silence, or the
    /// deadline of the stage the instance is in.
    Tick,
    /// The endpoints the last step's sends found gone (`Disconnected`).
    Gone(&'a [u32]),
}

/// How a runner turn ended.
enum Turned {
    /// It stepped on an input.
    Stepped,
    /// It must wait for its input: the turn yields.
    Yield,
    /// The run is over, authoritatively or not.
    Over(bool),
}

/// A home instance as a sim step actor: it takes [`HomeShard::run`]'s
/// turns on the thread the scheduler picked it from, and where `run`
/// would block in a receive it answers [`Turn::Wait`] with the same
/// deadline. Its result is `run`'s, a `Result<HomeRunOutcome, HomeError>`.
pub(crate) struct HomeStep {
    home: Option<HomeShard>,
    ep: Endpoint,
    clock: FabricClock,
    started: bool,
    /// The deadline of the receive the last turn yielded in.
    until: Option<FabricInstant>,
}

impl HomeStep {
    pub(crate) fn new(home: HomeShard, ep: Endpoint) -> HomeStep {
        let clock = ep.clock();
        HomeStep {
            home: Some(home),
            ep,
            clock,
            started: false,
            until: None,
        }
    }

    /// Finish the receive `wake` ended, as `Endpoint::recv_timeout` does on
    /// the sim fabric, then take turns until one must wait (`None`) or the
    /// run is over (whether authoritatively).
    fn resume(&mut self, wake: Wake) -> Result<Option<bool>, HomeError> {
        let HomeStep {
            home,
            ep,
            clock,
            started,
            until,
        } = self;
        let home = home.as_mut().expect("a finished home takes no turn");
        if !*started {
            *started = true;
            home.start(clock.now())?;
        } else {
            let input = match wake {
                Wake::Delivery => match poll(ep, clock, *until)? {
                    Some(input) => input,
                    None => return Ok(None),
                },
                Wake::Timeout => Input::Tick,
                Wake::Closed => return Err(NetError::ChannelClosed.into()),
            };
            home.on(clock.now(), input)?;
        }
        loop {
            let recv = |left: Duration| {
                *until = (left < Duration::MAX).then(|| clock.now() + left);
                poll(ep, clock, *until)
            };
            match home.turn(ep, clock, recv)? {
                Turned::Stepped => {}
                Turned::Yield => return Ok(None),
                Turned::Over(authoritative) => return Ok(Some(authoritative)),
            }
        }
    }
}

/// What a sim receive until `until` finds without yielding: a frame, a
/// tick once the deadline has passed, or `None`: it must wait.
fn poll(
    ep: &Endpoint,
    clock: &FabricClock,
    until: Option<FabricInstant>,
) -> Result<Option<Input<'static>>, NetError> {
    match ep.try_recv() {
        Ok(m) => Ok(Some(Input::Frame(m))),
        Err(NetError::Empty) => Ok(until
            .is_some_and(|at| at <= clock.now())
            .then_some(Input::Tick)),
        Err(e) => Err(e),
    }
}

impl Step for HomeStep {
    fn step(&mut self, wake: Wake) -> Turn {
        let ran = match self.resume(wake) {
            Ok(None) => return Turn::Wait(self.until.map(FabricInstant::as_micros)),
            Ok(Some(authoritative)) => {
                let home = self.home.take().expect("a home finishes once");
                Ok(home.outcome(authoritative))
            }
            Err(e) => Err(e),
        };
        Turn::Done(Box::new(ran))
    }
}

/// One encoded send a step decided on, a home's or a client's; the runner
/// performs a step's sends in order.
pub(crate) struct Outgoing {
    pub(crate) to: u32,
    pub(crate) kind: MsgKind,
    pub(crate) payload: Bytes,
    pub(crate) op: OpCtx,
    /// What its sender is blocked on, whose endpoint must still be there:
    /// a home's reply to a blocked requester, a client's request.
    pub(crate) owed: bool,
}

/// Where an instance is in its life: what the runner waits for and what
/// a tick means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Serving: every frame and every tick runs the duties.
    Serve,
    /// Every participant settled with an entry move in flight: offer its
    /// state once a tick, and revert at `until`.
    Conclude { until: FabricInstant },
    /// Answer stragglers until `until`: the grace period of a fenced
    /// instance, or the linger after the shutdown broadcast.
    Retire {
        until: FabricInstant,
        authoritative: bool,
    },
    /// The instance's run is over.
    Done { authoritative: bool },
}

/// One shard of the home service: owns the authoritative bytes, update
/// log and synchronization tables of its directory slice and serves
/// until every participant has joined. A cluster with a single shard is
/// exactly the classic home service.
pub struct HomeShard {
    gthv: GthvInstance,
    /// The endpoint this instance serves on.
    me: u32,
    shard: u32,
    /// Who owns which entry: the cluster's directory plus the per-entry
    /// ownership overlay, written alike at a move's source and target.
    placement: Placement,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    conds: Vec<CondState>,
    /// Global sequence counter for absorbed updates. A promotion starts the
    /// new epoch's numbers above any the old primary can have given out.
    seq: u64,
    /// Update log: `(seq, writer, range)` in absorption order, so a
    /// horizon is found by `partition_point`; a row of a release's frame
    /// is one range, strided or dense. The writer lets grants
    /// exclude a thread's own updates without moving its horizon.
    log: Vec<(u64, u32, UpdateRange)>,
    /// Oldest sequence still in the log; horizons below this need a full
    /// refresh (log compaction / cold migrated copies).
    log_floor: u64,
    /// The participants, by rank: rank order fixes the order of lease
    /// expiries and of the shutdown broadcast, which decide bytes a
    /// same-seed simulation must reproduce.
    peers: BTreeMap<u32, Peer>,
    /// How many peers are still `Expected`, kept in step by
    /// [`Self::settle`]: the service runs while it is non-zero and a
    /// barrier releases once that many ranks have entered it.
    pending: usize,
    /// The lowest `Dead` rank, kept in step by [`Self::settle`]: the rank
    /// a barrier entrant is failed with.
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
    /// Since when the shard has served for nothing but what joined
    /// writers hold here; `None` while it has not, and from a promotion.
    gather_since: Option<FabricInstant>,
    /// When the last round of unasked sends went out ([`Self::duties`]),
    /// or the step at which something became owed while nothing was.
    round_at: FabricInstant,
    /// Cooperative kill switch (fault injection).
    kill: Option<Arc<AtomicBool>>,
    /// The instant of the step being taken, which every timer reads.
    now: FabricInstant,
    stage: Stage,
    /// The sends of the step being taken, in order; reused step to step.
    pub(crate) outbox: Vec<Outgoing>,
    /// In-flight outbound entry re-homing (source side); at most one at
    /// a time per shard — the admin serializes moves cluster-wide.
    entry_handoff: Option<EntryHandoffState>,
    /// Client-path messages deferred while `entry_handoff` is in flight,
    /// in arrival order.
    entry_pending: VecDeque<Message>,
    /// Each entry's [`Whereabouts`], while it says anything.
    whereabouts: BTreeMap<u32, Whereabouts>,
    /// Range fetches that touch held spans, waiting for their bytes:
    /// `(reader rank, ranges)` in arrival order.
    deferred: Vec<(u32, Vec<UpdateRange>)>,
    /// While a barrier release goes out nothing writes the copy, so
    /// readers that are sent the same share it: every reader of the
    /// initial pull. `None` otherwise.
    alike: Option<Alike>,
}

impl HomeShard {
    /// Create the service around the authoritative instance. It serves on
    /// the endpoint the directory gives its shard and role.
    pub fn new(gthv: GthvInstance, config: HomeConfig) -> HomeShard {
        let locks = (0..config.n_locks).map(|_| LockState::default()).collect();
        let barriers = (0..config.n_barriers)
            .map(|_| BarrierState::default())
            .collect();
        let conds = (0..config.n_conds).map(|_| CondState::default()).collect();
        let (shard, directory) = (config.shard, config.directory);
        let peers: BTreeMap<u32, Peer> = config
            .participants
            .into_iter()
            .map(|r| (r, Peer::default()))
            .collect();
        HomeShard {
            gthv,
            me: if config.standby {
                directory.replica_ep(shard)
            } else {
                directory.shard_ep(shard)
            },
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
            peer_last_heard: FabricInstant::ZERO,
            gather_since: None,
            round_at: FabricInstant::ZERO,
            kill: config.kill,
            now: FabricInstant::ZERO,
            stage: Stage::Serve,
            outbox: Vec::new(),
            entry_handoff: None,
            entry_pending: VecDeque::new(),
            whereabouts: BTreeMap::new(),
            deferred: Vec::new(),
            alike: None,
        }
    }

    /// Record a failover milestone of this shard (kill, fence, promotion,
    /// first grant after one) under the epoch it happened in.
    fn mark(&self, kind: EventKind, label: &'static str) {
        self.recorder
            .instant(self.me, kind, self.shard as u64, self.epoch as u64, label);
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

    /// Does this instance answer clients (anything but a shadow)?
    fn serves_clients(&self) -> bool {
        !matches!(self.standby, Standby::Shadow { .. })
    }

    /// A handoff drain of ours is in progress.
    fn draining(&self) -> bool {
        matches!(self.standby, Standby::Primary { drain: Some(_), .. })
    }

    /// `entry` is gained without its history: raise the log floor above
    /// every horizon, so each thread's next pull is a full refresh.
    fn force_full_refresh(&mut self) {
        self.seq += 1;
        self.log_floor = self.seq;
    }

    /// Initialise the authoritative copy and log this shard's slice of the
    /// structure as one update, so every thread pulls the initial contents
    /// at its first acquire.
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

    /// Of `entries` this shard does not own, one that moved (epoch > 0) is
    /// a stale view at thread `rank`: reply the `EntryMoved` rows (the
    /// thread re-routes and resends) and return `true`. One that never
    /// moved is a routing bug, a violation rather than a silent write to
    /// another shard's slice.
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

    /// Absorb a release from thread `writer`: apply its updates (t_conv),
    /// record what it `held` instead of shipping, and log both, so readers
    /// are sent or noticed either. A shipped write takes its elements out
    /// of every hold. Returns `false`, with nothing absorbed, when the
    /// release names an entry re-homed away ([`Self::bounce_unowned`]).
    fn absorb(
        &mut self,
        writer: u32,
        updates: &UpdateBatch,
        held: &[UpdateRange],
    ) -> Result<bool, HomeError> {
        if updates.is_empty() && held.is_empty() {
            return Ok(true);
        }
        let entries = updates.groups().map(|g| g.head.entry);
        if self.bounce_unowned(writer, entries.chain(held.iter().map(|r| r.entry)))? {
            return Ok(false);
        }
        if !updates.is_empty() {
            let (n, bytes) = (updates.len() as u64, updates.payload_bytes());
            let mut t = Phase::Conv.begin(&self.recorder, self.me, self.op_of(writer));
            t.args(n, bytes);
            apply_batch(&mut self.gthv, updates, &mut self.conv_stats)?;
            t.end(&mut self.costs);
            self.costs.updates_applied += n;
            self.costs.bytes_applied += bytes;
        }
        self.seq += 1;
        let s = self.seq;
        // A row of the frame is a row of the log: a colour of a grid row
        // is one, strided.
        for g in updates.groups() {
            for &row in g.rows() {
                let r = UpdateRange::row(g.head.entry, row);
                self.unhold(&r);
                self.log.push((s, writer, r));
            }
        }
        if !held.is_empty() {
            self.hold(writer, held, s);
            self.recorder.count("home.ranges_held", held.len() as u64);
        }
        self.maybe_compact();
        Ok(true)
    }

    /// Record `held` — `writer`'s names, rows of any stride — as held at
    /// it, taking them from any other writer, and log them under sequence
    /// `s`, one row a name, but for what another wrote since the writer
    /// last pulled here (rule 6), which cuts a name by its elements.
    fn hold(&mut self, writer: u32, held: &[UpdateRange], s: u64) {
        let key = |r: &UpdateRange| (r.entry, r.first);
        let held: std::borrow::Cow<[UpdateRange]> = match held.is_sorted_by_key(key) {
            true => held.into(),
            false => {
                let mut rows = held.to_vec();
                rows.sort_unstable_by_key(key);
                rows.into()
            }
        };
        for of_entry in held.chunk_by(|a, b| a.entry == b.entry) {
            let (entry, gone) = (of_entry[0].entry, self.written_since(writer, of_entry));
            let mut cut = gone.cursor();
            let kept: Vec<UpdateRange> = match gone.is_empty() {
                true => of_entry.to_vec(),
                false => (of_entry.iter())
                    .flat_map(|r| cut.split(*r))
                    .filter_map(|(span, part)| span.is_none().then_some(part))
                    .collect(),
            };
            if kept.is_empty() {
                continue;
            }
            self.log.extend(kept.iter().map(|&r| (s, writer, r)));
            let at = self.whereabouts.entry(entry).or_default();
            // One walk of each other writer's spans finds the elements it
            // gives up, and only those leave what was asked of anyone: a
            // writer naming what it holds again changes neither (rule 7).
            let mut taken = Vec::new();
            for (_, set) in at.held.iter().filter(|(w, _)| **w != writer) {
                let mut c = set.cursor();
                for r in &kept {
                    if !c.misses(r.first, r.end()) {
                        taken.extend(c.split(*r).filter_map(|(s, part)| s.and(Some(part))));
                    }
                }
            }
            taken.iter().for_each(|r| at.take(r));
            at.held.entry(writer).or_default().extend(kept);
        }
    }

    /// A write made `r`'s elements current here: out of every hold they
    /// go.
    fn unhold(&mut self, r: &UpdateRange) {
        if let Some(at) = self.whereabouts.get_mut(&r.entry) {
            at.take(r);
            self.tidy(r.entry);
        }
    }

    /// What another wrote since `writer`'s horizon here of the entry of
    /// `spans` (one entry's, sorted), between their first and last
    /// element: the log's rows, one walk of them, and, while that horizon
    /// predates the entry's last move, the rows that stand in for those
    /// the move took.
    fn written_since(&self, writer: u32, spans: &[UpdateRange]) -> IntervalSet {
        let entry = spans[0].entry;
        let seen = self.peers.get(&writer).map_or(0, |p| p.seen);
        let since = self.log.partition_point(|(s, ..)| *s <= seen);
        let (lo, hi) = (spans[0].first, spans.iter().map(UpdateRange::end).max());
        let near = |r: &UpdateRange| r.entry == entry && r.first < hi.unwrap_or(0) && lo < r.end();
        let logged = self.log[since..]
            .iter()
            .filter(|(_, w, r)| *w != writer && near(r))
            .map(|(.., r)| *r);
        let moved = self.whereabouts.get(&entry).map(|at| &at.moved);
        let carried = moved
            .filter(|(at, _)| seen < *at)
            .into_iter()
            .flat_map(|(_, rows)| rows.iter().filter(|row| row.0 == writer))
            .map(|&(_, first, count)| span(entry, first, first.saturating_add(count)));
        let mut gone = IntervalSet::default();
        gone.extend(logged.chain(carried));
        gone
    }

    /// Take in `writer`'s bytes for what it holds (a `HeldData`, the gather
    /// behind a `Join` or `Resync`): applied where they are still held at
    /// it on an entry this shard owns, dropped elsewhere — a superseded or
    /// re-homed part gets no reply, since [`Self::reply`] would stamp the
    /// writer's outstanding request id on it. What is applied leaves the
    /// hold. Nothing is logged: readers were noticed when it was held.
    fn absorb_held(&mut self, writer: u32, updates: &UpdateBatch) -> Result<(), HomeError> {
        let (mut take, mut keep) = (Vec::new(), BTreeMap::<u32, IntervalSet>::new());
        let none = IntervalSet::default();
        for g in updates.groups() {
            let entry = g.head.entry;
            let at = self.whereabouts.get(&entry);
            let held = match at.filter(|_| self.owns_entry(entry)) {
                Some(at) => at.held.get(&writer).unwrap_or(&none),
                None => &none,
            };
            // The rows come from outside, in any order: a search each.
            let mut gaps = Vec::new();
            for u in g.rows().iter().map(|&row| UpdateRange::row(entry, row)) {
                for p in held.split(u.first, u.end()) {
                    let Some(piece) = u.slice(u.below(p.first), u.below(p.end)) else {
                        continue; // between the elements of a strided row
                    };
                    match p.inside {
                        true => take.push(piece),
                        false => gaps.push(piece),
                    }
                }
            }
            if !gaps.is_empty() {
                keep.entry(entry).or_default().extend(gaps);
            }
        }
        if take.is_empty() {
            return Ok(());
        }
        let table = self.gthv.table();
        let size = |r: &UpdateRange| table.row(r.entry).map_or(0, |row| u64::from(row.size));
        let bytes: u64 = take.iter().map(|r| size(r) * r.count).sum();
        let updates_taken = take.iter().map(UpdateRange::updates).sum();
        let mut t = Phase::Conv.begin(&self.recorder, self.me, self.op_of(writer));
        t.args(updates_taken, bytes);
        // What the batch carries beyond the hold keeps the shard's value.
        let kept = |entry| keep.get(&entry);
        apply_keeping(&mut self.gthv, updates, &mut self.conv_stats, kept)?;
        t.end(&mut self.costs);
        self.costs.updates_applied += updates_taken;
        self.costs.bytes_applied += bytes;
        self.recorder.count("home.ranges_gathered", updates_taken);
        self.recorder.count("home.bytes_gathered", bytes);
        take.iter().for_each(|r| self.unhold(r));
        Ok(())
    }

    /// Serve what waits on held spans: answer each deferred fetch that no
    /// longer touches one, fail one that touches a dead writer's with
    /// `WorkerLost`, and ask each writer, once, for the spans still wanted
    /// — by a deferred fetch, or because the writer has joined and its
    /// hold must reach the final bytes.
    fn forward_held(&mut self) -> Result<(), HomeError> {
        let mut want: Vec<(u32, UpdateRange)> = Vec::new();
        for (reader, ranges) in std::mem::take(&mut self.deferred) {
            let touched: Vec<_> = ranges.iter().flat_map(|r| self.held_touching(r)).collect();
            let dead = touched
                .iter()
                .find(|(w, _)| self.life(*w) == Some(Life::Dead));
            if let Some(&(dead, _)) = dead {
                let lost = self.worker_lost_msg(dead);
                self.send(reader, lost)?;
            } else if touched.is_empty() {
                let updates = self.extract_for(self.op_of(reader), &ranges)?;
                let (notices, stamp) = (Vec::new(), Vec::new());
                let batch = DsdMsg::UpdateBatch {
                    updates,
                    notices,
                    stamp,
                };
                self.send(reader, batch)?;
            } else {
                for (_, r) in &touched {
                    self.whereabouts.entry(r.entry).or_default().forwarded = true;
                }
                want.extend(touched);
                self.deferred.push((reader, ranges));
            }
        }
        if self.peers.values().any(|p| p.life == Life::Joined) {
            let joined = |(w, r): &(u32, UpdateRange)| {
                self.owns_entry(r.entry) && self.life(*w) == Some(Life::Joined)
            };
            want.extend(self.spans_of(|at| &at.held).filter(joined));
        }
        want.sort_unstable_by_key(|(w, r)| (*w, r.entry, r.first));
        want.dedup();
        // A span asked for whole is not asked again until it changes.
        want.retain(|(w, r)| {
            let asked = self.whereabouts[&r.entry].asked.get(w);
            let asked = asked.and_then(|set| set.around(r.first, r.end()));
            !asked.is_some_and(|p| p.inside)
        });
        for of_writer in want.chunk_by(|a, b| a.0 == b.0) {
            self.recorder.count("home.held_forwards", 1);
            self.ask_held(of_writer);
        }
        for (w, r) in want {
            let at = self.whereabouts.entry(r.entry).or_default();
            at.asked.entry(w).or_default().insert(r.first, r.end());
        }
        Ok(())
    }

    /// Every writer's whole held spans that hold an element of `r`.
    fn held_touching(&self, r: &UpdateRange) -> Vec<(u32, UpdateRange)> {
        let (mut touched, at) = (Vec::new(), self.whereabouts.get(&r.entry));
        for (&w, set) in at.into_iter().flat_map(|at| &at.held) {
            for (a, b) in set.touching(r.first, r.end()) {
                touched.push((w, span(r.entry, a, b)));
            }
        }
        touched
    }

    /// Every span of one of each entry's per-writer tables, by entry and
    /// writer: its holds, or what a `HeldFetch` asked for and has not
    /// brought — what every round asks again.
    fn spans_of(
        &self,
        sets: fn(&Whereabouts) -> &BTreeMap<u32, IntervalSet>,
    ) -> impl Iterator<Item = (u32, UpdateRange)> + '_ {
        self.whereabouts.iter().flat_map(move |(&entry, at)| {
            sets(at).iter().flat_map(move |(&w, set)| {
                let spans = set.spans();
                spans.map(move |(a, b)| (w, span(entry, a, b)))
            })
        })
    }

    /// One `HeldFetch` to the writer of `spans` (all one writer's).
    fn ask_held(&mut self, spans: &[(u32, UpdateRange)]) {
        let route = self.peers.get(&spans[0].0).and_then(|p| p.route);
        if let Some(to) = route {
            let ranges = spans.iter().map(|(_, r)| *r).collect();
            self.tell(to, DsdMsg::HeldFetch { ranges });
        }
    }

    /// The lowest joined writer that still holds some of this shard's
    /// entries: the final bytes wait for it.
    fn gathering(&self) -> Option<u32> {
        let joined = |w| self.life(w) == Some(Life::Joined);
        let held = self.spans_of(|at| &at.held);
        held.filter(|(w, r)| self.owns_entry(r.entry) && joined(*w))
            .map(|(w, _)| w)
            .min()
    }

    /// Fail the shard once it has served for nothing but joined writers'
    /// holds for two leases, or 30 s without a lease (DESIGN §14, "The
    /// gather bound"), naming the lowest; a shadow waits on its primary.
    fn bound_gather(&mut self) -> Result<(), HomeError> {
        let since = *self.gather_since.get_or_insert(self.now);
        let bound = self.lease.map_or(Duration::from_secs(30), |l| l * 2);
        if !self.serves_clients() || self.now.saturating_since(since) <= bound {
            return Ok(());
        }
        let writer = self.gathering().expect("gathering");
        let held = self.spans_of(|at| &at.held);
        let spans = held.filter(|(w, r)| *w == writer && self.owns_entry(r.entry));
        Err(HomeError::NotGathered(
            writer,
            spans.map(|(_, r)| r).collect(),
        ))
    }

    /// Drop log entries every participant still expected has seen: a
    /// joined or dead rank's frozen horizon must not pin the log.
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

    /// What thread `rank` has not seen: extracted frames for the stale
    /// ranges inside its interest (t_tag, then t_pack), notices for the
    /// rest — and for what others wrote of an entry that left this shard
    /// since (its rows went with it), so the thread fetches those from the
    /// new owner — and the row of its new horizon here, unless the thread
    /// can tell it did not move.
    fn stale_updates_for(&mut self, rank: u32) -> Result<Pulled, HomeError> {
        let everything = BTreeMap::new();
        let (horizon, op, interest) = match self.peers.get(&rank) {
            Some(p) => (p.seen, p.op, &p.interest),
            None => (0, OpCtx::default(), &everything),
        };
        let mut t = Phase::Tag.begin(&self.recorder, self.me, op);
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
        let (ranges, mut notices) = self.notice_held(rank, ranges, notices);
        for (&entry, at) in &self.whereabouts {
            if horizon >= at.moved.0 || self.owns_entry(entry) {
                continue;
            }
            let others = at.moved.1.iter().filter(|row| row.0 == rank);
            notices.extend(others.map(|&(_, first, count)| span(entry, first, first + count)));
        }
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
        let moved = horizon != self.seq;
        if let Some(p) = self.peers.get_mut(&rank) {
            p.seen = self.seq;
        }
        let stamp = self
            .own_row(self.seq)
            .filter(|_| moved)
            .into_iter()
            .collect();
        Ok((ups, notices, stamp))
    }

    /// A stamp row of this shard's sequence `seq`, for a client that has
    /// other shards to compare it with: none on a one-shard directory.
    fn own_row(&self, seq: u64) -> Option<(u32, u64)> {
        (self.placement.directory().n_shards() > 1).then_some((self.shard, seq))
    }

    /// What the reply to `writer`'s flush or release says of the writes
    /// the step absorbed, with this shard's sequence at `was` before it:
    /// nothing where nothing was, or where the writer had seen everything
    /// logged before them, so its horizon here moves on to them; else the
    /// sequence they were logged under.
    fn logged(&mut self, writer: u32, was: u64) -> Vec<(u32, u64)> {
        let horizon = self.peers.get_mut(&writer).map(|p| &mut p.seen);
        match horizon {
            _ if self.seq == was => Vec::new(),
            Some(seen) if *seen == was => {
                *seen = self.seq;
                Vec::new()
            }
            _ => self.own_row(self.seq).into_iter().collect(),
        }
    }

    /// Invariant **H** at a reader: a held element goes out as a notice,
    /// whatever the reader's interest, and nothing the reader holds itself
    /// is noticed to it — its copy is the current one.
    fn notice_held(
        &self,
        rank: u32,
        ranges: Vec<UpdateRange>,
        mut notices: Vec<UpdateRange>,
    ) -> (Vec<UpdateRange>, Vec<UpdateRange>) {
        if self.whereabouts.is_empty() {
            return (ranges, notices);
        }
        let mut ship = Vec::with_capacity(ranges.len());
        for r in ranges {
            // The held spans `r` meets, of every writer: mostly none.
            let mut held = IntervalSet::default();
            held.extend(self.held_touching(&r).into_iter().map(|(_, s)| s));
            for p in held.split(r.first, r.end()) {
                let Some(piece) = r.slice(r.below(p.first), r.below(p.end)) else {
                    continue; // between the elements of a strided range
                };
                match p.inside {
                    // A notice is dense: an element a notice.
                    true => notices.extend(piece.spans().map(|(a, b)| span(r.entry, a, b))),
                    false => ship.push(piece),
                }
            }
        }
        let mut told = Vec::with_capacity(notices.len());
        for n in notices {
            let at = self.whereabouts.get(&n.entry);
            match at.and_then(|at| at.held.get(&rank)) {
                None => told.push(n),
                Some(own) => told.extend(
                    own.split(n.first, n.end())
                        .filter(|p| !p.inside)
                        .map(|p| span(n.entry, p.first, p.end)),
                ),
            }
        }
        told.sort_unstable_by_key(|n| (n.entry, n.first));
        (ship, told)
    }

    /// Frame the current authoritative bytes of `ranges` for the thread
    /// blocked in `op` — t_pack — and book them as sent.
    fn extract_for(&mut self, op: OpCtx, ranges: &[UpdateRange]) -> Result<UpdateBatch, HomeError> {
        let framed = self.alike.as_ref().and_then(|a| a.framed.as_ref());
        let ups = match framed {
            Some((was, ups)) if !ranges.is_empty() && was == ranges => ups.clone(),
            _ => {
                let mut t = Phase::Pack.begin(&self.recorder, self.me, op);
                let ups = extract_updates(&self.gthv, ranges)?;
                t.args(ups.payload_bytes(), ups.len() as u64);
                t.end(&mut self.costs);
                if let Some(a) = &mut self.alike {
                    a.framed = Some((ranges.to_vec(), ups.clone()));
                }
                ups
            }
        };
        let bytes = ups.payload_bytes();
        self.costs.updates_sent += ups.len() as u64;
        self.costs.bytes_sent += bytes;
        Ok(ups)
    }

    /// Take a thread's interest report into its table; a row the index
    /// table does not hold is a violation, like an update for it.
    fn note_interest(&mut self, rank: u32, rows: &[UpdateRange]) -> Result<(), HomeError> {
        self.in_table(rank, "interest in", rows)?;
        let Some(peer) = self.peers.get_mut(&rank) else {
            return Ok(());
        };
        for r in rows.iter().filter(|r| r.count > 0) {
            peer.interest
                .entry(r.entry)
                .or_default()
                .insert(r.first, r.end());
        }
        Ok(())
    }

    /// A row thread `rank` reports (`what` it is) that the index table
    /// does not hold is a violation, like an update for it.
    fn in_table(&self, rank: u32, what: &str, rows: &[UpdateRange]) -> Result<(), HomeError> {
        let index = self.gthv.table();
        for r in rows.iter().filter(|r| r.count > 0) {
            let count = index.row(r.entry).map_or(0, |row| row.count);
            if last_element((r.first, r.count, r.stride)).is_none_or(|last| last >= count) {
                return Err(HomeError::Violation(format!(
                    "thread {rank} reports {what} {r:?}, outside the index table"
                )));
            }
        }
        Ok(())
    }

    /// The one transmit: leave `payload` for endpoint `to` in the outbox,
    /// for the runner to put on the wire once the step is taken.
    fn post(&mut self, to: u32, kind: MsgKind, payload: Bytes, op: OpCtx, owed: bool) {
        self.outbox.push(Outgoing {
            to,
            kind,
            payload,
            op,
            owed,
        });
    }

    /// The control-plane send: `msg` to endpoint `ep_rank` as an
    /// unsolicited frame (request id 0) — replication relay, depose and
    /// handoff traffic, admin confirmations.
    fn tell(&mut self, ep_rank: u32, msg: DsdMsg) {
        let payload = msg.encode_enveloped(0);
        self.post(ep_rank, msg.kind(), payload, OpCtx::default(), false);
    }

    /// Reply to thread `rank`: `msg` enveloped with the request id of its
    /// outstanding request and cached for retransmission. `owed`: the
    /// requester is blocked on it, so its endpoint must still be there.
    fn reply(&mut self, rank: u32, msg: DsdMsg, owed: bool) -> Result<(), HomeError> {
        let no_route = || HomeError::Violation(format!("no route for thread {rank}"));
        let peer = self.peers.get_mut(&rank).ok_or_else(no_route)?;
        let ep_rank = peer.route.ok_or_else(no_route)?;
        // The reply — including a deferred grant or barrier release —
        // belongs to the op the requester is blocked in.
        let (req_id, op) = (peer.last_req, peer.op);
        let encoded = self.alike.as_ref().and_then(|a| a.encoded.as_ref());
        let payload = match encoded {
            Some((rid, was, payload)) if *rid == req_id && *was == msg => payload.clone(),
            _ => {
                let mut t = Phase::Pack.begin(&self.recorder, self.me, op);
                let payload = msg.encode_enveloped(req_id);
                t.args(payload.len() as u64, rank as u64);
                t.end(&mut self.costs);
                if let Some(a) = &mut self.alike {
                    a.encoded = Some((req_id, msg.clone(), payload.clone()));
                }
                payload
            }
        };
        peer.reply = Some((req_id, msg.kind(), payload.clone()));
        self.post(ep_rank, msg.kind(), payload, op, owed);
        if let Standby::Promoted {
            first_grant_recorded: recorded @ false,
            ..
        } = &mut self.standby
        {
            // The recovery-latency endpoint: the first reply after a
            // takeover.
            *recorded = true;
            self.mark(EventKind::FirstGrant, "");
        }
        Ok(())
    }

    /// [`Self::reply`] to a thread that must still be there: a grant,
    /// release or ack its requester is blocked on.
    fn send(&mut self, rank: u32, msg: DsdMsg) -> Result<(), HomeError> {
        self.reply(rank, msg, true)
    }

    /// Resend thread `rank`'s cached reply if it answers request `req_id`
    /// (the reply, not the request, was lost).
    fn resend_cached(&mut self, rank: u32, req_id: u64) {
        let Some(peer) = self.peers.get(&rank) else {
            return;
        };
        if let (Some((rid, kind, payload)), Some(to)) = (&peer.reply, peer.route) {
            if *rid == req_id {
                let (kind, payload, op) = (*kind, payload.clone(), peer.op);
                self.post(to, kind, payload, op, false);
            }
        }
    }

    /// The enriched lost-worker notification for `rank`: how stale its
    /// lease was when it expired, so survivors can report forensics.
    fn worker_lost_msg(&self, rank: u32) -> DsdMsg {
        let heard = self.peers.get(&rank).and_then(|p| p.last_heard);
        DsdMsg::WorkerLost {
            rank,
            heard_ms: heard.map_or(0, |t| self.now.saturating_since(t).as_millis() as u64),
            lease_ms: self.lease.map_or(0, |l| l.as_millis() as u64),
        }
    }

    fn grant(&mut self, lock: u32, rank: u32) -> Result<(), HomeError> {
        let (updates, notices, mut stamp) = self.stale_updates_for(rank)?;
        stamp.extend(self.locks[lock as usize].before.rows_for(rank));
        let grant = DsdMsg::LockGrant {
            lock,
            updates,
            notices,
            stamp,
        };
        self.send(rank, grant)
    }

    /// Period of the service's wake-ups and of its rounds of unasked
    /// sends: a quarter of the lease, at least 10 ms.
    fn tick(&self) -> Duration {
        let floor = Duration::from_millis(10);
        self.lease.map_or(floor, |l| (l / 4).max(floor))
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

    /// Run the service on `ep` until all live participants joined (or
    /// this instance is killed, deposed or drained), taking turns on the
    /// calling thread: each blocks in its receive. On the sim fabric a
    /// cluster runs homes as [`HomeStep`]s instead.
    pub fn run(mut self, ep: Endpoint) -> Result<HomeRunOutcome, HomeError> {
        let clock = ep.clock();
        self.start(clock.now())?;
        loop {
            let recv = |left| match ep.recv_timeout(left) {
                Ok(m) => Ok(Some(Input::Frame(m))),
                Err(NetError::Timeout) => Ok(Some(Input::Tick)),
                Err(e) => Err(e),
            };
            if let Turned::Over(authoritative) = self.turn(&ep, &clock, recv)? {
                return Ok(self.outcome(authoritative));
            }
        }
    }

    /// One runner turn: perform the last step's sends; end if the stage
    /// is done or the kill switch flipped; else take a tick if the
    /// stage's deadline has passed, or what `recv` brings within the wait
    /// it is handed (`Duration::MAX`: with no deadline) — `None` if it
    /// cannot tell without yielding — and step on it.
    fn turn(
        &mut self,
        ep: &Endpoint,
        clock: &FabricClock,
        recv: impl FnOnce(Duration) -> Result<Option<Input<'static>>, NetError>,
    ) -> Result<Turned, HomeError> {
        self.flush(
            |s| match ep.send_op(s.to, s.kind, s.payload.clone(), s.op) {
                Err(NetError::Disconnected(_)) => Ok(false),
                sent => sent.map(|()| true).map_err(HomeError::from),
            },
        )?;
        if let Stage::Done { authoritative } = self.stage {
            return Ok(Turned::Over(authoritative));
        }
        let killed = self
            .kill
            .as_ref()
            .is_some_and(|k| k.load(Ordering::Relaxed));
        if self.stage == Stage::Serve && killed {
            self.mark(EventKind::ShardKill, "");
            return Ok(Turned::Over(false));
        }
        let now = clock.now();
        // `Duration::MAX` waits with no deadline.
        let left = self
            .wake(now)
            .map_or(Duration::MAX, |at| at.saturating_since(now));
        let input = if left.is_zero() {
            Input::Tick
        } else {
            match recv(left)? {
                Some(input) => input,
                None => return Ok(Turned::Yield),
            }
        };
        self.on(clock.now(), input)?;
        Ok(Turned::Stepped)
    }

    /// When the runner's next wait ends if nothing arrives; `None`: it
    /// does not.
    fn wake(&self, now: FabricInstant) -> Option<FabricInstant> {
        let round = self.owes().then(|| self.round_at + self.tick());
        match self.stage {
            Stage::Serve => {
                // A lease, a replication partner, the kill switch and the
                // gather bound need periodic wake-ups; without any of them,
                // or anything owed, the classic blocking receive stands.
                let timed = self.lease.is_some()
                    || !matches!(self.standby, Standby::Solo)
                    || self.kill.is_some()
                    || self.gather_since.is_some();
                round.or(timed.then(|| now + self.tick()))
            }
            Stage::Conclude { until } => Some(round.map_or(until, |r| r.min(until))),
            Stage::Retire { until, .. } => Some(until),
            Stage::Done { .. } => None,
        }
    }

    /// Perform the step's sends in order through `send`, which answers
    /// whether the destination took the frame (`false`: its endpoint is
    /// gone). A later send to an endpoint found gone is skipped, and what
    /// was found gone is the next step, until a step's sends all land.
    fn flush(
        &mut self,
        mut send: impl FnMut(&Outgoing) -> Result<bool, HomeError>,
    ) -> Result<(), HomeError> {
        loop {
            let mut gone = Vec::new();
            for s in &self.outbox {
                if !gone.contains(&s.to) && !send(s)? {
                    gone.push(s.to);
                }
            }
            if gone.is_empty() {
                return Ok(());
            }
            self.on(self.now, Input::Gone(&gone))?;
        }
    }

    /// Start the lease, replication and round clocks at `now`; the runner
    /// calls it once, before its first wait.
    pub fn start(&mut self, now: FabricInstant) -> Result<(), HomeError> {
        self.now = now;
        self.restart_leases();
        self.peer_last_heard = now;
        self.round_at = now;
        // Seed the telemetry epoch table (monotone max, so a replica's
        // epoch-0 report can't regress a promoted primary's).
        self.recorder.dir_epoch(self.shard, self.epoch as u64);
        self.advance()
    }

    /// One step: take `input` at `now` and decide, leaving what is to be
    /// sent in the outbox. A serving or concluding instance runs its
    /// duties after each frame and on each tick. A requester found gone
    /// while blocked on its reply ends the shard, as a failed transport
    /// does.
    pub fn on(&mut self, now: FabricInstant, input: Input) -> Result<(), HomeError> {
        self.now = now;
        if let Input::Gone(eps) = &input {
            let owed = |s: &&Outgoing| s.owed && eps.contains(&s.to);
            if let Some(s) = self.outbox.iter().find(owed) {
                return Err(NetError::Disconnected(s.to).into());
            }
        }
        if !self.owes() {
            self.round_at = now; // a round is due a tick after this step
        }
        self.outbox.clear();
        match (input, self.stage) {
            (Input::Gone(eps), _) => self.gone(eps)?,
            // Past a conclusion's deadline the moved entry stays here.
            (Input::Tick, Stage::Conclude { until }) if now >= until => {
                self.abort_entry_handoff()?
            }
            (input, stage) => {
                if let Input::Frame(m) = input {
                    self.process(m)?;
                }
                if matches!(stage, Stage::Serve | Stage::Conclude { .. }) {
                    self.duties()?;
                }
            }
        }
        self.advance()
    }

    /// Enter the stage the state now calls for, doing what entering it
    /// takes.
    fn advance(&mut self) -> Result<(), HomeError> {
        loop {
            self.stage = match self.stage {
                // Deposed, self-fenced or drained: redirect stragglers
                // for a grace period.
                Stage::Serve if self.fenced && !self.draining() => {
                    let grace = self.lease.map_or(Duration::from_millis(100), |l| l * 2);
                    Stage::Retire {
                        until: self.now + grace.max(self.linger),
                        authoritative: false,
                    }
                }
                // Serve until every participant settled and what a joined
                // writer held has reached the final bytes.
                Stage::Serve if self.pending > 0 => return Ok(()),
                Stage::Serve if self.gathering().is_some() => return self.bound_gather(),
                // The primary drove the run to completion.
                Stage::Serve if !self.serves_clients() => Stage::Done {
                    authoritative: false,
                },
                Stage::Serve => {
                    if let Standby::Primary { .. } = self.standby {
                        // The standby retired with the last settle it
                        // replayed.
                        self.standby = Standby::Solo;
                    }
                    // Conclude a placement move still in flight, or the
                    // stitch would credit the entry to a shard that never
                    // installed its bytes.
                    Stage::Conclude {
                        until: self.now + Duration::from_millis(500),
                    }
                }
                Stage::Conclude { .. } if self.entry_handoff.is_none() => {
                    self.broadcast_shutdown()?;
                    Stage::Retire {
                        until: self.now + self.linger,
                        authoritative: true,
                    }
                }
                Stage::Retire {
                    until,
                    authoritative,
                } if self.now >= until => Stage::Done { authoritative },
                _ => return Ok(()),
            };
        }
    }

    /// Every live participant joined: broadcast shutdown, the deferred
    /// (and cached) reply to each Join, in rank order so the send order is
    /// the same run to run. A client already gone (a duplicated copy of
    /// this very Shutdown reached it) has everything it was owed.
    fn broadcast_shutdown(&mut self) -> Result<(), HomeError> {
        let ranks: Vec<u32> = self
            .peers
            .iter()
            .filter(|(_, p)| p.life == Life::Joined)
            .map(|(&r, _)| r)
            .collect();
        for r in ranks {
            self.reply(r, DsdMsg::Shutdown, false)?;
        }
        if self.lowest_dead.is_some() {
            // A declared-dead worker may only be partitioned and will
            // resurface retransmitting; stay around long enough to tell
            // it it was declared lost instead of letting it time out.
            if let Some(lease) = self.lease {
                self.linger = self.linger.max(lease * 2);
            }
        }
        Ok(())
    }

    /// The one place a gone peer means something: `eps` are the endpoints
    /// the last step's sends found `Disconnected`.
    fn gone(&mut self, eps: &[u32]) -> Result<(), HomeError> {
        for &ep in eps {
            match self.standby {
                Standby::Primary {
                    replica_ep,
                    drain: Some(_),
                } if replica_ep == ep => {
                    // Fenced, with nobody left to take the shard over.
                    return Err(HomeError::Violation(
                        "handoff target replica is gone".into(),
                    ));
                }
                // Back to the unreplicated availability level.
                Standby::Primary { replica_ep, .. } if replica_ep == ep => {
                    self.standby = Standby::Solo;
                }
                // The primary crashed: succeed it, with no fencing, once
                // the relay stream has been quiet a full tick, so every
                // frame it sent is replayed first.
                Standby::Shadow { primary_ep }
                    if primary_ep == ep
                        && self.now.saturating_since(self.peer_last_heard) >= self.tick() =>
                {
                    self.promote(primary_ep, self.epoch + 1, false, "");
                }
                Standby::Promoted { primary_ep, .. } if primary_ep == ep => self.depose_settled(),
                _ => {}
            }
        }
        // Every endpoint of an entry move's target is gone: abort the
        // move and keep serving the entry here.
        let Some(to) = self.entry_handoff.as_ref().map(|h| h.to_shard) else {
            return Ok(());
        };
        let d = self.placement.directory();
        let dead = |ep: u32| eps.contains(&ep);
        if dead(d.shard_ep(to)) && (d.n_replicas() == 0 || dead(d.replica_ep(to))) {
            self.abort_entry_handoff()?;
        }
        Ok(())
    }

    /// One incoming message, decoded once — the one receive path, in
    /// every stage: client requests take the epoch-checked path into
    /// [`Self::dispatch`]; everything else is replication/failover/
    /// placement control.
    fn process(&mut self, msg: Message) -> Result<(), HomeError> {
        let op = msg.trace.map(|t| t.op).unwrap_or_default();
        if is_client_request(msg.kind) && self.entry_handoff.is_some() && !self.fenced {
            // An outbound entry move is in flight: neither shard could
            // serve the entry's pre-move updates until the target installs,
            // one round trip. A fenced source redirects at once, below.
            self.entry_pending.push_back(msg);
            return Ok(());
        }
        let mut t = Phase::Unpack.begin(&self.recorder, self.me, op);
        t.args(msg.payload.len() as u64, msg.src as u64);
        let stamped = self.placement.directory().epoch_stamped(msg.kind);
        let Ok((req_id, stamp, decoded, report)) =
            DsdMsg::decode_request(msg.kind, msg.payload.clone(), stamped)
        else {
            // A frame that does not decode names no request to answer:
            // drop it and keep serving. A real sender retransmits.
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
            } => self.on_replicate(src_ep, req_id, kind, body)?,
            DsdMsg::ReplicaBeat { .. } => self.peer_last_heard = self.now,
            DsdMsg::Depose { shard, epoch } => {
                if shard == self.shard && !self.fenced {
                    self.fence();
                }
                self.tell(msg.src, DsdMsg::DeposeAck { shard, epoch });
            }
            DsdMsg::DeposeAck { .. } => {
                self.peer_last_heard = self.now;
                self.depose_settled();
            }
            DsdMsg::HandoffRequest { shard } if shard == self.shard => self.start_handoff(msg.src),
            DsdMsg::HandoffInstalled { shard, epoch } if shard == self.shard => {
                self.peer_last_heard = self.now;
                self.finish_handoff(epoch);
            }
            DsdMsg::EntryHandoff { entry, to_shard } => {
                self.on_entry_handoff(msg.src, entry, to_shard)?
            }
            offer @ DsdMsg::EntryState { .. } => self.on_entry_state(msg.src, offer)?,
            DsdMsg::EntryInstalled { entry, epoch } => self.on_entry_installed(entry, epoch)?,
            // Control frames for another shard, a late `EntryDone`, or an
            // offer bounced by a fenced endpoint: nothing to do.
            DsdMsg::HandoffRequest { .. }
            | DsdMsg::HandoffInstalled { .. }
            | DsdMsg::EntryDone { .. }
            | DsdMsg::ViewChange { .. } => {}
            // A shadow never answers clients: its state evolves through the
            // relay stream only. The client retransmits; once this replica
            // promotes, the retransmission is served (dedup catches anything
            // the primary already answered).
            _ if !self.serves_clients() => {}
            decoded => {
                if stamp.is_some_and(|e| e > self.epoch) && !self.fenced {
                    // A request stamped from the future: some other
                    // instance already serves a later epoch of this shard.
                    self.fence();
                }
                if self.fenced {
                    self.reply_view_change(msg.src, req_id);
                    return Ok(());
                }
                // Relay *before* processing, envelope stripped (the report
                // behind the body rides along), so the
                // shadow can never miss a request whose effects the
                // primary exposed to a client and replays it through the
                // same dispatch path.
                let body = msg.payload.slice(DsdMsg::envelope_bytes(req_id, stamp)..);
                self.relay(msg.src, req_id, msg.kind, body);
                self.dispatch(msg.src, req_id, decoded, &report, op)?;
            }
        }
        Ok(())
    }

    /// Redirect a client with a stale view: the shard now rules under
    /// `epoch + 1` at its other endpoint.
    fn reply_view_change(&mut self, src_ep: u32, req_id: u64) {
        let payload = DsdMsg::ViewChange {
            shard: self.shard,
            epoch: self.epoch + 1,
        }
        .encode_enveloped(req_id);
        self.post(
            src_ep,
            MsgKind::ViewChange,
            payload,
            OpCtx::default(),
            false,
        );
    }

    /// Stop serving: every subsequent client request is answered with a
    /// redirect instead of a grant, so no split-brain double-grant can
    /// ever leave this instance.
    fn fence(&mut self) {
        self.fenced = true;
        self.mark(EventKind::Fence, "");
    }

    /// Ship one frame down the replication stream (a no-op unless this is
    /// a primary with a live standby): a client request as received or,
    /// with `src_ep` and `req_id` 0, a home-side *decision* (a lease
    /// expiry, an ownership flip, an adopted entry) to replay verbatim.
    fn relay(&mut self, src_ep: u32, req_id: u64, kind: MsgKind, body: Bytes) {
        if let Standby::Primary { replica_ep, .. } = self.standby {
            let frame = DsdMsg::Replicate {
                src_ep,
                req_id,
                kind: kind as u16,
                body,
            };
            self.tell(replica_ep, frame);
        }
    }

    /// [`Self::relay`] a home-side decision.
    fn relay_decision(&mut self, inner: &DsdMsg) {
        self.relay(0, 0, inner.kind(), inner.encode());
    }

    /// Replica side of the relay: replay the original request, a fetch
    /// like any other, through the normal dispatch path and drop the
    /// replay's sends. The shadow's tables, log, dedup horizon, reply
    /// cache, deferred fetches and held records end up byte-identical to
    /// the primary's, so a promoted replica can serve retransmissions of
    /// requests the primary already answered, and ask for what it waited on.
    fn on_replicate(
        &mut self,
        src_ep: u32,
        req_id: u64,
        kind: u16,
        body: Bytes,
    ) -> Result<(), HomeError> {
        self.peer_last_heard = self.now;
        let Some(kind) = MsgKind::from_u16(kind) else {
            return Err(HomeError::Protocol(ProtocolError::BadMessage(
                "relayed frame with unknown kind",
            )));
        };
        let (inner, report) = DsdMsg::decode_reported(kind, body)?;
        if req_id == 0 && matches!(inner, DsdMsg::HandoffRequest { .. }) {
            // The primary's handoff decision; its ack goes out.
            self.take_over();
            return Ok(());
        }
        let keep = self.outbox.len();
        let res = match inner {
            // Relayed home-side decisions (req id 0), not client requests.
            DsdMsg::WorkerLost { rank, .. } if req_id == 0 => self.declare_dead(rank),
            DsdMsg::EntryMoved { entries } if req_id == 0 => {
                // Mirror the primary's placement flips (including any
                // abort revert), so a promoted shadow reports and serves
                // the same per-entry ownership map.
                for (entry, shard, epoch) in entries {
                    self.move_entry(entry, shard, epoch);
                }
                Ok(())
            }
            // The primary adopted an entry from another shard: replay the
            // install (the primary sent the ack).
            offer @ DsdMsg::EntryState { .. } if req_id == 0 => self.install_entry(offer).map(drop),
            inner => self.dispatch(src_ep, req_id, inner, &report, OpCtx::default()),
        };
        // The primary already answered: the replay's sends go nowhere.
        self.outbox.truncate(keep);
        res
    }

    /// What a serving or concluding instance does on every step: the
    /// round, then the checks that guard safety — the shadow's promotion
    /// after a full lease of relay silence, the primary's self-fence
    /// after half of one, and lease expiry. The round sends everything owed
    /// again, at most once a tick whether or not frames are arriving;
    /// each went out at once when it became owed.
    fn duties(&mut self) -> Result<(), HomeError> {
        if self.owes() && self.now >= self.round_at + self.tick() {
            self.round_at = self.now;
            self.tell_partner();
            self.send_entry_state();
            self.ask_again();
        }
        let silence = self.now.saturating_since(self.peer_last_heard);
        match self.standby {
            Standby::Shadow { primary_ep } => {
                // A full lease of silence on the relay stream: take over
                // and depose the old primary.
                if self.lease.is_some_and(|l| silence > l) {
                    self.promote(primary_ep, self.epoch + 1, true, "");
                }
                return Ok(()); // a shadow has nobody to serve
            }
            // Split-brain guard: half a lease of standby silence, and
            // fence before the replica promotes at a full lease. Both
            // check on their ticks (a quarter lease), and a cut can drop
            // the last frame one way and not the other, so the replica's
            // silence may start up to a tick before this one's: half a
            // lease still fences a tick ahead of the promotion.
            Standby::Primary { .. }
                if !self.fenced && self.lease.is_some_and(|l| silence > l / 2) =>
            {
                self.fence()
            }
            _ => {}
        }
        if !self.fenced {
            self.check_leases()?;
        }
        Ok(())
    }

    /// Is anything owed that this instance sends unasked until it is
    /// answered: a shadow's beat (owed from the start), a `Depose`, a
    /// relayed handoff, an entry offer or a `HeldFetch`?
    fn owes(&self) -> bool {
        let partner = matches!(
            self.standby,
            Standby::Shadow { .. }
                | Standby::Primary { drain: Some(_), .. }
                | Standby::Promoted {
                    pending_depose: true,
                    ..
                }
        );
        let asking = self.whereabouts.values().any(|at| !at.asked.is_empty());
        partner || self.entry_handoff.is_some() || asking
    }

    /// Ask each writer, in one `HeldFetch`, for every span asked of it that
    /// has not come. A shadow asks nobody: what its replay asked, it asks
    /// once promoted.
    fn ask_again(&mut self) {
        if !self.serves_clients() {
            return;
        }
        let mut asked: Vec<_> = self.spans_of(|at| &at.asked).collect();
        asked.sort_unstable_by_key(|(w, r)| (*w, r.entry, r.first));
        asked
            .chunk_by(|a, b| a.0 == b.0)
            .for_each(|of_writer| self.ask_held(of_writer));
    }

    /// Send the replication partner what this instance owes it until it
    /// answers, if anything: a shadow's beat, a draining primary's
    /// relayed `HandoffRequest`, a promoted instance's `Depose`.
    fn tell_partner(&mut self) {
        let (shard, epoch) = (self.shard, self.epoch);
        match self.standby {
            Standby::Shadow { primary_ep } => self.tell(primary_ep, DsdMsg::ReplicaBeat { shard }),
            Standby::Primary { drain: Some(_), .. } => {
                self.relay_decision(&DsdMsg::HandoffRequest { shard })
            }
            Standby::Promoted {
                primary_ep,
                pending_depose: true,
                ..
            } => self.tell(primary_ep, DsdMsg::Depose { shard, epoch }),
            _ => {}
        }
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
        // The relays the old primary sent last may never have arrived, so
        // a client may have been told sequences this instance never gave
        // out: number on from above all of them.
        self.seq = self.seq.max(u64::from(epoch) << 40);
        self.tell_partner();
        self.ask_again();
        self.restart_leases();
        self.mark(EventKind::Promote, how);
        self.recorder.dir_epoch(self.shard, self.epoch as u64);
        self.recorder.blackbox_trigger_once(
            "view-change",
            ((self.shard as u64) << 32) | self.epoch as u64,
        );
    }

    /// Admin asked this primary to drain: fence (clients bounce to the
    /// replica) and relay the request to the standby, which promotes once
    /// it has replayed every frame before it. An instance that cannot
    /// drain bounces the admin with a `ViewChange`, a typed busy error at
    /// `ClusterCtl` instead of retransmits for its whole budget.
    fn start_handoff(&mut self, admin_ep: u32) {
        if self.draining() {
            return; // duplicate request: drain already underway
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
        self.tell_partner();
    }

    /// The replica confirmed installation: tell the admin, close the obs
    /// span, retire.
    fn finish_handoff(&mut self, epoch: u32) {
        let Standby::Primary { drain, .. } = &mut self.standby else {
            return;
        };
        let Some(drain) = drain.take_if(|d| d.epoch == epoch) else {
            return;
        };
        let now = self.recorder.now_us();
        self.recorder.span_at_op(
            self.me,
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
        self.tell(drain.admin_ep, done);
    }

    /// Replica side of the handoff: the relay link is FIFO, so every frame
    /// the primary relayed before fencing has been replayed — promote to
    /// the next epoch (the primary fenced itself: no depose) and confirm.
    /// A duplicate after promotion is only confirmed again.
    fn take_over(&mut self) {
        let primary_ep = match self.standby {
            Standby::Shadow { primary_ep } => {
                self.promote(primary_ep, self.epoch + 1, false, "handoff");
                primary_ep
            }
            Standby::Promoted { primary_ep, .. } => primary_ep,
            Standby::Solo | Standby::Primary { .. } => return,
        };
        let ack = DsdMsg::HandoffInstalled {
            shard: self.shard,
            epoch: self.epoch,
        };
        self.tell(primary_ep, ack);
    }

    // ----- per-entry re-homing (placement engine actuator) -----

    /// Admin asked this shard to migrate one entry's home to `to_shard`:
    /// snapshot its bytes, flip ownership under a fresh per-entry epoch,
    /// purge its log rows and start offering the state. Client traffic is
    /// deferred until the target acknowledges.
    fn on_entry_handoff(
        &mut self,
        admin_ep: u32,
        entry: u32,
        to_shard: u32,
    ) -> Result<(), HomeError> {
        if !self.serves_clients() {
            return Ok(()); // shadows learn moves from the relay stream
        }
        let inflight = |h: &EntryHandoffState| h.entry == entry && h.to_shard == to_shard;
        if self.entry_handoff.as_ref().is_some_and(inflight) {
            return Ok(()); // duplicate of the in-flight move
        }
        if self.entry_handoff.is_some() || self.fenced || self.pending == 0 {
            // Busy with a different move, not serving, or the run is
            // over: tell the admin to back off.
            self.reply_view_change(admin_ep, 0);
            return Ok(());
        }
        if to_shard == self.shard || !self.owns_entry(entry) {
            // Already there (or a duplicate of a completed move): the
            // idempotent confirmation is all the admin needs.
            self.tell(admin_ep, DsdMsg::EntryDone { entry, to_shard });
            return Ok(());
        }
        let epoch = self.placement.epoch(entry) + 1;
        self.move_entry(entry, to_shard, epoch);
        let offer = self.pack_entry_state(entry, epoch)?;
        self.entry_handoff = Some(EntryHandoffState {
            entry,
            admin_ep,
            to_shard,
            epoch,
            offer,
        });
        self.recorder.count("home.entry_handoffs", 1);
        self.send_entry_state();
        Ok(())
    }

    /// Offer the in-flight entry snapshot to every endpoint of the target
    /// shard, at move start and in every round until `EntryInstalled`.
    fn send_entry_state(&mut self) {
        let Some(h) = &self.entry_handoff else {
            return;
        };
        let (offer, to_shard) = (h.offer.clone(), h.to_shard);
        let directory = self.placement.directory();
        self.tell(directory.shard_ep(to_shard), offer.clone());
        if directory.n_replicas() > 0 {
            self.tell(directory.replica_ep(to_shard), offer);
        }
    }

    /// The target shard vanished mid-move: take ownership back under a
    /// strictly higher epoch (so any `EntryMoved` rows clients already
    /// learned lose the max-epoch merge) and force a full refresh — the
    /// entry's log rows were purged at move start and cannot come back.
    fn abort_entry_handoff(&mut self) -> Result<(), HomeError> {
        let Some(h) = self.entry_handoff.take() else {
            return Ok(());
        };
        self.move_entry(h.entry, self.shard, h.epoch + 1);
        self.recorder.count("home.entry_handoff_aborts", 1);
        self.drain_entry_pending()
    }

    /// Target side: install an entry another shard re-homes to us
    /// (idempotently) and acknowledge.
    fn on_entry_state(&mut self, src_ep: u32, offer: DsdMsg) -> Result<(), HomeError> {
        if !self.serves_clients() {
            return Ok(()); // the shadow's copy arrives on the relay stream
        }
        if self.fenced {
            self.reply_view_change(src_ep, 0);
            return Ok(());
        }
        let installed = self.install_entry(offer)?;
        self.tell(src_ep, installed);
        Ok(())
    }

    /// The [`DsdMsg::EntryState`] offer of `entry` at `epoch`, once
    /// [`Self::move_entry`] took it away: its held spans, what others wrote
    /// of it since each writer's horizon here, its forwarded mark, and its
    /// current contents as a packed update batch.
    fn pack_entry_state(&self, entry: u32, epoch: u32) -> Result<DsdMsg, HomeError> {
        let ranges: Vec<UpdateRange> = full_ranges(&self.gthv)
            .into_iter()
            .filter(|r| r.entry == entry)
            .collect();
        let (mut held, at) = (Vec::new(), self.whereabouts.get(&entry));
        for (&w, set) in at.into_iter().flat_map(|at| &at.held) {
            held.extend(set.spans().map(|(a, b)| (w, a, b - a)));
        }
        Ok(DsdMsg::EntryState {
            entry,
            epoch,
            held,
            written: at.map_or_else(Vec::new, |at| at.moved.1.clone()),
            forwarded: at.is_some_and(|at| at.forwarded),
            state: extract_updates(&self.gthv, &ranges)?.frame().clone(),
        })
    }

    /// Take ownership of the entry of an [`DsdMsg::EntryState`] `offer`
    /// at its epoch, apply its packed state and adopt its record,
    /// idempotently; relayed first, so a shadow replays it here too.
    /// Returns the `EntryInstalled` that acknowledges it.
    fn install_entry(&mut self, offer: DsdMsg) -> Result<DsdMsg, HomeError> {
        let DsdMsg::EntryState {
            entry,
            epoch,
            held,
            written,
            forwarded,
            state,
        } = &offer
        else {
            unreachable!("only an EntryState installs");
        };
        let (entry, epoch) = (*entry, *epoch);
        let installed = DsdMsg::EntryInstalled { entry, epoch };
        if !self.placement.adopt(entry, self.shard, epoch) {
            return Ok(installed);
        }
        self.relay_decision(&offer);
        let ups = unpack_batch(state.clone()).map_err(ProtocolError::from)?;
        apply_batch(&mut self.gthv, &ups, &mut self.conv_stats)?;
        self.force_full_refresh();
        let mut at = Whereabouts {
            forwarded: *forwarded,
            moved: (self.seq, written.clone()),
            ..Whereabouts::default()
        };
        for rows in held.chunk_by(|a, b| a.0 == b.0) {
            let set = at.held.entry(rows[0].0).or_default();
            set.extend((rows.iter()).map(|&(_, a, n)| span(entry, a, a.saturating_add(n))));
        }
        self.whereabouts.insert(entry, at);
        self.tidy(entry);
        self.recorder.count("home.entries_adopted", 1);
        Ok(installed)
    }

    /// One ownership flip without a state transfer (a move's start, its
    /// abort revert, and their replay), relayed before acting on it; the
    /// entry's log rows go with the ownership, and its record keeps what
    /// they said of each writer (rule 6), stamped when it comes back.
    fn move_entry(&mut self, entry: u32, shard: u32, epoch: u32) {
        self.relay_decision(&DsdMsg::EntryMoved {
            entries: vec![(entry, shard, epoch)],
        });
        let leaving = self.owns_entry(entry) && shard != self.shard;
        if !self.placement.adopt(entry, shard, epoch) {
            return;
        }
        if leaving {
            // What the log rows that go say of rule 6 stays.
            let mut written = Vec::new();
            for &w in self.peers.keys() {
                let gone = self.written_since(w, &[span(entry, 0, u64::MAX)]);
                written.extend(gone.spans().map(|(a, b)| (w, a, b - a)));
            }
            self.whereabouts.entry(entry).or_default().moved.1 = written;
        }
        self.log.retain(|(_, _, r)| r.entry != entry);
        if shard == self.shard {
            self.force_full_refresh();
        }
        if let Some(at) = self.whereabouts.get_mut(&entry) {
            at.moved.0 = self.seq;
        }
        self.tidy(entry);
    }

    /// Forget `entry`'s record once it says nothing.
    fn tidy(&mut self, entry: u32) {
        let at = self.whereabouts.get(&entry);
        if at.is_some_and(Whereabouts::is_empty) {
            self.whereabouts.remove(&entry);
        }
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
        self.tell(h.admin_ep, done);
        self.drain_entry_pending()
    }

    /// Re-process the messages deferred while an entry move was in
    /// flight, until one of them starts a new move.
    fn drain_entry_pending(&mut self) -> Result<(), HomeError> {
        while self.entry_handoff.is_none() {
            let Some(m) = self.entry_pending.pop_front() else {
                return Ok(());
            };
            self.process(m)?;
        }
        Ok(())
    }

    /// Reliability front-end: refresh liveness, deduplicate retransmitted
    /// requests (resending the cached reply), then take in the report's
    /// interest and hand the request, with what it holds, to
    /// [`Self::handle`] — or, once every participant has settled, answer
    /// it `Shutdown`.
    fn dispatch(
        &mut self,
        src_ep: u32,
        req_id: u64,
        msg: DsdMsg,
        report: &Report,
        op: OpCtx,
    ) -> Result<(), HomeError> {
        let Some(rank) = msg.sender_rank() else {
            // Rankless (e.g. a stray Ack): handle() reports the violation.
            return self.handle(msg, &Report::default());
        };
        let now = self.now;
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
            // The sync op this thread is blocked in, for attribution.
            peer.op = op;
        }
        if peer.life == Life::Dead {
            // A declared-dead worker resurfaced (e.g. a healed partition):
            // its synchronisation state is gone, so tell it so — unless it
            // already hung up again.
            peer.last_req = req_id;
            let lost = self.worker_lost_msg(rank);
            return self.reply(rank, lost, false);
        }
        if req_id != 0 {
            if req_id < peer.last_req {
                return Ok(()); // stale retransmission of an older request
            }
            if req_id == peer.last_req {
                // Duplicate of the current request: resend the reply, if
                // it was produced (a deferred one is still pending).
                self.resend_cached(rank, req_id);
                return Ok(());
            }
            peer.last_req = req_id;
            peer.reply = None;
        }
        let held_data = matches!(msg, DsdMsg::HeldData { .. });
        if self.pending == 0 && !held_data {
            // A new request after every participant settled: a client
            // that missed the broadcast. Shutdown terminates it. Held
            // bytes a joined writer sends are what the shard waits for.
            return self.reply(rank, DsdMsg::Shutdown, false);
        }
        self.note_interest(rank, &report.interest)?;
        if !report.held.is_empty() && !matches!(msg, DsdMsg::BarrierEnter { .. }) {
            return Err(HomeError::Violation(format!(
                "thread {rank} holds ranges outside a barrier entry"
            )));
        }
        self.in_table(rank, "holding", &report.held)?;
        if let Some((shard, _)) = report
            .stamp
            .iter()
            .find(|(s, _)| *s >= self.placement.directory().n_shards())
        {
            return Err(HomeError::Violation(format!(
                "thread {rank} names shard {shard} in a stamp"
            )));
        }
        self.handle(msg, report)?;
        if !self.deferred.is_empty() || self.pending < self.peers.len() {
            self.forward_held()?;
        }
        Ok(())
    }

    /// Start every live participant's lease, and the gather bound, afresh
    /// from now.
    fn restart_leases(&mut self) {
        let now = self.now;
        self.gather_since = None;
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
        let now = self.now;
        let expired: Vec<u32> = self
            .peers
            .iter()
            .filter(|(_, p)| p.life == Life::Expected)
            .filter(|(_, p)| p.last_heard.is_none_or(|t| now.saturating_since(t) > lease))
            .map(|(&r, _)| r)
            .collect();
        for r in expired {
            // Relay the timing-dependent decision first.
            let decision = self.worker_lost_msg(r);
            self.relay_decision(&decision);
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
        // Attributed to the dead rank's last known op.
        self.recorder.instant_op(
            self.me,
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
        // A barrier with entrants can never complete: fail them.
        for idx in 0..self.barriers.len() {
            let entered = std::mem::take(&mut self.barriers[idx].entered);
            for r in entered {
                if self.life(r) != Some(Life::Dead) {
                    let lost = self.worker_lost_msg(rank);
                    self.send(r, lost)?;
                }
            }
        }
        // What it held is lost to the run: nothing asks it any more, and
        // a fetch waiting on it fails.
        for at in self.whereabouts.values_mut() {
            at.asked.remove(&rank);
        }
        self.forward_held()
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

    /// Grant mutex `lock` to `rank` if it is free, else queue `rank` — a
    /// lock request, or a woken cond waiter re-acquiring its mutex.
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

    /// One fresh (deduplicated, routed) request against the sync tables;
    /// `behind` it rode what a barrier entry holds and a release's stamp.
    fn handle(&mut self, msg: DsdMsg, behind: &Report) -> Result<(), HomeError> {
        let (held, stamp) = (&behind.held[..], &behind.stamp[..]);
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
                let was = self.seq;
                if !self.absorb(rank, &updates, &[])? {
                    // Stale placement view: nothing absorbed, lock still
                    // held — the client re-routes and retries the release.
                    return Ok(());
                }
                self.locks[idx].before.merge(rank, stamp);
                let stamp = self.logged(rank, was);
                self.send(rank, DsdMsg::UnlockAck { lock, stamp })?;
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
                if !self.absorb(rank, &updates, held)? {
                    return Ok(()); // client re-routes and re-enters
                }
                self.barriers[idx].before.merge(rank, stamp);
                if let Some(lost) = self.lowest_dead {
                    // The barrier can never complete with a dead
                    // participant outstanding: fail fast.
                    let lost_msg = self.worker_lost_msg(lost);
                    return self.send(rank, lost_msg);
                }
                self.barriers[idx].entered.push(rank);
                if self.barriers[idx].entered.len() >= self.pending {
                    let entered = std::mem::take(&mut self.barriers[idx].entered);
                    self.alike = Some(Alike::default());
                    let sent = entered.into_iter().try_for_each(|r| {
                        let (updates, notices, mut stamp) = self.stale_updates_for(r)?;
                        stamp.extend(self.barriers[idx].before.rows_for(r));
                        let release = DsdMsg::BarrierRelease {
                            barrier,
                            updates,
                            ship: self.ship_for(r),
                            notices,
                            stamp,
                        };
                        self.send(r, release)
                    });
                    self.alike = None;
                    return sent;
                }
                Ok(())
            }
            DsdMsg::Join { rank, updates } => {
                // The gather of what it held; the Shutdown is the deferred
                // reply, once nothing joined is held here any more.
                self.absorb_held(rank, &updates)?;
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
                if !self.absorb(rank, &updates, &[])? {
                    return Ok(()); // client re-routes and retries the wait
                }
                self.locks[lidx].before.merge(rank, stamp);
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
                self.send(rank, DsdMsg::Ack { stamp: Vec::new() })
            }
            DsdMsg::Resync { rank, updates } => {
                // The gather of what it held, before its copy goes.
                if self.bounce_unowned(rank, updates.groups().map(|g| g.head.entry))? {
                    return Ok(()); // the thread re-routes and gathers again
                }
                self.absorb_held(rank, &updates)?;
                // Cold copy: force a full refresh at the next acquire; it
                // has read nothing either.
                if let Some(p) = self.peers.get_mut(&rank) {
                    p.seen = 0;
                    p.interest.clear();
                }
                if self.log_floor == 0 && self.seq > 0 {
                    // "Below the floor" even without compaction.
                    self.log_floor = self.log_floor.max(1);
                }
                self.send(rank, DsdMsg::Ack { stamp: Vec::new() })
            }
            DsdMsg::UpdateFlush { rank, updates } => {
                // Release-time fan-out to a non-granting shard: the thread
                // holds its release until this ack arrives, and names what
                // it says in the release's stamp, so the next acquirer of
                // the mutex fetches these updates.
                let was = self.seq;
                if !self.absorb(rank, &updates, &[])? {
                    return Ok(()); // client re-routes and re-flushes
                }
                let stamp = self.logged(rank, was);
                self.send(rank, DsdMsg::Ack { stamp })
            }
            DsdMsg::UpdateFetch { rank } => {
                // Acquire-time pull: the thread just acquired at another
                // shard, whose stamp named a write here it may not have
                // seen.
                let (updates, notices, stamp) = self.stale_updates_for(rank)?;
                let batch = DsdMsg::UpdateBatch {
                    updates,
                    notices,
                    stamp,
                };
                self.send(rank, batch)
            }
            DsdMsg::RangeFetch { rank, ranges } => {
                // Fetch before use: the current bytes of noticed ranges.
                // The horizon stays: they were accounted for when noticed.
                if self.bounce_unowned(rank, ranges.iter().map(|r| r.entry))? {
                    return Ok(()); // the thread re-routes and fetches again
                }
                // One that touches a held span waits for its writer's
                // bytes (`forward_held`, after this step's request).
                self.deferred.push((rank, ranges));
                Ok(())
            }
            DsdMsg::HeldData {
                rank,
                after,
                updates,
            } => {
                // Served before a request this shard has handled since: that
                // request may have held the ranges anew (a reordered
                // frame). The shard asks again.
                let last = self.peers.get(&rank).map_or(0, |p| p.last_req);
                match after >= last {
                    true => self.absorb_held(rank, &updates),
                    false => Ok(()),
                }
            }
            other => Err(HomeError::Violation(format!(
                "home received unexpected {other:?}"
            ))),
        }
    }
}

/// Elements `first..end` of `entry`.
fn span(entry: u32, first: u64, end: u64) -> UpdateRange {
    let count = end - first;
    UpdateRange::new(entry, first, count)
}

impl HomeShard {
    /// What thread `rank` ships at its next barrier entry: for each entry
    /// this shard owns, the union of the interest the other expected
    /// participants reported — the whole entry if one of them never did,
    /// or if a fetch of it was ever forwarded (holding pays only where
    /// read sets are stable across barriers).
    fn ship_for(&self, rank: u32) -> Vec<UpdateRange> {
        let others: Vec<&Peer> = self
            .peers
            .iter()
            .filter(|(&r, p)| r != rank && p.life == Life::Expected)
            .map(|(_, p)| p)
            .collect();
        let mut rows = Vec::new();
        for (entry, row) in self.gthv.table().rows().iter().enumerate() {
            let entry = entry as u32;
            if row.count == 0 || !self.owns_entry(entry) {
                continue;
            }
            let forwarded = self.whereabouts.get(&entry).is_some_and(|at| at.forwarded);
            if forwarded || others.iter().any(|p| !p.interest.contains_key(&entry)) {
                rows.push(span(entry, 0, row.count));
                continue;
            }
            let mut read = IntervalSet::default();
            let read_rows = others.iter().flat_map(|p| p.interest[&entry].rows());
            read.extend(read_rows.map(|row| UpdateRange::row(entry, row)));
            rows.extend(read.spans().map(|(a, b)| span(entry, a, b)));
        }
        rows
    }
}

/// Divide a reader's stale ranges by its `interest`: what falls inside a
/// span it has read (or in an entry it never read) is returned first, to
/// be shipped; the rest is folded into notices, one per gap between two
/// spans that anything fell into, from the first stale element in that
/// gap to the last. A notice never covers an element of the interest, and
/// SOR's stride-2 ranges in a neighbour's stripe become one. One pass, in
/// log order: consecutive ranges mostly fall in the span or gap the one
/// before did, which costs them four compares.
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
            let Some(piece) = r.slice(r.below(p.first), r.below(p.end)) else {
                continue; // between the elements of a strided range
            };
            leave(at.take(), &mut noticed);
            if p.inside {
                ship.push(piece);
            }
            let (first, end) = (piece.first, piece.end());
            at = Some((r.entry, Piece { first, end, ..p }));
        }
    }
    leave(at, &mut noticed);
    let notices = noticed
        .into_iter()
        .map(|((entry, _), (first, end))| span(entry, first, end))
        .collect();
    (ship, notices)
}

#[cfg(test)]
mod tests {
    // The home service is exercised end-to-end in client.rs and the
    // integration suite; unit tests here cover bookkeeping edge cases
    // that are hard to reach through the full stack. A test takes an
    // instance's decisions through `on` in virtual time: no network.
    use super::*;
    use crate::gthv::GthvDef;
    use hdsm_platform::ctype::StructBuilder;
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::PlatformSpec;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

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
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
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
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
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
        assert_eq!(carried(&ups), [(0, 64)]);
        // Pulling again with nothing new: empty.
        assert!(h.stale_updates_for(1).unwrap().0.is_empty());
        // Thread 2 still sees everything.
        assert_eq!(h.stale_updates_for(2).unwrap().0.len(), 1);
    }

    #[test]
    fn resync_forces_full_refresh() {
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
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
        h.dispatch(
            0,
            0,
            DsdMsg::Resync {
                rank: 1,
                updates: UpdateBatch::default(),
            },
            &Report::default(),
            OpCtx::default(),
        )
        .unwrap();
        // The cold copy has read nothing: the refresh is whole again, not
        // five elements and a notice for the rest.
        assert!(h.peers[&1].interest.is_empty());
        let (ups, notices, _) = h.stale_updates_for(1).unwrap();
        assert_eq!(ups.len(), 1, "full refresh after resync");
        assert_eq!(carried(&ups), [(0, 64)]);
        assert!(notices.is_empty());
    }

    #[test]
    fn compaction_preserves_refresh_capability() {
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
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
            h.absorb(9, &one_elem(i % 64, i as i128), &[]).unwrap();
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
        assert_eq!(carried(&ups), [(0, 64)]);
    }

    #[test]
    fn a_dead_ranks_horizon_does_not_stop_compaction() {
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let config = HomeConfig {
            participants: vec![1, 2, 3],
            ..Default::default()
        };
        let mut h = HomeShard::new(gthv, config);
        h.init_with(|g| g.write_int(0, 0, 42).unwrap());
        // Rank 3 saw nothing before the lease detector declared it dead;
        // the live readers keep up with every row.
        assert!(h.settle(3, Life::Dead));
        for i in 0..5000u64 {
            h.absorb(9, &one_elem(i % 64, i as i128), &[]).unwrap();
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
        let gthv = GthvInstance::new(def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(
            gthv,
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
        assert!(ups.groups().all(|g| g.head.entry == 1));
        // A misrouted update for entry 0 is a protocol violation, not a
        // silent write into a non-authoritative copy.
        let mut src = GthvInstance::new(def(), PlatformSpec::linux_x86());
        src.write_int(0, 0, 9).unwrap();
        let bad = extract_updates(&src, &[UpdateRange::new(0, 0, 1)]).unwrap();
        assert!(matches!(
            h.absorb(1, &bad, &[]),
            Err(HomeError::Violation(_))
        ));
    }

    /// A shard over `tiny_def` on `plat` with ranks 1..=5 and one mutex;
    /// rank `r` talks to it from endpoint `r`.
    fn five_rank_shard(plat: hdsm_platform::spec::Platform) -> HomeShard {
        let config = HomeConfig {
            participants: (1..=5).collect(),
            ..Default::default()
        };
        HomeShard::new(GthvInstance::new(tiny_def(), plat), config)
    }

    /// `count` elements of entry 0 from `first`.
    fn elems(first: u64, count: u64) -> UpdateRange {
        UpdateRange::new(0, first, count)
    }

    /// A report of `rows` read and nothing held.
    fn interest(rows: &[UpdateRange]) -> Report {
        Report {
            interest: rows.to_vec(),
            ..Report::default()
        }
    }

    #[test]
    fn an_ack_names_its_sequence_only_past_a_row_the_writer_has_not_seen() {
        // Shard 0 of three (entry 0 and mutex 0 are its own), ranks 1
        // and 2, both pulled at sequence 1, the initial contents.
        let config = HomeConfig {
            participants: vec![1, 2],
            directory: Directory::new(3),
            ..Default::default()
        };
        let mut h = HomeShard::new(
            GthvInstance::new(tiny_def(), PlatformSpec::linux_x86()),
            config,
        );
        h.init_with(|_| {});
        for rank in [1, 2] {
            h.stale_updates_for(rank).unwrap();
        }
        let op = OpCtx::default();
        let ask = |h: &mut HomeShard, rank: u32, req_id, msg, stamp: &[(u32, u64)]| {
            let report = Report {
                stamp: stamp.to_vec(),
                ..Report::default()
            };
            h.dispatch(rank, req_id, msg, &report, op).unwrap();
            let [(to, rid, reply)] = &take(h)[..] else {
                panic!("one reply");
            };
            assert_eq!((*to, *rid), (rank, req_id));
            reply.clone()
        };
        let flush = |rank, first| DsdMsg::UpdateFlush {
            rank,
            updates: one_elem(first, 7),
        };
        // Rank 1 had seen everything: its horizon moves on to its write,
        // and the ack says nothing. Rank 2's write lands behind rank 1's,
        // which it has not seen: the ack names sequence 3, and rank 2's
        // horizon stays.
        let stamp = |m: DsdMsg| match m {
            DsdMsg::Ack { stamp }
            | DsdMsg::UnlockAck { stamp, .. }
            | DsdMsg::LockGrant { stamp, .. } => stamp,
            other => panic!("{other:?}"),
        };
        assert_eq!(stamp(ask(&mut h, 1, 1, flush(1, 3), &[])), []);
        assert_eq!(stamp(ask(&mut h, 2, 1, flush(2, 4), &[])), [(0, 3)]);
        assert_eq!((h.peers[&1].seen, h.peers[&2].seen), (2, 1));
        // A grant names the acquirer's new horizon where it moved, and the
        // rows of the lock's record another rank named.
        let lock = |rank| DsdMsg::LockRequest { lock: 0, rank };
        let unlock = |rank| DsdMsg::UnlockRequest {
            lock: 0,
            rank,
            updates: UpdateBatch::default(),
        };
        assert_eq!(stamp(ask(&mut h, 1, 2, lock(1), &[])), [(0, 3)]);
        assert_eq!(stamp(ask(&mut h, 1, 3, unlock(1), &[(1, 7), (2, 4)])), []);
        let got = stamp(ask(&mut h, 2, 2, lock(2), &[]));
        assert_eq!(got, [(0, 3), (1, 7), (2, 4)]);
        ask(&mut h, 2, 3, unlock(2), &[(1, 9), (2, 4)]);
        // Rank 1 named shard 2's row: it is not handed back to it.
        assert_eq!(stamp(ask(&mut h, 1, 4, lock(1), &[])), [(1, 9)]);
        // A stamp naming a shard the directory lacks is a violation.
        let report = Report {
            stamp: vec![(3, 1)],
            ..Report::default()
        };
        let res = h.dispatch(1, 5, unlock(1), &report, op);
        assert!(matches!(res, Err(HomeError::Violation(_))), "{res:?}");
    }

    #[test]
    fn a_strided_row_is_one_log_row_and_pulls_as_its_elements_did() {
        let def = StructBuilder::new("G").array("xs", ScalarKind::Int, 256);
        let def = GthvDef::new(def.build().unwrap()).unwrap();
        let config = HomeConfig {
            participants: vec![1, 2, 3],
            ..Default::default()
        };
        let mut h = HomeShard::new(
            GthvInstance::new(def.clone(), PlatformSpec::linux_x86()),
            config,
        );
        h.init_with(|_| {});
        for rank in [1, 2, 3] {
            h.stale_updates_for(rank).unwrap();
        }
        // Rank 2 read [100, 228); rank 1 writes one colour of the row,
        // elements 1, 3, .., 253, of which rank 2 read 64.
        h.note_interest(2, &[elems(100, 128)]).unwrap();
        let row = UpdateRange {
            stride: 2,
            ..elems(1, 127)
        };
        let mut src = GthvInstance::new(def, PlatformSpec::linux_x86());
        for e in (1..254).step_by(2) {
            src.write_int(0, e, 5 + e as i128).unwrap();
        }
        let logged = h.log.len();
        assert!(h
            .absorb(1, &extract_updates(&src, &[row]).unwrap(), &[])
            .unwrap());
        assert_eq!(h.log.len(), logged + 1, "one log row, not one an element");
        assert_eq!(h.log.last().unwrap().2, row);
        // Rank 3 holds [150, 160) but for what rank 1 wrote since it
        // pulled: the other colour, every element of it a notice.
        h.hold(3, &[elems(150, 10)], h.seq);
        let (ups, notices, _) = h.stale_updates_for(2).unwrap();
        // What rank 2 read ships, as its one-element updates did; a notice
        // covers the rest on either side.
        let read: Vec<UpdateRange> = (101..228).step_by(2).map(|e| elems(e, 1)).collect();
        assert_eq!(
            ups.frame(),
            extract_updates(h.gthv(), &read).unwrap().frame()
        );
        let held = (150..160).step_by(2).map(|e| elems(e, 1));
        let want: Vec<_> = [elems(1, 99)]
            .into_iter()
            .chain(held)
            .chain([elems(229, 25)])
            .collect();
        assert_eq!(notices, want);
    }

    /// One element of `tiny_def`'s array as a batch, as a writer ships it.
    fn one_elem(first: u64, value: i128) -> UpdateBatch {
        let mut src = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        src.write_int(0, first, value).unwrap();
        let range = UpdateRange::new(0, first, 1);
        extract_updates(&src, &[range]).unwrap()
    }

    /// [`five_rank_shard`] driven until it holds a peer in every state:
    /// rank 1 joined (owed its `Shutdown`), rank 2 holding mutex 0 with
    /// its grant cached (and still in the outbox), rank 3 queued behind
    /// it, rank 4 dead, rank 5 expected and never heard from — plus a
    /// two-row log and one ownership row.
    fn populated_shard() -> HomeShard {
        let mut h = five_rank_shard(PlatformSpec::solaris_sparc());
        h.init_with(|g| {
            for i in 0..64 {
                g.write_int(0, i, i as i128 * 7 - 100).unwrap();
            }
        });
        let op = OpCtx::default();
        h.dispatch(
            1,
            1,
            DsdMsg::Join {
                rank: 1,
                updates: UpdateBatch::default(),
            },
            &Report::default(),
            op,
        )
        .unwrap();
        for rank in [2, 3] {
            h.dispatch(
                rank,
                7,
                DsdMsg::LockRequest { lock: 0, rank },
                &Report::default(),
                op,
            )
            .unwrap();
        }
        h.declare_dead(4).unwrap();
        assert!(h.absorb(2, &one_elem(9, -37), &[]).unwrap());
        h.placement.adopt(0, 0, 2);
        h.note_interest(2, &[elems(0, 8), elems(8, 4), elems(40, 24)])
            .unwrap();
        h.note_interest(3, &[elems(63, 1)]).unwrap();
        h
    }

    #[test]
    fn entry_states_roundtrip_through_the_grouped_batch() {
        // Entry-handoff state travels as a grouped batch and installs
        // byte-exactly, on the same representation and across one.
        let src = populated_shard();
        let offer = src.pack_entry_state(0, 1).unwrap();
        let DsdMsg::EntryState {
            held,
            forwarded,
            state,
            ..
        } = &offer
        else {
            panic!("an offer is an EntryState");
        };
        assert!(held.is_empty() && !forwarded);
        assert!(
            unpack_batch(state.clone()).is_ok(),
            "entry state must be a grouped batch"
        );
        for plat in [PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()] {
            let mut adopter = five_rank_shard(plat);
            adopter.install_entry(offer.clone()).unwrap();
            for i in 0..64 {
                let want = if i == 9 { -37 } else { i as i128 * 7 - 100 };
                assert_eq!(adopter.gthv().read_int(0, i).unwrap(), want);
            }
            assert!(adopter.owns_entry(0));
            assert!(adopter.whereabouts.is_empty(), "nothing to record");
        }
    }

    #[test]
    fn random_bytes_never_panic_or_overreserve_installing_entry_state() {
        // `EntryState.state` arrives in a wire frame: whatever it holds,
        // `install_entry` answers Ok or Err — never a panic, never a
        // reservation sized by a length prefix. Each offer comes under a
        // fresh ownership epoch, so none is skipped as a duplicate.
        let mut offer = populated_shard().pack_entry_state(0, 1).unwrap();
        let DsdMsg::EntryState { state, .. } = offer.clone() else {
            panic!("an offer is an EntryState");
        };
        let mut victim = five_rank_shard(PlatformSpec::linux_x86());
        let mut install = |victim: &mut HomeShard, bytes: Bytes| {
            if let DsdMsg::EntryState { epoch, state, .. } = &mut offer {
                (*epoch, *state) = (*epoch + 1, bytes);
            }
            victim.install_entry(offer.clone())
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
        let mut h = five_rank_shard(PlatformSpec::linux_x86());
        let request = frame(1, 0, 0, DsdMsg::HandoffRequest { shard: 0 });
        h.process(request).unwrap();
        let bounce = DsdMsg::ViewChange { shard: 0, epoch: 1 };
        assert_eq!(take(&mut h), [(1, 0, bounce)]);
        assert!(!h.fenced && matches!(h.standby, Standby::Solo));
    }

    #[test]
    fn a_relayed_handoff_promotes_the_shadow_once_and_is_confirmed_every_time() {
        // Endpoints: 0 the primary, 1 its standby (this shadow), 2 rank 1.
        let recorder = Recorder::enabled();
        let config = HomeConfig {
            participants: vec![1],
            directory: Directory::with_replicas(1, 1),
            standby: true,
            recorder: recorder.clone(),
            ..Default::default()
        };
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(gthv, config);
        let lock = DsdMsg::LockRequest { lock: 0, rank: 1 };
        h.on_replicate(2, 5, MsgKind::LockRequest as u16, lock.encode())
            .unwrap();
        let handoff = DsdMsg::HandoffRequest { shard: 0 };
        for _ in 0..2 {
            h.on_replicate(0, 0, MsgKind::HandoffRequest as u16, handoff.encode())
                .unwrap();
            let ack = DsdMsg::HandoffInstalled { shard: 0, epoch: 1 };
            assert_eq!(take(&mut h), [(0, 0, ack)]);
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
        // The replayed grant went nowhere (only the acks were sent);
        // promoted, the shadow answers a retransmission of it from the
        // reply cache the stream filled.
        h.dispatch(2, 5, lock, &Report::default(), OpCtx::default())
            .unwrap();
        let grant = take(&mut h);
        assert!(matches!(
            grant[..],
            [(2, 5, DsdMsg::LockGrant { lock: 0, .. })]
        ));
        assert_eq!(h.locks[0].holder, Some(1));
    }

    /// `msg` as endpoint `src` puts it on the wire to endpoint `dst`,
    /// enveloped as request `req_id`.
    fn frame(src: u32, dst: u32, req_id: u64, msg: DsdMsg) -> Message {
        wire(src, dst, msg.kind(), msg.encode_enveloped(req_id))
    }

    /// `payload`, of `kind`, on the wire from endpoint `src` to `dst`.
    fn wire(src: u32, dst: u32, kind: MsgKind, payload: Bytes) -> Message {
        let trace = None;
        Message {
            src,
            dst,
            kind,
            payload,
            trace,
        }
    }

    /// The sends in `h`'s outbox, decoded: endpoint, request id, message.
    fn sent(h: &HomeShard) -> Vec<(u32, u64, DsdMsg)> {
        let decode = |s: &Outgoing| {
            let (rid, msg) = DsdMsg::decode_enveloped(s.kind, s.payload.clone()).unwrap();
            (s.to, rid, msg)
        };
        h.outbox.iter().map(decode).collect()
    }

    /// [`sent`], emptying the outbox: for decisions taken outside a step.
    fn take(h: &mut HomeShard) -> Vec<(u32, u64, DsdMsg)> {
        let out = sent(h);
        h.outbox.clear();
        out
    }

    /// One step of `h` at `now`, and what it sent.
    fn step(h: &mut HomeShard, now: FabricInstant, input: Input) -> Vec<(u32, u64, DsdMsg)> {
        h.on(now, input).unwrap();
        sent(h)
    }

    #[test]
    fn after_every_participant_settled_the_linger_answers_from_the_same_tables() {
        // Frames that reach the home behind the last Join are answered
        // while it lingers after its shutdown broadcast.
        let mut h = populated_shard();
        h.linger = Duration::from_millis(50);
        assert!(matches!(
            take(&mut h)[..],
            [(2, 7, DsdMsg::LockGrant { .. })]
        ));
        let t = FabricInstant::from_micros(1_000);
        h.start(t).unwrap();
        let (mut got, mut to_one) = (Vec::new(), Vec::new());
        for (src, req_id, msg) in [
            (
                2,
                8,
                DsdMsg::Join {
                    rank: 2,
                    updates: UpdateBatch::default(),
                },
            ),
            (
                3,
                8,
                DsdMsg::Join {
                    rank: 3,
                    updates: UpdateBatch::default(),
                },
            ),
            (
                5,
                1,
                DsdMsg::Join {
                    rank: 5,
                    updates: UpdateBatch::default(),
                },
            ),
            (
                1,
                1,
                DsdMsg::Join {
                    rank: 1,
                    updates: UpdateBatch::default(),
                },
            ), // a duplicate
            (1, 2, DsdMsg::LockRequest { lock: 0, rank: 1 }),
            (4, 9, DsdMsg::LockRequest { lock: 0, rank: 4 }),
            (2, 0, DsdMsg::Heartbeat { rank: 2 }),
        ] {
            got.extend(step(&mut h, t, Input::Frame(frame(src, 0, req_id, msg))));
            let payloads = h.outbox.iter().filter(|s| s.to == 1);
            to_one.extend(payloads.map(|s| s.payload.clone()));
        }
        let linger = Stage::Retire {
            until: t + Duration::from_millis(50),
            authoritative: true,
        };
        assert_eq!(h.stage, linger);
        // Rank 1: the broadcast's reply to its Join, the same bytes again
        // for the duplicate, and Shutdown for the fresh request. Ranks 2,
        // 3 and 5 get the broadcast's; the dead rank is told so, under the
        // request id it sent; the heartbeat is answered by nothing.
        let lost = DsdMsg::WorkerLost {
            rank: 4,
            heard_ms: 0,
            lease_ms: 0,
        };
        let shutdown = |to, rid| (to, rid, DsdMsg::Shutdown);
        let want = [
            shutdown(1, 1),
            shutdown(2, 8),
            shutdown(3, 8),
            shutdown(5, 1),
            shutdown(1, 1),
            shutdown(1, 2),
            (4, 9, lost),
        ];
        assert_eq!(got, want);
        assert_eq!(to_one[0], to_one[1], "the cached reply, verbatim");
        // The linger ends at its deadline, authoritatively.
        let end = t + Duration::from_millis(50);
        assert!(step(&mut h, end, Input::Tick).is_empty());
        assert_eq!(
            h.stage,
            Stage::Done {
                authoritative: true
            }
        );
    }

    #[test]
    fn a_fenced_instance_redirects_every_client_frame_through_its_grace_period() {
        // Endpoint 5 deposes the shard as a promoted standby would, then
        // probes it as an admin; ranks 3 and 5 retransmit into it. An
        // entry move is in flight, so a client frame would be deferred if
        // the instance still served.
        let mut h = populated_shard();
        assert!(matches!(
            take(&mut h)[..],
            [(2, 7, DsdMsg::LockGrant { .. })]
        ));
        h.entry_handoff = Some(EntryHandoffState {
            entry: 0,
            admin_ep: 5,
            to_shard: 1,
            epoch: 3,
            offer: DsdMsg::EntryState {
                entry: 0,
                epoch: 3,
                held: Vec::new(),
                written: Vec::new(),
                forwarded: false,
                state: Bytes::new(),
            },
        });
        let t = FabricInstant::from_micros(1_000);
        h.start(t).unwrap();
        let depose = DsdMsg::Depose { shard: 0, epoch: 1 };
        let elsewhere = DsdMsg::EntryHandoff {
            entry: 0,
            to_shard: 0,
        };
        let mut got = Vec::new();
        for (src, req_id, msg) in [
            (5, 0, depose.clone()),
            (3, 9, DsdMsg::LockRequest { lock: 0, rank: 3 }),
            (5, 0, DsdMsg::Heartbeat { rank: 5 }),
            (5, 0, depose),
            (5, 0, elsewhere),
            (5, 0, DsdMsg::HandoffRequest { shard: 0 }),
        ] {
            got.extend(step(&mut h, t, Input::Frame(frame(src, 0, req_id, msg))));
        }
        let grace = Stage::Retire {
            until: t + Duration::from_millis(100),
            authoritative: false,
        };
        assert_eq!(h.stage, grace);
        let redirect = DsdMsg::ViewChange { shard: 0, epoch: 1 };
        let acked = DsdMsg::DeposeAck { shard: 0, epoch: 1 };
        let to_five = |msg: &DsdMsg| (5, 0, msg.clone());
        let want = [
            to_five(&acked),
            (3, 9, redirect.clone()),
            to_five(&redirect),
            to_five(&acked),
            to_five(&redirect),
            to_five(&redirect),
        ];
        assert_eq!(got, want);
        let end = t + Duration::from_millis(100);
        assert!(step(&mut h, end, Input::Tick).is_empty());
        assert_eq!(
            h.stage,
            Stage::Done {
                authoritative: false
            }
        );
    }

    /// Shard 1 of two, re-homing entry 1 (of `xs`, `ys`) to shard 0 when
    /// its one participant joins: the move is still in flight when the
    /// instance starts and finds every participant settled. Endpoints: 0
    /// the target shard, 1 this shard, 2 rank 1, 3 the admin.
    fn a_move_in_flight_past_the_last_join() -> (HomeShard, Recorder) {
        let def = xs_ys_def();
        let recorder = Recorder::enabled();
        let config = HomeConfig {
            participants: vec![1],
            shard: 1,
            directory: Directory::new(2),
            recorder: recorder.clone(),
            ..Default::default()
        };
        let gthv = GthvInstance::new(def, PlatformSpec::linux_x86());
        let mut h = HomeShard::new(gthv, config);
        h.init_with(|g| (0..8).for_each(|i| g.write_int(1, i, 10 + i as i128).unwrap()));
        h.on_entry_handoff(3, 1, 0).unwrap();
        let op = OpCtx::default();
        h.dispatch(
            2,
            1,
            DsdMsg::Join {
                rank: 1,
                updates: UpdateBatch::default(),
            },
            &Report::default(),
            op,
        )
        .unwrap();
        assert_eq!((h.pending, h.entry_handoff.is_some()), (0, true));
        (h, recorder)
    }

    /// Two entries, `xs` and `ys`, of eight ints each.
    fn xs_ys_def() -> GthvDef {
        let def = StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 8)
            .array("ys", ScalarKind::Int, 8)
            .build();
        GthvDef::new(def.unwrap()).unwrap()
    }

    fn count(recorder: &Recorder, name: &str) -> u64 {
        let snap = recorder.snapshot().unwrap();
        let row = snap.counters.iter().find(|(k, _)| k == name);
        row.map_or(0, |(_, v)| *v)
    }

    /// The virtual start of the move fixtures' runs.
    const T0: FabricInstant = FabricInstant::ZERO;

    #[test]
    fn a_move_acked_after_the_last_join_concludes_before_the_shutdown() {
        let (mut h, recorder) = a_move_in_flight_past_the_last_join();
        let offer = take(&mut h);
        assert!(matches!(
            offer[..],
            [(
                0,
                0,
                DsdMsg::EntryState {
                    entry: 1,
                    epoch: 1,
                    ..
                }
            )]
        ));
        h.start(T0).unwrap();
        let until = T0 + Duration::from_millis(500);
        assert_eq!(h.stage, Stage::Conclude { until });
        let ack = DsdMsg::EntryInstalled { entry: 1, epoch: 1 };
        let done = DsdMsg::EntryDone {
            entry: 1,
            to_shard: 0,
        };
        let got = step(&mut h, T0, Input::Frame(frame(0, 1, 0, ack)));
        assert_eq!(got, [(3, 0, done), (2, 1, DsdMsg::Shutdown)]);
        assert_eq!(
            h.stage,
            Stage::Done {
                authoritative: true
            }
        );
        let out = h.outcome(true);
        assert!(out.authoritative);
        assert_eq!(out.entry_overrides, [(1, 0, 1)]);
        assert_eq!(count(&recorder, "home.entries_rehomed"), 1);
        assert_eq!(count(&recorder, "home.entry_handoff_aborts"), 0);
    }

    #[test]
    fn a_move_the_target_never_acks_reverts_within_half_a_second() {
        let (mut h, recorder) = a_move_in_flight_past_the_last_join();
        let mut got = take(&mut h); // the offer at the move's start
        h.start(T0).unwrap();
        // Nothing arrives: tick at every instant the runner's wait ends.
        let mut now = T0;
        while !matches!(h.stage, Stage::Done { .. }) {
            now = h.wake(now).expect("a timed wait");
            got.extend(step(&mut h, now, Input::Tick));
        }
        // Offered at the start and again once a tick (10 ms), then
        // reverted at the deadline exactly; the admin is told nothing.
        assert_eq!(now, T0 + Duration::from_millis(500), "revert instant");
        assert_eq!(got.pop(), Some((2, 1, DsdMsg::Shutdown)));
        for (to, rid, offer) in &got {
            assert_eq!((*to, *rid), (0, 0));
            assert!(matches!(
                offer,
                DsdMsg::EntryState {
                    entry: 1,
                    epoch: 1,
                    ..
                }
            ));
        }
        assert_eq!(got.len(), 50, "offers");
        // The owner reverts at epoch + 1 and keeps the source's bytes.
        assert_eq!(
            h.stage,
            Stage::Done {
                authoritative: true
            }
        );
        let out = h.outcome(true);
        assert!(out.authoritative);
        assert_eq!(out.entry_overrides, [(1, 1, 2)]);
        for i in 0..8 {
            assert_eq!(out.gthv.read_int(1, i).unwrap(), 10 + i as i128);
        }
        assert_eq!(count(&recorder, "home.entry_handoff_aborts"), 1);
        assert_eq!(count(&recorder, "home.entries_rehomed"), 0);
    }

    /// One step of `h` at `now` on rank 1's heartbeat from endpoint 2,
    /// stamped as the directory wants, and what it sent.
    fn heartbeat(h: &mut HomeShard, now: FabricInstant) -> Vec<(u32, u64, DsdMsg)> {
        let beat = DsdMsg::Heartbeat { rank: 1 };
        let stamp = h.placement.directory().epoch_stamped(beat.kind());
        let payload = beat.encode_request(0, stamp.then_some(h.epoch), &Report::default());
        let frame = wire(2, h.me, beat.kind(), payload);
        step(h, now, Input::Frame(frame))
    }

    #[test]
    fn a_promoted_standby_deposes_at_most_once_a_tick_however_many_frames_arrive() {
        // Endpoints: 0 the primary, 1 this standby, 2 rank 1. A 400 ms
        // lease makes the tick 100 ms.
        let config = HomeConfig {
            participants: vec![1],
            lease: Some(Duration::from_millis(400)),
            directory: Directory::with_replicas(1, 1),
            standby: true,
            ..Default::default()
        };
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let mut h = HomeShard::new(gthv, config);
        h.start(T0).unwrap();
        let depose = DsdMsg::Depose { shard: 0, epoch: 1 };
        let is_depose = |(_, _, m): &(u32, u64, DsdMsg)| *m == depose;
        // A full lease of relay silence: it promotes and deposes at once.
        let promoted = T0 + Duration::from_millis(401);
        let sent = step(&mut h, promoted, Input::Tick);
        let at_once = sent.iter().filter(|s| is_depose(s)).count();
        assert!(h.serves_clients());
        // Twenty client frames in 95 ms, less than a tick: the round a
        // tick after the last one deposes once.
        let mut deposes = Vec::new();
        for i in 1..=20 {
            let now = promoted + Duration::from_millis(5 * i);
            let sent = heartbeat(&mut h, now);
            deposes.extend(sent.iter().filter(|s| is_depose(s)).map(|_| now));
        }
        assert_eq!(deposes, [promoted + h.tick()]);
        assert_eq!(at_once, 1);
        // Acknowledged, it owes nothing more.
        let ack = frame(0, 1, 0, DsdMsg::DeposeAck { shard: 0, epoch: 1 });
        let acked = promoted + Duration::from_millis(150);
        step(&mut h, acked, Input::Frame(ack));
        let later = promoted + Duration::from_millis(350);
        assert!(step(&mut h, later, Input::Tick).is_empty());
    }

    #[test]
    fn a_move_and_a_drain_resend_once_a_tick_while_frames_keep_arriving() {
        // A 400 ms lease makes the tick 100 ms. Endpoints: 0 shard 0 (the
        // move's target) or the primary, 1 shard 1 (the move's source) or
        // the standby, 2 rank 1, 3 the admin.
        let lease = Some(Duration::from_millis(400));
        let home = |directory, shard| {
            let config = HomeConfig {
                participants: vec![1],
                lease,
                shard,
                directory,
                ..Default::default()
            };
            HomeShard::new(
                GthvInstance::new(xs_ys_def(), PlatformSpec::linux_x86()),
                config,
            )
        };
        let is_offer: fn(&DsdMsg) -> bool = |m| matches!(m, DsdMsg::EntryState { entry: 1, .. });
        let is_relay: fn(&DsdMsg) -> bool = |m| {
            let relayed = MsgKind::HandoffRequest as u16;
            matches!(m, DsdMsg::Replicate { kind, .. } if *kind == relayed)
        };
        let mover = (
            home(Directory::new(2), 1),
            DsdMsg::EntryHandoff {
                entry: 1,
                to_shard: 0,
            },
        );
        let drainer = (
            home(Directory::with_replicas(1, 1), 0),
            DsdMsg::HandoffRequest { shard: 0 },
        );
        for ((mut h, ask), resent) in [(mover, is_offer), (drainer, is_relay)] {
            h.start(T0).unwrap();
            let mut at = Vec::new();
            let mut note = |now, sent: Vec<(u32, u64, DsdMsg)>| {
                at.extend(sent.iter().filter(|(_, _, m)| resent(m)).map(|_| now));
            };
            let me = h.me;
            note(T0, step(&mut h, T0, Input::Frame(frame(3, me, 0, ask))));
            // A client frame every 5 ms for 300 ms, never an idle turn.
            for i in 1..=60 {
                let now = T0 + Duration::from_millis(5 * i);
                note(now, heartbeat(&mut h, now));
            }
            let ms = |n| T0 + Duration::from_millis(n);
            assert_eq!(at, [ms(0), ms(100), ms(200), ms(300)]);
        }
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
            let (got, notices, _) = h.stale_updates_for(rank).unwrap();
            assert_eq!(got.frame(), want.frame(), "rank {rank} at seq {}", h.seq);
            assert!(notices.is_empty(), "rank {rank} at seq {}", h.seq);
        }
        let gthv = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        let config = HomeConfig {
            participants: vec![1, 2, 3],
            ..Default::default()
        };
        let mut h = HomeShard::new(gthv, config);
        h.init_with(|g| g.write_int(0, 0, 42).unwrap());
        // Rank 2 has read the whole entry and said so: it is sent, byte
        // for byte, what a reader that never said anything is sent.
        h.note_interest(2, &[elems(0, 40), elems(40, 24)]).unwrap();
        // Three writers in turn; rank 1 pulls often, 2 seldom, 3 rarely,
        // so their horizons sit at different depths of the log.
        for i in 0..4500u64 {
            let writer = 1 + (i % 3) as u32;
            assert!(h
                .absorb(writer, &one_elem(i * 5 % 64, i as i128), &[])
                .unwrap());
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
                .map(|e| set.spans().any(|s| s.0 <= e && e < s.1))
                .collect();
            let spans = set.spans().count();
            let interest = BTreeMap::from([(0, set)]);
            let stale: Vec<UpdateRange> = (0..next(40))
                .map(|_| {
                    let first = next(N);
                    UpdateRange::new(next(2) as u32, first, (1 + next(6)).min(N - first))
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
        let mut h = five_rank_shard(PlatformSpec::linux_x86());
        h.init_with(|_| {});
        for rank in [1, 2] {
            let _ = h.stale_updates_for(rank).unwrap(); // the initial pull
        }
        h.note_interest(1, &[elems(0, 16)]).unwrap();
        for first in (13..64).step_by(2) {
            assert!(h.absorb(2, &one_elem(first, first as i128), &[]).unwrap());
        }
        let (ups, notices, _) = h.stale_updates_for(1).unwrap();
        assert_eq!(carried(&ups), [(13, 14), (15, 16)]);
        assert_eq!(notices, [elems(17, 47)]);
        // The writer itself is owed nothing, and nothing is owed twice.
        let (ups, notices, _) = h.stale_updates_for(2).unwrap();
        assert!(ups.is_empty() && notices.is_empty());
        let (ups, notices, _) = h.stale_updates_for(1).unwrap();
        assert!(ups.is_empty() && notices.is_empty());
    }

    /// A shard over `tiny_def` with participants `ranks` and one barrier,
    /// element `i` holding `100 + i`, past the initial barrier; rank `r`
    /// talks to it from endpoint `r`.
    fn shard_of(ranks: &[u32], recorder: Recorder) -> HomeShard {
        let config = HomeConfig {
            participants: ranks.to_vec(),
            recorder,
            ..Default::default()
        };
        let plat = PlatformSpec::solaris_sparc();
        let mut h = HomeShard::new(GthvInstance::new(tiny_def(), plat), config);
        h.init_with(|g| {
            for i in 0..64 {
                g.write_int(0, i, 100 + i as i128).unwrap();
            }
        });
        let (&last, first) = ranks.split_last().expect("a participant");
        for &rank in first {
            assert!(enter(&mut h, rank, 1, UpdateBatch::default(), &[], &[]).is_empty());
        }
        let out = enter(&mut h, last, 1, UpdateBatch::default(), &[], &[]);
        assert_eq!(out.len(), ranks.len());
        // Nobody has said what it reads: each ships all it writes.
        for (_, _, release) in out {
            let DsdMsg::BarrierRelease { ship, .. } = release else {
                panic!("a release, got {release:?}");
            };
            assert_eq!(ship, [elems(0, 64)]);
        }
        h
    }

    #[test]
    fn readers_sent_the_same_release_share_one_message() {
        // The initial pull: both readers enter under request id 1, have
        // read nothing and are sent the whole array.
        let config = HomeConfig {
            participants: vec![1, 2],
            ..Default::default()
        };
        let plat = PlatformSpec::solaris_sparc();
        let mut h = HomeShard::new(GthvInstance::new(tiny_def(), plat), config);
        h.init_with(|g| g.write_int(0, 7, 7).unwrap());
        for rank in [1, 2] {
            let msg = DsdMsg::BarrierEnter {
                barrier: 0,
                rank,
                updates: UpdateBatch::default(),
            };
            h.dispatch(rank, 1, msg, &Report::default(), OpCtx::default())
                .unwrap();
        }
        let [one, two] = &h.outbox[..] else {
            panic!("two releases, got {}", h.outbox.len());
        };
        assert_eq!((one.to, two.to), (1, 2));
        assert_eq!(one.payload.as_ptr(), two.payload.as_ptr(), "one buffer");
        // Each reader is still booked what it was sent.
        assert_eq!(h.costs.updates_sent, 2);
        assert_eq!(h.costs.bytes_sent, 2 * 64 * 4);
        assert!(h.alike.is_none(), "nothing is shared past the release");
        let sent = take(&mut h);
        assert_eq!(sent[0].2, sent[1].2);
    }

    /// `values` at the elements of `tiny_def`'s array from `first`, as a
    /// writer on Linux frames them.
    fn elems_batch(first: u64, values: &[i128]) -> UpdateBatch {
        let mut src = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
        for (i, v) in (first..).zip(values) {
            src.write_int(0, i, *v).unwrap();
        }
        extract_updates(&src, &[elems(first, values.len() as u64)]).unwrap()
    }

    /// Rank `rank` enters barrier 0 as request `req_id` with `updates`,
    /// newly reading `read` and holding `held`; what the step sent.
    fn enter(
        h: &mut HomeShard,
        rank: u32,
        req_id: u64,
        updates: UpdateBatch,
        read: &[UpdateRange],
        held: &[UpdateRange],
    ) -> Vec<(u32, u64, DsdMsg)> {
        let report = Report {
            interest: read.to_vec(),
            held: held.to_vec(),
            ..Report::default()
        };
        let msg = DsdMsg::BarrierEnter {
            barrier: 0,
            rank,
            updates,
        };
        h.dispatch(rank, req_id, msg, &report, OpCtx::default())
            .unwrap();
        take(h)
    }

    /// The authoritative values of `range` of the array.
    fn values(h: &HomeShard, range: std::ops::Range<u64>) -> Vec<i128> {
        range.map(|i| h.gthv().read_int(0, i).unwrap()).collect()
    }

    /// The element ranges `updates` carries.
    fn carried(updates: &UpdateBatch) -> Vec<(u64, u64)> {
        let run = |u: hdsm_tags::wire::UpdateView<'_>| (u.elem_offset, u.elem_offset + u.count);
        updates.groups().flat_map(|g| g.runs()).map(run).collect()
    }

    /// What a shard records of one entry at one writer (DESIGN §5 rules
    /// 5–9): the spans held there, those of them a `HeldFetch` asked for
    /// and has not brought, what the writer may not hold again before it
    /// pulls, and whether the entry ships whole.
    #[derive(Debug, Default, PartialEq)]
    struct Recorded {
        held: Vec<(u64, u64)>,
        asked: Vec<(u64, u64)>,
        gone: Vec<(u64, u64)>,
        forwarded: bool,
    }

    /// What `h` records of `entry` at writer `w`.
    fn recorded(h: &HomeShard, entry: u32, w: u32) -> Recorded {
        let at = h.whereabouts.get(&entry);
        let held = at.and_then(|at| at.held.get(&w));
        let asked = h
            .spans_of(|at| &at.asked)
            .filter(|(at, r)| *at == w && r.entry == entry);
        let gone = h.written_since(w, &[span(entry, 0, u64::MAX)]);
        Recorded {
            held: held.map_or_else(Vec::new, |set| set.spans().collect()),
            asked: asked.map(|(_, r)| (r.first, r.end())).collect(),
            gone: gone.spans().collect(),
            forwarded: at.is_some_and(|at| at.forwarded),
        }
    }

    /// Rank 1 wrote element 5 and 10..20, ships 5 and holds 10..20; rank
    /// 2 has read every element. What the release to rank 2 carries.
    fn rank_1_holds_10_to_20(h: &mut HomeShard) -> (UpdateBatch, Vec<UpdateRange>) {
        let out = enter(h, 1, 2, elems_batch(5, &[-5]), &[], &[elems(10, 10)]);
        assert!(out.is_empty());
        let out = enter(h, 2, 2, UpdateBatch::default(), &[elems(0, 64)], &[]);
        let mut to_2 = None;
        for (ep, _, release) in out {
            let DsdMsg::BarrierRelease {
                updates,
                ship,
                notices,
                ..
            } = release
            else {
                panic!("a release, got {release:?}");
            };
            match ep {
                // Rank 2 reads everything: rank 1 ships all it writes; rank
                // 1 never said, so rank 2 does too.
                1 | 2 => assert_eq!(ship, [elems(0, 64)]),
                _ => unreachable!(),
            }
            if ep == 2 {
                to_2 = Some((updates, notices));
            }
        }
        to_2.expect("rank 2 released")
    }

    #[test]
    fn a_held_range_inside_a_readers_interest_goes_out_as_a_notice_never_as_bytes() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        let sent = h.costs.bytes_sent;
        let (updates, notices) = rank_1_holds_10_to_20(&mut h);
        assert_eq!(carried(&updates), [(5, 6)]);
        assert_eq!(notices, [elems(10, 10)]);
        assert_eq!(h.costs.bytes_sent - sent, 4, "the one shipped element");
        assert_eq!(recorded(&h, 0, 1).held, [(10, 20)]);
        // The authoritative copy still has what it had: the bytes are at
        // rank 1.
        assert_eq!(values(&h, 9..11), [109, 110]);
        // A full refresh (a cold reader) notices the held range too.
        h.peers.get_mut(&2).unwrap().seen = 0;
        h.log_floor = h.log_floor.max(1);
        let (updates, notices, _) = h.stale_updates_for(2).unwrap();
        assert_eq!(carried(&updates), [(0, 10), (20, 64)]);
        assert_eq!(notices, [elems(10, 10)]);
        // And nothing rank 1 holds is noticed to rank 1 itself.
        h.peers.get_mut(&1).unwrap().seen = 0;
        let (updates, notices, _) = h.stale_updates_for(1).unwrap();
        assert_eq!(carried(&updates), [(0, 10), (20, 64)]);
        assert!(notices.is_empty(), "{notices:?}");
    }

    #[test]
    fn a_shipped_write_supersedes_a_held_row() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        rank_1_holds_10_to_20(&mut h);
        // Rank 2 writes element 12 in the next phase and ships it; rank 1
        // names its span 10..20 again (it rewrote 10 and 11).
        assert!(enter(&mut h, 2, 3, elems_batch(12, &[-12]), &[], &[]).is_empty());
        assert_eq!(recorded(&h, 0, 1).held, [(10, 12), (13, 20)]);
        assert_eq!(recorded(&h, 0, 1).gone, [(12, 13)]);
        let out = enter(&mut h, 1, 3, UpdateBatch::default(), &[], &[elems(10, 10)]);
        // Element 12 is not held at rank 1 again: its copy is stale.
        assert_eq!(recorded(&h, 0, 1).held, [(10, 12), (13, 20)]);
        assert_eq!(values(&h, 12..13), [-12]);
        // Rank 1 never said what it reads, so the write comes to it whole,
        // and once it has pulled it, nothing of its hold is superseded.
        let to_1 = out.iter().find(|(ep, ..)| *ep == 1).expect("released");
        let DsdMsg::BarrierRelease { updates, .. } = &to_1.2 else {
            panic!("a release, got {to_1:?}");
        };
        assert_eq!(carried(updates), [(12, 13)]);
        assert!((1..=2).all(|w| recorded(&h, 0, w).gone.is_empty()));
    }

    #[test]
    fn held_data_applies_only_what_is_still_held_at_its_sender_and_gets_no_reply() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        rank_1_holds_10_to_20(&mut h);
        assert!(enter(&mut h, 2, 3, elems_batch(12, &[-12]), &[], &[]).is_empty());
        let held_data = |h: &mut HomeShard, rank, base: i128| {
            let values: Vec<i128> = (10..20).map(|i| base + i).collect();
            let updates = elems_batch(10, &values);
            let after = h.peers[&rank].last_req;
            let msg = DsdMsg::HeldData {
                rank,
                after,
                updates,
            };
            h.dispatch(rank, 0, msg, &Report::default(), OpCtx::default())
                .unwrap();
            take(h)
        };
        // Rank 2 holds none of it: nothing lands.
        assert!(held_data(&mut h, 2, 300).is_empty());
        assert_eq!(values(&h, 10..12), [110, 111]);
        // Bytes rank 1 served before its last request, overtaken by it on
        // the wire: that request could have held them anew, so they are
        // not applied either.
        let stale = DsdMsg::HeldData {
            rank: 1,
            after: h.peers[&1].last_req - 1,
            updates: elems_batch(10, &[1; 10]),
        };
        h.dispatch(1, 0, stale, &Report::default(), OpCtx::default())
            .unwrap();
        assert!(take(&mut h).is_empty());
        assert_eq!(values(&h, 10..12), [110, 111]);
        // Rank 1's bytes land where they are still held at it; element
        // 12, superseded, keeps rank 2's write. No reply either way.
        assert!(held_data(&mut h, 1, 700).is_empty());
        let mut want: Vec<i128> = (10..20).map(|i| 700 + i).collect();
        want[2] = -12;
        assert_eq!(values(&h, 10..20), want);
        let held = |w| recorded(&h, 0, w).held;
        assert!(
            (1..=2).all(|w| held(w).is_empty()),
            "nothing is held any more"
        );
        // Again: nothing is held there now, so nothing lands.
        assert!(held_data(&mut h, 1, 900).is_empty());
        assert_eq!(values(&h, 10..20), want);
    }

    #[test]
    fn a_re_homed_held_part_is_dropped_without_a_reply() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        rank_1_holds_10_to_20(&mut h);
        // The entry moved to shard 3: the hold went with it, and bytes that
        // reach this shard for it are not applied here.
        h.placement.adopt(0, 3, 1);
        let updates = elems_batch(10, &[7; 10]);
        let after = h.peers[&1].last_req;
        let msg = DsdMsg::HeldData {
            rank: 1,
            after,
            updates,
        };
        h.dispatch(1, 0, msg, &Report::default(), OpCtx::default())
            .unwrap();
        assert!(take(&mut h).is_empty());
        assert_eq!(values(&h, 10..12), [110, 111]);
        // Nor does the writer, joined, keep this shard serving for it.
        h.settle(1, Life::Joined);
        assert_eq!(h.gathering(), None);
        h.placement.adopt(0, 0, 2);
        assert_eq!(h.gathering(), Some(1), "the hold is this shard's again");
    }

    #[test]
    fn a_joined_writers_hold_that_never_comes_fails_the_shard_after_two_leases() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        h.lease = Some(Duration::from_millis(400));
        rank_1_holds_10_to_20(&mut h);
        let t0 = FabricInstant::from_micros(1_000);
        h.start(t0).unwrap();
        let join = |rank| {
            let updates = UpdateBatch::default();
            Input::Frame(frame(rank, 0, 3, DsdMsg::Join { rank, updates }))
        };
        assert!(step(&mut h, t0, join(2)).is_empty());
        // Rank 1 joins without what it holds: the shard asks for it and
        // serves on.
        let asked = DsdMsg::HeldFetch {
            ranges: vec![elems(10, 10)],
        };
        assert_eq!(step(&mut h, t0, join(1)), [(1, 0, asked.clone())]);
        // Only ticks follow. Each asks again, until two leases have gone.
        let mut now = t0;
        let err = loop {
            now = now + h.tick();
            match h.on(now, Input::Tick) {
                Ok(()) => assert_eq!(sent(&h), [(1, 0, asked.clone())]),
                Err(e) => break e,
            }
        };
        let waited = now.saturating_since(t0);
        assert!(waited > Duration::from_millis(800) && waited <= Duration::from_millis(900));
        let HomeError::NotGathered(writer, spans) = err else {
            panic!("the gather's error, got {err:?}");
        };
        assert_eq!((writer, spans), (1, vec![elems(10, 10)]));
    }

    #[test]
    fn a_fetch_of_a_held_span_is_forwarded_once_and_answered_when_the_bytes_arrive() {
        let recorder = Recorder::enabled();
        let mut h = shard_of(&[1, 2], recorder.clone());
        rank_1_holds_10_to_20(&mut h);
        // Rank 2 fetches element 15; the shard asks rank 1 for its whole
        // span and answers nobody yet.
        let fetch = |ranges| DsdMsg::RangeFetch { rank: 2, ranges };
        let op = OpCtx::default();
        h.dispatch(2, 3, fetch(vec![elems(15, 1)]), &Report::default(), op)
            .unwrap();
        let asked = DsdMsg::HeldFetch {
            ranges: vec![elems(10, 10)],
        };
        assert_eq!(take(&mut h), [(1, 0, asked.clone())]);
        // Its retransmission asks nothing again.
        h.dispatch(2, 3, fetch(vec![elems(15, 1)]), &Report::default(), op)
            .unwrap();
        assert!(take(&mut h).is_empty());
        assert_eq!(count(&recorder, "home.held_forwards"), 1);
        // A tick (10 ms) later, with nothing arrived, it is asked again.
        h.duties().unwrap();
        assert!(take(&mut h).is_empty(), "not yet");
        h.now = h.now + h.tick();
        h.duties().unwrap();
        assert_eq!(take(&mut h), [(1, 0, asked)]);
        // The bytes arrive: the fetch is answered from the shard's copy.
        let values: Vec<i128> = (10..20).map(|i| 700 + i).collect();
        let updates = elems_batch(10, &values);
        let after = h.peers[&1].last_req;
        let msg = DsdMsg::HeldData {
            rank: 1,
            after,
            updates,
        };
        h.dispatch(1, 0, msg, &Report::default(), op).unwrap();
        let [(
            2,
            3,
            DsdMsg::UpdateBatch {
                updates, notices, ..
            },
        )] = &take(&mut h)[..]
        else {
            panic!("the fetch is answered");
        };
        assert!(notices.is_empty());
        assert_eq!(carried(updates), [(15, 16)]);
        assert_eq!(h.gthv().read_int(0, 15).unwrap(), 715);
        assert_eq!(count(&recorder, "home.held_forwards"), 1);
        assert!(recorded(&h, 0, 1).asked.is_empty() && h.deferred.is_empty());
    }

    #[test]
    fn a_span_asked_for_stays_asked_when_its_writer_names_it_again() {
        let recorder = Recorder::enabled();
        let mut h = shard_of(&[1, 2], recorder.clone());
        rank_1_holds_10_to_20(&mut h);
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(15, 1)],
        };
        h.dispatch(2, 3, fetch, &Report::default(), OpCtx::default())
            .unwrap();
        let [(1, 0, DsdMsg::HeldFetch { .. })] = &take(&mut h)[..] else {
            panic!("the fetch is forwarded");
        };
        // Rank 1 enters the next barrier naming the same span: it is still
        // asked for, so the waiting fetch asks nothing again.
        assert!(enter(&mut h, 1, 3, UpdateBatch::default(), &[], &[elems(10, 10)]).is_empty());
        assert_eq!(recorded(&h, 0, 1).asked, [(10, 20)]);
        assert_eq!(count(&recorder, "home.held_forwards"), 1);
    }

    #[test]
    fn an_entry_a_fetch_was_forwarded_for_ships_whole_from_the_next_release() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        let ships = |out: Vec<(u32, u64, DsdMsg)>| -> Vec<(u32, Vec<UpdateRange>)> {
            let mut ships: Vec<_> = out
                .into_iter()
                .map(|(ep, _, release)| match release {
                    DsdMsg::BarrierRelease { ship, .. } => (ep, ship),
                    other => panic!("a release, got {other:?}"),
                })
                .collect();
            ships.sort_by_key(|(ep, _)| *ep);
            ships
        };
        // Each reads one end of the array: each ships what the other reads.
        assert!(enter(&mut h, 1, 2, UpdateBatch::default(), &[elems(0, 4)], &[]).is_empty());
        let out = enter(&mut h, 2, 2, UpdateBatch::default(), &[elems(60, 4)], &[]);
        assert_eq!(
            ships(out),
            [(1, vec![elems(60, 4)]), (2, vec![elems(0, 4)])]
        );
        // Rank 1 holds 10..20; rank 2 then reads element 15, which it never
        // read before: the fetch is forwarded.
        assert!(enter(&mut h, 1, 3, UpdateBatch::default(), &[], &[elems(10, 10)]).is_empty());
        let out = enter(&mut h, 2, 3, UpdateBatch::default(), &[], &[]);
        assert_eq!(
            ships(out),
            [(1, vec![elems(60, 4)]), (2, vec![elems(0, 4)])]
        );
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(15, 1)],
        };
        h.dispatch(2, 4, fetch, &Report::default(), OpCtx::default())
            .unwrap();
        let asked = DsdMsg::HeldFetch {
            ranges: vec![elems(10, 10)],
        };
        assert_eq!(take(&mut h), [(1, 0, asked)]);
        // What is read of the entry moves: from the next release on, both
        // writers ship all of it, whatever the other reported.
        let msg = DsdMsg::HeldData {
            rank: 1,
            after: h.peers[&1].last_req,
            updates: elems_batch(10, &[7; 10]),
        };
        h.dispatch(1, 0, msg, &Report::default(), OpCtx::default())
            .unwrap();
        assert_eq!(take(&mut h).len(), 1, "the fetch is answered");
        assert!(enter(&mut h, 1, 4, UpdateBatch::default(), &[], &[]).is_empty());
        let out = enter(&mut h, 2, 5, UpdateBatch::default(), &[], &[]);
        assert_eq!(
            ships(out),
            [(1, vec![elems(0, 64)]), (2, vec![elems(0, 64)])]
        );
    }

    #[test]
    fn an_adopted_entry_a_fetch_was_forwarded_for_ships_whole_at_its_new_owner() {
        let mut src = shard_of(&[1, 2], Recorder::disabled());
        rank_1_holds_10_to_20(&mut src);
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(15, 1)],
        };
        src.dispatch(2, 3, fetch, &Report::default(), OpCtx::default())
            .unwrap();
        let [(1, 0, DsdMsg::HeldFetch { .. })] = &take(&mut src)[..] else {
            panic!("the fetch is forwarded");
        };
        // At the target each reads one end of the array, so each would ship
        // only what the other reads.
        let mut dst = shard_of(&[1, 2], Recorder::disabled());
        assert!(enter(&mut dst, 1, 2, UpdateBatch::default(), &[elems(0, 4)], &[]).is_empty());
        enter(&mut dst, 2, 2, UpdateBatch::default(), &[elems(60, 4)], &[]);
        assert_eq!(dst.ship_for(1), [elems(60, 4)]);
        // The entry moves with its mark: it ships whole there too.
        dst.install_entry(src.pack_entry_state(0, 1).unwrap())
            .unwrap();
        assert!(recorded(&dst, 0, 1).forwarded);
        assert_eq!(dst.ship_for(1), [elems(0, 64)]);
        assert_eq!(dst.ship_for(2), [elems(0, 64)]);
    }

    /// Rank `rank`'s entry to barrier 0 as a frame, holding `held`.
    fn entry_frame(rank: u32, req_id: u64, held: &[UpdateRange]) -> Message {
        let updates = UpdateBatch::default();
        let msg = DsdMsg::BarrierEnter {
            barrier: 0,
            rank,
            updates,
        };
        request(rank, req_id, msg, held)
    }

    /// Rank `rank`'s request `msg` as a frame from its endpoint `rank`,
    /// holding `held`.
    fn request(rank: u32, req_id: u64, msg: DsdMsg, held: &[UpdateRange]) -> Message {
        let report = Report {
            held: held.to_vec(),
            ..Report::default()
        };
        wire(
            rank,
            0,
            msg.kind(),
            msg.encode_request(req_id, None, &report),
        )
    }

    /// `shadow` replays what `h` relayed; `h`'s other sends.
    fn replay(h: &mut HomeShard, shadow: &mut HomeShard) -> Vec<(u32, u64, DsdMsg)> {
        let mut rest = Vec::new();
        for (to, rid, msg) in take(h) {
            match msg {
                DsdMsg::Replicate {
                    src_ep,
                    req_id,
                    kind,
                    body,
                } => shadow.on_replicate(src_ep, req_id, kind, body).unwrap(),
                msg => rest.push((to, rid, msg)),
            }
        }
        rest
    }

    /// A primary and its shadow, which replayed the same requests: rank 1
    /// holds 10..20 at both.
    fn primary_and_shadow() -> [HomeShard; 2] {
        let [mut h, mut shadow] = [0; 2].map(|_| shard_of(&[1, 2], Recorder::disabled()));
        rank_1_holds_10_to_20(&mut h);
        rank_1_holds_10_to_20(&mut shadow);
        h.standby = Standby::Primary {
            replica_ep: 9,
            drain: None,
        };
        shadow.standby = Standby::Shadow { primary_ep: 0 };
        [h, shadow]
    }

    #[test]
    fn a_shadows_round_sends_only_its_beat() {
        // Rank 1 joins still holding 10..20: the primary asks it for them,
        // and its shadow, replaying the join, records them asked.
        let [mut h, mut shadow] = primary_and_shadow();
        let join = DsdMsg::Join {
            rank: 1,
            updates: UpdateBatch::default(),
        };
        h.process(request(1, 3, join, &[])).unwrap();
        let [(1, 0, DsdMsg::HeldFetch { .. })] = &replay(&mut h, &mut shadow)[..] else {
            panic!("the primary asks the joined writer");
        };
        assert_eq!(recorded(&shadow, 0, 1).asked, [(10, 20)]);
        // A tick on, the shadow's round beats its primary and asks nobody.
        // The mark stays: promoted, it asks.
        let (beat, now) = (DsdMsg::ReplicaBeat { shard: 0 }, shadow.now + shadow.tick());
        assert_eq!(step(&mut shadow, now, Input::Tick), [(0, 0, beat)]);
        assert_eq!(recorded(&shadow, 0, 1).asked, [(10, 20)]);
    }

    #[test]
    fn a_shadow_replays_a_forwarded_fetch_as_its_primary_took_it() {
        // Rank 2 fetches element 15, which rank 1 holds: the primary defers
        // the fetch, asks rank 1 and marks the entry to ship whole. Its
        // shadow, promoted, must know all three.
        let [mut h, mut shadow] = primary_and_shadow();
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(15, 1)],
        };
        h.process(request(2, 3, fetch, &[])).unwrap();
        let [(1, 0, DsdMsg::HeldFetch { .. })] = &replay(&mut h, &mut shadow)[..] else {
            panic!("the fetch is forwarded");
        };
        assert!(recorded(&h, 0, 1).forwarded);
        for w in [1, 2] {
            assert_eq!(recorded(&shadow, 0, w), recorded(&h, 0, w), "writer {w}");
        }
        assert_eq!(shadow.deferred, h.deferred);
    }

    #[test]
    fn what_another_wrote_since_a_writers_pull_is_not_held_at_it_across_a_move_and_an_abort() {
        // The source, its shadow, which replayed the same requests, and
        // the target. Rank 2 ships element 12 before rank 1 pulls.
        let [mut src, mut shadow] = primary_and_shadow();
        let mut dst = shard_of(&[1, 2], Recorder::disabled());
        for h in [&mut src, &mut shadow] {
            assert!(enter(h, 2, 3, elems_batch(12, &[-12]), &[], &[]).is_empty());
        }
        // The entry moves, which purges its log rows, and comes back: the
        // shadow replays both flips.
        src.move_entry(0, 1, 1);
        let offer = src.pack_entry_state(0, 1).unwrap();
        dst.install_entry(offer.clone()).unwrap();
        src.entry_handoff = Some(EntryHandoffState {
            entry: 0,
            admin_ep: 9,
            to_shard: 1,
            epoch: 1,
            offer,
        });
        src.abort_entry_handoff().unwrap();
        assert!(replay(&mut src, &mut shadow).is_empty());
        assert!(src.owns_entry(0) && shadow.owns_entry(0));
        // On every shard rank 1 names 10..20 before it has pulled there,
        // with rank 2 waiting in the barrier, and 12 is not held at it.
        // Once it has pulled, it holds 12 afresh.
        let held = |h: &HomeShard| recorded(h, 0, 1).held;
        enter(&mut dst, 2, 2, UpdateBatch::default(), &[], &[]);
        enter(
            &mut dst,
            1,
            2,
            UpdateBatch::default(),
            &[],
            &[elems(10, 10)],
        );
        assert_eq!(held(&dst), [(10, 12), (13, 20)]);
        enter(&mut dst, 2, 3, UpdateBatch::default(), &[], &[]);
        enter(&mut dst, 1, 3, UpdateBatch::default(), &[], &[elems(12, 1)]);
        assert_eq!(held(&dst), [(10, 20)]);
        src.process(entry_frame(1, 3, &[elems(10, 10)])).unwrap();
        replay(&mut src, &mut shadow);
        assert_eq!([held(&src), held(&shadow)], [[(10, 12), (13, 20)]; 2]);
        src.process(entry_frame(2, 4, &[])).unwrap();
        src.process(entry_frame(1, 4, &[elems(12, 1)])).unwrap();
        replay(&mut src, &mut shadow);
        assert_eq!([held(&src), held(&shadow)], [[(10, 20)]; 2]);
    }

    #[test]
    fn a_fetch_waiting_on_a_dead_writer_fails_with_worker_lost() {
        let mut h = shard_of(&[1, 2], Recorder::disabled());
        rank_1_holds_10_to_20(&mut h);
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(12, 2)],
        };
        h.dispatch(2, 3, fetch, &Report::default(), OpCtx::default())
            .unwrap();
        take(&mut h);
        h.declare_dead(1).unwrap();
        let [(2, 3, DsdMsg::WorkerLost { rank: 1, .. })] = &take(&mut h)[..] else {
            panic!("the fetch fails");
        };
        assert!(recorded(&h, 0, 1).asked.is_empty() && h.deferred.is_empty());
        assert!(!h.owes(), "nothing is asked of the dead");
    }

    #[test]
    fn a_held_row_outside_the_index_table_is_a_violation() {
        let mut h = five_rank_shard(PlatformSpec::linux_x86());
        let wild = [elems(60, 5), elems(u64::MAX, 2), UpdateRange::new(9, 0, 1)];
        let enter = |barrier| DsdMsg::BarrierEnter {
            barrier,
            rank: 2,
            updates: UpdateBatch::default(),
        };
        for (req_id, row) in (1..).zip(wild) {
            let report = Report {
                interest: Vec::new(),
                held: vec![row],
                ..Report::default()
            };
            let res = h.dispatch(2, req_id, enter(0), &report, OpCtx::default());
            assert!(matches!(res, Err(HomeError::Violation(_))), "{row:?}");
            assert!(recorded(&h, 0, 2).held.is_empty() && h.barriers[0].entered.is_empty());
        }
        // Held rows ride behind a barrier entry and nothing else.
        let report = Report {
            interest: Vec::new(),
            held: vec![elems(0, 4)],
            ..Report::default()
        };
        let lock = DsdMsg::LockRequest { lock: 0, rank: 2 };
        let res = h.dispatch(2, 9, lock, &report, OpCtx::default());
        assert!(matches!(res, Err(HomeError::Violation(_))));
        assert!(recorded(&h, 0, 2).held.is_empty());
    }

    /// A per-element model of DESIGN §5 rules 5–8 on entry 0 of a shard
    /// with writers 1, 2 and 3, beside the shard it checks.
    struct Oracle {
        h: HomeShard,
        /// Who holds each element; `None`: current at the shard.
        holder: [Option<u32>; 64],
        /// Per writer: elements a later write took from its hold since it
        /// last pulled (rule 6).
        superseded: [[bool; 64]; 4],
        /// Per writer: elements another wrote since it last pulled.
        written: [[bool; 64]; 4],
        /// The authoritative values.
        values: [i128; 64],
        entered: Vec<u32>,
        dead: Option<u32>,
        req: [u64; 4],
        /// Fetches waiting for held bytes, in arrival order.
        waiting: Vec<(u32, std::ops::Range<u64>)>,
        /// `HeldFetch` spans asked since the last tick that are still a
        /// whole held span of their writer.
        asked: Vec<(u32, std::ops::Range<u64>)>,
        fresh: i128,
    }

    /// What a waiting fetch is answered with.
    enum Answer {
        Bytes(std::ops::Range<u64>),
        Lost(u32),
    }

    impl Oracle {
        fn new() -> Oracle {
            Oracle {
                h: shard_of(&[1, 2, 3], Recorder::disabled()),
                holder: [None; 64],
                superseded: [[false; 64]; 4],
                written: [[false; 64]; 4],
                values: std::array::from_fn(|i| 100 + i as i128),
                entered: Vec::new(),
                dead: None,
                req: [1; 4],
                waiting: Vec::new(),
                asked: Vec::new(),
                fresh: 1000,
            }
        }

        /// Rank `rank` sends `msg` as its next request (`HeldData` as
        /// request 0), holding `held`; what the step sent.
        fn request(
            &mut self,
            rank: u32,
            msg: DsdMsg,
            held: &[UpdateRange],
        ) -> Vec<(u32, u64, DsdMsg)> {
            let req_id = match msg {
                DsdMsg::HeldData { .. } => 0,
                _ => {
                    self.req[rank as usize] += 1;
                    self.req[rank as usize]
                }
            };
            let report = Report {
                interest: Vec::new(),
                held: held.to_vec(),
                ..Report::default()
            };
            let op = OpCtx::default();
            self.h.dispatch(rank, req_id, msg, &report, op).unwrap();
            take(&mut self.h)
        }

        /// `v` of new values for `range`.
        fn fresh_values(&mut self, range: std::ops::Range<u64>) -> Vec<i128> {
            range
                .map(|_| {
                    self.fresh += 1;
                    self.fresh
                })
                .collect()
        }

        /// `by` wrote element `e` and the shard recorded it.
        fn wrote(&mut self, by: u32, e: usize) {
            for w in (1..=3).filter(|&w| w != by) {
                self.written[w as usize][e] = true;
            }
        }

        /// A write by `by` makes element `e` current at `to` (`None`: the
        /// shard): out of any other writer's hold, where it is superseded.
        fn give(&mut self, e: usize, by: u32, to: Option<u32>) {
            if let Some(w) = self.holder[e].filter(|&w| w != by) {
                self.superseded[w as usize][e] = true;
            }
            self.holder[e] = to;
        }

        fn pulled(&mut self, rank: u32) {
            self.superseded[rank as usize] = [false; 64];
            self.written[rank as usize] = [false; 64];
        }

        fn ship(&mut self, rank: u32, range: std::ops::Range<u64>) {
            let vals = self.fresh_values(range.clone());
            let updates = elems_batch(range.start, &vals);
            let out = self.request(rank, DsdMsg::UpdateFlush { rank, updates }, &[]);
            for (e, v) in range.zip(vals) {
                let e = e as usize;
                self.values[e] = v;
                self.give(e, rank, None);
                self.wrote(rank, e);
            }
            self.check(out, vec![(rank, MsgKind::Ack)])
        }

        /// Rank `rank` names the elements of `range` at `stride` held
        /// behind a barrier entry, one row. A race-free writer never names
        /// an element another wrote since it last pulled but did not take
        /// from its hold: the name stops short of the first.
        fn hold(&mut self, rank: u32, range: std::ops::Range<u64>, stride: u64) {
            let r = rank as usize;
            let elems: Vec<usize> = range.step_by(stride as usize).map(|e| e as usize).collect();
            let ours = |e: &usize| !self.written[r][*e] || self.superseded[r][*e];
            let n = elems.iter().take_while(|e| ours(e)).count();
            let Some(&first) = elems.first().filter(|_| n > 0) else {
                return;
            };
            let msg = DsdMsg::BarrierEnter {
                barrier: 0,
                rank,
                updates: UpdateBatch::default(),
            };
            let held = [UpdateRange::row(0, (first as u64, n as u64, stride))];
            let out = self.request(rank, msg, &held);
            for &e in &elems[..n] {
                if !self.superseded[r][e] {
                    self.give(e, rank, Some(rank));
                    self.wrote(rank, e);
                }
            }
            let mut own = Vec::new();
            if self.dead.is_some() {
                own.push((rank, MsgKind::WorkerLost));
            } else {
                self.entered.push(rank);
                if self.entered.len() == 3 {
                    for rank in std::mem::take(&mut self.entered) {
                        own.push((rank, MsgKind::BarrierRelease));
                        self.pulled(rank);
                    }
                }
            }
            self.check(out, own)
        }

        fn pull(&mut self, rank: u32) {
            let out = self.request(rank, DsdMsg::UpdateFetch { rank }, &[]);
            self.pulled(rank);
            self.check(out, vec![(rank, MsgKind::UpdateBatch)])
        }

        /// Rank `rank` serves `rows`, of any stride, in the order given;
        /// `stale`: served before its last request, so none of it lands.
        fn held_data(&mut self, rank: u32, rows: &[UpdateRange], stale: bool) {
            let mut src = GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
            let elems: Vec<u64> = rows
                .iter()
                .flat_map(|r| r.spans().flat_map(|(a, b)| a..b))
                .collect();
            for &e in &elems {
                self.fresh += 1;
                src.write_int(0, e, self.fresh).unwrap();
            }
            let after = self.h.peers[&rank].last_req - u64::from(stale);
            let updates = extract_updates(&src, rows).unwrap();
            let msg = DsdMsg::HeldData {
                rank,
                after,
                updates,
            };
            let out = self.request(rank, msg, &[]);
            for e in elems.into_iter().filter(|_| !stale) {
                if self.holder[e as usize] == Some(rank) {
                    self.values[e as usize] = src.read_int(0, e).unwrap();
                    self.holder[e as usize] = None;
                }
            }
            self.check(out, Vec::new())
        }

        fn fetch(&mut self, rank: u32, range: std::ops::Range<u64>) {
            let ranges = vec![elems(range.start, range.end - range.start)];
            let out = self.request(rank, DsdMsg::RangeFetch { rank, ranges }, &[]);
            self.waiting.push((rank, range));
            self.check(out, Vec::new())
        }

        fn declare_dead(&mut self, rank: u32) {
            self.h.declare_dead(rank).unwrap();
            let out = take(&mut self.h);
            self.dead = Some(rank);
            let entered = std::mem::take(&mut self.entered);
            let own = entered.into_iter().filter(|&r| r != rank);
            self.check(out, own.map(|r| (r, MsgKind::WorkerLost)).collect())
        }

        /// A tick passes: the round asks again for what was asked, each
        /// span once; a second round in the same tick sends nothing.
        fn tick(&mut self) {
            let h = &mut self.h;
            h.now = h.now + h.tick();
            h.duties().unwrap();
            let mut round = Vec::new();
            for (to, _, msg) in take(h) {
                let DsdMsg::HeldFetch { ranges } = msg else {
                    panic!("a round asks for held spans only, got {msg:?}");
                };
                round.extend(ranges.iter().map(|r| (to, r.first, r.end())));
            }
            let n = round.len();
            round.sort_unstable();
            round.dedup();
            assert_eq!(round.len(), n, "a span asked twice in one round");
            h.duties().unwrap();
            assert!(take(h).is_empty(), "one round a tick");
            self.asked.clear();
        }

        /// Is `range` a whole span of what `w` holds?
        fn whole_span(&self, w: u32, range: &std::ops::Range<u64>) -> bool {
            let at = |e: u64| self.holder.get(e as usize).copied().flatten() == Some(w);
            range.start < range.end
                && range.clone().all(at)
                && (range.start == 0 || !at(range.start - 1))
                && !at(range.end)
        }

        /// Check what a step sent: the answers to the fetches that no
        /// longer wait, `HeldFetch`es for whole held spans not asked since
        /// the last tick, and the step's `own` replies — nothing else. Then
        /// the shard's holds and values against the model.
        fn check(&mut self, mut out: Vec<(u32, u64, DsdMsg)>, own: Vec<(u32, MsgKind)>) {
            let (holder, dead) = (self.holder, self.dead);
            let mut answers = Vec::new();
            self.waiting.retain(|(reader, range)| {
                let mut touched = range.clone().filter_map(|e| holder[e as usize]);
                let touched: Vec<u32> = touched.by_ref().collect();
                if let Some(&d) = touched.iter().find(|&&w| Some(w) == dead) {
                    answers.push((*reader, Answer::Lost(d)));
                } else if touched.is_empty() {
                    answers.push((*reader, Answer::Bytes(range.clone())));
                } else {
                    return true;
                }
                false
            });
            for (reader, answer) in answers {
                let found = out.iter().position(|(to, _, m)| {
                    *to == reader
                        && match (&answer, m) {
                            (Answer::Lost(d), DsdMsg::WorkerLost { rank, .. }) => rank == d,
                            (
                                Answer::Bytes(range),
                                DsdMsg::UpdateBatch {
                                    updates, notices, ..
                                },
                            ) => {
                                let mut copy =
                                    GthvInstance::new(tiny_def(), PlatformSpec::linux_x86());
                                apply_batch(&mut copy, updates, &mut ConversionStats::default())
                                    .unwrap();
                                let got: Vec<i128> = range
                                    .clone()
                                    .map(|e| copy.read_int(0, e).unwrap())
                                    .collect();
                                let want = &self.values[range.start as usize..range.end as usize];
                                notices.is_empty()
                                    && carried(updates) == [(range.start, range.end)]
                                    && got == want
                            }
                            _ => false,
                        }
                });
                let i = found.unwrap_or_else(|| panic!("fetch by {reader} unanswered: {out:?}"));
                out.remove(i);
            }
            let mut rest = Vec::new();
            for (to, _, msg) in out {
                let DsdMsg::HeldFetch { ranges } = &msg else {
                    rest.push((to, msg.kind()));
                    continue;
                };
                for r in ranges {
                    let span = r.first..r.end();
                    assert!(
                        self.whole_span(to, &span),
                        "{span:?} is not a held span of {to}"
                    );
                    assert!(
                        !self.asked.contains(&(to, span.clone())),
                        "{span:?} asked of {to} twice in a tick"
                    );
                    self.asked.push((to, span));
                }
            }
            let key = |(to, kind): &(u32, MsgKind)| (*to, *kind as u16);
            rest.sort_unstable_by_key(key);
            let mut own = own;
            own.sort_unstable_by_key(key);
            assert_eq!(rest, own);
            let asked = std::mem::take(&mut self.asked);
            self.asked = asked
                .into_iter()
                .filter(|(w, r)| self.whole_span(*w, r))
                .collect();
            let mut held = [None; 64];
            for w in 1..=3 {
                for (a, b) in recorded(&self.h, 0, w).held {
                    for (e, at) in held
                        .iter_mut()
                        .enumerate()
                        .take(b as usize)
                        .skip(a as usize)
                    {
                        assert_eq!(*at, None, "element {e} held twice");
                        *at = Some(w);
                    }
                }
            }
            assert_eq!(held, self.holder);
            assert_eq!(values(&self.h, 0..64), self.values);
        }
    }

    #[test]
    fn seeded_holds_ships_pulls_and_fetches_agree_with_a_per_element_model() {
        for seed in 0..48 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut below = |n: usize| rng.gen_range(0..n as u64) as usize;
            let mut m = Oracle::new();
            for _ in 0..160 {
                let first = below(64) as u64;
                let len = 1 + below(12.min(64 - first as usize)) as u64;
                let range = first..first + len;
                let alive: Vec<u32> = (1..=3).filter(|&r| Some(r) != m.dead).collect();
                let rank = alive[below(alive.len())];
                match below(100) {
                    0..20 => m.ship(rank, range),
                    20..45 if !m.entered.contains(&rank) => {
                        // Dense names, and a colour of a row at 2 or 3.
                        m.hold(rank, range, [1, 1, 2, 3][below(4)] as u64)
                    }
                    45..55 => m.pull(rank),
                    55..70 => {
                        // Rows of stride 1 to 3 in any order, some held in
                        // part, some out of ascending order.
                        let mut rows = vec![elems(range.start, len)];
                        for _ in 0..below(3) {
                            let (first, stride) = (below(64) as u64, 1 + below(3) as u64);
                            let most = ((63 - first) / stride + 1).min(12);
                            let row = (first, 1 + below(most as usize) as u64, stride);
                            rows.push(UpdateRange::row(0, row));
                        }
                        m.held_data(rank, &rows, below(5) == 0)
                    }
                    70..86 => m.fetch(rank, range),
                    86..88 if m.dead.is_none() && below(4) == 0 => m.declare_dead(rank),
                    88..100 => m.tick(),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn range_fetch_is_answered_from_the_authoritative_copy_or_bounced() {
        let mut h = five_rank_shard(PlatformSpec::solaris_sparc());
        h.init_with(|g| {
            for i in 0..64 {
                g.write_int(0, i, 100 + i as i128).unwrap();
            }
        });
        let reply_to = |h: &mut HomeShard, req_id, ranges: Vec<UpdateRange>| {
            let fetch = DsdMsg::RangeFetch { rank: 2, ranges };
            h.dispatch(2, req_id, fetch, &Report::default(), OpCtx::default())?;
            let [(2, rid, reply)] = &take(h)[..] else {
                panic!("one reply, to the fetcher");
            };
            assert_eq!(*rid, req_id);
            Ok::<_, HomeError>(reply.clone())
        };
        let seen = h.peers[&2].seen;
        let DsdMsg::UpdateBatch {
            updates, notices, ..
        } = reply_to(&mut h, 1, vec![elems(5, 2), elems(60, 4)]).unwrap()
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
        // A shadow replays a relayed fetch as the primary took it: it takes
        // the rows, extracts the reply, remembers the request id and sends
        // nothing.
        let fetch = DsdMsg::RangeFetch {
            rank: 2,
            ranges: vec![elems(5, 2)],
        };
        let relayed = fetch
            .encode_request(9, None, &interest(&[elems(5, 2)]))
            .slice(DsdMsg::envelope_bytes(9, None)..);
        h.on_replicate(2, 9, MsgKind::RangeFetch as u16, relayed)
            .unwrap();
        assert_eq!(
            h.peers[&2].interest[&0].spans().collect::<Vec<_>>(),
            [(5, 7)]
        );
        assert_eq!((h.costs.updates_sent, h.peers[&2].last_req), (3, 9));
        assert!(h.outbox.is_empty());
        // A range the index table does not hold is refused, not served.
        assert!(matches!(
            reply_to(&mut h, 10, vec![elems(60, 5)]),
            Err(HomeError::Update(UpdateError::RangeOutOfBounds { .. }))
        ));
        // The entry has moved: the fetcher is told where to.
        h.placement.adopt(0, 3, 1);
        let bounced = reply_to(&mut h, 11, vec![elems(5, 2)]).unwrap();
        let moved = DsdMsg::EntryMoved {
            entries: vec![(0, 3, 1)],
        };
        assert_eq!(bounced, moved);
    }

    #[test]
    fn an_interest_report_outside_the_index_table_is_a_violation() {
        let mut h = five_rank_shard(PlatformSpec::linux_x86());
        let lock = || DsdMsg::LockRequest { lock: 0, rank: 2 };
        let wild = [elems(60, 5), elems(u64::MAX, 2), UpdateRange::new(9, 0, 1)];
        for (req_id, row) in (1..).zip(wild) {
            let res = h.dispatch(2, req_id, lock(), &interest(&[row]), OpCtx::default());
            assert!(matches!(res, Err(HomeError::Violation(_))), "{row:?}");
            assert!(h.peers[&2].interest.is_empty());
        }
        // A duplicate of a request is not taken in twice, nor is an empty
        // row: the table holds what fresh requests reported.
        h.dispatch(
            2,
            9,
            lock(),
            &interest(&[elems(4, 4), elems(20, 0)]),
            OpCtx::default(),
        )
        .unwrap();
        h.dispatch(2, 9, lock(), &interest(&[elems(30, 4)]), OpCtx::default())
            .unwrap();
        assert_eq!(
            h.peers[&2].interest[&0].spans().collect::<Vec<_>>(),
            [(4, 8)]
        );
    }

    #[test]
    fn requests_from_outside_participants_are_violations_and_change_nothing() {
        let mut h = populated_shard();
        let tables = |h: &HomeShard| format!("{:?} {} {:?}", h.peers, h.pending, h.locks);
        let before = tables(&h);
        for msg in [
            DsdMsg::LockRequest { lock: 0, rank: 9 },
            DsdMsg::Heartbeat { rank: 9 },
        ] {
            match h.dispatch(5, 1, msg, &Report::default(), OpCtx::default()) {
                Err(HomeError::Violation(why)) => {
                    assert!(why.starts_with("request from unknown participant 9"))
                }
                other => panic!("expected a violation, got {other:?}"),
            }
            assert_eq!(tables(&h), before);
        }
    }

    /// A fresh grant a home of a [`Pair`] sent.
    struct Grant {
        at: FabricInstant,
        /// The endpoint it came from.
        by: usize,
        lock: u32,
        /// The replication link was cut when it was decided.
        cut: bool,
        /// How long the granting home had not heard from the other.
        quiet: Duration,
    }

    /// One shard's primary (endpoint 0) and standby (1) under a lease,
    /// with mutexes 0..3 for ranks 1–6 at endpoints 2–7, stepped by hand
    /// at `now`. Frames between the two pass unless the link is `cut`.
    struct Pair {
        homes: [HomeShard; 2],
        now: FabricInstant,
        cut: bool,
        /// When each home last heard from the other.
        heard: [FabricInstant; 2],
        grants: Vec<Grant>,
    }

    impl Pair {
        fn new(lease: Duration) -> Pair {
            let (zero, plat) = (FabricInstant::ZERO, PlatformSpec::linux_x86());
            let homes = [false, true].map(|standby| {
                let config = HomeConfig {
                    n_locks: 3,
                    participants: (1..=6).collect(),
                    lease: Some(lease),
                    directory: Directory::with_replicas(1, 1),
                    standby,
                    ..Default::default()
                };
                let mut h = HomeShard::new(GthvInstance::new(tiny_def(), plat.clone()), config);
                h.start(zero).unwrap();
                h
            });
            let (now, cut, heard, grants) = (zero, false, [zero; 2], Vec::new());
            Pair {
                homes,
                now,
                cut,
                heard,
                grants,
            }
        }

        /// Rank `rank` sends home `ep` `msg` as its request 1, stamped
        /// `epoch`; see [`Pair::step`].
        fn ask(&mut self, rank: u32, ep: usize, epoch: u32, msg: DsdMsg) -> Vec<DsdMsg> {
            let payload = msg.encode_request(1, Some(epoch), &Report::default());
            let m = wire(rank + 1, ep as u32, msg.kind(), payload);
            self.step(ep, Input::Frame(m))
        }

        /// Home `ep` steps on `input`, and so does each home the other's
        /// frames reach, in order. Returns what the steps sent clients.
        fn step(&mut self, ep: usize, input: Input<'static>) -> Vec<DsdMsg> {
            let (mut next, mut replies) = (VecDeque::from([(ep, input)]), Vec::new());
            while let Some((ep, input)) = next.pop_front() {
                self.homes[ep].on(self.now, input).unwrap();
                for s in std::mem::take(&mut self.homes[ep].outbox) {
                    let to = s.to as usize;
                    if to < 2 && !self.cut {
                        self.heard[to] = self.now;
                        let m = wire(ep as u32, s.to, s.kind, s.payload);
                        next.push_back((to, Input::Frame(m)));
                    } else if to >= 2 {
                        let (_, msg) = DsdMsg::decode_enveloped(s.kind, s.payload).unwrap();
                        if let (DsdMsg::LockGrant { lock, .. }, true) = (&msg, s.owed) {
                            self.grants.push(Grant {
                                at: self.now,
                                by: ep,
                                lock: *lock,
                                cut: self.cut,
                                quiet: self.now.saturating_since(self.heard[ep]),
                            });
                        }
                        replies.push(msg);
                    }
                }
            }
            replies
        }
    }

    #[test]
    fn a_cut_replication_link_loses_exactly_the_relays_of_its_window() {
        // DESIGN §14's known window, pinned: ranks 1–3 each ask the primary
        // for a mutex of their own, two ticks apart, and keep what they
        // are granted; the link between the homes is cut before step
        // `cut`, at every step in turn, while every rank beats both homes
        // each tick, as the cluster's pump does. Once the standby has
        // promoted, ranks 4–6 probe one of those mutexes each: at the old
        // primary, then where it points.
        let lease = Duration::from_millis(400);
        let (mut windowed, mut relayed) = (0, 0);
        for cut in 0..8 {
            let mut w = Pair::new(lease);
            for step in 0.. {
                w.cut = step >= cut;
                if step < 9 && step % 3 == 0 {
                    let (rank, lock) = (step / 3 + 1, step / 3);
                    w.ask(rank, 0, 0, DsdMsg::LockRequest { lock, rank });
                    continue;
                }
                w.now = w.now + w.homes[0].tick();
                for (rank, ep) in (1..=6).flat_map(|rank| [(rank, 0), (rank, 1)]) {
                    w.ask(rank, ep, 0, DsdMsg::Heartbeat { rank });
                }
                w.step(0, Input::Tick);
                w.step(1, Input::Tick);
                if matches!(w.homes[1].standby, Standby::Promoted { .. }) {
                    break;
                }
                assert!(step < 100, "cut {cut}: no promotion");
            }
            // A full lease of relay silence, and never beside a serving
            // primary.
            assert!(w.now.saturating_since(w.heard[1]) > lease, "cut {cut}");
            assert!(w.homes[0].fenced, "cut {cut}");
            for (lock, rank) in (0..3).zip(4..) {
                let ask = DsdMsg::LockRequest { lock, rank };
                let [DsdMsg::ViewChange { epoch, .. }] = w.ask(rank, 0, 0, ask.clone())[..] else {
                    panic!("cut {cut}: the old primary redirects rank {rank}");
                };
                let granted = w.ask(rank, 1, epoch, ask).len() == 1;
                let queued = w.homes[1].locks[lock as usize].waiters.contains(&rank);
                assert!(granted || queued, "cut {cut}: rank {rank} is answered");
            }
            // The primary granted nothing after half a lease without a
            // beat, nor once the standby had promoted.
            let by_primary = || w.grants.iter().filter(|g| g.by == 0);
            for g in by_primary() {
                assert!(g.quiet <= lease / 2 && g.at < w.now, "cut {cut}");
            }
            // The promoted standby re-grants exactly the mutexes whose
            // grants were decided on a cut link, and none relayed before.
            let dropped: BTreeMap<u32, bool> = by_primary().map(|g| (g.lock, g.cut)).collect();
            let by_standby = w.grants.iter().filter(|g| g.by == 1).map(|g| g.lock);
            let regranted: Vec<u32> = by_standby.filter(|l| dropped.contains_key(l)).collect();
            let window: Vec<u32> = dropped
                .iter()
                .filter(|(_, &d)| d)
                .map(|(&l, _)| l)
                .collect();
            assert_eq!(regranted, window, "cut {cut}");
            windowed += window.len();
            relayed += dropped.len() - window.len();
        }
        assert!(
            windowed > 0 && relayed > 0,
            "{windowed} windowed, {relayed} relayed"
        );
    }
}
