//! Simulated heterogeneous cluster orchestration.
//!
//! A cluster is a home node (running the stub service that owns the
//! authoritative `GThV`) plus worker nodes, each with its own platform
//! specification and its own native-representation copy of the shared
//! structure. Workers run as OS threads connected by the simulated
//! network — nothing crosses a node boundary except serialized bytes.
//!
//! One runner, [`ClusterBuilder::run`], on either fabric: every worker
//! executes the same closure against its [`DsdClient`]. One admin plane,
//! the [`ClusterBuilder::control`] script's [`ClusterCtl`], injects
//! faults, drains shards and moves data: data placement is static
//! (`entry % shards`) unless that script runs the placement engine,
//! [`ClusterCtl::adapt`], which re-homes hot entries toward their
//! dominant writers mid-run. One service actor beats for the workers and,
//! when [`ClusterBuilder::telemetry`] is on, ticks the time series.
//!
//! A migrating computation is one such body: [`run_migrating`] steps a
//! [`Computation`](hdsm_migthread::Computation) from a
//! [`ProgramRegistry`] on the worker's client and, at the adaptation
//! points its moves name, carries it to another (possibly heterogeneous)
//! platform — capture → pack → receiver-makes-right restore →
//! [`DsdClient::rehost`] — mid-computation. Who moves where is the
//! caller's plan, for instance
//! [`plan_thread_moves`](crate::placement::plan_thread_moves).
//!
//! A note on what "node" means here: a node is a platform specification
//! plus an address space holding data in that platform's representation.
//! When a thread migrates, the hosting OS thread survives but everything
//! platform-visible — byte order, type sizes, page size, the protected
//! address space — is torn down and rebuilt for the destination platform,
//! which is exactly the state a real migration would transfer.

use crate::client::{DsdClient, DsdError};
use crate::costs::CostBreakdown;
use crate::directory::{Directory, Placement};
use crate::gthv::{GthvDef, GthvInstance};
use crate::home::{HomeConfig, HomeError, HomeRunOutcome, HomeShard};
use crate::ids::{BarrierId, LockId, ShardId};
use crate::placement::{PlacementInputs, PlacementPolicy};
use crate::protocol::DsdMsg;
use crate::update::{apply_batch, extract_updates, full_ranges};
use hdsm_migthread::compute::{ProgramRegistry, StepStatus};
use hdsm_migthread::packfmt::pack_state;
use hdsm_migthread::state::ThreadState;
use hdsm_net::endpoint::{Endpoint, NetError, Network};
use hdsm_net::fault::LinkFaults;
use hdsm_net::message::MsgKind;
use hdsm_net::stats::{NetConfig, NetStats};
use hdsm_net::{FabricClock, FabricMode, SimFabric, Ticker};
use hdsm_obs::{DecisionRow, ObsSnapshot, Recorder, WatchdogConfig, WriterStats};
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::ConversionStats;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors from cluster orchestration.
#[derive(Debug)]
pub enum ClusterError {
    /// The builder was incomplete, or an admin call needs what the
    /// cluster was built without (a handoff without replicas).
    Config(String),
    /// The home service failed.
    Home(HomeError),
    /// A worker failed.
    Worker {
        /// Worker index.
        index: usize,
        /// The failure.
        error: DsdError,
    },
    /// A worker thread panicked.
    Panic(String),
    /// A worker crashed or was partitioned away and the home's failure
    /// detector declared it dead; the run could not complete normally.
    WorkerLost {
        /// Thread rank of the lost worker.
        rank: u32,
        /// How long the home had gone without hearing from the worker
        /// when the detector fired (`None` when not reported).
        heard_age: Option<Duration>,
        /// The lease deadline that silence exceeded (`None` as above).
        lease: Option<Duration>,
    },
    /// A proactive shard handoff ([`ClusterCtl::handoff`]) failed.
    Handoff {
        /// The shard being drained.
        shard: u32,
        /// The underlying failure.
        error: DsdError,
    },
    /// A handoff or per-entry re-homing found the shard fenced —
    /// mid-promotion, deposed or busy with another move. Transient:
    /// back off and retry once the view settles, as
    /// [`ClusterCtl::adapt`] does. A handoff also gets it from a shard
    /// whose standby is gone.
    HandoffBusy {
        /// The shard that bounced the request.
        shard: u32,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(s) => write!(f, "bad cluster config: {s}"),
            ClusterError::Home(e) => write!(f, "home: {e}"),
            ClusterError::Worker { index, error } => write!(f, "worker {index}: {error}"),
            ClusterError::Panic(s) => write!(f, "worker panicked: {s}"),
            ClusterError::WorkerLost {
                rank,
                heard_age,
                lease,
            } => match (heard_age, lease) {
                (Some(age), Some(lease)) => write!(
                    f,
                    "worker rank {rank} lost: silent {}ms, past its {}ms lease",
                    age.as_millis(),
                    lease.as_millis()
                ),
                _ => write!(f, "worker rank {rank} lost"),
            },
            ClusterError::Handoff { shard, error } => {
                write!(f, "handoff of shard {shard} failed: {error}")
            }
            ClusterError::HandoffBusy { shard } => {
                write!(
                    f,
                    "shard {shard} is fenced (mid-promotion or mid-move); back off and retry"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Home(e) => Some(e),
            ClusterError::Worker { error, .. } => Some(error),
            ClusterError::Handoff { error, .. } => Some(error),
            ClusterError::Config(_)
            | ClusterError::Panic(_)
            | ClusterError::WorkerLost { .. }
            | ClusterError::HandoffBusy { .. } => None,
        }
    }
}

impl From<HomeError> for ClusterError {
    fn from(e: HomeError) -> ClusterError {
        ClusterError::Home(e)
    }
}

/// Per-worker identity handed to the SPMD body.
#[derive(Debug, Clone)]
pub struct WorkerInfo {
    /// Worker index, `0..n_workers`.
    pub index: usize,
    /// Total workers.
    pub n_workers: usize,
    /// The worker's (initial) platform.
    pub platform: Platform,
}

/// What one worker's [`run_migrating`] spent on its migrations.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationStats {
    /// Number of migrations executed.
    pub migrations: u64,
    /// Time spent packing states.
    pub pack_time: Duration,
    /// Time spent restoring (receiver-makes-right) states.
    pub restore_time: Duration,
    /// Total image bytes shipped.
    pub image_bytes: u64,
}

/// Everything a finished cluster run reports.
#[derive(Debug)]
pub struct ClusterOutcome<R> {
    /// Per-worker results, in worker order.
    pub results: Vec<R>,
    /// Per-worker Eq. 1 cost breakdowns.
    pub worker_costs: Vec<CostBreakdown>,
    /// Per-worker conversion statistics.
    pub worker_conv: Vec<ConversionStats>,
    /// Home-side cost breakdown.
    pub home_costs: CostBreakdown,
    /// Home-side conversion statistics.
    pub home_conv: ConversionStats,
    /// The final authoritative shared structure.
    pub final_gthv: GthvInstance,
    /// Network traffic statistics.
    pub net_stats: NetStats,
    /// Observability snapshot, when the cluster ran with
    /// [`ClusterBuilder::obs`] wired to an enabled recorder.
    pub obs: Option<ObsSnapshot>,
}

/// Home-side initialisation closure.
type InitFn = Box<dyn FnOnce(&mut GthvInstance) + Send>;

/// Admin control script run concurrently with the workers.
type ControlFn = Box<dyn FnOnce(ClusterCtl) + Send>;

/// Handle given to a [`ClusterBuilder::control`] script: the cluster's
/// one admin plane. Administrative operations against the *running*
/// cluster — fault injection (kills, partitions), membership changes
/// (live shard handoff) and data placement (per-entry re-homing, and the
/// placement engine that drives it, [`ClusterCtl::adapt`]). The script
/// runs on its own thread with its own endpoint; everything it does
/// crosses the simulated fabric like any other traffic.
pub struct ClusterCtl {
    net: Network,
    ep: Endpoint,
    directory: Directory,
    /// Cooperative kill switches, indexed by home endpoint rank.
    kills: Vec<Arc<AtomicBool>>,
    /// The workers' liveness flags, in worker order, shared with the
    /// pump: a worker clears its own once it has signed off or crashed.
    alive: Arc<[AtomicBool]>,
    /// The fabric's time source. Control scripts that pace themselves
    /// must use [`ClusterCtl::sleep`], not `std::thread::sleep`, so the
    /// pacing rides the virtual clock in simulation mode.
    clock: FabricClock,
    /// The cluster's recorder, for [`ClusterCtl::dump`].
    recorder: Recorder,
}

impl ClusterCtl {
    /// The cluster's shard directory (for endpoint arithmetic).
    pub fn directory(&self) -> Directory {
        self.directory
    }

    /// Fire the black-box flight recorder by hand: freeze the current
    /// diagnostic bundle (last events per rank, in-flight sync ops,
    /// directory epochs, recent time-series frames) and write it to the
    /// configured directory. Returns the bundle path, or `None` when the
    /// cluster was built without [`ClusterBuilder::flight_recorder`] or
    /// without an enabled recorder.
    pub fn dump(&self) -> Option<String> {
        self.recorder.blackbox_trigger("dump")
    }

    /// Sleep on the fabric timeline: real time in threaded mode, virtual
    /// time in simulation mode. Always prefer this over
    /// `std::thread::sleep` inside a control script.
    pub fn sleep(&self, d: Duration) {
        self.clock.sleep(d);
    }

    /// Handle to the fabric (stats, partitions).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Kill shard `shard`'s primary instance: its service loop exits at
    /// the next turn and its endpoint drops, so in-flight senders see
    /// `Disconnected` — the sharpest failure the fabric can model.
    pub fn kill_shard(&self, shard: ShardId) {
        self.kills[self.directory.shard_ep(shard.raw()) as usize].store(true, Ordering::Relaxed);
    }

    /// Sever the link between two endpoint ranks, both ways. Unlike a
    /// kill, sends still succeed — frames just vanish, like a pulled
    /// cable — so neither side learns anything except from silence.
    pub fn partition(&self, a: u32, b: u32) {
        self.net.partition(a, b);
    }

    /// Sever the replication link of shard `shard` (primary ↔ replica):
    /// the primary self-fences at ¾ of the lease, the replica promotes
    /// at a full lease of silence.
    pub fn partition_replication(&self, shard: ShardId) {
        self.partition(
            self.directory.shard_ep(shard.raw()),
            self.directory.replica_ep(shard.raw()),
        );
    }

    /// Restore every severed link.
    pub fn heal(&self) {
        self.net.heal();
    }

    /// Drain shard `shard` into its standby and retire the old primary:
    /// a planned failover. The primary fences (clients bounce to the
    /// replica and replay there) and relays the handoff down the
    /// replication stream; the standby, having replayed every earlier
    /// frame, promotes under the bumped epoch and confirms, and the old
    /// primary retires. Blocks until the handoff completes; zero client
    /// operations fail.
    ///
    /// Returns [`ClusterError::Config`] at once, sending nothing, when the
    /// cluster runs without replicas, and [`ClusterError::HandoffBusy`]
    /// when the shard cannot start a drain — fenced for any reason other
    /// than this very drain (transient; retry after backing off) or left
    /// without its standby.
    pub fn handoff(&mut self, shard: ShardId) -> Result<(), ClusterError> {
        if self.directory.n_replicas() == 0 {
            return Err(ClusterError::Config(
                "a handoff needs a standby to drain into: the cluster runs without replicas".into(),
            ));
        }
        let s = shard.raw();
        self.admin_call(
            s,
            &[self.directory.shard_ep(s)],
            DsdMsg::HandoffRequest { shard: s },
            Duration::from_secs(30),
            |reply| matches!(reply, DsdMsg::HandoffDone { shard: hs, .. } if *hs == s),
        )
    }

    /// Migrate one index entry's home from shard `from` to shard `to` —
    /// the actuator [`Self::adapt`] applies each decision with, also
    /// callable on its own. The source shard snapshots the entry's
    /// authoritative bytes, flips its ownership overlay under a fresh
    /// per-entry epoch and offers the state to the target; client
    /// traffic for the entry is deferred at the source until the target
    /// acknowledges, and clients with a stale view are bounced
    /// `EntryMoved` rows to merge. Blocks until the move is confirmed.
    ///
    /// Returns [`ClusterError::HandoffBusy`] when the source shard is
    /// fenced or mid-move — transient; retry after backing off.
    pub fn rehome_entry(
        &mut self,
        entry: u32,
        from: ShardId,
        to: ShardId,
    ) -> Result<(), ClusterError> {
        let (s_from, s_to) = (from.raw(), to.raw());
        // Offer to both of the source shard's endpoints: a shadow drops
        // it, a retired primary is Disconnected, the serving
        // instance (original or promoted) acts on it.
        let mut dsts = vec![self.directory.shard_ep(s_from)];
        if self.directory.n_replicas() > 0 {
            dsts.push(self.directory.replica_ep(s_from));
        }
        self.admin_call(
            s_from,
            &dsts,
            DsdMsg::EntryHandoff {
                entry,
                to_shard: s_to,
            },
            Duration::from_secs(10),
            |reply| {
                matches!(reply, DsdMsg::EntryDone { entry: e, to_shard }
                    if *e == entry && *to_shard == s_to)
            },
        )
    }

    /// Run the placement engine under `policy` until no worker is alive:
    /// once per policy epoch, fold the recorder's cumulative signals
    /// through the pure [`PlacementPolicy::plan`] and apply each decision
    /// with [`Self::rehome_entry`], recording it as a [`DecisionRow`]. A
    /// shard that bounces a move ([`ClusterError::HandoffBusy`]) ends that
    /// epoch's plan and counts a `placement.busy_backoffs`; any other
    /// failure ends the engine and is returned. Pacing rides the fabric
    /// clock in 5 ms slices, so on the simulated fabric the decisions are
    /// a deterministic function of (signals, seed), and in threaded mode
    /// the end of the run is noticed within a slice.
    ///
    /// Returns [`ClusterError::Config`] at once when the cluster runs
    /// without an enabled [`ClusterBuilder::obs`] recorder: the signals
    /// the engine plans from are the observability layer's.
    pub fn adapt(&mut self, policy: &PlacementPolicy) -> Result<(), ClusterError> {
        if !self.recorder.is_enabled() {
            return Err(ClusterError::Config(
                "adaptive placement needs an enabled recorder: the signals it plans from \
                 (write heat, release destinations) come from the observability layer"
                    .into(),
            ));
        }
        let done = |ctl: &Self| !ctl.alive.iter().any(|a| a.load(Ordering::Relaxed));
        // The engine's own view of where every moved entry lives, its
        // epochs counting the moves per entry. Fed back into the planner
        // so settled moves become no-ops instead of oscillation.
        let mut owners = Placement::new(self.directory);
        loop {
            let mut slept = Duration::ZERO;
            while slept < policy.epoch {
                if done(self) {
                    return Ok(());
                }
                let slice = Duration::from_millis(5).min(policy.epoch - slept);
                self.sleep(slice);
                slept += slice;
            }
            let mut inputs = PlacementInputs {
                owners: owners.rows().into_iter().map(|(e, s, _)| (e, s)).collect(),
                shards: self.directory.n_shards(),
                ..Default::default()
            };
            // Both signals from one look at the heat map.
            self.recorder.heat(|h| {
                let row =
                    |((entry, writer), w): (_, WriterStats)| (entry, writer, w.updates, w.bytes);
                inputs.write_heat = h.writers().map(row).collect();
                let row = |((writer, shard), n)| (writer, shard, n);
                inputs.release_dests = h.releases().map(row).collect();
            });
            for d in policy.plan(&inputs) {
                if done(self) {
                    return Ok(());
                }
                let (from, to) = (ShardId::new(d.from_shard), ShardId::new(d.to_shard));
                match self.rehome_entry(d.entry, from, to) {
                    Ok(()) => {
                        let moves = owners.epoch(d.entry) + 1;
                        owners.adopt(d.entry, d.to_shard, moves);
                        self.recorder.placement_decision(DecisionRow {
                            entry: d.entry,
                            from_shard: d.from_shard,
                            to_shard: d.to_shard,
                            writer: d.writer,
                            epoch: moves,
                        });
                    }
                    Err(ClusterError::HandoffBusy { .. }) => {
                        // Mid-promotion or mid-move: back off to the next
                        // epoch rather than hammering the shard.
                        self.recorder.count("placement.busy_backoffs", 1);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// The admin call: offer `req` to the endpoints `dsts` of `shard`
    /// every 100 ms (the homes answer duplicates idempotently) until a
    /// reply satisfies `done`, for at most `budget` of fabric time. Every
    /// failure surfaces as [`ClusterError::Handoff`] on `shard`, except
    /// a `ViewChange` bounce: a shard that is fenced — deposed,
    /// mid-promotion, busy with another move — answers that instead of
    /// starting, and the caller gets the typed
    /// [`ClusterError::HandoffBusy`] to back off on. That is safe against
    /// false positives: the admin link is FIFO and a shard already
    /// working *for us* answers duplicates silently, so a `ViewChange`
    /// never races a later confirmation.
    fn admin_call(
        &mut self,
        shard: u32,
        dsts: &[u32],
        req: DsdMsg,
        budget: Duration,
        done: impl Fn(&DsdMsg) -> bool,
    ) -> Result<(), ClusterError> {
        let failed = |error: DsdError| ClusterError::Handoff { shard, error };
        let frame = req.encode_enveloped(0);
        let deadline = self.clock.now() + budget;
        let mut next_send = self.clock.now();
        loop {
            if self.clock.now() >= deadline {
                return Err(failed(NetError::Timeout.into()));
            }
            if self.clock.now() >= next_send {
                let mut alive = false;
                for &dst in dsts {
                    match self.ep.send(dst, req.kind(), frame.clone()) {
                        Ok(()) => alive = true,
                        Err(NetError::Disconnected(_)) => {}
                        Err(e) => return Err(failed(e.into())),
                    }
                }
                if !alive {
                    // Every endpoint of the shard is gone — killed (its
                    // standby promotes on its own) or tearing down.
                    return Err(failed(NetError::Disconnected(dsts[0]).into()));
                }
                next_send = self.clock.now() + Duration::from_millis(100);
            }
            match self.ep.recv_timeout(Duration::from_millis(50)) {
                Ok(m) if m.kind == MsgKind::ViewChange => {
                    return Err(ClusterError::HandoffBusy { shard });
                }
                Ok(m) => {
                    // Late acks for earlier calls etc. are ignored.
                    if DsdMsg::decode_enveloped(m.kind, m.payload).is_ok_and(|(_, r)| done(&r)) {
                        return Ok(());
                    }
                }
                Err(NetError::Timeout) => {}
                Err(e) => return Err(failed(e.into())),
            }
        }
    }
}

/// Cluster shape: shard fan-out, replication and execution fabric.
///
/// Set with [`ClusterBuilder::topology`].
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Home shard count (default 1). Index-table entries, mutexes,
    /// barriers and condition variables are partitioned across
    /// independent home shards by the deterministic [`Directory`]
    /// (`id % n`); `shards: 1` is the classic single-home layout and
    /// produces a byte-identical message sequence.
    pub shards: u32,
    /// Warm standby replicas per shard, 0 or 1 (default 0). A replica
    /// shadows its primary through an op-log relay and promotes itself
    /// when the primary goes silent past the lease; 0 keeps the wire
    /// protocol byte-identical to the unreplicated layout.
    pub replicas: u32,
    /// Execution fabric (default [`FabricMode::Threads`] — free-running
    /// OS threads on the wall clock). [`FabricMode::Sim`] multiplexes the
    /// same node code under a seeded discrete-event scheduler on a
    /// virtual clock, making the whole run an exactly reproducible
    /// function of `(workload, config, seed)`.
    pub fabric: FabricMode,
}

impl Default for TopologyConfig {
    /// One unreplicated shard on the threaded fabric — the classic
    /// single-home layout.
    fn default() -> TopologyConfig {
        TopologyConfig {
            shards: 1,
            replicas: 0,
            fabric: FabricMode::Threads,
        }
    }
}

/// Protocol timing: the liveness lease, receive bounds, the client
/// retransmission schedule and the stall-watchdog budget.
///
/// Set with [`ClusterBuilder::timing`].
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Liveness lease; `None` disables failure detection and the
    /// heartbeats (default 30 s).
    pub lease: Option<Duration>,
    /// Bound on every worker's blocking protocol request, across all its
    /// retransmissions (`None` = the client default of 30 s).
    pub recv_deadline: Option<Duration>,
    /// Retransmissions each client attempts per request before waiting
    /// out its deadline (`None` = the client default of 10).
    pub max_retries: Option<u32>,
    /// First client retransmission delay, doubling per attempt
    /// (`None` = the client default of 250 ms).
    pub retry_base: Option<Duration>,
    /// Fixed stall-watchdog budget: an in-flight sync op older than this
    /// fires a [`hdsm_obs::StallReport`] (and the flight recorder, when
    /// enabled). `None` (the default) derives per-kind budgets from each
    /// op's rolling p99 latency. Only observed when
    /// [`ClusterBuilder::telemetry`] is on.
    pub stall_budget: Option<Duration>,
}

impl Default for TimingConfig {
    /// The builder defaults: a 30 s lease, the client's own 30 s request
    /// bound and retransmission schedule, and p99-derived stall budgets.
    fn default() -> TimingConfig {
        TimingConfig {
            lease: Some(Duration::from_secs(30)),
            recv_deadline: None,
            max_retries: None,
            retry_base: None,
            stall_budget: None,
        }
    }
}

/// Builder for a simulated cluster.
pub struct ClusterBuilder {
    def: Option<GthvDef>,
    home_platform: Platform,
    worker_platforms: Vec<Platform>,
    n_locks: u32,
    n_barriers: u32,
    n_conds: u32,
    topology: TopologyConfig,
    timing: TimingConfig,
    net_config: NetConfig,
    init: Option<InitFn>,
    control: Option<ControlFn>,
    recorder: Recorder,
    telemetry: Option<(Duration, usize)>,
    blackbox_dir: Option<String>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Start building; the home node defaults to the paper's Linux/x86.
    pub fn new() -> ClusterBuilder {
        ClusterBuilder {
            def: None,
            home_platform: PlatformSpec::linux_x86(),
            worker_platforms: Vec::new(),
            n_locks: 1,
            n_barriers: 1,
            n_conds: 0,
            topology: TopologyConfig::default(),
            timing: TimingConfig::default(),
            net_config: NetConfig::instant(),
            init: None,
            control: None,
            recorder: Recorder::disabled(),
            telemetry: None,
            blackbox_dir: None,
        }
    }

    /// Set the cluster shape — shards, replicas and fabric — in one typed
    /// call.
    pub fn topology(mut self, t: TopologyConfig) -> Self {
        self.topology = t;
        self
    }

    /// Set the protocol timing — lease, receive bound, retransmission
    /// schedule and stall budget — in one typed call.
    pub fn timing(mut self, t: TimingConfig) -> Self {
        self.timing = t;
        self
    }

    /// Observe the run: the recorder is wired through the fabric, every
    /// worker client and the home service, and the finished outcome
    /// carries [`ClusterOutcome::obs`]. Pass [`Recorder::disabled`] (the
    /// default) for a counter-free no-op.
    pub fn obs(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Turn on live telemetry: the cluster's service actor — the one
    /// that beats for the workers, registered on the fabric like every
    /// node, so simulated runs stay deterministic — closes one
    /// time-series window per `interval` of fabric time (keeping the most
    /// recent `frames` delta frames) and runs the stall watchdog, at the
    /// exact interval boundaries its 5 ms tick has passed. Requires an
    /// enabled [`Self::obs`] recorder; with a disabled recorder this knob
    /// is ignored.
    pub fn telemetry(mut self, interval: Duration, frames: usize) -> Self {
        self.telemetry = Some((interval, frames));
        self
    }

    /// Enable the black-box flight recorder: on a watchdog firing, a
    /// lost worker, a lease expiry, a view change, a sim deadlock or an
    /// explicit [`ClusterCtl::dump`], a diagnostic bundle is written to
    /// `<dir>/blackbox-<trigger>-<seq>.jsonl`. Requires an enabled
    /// [`Self::obs`] recorder.
    pub fn flight_recorder(mut self, dir: impl Into<String>) -> Self {
        self.blackbox_dir = Some(dir.into());
        self
    }

    /// Set the shared structure definition (required).
    pub fn gthv(mut self, def: GthvDef) -> Self {
        self.def = Some(def);
        self
    }

    /// Set the home node's platform (authoritative copy representation).
    pub fn home(mut self, platform: Platform) -> Self {
        self.home_platform = platform;
        self
    }

    /// Add a worker node on `platform`.
    pub fn worker(mut self, platform: Platform) -> Self {
        self.worker_platforms.push(platform);
        self
    }

    /// Number of distributed mutexes (default 1).
    pub fn locks(mut self, n: u32) -> Self {
        self.n_locks = n;
        self
    }

    /// Number of barriers (default 1).
    pub fn barriers(mut self, n: u32) -> Self {
        self.n_barriers = n;
        self
    }

    /// Number of condition variables (default 0).
    pub fn conds(mut self, n: u32) -> Self {
        self.n_conds = n;
        self
    }

    /// Run an admin control script concurrently with the workers. The
    /// script gets a [`ClusterCtl`] on its own fabric endpoint and can
    /// kill shards, partition links, drain shards into their standbys
    /// and re-home entries while the computation runs — or run the
    /// placement engine: `.control(move |mut ctl| { let _ =
    /// ctl.adapt(&policy); })`.
    pub fn control<F: FnOnce(ClusterCtl) + Send + 'static>(mut self, f: F) -> Self {
        self.control = Some(Box::new(f));
        self
    }

    /// Typed handles for the configured mutexes, in index order. Mint
    /// these once after [`ClusterBuilder::locks`] and hand them to the
    /// workers — the session API on [`DsdClient`] only accepts the
    /// matching handle kind.
    pub fn lock_ids(&self) -> Vec<LockId> {
        (0..self.n_locks).map(LockId::new).collect()
    }

    /// Typed handles for the configured barriers, in index order.
    pub fn barrier_ids(&self) -> Vec<BarrierId> {
        (0..self.n_barriers).map(BarrierId::new).collect()
    }

    /// Network cost model and fault injection (default: instant and
    /// clean, for tests). A fault plan rides the cost model
    /// ([`NetConfig::with_faults`]); the home then lingers after shutdown
    /// to answer retransmissions.
    pub fn net(mut self, config: NetConfig) -> Self {
        self.net_config = config;
        self
    }

    /// Initialise the shared structure at the home node before workers
    /// start; the contents reach each worker with its first acquire.
    pub fn init<F: FnOnce(&mut GthvInstance) + Send + 'static>(mut self, f: F) -> Self {
        self.init = Some(Box::new(f));
        self
    }

    fn take_parts(&mut self) -> Result<(GthvDef, Network, Vec<Endpoint>), ClusterError> {
        let def = self
            .def
            .take()
            .ok_or_else(|| ClusterError::Config("gthv definition missing".into()))?;
        if self.worker_platforms.is_empty() {
            return Err(ClusterError::Config("no workers".into()));
        }
        if self.topology.shards == 0 {
            return Err(ClusterError::Config(
                "at least one home shard required".into(),
            ));
        }
        if self.topology.replicas > 1 {
            return Err(ClusterError::Config(
                "at most one replica per shard is supported".into(),
            ));
        }
        if self.topology.replicas > 0 && self.timing.lease.is_none() {
            return Err(ClusterError::Config(
                "replicas need a lease: promotion is driven by lease-timed silence".into(),
            ));
        }
        let n_home_eps = (self.topology.shards * (1 + self.topology.replicas)) as usize;
        let n_eps = n_home_eps + self.worker_platforms.len() + usize::from(self.control.is_some());
        if let Some(plan) = &mut self.net_config.fault_plan {
            // The replication relay and the admin plane assume a
            // FIFO-reliable link (the paper's fabric guarantee); chaos
            // plans keep battering the client↔home links, but these
            // internal link classes stay clean. Runtime partitions still
            // sever them — partitions are checked before link faults.
            let mut clean = |a: u32, b: u32| {
                *plan = std::mem::take(plan).link(a, b, LinkFaults::default()).link(
                    b,
                    a,
                    LinkFaults::default(),
                );
            };
            if self.topology.replicas > 0 {
                for s in 0..self.topology.shards {
                    clean(s, self.topology.shards + s);
                }
            }
            if self.control.is_some() {
                // The admin endpoint, and the shard↔shard links: those
                // carry only the entry-move frames an admin call starts,
                // so a run that never re-homes keeps its fault schedule.
                let admin = (n_eps - 1) as u32;
                for a in 0..n_home_eps as u32 {
                    clean(admin, a);
                    for b in 0..a {
                        clean(a, b);
                    }
                }
            }
        }
        let (net, eps) = match self.topology.fabric {
            FabricMode::Threads => {
                Network::new_observed(n_eps, self.net_config.clone(), self.recorder.clone())
            }
            FabricMode::Sim { seed } => {
                let sim = SimFabric::new(seed);
                Network::new_sim(n_eps, self.net_config.clone(), self.recorder.clone(), &sim)
            }
        };
        if let Some(sim) = net.sim() {
            // Obs timestamps ride the virtual clock too, so snapshots of
            // same-seed runs compare byte-for-byte.
            let f = sim.clone();
            self.recorder
                .set_time_source(std::sync::Arc::new(move || f.now_us()));
        }
        // The telemetry knobs are no-ops on a disabled recorder — the
        // calls below return without touching anything.
        if let Some((_, frames)) = self.telemetry {
            self.recorder.enable_timeseries(frames);
            self.recorder.configure_watchdog(WatchdogConfig {
                budget_us: self
                    .timing
                    .stall_budget
                    .map(|d| d.as_micros().max(1) as u64),
                ..WatchdogConfig::default()
            });
        }
        if let Some(dir) = &self.blackbox_dir {
            self.recorder.enable_blackbox(dir, 256);
        }
        Ok((def, net, eps))
    }

    /// Run an SPMD body on every worker. The body gets the worker's DSD
    /// client and identity; `join` is called automatically when the
    /// body returns.
    pub fn run<R, F>(mut self, body: F) -> Result<ClusterOutcome<R>, ClusterError>
    where
        R: Send,
        F: Fn(&mut DsdClient, &WorkerInfo) -> Result<R, DsdError> + Send + Sync,
    {
        let (def, net, mut eps) = self.take_parts()?;
        let sim = net.sim().cloned();
        let directory = Directory::with_replicas(self.topology.shards, self.topology.replicas);
        // Endpoint layout: primaries, then replicas, then workers, then
        // the admin endpoint when a control script runs — appended last,
        // so a cluster without one keeps its exact endpoint numbering.
        let mut admin_ep = self.control.is_some().then(|| eps.pop().expect("admin ep"));
        let n_home_eps = (self.topology.shards * (1 + self.topology.replicas)) as usize;
        let home_eps: Vec<Endpoint> = eps.drain(..n_home_eps).collect();
        let mut control = self.control.take();
        // Cooperative kill switches, one per home endpoint, flipped by
        // `ClusterCtl::kill_shard`. Only wired when a control script can
        // actually flip them.
        let kills: Vec<Arc<AtomicBool>> = (0..n_home_eps)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let n_workers = self.worker_platforms.len();
        let participants: Vec<u32> = (1..=n_workers as u32).collect();
        let retry_base = self.timing.retry_base.unwrap_or(Duration::from_millis(250));
        // With a faulty fabric the final Shutdown can be dropped; the home
        // sticks around long enough to answer Join retransmissions.
        let linger = if self.net_config.fault_plan.is_some() {
            (retry_base * 16).min(Duration::from_secs(2))
        } else {
            Duration::ZERO
        };
        // Critical paths, stall reports, Chrome tracks and the log's
        // header name each endpoint from the home layout.
        self.recorder
            .gauge("cluster.shards", self.topology.shards as i64);
        self.recorder
            .gauge("cluster.replicas", self.topology.replicas as i64);
        // Every home endpoint gets an instance: primaries first, then
        // (with replication) each shard's standby, configured to shadow
        // its primary through the relay stream. Endpoint `i` serves shard
        // `i % S`: as primary below `S`, as its standby above.
        let mut homes: Vec<HomeShard> = (0..n_home_eps)
            .map(|i| {
                let config = HomeConfig {
                    n_locks: self.n_locks,
                    n_barriers: self.n_barriers,
                    n_conds: self.n_conds,
                    participants: participants.clone(),
                    lease: self.timing.lease,
                    linger,
                    recorder: self.recorder.clone(),
                    shard: i as u32 % directory.n_shards(),
                    directory,
                    standby: i as u32 >= directory.n_shards(),
                    kill: control.is_some().then(|| kills[i].clone()),
                };
                let gthv = GthvInstance::new(def.clone(), self.home_platform.clone());
                HomeShard::new(gthv, config)
            })
            .collect();
        // The initialiser runs once, on the first instance, and its raw
        // bytes replay into every other: all homes share one platform, so
        // an untracked byte copy reproduces the closure's effect exactly.
        // Each instance logs only the slice of the structure it owns.
        if let (Some(f), [first, rest @ ..]) = (self.init.take(), &mut homes[..]) {
            first.init_with(f);
            let image = first.gthv().space().raw();
            for home in rest {
                home.init_with(|g| {
                    let base = g.space().base();
                    g.space_mut()
                        .write_untracked(base, image)
                        .expect("init image matches structure size");
                });
            }
        }

        let mut results: Vec<Option<(R, CostBreakdown, ConversionStats)>> =
            (0..n_workers).map(|_| None).collect();
        // Finished instances per shard (primary and, with replication,
        // its standby); the authoritative highest-epoch one wins the
        // stitch below.
        let mut home_outs: Vec<Vec<HomeRunOutcome>> =
            (0..directory.n_shards()).map(|_| Vec::new()).collect();
        let timing = &self.timing;
        let mut first_error: Option<ClusterError> = None;
        let mut home_error: Option<ClusterError> = None;
        let mut worker_errors: Vec<(usize, DsdError)> = Vec::new();
        // Per-worker liveness flags for the pump and the placement engine:
        // a crashed worker stops beating so the home's lease detector
        // notices, and both wind down once no worker is left.
        let alive: Arc<[AtomicBool]> = (0..n_workers).map(|_| AtomicBool::new(true)).collect();
        let beat_interval = self
            .timing
            .lease
            .map(|l| (l / 4).max(Duration::from_millis(5)));
        let telemetry_interval = self
            .telemetry
            .filter(|_| self.recorder.is_enabled())
            .map(|(interval, _)| interval.max(Duration::from_micros(1)));

        // One spawn path for every node of the cluster. In simulation
        // mode each is registered as a scheduler actor right before its
        // thread spawns — all from this one thread, in a fixed order
        // (homes, pump, control, workers), because actor ids are part of
        // the deterministic schedule; the threads park at their entry
        // turnstile until `begin()` below.
        std::thread::scope(|s| {
            let n_shards = directory.n_shards() as usize;
            let home_handles: Vec<_> = homes
                .into_iter()
                .zip(home_eps)
                .enumerate()
                .map(|(i, (home, ep))| {
                    let name = if i < n_shards {
                        format!("home-shard{i}")
                    } else {
                        format!("home-replica{}", i - n_shards)
                    };
                    let shard = (i % n_shards) as u32;
                    (shard, spawn_actor(s, &sim, &name, move || home.run(ep)))
                })
                .collect();
            // The pump, the cluster's one service actor, on one 5 ms tick
            // of the fabric clock. It beats on behalf of every live worker
            // at a quarter of the lease, so blocked-but-alive workers (e.g.
            // waiting in a barrier) are never declared dead. Every shard
            // runs its own lease table, so each beat fans out to all of
            // them — including standbys: a shadow drops direct beats (its
            // lease table is fed by the relay stream), but after a
            // promotion the direct beat is what keeps workers alive at the
            // new primary. With telemetry armed it also closes the
            // time-series windows and runs the stall watchdog at the exact
            // interval boundaries each tick passed, so in simulation mode
            // same-seed runs emit byte-identical frame streams and fire
            // the watchdog at identical virtual times.
            let service = (beat_interval.is_some() || telemetry_interval.is_some()).then(|| {
                let net = net.clone();
                let recorder = self.recorder.clone();
                let alive = &alive;
                spawn_actor(s, &sim, "pump", move || {
                    let clock = net.clock();
                    let beat_epoch = directory.epoch_stamped(MsgKind::Heartbeat).then_some(0);
                    let mut last_beat = clock.now();
                    let mut ticker = telemetry_interval.map(|i| Ticker::new(clock.now(), i));
                    // Exit when every worker has signed off (flags flip
                    // at deterministic points) or the run tears down;
                    // the flag check keeps the heartbeat count a pure
                    // function of the schedule in simulation mode.
                    while alive.iter().any(|a| a.load(Ordering::Relaxed)) {
                        if beat_interval
                            .is_some_and(|i| clock.now().saturating_since(last_beat) >= i)
                        {
                            last_beat = clock.now();
                            for (i, a) in alive.iter().enumerate() {
                                if a.load(Ordering::Relaxed) {
                                    let rank = i as u32 + 1;
                                    let src = directory.worker_ep(rank);
                                    let beat = DsdMsg::Heartbeat { rank }.encode_request(
                                        0,
                                        beat_epoch,
                                        &[],
                                    );
                                    for dst in directory.home_eps() {
                                        let _ =
                                            net.send_as(src, dst, MsgKind::Heartbeat, beat.clone());
                                    }
                                }
                            }
                        }
                        clock.sleep(Duration::from_millis(5));
                        // Drain every boundary the tick passed; frames are
                        // stamped with the boundary, not the wake.
                        while let Some(t) = ticker.as_mut().and_then(|k| k.due(clock.now())) {
                            let t_us = t.as_micros();
                            // The fabric's ledger is the only count of
                            // traffic; the frame's per-destination deltas
                            // come from its totals as of this tick.
                            let per_dest = net.stats().by_dest.into_iter();
                            let per_dest = per_dest.map(|(dst, t)| (dst, (t.msgs, t.bytes)));
                            recorder.tick_window(t_us, per_dest.collect());
                            if !recorder.watchdog_scan(t_us).is_empty() {
                                recorder.blackbox_trigger_at("stall", t_us);
                            }
                        }
                    }
                })
            });
            let ctl_handle = control.take().map(|f| {
                let ctl = ClusterCtl {
                    net: net.clone(),
                    ep: admin_ep.take().expect("control implies admin endpoint"),
                    directory,
                    kills: kills.clone(),
                    alive: alive.clone(),
                    clock: net.clock(),
                    recorder: self.recorder.clone(),
                };
                spawn_actor(s, &sim, "control", move || f(ctl))
            });
            let mut handles = Vec::new();
            let recorder = &self.recorder;
            for ((i, plat), ep) in self.worker_platforms.iter().enumerate().zip(eps.drain(..)) {
                let def = def.clone();
                let plat = plat.clone();
                let body = &body;
                let alive = &alive;
                let name = format!("worker{}", i + 1);
                handles.push(spawn_actor(s, &sim, &name, move || {
                    let info = WorkerInfo {
                        index: i,
                        n_workers,
                        platform: plat.clone(),
                    };
                    let gthv = GthvInstance::new(def, plat);
                    let mut client = DsdClient::new(i as u32 + 1, ep, gthv);
                    client.set_directory(directory);
                    client.set_recorder(recorder.clone());
                    if let Some(d) = timing.recv_deadline {
                        client.set_recv_deadline(d);
                    }
                    if let Some(n) = timing.max_retries {
                        client.set_max_retries(n);
                    }
                    if let Some(b) = timing.retry_base {
                        client.set_retry_base(b);
                    }
                    let result = body(&mut client, &info);
                    if matches!(result, Err(DsdError::Crashed)) {
                        // Simulated crash: fall silent without signing
                        // off — the home must detect the dead worker.
                        alive[i].store(false, Ordering::Relaxed);
                        return Err(DsdError::Crashed);
                    }
                    // Always join so every home shard can terminate, even
                    // if the body failed.
                    let join = client.join();
                    alive[i].store(false, Ordering::Relaxed);
                    match (result, join) {
                        (Ok(r), Ok((costs, conv, _gthv))) => Ok((r, costs, conv)),
                        (Err(e), _) => Err(e),
                        (_, Err(e)) => Err(e),
                    }
                }));
            }
            if let Some(f) = &sim {
                // Every actor is parked at its entry turnstile: start the
                // deterministic schedule.
                f.begin();
            }
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(Ok(triple)) => results[i] = Some(triple),
                    Ok(Err(e)) => worker_errors.push((i, e)),
                    Err(p) => {
                        first_error.get_or_insert(ClusterError::Panic(panic_msg(p)));
                    }
                }
            }
            // Every worker has ended. One that panicked never cleared its
            // flag, and the pump and the placement engine run until all
            // are clear.
            for a in alive.iter() {
                a.store(false, Ordering::Relaxed);
            }
            if let Some(h) = ctl_handle {
                if let Err(p) = h.join() {
                    first_error.get_or_insert(ClusterError::Panic(panic_msg(p)));
                }
            }
            if let Some(h) = service {
                if let Err(p) = h.join() {
                    first_error.get_or_insert(ClusterError::Panic(panic_msg(p)));
                }
            }
            for (shard, h) in home_handles {
                match h.join() {
                    Ok(Ok(out)) => home_outs[shard as usize].push(out),
                    Ok(Err(e)) => {
                        home_error.get_or_insert(ClusterError::from(e));
                    }
                    Err(p) => {
                        first_error.get_or_insert(ClusterError::Panic(panic_msg(p)));
                    }
                }
            }
        });

        // Error priority: panics, then a lost worker (the root cause,
        // reported over the secondary errors it induces in survivors),
        // then other worker errors, then home errors.
        if first_error.is_none() {
            let lost = worker_errors
                .iter()
                .find_map(|(_, e)| match e {
                    DsdError::WorkerLost {
                        rank,
                        heard_age,
                        lease,
                    } => Some((*rank, *heard_age, *lease)),
                    _ => None,
                })
                .or_else(|| {
                    worker_errors.iter().find_map(|(i, e)| match e {
                        DsdError::Crashed => Some((*i as u32 + 1, None, None)),
                        _ => None,
                    })
                });
            if let Some((rank, heard_age, lease)) = lost {
                self.recorder
                    .blackbox_trigger_once("worker-lost", rank as u64);
                first_error = Some(ClusterError::WorkerLost {
                    rank,
                    heard_age,
                    lease,
                });
            } else if let Some((index, error)) = worker_errors.into_iter().next() {
                first_error = Some(ClusterError::Worker { index, error });
            } else {
                first_error = home_error;
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        // Stitch the authoritative view back together. Per shard, the
        // winning instance is the authoritative one with the highest
        // epoch — the original primary when nothing failed over, the
        // promoted standby after a kill or handoff. Shard 0's winner
        // already holds the full initial image, so overlay every other
        // shard's owned slice on top (same platform, so each overlay is
        // a straight memcpy). Home-side costs and conversion stats sum
        // across the shards. Unreplicated, every shard has exactly one
        // authoritative epoch-0 outcome and this is the pre-replica path.
        let mut winners = Vec::with_capacity(directory.n_shards() as usize);
        for (s, outs) in home_outs.into_iter().enumerate() {
            let win = outs
                .into_iter()
                .filter(|o| o.authoritative)
                .max_by_key(|o| o.epoch)
                .ok_or_else(|| {
                    ClusterError::Home(HomeError::Violation(format!(
                        "no authoritative outcome for shard {s}: every instance \
                         was killed or fenced"
                    )))
                })?;
            winners.push(win);
        }
        // Adaptive placement may have re-homed entries away from their
        // static modulo shard. Adopt every winner's ownership rows into
        // one placement so the overlay step below attributes each entry
        // to its *effective* final owner. Static runs have no rows and
        // take the classic modulo path unchanged.
        let mut placement = Placement::new(directory);
        for &(entry, shard, epoch) in winners.iter().flat_map(|w| &w.entry_overrides) {
            placement.adopt(entry, shard, epoch);
        }
        let mut winners = winners.into_iter();
        let first = winners.next().expect("at least one shard");
        let (mut final_gthv, mut home_costs, mut home_conv) = (first.gthv, first.costs, first.conv);
        for (i, out) in winners.enumerate() {
            let shard = i as u32 + 1;
            let g = out.gthv;
            let owned: Vec<_> = full_ranges(&g)
                .into_iter()
                .filter(|r| placement.owner(r.entry) == shard)
                .collect();
            let updates = extract_updates(&g, &owned)
                .map_err(|e| ClusterError::Home(HomeError::Update(e)))?;
            let mut scratch = ConversionStats::default();
            apply_batch(&mut final_gthv, &updates, &mut scratch)
                .map_err(|e| ClusterError::Home(HomeError::Update(e)))?;
            home_costs.merge(&out.costs);
            home_conv.merge(&out.conv);
        }
        let mut out_results = Vec::with_capacity(n_workers);
        let mut worker_costs = Vec::with_capacity(n_workers);
        let mut worker_conv = Vec::with_capacity(n_workers);
        for r in results {
            let (r, c, v) = r.expect("worker finished");
            out_results.push(r);
            worker_costs.push(c);
            worker_conv.push(v);
        }
        Ok(ClusterOutcome {
            results: out_results,
            worker_costs,
            worker_conv,
            home_costs,
            home_conv,
            final_gthv,
            net_stats: net.stats(),
            obs: self.recorder.snapshot(),
        })
    }
}

/// Run the migratable computation `start` as one worker's body, on the
/// worker's own `client` and starting on the client's platform; call it
/// from the closure given to [`ClusterBuilder::run`]. `moves` are this
/// worker's planned migrations, `(after_steps, platform)` in the order
/// they fire: each one is honoured at the first adaptation point after
/// `after_steps` completed steps — the computation is captured, packed
/// through CGT-RMR, restored on `platform` (receiver makes right) and the
/// client [re-hosted](DsdClient::rehost) there with the global data.
/// Returns the final thread state and what the migrations cost.
///
/// A program missing from `registry`, or an image the target cannot
/// restore, fails as [`DsdError::Migration`].
pub fn run_migrating(
    client: &mut DsdClient,
    registry: &ProgramRegistry<DsdClient>,
    start: ThreadState,
    moves: &[(u64, Platform)],
) -> Result<(ThreadState, MigrationStats), DsdError> {
    let mut comp = registry.instantiate(start, client.gthv().platform().clone())?;
    let mut moves = moves.iter().peekable();
    let mut stats = MigrationStats::default();
    let mut steps: u64 = 0;
    loop {
        // Honour every move due at this adaptation point.
        while let Some((_, to)) = moves.next_if(|(after, _)| *after <= steps) {
            let t0 = Instant::now();
            let image = pack_state(&comp.capture());
            stats.pack_time += t0.elapsed();
            let t1 = Instant::now();
            comp = registry.restore(&image, to.clone())?;
            stats.restore_time += t1.elapsed();
            client.rehost(to.clone())?;
            stats.migrations += 1;
            stats.image_bytes += image.bytes.len() as u64;
        }
        match comp.step(client) {
            StepStatus::Yield => steps += 1,
            StepStatus::Done => return Ok((comp.capture(), stats)),
        }
    }
}

/// Spawn one node of the cluster — home shard, worker, pump, control
/// script — on its own scoped thread. On the
/// simulated fabric the node is first registered as scheduler actor
/// `name`, and its thread binds to that actor (waiting for the token)
/// before running `f`.
fn spawn_actor<'scope, T: Send + 'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    sim: &Option<SimFabric>,
    name: &str,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    let actor = sim.clone().map(|fabric| {
        let id = fabric.add_actor(name);
        (fabric, id)
    });
    s.spawn(move || {
        let _guard = actor.map(|(fabric, id)| fabric.enter(id));
        f()
    })
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".into())
}
