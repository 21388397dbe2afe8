//! The [`Recorder`] handle — the one type the rest of the stack sees.
//!
//! A recorder is either *disabled* (the default: a `None` inside, every
//! call is a branch on a null pointer and returns immediately — no
//! counters, no clocks, no locks) or *enabled* (an `Arc` to the shared
//! observability core: per-rank event logs, the metrics registry and the
//! heatmaps). Cloning is cheap and
//! every clone feeds the same core, so one recorder wired through
//! `ClusterBuilder::obs` observes the whole cluster.
//!
//! The lock rule: no record call holds two of the core's locks at once,
//! and recording an event takes one. Every event goes through the
//! private `emit`, which stamps the global record sequence under the
//! rings' lock; heat is charged through [`Recorder::heat`] once per
//! batch, and the closure handed to it must not call back into the
//! recorder; [`Recorder::blackbox_trigger_at`] never reads the time
//! source.

use crate::critpath::{self, HomeLayout, OpCritPath};
use crate::event::{Event, EventKind, OpCtx};
use crate::heatmap::Heatmap;
use crate::log::{Tables, TriggerRow};
use crate::metrics::Registry;
use crate::ring::EventRing;
use crate::snapshot::{DecisionRow, ObsSnapshot, RingDropRow};
use crate::timeseries::{Frame, Sample, TimeSeries};
use crate::watchdog::{self, StallReport, WatchdogConfig};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pluggable time source: microseconds since "the epoch" of whatever
/// fabric the cluster runs on. Installed once per recorder by simulation
/// mode so event timestamps and span durations ride the virtual clock
/// and become seed-deterministic. Every rank records on this one clock,
/// which never runs backwards.
pub type TimeSource = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Tunables for an enabled recorder.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Maximum events held per rank before the ring wraps (oldest lost).
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 65_536,
        }
    }
}

/// One in-flight sync operation: begun by the client, not yet returned.
/// The stall watchdog ages these; the flight recorder dumps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightOp {
    /// The operation.
    pub op: OpCtx,
    /// Endpoint rank blocked in it.
    pub rank: u32,
    /// When it began, µs on the fabric timeline.
    pub start_us: u64,
}

#[derive(Default)]
struct WatchdogState {
    /// `None` until `configure_watchdog` arms the scans.
    cfg: Option<WatchdogConfig>,
    /// Op instances that already fired (one report per instance).
    fired: BTreeSet<OpCtx>,
    /// Every report fired so far, in firing order.
    stalls: Vec<StallReport>,
}

struct BlackboxState {
    dir: String,
    last_n: usize,
    seq: u64,
    /// (trigger, key) pairs `blackbox_trigger_once` already fired for.
    fired_keys: BTreeSet<(&'static str, u64)>,
    triggers: Vec<TriggerRow>,
}

pub(crate) struct ObsCore {
    epoch: Instant,
    /// Overrides `epoch.elapsed()` when set (see [`TimeSource`]). Set at
    /// most once, before the cluster starts recording.
    time: OnceLock<TimeSource>,
    /// Capacity of each per-rank ring ([`ObsConfig::ring_capacity`]).
    ring_capacity: usize,
    /// Per-rank event rings, grown on first touch.
    logs: Mutex<Vec<EventRing>>,
    registry: Mutex<Registry>,
    heatmap: Mutex<Heatmap>,
    /// Placement decisions applied by the adaptive engine, in decision
    /// order. Part of the snapshot so same-seed simulated runs compare
    /// decision-for-decision.
    decisions: Mutex<Vec<DecisionRow>>,
    /// Flow-id allocator binding each `MsgSend` to its `MsgRecv`s
    /// (0 is reserved for "no flow").
    flow: AtomicU64,
    /// The next [`Event::seq`], drawn under the `logs` lock so ring order
    /// and sequence order agree.
    seq: AtomicU64,
    /// In-flight sync ops keyed by (kind, id, origin) — one live op per
    /// key, the value carries the concrete epoch.
    inflight: Mutex<BTreeMap<(crate::event::OpKind, u32, u32), InflightOp>>,
    /// Directory epoch per shard, monotone max.
    dir_epochs: Mutex<BTreeMap<u32, u64>>,
    /// The windowed time-series, `None` until enabled.
    timeseries: Mutex<Option<TimeSeries>>,
    watchdog: Mutex<WatchdogState>,
    /// The flight recorder, `None` until enabled.
    blackbox: Mutex<Option<BlackboxState>>,
}

impl ObsCore {
    /// Microseconds since the epoch on the recorder's timeline.
    fn now_us(&self) -> u64 {
        match self.time.get() {
            Some(f) => f(),
            None => self.epoch.elapsed().as_micros() as u64,
        }
    }
}

/// Cheap, cloneable handle to the observability core (or to nothing).
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<ObsCore>>);

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Recorder(enabled)"),
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

impl Recorder {
    /// The no-op recorder (default).
    pub fn disabled() -> Recorder {
        Recorder(None)
    }

    /// An enabled recorder with default configuration.
    pub fn enabled() -> Recorder {
        Recorder::with_config(ObsConfig::default())
    }

    /// An enabled recorder with explicit configuration.
    pub fn with_config(config: ObsConfig) -> Recorder {
        Recorder(Some(Arc::new(ObsCore {
            epoch: Instant::now(),
            time: OnceLock::new(),
            ring_capacity: config.ring_capacity.max(1),
            logs: Mutex::new(Vec::new()),
            registry: Mutex::new(Registry::default()),
            heatmap: Mutex::new(Heatmap::default()),
            decisions: Mutex::new(Vec::new()),
            flow: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            inflight: Mutex::new(BTreeMap::new()),
            dir_epochs: Mutex::new(BTreeMap::new()),
            timeseries: Mutex::new(None),
            watchdog: Mutex::new(WatchdogState::default()),
            blackbox: Mutex::new(None),
        })))
    }

    /// Is this recorder live?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the recorder's epoch (0 when disabled). Reads
    /// the installed `TimeSource` if any, else the wall clock.
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Some(c) => c.now_us(),
            None => 0,
        }
    }

    /// Install a time source for every timestamp this recorder takes from
    /// here on (virtual-clock timestamps in simulation mode). Only the
    /// first call per recorder wins; no-op when disabled.
    pub fn set_time_source(&self, time: TimeSource) {
        if let Some(core) = &self.0 {
            let _ = core.time.set(time);
        }
    }

    /// The one way an event is recorded: under the rings' lock, draw the
    /// next record sequence, stamp the event and push it onto `rank`'s
    /// ring. `span` is `(t_us, dur_us)` of a completed span; an instant
    /// happens at `now_us`.
    #[allow(clippy::too_many_arguments)] // mirrors the Event fields
    fn emit(
        core: &ObsCore,
        now_us: u64,
        rank: u32,
        kind: EventKind,
        span: Option<(u64, u64)>,
        (arg0, arg1): (u64, u64),
        label: &'static str,
        op: OpCtx,
        flow: u64,
    ) {
        let (t_us, dur_us) = span.unwrap_or((now_us, 0));
        let mut logs = core.logs.lock();
        let idx = rank as usize;
        while logs.len() <= idx {
            logs.push(EventRing::new(core.ring_capacity));
        }
        logs[idx].push(Event {
            rank,
            kind,
            t_us,
            dur_us,
            arg0,
            arg1,
            label,
            seq: core.seq.fetch_add(1, Ordering::Relaxed),
            flow,
            op,
        });
    }

    /// The last `tail` held events of every rank in `(t_us, seq)` order —
    /// a causal order: every rank reads the one clock, which never runs
    /// backwards, a send is recorded before its message is enqueued and a
    /// receive after it is dequeued, and `seq` breaks the ties a clock
    /// that stands still (the sim fabric's) leaves. Takes the guard so the
    /// rings are copied under the lock and sorted after it is released.
    fn merged(logs: MutexGuard<'_, Vec<EventRing>>, tail: usize) -> Vec<Event> {
        let mut events: Vec<Event> = logs
            .iter()
            .flat_map(|ring| {
                let skip = ring.len().saturating_sub(tail);
                ring.iter_in_order().skip(skip).copied()
            })
            .collect();
        drop(logs);
        events.sort_by_key(|e| (e.t_us, e.seq));
        events
    }

    /// Record an instant event.
    pub fn instant(&self, rank: u32, kind: EventKind, arg0: u64, arg1: u64, label: &'static str) {
        self.instant_op(rank, kind, arg0, arg1, label, OpCtx::default());
    }

    /// Record an instant event attributed to sync operation `op`.
    pub fn instant_op(
        &self,
        rank: u32,
        kind: EventKind,
        arg0: u64,
        arg1: u64,
        label: &'static str,
        op: OpCtx,
    ) {
        if let Some(core) = &self.0 {
            let now = core.now_us();
            Self::emit(core, now, rank, kind, None, (arg0, arg1), label, op, 0);
        }
    }

    /// Record a completed span attributed to sync operation `op`.
    #[allow(clippy::too_many_arguments)] // mirrors the Event fields
    pub fn span_at_op(
        &self,
        rank: u32,
        kind: EventKind,
        t_us: u64,
        dur_us: u64,
        arg0: u64,
        arg1: u64,
        label: &'static str,
        op: OpCtx,
    ) {
        if let Some(core) = &self.0 {
            let (now, span) = (core.now_us(), Some((t_us, dur_us)));
            Self::emit(core, now, rank, kind, span, (arg0, arg1), label, op, 0);
            core.registry.lock().observe(kind.name(), dur_us);
        }
    }

    // ----- message trace context (fed by the fabric send/recv paths) -----

    /// A message is leaving rank `src`: allocate a flow id, record the
    /// `MsgSend` event, and return the flow for the sender to stamp into
    /// the envelope. Called before the message is enqueued. `None` when
    /// disabled — the envelope then carries no trace context at all.
    pub fn msg_send_event(
        &self,
        src: u32,
        bytes: u64,
        dst: u32,
        label: &'static str,
        op: OpCtx,
    ) -> Option<u64> {
        let core = self.0.as_ref()?;
        let now = core.now_us();
        let flow = core.flow.fetch_add(1, Ordering::Relaxed);
        let args = (bytes, dst as u64);
        Self::emit(
            core,
            now,
            src,
            EventKind::MsgSend,
            None,
            args,
            label,
            op,
            flow,
        );
        Some(flow)
    }

    /// A message from `src` was dequeued at `rank`: record the `MsgRecv`
    /// event bound to the send's `flow` (0 for an untraced message).
    pub fn msg_recv_event(
        &self,
        rank: u32,
        bytes: u64,
        src: u32,
        label: &'static str,
        flow: u64,
        op: OpCtx,
    ) {
        if let Some(core) = &self.0 {
            let now = core.now_us();
            let args = (bytes, src as u64);
            Self::emit(
                core,
                now,
                rank,
                EventKind::MsgRecv,
                None,
                args,
                label,
                op,
                flow,
            );
        }
    }

    /// Open a timing span; the event is recorded (and its duration fed
    /// into the per-kind latency histogram) when the guard drops. On a
    /// disabled recorder the guard is inert and costs nothing.
    pub fn span(&self, rank: u32, kind: EventKind) -> Span {
        match &self.0 {
            Some(core) => Span {
                inner: Some(SpanInner {
                    rec: self.clone(),
                    rank,
                    kind,
                    t_us: core.now_us(),
                    arg0: 0,
                    arg1: 0,
                    op: OpCtx::default(),
                }),
            },
            None => Span { inner: None },
        }
    }

    /// Add `delta` to counter `name`.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(core) = &self.0 {
            core.registry.lock().count(name, delta);
        }
    }

    /// Set gauge `name`.
    pub fn gauge(&self, name: &'static str, value: i64) {
        if let Some(core) = &self.0 {
            core.registry.lock().gauge(name, value);
        }
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(core) = &self.0 {
            core.registry.lock().observe(name, value);
        }
    }

    // ----- heat maps -----

    /// Lend the locked heat map to `f`: the one way heat is charged or
    /// read. Callers make one call per batch of work (a release's ranges,
    /// an acquire's run groups, a completed release's destination) and
    /// walk the items inside `f`, which must not call back into the
    /// recorder. `None`, with `f` not run, when disabled.
    pub fn heat<R>(&self, f: impl FnOnce(&mut Heatmap) -> R) -> Option<R> {
        self.0.as_ref().map(|core| f(&mut core.heatmap.lock()))
    }

    // ----- placement decisions -----

    /// The adaptive placement engine applied a decision: record it for
    /// the snapshot's `placement` section.
    pub fn placement_decision(&self, row: DecisionRow) {
        if let Some(core) = &self.0 {
            core.decisions.lock().push(row);
        }
    }

    // ----- in-flight sync operations (fed by the client) -----

    /// Sync op `op` began on endpoint rank `rank`: enter it into the
    /// in-flight table the stall watchdog ages and the flight recorder
    /// dumps. No-op when disabled or unattributed.
    pub fn op_begin(&self, rank: u32, op: OpCtx) {
        if let Some(core) = &self.0 {
            if !op.is_some() {
                return;
            }
            let start_us = core.now_us();
            core.inflight.lock().insert(
                (op.kind, op.id, op.origin),
                InflightOp { op, rank, start_us },
            );
        }
    }

    /// Sync op `op` returned (successfully or not): retire it from the
    /// in-flight table. No-op when disabled or unattributed.
    pub fn op_end(&self, op: OpCtx) {
        if let Some(core) = &self.0 {
            if !op.is_some() {
                return;
            }
            core.inflight.lock().remove(&(op.kind, op.id, op.origin));
        }
    }

    // ----- directory epochs (fed by the home shards) -----

    /// Shard `shard`'s directory epoch reached `epoch`. Monotone max, so
    /// a replica reporting its pre-promotion epoch can't regress the
    /// table. No-op when disabled.
    pub fn dir_epoch(&self, shard: u32, epoch: u64) {
        if let Some(core) = &self.0 {
            let mut t = core.dir_epochs.lock();
            let e = t.entry(shard).or_insert(0);
            *e = (*e).max(epoch);
        }
    }

    // ----- windowed time-series -----

    /// Turn on the windowed time-series: one delta [`Frame`] per
    /// [`Self::tick_window`] call, at most `cap` frames retained (oldest
    /// lost first). No-op when disabled.
    pub fn enable_timeseries(&self, cap: usize) {
        if let Some(core) = &self.0 {
            *core.timeseries.lock() = Some(TimeSeries::new(cap));
        }
    }

    /// One cumulative sample of every windowed table, taken lock by lock
    /// (never nested) so any feed path can run concurrently. `dests` is
    /// the fabric's per-destination `(msgs, bytes)` totals, which the
    /// recorder does not count itself.
    fn sample(core: &ObsCore, dests: BTreeMap<u32, (u64, u64)>) -> Sample {
        let mut s = Sample {
            dests,
            ..Sample::default()
        };
        {
            let reg = core.registry.lock();
            for (k, v) in reg.counters() {
                s.counters.insert(k.to_string(), v);
            }
        }
        {
            let logs = core.logs.lock();
            for (rank, ring) in logs.iter().enumerate() {
                if ring.total_pushed() > 0 {
                    s.rank_events.insert(rank as u32, ring.total_pushed());
                }
            }
        }
        {
            let hm = core.heatmap.lock();
            for (entry, e) in hm.entries() {
                if e.bytes_sent > 0 {
                    s.entry_bytes.insert(entry, e.bytes_sent);
                }
            }
        }
        s.dir_epochs = core.dir_epochs.lock().clone();
        s.decisions = core.decisions.lock().clone();
        s.in_flight = core.inflight.lock().len() as u32;
        s
    }

    /// Close the telemetry window ending at `t_us` (an exact tick
    /// boundary on the fabric clock) and return the emitted frame.
    /// `per_dest` is the fabric's cumulative `(msgs, bytes)` per
    /// destination endpoint as of the tick — the cluster's telemetry
    /// actor, which holds the `Network`, reads it from `NetStats`. `None`
    /// when the time-series is off or the recorder disabled.
    pub fn tick_window(&self, t_us: u64, per_dest: BTreeMap<u32, (u64, u64)>) -> Option<Frame> {
        let core = self.0.as_ref()?;
        if core.timeseries.lock().is_none() {
            return None;
        }
        let cur = Self::sample(core, per_dest);
        let mut ts = core.timeseries.lock();
        ts.as_mut().map(|t| t.push(t_us, cur))
    }

    /// The retained frames, oldest first. Empty when off or disabled.
    pub fn timeseries_frames(&self) -> Vec<Frame> {
        match &self.0 {
            None => Vec::new(),
            Some(core) => {
                let ts = core.timeseries.lock();
                ts.as_ref()
                    .map(|t| t.frames().cloned().collect())
                    .unwrap_or_default()
            }
        }
    }

    // ----- stall watchdog -----

    /// Arm the stall watchdog: subsequent [`Recorder::watchdog_scan`]
    /// calls age in-flight ops against `cfg`'s budgets. No-op when
    /// disabled.
    pub fn configure_watchdog(&self, cfg: WatchdogConfig) {
        if let Some(core) = &self.0 {
            core.watchdog.lock().cfg = Some(cfg);
        }
    }

    /// Age every in-flight op against its budget as of `now_us` (a tick
    /// boundary, so same-seed sim runs fire at identical virtual times).
    /// Each op instance fires at most once; a firing records a `Stall`
    /// event and produces a [`StallReport`] with the critical-path
    /// attribution of the time spent so far. Returns the reports *new in
    /// this scan*; the full history stays in
    /// [`Recorder::stall_reports`]. Empty when unarmed or disabled.
    pub fn watchdog_scan(&self, now_us: u64) -> Vec<StallReport> {
        let Some(core) = self.0.as_ref() else {
            return Vec::new();
        };
        let Some(cfg) = core.watchdog.lock().cfg else {
            return Vec::new();
        };
        let inflight: Vec<InflightOp> = core.inflight.lock().values().copied().collect();
        let mut new_reports = Vec::new();
        // Event stream + home layout are gathered once, and only if some
        // op actually breaches.
        let mut lazy: Option<(Vec<Event>, HomeLayout)> = None;
        for f in inflight {
            let age = now_us.saturating_sub(f.start_us);
            let history = {
                let reg = core.registry.lock();
                watchdog::histogram_for(f.op.kind)
                    .and_then(|name| reg.histogram(name))
                    .map(|h| (h.count(), h.quantile(0.99)))
            };
            let Some(budget) = watchdog::budget_for(&cfg, history) else {
                continue;
            };
            if age <= budget || !core.watchdog.lock().fired.insert(f.op) {
                continue;
            }
            let (kind, args) = (EventKind::Stall, (age, budget));
            Self::emit(core, now_us, f.rank, kind, None, args, "", f.op, 0);
            let (events, homes) = lazy.get_or_insert_with(|| (self.events(), self.homes()));
            let critpath = watchdog::attribute(events, f.op, f.rank, f.start_us, age, *homes);
            let report = StallReport {
                op: f.op,
                rank: f.rank,
                start_us: f.start_us,
                age_us: age,
                budget_us: budget,
                fired_at_us: now_us,
                critpath,
            };
            core.watchdog.lock().stalls.push(report.clone());
            new_reports.push(report);
        }
        new_reports
    }

    /// Every stall the watchdog has fired so far, in firing order.
    /// Empty when disabled.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        match &self.0 {
            None => Vec::new(),
            Some(core) => core.watchdog.lock().stalls.clone(),
        }
    }

    // ----- black-box flight recorder -----

    /// Enable the flight recorder. When something goes wrong — the stall
    /// watchdog fires, a worker is lost, a lease expires, a shard changes
    /// view, the sim fabric detects a deadlock, or an operator calls
    /// `ClusterCtl::dump` — a trigger writes a *bundle* to
    /// `<dir>/blackbox-<trigger>-<seq>.jsonl`: the run's log
    /// ([`Self::log`]) over the last `last_n` events per rank, plus the
    /// sync ops in flight and the directory epochs, stamped with the
    /// trigger's time. Each trigger is also kept in memory
    /// ([`Self::blackbox_triggers`]), so same-seed simulated runs compare
    /// trigger for trigger. No-op when disabled.
    pub fn enable_blackbox(&self, dir: &str, last_n: usize) {
        if let Some(core) = &self.0 {
            *core.blackbox.lock() = Some(BlackboxState {
                dir: dir.to_string(),
                last_n: last_n.max(1),
                seq: 0,
                fired_keys: BTreeSet::new(),
                triggers: Vec::new(),
            });
        }
    }

    /// Fire the flight recorder now. Returns the bundle path, `None`
    /// when disabled, not enabled for blackbox, or the write failed.
    pub fn blackbox_trigger(&self, trigger: &'static str) -> Option<String> {
        let t_us = self.0.as_ref()?.now_us();
        self.blackbox_trigger_at(trigger, t_us)
    }

    /// Fire at most once per `(trigger, key)` pair — for hook sites that
    /// can fire repeatedly for one underlying incident (every stale
    /// client bouncing off the same view change, say).
    pub fn blackbox_trigger_once(&self, trigger: &'static str, key: u64) -> Option<String> {
        let core = self.0.as_ref()?;
        {
            let mut bb = core.blackbox.lock();
            if !bb.as_mut()?.fired_keys.insert((trigger, key)) {
                return None;
            }
        }
        let t_us = core.now_us();
        self.blackbox_trigger_at(trigger, t_us)
    }

    /// Fire the flight recorder with an explicit timestamp. This variant
    /// never reads the recorder's time source, so the sim scheduler can
    /// call it from its deadlock detector while holding the state lock
    /// the sim time source would need.
    pub fn blackbox_trigger_at(&self, trigger: &'static str, t_us: u64) -> Option<String> {
        let core = self.0.as_ref()?;
        let (dir, last_n, seq) = {
            let mut bb = core.blackbox.lock();
            let st = bb.as_mut()?;
            let seq = st.seq;
            st.seq += 1;
            st.triggers.push(TriggerRow {
                trigger,
                seq,
                t_us,
                path: String::new(),
            });
            (st.dir.clone(), st.last_n, seq)
        };
        // The bundle is the run's log over the last `last_n` events per
        // rank, stamped with the trigger's time: gathering it reads no
        // clock and holds one lock at a time.
        let bundle = self.tables(last_n, t_us, Some((trigger, seq)))?.render();
        let path = Path::new(&dir).join(format!("blackbox-{trigger}-{seq}.jsonl"));
        let written = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, bundle));
        let path = written.ok().map(|()| path.to_string_lossy().into_owned());
        if let Some(p) = &path {
            let mut bb = core.blackbox.lock();
            if let Some(row) = bb
                .as_mut()
                .and_then(|st| st.triggers.iter_mut().find(|r| r.seq == seq))
            {
                row.path = p.clone();
            }
        }
        path
    }

    /// The trigger log, in firing order. Empty when disabled or the
    /// flight recorder is off.
    pub fn blackbox_triggers(&self) -> Vec<TriggerRow> {
        match &self.0 {
            None => Vec::new(),
            Some(core) => {
                let bb = core.blackbox.lock();
                bb.as_ref()
                    .map(|st| st.triggers.clone())
                    .unwrap_or_default()
            }
        }
    }

    // ----- export -----

    /// Every held event across ranks in `(t_us, seq)` order, a causal
    /// one: each `MsgSend` precedes every `MsgRecv` of its flow, and each
    /// rank's instants keep their recording order. Empty when disabled.
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            None => Vec::new(),
            Some(core) => Self::merged(core.logs.lock(), usize::MAX),
        }
    }

    /// The run as its JSONL log (the row schema is in the `log` module's
    /// docs): a `header`, every held event in [`Self::events`] order, the
    /// in-flight ops and directory epochs, then the time-series frames,
    /// stall reports, placement decisions and flight-recorder triggers.
    /// Empty when disabled.
    pub fn log(&self) -> String {
        let tables = self.tables(usize::MAX, self.now_us(), None);
        tables.map_or(String::new(), |t| t.render())
    }

    /// The tables one log renders: the last `tail` events per rank and
    /// everything else the recorder holds, gathered one lock at a time.
    /// Reads no clock: `wall_us` is the caller's. `None` when disabled.
    fn tables(
        &self,
        tail: usize,
        wall_us: u64,
        trigger: Option<(&'static str, u64)>,
    ) -> Option<Tables> {
        let core = self.0.as_ref()?;
        let logs = core.logs.lock();
        let recorded = logs.iter().map(EventRing::total_pushed).sum();
        let dropped = logs.iter().map(EventRing::dropped).sum();
        let events = Self::merged(logs, tail);
        let inflight = core.inflight.lock().values().copied().collect();
        let epochs = core
            .dir_epochs
            .lock()
            .iter()
            .map(|(&s, &e)| (s, e))
            .collect();
        Some(Tables {
            homes: self.homes(),
            wall_us,
            recorded,
            dropped,
            trigger,
            events,
            inflight,
            epochs,
            frames: self.timeseries_frames(),
            stalls: self.stall_reports(),
            decisions: core.decisions.lock().clone(),
            triggers: self.blackbox_triggers(),
        })
    }

    /// The per-sync-op critical paths of the held events
    /// (the analyzer over [`Self::events`] and [`Self::homes`]).
    /// Computed when asked for: whoever reads the paths pays for the merge
    /// and the walk, an armed run that does not pays nothing. Empty when
    /// disabled.
    pub fn critpaths(&self) -> Vec<OpCritPath> {
        match &self.0 {
            None => Vec::new(),
            Some(_) => critpath::analyze(&self.events(), self.homes()),
        }
    }

    /// The home layout the cluster published (`cluster.shards` and
    /// `cluster.replicas`; one unreplicated shard when it did not, or
    /// when disabled): what names an endpoint a shard, a standby or a
    /// worker rank.
    pub fn homes(&self) -> HomeLayout {
        let registry = self.0.as_ref().map(|core| core.registry.lock());
        HomeLayout::from_gauges(|name| registry.as_ref()?.gauge_value(name))
    }

    /// Freeze the current tables into a machine-readable snapshot. A
    /// copy, table by table: the rings are counted, not merged, and
    /// nothing is analysed (see [`Self::critpaths`]). `None` when
    /// disabled.
    pub fn snapshot(&self) -> Option<ObsSnapshot> {
        let core = self.0.as_ref()?;
        let ring_drops: Vec<RingDropRow> = core
            .logs
            .lock()
            .iter()
            .enumerate()
            .map(|(rank, ring)| RingDropRow {
                rank: rank as u32,
                recorded: ring.total_pushed(),
                dropped: ring.dropped(),
            })
            .collect();
        let registry = core.registry.lock();
        let heatmap = core.heatmap.lock();
        let decisions = core.decisions.lock();
        let stalls = core.watchdog.lock().stalls.clone();
        Some(ObsSnapshot::build(
            core.now_us(),
            &registry,
            &heatmap,
            &decisions,
            ring_drops,
            stalls,
        ))
    }
}

struct SpanInner {
    rec: Recorder,
    rank: u32,
    kind: EventKind,
    t_us: u64,
    arg0: u64,
    arg1: u64,
    op: OpCtx,
}

/// Guard for an open timing span (see [`Recorder::span`]).
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attach arguments to the eventual event.
    pub fn args(&mut self, arg0: u64, arg1: u64) {
        if let Some(i) = &mut self.inner {
            i.arg0 = arg0;
            i.arg1 = arg1;
        }
    }

    /// Attribute the eventual event to sync operation `op`.
    pub fn op(&mut self, op: OpCtx) {
        if let Some(i) = &mut self.inner {
            i.op = op;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            // Duration on the recorder's own timeline: wall micros
            // normally, virtual micros (usually zero-width) in sim mode.
            let dur_us = i.rec.now_us().saturating_sub(i.t_us);
            i.rec
                .span_at_op(i.rank, i.kind, i.t_us, dur_us, i.arg0, i.arg1, "", i.op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.instant(0, EventKind::Other, 1, 2, "x");
        r.count("c", 5);
        r.observe("h", 9);
        assert!(r.heat(|h| h.release_to(0, 0)).is_none());
        {
            let mut s = r.span(0, EventKind::DiffScan);
            s.args(1, 2);
        }
        assert!(r.events().is_empty());
        assert!(r.critpaths().is_empty());
        assert!(r.snapshot().is_none());
        assert!(r.log().is_empty());
        assert_eq!(r.now_us(), 0);
    }

    #[test]
    fn a_bundle_is_the_logs_tail_at_the_trigger_time() {
        let dir = std::env::temp_dir().join(format!("hdsm-obs-bundle-{}", std::process::id()));
        let r = Recorder::enabled();
        r.set_time_source(Arc::new(|| 7));
        r.gauge("cluster.shards", 2);
        r.enable_blackbox(&dir.to_string_lossy(), 2);
        for arg in 0..5 {
            r.instant(1, EventKind::Other, arg, 0, "");
        }
        let path = r
            .blackbox_trigger_at("dump", 1_000)
            .expect("bundle written");
        assert!(path.ends_with("blackbox-dump-0.jsonl"), "{path}");
        let bundle = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).ok();
        let rows = |text: &str, kind: &str| -> Vec<String> {
            let tag = format!(r#"{{"row":"{kind}""#);
            text.lines()
                .filter(|l| l.starts_with(&tag))
                .map(String::from)
                .collect()
        };
        let log = r.log();
        assert!(
            log.starts_with(r#"{"row":"header","schema":1,"shards":2,"replicas":0,"wall_us":7,"#)
        );
        assert!(bundle.starts_with(
            r#"{"row":"header","schema":1,"trigger":"dump","seq":0,"shards":2,"replicas":0,"wall_us":1000,"#
        ));
        let (all, tail) = (rows(&log, "event"), rows(&bundle, "event"));
        assert_eq!(all.len(), 5);
        assert_eq!(tail, all[3..], "the last two events of rank 1");
        assert_eq!(rows(&log, "trigger"), rows(&bundle, "trigger"));
    }

    #[test]
    fn spans_and_instants_are_recorded_per_rank() {
        let r = Recorder::enabled();
        r.instant(2, EventKind::Retransmit, 0, 0, "");
        {
            let mut s = r.span(1, EventKind::DiffScan);
            s.args(64, 0);
        }
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert!(evs
            .iter()
            .any(|e| e.rank == 2 && e.kind == EventKind::Retransmit));
        let scan = evs.iter().find(|e| e.kind == EventKind::DiffScan).unwrap();
        assert_eq!(scan.rank, 1);
        assert_eq!(scan.arg0, 64);
        // The span also fed the per-kind histogram.
        let snap = r.snapshot().unwrap();
        let hist = snap.histograms.iter().find(|h| h.name == "diff-scan");
        assert_eq!(hist.map(|h| h.count), Some(1));
    }

    #[test]
    fn stall_and_instants_in_one_microsecond_keep_recording_order() {
        // The watchdog's `Stall` goes through `emit` like every other
        // event: on a clock that stands still it draws the same record
        // sequence the instants around it draw, so the stream stays in
        // recording order.
        let now = Arc::new(AtomicU64::new(0));
        let r = Recorder::enabled();
        let clock = now.clone();
        r.set_time_source(Arc::new(move || clock.load(Ordering::Relaxed)));
        r.configure_watchdog(WatchdogConfig {
            budget_us: Some(100),
            ..Default::default()
        });
        let op = OpCtx {
            kind: crate::event::OpKind::Lock,
            id: 0,
            epoch: 1,
            origin: 3,
        };
        r.op_begin(3, op);
        now.store(500, Ordering::Relaxed);
        r.instant(3, EventKind::Other, 0, 0, "before");
        assert_eq!(
            r.watchdog_scan(500).len(),
            1,
            "500 us in flight, budget 100"
        );
        r.instant(3, EventKind::Other, 0, 0, "after");
        let evs = r.events();
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::Other, EventKind::Stall, EventKind::Other]
        );
        assert!(evs.iter().all(|e| e.rank == 3 && e.t_us == 500));
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq), "{evs:?}");
        assert_eq!(evs[1].op, op);
    }

    #[test]
    fn ties_on_a_standing_clock_break_by_recording_order_not_rank() {
        // Virtual time that does not advance: a higher rank's send and a
        // lower rank's receive of it share `t_us`, and the receive, taken
        // second, must still come second.
        let r = Recorder::enabled();
        r.set_time_source(Arc::new(|| 0));
        let flow = r.msg_send_event(2, 8, 0, "x", OpCtx::default()).unwrap();
        r.msg_recv_event(0, 8, 2, "x", flow, OpCtx::default());
        let kinds: Vec<(u32, EventKind)> = r.events().iter().map(|e| (e.rank, e.kind)).collect();
        assert_eq!(kinds, [(2, EventKind::MsgSend), (0, EventKind::MsgRecv)]);
    }

    #[test]
    fn ring_capacity_bounds_memory_and_counts_drops() {
        let r = Recorder::with_config(ObsConfig { ring_capacity: 8 });
        for _ in 0..20 {
            r.instant(0, EventKind::Other, 0, 0, "");
        }
        assert_eq!(r.events().len(), 8);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.events_recorded, 20);
        assert_eq!(snap.events_dropped, 12);
    }
}
