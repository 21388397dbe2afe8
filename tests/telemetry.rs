//! Live telemetry: the determinism and transparency contracts.
//!
//! The telemetry layer (windowed time-series, stall watchdog, flight
//! recorder) rides the same fabric clock as everything else, so on the
//! simulated fabric it inherits the reproducibility contract: two runs
//! with the same seed must write byte-identical logs (events, time-series
//! frames, stalls, triggers) and fire the watchdog at the same virtual
//! microsecond with the same attribution. And because every hot-path hook is a null check when the
//! recorder is disabled, a disabled run's wire traffic must be identical
//! to a fully-armed run of the same seed.

use hdsm::apps::workload::paper_pairs;
use hdsm::apps::Kernel;
use hdsm::dsd::cluster::{ClusterBuilder, ClusterOutcome, TimingConfig, TopologyConfig};
use hdsm::dsd::{BarrierId, CostBreakdown, GthvDef, LockId};
use hdsm::net::{FabricMode, FaultPlan, NetConfig, NetStats};
use hdsm::obs::{
    EntryRow, EventKind, Frame, ObsSnapshot, OpKind, Recorder, StallReport, TriggerRow,
};
use hdsm::platform::ctype::StructBuilder;
use hdsm::platform::scalar::ScalarKind;
use hdsm::platform::spec::PlatformSpec;
use std::collections::BTreeMap;
use std::time::Duration;

fn counters_def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 16)
            .build()
            .unwrap(),
    )
    .unwrap()
}

/// One seeded stalled run: two workers trade a lock and then meet at a
/// barrier, while the control script severs worker endpoint 1 from the
/// single home shard (endpoint 0) mid-run and heals two virtual seconds
/// later. With a fixed 400 ms stall budget and a 100 ms telemetry
/// window, the watchdog must fire on the partitioned op at an exact
/// tick boundary, and the stall trigger must freeze a bundle in `dir`.
/// Returns the run's log and tables, its triggers and stalls, its
/// traffic and the counter it computed.
fn stalled_run(dir: String) -> StalledRun {
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(counters_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 0x7E1E },
            ..Default::default()
        })
        // Per-message jitter stretches the workload across enough
        // virtual time that the partition lands mid-lock-traffic
        // (jitter-free, the whole run finishes in under 5 virtual ms).
        .net(
            NetConfig::instant()
                .with_faults(FaultPlan::seeded(0x717E).jitter(Duration::from_micros(500))),
        )
        .timing(TimingConfig {
            lease: None,
            // A generous retry budget: the 2 s partition must not
            // exhaust it, so the first post-heal retransmit completes
            // the stalled op instead of waiting out the deadline.
            max_retries: Some(50),
            retry_base: Some(Duration::from_millis(50)),
            recv_deadline: Some(Duration::from_secs(30)),
            stall_budget: Some(Duration::from_millis(400)),
        })
        .telemetry(Duration::from_millis(100), 256)
        .flight_recorder(dir)
        .obs(recorder.clone())
        .control(|ctl| {
            ctl.sleep(Duration::from_millis(10));
            ctl.partition(1, 0);
            ctl.sleep(Duration::from_secs(2));
            ctl.heal();
        })
        .run(|c, info| {
            // Enough lock traffic that the partition lands mid-op.
            for _ in 0..40 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            c.write_int(0, 1 + info.index as u64, info.index as i128 + 1)?;
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .expect("stalled run completes after the heal");
    let counter = outcome.final_gthv.read_int(0, 0).unwrap();
    assert_frames_follow_the_fabric_ledger(&recorder, &outcome.net_stats);
    (
        recorder.log(),
        outcome.obs.expect("armed run"),
        recorder.blackbox_triggers(),
        recorder.stall_reports(),
        outcome.net_stats,
        counter,
    )
}

type StalledRun = (
    String,
    ObsSnapshot,
    Vec<TriggerRow>,
    Vec<StallReport>,
    NetStats,
    i128,
);

/// The `"row"` kind of one log line.
fn row_kind(line: &str) -> &str {
    let rest = line.strip_prefix(r#"{"row":""#).expect("a log row");
    &rest[..rest.find('"').expect("a closed kind")]
}

/// One traffic ledger: the recorder counts no messages, the telemetry
/// actor hands each window the fabric's per-destination totals. Close one
/// last window on the run's final `NetStats` and every destination's
/// deltas telescope to its row — to the message and the byte — which they
/// only can if every tick was fed that same ledger, a prefix of it.
fn assert_frames_follow_the_fabric_ledger(recorder: &Recorder, stats: &NetStats) {
    let live = recorder.timeseries_frames();
    assert!(live.iter().map(Frame::msgs).sum::<u64>() > 0);
    let totals: BTreeMap<u32, (u64, u64)> = stats
        .by_dest
        .iter()
        .map(|(&dst, t)| (dst, (t.msgs, t.bytes)))
        .collect();
    let end = live.last().expect("a frame per tick").t_us + 1;
    recorder.tick_window(end, totals.clone());
    let mut summed: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (dst, msgs, bytes) in recorder
        .timeseries_frames()
        .into_iter()
        .flat_map(|f| f.dests)
    {
        let row = summed.entry(dst).or_default();
        *row = (row.0 + msgs, row.1 + bytes);
    }
    assert_eq!(summed, totals, "frames' per-destination deltas vs NetStats");
}

#[test]
fn seeded_stall_fires_watchdog_deterministically_and_writes_a_bundle() {
    let base = concat!(env!("CARGO_TARGET_TMPDIR"), "/telemetry-stall");
    let (log_a, snap_a, trig_a, stalls_a, stats_a, counter_a) = stalled_run(format!("{base}-a"));
    let (log_b, snap_b, trig_b, stalls_b, stats_b, counter_b) = stalled_run(format!("{base}-b"));

    // The workload itself survived the partition.
    assert_eq!(counter_a, 80, "all increments survive the partition");
    assert_eq!(counter_b, 80);

    // Reproducibility: the log (events, time-series frames, stalls and
    // triggers) is byte-identical, the watchdog fired at the same virtual
    // microseconds with the same attribution, and the flight recorder saw
    // the same trigger sequence (paths differ by directory, nothing else
    // may).
    assert!(
        log_a.lines().any(|l| row_kind(l) == "frame"),
        "time-series frames were emitted"
    );
    assert_eq!(log_a, log_b, "same seed ⇒ byte-identical log");
    assert_eq!(snap_a, snap_b, "same seed ⇒ identical tables");
    assert_eq!(stalls_a, stalls_b, "same seed ⇒ identical stall reports");
    let key = |t: &[TriggerRow]| -> Vec<(&'static str, u64, u64)> {
        t.iter().map(|r| (r.trigger, r.seq, r.t_us)).collect()
    };
    assert_eq!(key(&trig_a), key(&trig_b), "same seed ⇒ same triggers");
    assert_eq!(stats_a, stats_b, "same seed ⇒ same wire traffic");

    // The watchdog fired on the stuck sync op, at an exact window
    // boundary, past the configured budget — and its critical path
    // accounts for every microsecond of the measured stall.
    assert!(!stalls_a.is_empty(), "the partition must trip the watchdog");
    for s in &stalls_a {
        assert_eq!(s.budget_us, 400_000, "fixed budget wins");
        assert!(s.age_us >= s.budget_us, "fired only past the budget");
        assert_eq!(s.fired_at_us % 100_000, 0, "fires on tick boundaries");
        let sum: u64 = s.critpath.segments.iter().map(|g| g.dur_us).sum();
        assert_eq!(
            sum, s.critpath.latency_us,
            "critpath segments sum to the measured latency"
        );
        assert!(
            s.critpath.latency_us >= s.age_us,
            "the attributed path covers the whole stall"
        );
    }
    assert!(
        stalls_a
            .iter()
            .any(|s| matches!(s.op.kind, OpKind::Barrier | OpKind::Lock)),
        "the stuck op is the partitioned sync op"
    );

    // The stall trigger froze a bundle on disk, in each run's own dir.
    let stall_trigger = trig_a
        .iter()
        .find(|t| t.trigger == "stall")
        .expect("a stall bundle was triggered");
    assert!(
        !stall_trigger.path.is_empty(),
        "the bundle write must succeed"
    );
    assert!(
        std::path::Path::new(&stall_trigger.path).is_file(),
        "bundle file exists at {}",
        stall_trigger.path
    );
    let bundle = std::fs::read_to_string(&stall_trigger.path).unwrap();
    let header = bundle.lines().next().expect("a header row");
    assert!(
        header.starts_with(r#"{"row":"header","schema":1,"trigger":"stall","#),
        "bundle header: {header}"
    );
    for kind in ["trigger", "inflight", "epoch", "stall", "frame", "event"] {
        assert!(
            bundle.lines().any(|l| row_kind(l) == kind),
            "bundle carries {kind} rows"
        );
    }
    // The bundle is the log's tail: every event it froze is a line of the
    // end-of-run log (the rings dropped nothing in between).
    assert_eq!(snap_a.events_dropped, 0);
    let log_lines: std::collections::HashSet<&str> = log_a.lines().collect();
    let frozen: Vec<&str> = bundle.lines().filter(|l| row_kind(l) == "event").collect();
    assert!(!frozen.is_empty());
    for line in frozen {
        assert!(
            log_lines.contains(line),
            "bundle event not in the log: {line}"
        );
    }
}

/// One clean seeded run, recorder on or off. With the recorder off the
/// telemetry knobs are inert and every obs hook is a null check.
fn clean_run(enabled: bool) -> (NetStats, Vec<u8>) {
    let recorder = if enabled {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let observer = recorder.clone();
    let mut b = ClusterBuilder::new()
        .gthv(counters_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: 0xBEA7 },
            ..Default::default()
        })
        .telemetry(Duration::from_millis(50), 128)
        .obs(recorder);
    if enabled {
        b = b.flight_recorder(concat!(
            env!("CARGO_TARGET_TMPDIR"),
            "/telemetry-differential"
        ));
    }
    let outcome = b
        .run(|c, info| {
            for _ in 0..20 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            c.write_int(0, 1 + info.index as u64, 7)?;
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .expect("clean run");
    // A disabled recorder has nothing to export.
    assert_eq!(observer.log().is_empty(), !enabled);
    (outcome.net_stats, outcome.final_gthv.space().raw().to_vec())
}

#[test]
fn disabled_recorder_keeps_wire_bytes_identical_to_armed_run() {
    let (stats_off, bytes_off) = clean_run(false);
    let (stats_on, bytes_on) = clean_run(true);
    assert_eq!(
        stats_off, stats_on,
        "telemetry must not change a single wire byte"
    );
    assert_eq!(bytes_off, bytes_on, "and must not change the computation");
}

#[test]
fn every_charged_eq1_term_has_a_span_of_its_kind_on_that_rank() {
    // The trace covers the ledger: wherever a rank's `CostBreakdown`
    // charged time to an Eq. 1 term, the same region is a span of the
    // matching kind on that rank. One home shard on the threaded fabric,
    // so the home is endpoint 0 and worker `i` is endpoint `i + 1`.
    // Worker 0 only ever acquires, so the only packing it is charged for
    // is encoding its own requests; worker 1 runs the release pipeline.
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(counters_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(2)
        .obs(recorder.clone())
        .run(|c, info| {
            let lock = LockId::new(info.index as u32);
            c.acquire(lock)?;
            if info.index == 1 {
                c.write_int(0, 1, 7)?;
                c.release(lock)?;
            }
            Ok(())
        })
        .expect("clean run");
    let events = recorder.events();
    let ledgers = std::iter::once(&outcome.home_costs).chain(&outcome.worker_costs);
    for (rank, costs) in ledgers.enumerate() {
        for (term, charged, kind) in [
            ("t_index", costs.t_index, EventKind::DiffScan),
            ("t_tag", costs.t_tag, EventKind::TagBuild),
            ("t_pack", costs.t_pack, EventKind::Pack),
            ("t_unpack", costs.t_unpack, EventKind::Unpack),
            ("t_conv", costs.t_conv, EventKind::Convert),
        ] {
            let traced = events
                .iter()
                .any(|e| e.rank == rank as u32 && e.kind == kind);
            assert!(
                charged.is_zero() || traced,
                "rank {rank} charged {charged:?} to {term} without a {kind:?} span"
            );
        }
    }
    assert!(
        outcome.worker_costs.iter().all(|c| !c.t_pack.is_zero()),
        "every worker packed at least its requests"
    );
}

/// Hold an armed run's heat ledger to the Eq. 1 counters of the same run:
/// what the heat map says shipped and landed, entry by entry, is what the
/// ranks' `CostBreakdown`s counted. Heat is charged a batch at a time (a
/// run of ranges or a run group per entry row), so a charge that
/// miscounted the runs of a group would show here and nowhere else.
fn assert_heat_ledger<R>(outcome: &ClusterOutcome<R>, recorder: &Recorder) {
    let snap = outcome.obs.as_ref().expect("armed run");
    assert_eq!(snap.events_dropped, 0, "the spans below must all be held");
    let workers: CostBreakdown = outcome.worker_costs.iter().sum();

    // Released: every entry row agrees with its per-writer attribution,
    // the rows sum to the workers' update count, and they are what was
    // shipped plus what was held. Shipped is the payload the homes
    // absorbed from releases — a clean static run absorbs each shipped
    // range exactly once — which is all they absorbed but what they
    // gathered from holds.
    for e in &snap.entries {
        let of_entry = snap.write_heat.iter().filter(|w| w.entry == e.entry);
        let (updates, bytes) = of_entry.fold((0, 0), |(u, b), w| (u + w.updates, b + w.bytes));
        assert_eq!(e.updates_sent, updates, "entry {} by writer", e.entry);
        assert_eq!(e.bytes_sent, bytes, "entry {} bytes by writer", e.entry);
    }
    let sum = |f: fn(&EntryRow) -> u64| snap.entries.iter().map(f).sum::<u64>();
    let count = |name: &str| {
        let row = snap.counters.iter().find(|(k, _)| k == name);
        row.map_or(0, |(_, v)| *v)
    };
    let home = &outcome.home_costs;
    let shipped = (
        home.updates_applied - count("home.ranges_gathered"),
        home.bytes_applied - count("home.bytes_gathered"),
    );
    let held = (count("client.ranges_held"), count("client.bytes_held"));
    assert!(workers.updates_sent > 0 && workers.updates_applied > 0);
    assert_eq!(sum(|e| e.updates_sent), workers.updates_sent);
    assert_eq!(sum(|e| e.updates_sent), shipped.0 + held.0);
    assert_eq!(sum(|e| e.bytes_sent), shipped.1 + held.1);
    // A hold reaches the final bytes once, however often it was rewritten.
    assert!(count("home.bytes_gathered") <= held.1);

    // Landed: one charge per run group, counting its runs.
    assert_eq!(sum(|e| e.updates_applied), workers.updates_applied);
    assert_eq!(sum(|e| e.bytes_applied), workers.bytes_applied);

    // Scans: no promotion here, so every changed element ships whole and
    // the bytes the scans' spans carry are the entry map's.
    let scanned: u64 = recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::DiffScan)
        .map(|e| e.arg0)
        .sum();
    assert_eq!(scanned, sum(|e| e.bytes_sent));
}

#[test]
fn heat_ledger_matches_the_eq1_counters_on_sor_and_a_three_shard_lock_run() {
    // Red-black SOR: thousands of one-element runs in a few groups.
    let pair = &paper_pairs()[2];
    let recorder = Recorder::enabled();
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 0x50A },
            ..Default::default()
        })
        .obs(recorder.clone());
    let (outcome, verified) = Kernel::Sor { sweeps: 3 }
        .run(builder, 32, 0xD5D)
        .expect("sor run");
    assert!(verified);
    let snap = outcome.obs.as_ref().unwrap();
    let shipped: u64 = snap.entries.iter().map(|e| e.updates_sent).sum();
    assert!(shipped > 1000, "strided writes do not coalesce: {shipped}");
    assert_heat_ledger(&outcome, &recorder);
    let held = snap.counters.iter().find(|(k, _)| k == "client.bytes_held");
    assert!(
        held.is_some_and(|(_, b)| *b > 0),
        "what nobody reads is held"
    );

    // One-element lock ops over three shards: the update's shard differs
    // from the lock's, so every release flushes and every acquire fetches.
    const OPS: usize = 60;
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(
            GthvDef::new(
                StructBuilder::new("G")
                    .array("a", ScalarKind::Int, 16)
                    .array("b", ScalarKind::Long, 16)
                    .array("c", ScalarKind::Int, 16)
                    .build()
                    .unwrap(),
            )
            .unwrap(),
        )
        .home(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86_64())
        .locks(3)
        .topology(TopologyConfig {
            shards: 3,
            fabric: FabricMode::Sim { seed: 0x10C3 },
            ..Default::default()
        })
        .obs(recorder.clone())
        .run(|c, info| {
            for r in 0..OPS {
                let lock = ((r + info.index) % 3) as u32;
                let (entry, slot) = ((lock + 1) % 3, (info.index * 4 + r % 4) as u64);
                c.acquire(LockId::new(lock))?;
                let v = c.read_int(entry, slot)?;
                c.write_int(entry, slot, v + 1)?;
                c.release(LockId::new(lock))?;
            }
            Ok(())
        })
        .expect("lock run");
    assert_heat_ledger(&outcome, &recorder);
    // Every op changed one element, and shipped it as one update
    // attributed to the rank that wrote it.
    let snap = outcome.obs.as_ref().unwrap();
    let ops = (3 * OPS) as u64;
    assert_eq!(
        snap.entries.iter().map(|e| e.updates_sent).sum::<u64>(),
        ops
    );
    for w in &snap.write_heat {
        assert_eq!(
            w.updates,
            (OPS / 3) as u64,
            "rank {} entry {}",
            w.writer,
            w.entry
        );
    }
    let releases: u64 = snap.release_dests.iter().map(|r| r.releases).sum();
    assert_eq!(releases, ops);
}
