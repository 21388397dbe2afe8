//! Adaptive placement: the differential and determinism contracts.
//!
//! The adaptive loop moves data while the computation runs, so the one
//! property everything else rests on is *transparency*: an adaptive run
//! must converge to byte-identical final state as a static run of the
//! same workload — placement changes where bytes live mid-run and what
//! the traffic costs, never what the program computes. The simulated
//! fabric doubles as the differential oracle:
//!
//! 1. **Differential** — a run whose control script is the placement
//!    engine (`ClusterCtl::adapt`) ends with the final bytes of a run
//!    without one, on all four paper kernels, on a clean fabric and under
//!    a chaos plan;
//! 2. **An idle engine is silent** — an engine whose gate is never met
//!    moves nothing and sends no entry-move frame, and an engine without
//!    an enabled recorder refuses at once and leaves the run as it was;
//! 3. **Actuation** — a skewed writer makes the engine re-home the hot
//!    entry toward its dominant writer's sync shard, and the decisions
//!    land in the observability snapshot;
//! 4. **Determinism** — same-seed adaptive runs replay exactly,
//!    decision-for-decision, even under faults (proptest).

use hdsm::apps::workload::{paper_pairs, SyncMode};
use hdsm::apps::Kernel;
use hdsm::dsd::cluster::{
    ClusterBuilder, ClusterError, ClusterOutcome, TimingConfig, TopologyConfig, WorkerInfo,
};
use hdsm::dsd::{DsdClient, DsdError, LockId, PlacementPolicy};
use hdsm::net::{FabricMode, FaultPlan, MsgKind, NetConfig, NetStats};
use hdsm::obs::{ObsSnapshot, Recorder};
use hdsm::platform::ctype::StructBuilder;
use hdsm::platform::scalar::ScalarKind;
use hdsm::platform::spec::PlatformSpec;
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

const KERNELS: [Kernel; 4] = [
    Kernel::Jacobi { sweeps: 3 },
    Kernel::Sor { sweeps: 3 },
    Kernel::Matmul(SyncMode::Barrier),
    Kernel::Lu,
];

/// A fast heat-driven policy for virtual-time tests: plan every 2 ms of
/// fabric time, move on modest dominance so kernel traffic can qualify.
fn test_policy() -> PlacementPolicy {
    PlacementPolicy {
        epoch: Duration::from_millis(2),
        hysteresis: 1.5,
        min_gain: 256,
    }
}

/// Make `policy`'s placement engine the cluster's control script; `None`
/// runs without one, so entries stay at their modulo homes.
fn with_engine(b: ClusterBuilder, policy: Option<PlacementPolicy>) -> ClusterBuilder {
    match policy {
        Some(policy) => b.control(move |mut ctl| {
            let _ = ctl.adapt(&policy);
        }),
        None => b,
    }
}

/// Light chaos for the faulty differential legs: enough loss to force
/// retransmission and dedup everywhere, low enough to finish quickly.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drop(0.03)
        .duplicate(0.03)
        .reorder(0.03)
        .jitter(Duration::from_micros(200))
}

/// Run one paper kernel on the heterogeneous SL pair over two home
/// shards, simulated, with the placement engine under `policy` (if any)
/// and an optional fault plan. Returns the outcome and the kernel
/// verifier's verdict.
fn run_kernel(
    kernel: Kernel,
    policy: Option<PlacementPolicy>,
    faults: Option<FaultPlan>,
) -> (ClusterOutcome<()>, bool) {
    let pair = &paper_pairs()[2]; // SL: heterogeneous, exercises conversion.
    let workers = [&pair.home, &pair.remote, &pair.remote, &pair.home];
    let adaptive = policy.is_some();
    let mut b = ClusterBuilder::new()
        .home(pair.home.clone())
        .topology(TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: 0xADA },
            ..Default::default()
        })
        .net(NetConfig::default());
    b = with_engine(b, policy);
    if adaptive {
        b = b.obs(Recorder::enabled());
    }
    if let Some(plan) = faults {
        b = b
            .timing(TimingConfig {
                lease: Some(Duration::from_secs(5)),
                retry_base: Some(Duration::from_millis(10)),
                recv_deadline: Some(Duration::from_secs(60)),
                ..Default::default()
            })
            .net(NetConfig::default().with_faults(plan));
    }
    let b = workers.into_iter().fold(b, |b, w| b.worker(w.clone()));
    kernel.run(b, 16, 0xD5D).unwrap()
}

#[test]
fn adaptive_converges_byte_identically_to_static_on_paper_kernels() {
    for kernel in KERNELS {
        let (st, sv) = run_kernel(kernel, None, None);
        let (ad, av) = run_kernel(kernel, Some(test_policy()), None);
        assert!(sv, "{kernel:?}: static run must verify");
        assert!(av, "{kernel:?}: adaptive run must verify");
        assert_eq!(
            st.final_gthv.space().raw(),
            ad.final_gthv.space().raw(),
            "{kernel:?}: adaptive placement must not change the computed bytes"
        );
    }
}

#[test]
fn adaptive_converges_byte_identically_under_faults() {
    for kernel in KERNELS {
        let (st, sv) = run_kernel(kernel, None, Some(chaos(0xFA17)));
        let (ad, av) = run_kernel(kernel, Some(test_policy()), Some(chaos(0xFA17)));
        assert!(sv, "{kernel:?}: faulty static run must verify");
        assert!(av, "{kernel:?}: faulty adaptive run must verify");
        assert_eq!(
            st.final_gthv.space().raw(),
            ad.final_gthv.space().raw(),
            "{kernel:?}: adaptive + chaos must still converge to the static bytes"
        );
    }
}

/// Two index entries ("cold" entry 0 homed at shard 0, "hot" entry 1
/// homed at shard 1) so a move has somewhere to go.
fn two_entry_def() -> hdsm::dsd::GthvDef {
    hdsm::dsd::GthvDef::new(
        StructBuilder::new("G")
            .array("cold", ScalarKind::Int, 16)
            .array("hot", ScalarKind::Int, 16)
            .build()
            .unwrap(),
    )
    .unwrap()
}

/// The skewed-writer workload: rank 1 does 90% of the writes, all to the
/// hot entry — which starts homed on the *other* shard from the lock
/// that serializes them. Every other rank occasionally pokes the cold
/// entry. The dominant-writer signal points at rank 1 and its sync
/// traffic points at shard 0, so a heat-driven engine should re-home
/// entry 1 from shard 1 to shard 0 mid-run, observed by `recorder`.
fn skewed_writer_run(
    policy: Option<PlacementPolicy>,
    sim_seed: u64,
    faults: Option<FaultPlan>,
    recorder: &Recorder,
) -> ClusterOutcome<()> {
    let mut b = ClusterBuilder::new()
        .gthv(two_entry_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(2)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: sim_seed },
            ..Default::default()
        })
        .net(NetConfig::default())
        .obs(recorder.clone());
    b = with_engine(b, policy);
    if let Some(plan) = faults {
        b = b
            .timing(TimingConfig {
                lease: Some(Duration::from_secs(5)),
                retry_base: Some(Duration::from_millis(10)),
                recv_deadline: Some(Duration::from_secs(60)),
                ..Default::default()
            })
            .net(NetConfig::default().with_faults(plan));
    }
    b.run(|c, info| {
        let hot_rounds = if info.index == 0 { 45 } else { 5 };
        for r in 0..hot_rounds {
            // Lock 0 lives on shard 0; the hot entry (1) starts on
            // shard 1 — every release flushes its updates remotely.
            c.acquire(LockId::new(0))?;
            for e in 0..8u64 {
                c.write_int(1, e, (r as i128 + 1) * (e as i128 + 1))?;
            }
            let v = c.read_int(1, 8)?;
            c.write_int(1, 8, v + 1)?;
            c.release(LockId::new(0))?;
        }
        // The cold entry keeps shard 0 busy with unrelated traffic.
        c.acquire(LockId::new(1))?;
        let slot = 1 + info.index as u64;
        c.write_int(0, slot, info.index as i128 + 10)?;
        c.release(LockId::new(1))?;
        c.barrier(hdsm::dsd::BarrierId::new(0))?;
        Ok(())
    })
    .expect("skewed run completes")
}

/// Two workers over two home shards, simulated: where `quiet_body` runs.
fn quiet_cluster(recorder: Recorder) -> ClusterBuilder {
    ClusterBuilder::new()
        .gthv(two_entry_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: 0x57A7 },
            ..Default::default()
        })
        .net(NetConfig::default())
        .obs(recorder)
}

/// Ten increments of one counter under one lock, each also writing the
/// worker's own slot of the other entry.
fn quiet_body(c: &mut DsdClient, info: &WorkerInfo) -> Result<(), DsdError> {
    for r in 0..10 {
        c.acquire(LockId::new(0))?;
        let v = c.read_int(1, 0)?;
        c.write_int(1, 0, v + 1)?;
        c.write_int(0, 1 + info.index as u64, r as i128)?;
        c.release(LockId::new(0))?;
    }
    Ok(())
}

#[test]
fn static_placement_call_is_byte_identical_to_no_call() {
    // An engine whose `min_gain` is never met moves nothing: not one
    // entry-move frame, and the state and traffic of no engine at all.
    let idle = PlacementPolicy {
        min_gain: u64::MAX,
        ..test_policy()
    };
    let plain = quiet_cluster(Recorder::enabled()).run(quiet_body).unwrap();
    let engine = with_engine(quiet_cluster(Recorder::enabled()), Some(idle))
        .run(quiet_body)
        .unwrap();
    for kind in [
        MsgKind::EntryHandoff,
        MsgKind::EntryState,
        MsgKind::EntryInstalled,
        MsgKind::EntryDone,
        MsgKind::EntryMoved,
    ] {
        assert!(!engine.net_stats.messages.contains_key(&kind), "{kind:?}");
    }
    assert!(engine.obs.expect("recorder enabled").placement.is_empty());
    assert_eq!(
        plain.final_gthv.space().raw(),
        engine.final_gthv.space().raw()
    );
    assert_eq!(plain.net_stats, engine.net_stats);
}

#[test]
fn an_engine_without_an_enabled_recorder_refuses_at_once() {
    // The engine plans from the recorder's signals: without them it
    // returns a config error before its first epoch, and the run goes on
    // as if no engine had been asked for.
    let (tx, rx) = mpsc::channel();
    let refused = quiet_cluster(Recorder::disabled())
        .control(move |mut ctl| {
            let t0 = ctl.network().clock().now();
            let verdict = ctl.adapt(&test_policy());
            let waited = ctl.network().clock().now().saturating_since(t0);
            tx.send((verdict, waited)).unwrap();
        })
        .run(quiet_body)
        .expect("the run completes without its engine");
    let (verdict, waited) = rx.recv().unwrap();
    assert!(
        matches!(verdict, Err(ClusterError::Config(_))),
        "{verdict:?}"
    );
    assert_eq!(waited, Duration::ZERO, "refused before any pacing");
    let plain = quiet_cluster(Recorder::disabled()).run(quiet_body).unwrap();
    assert_eq!(
        plain.final_gthv.space().raw(),
        refused.final_gthv.space().raw()
    );
}

#[test]
fn heat_driven_rehomes_hot_entry_and_records_decisions() {
    let st = skewed_writer_run(None, 0xBEA7, None, &Recorder::enabled());
    let ad = skewed_writer_run(Some(test_policy()), 0xBEA7, None, &Recorder::enabled());
    // Transparency first: the adaptive run computes the same bytes.
    assert_eq!(
        st.final_gthv.space().raw(),
        ad.final_gthv.space().raw(),
        "re-homing the hot entry must not change the computed state"
    );
    // The engine acted, and its decisions are in the snapshot.
    let snap: ObsSnapshot = ad.obs.expect("recorder enabled");
    assert!(
        !snap.placement.is_empty(),
        "the skewed writer must trigger at least one placement decision"
    );
    let d = &snap.placement[0];
    assert_eq!(d.entry, 1, "the hot entry is the one that moves");
    assert_eq!(d.from_shard, 1, "it starts at its modulo home");
    assert_eq!(
        d.to_shard, 0,
        "and lands on the dominant writer's sync shard"
    );
    assert_eq!(d.writer, 1, "rank 1 is the dominant writer");
    // The signals the decision was planned from are in the snapshot too.
    assert!(
        snap.write_heat
            .iter()
            .any(|w| w.entry == 1 && w.writer == 1 && w.bytes > 0),
        "write heat must attribute the hot entry to rank 1"
    );
    assert!(
        snap.release_dests
            .iter()
            .any(|r| r.writer == 1 && r.shard == 0 && r.releases > 0),
        "release destinations must point rank 1 at shard 0"
    );
    // The homes' and clients' own books agree with the decision rows:
    // every move the engine decided was started at its source, installed
    // at its target and confirmed — none aborted, none bounced off a
    // busy shard — and the writers whose view went stale were bounced
    // once and learned the new owner.
    let count = |name: &str| {
        let row = snap.counters.iter().find(|(k, _)| k == name);
        row.map_or(0, |(_, v)| *v)
    };
    let moves = snap.placement.len() as u64;
    assert_eq!(count("home.entry_handoffs"), moves);
    assert_eq!(count("home.entries_adopted"), moves);
    assert_eq!(count("home.entries_rehomed"), moves);
    assert_eq!(count("home.entry_handoff_aborts"), 0);
    assert_eq!(count("placement.busy_backoffs"), 0);
    assert!(count("home.entry_bounces") >= 1);
    assert_eq!(
        count("client.entry_moves_learned"),
        count("home.entry_bounces")
    );
    // A snapshot of the same workload without the engine records no
    // decisions.
    let st_snap = st.obs.expect("recorder enabled");
    assert!(st_snap.placement.is_empty());
}

/// One seeded adaptive run under chaos, reduced to the values that must
/// reproduce exactly: bytes, traffic, the recorder's tables, the run's
/// log and the decision count.
fn adaptive_fingerprint(
    sim_seed: u64,
    fault_seed: u64,
) -> (Vec<u8>, NetStats, ObsSnapshot, String, usize) {
    let recorder = Recorder::enabled();
    let policy = Some(test_policy());
    let o = skewed_writer_run(policy, sim_seed, Some(chaos(fault_seed)), &recorder);
    let snap = o.obs.expect("recorder enabled");
    let decisions = snap.placement.len();
    (
        o.final_gthv.space().raw().to_vec(),
        o.net_stats,
        snap,
        recorder.log(),
        decisions,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The adaptive determinism contract: the whole closed loop — signal
    /// gathering, planning, per-entry handoffs, bounced-and-replayed
    /// client traffic, fault injection — replays identically from the
    /// same seed, down to every decision row and event timestamp in the
    /// run's log.
    #[test]
    fn same_seed_adaptive_runs_are_identical(sim_seed in 1u64..1 << 48, fault_seed in 1u64..1 << 48) {
        let (bytes_a, stats_a, obs_a, log_a, dec_a) = adaptive_fingerprint(sim_seed, fault_seed);
        let (bytes_b, stats_b, obs_b, log_b, dec_b) = adaptive_fingerprint(sim_seed, fault_seed);
        prop_assert_eq!(&bytes_a, &bytes_b, "converged memory must be identical");
        prop_assert_eq!(&stats_a, &stats_b, "traffic statistics must be identical");
        prop_assert_eq!(dec_a, dec_b, "the decision sequence must replay exactly");
        prop_assert_eq!(&obs_a, &obs_b, "observability snapshots must be identical");
        let decision_rows = log_a.lines().filter(|l| l.starts_with(r#"{"row":"decision""#));
        prop_assert_eq!(decision_rows.count(), dec_a, "one decision row per decision");
        prop_assert_eq!(&log_a, &log_b, "run logs must be byte-identical");
    }
}

#[test]
fn faulty_adaptive_still_matches_static_bytes() {
    let st = skewed_writer_run(None, 0x5EED, Some(chaos(0xC4A05)), &Recorder::enabled());
    let ad = skewed_writer_run(
        Some(test_policy()),
        0x5EED,
        Some(chaos(0xC4A05)),
        &Recorder::enabled(),
    );
    assert_eq!(
        st.final_gthv.space().raw(),
        ad.final_gthv.space().raw(),
        "chaos + live re-homing must still converge to the static bytes"
    );
}
