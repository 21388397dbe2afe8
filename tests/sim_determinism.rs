//! Deterministic simulation fabric: seed-reproducible cluster runs.
//!
//! `FabricMode::Sim { seed }` multiplexes every node of a cluster under a
//! seeded discrete-event scheduler on a virtual clock, so a whole run —
//! fault injection, retransmission backoff, lease timing included — is a
//! pure function of `(workload, config, seed)`. These tests pin the three
//! properties that make that useful:
//!
//! 1. **Fidelity** — a simulated run converges to byte-identical final
//!    state as the threaded run, on all four paper kernels;
//! 2. **Reproducibility** — two runs with the same seed produce identical
//!    observability snapshots, traffic statistics and memory bytes, even
//!    under a hostile fault plan (this is what makes a failing seed a
//!    complete bug report);
//! 3. **Scale** — one process can simulate a 1000-rank cluster, far past
//!    what free-running threads can schedule meaningfully.
//!
//! Thread migration is a worker body like any other, so a migrating run
//! replays from its seed too.

use hdsm::apps::workload::{block_rows, paper_pairs, SyncMode};
use hdsm::apps::{matmul, Kernel};
use hdsm::dsd::cluster::{
    run_migrating, ClusterBuilder, ClusterOutcome, TimingConfig, TopologyConfig,
};
use hdsm::dsd::{BarrierId, LockId};
use hdsm::net::{FabricMode, FaultPlan, NetConfig, NetStats};
use hdsm::obs::{ObsSnapshot, Recorder};
use hdsm::platform::ctype::StructBuilder;
use hdsm::platform::scalar::ScalarKind;
use hdsm::platform::spec::PlatformSpec;
use proptest::prelude::*;
use std::time::Duration;

/// A 16-slot integer array: enough room for one contended counter plus a
/// disjoint stripe per worker.
fn counters_def() -> hdsm::dsd::GthvDef {
    hdsm::dsd::GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 16)
            .build()
            .unwrap(),
    )
    .unwrap()
}

const KERNELS: [Kernel; 4] = [
    Kernel::Jacobi { sweeps: 3 },
    Kernel::Sor { sweeps: 3 },
    Kernel::Matmul(SyncMode::Barrier),
    Kernel::Lu,
];

/// Build and run one paper kernel on the heterogeneous SL pair (one
/// Solaris/SPARC home + Linux/x86 and SPARC workers), threaded or
/// simulated, and return the outcome plus the verifier's verdict.
fn run_kernel(kernel: Kernel, n: usize, fabric: FabricMode) -> (ClusterOutcome<()>, bool) {
    let pair = &paper_pairs()[2]; // SL: heterogeneous, exercises conversion.
    let workers = [&pair.home, &pair.remote, &pair.remote, &pair.home];
    let b = ClusterBuilder::new()
        .home(pair.home.clone())
        .topology(TopologyConfig {
            fabric,
            ..Default::default()
        });
    let b = workers.into_iter().fold(b, |b, w| b.worker(w.clone()));
    kernel.run(b, n, 0xD5D).unwrap()
}

#[test]
fn sim_converges_byte_identically_to_threaded_on_paper_kernels() {
    for kernel in KERNELS {
        let (threaded, tv) = run_kernel(kernel, 16, FabricMode::Threads);
        let (sim, sv) = run_kernel(kernel, 16, FabricMode::Sim { seed: 0xFAB });
        assert!(tv, "{kernel:?}: threaded run must verify");
        assert!(sv, "{kernel:?}: simulated run must verify");
        assert_eq!(
            threaded.final_gthv.space().raw(),
            sim.final_gthv.space().raw(),
            "{kernel:?}: sim and threaded runs must converge to the same bytes"
        );
    }
}

/// What an armed run leaves to compare: the recorder's tables, the run's
/// log (every held event, row by row) and the critical paths a reader
/// computes from the run's events.
type Obs = (ObsSnapshot, String, String);

/// One fully-instrumented faulty run: chaos fault plan, short lease,
/// enabled recorder. Returns everything a reproducibility comparison
/// needs — converged memory bytes, traffic statistics and the
/// observability record.
fn faulty_instrumented_run(sim_seed: u64, fault_seed: u64) -> (Vec<u8>, i128, NetStats, Obs) {
    let recorder = Recorder::enabled();
    let plan = FaultPlan::seeded(fault_seed)
        .drop(0.05)
        .duplicate(0.05)
        .reorder(0.05)
        .jitter(Duration::from_micros(300));
    let mut b = ClusterBuilder::new();
    // CI sets this so a failing seed leaves black-box bundles (e.g. a
    // sim-deadlock post-mortem) as workflow artifacts. Bundle paths are
    // deterministic for a fixed dir, so arming cannot perturb the
    // reproducibility comparison.
    if let Ok(dir) = std::env::var("HDSM_SIM_BLACKBOX") {
        b = b.flight_recorder(dir);
    }
    let outcome = b
        .gthv(counters_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: sim_seed },
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_secs(5)),
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(60)),
            ..Default::default()
        })
        .net(NetConfig::instant().with_faults(plan))
        .obs(recorder.clone())
        .run(|c, info| {
            for _ in 0..10 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            c.barrier(BarrierId::new(0))?;
            let base = 1 + info.index as u64 * 4;
            for i in base..base + 4 {
                c.write_int(0, i, i as i128 * 7 + 1)?;
            }
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .expect("faulty sim run completes");
    let counter = outcome.final_gthv.read_int(0, 0).unwrap();
    let snapshot = outcome.obs.expect("recorder was enabled");
    let obs = (
        snapshot,
        recorder.log(),
        format!("{:?}", recorder.critpaths()),
    );
    (
        outcome.final_gthv.space().raw().to_vec(),
        counter,
        outcome.net_stats,
        obs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The reproducibility contract: same `(workload, config, seed)` ⇒
    /// identical run, down to every event timestamp in the run's log and
    /// every fault-injection counter — under a fabric that drops,
    /// duplicates, reorders and jitters five percent of all traffic.
    #[test]
    fn same_seed_faulty_sim_runs_are_identical(sim_seed in 1u64..1 << 48, fault_seed in 1u64..1 << 48) {
        let (bytes_a, counter_a, stats_a, obs_a) = faulty_instrumented_run(sim_seed, fault_seed);
        let (bytes_b, counter_b, stats_b, obs_b) = faulty_instrumented_run(sim_seed, fault_seed);
        prop_assert_eq!(counter_a, 30, "all increments survive the faults");
        prop_assert_eq!(counter_b, 30);
        prop_assert_eq!(&bytes_a, &bytes_b, "converged memory must be identical");
        prop_assert_eq!(&stats_a, &stats_b, "traffic statistics must be identical");
        prop_assert!(obs_a.1.lines().any(|l| l.starts_with(r#"{"row":"event""#)));
        prop_assert_eq!(&obs_a.0, &obs_b.0, "observability snapshots must be identical");
        prop_assert_eq!(&obs_a.1, &obs_b.1, "run logs must be byte-identical");
        prop_assert_eq!(&obs_a.2, &obs_b.2, "critical paths must be identical");
    }
}

#[test]
fn different_seeds_reorder_but_still_converge() {
    let (bytes_a, counter_a, stats_a, _) = faulty_instrumented_run(1, 0xC4A05);
    let (bytes_b, counter_b, stats_b, _) = faulty_instrumented_run(2, 0xC4A05);
    assert_eq!(counter_a, 30);
    assert_eq!(counter_b, 30);
    // Convergence is seed-independent; the schedule (and so the exact
    // retransmission counts) need not be.
    assert_eq!(bytes_a, bytes_b, "all schedules converge to the same bytes");
    assert!(stats_a.total_messages() > 0 && stats_b.total_messages() > 0);
}

/// The scale acceptance test: a 1000-rank jacobi relaxation completes in
/// simulation mode inside one process. Most ranks own zero interior rows
/// at this grid size — the point is that 1000 actors join two global
/// barriers per sweep and sign off cleanly under the event scheduler.
#[test]
fn thousand_rank_jacobi_completes_in_sim() {
    let b = ClusterBuilder::new().topology(TopologyConfig {
        fabric: FabricMode::Sim { seed: 9 },
        ..Default::default()
    });
    let b = (0..1000).fold(b, |b, _| b.worker(PlatformSpec::linux_x86()));
    let (_, verified) = Kernel::Jacobi { sweeps: 2 }.run(b, 32, 5).unwrap();
    assert!(verified);
}

/// Same-seed reproducibility when ranks finish at different virtual
/// times: each early finisher joins and waits for the `Shutdown` the home
/// shards defer until the last rank signs off, and a sharded pool serving
/// four locks produces identical traffic across runs.
#[test]
fn same_seed_sim_runs_with_staggered_finishers_are_identical() {
    let run = || {
        let outcome = ClusterBuilder::new()
            .gthv(counters_def())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .locks(4)
            .topology(TopologyConfig {
                shards: 2,
                fabric: FabricMode::Sim { seed: 0x7E4A47 },
                ..Default::default()
            })
            .run(|c, i| {
                // Worker k pounds lock-guarded counter slot k mod 4 for
                // 4 + k mod 4 rounds, so slots 0 and 1 are contended and
                // workers retire at different virtual times.
                let slot = i.index as u64 % 4;
                let lock = LockId::new(slot as u32);
                for _ in 0..4 + slot {
                    c.acquire(lock)?;
                    let v = c.read_int(0, slot)?;
                    c.write_int(0, slot, v + 1)?;
                    c.release(lock)?;
                }
                Ok(())
            })
            .unwrap();
        let counters: Vec<i128> = (0..4)
            .map(|s| outcome.final_gthv.read_int(0, s).unwrap())
            .collect();
        (counters, outcome.net_stats)
    };
    let (counters_a, stats_a) = run();
    let (counters_b, stats_b) = run();
    // Slots 0 and 1 have two workers each, 2 and 3 one.
    assert_eq!(counters_a, vec![8, 10, 6, 7]);
    assert_eq!(counters_a, counters_b);
    assert_eq!(stats_a, stats_b);
}

/// One migrating matmul run on the sim fabric: worker 0 goes Linux →
/// SPARC → SPARC64 → Linux, worker 1 moves to SPARC once, worker 2 stays.
/// Returns the verdict, the traffic, the final bytes and each worker's
/// final thread state (its packed image, which is bytes and comparable).
fn migrating_matmul_run(seed: u64) -> (bool, NetStats, Vec<u8>, Vec<Vec<u8>>) {
    let (n, data_seed) = (18, 0x316);
    let linux = PlatformSpec::linux_x86();
    let reg = matmul::registry(&linux);
    let moves = [
        vec![
            (2, PlatformSpec::solaris_sparc()),
            (4, PlatformSpec::solaris_sparc64()),
            (6, linux.clone()),
        ],
        vec![(3, PlatformSpec::solaris_sparc())],
        vec![],
    ];
    let outcome = ClusterBuilder::new()
        .gthv(matmul::gthv_def(n))
        .home(PlatformSpec::solaris_sparc())
        .worker(linux.clone())
        .worker(linux.clone())
        .worker(PlatformSpec::linux_x86_64())
        .barriers(2)
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed },
            ..Default::default()
        })
        .init(move |g| matmul::init(g, n, data_seed))
        .run(|c, info| {
            let rows = block_rows(n, info.index, info.n_workers);
            let start = matmul::start_state(&info.platform, n, rows);
            run_migrating(c, &reg, start, &moves[info.index])
        })
        .unwrap();
    let migrations: Vec<u64> = outcome.results.iter().map(|(_, m)| m.migrations).collect();
    assert_eq!(migrations, vec![3, 1, 0]);
    let states = outcome.results.iter();
    let states = states.map(|(st, _)| hdsm::migthread::pack_state(st).bytes.to_vec());
    (
        matmul::verify(&outcome.final_gthv, n, data_seed),
        outcome.net_stats,
        outcome.final_gthv.space().raw().to_vec(),
        states.collect(),
    )
}

#[test]
fn same_seed_migrating_sim_runs_are_identical() {
    let (verified_a, stats_a, bytes_a, states_a) = migrating_matmul_run(0x1716);
    let (verified_b, stats_b, bytes_b, states_b) = migrating_matmul_run(0x1716);
    assert!(verified_a && verified_b, "a migrating run must verify");
    assert_eq!(stats_a, stats_b, "traffic statistics must be identical");
    assert_eq!(bytes_a, bytes_b, "final GThV bytes must be identical");
    assert_eq!(states_a, states_b, "final thread states must be identical");
}

/// Two locks, one counter each, and two entries of stripes: `counters_def`
/// twice over, so the counters live on different shards of a two-shard
/// home.
fn two_counter_def() -> hdsm::dsd::GthvDef {
    hdsm::dsd::GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 16)
            .array("ys", ScalarKind::Int, 16)
            .build()
            .unwrap(),
    )
    .unwrap()
}

/// Two workers on a two-shard home under 2 % drop/dup/reorder on the
/// client links (the replication and admin links are exempt). Each does
/// 20 rounds of one lock-serialized increment per counter, 10 ms of
/// fabric time apart, then stripe writes between two barriers. With
/// `handoff`, every shard has a standby and the admin drains shard 0
/// 100 ms in, halfway through the lock traffic; without, the home runs
/// unreplicated. Returns both counters, the final bytes, the traffic and
/// the events.
fn handoff_run(handoff: bool) -> ((i128, i128), Vec<u8>, NetStats, Vec<hdsm::obs::Event>) {
    let recorder = Recorder::enabled();
    let plan = FaultPlan::seeded(0x4A4D)
        .drop(0.02)
        .duplicate(0.02)
        .reorder(0.02);
    let mut b = ClusterBuilder::new()
        .gthv(two_counter_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(2)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            replicas: u32::from(handoff),
            fabric: FabricMode::Sim { seed: 0x4A4D },
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .net(NetConfig::instant().with_faults(plan))
        .obs(recorder.clone());
    if handoff {
        b = b.control(|mut ctl| {
            ctl.sleep(Duration::from_millis(100));
            ctl.handoff(hdsm::dsd::ShardId::new(0))
                .expect("the handoff completes");
        });
    }
    let outcome = b
        .run(|c, info| {
            for _ in 0..20 {
                for lock in 0..2u32 {
                    c.acquire(LockId::new(lock))?;
                    let v = c.read_int(lock, 0)?;
                    c.write_int(lock, 0, v + 1)?;
                    c.release(LockId::new(lock))?;
                }
                c.network().clock().sleep(Duration::from_millis(10));
            }
            c.barrier(BarrierId::new(0))?;
            let base = 1 + info.index as u64 * 7;
            for i in base..base + 7 {
                c.write_int(0, i, i as i128 * 3 + 1)?;
                c.write_int(1, i, i as i128 * 5 + 2)?;
            }
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .expect("zero failed client operations across the handoff");
    let g = &outcome.final_gthv;
    (
        (g.read_int(0, 0).unwrap(), g.read_int(1, 0).unwrap()),
        g.space().raw().to_vec(),
        outcome.net_stats,
        recorder.events(),
    )
}

#[test]
fn same_seed_sim_handoffs_under_faults_are_identical() {
    use hdsm::obs::EventKind;
    let (counters_a, bytes_a, stats_a, events_a) = handoff_run(true);
    let (counters_b, bytes_b, stats_b, events_b) = handoff_run(true);
    let (counters_plain, bytes_plain, _, _) = handoff_run(false);
    // Exact counters: no request was executed twice, or lost, across the
    // switch from the drained primary to the promoted standby.
    assert_eq!(counters_a, (40, 40));
    assert_eq!(counters_plain, (40, 40));
    assert_eq!(bytes_a, bytes_plain, "the handoff changed the final bytes");
    let handoff = events_a.iter().find(|e| e.kind == EventKind::Handoff);
    let handoff = handoff.expect("the handoff must surface as a span");
    assert_eq!((handoff.arg0, handoff.arg1), (0, 1));
    assert!(events_a
        .iter()
        .any(|e| e.kind == EventKind::Promote && e.label == "handoff"));
    // The drain landed inside the lock traffic, not after it.
    let last_grant = events_a.iter().filter(|e| e.kind == EventKind::LockWait);
    let last_grant = last_grant.map(|e| e.t_us).max().unwrap();
    assert!(
        handoff.t_us < last_grant,
        "the handoff ran after the lock traffic"
    );
    assert_eq!(counters_a, counters_b);
    assert_eq!(bytes_a, bytes_b, "final bytes must be identical");
    assert!(stats_a.total_faults() > 0, "the client links ran clean");
    assert_eq!(stats_a, stats_b, "traffic statistics must be identical");
    assert!(events_a == events_b, "events must be identical");
}

/// 64-bit FNV-1a: a stable digest of a run's log for the golden below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Three workers of lock-serialized increments on a two-shard home whose
/// shards each have a standby, armed, on the sim fabric at `seed`.
/// Returns the traffic and the run's log.
fn replicated_lock_run(seed: u64) -> (NetStats, String) {
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(two_counter_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .locks(2)
        .topology(TopologyConfig {
            shards: 2,
            replicas: 1,
            fabric: FabricMode::Sim { seed },
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .run(|c, info| {
            for k in 0..12u32 {
                let lock = (k + info.index as u32) % 2;
                c.acquire(LockId::new(lock))?;
                let v = c.read_int(lock, 0)?;
                c.write_int(lock, 0, v + 1)?;
                c.release(LockId::new(lock))?;
            }
            Ok(())
        })
        .expect("replicated lock run completes");
    let g = &outcome.final_gthv;
    assert_eq!(
        (g.read_int(0, 0).unwrap(), g.read_int(1, 0).unwrap()),
        (18, 18)
    );
    (outcome.net_stats, recorder.log())
}

/// The cluster schedule across commits: traffic and a digest of the run's
/// log for four faulty sim seeds and one replicated lock run, homes
/// included. A change that means to change the schedule re-records these
/// values (print them from this test's body) and says so in CHANGES.md;
/// any other change must leave them byte for byte.
#[test]
fn cluster_schedule_golden_matches_the_recorded_parent() {
    let mut got: Vec<(String, u64)> = (1..=4)
        .map(|seed| {
            let (_, _, stats, (_, log, _)) = faulty_instrumented_run(seed, 0xC4A05);
            (stats.report(), fnv1a64(log.as_bytes()))
        })
        .collect();
    let (stats, log) = replicated_lock_run(0x5EED);
    got.push((stats.report(), fnv1a64(log.as_bytes())));
    for (report, digest) in &got {
        println!("{report}{digest:#018x}\n");
    }
    assert_eq!(got.len(), RECORDED.len());
    for (i, ((report, digest), (want_report, want_digest))) in
        got.iter().zip(RECORDED.iter()).enumerate()
    {
        assert_eq!(report, want_report, "run {i}: traffic moved");
        assert_eq!(*digest, *want_digest, "run {i}: the run's log moved");
    }
}

/// Recorded by running this test's body once an acquire pulled only from
/// the shards its grant's stamp names: every `update-fetch` and
/// `update-batch` but the initial pulls is gone, grants and releases carry
/// stamp rows, and on the faulty runs the plan's seeded draws land on a
/// different message sequence, so drops, duplicates, retransmissions and
/// the kinds they repeat moved with it.
#[rustfmt::skip]
const RECORDED: [(&str, u64); 5] = [
    (
        "kind              msgs       bytes\n\
lock-req             50         150\n\
lock-grant           38         584\n\
unlock-req           34         491\n\
unlock-ack           33          66\n\
barrier-enter        13          89\n\
barrier-release       7         113\n\
join                 10         124\n\
shutdown              7           7\n\
update-fetch          3           6\n\
update-batch          5          15\n\
total               200        1645  (modelled wire time 28.98683ms)\n\
-- traffic by destination --\n\
dst        msgs       bytes\n\
0           101         830\n\
1             9          30\n\
2            29         271\n\
3            33         284\n\
4            28         230\n\
faults: dropped 13 duplicated 12 reordered 6 retransmitted 35\n",
        0x68C8_966D_0C13_D275,
    ),
    (
        "kind              msgs       bytes\n\
lock-req             44         132\n\
lock-grant           37         508\n\
unlock-req           37         533\n\
unlock-ack           33          66\n\
barrier-enter        11          67\n\
barrier-release       8         124\n\
join                  8         137\n\
shutdown              7           7\n\
update-fetch          3           6\n\
update-batch          5          15\n\
total               193        1595  (modelled wire time 27.938732ms)\n\
-- traffic by destination --\n\
dst        msgs       bytes\n\
0            97         857\n\
1             6          18\n\
2            29         266\n\
3            31         268\n\
4            30         186\n\
faults: dropped 12 duplicated 10 reordered 9 retransmitted 28\n",
        0xE30F_E873_666C_2652,
    ),
    (
        "kind              msgs       bytes\n\
lock-req             43         129\n\
lock-grant           37         484\n\
unlock-req           38         547\n\
unlock-ack           38          76\n\
barrier-enter        10          68\n\
barrier-release       9         138\n\
join                 12         153\n\
shutdown              9           9\n\
update-fetch          3           6\n\
update-batch          5          15\n\
total               204        1625  (modelled wire time 32.422674ms)\n\
-- traffic by destination --\n\
dst        msgs       bytes\n\
0            96         869\n\
1            10          34\n\
2            38         267\n\
3            30         224\n\
4            30         231\n\
faults: dropped 9 duplicated 14 reordered 13 retransmitted 31\n",
        0xFE55_92FA_F67C_EB87,
    ),
    (
        "kind              msgs       bytes\n\
lock-req             44         132\n\
lock-grant           37         508\n\
unlock-req           37         533\n\
unlock-ack           33          66\n\
barrier-enter        11          67\n\
barrier-release       8         124\n\
join                  8         137\n\
shutdown              7           7\n\
update-fetch          3           6\n\
update-batch          5          15\n\
total               193        1595  (modelled wire time 28.024654ms)\n\
-- traffic by destination --\n\
dst        msgs       bytes\n\
0            97         857\n\
1             6          18\n\
2            29         266\n\
3            31         268\n\
4            30         186\n\
faults: dropped 12 duplicated 10 reordered 9 retransmitted 28\n",
        0x9F86_1C4B_F5F3_09D4,
    ),
    (
        "kind              msgs       bytes\n\
lock-req             36         144\n\
lock-grant           36         279\n\
unlock-req           36         657\n\
unlock-ack           36          72\n\
join                  6          30\n\
shutdown              6           6\n\
update-fetch          6          18\n\
update-batch          6          78\n\
replicate            84        1017\n\
total               252        2301  (modelled wire time 0ns)\n\
-- traffic by destination --\n\
dst        msgs       bytes\n\
0            41         420\n\
1            43         429\n\
2            41         502\n\
3            43         515\n\
4            28         137\n\
5            29         170\n\
6            27         128\n",
        0xD443_8512_9B86_5D03,
    ),
];
