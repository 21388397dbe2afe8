//! Differential harness for the Eq. 1 update pipeline.
//!
//! There is one pipeline (word-wise diff scan → grouped v2 wire batch →
//! compiled-plan apply), so the suite pins it from the outside: for every
//! (workload × platform pair) the authoritative GThV at the end of a run
//! must verify against the kernel's serial oracle, and must be
//! *byte-identical* whether the fabric was clean or dropping, duplicating
//! and reordering messages. A sharding axis holds the same bytes across
//! home-shard counts, and a third axis checks DSD against the homogeneous
//! `baseline` page DSM, which knows nothing about tags or plans at all.

use hdsm::apps::workload::{paper_pairs, PlatformPair, SyncMode};
use hdsm::apps::Kernel;
use hdsm::dsd::cluster::{ClusterBuilder, TimingConfig, TopologyConfig};
use hdsm::net::{FaultPlan, NetConfig};
use std::time::Duration;

/// The fault-plan axis: a clean fabric and a mildly hostile one (drops,
/// duplicates and reorders all at once — enough to force retransmissions
/// and out-of-order application on every run).
fn fault_plans() -> [Option<FaultPlan>; 2] {
    [
        None,
        Some(
            FaultPlan::seeded(0xD1FF)
                .drop(0.03)
                .duplicate(0.03)
                .reorder(0.03),
        ),
    ]
}

/// Shard count for the per-kernel tests: CI runs the suite at
/// `HDSM_SHARDS=1` and `HDSM_SHARDS=3`, so every clean/faulty comparison
/// also holds under a sharded home. Defaults to the classic single home.
fn shards_from_env() -> u32 {
    std::env::var("HDSM_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The four kernels, the stencils at two sweeps.
const KERNELS: [Kernel; 4] = [
    Kernel::Jacobi { sweeps: 2 },
    Kernel::Sor { sweeps: 2 },
    Kernel::Matmul(SyncMode::Barrier),
    Kernel::Lu,
];

/// Run one kernel across every paper pair on the clean and the faulty
/// fabric: both runs must verify against the serial oracle, and the faulty
/// run's authoritative bytes must equal the clean run's.
fn assert_verified_and_fault_invariant(kernel: Kernel) {
    let [clean, faulty] = fault_plans();
    for pair in paper_pairs() {
        let shards = shards_from_env();
        let (clean_bytes, clean_ok) = run_workload_sharded(kernel, &pair, &clean, shards);
        let (faulty_bytes, faulty_ok) = run_workload_sharded(kernel, &pair, &faulty, shards);
        assert!(
            clean_ok,
            "{kernel:?} failed verification on {} (clean fabric)",
            pair.label
        );
        assert!(
            faulty_ok,
            "{kernel:?} failed verification on {} (faulty fabric)",
            pair.label
        );
        assert_eq!(
            faulty_bytes, clean_bytes,
            "{kernel:?} GThV under faults diverged from the clean run on {}",
            pair.label
        );
    }
}

#[test]
fn jacobi_is_verified_and_fault_invariant_on_every_pair() {
    assert_verified_and_fault_invariant(Kernel::Jacobi { sweeps: 2 });
}

#[test]
fn sor_is_verified_and_fault_invariant_on_every_pair() {
    assert_verified_and_fault_invariant(Kernel::Sor { sweeps: 2 });
}

#[test]
fn matmul_is_verified_and_fault_invariant_on_every_pair() {
    assert_verified_and_fault_invariant(Kernel::Matmul(SyncMode::Barrier));
}

#[test]
fn lu_is_verified_and_fault_invariant_on_every_pair() {
    assert_verified_and_fault_invariant(Kernel::Lu);
}

/// One kernel on a two-worker cluster with the home service sharded
/// `shards` ways; returns the final authoritative bytes and the oracle
/// verdict.
fn run_workload_sharded(
    kernel: Kernel,
    pair: &PlatformPair,
    plan: &Option<FaultPlan>,
    shards: u32,
) -> (Vec<u8>, bool) {
    let mut b = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            shards,
            ..Default::default()
        });
    if let Some(plan) = plan {
        b = b
            .timing(TimingConfig {
                retry_base: Some(Duration::from_millis(10)),
                lease: Some(Duration::from_secs(5)),
                recv_deadline: Some(Duration::from_secs(30)),
                ..Default::default()
            })
            .net(NetConfig::instant().with_faults(plan.clone()));
    }
    let (o, verified) = kernel.run(b, 10, 29).unwrap();
    (o.final_gthv.space().raw().to_vec(), verified)
}

/// The sharding axis is a pure routing change: partitioning entries,
/// locks and barriers across three home shards must reproduce the exact
/// authoritative bytes of the classic single-home run — on a clean fabric
/// and under drops/duplicates/reorders alike. Runs on the heterogeneous
/// SL pair so every grant also crosses a representation boundary.
#[test]
fn three_shard_home_is_byte_identical_to_single_home() {
    let pair = &paper_pairs()[2];
    for (p, plan) in fault_plans().iter().enumerate() {
        for kernel in KERNELS {
            let (one, ok1) = run_workload_sharded(kernel, pair, plan, 1);
            let (three, ok3) = run_workload_sharded(kernel, pair, plan, 3);
            assert!(ok1, "{kernel:?} failed to verify at shards=1 on plan {p}");
            assert!(ok3, "{kernel:?} failed to verify at shards=3 on plan {p}");
            assert_eq!(
                one, three,
                "{kernel:?} shards=3 GThV diverged from shards=1 on plan {p}"
            );
        }
    }
}

/// Per-shard traffic must be visible end to end: NetStats attributes
/// bytes to each shard's endpoint and its report renders them.
#[test]
fn sharded_run_reports_per_shard_traffic() {
    let pair = &paper_pairs()[2];
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            shards: 3,
            ..Default::default()
        });
    let matmul = Kernel::Matmul(SyncMode::Barrier);
    let (outcome, verified) = matmul.run(builder, 10, 31).unwrap();
    assert!(verified);
    // Every shard terminated something: NetStats saw bytes to each of
    // the three shard endpoints (ranks 0..3).
    for shard in 0..3u32 {
        let to_shard = outcome.net_stats.dest_traffic(shard);
        assert!(to_shard.bytes > 0, "shard {shard} received zero bytes");
    }
    let report = outcome.net_stats.report();
    assert!(
        report.contains("-- traffic by destination --"),
        "the traffic report must carry the per-endpoint table:\n{report}"
    );
}

/// Cross-implementation axis: on a homogeneous pair, the full DSD pipeline
/// must reproduce exactly what the tag-free `baseline` page DSM propagates
/// — same dirty bytes, same final memory image.
#[test]
fn dsd_matches_baseline_page_dsm() {
    use hdsm::dsd::baseline::{apply_raw_diffs, extract_raw_diffs, pack_raw, unpack_raw};
    use hdsm::dsd::gthv::GthvInstance;
    use hdsm::dsd::runs::abstract_diffs;
    use hdsm::dsd::update::{apply_batch, extract_updates};
    use hdsm::memory::diff::diff_pages;
    use hdsm::platform::spec::PlatformSpec;
    use hdsm::tags::convert::ConversionStats;
    use hdsm::tags::wire::{pack_batch_fast, unpack_batch};

    for kernel in KERNELS {
        let def = kernel.gthv_def(12);
        let plat = PlatformSpec::linux_x86();
        let mut src = GthvInstance::new(def.clone(), plat.clone());
        src.space_mut().protect_all();
        kernel.init(&mut src, 12, 23);

        // Baseline page DSM: raw byte diffs, no tags, no conversion.
        let mut via_baseline = GthvInstance::new(def.clone(), plat.clone());
        let raw = unpack_raw(pack_raw(&extract_raw_diffs(&src))).unwrap();
        apply_raw_diffs(&mut via_baseline, src.platform(), &raw).unwrap();

        // DSD over the byte-granular route, `abstract_diffs(diff_pages(..))`
        // — on purpose not the client's `scan_ranges`: this is the
        // independent path the cluster's bytes are compared against
        // (`scan_ranges` is held to it in `hdsm-core::runs`' tests). Then
        // the client's grouped v2 wire and compiled plans.
        let mut via_dsd = GthvInstance::new(def, plat);
        let runs = diff_pages(src.space());
        let ups = extract_updates(&src, &abstract_diffs(src.table(), &runs)).unwrap();
        let ups = unpack_batch(pack_batch_fast(&ups)).unwrap();
        let mut stats = ConversionStats::default();
        apply_batch(&mut via_dsd, &ups, &mut stats).unwrap();

        assert_eq!(
            via_dsd.space().raw(),
            via_baseline.space().raw(),
            "{kernel:?}: DSD vs baseline page DSM"
        );
    }
}
