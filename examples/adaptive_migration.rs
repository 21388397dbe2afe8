//! The adaptive story: threads migrate between heterogeneous nodes *in the
//! middle of the computation* while the DSM keeps the global state
//! consistent.
//!
//! Three worker threads start on three different machines: big-endian
//! Solaris/SPARC, 64-bit Linux/x86-64 and little-endian 32-bit ARM. The
//! thread-placement planner the cluster itself runs
//! (`placement::plan_thread_moves`) compares the platforms' `cpu_factor`s
//! and repacks the two workers stuck on CPUs more than 2x slower than the
//! fastest onto that fastest platform. Thread state (MThV block) travels
//! as a tagged CGT-RMR image — across a byte-order *and* a data-model
//! boundary for the SPARC worker; the global data segment is re-hosted
//! with it; computation resumes exactly where it stopped — and the final
//! matrix still matches the serial oracle. Each worker is an ordinary
//! `ClusterBuilder::run` body that steps its computation through
//! `run_migrating`, here on the seeded simulation fabric.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_migration
//! ```

use hdsm::apps::matmul;
use hdsm::apps::workload::block_rows;
use hdsm::dsd::cluster::{run_migrating, ClusterBuilder, TopologyConfig};
use hdsm::dsd::placement::plan_thread_moves;
use hdsm::net::FabricMode;
use hdsm::platform::spec::{Platform, PlatformSpec};

fn main() {
    let n = 48;
    let seed = 77;
    let home = PlatformSpec::linux_x86();
    let platforms = [
        PlatformSpec::solaris_sparc(),
        PlatformSpec::linux_x86_64(),
        PlatformSpec::linux_arm(),
    ];

    // The planner sees only how fast each worker's CPU is; every move it
    // plans becomes one move of that worker, due at its first adaptation
    // point after `after_sweeps` steps.
    let factors: Vec<f64> = platforms.iter().map(|p| p.cpu_factor).collect();
    let planned = plan_thread_moves(&factors, 2.0);
    println!("planner proposes {} migrations:", planned.len());
    let mut moves: Vec<Vec<(u64, Platform)>> = vec![Vec::new(); platforms.len()];
    for m in &planned {
        let worker = m.thread_rank as usize;
        let (from, to) = (&platforms[worker], &platforms[m.to_platform]);
        println!(
            "  worker {worker}: {} ({:.2}) -> {} ({:.2}) after {} step(s)",
            from.name, from.cpu_factor, to.name, to.cpu_factor, m.after_sweeps
        );
        moves[worker].push((u64::from(m.after_sweeps), to.clone()));
    }
    assert_eq!(planned.len(), 2, "SPARC and ARM workers are 2x slower");

    // On the deterministic fabric the whole run, migrations included, is
    // a function of this seed.
    let registry = matmul::registry(&home);
    let outcome = ClusterBuilder::new()
        .gthv(matmul::gthv_def(n))
        .home(home)
        .worker(platforms[0].clone())
        .worker(platforms[1].clone())
        .worker(platforms[2].clone())
        .barriers(2)
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed },
            ..Default::default()
        })
        .init(move |g| matmul::init(g, n, seed))
        .run(|c, info| {
            let rows = block_rows(n, info.index, info.n_workers);
            let start = matmul::start_state(&info.platform, n, rows);
            run_migrating(c, &registry, start, &moves[info.index])
        })
        .expect("migrating run");

    println!();
    for (i, (st, m)) in outcome.results.iter().enumerate() {
        let plat = &st.block("MThV").expect("MThV").platform;
        println!(
            "worker {i}: {} migration(s), {} image bytes, pack {:?}, restore {:?}; \
             finished on {} ({} byte order)",
            m.migrations,
            m.image_bytes,
            m.pack_time,
            m.restore_time,
            plat.name,
            plat.endian.label()
        );
    }

    assert!(matmul::verify(&outcome.final_gthv, n, seed));
    println!("\nresult VERIFIED against the serial oracle — the computation");
    println!("survived two heterogeneous mid-run migrations.");
}
