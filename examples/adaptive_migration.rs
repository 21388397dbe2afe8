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
//! matrix still matches the serial oracle.
//!
//! Run with:
//! ```text
//! cargo run --release --example adaptive_migration
//! ```

use hdsm::apps::matmul;
use hdsm::apps::workload::block_rows;
use hdsm::dsd::cluster::{ClusterBuilder, MigrationEvent};
use hdsm::dsd::placement::plan_thread_moves;
use hdsm::platform::spec::PlatformSpec;

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
    // plans becomes one migration event, due at the worker's first
    // adaptation point after `after_sweeps` steps.
    let factors: Vec<f64> = platforms.iter().map(|p| p.cpu_factor).collect();
    let moves = plan_thread_moves(&factors, 2.0);
    println!("planner proposes {} migrations:", moves.len());
    let schedule: Vec<MigrationEvent> = moves
        .iter()
        .map(|m| {
            let (from, to) = (
                &platforms[m.thread_rank as usize],
                &platforms[m.to_platform],
            );
            println!(
                "  worker {}: {} ({:.2}) -> {} ({:.2}) after {} step(s)",
                m.thread_rank, from.name, from.cpu_factor, to.name, to.cpu_factor, m.after_sweeps
            );
            MigrationEvent {
                worker: m.thread_rank as usize,
                after_steps: u64::from(m.after_sweeps),
                to_platform: to.clone(),
            }
        })
        .collect();
    assert_eq!(schedule.len(), 2, "SPARC and ARM workers are 2x slower");

    let registry = matmul::registry(&home);
    let workers = platforms.len();
    let starts = (0..workers)
        .map(|i| matmul::start_state(&platforms[i], n, block_rows(n, i, workers)))
        .collect();

    let outcome = ClusterBuilder::new()
        .gthv(matmul::gthv_def(n))
        .home(home)
        .worker(platforms[0].clone())
        .worker(platforms[1].clone())
        .worker(platforms[2].clone())
        .barriers(2)
        .init(move |g| matmul::init(g, n, seed))
        .run_adaptive(&registry, starts, &schedule)
        .expect("adaptive run");

    println!(
        "\nmigrations performed : {}",
        outcome.migration_stats.migrations
    );
    println!(
        "state image bytes    : {}",
        outcome.migration_stats.image_bytes
    );
    println!(
        "pack time            : {:?}",
        outcome.migration_stats.pack_time
    );
    println!(
        "restore (convert)    : {:?}",
        outcome.migration_stats.restore_time
    );

    for (i, st) in outcome.results.iter().enumerate() {
        let plat = &st.block("MThV").expect("MThV").platform;
        println!(
            "worker {i} finished on {} ({} byte order)",
            plat.name,
            plat.endian.label()
        );
    }

    assert!(matmul::verify(&outcome.final_gthv, n, seed));
    println!("\nresult VERIFIED against the serial oracle — the computation");
    println!("survived two heterogeneous mid-run migrations.");
}
