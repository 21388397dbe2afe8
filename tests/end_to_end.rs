//! End-to-end integration tests: full clusters, every workload, mixed
//! platforms, migration mid-run, and the paper's qualitative claims.

use hdsm::apps::workload::{block_rows, paper_pairs, SyncMode};
use hdsm::apps::{matmul, Kernel};
use hdsm::dsd::cluster::{
    run_migrating, ClusterBuilder, ClusterError, TimingConfig, TopologyConfig,
};
use hdsm::dsd::{BarrierId, DsdError, LockId};
use hdsm::migthread::{MigrateError, ProgramRegistry};
use hdsm::net::FabricMode;
use hdsm::platform::spec::PlatformSpec;

#[test]
fn matmul_all_paper_pairs() {
    for pair in paper_pairs() {
        let builder = ClusterBuilder::new()
            .home(pair.home.clone())
            .worker(pair.home.clone())
            .worker(pair.remote.clone())
            .worker(pair.remote.clone());
        let kernel = Kernel::Matmul(SyncMode::Barrier);
        let (outcome, verified) = kernel.run(builder, 24, 1).unwrap();
        assert!(verified, "pair {}", pair.label);
        if pair.heterogeneous() {
            assert!(outcome.home_conv.scalars_swapped > 0, "SL must byte-swap");
        } else {
            assert_eq!(
                outcome.home_conv.scalars_swapped, 0,
                "{} must not byte-swap",
                pair.label
            );
            assert!(outcome.home_conv.memcpy_bytes > 0);
        }
    }
}

#[test]
fn lu_all_paper_pairs() {
    for pair in paper_pairs() {
        let builder = ClusterBuilder::new()
            .home(pair.home.clone())
            .worker(pair.home.clone())
            .worker(pair.remote.clone())
            .worker(pair.remote.clone());
        let (_, verified) = Kernel::Lu.run(builder, 12, 2).unwrap();
        assert!(verified, "pair {}", pair.label);
    }
}

#[test]
fn five_platform_cluster_matmul() {
    // Beyond the paper: every modelled platform in one cluster.
    let builder = ClusterBuilder::new()
        .home(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86_64())
        .worker(PlatformSpec::solaris_sparc64())
        .worker(PlatformSpec::aix_power());
    let kernel = Kernel::Matmul(SyncMode::Barrier);
    assert!(kernel.run(builder, 20, 3).unwrap().1);
}

#[test]
fn jacobi_and_sor_on_heterogeneous_pair() {
    for (kernel, second) in [
        (Kernel::Jacobi { sweeps: 4 }, PlatformSpec::linux_x86_64()),
        (Kernel::Sor { sweeps: 3 }, PlatformSpec::solaris_sparc64()),
    ] {
        let builder = ClusterBuilder::new()
            .home(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .worker(second);
        assert!(kernel.run(builder, 10, 4).unwrap().1, "{kernel:?}");
    }
}

/// One stencil run on the paper's SL placement, recorder armed: what the
/// home shipped to readers (updates, payload bytes), how many notices it
/// sent and how many ranges the workers fetched.
fn stencil_shipping(n: usize, sweeps: usize, sor_kernel: bool) -> (u64, u64, u64, u64) {
    let pair = &paper_pairs()[2];
    let recorder = hdsm::obs::Recorder::enabled();
    let seed = 5;
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 5 },
            ..Default::default()
        })
        .obs(recorder.clone());
    let kernel = if sor_kernel {
        Kernel::Sor { sweeps }
    } else {
        Kernel::Jacobi { sweeps }
    };
    let (outcome, verified) = kernel.run(builder, n, seed).unwrap();
    assert!(verified);
    let home_costs = outcome.home_costs;
    let snap = recorder.snapshot().expect("armed");
    let count = |name: &str| {
        let row = snap.counters.iter().find(|(k, _)| k == name);
        row.map_or(0, |(_, v)| *v)
    };
    (
        home_costs.updates_sent,
        home_costs.bytes_sent,
        count("home.ranges_noticed"),
        count("client.range_fetches"),
    )
}

#[test]
fn steady_state_stencils_ship_boundary_rows_and_a_few_notices() {
    // Three workers on row blocks: worker 0 and worker 2 each read one
    // row of a neighbour's block, worker 1 one of each — four boundary
    // rows a barrier in all, whatever the grid's size, where every
    // barrier used to hand every worker both other blocks whole. What a
    // run of eight more sweeps adds is that and nothing else.
    let (n, extra) = (30, 8);
    let interior = (n - 2) as u64; // a row's written elements
    for (sor_kernel, barriers, row_elems, row_runs) in [
        (false, extra, interior, 1), // jacobi: a row is one run
        (true, 2 * extra, interior.div_ceil(2), interior.div_ceil(2)), // SOR: one colour of it
    ] {
        let short = stencil_shipping(n, 4, sor_kernel);
        let long = stencil_shipping(n, 4 + extra as usize, sor_kernel);
        let (updates, bytes, notices) = (long.0 - short.0, long.1 - short.1, long.2 - short.2);
        assert!(
            bytes <= barriers * 4 * row_elems * 8,
            "sor {sor_kernel}: {bytes} payload bytes over {barriers} barriers"
        );
        assert!(
            updates <= barriers * 4 * row_runs,
            "sor {sor_kernel}: {updates} updates"
        );
        assert!(
            bytes > 0 && updates > 0,
            "neighbours' boundary rows do ship"
        );
        // At most four notices a reader a barrier (there are three readers).
        assert!(
            notices <= barriers * 3 * 4,
            "sor {sor_kernel}: {notices} notices"
        );
        assert_eq!((short.3, long.3), (0, 0), "a stencil never fetches");
    }
}

/// Traffic to the home's endpoint (messages, bytes) of a Jacobi run of
/// `sweeps` sweeps at `n` on the paper's SL placement.
fn jacobi_to_home(n: usize, sweeps: usize) -> (u64, u64) {
    let pair = &paper_pairs()[2];
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 5 },
            ..Default::default()
        });
    let (outcome, verified) = Kernel::Jacobi { sweeps }.run(builder, n, 5).unwrap();
    assert!(verified);
    let to_home = outcome.net_stats.dest_traffic(0);
    (to_home.msgs, to_home.bytes)
}

#[test]
fn steady_state_stencils_hold_what_no_one_reads_and_name_it_a_row_at_a_time() {
    // The writer-side twin of the test above. Each worker reads its own
    // rows and one row past each edge of its block, so of what it writes
    // in a sweep it ships the rows a neighbour reads — rows 9, 10, 19 and
    // 20 at n = 30 — and holds the rest, naming each held row in a
    // report row of its barrier entry: eight rows a worker, since the
    // two edge columns a row leaves unwritten keep its span apart. What
    // eight more sweeps add to the home's inbound traffic is those entries
    // and nothing else: the joins gather the same spans either way.
    use hdsm::dsd::protocol::{DsdMsg, Report};
    use hdsm::dsd::update::extract_updates;
    use hdsm::dsd::{GthvInstance, UpdateRange};
    let (n, extra) = (30u64, 8);
    let row = |entry, i: u64| UpdateRange::new(entry, i * n + 1, n - 2);
    let pair = &paper_pairs()[2];
    let placement = [&pair.home, &pair.remote, &pair.remote];
    // (shipped rows, held rows) of each worker's block, per sweep.
    let blocks = [(vec![9], 1..9), (vec![10, 19], 11..19), (vec![20], 21..29)];
    let mut sweep_bytes = 0;
    let mut payload = 0;
    for (platform, (shipped, held)) in placement.into_iter().zip(blocks) {
        let copy = GthvInstance::new(hdsm::apps::jacobi::gthv_def(n as usize), platform.clone());
        let shipped: Vec<UpdateRange> = shipped.into_iter().map(|i| row(1, i)).collect();
        let updates = extract_updates(&copy, &shipped).unwrap();
        payload += updates.payload_bytes();
        let report = Report {
            held: held.map(|i| row(1, i)).collect(),
            ..Report::default()
        };
        assert_eq!(report.held.len(), 8);
        let enter = DsdMsg::BarrierEnter {
            barrier: 0,
            rank: 1,
            updates,
        };
        sweep_bytes += enter.encode_request(1, None, &report).len() as u64;
    }
    assert_eq!(payload, 4 * (n - 2) * 8, "four boundary rows of doubles");
    let short = jacobi_to_home(n as usize, 4);
    let long = jacobi_to_home(n as usize, 4 + extra);
    assert_eq!(
        long.0 - short.0,
        extra as u64 * 3,
        "one entry a worker a sweep"
    );
    assert_eq!(long.1 - short.1, extra as u64 * sweep_bytes);
}

#[test]
fn lu_fetches_the_moving_pivot_row_and_still_verifies() {
    // Everyone reads pivot row k at step k, and only its owner wrote it:
    // the interest trails the pivot by a row, so each step's row comes by
    // a fetch (the case where what is read is not what was read before).
    let pair = &paper_pairs()[2];
    let recorder = hdsm::obs::Recorder::enabled();
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .obs(recorder.clone());
    assert!(Kernel::Lu.run(builder, 16, 21).unwrap().1);
    let snap = recorder.snapshot().expect("armed");
    let fetches = snap
        .counters
        .iter()
        .find(|(k, _)| k == "client.range_fetches");
    assert!(fetches.is_some_and(|(_, v)| *v > 0), "{:?}", snap.counters);
}

#[test]
fn migration_chain_through_every_platform() {
    // One worker migrates Linux → SPARC → SPARC64 → back to Linux while
    // computing; the other stays put.
    let n = 16;
    let seed = 5;
    let linux = PlatformSpec::linux_x86();
    let reg = matmul::registry(&linux);
    let moves = [
        vec![
            (2, PlatformSpec::solaris_sparc()),
            (4, PlatformSpec::solaris_sparc64()),
            (6, PlatformSpec::linux_x86()),
        ],
        vec![],
    ];
    let outcome = ClusterBuilder::new()
        .gthv(matmul::gthv_def(n))
        .home(linux.clone())
        .worker(linux.clone())
        .worker(linux.clone())
        .barriers(2)
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed },
            ..Default::default()
        })
        .init(move |g| matmul::init(g, n, seed))
        .run(|c, info| {
            let rows = block_rows(n, info.index, info.n_workers);
            let start = matmul::start_state(&info.platform, n, rows);
            run_migrating(c, &reg, start, &moves[info.index])
        })
        .unwrap();
    assert!(matmul::verify(&outcome.final_gthv, n, seed));
    let (state, stats) = &outcome.results[0];
    assert_eq!(stats.migrations, 3);
    assert_eq!(state.block("MThV").unwrap().platform.name, "linux-x86");
    assert_eq!(outcome.results[1].1.migrations, 0);
}

#[test]
fn a_program_missing_from_the_registry_fails_as_a_migration_error() {
    // The registry knows no program at all, so the very first step — the
    // instantiation of the start state — is refused, with its type.
    let n = 8;
    let linux = PlatformSpec::linux_x86();
    let empty = ProgramRegistry::new();
    let err = ClusterBuilder::new()
        .gthv(matmul::gthv_def(n))
        .worker(linux.clone())
        .barriers(2)
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 1 },
            ..Default::default()
        })
        .run(|c, info| {
            let start = matmul::start_state(&info.platform, n, 0..n);
            run_migrating(c, &empty, start, &[])
        })
        .unwrap_err();
    assert!(
        matches!(
            &err,
            ClusterError::Worker {
                error: DsdError::Migration(MigrateError::UnknownProgram(p)),
                ..
            } if p == matmul::PROGRAM
        ),
        "{err}"
    );
    let source = std::error::Error::source(&err).and_then(std::error::Error::source);
    assert!(source.is_some_and(|e| e.to_string().contains("unknown program")));
}

#[test]
fn lock_mode_equals_barrier_mode_results() {
    let n = 18;
    let run = |mode| {
        let builder = ClusterBuilder::new()
            .home(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc());
        let (outcome, verified) = Kernel::Matmul(mode).run(builder, n, 6).unwrap();
        assert!(verified, "{mode:?}");
        let mut c_vals = Vec::new();
        for i in 0..(n * n) as u64 {
            c_vals.push(outcome.final_gthv.read_int(matmul::entries::C, i).unwrap());
        }
        c_vals
    };
    assert_eq!(run(SyncMode::Barrier), run(SyncMode::Lock));
}

#[test]
fn pointer_field_survives_full_run() {
    // GThP is initialised to &A[0]; after the whole distributed run the
    // authoritative copy must still resolve it, and the pointer must have
    // been translated correctly into every worker's address space.
    let (n, kernel) = (12, Kernel::Matmul(SyncMode::Barrier));
    let builder = ClusterBuilder::new()
        .home(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc64());
    let outcome = kernel
        .setup(builder, n, 7)
        .run(move |c, i| {
            kernel.run_worker(c, i, n)?;
            // After the final barrier the worker's LP64 big-endian copy
            // must still see GThP → A[0].
            assert_eq!(
                c.read_ptr(matmul::entries::GTHP, 0)?,
                Some((matmul::entries::A, 0))
            );
            Ok(())
        })
        .unwrap();
    assert_eq!(
        outcome
            .final_gthv
            .read_ptr(matmul::entries::GTHP, 0)
            .unwrap(),
        Some((matmul::entries::A, 0))
    );
}

#[test]
fn cost_accounting_covers_every_component() {
    // A heterogeneous run must exercise all five Eq. 1 components on the
    // worker side and tag/pack/unpack/conv on the home side.
    let builder = ClusterBuilder::new()
        .home(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86());
    let kernel = Kernel::Matmul(SyncMode::Barrier);
    let (outcome, verified) = kernel.run(builder, 20, 8).unwrap();
    assert!(verified);
    for c in &outcome.worker_costs {
        assert!(c.t_index > std::time::Duration::ZERO);
        assert!(c.t_tag > std::time::Duration::ZERO);
        assert!(c.t_pack > std::time::Duration::ZERO);
        assert!(c.t_unpack > std::time::Duration::ZERO);
        assert!(c.t_conv > std::time::Duration::ZERO);
        assert!(c.updates_sent > 0);
        assert!(c.updates_applied > 0);
    }
    assert!(outcome.home_costs.t_conv > std::time::Duration::ZERO);
    assert!(outcome.home_costs.updates_applied > 0);
}

#[test]
fn empty_critical_sections_are_cheap_and_correct() {
    // Lock/unlock with no writes must ship zero updates.
    let n = 8;
    let outcome = ClusterBuilder::new()
        .gthv(matmul::gthv_def(n))
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .run(move |c, _i| {
            for _ in 0..5 {
                c.acquire(LockId::new(0))?;
                c.release(LockId::new(0))?;
            }
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .unwrap();
    // Only the (empty) init pull could ship anything; no write updates.
    for c in &outcome.worker_costs {
        assert_eq!(c.updates_sent, 0);
    }
}

#[test]
fn config_errors_are_reported() {
    use hdsm::dsd::cluster::ClusterError;
    let err = ClusterBuilder::new()
        .worker(PlatformSpec::linux_x86())
        .run(|_c, _i| Ok(()))
        .unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)));

    let err = ClusterBuilder::new()
        .gthv(matmul::gthv_def(4))
        .run(|_c, _i| Ok(()))
        .unwrap_err();
    assert!(matches!(err, ClusterError::Config(_)));
}

#[test]
fn worker_protocol_violation_surfaces_as_error() {
    use hdsm::dsd::cluster::ClusterError;
    // Unlocking a mutex that was never locked is a protocol violation the
    // home service reports; the cluster surfaces it instead of hanging.
    let err = ClusterBuilder::new()
        .gthv(matmul::gthv_def(4))
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .timing(TimingConfig {
            recv_deadline: Some(std::time::Duration::from_millis(500)),
            ..Default::default()
        })
        .run(|c, _i| {
            c.release(LockId::new(0))?;
            Ok(())
        })
        .unwrap_err();
    match err {
        ClusterError::Home(_) | ClusterError::Worker { .. } | ClusterError::Panic(_) => {}
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn typed_session_api_three_shards_three_workers() {
    // The whole typed surface in one sharded run: handles minted by the
    // builder, a drop-release guard for the critical section, and a home
    // service split three ways — entries and sync objects round-robin
    // across the shards while every worker sees one coherent structure.
    let builder = ClusterBuilder::new()
        .gthv(matmul::gthv_def(9))
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86_64())
        .locks(2)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 3,
            ..Default::default()
        });
    let locks = builder.lock_ids();
    let barriers = builder.barrier_ids();
    assert_eq!(locks.len(), 2);
    assert_eq!(barriers.len(), 1);
    let (evens, odds, done) = (locks[0], locks[1], barriers[0]);
    let outcome = builder
        .init(|g| {
            for i in 0..81 {
                g.write_int(matmul::entries::C, i, 0).unwrap();
            }
        })
        .run(move |client, info| {
            // Each worker bumps every element once, alternating which
            // lock guards the write so both shards' mutexes see traffic.
            for i in 0..81u64 {
                let lock = if i % 2 == 0 { evens } else { odds };
                let mut c = client.lock(lock)?;
                let v = c.read_int(matmul::entries::C, i)?;
                c.write_int(matmul::entries::C, i, v + 1 + info.index as i128)?;
                c.unlock()?;
            }
            client.barrier(done)?;
            client.read_int(matmul::entries::C, 80)
        })
        .unwrap();
    // 3 workers added 1, 2 and 3 to every element.
    for i in 0..81 {
        assert_eq!(
            outcome.final_gthv.read_int(matmul::entries::C, i).unwrap(),
            6
        );
    }
    // The post-barrier view agreed everywhere.
    assert!(outcome.results.iter().all(|&v| v == 6));
}

/// Traffic of `Kernel::Sor` at n = 64 on the SL placement and the sim
/// fabric through `shards` home shards: (messages, bytes). The final bytes
/// must verify.
fn sor_traffic(shards: u32) -> (u64, u64) {
    let pair = &paper_pairs()[2];
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .topology(TopologyConfig {
            shards,
            fabric: FabricMode::Sim { seed: 5 },
            ..Default::default()
        });
    let (outcome, verified) = Kernel::Sor { sweeps: 4 }.run(builder, 64, 5).unwrap();
    assert!(verified, "SOR at {shards} shards");
    let stats = &outcome.net_stats;
    (stats.total_messages(), stats.total_bytes())
}

#[test]
fn sor_ships_a_colour_of_a_row_as_one_strided_row() {
    // A red-black half-sweep stores every other element of a row, so each
    // of its one-element runs was a row of the frame's run table; the
    // strided form folds a row's colour into one `(first, count, stride)`
    // row. The bytes at commit 70e58d7, before the strided form, were
    // 171 314 at one shard and 171 392 at three; the messages were 60 and
    // 84, and they do not move. Held names are strided rows too, 490 bytes
    // more than the dense spans that named both colours of a row before
    // (160 483 and 160 561): at n = 64 a colour's count and stride take a
    // byte each where the row's count took one, and a held tail that opens
    // strided costs its first name four bytes more.
    for (shards, msgs, before, bytes) in [(1, 60, 171_314, 160_973), (3, 84, 171_392, 161_051)] {
        let got = sor_traffic(shards);
        assert_eq!(got, (msgs, bytes), "{shards} shards");
        assert!(got.1 < before);
    }
}
