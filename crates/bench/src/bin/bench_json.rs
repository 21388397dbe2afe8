//! Machine-readable benchmark summary: run each workload once on the
//! heterogeneous SL pair and write wall time plus the Eq. 1 cost totals to
//! `BENCH_dsd.json` at the repository root.
//!
//! Sizes default to quick smoke values so the emitter finishes in seconds;
//! pass `--paper` for the paper's matrix sizes (slower). Every workload
//! runs twice: once on the classic single-home DSD and once with the home
//! service sharded (`--shards N`, default 3) — the sharded rows carry a
//! `@sN` suffix and a `"shards"` field so the perf gate covers both
//! configurations.
//!
//! `--check` re-runs the workloads and compares each `c_share_ms` against
//! the *committed* `BENCH_dsd.json` without overwriting it, exiting
//! non-zero on a > 20 % regression — the CI perf gate.

use hdsm_apps::workload::{paper_pairs, SyncMode};
use hdsm_apps::Kernel;
use hdsm_bench::paper_placement;
use hdsm_core::cluster::{ClusterBuilder, ClusterOutcome, TimingConfig, TopologyConfig};
use hdsm_core::costs::CostBreakdown;
use hdsm_core::gthv::GthvDef;
use hdsm_core::{LockId, PlacementPolicy, ShardId};
use hdsm_net::{FabricMode, MsgKind, NetConfig};
use hdsm_obs::{EventKind, ObsConfig, Recorder};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::PlatformSpec;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Row {
    label: String,
    n: usize,
    shards: u32,
    wall: Duration,
    costs: CostBreakdown,
    net_bytes: u64,
    net_messages: u64,
    /// Update bytes shipped to a home shard *other than* the one the
    /// release itself targets (`UpdateFlush` traffic) — the cost a good
    /// placement makes vanish by co-homing hot data with its sync shard.
    remote_update_bytes: u64,
    /// Entries the placement engine re-homed mid-run (0 without one).
    rehomes: u64,
    verified: bool,
}

impl Row {
    /// A row's costs and traffic, read off a finished run.
    fn new<R>(
        label: String,
        n: usize,
        shards: u32,
        wall: Duration,
        outcome: &ClusterOutcome<R>,
    ) -> Row {
        let mut costs: CostBreakdown = outcome.worker_costs.iter().sum();
        costs += &outcome.home_costs;
        let stats = &outcome.net_stats;
        Row {
            label,
            n,
            shards,
            wall,
            costs,
            net_bytes: stats.total_bytes(),
            net_messages: stats.total_messages(),
            remote_update_bytes: stats.bytes.get(&MsgKind::UpdateFlush).copied().unwrap_or(0),
            rehomes: 0,
            verified: false,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_workload(name: &'static str, kernel: Kernel, n: usize, shards: u32) -> Row {
    let pair = &paper_pairs()[2]; // SL: heterogeneous, exercises t_conv.
    let seed = 0xD5D;
    let builder = ClusterBuilder::new()
        .home(pair.home.clone())
        .topology(TopologyConfig {
            shards,
            ..Default::default()
        });
    let builder = paper_placement(pair)
        .into_iter()
        .fold(builder, |b, w| b.worker(w));
    let builder = kernel.setup(builder, n, seed);
    let t0 = Instant::now();
    let outcome = builder
        .run(move |c, i| kernel.run_worker(c, i, n))
        .expect(name);
    let wall = t0.elapsed();
    let label = if shards > 1 {
        format!("{name}@s{shards}")
    } else {
        name.to_string()
    };
    Row {
        verified: kernel.verify(&outcome.final_gthv, n, seed),
        ..Row::new(label, n, shards, wall, &outcome)
    }
}

/// The adaptive-placement benchmark: one rank does ~90 % of the writes,
/// all to an entry homed on the *other* shard from the lock serializing
/// them, so without the placement engine every release pays a separate
/// `UpdateFlush` round trip to the stale home. With it — the control
/// script `ClusterCtl::adapt` — the hot entry is re-homed onto the sync
/// shard mid-run, after which the updates
/// ride the release's own keep-bucket for free. Runs on the seeded sim
/// fabric with a modelled wire so virtual time elapses and the engine's
/// planning epochs interleave with the workload deterministically.
///
/// The traffic columns are deterministic in the seed; the `c_share`
/// columns are real elapsed time and jitter run to run, so (like the
/// `--check` gate) the row keeps the best of three runs.
fn run_skewed_writer(n: usize, adaptive: bool) -> Row {
    let runs = (0..3).map(|_| run_skewed_writer_once(n, adaptive));
    runs.min_by_key(|r| r.costs.c_share()).expect("three runs")
}

fn run_skewed_writer_once(n: usize, adaptive: bool) -> Row {
    let hot = n as u64 - 8; // rank 1's slots: 0..hot; slots hot.. are stripes
    let def = GthvDef::new(
        StructBuilder::new("G")
            .array("cold", ScalarKind::Int, n)
            .array("hot", ScalarKind::Int, n)
            .build()
            .expect("bench struct"),
    )
    .expect("valid def");
    let t0 = Instant::now();
    let mut builder = ClusterBuilder::new()
        .gthv(def)
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(2)
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            fabric: FabricMode::Sim { seed: 0xA110 },
            ..Default::default()
        })
        .net(NetConfig::default())
        .obs(Recorder::enabled());
    if adaptive {
        let policy = PlacementPolicy {
            epoch: Duration::from_millis(2),
            hysteresis: 2.0,
            min_gain: 1024,
        };
        builder = builder.control(move |mut ctl| {
            let _ = ctl.adapt(&policy);
        });
    }
    let outcome = builder
        .run(move |c, info| {
            if info.index == 0 {
                // The dominant writer: every round rewrites its slice of
                // the hot entry (homed at shard 1) under lock 0 (homed at
                // shard 0).
                for r in 0..150i128 {
                    c.acquire(LockId::new(0))?;
                    for e in 0..hot {
                        c.write_int(1, e, (r + 1) * (e as i128 + 1))?;
                    }
                    c.release(LockId::new(0))?;
                }
            } else {
                // Minority writers: a private slot each, same lock.
                for r in 0..5i128 {
                    c.acquire(LockId::new(0))?;
                    c.write_int(1, hot + info.index as u64, r + 1)?;
                    c.release(LockId::new(0))?;
                }
            }
            // Unrelated traffic keeps the cold entry's shard warm.
            c.acquire(LockId::new(1))?;
            c.write_int(0, info.index as u64, info.index as i128 + 10)?;
            c.release(LockId::new(1))?;
            Ok(())
        })
        .expect("skewed_writer run");
    let wall = t0.elapsed();
    // Closed-form final state: slot ownership is disjoint, so the result
    // is schedule-independent.
    let mut verified = true;
    for e in 0..hot {
        verified &= outcome.final_gthv.read_int(1, e).expect("hot slot") == 150 * (e as i128 + 1);
    }
    for idx in 1..4u64 {
        verified &= outcome.final_gthv.read_int(1, hot + idx).expect("stripe") == 5;
    }
    let snap = outcome.obs.as_ref().expect("recorder enabled");
    let rehomes = snap.placement.len() as u64;
    if adaptive {
        verified &= rehomes > 0;
    }
    let mode = if adaptive { "adaptive" } else { "static" };
    Row {
        rehomes,
        verified,
        ..Row::new(format!("skewed_writer@{mode}"), n, 2, wall, &outcome)
    }
}

/// Injected-death recovery latency: steady lock traffic against a
/// replicated home, the primary killed mid-run. Recovery is the gap in
/// the causal trace between the kill and the first request served by the
/// promoted standby (`ShardKill` → `FirstGrant`), in milliseconds. The
/// row carries no `c_share_ms`, so the `--check` perf gate ignores it.
fn measure_failover_recovery() -> f64 {
    // The body runs for a fixed wall budget, so a faster release path
    // means more ops and more events: at ~33 events an op the standby's
    // rank passed the default 65 536-slot ring near 5000 ops and evicted
    // its own `FirstGrant`. The ring grows lazily; size it for the budget.
    let recorder = Recorder::with_config(ObsConfig {
        ring_capacity: 1 << 20,
    });
    let def = GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 16)
            .build()
            .expect("bench struct"),
    )
    .expect("valid def");
    let outcome = ClusterBuilder::new()
        .gthv(def)
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .locks(1)
        .topology(TopologyConfig {
            replicas: 1,
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(150)),
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .control(|ctl| {
            std::thread::sleep(Duration::from_millis(120));
            ctl.kill_shard(ShardId::new(0));
        })
        .run(|c, _| {
            // Lock-serialized increments for a fixed wall budget, so the
            // traffic is still flowing when the kill lands.
            let t0 = Instant::now();
            let mut mine = 0i128;
            while t0.elapsed() < Duration::from_millis(400) {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
                mine += 1;
            }
            Ok(mine)
        })
        .expect("failover recovery run");
    let total: i128 = outcome.results.iter().sum();
    assert_eq!(
        outcome.final_gthv.read_int(0, 0).expect("counter"),
        total,
        "increments lost across the failover"
    );
    let events = recorder.events();
    let kill = events
        .iter()
        .find(|e| e.kind == EventKind::ShardKill)
        .expect("kill event")
        .t_us;
    let grant = events
        .iter()
        .filter(|e| e.kind == EventKind::FirstGrant && e.t_us >= kill)
        .map(|e| e.t_us)
        .min()
        .expect("first post-promotion grant");
    (grant - kill) as f64 / 1e3
}

/// Wall-time cost of the live-telemetry layer: the SOR workload run
/// with the recorder off, then again with the recorder, the windowed
/// time-series, the stall watchdog and the flight recorder all armed.
/// Returns `(off_ms, on_ms)`, each the best of seven runs with the two
/// legs interleaved — a busy-machine phase then hits both legs instead
/// of masquerading as overhead. The acceptance budget is ≤ 5 %: every
/// hot-path hook must stay a null check when the feature is idle, so
/// the enabled run pays only the 5 ms tick work.
fn measure_telemetry_overhead() -> (f64, f64) {
    let n = 32usize;
    let seed = 0xD5D;
    let kernel = Kernel::Sor { sweeps: 6 };
    let run_once = |telemetry: bool| -> Duration {
        let builder = ClusterBuilder::new()
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86_64());
        let mut builder = kernel.setup(builder, n, seed);
        if telemetry {
            builder = builder
                .obs(Recorder::enabled())
                .telemetry(Duration::from_millis(5), 512)
                .flight_recorder(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../results/bench-blackbox"
                ));
        }
        let t0 = Instant::now();
        let outcome = builder
            .run(move |c, i| kernel.run_worker(c, i, n))
            .expect("telemetry-overhead run");
        let wall = t0.elapsed();
        assert!(
            kernel.verify(&outcome.final_gthv, n, seed),
            "telemetry-overhead sor failed to verify"
        );
        wall
    };
    let mut off = Duration::MAX;
    let mut on = Duration::MAX;
    for _ in 0..7 {
        off = off.min(run_once(false));
        on = on.min(run_once(true));
    }
    (ms(off), ms(on))
}

/// How far one process scales when the cluster runs on the
/// deterministic discrete-event fabric: a jacobi relaxation multiplexed
/// over `ranks` logical workers under `Sim { seed }`, measured in real
/// wall time. The interesting figure is the growth curve — an
/// event-driven scheduler should take 1000 ranks in seconds where
/// free-running threads would thrash. Rows carry no `c_share_ms`, so
/// the `--check` perf gate ignores them.
fn measure_rank_scaling(ranks: u32) -> f64 {
    use hdsm_net::FabricMode;
    let n = 32usize;
    let seed = 0xD5D;
    let kernel = Kernel::Jacobi { sweeps: 2 };
    let mut builder = ClusterBuilder::new().topology(TopologyConfig {
        fabric: FabricMode::Sim { seed: 9 },
        ..Default::default()
    });
    for i in 0..ranks {
        builder = builder.worker(if i % 2 == 0 {
            PlatformSpec::linux_x86()
        } else {
            PlatformSpec::linux_x86_64()
        });
    }
    let builder = kernel.setup(builder, n, seed);
    let t0 = Instant::now();
    let outcome = builder
        .run(move |c, i| kernel.run_worker(c, i, n))
        .expect("rank-scaling run");
    let wall = t0.elapsed();
    assert!(
        kernel.verify(&outcome.final_gthv, n, seed),
        "rank-scaling jacobi failed to verify at {ranks} ranks"
    );
    ms(wall)
}

/// Nanoseconds a load and a store cost through [`hdsm_core::client::DsdClient`]'s
/// accessors — where the fetch-before-use check lives, one call above
/// `GthvInstance` — next to the same loops on a bare `GthvInstance`.
/// Measured on a worker that holds a notice for the upper half of the
/// array: it loads `xs[8..N/2]` (inside its read window after the first
/// pass) and stores to it, a range it stores to while part of the entry is
/// stale. Each figure is the median of nine passes after a warm-up pass
/// (which takes the write faults and opens the windows). Returns
/// `[client_read, client_write, gthv_read, gthv_write]`.
fn measure_access_path() -> [f64; 4] {
    use hdsm_core::gthv::GthvInstance;
    use hdsm_core::BarrierId;
    const N: u64 = 1 << 15;
    let def = GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Double, N as usize)
            .build()
            .expect("struct"),
    )
    .expect("valid def");
    /// Median ns per element of nine timed passes over `8..N/2`.
    fn ns_per_elem(mut pass: impl FnMut()) -> f64 {
        pass();
        let mut ns: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                pass();
                t0.elapsed().as_nanos() as f64 / (N / 2 - 8) as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[4]
    }
    let b = BarrierId::new(0);
    let outcome = ClusterBuilder::new()
        .gthv(def.clone())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .barriers(1)
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 9 },
            ..Default::default()
        })
        .run(move |c, info| {
            c.barrier(b)?;
            if info.index == 0 {
                c.read_floats(0, 0, &mut [0.0; 8])?;
            } else {
                (N / 2..N).try_for_each(|i| c.write_float(0, i, i as f64))?;
            }
            c.barrier(b)?; // worker 0 reports; the upper half is noticed
            let mut timed = (0.0, 0.0);
            if info.index == 0 {
                let mut sum = 0.0;
                timed.0 = ns_per_elem(|| {
                    for i in 8..N / 2 {
                        sum += c.read_float(0, i).expect("in range");
                    }
                });
                timed.1 = ns_per_elem(|| {
                    for i in 8..N / 2 {
                        c.write_float(0, i, sum + i as f64).expect("in range");
                    }
                });
            }
            c.barrier(b)?;
            Ok(timed)
        })
        .expect("access-path run");
    let (client_read, client_write) = outcome.results[0];
    // A fresh instance is unprotected: stores take no fault.
    let mut g = GthvInstance::new(def, PlatformSpec::linux_x86());
    let mut sum = 0.0;
    let gthv_read = ns_per_elem(|| {
        for i in 8..N / 2 {
            sum += g.read_float(0, i).expect("in range");
        }
    });
    let gthv_write = ns_per_elem(|| {
        for i in 8..N / 2 {
            g.write_float(0, i, sum + i as f64).expect("in range");
        }
    });
    [client_read, client_write, gthv_read, gthv_write]
}

/// Extract `(name, c_share_ms)` per benchmark from a committed
/// `BENCH_dsd.json` by line scanning — the emitter writes one object per
/// line, and the build has no JSON parser dependency to lean on.
fn parse_committed(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else { continue };
        let name = rest[..nend].to_string();
        let Some(cpos) = line.find("\"c_share_ms\": ") else {
            continue;
        };
        let rest = &line[cpos + 14..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

fn run_all(grid_n: usize, mat_n: usize, shards: u32) -> Vec<Row> {
    let sweeps = 6;
    let kernels = [
        ("jacobi", Kernel::Jacobi { sweeps }, grid_n),
        ("sor", Kernel::Sor { sweeps }, grid_n),
        ("matmul", Kernel::Matmul(SyncMode::Barrier), mat_n),
        ("lu", Kernel::Lu, mat_n),
    ];
    let run = |shards| kernels.map(|(name, kernel, n)| run_workload(name, kernel, n, shards));
    let mut rows = Vec::from(run(1));
    if shards > 1 {
        rows.extend(run(shards));
    }
    // The static-vs-adaptive pair: same seed, same workload — the only
    // difference is whether the placement engine is allowed to act.
    rows.push(run_skewed_writer(32, false));
    rows.push(run_skewed_writer(32, true));
    rows
}

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let check = std::env::args().any(|a| a == "--check");
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--sim-smoke") {
        // CI smoke: one verified sim-fabric run at the requested rank
        // count, no JSON written.
        let ranks: u32 = args
            .get(i + 1)
            .map(|v| v.parse().expect("--sim-smoke takes a rank count"))
            .unwrap_or(64);
        let wall_ms = measure_rank_scaling(ranks);
        println!("sim smoke: {ranks} ranks verified in {wall_ms:.2} ms");
        return;
    }
    let shards: u32 = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--shards takes a number"))
        .unwrap_or(3);
    let (grid_n, mat_n) = if paper { (99, 99) } else { (32, 32) };
    let rows = run_all(grid_n, mat_n, shards);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dsd.json");
    if check {
        let committed = std::fs::read_to_string(path).expect("read committed BENCH_dsd.json");
        let baseline = parse_committed(&committed);
        // Sub-millisecond rows jitter run to run; compare the committed
        // value against the best of three so the gate trips on genuine
        // regressions, not scheduler noise.
        let mut best: Vec<f64> = rows.iter().map(|r| ms(r.costs.c_share())).collect();
        for _ in 0..2 {
            for (i, r) in run_all(grid_n, mat_n, shards).iter().enumerate() {
                assert!(r.verified, "{} failed to verify on a re-run", r.label);
                best[i] = best[i].min(ms(r.costs.c_share()));
            }
        }
        let mut regressed = false;
        println!(
            "{:>10} {:>15} {:>15} {:>8}",
            "bench", "committed", "measured", "delta"
        );
        for (r, &new) in rows.iter().zip(&best) {
            match baseline.iter().find(|(n, _)| *n == r.label) {
                Some((_, old)) => {
                    let delta = if *old > 0.0 {
                        (new - old) / old * 100.0
                    } else {
                        0.0
                    };
                    let over = new > old * 1.2;
                    regressed |= over;
                    println!(
                        "{:>10} {:>12.3} ms {:>12.3} ms {:>+7.1}%{}",
                        r.label,
                        old,
                        new,
                        delta,
                        if over { "  REGRESSED" } else { "" }
                    );
                }
                None => println!("{:>7} (no committed baseline)", r.label),
            }
        }
        assert!(
            rows.iter().all(|r| r.verified),
            "a workload failed to verify"
        );
        if regressed {
            eprintln!("c_share_ms regressed > 20% against committed BENCH_dsd.json");
            std::process::exit(1);
        }
        // Live-telemetry overhead gate: the fully-armed recorder may not
        // cost SOR more than 5 % wall over the recorder-off run (plus a
        // 1 ms absolute grace so sub-millisecond scheduler jitter on the
        // smoke sizes cannot trip the gate on its own).
        let (off_ms, on_ms) = measure_telemetry_overhead();
        let pct = if off_ms > 0.0 {
            (on_ms - off_ms) / off_ms * 100.0
        } else {
            0.0
        };
        println!("telemetry overhead: off {off_ms:.2} ms, on {on_ms:.2} ms ({pct:+.1}%)");
        if on_ms > off_ms * 1.05 + 1.0 {
            eprintln!("telemetry overhead exceeded the 5% budget");
            std::process::exit(1);
        }
        println!("bench check passed (threshold: +20% c_share_ms, +5% telemetry wall)");
        return;
    }

    let mut json = String::from("{\n  \"pair\": \"SL\",\n  \"benchmarks\": [\n");
    for r in rows.iter() {
        let c = &r.costs;
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"shards\": {}, \"wall_ms\": {:.3}, \
             \"t_index_ms\": {:.3}, \"t_tag_ms\": {:.3}, \"t_pack_ms\": {:.3}, \
             \"t_unpack_ms\": {:.3}, \"t_conv_ms\": {:.3}, \"c_share_ms\": {:.3}, \
             \"updates_sent\": {}, \"bytes_sent\": {}, \"net_messages\": {}, \
             \"net_bytes\": {}, \"remote_update_bytes\": {}, \"rehomes\": {}, \
             \"verified\": {}}},",
            r.label,
            r.n,
            r.shards,
            ms(r.wall),
            ms(c.t_index),
            ms(c.t_tag),
            ms(c.t_pack),
            ms(c.t_unpack),
            ms(c.t_conv),
            ms(c.c_share()),
            c.updates_sent,
            c.bytes_sent,
            r.net_messages,
            r.net_bytes,
            r.remote_update_bytes,
            r.rehomes,
            r.verified,
        )
        .expect("write to string");
    }
    // Simulation-mode scalability curve: wall time to multiplex a
    // jacobi cluster of 8 → 1024 logical ranks through the
    // discrete-event scheduler in this one process. No `c_share_ms`
    // key, so the perf gate skips these rows.
    let mut scaling = Vec::new();
    for ranks in [8u32, 64, 256, 1024] {
        let wall_ms = measure_rank_scaling(ranks);
        scaling.push((ranks, wall_ms));
        writeln!(
            json,
            "    {{\"name\": \"rank_scaling@r{ranks}\", \"ranks\": {ranks}, \
             \"fabric\": \"sim\", \"sim_seed\": 9, \"wall_ms\": {wall_ms:.3}}},"
        )
        .expect("write to string");
    }
    // Live-telemetry tax: the same SOR run with the recorder off vs the
    // full telemetry stack (time-series, watchdog, flight recorder)
    // armed. No `c_share_ms` key, so the perf gate reads the pair via
    // its own ≤ 5 % wall check instead.
    let (telem_off_ms, telem_on_ms) = measure_telemetry_overhead();
    let telem_pct = if telem_off_ms > 0.0 {
        (telem_on_ms - telem_off_ms) / telem_off_ms * 100.0
    } else {
        0.0
    };
    writeln!(
        json,
        "    {{\"name\": \"telemetry_overhead\", \"workload\": \"sor\", \
         \"wall_off_ms\": {telem_off_ms:.3}, \"wall_on_ms\": {telem_on_ms:.3}, \
         \"overhead_pct\": {telem_pct:.2}}},"
    )
    .expect("write to string");
    // The access path, timed where the fetch-before-use check lives. No
    // `c_share_ms` key, so the perf gate skips it.
    let [client_read, client_write, gthv_read, gthv_write] = measure_access_path();
    writeln!(
        json,
        "    {{\"name\": \"access_path\", \"client_read_ns\": {client_read:.2}, \
         \"client_write_ns\": {client_write:.2}, \"gthv_read_ns\": {gthv_read:.2}, \
         \"gthv_write_ns\": {gthv_write:.2}}},"
    )
    .expect("write to string");
    // Robustness figure, not an Eq. 1 cost: how long a replicated home
    // takes to serve again after its primary is killed mid-run. No
    // `c_share_ms` key, so the perf gate skips it.
    let recovery_ms = measure_failover_recovery();
    writeln!(
        json,
        "    {{\"name\": \"failover_recovery\", \"shards\": 1, \"replicas\": 1, \
         \"recovery_ms\": {recovery_ms:.3}}}"
    )
    .expect("write to string");
    json.push_str("  ]\n}\n");

    std::fs::write(path, &json).expect("write BENCH_dsd.json");
    for r in &rows {
        println!(
            "{:>10} n={:<4} wall {:>9.2} ms  c_share {:>9.2} ms  verified {}",
            r.label,
            r.n,
            ms(r.wall),
            ms(r.costs.c_share()),
            r.verified
        );
    }
    for (ranks, wall_ms) in &scaling {
        println!(
            "{:>10} ranks={:<5} wall {:>9.2} ms (sim fabric)",
            "rank-scale", ranks, wall_ms
        );
    }
    println!(
        "{:>10} off {:>9.2} ms  on {:>9.2} ms ({:+.1}%)",
        "telemetry", telem_off_ms, telem_on_ms, telem_pct
    );
    println!(
        "{:>10} load {client_read:.2} ns, store {client_write:.2} ns through the client \
         ({gthv_read:.2}, {gthv_write:.2} on a bare GthvInstance)",
        "access"
    );
    println!(
        "{:>10} recovery {:>7.2} ms (kill -> first grant)",
        "failover", recovery_ms
    );
    println!("wrote BENCH_dsd.json");
    assert!(
        rows.iter().all(|r| r.verified),
        "a workload failed to verify"
    );
}
