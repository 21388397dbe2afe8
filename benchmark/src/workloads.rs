//! The five workloads: what each one configures, how one cluster run of
//! it is made and timed, and the serial oracle its result is held to.
//!
//! Everything goes through `ClusterBuilder` on `FabricMode::Sim`: one
//! actor runs at a time, so wall time is the serialised CPU cost of all
//! ranks plus the scheduler, and every count repeats for a given seed.
//! The load is a closed loop of three logical workers.

use crate::stats::{median, percentile};
use hdsm_apps::workload::det_i32;
use hdsm_apps::{jacobi, sor};
use hdsm_core::cluster::{ClusterBuilder, TimingConfig, TopologyConfig, WorkerInfo};
use hdsm_core::{BarrierId, CostBreakdown, DsdClient, DsdError, GthvDef, GthvInstance, LockId};
use hdsm_net::{FabricMode, NetConfig, NetStats};
use hdsm_obs::{ObsSnapshot, Recorder};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::ConversionStats;
use std::time::Instant;

/// Problem sizes. They are fixed; only the number of repetitions is
/// tuned. `QUICK` is for smoke runs and its numbers are never compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub n: usize,
    pub jacobi_sweeps: usize,
    pub sor_sweeps: usize,
    /// Lock ops per worker.
    pub lock_ops: usize,
}

pub const FULL: Sizes = Sizes {
    n: 255,
    jacobi_sweeps: 120,
    sor_sweeps: 12,
    lock_ops: 2000,
};

pub const QUICK: Sizes = Sizes {
    n: 64,
    jacobi_sweeps: 120,
    sor_sweeps: 12,
    lock_ops: 200,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Jacobi,
    Sor,
    Lock,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the layer that does most of the
    /// work here and the layer that does least.
    pub why: &'static str,
    pub kernel: Kernel,
    pub home: Platform,
    pub workers: Vec<Platform>,
    pub shards: u32,
}

pub const NAMES: [&str; 5] = ["jacobi_sl", "jacobi_ll", "sor_sl", "lock_s3", "lock_s1"];

/// Slots of each entry of the lock kernel's structure, and its locks.
pub const LOCK_SLOTS: usize = 64;
pub const LOCKS: usize = 3;

pub fn by_name(name: &str) -> Option<Workload> {
    let sparc = PlatformSpec::solaris_sparc;
    let x86 = PlatformSpec::linux_x86;
    // The paper's placement: worker 0 stays on the home platform,
    // workers 1 and 2 are on the remote one.
    let paper = |home: Platform, remote: Platform| vec![home, remote.clone(), remote];
    Some(match name {
        "jacobi_sl" => Workload {
            name: "jacobi_sl",
            why: "contiguous row stripes of doubles, Solaris home and Linux workers: diff scan and map_runs do most of the work, pack and unpack little, 732 messages so protocol and fabric almost none",
            kernel: Kernel::Jacobi,
            home: sparc(),
            workers: paper(sparc(), x86()),
            shards: 1,
        },
        "jacobi_ll" => Workload {
            name: "jacobi_ll",
            why: "jacobi_sl on one platform, the homogeneous control: apply is a memcpy, so a change to tag plans, conversion or byte order must leave it alone and a diff or pack change must move both",
            kernel: Kernel::Jacobi,
            home: x86(),
            workers: paper(x86(), x86()),
            shards: 1,
        },
        "sor_sl" => Workload {
            name: "sor_sl",
            why: "red-black strided writes that cannot coalesce: extract, pack and unpack do most of the work and the diff scan little, the reverse of jacobi on the same layers",
            kernel: Kernel::Sor,
            home: sparc(),
            workers: paper(sparc(), x86()),
            shards: 1,
        },
        "lock_s3" => Workload {
            name: "lock_s3",
            why: "6000 one-element lock ops over 3 home shards, update shard differs from lock shard: protocol, home dispatch, directory fan-out and the sim fabric do the work, Eq. 1 little",
            kernel: Kernel::Lock,
            home: sparc(),
            workers: vec![x86(), sparc(), x86()],
            shards: 3,
        },
        "lock_s1" => Workload {
            name: "lock_s1",
            why: "lock_s3 through one home shard, 4 messages per op, not 10: a change to shard fan-out must leave it alone, a change to envelopes or the scheduler must move both",
            kernel: Kernel::Lock,
            home: sparc(),
            workers: vec![x86(), sparc(), x86()],
            shards: 1,
        },
        _ => return None,
    })
}

impl Workload {
    pub fn def(&self, sz: &Sizes) -> GthvDef {
        match self.kernel {
            Kernel::Jacobi => jacobi::gthv_def(sz.n),
            Kernel::Sor => sor::gthv_def(sz.n),
            Kernel::Lock => GthvDef::new(
                StructBuilder::new("GThV_lock")
                    .array("a", ScalarKind::Int, LOCK_SLOTS)
                    .array("b", ScalarKind::Long, LOCK_SLOTS)
                    .array("c", ScalarKind::Double, LOCK_SLOTS)
                    .build()
                    .expect("lock struct"),
            )
            .expect("valid def"),
        }
    }

    /// Home-side initialisation from the seed.
    pub fn init(&self, g: &mut GthvInstance, sz: &Sizes, seed: u64) {
        match self.kernel {
            Kernel::Jacobi => jacobi::init(g, sz.n, seed),
            Kernel::Sor => sor::init(g, sz.n, seed),
            Kernel::Lock => {
                for entry in 0..LOCKS as u32 {
                    for slot in 0..LOCK_SLOTS as u64 {
                        let v = lock_init_value(seed, entry, slot);
                        if entry == 2 {
                            g.write_float(entry, slot, v as f64).expect("init c");
                        } else {
                            g.write_int(entry, slot, v.into()).expect("init a/b");
                        }
                    }
                }
            }
        }
    }

    /// Sync ops all workers issue after the first barrier.
    pub fn sync_ops(&self, sz: &Sizes) -> u64 {
        let per_worker = match self.kernel {
            Kernel::Jacobi => sz.jacobi_sweeps,
            Kernel::Sor => 2 * sz.sor_sweeps,
            Kernel::Lock => sz.lock_ops,
        };
        (per_worker * self.workers.len()) as u64
    }
}

fn lock_init_value(seed: u64, entry: u32, slot: u64) -> i32 {
    det_i32(seed, u64::from(entry) * LOCK_SLOTS as u64 + slot)
}

/// Op `r` of worker `w` in the lock kernel: the lock it takes, the entry
/// it updates (homed on another shard when there are three) and the slot.
pub fn lock_op(w: usize, r: usize) -> (u32, u32, u64) {
    let lock = (r + w) % LOCKS;
    (
        lock as u32,
        ((lock + 1) % LOCKS) as u32,
        (w * 8 + r % 8) as u64,
    )
}

fn add_one(c: &mut DsdClient, entry: u32, slot: u64) -> Result<(), DsdError> {
    if entry == 2 {
        let v = c.read_float(entry, slot)?;
        c.write_float(entry, slot, v + 1.0)
    } else {
        let v = c.read_int(entry, slot)?;
        c.write_int(entry, slot, v + 1)
    }
}

/// What the workers do after the first barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// The whole kernel.
    Kernel,
    /// Nothing: spawn, instance construction, init, initial fetch and
    /// teardown only. This is what `setup_s` times.
    SetupOnly,
}

/// One cluster run as the program itself accounts for it.
pub struct RunSample {
    /// Duration of the `ClusterBuilder::run` call.
    pub wall_s: f64,
    /// Workers plus home.
    pub costs: CostBreakdown,
    pub conv: ConversionStats,
    pub net: NetStats,
    pub obs: Option<ObsSnapshot>,
    /// Median and 99th percentile of the sync-op latencies the worker
    /// bodies timed. Lock kernels: `acquire` to `release` returned, every
    /// op of every worker. Stencil kernels, whose body belongs to
    /// `hdsm-apps` and cannot be timed per op from outside: one value
    /// per worker, its time in `run_worker` divided by the barriers it
    /// crossed.
    pub sync_p50_us: f64,
    pub sync_p99_us: f64,
}

/// Run `w` once and return its accounting and the home's final state.
/// `seed` is the benchmark's `--seed`: it reaches the initial data and
/// the sim fabric's scheduler, and nothing else of the program.
pub fn run_cluster(
    w: &Workload,
    sz: &Sizes,
    seed: u64,
    fabric: FabricMode,
    recorder: Recorder,
    body: Body,
) -> Result<(RunSample, GthvInstance), String> {
    let mut builder = ClusterBuilder::new()
        .gthv(w.def(sz))
        .home(w.home.clone())
        .locks(LOCKS as u32)
        .barriers(1)
        .net(NetConfig::instant())
        .topology(TopologyConfig {
            shards: w.shards,
            fabric,
            ..Default::default()
        })
        .obs(recorder);
    for p in &w.workers {
        builder = builder.worker(p.clone());
    }
    let (init_w, init_sz) = (w.clone(), *sz);
    builder = builder.init(move |g| init_w.init(g, &init_sz, seed));

    let kernel = w.kernel;
    let sz = *sz;
    let worker = move |c: &mut DsdClient, info: &WorkerInfo| -> Result<Vec<f64>, DsdError> {
        if body == Body::SetupOnly {
            c.barrier(BarrierId::new(0))?;
            return Ok(Vec::new());
        }
        match kernel {
            Kernel::Jacobi | Kernel::Sor => {
                let t0 = Instant::now();
                let barriers = if kernel == Kernel::Jacobi {
                    jacobi::run_worker(c, info, sz.n, sz.jacobi_sweeps)?;
                    sz.jacobi_sweeps + 1
                } else {
                    sor::run_worker(c, info, sz.n, sz.sor_sweeps)?;
                    2 * sz.sor_sweeps + 1
                };
                Ok(vec![t0.elapsed().as_secs_f64() * 1e6 / barriers as f64])
            }
            Kernel::Lock => {
                c.barrier(BarrierId::new(0))?;
                let mut lat = Vec::with_capacity(sz.lock_ops);
                for r in 0..sz.lock_ops {
                    let (lock, entry, slot) = lock_op(info.index, r);
                    let t0 = Instant::now();
                    c.acquire(LockId::new(lock))?;
                    add_one(c, entry, slot)?;
                    c.release(LockId::new(lock))?;
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                Ok(lat)
            }
        }
    };

    let t0 = Instant::now();
    let outcome = builder.run(worker).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();

    let mut costs: CostBreakdown = outcome.worker_costs.iter().sum();
    costs += &outcome.home_costs;
    let mut conv = outcome.home_conv;
    for c in &outcome.worker_conv {
        conv.merge(c);
    }
    let sync_us: Vec<f64> = outcome.results.into_iter().flatten().collect();
    let (sync_p50_us, sync_p99_us) = if sync_us.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&sync_us), percentile(&sync_us, 99.0))
    };
    let sample = RunSample {
        wall_s,
        costs,
        conv,
        net: outcome.net_stats,
        obs: outcome.obs,
        sync_p50_us,
        sync_p99_us,
    };
    Ok((sample, outcome.final_gthv))
}

/// A one-worker cluster on real threads with failure detection off, for
/// the round-trip micro-measurements: `ops` empty critical sections and
/// `ops` one-party barriers, each timed.
pub fn run_rtt(ops: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let w = by_name("lock_s1").expect("known workload");
    let outcome = ClusterBuilder::new()
        .gthv(w.def(&QUICK))
        .home(w.home.clone())
        .worker(w.workers[0].clone())
        .net(NetConfig::instant())
        .timing(TimingConfig {
            lease: None,
            ..Default::default()
        })
        .run(move |c, _| {
            let time = |f: &mut dyn FnMut() -> Result<(), DsdError>| {
                let t0 = Instant::now();
                f().map(|()| t0.elapsed().as_secs_f64() * 1e6)
            };
            let lock = LockId::new(0);
            let locks = (0..ops)
                .map(|_| time(&mut || c.acquire(lock).and_then(|()| c.release(lock))))
                .collect::<Result<Vec<f64>, DsdError>>()?;
            let barriers = (0..ops)
                .map(|_| time(&mut || c.barrier(BarrierId::new(0))))
                .collect::<Result<Vec<f64>, DsdError>>()?;
            Ok((locks, barriers))
        })
        .map_err(|e| e.to_string())?;
    Ok(outcome.results.into_iter().next().expect("one worker"))
}

/// The oracle's verdict on one finished run.
pub struct Verdict {
    pub verified: bool,
    /// Sync ops whose effect is missing from the result (lock kernels).
    pub failed_ops: u64,
}

/// Hold the final state to the serial oracle: `jacobi::verify` and
/// `sor::verify` for the stencils; for the lock kernel every slot must
/// equal its initial value plus the ops that targeted it, and the sum of
/// all increments is the closed form `workers * lock_ops`.
pub fn verify(w: &Workload, sz: &Sizes, seed: u64, g: &GthvInstance) -> Verdict {
    match w.kernel {
        Kernel::Jacobi => Verdict {
            verified: jacobi::verify(g, sz.n, seed, sz.jacobi_sweeps),
            failed_ops: 0,
        },
        Kernel::Sor => Verdict {
            verified: sor::verify(g, sz.n, seed, sz.sor_sweeps),
            failed_ops: 0,
        },
        Kernel::Lock => {
            let mut want = [[0i64; LOCK_SLOTS]; LOCKS];
            for wk in 0..w.workers.len() {
                for r in 0..sz.lock_ops {
                    let (_, entry, slot) = lock_op(wk, r);
                    want[entry as usize][slot as usize] += 1;
                }
            }
            let mut exact = true;
            let mut seen: i64 = 0;
            for entry in 0..LOCKS as u32 {
                for slot in 0..LOCK_SLOTS as u64 {
                    let init = i64::from(lock_init_value(seed, entry, slot));
                    let got = if entry == 2 {
                        g.read_float(entry, slot).map(|v| v as i64)
                    } else {
                        g.read_int(entry, slot).map(|v| v as i64)
                    };
                    let added = got.map_or(0, |v| v - init);
                    exact &= added == want[entry as usize][slot as usize];
                    seen += added;
                }
            }
            let issued = w.sync_ops(sz) as i64;
            Verdict {
                verified: exact && seen == issued,
                failed_ops: (issued - seen).max(0) as u64,
            }
        }
    }
}
