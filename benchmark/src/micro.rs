//! Micro-measurements that belong to no workload: accessor and plan
//! costs, round trips on real threads, the thread-state converter. They
//! are diagnostics without a bound, and they run unpinned.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{by_name, run_cluster, run_rtt, Body, Sizes, Workload};
use bytes::Bytes;
use hdsm_apps::workload::block_rows;
use hdsm_apps::{jacobi, matmul};
use hdsm_core::GthvInstance;
use hdsm_migthread::packfmt::{pack_state, unpack_state};
use hdsm_migthread::state::TypedBlock;
use hdsm_net::{FabricMode, MsgKind, NetConfig, Network};
use hdsm_obs::Recorder;
use hdsm_platform::ctype::CType;
use hdsm_platform::endian::Endianness;
use hdsm_platform::scalar::{ScalarClass, ScalarKind};
use hdsm_platform::spec::PlatformSpec;
use hdsm_tags::convert::ConversionStats;
use hdsm_tags::plan::RunPlan;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 21;
/// Elements of the run the `RunPlan` measurements convert.
const RUN_ELEMS: usize = 65_536;
const RTT_OPS: usize = 2000;

/// Median over [`REPS`] calls of `f`, in microseconds.
fn median_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

fn run_plan_us(class: ScalarClass, src_size: u32, dst_size: u32, dst_endian: Endianness) -> f64 {
    let plan = RunPlan::lower(class, src_size, Endianness::Little, dst_size, dst_endian);
    let src: Vec<u8> = (0..RUN_ELEMS * src_size as usize)
        .map(|i| (i % 251) as u8)
        .collect();
    let mut dst = vec![0u8; RUN_ELEMS * dst_size as usize];
    median_us(|| {
        let mut stats = ConversionStats::default();
        plan.apply(black_box(&src), &mut dst, RUN_ELEMS as u64, &mut stats)
            .expect("sizes match the plan");
        black_box(dst[0])
    })
}

/// `threads_reps` runs of `jacobi_sl`'s kernel with two workers on real
/// threads: where an overlap or parallel-scan change would show.
fn threads_wall_s(sz: &Sizes, seed: u64, threads_reps: usize) -> Result<f64, String> {
    let sl = by_name("jacobi_sl").expect("known workload");
    let two = Workload {
        workers: sl.workers[..2].to_vec(),
        ..sl
    };
    let walls = (0..threads_reps)
        .map(|_| {
            run_cluster(
                &two,
                sz,
                seed,
                FabricMode::Threads,
                Recorder::disabled(),
                Body::Kernel,
            )
            .map(|(s, _)| s.wall_s)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&walls))
}

pub fn run(
    sz: &Sizes,
    seed: u64,
    threads_reps: usize,
    tracer: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    let x86 = PlatformSpec::linux_x86();
    let sparc = PlatformSpec::solaris_sparc();

    tracer.scope("micro.gthv", |_| {
        let def = jacobi::gthv_def(sz.n);
        put(
            "core.gthv_new_us",
            median_us(|| GthvInstance::new(def.clone(), x86.clone())),
        );
        // A fresh instance is unprotected: stores take no fault.
        let mut g = GthvInstance::new(def, x86.clone());
        let elems = (sz.n * sz.n) as u64;
        let write_us = median_us(|| {
            for i in 0..elems {
                g.write_float(jacobi::entries::G0, i, i as f64)
                    .expect("in range");
            }
        });
        let read_us = median_us(|| {
            (0..elems)
                .map(|i| g.read_float(jacobi::entries::G0, i).expect("in range"))
                .sum::<f64>()
        });
        put("core.gthv_write_ns", write_us * 1e3 / elems as f64);
        put("core.gthv_read_ns", read_us * 1e3 / elems as f64);
    });

    tracer.scope("micro.run_plan", |_| {
        put(
            "tags.run_memcpy_us",
            run_plan_us(ScalarClass::Float, 8, 8, Endianness::Little),
        );
        put(
            "tags.run_swap_us",
            run_plan_us(ScalarClass::Float, 8, 8, Endianness::Big),
        );
        // `long` from linux_x86 (4 bytes) to solaris_sparc64 (8 bytes).
        put(
            "tags.run_resize_us",
            run_plan_us(ScalarClass::Signed, 4, 8, Endianness::Big),
        );
        const LOWERS: u32 = 1000;
        let lower_us = median_us(|| {
            for i in 0..LOWERS {
                black_box(RunPlan::lower(
                    ScalarClass::Float,
                    black_box(8),
                    Endianness::Little,
                    black_box(8 - (i & 1) * 4),
                    Endianness::Big,
                ));
            }
        });
        put("tags.plan_lower_us", lower_us / f64::from(LOWERS));
    });

    let (lock_us, barrier_us) = tracer.scope("micro.rtt", |_| run_rtt(RTT_OPS))?;
    put("core.lock_rtt_us", median(&lock_us));
    put("core.barrier_rtt_us", median(&barrier_us));

    tracer.scope("micro.send_recv_small", |_| {
        let (_net, eps) = Network::new(2, NetConfig::instant());
        let payload = Bytes::from(vec![0x5a_u8; 32]);
        let samples: Vec<f64> = (0..RTT_OPS)
            .map(|_| {
                let t0 = Instant::now();
                eps[0]
                    .send(1, MsgKind::Ack, payload.clone())
                    .expect("endpoint 1 exists");
                black_box(eps[1].recv().expect("message queued"));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        put("net.send_recv_small_us", median(&samples));
    });

    let wall = tracer.scope("micro.threads_wall", |_| {
        threads_wall_s(sz, seed, threads_reps)
    })?;
    put("net.threads_wall_s", wall);

    tracer.scope("micro.migthread", |_| {
        // `matmul`'s start state plus one 64 KiB heap block of ints.
        let heap = || CType::array(CType::Scalar(ScalarKind::Int), 16 * 1024);
        let mut state = matmul::start_state(&x86, sz.n, block_rows(sz.n, 1, 3));
        state.push_block("heap", TypedBlock::zeroed(heap(), x86.clone()));
        let mut declared = matmul::declared_state(&sparc);
        declared.push_block("heap", TypedBlock::zeroed(heap(), sparc.clone()));
        let image = pack_state(&state);
        put("migthread.image_bytes", image.bytes.len() as f64);
        put("migthread.pack_us", median_us(|| pack_state(&state)));
        put(
            "migthread.unpack_hetero_us",
            median_us(|| unpack_state(&image, &sparc, &declared).expect("image restores")),
        );
    });
    Ok(out)
}
