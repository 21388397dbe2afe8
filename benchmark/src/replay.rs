//! Stage replay: worker 1's writes of one interval, then the release to
//! acquire pipeline one public function at a time, each a stage span.
//!
//! The cluster accounts for these calls only as the five Eq. 1 sums; the
//! replay times each call on the same data shape, from outside. It runs
//! unpinned, because `diff_pages_parallel` is one of the calls.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{lock_op, Kernel, Sizes, Workload};
use hdsm_apps::workload::block_rows;
use hdsm_apps::{jacobi, sor};
use hdsm_core::protocol::DsdMsg;
use hdsm_core::runs::{coalesce, map_runs};
use hdsm_core::update::{apply_batch, extract_updates};
use hdsm_core::GthvInstance;
use hdsm_memory::diff::{default_diff_threads, diff_pages, diff_pages_parallel, total_bytes};
use hdsm_net::{NetConfig, Network};
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::ConversionStats;
use hdsm_tags::wire::{pack_batch_fast, unpack_batch};

/// Repetitions of the interval; the median of each stage is reported.
pub const REPS: usize = 21;

/// The stage spans of one interval, in pipeline order. Each is reported
/// as the per-layer metric `<name>_us`.
pub const STAGES: [&str; 13] = [
    "memory.write_fault",
    "memory.diff_scan",
    "memory.diff_scan_par",
    "core.map_runs",
    "core.coalesce",
    "core.extract",
    "tags.pack",
    "tags.unpack",
    "core.apply_homog",
    "core.apply_hetero",
    "core.proto_encode",
    "core.proto_decode",
    "net.send_recv",
];

/// One store of the interval: entry, element, value. Every workload's
/// interval happens to write doubles only.
type Write = (u32, u64, f64);

/// What worker 1 writes between two sync ops: one Jacobi sweep of its
/// row stripe, one red half-sweep of SOR, or one lock op.
fn interval_writes(w: &Workload, sz: &Sizes, seed: u64, base: &GthvInstance) -> Vec<Write> {
    let n = sz.n;
    let interior = |rows: std::ops::Range<usize>| rows.filter(move |i| *i != 0 && *i != n - 1);
    let stencil = |g: &[f64], i: usize, j: usize| {
        0.25 * (g[(i - 1) * n + j] + g[(i + 1) * n + j] + g[i * n + j - 1] + g[i * n + j + 1])
    };
    match w.kernel {
        Kernel::Jacobi => {
            let src = jacobi::source_grid(n, seed);
            interior(block_rows(n, 1, w.workers.len()))
                .flat_map(|i| (1..n - 1).map(move |j| (i, j)))
                .map(|(i, j)| (jacobi::entries::G1, (i * n + j) as u64, stencil(&src, i, j)))
                .collect()
        }
        Kernel::Sor => {
            let src = sor::source_grid(n, seed);
            interior(block_rows(n, 1, w.workers.len()))
                .flat_map(|i| (1..n - 1).map(move |j| (i, j)))
                .filter(|(i, j)| (i + j) % 2 == 0)
                .map(|(i, j)| {
                    let cur = src[i * n + j];
                    let v = cur + sor::OMEGA * (stencil(&src, i, j) - cur);
                    (sor::entries::G, (i * n + j) as u64, v)
                })
                .collect()
        }
        Kernel::Lock => {
            let (_, entry, slot) = lock_op(1, 0);
            let cur = base.read_float(entry, slot).expect("lock slot readable");
            vec![(entry, slot, cur + 1.0)]
        }
    }
}

fn opposite(p: &Platform) -> Platform {
    if p.name == PlatformSpec::linux_x86().name {
        PlatformSpec::solaris_sparc()
    } else {
        PlatformSpec::linux_x86()
    }
}

/// Replay the interval [`REPS`] times under `tracer` and return the `R`
/// per-layer metrics. An `Err` means a check failed: the parallel scan
/// disagreed with the serial one, or a receiver did not read back the
/// sender's values.
pub fn run(
    w: &Workload,
    sz: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<(String, f64)>, String> {
    let sender_platform = w.workers[1].clone();
    let mut sender = GthvInstance::new(w.def(sz), sender_platform.clone());
    w.init(&mut sender, sz, seed);
    let pristine = sender.space().raw().to_vec();
    let writes = interval_writes(w, sz, seed, &sender);

    // The receivers hold the state the interval starts from, as every
    // node of a cluster does: a store that leaves a byte as it was is
    // not in the diff, and must not be missed on the other side.
    let mut homog = GthvInstance::new(w.def(sz), sender_platform.clone());
    let mut hetero = GthvInstance::new(w.def(sz), opposite(&sender_platform));
    w.init(&mut homog, sz, seed);
    w.init(&mut hetero, sz, seed);
    let (_net, eps) = Network::new(2, NetConfig::instant());
    let mut counts = Vec::new();

    for rep in 0..REPS {
        // Back to the state the interval starts from: the bytes of the
        // initialised structure, no twins, every page protected.
        let base = sender.space().base();
        sender
            .space_mut()
            .write_untracked(base, &pristine)
            .map_err(|e| e.to_string())?;
        sender.space_mut().reset_and_protect();

        let mut conv = ConversionStats::default();
        let interval = tracer.enter("interval");
        tracer.stage(STAGES[0], || {
            for (entry, elem, v) in &writes {
                sender
                    .write_float(*entry, *elem, *v)
                    .expect("interval write");
            }
        });
        let runs = tracer.stage(STAGES[1], || diff_pages(sender.space()));
        let runs_par = tracer.stage(STAGES[2], || {
            diff_pages_parallel(sender.space(), default_diff_threads())
        });
        let n_runs = runs.len();
        let mapped = tracer.stage(STAGES[3], || map_runs(sender.table(), &runs));
        let ranges = tracer.stage(STAGES[4], || coalesce(mapped));
        let ups = tracer
            .stage(STAGES[5], || extract_updates(&sender, &ranges))
            .map_err(|e| e.to_string())?;
        let frame = tracer.stage(STAGES[6], || pack_batch_fast(&ups));
        let got = tracer
            .stage(STAGES[7], || unpack_batch(frame.clone()))
            .map_err(|e| e.to_string())?;
        tracer
            .stage(STAGES[8], || apply_batch(&mut homog, &got, &mut conv))
            .map_err(|e| e.to_string())?;
        tracer
            .stage(STAGES[9], || apply_batch(&mut hetero, &got, &mut conv))
            .map_err(|e| e.to_string())?;
        let data_bytes: usize = ups.iter().map(|u| u.data.len()).sum();
        let n_ups = ups.len();
        // The frame the release carries: an unlock on the lock kernel, a
        // barrier entry on the stencils, in the batch format clusters use.
        // The message goes out of the stage with its frame, so that
        // dropping the batch is not timed as encoding.
        let (msg, payload) = tracer.stage(STAGES[10], || {
            let msg = if w.kernel == Kernel::Lock {
                DsdMsg::UnlockRequest {
                    lock: lock_op(1, 0).0,
                    rank: 2,
                    updates: ups,
                }
            } else {
                DsdMsg::BarrierEnter {
                    barrier: 0,
                    rank: 2,
                    updates: ups,
                }
            };
            let payload = msg.encode_enveloped_mode(1, true);
            (msg, payload)
        });
        let kind = msg.kind();
        let decoded = tracer
            .stage(STAGES[11], || {
                DsdMsg::decode_enveloped(kind, payload.clone())
            })
            .map_err(|e| e.to_string())?;
        let received = tracer
            .stage(STAGES[12], || {
                eps[0].send(1, kind, payload.clone())?;
                eps[1].recv()
            })
            .map_err(|e| e.to_string())?;
        tracer.exit_at_last_stage(interval);

        if runs_par != runs {
            return Err("parallel diff scan disagrees with the serial scan".to_string());
        }
        if received.payload != payload || decoded.0 != 1 {
            return Err("release frame changed in transit".to_string());
        }
        for (label, receiver) in [("same-platform", &homog), ("opposite-platform", &hetero)] {
            for (entry, elem, v) in &writes {
                if receiver.read_float(*entry, *elem) != Ok(*v) {
                    return Err(format!(
                        "{label} receiver does not read back entry {entry} element {elem}"
                    ));
                }
            }
        }
        if rep == 0 {
            counts = vec![
                ("memory.dirty_pages", sender.space().dirty_count() as f64),
                ("memory.diff_runs", n_runs as f64),
                ("memory.dirty_bytes", total_bytes(&runs) as f64),
                ("core.coalesce_ratio", n_ups as f64 / n_runs as f64),
                ("tags.packed_bytes", frame.len() as f64),
                (
                    "tags.wire_efficiency",
                    data_bytes as f64 / frame.len() as f64,
                ),
            ];
        }
    }

    let mut out: Vec<(String, f64)> = STAGES
        .iter()
        .map(|s| (format!("{s}_us"), median(&tracer.durations_us(s))))
        .collect();
    out.extend(counts.into_iter().map(|(k, v)| (k.to_string(), v)));
    Ok(out)
}
