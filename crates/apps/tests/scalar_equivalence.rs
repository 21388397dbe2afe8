//! The kernels walk rows through the run accessors; the C originals (and
//! these kernels until they changed) made one accessor call per element.
//! A copy of each element-wise inner loop lives here, and on the sim
//! fabric — where a run is a pure function of its seed — both forms must
//! produce the same memory, the same updates and the same release
//! traffic, to the byte and to the count, and neither takes a fault. What else crosses
//! the wire follows what a worker *reads*, call by call, and there the two
//! forms differ by a known amount, pinned in [`scalar_costs`]: the same
//! messages and the same bytes back where nothing is fetched, a fetch a
//! call where the scalar loop walks a range it was only sent a notice for.

use hdsm_apps::workload::{block_rows, SyncMode};
use hdsm_apps::{jacobi, lu, matmul, sor, Kernel};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::{ClusterBuilder, ClusterOutcome, TopologyConfig, WorkerInfo};
use hdsm_net::FabricMode;
use hdsm_platform::spec::PlatformSpec;

const SEED: u64 = 0x5CA1A4;

fn jacobi_scalar(
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
    sweeps: usize,
) -> Result<(), DsdError> {
    use jacobi::{barriers, entries};
    client.barrier(barriers::SWEEP)?;
    let rows = block_rows(n, info.index, info.n_workers);
    for sweep in 0..sweeps {
        let (src, dst) = if sweep % 2 == 0 {
            (entries::G0, entries::G1)
        } else {
            (entries::G1, entries::G0)
        };
        for i in rows.clone() {
            if i == 0 || i == n - 1 {
                continue;
            }
            for j in 1..n - 1 {
                let v = 0.25
                    * (client.read_float(src, ((i - 1) * n + j) as u64)?
                        + client.read_float(src, ((i + 1) * n + j) as u64)?
                        + client.read_float(src, (i * n + j - 1) as u64)?
                        + client.read_float(src, (i * n + j + 1) as u64)?);
                client.write_float(dst, (i * n + j) as u64, v)?;
            }
        }
        client.barrier(barriers::SWEEP)?;
    }
    Ok(())
}

fn sor_scalar(
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
    sweeps: usize,
) -> Result<(), DsdError> {
    use sor::{barriers, entries, OMEGA};
    client.barrier(barriers::SWEEP)?;
    let rows = block_rows(n, info.index, info.n_workers);
    for _ in 0..sweeps {
        for colour in 0..2 {
            for i in rows.clone() {
                if i == 0 || i == n - 1 {
                    continue;
                }
                for j in 1..n - 1 {
                    if (i + j) % 2 != colour {
                        continue;
                    }
                    let stencil = 0.25
                        * (client.read_float(entries::G, ((i - 1) * n + j) as u64)?
                            + client.read_float(entries::G, ((i + 1) * n + j) as u64)?
                            + client.read_float(entries::G, (i * n + j - 1) as u64)?
                            + client.read_float(entries::G, (i * n + j + 1) as u64)?);
                    let cur = client.read_float(entries::G, (i * n + j) as u64)?;
                    client.write_float(
                        entries::G,
                        (i * n + j) as u64,
                        cur + OMEGA * (stencil - cur),
                    )?;
                }
            }
            client.barrier(barriers::SWEEP)?;
        }
    }
    Ok(())
}

fn matmul_scalar(
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
    mode: SyncMode,
) -> Result<(), DsdError> {
    use matmul::{barriers, entries, locks};
    client.barrier(barriers::START)?;
    debug_assert_eq!(client.read_int(entries::N, 0)? as usize, n);
    let rows = block_rows(n, info.index, info.n_workers);
    let mut b = Vec::with_capacity(n * n);
    for i in 0..(n * n) as u64 {
        b.push(client.read_int(entries::B, i)? as i64);
    }
    let mut block: Vec<(u64, i64)> = Vec::new();
    for i in rows {
        let mut a_row = Vec::with_capacity(n);
        for k in 0..n {
            a_row.push(client.read_int(entries::A, (i * n + k) as u64)? as i64);
        }
        for j in 0..n {
            let mut acc = 0i64;
            for k in 0..n {
                acc += a_row[k] * b[k * n + j];
            }
            match mode {
                SyncMode::Barrier => {
                    client.write_int(entries::C, (i * n + j) as u64, i128::from(acc))?
                }
                SyncMode::Lock => block.push(((i * n + j) as u64, acc)),
            }
        }
    }
    if mode == SyncMode::Lock {
        let mut c = client.lock(locks::C)?;
        for (idx, v) in block {
            c.write_int(entries::C, idx, i128::from(v))?;
        }
        c.unlock()?;
    }
    client.barrier(barriers::END)
}

fn lu_scalar(client: &mut DsdClient, info: &WorkerInfo, n: usize) -> Result<(), DsdError> {
    use lu::{barriers, entries};
    client.barrier(barriers::STEP)?;
    debug_assert_eq!(client.read_int(entries::N, 0)? as usize, n);
    for k in 0..n.saturating_sub(1) {
        let pivot = client.read_float(entries::M, (k * n + k) as u64)?;
        let mut pivot_row = Vec::with_capacity(n - k);
        for j in k..n {
            pivot_row.push(client.read_float(entries::M, (k * n + j) as u64)?);
        }
        for i in (k + 1)..n {
            if i % info.n_workers != info.index {
                continue;
            }
            let factor = client.read_float(entries::M, (i * n + k) as u64)? / pivot;
            client.write_float(entries::M, (i * n + k) as u64, factor)?;
            for j in (k + 1)..n {
                let cur = client.read_float(entries::M, (i * n + j) as u64)?;
                client.write_float(
                    entries::M,
                    (i * n + j) as u64,
                    cur - factor * pivot_row[j - k],
                )?;
            }
        }
        client.barrier(barriers::STEP)?;
    }
    Ok(())
}

/// The element-wise copy of `kernel`'s body.
fn scalar_worker(
    kernel: Kernel,
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
) -> Result<(), DsdError> {
    match kernel {
        Kernel::Jacobi { sweeps } => jacobi_scalar(client, info, n, sweeps),
        Kernel::Sor { sweeps } => sor_scalar(client, info, n, sweeps),
        Kernel::Matmul(mode) => matmul_scalar(client, info, n, mode),
        Kernel::Lu => lu_scalar(client, info, n),
    }
}

/// Everything the two forms of a kernel are compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    final_bytes: Vec<u8>,
    updates_sent: u64,
    /// Updates and payload bytes the workers' releases shipped, as the
    /// home counted them in.
    released: (u64, u64),
    /// Write faults per worker, read off its address space when it is done:
    /// none, since a client records its stores and never arms its copy.
    faults: Vec<u64>,
    /// Messages, wire bytes worker → home (the home is endpoint 0) and
    /// wire bytes home → worker.
    traffic: (u64, u64, u64),
}

/// What the scalar form of `kernel` puts on the wire over the run form:
/// messages, bytes worker → home, bytes home → worker. A fetch is two
/// messages; an interest report is its spans behind a request; and a
/// barrier release names what its worker ships, the union of the other
/// workers' interest spans. A span is a row of three varints — entry,
/// first element, count — one byte a field below 128 and two up to
/// 16 383, so 3 to 5 bytes a row at these sizes; a request id, echoed by
/// its reply, takes a second byte from 128 on.
fn scalar_costs(kernel: Kernel, n: usize) -> (u64, u64, u64) {
    match (kernel, n) {
        // Nothing fetched. A row run takes in the two edge columns of a
        // neighbour's boundary row, which the stencil never loads, and so
        // joins that row to the worker's own stripe: the scalar form's
        // interest in a grid is three spans, not one. Over the three
        // workers they take 9, 10 and 12 bytes at n = 16 against the run
        // form's 3, 3 and 4 (11, 13 and 13 against 4, 5 and 5 at n = 33):
        // 42 (46) bytes more over the two grids. A release's ship lists
        // name the union of two such sets: 3 + 6 + 3 rows over the three
        // workers in 43 (48) bytes, against 1 + 2 + 1 in 15 (18). Five
        // releases come after a grid was read (G0 after each of the three
        // sweeps, G1 after the last two), 28 (30) bytes more each.
        (Kernel::Jacobi { .. }, 16) => (0, 42, 5 * 28),
        (Kernel::Jacobi { .. }, 33) => (0, 46, 5 * 30),
        (Kernel::Matmul(_), _) => (0, 0, 0),
        // The first half-sweep loads one colour of a neighbour's boundary
        // row, so the other colour — rewritten in that half-sweep — comes
        // as notices between the elements read, and the second half-sweep
        // loads it: 28 (62) one-element fetches, once, each a one-row
        // `RangeFetch` of about 11 (13) bytes and a reply of about 17 (one
        // double in a frame of 7 or 8): 310 + 462 bytes (793 + 1 054). From
        // then on the whole row is interest, as it is from the run form's
        // first read. The ship lists follow the interest: after the first
        // half-sweep each boundary row read is one span an element (7 a row
        // at n = 16, 15 or 16 at n = 33), and at n = 33 no two rows of a
        // stripe meet — 19 + 34 + 20 (53 + 82 + 53) rows against 4 —
        // then five releases as Jacobi's. Behind the barrier entries that
        // is 219 (579) report bytes more, and in the releases 171 (395)
        // bytes of ship rows more. The run form's first releases carry the
        // fetched colour of each boundary row as one strided row, where a
        // row of two (two or three) bytes an element stood before: the
        // scalar form's one-element replies fold nothing, 56 (170) bytes
        // more.
        (Kernel::Sor { .. }, 16) => (2 * 28, 310 + 219, 462 + 171 + 56),
        (Kernel::Sor { .. }, 33) => (2 * 62, 793 + 579, 1_054 + 395 + 170),
        // Every step reads the pivot row, which another worker rewrote the
        // step before and holds: one fetch for the run form, one an
        // element for the scalar loop (ROADMAP item 10). The first fetch
        // of the row asks its writer for the whole held span, for both
        // forms alike. The scalar form's 210 (992) fetches more cost
        // 2 002 (11 263) request bytes, and their replies 1 736 (9 453)
        // bytes of envelopes and frames more: the payload is the run
        // form's. At n = 33 the fetches take each worker's request ids past
        // 128 early, so its later barrier entries and its join carry 80
        // bytes more, and the releases and the shutdown echoing them 78.
        (Kernel::Lu, 16) => (2 * 210, 2_002, 1_736),
        (Kernel::Lu, 33) => (2 * 992, 11_263 + 80, 9_453 + 78),
        _ => unreachable!("sizes of the test below"),
    }
}

/// Run `kernel` at size `n` — its library `run_worker`, or the scalar copy
/// above — on a heterogeneous three-worker cluster and a fixed sim seed.
fn observe(kernel: Kernel, n: usize, scalar: bool) -> Observed {
    let b = ClusterBuilder::new()
        .home(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 0xFAB },
            ..Default::default()
        });
    let outcome: ClusterOutcome<u64> = kernel
        .setup(b, n, SEED)
        .run(move |c, info| {
            if scalar {
                scalar_worker(kernel, c, info, n)
            } else {
                kernel.run_worker(c, info, n)
            }?;
            Ok(c.gthv().space().stats().faults)
        })
        .expect("cluster run");
    let verified = kernel.verify(&outcome.final_gthv, n, SEED);
    assert!(verified, "{kernel:?} n={n} scalar={scalar} must verify");
    let to_home = outcome.net_stats.dest_traffic(0).bytes;
    Observed {
        final_bytes: outcome.final_gthv.space().raw().to_vec(),
        updates_sent: outcome.worker_costs.iter().map(|c| c.updates_sent).sum(),
        released: (
            outcome.home_costs.updates_applied,
            outcome.home_costs.bytes_applied,
        ),
        faults: outcome.results,
        traffic: (
            outcome.net_stats.total_messages(),
            to_home,
            outcome.net_stats.total_bytes() - to_home,
        ),
    }
}

#[test]
fn row_run_kernels_equal_their_scalar_originals() {
    let kernels = [
        Kernel::Jacobi { sweeps: 3 },
        Kernel::Sor { sweeps: 3 },
        Kernel::Matmul(SyncMode::Barrier),
        Kernel::Matmul(SyncMode::Lock),
        Kernel::Lu,
    ];
    // 16: rows divide the page; 33: a row (264 or 132 bytes) never does,
    // so runs straddle pages at every offset.
    for n in [16, 33] {
        for kernel in kernels {
            let (mut runs, scalar) = (observe(kernel, n, false), observe(kernel, n, true));
            assert!(runs.updates_sent > 0 && runs.faults.iter().all(|f| *f == 0));
            let (msgs, to_home, from_home) = scalar_costs(kernel, n);
            runs.traffic.0 += msgs;
            runs.traffic.1 += to_home;
            runs.traffic.2 += from_home;
            assert_eq!(runs, scalar, "{kernel:?} at n = {n}");
        }
    }
}
