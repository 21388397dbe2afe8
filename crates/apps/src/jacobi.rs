//! Jacobi 2-D stencil — a classic DSM benchmark extending the paper's
//! suite. Two grids (read/write) swap roles each sweep; one barrier per
//! sweep propagates each worker's row block. Updates are contiguous row
//! stripes, a friendly case for the consecutive-element coalescing.

use crate::workload::{block_rows, close_to, det_f64};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::WorkerInfo;
use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;

/// Entry ids.
pub mod entries {
    /// `double grid0[n*n]`.
    pub const G0: u32 = 0;
    /// `double grid1[n*n]`.
    pub const G1: u32 = 1;
    /// `int n`.
    pub const N: u32 = 2;
}

/// Barrier ids.
pub mod barriers {
    use hdsm_core::BarrierId;
    /// Reused every sweep: propagates each worker's row block.
    pub const SWEEP: BarrierId = BarrierId::new(0);
}

/// Shared structure: two grids plus the dimension.
pub fn gthv_def(n: usize) -> GthvDef {
    GthvDef::new(
        StructBuilder::new("GThV_jacobi")
            .array("grid0", ScalarKind::Double, n * n)
            .array("grid1", ScalarKind::Double, n * n)
            .scalar("n", ScalarKind::Int)
            .build()
            .expect("jacobi struct"),
    )
    .expect("valid def")
}

/// Home-side initialisation: deterministic interior, fixed hot boundary.
pub fn init(g: &mut GthvInstance, n: usize, seed: u64) {
    write_source(g, &[entries::G0, entries::G1], n, seed);
    g.write_int(entries::N, 0, n as i128).expect("init n");
}

/// The initial grid.
pub fn source_grid(n: usize, seed: u64) -> Vec<f64> {
    (0..n * n).map(|e| source_at(n, seed, e)).collect()
}

/// Element `e` of the initial grid.
fn source_at(n: usize, seed: u64, e: usize) -> f64 {
    let (i, j) = (e / n, e % n);
    if i == 0 {
        100.0 // hot top edge
    } else if i == n - 1 || j == 0 || j == n - 1 {
        0.0
    } else {
        det_f64(seed, e as u64).abs() * 10.0
    }
}

/// Write the initial grid into each of the entries `grids`, a row at a
/// time: a set-up builds no grid-sized copy beside the ones it fills.
pub(crate) fn write_source(g: &mut GthvInstance, grids: &[u32], n: usize, seed: u64) {
    for row in (0..n * n).step_by(n) {
        let values: Vec<f64> = (row..row + n).map(|e| source_at(n, seed, e)).collect();
        for &entry in grids {
            g.write_floats(entry, row as u64, &values)
                .expect("init grid");
        }
    }
}

/// Serial oracle: `sweeps` Jacobi iterations.
pub fn expected_grid(n: usize, seed: u64, sweeps: usize) -> Vec<f64> {
    let mut cur = source_grid(n, seed);
    let mut next = cur.clone();
    for _ in 0..sweeps {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                next[i * n + j] = 0.25
                    * (cur[(i - 1) * n + j]
                        + cur[(i + 1) * n + j]
                        + cur[i * n + j - 1]
                        + cur[i * n + j + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Verify the distributed result after `sweeps` iterations.
pub fn verify(g: &GthvInstance, n: usize, seed: u64, sweeps: usize) -> bool {
    let want = expected_grid(n, seed, sweeps);
    // Result grid alternates with sweep parity.
    let entry = if sweeps.is_multiple_of(2) {
        entries::G0
    } else {
        entries::G1
    };
    close_to(g, entry, &want)
}

/// SPMD worker body.
pub fn run_worker(
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
    sweeps: usize,
) -> Result<(), DsdError> {
    client.barrier(barriers::SWEEP)?;
    let rows = block_rows(n, info.index, info.n_workers);
    let interior = rows.start.max(1)..rows.end.min(n.saturating_sub(1));
    // The window of source rows i-1, i, i+1 and the interior of output
    // row i: local views of the shared grids, allocated once.
    let (mut up, mut mid, mut down) = (vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]);
    let mut out = vec![0.0f64; n.saturating_sub(2)];
    for sweep in 0..sweeps {
        let (src, dst) = if sweep % 2 == 0 {
            (entries::G0, entries::G1)
        } else {
            (entries::G1, entries::G0)
        };
        if !interior.is_empty() {
            client.read_floats(src, ((interior.start - 1) * n) as u64, &mut mid)?;
            client.read_floats(src, (interior.start * n) as u64, &mut down)?;
        }
        for i in interior.clone() {
            // Slide the window down one row; nothing writes `src` in a sweep.
            std::mem::swap(&mut up, &mut mid);
            std::mem::swap(&mut mid, &mut down);
            client.read_floats(src, ((i + 1) * n) as u64, &mut down)?;
            for (j, v) in out.iter_mut().enumerate() {
                *v = 0.25 * (up[j + 1] + down[j + 1] + mid[j] + mid[j + 2]);
            }
            client.write_floats(dst, (i * n + 1) as u64, &out)?;
        }
        client.barrier(barriers::SWEEP)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_core::cluster::ClusterBuilder;
    use hdsm_platform::spec::PlatformSpec;

    #[test]
    fn serial_oracle_is_stable() {
        let n = 8;
        let g = expected_grid(n, 3, 10);
        // Boundary unchanged.
        assert_eq!(g[1], 100.0);
        assert_eq!(g[(n - 1) * n + 3], 0.0);
        // Interior bounded by boundary values.
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                assert!(g[i * n + j] >= 0.0 && g[i * n + j] <= 100.0);
            }
        }
    }

    #[test]
    fn heterogeneous_jacobi_matches_serial() {
        let n = 12;
        let seed = 17;
        let sweeps = 5;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .barriers(1)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n, sweeps))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed, sweeps));
    }

    #[test]
    fn even_and_odd_sweep_counts() {
        for sweeps in [2, 3] {
            let n = 10;
            let seed = 23;
            let outcome = ClusterBuilder::new()
                .gthv(gthv_def(n))
                .worker(PlatformSpec::solaris_sparc())
                .worker(PlatformSpec::solaris_sparc64())
                .barriers(1)
                .init(move |g| init(g, n, seed))
                .run(move |c, info| run_worker(c, info, n, sweeps))
                .unwrap();
            assert!(
                verify(&outcome.final_gthv, n, seed, sweeps),
                "sweeps={sweeps}"
            );
        }
    }
}
