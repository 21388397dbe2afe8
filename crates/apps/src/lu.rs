//! Distributed LU decomposition — the paper's second workload.
//!
//! In-place Doolittle elimination without pivoting on a diagonally
//! dominant matrix (so no pivoting is needed), rows distributed cyclically
//! across workers, one barrier per elimination step. Each step rewrites
//! the whole trailing submatrix, which is why the paper observes that
//! "the LU-decomposition example transfers more data per update than the
//! matrix multiplication example" (§5, Figures 10 vs 11).

use crate::workload::{close_to, det_f64};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::WorkerInfo;
use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;

/// Entry ids of the LU structure.
pub mod entries {
    /// `double M[n*n]` — factorised in place.
    pub const M: u32 = 0;
    /// `int n`.
    pub const N: u32 = 1;
}

/// Barrier ids.
pub mod barriers {
    use hdsm_core::BarrierId;
    /// Reused every elimination step (and once up front).
    pub const STEP: BarrierId = BarrierId::new(0);
}

/// Shared structure: `struct { double M[n*n]; int n; }`.
pub fn gthv_def(n: usize) -> GthvDef {
    GthvDef::new(
        StructBuilder::new("GThV_lu")
            .array("M", ScalarKind::Double, n * n)
            .scalar("n", ScalarKind::Int)
            .build()
            .expect("lu struct"),
    )
    .expect("valid def")
}

/// Deterministic diagonally dominant matrix.
pub fn source_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = det_f64(seed, (i * n + j) as u64);
        }
        // Dominant diagonal keeps elimination stable without pivoting.
        m[i * n + i] = n as f64 + det_f64(seed ^ 0xF00D, i as u64).abs();
    }
    m
}

/// Home-side initialisation.
pub fn init(g: &mut GthvInstance, n: usize, seed: u64) {
    g.write_floats(entries::M, 0, &source_matrix(n, seed))
        .expect("init M");
    g.write_int(entries::N, 0, n as i128).expect("init n");
}

/// Serial oracle: in-place Doolittle elimination.
pub fn expected_lu(n: usize, seed: u64) -> Vec<f64> {
    let mut m = source_matrix(n, seed);
    for k in 0..n.saturating_sub(1) {
        let pivot = m[k * n + k];
        for i in (k + 1)..n {
            let factor = m[i * n + k] / pivot;
            m[i * n + k] = factor;
            for j in (k + 1)..n {
                m[i * n + j] -= factor * m[k * n + j];
            }
        }
    }
    m
}

/// Verify the distributed result against the oracle within a tolerance.
pub fn verify(g: &GthvInstance, n: usize, seed: u64) -> bool {
    close_to(g, entries::M, &expected_lu(n, seed))
}

/// SPMD worker body: cyclic row distribution, one barrier per step.
///
/// Step `k`: every worker that owns rows below `k` eliminates them against
/// row `k`, then everyone synchronizes so the next pivot row is visible
/// everywhere. Barrier index 0 is reused every iteration (barrier state
/// resets after each release).
pub fn run_worker(client: &mut DsdClient, info: &WorkerInfo, n: usize) -> Result<(), DsdError> {
    // Opening barrier pulls the initial matrix.
    client.barrier(barriers::STEP)?;
    debug_assert_eq!(client.read_int(entries::N, 0)? as usize, n);
    // Columns k.. of the pivot row and of the row being eliminated, as
    // local views allocated once and used at their first n - k elements.
    let (mut pivot_buf, mut row_buf) = (vec![0.0f64; n], vec![0.0f64; n]);
    for k in 0..n.saturating_sub(1) {
        let (pivot_row, row) = (&mut pivot_buf[..n - k], &mut row_buf[..n - k]);
        // Pivot row snapshot (local reads).
        client.read_floats(entries::M, (k * n + k) as u64, pivot_row)?;
        let pivot = pivot_row[0];
        for i in (k + 1)..n {
            if i % info.n_workers != info.index {
                continue; // cyclic ownership
            }
            client.read_floats(entries::M, (i * n + k) as u64, row)?;
            let factor = row[0] / pivot;
            row[0] = factor;
            for (cur, p) in row[1..].iter_mut().zip(&pivot_row[1..]) {
                *cur -= factor * p;
            }
            client.write_floats(entries::M, (i * n + k) as u64, row)?;
        }
        client.barrier(barriers::STEP)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_core::cluster::ClusterBuilder;
    use hdsm_platform::spec::PlatformSpec;

    #[test]
    fn oracle_reconstructs_source() {
        // L * U must reproduce the source matrix.
        let n = 8;
        let seed = 11;
        let lu = expected_lu(n, seed);
        let src = source_matrix(n, seed);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    let u = lu[k * n + j];
                    if k <= j && k < i {
                        acc += lu[i * n + k] * u;
                    } else if k == i && k <= j {
                        acc += l * u;
                    }
                }
                assert!(
                    (acc - src[i * n + j]).abs() < 1e-9,
                    "L*U mismatch at ({i},{j}): {acc} vs {}",
                    src[i * n + j]
                );
            }
        }
    }

    #[test]
    fn heterogeneous_lu_is_correct() {
        let n = 16;
        let seed = 21;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .barriers(1)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed));
        assert!(outcome.home_conv.scalars_converted > 0);
    }

    #[test]
    fn three_workers_mixed_platforms() {
        let n = 12;
        let seed = 31;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::solaris_sparc64())
            .barriers(1)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed));
    }

    #[test]
    fn lu_ships_more_bytes_than_matmul_at_same_size() {
        // The §5 observation that motivates Figure 11 vs Figure 10.
        let n = 16;
        let seed = 1;
        let lu_out = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .barriers(1)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n))
            .unwrap();
        let mm_out = ClusterBuilder::new()
            .gthv(crate::matmul::gthv_def(n))
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .barriers(2)
            .init(move |g| crate::matmul::init(g, n, seed))
            .run(move |c, info| {
                crate::matmul::run_worker(c, info, n, crate::workload::SyncMode::Barrier)
            })
            .unwrap();
        // Update payload applied anywhere, at the home (what the releases
        // ship: LU rewrites the trailing submatrix every step) and at the
        // workers (what comes back: the rows a worker reads — the pivot
        // rows, little over the initial pull, where matmul's three matrices
        // against LU's one make the workers' side alone the smaller of the
        // two, 5 056 B vs 7 184 B).
        let moved = |o: &hdsm_core::cluster::ClusterOutcome<()>| {
            let at_workers: u64 = o.worker_costs.iter().map(|c| c.bytes_applied).sum();
            o.home_costs.bytes_applied + at_workers
        };
        let (lu_bytes, mm_bytes) = (moved(&lu_out), moved(&mm_out));
        assert!(lu_out.home_costs.bytes_applied > mm_out.home_costs.bytes_applied);
        assert!(
            lu_bytes > mm_bytes,
            "LU should move more update data: {lu_bytes} vs {mm_bytes}"
        );
    }
}
