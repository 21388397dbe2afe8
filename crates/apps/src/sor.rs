//! Red-black successive over-relaxation (SOR) — the second stencil
//! extension. The red/black colouring makes each half-sweep's writes
//! *strided* (every other element), a deliberately diff-hostile pattern:
//! a half-sweep's write set is one span per element, and no layer can
//! merge across the untouched black (or red) elements. Together
//! with Jacobi's contiguous stripes this brackets the update-shape
//! spectrum for the benchmarks.

use crate::workload::{block_rows, close_to};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::WorkerInfo;
use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;

/// Entry ids.
pub mod entries {
    /// `double grid[n*n]` (updated in place).
    pub const G: u32 = 0;
    /// `int n`.
    pub const N: u32 = 1;
}

/// Barrier ids.
pub mod barriers {
    use hdsm_core::BarrierId;
    /// Reused every half-sweep (red then black).
    pub const SWEEP: BarrierId = BarrierId::new(0);
}

/// Relaxation factor.
pub const OMEGA: f64 = 1.5;

/// Shared structure.
pub fn gthv_def(n: usize) -> GthvDef {
    GthvDef::new(
        StructBuilder::new("GThV_sor")
            .array("grid", ScalarKind::Double, n * n)
            .scalar("n", ScalarKind::Int)
            .build()
            .expect("sor struct"),
    )
    .expect("valid def")
}

/// The initial grid (same boundary scheme as Jacobi).
pub fn source_grid(n: usize, seed: u64) -> Vec<f64> {
    crate::jacobi::source_grid(n, seed)
}

/// Home-side initialisation.
pub fn init(g: &mut GthvInstance, n: usize, seed: u64) {
    g.write_floats(entries::G, 0, &source_grid(n, seed))
        .expect("init grid");
    g.write_int(entries::N, 0, n as i128).expect("init n");
}

fn relax(grid: &mut [f64], n: usize, i: usize, j: usize) {
    let stencil = 0.25
        * (grid[(i - 1) * n + j]
            + grid[(i + 1) * n + j]
            + grid[i * n + j - 1]
            + grid[i * n + j + 1]);
    grid[i * n + j] += OMEGA * (stencil - grid[i * n + j]);
}

/// Serial oracle: `sweeps` red-black SOR sweeps.
pub fn expected_grid(n: usize, seed: u64, sweeps: usize) -> Vec<f64> {
    let mut g = source_grid(n, seed);
    for _ in 0..sweeps {
        for colour in 0..2 {
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    if (i + j) % 2 == colour {
                        relax(&mut g, n, i, j);
                    }
                }
            }
        }
    }
    g
}

/// Verify the distributed result.
pub fn verify(g: &GthvInstance, n: usize, seed: u64, sweeps: usize) -> bool {
    close_to(g, entries::G, &expected_grid(n, seed, sweeps))
}

/// SPMD worker body: row blocks, one barrier per half-sweep (red then
/// black). Each row's three-row neighbourhood is read as runs; the stores
/// stay one strided element at a time — the update shape this kernel
/// exists to produce.
pub fn run_worker(
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
    sweeps: usize,
) -> Result<(), DsdError> {
    client.barrier(barriers::SWEEP)?;
    let rows = block_rows(n, info.index, info.n_workers);
    let interior = rows.start.max(1)..rows.end.min(n.saturating_sub(1));
    // Rows i-1, i, i+1 as read before row i's stores (which touch only
    // elements of `colour`, and no stencil reads its own colour).
    let mut near = vec![0.0f64; 3 * n];
    for _ in 0..sweeps {
        for colour in 0..2 {
            for i in interior.clone() {
                client.read_floats(entries::G, ((i - 1) * n) as u64, &mut near)?;
                let (up, rest) = near.split_at(n);
                let (mid, down) = rest.split_at(n);
                for j in (1..n - 1).filter(|j| (i + j) % 2 == colour) {
                    let stencil = 0.25 * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
                    let cur = mid[j];
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

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_core::cluster::ClusterBuilder;
    use hdsm_platform::spec::PlatformSpec;

    #[test]
    fn sor_converges_faster_than_jacobi() {
        // Sanity property of over-relaxation on the same problem: after
        // the same number of sweeps, SOR is closer to the steady state
        // than Jacobi for this boundary setup. We check residual decrease
        // rather than exact values.
        let n = 12;
        let seed = 3;
        let initial = source_grid(n, seed);
        let after = expected_grid(n, seed, 20);
        let resid = |g: &[f64]| {
            let mut r = 0.0f64;
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let s = 0.25
                        * (g[(i - 1) * n + j]
                            + g[(i + 1) * n + j]
                            + g[i * n + j - 1]
                            + g[i * n + j + 1]);
                    r += (s - g[i * n + j]).abs();
                }
            }
            r
        };
        assert!(resid(&after) < resid(&initial) * 0.5);
    }

    #[test]
    fn heterogeneous_sor_matches_serial() {
        let n = 10;
        let seed = 29;
        let sweeps = 4;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .barriers(1)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n, sweeps))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed, sweeps));
    }

    #[test]
    fn strided_writes_produce_more_updates_than_jacobi() {
        // The red-black pattern defeats coalescing: expect strictly more
        // update frames than the contiguous Jacobi stripes at equal size.
        let n = 12;
        let seed = 5;
        let sor_out = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .barriers(1)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n, 1))
            .unwrap();
        let jac_out = ClusterBuilder::new()
            .gthv(crate::jacobi::gthv_def(n))
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .barriers(1)
            .init(move |g| crate::jacobi::init(g, n, seed))
            .run(move |c, info| crate::jacobi::run_worker(c, info, n, 1))
            .unwrap();
        let sor_updates: u64 = sor_out.worker_costs.iter().map(|c| c.updates_sent).sum();
        let jac_updates: u64 = jac_out.worker_costs.iter().map(|c| c.updates_sent).sum();
        assert!(
            sor_updates > jac_updates,
            "red-black should fragment updates: {sor_updates} vs {jac_updates}"
        );
    }
}
