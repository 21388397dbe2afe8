//! Distributed integer matrix multiplication — the paper's primary
//! evaluation workload (§5), whose shared structure is exactly Figure 4:
//!
//! ```c
//! struct GThV_t { void *GThP; int A[n*n]; int B[n*n]; int C[n*n]; int n; }
//! ```
//!
//! Workers compute disjoint row blocks of `C = A * B`. With
//! [`SyncMode::Barrier`] the initial matrices arrive at the opening
//! barrier and each worker's `C` rows ship at the closing barrier; with
//! [`SyncMode::Lock`] each worker additionally publishes its block under
//! the distributed mutex (more, smaller updates — the lock/unlock path of
//! Figure 5).
//!
//! Also provides [`MatmulComputation`], a migratable version run by
//! `hdsm_core::cluster::run_migrating`: one `C` row per adaptation
//! quantum.

use crate::workload::{block_rows, det_i32, SyncMode};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::WorkerInfo;
use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_migthread::compute::{Computation, ProgramRegistry, StepStatus};
use hdsm_migthread::packfmt::MigrateError;
use hdsm_migthread::state::{ThreadState, TypedBlock};
use hdsm_platform::ctype::{CType, StructBuilder};
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::Platform;
use hdsm_platform::value::Value;

/// Entry ids of the Figure 4 structure.
pub mod entries {
    /// `void *GThP`.
    pub const GTHP: u32 = 0;
    /// `int A[n*n]`.
    pub const A: u32 = 1;
    /// `int B[n*n]`.
    pub const B: u32 = 2;
    /// `int C[n*n]`.
    pub const C: u32 = 3;
    /// `int n`.
    pub const N: u32 = 4;
}

/// Barrier ids used by the barrier-mode worker.
pub mod barriers {
    use hdsm_core::BarrierId;
    /// Opening barrier (pulls the initial matrices).
    pub const START: BarrierId = BarrierId::new(0);
    /// Closing barrier (publishes and redistributes `C`).
    pub const END: BarrierId = BarrierId::new(1);
}

/// Mutex ids used by the lock-mode worker.
pub mod locks {
    use hdsm_core::LockId;
    /// Protects the shared accumulation into `C`.
    pub const C: LockId = LockId::new(0);
}

/// The Figure 4 shared structure for `n × n` matrices.
pub fn gthv_def(n: usize) -> GthvDef {
    GthvDef::new(
        StructBuilder::new("GThV_t")
            .scalar("GThP", ScalarKind::Ptr)
            .array("A", ScalarKind::Int, n * n)
            .array("B", ScalarKind::Int, n * n)
            .array("C", ScalarKind::Int, n * n)
            .scalar("n", ScalarKind::Int)
            .build()
            .expect("figure-4 struct"),
    )
    .expect("valid def")
}

/// Home-side initialisation: deterministic A and B, zero C, store `n`.
pub fn init(g: &mut GthvInstance, n: usize, seed: u64) {
    let matrix = |seed| -> Vec<i128> {
        (0..(n * n) as u64)
            .map(|i| i128::from(det_i32(seed, i)))
            .collect()
    };
    g.write_ints(entries::A, 0, &matrix(seed)).expect("init A");
    g.write_ints(entries::B, 0, &matrix(seed ^ 0xABCD))
        .expect("init B");
    g.write_int(entries::N, 0, n as i128).expect("init n");
    // GThP points at A, as in the paper's example structure.
    g.write_ptr(entries::GTHP, 0, Some((entries::A, 0)))
        .expect("init GThP");
}

/// Serial oracle: `C = A * B` over the same deterministic inputs.
pub fn expected_c(n: usize, seed: u64) -> Vec<i64> {
    let nn = n * n;
    let a: Vec<i64> = (0..nn as u64)
        .map(|i| i64::from(det_i32(seed, i)))
        .collect();
    let b: Vec<i64> = (0..nn as u64)
        .map(|i| i64::from(det_i32(seed ^ 0xABCD, i)))
        .collect();
    let mut c = vec![0i64; nn];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Verify a final instance against the oracle.
pub fn verify(g: &GthvInstance, n: usize, seed: u64) -> bool {
    let want = expected_c(n, seed);
    let mut got = vec![0i128; want.len()];
    g.read_ints(entries::C, 0, &mut got).is_ok()
        && got.iter().zip(&want).all(|(v, w)| *v == i128::from(*w))
        && g.read_int(entries::N, 0).map(|v| v as usize) == Ok(n)
}

/// Row `i` of `C = A * B` for row `a_row` of `A`, into `c_row`.
fn multiply_row(a_row: &[i128], b: &[i64], c_row: &mut [i128]) {
    let n = a_row.len();
    for (j, c) in c_row.iter_mut().enumerate() {
        let mut acc = 0i64;
        for k in 0..n {
            acc += a_row[k] as i64 * b[k * n + j];
        }
        *c = i128::from(acc);
    }
}

/// SPMD worker body.
pub fn run_worker(
    client: &mut DsdClient,
    info: &WorkerInfo,
    n: usize,
    mode: SyncMode,
) -> Result<(), DsdError> {
    // Pull the initial matrices.
    client.barrier(barriers::START)?;
    debug_assert_eq!(client.read_int(entries::N, 0)? as usize, n);

    let rows = block_rows(n, info.index, info.n_workers);
    // One matrix row in the accessors' integer type, reused for every row
    // of B and A read.
    let mut row = vec![0i128; n];
    // Load B once (column access pattern).
    let mut b = Vec::with_capacity(n * n);
    for k in 0..n {
        client.read_ints(entries::B, (k * n) as u64, &mut row)?;
        b.extend(row.iter().map(|&v| v as i64));
    }
    match mode {
        SyncMode::Barrier => {
            let mut c_row = vec![0i128; n];
            for i in rows {
                client.read_ints(entries::A, (i * n) as u64, &mut row)?;
                multiply_row(&row, &b, &mut c_row);
                client.write_ints(entries::C, (i * n) as u64, &c_row)?;
            }
            client.barrier(barriers::END)?;
        }
        SyncMode::Lock => {
            // Compute locally, then publish the block under the mutex —
            // one lock/unlock round per worker, like the paper's
            // lock-protected critical sections.
            let mut block = vec![0i128; rows.len() * n];
            for (i, c_row) in rows.clone().zip(block.chunks_exact_mut(n)) {
                client.read_ints(entries::A, (i * n) as u64, &mut row)?;
                multiply_row(&row, &b, c_row);
            }
            let mut c = client.lock(locks::C)?;
            c.write_ints(entries::C, (rows.start * n) as u64, &block)?;
            c.unlock()?;
            client.barrier(barriers::END)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Migratable version, a worker body through `run_migrating`.
// ---------------------------------------------------------------------

/// Program name in the registry.
pub const PROGRAM: &str = "matmul";

fn mthv_type() -> CType {
    CType::Struct(
        StructBuilder::new("MThV")
            .scalar("n", ScalarKind::Int)
            .scalar("row_begin", ScalarKind::Int)
            .scalar("row_end", ScalarKind::Int)
            .scalar("next_row", ScalarKind::Int)
            .scalar("phase", ScalarKind::Int)
            .build()
            .expect("MThV"),
    )
}

/// Declared state shape (used for registry registration and restore).
pub fn declared_state(platform: &Platform) -> ThreadState {
    let mut st = ThreadState::new(PROGRAM);
    st.push_block("MThV", TypedBlock::zeroed(mthv_type(), platform.clone()));
    st
}

/// Starting state for a worker covering `rows`.
pub fn start_state(platform: &Platform, n: usize, rows: std::ops::Range<usize>) -> ThreadState {
    let mut st = declared_state(platform);
    let b = st.block_mut("MThV").expect("MThV");
    b.set_field(0, &Value::Int(n as i128)).unwrap();
    b.set_field(1, &Value::Int(rows.start as i128)).unwrap();
    b.set_field(2, &Value::Int(rows.end as i128)).unwrap();
    b.set_field(3, &Value::Int(rows.start as i128)).unwrap();
    b.set_field(4, &Value::Int(0)).unwrap(); // phase 0: before start barrier
    st
}

/// Migratable matrix multiplication: phase 0 pulls the matrices at the
/// start barrier; each subsequent quantum computes one row of `C`; the
/// final quantum publishes through the end barrier. Every quantum boundary
/// is an adaptation point.
pub struct MatmulComputation {
    state: ThreadState,
}

impl MatmulComputation {
    /// Registry factory.
    pub fn factory(
        state: ThreadState,
        _platform: Platform,
    ) -> Result<Box<dyn Computation<DsdClient>>, MigrateError> {
        Ok(Box::new(MatmulComputation { state }))
    }

    fn get(&self, field: usize) -> i128 {
        self.state
            .block("MThV")
            .expect("MThV")
            .get_field(field)
            .expect("field")
            .as_int()
    }

    fn set(&mut self, field: usize, v: i128) {
        self.state
            .block_mut("MThV")
            .expect("MThV")
            .set_field(field, &Value::Int(v))
            .expect("field");
    }
}

impl Computation<DsdClient> for MatmulComputation {
    fn program(&self) -> &str {
        PROGRAM
    }

    fn step(&mut self, client: &mut DsdClient) -> StepStatus {
        let phase = self.get(4);
        match phase {
            0 => {
                client.barrier(barriers::START).expect("start barrier");
                self.set(4, 1);
                StepStatus::Yield
            }
            1 => {
                let n = self.get(0) as usize;
                let row = self.get(3) as usize;
                let end = self.get(2) as usize;
                if row >= end {
                    client.barrier(barriers::END).expect("end barrier");
                    self.set(4, 2);
                    return StepStatus::Done;
                }
                let mut b = vec![0i128; n * n];
                client.read_ints(entries::B, 0, &mut b).expect("read B");
                let b: Vec<i64> = b.into_iter().map(|v| v as i64).collect();
                let mut a_row = vec![0i128; n];
                client
                    .read_ints(entries::A, (row * n) as u64, &mut a_row)
                    .expect("read A row");
                let mut c_row = vec![0i128; n];
                multiply_row(&a_row, &b, &mut c_row);
                client
                    .write_ints(entries::C, (row * n) as u64, &c_row)
                    .expect("write C row");
                self.set(3, (row + 1) as i128);
                StepStatus::Yield
            }
            _ => StepStatus::Done,
        }
    }

    fn capture(&self) -> ThreadState {
        self.state.clone()
    }
}

/// Build a registry containing the matmul program.
pub fn registry(platform: &Platform) -> ProgramRegistry<DsdClient> {
    let mut r = ProgramRegistry::new();
    r.register(
        PROGRAM,
        declared_state(platform),
        MatmulComputation::factory,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_core::cluster::ClusterBuilder;
    use hdsm_platform::spec::PlatformSpec;

    #[test]
    fn oracle_small_case() {
        // 2x2 hand check with a fixed seed.
        let n = 2;
        let seed = 7;
        let c = expected_c(n, seed);
        let a: Vec<i64> = (0..4).map(|i| i64::from(det_i32(seed, i))).collect();
        let b: Vec<i64> = (0..4)
            .map(|i| i64::from(det_i32(seed ^ 0xABCD, i)))
            .collect();
        assert_eq!(c[0], a[0] * b[0] + a[1] * b[2]);
        assert_eq!(c[3], a[2] * b[1] + a[3] * b[3]);
    }

    #[test]
    fn barrier_mode_heterogeneous_cluster_is_correct() {
        let n = 20;
        let seed = 42;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86_64())
            .barriers(2)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n, SyncMode::Barrier))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed));
        // Heterogeneous workers really converted.
        assert!(outcome.home_conv.scalars_converted > 0);
    }

    #[test]
    fn lock_mode_matches_barrier_mode() {
        let n = 16;
        let seed = 3;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .locks(1)
            .barriers(2)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n, SyncMode::Lock))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed));
    }

    #[test]
    fn single_worker_homogeneous() {
        let n = 12;
        let seed = 9;
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .worker(PlatformSpec::linux_x86())
            .barriers(2)
            .init(move |g| init(g, n, seed))
            .run(move |c, info| run_worker(c, info, n, SyncMode::Barrier))
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed));
        // Homogeneous pair: the home applied worker updates by memcpy only.
        assert_eq!(outcome.home_conv.scalars_swapped, 0);
    }

    #[test]
    fn migratable_version_with_mid_run_migrations() {
        use hdsm_core::cluster::{run_migrating, TopologyConfig};
        use hdsm_net::FabricMode;
        let n = 12;
        let seed = 5;
        let linux = PlatformSpec::linux_x86();
        let reg = registry(&linux);
        let moves = [
            vec![(3, PlatformSpec::solaris_sparc())],
            vec![(5, PlatformSpec::solaris_sparc64())],
        ];
        let outcome = ClusterBuilder::new()
            .gthv(gthv_def(n))
            .home(PlatformSpec::linux_x86())
            .worker(linux.clone())
            .worker(linux.clone())
            .barriers(2)
            .topology(TopologyConfig {
                fabric: FabricMode::Sim { seed },
                ..Default::default()
            })
            .init(move |g| init(g, n, seed))
            .run(|c, info| {
                let rows = block_rows(n, info.index, info.n_workers);
                let start = start_state(&info.platform, n, rows);
                run_migrating(c, &reg, start, &moves[info.index])
            })
            .unwrap();
        assert!(verify(&outcome.final_gthv, n, seed));
        let stats = outcome.results.iter().map(|(_, m)| m);
        assert_eq!(stats.clone().map(|m| m.migrations).sum::<u64>(), 2);
        assert!(stats.map(|m| m.image_bytes).sum::<u64>() > 0);
        // The migrated threads finished on their destination platforms.
        let finished_on = |i: usize| {
            let state = &outcome.results[i].0;
            state.block("MThV").unwrap().platform.name.clone()
        };
        assert_eq!(finished_on(0), "solaris-sparc");
        assert_eq!(finished_on(1), "solaris-sparc64");
    }
}
