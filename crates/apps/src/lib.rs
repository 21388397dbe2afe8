#![warn(missing_docs)]

//! Parallel workloads running on the heterogeneous DSM.
//!
//! The paper evaluates matrix multiplication and LU decomposition with
//! square matrices of 99, 138, 177, 216 and 255, three threads (two of
//! them migrated to remote nodes), on Linux/Linux, Solaris/Solaris and
//! Solaris/Linux pairs (§5). [`matmul`] and [`lu`] reproduce those
//! workloads; [`jacobi`] and [`sor`] extend the suite with the classic
//! DSM stencil benchmarks.
//!
//! Each workload provides a `gthv_def` (the shared structure), an `init`
//! (home-side initialisation), a `run_worker` body for
//! [`hdsm_core::cluster::ClusterBuilder::run`], and a serial oracle used
//! by `verify` to check the distributed result. [`Kernel`] is the one
//! table over the four: a caller names a kernel and a size, and
//! [`Kernel::run`] sets up, runs and verifies.

pub mod jacobi;
mod kernel;
pub mod lu;
pub mod matmul;
pub mod sor;
pub mod workload;

pub use kernel::Kernel;
pub use workload::{paper_pairs, paper_sizes, PlatformPair, SyncMode};
