//! The kernel table: what "run kernel K" means, said once. A [`Kernel`]
//! names its shared structure, the sync objects its body uses, its
//! home-side initialiser, its worker body and its serial oracle; callers
//! bring the cluster (platforms, topology, timing, fabric) and a size.

use crate::workload::SyncMode;
use crate::{jacobi, lu, matmul, sor};
use hdsm_core::client::{DsdClient, DsdError};
use hdsm_core::cluster::{ClusterBuilder, ClusterError, ClusterOutcome, WorkerInfo};
use hdsm_core::gthv::{GthvDef, GthvInstance};

/// One of the four kernels, carrying what its `run_worker` takes besides
/// the client, the worker identity and the size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// [`jacobi`]: two grids, one barrier per sweep.
    Jacobi {
        /// Iterations.
        sweeps: usize,
    },
    /// [`sor`]: red-black relaxation, one barrier per half-sweep.
    Sor {
        /// Full (red + black) sweeps.
        sweeps: usize,
    },
    /// [`matmul`]: the paper's Figure 4 multiplication.
    Matmul(SyncMode),
    /// [`lu`]: the paper's second workload.
    Lu,
}

impl Kernel {
    /// The shared structure for size `n`.
    pub fn gthv_def(self, n: usize) -> GthvDef {
        match self {
            Kernel::Jacobi { .. } => jacobi::gthv_def(n),
            Kernel::Sor { .. } => sor::gthv_def(n),
            Kernel::Matmul(_) => matmul::gthv_def(n),
            Kernel::Lu => lu::gthv_def(n),
        }
    }

    /// Give `builder` this kernel's structure, the barriers its body uses
    /// and its initialiser. Matmul opens and closes on two barriers; the
    /// builder's default one lock and one barrier serve the rest.
    pub fn setup(self, builder: ClusterBuilder, n: usize, seed: u64) -> ClusterBuilder {
        let builder = match self {
            Kernel::Matmul(_) => builder.barriers(2),
            _ => builder,
        };
        builder
            .gthv(self.gthv_def(n))
            .init(move |g| self.init(g, n, seed))
    }

    /// Home-side initialisation.
    pub fn init(self, g: &mut GthvInstance, n: usize, seed: u64) {
        match self {
            Kernel::Jacobi { .. } => jacobi::init(g, n, seed),
            Kernel::Sor { .. } => sor::init(g, n, seed),
            Kernel::Matmul(_) => matmul::init(g, n, seed),
            Kernel::Lu => lu::init(g, n, seed),
        }
    }

    /// SPMD worker body.
    pub fn run_worker(
        self,
        client: &mut DsdClient,
        info: &WorkerInfo,
        n: usize,
    ) -> Result<(), DsdError> {
        match self {
            Kernel::Jacobi { sweeps } => jacobi::run_worker(client, info, n, sweeps),
            Kernel::Sor { sweeps } => sor::run_worker(client, info, n, sweeps),
            Kernel::Matmul(mode) => matmul::run_worker(client, info, n, mode),
            Kernel::Lu => lu::run_worker(client, info, n),
        }
    }

    /// Does a final instance match the serial oracle?
    pub fn verify(self, g: &GthvInstance, n: usize, seed: u64) -> bool {
        match self {
            Kernel::Jacobi { sweeps } => jacobi::verify(g, n, seed, sweeps),
            Kernel::Sor { sweeps } => sor::verify(g, n, seed, sweeps),
            Kernel::Matmul(_) => matmul::verify(g, n, seed),
            Kernel::Lu => lu::verify(g, n, seed),
        }
    }

    /// Set up, run and verify on `builder`'s cluster: the outcome and the
    /// oracle's verdict.
    pub fn run(
        self,
        builder: ClusterBuilder,
        n: usize,
        seed: u64,
    ) -> Result<(ClusterOutcome<()>, bool), ClusterError> {
        let outcome = self
            .setup(builder, n, seed)
            .run(move |c, info| self.run_worker(c, info, n))?;
        let verified = self.verify(&outcome.final_gthv, n, seed);
        Ok((outcome, verified))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_core::cluster::TopologyConfig;
    use hdsm_net::FabricMode;
    use hdsm_platform::spec::PlatformSpec;

    #[test]
    fn every_kernel_sets_up_the_sync_objects_its_body_uses() {
        // No caller-set locks or barriers: a body that touched a sync
        // object its `setup` did not name would fail at the home.
        let kernels = [
            Kernel::Jacobi { sweeps: 2 },
            Kernel::Sor { sweeps: 2 },
            Kernel::Matmul(SyncMode::Barrier),
            Kernel::Matmul(SyncMode::Lock),
            Kernel::Lu,
        ];
        for kernel in kernels {
            let builder = ClusterBuilder::new()
                .home(PlatformSpec::solaris_sparc())
                .worker(PlatformSpec::linux_x86())
                .worker(PlatformSpec::solaris_sparc())
                .worker(PlatformSpec::linux_x86_64())
                .topology(TopologyConfig {
                    fabric: FabricMode::Sim { seed: 0x7AB },
                    ..Default::default()
                });
            let (_, verified) = kernel
                .run(builder, 12, 0x7AB)
                .unwrap_or_else(|e| panic!("{kernel:?}: {e}"));
            assert!(verified, "{kernel:?} must verify");
        }
    }
}
