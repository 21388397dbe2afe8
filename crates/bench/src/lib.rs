#![warn(missing_docs)]

//! Experiment harness regenerating the paper's evaluation (§5): one cell
//! runner for the `paper` binary's grids. A cell is one kernel at one
//! matrix size on one platform pair under the paper's placement — three
//! computing threads, one on the home platform and two "migrated" to the
//! remote one — with the Eq. 1 costs (`t_index + t_tag + t_pack +
//! t_unpack + t_conv`) summed over every participant.
//!
//! **Time scaling.** The paper's machines differ in clock speed (2.4 GHz
//! P4 vs 1.28 GHz UltraSPARC). All nodes here run on one host CPU, so each
//! cell also carries its costs *scaled* by the inverse of each node's
//! `cpu_factor` (time measured on a "Solaris" node is divided by 0.53).
//! Scaling never feeds back into the protocol.

use hdsm_apps::workload::PlatformPair;
use hdsm_apps::Kernel;
use hdsm_core::cluster::ClusterBuilder;
use hdsm_core::costs::CostBreakdown;
use hdsm_platform::spec::Platform;
use hdsm_tags::convert::ConversionStats;

/// Aggregated result of one experiment cell (kernel × size × pair).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Pair label ("LL", "SS", "SL").
    pub pair: String,
    /// Matrix size.
    pub n: usize,
    /// Raw summed cost breakdown (workers + home).
    pub raw: CostBreakdown,
    /// CPU-factor-scaled summed cost breakdown.
    pub scaled: CostBreakdown,
    /// The home's share of `raw`.
    pub home: CostBreakdown,
    /// What every apply did, summed over the home and the workers.
    pub conv: ConversionStats,
    /// Did the distributed result match the serial oracle?
    pub verified: bool,
}

/// The paper's thread placement: one worker stays on the home platform,
/// two are migrated to the remote platform.
pub fn paper_placement(pair: &PlatformPair) -> Vec<Platform> {
    vec![pair.home.clone(), pair.remote.clone(), pair.remote.clone()]
}

/// Run one cell: `kernel` at size `n` on `pair` under the paper
/// placement, with the harness's data seed (`0xBEEF` for LU, `0xC0FFEE`
/// for the rest).
pub fn run_cell(kernel: Kernel, n: usize, pair: &PlatformPair) -> ExperimentResult {
    let seed = if kernel == Kernel::Lu {
        0xBEEF
    } else {
        0xC0FFEE
    };
    let workers = paper_placement(pair);
    let builder = ClusterBuilder::new().home(pair.home.clone());
    let builder = workers.iter().fold(builder, |b, w| b.worker(w.clone()));
    let (outcome, verified) = kernel.run(builder, n, seed).expect("paper cell");
    let home = outcome.home_costs;
    let mut raw: CostBreakdown = outcome.worker_costs.iter().sum();
    raw += home;
    let costs = workers.iter().zip(&outcome.worker_costs);
    let mut scaled: CostBreakdown = costs.map(|(w, c)| c.scaled(1.0 / w.cpu_factor)).sum();
    scaled += home.scaled(1.0 / pair.home.cpu_factor);
    let mut conv = outcome.home_conv;
    outcome.worker_conv.iter().for_each(|c| conv.merge(c));
    ExperimentResult {
        pair: pair.label.to_string(),
        n,
        raw,
        scaled,
        home,
        conv,
        verified,
    }
}

/// Run a cell `reps` times and keep the repetition with the smallest
/// total sharing cost — the standard way to strip scheduler noise from a
/// single-machine measurement. Every repetition must verify.
pub fn best_of(reps: usize, mut cell: impl FnMut() -> ExperimentResult) -> ExperimentResult {
    let runs = (0..reps).map(|_| {
        let r = cell();
        assert!(r.verified, "n={} pair={} failed to verify", r.n, r.pair);
        r
    });
    runs.min_by_key(|r| r.raw.c_share()).expect("reps >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_apps::workload::{paper_pairs, SyncMode};
    use std::time::Duration;

    #[test]
    fn matmul_cell_runs_and_verifies() {
        let pair = &paper_pairs()[2]; // SL, the heterogeneous pair
        let r = run_cell(Kernel::Matmul(SyncMode::Barrier), 16, pair);
        assert!(r.verified);
        assert!(r.raw.c_share() > r.home.c_share());
        assert!(r.home.c_share() > Duration::ZERO);
        assert!(r.conv.scalars_swapped > 0);
        // Scaling inflates (cpu factors <= 1).
        assert!(r.scaled.c_share() >= r.raw.c_share());
    }

    #[test]
    fn lu_cell_runs_and_verifies() {
        let pair = &paper_pairs()[0];
        let r = best_of(2, || run_cell(Kernel::Lu, 12, pair));
        assert!(r.verified);
        assert_eq!(r.conv.scalars_swapped, 0);
    }
}
