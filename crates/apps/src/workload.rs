//! Common workload vocabulary: the paper's matrix sizes and platform
//! pairs, and the synchronization style knob.

use hdsm_core::gthv::GthvInstance;
use hdsm_platform::spec::{Platform, PlatformSpec};

/// The paper's matrix sizes (§5 and Figures 6–11).
pub fn paper_sizes() -> [usize; 5] {
    [99, 138, 177, 216, 255]
}

/// A named platform pair from the paper's evaluation.
#[derive(Debug, Clone)]
pub struct PlatformPair {
    /// Two-letter label used in Figures 6–7 ("LL", "SS", "SL").
    pub label: &'static str,
    /// Home-node platform.
    pub home: Platform,
    /// Remote/worker platform.
    pub remote: Platform,
}

impl PlatformPair {
    /// Is this pair heterogeneous (layout rules differ)?
    pub fn heterogeneous(&self) -> bool {
        !self.home.homogeneous_with(&self.remote)
    }
}

/// The three pairs of the paper: Linux/Linux, Solaris/Solaris,
/// Solaris/Linux.
pub fn paper_pairs() -> [PlatformPair; 3] {
    [
        PlatformPair {
            label: "LL",
            home: PlatformSpec::linux_x86(),
            remote: PlatformSpec::linux_x86(),
        },
        PlatformPair {
            label: "SS",
            home: PlatformSpec::solaris_sparc(),
            remote: PlatformSpec::solaris_sparc(),
        },
        PlatformPair {
            label: "SL",
            home: PlatformSpec::solaris_sparc(),
            remote: PlatformSpec::linux_x86(),
        },
    ]
}

/// Does float entry `entry` of `g` hold `want`, element for element, within
/// the serial oracles' tolerance? The comparison every float kernel's
/// `verify` makes.
pub(crate) fn close_to(g: &GthvInstance, entry: u32, want: &[f64]) -> bool {
    let mut got = vec![0.0f64; want.len()];
    g.read_floats(entry, 0, &mut got).is_ok()
        && got
            .iter()
            .zip(want)
            .all(|(v, w)| (v - w).abs() <= 1e-9 * (1.0 + w.abs()))
}

/// How workers synchronize their updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Pull initial state and publish results through barriers.
    Barrier,
    /// Serialize result publication through the distributed mutex
    /// (exercises the `MTh_lock`/`MTh_unlock` path of paper §4.1/§4.2).
    Lock,
}

/// Deterministic pseudo-random i32 in a small range (xorshift-based; keeps
/// workloads reproducible across platforms without pulling in `rand` for
/// the library path).
pub fn det_i32(seed: u64, i: u64) -> i32 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        | 1;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    ((x % 199) as i32) - 99
}

/// Deterministic pseudo-random f64 in (-1, 1).
pub fn det_f64(seed: u64, i: u64) -> f64 {
    f64::from(det_i32(seed, i)) / 100.0
}

/// Row partition for worker `w` of `n_workers` over `n` rows:
/// contiguous blocks, remainder spread over the first workers.
pub fn block_rows(n: usize, w: usize, n_workers: usize) -> std::ops::Range<usize> {
    let base = n / n_workers;
    let rem = n % n_workers;
    let start = w * base + w.min(rem);
    let len = base + usize::from(w < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        assert_eq!(paper_sizes(), [99, 138, 177, 216, 255]);
        let pairs = paper_pairs();
        assert!(!pairs[0].heterogeneous());
        assert!(!pairs[1].heterogeneous());
        assert!(pairs[2].heterogeneous());
        assert_eq!(pairs[2].label, "SL");
    }

    #[test]
    fn block_rows_cover_exactly() {
        for n in [1, 7, 99, 100, 255] {
            for w_count in 1..=5 {
                let mut covered = vec![false; n];
                for w in 0..w_count {
                    for r in block_rows(n, w, w_count) {
                        assert!(!covered[r], "row {r} covered twice");
                        covered[r] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n} w={w_count}");
            }
        }
    }

    #[test]
    fn deterministic_generators() {
        assert_eq!(det_i32(1, 5), det_i32(1, 5));
        assert_ne!(det_i32(1, 5), det_i32(1, 6));
        let f = det_f64(2, 9);
        assert!((-1.0..1.0).contains(&f));
    }
}
