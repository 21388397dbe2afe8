//! Adaptive placement: heat-driven home migration and thread repacking.
//!
//! The paper's DSM is *adaptive*: it watches where sharing traffic
//! actually flows and moves data (and computation) to shorten the Eq. 1
//! cost pipeline. This module closes that loop. The placement engine is
//! a control script: [`ClusterCtl::adapt`](crate::cluster::ClusterCtl::adapt),
//! called from `ClusterBuilder::control(..)` with a [`PlacementPolicy`],
//! that once per policy epoch:
//!
//! 1. reads the observability signals — per-(entry, writer) update bytes
//!    ([`PlacementInputs::write_heat`]) and per-(writer, shard) completed
//!    release-class sync ops ([`PlacementInputs::release_dests`]),
//! 2. folds them through the pure [`PlacementPolicy::plan`] function into
//!    a list of [`PlacementDecision`]s, and
//! 3. applies each decision over the admin plane as a per-entry home
//!    handoff (`ClusterCtl::rehome_entry`), backing off when the target
//!    shard is itself mid-promotion.
//!
//! Without that script entries stay at `entry % shards`. Planning is
//! deliberately split from acting: `plan` is a deterministic function of
//! its inputs, so the same signals always produce the same decisions — on
//! the simulated fabric a same-seed adaptive run replays
//! decision-for-decision, and the differential suite can assert adaptive
//! runs converge byte-identically with runs that never re-home.
//!
//! The second adaptation axis — moving worker *threads* off slow CPUs —
//! is planned by [`plan_thread_moves`] from the configured platform
//! `cpu_factor`s. The policy never moves a thread itself: a caller turns
//! the plan into each worker's moves for
//! [`run_migrating`](crate::cluster::run_migrating), which packs through
//! CGT-RMR and restores on the target.

use std::time::Duration;

/// The signals the placement engine feeds to [`PlacementPolicy::plan`].
///
/// All tables are cumulative since cluster start and sorted by key, so a
/// plan is a pure function of the run's observable history.
#[derive(Debug, Clone, Default)]
pub struct PlacementInputs {
    /// `(entry, writer_rank, update_frames, payload_bytes)` — who ships
    /// update traffic for which index entry.
    pub write_heat: Vec<(u32, u32, u64, u64)>,
    /// `(writer_rank, shard, completed_release_ops)` — which home shard
    /// grants each rank's release-class sync operations (unlock, barrier,
    /// cond-wait). The shard a rank releases through most is the shard
    /// "nearest" its synchronization, and therefore the cheapest place to
    /// home the entries that rank writes.
    pub release_dests: Vec<(u32, u32, u64)>,
    /// Current effective owner of every entry that has ever been observed
    /// or moved: `(entry, shard)`. Entries absent from this table are
    /// still at their static modulo home.
    pub owners: Vec<(u32, u32)>,
    /// Number of home shards.
    pub shards: u32,
}

/// One re-homing decision: move `entry` from `from_shard` to `to_shard`
/// because `writer` dominates its update traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementDecision {
    /// Index entry to move.
    pub entry: u32,
    /// Shard that currently owns the entry.
    pub from_shard: u32,
    /// Shard that should own it.
    pub to_shard: u32,
    /// Rank whose update traffic motivated the move.
    pub writer: u32,
}

/// Heat-driven re-homing: move entries to the shard nearest their
/// dominant writer.
///
/// Every `epoch`, each entry's writers are ranked by cumulative update
/// bytes. An entry moves only when the top writer has shipped at least
/// `min_gain` bytes **and** at least `hysteresis`× the bytes of the
/// runner-up — both gates damp oscillation when two ranks trade the lead.
/// The target shard is the one granting most of the dominant writer's
/// release-class sync ops.
#[derive(Debug, Clone)]
pub struct PlacementPolicy {
    /// How often the engine re-plans.
    pub epoch: Duration,
    /// Dominance ratio the top writer must hold over the runner-up
    /// (e.g. `2.0` = twice the bytes). Values below 1.0 behave as 1.0.
    pub hysteresis: f64,
    /// Minimum cumulative bytes from the dominant writer before an entry
    /// is worth moving.
    pub min_gain: u64,
}

impl PlacementPolicy {
    /// The defaults used by the benches: plan every 20 ms, require 2×
    /// dominance and 4 KiB of traffic.
    pub fn heat_driven() -> PlacementPolicy {
        PlacementPolicy {
            epoch: Duration::from_millis(20),
            hysteresis: 2.0,
            min_gain: 4096,
        }
    }

    /// Fold the current signals into a list of moves: per entry, find the
    /// dominant writer, gate on `min_gain` bytes and `hysteresis`× the
    /// runner-up, and target the shard granting most of that writer's
    /// release-class sync operations.
    ///
    /// Pure and deterministic: inputs are key-sorted tables and ties are
    /// broken toward the lower rank / lower shard, so identical inputs
    /// always yield identical decisions in identical order.
    pub fn plan(&self, inputs: &PlacementInputs) -> Vec<PlacementDecision> {
        let hysteresis = self.hysteresis.max(1.0);
        // Best release destination per writer: (ops, prefer lower shard).
        let mut best_dest: Vec<(u32, u32, u64)> = Vec::new(); // (writer, shard, ops)
        for &(writer, shard, ops) in &inputs.release_dests {
            match best_dest.iter_mut().find(|r| r.0 == writer) {
                Some(r) => {
                    if ops > r.2 || (ops == r.2 && shard < r.1) {
                        r.1 = shard;
                        r.2 = ops;
                    }
                }
                None => best_dest.push((writer, shard, ops)),
            }
        }

        let mut out = Vec::new();
        let mut i = 0;
        let heat = &inputs.write_heat;
        while i < heat.len() {
            let entry = heat[i].0;
            // The table is (entry, writer)-sorted: walk this entry's slice,
            // tracking the top two writers by bytes (ties to the lower rank,
            // which the sort order gives us for free).
            let (mut top_writer, mut top_bytes, mut runner_bytes) = (0u32, 0u64, 0u64);
            while i < heat.len() && heat[i].0 == entry {
                let (_, writer, _, bytes) = heat[i];
                if bytes > top_bytes {
                    runner_bytes = top_bytes;
                    top_bytes = bytes;
                    top_writer = writer;
                } else if bytes > runner_bytes {
                    runner_bytes = bytes;
                }
                i += 1;
            }
            if top_bytes < self.min_gain {
                continue;
            }
            if (top_bytes as f64) < hysteresis * (runner_bytes as f64) {
                continue;
            }
            let Some(&(_, to_shard, _)) = best_dest.iter().find(|r| r.0 == top_writer) else {
                // No completed sync ops from this writer yet — no basis for
                // a "nearest shard" call; wait for more signal.
                continue;
            };
            if to_shard >= inputs.shards {
                continue;
            }
            // The effective owner: the overlay row if present, else the
            // static modulo home.
            let row = inputs.owners.iter().find(|&&(e, _)| e == entry);
            let from_shard = row.map_or(entry % inputs.shards.max(1), |&(_, s)| s);
            if to_shard == from_shard {
                continue;
            }
            out.push(PlacementDecision {
                entry,
                from_shard,
                to_shard,
                writer: top_writer,
            });
        }
        out
    }
}

/// One planned thread migration: move worker `thread_rank` onto platform
/// `to_platform` after `after_sweeps` adaptation sweeps — for that
/// worker, the move `(after_sweeps, platforms[to_platform])` of
/// [`run_migrating`](crate::cluster::run_migrating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadMove {
    /// Worker thread rank to repack.
    pub thread_rank: u32,
    /// Index into the configured worker platform list to land on.
    pub to_platform: usize,
    /// Sweep count after which the move fires.
    pub after_sweeps: u32,
}

/// Plan thread migrations off slow simulated CPUs.
///
/// Given each worker's platform `cpu_factor` (higher = faster), move
/// every worker whose CPU is more than `threshold`× slower than the
/// fastest configured platform onto that fastest platform, after the
/// first adaptation sweep. Deterministic: workers are scanned in rank
/// order and the fastest platform ties break toward the lower index.
pub fn plan_thread_moves(cpu_factors: &[f64], threshold: f64) -> Vec<ThreadMove> {
    if cpu_factors.is_empty() {
        return Vec::new();
    }
    let mut fastest = 0usize;
    for (i, &f) in cpu_factors.iter().enumerate() {
        if f > cpu_factors[fastest] {
            fastest = i;
        }
    }
    let fast = cpu_factors[fastest];
    let mut out = Vec::new();
    for (rank, &f) in cpu_factors.iter().enumerate() {
        if rank != fastest && f * threshold < fast {
            out.push(ThreadMove {
                thread_rank: rank as u32,
                to_platform: fastest,
                after_sweeps: 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> PlacementInputs {
        PlacementInputs {
            // Entry 3: rank 2 dominates (9000 bytes vs 100). Entry 4:
            // contested (1000 vs 900). Entry 5: dominant but tiny.
            write_heat: vec![
                (3, 0, 2, 100),
                (3, 2, 40, 9000),
                (4, 0, 10, 1000),
                (4, 1, 9, 900),
                (5, 2, 1, 64),
            ],
            // Rank 2 syncs mostly through shard 1.
            release_dests: vec![(0, 0, 50), (2, 0, 3), (2, 1, 20)],
            owners: Vec::new(),
            shards: 2,
        }
    }

    #[test]
    fn an_unmet_min_gain_never_plans() {
        let mut ins = inputs();
        ins.release_dests = vec![(2, 0, 20)];
        let policy = PlacementPolicy {
            min_gain: u64::MAX,
            ..PlacementPolicy::heat_driven()
        };
        assert!(policy.plan(&ins).is_empty());
    }

    #[test]
    fn heat_driven_moves_dominated_entry_only() {
        let policy = PlacementPolicy {
            epoch: Duration::from_millis(20),
            hysteresis: 2.0,
            min_gain: 1000,
        };
        let plan = policy.plan(&inputs());
        // Entry 3 (home = 3 % 2 = 1) is dominated by rank 2 whose syncs
        // land on shard 1 — already home, no move. Re-home rank 2's syncs
        // to shard 0 and the move appears.
        assert!(plan.is_empty());

        let mut ins = inputs();
        ins.release_dests = vec![(2, 0, 20), (2, 1, 3)];
        let plan = policy.plan(&ins);
        assert_eq!(
            plan,
            vec![PlacementDecision {
                entry: 3,
                from_shard: 1,
                to_shard: 0,
                writer: 2
            }]
        );
        // Entry 4 fails hysteresis (1000 < 2*900); entry 5 fails min_gain.
    }

    #[test]
    fn owners_overlay_suppresses_repeat_moves() {
        let policy = PlacementPolicy {
            epoch: Duration::from_millis(20),
            hysteresis: 2.0,
            min_gain: 1000,
        };
        let mut ins = inputs();
        ins.release_dests = vec![(2, 0, 20)];
        ins.owners = vec![(3, 0)]; // already moved last epoch
        assert!(policy.plan(&ins).is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let policy = PlacementPolicy::heat_driven();
        let mut ins = inputs();
        ins.release_dests = vec![(2, 0, 20)];
        let a = policy.plan(&ins);
        let b = policy.plan(&ins);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_moves_target_fastest_platform() {
        // Platforms: 1.0, 0.4 (slow), 1.4 (fastest), 0.9.
        let moves = plan_thread_moves(&[1.0, 0.4, 1.4, 0.9], 2.0);
        // Only 0.4*2.0 < 1.4 qualifies.
        assert_eq!(
            moves,
            vec![ThreadMove {
                thread_rank: 1,
                to_platform: 2,
                after_sweeps: 1
            }]
        );
        assert!(plan_thread_moves(&[], 2.0).is_empty());
        // Homogeneous cluster: nothing to do.
        assert!(plan_thread_moves(&[1.0, 1.0, 1.0], 2.0).is_empty());
    }
}
