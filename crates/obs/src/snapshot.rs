//! The machine-readable observability snapshot and its exporters.
//!
//! [`ObsSnapshot`] freezes the tables an enabled recorder keeps: metrics,
//! the entry heatmap with its placement signals, placement decisions,
//! ring occupancy and stall reports. It is plain data that tests compare
//! with `==` and that renders to a human cluster report (`report`); the
//! run's machine-readable export is its log (`Recorder::log`). What is
//! computed *from* the events — critical paths — is not in it
//! (`Recorder::critpaths`), and fabric traffic is `hdsm_net::NetStats`'s.

use crate::critpath::HomeLayout;
use crate::heatmap::Heatmap;
use crate::metrics::Registry;
use crate::watchdog::StallReport;

/// Summary of one latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Metric name (event kind name for span histograms).
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Mean in µs.
    pub mean_us: f64,
    /// Approximate 50th percentile in µs.
    pub p50_us: u64,
    /// Approximate 95th percentile in µs.
    pub p95_us: u64,
    /// Approximate 99th percentile in µs.
    pub p99_us: u64,
    /// Largest recorded value in µs.
    pub max_us: u64,
}

/// One entry row of the entry heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRow {
    /// Index-table entry id.
    pub entry: u32,
    /// Update frames shipped.
    pub updates_sent: u64,
    /// Elements covered by shipped frames.
    pub elems_sent: u64,
    /// Bytes shipped.
    pub bytes_sent: u64,
    /// Update frames applied.
    pub updates_applied: u64,
    /// Bytes applied.
    pub bytes_applied: u64,
}

/// One row of the per-(entry, writer) update-attribution table: how much
/// update traffic `writer` generated for `entry`. The placement engine's
/// "dominant writer" input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterRow {
    /// Index-table entry id.
    pub entry: u32,
    /// Writer thread rank.
    pub writer: u32,
    /// Update frames shipped by the writer for this entry.
    pub updates: u64,
    /// Payload bytes shipped.
    pub bytes: u64,
}

/// One row of the per-(writer, shard) sync-destination table: how many
/// release-class operations (unlock, barrier enter, cond wait) `writer`
/// completed at `shard`. The placement engine's "nearest shard" input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseRow {
    /// Writer thread rank.
    pub writer: u32,
    /// Home shard the operation was homed at.
    pub shard: u32,
    /// Completed release-class operations.
    pub releases: u64,
}

/// One placement decision the adaptive engine applied: entry `entry` was
/// re-homed from `from_shard` to `to_shard` under placement epoch
/// `epoch`, because `writer` dominated its update traffic. Decisions are
/// part of the snapshot so same-seed simulated runs can be compared
/// decision-for-decision, not just byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRow {
    /// Index-table entry that moved.
    pub entry: u32,
    /// Shard that owned the entry before the move.
    pub from_shard: u32,
    /// Shard that owns it after.
    pub to_shard: u32,
    /// The dominant writer that motivated the move.
    pub writer: u32,
    /// The entry's placement epoch after the move (monotonic per entry).
    pub epoch: u32,
}

/// Everything an enabled recorder knows, frozen.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Wall time covered, µs since the recorder epoch.
    pub wall_us: u64,
    /// Counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, name-ordered.
    pub histograms: Vec<HistSummary>,
    /// Entry heatmap rows.
    pub entries: Vec<EntryRow>,
    /// Per-(entry, writer) update attribution, (entry, writer)-ordered.
    pub write_heat: Vec<WriterRow>,
    /// Per-(writer, shard) release-destination counts, key-ordered.
    pub release_dests: Vec<ReleaseRow>,
    /// Placement decisions applied by the adaptive engine, in order.
    pub placement: Vec<DecisionRow>,
    /// Events ever recorded (incl. those lost to ring wraparound).
    pub events_recorded: u64,
    /// Events lost to ring wraparound.
    pub events_dropped: u64,
    /// Per-rank ring occupancy: who dropped how much.
    pub ring_drops: Vec<RingDropRow>,
    /// Stall-watchdog firings so far, in firing order.
    pub stalls: Vec<StallReport>,
}

/// Ring statistics of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDropRow {
    /// Endpoint rank.
    pub rank: u32,
    /// Events ever pushed to the rank's ring.
    pub recorded: u64,
    /// Events lost to the rank's ring wrapping.
    pub dropped: u64,
}

impl ObsSnapshot {
    pub(crate) fn build(
        wall_us: u64,
        registry: &Registry,
        heatmap: &Heatmap,
        decisions: &[DecisionRow],
        ring_drops: Vec<RingDropRow>,
        stalls: Vec<StallReport>,
    ) -> ObsSnapshot {
        let histograms = registry
            .histograms()
            .map(|(name, h)| {
                let (p50, p95, p99) = h.quantiles();
                HistSummary {
                    name: name.to_string(),
                    count: h.count(),
                    mean_us: h.mean(),
                    p50_us: p50,
                    p95_us: p95,
                    p99_us: p99,
                    max_us: h.max(),
                }
            })
            .collect();
        let entries = heatmap
            .entries()
            .map(|(entry, e)| EntryRow {
                entry,
                updates_sent: e.updates_sent,
                elems_sent: e.elems_sent,
                bytes_sent: e.bytes_sent,
                updates_applied: e.updates_applied,
                bytes_applied: e.bytes_applied,
            })
            .collect();
        let write_heat = heatmap
            .writers()
            .map(|((entry, writer), w)| WriterRow {
                entry,
                writer,
                updates: w.updates,
                bytes: w.bytes,
            })
            .collect();
        let release_dests = heatmap
            .releases()
            .map(|((writer, shard), releases)| ReleaseRow {
                writer,
                shard,
                releases,
            })
            .collect();
        ObsSnapshot {
            wall_us,
            counters: registry
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: registry.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
            histograms,
            entries,
            write_heat,
            release_dests,
            placement: decisions.to_vec(),
            events_recorded: ring_drops.iter().map(|r| r.recorded).sum(),
            events_dropped: ring_drops.iter().map(|r| r.dropped).sum(),
            ring_drops,
            stalls,
        }
    }

    /// Render the plain-text cluster report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== hdsm-obs cluster report ({:.3} s observed) ==\n",
            self.wall_us as f64 / 1e6
        ));
        out.push_str(&format!(
            "events: {} recorded, {} dropped to ring wraparound\n",
            self.events_recorded, self.events_dropped
        ));
        if self.events_dropped > 0 {
            out.push_str(&format!(
                "!!! WARNING: {} events LOST to ring wraparound — traces and \
                 critical paths are incomplete; raise ObsConfig::ring_capacity\n",
                self.events_dropped
            ));
            for r in self.ring_drops.iter().filter(|r| r.dropped > 0) {
                out.push_str(&format!(
                    "!!!   rank {}: dropped {} of {} recorded\n",
                    r.rank, r.dropped, r.recorded
                ));
            }
        }
        if !self.ring_drops.is_empty() {
            out.push_str("\n-- event rings (per rank) --\n");
            out.push_str("rank   recorded   dropped\n");
            for r in &self.ring_drops {
                out.push_str(&format!(
                    "{:>4} {:>10} {:>9}\n",
                    r.rank, r.recorded, r.dropped
                ));
            }
        }
        if !self.stalls.is_empty() {
            let homes = HomeLayout::from_gauges(|name| {
                self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
            });
            out.push_str("\n-- stall watchdog firings --\n");
            for s in &self.stalls {
                out.push_str(&s.describe(homes));
                out.push('\n');
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\n-- counters --\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<32} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\n-- span latencies (µs) --\n");
            out.push_str(
                "name                 count      mean       p50       p95       p99       max\n",
            );
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<18} {:>7} {:>9.1} {:>9} {:>9} {:>9} {:>9}\n",
                    h.name, h.count, h.mean_us, h.p50_us, h.p95_us, h.p99_us, h.max_us
                ));
            }
        }
        if !self.placement.is_empty() {
            out.push_str("\n-- placement decisions --\n");
            out.push_str("entry    from  to    writer  epoch\n");
            for d in &self.placement {
                out.push_str(&format!(
                    "{:<8} {:<5} {:<5} {:<7} {}\n",
                    d.entry, d.from_shard, d.to_shard, d.writer, d.epoch
                ));
            }
        }
        if !self.write_heat.is_empty() {
            out.push_str("\n-- write heat by (entry, writer) --\n");
            out.push_str("entry    writer  updates       bytes\n");
            for r in &self.write_heat {
                out.push_str(&format!(
                    "{:<8} {:<7} {:>7} {:>11}\n",
                    r.entry, r.writer, r.updates, r.bytes
                ));
            }
        }
        if !self.entries.is_empty() {
            out.push_str("\n-- entry heatmap --\n");
            out.push_str("entry    ups-sent  elems-sent  bytes-sent  ups-appl  bytes-appl\n");
            for e in &self.entries {
                out.push_str(&format!(
                    "{:<8} {:>8} {:>11} {:>11} {:>9} {:>11}\n",
                    e.entry,
                    e.updates_sent,
                    e.elems_sent,
                    e.bytes_sent,
                    e.updates_applied,
                    e.bytes_applied
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heatmap::Heatmap;
    use crate::metrics::Registry;

    fn sample() -> ObsSnapshot {
        let mut reg = Registry::default();
        reg.count("retransmits", 3);
        reg.gauge("workers", 2);
        reg.observe("barrier", 100);
        let mut hm = Heatmap::default();
        hm.update_sent(1, 0, 4, std::iter::once(16));
        let rings = vec![
            RingDropRow {
                rank: 0,
                recorded: 5,
                dropped: 0,
            },
            RingDropRow {
                rank: 2,
                recorded: 5,
                dropped: 1,
            },
        ];
        ObsSnapshot::build(1_500_000, &reg, &hm, &[], rings, Vec::new())
    }

    #[test]
    fn build_totals_the_rings_and_snapshots_compare_by_value() {
        let s = sample();
        assert_eq!((s.events_recorded, s.events_dropped), (10, 1));
        assert_eq!(s.entries[0].bytes_sent, 64);
        assert_eq!(s, sample());
        let mut other = sample();
        other.wall_us += 1;
        assert_ne!(s, other);
    }

    #[test]
    fn report_mentions_every_section() {
        let s = sample();
        let r = s.report();
        assert!(r.contains("event rings"));
        assert!(r.contains("counters"));
        assert!(r.contains("span latencies"));
        assert!(r.contains("write heat by (entry, writer)"));
        assert!(r.contains("entry heatmap"));
    }

    #[test]
    fn drop_warning_is_loud_and_names_ranks() {
        let r = sample().report(); // rank 2 dropped one of its five
        assert!(r.contains("!!! WARNING: 1 events LOST"), "report:\n{r}");
        assert!(r.contains("!!!   rank 2: dropped 1 of 5"), "report:\n{r}");
        // No warning when nothing was dropped.
        let mut clean = sample();
        clean.events_dropped = 0;
        assert!(!clean.report().contains("WARNING"));
    }
}
