//! Per-index-entry update heatmap and the placement signals.
//!
//! The paper's Figure 9 story — "thousands of indexes distill into one
//! tag" — is reproduced here as data: every update batch feeds the entry
//! map (which index entries ship how many updates, elements and bytes),
//! one charge per run of ranges or run group that shares an entry. The
//! resulting tables show at a glance where sharing traffic concentrates,
//! and the placement engine plans from them. The map is charged through
//! [`crate::Recorder::heat`], under one lock per batch.

use std::collections::BTreeMap;

/// Accumulated update traffic for one index-table entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryStats {
    /// Update frames shipped for this entry.
    pub updates_sent: u64,
    /// Elements covered by shipped updates.
    pub elems_sent: u64,
    /// Payload bytes shipped for this entry.
    pub bytes_sent: u64,
    /// Update frames applied to this entry.
    pub updates_applied: u64,
    /// Payload bytes applied to this entry.
    pub bytes_applied: u64,
}

/// Accumulated update traffic one writer rank generated for one entry —
/// the placement engine's "dominant writer" signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Update frames this writer shipped for the entry.
    pub updates: u64,
    /// Payload bytes this writer shipped for the entry.
    pub bytes: u64,
}

/// The update maps together: per-entry, and the two placement signals
/// (per-(entry, writer) update attribution and per-(writer, shard)
/// completed release-class sync operations).
#[derive(Debug, Default)]
pub struct Heatmap {
    entries: BTreeMap<u32, EntryStats>,
    writers: BTreeMap<(u32, u32), WriterStats>,
    releases: BTreeMap<(u32, u32), u64>,
}

impl Heatmap {
    /// Writer `writer` shipped one update of each element count in
    /// `counts` for `entry`, `elem_bytes` payload bytes per element:
    /// charges the entry row and the per-(entry, writer) attribution
    /// table, the placement engine's "dominant writer" signal.
    pub fn update_sent(
        &mut self,
        entry: u32,
        writer: u32,
        elem_bytes: u64,
        counts: impl Iterator<Item = u64>,
    ) {
        let e = self.entries.entry(entry).or_default();
        let (updates, elems) = counts.fold((0, 0), |(n, sum), count| (n + 1, sum + count));
        let bytes = elems * elem_bytes;
        e.updates_sent += updates;
        e.elems_sent += elems;
        e.bytes_sent += bytes;
        let w = self.writers.entry((entry, writer)).or_default();
        w.updates += updates;
        w.bytes += bytes;
    }

    /// `updates` updates for `entry`, `bytes` payload bytes in all, were
    /// applied (a run group's runs share an entry).
    pub fn update_applied(&mut self, entry: u32, updates: u64, bytes: u64) {
        let e = self.entries.entry(entry).or_default();
        e.updates_applied += updates;
        e.bytes_applied += bytes;
    }

    /// Entry map, entry-ordered.
    pub fn entries(&self) -> impl Iterator<Item = (u32, EntryStats)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }

    /// Statistics for one entry.
    pub fn entry(&self, entry: u32) -> Option<EntryStats> {
        self.entries.get(&entry).copied()
    }

    /// Writer `writer` completed a release-class sync operation (unlock,
    /// barrier enter, cond wait) homed at `shard`.
    pub fn release_to(&mut self, writer: u32, shard: u32) {
        *self.releases.entry((writer, shard)).or_default() += 1;
    }

    /// Per-(entry, writer) update attribution, (entry, writer)-ordered.
    pub fn writers(&self) -> impl Iterator<Item = ((u32, u32), WriterStats)> + '_ {
        self.writers.iter().map(|(k, v)| (*k, *v))
    }

    /// Per-(writer, shard) completed sync-op counts, key-ordered.
    pub fn releases(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.releases.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_rows_count_updates_elements_and_bytes() {
        let mut h = Heatmap::default();
        h.update_sent(0, 7, 8, [5, 3].into_iter());
        h.update_applied(0, 1, 64);
        let e = h.entry(0).unwrap();
        assert_eq!(e.updates_sent, 2);
        assert_eq!(e.elems_sent, 8);
        assert_eq!(e.bytes_sent, 64);
        assert_eq!(e.updates_applied, 1);
        assert_eq!(e.bytes_applied, 64);
        // The same charge attributes the updates to their writer.
        let writers: Vec<_> = h.writers().collect();
        assert_eq!(
            writers,
            vec![(
                (0, 7),
                WriterStats {
                    updates: 2,
                    bytes: 64
                }
            )]
        );
    }

    #[test]
    fn untouched_entry_is_absent() {
        let h = Heatmap::default();
        assert!(h.entry(5).is_none());
    }
}
