//! Abstracting page diffs to application-level indexes (paper §4/§4.2).
//!
//! After `MTh_unlock()` detects writes (twin/diff byte runs), each run is
//! mapped through the index table to `(entry, element-range)` — the
//! architecture-independent form that can travel between heterogeneous
//! nodes. Consecutive element ranges of the same entry are coalesced so
//! "many (hundreds, perhaps thousands) indexes \[distill\] into a single
//! tag" (paper §5, Figure 9 discussion).

use crate::index_table::IndexTable;
use hdsm_memory::diff::DiffRun;

/// A coalesced range of modified elements of one index-table entry.
///
/// This is the portable unit of modification: entry ids and element
/// indexes mean the same thing on every node regardless of architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRange {
    /// Index-table entry.
    pub entry: u32,
    /// First modified element.
    pub first: u64,
    /// Number of modified elements.
    pub count: u64,
}

impl UpdateRange {
    /// One-past-the-last element.
    pub fn end(&self) -> u64 {
        self.first + self.count
    }
}

/// Map byte-level diff runs to element ranges via the index table.
/// Output is sorted by (entry, first), adjacent duplicates folded: a range
/// that repeats, overlaps or abuts the one pushed just before it, in the
/// same entry, extends that one. A store per element of a row stripe is
/// therefore one range, not one per element; ranges that meet only after
/// sorting are left to [`coalesce`].
///
/// Runs in ascending, non-overlapping order — what [`diff_pages`] returns
/// — are mapped by one forward walk over the table's rows, and come out
/// with nothing left for [`coalesce`] to merge. Any other order is
/// accepted: a run that starts before an earlier one ended is
/// looked up by binary search, and the output sorted at the end.
///
/// [`diff_pages`]: hdsm_memory::diff::diff_pages
pub fn map_runs(table: &IndexTable, runs: &[DiffRun]) -> Vec<UpdateRange> {
    let rows = table.rows();
    let mut out: Vec<UpdateRange> = Vec::new();
    // First row that can overlap the current run, and the highest address
    // any run so far has reached.
    let (mut cursor, mut frontier) = (0, 0);
    let mut in_order = true;
    for run in runs {
        let (start, end) = (run.addr, run.end());
        if start < frontier {
            in_order = false;
            cursor = rows.partition_point(|r| r.end() <= start);
        }
        frontier = frontier.max(end);
        while rows.get(cursor).is_some_and(|r| r.end() <= start) {
            cursor += 1;
        }
        for row in rows[cursor..].iter().take_while(|r| r.addr < end) {
            let Some((first, count)) = row.elems_overlapping(start, end) else {
                continue; // an empty run
            };
            match out.last_mut() {
                Some(last)
                    if last.entry == row.entry && (last.first..=last.end()).contains(&first) =>
                {
                    last.count = last.count.max(first + count - last.first);
                }
                _ => out.push(UpdateRange {
                    entry: row.entry,
                    first,
                    count,
                }),
            }
        }
    }
    if !in_order {
        out.sort_by_key(|r| (r.entry, r.first));
    }
    out
}

/// Coalesce sorted ranges: merge overlapping or adjacent element ranges of
/// the same entry (the paper's consecutive-array-element grouping).
pub fn coalesce(mut ranges: Vec<UpdateRange>) -> Vec<UpdateRange> {
    ranges.sort_by_key(|r| (r.entry, r.first));
    let mut out: Vec<UpdateRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if last.entry == r.entry && r.first <= last.end() => {
                let new_end = last.end().max(r.end());
                last.count = new_end - last.first;
            }
            _ => out.push(r),
        }
    }
    out
}

/// The full diff→index abstraction: map then coalesce. This function is
/// the paper's `t_index`-to-`t_tag` boundary — callers time [`map_runs`]
/// under `t_index` and [`coalesce`] (plus tag formation) under `t_tag`.
pub fn abstract_diffs(table: &IndexTable, runs: &[DiffRun]) -> Vec<UpdateRange> {
    coalesce(map_runs(table, runs))
}

/// Whole-entry transfer promotion (paper §4): a page DSM would send the
/// whole page when a diff exceeds a threshold; DSD "cannot perform
/// optimizations at the level of the page" but "can transfer and
/// convert/memcpy() large arrays quickly by dealing with them as a
/// whole". When the ranges of one entry cover more than
/// `threshold_percent` of its elements, they are replaced by a single
/// full-entry range — fewer tags, one contiguous conversion/memcpy, at
/// the cost of shipping some unmodified elements.
///
/// Input must be coalesced (sorted, disjoint); the output is too.
pub fn promote_ranges(
    table: &IndexTable,
    ranges: Vec<UpdateRange>,
    threshold_percent: u8,
) -> Vec<UpdateRange> {
    assert!(threshold_percent <= 100);
    if threshold_percent >= 100 || ranges.is_empty() {
        return ranges;
    }
    let mut out: Vec<UpdateRange> = Vec::with_capacity(ranges.len());
    let mut i = 0;
    while i < ranges.len() {
        let entry = ranges[i].entry;
        let mut j = i;
        let mut covered: u64 = 0;
        while j < ranges.len() && ranges[j].entry == entry {
            covered += ranges[j].count;
            j += 1;
        }
        let total = table.row(entry).map(|r| r.count).unwrap_or(0);
        if total > 0 && covered * 100 >= total * u64::from(threshold_percent) {
            out.push(UpdateRange {
                entry,
                first: 0,
                count: total,
            });
        } else {
            out.extend_from_slice(&ranges[i..j]);
        }
        i = j;
    }
    out
}

/// The `map_runs` this module started with — a binary search and a `Vec`
/// per run, one range per row a run touches, a sort of everything at the
/// end — kept as the reference [`map_runs`] is held to.
#[cfg(test)]
fn map_runs_reference(table: &IndexTable, runs: &[DiffRun]) -> Vec<UpdateRange> {
    fn rows_overlapping(table: &IndexTable, start: u64, end: u64) -> Vec<(u32, u64, u64)> {
        let rows = table.rows();
        let mut out = Vec::new();
        if end <= start {
            return out;
        }
        // First row that could overlap: last row with addr <= start, else 0.
        let mut idx = rows.partition_point(|r| r.addr <= start);
        idx = idx.saturating_sub(1);
        while idx < rows.len() {
            let row = &rows[idx];
            if row.addr >= end {
                break;
            }
            let ov_start = start.max(row.addr);
            let ov_end = end.min(row.end());
            if ov_start < ov_end {
                let first = (ov_start - row.addr) / u64::from(row.size);
                let last = (ov_end - 1 - row.addr) / u64::from(row.size);
                out.push((row.entry, first, last - first + 1));
            }
            idx += 1;
        }
        out
    }
    let mut out = Vec::new();
    for run in runs {
        for (entry, first, count) in rows_overlapping(table, run.addr, run.end()) {
            out.push(UpdateRange {
                entry,
                first,
                count,
            });
        }
    }
    out.sort_by_key(|r| (r.entry, r.first));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_table::IndexTable;
    use hdsm_platform::ctype::{paper_figure4_struct, CType, StructBuilder};
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::PlatformSpec;
    use proptest::prelude::*;

    const BASE: u64 = 0x4005_8000;

    fn table() -> IndexTable {
        IndexTable::build(
            &CType::Struct(paper_figure4_struct()),
            BASE,
            &PlatformSpec::linux_x86(),
        )
    }

    #[test]
    fn single_element_write() {
        let t = table();
        let a10 = t.row(1).unwrap().elem_addr(10);
        let runs = vec![DiffRun { addr: a10, len: 4 }];
        assert_eq!(
            abstract_diffs(&t, &runs),
            vec![UpdateRange {
                entry: 1,
                first: 10,
                count: 1
            }]
        );
    }

    #[test]
    fn partial_byte_write_promotes_to_element() {
        let t = table();
        let a10 = t.row(1).unwrap().elem_addr(10);
        // One byte inside the element → whole element ships.
        let runs = vec![DiffRun {
            addr: a10 + 2,
            len: 1,
        }];
        assert_eq!(
            abstract_diffs(&t, &runs),
            vec![UpdateRange {
                entry: 1,
                first: 10,
                count: 1
            }]
        );
    }

    #[test]
    fn run_spanning_entries_splits() {
        let t = table();
        let start = t.row(1).unwrap().elem_addr(56168);
        let runs = vec![DiffRun {
            addr: start,
            len: 12,
        }]; // last elem of A + first 2 of B
        assert_eq!(
            abstract_diffs(&t, &runs),
            vec![
                UpdateRange {
                    entry: 1,
                    first: 56168,
                    count: 1
                },
                UpdateRange {
                    entry: 2,
                    first: 0,
                    count: 2
                },
            ]
        );
    }

    #[test]
    fn scattered_writes_coalesce_when_adjacent() {
        let t = table();
        let a = t.row(1).unwrap().clone();
        let runs = vec![
            DiffRun {
                addr: a.elem_addr(5),
                len: 4,
            },
            DiffRun {
                addr: a.elem_addr(6),
                len: 4,
            },
            DiffRun {
                addr: a.elem_addr(100),
                len: 8,
            },
        ];
        assert_eq!(
            abstract_diffs(&t, &runs),
            vec![
                UpdateRange {
                    entry: 1,
                    first: 5,
                    count: 2
                },
                UpdateRange {
                    entry: 1,
                    first: 100,
                    count: 2
                },
            ]
        );
    }

    #[test]
    fn thousands_of_indexes_one_range() {
        // The paper's headline coalescing case: a full row of C written,
        // thousands of element indexes → a single range/tag.
        let t = table();
        let c = t.row(3).unwrap().clone();
        let runs = vec![DiffRun {
            addr: c.addr,
            len: (4 * 56169) as usize,
        }];
        let out = abstract_diffs(&t, &runs);
        assert_eq!(
            out,
            vec![UpdateRange {
                entry: 3,
                first: 0,
                count: 56169
            }]
        );
    }

    #[test]
    fn overlapping_ranges_merge() {
        let merged = coalesce(vec![
            UpdateRange {
                entry: 0,
                first: 0,
                count: 10,
            },
            UpdateRange {
                entry: 0,
                first: 5,
                count: 10,
            },
            UpdateRange {
                entry: 1,
                first: 0,
                count: 1,
            },
        ]);
        assert_eq!(
            merged,
            vec![
                UpdateRange {
                    entry: 0,
                    first: 0,
                    count: 15
                },
                UpdateRange {
                    entry: 1,
                    first: 0,
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn different_entries_never_merge() {
        let merged = coalesce(vec![
            UpdateRange {
                entry: 0,
                first: 0,
                count: 1,
            },
            UpdateRange {
                entry: 1,
                first: 0,
                count: 1,
            },
        ]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn empty_runs_empty_ranges() {
        let t = table();
        assert!(abstract_diffs(&t, &[]).is_empty());
        assert!(coalesce(vec![]).is_empty());
    }

    #[test]
    fn promotion_threshold_behaviour() {
        let t = table();
        // 60% of A modified in two chunks.
        let a_total = t.row(1).unwrap().count;
        let chunk = (a_total * 3) / 10;
        let ranges = vec![
            UpdateRange {
                entry: 1,
                first: 0,
                count: chunk,
            },
            UpdateRange {
                entry: 1,
                first: a_total / 2,
                count: chunk,
            },
            UpdateRange {
                entry: 4,
                first: 0,
                count: 1,
            },
        ];
        // Threshold 50%: A promoted to a single full-entry range; the
        // scalar entry n is left alone.
        let promoted = promote_ranges(&t, ranges.clone(), 50);
        assert_eq!(
            promoted,
            vec![
                UpdateRange {
                    entry: 1,
                    first: 0,
                    count: a_total
                },
                UpdateRange {
                    entry: 4,
                    first: 0,
                    count: 1
                },
            ]
        );
        // Threshold 70%: coverage (60%) below threshold — unchanged.
        assert_eq!(promote_ranges(&t, ranges.clone(), 70), ranges);
        // Threshold 100%: promotion disabled.
        assert_eq!(promote_ranges(&t, ranges.clone(), 100), ranges);
    }

    #[test]
    fn promotion_full_entry_is_idempotent() {
        let t = table();
        let full = vec![UpdateRange {
            entry: 2,
            first: 0,
            count: t.row(2).unwrap().count,
        }];
        assert_eq!(promote_ranges(&t, full.clone(), 10), full);
    }

    #[test]
    fn unsorted_input_is_sorted_and_coalesced() {
        let merged = coalesce(vec![
            UpdateRange {
                entry: 0,
                first: 10,
                count: 5,
            },
            UpdateRange {
                entry: 0,
                first: 0,
                count: 10,
            },
        ]);
        assert_eq!(
            merged,
            vec![UpdateRange {
                entry: 0,
                first: 0,
                count: 15
            }]
        );
    }
    #[test]
    fn a_store_per_element_of_a_stripe_maps_to_one_range() {
        // Three of an int's four bytes changed in each of 100 consecutive
        // elements: 100 runs, ranges that abut — one range out.
        let t = table();
        let a = t.row(1).unwrap();
        let runs: Vec<DiffRun> = (40..140)
            .map(|e| DiffRun {
                addr: a.elem_addr(e),
                len: 3,
            })
            .collect();
        let one = vec![UpdateRange {
            entry: 1,
            first: 40,
            count: 100,
        }];
        assert_eq!(map_runs(&t, &runs), one);
        assert_eq!(map_runs_reference(&t, &runs).len(), 100);
        // Two runs inside one element repeat its range.
        let twice = [
            DiffRun {
                addr: a.elem_addr(7),
                len: 1,
            },
            DiffRun {
                addr: a.elem_addr(7) + 2,
                len: 1,
            },
        ];
        assert_eq!(map_runs(&t, &twice).len(), 1);
    }

    /// The Fig. 4 struct, and eight `{char; double}` back to back (3 or 7
    /// padding bytes after every `char`), on the paper's two platforms and
    /// the LP64 one where the pointer row grows.
    fn tables() -> Vec<IndexTable> {
        let padded = StructBuilder::new("P")
            .scalar("c", ScalarKind::Char)
            .scalar("d", ScalarKind::Double)
            .build()
            .unwrap();
        let padded = StructBuilder::new("Ps")
            .field("p", CType::array(CType::Struct(padded), 8))
            .build()
            .unwrap();
        let types = [CType::Struct(paper_figure4_struct()), CType::Struct(padded)];
        let platforms = [
            PlatformSpec::linux_x86(),
            PlatformSpec::solaris_sparc(),
            PlatformSpec::solaris_sparc64(),
        ];
        types
            .iter()
            .flat_map(|ty| platforms.iter().map(|p| IndexTable::build(ty, BASE, p)))
            .collect()
    }

    proptest! {
        #[test]
        fn map_runs_matches_the_reference_in_any_order(
            // (row, offset from that row's start or end, length, stretch):
            // runs cluster on row seams and padding; one in eight is long
            // enough to cross whole rows.
            picks in prop::collection::vec(
                (0usize..64, -24i64..24, 0usize..80, 0usize..8),
                0..40,
            ),
        ) {
            for t in tables() {
                let rows = t.rows();
                let shuffled: Vec<DiffRun> = picks
                    .iter()
                    .map(|&(row, delta, len, stretch)| {
                        let r = &rows[(row / 2) % rows.len()];
                        let anchor = if row % 2 == 0 { r.addr } else { r.end() };
                        DiffRun {
                            addr: anchor.saturating_add_signed(delta),
                            len: if stretch == 0 { len * 5000 } else { len },
                        }
                    })
                    .collect();
                // Ascending starts, overlaps kept.
                let mut overlapping = shuffled.clone();
                overlapping.sort_by_key(|r| r.addr);
                // Ascending and disjoint, as `diff_pages` returns them.
                let mut sorted: Vec<DiffRun> = Vec::new();
                for r in &overlapping {
                    let from = sorted.last().map_or(0, |p| p.end()).max(r.addr);
                    if from < r.end() {
                        sorted.push(DiffRun { addr: from, len: (r.end() - from) as usize });
                    }
                }
                for runs in [&shuffled, &overlapping, &sorted] {
                    let mapped = map_runs(&t, runs);
                    prop_assert!(mapped.is_sorted_by_key(|r| (r.entry, r.first)), "{mapped:?}");
                    prop_assert_eq!(
                        coalesce(mapped),
                        coalesce(map_runs_reference(&t, runs))
                    );
                }
            }
        }
    }
}
