//! Abstracting page diffs to application-level indexes (paper §4/§4.2).
//!
//! In the paper, `MTh_unlock()` detects writes by diffing pages, and each
//! one is mapped through the index table to `(entry, element-range)` — the
//! architecture-independent form that can travel between heterogeneous
//! nodes. Consecutive element ranges of the same entry are coalesced so
//! "many (hundreds, perhaps thousands) indexes \[distill\] into a single
//! tag" (paper §5, Figure 9 discussion).
//!
//! The DSD client does not take that route: its store accessors record the
//! element ranges they write (`client`'s write set), which is the same
//! form, already coalesced. The routes from twins to ranges stay as what
//! that record is tested against, and they agree on every input:
//!
//! * [`scan_ranges`]: one pass over each dirty page, directed by the index
//!   table, comparing twin against page one *element* at a time and
//!   emitting ranges directly. The write set equals it wherever no store
//!   wrote the value the element already held, and holds it otherwise;
//! * [`abstract_diffs`] over [`diff_pages`]' byte runs ([`map_runs`] then
//!   [`coalesce`]), the paper-literal two steps: the oracle the scan is
//!   held to, and what a caller that already has byte runs (the page-DSM
//!   baseline, the stage replay) maps them with.
//!
//! [`diff_pages`]: hdsm_memory::diff::diff_pages

use crate::index_table::{IndexRow, IndexTable};
use crate::interval::IntervalSet;
use hdsm_memory::diff::{diff_elems, DiffRun};
use hdsm_memory::AddressSpace;

/// A coalesced range of modified elements of one index-table entry:
/// elements `first + k·stride` for `k < count`, one update when dense
/// (stride 1), else one an element ([`hdsm_tags::wire::fold_rows`]).
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
    /// Distance from one element to the next; 1 when dense.
    pub stride: u64,
}

impl UpdateRange {
    /// The dense range of `count` elements from `first` on.
    pub const fn new(entry: u32, first: u64, count: u64) -> UpdateRange {
        UpdateRange::row(entry, (first, count, 1))
    }

    /// The frame's row `(first, count, stride)` of `entry`.
    pub const fn row(entry: u32, (first, count, stride): (u64, u64, u64)) -> UpdateRange {
        UpdateRange {
            entry,
            first,
            count,
            stride,
        }
    }

    /// One past the last element: the end of the range's hull.
    pub fn end(&self) -> u64 {
        match self.stride {
            1 => self.first + self.count,
            s => self.first + (self.count - 1) * s + 1,
        }
    }

    /// The updates the range is: one when dense, one an element otherwise.
    pub fn updates(&self) -> u64 {
        1 + (self.count - 1) * u64::from(self.stride > 1)
    }

    /// The range as dense spans, ascending: itself when dense, one span an
    /// element otherwise.
    pub fn spans(self) -> impl Iterator<Item = (u64, u64)> {
        (0..self.updates()).map(move |k| match self.stride {
            1 => (self.first, self.end()),
            s => (self.first + k * s, self.first + k * s + 1),
        })
    }

    /// Its elements `first + k·stride` for `k` in `[from, to)`, as a range;
    /// `None` when that is empty.
    pub fn slice(&self, from: u64, to: u64) -> Option<UpdateRange> {
        (from < to).then(|| UpdateRange {
            first: self.first + from * self.stride,
            count: to - from,
            ..*self
        })
    }

    /// How many of its elements lie below `x`.
    pub fn below(&self, x: u64) -> u64 {
        let (d, s) = (x.saturating_sub(self.first), self.stride);
        let d = if s == 1 { d } else { d.div_ceil(s) };
        d.min(self.count)
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
            push_folded(&mut out, row.entry, first, count);
        }
    }
    if !in_order {
        out.sort_by_key(|r| (r.entry, r.first));
    }
    out
}

/// Append elements `[first, first + count)` of `entry` to `out`, extending
/// the last range in place when they start inside it or right after it.
#[inline]
fn push_folded(out: &mut Vec<UpdateRange>, entry: u32, first: u64, count: u64) {
    match out.last_mut() {
        Some(last) if last.entry == entry && (last.first..=last.end()).contains(&first) => {
            last.count = last.count.max(first + count - last.first);
        }
        _ => out.push(UpdateRange::new(entry, first, count)),
    }
}

/// Write detection straight to index ranges: compare every dirty page of
/// `space` against its twin and return the modified elements as ranges,
/// sorted by (entry, first), disjoint and maximal — element for element
/// what `coalesce(map_runs(table, &diff_pages(space)))` returns.
///
/// Each dirty page is passed over once. The table rows that overlap it are
/// walked with one forward cursor, and the bytes of each row on the page
/// compared at that row's element size ([`diff_elems`]): a differing
/// element extends the open range, an equal one closes it, and a range
/// that abuts the previous one of its entry — across a page seam, or
/// through an element that straddles one (`linux_x86` aligns doubles to 4)
/// — extends it in place. An element ships whole iff one of its bytes
/// differs, as in the byte-granular design; padding is never compared,
/// because no row covers it.
pub fn scan_ranges(table: &IndexTable, space: &AddressSpace) -> Vec<UpdateRange> {
    let rows = table.rows();
    let mut out = Vec::new();
    // First row that can reach the current page.
    let mut cursor = 0;
    for page in space.dirty_pages() {
        let twin = space
            .twin(page)
            .expect("dirty page always has a twin (fault handler invariant)");
        let current = space.page(page);
        let page_addr = space.page_addr(page);
        let page_end = page_addr + current.len() as u64;
        cursor += rows[cursor..].partition_point(|r| r.end() <= page_addr);
        for row in rows[cursor..].iter().take_while(|r| r.addr < page_end) {
            scan_row(row, page_addr, twin, current, &mut out);
        }
    }
    out
}

/// Compare the bytes of `row` on one page (`twin` and `current`, at
/// `page_addr`) and fold its changed elements into `out`.
fn scan_row(
    row: &IndexRow,
    page_addr: u64,
    twin: &[u8],
    current: &[u8],
    out: &mut Vec<UpdateRange>,
) {
    let size = u64::from(row.size);
    // The row's bytes on this page, `[from, to)`, counted from its first.
    let from = page_addr.max(row.addr) - row.addr;
    let to = (page_addr + current.len() as u64).min(row.end()) - row.addr;
    if from >= to {
        return; // a row of no elements
    }
    let at = |row_byte: u64| (row.addr + row_byte - page_addr) as usize;
    let differs = |a: u64, b: u64| twin[at(a)..at(b)] != current[at(a)..at(b)];
    // Elements `[whole_from, whole_to)` lie on the page whole. An element
    // that straddles the seam before them or after them is compared over
    // the bytes it has here; the neighbouring page, if dirty, sees the rest.
    let (whole_from, whole_to) = (from.div_ceil(size), to / size);
    let head_end = (whole_from * size).min(to);
    if from < head_end && differs(from, head_end) {
        push_folded(out, row.entry, from / size, 1);
    }
    if whole_from < whole_to {
        let (a, b) = (at(whole_from * size), at(whole_to * size));
        diff_elems(
            &twin[a..b],
            &current[a..b],
            row.size as usize,
            |first, count| push_folded(out, row.entry, whole_from + first as u64, count as u64),
        );
    }
    let tail = whole_to * size;
    if whole_from <= whole_to && tail < to && differs(tail, to) {
        push_folded(out, row.entry, whole_to, 1);
    }
}

/// Coalesce ranges: sort them and merge overlapping or adjacent element
/// ranges of the same entry (the paper's consecutive-array-element
/// grouping). Ranges whose hulls meet are their elements refolded as an
/// `IntervalSet`'s rows; a range no other meets passes as it is. So the
/// ranges come out ascending with a gap after each, and the frame folds
/// them into the rows of their elements' maximal dense runs.
pub fn coalesce(mut ranges: Vec<UpdateRange>) -> Vec<UpdateRange> {
    ranges.sort_by_key(|r| (r.entry, r.first));
    let mut out: Vec<UpdateRange> = Vec::with_capacity(ranges.len());
    let mut rest = &ranges[..];
    while let Some(r) = rest.first() {
        // The ranges after `r` whose hulls meet those before them.
        let (mut n, mut end) = (1, r.end());
        while let Some(q) = rest.get(n).filter(|q| q.entry == r.entry && q.first <= end) {
            (n, end) = (n + 1, end.max(q.end()));
        }
        let (met, more) = rest.split_at(n);
        rest = more;
        if n == 1 {
            out.push(*r);
            continue;
        }
        let mut set = IntervalSet::default();
        set.extend(met.iter().copied());
        out.extend(set.rows().map(|row| UpdateRange::row(r.entry, row)));
    }
    out
}

/// The full diff→index abstraction of byte runs: map then coalesce, the
/// paper's two steps taken literally. The DSD client does not call it —
/// its release ships its write set — and [`scan_ranges`] is held to it:
/// over [`diff_pages`]' runs the two return the same ranges.
///
/// [`diff_pages`]: hdsm_memory::diff::diff_pages
pub fn abstract_diffs(table: &IndexTable, runs: &[DiffRun]) -> Vec<UpdateRange> {
    coalesce(map_runs(table, runs))
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
            out.push(UpdateRange::new(entry, first, count));
        }
    }
    out.sort_by_key(|r| (r.entry, r.first));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DsdClient;
    use crate::gthv::{GthvDef, GthvInstance};
    use crate::index_table::IndexTable;
    use hdsm_memory::diff::diff_pages;
    use hdsm_net::endpoint::Network;
    use hdsm_net::stats::NetConfig;
    use hdsm_platform::ctype::{paper_figure4_struct, CType, StructBuilder};
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::{Platform, PlatformSpec};
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
        assert_eq!(abstract_diffs(&t, &runs), vec![UpdateRange::new(1, 10, 1)]);
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
        assert_eq!(abstract_diffs(&t, &runs), vec![UpdateRange::new(1, 10, 1)]);
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
            vec![UpdateRange::new(1, 56168, 1), UpdateRange::new(2, 0, 2),]
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
            vec![UpdateRange::new(1, 5, 2), UpdateRange::new(1, 100, 2),]
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
        assert_eq!(out, vec![UpdateRange::new(3, 0, 56169)]);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let merged = coalesce(vec![
            UpdateRange::new(0, 0, 10),
            UpdateRange::new(0, 5, 10),
            UpdateRange::new(1, 0, 1),
        ]);
        assert_eq!(
            merged,
            vec![UpdateRange::new(0, 0, 15), UpdateRange::new(1, 0, 1),]
        );
    }

    #[test]
    fn coalesced_strided_ranges_frame_as_their_elements_dense_runs() {
        use hdsm_tags::wire::fold_rows;
        let mut seed = 0xC0A1_E5CEu64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let rows = |ranges: &[UpdateRange]| {
            let mut rows = Vec::new();
            let runs = ranges.iter().map(|r| (r.first, r.count, r.stride));
            fold_rows(runs, |row| rows.push(row));
            rows
        };
        for _ in 0..2000 {
            let ranges: Vec<UpdateRange> = (0..next(7))
                .map(|_| UpdateRange {
                    stride: 1 + next(3),
                    ..UpdateRange::new(0, next(60), 1 + next(9))
                })
                .collect();
            let mut bits = [false; 90];
            let elems = |r: &UpdateRange| r.spans().flat_map(|(a, b)| a..b).collect::<Vec<_>>();
            ranges
                .iter()
                .flat_map(elems)
                .for_each(|e| bits[e as usize] = true);
            let out = coalesce(ranges.clone());
            // The same elements, ascending, a gap after every range.
            let mut got = [false; 90];
            out.iter()
                .flat_map(elems)
                .for_each(|e| got[e as usize] = true);
            assert_eq!(got, bits, "{ranges:?}");
            assert!(out.windows(2).all(|w| w[0].end() < w[1].first), "{out:?}");
            // The frame folds them as it folds the maximal dense runs.
            let mut dense: Vec<UpdateRange> = Vec::new();
            for e in (0..90).filter(|&e| bits[e as usize]) {
                match dense.last_mut() {
                    Some(d) if d.end() == e => d.count += 1,
                    _ => dense.push(UpdateRange::new(0, e, 1)),
                }
            }
            assert_eq!(rows(&out), rows(&dense), "{ranges:?}");
            // Dense ranges in, the maximal dense runs out.
            let exact: Vec<UpdateRange> =
                ranges.iter().filter(|r| r.stride == 1).copied().collect();
            assert!(coalesce(exact).iter().all(|r| r.stride == 1));
        }
    }

    #[test]
    fn different_entries_never_merge() {
        let merged = coalesce(vec![UpdateRange::new(0, 0, 1), UpdateRange::new(1, 0, 1)]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn empty_runs_empty_ranges() {
        let t = table();
        assert!(abstract_diffs(&t, &[]).is_empty());
        assert!(coalesce(vec![]).is_empty());
    }

    #[test]
    fn unsorted_input_is_sorted_and_coalesced() {
        let merged = coalesce(vec![UpdateRange::new(0, 10, 5), UpdateRange::new(0, 0, 10)]);
        assert_eq!(merged, vec![UpdateRange::new(0, 0, 15)]);
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
        let one = vec![UpdateRange::new(1, 40, 100)];
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

    /// Ints, then doubles from byte 60: `linux_x86` aligns them to 4, so
    /// one of `d` straddles every page seam it reaches (`d[0]` the first
    /// 64-byte one, `d[1016]` the 8192-byte one); then a byte of padding
    /// between `c` and `s`.
    fn straddling_struct(doubles: usize) -> CType {
        let def = StructBuilder::new("M")
            .array("a", ScalarKind::Int, 15)
            .array("d", ScalarKind::Double, doubles)
            .array("c", ScalarKind::Char, 5)
            .array("s", ScalarKind::Short, 3)
            .array("e", ScalarKind::Double, 3)
            .build()
            .unwrap();
        CType::Struct(def)
    }

    /// The Fig. 4 struct, eight `{char; double}` back to back (3 or 7
    /// padding bytes after every `char`) and [`straddling_struct`], on the
    /// paper's two platforms and the LP64 one where the pointer row grows.
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
        let types = [
            CType::Struct(paper_figure4_struct()),
            CType::Struct(padded),
            straddling_struct(1100),
        ];
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

    /// A space laid over `t` with `page`-byte pages, every byte non-zero,
    /// armed.
    fn armed_space(t: &IndexTable, page: usize) -> AddressSpace {
        let mut s = AddressSpace::new(t.base(), t.total_size() as usize, page);
        let fill: Vec<u8> = (0..s.len()).map(|k| (k % 251) as u8 | 1).collect();
        s.write_untracked(t.base(), &fill).unwrap();
        s.protect_all();
        s
    }

    /// The scan against the oracle it replaced in the client.
    fn assert_scan_matches_oracle(t: &IndexTable, s: &AddressSpace, what: &str) {
        assert_eq!(
            scan_ranges(t, s),
            abstract_diffs(t, &diff_pages(s)),
            "{what}, {}-byte pages",
            s.page_size()
        );
    }

    #[test]
    fn every_byte_run_across_a_seam_an_element_straddles_matches_the_oracle() {
        // Two 64-byte pages: `d[0]` straddles their seam, `c` ends at 97
        // and `s` starts at 98, `e` fills the second page.
        let t = IndexTable::build(&straddling_struct(4), 0x1000, &PlatformSpec::linux_x86());
        assert_eq!(t.total_size(), 128);
        assert_eq!(
            (t.rows()[1].addr, t.rows()[3].addr),
            (0x1000 + 60, 0x1000 + 98)
        );
        for start in 0..128u64 {
            for end in start + 1..=128 {
                let mut s = armed_space(&t, 64);
                let old = s.read(0x1000 + start, (end - start) as usize).unwrap();
                let new: Vec<u8> = old.iter().map(|b| !b).collect();
                s.write(0x1000 + start, &new).unwrap();
                assert_scan_matches_oracle(&t, &s, &format!("bytes [{start}, {end})"));
            }
        }
        // The straddling element, changed on one side of the seam only, with
        // the other side's page dirty as well and then clean.
        for (side, other_dirty) in [(62, true), (62, false), (66, true), (66, false)] {
            let mut s = armed_space(&t, 64);
            s.write(0x1000 + side, &[0]).unwrap();
            if other_dirty {
                let byte = s.read(0x1000 + 128 - side, 1).unwrap().to_vec();
                s.write(0x1000 + 128 - side, &byte).unwrap();
            }
            assert_scan_matches_oracle(&t, &s, "one side of the seam");
            let d0 = UpdateRange::new(1, 0, 1);
            assert_eq!(scan_ranges(&t, &s), vec![d0]);
        }
    }

    proptest! {
        #[test]
        fn scan_ranges_matches_the_byte_granular_oracle(
            page in prop::sample::select(vec![64usize, 512, 4096, 8192]),
            // (row and anchor, offset from the anchor, length, stretch,
            // what is written): writes cluster on row seams, padding and
            // the first page seam inside a row; one in eight is long enough
            // to cross whole rows and pages.
            writes in prop::collection::vec(
                (0usize..96, -24i64..24, 1usize..80, 0usize..8, 0u8..4),
                0..24,
            ),
        ) {
            for t in tables() {
                let rows = t.rows();
                let mut s = armed_space(&t, page);
                let pristine = s.raw().to_vec();
                let (base, len) = (t.base(), s.len() as u64);
                for &(row, delta, n, stretch, mode) in &writes {
                    let r = &rows[(row / 3) % rows.len()];
                    let anchor = match row % 3 {
                        0 => r.addr,
                        1 => r.end(),
                        _ => r.addr.next_multiple_of(page as u64),
                    };
                    let at = anchor.saturating_add_signed(delta).clamp(base, base + len - 1);
                    let n = if stretch == 0 { n * 700 } else { n };
                    let n = n.min((base + len - at) as usize);
                    let off = (at - base) as usize;
                    let data: Vec<u8> = match mode {
                        // Every byte changes.
                        0 => s.raw()[off..off + n].iter().map(|b| !b).collect(),
                        // One bit of one byte in five: partial elements.
                        1 => s.raw()[off..off + n]
                            .iter()
                            .enumerate()
                            .map(|(k, b)| if k % 5 == 0 { b ^ 0x10 } else { *b })
                            .collect(),
                        // The bytes already there: a dirty page, no change.
                        2 => s.raw()[off..off + n].to_vec(),
                        // The original value back, over whatever was written.
                        _ => pristine[off..off + n].to_vec(),
                    };
                    s.write(at, &data).unwrap();
                }
                assert_scan_matches_oracle(&t, &s, "random writes");
            }
        }

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

    /// Entries of every width the oracle test stores to: chars, ints across
    /// a page seam, doubles, pointers and one `long`.
    fn store_def() -> GthvDef {
        GthvDef::new(
            StructBuilder::new("S")
                .array("cs", ScalarKind::Char, 50)
                .array("xs", ScalarKind::Int, 1500)
                .array("ds", ScalarKind::Double, 300)
                .array("ps", ScalarKind::Ptr, 8)
                .scalar("flag", ScalarKind::Long)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    /// The copy every store sequence starts from: each number even, each
    /// pointer NULL. A store that is not silent writes an odd number or a
    /// pointer.
    fn even_copy(platform: &Platform) -> GthvInstance {
        let mut g = GthvInstance::new(store_def(), platform.clone());
        for (entry, count) in [(0, 50), (1, 1500), (4, 1)] {
            for i in 0..count {
                g.write_int(entry, i, 2 * (i % 50) as i128).unwrap();
            }
        }
        for i in 0..300 {
            g.write_float(2, i, 2.0 * i as f64).unwrap();
        }
        g
    }

    #[test]
    fn the_write_set_is_the_twin_scan_but_for_silent_stores() {
        let mut seed = 0x0051_1E57_u64;
        let mut next = move |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let mut strict = 0;
        for platform in PlatformSpec::presets() {
            for round in 0..60 {
                // The oracle: the same stores on a copy armed as a page DSM
                // arms it, whose twins say what changed.
                let mut armed = even_copy(&platform);
                armed.space_mut().protect_all();
                let (_net, mut eps) = Network::new(1, NetConfig::instant());
                let mut c = DsdClient::new(1, eps.remove(0), even_copy(&platform));
                let (may_be_silent, mut silent) = (round % 2 == 1, false);
                let (mut last, mut last_n) = (0u64, 1u64);
                for _ in 0..1 + next(40) {
                    let entry = next(5) as u32;
                    let count = [50, 1500, 300, 8, 1][entry as usize];
                    let n = match (entry, next(2)) {
                        (3 | 4, _) | (_, 0) => 1, // a scalar accessor
                        _ => 1 + next(12),
                    };
                    // Ascending, descending, repeated, or anywhere — past
                    // the end now and then, which stores nothing.
                    let first = match next(4) {
                        0 => last + last_n,
                        1 => last.saturating_sub(n),
                        2 => last,
                        _ => next(count + 4),
                    };
                    (last, last_n) = (first, n);
                    let mut quiet = || {
                        let q = may_be_silent && next(3) == 0;
                        silent |= q;
                        q
                    };
                    let done = match entry {
                        2 => {
                            let vals: Vec<f64> = (first..first + n)
                                .map(|i| {
                                    if quiet() {
                                        2.0 * i as f64
                                    } else {
                                        i as f64 + 0.5
                                    }
                                })
                                .collect();
                            match n {
                                1 => (
                                    c.write_float(2, first, vals[0]).is_ok(),
                                    armed.write_float(2, first, vals[0]).is_ok(),
                                ),
                                _ => (
                                    c.write_floats(2, first, &vals).is_ok(),
                                    armed.write_floats(2, first, &vals).is_ok(),
                                ),
                            }
                        }
                        3 => {
                            let target = (!quiet()).then(|| (1, next(1500)));
                            (
                                c.write_ptr(3, first, target).is_ok(),
                                armed.write_ptr(3, first, target).is_ok(),
                            )
                        }
                        _ => {
                            let vals: Vec<i128> = (first..first + n)
                                .map(|i| 2 * (i % 50) as i128 + i128::from(!quiet()))
                                .collect();
                            match n {
                                1 => (
                                    c.write_int(entry, first, vals[0]).is_ok(),
                                    armed.write_int(entry, first, vals[0]).is_ok(),
                                ),
                                _ => (
                                    c.write_ints(entry, first, &vals).is_ok(),
                                    armed.write_ints(entry, first, &vals).is_ok(),
                                ),
                            }
                        }
                    };
                    assert_eq!(
                        done.0, done.1,
                        "{} [{first}, +{n}) of {entry}",
                        platform.name
                    );
                }
                assert_eq!(c.gthv().space().raw(), armed.space().raw());
                assert_eq!(c.gthv().space().stats().faults, 0, "no store faults");
                let scan = scan_ranges(armed.table(), armed.space());
                let written = c.write_set();
                if !silent {
                    assert_eq!(written, scan, "{} round {round}", platform.name);
                    continue;
                }
                for r in &scan {
                    let within = |w: &&UpdateRange| w.entry == r.entry && w.first <= r.first;
                    let held = written.iter().rfind(within);
                    assert!(held.is_some_and(|w| r.end() <= w.end()), "{r:?} unwritten");
                }
                strict += usize::from(written != scan);
            }
        }
        assert!(
            strict > 20,
            "silent stores left the scan short {strict} times"
        );
    }
}
