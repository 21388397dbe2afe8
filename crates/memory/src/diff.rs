//! Twin/diff: comparison of dirty pages against their twins.
//!
//! Paper §4.2: "each byte on the dirty page must be compared to its
//! corresponding byte on the original page" — this scan is the dominant
//! part of the paper's `t_index` (Figure 8 measures it together with the
//! run→index mapping). Two scans make that comparison:
//!
//! * [`diff_pages`] (over [`diff_page_into`]), the paper-literal one: its
//!   output is a list of maximal *runs* of modified bytes, addressed in the
//!   node's simulated address space. Every byte of the page is compared,
//!   eight to a `u64` word; the runs are the byte loop's. A page DSM ships
//!   these (`hdsm-core::baseline`), and `hdsm-core::runs::map_runs` folds
//!   them into element ranges — the oracle the element scan is held to.
//! * [`diff_elems`], which compares a span one *element* at a time. The
//!   DSD ships elements whole, so its element scan
//!   (`hdsm-core::runs::scan_ranges`) walks the index table's rows over
//!   each dirty page and compares at the row's element size: every byte a
//!   row covers is still compared, and no byte run is built only to be
//!   folded back into elements. The DSD client itself compares nothing —
//!   its accessors record what they store — and the scan is the oracle
//!   that record is tested against.

use crate::space::AddressSpace;

/// A maximal run of modified bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRun {
    /// Simulated address of the first modified byte.
    pub addr: u64,
    /// Number of modified bytes.
    pub len: usize,
}

impl DiffRun {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }
}

/// Bytes compared per step of [`diff_page_into`] and [`diff_elems`]: eight
/// `u64` words, one bit of a `u64` mask per byte.
const BLOCK: usize = 64;

/// One bit per byte of `twin`/`current` (equal lengths, at most [`BLOCK`]
/// bytes): bit `k` is set iff byte `k` differs. Whole words are XORed and
/// each word's eight "byte is non-zero" flags gathered into eight adjacent
/// bits; only a tail shorter than a word is compared bytewise.
#[inline]
fn differing_bytes(twin: &[u8], current: &[u8]) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Moves bit 8k of a word to bit 56 + k; no two partial products meet.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut mask = 0u64;
    let mut at = 0;
    let (mut t_words, mut c_words) = (twin.chunks_exact(8), current.chunks_exact(8));
    for (t, c) in (&mut t_words).zip(&mut c_words) {
        let x = u64::from_le_bytes(t.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        // Bit 7 of every non-zero byte of `x`; adding 0x7f to the low
        // seven bits cannot carry into the next byte.
        let nonzero = (((x & LOW7) + LOW7) | x) & !LOW7;
        mask |= ((nonzero >> 7).wrapping_mul(GATHER) >> 56) << at;
        at += 8;
    }
    for (t, c) in t_words.remainder().iter().zip(c_words.remainder()) {
        mask |= u64::from(t != c) << at;
        at += 1;
    }
    mask
}

/// The runs of one page under construction: turns per-block masks into
/// [`DiffRun`]s, carrying a run that reaches a block's last byte into the
/// next block.
struct PageRuns<'a> {
    page_addr: u64,
    /// Offset at which the run reaching the current block started.
    open: Option<usize>,
    out: &'a mut Vec<DiffRun>,
}

impl PageRuns<'_> {
    fn push(&mut self, start: usize, end: usize) {
        self.out.push(DiffRun {
            addr: self.page_addr + start as u64,
            len: end - start,
        });
    }

    /// Emit the runs that end inside the block at offset `base` whose
    /// [`differing_bytes`] mask is `diff`. The mask's 0→1 edges are run
    /// starts and its 1→0 edges run ends, read off with `trailing_zeros`;
    /// no branch depends on a single byte.
    fn block(&mut self, base: usize, diff: u64) {
        // Bit k: byte k - 1 differs (k = 0: the previous block's last byte).
        let after = (diff << 1) | u64::from(self.open.is_some());
        let mut starts = diff & !after;
        let mut ends = !diff & after;
        if let Some(start) = self.open {
            if ends == 0 {
                return; // all 64 bytes differ: the run goes on
            }
            self.push(start, base + ends.trailing_zeros() as usize);
            ends &= ends - 1;
            self.open = None;
        }
        while starts != 0 {
            let start = base + starts.trailing_zeros() as usize;
            starts &= starts - 1;
            if ends == 0 {
                self.open = Some(start); // differs through the last byte
                return;
            }
            self.push(start, base + ends.trailing_zeros() as usize);
            ends &= ends - 1;
        }
    }
}

/// Compare one page against a twin, appending maximal modified runs to
/// `out`. `page_addr` is the simulated address of the page's first byte.
///
/// The page is compared `BLOCK` bytes at a time, as `u64` words: an
/// unchanged block costs one fixed-size comparison, a changed one its
/// `differing_bytes` mask and a `trailing_zeros` per run edge.
pub fn diff_page_into(page_addr: u64, twin: &[u8], current: &[u8], out: &mut Vec<DiffRun>) {
    assert_eq!(twin.len(), current.len(), "twin and page differ in size");
    let mut runs = PageRuns {
        page_addr,
        open: None,
        out,
    };
    let (mut t_blocks, mut c_blocks) = (twin.chunks_exact(BLOCK), current.chunks_exact(BLOCK));
    let mut base = 0;
    for (t, c) in (&mut t_blocks).zip(&mut c_blocks) {
        let t: &[u8; BLOCK] = t.try_into().expect("whole block");
        let c: &[u8; BLOCK] = c.try_into().expect("whole block");
        runs.block(base, if t == c { 0 } else { differing_bytes(t, c) });
        base += BLOCK;
    }
    // The tail, shorter than a block and possibly empty: the bits its mask
    // does not use read "equal", which ends a run that reaches the page's
    // last byte there, as it must.
    runs.block(
        base,
        differing_bytes(t_blocks.remainder(), c_blocks.remainder()),
    );
}

/// Compare a span of whole `size`-byte elements against its twin, calling
/// `emit(first, count)` for each maximal run of elements that have a
/// differing byte, in ascending order; element `k` is bytes
/// `[k * size, (k + 1) * size)` of both slices.
///
/// The element-granular counterpart of [`diff_page_into`], for a caller
/// that knows the element size (the index table does) and ships elements
/// whole: an element is in a run iff [`diff_page_into`] would put a run on
/// one of its bytes. The span is walked `BLOCK` bytes at a time like the
/// page is there — an unchanged block costs one fixed-size comparison, a
/// changed one a fixed-width comparison per element — but no byte mask is
/// built and no run is emitted per byte edge.
///
/// # Panics
/// Panics if the slices differ in length or are not whole elements.
pub fn diff_elems(twin: &[u8], current: &[u8], size: usize, emit: impl FnMut(usize, usize)) {
    assert_eq!(twin.len(), current.len(), "twin and span differ in size");
    assert!(
        size > 0 && current.len().is_multiple_of(size),
        "span of {} bytes is not whole {size}-byte elements",
        current.len()
    );
    // The literal sizes turn the element and block compares of the inlined
    // walk into fixed-width loads; any other size compares slices.
    match size {
        1 => elem_runs(twin, current, 1, emit),
        2 => elem_runs(twin, current, 2, emit),
        4 => elem_runs(twin, current, 4, emit),
        8 => elem_runs(twin, current, 8, emit),
        16 => elem_runs(twin, current, 16, emit),
        _ => elem_runs(twin, current, size, emit),
    }
}

/// [`diff_elems`] for one element size. The blocks compared first are the
/// whole elements that fit in `BLOCK` bytes — exactly `BLOCK` for a size
/// that divides it, one element for a larger one.
#[inline(always)]
fn elem_runs(twin: &[u8], current: &[u8], size: usize, mut emit: impl FnMut(usize, usize)) {
    let per_block = (BLOCK / size).max(1);
    let block = per_block * size;
    // `at` is the next element to compare, `open` the first element of the
    // run that reaches it.
    let mut open: Option<usize> = None;
    let mut at = 0;
    let mut step = |elem: usize, differs: bool| match (open, differs) {
        (None, true) => open = Some(elem),
        (Some(first), false) => {
            emit(first, elem - first);
            open = None;
        }
        _ => {}
    };
    let (mut t_blocks, mut c_blocks) = (twin.chunks_exact(block), current.chunks_exact(block));
    for (t, c) in (&mut t_blocks).zip(&mut c_blocks) {
        if t == c {
            step(at, false);
        } else {
            for (k, (t, c)) in t.chunks_exact(size).zip(c.chunks_exact(size)).enumerate() {
                step(at + k, t != c);
            }
        }
        at += per_block;
    }
    let (t_tail, c_tail) = (t_blocks.remainder(), c_blocks.remainder());
    for (t, c) in t_tail.chunks_exact(size).zip(c_tail.chunks_exact(size)) {
        step(at, t != c);
        at += 1;
    }
    step(at, false);
}

/// Diff every dirty page of a space against its twin, returning runs in
/// ascending address order. Runs never span page boundaries (pages are
/// diffed independently, as in any twin/diff DSM); adjacent cross-page runs
/// are merged afterwards so callers see true byte runs.
pub fn diff_pages(space: &AddressSpace) -> Vec<DiffRun> {
    let mut out = Vec::new();
    for page in space.dirty_pages() {
        let twin = space
            .twin(page)
            .expect("dirty page always has a twin (fault handler invariant)");
        diff_page_into(space.page_addr(page), twin, space.page(page), &mut out);
    }
    // Merge runs that touch across page boundaries.
    merge_adjacent(&mut out);
    out
}

/// Worker count for [`diff_pages_parallel`] on this host: available
/// parallelism capped at 4 — diffing is memory-bound, so more threads stop
/// paying for themselves quickly. Not for a hot path:
/// `available_parallelism()` re-reads the affinity mask and the cgroup
/// files, 12–24 µs a call where the benchmark runs.
pub fn default_diff_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Number of dirty pages below which the parallel scan falls back to the
/// serial path: spawning scoped threads costs more than diffing a handful
/// of pages, and the fallback keeps small syncs (the common case for the
/// paper's workloads at reduced scale) on the cheap path.
pub const PARALLEL_DIFF_MIN_PAGES: usize = 16;

/// Parallel variant of [`diff_pages`]: shard the dirty-page set across up
/// to `threads` scoped workers, each diffing its contiguous shard of pages
/// independently, then concatenate shard outputs in shard order and merge
/// across page boundaries. Pages are diffed independently in the serial
/// path too, so the output is bit-identical to [`diff_pages`] — the
/// property test in `tests/proptest_dsd.rs` pins this.
///
/// The DSD client does not call it: a release's whole serial scan costs
/// less than one thread spawn (DESIGN §11). It is public for the
/// benchmark's `memory.diff_scan_par_us` row and goes when that row does.
pub fn diff_pages_parallel(space: &AddressSpace, threads: usize) -> Vec<DiffRun> {
    let pages: Vec<usize> = space.dirty_pages().collect();
    if threads < 2 || pages.len() < PARALLEL_DIFF_MIN_PAGES {
        return diff_pages(space);
    }
    // `dirty_pages` iterates in ascending page order; contiguous shards
    // concatenated in shard order therefore preserve ascending addresses.
    let chunk = pages.len().div_ceil(threads.min(pages.len()));
    let mut shards: Vec<Vec<DiffRun>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = pages
            .chunks(chunk)
            .map(|shard| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for &page in shard {
                        let twin = space
                            .twin(page)
                            .expect("dirty page always has a twin (fault handler invariant)");
                        diff_page_into(space.page_addr(page), twin, space.page(page), &mut out);
                    }
                    out
                })
            })
            .collect();
        shards = handles
            .into_iter()
            .map(|h| h.join().expect("diff shard panicked"))
            .collect();
    });
    let mut out: Vec<DiffRun> = shards.into_iter().flatten().collect();
    merge_adjacent(&mut out);
    out
}

/// Merge runs where one ends exactly where the next begins.
pub fn merge_adjacent(runs: &mut Vec<DiffRun>) {
    if runs.len() < 2 {
        return;
    }
    let mut w = 0;
    for r in 1..runs.len() {
        if runs[w].end() == runs[r].addr {
            runs[w].len += runs[r].len;
        } else {
            w += 1;
            runs[w] = runs[r];
        }
    }
    runs.truncate(w + 1);
}

/// Total modified bytes across runs.
pub fn total_bytes(runs: &[DiffRun]) -> u64 {
    runs.iter().map(|r| r.len as u64).sum()
}

/// The byte-at-a-time scan [`diff_page_into`] replaced, kept as the
/// reference its output is held to.
#[cfg(test)]
fn diff_page_into_bytewise(page_addr: u64, twin: &[u8], current: &[u8], out: &mut Vec<DiffRun>) {
    debug_assert_eq!(twin.len(), current.len());
    let mut i = 0;
    let n = current.len();
    while i < n {
        if twin[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && twin[i] != current[i] {
            i += 1;
        }
        out.push(DiffRun {
            addr: page_addr + start as u64,
            len: i - start,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BASE: u64 = 0x1000;

    /// Both scans of one twin/current pair.
    fn scans(twin: &[u8], current: &[u8]) -> (Vec<DiffRun>, Vec<DiffRun>) {
        let (mut fast, mut reference) = (Vec::new(), Vec::new());
        diff_page_into(BASE, twin, current, &mut fast);
        diff_page_into_bytewise(BASE, twin, current, &mut reference);
        (fast, reference)
    }

    #[test]
    fn every_run_position_within_two_blocks_matches_bytewise() {
        // Every (start, end) of a single run over two blocks and a ragged
        // tail: each byte position of a word, word seams, the block seam.
        let len = 2 * BLOCK + 11;
        let twin = vec![0x5au8; len];
        for start in 0..len {
            for end in start + 1..=len {
                let mut current = twin.clone();
                current[start..end].iter_mut().for_each(|b| *b ^= 0xff);
                let (fast, reference) = scans(&twin, &current);
                assert_eq!(fast, reference, "run [{start}, {end})");
                assert_eq!(fast.len(), 1);
            }
        }
    }

    proptest! {
        #[test]
        fn word_wise_scan_equals_bytewise(
            twin in prop::collection::vec(any::<u8>(), 0..=4099),
            // Inverted stretches and single flipped bits: dense and sparse.
            runs in prop::collection::vec((0usize..4099, 1usize..200), 0..40),
            flips in prop::collection::vec(0usize..4099, 0..64),
        ) {
            let len = twin.len();
            let mut current = twin.clone();
            if len > 0 {
                for (at, n) in runs {
                    let at = at % len;
                    for b in &mut current[at..(at + n).min(len)] {
                        *b = !*b;
                    }
                }
                for at in flips {
                    current[at % len] ^= 1;
                }
            }
            let (fast, reference) = scans(&twin, &current);
            prop_assert_eq!(fast, reference);
        }

        #[test]
        fn page_seams_match_bytewise(
            // Pages from one word up: a write crosses many seams on the
            // small ones, and a page shorter than a scan block has no
            // whole block in it.
            page in prop::sample::select(vec![8usize, 16, 64, 512, 4096]),
            writes in prop::collection::vec((0usize..3 * 4099, 1usize..300), 1..24),
        ) {
            let mut s = armed(3 * page, page);
            for (at, n) in writes {
                let at = at % (3 * page);
                let n = n.min(3 * page - at);
                // Every fifth byte stays zero: runs of four inside the write.
                let data: Vec<u8> = (at..at + n).map(|k| (k % 5) as u8).collect();
                s.write(BASE + at as u64, &data).unwrap();
            }
            let mut reference = Vec::new();
            for p in s.dirty_pages() {
                let (twin, page) = (s.twin(p).unwrap(), s.page(p));
                diff_page_into_bytewise(s.page_addr(p), twin, page, &mut reference);
            }
            merge_adjacent(&mut reference);
            prop_assert_eq!(diff_pages(&s), reference);
        }
    }

    /// `(first, count)` element runs.
    type ElemRuns = Vec<(usize, usize)>;

    /// Element runs of both scans: [`diff_elems`], and the elements the
    /// bytewise scan's runs touch, adjacent ones joined.
    fn elem_scans(twin: &[u8], current: &[u8], size: usize) -> (ElemRuns, ElemRuns) {
        let mut fast = Vec::new();
        diff_elems(twin, current, size, |first, count| {
            fast.push((first, count))
        });
        let mut bytes = Vec::new();
        diff_page_into_bytewise(0, twin, current, &mut bytes);
        let mut reference = ElemRuns::new();
        for run in bytes {
            let first = run.addr as usize / size;
            let end = (run.end() as usize - 1) / size + 1;
            match reference.last_mut() {
                Some((f, n)) if first <= *f + *n => *n = end - *f,
                _ => reference.push((first, end - first)),
            }
        }
        (fast, reference)
    }

    #[test]
    fn every_byte_run_within_two_blocks_matches_bytewise_at_every_size() {
        // Sizes that divide a block, one that does not, one above a block.
        for size in [1usize, 2, 4, 8, 16, 3, 12, 80] {
            let len = (2 * BLOCK + 40) / size * size;
            let twin = vec![0x5au8; len];
            for start in 0..len {
                for end in start + 1..=len {
                    let mut current = twin.clone();
                    current[start..end].iter_mut().for_each(|b| *b ^= 0xff);
                    let (fast, reference) = elem_scans(&twin, &current, size);
                    assert_eq!(fast, reference, "size {size}, bytes [{start}, {end})");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn element_scan_equals_bytewise(
            size in prop::sample::select(vec![1usize, 2, 4, 8, 16, 3, 12, 80]),
            twin in prop::collection::vec(any::<u8>(), 0..=4099),
            runs in prop::collection::vec((0usize..4099, 1usize..200), 0..40),
            flips in prop::collection::vec(0usize..4099, 0..64),
        ) {
            let len = twin.len() / size * size;
            let twin = &twin[..len];
            let mut current = twin.to_vec();
            if len > 0 {
                for (at, n) in runs {
                    let at = at % len;
                    for b in &mut current[at..(at + n).min(len)] {
                        *b = !*b;
                    }
                }
                for at in flips {
                    current[at % len] ^= 1;
                }
            }
            let (fast, reference) = elem_scans(twin, &current, size);
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    #[should_panic(expected = "not whole 8-byte elements")]
    fn element_scan_rejects_a_ragged_span() {
        diff_elems(&[0; 12], &[0; 12], 8, |_, _| {});
    }

    fn armed(len: usize, page: usize) -> AddressSpace {
        let mut s = AddressSpace::new(BASE, len, page);
        s.protect_all();
        s
    }

    #[test]
    fn clean_space_has_no_diffs() {
        let s = armed(4096, 4096);
        assert!(diff_pages(&s).is_empty());
    }

    #[test]
    fn single_byte_diff() {
        let mut s = armed(4096, 4096);
        s.write(BASE + 17, &[5]).unwrap();
        assert_eq!(
            diff_pages(&s),
            vec![DiffRun {
                addr: BASE + 17,
                len: 1
            }]
        );
    }

    #[test]
    fn write_of_same_value_produces_no_diff() {
        // The page faults (it was armed) but the bytes did not change, so
        // the byte-level diff is empty — exactly why twin/diff beats
        // page-granularity dirty tracking for write traffic.
        let mut s = armed(4096, 4096);
        s.write(BASE + 17, &[0]).unwrap();
        assert_eq!(s.dirty_count(), 1);
        assert!(diff_pages(&s).is_empty());
    }

    #[test]
    fn separate_runs_within_a_page() {
        let mut s = armed(4096, 4096);
        s.write(BASE, &[1, 2]).unwrap();
        s.write(BASE + 100, &[3]).unwrap();
        let runs = diff_pages(&s);
        assert_eq!(
            runs,
            vec![
                DiffRun { addr: BASE, len: 2 },
                DiffRun {
                    addr: BASE + 100,
                    len: 1
                }
            ]
        );
        assert_eq!(total_bytes(&runs), 3);
    }

    #[test]
    fn run_spanning_page_boundary_is_merged() {
        let mut s = armed(8192, 4096);
        let addr = BASE + 4094;
        s.write(addr, &[1, 2, 3, 4]).unwrap();
        let runs = diff_pages(&s);
        assert_eq!(runs, vec![DiffRun { addr, len: 4 }]);
    }

    #[test]
    fn adjacent_writes_coalesce_into_one_run() {
        let mut s = armed(4096, 4096);
        s.write(BASE + 8, &[1, 1, 1, 1]).unwrap();
        s.write(BASE + 12, &[2, 2, 2, 2]).unwrap();
        assert_eq!(
            diff_pages(&s),
            vec![DiffRun {
                addr: BASE + 8,
                len: 8
            }]
        );
    }

    #[test]
    fn only_dirty_pages_are_scanned() {
        let mut s = armed(3 * 4096, 4096);
        s.write(BASE + 2 * 4096 + 5, &[7]).unwrap();
        let runs = diff_pages(&s);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].addr, BASE + 2 * 4096 + 5);
    }

    #[test]
    fn merge_adjacent_handles_non_touching() {
        let mut runs = vec![
            DiffRun { addr: 0, len: 4 },
            DiffRun { addr: 4, len: 4 },
            DiffRun { addr: 10, len: 2 },
            DiffRun { addr: 12, len: 1 },
        ];
        merge_adjacent(&mut runs);
        assert_eq!(
            runs,
            vec![DiffRun { addr: 0, len: 8 }, DiffRun { addr: 10, len: 3 }]
        );
    }

    #[test]
    fn parallel_diff_matches_serial_above_threshold() {
        // Enough dirty pages to engage the sharded scan, with runs that
        // cross shard boundaries so concatenation order matters.
        let pages = 2 * PARALLEL_DIFF_MIN_PAGES;
        let mut s = armed(pages * 4096, 4096);
        for p in 0..pages {
            let addr = BASE + (p as u64) * 4096 + (p as u64 % 7) * 11;
            s.write(addr, &[p as u8 + 1, 2, 3]).unwrap();
        }
        // A run spanning a page boundary (and thus possibly a shard seam).
        s.write(BASE + 4096 * 8 - 2, &[9, 9, 9, 9]).unwrap();
        let serial = diff_pages(&s);
        for threads in [2, 3, 4, 8] {
            assert_eq!(diff_pages_parallel(&s, threads), serial);
        }
    }

    #[test]
    fn parallel_diff_falls_back_below_threshold() {
        let mut s = armed(4 * 4096, 4096);
        s.write(BASE + 5, &[1, 2]).unwrap();
        s.write(BASE + 4096 + 9, &[3]).unwrap();
        assert_eq!(diff_pages_parallel(&s, 4), diff_pages(&s));
    }

    #[test]
    fn write_back_to_original_value_cancels_diff() {
        let mut s = armed(4096, 4096);
        s.write(BASE, &[9]).unwrap();
        s.write(BASE, &[0]).unwrap(); // restore original zero
        assert!(diff_pages(&s).is_empty());
    }
}
