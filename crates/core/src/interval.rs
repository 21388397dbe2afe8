//! Sets of element ranges of one index-table entry.
//!
//! An [`IntervalSet`] is what both ends of "ship what is read" keep per
//! entry: a client the ranges its read accessors have returned (its
//! *interest*), the ranges it was told changed without being sent them
//! (its *stale* set) and the ranges its store accessors wrote since its
//! last release (its *write set*); a home shard each reader's interest as
//! last reported.
//! Spans are half-open `[start, end)`, sorted, disjoint and never adjacent
//! — two that meet merge — so a reader that walks an array row by row
//! holds one span, not one per row, and every operation is a binary search
//! plus work proportional to the spans it touches.
//! A strided [`UpdateRange`] is asked about for its elements, not its
//! hull, at work per span its hull touches.

use crate::runs::UpdateRange;

/// One piece of a range split against an [`IntervalSet`]: `[first, end)`
/// lies wholly inside one span of the set or wholly in one gap between
/// spans, and `[lo, hi)` is that span or gap (a gap before the first span
/// starts at 0, one after the last ends at `u64::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Inside a span of the set (`true`) or in a gap (`false`).
    pub inside: bool,
    /// First element of the piece.
    pub first: u64,
    /// One past its last element.
    pub end: u64,
    /// Start of the span or gap that holds it.
    pub lo: u64,
    /// End of that span or gap.
    pub hi: u64,
}

/// A sorted set of disjoint, non-adjacent half-open element spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    spans: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Whether the set holds no element.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans, ascending.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// Add `[first, end)`, merging it with every span it overlaps or
    /// abuts. An empty range adds nothing.
    ///
    /// A range that starts at or after the last span's start — a store
    /// loop walking forward, or storing again where it just stored —
    /// extends that span or follows it, with no search: the write set
    /// folds every store, so an in-order one must cost O(1).
    pub fn insert(&mut self, first: u64, end: u64) {
        if end <= first {
            return;
        }
        match self.spans.last_mut() {
            Some(last) if first < last.0 => self.insert_searching(first, end),
            Some(last) if first <= last.1 => last.1 = last.1.max(end),
            _ => self.spans.push((first, end)),
        }
    }

    /// [`Self::insert`] of a non-empty range anywhere in the set.
    fn insert_searching(&mut self, first: u64, end: u64) {
        // Spans wholly before `first` (not even abutting) stay; so do
        // those wholly after `end`.
        let from = self.spans.partition_point(|s| s.1 < first);
        let to = self.spans.partition_point(|s| s.0 <= end);
        if from == to {
            self.spans.insert(from, (first, end));
            return;
        }
        let merged = (first.min(self.spans[from].0), end.max(self.spans[to - 1].1));
        self.spans[from] = merged;
        self.spans.drain(from + 1..to);
    }

    /// Add every range of `ranges`, which come in ascending order of start:
    /// one merge of two sorted lists, where adding them one by one would
    /// shift the spans behind each — what a red-black writer's second
    /// colour, filling every gap between the first's, would cost.
    pub fn insert_sorted(&mut self, ranges: impl IntoIterator<Item = (u64, u64)>) {
        let mut new = ranges.into_iter().filter(|r| r.0 < r.1).peekable();
        if new.peek().is_none() {
            return;
        }
        let mut old = std::mem::take(&mut self.spans).into_iter().peekable();
        let most = old.len() + new.size_hint().1.unwrap_or(0);
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(most);
        loop {
            let next = match (old.peek(), new.peek()) {
                (Some(o), Some(n)) if n.0 < o.0 => new.next(),
                (Some(_), _) => old.next(),
                (None, _) => new.next(),
            };
            let Some((first, end)) = next else {
                break;
            };
            match out.last_mut() {
                Some(last) if first <= last.1 => last.1 = last.1.max(end),
                _ => out.push((first, end)),
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0].1 < w[1].0), "unsorted input");
        // Merging often leaves far fewer spans than went in.
        out.shrink_to_fit();
        self.spans = out;
    }

    /// Remove `[first, end)`: spans inside it go, spans it cuts are
    /// trimmed, a span it falls inside is split in two.
    pub fn subtract(&mut self, first: u64, end: u64) {
        if end <= first {
            return;
        }
        let from = self.spans.partition_point(|s| s.1 <= first);
        let to = self.spans.partition_point(|s| s.0 < end);
        if from >= to {
            return;
        }
        let (head, tail) = (self.spans[from].0, self.spans[to - 1].1);
        let keep = [(head, first), (end, tail)];
        self.spans
            .splice(from..to, keep.into_iter().filter(|s| s.0 < s.1));
    }

    /// Remove the elements of `r`: spans its hull touches lose the
    /// elements they hold, gaps between them stay.
    pub fn subtract_range(&mut self, r: UpdateRange) {
        let from = self.spans.partition_point(|s| s.1 <= r.first);
        let to = self.spans.partition_point(|s| s.0 < r.end()).max(from);
        let mut keep = Vec::new();
        for &(a, b) in &self.spans[from..to] {
            let holes = r.slice(r.below(a), r.below(b)).into_iter();
            let mut at = a;
            for (x, y) in holes.flat_map(|p| p.spans()).chain([(b, b)]) {
                keep.extend((at < x).then_some((at, x)));
                at = y;
            }
        }
        self.spans.splice(from..to, keep);
    }

    /// `[first, end)` cut at the set's span boundaries, in ascending
    /// order: the pieces tile the range exactly, alternating between
    /// spans and gaps.
    pub fn split(&self, first: u64, end: u64) -> impl Iterator<Item = Piece> + '_ {
        let mut i = self.spans.partition_point(|s| s.1 <= first);
        let mut at = first;
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let lo = if i == 0 { 0 } else { self.spans[i - 1].1 };
            let piece = match self.spans.get(i) {
                Some(&(s, e)) if s <= at => {
                    i += 1;
                    Piece {
                        inside: true,
                        first: at,
                        end: end.min(e),
                        lo: s,
                        hi: e,
                    }
                }
                next => {
                    let hi = next.map_or(u64::MAX, |s| s.0);
                    Piece {
                        inside: false,
                        first: at,
                        end: end.min(hi),
                        lo,
                        hi,
                    }
                }
            };
            at = piece.end;
            Some(piece)
        })
    }

    /// The parts of `[first, end)` the set holds.
    pub fn intersect(&self, first: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.split(first, end)
            .filter(|p| p.inside)
            .map(|p| (p.first, p.end))
    }

    /// A walk over the spans for ranges asked about in ascending order.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            spans: &self.spans,
            at: 0,
        }
    }

    /// The whole spans that hold any element of `[first, end)`, ascending.
    pub fn touching(&self, first: u64, end: u64) -> &[(u64, u64)] {
        let from = self.spans.partition_point(|s| s.1 <= first);
        let to = self.spans.partition_point(|s| s.0 < end);
        &self.spans[from..to.max(from)]
    }

    /// The span or gap that holds all of the non-empty `[first, end)`, as
    /// a [`Piece`] covering the range; `None` when the range crosses a
    /// span boundary.
    pub fn around(&self, first: u64, end: u64) -> Option<Piece> {
        let mut pieces = self.split(first, end);
        pieces.next().filter(|p| p.end == end)
    }
}

/// A forward walk over an [`IntervalSet`]'s spans, for ranges asked about
/// in ascending order: each question costs what the walk advances, not a
/// search.
pub struct Cursor<'a> {
    spans: &'a [(u64, u64)],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// The first span ending past `first`, if any.
    fn next_span(&mut self, first: u64) -> Option<(u64, u64)> {
        while self.spans.get(self.at).is_some_and(|s| s.1 <= first) {
            self.at += 1;
        }
        self.spans.get(self.at).copied()
    }

    /// No span holds an element of `[first, end)`.
    pub fn misses(&mut self, first: u64, end: u64) -> bool {
        self.next_span(first).is_none_or(|s| s.0 >= end)
    }

    /// The span that holds all of `[first, end)`, if one does.
    pub fn span_holding(&mut self, first: u64, end: u64) -> Option<(u64, u64)> {
        self.next_span(first).filter(|s| s.0 <= first && end <= s.1)
    }

    /// The elements of `r` cut at the spans, in ascending order: each piece
    /// a range of `r`'s stride with the span that holds it, or `None` in a
    /// gap. No two gap pieces meet; a span that holds no element of `r`
    /// cuts nothing. Where the hull is exact, `misses` costs less.
    pub fn split(
        &mut self,
        r: UpdateRange,
    ) -> impl Iterator<Item = (Option<(u64, u64)>, UpdateRange)> + 'a {
        self.next_span(r.first);
        // Elements cut off so far; a last gap closes the walk.
        let (mut at, end) = (0, r.end());
        (self.spans[self.at..].iter())
            .take_while(move |s| s.0 < end)
            .map(move |&s| (Some(s), r.below(s.0), r.below(s.1)))
            .filter(|&(_, lo, hi)| lo < hi)
            .chain([(None, r.count, r.count)])
            .flat_map(move |(span, lo, hi)| {
                let gap = r.slice(std::mem::replace(&mut at, hi), lo);
                let gap = gap.map(|p| (None, p)).into_iter();
                gap.chain(r.slice(lo, hi).map(|p| (span, p)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(spans: &[(u64, u64)]) -> IntervalSet {
        let mut s = IntervalSet::default();
        for &(a, b) in spans {
            s.insert(a, b);
        }
        s
    }

    #[test]
    fn insert_keeps_spans_sorted_disjoint_and_merged() {
        let mut s = IntervalSet::default();
        assert!(s.is_empty());
        s.insert(10, 20);
        s.insert(30, 40);
        s.insert(0, 5);
        assert_eq!(s.spans(), [(0, 5), (10, 20), (30, 40)]);
        // Empty and inverted ranges add nothing.
        s.insert(7, 7);
        s.insert(9, 8);
        assert_eq!(s.spans().len(), 3);
        // Contained: nothing changes. Abutting on either side: merges.
        s.insert(12, 18);
        assert_eq!(s.spans()[1], (10, 20));
        s.insert(20, 25);
        s.insert(8, 10);
        assert_eq!(s.spans(), [(0, 5), (8, 25), (30, 40)]);
        // Bridging several spans at once, overhanging both ends.
        s.insert(4, 31);
        assert_eq!(s.spans(), [(0, 40)]);
        // A row-by-row walk stays one span.
        let mut rows = IntervalSet::default();
        for r in 0..100u64 {
            rows.insert(r * 255, (r + 1) * 255);
        }
        assert_eq!(rows.spans(), [(0, 25_500)]);
    }

    #[test]
    fn subtract_trims_splits_and_removes() {
        let mut s = set(&[(0, 10), (20, 30), (40, 50)]);
        s.subtract(25, 25); // empty: nothing
        s.subtract(10, 20); // a gap: nothing
        assert_eq!(s.spans(), [(0, 10), (20, 30), (40, 50)]);
        s.subtract(22, 24); // inside a span: splits it
        assert_eq!(s.spans(), [(0, 10), (20, 22), (24, 30), (40, 50)]);
        s.subtract(5, 21); // trims one, removes part of the next
        assert_eq!(s.spans(), [(0, 5), (21, 22), (24, 30), (40, 50)]);
        s.subtract(21, 45); // removes whole spans, trims the last
        assert_eq!(s.spans(), [(0, 5), (45, 50)]);
        s.subtract(0, u64::MAX);
        assert!(s.is_empty());
    }

    #[test]
    fn split_tiles_the_range_with_alternating_pieces() {
        let s = set(&[(10, 20), (30, 40)]);
        let p = |inside, first, end, lo, hi| Piece {
            inside,
            first,
            end,
            lo,
            hi,
        };
        assert_eq!(
            s.split(5, 45).collect::<Vec<_>>(),
            [
                p(false, 5, 10, 0, 10),
                p(true, 10, 20, 10, 20),
                p(false, 20, 30, 20, 30),
                p(true, 30, 40, 30, 40),
                p(false, 40, 45, 40, u64::MAX),
            ]
        );
        assert_eq!(
            s.split(12, 15).collect::<Vec<_>>(),
            [p(true, 12, 15, 10, 20)]
        );
        assert_eq!(
            s.split(22, 25).collect::<Vec<_>>(),
            [p(false, 22, 25, 20, 30)]
        );
        assert_eq!(s.split(7, 7).count(), 0);
        assert_eq!(
            IntervalSet::default().split(3, 9).collect::<Vec<_>>(),
            [p(false, 3, 9, 0, u64::MAX)]
        );
        assert_eq!(
            s.intersect(0, 100).collect::<Vec<_>>(),
            [(10, 20), (30, 40)]
        );
        assert_eq!(
            s.intersect(15, 32).collect::<Vec<_>>(),
            [(15, 20), (30, 32)]
        );
        assert_eq!(s.intersect(20, 30).count(), 0);
    }

    #[test]
    fn around_names_the_span_or_gap_that_holds_a_range() {
        let s = set(&[(10, 20), (30, 40)]);
        let bounds = |first, end| s.around(first, end).map(|p| (p.inside, p.lo, p.hi));
        assert_eq!(bounds(12, 20), Some((true, 10, 20)));
        assert_eq!(bounds(20, 30), Some((false, 20, 30)));
        assert_eq!(bounds(0, 3), Some((false, 0, 10)));
        assert_eq!(bounds(41, 99), Some((false, 40, u64::MAX)));
        assert_eq!(bounds(15, 25), None);
        assert_eq!(bounds(5, 35), None);
    }

    #[test]
    fn operations_agree_with_a_bitmap_on_random_sequences() {
        const N: u64 = 96;
        let mut seed = 0x1A7E_57A1u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _ in 0..200 {
            let (mut s, mut bits) = (IntervalSet::default(), [false; N as usize]);
            for _ in 0..40 {
                let first = next(N);
                let end = (first + next(12)).min(N);
                let insert = next(3) != 0;
                if insert {
                    s.insert(first, end);
                } else {
                    s.subtract(first, end);
                }
                bits[first as usize..end as usize].fill(insert);
                // Canonical form: sorted, non-empty, never touching.
                for w in s.spans().windows(2) {
                    assert!(w[0].1 < w[1].0, "{:?}", s.spans());
                }
                assert!(s.spans().iter().all(|s| s.0 < s.1));
                let held: Vec<bool> = (0..N)
                    .map(|e| s.spans().iter().any(|s| s.0 <= e && e < s.1))
                    .collect();
                assert_eq!(held, bits);
                // A split tiles its range and labels every element right.
                let (a, b) = (next(N), next(N));
                let (a, b) = (a.min(b), a.max(b));
                let mut at = a;
                for p in s.split(a, b) {
                    assert_eq!(p.first, at);
                    assert!(p.first < p.end && p.lo <= p.first && p.end <= p.hi);
                    assert!((p.first..p.end).all(|e| bits[e as usize] == p.inside));
                    at = p.end;
                }
                assert_eq!(at, b.max(a));
            }
        }
    }

    #[test]
    fn the_tail_path_of_insert_agrees_with_the_search() {
        let mut seed = 0x7A11_5EEDu64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _ in 0..300 {
            let (mut fast, mut searched) = (IntervalSet::default(), IntervalSet::default());
            let mut at = next(50);
            for _ in 0..60 {
                // Mostly forward — strided, abutting, repeated, overlapping
                // the last span — now and then anywhere.
                let first = match next(6) {
                    0 => next(400),
                    1 => at.saturating_sub(next(8)),
                    _ => at + next(4),
                };
                let end = first + next(5);
                at = end;
                fast.insert(first, end);
                if end > first {
                    searched.insert_searching(first, end);
                }
                assert_eq!(fast, searched, "after [{first}, {end})");
            }
        }
    }

    #[test]
    fn a_strided_range_is_split_and_subtracted_element_by_element() {
        const N: u64 = 120;
        let mut seed = 0x57_21DEu64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for _ in 0..2000 {
            let (mut s, mut bits) = (IntervalSet::default(), [false; N as usize]);
            for _ in 0..next(8) {
                let first = next(N);
                let end = (first + 1 + next(10)).min(N);
                s.insert(first, end);
                bits[first as usize..end as usize].fill(true);
            }
            let (stride, count) = (1 + next(5), 1 + next(12));
            let r = UpdateRange {
                stride,
                ..UpdateRange::new(0, next(N - (count - 1) * stride), count)
            };
            let elems: Vec<u64> = r.spans().flat_map(|(a, b)| a..b).collect();
            // The pieces tile the elements in order, each inside the span
            // it names or in no span, and no two gap pieces meet.
            let pieces: Vec<_> = s.cursor().split(r).collect();
            let tiled: Vec<u64> = (pieces.iter())
                .flat_map(|(_, p)| p.spans().flat_map(|(a, b)| a..b))
                .collect();
            assert_eq!(tiled, elems, "{r:?} in {:?}", s.spans());
            for (span, p) in &pieces {
                assert_eq!(p.stride, r.stride);
                let inside = |e: u64| span.is_some_and(|(a, b)| a <= e && e < b);
                let mut all = p.spans().flat_map(|(a, b)| a..b);
                assert!(all.all(|e| inside(e) == bits[e as usize]), "{r:?}");
                assert!(span.is_none_or(|sp| s.spans().contains(&sp)));
            }
            let gaps_meet = |w: &[(Option<_>, _)]| w[0].0.is_none() && w[1].0.is_none();
            assert!(!pieces.windows(2).any(gaps_meet), "{r:?}");
            // Subtracting removes exactly the elements.
            let mut cut = s.clone();
            cut.subtract_range(r);
            elems.iter().for_each(|&e| bits[e as usize] = false);
            let held: Vec<bool> = (0..N)
                .map(|e| cut.spans().iter().any(|s| s.0 <= e && e < s.1))
                .collect();
            assert_eq!(held, bits, "{r:?}");
            assert!(cut.spans().windows(2).all(|w| w[0].1 < w[1].0));
        }
    }

    #[test]
    fn bulk_insert_touching_and_the_cursor_agree_with_one_range_at_a_time() {
        let base = set(&[(2, 4), (10, 20), (30, 31), (40, 50)]);
        // Ascending ranges that fill gaps, abut, overlap and stand alone.
        let ranges = [(0, 1), (4, 6), (8, 12), (20, 30), (31, 33), (60, 61)];
        let mut bulk = base.clone();
        bulk.insert_sorted(ranges);
        let mut one = base.clone();
        ranges.iter().for_each(|&(a, b)| one.insert(a, b));
        assert_eq!(bulk, one);
        assert_eq!(bulk.spans(), [(0, 1), (2, 6), (8, 33), (40, 50), (60, 61)]);
        // Nothing to add leaves the set as it is.
        bulk.insert_sorted([(5, 5)]);
        assert_eq!(bulk, one);
        // The whole spans that hold an element of a range.
        assert_eq!(base.touching(3, 11), [(2, 4), (10, 20)]);
        assert_eq!(base.touching(4, 10), []);
        assert_eq!(base.touching(49, 100), [(40, 50)]);
        // A cursor asked in ascending order answers as a search would.
        let mut c = base.cursor();
        assert!(c.misses(0, 2));
        assert_eq!(c.span_holding(11, 15), Some((10, 20)));
        assert_eq!(c.span_holding(15, 21), None);
        assert!(!c.misses(19, 31));
        assert!(c.misses(31, 40));
        assert_eq!(c.span_holding(40, 50), Some((40, 50)));
        assert!(c.misses(50, 60));
    }
}
