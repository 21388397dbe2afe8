//! Sets of element ranges of one index-table entry.
//!
//! An [`IntervalSet`] is what both ends of "ship what is read" keep per
//! entry: a client the ranges its read accessors have returned (its
//! *interest*), the ranges it was told changed without being sent them
//! (its *stale* set) and the ranges its store accessors wrote since its
//! last release (its *write set*); a home shard each reader's interest as
//! last reported.
//!
//! Its *spans* are the maximal runs of adjacent elements, half-open and
//! ascending, so a reader that walks an array row by row holds one span.
//! They are kept as the frame's strided rows of them
//! ([`hdsm_tags::wire::fold_rows`]), so a red-black writer's colour of a
//! grid row is one row. Every question is asked of the spans, at a binary
//! search plus work per span touched; a change refolds the rows it
//! touches, and those behind them as far as the fold moves. A strided
//! [`UpdateRange`] is asked about for its elements, not its hull.
//!
//! One way in, one way out: [`IntervalSet::extend`] and
//! [`IntervalSet::subtract`] take ranges of any stride, so how a strided
//! range joins or leaves a set is decided here, never by a caller.

use crate::runs::UpdateRange;
use hdsm_tags::wire::{counted, RowFold};

/// Elements `first, first + stride, .., last`, kept as `(first, last,
/// stride)` so that a search compares a field: dense at stride 1, and a
/// lone element at stride 1.
type Row = (u64, u64, u64);

/// The spans of `r`: itself when dense, one an element otherwise.
fn spans_of(r: Row) -> impl Iterator<Item = (u64, u64)> {
    UpdateRange::row(0, counted(r)).spans()
}

/// Rows folded from ascending spans, which may overlap or meet.
#[derive(Default)]
struct Fold {
    rows: Vec<Row>,
    row: RowFold,
    /// The last span, not folded yet: the next may meet it.
    span: Option<(u64, u64)>,
}

impl Fold {
    fn push(&mut self, (a, b): (u64, u64)) {
        debug_assert!(self.span.is_none_or(|s| s.0 <= a), "unsorted spans");
        match &mut self.span {
            Some(s) if a <= s.1 => s.1 = s.1.max(b),
            _ => {
                self.flush();
                self.span = Some((a, b));
            }
        }
    }

    /// Fold the pending span, if any: the open row is then the last of
    /// everything pushed.
    fn flush(&mut self) {
        if let Some((a, b)) = self.span.take() {
            self.rows.extend(self.row.push((a, b - a, 1)));
        }
    }

    fn finish(mut self) -> Vec<Row> {
        self.flush();
        self.rows.extend(self.row.open());
        self.rows
    }
}

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

/// A set of elements, kept as the frame's rows of its spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    rows: Vec<Row>,
}

impl IntervalSet {
    /// Whether the set holds no element.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows `(first, count, stride)`, ascending: what
    /// [`hdsm_tags::wire::fold_rows`] makes of the spans.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (u64, u64, u64)> + '_ {
        self.rows.iter().map(|&r| counted(r))
    }

    /// The spans, ascending.
    pub fn spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.rows.iter().flat_map(|&r| spans_of(r))
    }

    /// Add `[first, end)`, merging it with every span it overlaps or
    /// abuts. An empty range adds nothing.
    ///
    /// A range at or past the last row's last element — a store loop
    /// walking forward, densely or every k-th element — grows that row in
    /// place or follows it with no search: the write set takes every store.
    #[inline]
    pub fn insert(&mut self, first: u64, end: u64) {
        if end <= first {
            return;
        }
        let Some(l) = self.rows.last_mut() else {
            self.rows.push((first, end - 1, 1));
            return;
        };
        if first > l.1 + 1 {
            if let Some(row) = RowFold::grow(l, (first, end - first, 1)) {
                self.rows.push(row);
            }
        } else if l.2 == 1 && first >= l.0 {
            l.1 = l.1.max(end - 1);
        } else if (first, end) != (l.1, l.1 + 1) {
            self.insert_searching(first, end);
        }
    }

    /// [`Self::insert`] of a non-empty range anywhere in the set.
    #[inline(never)]
    fn insert_searching(&mut self, first: u64, end: u64) {
        let lo = self.rows.partition_point(|&r| r.1 + 1 < first);
        let hi = self.rows.partition_point(|&r| r.0 <= end);
        let mut spans: Vec<_> = self.rows[lo..hi]
            .iter()
            .flat_map(|&r| spans_of(r))
            .collect();
        spans.insert(spans.partition_point(|s| s.0 < first), (first, end));
        self.refold(lo, hi, spans);
    }

    /// Put `spans` (ascending, between the rows around) in place of the
    /// rows `[lo, hi)`, and fold again from the row before them up to the
    /// first later row that still starts a row.
    fn refold(&mut self, lo: usize, hi: usize, spans: impl IntoIterator<Item = (u64, u64)>) {
        let from = lo.saturating_sub(1);
        let mut fold = Fold::default();
        let before = self.rows[from..lo].iter().flat_map(|&r| spans_of(r));
        before.chain(spans).for_each(|s| fold.push(s));
        let mut to = hi;
        while let Some(&r) = self.rows.get(to) {
            if fold.span.is_none_or(|s| s.1 < r.0) {
                fold.flush();
                if fold.row.takes(counted(r)) == 0 {
                    break;
                }
            }
            spans_of(r).for_each(|s| fold.push(s));
            to += 1;
        }
        self.rows.splice(from..to, fold.finish());
    }

    /// Add the elements of `ranges`, of any stride and in any order: a
    /// range the set holds ([`Cursor::holds`]) is skipped, the rest are cut
    /// into spans, sorted and merged in one pass with the set's from the
    /// first row they can touch.
    pub fn extend(&mut self, ranges: impl IntoIterator<Item = UpdateRange>) {
        let (mut at, mut from, mut new) = (self.cursor(), u64::MAX, Vec::new());
        for r in ranges.into_iter().filter(|r| r.count > 0) {
            if r.first < from {
                at = self.seek(r.first); // the first, or behind the walk
            }
            from = r.first;
            if !at.holds(r) {
                new.extend(r.spans());
            }
        }
        if new.is_empty() {
            return;
        }
        new.sort_unstable();
        let lo = self.rows.partition_point(|&r| r.1 + 1 < new[0].0);
        let rows = self.rows.split_off(lo);
        let mut old = rows.iter().flat_map(|&r| spans_of(r)).peekable();
        let mut new = new.into_iter().peekable();
        let next = || match (old.peek(), new.peek()) {
            (Some(o), Some(n)) if n.0 < o.0 => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        };
        self.refold(lo, lo, std::iter::from_fn(next));
    }

    /// Remove the elements of `r`, of any stride: spans its hull touches
    /// lose the elements they hold, gaps between them stay.
    pub fn subtract(&mut self, r: UpdateRange) {
        if r.count == 0 {
            return;
        }
        let (first, end) = (r.first, r.end());
        let lo = self.rows.partition_point(|&row| row.1 < first);
        let hi = self.rows.partition_point(|&row| row.0 < end);
        let (mut kept, mut cut) = (Vec::new(), false);
        for (a, b) in self.rows[lo..hi].iter().flat_map(|&row| spans_of(row)) {
            let holes = r.slice(r.below(a), r.below(b)).into_iter();
            let mut at = a;
            for (x, y) in holes.flat_map(|p| p.spans()).chain([(b, b)]) {
                kept.extend((at < x).then_some((at, x)));
                cut |= x < b;
                at = y;
            }
        }
        if cut {
            self.refold(lo, hi, kept);
        }
    }

    /// A walk standing at the first span that ends past `x`.
    fn seek(&self, x: u64) -> Cursor<'_> {
        let mut c = self.cursor();
        c.at = self.rows.partition_point(|&r| r.1 < x);
        c.next_span(x);
        c
    }

    /// `[first, end)` cut at the set's span boundaries, in ascending
    /// order: the pieces tile the range exactly, alternating between
    /// spans and gaps.
    pub fn split(&self, first: u64, end: u64) -> impl Iterator<Item = Piece> + '_ {
        let (mut c, mut at) = (self.seek(first), first);
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let (inside, lo, hi) = match c.span() {
                Some((lo, hi)) if lo <= at => {
                    c.step();
                    (true, lo, hi)
                }
                next => (false, c.end_before(), next.map_or(u64::MAX, |s| s.0)),
            };
            let first = std::mem::replace(&mut at, end.min(hi));
            Some(Piece {
                inside,
                first,
                end: at,
                lo,
                hi,
            })
        })
    }

    /// A walk over the spans for ranges asked about in ascending order.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            rows: &self.rows,
            at: 0,
            k: 0,
        }
    }

    /// The whole spans that hold any element of `[first, end)`, ascending.
    pub fn touching(&self, first: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.seek(first).rest().take_while(move |s| s.0 < end)
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
/// search, and a strided row is crossed by arithmetic.
#[derive(Clone)]
pub struct Cursor<'a> {
    rows: &'a [Row],
    /// The row the walk stands in, and its span there.
    at: usize,
    k: u64,
}

impl<'a> Cursor<'a> {
    /// The span the walk stands at, if any.
    fn span(&self) -> Option<(u64, u64)> {
        let &(first, last, stride) = self.rows.get(self.at)?;
        let e = first + self.k * stride;
        Some((e, if stride == 1 { last + 1 } else { e + 1 }))
    }

    /// The end of the span before the one the walk stands at; 0 if none.
    fn end_before(&self) -> u64 {
        match (self.at, self.k) {
            (0, 0) => 0,
            (at, 0) => self.rows[at - 1].1 + 1,
            (at, k) => self.rows[at].0 + (k - 1) * self.rows[at].2 + 1,
        }
    }

    /// Step past the span the walk stands at.
    fn step(&mut self) {
        let (first, last, stride) = self.rows[self.at];
        if stride > 1 && first + (self.k + 1) * stride <= last {
            self.k += 1;
        } else {
            (self.at, self.k) = (self.at + 1, 0);
        }
    }

    /// The first span ending past `first`, if any.
    fn next_span(&mut self, first: u64) -> Option<(u64, u64)> {
        while self.rows.get(self.at).is_some_and(|r| r.1 < first) {
            (self.at, self.k) = (self.at + 1, 0);
        }
        let &(f, _, s) = self.rows.get(self.at)?;
        if s > 1 {
            self.k = self.k.max(first.saturating_sub(f).div_ceil(s));
        }
        self.span()
    }

    /// The spans from the one the walk stands at on.
    fn rest(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        let mut c = self.clone();
        std::iter::from_fn(move || {
            let span = c.span()?;
            c.step();
            Some(span)
        })
    }

    /// No span holds an element of `[first, end)`.
    pub fn misses(&mut self, first: u64, end: u64) -> bool {
        self.next_span(first).is_none_or(|s| s.0 >= end)
    }

    /// Whether one span holds the hull of `r`, or one row of `r`'s stride
    /// runs through all of its elements: either way the set holds every
    /// element, found with no walk over them. A range the set holds across
    /// several spans answers `false`.
    pub fn holds(&mut self, r: UpdateRange) -> bool {
        let (first, last) = (r.first, r.end() - 1);
        let Some((a, b)) = self.next_span(first) else {
            return false;
        };
        // The walk stands in the first row that ends at or past `first`.
        let (f, l, s) = self.rows[self.at];
        a <= first && last < b
            || s == r.stride && f <= first && last <= l && (first - f).is_multiple_of(s)
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
        (self.rest())
            .take_while(move |s| s.0 < end)
            .map(move |s| (Some(s), r.below(s.0), r.below(s.1)))
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
    use std::collections::BTreeSet;

    fn spans(s: &IntervalSet) -> Vec<(u64, u64)> {
        s.spans().collect()
    }

    /// Elements `[first, end)`.
    fn dense(first: u64, end: u64) -> UpdateRange {
        UpdateRange::new(0, first, end - first)
    }

    /// A change to a set.
    enum Op {
        Extend(Vec<UpdateRange>),
        Subtract(UpdateRange),
    }

    /// Whether `r` names element `e`.
    fn names(r: &UpdateRange, e: u64) -> bool {
        e >= r.first && (e - r.first).is_multiple_of(r.stride) && (e - r.first) / r.stride < r.count
    }

    /// Apply `op` to `s` and to `model`, the set of its elements, and check
    /// that the set's rows are the frame's fold of the model's maximal runs.
    fn apply(s: &mut IntervalSet, model: &mut BTreeSet<u64>, op: Op) {
        match op {
            Op::Extend(ranges) => {
                let named = ranges.iter().filter(|r| r.count > 0);
                model.extend(named.flat_map(|r| r.spans().flat_map(|(a, b)| a..b)));
                s.extend(ranges);
            }
            Op::Subtract(r) => {
                model.retain(|&e| !names(&r, e));
                s.subtract(r);
            }
        }
        let mut runs: Vec<(u64, u64, u64)> = Vec::new();
        for &e in model.iter() {
            match runs.last_mut() {
                Some(run) if run.0 + run.1 == e => run.1 += 1,
                _ => runs.push((e, 1, 1)),
            }
        }
        let mut rows = Vec::new();
        hdsm_tags::wire::fold_rows(runs, |r| rows.push(r));
        assert_eq!(s.rows().collect::<Vec<_>>(), rows);
    }

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
        assert_eq!(spans(&s), [(0, 5), (10, 20), (30, 40)]);
        // Empty and inverted ranges add nothing.
        s.insert(7, 7);
        s.insert(9, 8);
        assert_eq!(spans(&s).len(), 3);
        // Contained: nothing changes. Abutting on either side: merges.
        s.insert(12, 18);
        assert_eq!(spans(&s)[1], (10, 20));
        s.insert(20, 25);
        s.insert(8, 10);
        assert_eq!(spans(&s), [(0, 5), (8, 25), (30, 40)]);
        // Bridging several spans at once, overhanging both ends.
        s.insert(4, 31);
        assert_eq!(spans(&s), [(0, 40)]);
        // A row-by-row walk stays one span.
        let mut rows = IntervalSet::default();
        for r in 0..100u64 {
            rows.insert(r * 255, (r + 1) * 255);
        }
        assert_eq!(spans(&rows), [(0, 25_500)]);
    }

    #[test]
    fn subtract_trims_splits_and_removes() {
        let mut s = set(&[(0, 10), (20, 30), (40, 50)]);
        let mut model: BTreeSet<u64> = s.spans().flat_map(|(a, b)| a..b).collect();
        let mut cut = |s: &mut IntervalSet, first, end| {
            apply(s, &mut model, Op::Subtract(dense(first, end)));
        };
        cut(&mut s, 25, 25); // empty: nothing
        cut(&mut s, 10, 20); // a gap: nothing
        assert_eq!(spans(&s), [(0, 10), (20, 30), (40, 50)]);
        cut(&mut s, 22, 24); // inside a span: splits it
        assert_eq!(spans(&s), [(0, 10), (20, 22), (24, 30), (40, 50)]);
        cut(&mut s, 5, 21); // trims one, removes part of the next
        assert_eq!(spans(&s), [(0, 5), (21, 22), (24, 30), (40, 50)]);
        cut(&mut s, 21, 45); // removes whole spans, trims the last
        assert_eq!(spans(&s), [(0, 5), (45, 50)]);
        cut(&mut s, 0, u64::MAX);
        assert!(s.is_empty());
    }

    #[test]
    fn extend_and_subtract_agree_with_a_set_of_elements() {
        const N: u64 = 120;
        let mut seed = 0xE7_7E5Du64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let (mut partly, mut behind, mut held) = (0, 0, 0);
        for _ in 0..300 {
            let (mut s, mut model) = (IntervalSet::default(), BTreeSet::new());
            for _ in 0..30 {
                let mut ranges: Vec<UpdateRange> = Vec::new();
                for _ in 0..1 + next(6) {
                    let row = s.rows().nth(next(1 + s.rows().len() as u64) as usize);
                    let r = match (row, next(4)) {
                        // One drawn before (repeated), one from inside a
                        // row of the set at its stride and on past it (held
                        // in part), or one anywhere.
                        (_, 0) if !ranges.is_empty() => ranges[next(ranges.len() as u64) as usize],
                        (Some((f, n, st)), 1) => {
                            let k = next(n);
                            UpdateRange::row(0, (f + k * st, n - k + next(4), st))
                        }
                        _ => UpdateRange::row(0, (next(N), next(12), 1 + next(3))),
                    };
                    let has = (0..r.count).filter(|k| model.contains(&(r.first + k * r.stride)));
                    match has.count() as u64 {
                        0 => {}
                        k if k == r.count => held += 1,
                        _ => partly += 1,
                    }
                    ranges.push(r);
                }
                match next(3) {
                    0 => ranges.sort_by_key(|r| r.first),
                    1 => ranges.sort_by_key(|r| std::cmp::Reverse(r.first)),
                    _ => {}
                }
                behind += ranges
                    .windows(2)
                    .filter(|w| w[1].first < w[0].first)
                    .count();
                match next(3) {
                    0 => apply(&mut s, &mut model, Op::Subtract(ranges[0])),
                    _ => apply(&mut s, &mut model, Op::Extend(ranges)),
                }
            }
        }
        assert!(
            partly > 1000 && behind > 1000 && held > 1000,
            "{partly} {behind} {held}"
        );
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
                    s.subtract(dense(first, end));
                }
                bits[first as usize..end as usize].fill(insert);
                // Canonical form: sorted, non-empty, never touching.
                for w in spans(&s).windows(2) {
                    assert!(w[0].1 < w[1].0, "{:?}", spans(&s));
                }
                assert!(spans(&s).into_iter().all(|s| s.0 < s.1));
                let held: Vec<bool> = (0..N)
                    .map(|e| spans(&s).into_iter().any(|s| s.0 <= e && e < s.1))
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
    fn a_store_grows_a_lattice_in_place_up_to_the_frames_cap_and_then_starts_a_row() {
        // One element short of the cap: 0, 2, .., 2·(MOST − 2).
        const MOST: u64 = u32::MAX as u64;
        let mut s = IntervalSet {
            rows: vec![(0, 2 * (MOST - 2), 2)],
        };
        let held = s.rows.as_ptr();
        s.insert(2 * (MOST - 1), 2 * (MOST - 1) + 1);
        assert_eq!(s.rows().collect::<Vec<_>>(), [(0, MOST, 2)]);
        assert_eq!(s.rows.as_ptr(), held, "the row moved");
        s.insert(2 * MOST, 2 * MOST + 1);
        let mut folded = Vec::new();
        let runs = [(0, MOST - 1, 2), (2 * (MOST - 1), 1, 1), (2 * MOST, 1, 1)];
        hdsm_tags::wire::fold_rows(runs, |r| folded.push(r));
        assert_eq!(folded, [(0, MOST, 2), (2 * MOST, 1, 1)]);
        assert_eq!(s.rows().collect::<Vec<_>>(), folded);
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
            assert_eq!(tiled, elems, "{r:?} in {:?}", spans(&s));
            for (span, p) in &pieces {
                assert_eq!(p.stride, r.stride);
                let inside = |e: u64| span.is_some_and(|(a, b)| a <= e && e < b);
                let mut all = p.spans().flat_map(|(a, b)| a..b);
                assert!(all.all(|e| inside(e) == bits[e as usize]), "{r:?}");
                assert!(span.is_none_or(|sp| spans(&s).contains(&sp)));
            }
            let gaps_meet = |w: &[(Option<_>, _)]| w[0].0.is_none() && w[1].0.is_none();
            assert!(!pieces.windows(2).any(gaps_meet), "{r:?}");
            // Subtracting removes exactly the elements.
            let mut cut = s.clone();
            cut.subtract(r);
            elems.iter().for_each(|&e| bits[e as usize] = false);
            let held: Vec<bool> = (0..N)
                .map(|e| spans(&cut).into_iter().any(|s| s.0 <= e && e < s.1))
                .collect();
            assert_eq!(held, bits, "{r:?}");
            assert!(spans(&cut).windows(2).all(|w| w[0].1 < w[1].0));
        }
        // A row of the range's stride that runs through all of it holds
        // it; one of another stride, or a lattice it leaves, does not.
        let mut s = IntervalSet::default();
        (10..40).step_by(3).for_each(|e| s.insert(e, e + 1));
        let holds = |row| s.cursor().holds(UpdateRange::row(0, row));
        assert!(holds((16, 5, 3)) && holds((10, 10, 3)) && holds((13, 1, 2)));
        assert!(!holds((16, 9, 3)) && !holds((17, 2, 3)) && !holds((10, 3, 6)));
    }

    #[test]
    fn bulk_insert_touching_and_the_cursor_agree_with_one_range_at_a_time() {
        let base = set(&[(2, 4), (10, 20), (30, 31), (40, 50)]);
        // Ascending ranges that fill gaps, abut, overlap and stand alone.
        let ranges = [(0, 1), (4, 6), (8, 12), (20, 30), (31, 33), (60, 61)];
        let mut model: BTreeSet<u64> = base.spans().flat_map(|(a, b)| a..b).collect();
        let mut bulk = base.clone();
        let bulk_ranges = ranges.map(|(a, b)| dense(a, b)).to_vec();
        apply(&mut bulk, &mut model, Op::Extend(bulk_ranges));
        let mut one = base.clone();
        ranges.iter().for_each(|&(a, b)| one.insert(a, b));
        assert_eq!(bulk, one);
        assert_eq!(spans(&bulk), [(0, 1), (2, 6), (8, 33), (40, 50), (60, 61)]);
        // Nothing to add leaves the set as it is.
        apply(&mut bulk, &mut model, Op::Extend(vec![dense(5, 5)]));
        assert_eq!(bulk, one);
        // The whole spans that hold an element of a range.
        assert_eq!(base.touching(3, 11).collect::<Vec<_>>(), [(2, 4), (10, 20)]);
        assert_eq!(base.touching(4, 10).count(), 0);
        assert_eq!(base.touching(49, 100).collect::<Vec<_>>(), [(40, 50)]);
        // A cursor asked in ascending order answers as a search would.
        let mut c = base.cursor();
        assert!(c.misses(0, 2));
        assert!(c.holds(dense(11, 15)));
        assert!(!c.holds(dense(15, 21)));
        assert!(!c.misses(19, 31));
        assert!(c.misses(31, 40));
        assert!(c.holds(dense(40, 50)));
        assert!(c.misses(50, 60));
    }

    /// The spans of a bitmap.
    fn bitmap_spans(bits: &[bool]) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for e in (0..bits.len()).filter(|&e| bits[e]) {
            match spans.last_mut() {
                Some(s) if s.1 == e as u64 => s.1 += 1,
                _ => spans.push((e as u64, e as u64 + 1)),
            }
        }
        spans
    }

    /// The span or gap around element `e` of a bitmap: whether it is a
    /// span, where it starts and where it ends (a gap past the last span
    /// ends at `u64::MAX`).
    fn bitmap_around(bits: &[bool], e: u64) -> (bool, u64, u64) {
        let at = |x: u64| bits.get(x as usize).copied().unwrap_or(false);
        let (inside, mut lo, mut hi) = (at(e), e, e + 1);
        while lo > 0 && at(lo - 1) == inside {
            lo -= 1;
        }
        while hi < bits.len() as u64 && at(hi) == inside {
            hi += 1;
        }
        let past = !inside && hi >= bits.len() as u64;
        (inside, lo, if past { u64::MAX } else { hi })
    }

    #[test]
    fn every_operation_agrees_with_a_bitmap_and_keeps_the_frames_rows() {
        use hdsm_tags::wire::fold_rows;
        const N: u64 = 150;
        let mut seed = 0x5712_1DE5u64;
        let mut next = |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        let mut stores = 0;
        for _ in 0..400 {
            let (mut s, mut bits) = (IntervalSet::default(), vec![false; N as usize]);
            for _ in 0..24 {
                let (a, len) = (next(N), next(14));
                let b = (a + len).min(N);
                match next(9) {
                    // A store loop: every k-th element, forwards or back;
                    // every other one fills the lattice it left.
                    0..=2 => {
                        let k = 1 + next(3);
                        let from = if next(2) == 0 { a } else { a | 1 };
                        let mut elems: Vec<u64> =
                            (from..N).step_by(k as usize).take(len as usize).collect();
                        if next(3) == 0 {
                            elems.reverse();
                        }
                        for e in elems {
                            s.insert(e, e + 1);
                            bits[e as usize] = true;
                            stores += 1;
                        }
                    }
                    3 => {
                        s.insert(a, b);
                        bits[a as usize..b as usize].fill(true);
                    }
                    4 => {
                        let ranges: Vec<(u64, u64)> = (0..next(6))
                            .map(|_| (next(N), next(5)))
                            .map(|(f, n)| (f, (f + n).min(N)))
                            .collect();
                        for &(f, e) in &ranges {
                            bits[f as usize..e as usize].fill(true);
                        }
                        s.extend(ranges.iter().map(|&(f, e)| dense(f, e)));
                    }
                    5 => {
                        s.subtract(dense(a, b));
                        bits[a as usize..b as usize].fill(false);
                    }
                    6 => {
                        let (stride, count) = (1 + next(4), 1 + next(12));
                        let first = next(N - (count - 1) * stride);
                        let r = UpdateRange {
                            stride,
                            ..UpdateRange::new(0, first, count)
                        };
                        s.subtract(r);
                        (0..count).for_each(|k| bits[(first + k * stride) as usize] = false);
                    }
                    // Storing again where it just stored.
                    _ => {
                        if let Some((f, n, st)) = s.rows().last() {
                            let e = f + (n - 1) * st;
                            s.insert(e, e + 1);
                        }
                    }
                }
                // The rows are the frame's fold of the bitmap's spans.
                let want = bitmap_spans(&bits);
                let mut rows = Vec::new();
                fold_rows(want.iter().map(|&(x, y)| (x, y - x, 1)), |r| rows.push(r));
                assert_eq!(s.rows().collect::<Vec<_>>(), rows, "{want:?}");
                assert_eq!(spans(&s), want);
                // A split tiles its range and names each span or gap.
                let (x, y) = (next(N + 10), next(N + 10));
                let (x, y) = (x.min(y), x.max(y));
                let mut at = x;
                for p in s.split(x, y) {
                    assert_eq!(p.first, at);
                    assert_eq!((p.inside, p.lo, p.hi), bitmap_around(&bits, p.first));
                    assert!(p.first < p.end && p.end <= p.hi);
                    at = p.end;
                }
                assert_eq!(at, y);
                let touched: Vec<_> = (want.iter())
                    .filter(|sp| sp.0 < y && x < sp.1)
                    .copied()
                    .collect();
                assert_eq!(s.touching(x, y).collect::<Vec<_>>(), touched);
                if x < y {
                    let (inside, lo, hi) = bitmap_around(&bits, x);
                    let whole = (x..y).all(|e| bitmap_around(&bits, e) == (inside, lo, hi));
                    let around = s.around(x, y).map(|p| (p.inside, p.lo, p.hi));
                    assert_eq!(around, whole.then_some((inside, lo, hi)));
                }
                // A cursor asked in ascending order answers as the bitmap.
                let mut c = s.cursor();
                let mut from = 0;
                while from < N {
                    let first = from + next(6);
                    let end = first + 1 + next(20);
                    let (stride, count) = (1 + next(3), 1 + next(10));
                    let holds = |e: u64| bits.get(e as usize).copied().unwrap_or(false);
                    match next(3) {
                        0 => assert_eq!(c.misses(first, end), !(first..end).any(holds)),
                        1 => {
                            let (inside, _, hi) = bitmap_around(&bits, first);
                            assert_eq!(c.holds(dense(first, end)), inside && end <= hi);
                        }
                        _ => {
                            let r = UpdateRange {
                                stride,
                                ..UpdateRange::new(0, first, count)
                            };
                            let elems: Vec<u64> = r.spans().flat_map(|(a, b)| a..b).collect();
                            let all = elems.iter().all(|&e| holds(e));
                            assert!(!c.holds(r) || all, "{r:?}");
                            let pieces: Vec<_> = c.split(r).collect();
                            let tiled: Vec<u64> = (pieces.iter())
                                .flat_map(|(_, p)| p.spans().flat_map(|(a, b)| a..b))
                                .collect();
                            assert_eq!(tiled, elems, "{r:?}");
                            for (span, p) in &pieces {
                                assert_eq!(p.stride, r.stride);
                                for e in p.spans().flat_map(|(a, b)| a..b) {
                                    let (inside, lo, hi) = bitmap_around(&bits, e);
                                    assert_eq!(*span, inside.then_some((lo, hi)), "{r:?}");
                                }
                            }
                            let meet = |w: &[(Option<_>, UpdateRange)]| w[0].0 == w[1].0;
                            assert!(!pieces.windows(2).any(meet), "{r:?}");
                        }
                    }
                    from = first + 1;
                }
            }
        }
        assert!(stores > 10_000);
    }
}
