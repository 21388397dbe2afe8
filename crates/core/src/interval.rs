//! Sets of element ranges of one index-table entry.
//!
//! An [`IntervalSet`] is what both ends of "ship what is read" keep per
//! entry: a client the ranges its read accessors have returned (its
//! *interest*) and the ranges it was told changed without being sent them
//! (its *stale* set); a home shard each reader's interest as last reported.
//! Spans are half-open `[start, end)`, sorted, disjoint and never adjacent
//! — two that meet merge — so a reader that walks an array row by row
//! holds one span, not one per row, and every operation is a binary search
//! plus work proportional to the spans it touches.

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
    pub fn insert(&mut self, first: u64, end: u64) {
        if end <= first {
            return;
        }
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

    /// The span or gap that holds all of the non-empty `[first, end)`, as
    /// a [`Piece`] covering the range; `None` when the range crosses a
    /// span boundary.
    pub fn around(&self, first: u64, end: u64) -> Option<Piece> {
        let mut pieces = self.split(first, end);
        pieces.next().filter(|p| p.end == end)
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
}
