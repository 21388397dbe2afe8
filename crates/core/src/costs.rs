//! Cost accounting for Eq. 1.
//!
//! `C_share = t_index + t_tag + t_pack + t_unpack + t_conv` (paper §5).
//! Every DSD participant accumulates one of these per phase; the figure
//! harnesses aggregate them per node / per platform pair.
//!
//! A charged region is opened with [`Phase::begin`] and closed with
//! [`PhaseTimer::end`]: the one place that reads the wall clock for the
//! ledger and, over the same region, records the obs span — so every
//! non-zero term has a span of the matching kind in the trace.

use hdsm_obs::{EventKind, OpCtx, Recorder, Span};
use std::fmt;
use std::iter::Sum;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

/// One term of Eq. 1: ties the [`CostBreakdown`] field it is charged to
/// to the [`EventKind`] its regions are traced under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `t_index` ↔ [`EventKind::DiffScan`].
    Index,
    /// `t_tag` ↔ [`EventKind::TagBuild`].
    Tag,
    /// `t_pack` ↔ [`EventKind::Pack`].
    Pack,
    /// `t_unpack` ↔ [`EventKind::Unpack`].
    Unpack,
    /// `t_conv` ↔ [`EventKind::Convert`].
    Conv,
}

impl Phase {
    /// The span kind this term's regions are recorded under.
    pub(crate) fn event_kind(self) -> EventKind {
        match self {
            Phase::Index => EventKind::DiffScan,
            Phase::Tag => EventKind::TagBuild,
            Phase::Pack => EventKind::Pack,
            Phase::Unpack => EventKind::Unpack,
            Phase::Conv => EventKind::Convert,
        }
    }

    /// Open a charged region of this term on endpoint `rank`, attributed
    /// to sync op `op`. The span opens first so its bookkeeping stays
    /// outside the wall-clock delta.
    pub fn begin(self, recorder: &Recorder, rank: u32, op: OpCtx) -> PhaseTimer {
        let mut span = recorder.span(rank, self.event_kind());
        span.op(op);
        PhaseTimer {
            phase: self,
            span,
            t0: Instant::now(),
        }
    }
}

/// An open charged region (see [`Phase::begin`]). Dropping it without
/// [`PhaseTimer::end`] — an early error return — still records the span
/// but charges nothing, like the work it abandoned.
#[must_use = "end() charges the region to the ledger"]
pub struct PhaseTimer {
    phase: Phase,
    span: Span,
    t0: Instant,
}

impl PhaseTimer {
    /// Attach the two span arguments (see each [`EventKind`]'s docs).
    pub fn args(&mut self, arg0: u64, arg1: u64) {
        self.span.args(arg0, arg1);
    }

    /// Close the region: add its wall-clock duration to the term's field
    /// of `costs`, then emit the span on the recorder's clock.
    pub fn end(self, costs: &mut CostBreakdown) {
        let dt = self.t0.elapsed();
        match self.phase {
            Phase::Index => costs.t_index += dt,
            Phase::Tag => costs.t_tag += dt,
            Phase::Pack => costs.t_pack += dt,
            Phase::Unpack => costs.t_unpack += dt,
            Phase::Conv => costs.t_conv += dt,
        }
    }
}

/// The five cost components of data sharing, plus bookkeeping counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Mapping writes to coalesced index ranges: on a client, draining
    /// the write set its store accessors kept (the paper diffs the dirty
    /// pages against their twins).
    pub t_index: Duration,
    /// Settling the ranges that ship as tags: on a home, the unseen rows of
    /// the update log cut by a reader's interest and by others' holds,
    /// then coalesced; a client ships its drained ranges as they are.
    pub t_tag: Duration,
    /// Packing tag + data frames.
    pub t_pack: Duration,
    /// Unpacking received frames.
    pub t_unpack: Duration,
    /// Applying data: memcpy (homogeneous) or conversion (heterogeneous).
    pub t_conv: Duration,
    /// Updates sent.
    pub updates_sent: u64,
    /// Updates applied.
    pub updates_applied: u64,
    /// Payload bytes shipped.
    pub bytes_sent: u64,
    /// Payload bytes applied.
    pub bytes_applied: u64,
}

impl CostBreakdown {
    /// Total sharing cost (Eq. 1).
    pub fn c_share(&self) -> Duration {
        self.t_index + self.t_tag + self.t_pack + self.t_unpack + self.t_conv
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &CostBreakdown) {
        self.t_index += other.t_index;
        self.t_tag += other.t_tag;
        self.t_pack += other.t_pack;
        self.t_unpack += other.t_unpack;
        self.t_conv += other.t_conv;
        self.updates_sent += other.updates_sent;
        self.updates_applied += other.updates_applied;
        self.bytes_sent += other.bytes_sent;
        self.bytes_applied += other.bytes_applied;
    }

    /// Scale every time component by `factor` — used by the figure
    /// harnesses to model a slower CPU (the paper's 1.28 GHz SPARC vs
    /// 2.4 GHz P4); counters are unchanged. Never used in protocol logic.
    pub fn scaled(&self, factor: f64) -> CostBreakdown {
        let scale = |d: Duration| d.mul_f64(factor);
        CostBreakdown {
            t_index: scale(self.t_index),
            t_tag: scale(self.t_tag),
            t_pack: scale(self.t_pack),
            t_unpack: scale(self.t_unpack),
            t_conv: scale(self.t_conv),
            ..*self
        }
    }

    /// Percentage share of each component of `c_share` (index, tag, pack,
    /// unpack, conv), as in paper Figure 7.
    pub fn percentages(&self) -> [f64; 5] {
        let total = self.c_share().as_secs_f64();
        if total <= 0.0 {
            return [0.0; 5];
        }
        [
            self.t_index.as_secs_f64() / total * 100.0,
            self.t_tag.as_secs_f64() / total * 100.0,
            self.t_pack.as_secs_f64() / total * 100.0,
            self.t_unpack.as_secs_f64() / total * 100.0,
            self.t_conv.as_secs_f64() / total * 100.0,
        ]
    }
}

impl AddAssign<&CostBreakdown> for CostBreakdown {
    fn add_assign(&mut self, other: &CostBreakdown) {
        self.merge(other);
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, other: CostBreakdown) {
        self.merge(&other);
    }
}

impl Sum for CostBreakdown {
    fn sum<I: Iterator<Item = CostBreakdown>>(iter: I) -> CostBreakdown {
        let mut total = CostBreakdown::default();
        for c in iter {
            total.merge(&c);
        }
        total
    }
}

impl<'a> Sum<&'a CostBreakdown> for CostBreakdown {
    fn sum<I: Iterator<Item = &'a CostBreakdown>>(iter: I) -> CostBreakdown {
        let mut total = CostBreakdown::default();
        for c in iter {
            total.merge(c);
        }
        total
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "index {:?} | tag {:?} | pack {:?} | unpack {:?} | conv {:?} | total {:?}",
            self.t_index,
            self.t_tag,
            self.t_pack,
            self.t_unpack,
            self.t_conv,
            self.c_share()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostBreakdown {
        CostBreakdown {
            t_index: Duration::from_millis(10),
            t_tag: Duration::from_millis(20),
            t_pack: Duration::from_millis(5),
            t_unpack: Duration::from_millis(5),
            t_conv: Duration::from_millis(60),
            updates_sent: 3,
            updates_applied: 2,
            bytes_sent: 100,
            bytes_applied: 50,
        }
    }

    #[test]
    fn c_share_is_sum() {
        assert_eq!(sample().c_share(), Duration::from_millis(100));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.c_share(), Duration::from_millis(200));
        assert_eq!(a.updates_sent, 6);
        assert_eq!(a.bytes_applied, 100);
    }

    #[test]
    fn add_assign_and_sum_match_merge() {
        let mut a = sample();
        a += sample();
        let mut b = sample();
        b += &sample();
        let mut merged = sample();
        merged.merge(&sample());
        assert_eq!(a, merged);
        assert_eq!(b, merged);
        let owned: CostBreakdown = vec![sample(), sample()].into_iter().sum();
        assert_eq!(owned, merged);
        let parts = [sample(), sample()];
        let borrowed: CostBreakdown = parts.iter().sum();
        assert_eq!(borrowed, merged);
    }

    #[test]
    fn percentages_sum_to_100() {
        let p = sample().percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((p[4] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn empty_percentages_are_zero() {
        assert_eq!(CostBreakdown::default().percentages(), [0.0; 5]);
    }

    #[test]
    fn a_timed_region_charges_its_field_and_emits_its_span() {
        let rec = Recorder::enabled();
        let mut costs = CostBreakdown::default();
        for phase in [
            Phase::Index,
            Phase::Tag,
            Phase::Pack,
            Phase::Unpack,
            Phase::Conv,
        ] {
            let mut t = phase.begin(&rec, 3, OpCtx::default());
            t.args(7, 9);
            std::thread::sleep(Duration::from_micros(50));
            t.end(&mut costs);
        }
        let fields = [
            costs.t_index,
            costs.t_tag,
            costs.t_pack,
            costs.t_unpack,
            costs.t_conv,
        ];
        assert!(fields.iter().all(|d| *d > Duration::ZERO), "{costs}");
        let kinds: Vec<EventKind> = rec.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::DiffScan,
                EventKind::TagBuild,
                EventKind::Pack,
                EventKind::Unpack,
                EventKind::Convert
            ]
        );
        assert!(rec
            .events()
            .iter()
            .all(|e| (e.rank, e.arg0, e.arg1) == (3, 7, 9)));
    }

    #[test]
    fn scaling_only_touches_times() {
        let s = sample().scaled(2.0);
        assert_eq!(s.c_share(), Duration::from_millis(200));
        assert_eq!(s.updates_sent, 3);
    }
}
