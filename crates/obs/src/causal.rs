//! Merging per-rank event rings into one causally consistent timeline.
//!
//! Every recorded event carries an [`HlcStamp`](crate::hlc::HlcStamp);
//! sorting the merged rings by `(hlc, rank)` yields a total order that
//! *contains* the happens-before relation: a message's `MsgSend` always
//! precedes every matching `MsgRecv` (same flow id), and each rank's own
//! events keep their program order — even when the fault plan dropped,
//! duplicated or reordered the wire traffic in between. Local wall
//! clocks alone cannot promise this once messages bounce between ranks
//! with skewed clocks; the HLC merge on receive is what restores it.
//!
//! This module also estimates pairwise clock skew from matched
//! send/receive flows: with `delta(a→b) = recv.t_us − send.t_us`, the
//! one-way minimum includes both the true latency and the skew, so
//! `(min delta(a→b) − min delta(b→a)) / 2` cancels the symmetric latency
//! and leaves the skew of `b` relative to `a` (the classic NTP offset
//! estimate). In this in-process fabric all ranks share one epoch clock,
//! so the estimate doubles as a self-check: it should sit near zero.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;

/// Sort `events` into HLC (causal) order. Stable for equal stamps:
/// ties break on wall time, then rank.
pub fn causal_order(events: &[Event]) -> Vec<Event> {
    let mut out = events.to_vec();
    out.sort_by_key(|e| (e.hlc, e.t_us, e.rank));
    out
}

/// Check that `events` (in any order) satisfy the two HLC laws the
/// recorder promises:
///
/// 1. per-rank strict monotonicity — each rank's stamps are pairwise
///    distinct, and the instant events' stamps strictly increase in
///    wall order. (Duration spans are stamped when they *close*, not at
///    their recorded start time `t_us`, so a long span legitimately
///    carries a later stamp than shorter work that began after it —
///    wall order and stamp order only have to agree where the stamp was
///    taken at `t_us`.)
/// 2. send-before-receive — for every flow id, the `MsgSend` stamp is
///    strictly less than every matching `MsgRecv` stamp.
///
/// Returns the first violation as a human-readable message.
pub fn check_happens_before(events: &[Event]) -> Result<(), String> {
    let mut per_rank: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    for e in events {
        per_rank.entry(e.rank).or_default().push(e);
    }
    for (rank, evs) in per_rank {
        // Every tick strictly advances the rank's clock, so no two
        // stamps on one rank may coincide — spans included.
        let mut stamps: Vec<_> = evs.iter().map(|e| e.hlc).collect();
        stamps.sort();
        for w in stamps.windows(2) {
            if w[0] == w[1] {
                return Err(format!("rank {rank}: stamp {} issued twice", w[0]));
            }
        }
        // Instants are stamped at `t_us`, so their wall order is their
        // tick order and the stamps must climb with it.
        let mut instants: Vec<&&Event> = evs.iter().filter(|e| e.dur_us == 0).collect();
        instants.sort_by_key(|e| (e.t_us, e.hlc));
        for w in instants.windows(2) {
            if w[0].hlc >= w[1].hlc {
                return Err(format!(
                    "rank {rank}: stamp {} does not advance past {} ({} -> {})",
                    w[1].hlc,
                    w[0].hlc,
                    w[0].kind.name(),
                    w[1].kind.name()
                ));
            }
        }
    }
    // Send happens-before every matching receive.
    let mut sends: BTreeMap<u64, &Event> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::MsgSend && e.flow != 0 {
            sends.insert(e.flow, e);
        }
    }
    for e in events {
        if e.kind == EventKind::MsgRecv && e.flow != 0 {
            if let Some(s) = sends.get(&e.flow) {
                if s.hlc >= e.hlc {
                    return Err(format!(
                        "flow {}: send stamp {} not before recv stamp {} ({} {}→{})",
                        e.flow, s.hlc, e.hlc, s.label, s.rank, e.rank
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Estimated clock offset between one rank pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewRow {
    /// Lower-numbered rank of the pair.
    pub a: u32,
    /// Higher-numbered rank of the pair.
    pub b: u32,
    /// Estimated offset of `b`'s clock relative to `a`'s, in µs
    /// (positive = `b` runs ahead).
    pub skew_us: i64,
    /// Matched send/recv samples behind the estimate.
    pub samples: u64,
}

/// Estimate pairwise clock skew from matched message flows. Only pairs
/// observed in *both* directions produce a row (the one-way minimum
/// alone cannot separate skew from latency).
pub fn estimate_skew(events: &[Event]) -> Vec<SkewRow> {
    let mut sends: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::MsgSend && e.flow != 0 {
            sends.insert(e.flow, (e.rank, e.t_us));
        }
    }
    // (src, dst) -> (min one-way delta, samples)
    let mut mins: BTreeMap<(u32, u32), (i64, u64)> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::MsgRecv && e.flow != 0 {
            if let Some(&(src, sent_us)) = sends.get(&e.flow) {
                if src == e.rank {
                    continue;
                }
                let delta = e.t_us as i64 - sent_us as i64;
                let slot = mins.entry((src, e.rank)).or_insert((i64::MAX, 0));
                slot.0 = slot.0.min(delta);
                slot.1 += 1;
            }
        }
    }
    let mut out = Vec::new();
    for (&(a, b), &(d_ab, n_ab)) in &mins {
        if a >= b {
            continue;
        }
        if let Some(&(d_ba, n_ba)) = mins.get(&(b, a)) {
            out.push(SkewRow {
                a,
                b,
                skew_us: (d_ab - d_ba) / 2,
                samples: n_ab + n_ba,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hlc::HlcStamp;

    fn ev(rank: u32, kind: EventKind, t_us: u64, hlc: (u64, u32), flow: u64) -> Event {
        Event {
            rank,
            kind,
            t_us,
            hlc: HlcStamp { l: hlc.0, c: hlc.1 },
            flow,
            ..Default::default()
        }
    }

    #[test]
    fn causal_order_puts_send_before_recv_despite_wall_clocks() {
        // Receiver's wall clock reads *earlier* than the sender's, but
        // the merged HLC stamp still orders recv after send.
        let send = ev(1, EventKind::MsgSend, 100, (100, 0), 7);
        let recv = ev(2, EventKind::MsgRecv, 60, (100, 1), 7);
        let ordered = causal_order(&[recv, send]);
        assert_eq!(ordered[0].kind, EventKind::MsgSend);
        assert_eq!(ordered[1].kind, EventKind::MsgRecv);
        assert!(check_happens_before(&[send, recv]).is_ok());
    }

    #[test]
    fn happens_before_violations_are_reported() {
        let send = ev(1, EventKind::MsgSend, 100, (100, 5), 7);
        let recv = ev(2, EventKind::MsgRecv, 110, (100, 2), 7);
        let err = check_happens_before(&[send, recv]).unwrap_err();
        assert!(err.contains("flow 7"), "err: {err}");
    }

    #[test]
    fn rank_monotonicity_is_checked() {
        let a = ev(1, EventKind::Other, 10, (10, 0), 0);
        let b = ev(1, EventKind::Other, 20, (10, 0), 0); // stamp did not advance
        let err = check_happens_before(&[a, b]).unwrap_err();
        assert!(err.contains("rank 1"), "err: {err}");
    }

    #[test]
    fn skew_estimate_cancels_symmetric_latency() {
        // b's clock runs 50 µs ahead of a's; true one-way latency 10 µs.
        // a→b: recv stamped at send + 10 + 50; b→a: recv at send + 10 − 50.
        let events = [
            ev(0, EventKind::MsgSend, 100, (100, 0), 1),
            ev(1, EventKind::MsgRecv, 160, (160, 0), 1),
            ev(1, EventKind::MsgSend, 200, (200, 0), 2),
            ev(0, EventKind::MsgRecv, 160, (200, 1), 2),
        ];
        let rows = estimate_skew(&events);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].a, rows[0].b), (0, 1));
        assert_eq!(rows[0].skew_us, 50);
        assert_eq!(rows[0].samples, 2);
    }

    #[test]
    fn one_way_traffic_yields_no_skew_row() {
        let events = [
            ev(0, EventKind::MsgSend, 100, (100, 0), 1),
            ev(1, EventKind::MsgRecv, 110, (110, 0), 1),
        ];
        assert!(estimate_skew(&events).is_empty());
    }
}
