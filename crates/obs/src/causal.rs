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
}
