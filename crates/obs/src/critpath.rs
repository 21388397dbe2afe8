//! Per-sync-op critical-path analysis.
//!
//! For every barrier episode and lock acquisition observed in the event
//! stream, reconstruct the chain of spans and message hops that
//! *determined* its latency: the slowest client's wait, who the
//! straggler (or lock holder) was, which home shard did the work, how
//! many retransmits the reliability layer burned on which link, and
//! whether a lease expiry fired inside the window.
//!
//! The attributed chain is a *milestone walk* over the slowest client's
//! op span: span start → its own request/enter send → the last
//! enter/request arrival at the home → the grant/release send → the
//! grant/release arrival → span end. Milestones are clamped to be
//! monotone inside the span, so the segment durations always sum to the
//! op's measured latency exactly — the analyzer never invents or loses
//! time, it only attributes it.

use crate::event::{Event, EventKind, OpCtx, OpKind};
use std::collections::BTreeMap;

/// One attributed slice of an op's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// What the time went on.
    pub label: &'static str,
    /// Endpoint rank the time is attributed to.
    pub rank: u32,
    /// Duration in µs.
    pub dur_us: u64,
}

/// Retransmits attributed to one directed link during one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRetransmits {
    /// Sending endpoint rank.
    pub from: u32,
    /// Destination endpoint rank.
    pub to: u32,
    /// Retransmissions on the link for this op.
    pub count: u64,
}

/// The critical path of one sync operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCritPath {
    /// The operation (origin = the slowest client's endpoint rank).
    pub op: OpCtx,
    /// The op's latency: the slowest participant's span duration, µs.
    pub latency_us: u64,
    /// Endpoint rank that gated the op (last barrier arrival, or the
    /// lock holder that blocked the grant). `None` when unobserved.
    pub straggler: Option<u32>,
    /// Home shard that did the most attributed work for this op.
    pub slowest_shard: Option<u32>,
    /// Time attributed to that shard, µs.
    pub shard_busy_us: u64,
    /// Retransmissions the reliability layer spent on this op.
    pub retransmits: u64,
    /// Per-link breakdown of those retransmits, count-descending.
    pub links: Vec<LinkRetransmits>,
    /// Lease expiries that fired inside the op's window.
    pub lease_expiries: u64,
    /// The attributed chain; durations sum to `latency_us` exactly.
    pub segments: Vec<Segment>,
}

/// Segment labels (stable report keys).
pub mod seg {
    /// Local diff + pack + request/enter send.
    pub const SEND: &str = "enter (diff+pack+send)";
    /// Waiting for the last participant / the lock holder.
    pub const WAIT: &str = "straggler wait";
    /// Home-side merge and grant/release build.
    pub const HOME: &str = "home merge + release";
    /// Grant/release on the wire (incl. retransmission gaps).
    pub const FLIGHT: &str = "release in flight";
    /// Local unpack + heterogeneous conversion of carried updates.
    pub const APPLY: &str = "apply (unpack+convert)";
    /// Administrative shard drain: fence → relay → replay-then-promote →
    /// retire.
    pub const HANDOFF: &str = "handoff (fence+relay+promote)";
}

/// Where the home service sits among the endpoints: shard `s`'s primary
/// at endpoint `s`, its standby (with `replicas` = 1) at `shards + s`,
/// and DSD worker rank `r` after every home endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeLayout {
    /// Home shards, at least 1.
    pub shards: u32,
    /// Standby replicas per shard.
    pub replicas: u32,
}

impl HomeLayout {
    /// Number of home endpoints, primaries and standbys.
    pub fn home_eps(self) -> u32 {
        self.shards.max(1) * (1 + self.replicas)
    }

    /// The layout a cluster published as the gauges `cluster.shards` and
    /// `cluster.replicas`: one unreplicated shard when it published none.
    pub(crate) fn from_gauges(gauge: impl Fn(&str) -> Option<i64>) -> HomeLayout {
        HomeLayout {
            shards: gauge("cluster.shards").unwrap_or(1).max(1) as u32,
            replicas: gauge("cluster.replicas").unwrap_or(0).max(0) as u32,
        }
    }
}

/// Human name for endpoint `ep`: `shard s` for a primary, `shard s
/// standby` for its replica, `rank r` for DSD worker rank `r`.
pub fn rank_name(ep: u32, homes: HomeLayout) -> String {
    let shards = homes.shards.max(1);
    if ep < shards {
        format!("shard {ep}")
    } else if ep < homes.home_eps() {
        format!("shard {} standby", ep % shards)
    } else {
        format!("rank {}", ep - homes.home_eps() + 1)
    }
}

impl OpCritPath {
    /// One-line report: `barrier 3 epoch 7: 31.2 ms — straggler rank 1
    /// (+8.4 ms), slowest shard 0 (1.2 ms), 2 retransmits on link 1→0`.
    pub fn describe(&self, homes: HomeLayout) -> String {
        let mut s = format!(
            "{} {} epoch {}: {:.1} ms",
            self.op.kind.name(),
            self.op.id,
            self.op.epoch,
            self.latency_us as f64 / 1e3
        );
        let wait = self
            .segments
            .iter()
            .find(|g| g.label == seg::WAIT)
            .map(|g| g.dur_us)
            .unwrap_or(0);
        match self.straggler {
            Some(r) => s.push_str(&format!(
                " — straggler {} (+{:.1} ms)",
                rank_name(r, homes),
                wait as f64 / 1e3
            )),
            None => s.push_str(" — no straggler observed"),
        }
        if let Some(shard) = self.slowest_shard {
            s.push_str(&format!(
                ", slowest {} ({:.1} ms)",
                rank_name(shard, homes),
                self.shard_busy_us as f64 / 1e3
            ));
        }
        if self.retransmits > 0 {
            s.push_str(&format!(", {} retransmit(s)", self.retransmits));
            if let Some(l) = self.links.first() {
                s.push_str(&format!(" on link {}→{}", l.from, l.to));
            }
        }
        if self.lease_expiries > 0 {
            s.push_str(&format!(", {} lease expiry(ies)", self.lease_expiries));
        }
        s
    }
}

/// Grouping key: barrier episodes are cluster-wide (origin ignored),
/// lock acquisitions are per-origin.
fn group_key(op: &OpCtx) -> Option<(OpKind, u32, u32, u32)> {
    match op.kind {
        OpKind::Barrier => Some((OpKind::Barrier, op.id, op.epoch, 0)),
        OpKind::Lock => Some((OpKind::Lock, op.id, op.epoch, op.origin)),
        OpKind::Handoff => Some((OpKind::Handoff, op.id, op.epoch, 0)),
        _ => None,
    }
}

/// Compute critical paths for every barrier episode and lock
/// acquisition in `events` (any order). Endpoints below
/// `homes.home_eps()` are home instances, primaries or promoted
/// standbys; results are op-ordered.
pub fn analyze(events: &[Event], homes: HomeLayout) -> Vec<OpCritPath> {
    let home_eps = homes.home_eps();
    let mut groups: BTreeMap<(OpKind, u32, u32, u32), Vec<&Event>> = BTreeMap::new();
    for e in events {
        if let Some(k) = group_key(&e.op) {
            groups.entry(k).or_default().push(e);
        }
    }
    // Lease expiries are attributed by time window, not op (the victim's
    // "current op" at expiry may be stale), so keep them aside.
    let leases: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::LeaseExpired)
        .collect();
    let mut out = Vec::new();
    for ((kind, _, _, _), mut evs) in groups {
        evs.sort_by_key(|e| (e.t_us, e.seq));
        if kind == OpKind::Handoff {
            // An administrative drain, not a client sync op: the span on
            // the retiring primary covers fence → relay → promote, and
            // the whole stall is attributed to that shard. Client ops
            // stretched by the drain carry the wait on their own paths.
            let Some(top) = evs
                .iter()
                .filter(|e| e.kind == EventKind::Handoff && e.dur_us > 0)
                .max_by_key(|e| (e.dur_us, e.t_us))
            else {
                continue;
            };
            out.push(OpCritPath {
                op: top.op,
                latency_us: top.dur_us,
                straggler: None,
                slowest_shard: Some(top.rank),
                shard_busy_us: top.dur_us,
                retransmits: 0,
                links: Vec::new(),
                lease_expiries: 0,
                segments: vec![Segment {
                    label: seg::HANDOFF,
                    rank: top.rank,
                    dur_us: top.dur_us,
                }],
            });
            continue;
        }
        let span_kind = match kind {
            OpKind::Barrier => EventKind::Barrier,
            OpKind::Lock => EventKind::LockWait,
            _ => continue,
        };
        // The slowest participant's op span defines the latency.
        let Some(top) = evs
            .iter()
            .filter(|e| e.kind == span_kind && e.dur_us > 0)
            .max_by_key(|e| (e.dur_us, e.t_us))
        else {
            continue;
        };
        let (t0, end) = (top.t_us, top.t_us + top.dur_us);
        let me = top.rank;

        let (req_label, reply_label) = match kind {
            OpKind::Barrier => ("barrier-enter", "barrier-release"),
            _ => ("lock-req", "lock-grant"),
        };
        // Milestones of the slowest client's chain.
        let m_send = evs
            .iter()
            .find(|e| e.kind == EventKind::MsgSend && e.rank == me && e.label == req_label)
            .map(|e| e.t_us);
        let last_arrival = evs
            .iter()
            .filter(|e| e.kind == EventKind::MsgRecv && e.rank < home_eps && e.label == req_label)
            .max_by_key(|e| e.t_us);
        let m_arrive = last_arrival.map(|e| e.t_us);
        let reply_send = evs
            .iter()
            .filter(|e| {
                e.kind == EventKind::MsgSend
                    && e.rank < home_eps
                    && e.label == reply_label
                    && e.op.origin == top.op.origin
            })
            .max_by_key(|e| e.t_us);
        let m_reply = reply_send.map(|e| e.t_us);
        let m_recv = evs
            .iter()
            .filter(|e| e.kind == EventKind::MsgRecv && e.rank == me && e.label == reply_label)
            .map(|e| e.t_us)
            .max();

        // Straggler: for barriers the origin of the last request to reach
        // the home; for locks, resolved by the caller via LockHold overlap
        // (we fall back to the last arrival's origin, which for an
        // uncontended lock is the requester itself — suppress that).
        let straggler = match kind {
            OpKind::Barrier => last_arrival.map(|e| e.op.origin),
            _ => {
                let window = (m_arrive.unwrap_or(t0), m_reply.unwrap_or(end));
                events
                    .iter()
                    .filter(|e| {
                        e.kind == EventKind::LockHold
                            && e.dur_us > 0
                            && e.arg0 == top.op.id as u64
                            && e.rank != me
                            && e.t_us < window.1
                            && e.t_us + e.dur_us > window.0
                    })
                    .max_by_key(|e| e.t_us + e.dur_us)
                    .map(|e| e.rank)
            }
        };

        // Clamp milestones monotone inside [t0, end] so segment durations
        // always sum to the measured latency.
        let clamp = |m: Option<u64>, lo: u64| m.unwrap_or(lo).clamp(lo, end);
        let m1 = clamp(m_send, t0);
        let m2 = clamp(m_arrive, m1);
        let m3 = clamp(m_reply, m2);
        let m4 = clamp(m_recv, m3);
        let coordinator = reply_send
            .or(last_arrival)
            .map(|e| e.rank)
            .unwrap_or(0)
            .min(home_eps - 1);
        let segments = vec![
            Segment {
                label: seg::SEND,
                rank: me,
                dur_us: m1 - t0,
            },
            Segment {
                label: seg::WAIT,
                rank: straggler.unwrap_or(coordinator),
                dur_us: m2 - m1,
            },
            Segment {
                label: seg::HOME,
                rank: coordinator,
                dur_us: m3 - m2,
            },
            Segment {
                label: seg::FLIGHT,
                rank: coordinator,
                dur_us: m4 - m3,
            },
            Segment {
                label: seg::APPLY,
                rank: me,
                dur_us: end - m4,
            },
        ];

        // Home-shard busy time: home-side spans attributed to this op.
        let mut shard_busy: BTreeMap<u32, u64> = BTreeMap::new();
        for e in &evs {
            if e.rank < home_eps && e.dur_us > 0 && e.kind != span_kind {
                *shard_busy.entry(e.rank).or_default() += e.dur_us;
            }
        }
        let span_fallback = shard_busy.is_empty();
        if span_fallback {
            // Home spans were dropped: attribute by received bytes
            // instead (the busy-time figure is then unknown, 0).
            for e in &evs {
                if e.rank < home_eps && e.kind == EventKind::MsgRecv {
                    *shard_busy.entry(e.rank).or_default() += e.arg0;
                }
            }
        }
        let (slowest_shard, shard_busy_us) = shard_busy
            .iter()
            .max_by_key(|&(_, &v)| v)
            .map(|(&s, &v)| (Some(s), if span_fallback { 0 } else { v }))
            .unwrap_or((None, 0));

        // Retransmits charged to this op, per directed link.
        let mut link_counts: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for e in &evs {
            if e.kind == EventKind::Retransmit {
                *link_counts.entry((e.rank, e.arg1 as u32)).or_default() += 1;
            }
        }
        let retransmits: u64 = link_counts.values().sum();
        let mut links: Vec<LinkRetransmits> = link_counts
            .into_iter()
            .map(|((from, to), count)| LinkRetransmits { from, to, count })
            .collect();
        links.sort_by_key(|l| std::cmp::Reverse(l.count));

        let lease_expiries = leases
            .iter()
            .filter(|e| e.t_us >= t0 && e.t_us <= end)
            .count() as u64;

        out.push(OpCritPath {
            op: OpCtx {
                kind,
                id: top.op.id,
                epoch: top.op.epoch,
                origin: me,
            },
            latency_us: top.dur_us,
            straggler,
            slowest_shard,
            shard_busy_us,
            retransmits,
            links,
            lease_expiries,
            segments,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: HomeLayout = HomeLayout {
        shards: 1,
        replicas: 0,
    };

    fn op(kind: OpKind, id: u32, epoch: u32, origin: u32) -> OpCtx {
        OpCtx {
            kind,
            id,
            epoch,
            origin,
        }
    }

    fn ev(
        rank: u32,
        kind: EventKind,
        t_us: u64,
        dur_us: u64,
        label: &'static str,
        o: OpCtx,
    ) -> Event {
        Event {
            rank,
            kind,
            t_us,
            dur_us,
            label,
            op: o,
            ..Default::default()
        }
    }

    /// One barrier, one shard (ep 0), two workers (eps 1 and 2). Worker 1
    /// is fast, worker 2 arrives late — worker 1's span is gated on it.
    fn barrier_events() -> Vec<Event> {
        let o1 = op(OpKind::Barrier, 3, 7, 1);
        let o2 = op(OpKind::Barrier, 3, 7, 2);
        vec![
            // Worker 1: enters at 100, released at 400 → 300 µs span.
            ev(1, EventKind::Barrier, 100, 300, "", o1),
            ev(1, EventKind::MsgSend, 110, 0, "barrier-enter", o1),
            ev(0, EventKind::MsgRecv, 120, 0, "barrier-enter", o1),
            // Worker 2 is the straggler: its enter lands at 300.
            ev(2, EventKind::Barrier, 290, 95, "", o2),
            ev(2, EventKind::MsgSend, 295, 0, "barrier-enter", o2),
            ev(0, EventKind::MsgRecv, 300, 0, "barrier-enter", o2),
            // Home merges (span), then releases both.
            ev(0, EventKind::Convert, 305, 40, "", o2),
            ev(0, EventKind::MsgSend, 350, 0, "barrier-release", o1),
            ev(0, EventKind::MsgSend, 352, 0, "barrier-release", o2),
            ev(1, EventKind::MsgRecv, 380, 0, "barrier-release", o1),
            ev(2, EventKind::MsgRecv, 382, 0, "barrier-release", o2),
            // A retransmit the reliability layer burned on worker 1's link.
            ev(1, EventKind::Retransmit, 200, 0, "barrier-enter", o1),
        ]
    }

    #[test]
    fn barrier_critical_path_attributes_the_straggler() {
        let paths = analyze(&barrier_events(), ONE);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.op.kind, OpKind::Barrier);
        assert_eq!((p.op.id, p.op.epoch), (3, 7));
        assert_eq!(p.latency_us, 300);
        assert_eq!(p.straggler, Some(2));
        assert_eq!(p.slowest_shard, Some(0));
        assert_eq!(p.retransmits, 1);
        assert_eq!(
            p.links,
            vec![LinkRetransmits {
                from: 1,
                to: 0,
                count: 1
            }]
        );
        assert_eq!(p.lease_expiries, 0);
    }

    #[test]
    fn segments_sum_to_latency_exactly() {
        let paths = analyze(&barrier_events(), ONE);
        let p = &paths[0];
        let sum: u64 = p.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, p.latency_us);
        // The dominant segment is the straggler wait (110 → 300).
        let wait = p.segments.iter().find(|s| s.label == seg::WAIT).unwrap();
        assert_eq!(wait.rank, 2);
        assert_eq!(wait.dur_us, 190);
    }

    #[test]
    fn lock_critical_path_names_the_holder() {
        let acq = op(OpKind::Lock, 5, 2, 2);
        let events = vec![
            // Worker 2 (ep 2) waits 100..400 for lock 5.
            ev(2, EventKind::LockWait, 100, 300, "", acq),
            ev(2, EventKind::MsgSend, 105, 0, "lock-req", acq),
            ev(0, EventKind::MsgRecv, 110, 0, "lock-req", acq),
            ev(0, EventKind::MsgSend, 370, 0, "lock-grant", acq),
            ev(2, EventKind::MsgRecv, 390, 0, "lock-grant", acq),
            // Worker 1 (ep 1) held lock 5 until 360 — the blocker.
            Event {
                rank: 1,
                kind: EventKind::LockHold,
                t_us: 50,
                dur_us: 310,
                arg0: 5,
                ..Default::default()
            },
        ];
        let paths = analyze(&events, ONE);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.op.kind, OpKind::Lock);
        assert_eq!(p.latency_us, 300);
        assert_eq!(p.straggler, Some(1));
        let sum: u64 = p.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, p.latency_us);
    }

    #[test]
    fn describe_names_rank_shard_and_link() {
        let paths = analyze(&barrier_events(), ONE);
        let line = paths[0].describe(ONE);
        assert!(line.starts_with("barrier 3 epoch 7:"), "line: {line}");
        assert!(line.contains("straggler rank 2"), "line: {line}");
        assert!(line.contains("shard 0"), "line: {line}");
        assert!(line.contains("1 retransmit(s) on link 1→0"), "line: {line}");
    }

    #[test]
    fn missing_milestones_still_sum_to_latency() {
        // Only the client span survived (rings dropped the messages).
        let o = op(OpKind::Barrier, 0, 1, 1);
        let events = vec![ev(1, EventKind::Barrier, 10, 50, "", o)];
        let paths = analyze(&events, ONE);
        assert_eq!(paths.len(), 1);
        let sum: u64 = paths[0].segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, 50);
        assert_eq!(paths[0].straggler, None);
    }

    #[test]
    fn rank_names_split_shards_standbys_and_workers() {
        let two = HomeLayout {
            shards: 2,
            replicas: 0,
        };
        assert_eq!(rank_name(0, two), "shard 0");
        assert_eq!(rank_name(1, two), "shard 1");
        assert_eq!(rank_name(2, two), "rank 1");
        assert_eq!(rank_name(4, two), "rank 3");
        let replicated = HomeLayout {
            shards: 2,
            replicas: 1,
        };
        assert_eq!(rank_name(1, replicated), "shard 1");
        assert_eq!(rank_name(2, replicated), "shard 0 standby");
        assert_eq!(rank_name(3, replicated), "shard 1 standby");
        assert_eq!(rank_name(4, replicated), "rank 1");
    }

    #[test]
    fn a_promoted_standby_is_a_home_and_workers_are_named_past_it() {
        // One shard with a standby: the primary (ep 0) is gone and its
        // promoted standby (ep 1) serves lock 5. Workers are eps 2 and 3,
        // DSD ranks 1 and 2; rank 2 holds the lock rank 1 waits for.
        let homes = HomeLayout {
            shards: 1,
            replicas: 1,
        };
        let acq = op(OpKind::Lock, 5, 2, 2);
        let events = vec![
            ev(2, EventKind::LockWait, 100, 300, "", acq),
            ev(2, EventKind::MsgSend, 105, 0, "lock-req", acq),
            ev(1, EventKind::MsgRecv, 110, 0, "lock-req", acq),
            ev(1, EventKind::Convert, 300, 40, "", acq),
            ev(1, EventKind::MsgSend, 370, 0, "lock-grant", acq),
            ev(2, EventKind::MsgRecv, 390, 0, "lock-grant", acq),
            Event {
                rank: 3,
                kind: EventKind::LockHold,
                t_us: 50,
                dur_us: 310,
                arg0: 5,
                ..Default::default()
            },
        ];
        let paths = analyze(&events, homes);
        let p = &paths[0];
        assert_eq!(p.straggler, Some(3));
        assert_eq!((p.slowest_shard, p.shard_busy_us), (Some(1), 40));
        let home = p.segments.iter().find(|s| s.label == seg::HOME).unwrap();
        assert_eq!((home.rank, home.dur_us), (1, 260), "{:?}", p.segments);
        let line = p.describe(homes);
        assert!(line.contains("straggler rank 2 "), "line: {line}");
        assert!(line.contains("slowest shard 0 standby"), "line: {line}");
    }
}
