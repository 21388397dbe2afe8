//! Windowed time-series: delta frames over the recorder's cumulative state.
//!
//! A [`TimeSeries`] turns the recorder's monotone tables (counters,
//! per-entry heat, per-rank ring pushes, placement decisions) and the
//! fabric's per-destination traffic totals into bounded, windowed *delta
//! frames*: every `interval` of fabric time — real in threaded mode,
//! virtual in simulation mode — the telemetry actor calls
//! [`Recorder::tick_window`](crate::Recorder::tick_window) with the
//! totals it read from `NetStats`, which samples the cumulative state,
//! subtracts the previous sample and pushes one [`Frame`] into a bounded
//! ring (oldest frames lost first).
//!
//! Frames are plain data with a stable single-line JSON rendering
//! (`to_json`), so a run can stream them as JSONL for tooling and the
//! `obs_report --follow` dashboard can tail them as text. Because every
//! sampled table is `BTreeMap`-ordered and the tick times are exact
//! interval boundaries on the fabric clock, same-seed simulated runs
//! produce byte-identical frame streams.

use crate::snapshot::{DecisionRow, JsonWriter};
use std::collections::{BTreeMap, VecDeque};

/// One telemetry window: what changed between `t_us - interval` and
/// `t_us`. Delta tables only carry rows that changed (non-zero deltas),
/// key-ordered; `dir_epochs` is an absolute snapshot of the directory
/// epoch table, not a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Window sequence number, starting at 0.
    pub seq: u64,
    /// Window end: the exact tick boundary on the fabric timeline, µs.
    pub t_us: u64,
    /// Sync operations in flight (begun, not yet completed) at the tick.
    pub in_flight: u32,
    /// Counter deltas, name-ordered, non-zero only.
    pub counters: Vec<(String, u64)>,
    /// Per-rank event-ring push deltas (events recorded this window).
    pub rank_events: Vec<(u32, u64)>,
    /// Per-entry update-bytes-shipped deltas (the windowed heat signal).
    pub entry_bytes: Vec<(u32, u64)>,
    /// Per-destination-endpoint `(msgs, bytes)` deltas.
    pub dests: Vec<(u32, u64, u64)>,
    /// Absolute directory epoch table at the tick, shard-ordered.
    pub dir_epochs: Vec<(u32, u64)>,
    /// Placement decisions applied during this window, in order.
    pub decisions: Vec<DecisionRow>,
}

impl Frame {
    /// Total messages that crossed the fabric this window.
    pub fn msgs(&self) -> u64 {
        self.dests.iter().map(|&(_, m, _)| m).sum()
    }

    /// Total payload bytes that crossed the fabric this window.
    pub fn bytes(&self) -> u64 {
        self.dests.iter().map(|&(_, _, b)| b).sum()
    }

    /// Total events recorded this window across ranks.
    pub fn events(&self) -> u64 {
        self.rank_events.iter().map(|&(_, n)| n).sum()
    }

    /// One dashboard line for `obs_report --follow`.
    pub fn brief(&self) -> String {
        format!(
            "[{:>9.3}s] win#{:<4} inflight={:<3} Δmsgs={:<6} Δbytes={:<9} Δevents={:<6} rehomes={}",
            self.t_us as f64 / 1e6,
            self.seq,
            self.in_flight,
            self.msgs(),
            self.bytes(),
            self.events(),
            self.decisions.len()
        )
    }

    /// Stable single-line JSON rendering (one JSONL record).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_u64("seq", self.seq);
        w.field_u64("t_us", self.t_us);
        w.field_u64("in_flight", self.in_flight as u64);
        w.key("counters");
        w.begin_obj();
        for (k, v) in &self.counters {
            w.field_u64_dyn(k, *v);
        }
        w.end_obj();
        w.key("rank_events");
        w.begin_arr();
        for &(rank, n) in &self.rank_events {
            w.begin_arr();
            w.raw_value(&rank.to_string());
            w.raw_value(&n.to_string());
            w.end_arr();
        }
        w.end_arr();
        w.key("entry_bytes");
        w.begin_arr();
        for &(entry, b) in &self.entry_bytes {
            w.begin_arr();
            w.raw_value(&entry.to_string());
            w.raw_value(&b.to_string());
            w.end_arr();
        }
        w.end_arr();
        w.key("dests");
        w.begin_arr();
        for &(dst, m, b) in &self.dests {
            w.begin_arr();
            w.raw_value(&dst.to_string());
            w.raw_value(&m.to_string());
            w.raw_value(&b.to_string());
            w.end_arr();
        }
        w.end_arr();
        w.key("dir_epochs");
        w.begin_arr();
        for &(shard, epoch) in &self.dir_epochs {
            w.begin_arr();
            w.raw_value(&shard.to_string());
            w.raw_value(&epoch.to_string());
            w.end_arr();
        }
        w.end_arr();
        w.key("decisions");
        w.begin_arr();
        for d in &self.decisions {
            w.begin_obj();
            w.field_u64("entry", d.entry as u64);
            w.field_u64("from_shard", d.from_shard as u64);
            w.field_u64("to_shard", d.to_shard as u64);
            w.field_u64("writer", d.writer as u64);
            w.field_u64("epoch", d.epoch as u64);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

/// One cumulative sample of the recorder's state, taken at a tick
/// boundary. The time-series keeps the previous sample and emits the
/// difference.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// Cumulative counters.
    pub counters: BTreeMap<String, u64>,
    /// Cumulative per-rank ring pushes.
    pub rank_events: BTreeMap<u32, u64>,
    /// Cumulative per-entry bytes shipped.
    pub entry_bytes: BTreeMap<u32, u64>,
    /// Cumulative per-destination `(msgs, bytes)`.
    pub dests: BTreeMap<u32, (u64, u64)>,
    /// Absolute directory epoch table.
    pub dir_epochs: BTreeMap<u32, u64>,
    /// All placement decisions so far, in order.
    pub decisions: Vec<DecisionRow>,
    /// Sync operations currently in flight.
    pub in_flight: u32,
}

/// The windowed aggregator: bounded ring of delta [`Frame`]s plus the
/// previous cumulative [`Sample`] they are diffed against.
#[derive(Debug)]
pub struct TimeSeries {
    cap: usize,
    seq: u64,
    frames: VecDeque<Frame>,
    prev: Sample,
}

fn delta_map<K: Copy + Ord>(cur: &BTreeMap<K, u64>, prev: &BTreeMap<K, u64>) -> Vec<(K, u64)> {
    cur.iter()
        .filter_map(|(&k, &v)| {
            let d = v.saturating_sub(prev.get(&k).copied().unwrap_or(0));
            (d > 0).then_some((k, d))
        })
        .collect()
}

impl TimeSeries {
    /// A new aggregator keeping at most `cap` frames (oldest lost first);
    /// whoever calls [`Self::push`] sets the window length.
    pub fn new(cap: usize) -> TimeSeries {
        TimeSeries {
            cap: cap.max(1),
            seq: 0,
            frames: VecDeque::new(),
            prev: Sample::default(),
        }
    }

    /// Close the window ending at `t_us`: diff `cur` against the previous
    /// sample, push the resulting frame and return a copy of it.
    pub fn push(&mut self, t_us: u64, cur: Sample) -> Frame {
        let dests = cur
            .dests
            .iter()
            .filter_map(|(&dst, &(m, b))| {
                let (pm, pb) = self.prev.dests.get(&dst).copied().unwrap_or((0, 0));
                let (dm, db) = (m.saturating_sub(pm), b.saturating_sub(pb));
                (dm > 0 || db > 0).then_some((dst, dm, db))
            })
            .collect();
        let frame = Frame {
            seq: self.seq,
            t_us,
            in_flight: cur.in_flight,
            counters: cur
                .counters
                .iter()
                .filter_map(|(k, &v)| {
                    let d = v.saturating_sub(self.prev.counters.get(k).copied().unwrap_or(0));
                    (d > 0).then(|| (k.clone(), d))
                })
                .collect(),
            rank_events: delta_map(&cur.rank_events, &self.prev.rank_events),
            entry_bytes: delta_map(&cur.entry_bytes, &self.prev.entry_bytes),
            dests,
            dir_epochs: cur.dir_epochs.iter().map(|(&s, &e)| (s, e)).collect(),
            decisions: cur.decisions[self.prev.decisions.len().min(cur.decisions.len())..].to_vec(),
        };
        self.seq += 1;
        if self.frames.len() == self.cap {
            self.frames.pop_front();
        }
        self.frames.push_back(frame.clone());
        self.prev = cur;
        frame
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &Frame> {
        self.frames.iter()
    }

    /// Render every retained frame as JSONL (one frame per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            out.push_str(&f.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(msgs: u64, counter: u64) -> Sample {
        let mut s = Sample::default();
        s.counters.insert("net.msgs".into(), counter);
        s.dests.insert(0, (msgs, msgs * 100));
        s.rank_events.insert(1, counter);
        s.dir_epochs.insert(0, 1);
        s
    }

    #[test]
    fn frames_carry_deltas_not_cumulatives() {
        let mut ts = TimeSeries::new(8);
        let f0 = ts.push(1000, sample(5, 7));
        assert_eq!(f0.seq, 0);
        assert_eq!(f0.msgs(), 5);
        assert_eq!(f0.counters, vec![("net.msgs".to_string(), 7)]);
        let f1 = ts.push(2000, sample(8, 9));
        assert_eq!(f1.seq, 1);
        assert_eq!(f1.msgs(), 3);
        assert_eq!(f1.bytes(), 300);
        assert_eq!(f1.counters, vec![("net.msgs".to_string(), 2)]);
        assert_eq!(f1.events(), 2);
        // Unchanged tables produce an empty delta, not zero rows.
        let f2 = ts.push(3000, sample(8, 9));
        assert!(f2.counters.is_empty() && f2.dests.is_empty());
        // Directory epochs are absolute, present in every frame.
        assert_eq!(f2.dir_epochs, vec![(0, 1)]);
    }

    #[test]
    fn ring_is_bounded() {
        let mut ts = TimeSeries::new(3);
        for i in 0..10u64 {
            ts.push(i * 10, Sample::default());
        }
        let seqs: Vec<u64> = ts.frames().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn json_is_single_line_and_stable() {
        let mut ts = TimeSeries::new(8);
        let f = ts.push(1000, sample(5, 7));
        let j = f.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"seq\":0,\"t_us\":1000,\"in_flight\":0"));
        assert!(j.contains("\"counters\":{\"net.msgs\":7}"));
        assert!(j.contains("\"dests\":[[0,5,500]]"));
        assert_eq!(j, f.to_json());
        let line = f.brief();
        assert!(line.contains("win#0"));
        assert!(line.contains("Δmsgs=5"));
    }

    #[test]
    fn decisions_are_windowed() {
        let mut ts = TimeSeries::new(8);
        let d = DecisionRow {
            entry: 3,
            from_shard: 1,
            to_shard: 0,
            writer: 2,
            epoch: 1,
        };
        let mut s = Sample::default();
        s.decisions.push(d);
        let f0 = ts.push(1000, s.clone());
        assert_eq!(f0.decisions, vec![d]);
        // Same cumulative decision list: the next window is empty.
        let f1 = ts.push(2000, s);
        assert!(f1.decisions.is_empty());
    }
}
