//! The run's one export: a JSONL log, and the one JSON writer.
//!
//! [`Recorder::log`](crate::Recorder::log) renders an armed run as one
//! JSON object per line, each tagged with its `"row"` kind, in this
//! order:
//!
//! - `header` (first line): `schema`, the home layout (`shards`,
//!   `replicas`), `wall_us`, and the events ever recorded and dropped to
//!   ring wraparound;
//! - `event`: every held event, in [`Recorder::events`](crate::Recorder::events)
//!   order (`(t_us, seq)`, a causal one);
//! - `inflight` and `epoch`: the sync ops in flight (at a bundle's
//!   trigger; none once a run has ended) and the directory epoch table;
//! - `frame`: the retained time-series windows, oldest first;
//! - `stall`: the watchdog's firings, in firing order;
//! - `decision`: the placement decisions, in order;
//! - `trigger`: the flight recorder's trigger log, in firing order.
//!
//! A flight-recorder bundle is the same rendering over the last *n*
//! events per rank. Its header names the trigger, and its `wall_us` is
//! the trigger's `t_us`, so rendering a bundle reads no clock. Every
//! table is key-ordered, so same-seed simulated runs render byte-identical
//! logs, and every `event` row of a bundle is also a line of the
//! end-of-run log (unless the ring dropped it since).

use crate::critpath::HomeLayout;
use crate::event::{Event, OpCtx};
use crate::recorder::InflightOp;
use crate::snapshot::DecisionRow;
use crate::timeseries::Frame;
use crate::watchdog::StallReport;
use std::fmt::Write;

/// Version of the row schema, written in every header.
const SCHEMA: u64 = 1;

/// One entry of the flight recorder's trigger log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerRow {
    /// What fired (`stall`, `worker-lost`, `lease-expired`,
    /// `view-change`, `sim-deadlock`, `dump`).
    pub trigger: &'static str,
    /// Bundle sequence number, starting at 0.
    pub seq: u64,
    /// Fabric time of the trigger, µs.
    pub t_us: u64,
    /// Path the bundle was written to (empty if the write failed). Not
    /// part of the rendered row, so two runs that write to different
    /// directories still render identical logs.
    pub path: String,
}

/// Everything one log renders, gathered by the recorder one lock at a
/// time.
pub(crate) struct Tables {
    pub homes: HomeLayout,
    /// The run's end, or the bundle's trigger time, µs.
    pub wall_us: u64,
    pub recorded: u64,
    pub dropped: u64,
    /// The bundle's `(trigger, seq)`; `None` for the end-of-run log.
    pub trigger: Option<(&'static str, u64)>,
    pub events: Vec<Event>,
    pub inflight: Vec<InflightOp>,
    pub epochs: Vec<(u32, u64)>,
    pub frames: Vec<Frame>,
    pub stalls: Vec<StallReport>,
    pub decisions: Vec<DecisionRow>,
    pub triggers: Vec<TriggerRow>,
}

impl Tables {
    /// Render the tables as JSONL, one row per line.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.row("header");
        w.field("schema", SCHEMA);
        if let Some((trigger, seq)) = self.trigger {
            w.field_str("trigger", trigger);
            w.field("seq", seq);
        }
        w.field("shards", self.homes.shards.into());
        w.field("replicas", self.homes.replicas.into());
        w.field("wall_us", self.wall_us);
        w.field("events_recorded", self.recorded);
        w.field("events_dropped", self.dropped);
        w.end_row();
        for e in &self.events {
            w.row("event");
            w.field("t_us", e.t_us);
            w.field("seq", e.seq);
            w.field("rank", e.rank.into());
            w.field_str("kind", e.kind.name());
            if e.dur_us > 0 {
                w.field("dur_us", e.dur_us);
            }
            w.field("arg0", e.arg0);
            w.field("arg1", e.arg1);
            if !e.label.is_empty() {
                w.field_str("label", e.label);
            }
            if e.flow != 0 {
                w.field("flow", e.flow);
            }
            if e.op.is_some() {
                w.op(&e.op);
            }
            w.end_row();
        }
        for f in &self.inflight {
            w.row("inflight");
            w.op(&f.op);
            w.field("rank", f.rank.into());
            w.field("start_us", f.start_us);
            w.field("age_us", self.wall_us.saturating_sub(f.start_us));
            w.end_row();
        }
        for &(shard, epoch) in &self.epochs {
            w.row("epoch");
            w.field("shard", shard.into());
            w.field("epoch", epoch);
            w.end_row();
        }
        for f in &self.frames {
            w.row("frame");
            w.field("seq", f.seq);
            w.field("t_us", f.t_us);
            w.field("in_flight", f.in_flight.into());
            w.key("counters");
            w.begin_obj();
            for (k, v) in &f.counters {
                w.field(k, *v);
            }
            w.end_obj();
            w.pairs("rank_events", &f.rank_events);
            w.pairs("entry_bytes", &f.entry_bytes);
            w.tuples("dests", f.dests.iter().map(|&(d, m, b)| [d.into(), m, b]));
            w.pairs("dir_epochs", &f.dir_epochs);
            w.key("decisions");
            w.begin_arr();
            for d in &f.decisions {
                w.begin_obj();
                w.decision(d);
                w.end_obj();
            }
            w.end_arr();
            w.end_row();
        }
        for s in &self.stalls {
            w.row("stall");
            w.op(&s.op);
            w.field("rank", s.rank.into());
            w.field("start_us", s.start_us);
            w.field("age_us", s.age_us);
            w.field("budget_us", s.budget_us);
            w.field("fired_at_us", s.fired_at_us);
            w.field("latency_us", s.critpath.latency_us);
            if let Some(r) = s.critpath.straggler {
                w.field("straggler", r.into());
            }
            w.field("retransmits", s.critpath.retransmits);
            w.key("segments");
            w.begin_arr();
            for g in &s.critpath.segments {
                w.begin_obj();
                w.field_str("label", g.label);
                w.field("rank", g.rank.into());
                w.field("dur_us", g.dur_us);
                w.end_obj();
            }
            w.end_arr();
            w.end_row();
        }
        for d in &self.decisions {
            w.row("decision");
            w.decision(d);
            w.end_row();
        }
        for t in &self.triggers {
            w.row("trigger");
            w.field_str("trigger", t.trigger);
            w.field("seq", t.seq);
            w.field("t_us", t.t_us);
            w.end_row();
        }
        w.finish()
    }
}

/// Minimal JSON writer, the crate's one string escaper: objects, arrays
/// and unsigned numbers, enough for the log and the Chrome trace.
pub(crate) struct JsonWriter {
    buf: String,
    /// Does the next value need a separating comma?
    comma: bool,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter {
            buf: String::new(),
            comma: false,
        }
    }

    fn sep(&mut self) {
        if self.comma {
            self.buf.push(',');
        }
        self.comma = true;
    }

    pub fn begin_obj(&mut self) {
        self.sep();
        self.buf.push('{');
        self.comma = false;
    }

    pub fn end_obj(&mut self) {
        self.buf.push('}');
        self.comma = true;
    }

    pub fn begin_arr(&mut self) {
        self.sep();
        self.buf.push('[');
        self.comma = false;
    }

    pub fn end_arr(&mut self) {
        self.buf.push(']');
        self.comma = true;
    }

    /// Write `"key":`; the next value follows it without a comma.
    pub fn key(&mut self, k: &str) {
        self.sep();
        self.string(k);
        self.buf.push(':');
        self.comma = false;
    }

    /// An unsigned number as an array element or after [`Self::key`].
    pub fn value(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.buf, "{v}");
    }

    pub fn field(&mut self, k: &str, v: u64) {
        self.key(k);
        self.value(v);
    }

    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.sep();
        self.string(v);
    }

    /// An array of fixed-width number tuples, `"k":[[a,b],…]`.
    fn tuples<const N: usize>(&mut self, k: &str, rows: impl Iterator<Item = [u64; N]>) {
        self.key(k);
        self.begin_arr();
        for row in rows {
            self.begin_arr();
            for v in row {
                self.value(v);
            }
            self.end_arr();
        }
        self.end_arr();
    }

    fn pairs(&mut self, k: &str, rows: &[(u32, u64)]) {
        self.tuples(k, rows.iter().map(|&(a, b)| [a.into(), b]));
    }

    /// Open a log row: an object whose first field names its kind.
    fn row(&mut self, kind: &str) {
        self.begin_obj();
        self.field_str("row", kind);
    }

    /// Close a log row and its line.
    fn end_row(&mut self) {
        self.end_obj();
        self.buf.push('\n');
        self.comma = false;
    }

    fn op(&mut self, op: &OpCtx) {
        self.key("op");
        self.begin_obj();
        self.field_str("kind", op.kind.name());
        self.field("id", op.id.into());
        self.field("epoch", op.epoch.into());
        self.field("origin", op.origin.into());
        self.end_obj();
    }

    fn decision(&mut self, d: &DecisionRow) {
        self.field("entry", d.entry.into());
        self.field("from_shard", d.from_shard.into());
        self.field("to_shard", d.to_shard.into());
        self.field("writer", d.writer.into());
        self.field("epoch", d.epoch.into());
    }

    fn string(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::{seg, OpCritPath, Segment};
    use crate::event::{EventKind, OpKind};

    fn tables() -> Tables {
        let op = OpCtx {
            kind: OpKind::Barrier,
            id: 2,
            epoch: 1,
            origin: 1,
        };
        Tables {
            homes: HomeLayout {
                shards: 1,
                replicas: 0,
            },
            wall_us: 1_000,
            recorded: 3,
            dropped: 2,
            trigger: Some(("stall", 0)),
            events: vec![Event {
                rank: 1,
                kind: EventKind::Retransmit,
                t_us: 500,
                seq: 2,
                label: "barrier-enter",
                op,
                ..Default::default()
            }],
            inflight: vec![InflightOp {
                op,
                rank: 1,
                start_us: 100,
            }],
            epochs: vec![(0, 1)],
            frames: vec![Frame {
                seq: 0,
                t_us: 1_000,
                in_flight: 1,
                counters: vec![("net.msgs".into(), 7)],
                rank_events: vec![(1, 3)],
                entry_bytes: Vec::new(),
                dests: vec![(0, 5, 500)],
                dir_epochs: vec![(0, 1)],
                decisions: Vec::new(),
            }],
            stalls: vec![StallReport {
                op,
                rank: 1,
                start_us: 100,
                age_us: 900,
                budget_us: 500,
                fired_at_us: 1_000,
                critpath: OpCritPath {
                    op,
                    latency_us: 900,
                    straggler: None,
                    slowest_shard: None,
                    shard_busy_us: 0,
                    retransmits: 0,
                    links: Vec::new(),
                    lease_expiries: 0,
                    segments: vec![Segment {
                        label: seg::WAIT,
                        rank: 1,
                        dur_us: 900,
                    }],
                },
            }],
            decisions: vec![DecisionRow {
                entry: 3,
                from_shard: 1,
                to_shard: 0,
                writer: 2,
                epoch: 1,
            }],
            triggers: vec![TriggerRow {
                trigger: "stall",
                seq: 0,
                t_us: 1_000,
                path: "somewhere".into(),
            }],
        }
    }

    /// Golden test: the exact rendering of one row of every kind. If the
    /// schema changes, this must be updated deliberately (and `SCHEMA`
    /// bumped).
    #[test]
    fn golden_log() {
        let want = concat!(
            r#"{"row":"header","schema":1,"trigger":"stall","seq":0,"shards":1,"replicas":0,"wall_us":1000,"events_recorded":3,"events_dropped":2}"#,
            "\n",
            r#"{"row":"event","t_us":500,"seq":2,"rank":1,"kind":"retransmit","arg0":0,"arg1":0,"label":"barrier-enter","op":{"kind":"barrier","id":2,"epoch":1,"origin":1}}"#,
            "\n",
            r#"{"row":"inflight","op":{"kind":"barrier","id":2,"epoch":1,"origin":1},"rank":1,"start_us":100,"age_us":900}"#,
            "\n",
            r#"{"row":"epoch","shard":0,"epoch":1}"#,
            "\n",
            r#"{"row":"frame","seq":0,"t_us":1000,"in_flight":1,"counters":{"net.msgs":7},"rank_events":[[1,3]],"entry_bytes":[],"dests":[[0,5,500]],"dir_epochs":[[0,1]],"decisions":[]}"#,
            "\n",
            r#"{"row":"stall","op":{"kind":"barrier","id":2,"epoch":1,"origin":1},"rank":1,"start_us":100,"age_us":900,"budget_us":500,"fired_at_us":1000,"latency_us":900,"retransmits":0,"segments":[{"label":"straggler wait","rank":1,"dur_us":900}]}"#,
            "\n",
            r#"{"row":"decision","entry":3,"from_shard":1,"to_shard":0,"writer":2,"epoch":1}"#,
            "\n",
            r#"{"row":"trigger","trigger":"stall","seq":0,"t_us":1000}"#,
            "\n",
        );
        assert_eq!(tables().render(), want);
    }

    #[test]
    fn the_end_of_run_header_names_no_trigger() {
        let t = Tables {
            trigger: None,
            ..tables()
        };
        let log = t.render();
        let header = log.lines().next().unwrap();
        assert!(header.starts_with(r#"{"row":"header","schema":1,"shards":1,"#));
    }

    #[test]
    fn json_writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("k", "a\"b\\c\nd\u{1}");
        w.end_obj();
        assert_eq!(w.finish(), r#"{"k":"a\"b\\c\nd\u0001"}"#);
    }
}
