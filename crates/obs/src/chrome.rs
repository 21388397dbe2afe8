//! Chrome tracing (`chrome://tracing` / Perfetto) export.
//!
//! Emits the Trace Event Format's JSON-array form: one complete (`"X"`)
//! event per recorded span, one instant (`"i"`) per zero-duration event,
//! plus metadata naming each rank's track. Message sends/receives that
//! carry a flow id additionally emit flow events (`ph:"s"` at the send,
//! `ph:"f"` with `bp:"e"` at the receive, same `id`), which Perfetto
//! draws as arrows connecting the two rank tracks — the visual form of
//! the causal order [`crate::Recorder::events`] returns. Load the file at
//! `chrome://tracing` or <https://ui.perfetto.dev> to see every rank as
//! its own timeline.

use crate::event::{Event, EventKind};
use crate::snapshot::JsonWriter;
use std::collections::BTreeSet;

/// Serialize `events` (as returned by `Recorder::events`) to a Chrome
/// Trace Event Format JSON array. One track (`tid`) per rank, all under
/// `pid` 0.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut w = JsonWriter::new();
    w.begin_arr();
    // Track-name metadata first so the viewer labels timelines.
    let ranks: BTreeSet<u32> = events.iter().map(|e| e.rank).collect();
    for rank in ranks {
        w.begin_obj();
        w.field_str("name", "thread_name");
        w.field_str("ph", "M");
        w.field_u64("pid", 0);
        w.field_u64("tid", rank as u64);
        w.key("args");
        w.begin_obj();
        let label = if rank == 0 {
            "home (rank 0)".to_string()
        } else {
            format!("worker rank {rank}")
        };
        w.key("name");
        w.raw_value(&json_string(&label));
        w.end_obj();
        w.end_obj();
    }
    for e in events {
        w.begin_obj();
        w.field_str("name", e.kind.name());
        w.field_str("cat", e.kind.category());
        if e.dur_us > 0 {
            w.field_str("ph", "X");
            w.field_u64("ts", e.t_us);
            w.field_u64("dur", e.dur_us);
        } else {
            w.field_str("ph", "i");
            w.field_u64("ts", e.t_us);
            // Thread-scoped instant: drawn on the rank's own track.
            w.field_str("s", "t");
        }
        w.field_u64("pid", 0);
        w.field_u64("tid", e.rank as u64);
        w.key("args");
        w.begin_obj();
        w.field_u64("arg0", e.arg0);
        w.field_u64("arg1", e.arg1);
        if !e.label.is_empty() {
            w.field_str("label", e.label);
        }
        if e.op.is_some() {
            w.key("op");
            w.raw_value(&json_string(&e.op.to_string()));
        }
        w.end_obj();
        w.end_obj();
        // Flow arrow endpoints: a start at each send, a finish (binding
        // to the enclosing slice end, `bp:"e"`) at each receive.
        if e.flow != 0 && matches!(e.kind, EventKind::MsgSend | EventKind::MsgRecv) {
            w.begin_obj();
            w.field_str("name", "msg");
            w.field_str("cat", "flow");
            if e.kind == EventKind::MsgSend {
                w.field_str("ph", "s");
            } else {
                w.field_str("ph", "f");
                w.field_str("bp", "e");
            }
            w.field_u64("id", e.flow);
            w.field_u64("ts", e.t_us);
            w.field_u64("pid", 0);
            w.field_u64("tid", e.rank as u64);
            w.end_obj();
        }
    }
    w.end_arr();
    w.finish()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                rank: 0,
                kind: EventKind::DiffScan,
                t_us: 100,
                dur_us: 40,
                arg0: 4096,
                ..Default::default()
            },
            Event {
                rank: 1,
                kind: EventKind::Retransmit,
                t_us: 150,
                arg0: 2,
                label: "lock-req",
                ..Default::default()
            },
        ]
    }

    /// Golden test: the exact serialization of a fixed event list. If the
    /// exporter changes shape, this string must be updated deliberately.
    #[test]
    fn golden_trace() {
        let got = chrome_trace(&sample_events());
        let want = concat!(
            r#"[{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"home (rank 0)"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"worker rank 1"}},"#,
            r#"{"name":"diff-scan","cat":"share","ph":"X","ts":100,"dur":40,"pid":0,"tid":0,"args":{"arg0":4096,"arg1":0}},"#,
            r#"{"name":"retransmit","cat":"fault","ph":"i","ts":150,"s":"t","pid":0,"tid":1,"args":{"arg0":2,"arg1":0,"label":"lock-req"}}]"#,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn empty_trace_is_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn flows_link_send_to_recv_across_tracks() {
        let events = vec![
            Event {
                rank: 1,
                kind: EventKind::MsgSend,
                t_us: 10,
                arg0: 64,
                arg1: 0,
                label: "lock-req",
                flow: 42,
                ..Default::default()
            },
            Event {
                rank: 0,
                kind: EventKind::MsgRecv,
                t_us: 15,
                arg0: 64,
                arg1: 1,
                label: "lock-req",
                flow: 42,
                ..Default::default()
            },
        ];
        let t = chrome_trace(&events);
        assert!(
            t.contains(r#"{"name":"msg","cat":"flow","ph":"s","id":42,"ts":10,"pid":0,"tid":1}"#),
            "trace: {t}"
        );
        assert!(
            t.contains(
                r#"{"name":"msg","cat":"flow","ph":"f","bp":"e","id":42,"ts":15,"pid":0,"tid":0}"#
            ),
            "trace: {t}"
        );
        // Flow-less events emit no arrows (golden_trace relies on this).
        let quiet = chrome_trace(&sample_events());
        assert!(!quiet.contains(r#""cat":"flow""#));
    }

    #[test]
    fn spans_become_complete_events_and_instants_become_i() {
        let t = chrome_trace(&sample_events());
        assert!(t.contains(r#""ph":"X""#));
        assert!(t.contains(r#""ph":"i""#));
        assert!(t.contains(r#""dur":40"#));
        // Balanced JSON.
        assert_eq!(t.matches('{').count(), t.matches('}').count());
        assert_eq!(t.matches('[').count(), t.matches(']').count());
    }
}
