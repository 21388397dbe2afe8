//! Black-box flight recorder: triggered diagnostic bundles.
//!
//! When something goes wrong — the stall watchdog fires, a worker is
//! lost, a lease expires, a shard changes view, the sim fabric detects a
//! deadlock, or an operator calls `ClusterCtl::dump` — the recorder
//! freezes a *bundle*: the last N events per rank, every in-flight sync
//! op with its start time, the directory epoch table, the most recent
//! time-series frames, per-link retransmit/fault counters and the active
//! placement decisions. The bundle is written to
//! `<dir>/blackbox-<trigger>-<seq>.json` and the trigger is appended to
//! an in-memory log so same-seed simulated runs can be compared
//! trigger-for-trigger.
//!
//! Rendering is plain-data JSON via the crate's `JsonWriter`; every table
//! is key-ordered, so a bundle taken at the same virtual time in two
//! same-seed runs is byte-identical. The sim-deadlock trigger runs while
//! the scheduler holds its state lock, so bundle construction never
//! reads the fabric clock — the caller supplies the timestamp.

use crate::event::{Event, EventKind};
use crate::recorder::InflightOp;
use crate::snapshot::{DecisionRow, JsonWriter};
use crate::timeseries::Frame;
use crate::watchdog::StallReport;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

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
    /// Path the bundle was written to (empty if the write failed).
    pub path: String,
}

/// Everything that goes into one bundle, pre-gathered by the recorder so
/// rendering itself takes no locks and reads no clocks.
pub(crate) struct BundleData<'a> {
    pub trigger: &'static str,
    pub seq: u64,
    pub t_us: u64,
    /// Last-N events per rank, rank-ordered, oldest first within a rank.
    pub ranks: Vec<(u32, Vec<Event>)>,
    pub in_flight: &'a [InflightOp],
    pub dir_epochs: Vec<(u32, u64)>,
    pub frames: Vec<Frame>,
    pub placement: Vec<DecisionRow>,
    pub stalls: &'a [StallReport],
    /// The trigger log so far, including this trigger.
    pub triggers: &'a [TriggerRow],
}

fn event_json(w: &mut JsonWriter, e: &Event) {
    w.begin_obj();
    w.field_u64("t_us", e.t_us);
    w.field_str("kind", e.kind.name());
    if e.dur_us > 0 {
        w.field_u64("dur_us", e.dur_us);
    }
    w.field_u64("arg0", e.arg0);
    w.field_u64("arg1", e.arg1);
    if !e.label.is_empty() {
        w.field_str("label", e.label);
    }
    if e.op.is_some() {
        w.field_str("op", &e.op.to_string());
    }
    w.end_obj();
}

/// Render a bundle to its stable JSON form.
pub(crate) fn render(d: &BundleData) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("trigger", d.trigger);
    w.field_u64("seq", d.seq);
    w.field_u64("t_us", d.t_us);
    w.key("triggers");
    w.begin_arr();
    for t in d.triggers {
        w.begin_obj();
        w.field_str("trigger", t.trigger);
        w.field_u64("seq", t.seq);
        w.field_u64("t_us", t.t_us);
        w.end_obj();
    }
    w.end_arr();
    w.key("in_flight");
    w.begin_arr();
    for f in d.in_flight {
        w.begin_obj();
        w.field_str("kind", f.op.kind.name());
        w.field_u64("id", f.op.id as u64);
        w.field_u64("epoch", f.op.epoch as u64);
        w.field_u64("origin", f.op.origin as u64);
        w.field_u64("rank", f.rank as u64);
        w.field_u64("start_us", f.start_us);
        w.field_u64("age_us", d.t_us.saturating_sub(f.start_us));
        w.end_obj();
    }
    w.end_arr();
    w.key("dir_epochs");
    w.begin_arr();
    for &(shard, epoch) in &d.dir_epochs {
        w.begin_arr();
        w.raw_value(&shard.to_string());
        w.raw_value(&epoch.to_string());
        w.end_arr();
    }
    w.end_arr();
    w.key("stalls");
    w.begin_arr();
    for s in d.stalls {
        s.write_json(&mut w);
    }
    w.end_arr();
    w.key("frames");
    w.begin_arr();
    for f in &d.frames {
        w.raw_value(&f.to_json());
    }
    w.end_arr();
    // Per-directed-link reliability counters, recovered from the event
    // rings: retransmissions and injected faults that shaped the run.
    let mut links: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for (_, evs) in &d.ranks {
        for e in evs {
            match e.kind {
                EventKind::Retransmit => {
                    links.entry((e.rank, e.arg1 as u32)).or_default().0 += 1;
                }
                EventKind::FaultDrop | EventKind::FaultDup | EventKind::FaultReorder => {
                    links.entry((e.rank, e.arg1 as u32)).or_default().1 += 1;
                }
                _ => {}
            }
        }
    }
    w.key("links");
    w.begin_arr();
    for ((from, to), (retransmits, faults)) in &links {
        w.begin_obj();
        w.field_u64("from", *from as u64);
        w.field_u64("to", *to as u64);
        w.field_u64("retransmits", *retransmits);
        w.field_u64("faults", *faults);
        w.end_obj();
    }
    w.end_arr();
    w.key("placement");
    w.begin_arr();
    for p in &d.placement {
        w.begin_obj();
        w.field_u64("entry", p.entry as u64);
        w.field_u64("from_shard", p.from_shard as u64);
        w.field_u64("to_shard", p.to_shard as u64);
        w.field_u64("writer", p.writer as u64);
        w.field_u64("epoch", p.epoch as u64);
        w.end_obj();
    }
    w.end_arr();
    w.key("ranks");
    w.begin_arr();
    for (rank, evs) in &d.ranks {
        w.begin_obj();
        w.field_u64("rank", *rank as u64);
        w.key("events");
        w.begin_arr();
        for e in evs {
            event_json(&mut w, e);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

/// Write a rendered bundle to `<dir>/blackbox-<trigger>-<seq>.json`,
/// creating the directory if needed. Returns the path, or `None` if the
/// filesystem refused (the trigger is still logged in memory).
pub(crate) fn write(dir: &str, trigger: &str, seq: u64, json: &str) -> Option<String> {
    fs::create_dir_all(dir).ok()?;
    let path = Path::new(dir).join(format!("blackbox-{trigger}-{seq}.json"));
    fs::write(&path, json).ok()?;
    Some(path.to_string_lossy().into_owned())
}

/// Re-indent a compact JSON document for human eyes (`obs_report
/// --bundle`). Purely lexical — tracks strings and nesting depth, never
/// parses — so it works on any bundle without a JSON library.
pub fn pretty(json: &str) -> String {
    fn indent(out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    let mut out = String::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut esc = false;
    for c in json.chars() {
        if in_str {
            out.push(c);
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                depth += 1;
                out.push(c);
                out.push('\n');
                indent(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push('\n');
                indent(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                indent(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c if c.is_whitespace() => {}
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OpCtx, OpKind};

    fn bundle_json() -> String {
        let op = OpCtx {
            kind: OpKind::Barrier,
            id: 2,
            epoch: 1,
            origin: 1,
        };
        let inflight = [InflightOp {
            op,
            rank: 1,
            start_us: 100,
        }];
        let triggers = [TriggerRow {
            trigger: "stall",
            seq: 0,
            t_us: 1_000,
            path: String::new(),
        }];
        let ranks = vec![(
            1u32,
            vec![Event {
                rank: 1,
                kind: EventKind::Retransmit,
                t_us: 500,
                arg1: 0,
                op,
                ..Default::default()
            }],
        )];
        render(&BundleData {
            trigger: "stall",
            seq: 0,
            t_us: 1_000,
            ranks,
            in_flight: &inflight,
            dir_epochs: vec![(0, 1)],
            frames: Vec::new(),
            placement: Vec::new(),
            stalls: &[],
            triggers: &triggers,
        })
    }

    #[test]
    fn bundle_renders_every_section() {
        let j = bundle_json();
        assert!(j.starts_with("{\"trigger\":\"stall\",\"seq\":0,\"t_us\":1000"));
        assert!(j.contains("\"in_flight\":[{\"kind\":\"barrier\",\"id\":2"));
        assert!(j.contains("\"age_us\":900"));
        assert!(j.contains("\"dir_epochs\":[[0,1]]"));
        assert!(j.contains("\"links\":[{\"from\":1,\"to\":0,\"retransmits\":1,\"faults\":0}]"));
        assert!(j.contains("\"ranks\":[{\"rank\":1,\"events\":["));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Deterministic.
        assert_eq!(j, bundle_json());
    }

    #[test]
    fn pretty_preserves_content_and_balances() {
        let j = bundle_json();
        let p = pretty(&j);
        assert!(p.contains('\n'));
        // Stripping the added whitespace returns the original document.
        let squashed: String = {
            let mut out = String::new();
            let mut in_str = false;
            let mut esc = false;
            for c in p.chars() {
                if in_str {
                    out.push(c);
                    if esc {
                        esc = false;
                    } else if c == '\\' {
                        esc = true;
                    } else if c == '"' {
                        in_str = false;
                    }
                    continue;
                }
                match c {
                    '"' => {
                        in_str = true;
                        out.push(c);
                    }
                    c if c.is_whitespace() => {}
                    c => out.push(c),
                }
            }
            out
        };
        assert_eq!(squashed, j);
    }

    #[test]
    fn write_creates_dir_and_file() {
        let dir = std::env::temp_dir().join(format!("hdsm-blackbox-test-{}", std::process::id()));
        let dir_s = dir.to_string_lossy().into_owned();
        let path = write(&dir_s, "dump", 3, "{}").expect("write");
        assert!(path.ends_with("blackbox-dump-3.json"));
        assert_eq!(fs::read_to_string(&path).unwrap(), "{}");
        fs::remove_dir_all(&dir).ok();
    }
}
