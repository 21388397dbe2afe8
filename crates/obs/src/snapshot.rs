//! The machine-readable observability snapshot and its exporters.
//!
//! [`ObsSnapshot`] freezes the tables an enabled recorder keeps: metrics,
//! the entry heatmap with its placement signals, placement decisions,
//! ring occupancy and stall reports. It is plain data, renders to JSON
//! (`to_json`, hand-written) and to a human cluster report (`report`).
//! What is computed *from* the events — critical paths — is not in it
//! (`Recorder::critpaths`), and fabric traffic is `hdsm_net::NetStats`'s.

use crate::heatmap::Heatmap;
use crate::metrics::Registry;
use crate::watchdog::StallReport;

/// Summary of one latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Metric name (event kind name for span histograms).
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Mean in µs.
    pub mean_us: f64,
    /// Approximate 50th percentile in µs.
    pub p50_us: u64,
    /// Approximate 95th percentile in µs.
    pub p95_us: u64,
    /// Approximate 99th percentile in µs.
    pub p99_us: u64,
    /// Largest recorded value in µs.
    pub max_us: u64,
}

/// One entry row of the entry heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRow {
    /// Index-table entry id.
    pub entry: u32,
    /// Update frames shipped.
    pub updates_sent: u64,
    /// Elements covered by shipped frames.
    pub elems_sent: u64,
    /// Bytes shipped.
    pub bytes_sent: u64,
    /// Update frames applied.
    pub updates_applied: u64,
    /// Bytes applied.
    pub bytes_applied: u64,
}

/// One row of the per-(entry, writer) update-attribution table: how much
/// update traffic `writer` generated for `entry`. The placement engine's
/// "dominant writer" input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterRow {
    /// Index-table entry id.
    pub entry: u32,
    /// Writer thread rank.
    pub writer: u32,
    /// Update frames shipped by the writer for this entry.
    pub updates: u64,
    /// Payload bytes shipped.
    pub bytes: u64,
}

/// One row of the per-(writer, shard) sync-destination table: how many
/// release-class operations (unlock, barrier enter, cond wait) `writer`
/// completed at `shard`. The placement engine's "nearest shard" input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseRow {
    /// Writer thread rank.
    pub writer: u32,
    /// Home shard the operation was homed at.
    pub shard: u32,
    /// Completed release-class operations.
    pub releases: u64,
}

/// One placement decision the adaptive engine applied: entry `entry` was
/// re-homed from `from_shard` to `to_shard` under placement epoch
/// `epoch`, because `writer` dominated its update traffic. Decisions are
/// part of the snapshot so same-seed simulated runs can be compared
/// decision-for-decision, not just byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRow {
    /// Index-table entry that moved.
    pub entry: u32,
    /// Shard that owned the entry before the move.
    pub from_shard: u32,
    /// Shard that owns it after.
    pub to_shard: u32,
    /// The dominant writer that motivated the move.
    pub writer: u32,
    /// The entry's placement epoch after the move (monotonic per entry).
    pub epoch: u32,
}

/// Everything an enabled recorder knows, frozen.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Wall time covered, µs since the recorder epoch.
    pub wall_us: u64,
    /// Counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, name-ordered.
    pub histograms: Vec<HistSummary>,
    /// Entry heatmap rows.
    pub entries: Vec<EntryRow>,
    /// Per-(entry, writer) update attribution, (entry, writer)-ordered.
    pub write_heat: Vec<WriterRow>,
    /// Per-(writer, shard) release-destination counts, key-ordered.
    pub release_dests: Vec<ReleaseRow>,
    /// Placement decisions applied by the adaptive engine, in order.
    pub placement: Vec<DecisionRow>,
    /// Events ever recorded (incl. those lost to ring wraparound).
    pub events_recorded: u64,
    /// Events lost to ring wraparound.
    pub events_dropped: u64,
    /// Per-rank ring occupancy: who dropped how much.
    pub ring_drops: Vec<RingDropRow>,
    /// Stall-watchdog firings so far, in firing order.
    pub stalls: Vec<StallReport>,
}

/// Ring statistics of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDropRow {
    /// Endpoint rank.
    pub rank: u32,
    /// Events ever pushed to the rank's ring.
    pub recorded: u64,
    /// Events lost to the rank's ring wrapping.
    pub dropped: u64,
}

impl ObsSnapshot {
    pub(crate) fn build(
        wall_us: u64,
        registry: &Registry,
        heatmap: &Heatmap,
        decisions: &[DecisionRow],
        ring_drops: Vec<RingDropRow>,
        stalls: Vec<StallReport>,
    ) -> ObsSnapshot {
        let histograms = registry
            .histograms()
            .map(|(name, h)| {
                let (p50, p95, p99) = h.quantiles();
                HistSummary {
                    name: name.to_string(),
                    count: h.count(),
                    mean_us: h.mean(),
                    p50_us: p50,
                    p95_us: p95,
                    p99_us: p99,
                    max_us: h.max(),
                }
            })
            .collect();
        let entries = heatmap
            .entries()
            .map(|(entry, e)| EntryRow {
                entry,
                updates_sent: e.updates_sent,
                elems_sent: e.elems_sent,
                bytes_sent: e.bytes_sent,
                updates_applied: e.updates_applied,
                bytes_applied: e.bytes_applied,
            })
            .collect();
        let write_heat = heatmap
            .writers()
            .map(|((entry, writer), w)| WriterRow {
                entry,
                writer,
                updates: w.updates,
                bytes: w.bytes,
            })
            .collect();
        let release_dests = heatmap
            .releases()
            .map(|((writer, shard), releases)| ReleaseRow {
                writer,
                shard,
                releases,
            })
            .collect();
        ObsSnapshot {
            wall_us,
            counters: registry
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: registry.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
            histograms,
            entries,
            write_heat,
            release_dests,
            placement: decisions.to_vec(),
            events_recorded: ring_drops.iter().map(|r| r.recorded).sum(),
            events_dropped: ring_drops.iter().map(|r| r.dropped).sum(),
            ring_drops,
            stalls,
        }
    }

    /// Serialize to a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_u64("wall_us", self.wall_us);
        w.key("counters");
        w.begin_obj();
        for (k, v) in &self.counters {
            w.field_u64_dyn(k, *v);
        }
        w.end_obj();
        w.key("gauges");
        w.begin_obj();
        for (k, v) in &self.gauges {
            w.field_i64_dyn(k, *v);
        }
        w.end_obj();
        w.key("histograms");
        w.begin_arr();
        for h in &self.histograms {
            w.begin_obj();
            w.field_str("name", &h.name);
            w.field_u64("count", h.count);
            w.field_f64("mean_us", h.mean_us);
            w.field_u64("p50_us", h.p50_us);
            w.field_u64("p95_us", h.p95_us);
            w.field_u64("p99_us", h.p99_us);
            w.field_u64("max_us", h.max_us);
            w.end_obj();
        }
        w.end_arr();
        w.key("entries");
        w.begin_arr();
        for e in &self.entries {
            w.begin_obj();
            w.field_u64("entry", e.entry as u64);
            w.field_u64("updates_sent", e.updates_sent);
            w.field_u64("elems_sent", e.elems_sent);
            w.field_u64("bytes_sent", e.bytes_sent);
            w.field_u64("updates_applied", e.updates_applied);
            w.field_u64("bytes_applied", e.bytes_applied);
            w.end_obj();
        }
        w.end_arr();
        w.key("write_heat");
        w.begin_arr();
        for r in &self.write_heat {
            w.begin_obj();
            w.field_u64("entry", r.entry as u64);
            w.field_u64("writer", r.writer as u64);
            w.field_u64("updates", r.updates);
            w.field_u64("bytes", r.bytes);
            w.end_obj();
        }
        w.end_arr();
        w.key("release_dests");
        w.begin_arr();
        for r in &self.release_dests {
            w.begin_obj();
            w.field_u64("writer", r.writer as u64);
            w.field_u64("shard", r.shard as u64);
            w.field_u64("releases", r.releases);
            w.end_obj();
        }
        w.end_arr();
        w.key("placement");
        w.begin_arr();
        for d in &self.placement {
            w.begin_obj();
            w.field_u64("entry", d.entry as u64);
            w.field_u64("from_shard", d.from_shard as u64);
            w.field_u64("to_shard", d.to_shard as u64);
            w.field_u64("writer", d.writer as u64);
            w.field_u64("epoch", d.epoch as u64);
            w.end_obj();
        }
        w.end_arr();
        w.field_u64("events_recorded", self.events_recorded);
        w.field_u64("events_dropped", self.events_dropped);
        w.key("ring_drops");
        w.begin_arr();
        for r in &self.ring_drops {
            w.begin_obj();
            w.field_u64("rank", r.rank as u64);
            w.field_u64("recorded", r.recorded);
            w.field_u64("dropped", r.dropped);
            w.end_obj();
        }
        w.end_arr();
        w.key("stalls");
        w.begin_arr();
        for s in &self.stalls {
            s.write_json(&mut w);
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Render the plain-text cluster report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== hdsm-obs cluster report ({:.3} s observed) ==\n",
            self.wall_us as f64 / 1e6
        ));
        out.push_str(&format!(
            "events: {} recorded, {} dropped to ring wraparound\n",
            self.events_recorded, self.events_dropped
        ));
        if self.events_dropped > 0 {
            out.push_str(&format!(
                "!!! WARNING: {} events LOST to ring wraparound — traces and \
                 critical paths are incomplete; raise ObsConfig::ring_capacity\n",
                self.events_dropped
            ));
            for r in self.ring_drops.iter().filter(|r| r.dropped > 0) {
                out.push_str(&format!(
                    "!!!   rank {}: dropped {} of {} recorded\n",
                    r.rank, r.dropped, r.recorded
                ));
            }
        }
        if !self.ring_drops.is_empty() {
            out.push_str("\n-- event rings (per rank) --\n");
            out.push_str("rank   recorded   dropped\n");
            for r in &self.ring_drops {
                out.push_str(&format!(
                    "{:>4} {:>10} {:>9}\n",
                    r.rank, r.recorded, r.dropped
                ));
            }
        }
        if !self.stalls.is_empty() {
            let shards = self
                .gauges
                .iter()
                .find(|(k, _)| k == "cluster.shards")
                .map(|&(_, v)| v.max(1) as u32)
                .unwrap_or(1);
            out.push_str("\n-- stall watchdog firings --\n");
            for s in &self.stalls {
                out.push_str(&s.describe(shards));
                out.push('\n');
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\n-- counters --\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<32} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\n-- span latencies (µs) --\n");
            out.push_str(
                "name                 count      mean       p50       p95       p99       max\n",
            );
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:<18} {:>7} {:>9.1} {:>9} {:>9} {:>9} {:>9}\n",
                    h.name, h.count, h.mean_us, h.p50_us, h.p95_us, h.p99_us, h.max_us
                ));
            }
        }
        if !self.placement.is_empty() {
            out.push_str("\n-- placement decisions --\n");
            out.push_str("entry    from  to    writer  epoch\n");
            for d in &self.placement {
                out.push_str(&format!(
                    "{:<8} {:<5} {:<5} {:<7} {}\n",
                    d.entry, d.from_shard, d.to_shard, d.writer, d.epoch
                ));
            }
        }
        if !self.write_heat.is_empty() {
            out.push_str("\n-- write heat by (entry, writer) --\n");
            out.push_str("entry    writer  updates       bytes\n");
            for r in &self.write_heat {
                out.push_str(&format!(
                    "{:<8} {:<7} {:>7} {:>11}\n",
                    r.entry, r.writer, r.updates, r.bytes
                ));
            }
        }
        if !self.entries.is_empty() {
            out.push_str("\n-- entry heatmap --\n");
            out.push_str("entry    ups-sent  elems-sent  bytes-sent  ups-appl  bytes-appl\n");
            for e in &self.entries {
                out.push_str(&format!(
                    "{:<8} {:>8} {:>11} {:>11} {:>9} {:>11}\n",
                    e.entry,
                    e.updates_sent,
                    e.elems_sent,
                    e.bytes_sent,
                    e.updates_applied,
                    e.bytes_applied
                ));
            }
        }
        out
    }
}

/// Minimal JSON writer: enough for the exporters, no dependencies.
pub(crate) struct JsonWriter {
    buf: String,
    /// Does the current container already have an element?
    need_comma: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter {
            buf: String::new(),
            need_comma: vec![false],
        }
    }

    fn elem(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    pub fn begin_obj(&mut self) {
        self.elem();
        self.buf.push('{');
        self.need_comma.push(false);
    }

    pub fn end_obj(&mut self) {
        self.buf.push('}');
        self.need_comma.pop();
    }

    pub fn begin_arr(&mut self) {
        self.elem();
        self.buf.push('[');
        self.need_comma.push(false);
    }

    pub fn end_arr(&mut self) {
        self.buf.push(']');
        self.need_comma.pop();
    }

    /// Write `"key":` and prime the slot for the upcoming value.
    pub fn key(&mut self, k: &str) {
        self.elem();
        self.push_string(k);
        self.buf.push(':');
        // The value that follows must not emit its own comma.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
    }

    pub fn field_u64(&mut self, k: &'static str, v: u64) {
        self.field_u64_dyn(k, v);
    }

    pub fn field_u64_dyn(&mut self, k: &str, v: u64) {
        self.key(k);
        self.elem();
        self.buf.push_str(&v.to_string());
    }

    pub fn field_i64_dyn(&mut self, k: &str, v: i64) {
        self.key(k);
        self.elem();
        self.buf.push_str(&v.to_string());
    }

    pub fn field_f64(&mut self, k: &'static str, v: f64) {
        self.key(k);
        self.elem();
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.3}"));
        } else {
            self.buf.push('0');
        }
    }

    pub fn field_str(&mut self, k: &'static str, v: &str) {
        self.key(k);
        self.elem();
        self.push_string(v);
    }

    /// Append a raw pre-serialized value (used by the chrome exporter).
    pub fn raw_value(&mut self, v: &str) {
        self.elem();
        self.buf.push_str(v);
    }

    fn push_string(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
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
    use crate::heatmap::Heatmap;
    use crate::metrics::Registry;

    fn sample() -> ObsSnapshot {
        let mut reg = Registry::default();
        reg.count("retransmits", 3);
        reg.gauge("workers", 2);
        reg.observe("barrier", 100);
        let mut hm = Heatmap::default();
        hm.update_sent(1, 0, 4, std::iter::once(16));
        let rings = vec![
            RingDropRow {
                rank: 0,
                recorded: 5,
                dropped: 0,
            },
            RingDropRow {
                rank: 2,
                recorded: 5,
                dropped: 1,
            },
        ];
        ObsSnapshot::build(1_500_000, &reg, &hm, &[], rings, Vec::new())
    }

    #[test]
    fn json_is_wellformed_and_stable() {
        let s = sample();
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        // Balanced braces/brackets (no strings contain them here).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"retransmits\":3"));
        assert!(j.contains("\"bytes_sent\":64"));
        assert!(j.contains("\"events_recorded\":10,\"events_dropped\":1"));
        assert!(j.contains("\"ring_drops\":[{\"rank\":0,\"recorded\":5,\"dropped\":0}"));
        assert!(!j.contains(",,"));
        assert!(!j.contains(",}"));
        assert!(!j.contains(",]"));
        // Deterministic.
        assert_eq!(j, sample().to_json());
    }

    #[test]
    fn report_mentions_every_section() {
        let s = sample();
        let r = s.report();
        assert!(r.contains("event rings"));
        assert!(r.contains("counters"));
        assert!(r.contains("span latencies"));
        assert!(r.contains("write heat by (entry, writer)"));
        assert!(r.contains("entry heatmap"));
    }

    #[test]
    fn drop_warning_is_loud_and_names_ranks() {
        let r = sample().report(); // rank 2 dropped one of its five
        assert!(r.contains("!!! WARNING: 1 events LOST"), "report:\n{r}");
        assert!(r.contains("!!!   rank 2: dropped 1 of 5"), "report:\n{r}");
        // No warning when nothing was dropped.
        let mut clean = sample();
        clean.events_dropped = 0;
        assert!(!clean.report().contains("WARNING"));
    }

    #[test]
    fn json_writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("k", "a\"b\\c\nd");
        w.end_obj();
        assert_eq!(w.finish(), r#"{"k":"a\"b\\c\nd"}"#);
    }
}
