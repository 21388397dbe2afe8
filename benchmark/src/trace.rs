//! The harness's own spans. They are recorded here, around the calls
//! into each layer, and nowhere inside `crates/`; they stay in memory
//! until the traced pass ends and are then written as one file.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: usize,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Where the next [`Tracer::stage`] starts: the end of the previous
    /// stage, or the start of the enclosing span.
    cursor_ns: u64,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::with_capacity(1024),
            open: Vec::new(),
            cursor_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            id,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        self.cursor_ns = now;
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close `id` where its last stage ended, so that stages tile it.
    pub fn exit_at_last_stage(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.cursor_ns;
    }

    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// A lap: one clock reading ends this stage and starts the next, so
    /// consecutive stages leave no gap in their parent. One-element lock
    /// ops have stages of under a microsecond, where a gap of two clock
    /// readings per stage would be a fifth of the interval.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let r = f();
        let end = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.cursor_ns,
            end_ns: end,
            id,
            parent: self.open.last().copied(),
        });
        self.cursor_ns = end;
        r
    }

    /// Duration minus the part covered by child spans. Children of one
    /// parent never overlap here: the harness is one thread.
    pub fn self_us(&self, id: usize) -> f64 {
        let cover: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_us)
            .sum();
        self.spans[id].dur_us() - cover
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// The largest share of an `interval` span that its stages' self
    /// times leave unexplained, over all intervals.
    pub fn worst_interval_gap(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == "interval" && s.dur_us() > 0.0)
            .map(|iv| {
                let stages: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(iv.id))
                    .map(|s| self.self_us(s.id))
                    .sum();
                ((iv.dur_us() - stages) / iv.dur_us()).abs()
            })
            .fold(0.0, f64::max)
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_us", Value::Num(s.start_ns as f64 / 1e3)),
                    ("end_us", Value::Num(s.end_ns as f64 / 1e3)),
                    ("self_us", Value::Num(self.self_us(s.id))),
                    ("id", Value::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("workload", Value::str(self.workload.clone())),
                ])
            })
            .collect();
        Value::obj([
            ("workload", Value::str(self.workload.clone())),
            ("worst_interval_gap", Value::Num(self.worst_interval_gap())),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_tile_their_interval_and_self_time_excludes_children() {
        let mut t = Tracer::new("w");
        let root = t.enter("workload");
        let iv = t.enter("interval");
        t.stage("a", || std::hint::black_box((0..1000).sum::<u64>()));
        t.stage("b", || std::hint::black_box((0..1000).sum::<u64>()));
        t.exit_at_last_stage(iv);
        t.exit(root);
        let s = &t.spans;
        assert_eq!(s[2].parent, Some(iv));
        assert_eq!(s[2].start_ns, s[iv].start_ns);
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!(s[3].end_ns, s[iv].end_ns);
        assert!(t.worst_interval_gap() < 1e-9);
        assert!(t.self_us(iv).abs() < 1e-9);
        assert!((t.self_us(root) - (s[root].dur_us() - s[iv].dur_us())).abs() < 1e-9);
    }
}
