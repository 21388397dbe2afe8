//! Fixed-capacity event ring buffer.
//!
//! One ring per rank keeps recording O(1) and bounds memory regardless of
//! run length: when full, the oldest events are overwritten and counted as
//! dropped (the trace keeps its most recent window, which is what you want
//! when diagnosing why the *end* of a run was slow).

use crate::event::Event;

/// A wrapping ring of [`Event`]s.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    /// Index of the next write slot.
    head: usize,
    /// Total events ever pushed (so `pushed - len` = overwritten).
    pushed: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> EventRing {
        assert!(cap >= 1, "ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(cap.min(1024)),
            cap,
            head: 0,
            pushed: 0,
        }
    }

    /// Append an event, overwriting the oldest once full.
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
        }
        self.head = (self.head + 1) % self.cap;
        self.pushed += 1;
    }

    /// Events currently held, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &Event> {
        let (tail, head) = if self.buf.len() < self.cap {
            (&self.buf[..0], &self.buf[..])
        } else {
            self.buf.split_at(self.head)
        };
        head.iter().chain(tail.iter())
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to wraparound.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: u64) -> Event {
        Event {
            rank: 0,
            kind: EventKind::Other,
            t_us: t,
            ..Default::default()
        }
    }

    fn times(r: &EventRing) -> Vec<u64> {
        r.iter_in_order().map(|e| e.t_us).collect()
    }

    #[test]
    fn fills_without_wrap() {
        let mut r = EventRing::new(4);
        for t in 0..3 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        assert_eq!(times(&r), vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut r = EventRing::new(4);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 10);
        assert_eq!(r.dropped(), 6);
        assert_eq!(times(&r), vec![6, 7, 8, 9]);
    }

    #[test]
    fn exact_boundary_wrap() {
        let mut r = EventRing::new(3);
        for t in 0..3 {
            r.push(ev(t));
        }
        assert_eq!(times(&r), vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
        r.push(ev(3));
        assert_eq!(times(&r), vec![1, 2, 3]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn capacity_one_keeps_last() {
        let mut r = EventRing::new(1);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(times(&r), vec![4]);
        assert_eq!(r.dropped(), 4);
    }
}
