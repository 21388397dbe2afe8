//! The fabric clock: one time abstraction for both execution modes.
//!
//! Every timer in the DSD — retransmit backoff, lease expiry, replica
//! promotion, heartbeat cadence, drain deadlines — reads time through a
//! [`FabricClock`] instead of `std::time::Instant`. In threaded mode the
//! clock is wall time (microseconds since a process-wide epoch), so
//! behaviour is identical to the pre-clock code. In simulation mode the
//! clock is the [`SimFabric`]'s virtual clock, which only
//! advances when the event queue fires — timers become events and a
//! whole run is a pure function of `(workload, config, seed)`.

use crate::sim::{dur_us, SimFabric};
use std::ops::Add;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A point on the fabric timeline, microseconds since the mode's epoch
/// (process start for wall mode, virtual zero for sim mode). Instants from
/// different clocks must not be compared; in practice every component of a
/// cluster shares the one clock handed out by its [`Network`].
///
/// [`Network`]: crate::Network
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FabricInstant {
    us: u64,
}

impl FabricInstant {
    /// The epoch itself (`t = 0`).
    pub const ZERO: FabricInstant = FabricInstant { us: 0 };

    /// Construct from raw microseconds since the epoch.
    pub fn from_micros(us: u64) -> FabricInstant {
        FabricInstant { us }
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.us
    }

    /// Time elapsed from `earlier` to `self`, zero if `earlier` is later.
    pub fn saturating_since(self, earlier: FabricInstant) -> Duration {
        Duration::from_micros(self.us.saturating_sub(earlier.us))
    }
}

impl Add<Duration> for FabricInstant {
    type Output = FabricInstant;

    fn add(self, d: Duration) -> FabricInstant {
        FabricInstant {
            us: self.us.saturating_add(dur_us(d)),
        }
    }
}

fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Clone)]
enum Source {
    Wall,
    Sim(SimFabric),
}

/// Handle to the time source of a fabric. Cheap to clone; all clones of a
/// sim clock observe the same virtual timeline.
#[derive(Clone)]
pub struct FabricClock {
    source: Source,
}

impl FabricClock {
    /// The wall clock (threaded mode): real time since process start.
    pub fn wall() -> FabricClock {
        FabricClock {
            source: Source::Wall,
        }
    }

    /// The virtual clock of a simulation fabric.
    pub fn sim(fabric: SimFabric) -> FabricClock {
        FabricClock {
            source: Source::Sim(fabric),
        }
    }

    /// Is this a virtual (simulation) clock?
    pub fn is_sim(&self) -> bool {
        matches!(self.source, Source::Sim(_))
    }

    /// Current time on the fabric timeline.
    pub fn now(&self) -> FabricInstant {
        FabricInstant { us: self.now_us() }
    }

    /// Current time in microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        match &self.source {
            Source::Wall => wall_epoch().elapsed().as_micros() as u64,
            Source::Sim(f) => f.now_us(),
        }
    }

    /// Sleep for `d` on this timeline. Wall mode really sleeps; sim mode
    /// yields to the scheduler until the virtual clock reaches `now + d`
    /// (the calling thread must be a registered sim actor).
    pub fn sleep(&self, d: Duration) {
        match &self.source {
            Source::Wall => std::thread::sleep(d),
            Source::Sim(f) => f.sleep(d),
        }
    }
}

/// A fixed-interval tick source over a [`FabricClock`] timeline. The
/// telemetry actor sleeps in small slices and drains `due(now)` each time
/// it wakes: every returned boundary is an *exact multiple* of the
/// interval past the start instant, regardless of how late the actor
/// actually woke — so windows closed on the virtual clock of two
/// same-seed simulated runs carry byte-identical timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Ticker {
    next: FabricInstant,
    interval: Duration,
}

impl Ticker {
    /// A ticker whose first boundary is `start + interval`. A zero
    /// interval is clamped to 1 µs.
    pub fn new(start: FabricInstant, interval: Duration) -> Ticker {
        let interval = interval.max(Duration::from_micros(1));
        Ticker {
            next: start + interval,
            interval,
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// If a boundary has been reached, return it and advance to the next
    /// one. Call in a loop to drain every boundary `now` has passed.
    pub fn due(&mut self, now: FabricInstant) -> Option<FabricInstant> {
        if now >= self.next {
            let t = self.next;
            self.next = t + self.interval;
            Some(t)
        } else {
            None
        }
    }
}

impl std::fmt::Debug for FabricClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.source {
            Source::Wall => write!(f, "FabricClock::Wall"),
            Source::Sim(_) => write!(f, "FabricClock::Sim"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances() {
        let clock = FabricClock::wall();
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a);
        assert!(b.saturating_since(a) >= Duration::from_millis(1));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t = FabricInstant::from_micros(100);
        let later = t + Duration::from_micros(50);
        assert_eq!(later.as_micros(), 150);
        assert_eq!(later.saturating_since(t), Duration::from_micros(50));
        assert!(later > t);
    }

    #[test]
    fn ticker_boundaries_are_exact_multiples() {
        let mut t = Ticker::new(FabricInstant::from_micros(0), Duration::from_micros(100));
        // Not yet due.
        assert_eq!(t.due(FabricInstant::from_micros(99)), None);
        // A late wake drains every passed boundary, each an exact multiple.
        let mut drained = Vec::new();
        let now = FabricInstant::from_micros(350);
        while let Some(b) = t.due(now) {
            drained.push(b.as_micros());
        }
        assert_eq!(drained, vec![100, 200, 300]);
        // The next boundary stays on the grid.
        assert_eq!(
            t.due(FabricInstant::from_micros(400)),
            Some(FabricInstant::from_micros(400))
        );
    }

    #[test]
    fn ticker_clamps_zero_interval() {
        let mut t = Ticker::new(FabricInstant::ZERO, Duration::ZERO);
        assert_eq!(t.interval(), Duration::from_micros(1));
        assert_eq!(
            t.due(FabricInstant::from_micros(1)),
            Some(FabricInstant::from_micros(1))
        );
    }
}
