//! Deterministic discrete-event fabric: N logical ranks, one virtual clock.
//!
//! [`SimFabric`] replaces preemptive thread scheduling with cooperative
//! token passing: every rank (worker, home shard, heartbeat pump, control
//! script) registers as an *actor*, and exactly one actor runs at a time.
//! When the running actor blocks — on a receive, a receive timeout, or a
//! virtual sleep — it hands the token to a scheduler step that either picks
//! the next runnable actor or pops the earliest event off a seeded priority
//! queue, advancing the virtual clock to the event's timestamp. Sends never
//! block; they enqueue a `Deliver` event at `now + wire_time (+ fault
//! jitter)`. Compute costs zero virtual time.
//!
//! Because execution is fully serialized and every scheduling decision is a
//! function of `(seed, event sequence)`, a whole cluster run — including
//! fault-plan drops, retransmit backoff, lease expiry and replica
//! promotion — is a pure function of `(workload, config, seed)`: the same
//! seed replays the same interleaving byte for byte, and different seeds
//! explore different interleavings of same-timestamp events.
//!
//! Per-link FIFO is preserved (delivery times on one link are monotone in
//! send order), matching the threaded fabric's channel semantics; explicit
//! reorder faults still swap adjacent messages via the fault layer's
//! holdback queue, exactly as in threaded mode.
//!
//! If every actor is blocked with no timer pending and the event queue is
//! empty, the run has genuinely deadlocked: the fabric panics with a
//! per-actor diagnostic instead of hanging the test. If an actor panics
//! for any other reason, the remaining blocked actors are woken with
//! `ChannelClosed` so the thread scope can join and surface the original
//! panic.

use crate::message::Message;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which substrate a cluster runs on: real threads with wall-clock timers
/// (the default, byte-identical to the pre-sim fabric) or the
/// deterministic discrete-event scheduler seeded with `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricMode {
    /// One OS thread per rank, wall-clock timers, preemptive scheduling.
    #[default]
    Threads,
    /// Cooperative deterministic simulation on a virtual clock.
    Sim {
        /// Scheduling seed: same seed ⇒ same interleaving, faults and
        /// wire bytes; different seeds explore different interleavings.
        seed: u64,
    },
}

/// Identifier of a registered sim actor (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActorId(usize);

/// Why a blocked actor was woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A message was delivered to the endpoint being waited on.
    Delivery,
    /// The wait's virtual deadline fired first.
    Timeout,
    /// The fabric is shutting down after an actor panicked; the caller
    /// should surface `ChannelClosed` and unwind.
    Closed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Holds or is owed the token (the owning thread may not have reached
    /// its first yield point yet).
    Ready,
    Running,
    Blocked,
    Done,
}

struct Actor {
    name: String,
    phase: Phase,
    /// Bumped on every wake; a pending `Timer` event whose generation no
    /// longer matches is stale and ignored.
    wait_gen: u64,
    wake: Wake,
    /// Endpoint rank this actor is blocked receiving on, if any.
    waiting_ep: Option<u32>,
    cv: Arc<Condvar>,
}

enum EvKind {
    Deliver {
        dst: u32,
        tx: Sender<Message>,
        msg: Message,
    },
    Timer {
        actor: usize,
        gen: u64,
    },
}

struct Ev {
    at: u64,
    /// Seeded tie-break for same-timestamp events. One lane per link (or
    /// per timer owner), so per-link FIFO survives while cross-link
    /// ordering varies with the seed.
    lane: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Ev) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Ev) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Ev) -> std::cmp::Ordering {
        (self.at, self.lane, self.seq).cmp(&(other.at, other.lane, other.seq))
    }
}

struct SimState {
    seed: u64,
    now_us: u64,
    seq: u64,
    picks: u64,
    queue: BinaryHeap<Reverse<Ev>>,
    actors: Vec<Actor>,
    running: Option<usize>,
    /// Earliest time the next delivery on a link may land (per-link FIFO).
    link_clear: HashMap<(u32, u32), u64>,
    /// Which actor is blocked receiving on which endpoint rank.
    ep_waiter: HashMap<u32, usize>,
    /// Endpoints whose receiver half has been dropped (crashed nodes).
    dead_eps: HashSet<u32>,
    /// An actor panicked; blocked actors drain with `Wake::Closed`.
    failed: bool,
}

/// Callback fired with the virtual time on deadlock detection.
type DeadlockHook = Box<dyn Fn(u64) + Send + Sync>;

struct SimCore {
    state: Mutex<SimState>,
    /// Fired (with the virtual time) when the detector finds a fresh
    /// deadlock, *before* the diagnostic panic. Runs while the state lock
    /// is held, so the hook must not read the fabric clock — the
    /// observability layer uses it to flush a flight-recorder bundle with
    /// the timestamp passed in.
    deadlock_hook: Mutex<Option<DeadlockHook>>,
}

impl SimCore {
    /// Lock the state, ignoring poisoning: the deadlock detector panics
    /// while holding this lock by design, and the draining actors must
    /// still be able to take it to unwind cleanly.
    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    static CURRENT_ACTOR: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Handle to a deterministic simulation fabric. Cheap to clone; all clones
/// share one virtual timeline.
#[derive(Clone)]
pub struct SimFabric {
    core: Arc<SimCore>,
}

/// Binds the current thread to its registered actor for the thread's
/// lifetime; dropping it (normally or during a panic) retires the actor
/// and hands the token on.
pub struct ActorGuard {
    fabric: SimFabric,
    id: usize,
}

impl SimFabric {
    /// A fresh fabric whose scheduling decisions derive from `seed`.
    pub fn new(seed: u64) -> SimFabric {
        SimFabric {
            core: Arc::new(SimCore {
                state: Mutex::new(SimState {
                    seed,
                    now_us: 0,
                    seq: 0,
                    picks: 0,
                    queue: BinaryHeap::new(),
                    actors: Vec::new(),
                    running: None,
                    link_clear: HashMap::new(),
                    ep_waiter: HashMap::new(),
                    dead_eps: HashSet::new(),
                    failed: false,
                }),
                deadlock_hook: Mutex::new(None),
            }),
        }
    }

    /// Install the deadlock hook: called with the virtual time (µs) when
    /// the detector finds a fresh deadlock, just before the diagnostic
    /// panic. The hook runs with the scheduler's state lock held — it
    /// must not call back into the fabric (in particular not
    /// [`SimFabric::now_us`]).
    pub fn set_deadlock_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self
            .core
            .deadlock_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Box::new(hook));
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.core.lock().now_us
    }

    /// Pre-register an actor. Call from the coordinating thread in a fixed
    /// order *before* spawning actor threads, so actor identity (and with
    /// it the seeded tie-breaking) is independent of OS spawn timing.
    pub fn add_actor(&self, name: &str) -> ActorId {
        let mut st = self.core.lock();
        st.actors.push(Actor {
            name: name.to_string(),
            phase: Phase::Ready,
            wait_gen: 0,
            wake: Wake::Delivery,
            waiting_ep: None,
            cv: Arc::new(Condvar::new()),
        });
        ActorId(st.actors.len() - 1)
    }

    /// Bind the calling thread to `id` and wait for the token. The first
    /// yield point after this call is where the actor's turn really starts.
    pub fn enter(&self, id: ActorId) -> ActorGuard {
        CURRENT_ACTOR.with(|c| {
            assert!(
                c.get().is_none(),
                "thread is already bound to sim actor {:?}",
                c.get()
            );
            c.set(Some(id.0));
        });
        let mut st = self.core.lock();
        let cv = st.actors[id.0].cv.clone();
        while st.running != Some(id.0) {
            st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.actors[id.0].phase = Phase::Running;
        drop(st);
        ActorGuard {
            fabric: self.clone(),
            id: id.0,
        }
    }

    /// Start scheduling: hand the token to the first seeded pick among the
    /// registered actors. Call once, after `add_actor`/thread spawning.
    pub fn begin(&self) {
        let mut st = self.core.lock();
        if st.running.is_none() {
            self.schedule(&mut st);
        }
    }

    /// Virtual sleep: the calling actor yields and is woken when the clock
    /// reaches `now + d`.
    pub fn sleep(&self, d: Duration) {
        let me = current_actor("sleep");
        let mut st = self.core.lock();
        if st.failed {
            return;
        }
        debug_assert_eq!(
            st.running,
            Some(me),
            "sleep from an actor without the token"
        );
        let gen = st.actors[me].wait_gen;
        let at = st.now_us.saturating_add(dur_us(d));
        self.push_timer(&mut st, me, gen, at);
        self.block_here(st, me, None);
    }

    /// Block until a message lands on endpoint `ep` or `timeout` elapses on
    /// the virtual clock. The caller re-polls its channel on `Delivery`.
    pub(crate) fn block_recv(&self, ep: u32, timeout: Option<Duration>) -> Wake {
        let me = current_actor("recv");
        let mut st = self.core.lock();
        if st.failed {
            return Wake::Closed;
        }
        debug_assert_eq!(st.running, Some(me), "recv from an actor without the token");
        if let Some(d) = timeout {
            let gen = st.actors[me].wait_gen;
            let at = st.now_us.saturating_add(dur_us(d));
            self.push_timer(&mut st, me, gen, at);
        }
        st.ep_waiter.insert(ep, me);
        self.block_here(st, me, Some(ep))
    }

    /// Schedule delivery of `msgs` (one fault-adjusted send) from `src` to
    /// `dst` after `wire + extra` of virtual time. Returns `false` if the
    /// destination endpoint has been dropped (the caller surfaces
    /// `Disconnected`, matching the threaded fabric's closed-channel send).
    pub(crate) fn schedule_delivery(
        &self,
        src: u32,
        dst: u32,
        wire: Duration,
        extra: Duration,
        tx: &Sender<Message>,
        msgs: Vec<Message>,
    ) -> bool {
        let mut st = self.core.lock();
        if st.dead_eps.contains(&dst) {
            return false;
        }
        let base = st
            .now_us
            .saturating_add(dur_us(wire))
            .saturating_add(dur_us(extra));
        let at = base.max(*st.link_clear.get(&(src, dst)).unwrap_or(&0));
        st.link_clear.insert((src, dst), at);
        let lane = splitmix64(st.seed ^ ((u64::from(src) << 32) | u64::from(dst)));
        for msg in msgs {
            let seq = st.seq;
            st.seq += 1;
            st.queue.push(Reverse(Ev {
                at,
                lane,
                seq,
                kind: EvKind::Deliver {
                    dst,
                    tx: tx.clone(),
                    msg,
                },
            }));
        }
        true
    }

    /// Mark an endpoint's receiver as gone (its owning node crashed or
    /// finished): future sends to it fail with `Disconnected` and pending
    /// deliveries evaporate in flight.
    pub(crate) fn note_endpoint_dropped(&self, rank: u32) {
        self.core.lock().dead_eps.insert(rank);
    }

    fn push_timer(&self, st: &mut SimState, actor: usize, gen: u64, at: u64) {
        let lane = splitmix64(st.seed ^ 0x7135_E00D ^ (actor as u64));
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(Ev {
            at,
            lane,
            seq,
            kind: EvKind::Timer { actor, gen },
        }));
    }

    /// Yield the token and wait to be woken. Must be entered with the state
    /// lock held and the calling actor running.
    fn block_here(&self, mut st: MutexGuard<'_, SimState>, me: usize, ep: Option<u32>) -> Wake {
        st.actors[me].phase = Phase::Blocked;
        st.actors[me].waiting_ep = ep;
        st.running = None;
        self.schedule(&mut st);
        let cv = st.actors[me].cv.clone();
        while st.running != Some(me) {
            st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.actors[me].phase = Phase::Running;
        st.actors[me].waiting_ep = None;
        st.actors[me].wake
    }

    /// One scheduler step: pick the next runnable actor, or fire events
    /// (advancing the virtual clock) until one becomes runnable. Runs with
    /// the state lock held and no actor running.
    fn schedule(&self, st: &mut SimState) {
        loop {
            let ready: Vec<usize> = st
                .actors
                .iter()
                .enumerate()
                .filter(|(_, a)| a.phase == Phase::Ready)
                .map(|(i, _)| i)
                .collect();
            if !ready.is_empty() {
                let pick = splitmix64(st.seed ^ st.now_us ^ st.picks.wrapping_mul(0x9E37)) as usize
                    % ready.len();
                st.picks += 1;
                let next = ready[pick];
                st.running = Some(next);
                st.actors[next].cv.notify_one();
                return;
            }
            let Some(Reverse(ev)) = st.queue.pop() else {
                // No runnable actor and no event left. If nobody is
                // blocked the fabric is quiescent (all actors done or not
                // yet started); otherwise this is a real distributed
                // deadlock — unless we are already unwinding a panic, in
                // which case the blocked actors drain gracefully with
                // `Wake::Closed` and the loop hands one of them the token.
                let blocked: Vec<usize> = st
                    .actors
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.phase == Phase::Blocked)
                    .map(|(i, _)| i)
                    .collect();
                if blocked.is_empty() {
                    return;
                }
                let fresh_deadlock = !st.failed;
                if fresh_deadlock {
                    st.failed = true;
                }
                let detail: Vec<String> = st
                    .actors
                    .iter()
                    .map(|a| {
                        let what = match (a.phase, a.waiting_ep) {
                            (Phase::Blocked, Some(ep)) => format!("blocked on recv(ep {ep})"),
                            (Phase::Blocked, None) => "blocked".to_string(),
                            (p, _) => format!("{p:?}").to_lowercase(),
                        };
                        format!("  {} — {what}", a.name)
                    })
                    .collect();
                // Wake the blocked actors first so the token can move (via
                // this loop, or via the panicking actor's guard drop) and
                // the thread scope can join instead of wedging.
                for a in blocked {
                    st.ep_waiter.retain(|_, w| *w != a);
                    self.wake(st, a, Wake::Closed);
                }
                if fresh_deadlock {
                    // Give the observability layer its last chance to
                    // flush a flight-recorder bundle before we panic. The
                    // state lock is held, so the timestamp is passed in
                    // rather than read back through the fabric.
                    let hook = self
                        .core
                        .deadlock_hook
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if let Some(h) = hook.as_ref() {
                        h(st.now_us);
                    }
                    drop(hook);
                    panic!(
                        "sim fabric deadlock at t={}µs: every actor is blocked \
                         with no pending event\n{}",
                        st.now_us,
                        detail.join("\n")
                    );
                }
                continue;
            };
            st.now_us = st.now_us.max(ev.at);
            match ev.kind {
                EvKind::Deliver { dst, tx, msg } => {
                    if !st.dead_eps.contains(&dst) {
                        // A closed receiver mid-flight is a crash: the
                        // packet evaporates, like a wire cut in threaded
                        // mode after the send already succeeded.
                        let _ = tx.send(msg);
                        if let Some(&a) = st.ep_waiter.get(&dst) {
                            if st.actors[a].phase == Phase::Blocked {
                                st.ep_waiter.remove(&dst);
                                self.wake(st, a, Wake::Delivery);
                            }
                        }
                    }
                }
                EvKind::Timer { actor, gen } => {
                    if st.actors[actor].phase == Phase::Blocked && st.actors[actor].wait_gen == gen
                    {
                        if let Some(ep) = st.actors[actor].waiting_ep {
                            st.ep_waiter.remove(&ep);
                        }
                        self.wake(st, actor, Wake::Timeout);
                    }
                }
            }
        }
    }

    fn wake(&self, st: &mut SimState, actor: usize, wake: Wake) {
        st.actors[actor].phase = Phase::Ready;
        st.actors[actor].wait_gen += 1;
        st.actors[actor].wake = wake;
    }
}

fn dur_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

fn current_actor(what: &str) -> usize {
    CURRENT_ACTOR
        .with(|c| c.get())
        .unwrap_or_else(|| panic!("sim fabric {what} from a thread that is not a registered actor"))
}

impl Drop for ActorGuard {
    fn drop(&mut self) {
        CURRENT_ACTOR.with(|c| c.set(None));
        let mut st = self.fabric.core.lock();
        st.actors[self.id].phase = Phase::Done;
        if std::thread::panicking() {
            st.failed = true;
        }
        // Reschedule if this actor held the token — or if nobody does,
        // which happens when a blocked actor panics out of the deadlock
        // detector: someone must hand the token to the drained peers.
        if st.running == Some(self.id) || st.running.is_none() {
            st.running = None;
            self.fabric.schedule(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_sleep_orders_actors_by_deadline() {
        let sim = SimFabric::new(7);
        let a = sim.add_actor("late");
        let b = sim.add_actor("early");
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            let (sa, sb) = (sim.clone(), sim.clone());
            let (oa, ob) = (order.clone(), order.clone());
            s.spawn(move || {
                let _g = sa.enter(a);
                sa.sleep(Duration::from_millis(20));
                oa.lock().unwrap().push(("late", sa.now_us()));
            });
            s.spawn(move || {
                let _g = sb.enter(b);
                sb.sleep(Duration::from_millis(5));
                ob.lock().unwrap().push(("early", sb.now_us()));
            });
            sim.begin();
        });
        let got = order.lock().unwrap().clone();
        assert_eq!(got, vec![("early", 5_000), ("late", 20_000)]);
    }

    #[test]
    fn same_seed_same_interleaving_different_seed_may_differ() {
        // Ten actors all sleep to the same virtual instant; the wake order
        // at that instant is a pure function of the seed.
        let run = |seed: u64| -> Vec<u64> {
            let sim = SimFabric::new(seed);
            let ids: Vec<ActorId> = (0..10).map(|i| sim.add_actor(&format!("a{i}"))).collect();
            let order = Arc::new(Mutex::new(Vec::new()));
            std::thread::scope(|s| {
                for (i, id) in ids.into_iter().enumerate() {
                    let (sim, order) = (sim.clone(), order.clone());
                    s.spawn(move || {
                        let _g = sim.enter(id);
                        sim.sleep(Duration::from_millis(1));
                        order.lock().unwrap().push(i as u64);
                    });
                }
                sim.begin();
            });
            let got = order.lock().unwrap().clone();
            got
        };
        let a1 = run(42);
        let a2 = run(42);
        assert_eq!(a1, a2, "same seed must replay the same interleaving");
        let b = run(43);
        // Different seeds *may* coincide by chance on tiny examples, but
        // over 10! orderings they practically never do.
        assert_ne!(a1, b, "different seeds should explore different orders");
    }

    #[test]
    fn deadlock_panics_with_actor_diagnostics() {
        let sim = SimFabric::new(1);
        let a = sim.add_actor("stuck-worker");
        let sim2 = sim.clone();
        let handle = std::thread::spawn(move || {
            let _g = sim2.enter(a);
            // Block on an endpoint nobody will ever send to, with no
            // timeout: a genuine deadlock.
            sim2.block_recv(99, None)
        });
        sim.begin();
        let err = handle.join().expect_err("deadlocked actor must panic");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("deadlock"), "got: {msg}");
        assert!(msg.contains("stuck-worker"), "got: {msg}");
        assert!(msg.contains("ep 99"), "got: {msg}");
    }

    #[test]
    fn panicking_actor_drains_blocked_peers_with_closed() {
        let sim = SimFabric::new(1);
        let a = sim.add_actor("waiter");
        let b = sim.add_actor("crasher");
        let woke = Arc::new(Mutex::new(None));
        std::thread::scope(|s| {
            let (sa, wa) = (sim.clone(), woke.clone());
            s.spawn(move || {
                let _g = sa.enter(a);
                let w = sa.block_recv(5, None);
                *wa.lock().unwrap() = Some(w);
            });
            let sb = sim.clone();
            let crashed = s.spawn(move || {
                let _g = sb.enter(b);
                panic!("boom");
            });
            sim.begin();
            assert!(crashed.join().is_err());
        });
        assert_eq!(*woke.lock().unwrap(), Some(Wake::Closed));
    }
}
