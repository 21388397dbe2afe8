//! Deterministic discrete-event fabric: N logical ranks, one virtual clock.
//!
//! [`SimFabric`] replaces preemptive thread scheduling with cooperative
//! token passing: every rank registers as an *actor*, and exactly one actor
//! runs at a time. An actor is one of two kinds:
//!
//! - a *thread actor* (a worker, the heartbeat pump, a control script) owns
//!   an OS thread, which parks between its turns;
//! - a *step actor* (a home instance) owns no thread: it is a [`Step`]
//!   that the thread which picked it calls, with the state lock released,
//!   and that answers how it waits next.
//!
//! When the running actor blocks — on a receive, a receive timeout, a
//! virtual sleep, or by a step answering [`Turn::Wait`] — the scheduler
//! either picks the next runnable actor or fires the earliest event — a
//! delivery off a seeded priority queue or a blocked actor's deadline —
//! advancing the virtual clock to the event's timestamp. Sends never block;
//! they enqueue a delivery at `now + wire_time (+ fault jitter)`. Compute
//! costs zero virtual time.
//!
//! A pick of a step actor runs on the thread that made it, and the picking
//! goes on; only the pick of a thread actor hands the token over. The
//! scheduler decides under the state lock and wakes that thread after
//! releasing it, so the woken thread finds it free and a hand-off costs one
//! thread switch — none when a thread picks itself. A blocked actor has at
//! most one deadline, kept beside the delivery queue under the same order
//! and removed by whatever wakes the actor first: nothing dead is ever
//! queued.
//!
//! Because execution is fully serialized and every scheduling decision is a
//! function of `(seed, event sequence)`, a whole cluster run — including
//! fault-plan drops, retransmit backoff, lease expiry and replica
//! promotion — is a pure function of `(workload, config, seed)`: the same
//! seed replays the same interleaving byte for byte, and different seeds
//! explore different interleavings of same-timestamp events. Which kind an
//! actor is changes no decision: a step's wait draws from the same counters
//! as a thread's receive.
//!
//! Per-link FIFO is preserved (delivery times on one link are monotone in
//! send order), matching the threaded fabric's channel semantics; explicit
//! reorder faults still swap adjacent messages via the fault layer's
//! holdback queue, exactly as in threaded mode.
//!
//! If every actor is blocked with no deadline pending and the delivery
//! queue is empty, the run has genuinely deadlocked: the fabric panics with
//! a per-actor diagnostic instead of hanging the test. If an actor panics
//! for any other reason — a step's panic is caught and kept as its result —
//! the fabric has failed: every step still waiting is dropped, and the
//! blocked thread actors are woken with `ChannelClosed` so the thread scope
//! can join and surface the original panic.

use crate::message::Message;
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// What a step actor answers at the end of its turn.
pub enum Turn {
    /// Wait on the actor's endpoint for a delivery, or until the virtual
    /// instant (µs; `None`: a delivery alone), which must lie ahead of
    /// the clock: a step yields only when it must wait.
    Wait(Option<u64>),
    /// Finished with this result, kept for [`SimFabric::take_result`].
    Done(Box<dyn Any + Send>),
}

/// An actor without a thread of its own: the thread whose pick lands on
/// it calls [`Step::step`] with the state lock released, and the fabric
/// then records the wait it answers exactly as a thread actor's receive.
pub trait Step: Send {
    /// Take one turn: `wake` says why the last wait ended (a
    /// [`Wake::Delivery`] on the first turn).
    fn step(&mut self, wake: Wake) -> Turn;
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
    wake: Wake,
    /// The one deadline of a blocked actor: its key in
    /// [`SimState::timers`], removed again by whatever wakes the actor.
    timer: Option<EvKey>,
    /// Endpoint rank this actor is blocked receiving on, if any.
    waiting_ep: Option<u32>,
    kind: Kind,
}

/// How an actor runs.
enum Kind {
    /// On its own thread, woken through this condvar.
    Thread(Arc<Condvar>),
    /// As a step on the picking thread.
    Step {
        /// The endpoint rank it waits on.
        ep: u32,
        /// The step while it waits; `None` while it runs and once it is
        /// dropped.
        step: Option<Box<dyn Step>>,
        /// Its result, or its panic, once it finished.
        result: Option<std::thread::Result<Box<dyn Any + Send>>>,
    },
}

/// `(at, lane, seq)`: the one order over deliveries and deadlines. `lane`
/// is the seeded tie-break for same-timestamp events — one lane per link
/// or per deadline owner, so per-link FIFO survives while cross-link
/// ordering varies with the seed — and both draw `seq` from one counter.
type EvKey = (u64, u64, u64);

/// A message in flight.
struct Ev {
    dst: u32,
    tx: Sender<Message>,
    msg: Message,
}

/// What the scheduler knows of one endpoint rank.
#[derive(Default)]
struct Ep {
    /// The actor blocked receiving on it.
    waiter: Option<usize>,
    /// Its receiver half has been dropped (a crashed node).
    dead: bool,
    /// By source rank: the earliest time the next delivery on that link
    /// may land (per-link FIFO).
    clear: Vec<u64>,
}

struct SimState {
    seed: u64,
    seq: u64,
    picks: u64,
    /// Deliveries in flight.
    queue: BTreeMap<EvKey, Ev>,
    /// Deadlines of blocked actors, at most one each.
    timers: BTreeMap<EvKey, usize>,
    actors: Vec<Actor>,
    running: Option<usize>,
    /// By endpoint rank, grown on first mention.
    eps: Vec<Ep>,
    /// An actor panicked; blocked actors drain with `Wake::Closed`.
    failed: bool,
    /// Wakes of a thread by another.
    #[cfg(test)]
    handoffs: u64,
}

impl SimState {
    /// The actors in `phase`, ascending: what the seeded pick indexes.
    fn in_phase(&self, phase: Phase) -> Vec<usize> {
        let of = |i: &usize| self.actors[*i].phase == phase;
        (0..self.actors.len()).filter(of).collect()
    }

    fn ep(&mut self, rank: u32) -> &mut Ep {
        slot(&mut self.eps, rank)
    }
}

/// `v[rank]`, grown with defaults on first mention.
fn slot<T: Default>(v: &mut Vec<T>, rank: u32) -> &mut T {
    let rank = rank as usize;
    if v.len() <= rank {
        v.resize_with(rank + 1, T::default);
    }
    &mut v[rank]
}

/// Callback fired with the virtual time on deadlock detection.
type DeadlockHook = Box<dyn Fn(u64) + Send + Sync>;

struct SimCore {
    state: Mutex<SimState>,
    /// The virtual clock, µs. Advanced only by a scheduler step, under the
    /// state lock; read without it. `Relaxed` suffices: an actor that reads
    /// it was handed the token through the state mutex after the last
    /// advance, and the value publishes nothing else.
    now_us: AtomicU64,
    /// Fired (with the virtual time) when the detector finds a fresh
    /// deadlock, *before* the diagnostic panic. Runs while the state lock
    /// is held — the observability layer uses it to flush a
    /// flight-recorder bundle with the timestamp passed in.
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

/// The actor a scheduler step picked, to be woken once the state lock is
/// released.
#[must_use]
struct HandOff(Option<Arc<Condvar>>);

impl HandOff {
    /// Takes the guard so that no wake can be issued with the state lock
    /// held: the woken thread's first act is to take it.
    fn unlock_then_wake(self, st: MutexGuard<'_, SimState>) {
        drop(st);
        if let Some(cv) = self.0 {
            cv.notify_one();
        }
    }
}

impl SimFabric {
    /// A fresh fabric whose scheduling decisions derive from `seed`.
    pub fn new(seed: u64) -> SimFabric {
        SimFabric {
            core: Arc::new(SimCore {
                state: Mutex::new(SimState {
                    seed,
                    seq: 0,
                    picks: 0,
                    queue: BTreeMap::new(),
                    timers: BTreeMap::new(),
                    actors: Vec::new(),
                    running: None,
                    eps: Vec::new(),
                    failed: false,
                    #[cfg(test)]
                    handoffs: 0,
                }),
                now_us: AtomicU64::new(0),
                deadlock_hook: Mutex::new(None),
            }),
        }
    }

    /// Install the deadlock hook: called with the virtual time (µs) when
    /// the detector finds a fresh deadlock, just before the diagnostic
    /// panic. The hook runs with the scheduler's state lock held — it
    /// must not call back into the fabric.
    pub fn set_deadlock_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self
            .core
            .deadlock_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Box::new(hook));
    }

    /// Whether the fabric has failed (an actor panicked, or the run
    /// deadlocked): a virtual sleep returns at once from now on, so an
    /// actor that loops on one must stop by itself.
    pub fn failed(&self) -> bool {
        self.core.lock().failed
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.core.now_us.load(Ordering::Relaxed)
    }

    /// Pre-register an actor. Call from the coordinating thread in a fixed
    /// order *before* spawning actor threads, so actor identity (and with
    /// it the seeded tie-breaking) is independent of OS spawn timing.
    pub fn add_actor(&self, name: &str) -> ActorId {
        self.add(name, Kind::Thread(Arc::new(Condvar::new())))
    }

    /// Pre-register a step actor that waits on endpoint `ep`, in the same
    /// order as [`SimFabric::add_actor`]: the ids share one sequence. The
    /// fabric drops the step once it is done, or once the fabric failed.
    pub fn add_step(&self, name: &str, ep: u32, step: Box<dyn Step>) -> ActorId {
        let step = Some(step);
        self.add(
            name,
            Kind::Step {
                ep,
                step,
                result: None,
            },
        )
    }

    fn add(&self, name: &str, kind: Kind) -> ActorId {
        let mut st = self.core.lock();
        st.actors.push(Actor {
            name: name.to_string(),
            phase: Phase::Ready,
            wake: Wake::Delivery,
            timer: None,
            waiting_ep: None,
            kind,
        });
        ActorId(st.actors.len() - 1)
    }

    /// What step actor `id` finished with — its [`Turn::Done`] result, or
    /// the payload of its panic — taken once; `None` if it never finished
    /// (it was dropped when the fabric failed) or was taken already.
    pub fn take_result(&self, id: ActorId) -> Option<std::thread::Result<Box<dyn Any + Send>>> {
        match &mut self.core.lock().actors[id.0].kind {
            Kind::Step { result, .. } => result.take(),
            Kind::Thread(_) => None,
        }
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
        self.await_token(id.0);
        ActorGuard {
            fabric: self.clone(),
            id: id.0,
        }
    }

    /// Start scheduling: hand the token to the first seeded pick among the
    /// registered actors; a step actor picked before the first thread
    /// actor takes its turn on the calling thread. Call once, after
    /// `add_actor`/`add_step` and thread spawning.
    pub fn begin(&self) {
        let st = self.core.lock();
        if st.running.is_none() {
            self.hand_off(st, None);
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
        let at = self.now_us().saturating_add(dur_us(d));
        self.set_timer(&mut st, me, at);
        self.block_here(st, me, None);
    }

    /// Block until a message lands on endpoint `ep` or the virtual clock
    /// reaches `until` (µs; `None` waits for a delivery alone). The caller
    /// re-polls its channel on `Delivery`. A deadline already reached is
    /// `Timeout` at once, without yielding the token.
    pub(crate) fn block_recv(&self, ep: u32, until: Option<u64>) -> Wake {
        let me = current_actor("recv");
        if until.is_some_and(|at| at <= self.now_us()) {
            return Wake::Timeout;
        }
        let mut st = self.core.lock();
        if st.failed {
            return Wake::Closed;
        }
        debug_assert_eq!(st.running, Some(me), "recv from an actor without the token");
        if let Some(at) = until {
            self.set_timer(&mut st, me, at);
        }
        st.ep(ep).waiter = Some(me);
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
        if st.ep(dst).dead {
            return false;
        }
        let base = self
            .now_us()
            .saturating_add(dur_us(wire))
            .saturating_add(dur_us(extra));
        let clear = slot(&mut st.ep(dst).clear, src);
        let at = base.max(*clear);
        *clear = at;
        let lane = splitmix64(st.seed ^ ((u64::from(src) << 32) | u64::from(dst)));
        for msg in msgs {
            let key = (at, lane, st.seq);
            st.seq += 1;
            let tx = tx.clone();
            st.queue.insert(key, Ev { dst, tx, msg });
        }
        true
    }

    /// Mark an endpoint's receiver as gone (its owning node crashed or
    /// finished): future sends to it fail with `Disconnected` and pending
    /// deliveries evaporate in flight.
    pub(crate) fn note_endpoint_dropped(&self, rank: u32) {
        self.core.lock().ep(rank).dead = true;
    }

    /// `(deliveries in flight, live deadlines)`.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> (usize, usize) {
        let st = self.core.lock();
        (st.queue.len(), st.timers.len())
    }

    /// How many times a thread has woken another so far.
    #[cfg(test)]
    pub(crate) fn handoffs(&self) -> u64 {
        self.core.lock().handoffs
    }

    /// Give the running actor, about to block, its deadline.
    fn set_timer(&self, st: &mut SimState, actor: usize, at: u64) {
        let lane = splitmix64(st.seed ^ 0x7135_E00D ^ (actor as u64));
        let key = (at, lane, st.seq);
        st.seq += 1;
        st.timers.insert(key, actor);
        st.actors[actor].timer = Some(key);
    }

    /// Yield the token and wait to be woken. Must be entered with the state
    /// lock held and the calling actor running.
    fn block_here<'a>(
        &'a self,
        mut st: MutexGuard<'a, SimState>,
        me: usize,
        ep: Option<u32>,
    ) -> Wake {
        st.actors[me].phase = Phase::Blocked;
        st.actors[me].waiting_ep = ep;
        st.running = None;
        self.hand_off(st, Some(me));
        self.await_token(me)
    }

    /// Sleep until a scheduler step names `me` the running actor. The
    /// predicate is read under the state lock, so a wake issued between a
    /// step's unlock and this wait is seen, not lost.
    fn await_token(&self, me: usize) -> Wake {
        let mut st = self.core.lock();
        let Kind::Thread(cv) = &st.actors[me].kind else {
            unreachable!("a step actor has no thread to wait on");
        };
        let cv = cv.clone();
        while st.running != Some(me) {
            st = cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.actors[me].phase = Phase::Running;
        st.actors[me].wake
    }

    /// Move the token on: the one path every yield, `begin` and every
    /// retiring thread take. Picks in turn; each step actor picked runs
    /// its turn on this thread, and the picking goes on. Stops at the
    /// first thread actor picked — woken once the state lock is released,
    /// unless it is the caller `me`, which is awake — or when nothing is
    /// runnable. Entered with the state lock held and no actor running.
    fn hand_off<'a>(&'a self, mut st: MutexGuard<'a, SimState>, me: Option<usize>) {
        loop {
            if st.failed {
                st = self.drop_waiting_steps(st);
            }
            let Some(next) = self.pick(&mut st) else {
                return HandOff(None).unlock_then_wake(st);
            };
            st.running = Some(next);
            match &st.actors[next].kind {
                Kind::Thread(cv) => {
                    let cv = (Some(next) != me).then(|| cv.clone());
                    #[cfg(test)]
                    {
                        st.handoffs += u64::from(cv.is_some());
                    }
                    return HandOff(cv).unlock_then_wake(st);
                }
                Kind::Step { .. } => st = self.run_step(st, next),
            }
        }
    }

    /// Run the turn of `a`, a step actor just picked, with the state lock
    /// released; then record what it answered. A wait is recorded as
    /// [`SimFabric::block_recv`] records one — deadline first, then the
    /// endpoint's waiter — so it draws the same sequence numbers. A step
    /// that finished, panicked or would wait on a failed fabric is dropped
    /// with the lock released, and its actor is done.
    fn run_step<'a>(
        &'a self,
        mut st: MutexGuard<'a, SimState>,
        a: usize,
    ) -> MutexGuard<'a, SimState> {
        let wake = st.actors[a].wake;
        st.actors[a].phase = Phase::Running;
        let Kind::Step { step, .. } = &mut st.actors[a].kind else {
            unreachable!("only a step actor runs a turn");
        };
        let mut step = step.take().expect("a picked step is parked in its actor");
        drop(st);
        let turn = catch_unwind(AssertUnwindSafe(|| step.step(wake)));
        let mut step = Some(step);
        let result = match turn {
            Ok(Turn::Wait(until)) => {
                debug_assert!(
                    until.is_none_or(|at| at > self.now_us()),
                    "a step yields only when it must wait"
                );
                let mut st = self.core.lock();
                st.running = None;
                if !st.failed {
                    if let Some(at) = until {
                        self.set_timer(&mut st, a, at);
                    }
                    let Kind::Step {
                        ep, step: parked, ..
                    } = &mut st.actors[a].kind
                    else {
                        unreachable!();
                    };
                    let ep = *ep;
                    *parked = step.take();
                    st.ep(ep).waiter = Some(a);
                    st.actors[a].phase = Phase::Blocked;
                    st.actors[a].waiting_ep = Some(ep);
                    return st;
                }
                None
            }
            Ok(Turn::Done(out)) => Some(Ok(out)),
            Err(panic) => Some(Err(panic)),
        };
        drop(step);
        let mut st = self.core.lock();
        st.running = None;
        if matches!(result, Some(Err(_))) {
            st.failed = true;
        }
        st.actors[a].phase = Phase::Done;
        if let Kind::Step { result: slot, .. } = &mut st.actors[a].kind {
            *slot = result;
        }
        st
    }

    /// Drop every step still waiting on a failed fabric, with the state
    /// lock released: none may run again, and each holds an endpoint,
    /// whose network holds this fabric.
    fn drop_waiting_steps<'a>(
        &'a self,
        mut st: MutexGuard<'a, SimState>,
    ) -> MutexGuard<'a, SimState> {
        let mut dead = Vec::new();
        for a in 0..st.actors.len() {
            if !matches!(st.actors[a].kind, Kind::Step { step: Some(_), .. }) {
                continue;
            }
            if st.actors[a].phase == Phase::Blocked {
                self.wake(&mut st, a, Wake::Closed);
            }
            st.actors[a].phase = Phase::Done;
            if let Kind::Step { step, .. } = &mut st.actors[a].kind {
                dead.extend(step.take());
            }
        }
        if dead.is_empty() {
            return st;
        }
        drop(st);
        drop(dead);
        self.core.lock()
    }

    /// One scheduling decision: pick the next runnable actor, or fire events
    /// (advancing the virtual clock) until one becomes runnable; `None`:
    /// nothing is runnable. Runs with the state lock held and no actor
    /// running.
    fn pick(&self, st: &mut SimState) -> Option<usize> {
        loop {
            let ready = st.in_phase(Phase::Ready);
            if !ready.is_empty() {
                let pick = splitmix64(st.seed ^ self.now_us() ^ st.picks.wrapping_mul(0x9E37))
                    as usize
                    % ready.len();
                st.picks += 1;
                return Some(ready[pick]);
            }
            // The earlier of the next deadline and the next delivery.
            let delivery = st.queue.first_key_value().map(|(key, _)| *key);
            if let Some((&key, &actor)) = st.timers.first_key_value() {
                if delivery.is_none_or(|d| key < d) {
                    self.core.now_us.fetch_max(key.0, Ordering::Relaxed);
                    self.wake(st, actor, Wake::Timeout);
                    continue;
                }
            }
            let Some((key, ev)) = st.queue.pop_first() else {
                // No runnable actor and no event left. If nobody is
                // blocked the fabric is quiescent (all actors done or not
                // yet started); otherwise this is a real distributed
                // deadlock — unless we are already unwinding a panic, in
                // which case the blocked actors drain gracefully with
                // `Wake::Closed` and the loop hands one of them the token.
                let blocked = st.in_phase(Phase::Blocked);
                if blocked.is_empty() {
                    return None;
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
                // Ready the blocked actors first so the token can move (via
                // this loop, or via the panicking actor's guard drop) and
                // the thread scope can join instead of wedging.
                for a in blocked {
                    self.wake(st, a, Wake::Closed);
                }
                if fresh_deadlock {
                    // Give the observability layer its last chance to
                    // flush a flight-recorder bundle before we panic. The
                    // state lock is held, so the timestamp is passed in.
                    let hook = self
                        .core
                        .deadlock_hook
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    if let Some(h) = hook.as_ref() {
                        h(self.now_us());
                    }
                    drop(hook);
                    panic!(
                        "sim fabric deadlock at t={}µs: every actor is blocked \
                         with no pending event\n{}",
                        self.now_us(),
                        detail.join("\n")
                    );
                }
                continue;
            };
            self.core.now_us.fetch_max(key.0, Ordering::Relaxed);
            if !st.ep(ev.dst).dead {
                // A closed receiver mid-flight is a crash: the packet
                // evaporates, like a wire cut in threaded mode after the
                // send already succeeded.
                let _ = ev.tx.send(ev.msg);
                if let Some(a) = st.ep(ev.dst).waiter {
                    self.wake(st, a, Wake::Delivery);
                }
            }
        }
    }

    /// Ready a blocked actor. Its endpoint stops naming it and its
    /// deadline, fired or not, leaves the scheduler: a dead one is never
    /// there to be popped.
    fn wake(&self, st: &mut SimState, actor: usize, wake: Wake) {
        debug_assert_eq!(st.actors[actor].phase, Phase::Blocked);
        if let Some(key) = st.actors[actor].timer.take() {
            st.timers.remove(&key);
        }
        if let Some(ep) = st.actors[actor].waiting_ep.take() {
            st.ep(ep).waiter = None;
        }
        st.actors[actor].phase = Phase::Ready;
        st.actors[actor].wake = wake;
    }
}

/// Microseconds of `d`, saturating: `Duration::MAX` is "no deadline".
pub(crate) fn dur_us(d: Duration) -> u64 {
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
            self.fabric.hand_off(st, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, Network};
    use crate::message::MsgKind;
    use crate::stats::NetConfig;
    use hdsm_obs::Recorder;

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

    /// A step that waits for a delivery on every turn.
    struct Waits;

    impl Step for Waits {
        fn step(&mut self, _: Wake) -> Turn {
            Turn::Wait(None)
        }
    }

    #[test]
    fn deadlock_panics_with_actor_diagnostics() {
        let sim = SimFabric::new(1);
        let a = sim.add_actor("stuck-worker");
        sim.add_step("stuck-home", 98, Box::new(Waits));
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
        assert!(msg.contains("stuck-home"), "got: {msg}");
        assert!(msg.contains("ep 98"), "got: {msg}");
    }

    /// Echoes every frame on its endpoint back to its sender; done after
    /// `left` replies.
    struct Echo {
        ep: Endpoint,
        left: usize,
    }

    impl Step for Echo {
        fn step(&mut self, _: Wake) -> Turn {
            while let Ok(m) = self.ep.try_recv() {
                self.ep.send(m.src, MsgKind::Other, m.payload).unwrap();
                self.left -= 1;
                if self.left == 0 {
                    return Turn::Done(Box::new(()));
                }
            }
            Turn::Wait(None)
        }
    }

    #[test]
    fn round_trips_to_a_step_cost_the_thread_no_hand_off() {
        // Each reply is picked by the client's own thread, which ran the
        // echo's turn inline: after `begin` woke the client, no thread
        // wakes another.
        const TRIPS: usize = 1_000;
        let sim = SimFabric::new(3);
        let (_net, mut eps) = Network::new_sim(2, NetConfig::instant(), Recorder::disabled(), &sim);
        let (echo, ep) = (eps.pop().unwrap(), eps.pop().unwrap());
        let client = sim.add_actor("client");
        let home = sim.add_step(
            "echo",
            1,
            Box::new(Echo {
                ep: echo,
                left: TRIPS,
            }),
        );
        std::thread::scope(|s| {
            let actor = sim.clone();
            s.spawn(move || {
                let _g = actor.enter(client);
                for _ in 0..TRIPS {
                    ep.send(1, MsgKind::Other, bytes::Bytes::new()).unwrap();
                    ep.recv().unwrap();
                }
            });
            sim.begin();
        });
        assert_eq!(sim.handoffs(), 1, "only `begin` woke a thread");
        assert_eq!(sim.pending(), (0, 0));
        assert!(matches!(sim.take_result(home), Some(Ok(_))));
    }

    /// Panics on its first turn.
    struct Boom;

    impl Step for Boom {
        fn step(&mut self, _: Wake) -> Turn {
            panic!("boom");
        }
    }

    #[test]
    fn panicking_step_drains_blocked_threads_with_closed() {
        let sim = SimFabric::new(1);
        let a = sim.add_actor("waiter");
        let b = sim.add_step("crasher", 6, Box::new(Boom));
        let woke = std::thread::scope(|s| {
            let sim2 = sim.clone();
            let waiter = s.spawn(move || {
                let _g = sim2.enter(a);
                sim2.block_recv(5, None)
            });
            sim.begin();
            waiter.join().expect("the step's panic is caught")
        });
        assert_eq!(woke, Wake::Closed);
        let panic = sim.take_result(b).expect("finished").expect_err("panicked");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"boom"));
    }

    /// Done on its first turn; flags its drop.
    struct Once(Arc<std::sync::atomic::AtomicBool>);

    impl Step for Once {
        fn step(&mut self, _: Wake) -> Turn {
            Turn::Done(Box::new(7u32))
        }
    }

    impl Drop for Once {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_step_is_dropped_when_it_finishes() {
        let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sim = SimFabric::new(5);
        let a = sim.add_actor("watcher");
        let b = sim.add_step("once", 9, Box::new(Once(dropped.clone())));
        std::thread::scope(|s| {
            let (actor, dropped) = (sim.clone(), dropped.clone());
            s.spawn(move || {
                let _g = actor.enter(a);
                // A ready step runs before the clock moves.
                actor.sleep(Duration::from_millis(1));
                assert!(
                    dropped.load(Ordering::Relaxed),
                    "a finished step is dropped"
                );
            });
            sim.begin();
        });
        let out = sim.take_result(b).expect("finished").expect("no panic");
        assert_eq!(out.downcast_ref::<u32>(), Some(&7));
        assert!(sim.take_result(b).is_none(), "a result is taken once");
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
    /// One recorded scheduler turn: who ran, when, and why it was woken.
    type Granted = (usize, u64, Wake);

    /// A fixed script over four actors (actor `i` owns endpoint `i`):
    /// sends with and without wire time, receive deadlines that a delivery
    /// beats, ones that expire, and virtual sleeps. Returns every turn in
    /// the order the scheduler granted them.
    fn scripted_turns(seed: u64) -> Vec<Granted> {
        use std::sync::mpsc::{channel, Receiver};
        let sim = SimFabric::new(seed);
        let ids: Vec<ActorId> = (0..4).map(|i| sim.add_actor(&format!("a{i}"))).collect();
        let (txs, rxs): (Vec<Sender<Message>>, Vec<Receiver<Message>>) =
            (0..4).map(|_| channel()).unzip();
        let turns = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for (me, (id, rx)) in ids.into_iter().zip(rxs).enumerate() {
                let (sim, txs, turns) = (sim.clone(), txs.clone(), turns.clone());
                s.spawn(move || {
                    let _g = sim.enter(id);
                    let note = |w: Wake| turns.lock().unwrap().push((me, sim.now_us(), w));
                    let send = |dst: usize, wire_us: u64| {
                        let msg = Message {
                            src: me as u32,
                            dst: dst as u32,
                            kind: MsgKind::Other,
                            payload: bytes::Bytes::new(),
                            trace: None,
                        };
                        sim.schedule_delivery(
                            me as u32,
                            dst as u32,
                            Duration::from_micros(wire_us),
                            Duration::ZERO,
                            &txs[dst],
                            vec![msg],
                        );
                    };
                    // `Endpoint::recv_timeout`'s shape: poll, else block.
                    let recv = |timeout_us: u64| {
                        if rx.try_recv().is_err() {
                            note(sim.block_recv(me as u32, Some(sim.now_us() + timeout_us)));
                            while rx.try_recv().is_ok() {}
                        }
                    };
                    for round in 0..10 {
                        match (me + round) % 4 {
                            0 => {
                                send((me + 1) % 4, 30);
                                recv(100);
                            }
                            1 => {
                                sim.sleep(Duration::from_micros(50 * (1 + me as u64 % 2)));
                                note(Wake::Timeout);
                            }
                            2 => {
                                send((me + 2) % 4, 0);
                                send((me + 3) % 4, 70);
                                recv(40);
                            }
                            _ => recv(500),
                        }
                    }
                });
            }
            sim.begin();
        });
        let got = turns.lock().unwrap().clone();
        got
    }

    #[test]
    fn schedule_golden_turns_match_the_recorded_parent() {
        use Wake::{Delivery as D, Timeout as T};
        // Recorded by running `scripted_turns(0xD5D)` on the commit before
        // the wake moved outside the state lock and timers left the
        // delivery heap (b0d7317): neither may change a scheduling decision.
        let recorded: Vec<Granted> = vec![
            (0, 0, D),
            (2, 40, T),
            (0, 50, T),
            (2, 50, D),
            (3, 80, D),
            (0, 90, T),
            (1, 100, T),
            (3, 100, D),
            (0, 110, D),
            (2, 130, D),
            (1, 140, D),
            (0, 170, D),
            (2, 180, T),
            (3, 200, T),
            (0, 220, T),
            (2, 220, D),
            (1, 240, T),
            (3, 240, D),
            (1, 250, D),
            (2, 270, D),
            (0, 270, D),
            (2, 280, D),
            (3, 290, D),
            (1, 300, D),
            (0, 310, D),
            (2, 330, T),
            (0, 360, T),
            (2, 370, T),
            (3, 390, T),
            (1, 400, T),
            (3, 400, D),
            (2, 460, D),
            (3, 500, T),
        ];
        assert_eq!(scripted_turns(0xD5D), recorded);
        assert_ne!(
            scripted_turns(0xD5E),
            recorded,
            "the script must depend on the seed"
        );
    }
}
