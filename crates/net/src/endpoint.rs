//! The network fabric and per-node endpoints.

use crate::clock::FabricClock;
use crate::fault::{Applied, FaultPlan, FaultState};
use crate::message::{Message, MsgKind, TraceCtx};
use crate::sim::{dur_us, SimFabric, Wake};
use crate::stats::{NetConfig, NetStats};
use bytes::Bytes;
use hdsm_obs::{EventKind, OpCtx, Recorder};
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Errors from sending/receiving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination rank is not registered.
    UnknownDestination(u32),
    /// The destination endpoint (rank given) has been dropped.
    Disconnected(u32),
    /// This endpoint's own receive channel is closed: every sender handle
    /// to it is gone, so no message can ever arrive.
    ChannelClosed,
    /// Blocking receive timed out.
    Timeout,
    /// Channel empty on `try_recv`.
    Empty,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownDestination(r) => write!(f, "unknown destination rank {r}"),
            NetError::Disconnected(r) => write!(f, "destination rank {r} disconnected"),
            NetError::ChannelClosed => write!(f, "receive channel closed (fabric gone)"),
            NetError::Timeout => write!(f, "receive timeout"),
            NetError::Empty => write!(f, "no message available"),
        }
    }
}

impl std::error::Error for NetError {}

struct Fabric {
    config: NetConfig,
    senders: RwLock<Vec<Sender<Message>>>,
    stats: Mutex<NetStats>,
    /// Present iff the config carries a fault plan or a partition was ever
    /// requested; absent means the fast path skips fault bookkeeping.
    faults: Mutex<Option<FaultState>>,
    /// Observability hook; the default disabled recorder costs one branch
    /// per send.
    recorder: Recorder,
    /// Present in simulation mode: sends become virtual-clock events and
    /// receives yield to the deterministic scheduler.
    sim: Option<SimFabric>,
}

/// Handle to the shared network fabric. Cloning is cheap; all clones refer
/// to the same fabric.
#[derive(Clone)]
pub struct Network {
    fabric: Arc<Fabric>,
}

impl Network {
    /// Create a fabric with `n` endpoints (ranks `0..n`).
    pub fn new(n: usize, config: NetConfig) -> (Network, Vec<Endpoint>) {
        Network::new_observed(n, config, Recorder::disabled())
    }

    /// Create a fabric whose traffic is recorded into `recorder` (message
    /// events, per-kind traffic, fault instants). With a disabled recorder
    /// this is identical to [`Network::new`].
    pub fn new_observed(
        n: usize,
        config: NetConfig,
        recorder: Recorder,
    ) -> (Network, Vec<Endpoint>) {
        Network::build(n, config, recorder, None)
    }

    /// Create a fabric whose message delivery and timers run on `sim`'s
    /// virtual clock instead of wall time. Sends enqueue deterministic
    /// delivery events; blocking receives yield to the sim scheduler (the
    /// receiving thread must be a registered sim actor).
    pub fn new_sim(
        n: usize,
        config: NetConfig,
        recorder: Recorder,
        sim: &SimFabric,
    ) -> (Network, Vec<Endpoint>) {
        if recorder.is_enabled() {
            // A sim deadlock is about to panic the scheduler: flush a
            // flight-recorder bundle first. The hook runs with the sim
            // state lock held, so the trigger takes the virtual time as an
            // argument instead of reading the (sim-backed) time source.
            let rec = recorder.clone();
            sim.set_deadlock_hook(move |t_us| {
                rec.blackbox_trigger_at("sim-deadlock", t_us);
            });
        }
        Network::build(n, config, recorder, Some(sim.clone()))
    }

    fn build(
        n: usize,
        config: NetConfig,
        recorder: Recorder,
        sim: Option<SimFabric>,
    ) -> (Network, Vec<Endpoint>) {
        let faults = config.fault_plan.clone().map(FaultState::new);
        let net = Network {
            fabric: Arc::new(Fabric {
                config,
                senders: RwLock::new(Vec::new()),
                stats: Mutex::new(NetStats::default()),
                faults: Mutex::new(faults),
                recorder,
                sim,
            }),
        };
        let eps = (0..n).map(|_| net.add_endpoint()).collect();
        (net, eps)
    }

    /// The fabric's observability recorder (disabled unless the fabric was
    /// built with [`Network::new_observed`]).
    pub fn recorder(&self) -> &Recorder {
        &self.fabric.recorder
    }

    /// The fabric's time source: wall time in threaded mode, the virtual
    /// clock in simulation mode. Every timer above the fabric (retransmit
    /// backoff, leases, heartbeats, drain deadlines) should read this.
    pub fn clock(&self) -> FabricClock {
        match &self.fabric.sim {
            None => FabricClock::wall(),
            Some(sim) => FabricClock::sim(sim.clone()),
        }
    }

    /// The simulation scheduler, if this fabric runs in sim mode.
    pub fn sim(&self) -> Option<&SimFabric> {
        self.fabric.sim.as_ref()
    }

    /// Register a new endpoint at runtime — this is how a machine "joins"
    /// the adaptive cluster (paper §1: jobs dispatched to newly added
    /// machines). Returns the endpoint with the next free rank.
    pub fn add_endpoint(&self) -> Endpoint {
        let (tx, rx) = channel();
        let mut senders = self.fabric.senders.write();
        let rank = senders.len() as u32;
        senders.push(tx);
        Endpoint {
            rank,
            rx,
            net: self.clone(),
        }
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.fabric.senders.read().len()
    }

    /// Snapshot of traffic statistics.
    pub fn stats(&self) -> NetStats {
        self.fabric.stats.lock().clone()
    }

    /// Sever the link between ranks `a` and `b` in both directions: every
    /// message between them is silently dropped (and counted) until
    /// [`Network::heal`]. Takes effect even without a configured
    /// [`FaultPlan`].
    pub fn partition(&self, a: u32, b: u32) {
        let mut faults = self.fabric.faults.lock();
        faults
            .get_or_insert_with(|| FaultState::new(FaultPlan::default()))
            .partition(a, b);
    }

    /// Restore every severed link.
    pub fn heal(&self) {
        if let Some(f) = self.fabric.faults.lock().as_mut() {
            f.heal();
        }
    }

    /// Record a retransmission performed by a reliability layer above the
    /// fabric (the message itself is sent normally and counted as traffic).
    pub fn note_retransmit(&self) {
        self.fabric.stats.lock().retransmitted += 1;
        self.fabric.recorder.count("net.retransmits", 1);
    }

    /// Send a message on behalf of rank `src` — for auxiliary threads
    /// (e.g. a heartbeat pump) that speak for a node without owning its
    /// [`Endpoint`]. Subject to the same fault injection as normal sends.
    pub fn send_as(
        &self,
        src: u32,
        dst: u32,
        kind: MsgKind,
        payload: Bytes,
    ) -> Result<(), NetError> {
        self.send(
            Message {
                src,
                dst,
                kind,
                payload,
                trace: None,
            },
            OpCtx::default(),
        )
    }

    fn send(&self, mut msg: Message, op: OpCtx) -> Result<(), NetError> {
        let wire = self.fabric.config.transfer_time(msg.payload.len());
        let tx = {
            let senders = self.fabric.senders.read();
            senders
                .get(msg.dst as usize)
                .ok_or(NetError::UnknownDestination(msg.dst))?
                .clone()
        };
        let (src, dst, kind, len) = (msg.src, msg.dst, msg.kind, msg.payload.len());
        let rec = &self.fabric.recorder;
        // Record the send before the message is enqueued, and stamp the
        // trace context into the envelope. With a disabled recorder this
        // is one branch and the envelope stays trace-free (`None`), so
        // the wire format is byte-identical to an unobserved fabric.
        if let Some(flow) = rec.msg_send_event(src, len as u64, dst, kind.label(), op) {
            msg.trace = Some(TraceCtx { flow, op });
        }
        let applied = match self.fabric.faults.lock().as_mut() {
            None => Applied {
                deliver: vec![msg],
                ..Applied::default()
            },
            Some(f) => f.apply(msg),
        };
        {
            // The one ledger entry of this message. The send attempt is
            // always charged to the cost model — a dropped packet still
            // crossed the sender's NIC.
            let mut stats = self.fabric.stats.lock();
            stats.record(kind, dst, len, wire + applied.extra_delay);
            stats.dropped += applied.dropped;
            stats.duplicated += applied.duplicated;
            stats.reordered += applied.reordered;
        }
        for (fault, n) in [
            (EventKind::FaultDrop, applied.dropped),
            (EventKind::FaultDup, applied.duplicated),
            (EventKind::FaultReorder, applied.reordered),
        ] {
            if n > 0 {
                rec.instant(src, fault, n, dst as u64, kind.label());
            }
        }
        if let Some(sim) = &self.fabric.sim {
            // Delivery is an event at `now + wire (+ jitter)` on the
            // virtual clock; nothing sleeps and fault jitter becomes real
            // (virtual) latency instead of pure accounting.
            if sim.schedule_delivery(src, dst, wire, applied.extra_delay, &tx, applied.deliver) {
                return Ok(());
            }
            return Err(NetError::Disconnected(dst));
        }
        for out in applied.deliver {
            tx.send(out).map_err(|_| NetError::Disconnected(dst))?;
        }
        Ok(())
    }
}

/// A node's connection to the fabric. Receives are exclusive to the owner;
/// sends go through the shared fabric.
pub struct Endpoint {
    rank: u32,
    rx: Receiver<Message>,
    net: Network,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Handle to the fabric (for stats or adding endpoints).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Send `payload` to `dst`.
    pub fn send(&self, dst: u32, kind: MsgKind, payload: Bytes) -> Result<(), NetError> {
        self.send_op(dst, kind, payload, OpCtx::default())
    }

    /// Send `payload` to `dst`, attributing the message (and its trace
    /// context) to sync operation `op`.
    pub fn send_op(
        &self,
        dst: u32,
        kind: MsgKind,
        payload: Bytes,
        op: OpCtx,
    ) -> Result<(), NetError> {
        self.net.send(
            Message {
                src: self.rank,
                dst,
                kind,
                payload,
                trace: None,
            },
            op,
        )
    }

    /// Record a dequeued message in the fabric's observability stream,
    /// bound to its send by the flow id the envelope carries.
    fn note_recv(&self, m: &Message) {
        let t = m.trace.unwrap_or_default();
        let (bytes, label) = (m.payload.len() as u64, m.kind.label());
        let rec = &self.net.fabric.recorder;
        rec.msg_recv_event(self.rank, bytes, m.src, label, t.flow, t.op);
    }

    /// This endpoint's fabric clock (wall or virtual).
    pub fn clock(&self) -> FabricClock {
        self.net.clock()
    }

    /// Sim-mode receive: poll the channel, else yield to the scheduler
    /// until a delivery to this rank or the virtual instant `until`.
    fn recv_sim(&self, sim: &SimFabric, until: Option<u64>) -> Result<Message, NetError> {
        loop {
            match self.try_recv() {
                Err(NetError::Empty) => {}
                done => return done,
            }
            match sim.block_recv(self.rank, until) {
                Wake::Delivery => continue,
                Wake::Timeout => return Err(NetError::Timeout),
                Wake::Closed => return Err(NetError::ChannelClosed),
            }
        }
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Message, NetError> {
        if let Some(sim) = &self.net.fabric.sim {
            return self.recv_sim(sim, None);
        }
        let m = self.rx.recv().map_err(|_| NetError::ChannelClosed)?;
        self.note_recv(&m);
        Ok(m)
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, NetError> {
        if let Some(sim) = &self.net.fabric.sim {
            let until = sim.now_us().saturating_add(dur_us(timeout));
            return self.recv_sim(sim, Some(until));
        }
        let m = self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::ChannelClosed,
        })?;
        self.note_recv(&m);
        Ok(m)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Message, NetError> {
        let m = self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => NetError::Empty,
            TryRecvError::Disconnected => NetError::ChannelClosed,
        })?;
        self.note_recv(&m);
        Ok(m)
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // In sim mode a dropped endpoint is a crashed node: in-flight
        // deliveries evaporate and later sends to it fail with
        // `Disconnected`, matching the threaded fabric's closed channel.
        if let Some(sim) = &self.net.fabric.sim {
            sim.note_endpoint_dropped(self.rank);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn basic_send_receive() {
        let (_net, eps) = Network::new(2, NetConfig::instant());
        eps[0]
            .send(1, MsgKind::Other, Bytes::from_static(b"hello"))
            .unwrap();
        let m = eps[1].recv().unwrap();
        assert_eq!(m.src, 0);
        assert_eq!(m.dst, 1);
        assert_eq!(&m.payload[..], b"hello");
    }

    #[test]
    fn unknown_destination() {
        let (_net, eps) = Network::new(1, NetConfig::instant());
        assert_eq!(
            eps[0].send(9, MsgKind::Other, Bytes::new()),
            Err(NetError::UnknownDestination(9))
        );
    }

    #[test]
    fn self_send_allowed() {
        let (_net, eps) = Network::new(1, NetConfig::instant());
        eps[0].send(0, MsgKind::Other, Bytes::new()).unwrap();
        assert!(eps[0].try_recv().is_ok());
    }

    #[test]
    fn try_recv_empty() {
        let (_net, eps) = Network::new(1, NetConfig::instant());
        assert_eq!(eps[0].try_recv().unwrap_err(), NetError::Empty);
    }

    #[test]
    fn timeout_fires() {
        let (_net, eps) = Network::new(1, NetConfig::instant());
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(5)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn dynamic_join_gets_next_rank() {
        let (net, eps) = Network::new(2, NetConfig::instant());
        let newcomer = net.add_endpoint();
        assert_eq!(newcomer.rank(), 2);
        assert_eq!(net.endpoint_count(), 3);
        eps[0]
            .send(2, MsgKind::Other, Bytes::from_static(b"welcome"))
            .unwrap();
        assert_eq!(&newcomer.recv().unwrap().payload[..], b"welcome");
    }

    #[test]
    fn stats_track_traffic() {
        let (net, eps) = Network::new(2, NetConfig::default());
        eps[0]
            .send(1, MsgKind::LockRequest, Bytes::from_static(&[0; 100]))
            .unwrap();
        eps[1]
            .send(0, MsgKind::LockGrant, Bytes::from_static(&[0; 5000]))
            .unwrap();
        let s = net.stats();
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 5100);
        assert!(s.simulated_wire_time > Duration::ZERO);
    }

    #[test]
    fn cross_thread_messaging() {
        let (_net, mut eps) = Network::new(2, NetConfig::instant());
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let m = ep1.recv().unwrap();
            ep1.send(m.src, MsgKind::Other, m.payload).unwrap();
        });
        ep0.send(1, MsgKind::Other, Bytes::from_static(b"ping"))
            .unwrap();
        let echo = ep0.recv().unwrap();
        assert_eq!(&echo.payload[..], b"ping");
        t.join().unwrap();
    }

    #[test]
    fn messages_preserve_fifo_per_pair() {
        let (_net, eps) = Network::new(2, NetConfig::instant());
        for i in 0..100u8 {
            eps[0]
                .send(1, MsgKind::Other, Bytes::copy_from_slice(&[i]))
                .unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(eps[1].recv().unwrap().payload[0], i);
        }
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let (net, eps) = Network::new(3, NetConfig::instant());
        net.partition(0, 1);
        eps[0].send(1, MsgKind::Other, Bytes::new()).unwrap();
        eps[1].send(0, MsgKind::Other, Bytes::new()).unwrap();
        // Unrelated link unaffected.
        eps[0]
            .send(2, MsgKind::Other, Bytes::from_static(b"ok"))
            .unwrap();
        assert_eq!(&eps[2].recv().unwrap().payload[..], b"ok");
        assert_eq!(eps[1].try_recv().unwrap_err(), NetError::Empty);
        assert_eq!(eps[0].try_recv().unwrap_err(), NetError::Empty);
        assert_eq!(net.stats().dropped, 2);
        net.heal();
        eps[0].send(1, MsgKind::Other, Bytes::new()).unwrap();
        assert!(eps[1].recv().is_ok());
    }

    #[test]
    fn fault_plan_drop_is_counted() {
        let plan = FaultPlan::seeded(11).drop(1.0);
        let (net, eps) = Network::new(2, NetConfig::instant().with_faults(plan));
        for _ in 0..10 {
            eps[0].send(1, MsgKind::Other, Bytes::new()).unwrap();
        }
        assert_eq!(eps[1].try_recv().unwrap_err(), NetError::Empty);
        let s = net.stats();
        assert_eq!(s.dropped, 10);
        assert_eq!(s.total_messages(), 10); // attempts still accounted
    }

    #[test]
    fn fault_plan_duplicates_are_delivered_and_counted() {
        let plan = FaultPlan::seeded(11).duplicate(1.0);
        let (net, eps) = Network::new(2, NetConfig::instant().with_faults(plan));
        eps[0]
            .send(1, MsgKind::Other, Bytes::from_static(b"x"))
            .unwrap();
        assert!(eps[1].recv().is_ok());
        assert!(eps[1].recv().is_ok());
        assert_eq!(eps[1].try_recv().unwrap_err(), NetError::Empty);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn fault_plan_reorders_adjacent_pairs() {
        let plan = FaultPlan::seeded(11).reorder(1.0);
        let (net, eps) = Network::new(2, NetConfig::instant().with_faults(plan));
        for i in 0..4u8 {
            eps[0]
                .send(1, MsgKind::Other, Bytes::copy_from_slice(&[i]))
                .unwrap();
        }
        let got: Vec<u8> = (0..4).map(|_| eps[1].recv().unwrap().payload[0]).collect();
        assert_eq!(got, vec![1, 0, 3, 2]);
        assert_eq!(net.stats().reordered, 2);
    }

    #[test]
    fn retransmit_counter_is_exposed() {
        let (net, _eps) = Network::new(1, NetConfig::instant());
        net.note_retransmit();
        net.note_retransmit();
        assert_eq!(net.stats().retransmitted, 2);
    }

    #[test]
    fn observed_fabric_records_send_and_recv_events() {
        let rec = Recorder::enabled();
        let (_net, eps) = Network::new_observed(2, NetConfig::instant(), rec.clone());
        eps[0]
            .send(1, MsgKind::LockRequest, Bytes::from_static(&[0; 10]))
            .unwrap();
        eps[1]
            .send(0, MsgKind::LockGrant, Bytes::from_static(&[0; 100]))
            .unwrap();
        eps[1].recv().unwrap();
        // Send and receive instants carry the kind label and peer rank.
        let evs = rec.events();
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::MsgSend && e.label == "lock-req" && e.rank == 0));
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::MsgRecv && e.label == "lock-req" && e.rank == 1));
    }

    #[test]
    fn disabled_recorder_leaves_envelope_untraced() {
        let (_net, eps) = Network::new(2, NetConfig::instant());
        eps[0]
            .send(1, MsgKind::LockRequest, Bytes::from_static(b"payload"))
            .unwrap();
        let m = eps[1].recv().unwrap();
        assert!(m.trace.is_none());
        assert_eq!(&m.payload[..], b"payload");
    }

    #[test]
    fn observed_sends_stamp_trace_context() {
        use hdsm_obs::OpKind;
        let rec = Recorder::enabled();
        let (_net, eps) = Network::new_observed(2, NetConfig::instant(), rec.clone());
        let op = OpCtx {
            kind: OpKind::Lock,
            id: 4,
            epoch: 1,
            origin: 0,
        };
        eps[0]
            .send_op(1, MsgKind::LockRequest, Bytes::from_static(b"x"), op)
            .unwrap();
        let m = eps[1].recv().unwrap();
        let t = m.trace.expect("observed send must carry trace");
        assert_ne!(t.flow, 0);
        assert_eq!(t.op, op);
        // The send and receive events share the flow id and carry the op,
        // and the receive comes second in the recorder's order.
        let evs = rec.events();
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::MsgSend, EventKind::MsgRecv]);
        for e in &evs {
            assert_eq!((e.flow, e.op), (t.flow, op));
        }
    }

    #[test]
    fn reordered_delivery_keeps_causal_send_recv_order() {
        let rec = Recorder::enabled();
        let plan = FaultPlan::seeded(11).reorder(1.0).duplicate(0.5);
        let (_net, eps) =
            Network::new_observed(2, NetConfig::instant().with_faults(plan), rec.clone());
        for _ in 0..8 {
            eps[0].send(1, MsgKind::Other, Bytes::new()).unwrap();
        }
        while eps[1].try_recv().is_ok() {}
        // Every receive comes after the send of its flow in `events()`,
        // however the fabric held the copies back or doubled them.
        let evs = rec.events();
        let mut sent = std::collections::HashSet::new();
        let mut received = 0;
        for e in &evs {
            match e.kind {
                EventKind::MsgSend => assert!(sent.insert(e.flow)),
                EventKind::MsgRecv => {
                    assert!(sent.contains(&e.flow), "flow {} received first", e.flow);
                    received += 1;
                }
                _ => {}
            }
        }
        assert!(received >= 8, "{evs:?}");
    }

    #[test]
    fn fault_injection_emits_events_when_observed() {
        let rec = Recorder::enabled();
        let plan = FaultPlan::seeded(11).drop(1.0);
        let (_net, eps) =
            Network::new_observed(2, NetConfig::instant().with_faults(plan), rec.clone());
        eps[0].send(1, MsgKind::Other, Bytes::new()).unwrap();
        assert!(rec.events().iter().any(|e| e.kind == EventKind::FaultDrop));
    }

    /// Run `bodies[i]` as sim actor `i` owning endpoint `i` of a fault-free
    /// instant fabric; returns the fabric once every actor has finished.
    fn run_sim(bodies: Vec<Box<dyn FnOnce(Endpoint, SimFabric) + Send>>) -> SimFabric {
        let sim = SimFabric::new(7);
        let (_net, eps) = Network::new_sim(
            bodies.len(),
            NetConfig::instant(),
            Recorder::disabled(),
            &sim,
        );
        std::thread::scope(|s| {
            for (i, (ep, body)) in eps.into_iter().zip(bodies).enumerate() {
                let (sim, id) = (sim.clone(), sim.add_actor(&format!("a{i}")));
                s.spawn(move || {
                    let _g = sim.enter(id);
                    body(ep, sim.clone());
                });
            }
            sim.begin();
        });
        sim
    }

    #[test]
    fn sim_recv_timeout_saturates_instead_of_wrapping() {
        // `Duration::MAX` is "no deadline"; 2^64 + 5 µs used to wrap to a
        // 5 µs deadline that fired before the 1 ms delivery.
        for timeout in [
            Duration::MAX,
            Duration::new(18_446_744_073_709, 551_621_000),
        ] {
            run_sim(vec![
                Box::new(move |ep, _| {
                    let m = ep.recv_timeout(timeout).expect("delivered, not Timeout");
                    assert_eq!(&m.payload[..], b"late");
                }),
                Box::new(|ep, _| {
                    ep.clock().sleep(Duration::from_millis(1));
                    ep.send(0, MsgKind::Other, Bytes::from_static(b"late"))
                        .unwrap();
                }),
            ]);
        }
    }

    #[test]
    fn sim_request_reply_turns_leave_nothing_queued() {
        // Every reply beats its 250 ms deadline, and on an instant fabric
        // virtual time never reaches one: a deadline that outlived its
        // wait would sit in the scheduler for the rest of the run.
        const TURNS: usize = 10_000;
        let sim = run_sim(vec![
            Box::new(|ep, sim| {
                for _ in 0..TURNS {
                    ep.send(1, MsgKind::Other, Bytes::new()).unwrap();
                    ep.recv_timeout(Duration::from_millis(250)).unwrap();
                    let (deliveries, deadlines) = sim.pending();
                    assert!(
                        deliveries == 0 && deadlines <= 1,
                        "{deliveries}, {deadlines}"
                    );
                }
            }),
            Box::new(|ep, _| {
                for _ in 0..TURNS {
                    ep.recv_timeout(Duration::from_millis(250)).unwrap();
                    ep.send(0, MsgKind::Other, Bytes::new()).unwrap();
                }
            }),
        ]);
        assert_eq!(sim.pending(), (0, 0));
        assert_eq!(sim.now_us(), 0);
    }

    #[test]
    fn sim_ping_pong_stress_loses_no_wake_up() {
        // Four pairs, every wait a plain `recv`: a hand-off lost between a
        // scheduler step's unlock and its wake would hang this test, a
        // message lost would trip the deadlock detector.
        const ROUNDS: usize = 50_000;
        let bodies = (0..8u32).map(|me| {
            Box::new(move |ep: Endpoint, _| {
                for _ in 0..ROUNDS {
                    if me % 2 == 0 {
                        ep.send(me + 1, MsgKind::Other, Bytes::new()).unwrap();
                        ep.recv().unwrap();
                    } else {
                        ep.recv().unwrap();
                        ep.send(me - 1, MsgKind::Other, Bytes::new()).unwrap();
                    }
                }
            }) as Box<dyn FnOnce(Endpoint, SimFabric) + Send>
        });
        assert_eq!(run_sim(bodies.collect()).pending(), (0, 0));
    }
}
