//! Causal tracing end-to-end: `Recorder::events` must be a causal order
//! on a hostile fabric of either kind, the critical-path analyzer must
//! attribute every sync op's latency exactly, and a disabled recorder
//! must leave the message envelope byte-for-byte identical to the
//! untraced wire format.

use bytes::Bytes;
use hdsm::apps::Kernel;
use hdsm::dsd::cluster::{ClusterBuilder, TimingConfig, TopologyConfig};
use hdsm::net::endpoint::Network;
use hdsm::net::message::MsgKind;
use hdsm::net::stats::NetConfig;
use hdsm::net::{FabricMode, FaultPlan};
use hdsm::obs::{chrome_trace, Event, EventKind, OpKind, Recorder};
use hdsm::platform::spec::PlatformSpec;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

/// Drive a little all-to-all burst through an observed fabric and drain
/// every queue, so each send that survives the fault plan has a matching
/// receive event.
fn burst(plan: Option<FaultPlan>, recorder: &Recorder, n: usize, msgs: u32) {
    let config = match plan {
        Some(p) => NetConfig::instant().with_faults(p),
        None => NetConfig::instant(),
    };
    let (_net, eps) = Network::new_observed(n, config, recorder.clone());
    for round in 0..msgs {
        for (src, ep) in eps.iter().enumerate() {
            let dst = (src + 1 + (round as usize % (n - 1))) % n;
            ep.send(dst as u32, MsgKind::Other, Bytes::from_static(b"payload"))
                .unwrap();
        }
    }
    for ep in &eps {
        while ep.try_recv().is_ok() {}
    }
}

/// A two-worker SOR run on the sim fabric under `plan`, observed by
/// `recorder`. `NetConfig::instant()` moves no virtual time per message,
/// so a send and its receive share their `t_us`.
fn sim_sor(plan: FaultPlan, fabric_seed: u64, recorder: &Recorder) {
    let builder = ClusterBuilder::new()
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: fabric_seed },
            ..Default::default()
        })
        .timing(TimingConfig {
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .net(NetConfig::instant().with_faults(plan))
        .obs(recorder.clone());
    let sor = Kernel::Sor { sweeps: 2 };
    assert!(sor.run(builder, 12, 0xC0).expect("sim sor cluster").1);
}

/// The order `events` is in is causal: every `MsgRecv` comes after the
/// `MsgSend` of its flow — one per physical transmission, so a duplicate
/// is a second receive of the same send — and each rank's instants keep
/// the order the rank recorded them in. Returns the receives checked.
fn assert_causal(events: &[Event]) -> usize {
    let mut sent = HashSet::new();
    let mut last_instant: BTreeMap<u32, u64> = BTreeMap::new();
    let mut received = 0;
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::MsgSend => assert!(sent.insert(e.flow), "flow {} sent twice", e.flow),
            EventKind::MsgRecv => {
                assert!(
                    sent.contains(&e.flow),
                    "event {i}: flow {} ({} {}->{}) received before it was sent",
                    e.flow,
                    e.label,
                    e.arg1,
                    e.rank
                );
                received += 1;
            }
            _ => {}
        }
        if e.dur_us == 0 {
            let prev = last_instant.insert(e.rank, e.seq);
            assert!(prev < Some(e.seq), "rank {}: instants out of order", e.rank);
        }
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// `events()` is causal under arbitrary drop/duplicate/reorder plans
    /// on both fabrics: on threads, where the clock advances between a
    /// send and its receive, and on the sim fabric, where it stands still
    /// and the record sequence alone orders a rank-0 home's receive after
    /// a worker's send.
    #[test]
    fn events_are_causal_under_random_fault_plans_on_both_fabrics(
        seed in any::<u64>(),
        drop_pm in 0u32..200,
        dup_pm in 0u32..200,
        reorder_pm in 0u32..200,
    ) {
        let plan = FaultPlan::seeded(seed)
            .drop(f64::from(drop_pm) / 1000.0)
            .duplicate(f64::from(dup_pm) / 1000.0)
            .reorder(f64::from(reorder_pm) / 1000.0);
        let threads = Recorder::enabled();
        burst(Some(plan.clone()), &threads, 3, 20);
        prop_assert!(assert_causal(&threads.events()) > 0);
        let sim = Recorder::enabled();
        sim_sor(plan, seed, &sim);
        prop_assert!(assert_causal(&sim.events()) > 0);
    }
}

#[test]
fn clean_fabric_causal_order_is_delivery_order() {
    let recorder = Recorder::enabled();
    burst(None, &recorder, 3, 30);
    let events = recorder.events();
    // Nothing lost on a clean fabric: every send has exactly one receive,
    // after it.
    let sends = events
        .iter()
        .filter(|e| e.kind == EventKind::MsgSend)
        .count();
    assert_eq!(sends, 3 * 30);
    assert_eq!(assert_causal(&events), sends);
}

/// With the recorder disabled the envelope must be byte-identical to the
/// untraced wire format: no trace context on any message, and the exact
/// same payload bytes on the wire as an enabled run of the same
/// deterministic workload.
#[test]
fn disabled_recorder_is_wire_format_differential() {
    let run = |recorder: Option<Recorder>| {
        let mut b = ClusterBuilder::new()
            .home(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc());
        if let Some(r) = recorder {
            b = b.obs(r);
        }
        Kernel::Sor { sweeps: 2 }
            .run(b, 24, 0x11)
            .expect("sor cluster")
    };
    let (untraced, verified) = run(None);
    let (traced, _) = run(Some(Recorder::enabled()));
    assert!(verified);
    // Identical deterministic workload → identical wire traffic. The
    // trace context rides outside the payload, so enabling observability
    // must not add a single payload byte, and disabling it must leave
    // the envelope untraced entirely.
    assert_eq!(
        untraced.net_stats.total_messages(),
        traced.net_stats.total_messages()
    );
    assert_eq!(
        untraced.net_stats.total_bytes(),
        traced.net_stats.total_bytes()
    );
    for kind in MsgKind::ALL {
        assert_eq!(
            untraced.net_stats.messages.get(&kind),
            traced.net_stats.messages.get(&kind),
            "message count differs for {}",
            kind.label()
        );
        assert_eq!(
            untraced.net_stats.bytes.get(&kind),
            traced.net_stats.bytes.get(&kind),
            "byte count differs for {}",
            kind.label()
        );
    }
    assert!(untraced.obs.is_none(), "no snapshot without a recorder");
}

/// The acceptance workload: SOR over a 5%-drop fabric with a sharded
/// home. Every barrier's critical path must name a straggler rank and a
/// slowest shard, the attributed segments must sum to the measured
/// latency exactly, and the fabric's retransmissions must be pinned to
/// links.
#[test]
fn faulty_sor_critical_paths_attribute_latency() {
    let sweeps = 4;
    let plan = FaultPlan::seeded(0xBEEF).drop(0.05);
    let recorder = Recorder::enabled();
    let builder = ClusterBuilder::new()
        .home(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .topology(TopologyConfig {
            shards: 2,
            ..Default::default()
        })
        .timing(TimingConfig {
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .net(NetConfig::instant().with_faults(plan))
        .obs(recorder.clone());
    let (outcome, verified) = Kernel::Sor { sweeps }
        .run(builder, 36, 0x50F)
        .expect("faulty sor cluster");
    assert!(verified);
    assert!(outcome.net_stats.dropped > 0, "fabric was not hostile");
    assert!(outcome.net_stats.retransmitted > 0);

    let events = recorder.events();
    assert_causal(&events);

    // Critical paths are the reader's to compute: the snapshot the
    // outcome carries holds tables only.
    let critpaths = recorder.critpaths();
    // SOR runs 2 colours × sweeps + 1 initial barrier = 9 episodes.
    let barriers: Vec<_> = critpaths
        .iter()
        .filter(|cp| cp.op.kind == OpKind::Barrier)
        .collect();
    assert_eq!(barriers.len(), 2 * sweeps + 1);
    for cp in &barriers {
        // Attribution: a named straggler rank, a named slowest shard, and
        // a segment chain that accounts for the whole latency. The sum is
        // exact by construction (clamped milestone walk), so no tolerance
        // is needed beyond the µs timer resolution the events carry.
        assert!(cp.straggler.is_some(), "{} has no straggler", cp.op);
        assert!(cp.slowest_shard.is_some(), "{} has no shard", cp.op);
        let sum: u64 = cp.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(
            sum, cp.latency_us,
            "{}: segments sum to {sum}µs, measured {}µs",
            cp.op, cp.latency_us
        );
        assert!(!cp.describe(2).is_empty());
    }
    // The plain-text rendering names the straggler as a worker rank.
    assert!(barriers
        .iter()
        .any(|cp| cp.describe(2).contains("straggler rank")));
    // The fabric retransmitted (asserted above); the analyzer must have
    // pinned at least one retransmission to a concrete link.
    let attributed: u64 = critpaths.iter().map(|cp| cp.retransmits).sum();
    assert!(attributed > 0, "no retransmit was attributed to any op");
    assert!(critpaths
        .iter()
        .any(|cp| cp.links.iter().any(|l| l.count > 0)));

    // The Chrome export carries flow arrows across rank tracks.
    let trace = chrome_trace(&events);
    assert!(trace.contains("\"cat\":\"flow\",\"ph\":\"s\""));
    assert!(trace.contains("\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\""));
}
