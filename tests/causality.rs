//! Causal tracing end-to-end: hybrid-logical-clock laws must survive a
//! hostile fabric, the critical-path analyzer must attribute every sync
//! op's latency exactly, and a disabled recorder must leave the message
//! envelope byte-for-byte identical to the untraced wire format.

use bytes::Bytes;
use hdsm::apps::sor;
use hdsm::dsd::cluster::{ClusterBuilder, FaultConfig, TimingConfig, TopologyConfig};
use hdsm::net::endpoint::Network;
use hdsm::net::message::MsgKind;
use hdsm::net::stats::NetConfig;
use hdsm::net::FaultPlan;
use hdsm::obs::{causal_order, check_happens_before, chrome_trace, EventKind, OpKind, Recorder};
use hdsm::platform::spec::PlatformSpec;
use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The HLC laws hold under arbitrary drop/duplicate/reorder plans:
    /// every rank's stamps are strictly monotone in recording order, and
    /// every delivered copy of a message carries a receive stamp strictly
    /// above its send stamp — even when the fabric delivered it twice or
    /// out of order.
    #[test]
    fn hlc_laws_survive_random_fault_plans(
        seed in any::<u64>(),
        drop_pm in 0u32..200,
        dup_pm in 0u32..200,
        reorder_pm in 0u32..200,
    ) {
        let plan = FaultPlan::seeded(seed)
            .drop(f64::from(drop_pm) / 1000.0)
            .duplicate(f64::from(dup_pm) / 1000.0)
            .reorder(f64::from(reorder_pm) / 1000.0);
        let recorder = Recorder::enabled();
        burst(Some(plan), &recorder, 3, 20);
        let events = recorder.events();
        prop_assert!(events.iter().any(|e| e.kind == EventKind::MsgRecv));
        let hb = check_happens_before(&events);
        prop_assert!(hb.is_ok(), "HLC law violated: {hb:?}");
    }
}

#[test]
fn clean_fabric_causal_order_is_delivery_order() {
    let recorder = Recorder::enabled();
    burst(None, &recorder, 3, 30);
    let events = recorder.events();
    check_happens_before(&events).expect("clean fabric is causally ordered");
    // On a clean fabric the causally sorted timeline must agree with the
    // observed delivery order: per rank, events stay in recording order,
    // and globally every send precedes its receive.
    let causal = causal_order(&events);
    for rank in 0..3u32 {
        let recorded: Vec<u64> = events
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| e.t_us)
            .collect();
        let sorted: Vec<u64> = causal
            .iter()
            .filter(|e| e.rank == rank)
            .map(|e| e.t_us)
            .collect();
        assert_eq!(recorded, sorted, "rank {rank} reordered by causal sort");
    }
    for (recv_pos, recv) in causal
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::MsgRecv)
    {
        let send_pos = causal
            .iter()
            .position(|e| e.kind == EventKind::MsgSend && e.flow == recv.flow)
            .expect("matched send");
        assert!(send_pos < recv_pos, "send sorted after its receive");
    }
}

/// With the recorder disabled the envelope must be byte-identical to the
/// untraced wire format: no trace context on any message, and the exact
/// same payload bytes on the wire as an enabled run of the same
/// deterministic workload.
#[test]
fn disabled_recorder_is_wire_format_differential() {
    let n = 24;
    let sweeps = 2;
    let seed = 0x11;
    let run = |recorder: Option<Recorder>| {
        let mut b = ClusterBuilder::new()
            .gthv(sor::gthv_def(n))
            .home(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .barriers(1);
        if let Some(r) = recorder {
            b = b.obs(r);
        }
        b.init(move |g| sor::init(g, n, seed))
            .run(move |c, info| sor::run_worker(c, info, n, sweeps))
            .expect("sor cluster")
    };
    let untraced = run(None);
    let traced = run(Some(Recorder::enabled()));
    assert!(sor::verify(&untraced.final_gthv, n, seed, sweeps));
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
    let n = 36;
    let sweeps = 4;
    let seed = 0x50F;
    let plan = FaultPlan::seeded(0xBEEF).drop(0.05);
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(sor::gthv_def(n))
        .home(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .barriers(1)
        .topology(TopologyConfig {
            shards: 2,
            ..Default::default()
        })
        .timing(TimingConfig {
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .faults(FaultConfig { plan: Some(plan) })
        .obs(recorder.clone())
        .init(move |g| sor::init(g, n, seed))
        .run(move |c, info| sor::run_worker(c, info, n, sweeps))
        .expect("faulty sor cluster");
    assert!(sor::verify(&outcome.final_gthv, n, seed, sweeps));
    assert!(outcome.net_stats.dropped > 0, "fabric was not hostile");
    assert!(outcome.net_stats.retransmitted > 0);

    let events = recorder.events();
    check_happens_before(&events).expect("faulty run still causally ordered");

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
