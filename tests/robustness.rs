//! Failure injection: malformed frames, protocol misuse, hostile inputs
//! and a deliberately faulty fabric (drops, duplicates, reorders,
//! partitions, crashed workers) must surface as errors or converge to
//! the correct state — never panics, hangs or corruption.

use bytes::Bytes;
use hdsm::dsd::client::DsdError;
use hdsm::dsd::cluster::{ClusterBuilder, ClusterCtl, ClusterError, TimingConfig, TopologyConfig};
use hdsm::dsd::gthv::GthvDef;
use hdsm::dsd::protocol::{DsdMsg, ProtocolError, Report};
use hdsm::dsd::{BarrierId, CondId, LockId, UpdateRange};
use hdsm::net::message::MsgKind;
use hdsm::net::{FabricMode, FaultPlan, NetConfig, NetStats};
use hdsm::platform::ctype::StructBuilder;
use hdsm::platform::scalar::ScalarKind;
use hdsm::platform::spec::PlatformSpec;
use hdsm::tags::wire::unpack_batch;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Shard count for the suite: CI runs it at `HDSM_SHARDS=1` and
/// `HDSM_SHARDS=3` so the whole failure-injection battery also holds
/// under a sharded home. Defaults to the classic single home.
fn shards_from_env() -> u32 {
    std::env::var("HDSM_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn tiny_def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 16)
            .build()
            .unwrap(),
    )
    .unwrap()
}

#[test]
fn random_bytes_never_panic_protocol_decode() {
    // Deterministic pseudo-random fuzz over every message kind, bare and
    // under both envelope shapes: every short length, then strided lengths past 4 KiB
    // so a wild length prefix has a frame big enough to look plausible.
    let mut seed = 0x12345678u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u8
    };
    // Must return Ok or Err — never panic, never over-allocate.
    let decode = |kind, buf: Bytes| {
        let _ = DsdMsg::decode(kind, buf.clone());
        let _ = DsdMsg::decode_request(kind, buf.clone(), false);
        let _ = DsdMsg::decode_request(kind, buf, true);
    };
    for len in (0..64usize).chain((64..=4200).step_by(47)) {
        for kind in MsgKind::ALL {
            decode(kind, (0..len).map(|_| next()).collect());
        }
    }
    // Structure-aware: every generated message's frame, bare and under
    // both envelopes, cut at every prefix, with each byte set to 0xFF and
    // with each aligned word set to u32::MAX.
    // A row read and a row held behind each request.
    let row = |entry, first, count| UpdateRange {
        entry,
        first,
        count,
    };
    let report = Report {
        interest: vec![row(7, u64::MAX - 1, 1)],
        held: vec![row(3, 400, 2)],
    };
    for m in DsdMsg::samples() {
        let kind = m.kind();
        let frames = [
            m.encode(),
            m.encode_enveloped(77),
            m.encode_request(77, Some(3), &report),
        ];
        for frame in frames {
            let jammed = |at: usize, width: usize| {
                let mut b = frame.to_vec();
                b[at..at + width].fill(0xFF);
                Bytes::from(b)
            };
            for at in 0..frame.len() {
                decode(kind, frame.slice(..at));
                decode(kind, jammed(at, 1));
            }
            for at in (0..frame.len() / 4).map(|word| 4 * word) {
                decode(kind, jammed(at, 4));
            }
        }
    }
}

/// Every length-prefixed decoder, fed its largest declarable count in
/// front of 16 bytes of body, must answer with a clean `Err` — never a
/// reservation sized by the prefix.
#[test]
fn wild_length_prefixes_are_rejected_before_allocating() {
    use bytes::{BufMut, BytesMut};
    use hdsm::dsd::baseline::unpack_raw;
    use hdsm::migthread::packfmt::{pack_state, unpack_state, StateImage};
    use hdsm::migthread::state::ThreadState;

    /// `head` followed by 16 zero bytes of body.
    fn frame(head: &[u8]) -> Bytes {
        let mut b = BytesMut::from(head);
        b.put_slice(&[0u8; 16]);
        b.freeze()
    }
    // The largest count a varint count field declares, and the largest
    // fixed-width one the retired formats and the migration image read.
    let max_varint = [0xff, 0xff, 0xff, 0xff, 0x0f];
    let max = u32::MAX.to_be_bytes();

    // DsdMsg::decode, every kind that carries a count: the EntryMoved row
    // table directly, the update carriers through their embedded batch.
    assert_eq!(
        DsdMsg::decode(MsgKind::EntryMoved, frame(&max_varint)),
        Err(ProtocolError::Truncated)
    );
    // A fetch declares its ranges; the rows behind any body are counted
    // by what is left of the frame, never declared.
    let wild_fetch = [&[5][..], &max_varint].concat();
    assert_eq!(
        DsdMsg::decode(MsgKind::RangeFetch, frame(&wild_fetch)),
        Err(ProtocolError::Truncated)
    );
    // A count just below the retired `u32::MAX` marker (what opened a
    // batch of the count-prefixed format) is no header; a batch declares
    // groups, and a run group declares runs.
    let below_marker = (u32::MAX - 1).to_be_bytes().to_vec();
    let marker = 0xd5;
    let groups = [&[marker][..], &max_varint].concat();
    let mut runs = BytesMut::new();
    runs.put_u8(marker);
    runs.put_u8(1); // one group
    runs.put_u8(0x04); // shape: little-endian data, 4-byte elements
    runs.put_u8(0); // entry
    runs.put_slice(&max_varint); // runs
    for batch in [&below_marker[..], &groups[..], &runs[..]] {
        assert!(unpack_batch(frame(batch)).is_err());
        for (kind, ids) in [
            (MsgKind::LockGrant, 1),
            (MsgKind::UnlockRequest, 2),
            (MsgKind::BarrierEnter, 2),
            (MsgKind::BarrierRelease, 1),
            (MsgKind::CondWait, 3),
            (MsgKind::UpdateFlush, 1),
            (MsgKind::UpdateBatch, 0),
        ] {
            let body = [&vec![0u8; ids][..], batch].concat();
            assert!(
                matches!(
                    DsdMsg::decode(kind, frame(&body)),
                    Err(ProtocolError::Wire(_))
                ),
                "{kind:?}"
            );
        }
    }

    // Migration image: block table, then link table. An empty state's
    // image ends in the two zero counts.
    let declared = ThreadState::new("p");
    let empty = pack_state(&declared).bytes;
    for keep in [empty.len() - 8, empty.len() - 4] {
        let image = StateImage {
            bytes: frame(&[&empty[..keep], &max[..]].concat()),
        };
        assert!(unpack_state(&image, &PlatformSpec::linux_x86(), &declared).is_err());
    }

    // Baseline page-DSM diffs.
    assert!(unpack_raw(frame(&max)).is_err());
}

#[test]
fn random_bytes_never_panic_batch_decode() {
    let mut seed = 0xdeadbeefu64;
    let mut next = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as u8
    };
    for len in 0..256usize {
        let buf: Vec<u8> = (0..len).map(|_| next()).collect();
        let _ = unpack_batch(Bytes::from(buf));
    }
}

#[test]
fn home_rejects_double_lock_release() {
    // A thread releasing a lock twice is a protocol violation, reported
    // not deadlocked.
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .timing(TimingConfig {
            recv_deadline: Some(Duration::from_millis(500)),
            ..Default::default()
        })
        .run(|c, _| {
            c.acquire(LockId::new(0))?;
            c.release(LockId::new(0))?;
            c.release(LockId::new(0))?; // violation
            Ok(())
        })
        .unwrap_err();
    match err {
        ClusterError::Home(_) | ClusterError::Worker { .. } => {}
        other => panic!("unexpected {other}"),
    }
}

#[test]
fn home_rejects_unknown_lock_index() {
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .timing(TimingConfig {
            recv_deadline: Some(Duration::from_millis(500)),
            ..Default::default()
        })
        .run(|c, _| {
            c.acquire(LockId::new(7))?; // only lock 0 exists
            Ok(())
        })
        .unwrap_err();
    match err {
        ClusterError::Home(_) | ClusterError::Worker { .. } => {}
        other => panic!("unexpected {other}"),
    }
}

/// A frame a home or a client cannot decode is dropped and counted, not
/// fatal. Mid-run, a control script sends shard 0 a truncated `LockRequest`
/// and a frame of kind `Other` in thread rank 1's name, and sends rank 1,
/// while it pauses, a truncated `LockGrant` and a frame of kind `Other` in
/// shard 0's name; the run completes with the bytes of a run that was sent
/// none.
#[test]
fn undecodable_frames_are_dropped_and_counted_at_homes_and_clients() {
    use hdsm::dsd::Directory;
    let shards = shards_from_env();
    let run = |bad_frames: bool| {
        let recorder = hdsm::obs::Recorder::enabled();
        let mut b = ClusterBuilder::new()
            .gthv(two_entry_def())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::solaris_sparc())
            .locks(2)
            .barriers(2)
            .topology(TopologyConfig {
                shards,
                fabric: FabricMode::Sim { seed: 0xBAD },
                ..Default::default()
            })
            .timing(TimingConfig {
                recv_deadline: Some(Duration::from_secs(30)),
                ..Default::default()
            })
            .obs(recorder.clone());
        if bad_frames {
            b = b.control(move |ctl| {
                // Worker 0, thread rank 1, pauses 250 ms after the first
                // barrier.
                ctl.sleep(Duration::from_millis(100));
                let (net, worker) = (ctl.network(), Directory::new(shards).worker_ep(1));
                let lock = DsdMsg::LockRequest { lock: 0, rank: 1 }.encode_request(
                    1,
                    None,
                    &Report::default(),
                );
                let grant = DsdMsg::LockGrant {
                    lock: 0,
                    updates: Default::default(),
                    notices: vec![],
                }
                .encode_enveloped(1);
                let other = Bytes::from_static(&[0; 16]);
                for (src, dst, kind, frame) in [
                    (
                        worker,
                        0,
                        MsgKind::LockRequest,
                        lock.slice(..lock.len() - 1),
                    ),
                    (worker, 0, MsgKind::Other, other.clone()),
                    (
                        0,
                        worker,
                        MsgKind::LockGrant,
                        grant.slice(..grant.len() - 1),
                    ),
                    (0, worker, MsgKind::Other, other),
                ] {
                    net.send_as(src, dst, kind, frame).unwrap();
                }
            });
        }
        let outcome = b
            .run(failover_workload)
            .expect("bad frames must not end the run");
        let counters = (0..2).map(|e| outcome.final_gthv.read_int(e, 0).unwrap());
        assert_eq!(counters.collect::<Vec<_>>(), [40, 40]);
        let bytes = outcome.final_gthv.space().raw().to_vec();
        let dropped = ["home.bad_frames", "client.bad_frames"].map(|c| counter(&recorder, c));
        (bytes, dropped)
    };
    let (clean, none) = run(false);
    let (bytes, dropped) = run(true);
    assert_eq!((none, dropped), ([0, 0], [2, 2]));
    assert_eq!(bytes, clean);
}

#[test]
fn worker_body_error_does_not_hang_the_cluster() {
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .timing(TimingConfig {
            recv_deadline: Some(Duration::from_secs(2)),
            ..Default::default()
        })
        .run(|c, info| {
            if info.index == 0 {
                // This worker fails early with an app-level error …
                return Err(hdsm::dsd::client::DsdError::Unexpected("app failure"));
            }
            // … while the other does real work; the run must still end.
            c.acquire(LockId::new(0))?;
            c.write_int(0, 0, 1)?;
            c.release(LockId::new(0))?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, ClusterError::Worker { index: 0, .. }));
}

#[test]
fn a_worker_that_panics_ends_the_run_on_either_fabric() {
    // Worker 2 panics after the first barrier: its beats must stop, so the
    // home's lease ends worker 1's wait with `WorkerLost`, and the run
    // reports the panic. A thread of its own bounds the wait: a run that
    // hangs fails the test instead of hanging it.
    for fabric in [FabricMode::Threads, FabricMode::Sim { seed: 0x9A1C }] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let b = BarrierId::new(0);
            let run = ClusterBuilder::new()
                .gthv(tiny_def())
                .worker(PlatformSpec::linux_x86())
                .worker(PlatformSpec::solaris_sparc())
                .barriers(1)
                .topology(TopologyConfig {
                    fabric,
                    ..Default::default()
                })
                .timing(TimingConfig {
                    lease: Some(Duration::from_millis(200)),
                    retry_base: Some(Duration::from_millis(25)),
                    recv_deadline: Some(Duration::from_secs(10)),
                    ..Default::default()
                })
                .run(move |c, info| {
                    c.barrier(b)?;
                    if info.index == 1 {
                        panic!("worker 2 panics after the first barrier");
                    }
                    c.barrier(b)
                });
            let _ = tx.send(run.map(drop));
        });
        let run = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("{fabric:?}: a panicked worker hung the run"));
        assert!(
            matches!(run, Err(ClusterError::Panic(_))),
            "{fabric:?}: expected the panic, got {run:?}"
        );
    }
}

#[test]
fn out_of_range_data_access_is_an_error_not_a_panic() {
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .run(|c, _| {
            assert!(c.read_int(0, 99).is_err());
            assert!(c.read_int(5, 0).is_err());
            assert!(c.write_int(0, 16, 0).is_err());
            assert!(c.write_int(0, 0, 1i128 << 60).is_err()); // overflow
            Ok(())
        })
        .unwrap();
    drop(outcome);
}

/// Stores made before an acquire — before the first one, or inside an
/// outer critical section — survive it: the acquire's incoming updates go
/// into page and twin alike and leave dirty marks alone, so the next
/// release still ships them. (It used to end in a re-protect that dropped
/// every twin: `xs[3]` below never reached the home.)
#[test]
fn nested_acquire_keeps_the_outer_sections_writes() {
    let (l0, l1) = (LockId::new(0), LockId::new(1));
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .home(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(2)
        .barriers(1)
        .topology(TopologyConfig {
            shards: shards_from_env(),
            ..Default::default()
        })
        .init(|g| {
            for i in 0..16 {
                g.write_int(0, i, 500 + i as i128).unwrap();
            }
        })
        .run(move |c, info| {
            if info.index == 0 {
                // Caught like a store between `mprotect` and the first
                // lock: it meets the initial pull and wins its element.
                c.write_int(0, 1, 11)?;
                c.acquire(l0)?;
                assert_eq!(c.read_int(0, 1)?, 11);
                assert_eq!(c.read_int(0, 2)?, 502, "the pull fills in the rest");
                c.write_int(0, 3, 77)?;
                c.acquire(l1)?;
                assert_eq!(c.read_int(0, 3)?, 77);
                c.write_int(0, 4, 88)?;
                c.release(l1)?;
                c.release(l0)?;
            }
            c.barrier(BarrierId::new(0))?;
            if info.index == 1 {
                let mut xs = [0; 5];
                c.read_ints(0, 0, &mut xs)?;
                assert_eq!(xs, [500, 11, 502, 77, 88]);
            }
            Ok(())
        })
        .expect("nested sections");
    let got: Vec<i128> = (0..5)
        .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
        .collect();
    assert_eq!(got, [500, 11, 502, 77, 88]);
}

#[test]
fn protocol_error_display_is_informative() {
    let e = ProtocolError::BadMessage("x");
    assert!(format!("{e}").contains("bad message"));
}

#[test]
fn migration_image_from_wrong_program_rejected_cleanly() {
    use hdsm::migthread::compute::ProgramRegistry;
    use hdsm::migthread::packfmt::{pack_state, MigrateError};
    use hdsm::migthread::state::ThreadState;

    let st = ThreadState::new("imposter");
    let image = pack_state(&st);
    let reg: ProgramRegistry<()> = ProgramRegistry::new();
    assert!(matches!(
        reg.restore(&image, PlatformSpec::linux_x86()),
        Err(MigrateError::UnknownProgram(_))
    ));
}

/// Run a fixed two-worker workload (lock-serialized counter increments,
/// then disjoint stripe writes shipped by a barrier) and return the
/// final authoritative bytes plus traffic stats.
fn run_convergence_workload(plan: Option<FaultPlan>) -> (Vec<u8>, i128, NetStats) {
    let mut b = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            shards: shards_from_env(),
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_secs(5)),
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        });
    if let Some(p) = plan {
        b = b.net(NetConfig::instant().with_faults(p));
    }
    let outcome = b
        .run(|c, info| {
            for _ in 0..20 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            c.barrier(BarrierId::new(0))?;
            // Disjoint stripes: worker 0 → xs[1..8], worker 1 → xs[8..15].
            let base = 1 + info.index as u64 * 7;
            for i in base..base + 7 {
                c.write_int(0, i, i as i128 * 3 + 1)?;
            }
            c.barrier(BarrierId::new(0))?; // ships the stripes
            Ok(())
        })
        .expect("workload completes despite faults");
    let counter = outcome.final_gthv.read_int(0, 0).unwrap();
    (
        outcome.final_gthv.space().raw().to_vec(),
        counter,
        outcome.net_stats,
    )
}

#[test]
fn chaos_five_percent_faults_converge_to_fault_free_state() {
    let (clean_bytes, clean_counter, clean_stats) = run_convergence_workload(None);
    assert_eq!(clean_counter, 40);
    assert_eq!(clean_stats.total_faults(), 0);

    let plan = FaultPlan::seeded(0xC4A05)
        .drop(0.05)
        .duplicate(0.05)
        .reorder(0.05);
    let (faulty_bytes, faulty_counter, s) = run_convergence_workload(Some(plan));
    assert_eq!(faulty_counter, 40, "increments survived the faulty fabric");
    assert_eq!(
        faulty_bytes, clean_bytes,
        "authoritative GThV must be byte-identical to the fault-free run"
    );
    // The fabric really was hostile, and the reliability layer really
    // worked: fault and retransmission counters are visible in NetStats.
    assert!(s.dropped > 0, "expected drops, got {s:?}");
    assert!(s.duplicated > 0, "expected duplicates, got {s:?}");
    assert!(s.reordered > 0, "expected reorders, got {s:?}");
    assert!(s.retransmitted > 0, "expected retransmissions, got {s:?}");
    assert!(s.report().contains("faults:"));
}

#[test]
fn chaos_run_is_fully_observable() {
    use hdsm::obs::{EventKind, Recorder};
    // Same convergence workload as above, but with an enabled recorder
    // wired through the cluster: the reliability layer's work (drops and
    // the retransmissions that heal them) must be visible as events, and
    // the retransmit counter must agree exactly with NetStats.
    let recorder = Recorder::enabled();
    let plan = FaultPlan::seeded(0xC4A05)
        .drop(0.05)
        .duplicate(0.05)
        .reorder(0.05);
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            shards: shards_from_env(),
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_secs(5)),
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .net(NetConfig::instant().with_faults(plan))
        .obs(recorder.clone())
        .run(|c, _info| {
            for _ in 0..20 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .expect("workload completes despite faults");
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 40);

    let events = recorder.events();
    let s = &outcome.net_stats;
    assert!(s.retransmitted > 0, "fabric was not hostile enough: {s:?}");
    assert!(
        events.iter().any(|e| e.kind == EventKind::Retransmit),
        "client retransmissions must surface as events"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::FaultDrop),
        "injected drops must surface as events"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::LockWait),
        "lock waits must surface as spans"
    );

    // The retransmit counter mirrors NetStats.
    let snap = outcome.obs.expect("recorder was enabled");
    let retries = snap
        .counters
        .iter()
        .find(|(k, _)| k == "net.retransmits")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(retries, s.retransmitted);
    // And the Chrome export of a chaos run is loadable JSON with content.
    let trace = hdsm::obs::chrome_trace(&events, recorder.homes());
    assert!(trace.starts_with('[') && trace.ends_with(']'));
    assert!(trace.contains("\"retransmit\""));
}

#[test]
fn chaos_lease_expiry_is_observable() {
    use hdsm::obs::{EventKind, Recorder};
    let recorder = Recorder::enabled();
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .barriers(1)
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .run(|c, info| {
            if info.index == 1 {
                std::thread::sleep(Duration::from_millis(100));
                return Err(DsdError::Crashed);
            }
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, ClusterError::WorkerLost { rank: 2, .. }));
    // The failed run left no ClusterOutcome, but the recorder outlives it:
    // the home's lease expiry for rank 2 is on the record.
    let expiry = recorder
        .events()
        .into_iter()
        .find(|e| e.kind == EventKind::LeaseExpired)
        .expect("lease expiry must surface as an event");
    assert_eq!(expiry.rank, 0, "the home (rank 0) declares the death");
    assert_eq!(expiry.arg0, 2, "the dead worker's rank is the argument");
    let snap = recorder.snapshot().unwrap();
    assert!(snap
        .counters
        .iter()
        .any(|(k, v)| k == "home.leases_expired" && *v == 1));
}

#[test]
fn chaos_worker_crash_mid_barrier_returns_worker_lost_not_hang() {
    let t0 = Instant::now();
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .barriers(1)
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .run(|c, info| {
            if info.index == 1 {
                // Crash without signing off: heartbeats stop, the home's
                // lease detector must notice the silence.
                std::thread::sleep(Duration::from_millis(100));
                return Err(DsdError::Crashed);
            }
            c.barrier(BarrierId::new(0))?; // blocks on the crashed worker
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { rank: 2, .. }),
        "expected WorkerLost {{ rank: 2 }}, got {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "failure detection took {:?} — the barrier hung",
        t0.elapsed()
    );
}

#[test]
fn chaos_crashed_worker_lock_is_reclaimed() {
    // The crashed worker dies *holding the lock*; the home must reclaim
    // it and grant the waiting survivor instead of deadlocking.
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .topology(TopologyConfig {
            shards: shards_from_env(),
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .run(|c, info| {
            if info.index == 1 {
                c.acquire(LockId::new(0))?;
                return Err(DsdError::Crashed); // die holding the lock
            }
            std::thread::sleep(Duration::from_millis(150));
            c.acquire(LockId::new(0))?; // queued behind the crashed holder
            c.write_int(0, 1, 11)?;
            c.release(LockId::new(0))?;
            Ok(())
        })
        .unwrap_err();
    // The survivor finishes its critical section; the run still reports
    // the dead worker as the outcome.
    assert!(
        matches!(err, ClusterError::WorkerLost { rank: 2, .. }),
        "expected WorkerLost {{ rank: 2 }}, got {err}"
    );
}

#[test]
fn chaos_partitioned_worker_declared_dead_after_heal() {
    let t0 = Instant::now();
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(300)),
            retry_base: Some(Duration::from_millis(50)),
            recv_deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .run(|c, info| {
            if info.index == 0 {
                // Cut this worker (endpoint rank 1) off from the home
                // (rank 0): requests, replies and heartbeats all drop.
                c.network().partition(1, 0);
                std::thread::sleep(Duration::from_millis(100));
                // Retransmits into the void until the partition heals;
                // by then the home has declared us dead.
                return match c.acquire(LockId::new(0)) {
                    Err(e) => Err(e),
                    Ok(()) => panic!("lock granted through a partition"),
                };
            }
            // The other worker heals the fabric after the lease expired.
            std::thread::sleep(Duration::from_millis(700));
            c.network().heal();
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { rank: 1, .. }),
        "expected WorkerLost {{ rank: 1 }}, got {err}"
    );
    assert!(t0.elapsed() < Duration::from_secs(15));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// Seeded random fault plans: the run either converges to exactly
    /// the right state or fails with a clean, reportable error — and
    /// never hangs past its deadline budget.
    #[test]
    fn chaos_random_fault_plans_never_hang_or_corrupt(
        seed in any::<u64>(),
        drop_pm in 0u32..60,
        dup_pm in 0u32..60,
        reorder_pm in 0u32..60,
    ) {
        let plan = FaultPlan::seeded(seed)
            .drop(f64::from(drop_pm) / 1000.0)
            .duplicate(f64::from(dup_pm) / 1000.0)
            .reorder(f64::from(reorder_pm) / 1000.0);
        let t0 = Instant::now();
        let result = ClusterBuilder::new()
            .gthv(tiny_def())
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86_64())
            .locks(1)
            .barriers(1)
            .topology(TopologyConfig { shards: shards_from_env(), ..Default::default() })
        .timing(TimingConfig { lease: Some(Duration::from_secs(5)), retry_base: Some(Duration::from_millis(10)), recv_deadline: Some(Duration::from_secs(20)), ..Default::default() })
        .net(NetConfig::instant().with_faults(plan))
            .run(|c, _| {
                for _ in 0..5 {
                    c.acquire(LockId::new(0))?;
                    let v = c.read_int(0, 0)?;
                    c.write_int(0, 0, v + 1)?;
                    c.release(LockId::new(0))?;
                }
                c.barrier(BarrierId::new(0))?;
                Ok(())
            });
        prop_assert!(t0.elapsed() < Duration::from_secs(60), "run hung");
        match result {
            Ok(outcome) => {
                let counter = outcome.final_gthv.read_int(0, 0).unwrap();
                prop_assert_eq!(counter, 10);
            }
            Err(e) => {
                // A clean error is acceptable under arbitrary faults —
                // but it must be reportable, not a panic or a hang.
                let _ = format!("{e}");
            }
        }
    }
}

#[test]
fn corrupted_migration_images_rejected() {
    use hdsm::migthread::packfmt::{pack_state, parse_image, StateImage};
    use hdsm::migthread::state::{ThreadState, TypedBlock};
    use hdsm::platform::ctype::CType;

    let mut st = ThreadState::new("p");
    st.push_block(
        "MThV",
        TypedBlock::zeroed(CType::Scalar(ScalarKind::Int), PlatformSpec::linux_x86()),
    );
    let image = pack_state(&st);
    // Flip every single byte; parsing must never panic and (except for
    // byte flips in the data payload) generally fails.
    for i in 0..image.bytes.len() {
        let mut corrupted = image.bytes.to_vec();
        corrupted[i] ^= 0xff;
        let _ = parse_image(&StateImage {
            bytes: Bytes::from(corrupted),
        });
    }
}

#[test]
fn chaos_shard_worker_loss_reclaims_only_that_shards_locks() {
    // Two home shards: lock 0 homes on shard 0, lock 1 on shard 1. A
    // worker dies holding shard 0's lock. Every shard's lease detector
    // declares the silence independently, but failure domains are
    // per-shard: only shard 0 has anything to reclaim, and the
    // survivor's hold on shard 1's lock rides straight through the
    // expiry — it can still write under it and release it normally
    // while re-acquiring the reclaimed lock from shard 0.
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(2)
        .topology(TopologyConfig {
            shards: 2,
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .run(|c, info| {
            if info.index == 1 {
                c.acquire(LockId::new(0))?;
                return Err(DsdError::Crashed); // die holding shard 0's lock
            }
            // Survivor: take shard 1's lock before the crash is declared
            // and hold it across the lease expiry.
            c.acquire(LockId::new(1))?;
            std::thread::sleep(Duration::from_millis(700));
            c.acquire(LockId::new(0))?; // reclaimed by shard 0's detector
            c.write_int(0, 1, 11)?;
            c.release(LockId::new(0))?;
            // Still inside shard 1's critical section: the expiry on
            // shard 0 must not have touched this lock.
            c.write_int(0, 2, 22)?;
            c.release(LockId::new(1))?;
            Ok(())
        })
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { rank: 2, .. }),
        "expected WorkerLost {{ rank: 2 }}, got {err}"
    );
}

#[test]
fn cond_paired_with_a_lock_on_another_shard_is_rejected() {
    // MTh_cond_wait atomically releases a mutex and parks on the cond's
    // home shard; that atomicity only exists when both live on the same
    // shard. The client rejects a cross-shard pairing locally, before
    // anything reaches the wire.
    let err = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .locks(2)
        .conds(2)
        .topology(TopologyConfig {
            shards: 2,
            ..Default::default()
        })
        .timing(TimingConfig {
            recv_deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        })
        .run(|c, _| {
            c.acquire(LockId::new(0))?;
            // cond 1 homes on shard 1, lock 0 on shard 0.
            c.cond_wait(CondId::new(1), LockId::new(0))?;
            Ok(())
        })
        .unwrap_err();
    match err {
        ClusterError::Worker {
            error: DsdError::ShardMismatch { cond: 1, lock: 0 },
            ..
        } => {}
        other => panic!("expected ShardMismatch, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// Failover battery: replicated home shards (replicas = 1).
//
// Every shard runs a warm standby fed by the primary's replication relay.
// Killing a primary mid-run must be survivable: clients re-resolve to the
// promoted replica, replay their in-flight requests (dedup-protected), and
// the run converges to the exact fault-free bytes. A partition of the
// replication link must promote the standby *without* double-granting: the
// primary self-fences at ¾ of the lease, before the replica promotes at a
// full lease. A live handoff drains a healthy primary into its standby with
// zero failed client operations.
// ---------------------------------------------------------------------------

use hdsm::apps::workload::SyncMode;
use hdsm::apps::Kernel;
use hdsm::dsd::client::DsdClient;
use hdsm::dsd::cluster::WorkerInfo;
use hdsm::dsd::ShardId;

/// Two entries so that with `shards(2)` both shards own data: `xs` homes
/// on shard 0, `ys` on shard 1 (as do lock/barrier 0 and 1 respectively).
fn two_entry_def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, 16)
            .array("ys", ScalarKind::Int, 16)
            .build()
            .unwrap(),
    )
    .unwrap()
}

/// Fixed two-worker workload for the failover battery: lock-serialized
/// increments of one counter per shard, a barrier, a pause that lets the
/// control script inject its fault mid-run, more increments (these ride
/// through the failover), then disjoint stripe writes shipped by a final
/// barrier.
fn failover_workload(c: &mut DsdClient, info: &WorkerInfo) -> Result<(), DsdError> {
    for _ in 0..10 {
        for lock in 0..2u32 {
            c.acquire(LockId::new(lock))?;
            let v = c.read_int(lock, 0)?;
            c.write_int(lock, 0, v + 1)?;
            c.release(LockId::new(lock))?;
        }
    }
    c.barrier(BarrierId::new(0))?;
    if info.index == 0 {
        // Keep the run alive across the injected failure while the other
        // worker's lock traffic drives the failover machinery. On the
        // fabric clock, so the pause is virtual time in simulation mode.
        c.network().clock().sleep(Duration::from_millis(250));
    }
    for _ in 0..10 {
        for lock in 0..2u32 {
            c.acquire(LockId::new(lock))?;
            let v = c.read_int(lock, 0)?;
            c.write_int(lock, 0, v + 1)?;
            c.release(LockId::new(lock))?;
        }
    }
    c.barrier(BarrierId::new(1))?;
    // Disjoint stripes: worker 0 → [1..8), worker 1 → [8..15), both entries.
    let base = 1 + info.index as u64 * 7;
    for i in base..base + 7 {
        c.write_int(0, i, i as i128 * 3 + 1)?;
        c.write_int(1, i, i as i128 * 5 + 2)?;
    }
    c.barrier(BarrierId::new(0))?;
    Ok(())
}

/// Run [`failover_workload`] on a two-shard cluster with `replicas`
/// standbys on `fabric`; optionally kill one shard's primary
/// `kill_after` ms of fabric time in. Returns the final authoritative
/// bytes and both counters.
fn run_failover_convergence(
    fabric: FabricMode,
    replicas: u32,
    kill: Option<(u32, u64)>,
    plan: Option<FaultPlan>,
) -> (Vec<u8>, i128, i128) {
    let mut b = ClusterBuilder::new()
        .gthv(two_entry_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(2)
        .barriers(2)
        .topology(TopologyConfig {
            shards: 2,
            replicas,
            fabric,
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        });
    if let Some(p) = plan {
        b = b.net(NetConfig::instant().with_faults(p));
    }
    // CI soak runs set this so a failing seed also leaves black-box
    // bundles (worker-lost, lease-expired, view-change) next to the
    // seed reproducer.
    if let Ok(dir) = std::env::var("HDSM_SOAK_BLACKBOX") {
        b = b.obs(hdsm::obs::Recorder::enabled()).flight_recorder(dir);
    }
    if let Some((shard, after_ms)) = kill {
        b = b.control(move |ctl| {
            ctl.sleep(Duration::from_millis(after_ms));
            ctl.kill_shard(ShardId::new(shard));
        });
    }
    let outcome = b
        .run(failover_workload)
        .expect("workload completes despite the injected failure");
    let xs = outcome.final_gthv.read_int(0, 0).unwrap();
    let ys = outcome.final_gthv.read_int(1, 0).unwrap();
    (outcome.final_gthv.space().raw().to_vec(), xs, ys)
}

#[test]
fn replicated_clean_run_is_byte_identical_to_unreplicated() {
    // Replication is pure redundancy: with nothing failing, the final
    // authoritative state must not depend on whether standbys shadowed
    // the run.
    let (plain, a0, b0) = run_failover_convergence(FabricMode::Threads, 0, None, None);
    let (replicated, a1, b1) = run_failover_convergence(FabricMode::Threads, 1, None, None);
    assert_eq!((a0, b0), (40, 40));
    assert_eq!((a1, b1), (40, 40));
    assert_eq!(replicated, plain);
}

/// Kill either shard's primary 100 ms into [`failover_workload`], on a
/// clean and on a faulty fabric: every increment survives and the final
/// bytes equal the fault-free run's.
fn assert_kill_either_shard_converges(fabric: FabricMode) {
    let (clean, _, _) = run_failover_convergence(fabric, 0, None, None);
    let faulty = || {
        FaultPlan::seeded(0xFA11)
            .drop(0.02)
            .duplicate(0.02)
            .reorder(0.02)
    };
    for shard in [0u32, 1] {
        for (p, plan) in [None, Some(faulty())].into_iter().enumerate() {
            let (bytes, xs, ys) = run_failover_convergence(fabric, 1, Some((shard, 100)), plan);
            assert_eq!(
                (xs, ys),
                (40, 40),
                "increments lost killing shard {shard} on plan {p}"
            );
            assert_eq!(
                bytes, clean,
                "killing shard {shard} on plan {p} diverged from the fault-free run"
            );
        }
    }
}

#[test]
fn failover_kill_either_shard_converges_to_fault_free_bytes() {
    // On the deterministic fabric the kill, the worker pacing and every
    // lease and retransmit timer ride the virtual clock, so the verdict
    // does not depend on how the host schedules seven threads.
    assert_kill_either_shard_converges(FabricMode::Sim { seed: 0xFA11 });
}

/// The same battery on OS threads and the wall clock. Times out
/// (`Net(Timeout)`) about 1 run in 12 on a 2-core host, so it runs in the
/// non-blocking chaos-soak CI job (`-- --ignored soak_`), not in tier-1.
#[test]
#[ignore = "wall-clock failover battery: run with --ignored"]
fn soak_failover_kill_either_shard_on_wall_clock() {
    assert_kill_either_shard_converges(FabricMode::Threads);
}

#[test]
fn a_standby_beats_its_primary_once_a_tick_not_once_a_relayed_frame() {
    // The standby's beat tells the primary it is still there; once a tick
    // (10 ms without a lease) says so, however many frames the relay
    // stream carries. A 3-worker × 200-op lock run relays some 1 200.
    let recorder = hdsm::obs::Recorder::enabled();
    let mut b = ClusterBuilder::new()
        .gthv(tiny_def())
        .locks(1)
        .topology(TopologyConfig {
            shards: 1,
            replicas: 1,
            fabric: FabricMode::Sim { seed: 7 },
        })
        .obs(recorder.clone());
    for _ in 0..3 {
        b = b.worker(PlatformSpec::linux_x86());
    }
    let outcome = b
        .run(|c, _| {
            for _ in 0..200 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            Ok(())
        })
        .expect("the lock run completes");
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 600);
    let sent = |kind| outcome.net_stats.messages.get(&kind).copied().unwrap_or(0);
    assert!(sent(MsgKind::Replicate) > 1_000, "the relay stream ran");
    let ticks = recorder.snapshot().expect("armed").wall_us / 10_000;
    let beats = sent(MsgKind::ReplicaBeat);
    assert!(beats <= ticks + 1, "{beats} beats in {ticks} ticks");
}

#[test]
fn failover_kill_mid_barrier_releases_from_promoted_replica() {
    use hdsm::obs::{EventKind, Recorder};
    // Worker 0 parks inside the barrier on the doomed primary; its entry
    // (and pre-barrier writes) reach the standby through the replication
    // relay before the kill. Worker 1 arrives after the promotion, at the
    // replica — which must complete the barrier from replicated state.
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .barriers(1)
        .topology(TopologyConfig {
            shards: 1,
            replicas: 1,
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .control(|ctl| {
            std::thread::sleep(Duration::from_millis(150));
            ctl.kill_shard(ShardId::new(0));
        })
        .run(|c, info| {
            c.write_int(0, 1 + info.index as u64, 7 + info.index as i128)?;
            if info.index == 1 {
                std::thread::sleep(Duration::from_millis(500));
            }
            c.barrier(BarrierId::new(0))?;
            // The release carries the merged pre-barrier writes of both
            // workers — including the one absorbed only via the relay.
            assert_eq!(c.read_int(0, 1)?, 7);
            assert_eq!(c.read_int(0, 2)?, 8);
            Ok(())
        })
        .expect("barrier must release from the promoted replica");
    assert_eq!(outcome.final_gthv.read_int(0, 1).unwrap(), 7);
    assert_eq!(outcome.final_gthv.read_int(0, 2).unwrap(), 8);
    let events = recorder.events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::ShardKill),
        "the kill must surface as an event"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Promote && e.arg0 == 0 && e.arg1 == 1),
        "the standby's promotion to epoch 1 must surface as an event"
    );
}

#[test]
fn failover_kill_mid_lock_hold_preserves_mutual_exclusion() {
    // Worker 1 holds the lock across the primary's death and releases it
    // at the promoted replica; worker 0's queued acquire — absorbed by the
    // dead primary and replicated — must be granted there, exactly once.
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .topology(TopologyConfig {
            shards: 1,
            replicas: 1,
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .control(|ctl| {
            std::thread::sleep(Duration::from_millis(150));
            ctl.kill_shard(ShardId::new(0));
        })
        .run(|c, info| {
            if info.index == 1 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                std::thread::sleep(Duration::from_millis(400)); // die-hard hold
                c.release(LockId::new(0))?;
            } else {
                std::thread::sleep(Duration::from_millis(50));
                c.acquire(LockId::new(0))?; // queued behind the holder
                let v = c.read_int(0, 0)?;
                assert_eq!(v, 1, "the hold's write must be visible at the grant");
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            Ok(())
        })
        .expect("lock continuity across the failover");
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 2);
}

#[test]
fn failover_partition_promotes_replica_and_fences_deposed_primary() {
    use hdsm::obs::{EventKind, Recorder};
    // Sever the replication link instead of killing anyone. The primary
    // self-fences after ¾ of a lease of standby silence — strictly before
    // the replica promotes at a full lease — so there is never a moment
    // with two shards granting. Clients bounced off the fenced primary
    // with a ViewChange re-resolve to the promoted replica; after the
    // heal, the deposed primary stays fenced (stale epoch, no grants).
    //
    // Workers stay quiet across the window: relays in flight when the
    // link is cut are lost until the primary fences (DESIGN.md §14), so
    // the chaos here is silence, not traffic.
    let recorder = Recorder::enabled();
    let cut = std::sync::Arc::new(std::sync::Mutex::new(Duration::ZERO));
    let cut_len = cut.clone();
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(1)
        .topology(TopologyConfig {
            shards: 1,
            replicas: 1,
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .control(move |ctl| {
            std::thread::sleep(Duration::from_millis(200));
            let start = Instant::now();
            ctl.partition_replication(ShardId::new(0));
            std::thread::sleep(Duration::from_millis(700));
            ctl.heal();
            *cut_len.lock().unwrap() = start.elapsed();
        })
        .run(|c, _| {
            for _ in 0..5 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            std::thread::sleep(Duration::from_millis(1100));
            for _ in 0..5 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            Ok(())
        })
        .expect("run completes at the promoted replica");
    // Exactly 20 serialized increments: a double-grant (primary and
    // replica both handing out the lock) would lose updates.
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 20);
    let events = recorder.events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Fence && e.arg0 == 0),
        "the primary's self-fence must surface as an event"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Promote && e.arg0 == 0 && e.arg1 == 1),
        "the standby's promotion must surface as an event"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::FirstGrant),
        "the first post-promotion grant must surface as an event"
    );
    // Fence strictly precedes promotion: the no-double-grant invariant.
    let fence_t = events
        .iter()
        .filter(|e| e.kind == EventKind::Fence)
        .map(|e| e.t_us)
        .min()
        .unwrap();
    let promote_t = events
        .iter()
        .filter(|e| e.kind == EventKind::Promote)
        .map(|e| e.t_us)
        .min()
        .unwrap();
    assert!(
        fence_t < promote_t,
        "primary fenced at {fence_t}us, after the promotion at {promote_t}us"
    );
    // The promoted standby deposes the old primary when it takes over,
    // then once a tick (a quarter lease, 100 ms) until an ack crosses
    // the healed link, however many client frames it serves meanwhile.
    // Slack 2: the send at promotion, and the round in flight when the
    // link heals.
    let deposes = outcome.net_stats.messages.get(&MsgKind::Depose).copied();
    let cut_ticks = cut.lock().unwrap().as_millis() as u64 / 100;
    assert!(
        deposes.unwrap_or(0) <= cut_ticks + 2,
        "{deposes:?} deposes across a cut of {cut_ticks} ticks"
    );
}

/// Two workers on a replicated home, driven to the point where worker 0
/// holds a notice: it has read `xs[0..4]` and said so, and worker 1's
/// rewrite of `xs[8..12]` to `200 + i` reached it as a notice only. Both
/// then pause 300 ms of fabric time — `control` acts in there — and
/// worker 0 reads `xs[9]`, which it must fetch; a last rewrite to
/// `300 + i` and a read of `xs[10]` show the run carries on.
fn run_fetch_after_a_pause(
    shards: u32,
    seed: u64,
    control: impl FnOnce(ClusterCtl) + Send + 'static,
) -> (Vec<i128>, hdsm::obs::Recorder) {
    let recorder = hdsm::obs::Recorder::enabled();
    let b = BarrierId::new(0);
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::solaris_sparc())
        .worker(PlatformSpec::linux_x86())
        .barriers(1)
        .topology(TopologyConfig {
            shards,
            replicas: 1,
            fabric: FabricMode::Sim { seed },
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .control(control)
        .run(move |c, info| {
            let rewrite = |c: &mut DsdClient, base: i128| {
                (8..12).try_for_each(|i| c.write_int(0, i, base + i as i128))
            };
            c.barrier(b)?;
            if info.index == 0 {
                c.read_ints(0, 0, &mut [0; 4])?;
            } else {
                rewrite(c, 100)?;
            }
            c.barrier(b)?; // worker 0 reports; the rewrite is noticed
            if info.index == 1 {
                rewrite(c, 200)?;
            }
            c.barrier(b)?; // so is this one
            c.network().clock().sleep(Duration::from_millis(300));
            let mut seen = Vec::new();
            if info.index == 0 {
                seen.push(c.read_int(0, 9)?);
            }
            c.barrier(b)?;
            if info.index == 1 {
                rewrite(c, 300)?;
            }
            c.barrier(b)?;
            if info.index == 0 {
                seen.push(c.read_int(0, 10)?);
            }
            Ok(seen)
        })
        .expect("the fetch must find the entry's bytes wherever they are served");
    let final_xs: Vec<i128> = (8..12)
        .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
        .collect();
    assert_eq!(final_xs, [308, 309, 310, 311]);
    (outcome.results.into_iter().next().unwrap(), recorder)
}

fn counter(recorder: &hdsm::obs::Recorder, name: &str) -> u64 {
    let snap = recorder.snapshot().expect("armed");
    let row = snap.counters.iter().find(|(k, _)| k == name);
    row.map_or(0, |(_, v)| *v)
}

#[test]
fn failover_notice_from_a_killed_primary_is_fetched_from_the_promoted_replica() {
    use hdsm::obs::EventKind;
    // The primary of shard 0 (entry 0's owner, whatever the shard count)
    // sends worker 0 its notice and dies; the fetch fails over like any
    // request and the replica answers from the bytes the relay gave it.
    let (seen, recorder) = run_fetch_after_a_pause(shards_from_env(), 0xFE7C, |ctl| {
        ctl.sleep(Duration::from_millis(100));
        ctl.kill_shard(ShardId::new(0));
    });
    assert_eq!(seen, [209, 310]);
    assert!(counter(&recorder, "client.range_fetches") >= 1);
    assert!(counter(&recorder, "home.ranges_noticed") >= 1);
    let events = recorder.events();
    assert!(events.iter().any(|e| e.kind == EventKind::ShardKill));
    assert!(events.iter().any(|e| e.kind == EventKind::Promote));
}

#[test]
fn handoff_entry_rehomed_between_notice_and_fetch_is_fetched_from_its_new_owner() {
    // Entry 0 moves from shard 0 to shard 1 while worker 0 holds a notice
    // for it: the fetch goes to the old owner, is bounced `EntryMoved`,
    // and is answered by the new one — which then ships worker 0 the
    // entry whole until it has been told what worker 0 reads.
    let (seen, recorder) = run_fetch_after_a_pause(shards_from_env().max(2), 0xE7F0, |mut ctl| {
        ctl.sleep(Duration::from_millis(100));
        ctl.rehome_entry(0, ShardId::new(0), ShardId::new(1))
            .expect("the move completes");
    });
    assert_eq!(seen, [209, 310]);
    assert_eq!(counter(&recorder, "home.entries_rehomed"), 1);
    assert!(counter(&recorder, "home.entry_bounces") >= 1);
    assert!(counter(&recorder, "client.entry_moves_learned") >= 1);
    assert!(counter(&recorder, "client.range_fetches") >= 1);
}

#[test]
fn handoff_drains_live_shard_with_zero_failed_ops() {
    use hdsm::obs::{EventKind, OpKind, Recorder};
    // Proactive membership change: mid-run, the admin drains shard 0 into
    // its standby. Every client operation issued across the handoff must
    // succeed (the run returns Ok with exact counters), and the stall is
    // attributed: the critical-path analyzer reports a handoff op.
    let recorder = Recorder::enabled();
    let outcome = ClusterBuilder::new()
        .gthv(two_entry_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .locks(2)
        .barriers(2)
        .topology(TopologyConfig {
            shards: 2,
            replicas: 1,
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .obs(recorder.clone())
        .control(|mut ctl| {
            std::thread::sleep(Duration::from_millis(100));
            ctl.handoff(ShardId::new(0)).expect("handoff completes");
        })
        .run(failover_workload)
        .expect("zero failed client operations across the handoff");
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 40);
    assert_eq!(outcome.final_gthv.read_int(1, 0).unwrap(), 40);
    // The drained shard's final state equals a run that never handed off.
    let (clean, _, _) = run_failover_convergence(FabricMode::Threads, 0, None, None);
    assert_eq!(outcome.final_gthv.space().raw().to_vec(), clean);
    let events = recorder.events();
    let span = events
        .iter()
        .find(|e| e.kind == EventKind::Handoff)
        .expect("the handoff must surface as a span");
    assert_eq!(span.op.kind, OpKind::Handoff);
    assert_eq!(span.arg0, 0, "shard 0 was drained");
    assert_eq!(span.arg1, 1, "the standby took over at epoch 1");
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Promote && e.label == "handoff"),
        "the standby's installation must surface as a labeled promotion"
    );
    assert!(
        recorder
            .critpaths()
            .iter()
            .any(|p| p.op.kind == OpKind::Handoff),
        "the critical-path analyzer must attribute the stall to the handoff op"
    );
}

#[test]
fn handoff_of_a_dead_primary_fails_at_once_not_after_the_budget() {
    use hdsm::net::endpoint::NetError;
    // The admin asks to drain shard 0 after its primary was killed and the
    // standby took over: the only endpoint a drain can start at is gone,
    // so the call must say so immediately instead of retransmitting into
    // the void for its 30 s budget. The run itself is unharmed.
    let lease = Duration::from_millis(400);
    let (tx, rx) = std::sync::mpsc::channel();
    let outcome = ClusterBuilder::new()
        .gthv(two_entry_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(2)
        .barriers(2)
        .topology(TopologyConfig {
            shards: 2,
            replicas: 1,
            fabric: FabricMode::Sim { seed: 0xDEAD },
        })
        .timing(TimingConfig {
            lease: Some(lease),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .control(move |mut ctl| {
            ctl.sleep(Duration::from_millis(50));
            ctl.kill_shard(ShardId::new(0));
            ctl.sleep(Duration::from_millis(300)); // the standby promotes
            let clock = ctl.network().clock();
            let t0 = clock.now();
            let verdict = ctl.handoff(ShardId::new(0));
            tx.send((verdict, clock.now().saturating_since(t0)))
                .unwrap();
        })
        .run(failover_workload)
        .expect("the failed admin call must not fail the run");
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 40);
    let (verdict, took) = rx.recv().unwrap();
    assert!(
        matches!(
            verdict,
            Err(ClusterError::Handoff {
                shard: 0,
                error: DsdError::Net(NetError::Disconnected(_))
            })
        ),
        "{verdict:?}"
    );
    assert!(took < lease, "the verdict took {took:?} of fabric time");
}

#[test]
fn handoff_of_an_unreplicated_shard_is_refused_and_the_run_completes() {
    // Without replicas there is no standby to drain into: the admin call
    // is refused with a typed error before anything is sent, and the shard
    // it named keeps serving to the end of the run.
    let (tx, rx) = std::sync::mpsc::channel();
    let outcome = ClusterBuilder::new()
        .gthv(two_entry_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(2)
        .barriers(2)
        .topology(TopologyConfig {
            shards: 2,
            replicas: 0,
            fabric: FabricMode::Sim { seed: 0x5010 },
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .control(move |mut ctl| {
            ctl.sleep(Duration::from_millis(50));
            tx.send(ctl.handoff(ShardId::new(0))).unwrap();
        })
        .run(failover_workload)
        .expect("a refused handoff must not fail the run");
    assert_eq!(outcome.final_gthv.read_int(0, 0).unwrap(), 40);
    assert_eq!(outcome.final_gthv.read_int(1, 0).unwrap(), 40);
    let verdict = rx.recv().unwrap();
    assert!(
        matches!(verdict, Err(ClusterError::Config(_))),
        "{verdict:?}"
    );
    let sent = outcome.net_stats.messages.get(&MsgKind::HandoffRequest);
    assert_eq!(sent, None, "the refused call sent a request");
}

#[test]
fn failover_paper_kernels_survive_any_single_shard_kill() {
    // The tentpole acceptance: with replicas = 1, killing either home
    // shard mid-run in each paper kernel still completes the run with
    // bytes equal to the fault-free result — on a clean fabric and on a
    // faulty one. Worker 0 staggers its start so the kill consistently
    // lands while worker 1 is parked in the kernel's first barrier.
    let (n, seed, sweeps) = (8usize, 11u64, 2usize);
    let run_kernel = |kernel: Kernel, kill: Option<u32>, plan: &Option<FaultPlan>| {
        let mut b = ClusterBuilder::new()
            .worker(PlatformSpec::linux_x86())
            .worker(PlatformSpec::linux_x86_64())
            .topology(TopologyConfig {
                shards: 2,
                replicas: 1,
                ..Default::default()
            })
            .timing(TimingConfig {
                lease: Some(Duration::from_millis(300)),
                retry_base: Some(Duration::from_millis(25)),
                recv_deadline: Some(Duration::from_secs(30)),
                ..Default::default()
            });
        if let Some(p) = plan {
            b = b.net(NetConfig::instant().with_faults(p.clone()));
        }
        if let Some(shard) = kill {
            b = b.control(move |ctl| {
                std::thread::sleep(Duration::from_millis(60));
                ctl.kill_shard(ShardId::new(shard));
            });
        }
        let o = kernel
            .setup(b, n, seed)
            .run(move |c, i| {
                if kill.is_some() && i.index == 0 {
                    std::thread::sleep(Duration::from_millis(150));
                }
                kernel.run_worker(c, i, n)
            })
            .unwrap_or_else(|e| panic!("{kernel:?} completes: {e}"));
        let ok = kernel.verify(&o.final_gthv, n, seed);
        (o.final_gthv.space().raw().to_vec(), ok)
    };
    let faulty = || {
        Some(
            FaultPlan::seeded(0xFA17)
                .drop(0.02)
                .duplicate(0.02)
                .reorder(0.02),
        )
    };
    let kernels = [
        Kernel::Jacobi { sweeps },
        Kernel::Sor { sweeps },
        Kernel::Matmul(SyncMode::Barrier),
        Kernel::Lu,
    ];
    for kernel in kernels {
        let (clean, ok) = run_kernel(kernel, None, &None);
        assert!(ok, "{kernel:?} failed to verify fault-free");
        for shard in [0u32, 1] {
            for (p, plan) in [None, faulty()].iter().enumerate() {
                let (bytes, ok) = run_kernel(kernel, Some(shard), plan);
                assert!(
                    ok,
                    "{kernel:?} failed to verify killing shard {shard} plan {p}"
                );
                assert_eq!(
                    bytes, clean,
                    "{kernel:?} diverged from fault-free killing shard {shard} plan {p}"
                );
            }
        }
    }
}

/// Nightly chaos soak (CI runs this `--ignored` over a seed matrix; a
/// failure leaves a reproducer artifact in `results/`). One seed drives
/// the fault probabilities, the victim shard and the kill time; the run
/// must converge to the fault-free bytes.
#[test]
#[ignore = "chaos soak: set HDSM_SOAK_SEED and run with --ignored"]
fn soak_seeded_failover_chaos() {
    let seed: u64 = std::env::var("HDSM_SOAK_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC4A05);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let drop_p = (next() % 40) as f64 / 1000.0;
    let dup_p = (next() % 40) as f64 / 1000.0;
    let reorder_p = (next() % 40) as f64 / 1000.0;
    let victim = (next() % 2) as u32;
    let kill_after = 40 + next() % 220;
    let (clean, a, b) = run_failover_convergence(FabricMode::Threads, 0, None, None);
    assert_eq!((a, b), (40, 40), "fault-free baseline is broken");
    let plan = FaultPlan::seeded(seed)
        .drop(drop_p)
        .duplicate(dup_p)
        .reorder(reorder_p);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_failover_convergence(
            FabricMode::Threads,
            1,
            Some((victim, kill_after)),
            Some(plan),
        )
    }));
    let failure = match &run {
        Err(_) => Some("panic or run error".to_string()),
        Ok((_, a, b)) if (*a, *b) != (40, 40) => Some(format!("counters {a}/{b}, want 40/40")),
        Ok((bytes, _, _)) if *bytes != clean => Some("byte divergence from fault-free".into()),
        Ok(_) => None,
    };
    if let Some(why) = failure {
        let _ = std::fs::create_dir_all("results");
        let path = format!("results/soak_failure_{seed}.json");
        let artifact = format!(
            "{{\"seed\": {seed}, \"drop_p\": {drop_p}, \"dup_p\": {dup_p}, \
             \"reorder_p\": {reorder_p}, \"victim_shard\": {victim}, \
             \"kill_after_ms\": {kill_after}, \"why\": \"{why}\"}}\n"
        );
        let _ = std::fs::write(&path, artifact);
        panic!("soak seed {seed} failed ({why}); reproducer at {path}");
    }
}

/// Seeds kept as regression anchors for the deterministic fabric. The
/// first two schedules reproduced real bugs before their fixes landed:
/// a shutdown broadcast iterated in hash-set order (so straggler
/// retransmits raced it differently run to run) and simultaneous lease
/// expiries declared in hash-set order (so lock inheritance after a
/// double expiry was unstable). The rest are the chaos-soak CI matrix.
/// Each seed must (a) converge and (b) replay byte-identically, forever.
const SIM_REGRESSION_SEEDS: [u64; 8] = [77, 88, 1, 2, 3, 5, 8, 13];

/// The convergence workload on the deterministic fabric: same shape as
/// [`run_convergence_workload`] but multiplexed under `Sim { seed }`
/// with a chaotic fault plan, so the whole run is a pure function of
/// the seed.
fn run_sim_convergence(sim_seed: u64, fault_seed: u64) -> (Vec<u8>, i128, NetStats) {
    let outcome = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::solaris_sparc())
        .locks(1)
        .barriers(1)
        .topology(TopologyConfig {
            shards: shards_from_env(),
            fabric: FabricMode::Sim { seed: sim_seed },
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_secs(5)),
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(30)),
            ..Default::default()
        })
        .net(
            NetConfig::instant().with_faults(
                FaultPlan::seeded(fault_seed)
                    .drop(0.05)
                    .duplicate(0.05)
                    .reorder(0.05),
            ),
        )
        .run(|c, info| {
            for _ in 0..20 {
                c.acquire(LockId::new(0))?;
                let v = c.read_int(0, 0)?;
                c.write_int(0, 0, v + 1)?;
                c.release(LockId::new(0))?;
            }
            c.barrier(BarrierId::new(0))?;
            let base = 1 + info.index as u64 * 7;
            for i in base..base + 7 {
                c.write_int(0, i, i as i128 * 3 + 1)?;
            }
            c.barrier(BarrierId::new(0))?;
            Ok(())
        })
        .expect("sim workload completes despite faults");
    let counter = outcome.final_gthv.read_int(0, 0).unwrap();
    (
        outcome.final_gthv.space().raw().to_vec(),
        counter,
        outcome.net_stats,
    )
}

/// Tier-1 regression: every committed seed replays the exact same run.
/// When a chaos soak or a user report turns up a failing seed, it gets
/// appended to [`SIM_REGRESSION_SEEDS`] and this test pins its schedule
/// (convergence plus byte-identical traffic) from then on.
#[test]
fn sim_regression_seeds_replay_deterministically() {
    for &seed in &SIM_REGRESSION_SEEDS {
        let (bytes_a, counter_a, stats_a) = run_sim_convergence(seed, seed ^ 0xC4A05);
        let (bytes_b, counter_b, stats_b) = run_sim_convergence(seed, seed ^ 0xC4A05);
        assert_eq!(counter_a, 40, "seed {seed} lost increments");
        assert_eq!(counter_b, 40, "seed {seed} lost increments on replay");
        assert_eq!(bytes_a, bytes_b, "seed {seed} replay diverged in memory");
        assert_eq!(stats_a, stats_b, "seed {seed} replay diverged in traffic");
    }
}

/// Sixty-seven heterogeneous workers over fifty locks and three home
/// shards on the deterministic fabric, under a faulty network. Workers
/// run staggered amounts of work, so ranks join at different virtual
/// times and wait for the shutdown the shards defer until the last one
/// signs off; no lock-guarded increment may be lost or land in another
/// lock's slot on the way.
#[test]
fn lossy_three_shard_lock_soak_loses_no_increment() {
    const LOCKS: usize = 50;
    const WORKERS: usize = 67;
    // One counter slot per lock.
    let def = GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, LOCKS)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut b = ClusterBuilder::new().gthv(def).locks(LOCKS as u32);
    for k in 0..WORKERS {
        b = b.worker(if k % 2 == 0 {
            PlatformSpec::linux_x86()
        } else {
            PlatformSpec::solaris_sparc()
        });
    }
    let outcome = b
        .topology(TopologyConfig {
            shards: 3,
            fabric: FabricMode::Sim { seed: 0x7E4A47 },
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_secs(5)),
            retry_base: Some(Duration::from_millis(10)),
            recv_deadline: Some(Duration::from_secs(120)),
            ..Default::default()
        })
        .net(
            NetConfig::instant().with_faults(
                FaultPlan::seeded(0x50AC)
                    .drop(0.02)
                    .duplicate(0.02)
                    .reorder(0.02),
            ),
        )
        .run(|c, info| {
            // Staggered load: worker k does 3 + k % 7 lock-guarded
            // increments of slot k % 50, so the first seventeen slots
            // are contended and workers retire at different virtual
            // times.
            let slot = (info.index % LOCKS) as u64;
            let lock = LockId::new(slot as u32);
            for _ in 0..3 + info.index % 7 {
                c.acquire(lock)?;
                let v = c.read_int(0, slot)?;
                c.write_int(0, slot, v + 1)?;
                c.release(lock)?;
            }
            Ok(())
        })
        .expect("lock soak completes");
    // Each slot holds exactly the increments of the workers on its lock.
    for slot in 0..LOCKS {
        let want: usize = (slot..WORKERS).step_by(LOCKS).map(|k| 3 + k % 7).sum();
        let got = outcome.final_gthv.read_int(0, slot as u64).unwrap();
        assert_eq!(got, want as i128, "slot {slot} lost or gained increments");
    }
}

// ----- held writes: a barrier ships what another worker reads -----

/// Two (or three) workers past a barrier at which worker 1 wrote
/// `xs[8..12] = 200 + i` and held it: worker 0 reported reading `xs[0..4]`
/// only, so nothing made worker 1 ship the rewrite. `then` runs next on
/// every worker, and its results are returned with the run's outcome.
fn run_with_a_held_rewrite<R: Send + 'static>(
    builder: ClusterBuilder,
    then: impl Fn(&mut DsdClient, &WorkerInfo) -> Result<R, DsdError> + Send + Sync + 'static,
) -> Result<hdsm::dsd::cluster::ClusterOutcome<R>, ClusterError> {
    let b = BarrierId::new(0);
    builder.barriers(1).run(move |c, info| {
        c.barrier(b)?; // the initial pull
        if info.index == 0 {
            c.read_ints(0, 0, &mut [0; 4])?;
        }
        if info.index == 1 {
            // Nobody has said what it reads yet: this ships.
            (8..12).try_for_each(|i| c.write_int(0, i, 100 + i as i128))?;
        }
        c.barrier(b)?; // worker 0 reports what it read
        if info.index == 1 {
            (8..12).try_for_each(|i| c.write_int(0, i, 200 + i as i128))?;
        }
        c.barrier(b)?; // held, and noticed to the readers
        then(c, info)
    })
}

/// A sim-fabric cluster over `tiny_def` at `shards` shards, armed.
fn held_cluster(shards: u32, workers: usize, seed: u64) -> (ClusterBuilder, hdsm::obs::Recorder) {
    let recorder = hdsm::obs::Recorder::enabled();
    let platforms = [PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()];
    let builder = (0..workers).fold(ClusterBuilder::new().gthv(tiny_def()), |b, i| {
        b.worker(platforms[i % 2].clone())
    });
    let builder = builder
        .topology(TopologyConfig {
            shards,
            fabric: FabricMode::Sim { seed },
            ..Default::default()
        })
        .obs(recorder.clone());
    (builder, recorder)
}

#[test]
fn a_red_black_writer_names_one_held_span_per_row_from_its_first_held_barrier() {
    use hdsm::apps::workload::block_rows;
    // The first barrier entry after a half-sweep ships everything (no
    // ship list yet); every later one holds what the neighbours do not
    // read. Each names at most one span per row of its writer, the first
    // one included: its spans reach across the colour shipped before.
    let (n, sweeps, workers) = (32, 2, 3);
    let recorder = hdsm::obs::Recorder::enabled();
    let platforms = [PlatformSpec::solaris_sparc(), PlatformSpec::linux_x86()];
    let builder = (0..workers).fold(ClusterBuilder::new(), |b, i| {
        b.worker(platforms[i % 2].clone())
    });
    let builder = builder
        .topology(TopologyConfig {
            fabric: FabricMode::Sim { seed: 0x50F },
            ..Default::default()
        })
        .obs(recorder.clone());
    let (_, verified) = Kernel::Sor { sweeps }
        .run(builder, n, 0x50F)
        .expect("SOR runs");
    assert!(verified);
    let rows: usize = (0..workers)
        .map(|w| block_rows(n, w, workers))
        .map(|r| (r.start.max(1)..r.end.min(n - 1)).len())
        .sum();
    let held_entries = 2 * sweeps - 1;
    let named = counter(&recorder, "home.ranges_held") as usize;
    assert!(named > 0, "nothing was held");
    assert!(
        named <= held_entries * rows,
        "{named} held spans named over {held_entries} held entries of {rows} rows"
    );
}

#[test]
fn a_held_name_does_not_take_back_what_another_rewrote_under_a_lock() {
    // Worker 0 writes xs[0..4] and ships xs[2..4], which worker 2 reads.
    // Worker 1 then rewrites xs[3] under a lock, and worker 0 writes and
    // holds xs[4..8], next to what it shipped. Its name must not take
    // xs[3] back: worker 2's fetch and the final bytes have worker 1's.
    let (b, lock) = (BarrierId::new(0), LockId::new(0));
    let (builder, _) = held_cluster(shards_from_env(), 3, 0xC11F);
    let outcome = builder
        .barriers(1)
        .locks(1)
        .run(move |c, info| {
            c.barrier(b)?;
            match info.index {
                0 => c.read_int(0, 15).map(drop)?,
                1 => c.read_int(0, 14).map(drop)?,
                _ => c.read_ints(0, 2, &mut [0; 2])?,
            }
            c.barrier(b)?; // everyone says what it reads
            if info.index == 0 {
                (0..4).try_for_each(|i| c.write_int(0, i, 100 + i as i128))?;
            }
            c.barrier(b)?; // xs[2..4] ships, xs[0..2] is held
            match info.index {
                0 => {
                    c.network().clock().sleep(Duration::from_millis(50));
                    (4..8).try_for_each(|i| c.write_int(0, i, 200 + i as i128))?;
                }
                1 => {
                    let mut g = c.lock(lock)?;
                    g.write_int(0, 3, 777)?;
                    g.unlock()?;
                }
                _ => {}
            }
            c.barrier(b)?;
            let mut seen = [0; 8];
            if info.index == 2 {
                c.read_ints(0, 0, &mut seen)?;
            }
            c.barrier(b)?;
            Ok(seen)
        })
        .expect("the run completes");
    let want = [100, 101, 102, 777, 204, 205, 206, 207];
    assert_eq!(outcome.results[2], want);
    let final_xs: Vec<i128> = (0..8)
        .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
        .collect();
    assert_eq!(final_xs, want);
}

#[test]
fn a_name_reaching_across_what_a_lock_release_shipped_does_not_take_it_back() {
    // Worker 1 reads xs[3] for the first time under the lock, after the
    // last barrier said what everyone reads. Worker 0 then rewrites xs[3]
    // under the lock, and worker 1 takes the lock again, which brings
    // xs[3] as an update, and stores to it after its unlock. Worker 0
    // writes and holds xs[4..8] and enters the barrier first. Its name
    // must not reach across xs[3], which only its unlock shipped: worker
    // 2's fetch and the final bytes have worker 1's store.
    let (b, lock) = (BarrierId::new(0), LockId::new(0));
    let (builder, _) = held_cluster(shards_from_env(), 3, 0x10C5);
    let outcome = builder
        .barriers(1)
        .locks(1)
        .run(move |c, info| {
            let clock = c.network().clock();
            c.barrier(b)?;
            c.read_int(0, 15 - info.index as u64)?; // nobody reads xs[0..8] yet
            c.barrier(b)?; // everyone says what it reads
            match info.index {
                0 => {
                    clock.sleep(Duration::from_millis(10));
                    let mut g = c.lock(lock)?;
                    g.write_int(0, 3, 103)?;
                    g.unlock()?;
                    clock.sleep(Duration::from_millis(20));
                    (4..8).try_for_each(|i| c.write_int(0, i, 200 + i as i128))?;
                }
                1 => {
                    let mut g = c.lock(lock)?;
                    g.read_int(0, 3)?;
                    g.unlock()?;
                    clock.sleep(Duration::from_millis(20));
                    c.lock(lock)?.unlock()?;
                    c.write_int(0, 3, 777)?;
                    clock.sleep(Duration::from_millis(40));
                }
                _ => {}
            }
            c.barrier(b)?;
            let mut seen = [0; 8];
            if info.index == 2 {
                c.read_ints(0, 0, &mut seen)?;
            }
            c.barrier(b)?;
            Ok(seen)
        })
        .expect("the run completes");
    let want = [0, 0, 0, 777, 204, 205, 206, 207];
    assert_eq!(outcome.results[2], want);
    let final_xs: Vec<i128> = (0..8)
        .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
        .collect();
    assert_eq!(final_xs, want);
}

#[test]
fn a_name_reaching_across_what_another_fetched_and_rewrote_does_not_take_it_back() {
    // Worker 0 writes xs[0..4]: it ships, while no ship list is known
    // yet, or it is held. Next interval worker 0 writes xs[4..8] and
    // enters the barrier first, naming xs[0..8] held. Worker 1, later in
    // the same interval, stores to xs[3], which it was only noticed of: it
    // fetches it (forwarded to worker 0, which serves xs[0..8]), stores
    // and holds it. Worker 0's earlier name must not keep xs[3] from it.
    let b = BarrierId::new(0);
    for held_first in [false, true] {
        let (builder, _) = held_cluster(shards_from_env(), 2, 0x5EED);
        let outcome = builder
            .barriers(1)
            .run(move |c, info| {
                let writer = info.index == 0;
                c.barrier(b)?;
                c.read_int(0, 15 - info.index as u64)?; // neither reads xs[0..8]
                if writer && !held_first {
                    (0..4).try_for_each(|i| c.write_int(0, i, 100 + i as i128))?;
                }
                c.barrier(b)?; // ships everything: nobody has said what it reads
                if held_first {
                    if writer {
                        (0..4).try_for_each(|i| c.write_int(0, i, 100 + i as i128))?;
                    }
                    c.barrier(b)?; // held
                }
                if writer {
                    (4..8).try_for_each(|i| c.write_int(0, i, 200 + i as i128))?;
                } else {
                    c.network().clock().sleep(Duration::from_millis(50));
                    c.write_int(0, 3, 777)?;
                }
                c.barrier(b)?;
                c.barrier(b)
            })
            .expect("the run completes");
        let final_xs: Vec<i128> = (0..8)
            .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
            .collect();
        let want = [100, 101, 102, 777, 204, 205, 206, 207];
        assert_eq!(
            final_xs,
            want,
            "first written {}",
            ["shipped", "held"][held_first as usize]
        );
    }
}

#[test]
fn a_read_outside_what_was_reported_is_forwarded_once_and_served_in_a_barrier() {
    use hdsm::obs::{EventKind, OpKind};
    let (builder, recorder) = held_cluster(shards_from_env(), 2, 0x4E1D);
    let outcome = run_with_a_held_rewrite(builder, |c, info| {
        let mut seen = Vec::new();
        if info.index == 0 {
            // Never reported: a notice brought it, the writer holds it.
            seen.push(c.read_int(0, 9)?);
            seen.push(c.read_int(0, 11)?);
        }
        c.barrier(BarrierId::new(0))?; // the writer waits here, serving
        Ok(seen)
    })
    .expect("the held rewrite is fetched");
    assert_eq!(outcome.results[0], [209, 211]);
    let final_xs: Vec<i128> = (8..12)
        .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
        .collect();
    assert_eq!(final_xs, [208, 209, 210, 211]);
    // One forward for the whole held span: the second read is answered
    // from the home's copy.
    assert_eq!(counter(&recorder, "home.held_forwards"), 1);
    assert_eq!(counter(&recorder, "client.held_served"), 1);
    assert_eq!(counter(&recorder, "client.range_fetches"), 2);
    let served = recorder
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::MsgSend && e.label == "held-data")
        .map(|e| e.op.kind)
        .collect::<Vec<_>>();
    assert_eq!(
        served,
        [OpKind::Barrier],
        "served while blocked in a barrier"
    );
}

#[test]
fn two_writers_reading_each_others_held_ranges_in_one_interval_both_finish() {
    let b = BarrierId::new(0);
    let (builder, recorder) = held_cluster(shards_from_env(), 2, 0x2A2A);
    let outcome = builder
        .barriers(1)
        .run(move |c, info| {
            // Each reads, and so reports, its own four elements only.
            let mine = if info.index == 0 { 0 } else { 8 };
            let theirs = 8 - mine;
            c.barrier(b)?;
            c.read_ints(0, mine, &mut [0; 4])?;
            c.barrier(b)?;
            // Each rewrites its own: the other never said it reads them.
            (mine..mine + 4).try_for_each(|i| c.write_int(0, i, 500 + i as i128))?;
            c.barrier(b)?;
            // Both fetch at once, each from the other, each blocked in its
            // fetch while the other's arrives.
            let got = c.read_int(0, theirs + 1)?;
            c.barrier(b)?;
            Ok(got)
        })
        .expect("neither writer waits on the other forever");
    assert_eq!(outcome.results, [509, 501]);
    assert_eq!(counter(&recorder, "client.held_served"), 2);
    assert_eq!(counter(&recorder, "home.held_forwards"), 2);
}

#[test]
fn a_writer_that_dies_holding_fails_the_fetch_and_the_barrier_with_worker_lost() {
    let t0 = Instant::now();
    let builder = ClusterBuilder::new()
        .gthv(tiny_def())
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86_64())
        .worker(PlatformSpec::solaris_sparc())
        .topology(TopologyConfig {
            shards: shards_from_env(),
            ..Default::default()
        })
        .timing(TimingConfig {
            lease: Some(Duration::from_millis(400)),
            retry_base: Some(Duration::from_millis(25)),
            recv_deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        });
    let err = run_with_a_held_rewrite(builder, |c, info| match info.index {
        // The fetch is forwarded to a writer that never answers.
        0 => c.read_int(0, 9).map(drop),
        // The writer dies holding: heartbeats stop.
        1 => {
            std::thread::sleep(Duration::from_millis(100));
            Err(DsdError::Crashed)
        }
        _ => c.barrier(BarrierId::new(0)),
    })
    .unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerLost { rank: 2, .. }),
        "expected WorkerLost {{ rank: 2 }}, got {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "failure detection took {:?} — the fetch hung",
        t0.elapsed()
    );
}

#[test]
fn a_held_range_re_homed_before_any_fetch_reaches_the_final_bytes_at_the_join() {
    // Entry 0 moves from shard 0 to shard 1 while worker 1 holds its
    // rewrite and nobody has fetched it: the hold moves with the entry,
    // worker 1 gathers for the shard it believes owns it, and the new
    // owner asks worker 1 for what it still holds once it has joined.
    let (builder, recorder) = held_cluster(shards_from_env().max(2), 2, 0x7E40);
    let builder = builder.control(|mut ctl| {
        ctl.sleep(Duration::from_millis(100));
        ctl.rehome_entry(0, ShardId::new(0), ShardId::new(1))
            .expect("the move completes");
    });
    let outcome = run_with_a_held_rewrite(builder, |c, _| {
        c.network().clock().sleep(Duration::from_millis(300));
        Ok(())
    })
    .expect("the run completes");
    let final_xs: Vec<i128> = (8..12)
        .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
        .collect();
    assert_eq!(final_xs, [208, 209, 210, 211]);
    assert_eq!(counter(&recorder, "home.entries_rehomed"), 1);
    assert_eq!(counter(&recorder, "client.range_fetches"), 0);
    assert!(counter(&recorder, "home.held_forwards") >= 1);
}

#[test]
fn failover_held_range_is_forwarded_by_the_promoted_standby() {
    use hdsm::obs::EventKind;
    // The primary of shard 0 takes worker 1's held rewrite, notices it to
    // worker 0 and dies before worker 0 fetches: the fetch fails over, and
    // the promoted standby — whose relayed copy of the barrier entry
    // carried the hold — forwards it to worker 1.
    let shards = shards_from_env();
    let (seen, recorder) = run_fetch_after_a_pause(shards, 0xFE7D, |ctl| {
        ctl.sleep(Duration::from_millis(100));
        ctl.kill_shard(ShardId::new(0));
    });
    assert_eq!(seen, [209, 310]);
    let standby = hdsm::dsd::Directory::with_replicas(shards, 1).replica_ep(0);
    let events = recorder.events();
    assert!(events.iter().any(|e| e.kind == EventKind::Promote));
    let forwarded = |e: &&hdsm::obs::Event| e.kind == EventKind::MsgSend && e.label == "held-fetch";
    let from: Vec<u32> = events.iter().filter(forwarded).map(|e| e.rank).collect();
    assert!(from.contains(&standby), "forwarded by {from:?}");
    assert!(counter(&recorder, "client.held_served") >= 1);
}

#[test]
fn seeded_schedules_with_and_without_a_primary_kill_never_double_grant() {
    // The lock micro-workload on the sim fabric: one shard and its
    // standby under a lease, three workers each taking mutex 0 three
    // times and writing their count to `xs[rank]`. A holder sleeps on
    // the fabric clock, so the others run while it holds. Every third
    // schedule kills the primary at a seeded fabric instant.
    use hdsm::obs::{EventKind, Recorder};
    use std::sync::atomic::{AtomicU32, Ordering};
    const WORKERS: u64 = 3;
    const OPS: i128 = 3;
    let mutex = LockId::new(0);
    let mut failovers = 0;
    for seed in 0..600u64 {
        let recorder = Recorder::enabled();
        let mut b = ClusterBuilder::new()
            .gthv(tiny_def())
            .locks(1)
            .topology(TopologyConfig {
                shards: 1,
                replicas: 1,
                fabric: FabricMode::Sim { seed },
            })
            .timing(TimingConfig {
                lease: Some(Duration::from_millis(400)),
                retry_base: Some(Duration::from_millis(25)),
                ..Default::default()
            })
            .obs(recorder.clone());
        for _ in 0..WORKERS {
            b = b.worker(PlatformSpec::linux_x86());
        }
        if seed % 3 == 0 {
            let at = Duration::from_micros(seed * 7_919 % 12_000);
            b = b.control(move |ctl| {
                ctl.sleep(at);
                ctl.kill_shard(ShardId::new(0));
            });
        }
        // Holders of mutex 0, by the grants the workers were sent, and the
        // most at once. (A worker that panicked would hang the run: the
        // pump beats for it.)
        let (holders, most) = (AtomicU32::new(0), AtomicU32::new(0));
        let out = b.run(|c, info| {
            for n in 1..=OPS {
                c.acquire(mutex)?;
                let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(now, Ordering::SeqCst);
                c.write_int(0, info.index as u64 + 1, n)?;
                c.network().clock().sleep(Duration::from_millis(1));
                holders.fetch_sub(1, Ordering::SeqCst);
                c.release(mutex)?;
            }
            Ok(())
        });
        assert_eq!(most.into_inner(), 1, "seed {seed}: a double grant");
        let out = out.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Each unlock was absorbed exactly once by the instance that ended
        // authoritative.
        let unlocks = WORKERS * OPS as u64;
        assert_eq!(out.home_costs.updates_applied, unlocks, "seed {seed}");
        for rank in 1..=WORKERS {
            let xs = out.final_gthv.read_int(0, rank).unwrap();
            assert_eq!(xs, OPS, "seed {seed}");
        }
        // One authoritative survivor: the primary unless it was killed or
        // fenced, else the standby, which promoted.
        let events = recorder.events();
        let at = |kind, ep| events.iter().any(|e| e.kind == kind && e.rank == ep);
        let promoted = at(EventKind::Promote, 1);
        let primary_ended = at(EventKind::ShardKill, 0) || at(EventKind::Fence, 0);
        assert_eq!(promoted, primary_ended, "seed {seed}");
        failovers += promoted as u32;
    }
    assert!(failovers >= 100, "only {failovers} schedules failed over");
}

/// No `held-fetch` or `held-data` leaves a standby's endpoint before it
/// promotes: a shadow asks nothing, whatever it replayed.
fn assert_no_shadow_asks(recorder: &hdsm::obs::Recorder, shards: u32, seed: u64) {
    use hdsm::obs::EventKind;
    let directory = hdsm::dsd::Directory::with_replicas(shards, 1);
    let events = recorder.events();
    for standby in (0..shards).map(|s| directory.replica_ep(s)) {
        let here = |kind| {
            events
                .iter()
                .filter(move |e| e.kind == kind && e.rank == standby)
        };
        let promoted = here(EventKind::Promote).map(|e| e.seq).min();
        let held = here(EventKind::MsgSend).filter(|e| e.label.starts_with("held-"));
        for e in held {
            assert!(
                promoted.is_some_and(|p| p < e.seq),
                "seed {seed}: standby {standby} sent {} before it promoted",
                e.label
            );
        }
    }
}

#[test]
fn seeded_primary_kills_around_a_held_rewrite_lose_no_bytes() {
    // Both held workloads on a replicated home, the primary of a seeded
    // shard killed at a seeded fabric instant. The fetch after a pause
    // spans about 325 ms of fabric time, most of it the pause; the held
    // rewrite, with each frame 1 ms on the wire, about 16 ms. So a kill
    // lands before the hold, while it is noticed, while a fetch of it
    // waits on its writer, or after the run.
    let shards = shards_from_env();
    for seed in 0..32u64 {
        let victim = ShardId::new(seed as u32 % shards);
        let kill = move |at: Duration| {
            move |ctl: ClusterCtl| {
                ctl.sleep(at);
                ctl.kill_shard(victim);
            }
        };
        let at = Duration::from_micros(seed * 13_933 % 320_000);
        let (seen, recorder) = run_fetch_after_a_pause(shards, seed, kill(at));
        assert_eq!(seen, [209, 310], "seed {seed}");
        assert_no_shadow_asks(&recorder, shards, seed);

        let recorder = hdsm::obs::Recorder::enabled();
        let builder = ClusterBuilder::new()
            .gthv(tiny_def())
            .worker(PlatformSpec::solaris_sparc())
            .worker(PlatformSpec::linux_x86())
            .topology(TopologyConfig {
                shards,
                replicas: 1,
                fabric: FabricMode::Sim { seed },
            })
            .timing(TimingConfig {
                lease: Some(Duration::from_millis(400)),
                retry_base: Some(Duration::from_millis(25)),
                recv_deadline: Some(Duration::from_secs(30)),
                ..Default::default()
            })
            .net(NetConfig {
                latency: Duration::from_millis(1),
                ..NetConfig::instant()
            })
            .obs(recorder.clone())
            .control(kill(at / 20));
        let outcome = run_with_a_held_rewrite(builder, |c, info| {
            let mut seen = Vec::new();
            if info.index == 0 {
                seen.push(c.read_int(0, 9)?);
                seen.push(c.read_int(0, 11)?);
            }
            c.barrier(BarrierId::new(0))?;
            Ok(seen)
        })
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(outcome.results[0], [209, 211], "seed {seed}");
        let final_xs: Vec<i128> = (8..12)
            .map(|i| outcome.final_gthv.read_int(0, i).unwrap())
            .collect();
        assert_eq!(final_xs, [208, 209, 210, 211], "seed {seed}");
        assert_no_shadow_asks(&recorder, shards, seed);
    }
}
