//! Property tests for the full DSD stack: arbitrary lock-serialized write
//! schedules on arbitrary platform mixes must leave the authoritative copy
//! equal to a sequential oracle, and every worker's post-barrier view must
//! agree with it.

use hdsm::dsd::cluster::ClusterBuilder;
use hdsm::dsd::gthv::GthvDef;
use hdsm::dsd::{BarrierId, LockId};
use hdsm::platform::ctype::StructBuilder;
use hdsm::platform::scalar::ScalarKind;
use hdsm::platform::spec::{Platform, PlatformSpec};
use proptest::prelude::*;

const ELEMS: u64 = 64;

fn tiny_def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, ELEMS as usize)
            .array("fs", ScalarKind::Double, 16)
            .scalar("p", ScalarKind::Ptr)
            .build()
            .unwrap(),
    )
    .unwrap()
}

/// One operation a worker performs inside its critical section.
#[derive(Debug, Clone)]
enum Op {
    WriteInt { elem: u64, value: i32 },
    AddInt { elem: u64, delta: i32 },
    WriteFloat { elem: u64, value: f32 },
    WritePtr { elem: u64 },
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ELEMS, any::<i32>()).prop_map(|(elem, value)| Op::WriteInt { elem, value }),
        (0..ELEMS, -100i32..100).prop_map(|(elem, delta)| Op::AddInt { elem, delta }),
        (
            0u64..16,
            any::<f32>().prop_filter("finite", |f| f.is_finite())
        )
            .prop_map(|(elem, value)| Op::WriteFloat { elem, value }),
        (0..ELEMS).prop_map(|elem| Op::WritePtr { elem }),
    ]
}

fn any_platform() -> impl Strategy<Value = Platform> {
    prop::sample::select(PlatformSpec::presets())
}

/// Apply a schedule serially: workers take turns (round-robin bursts),
/// which matches the lock-serialized execution below because each burst
/// runs under one lock acquisition.
fn oracle(schedules: &[Vec<Op>]) -> (Vec<i64>, Vec<f64>, Option<u64>) {
    let mut ints = vec![0i64; ELEMS as usize];
    let mut floats = vec![0f64; 16];
    let mut ptr = None;
    let max_len = schedules.iter().map(Vec::len).max().unwrap_or(0);
    for burst in 0..max_len {
        for sched in schedules {
            if let Some(op) = sched.get(burst) {
                match op {
                    Op::WriteInt { elem, value } => ints[*elem as usize] = *value as i64,
                    Op::AddInt { elem, delta } => ints[*elem as usize] += *delta as i64,
                    Op::WriteFloat { elem, value } => floats[*elem as usize] = *value as f64,
                    Op::WritePtr { elem } => ptr = Some(*elem),
                }
            }
        }
    }
    (ints, floats, ptr)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The distributed execution equals the oracle for every platform mix.
    #[test]
    fn dsd_matches_sequential_oracle(
        platforms in prop::collection::vec(any_platform(), 1..4),
        schedules_seed in prop::collection::vec(prop::collection::vec(any_op(), 0..12), 1..4),
    ) {
        // Pad schedules to one per worker.
        let n_workers = platforms.len();
        let mut schedules = schedules_seed;
        schedules.resize(n_workers, Vec::new());
        schedules.truncate(n_workers);
        let (want_ints, want_floats, want_ptr) = oracle(&schedules);

        let shared_scheds = std::sync::Arc::new(schedules);
        let scheds = shared_scheds.clone();
        let mut builder = ClusterBuilder::new()
            .gthv(tiny_def())
            .home(PlatformSpec::solaris_sparc())
            .locks(1)
            .barriers(1);
        for p in &platforms {
            builder = builder.worker(p.clone());
        }
        let outcome = builder
            .run(move |c, info| {
                let sched = &scheds[info.index];
                let max_len = scheds.iter().map(Vec::len).max().unwrap_or(0);
                for burst in 0..max_len {
                    // All workers take the lock once per burst in index
                    // order; the lock's FIFO queue at the home node
                    // preserves arrival order, so we serialize bursts by
                    // barrier instead: barrier, then index-ordered locks
                    // within the burst via repeated lock acquisition.
                    for turn in 0..info.n_workers {
                        c.barrier(BarrierId::new(0))?;
                        if turn != info.index {
                            continue;
                        }
                        if let Some(op) = sched.get(burst) {
                            c.acquire(LockId::new(0))?;
                            match op {
                                Op::WriteInt { elem, value } => {
                                    c.write_int(0, *elem, *value as i128)?;
                                }
                                Op::AddInt { elem, delta } => {
                                    let v = c.read_int(0, *elem)?;
                                    c.write_int(0, *elem, v + *delta as i128)?;
                                }
                                Op::WriteFloat { elem, value } => {
                                    c.write_float(1, *elem, *value as f64)?;
                                }
                                Op::WritePtr { elem } => {
                                    c.write_ptr(2, 0, Some((0, *elem)))?;
                                }
                            }
                            c.release(LockId::new(0))?;
                        }
                    }
                }
                c.barrier(BarrierId::new(0))?;
                // Post-barrier view must equal the final state.
                let mut ints = Vec::with_capacity(ELEMS as usize);
                for i in 0..ELEMS {
                    ints.push(c.read_int(0, i)? as i64);
                }
                Ok(ints)
            })
            .unwrap();

        // Authoritative copy equals the oracle.
        for i in 0..ELEMS {
            prop_assert_eq!(
                outcome.final_gthv.read_int(0, i).unwrap() as i64,
                want_ints[i as usize],
                "int elem {}", i
            );
        }
        for i in 0..16u64 {
            let got = outcome.final_gthv.read_float(1, i).unwrap();
            prop_assert_eq!(got, want_floats[i as usize], "float elem {}", i);
        }
        let got_ptr = outcome.final_gthv.read_ptr(2, 0).unwrap();
        prop_assert_eq!(got_ptr, want_ptr.map(|e| (0u32, e)));

        // Every worker's final view agrees.
        for (w, ints) in outcome.results.iter().enumerate() {
            for i in 0..ELEMS as usize {
                prop_assert_eq!(ints[i], want_ints[i], "worker {} elem {}", w, i);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ship what is read, model-checked: random race-free programs of barrier
// phases and lock sections, whose every returned value and final byte is
// held to a sequential model. A worker reads ranges it never read before
// and ranges it was only sent a notice for as often as ranges it holds.
// ---------------------------------------------------------------------------

use hdsm::apps::workload::paper_pairs;
use hdsm::dsd::client::{DsdClient, DsdError};
use hdsm::dsd::cluster::TopologyConfig;
use hdsm::net::FabricMode;
use hdsm::obs::Recorder;

/// `xs` is 12 chunks of 8 ints; in a phase each chunk has one writer or
/// none, and a worker reads only chunks nobody else writes in that phase.
const CHUNK: usize = 8;
const CHUNKS: usize = 12;
/// `fs` is two regions of 16 doubles, each guarded by the lock of its
/// number; the first cell of a region counts the sections run on it.
const REGION: usize = 16;
const WORKERS: usize = 3;
/// `owners[chunk]` of nobody.
const NOBODY: u8 = WORKERS as u8;

/// An access as generated: `(store?, where, offset, length, value,
/// shape)`, made legal for whoever runs it by [`legal`] or [`locked`]; the
/// shape picks a store of every element, or of every second or third one
/// of its run, forwards or backwards.
type RawOp = (bool, u8, u8, u8, i16, u8);

#[derive(Debug, Clone)]
struct RawPhase {
    /// Who may write each chunk of `xs` this phase.
    owners: Vec<u8>,
    /// Per worker: accesses to `xs` outside any lock.
    ops: Vec<Vec<RawOp>>,
    /// Per worker: lock sections `(lock, accesses)`, run between the first
    /// and second half of `ops` — so a release ships unlocked stores too.
    sections: Vec<Vec<(u8, Vec<RawOp>)>>,
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        any::<bool>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<i16>(),
        any::<u8>(),
    )
}

fn raw_phase() -> impl Strategy<Value = RawPhase> {
    (
        prop::collection::vec(0u8..=NOBODY, CHUNKS..=CHUNKS),
        prop::collection::vec(prop::collection::vec(raw_op(), 0..7), WORKERS..=WORKERS),
        prop::collection::vec(
            prop::collection::vec((0u8..2, prop::collection::vec(raw_op(), 0..4)), 0..3),
            WORKERS..=WORKERS,
        ),
    )
        .prop_map(|(owners, ops, sections)| RawPhase {
            owners,
            ops,
            sections,
        })
}

/// One legal access: a run of an entry from `first`, read, or stored to
/// element `first + k·stride` for the `k`-th value, in descending order
/// when `back`.
#[derive(Debug, Clone)]
enum Access {
    Read {
        first: usize,
        len: usize,
    },
    Write {
        first: usize,
        stride: usize,
        back: bool,
        values: Vec<f64>,
    },
}

/// The store of `op` to the run of `len` elements from `first`, with its
/// values from `base` on: every element, or every second or third of the
/// run (a red-black sweep's colour), forwards or backwards.
fn store(op: &RawOp, first: usize, len: usize, base: f64) -> Access {
    let shape = op.5 % 6;
    let stride = [1, 1, 2, 2, 3, 3][shape as usize];
    let n = (len - 1) / stride + 1;
    Access::Write {
        first,
        stride,
        back: shape % 2 == 1 && stride > 1,
        values: (0..n).map(|i| base + i as f64).collect(),
    }
}

/// `op` as worker `w` may run it on `xs` in a phase with these `owners`:
/// inside chunks it may touch, up to 24 elements long so that a read
/// spans what it holds, what it was noticed of and what it never read.
fn legal(op: &RawOp, w: usize, owners: &[u8]) -> Option<Access> {
    let &(stores, pick, offset, len, value, _) = op;
    let may = |c: usize| owners[c] == w as u8 || (!stores && owners[c] == NOBODY);
    let allowed: Vec<usize> = (0..CHUNKS).filter(|&c| may(c)).collect();
    let chunk = *allowed.get(pick as usize % allowed.len().max(1))?;
    let first = chunk * CHUNK + offset as usize % CHUNK;
    let run_end = chunk + (chunk..CHUNKS).take_while(|&c| may(c)).count();
    let len = 1 + len as usize % (run_end * CHUNK - first).min(24);
    Some(if stores {
        store(op, first, len, f64::from(value))
    } else {
        Access::Read { first, len }
    })
}

/// `op` inside a section on `lock`: within the lock's region of `fs`,
/// past the cell that counts sections.
fn locked(op: &RawOp, lock: u8) -> Access {
    let &(stores, _, offset, len, value, _) = op;
    let at = 1 + offset as usize % (REGION - 1);
    let len = 1 + len as usize % (REGION - at).min(6);
    let first = lock as usize * REGION + at;
    if stores {
        store(op, first, len, f64::from(value) / 4.0)
    } else {
        Access::Read { first, len }
    }
}

/// Run `access` on `entry` through the client; what a read returns goes
/// to `log`.
fn perform(
    c: &mut DsdClient,
    entry: u32,
    access: &Access,
    log: &mut Vec<f64>,
) -> Result<(), DsdError> {
    match access {
        Access::Read { first, len } if entry == 0 => {
            let mut out = vec![0i128; *len];
            c.read_ints(0, *first as u64, &mut out)?;
            log.extend(out.iter().map(|&v| v as f64));
        }
        Access::Read { first, len } => {
            let mut out = vec![0f64; *len];
            c.read_floats(entry, *first as u64, &mut out)?;
            log.extend(out);
        }
        Access::Write {
            first,
            stride: 1,
            values,
            ..
        } if entry == 0 => {
            let ints: Vec<i128> = values.iter().map(|&v| v as i128).collect();
            c.write_ints(0, *first as u64, &ints)?;
        }
        Access::Write {
            first,
            stride: 1,
            values,
            ..
        } => c.write_floats(entry, *first as u64, values)?,
        Access::Write {
            first,
            stride,
            back,
            values,
        } => {
            let mut at: Vec<usize> = (0..values.len()).collect();
            if *back {
                at.reverse();
            }
            for k in at {
                let e = (first + k * stride) as u64;
                match entry {
                    0 => c.write_int(0, e, values[k] as i128)?,
                    _ => c.write_float(entry, e, values[k])?,
                }
            }
        }
    }
    Ok(())
}

/// The same access on the model's copy of the entry; a read must find the
/// next values of `log` there.
fn replay(state: &mut [f64], access: &Access, log: &mut impl Iterator<Item = f64>) -> bool {
    match access {
        Access::Read { first, len } => state[*first..][..*len]
            .iter()
            .all(|want| log.next() == Some(*want)),
        Access::Write {
            first,
            stride,
            values,
            ..
        } => {
            let at = state[*first..].iter_mut().step_by(*stride);
            at.zip(values).for_each(|(cell, v)| *cell = *v);
            true
        }
    }
}

fn phased_def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, CHUNKS * CHUNK)
            .array("fs", ScalarKind::Double, 2 * REGION)
            .build()
            .unwrap(),
    )
    .unwrap()
}

/// As in `tests/robustness.rs`: CI runs this file at 1 and 3 home shards.
fn shards_from_env() -> u32 {
    std::env::var("HDSM_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// What one worker saw: the values of its unlocked reads in program
/// order, and per lock section the count it read and its reads.
type WorkerLog = (Vec<f64>, Vec<(f64, Vec<f64>)>);

/// Run `program` on the paper's placement of pair `pair` (worker 0 on the
/// home platform, two remote) and hold it to the sequential model.
/// Returns the run's range fetches, notices and forwards of a fetch to a
/// writer that held the range, or what diverged.
fn run_against_model(
    program: Vec<RawPhase>,
    pair: usize,
    sim_seed: u64,
) -> Result<(u64, u64, u64), String> {
    let pair = &paper_pairs()[pair];
    let recorder = Recorder::enabled();
    let program = std::sync::Arc::new(program);
    let phases = program.clone();
    let b = BarrierId::new(0);
    let outcome = ClusterBuilder::new()
        .gthv(phased_def())
        .home(pair.home.clone())
        .worker(pair.home.clone())
        .worker(pair.remote.clone())
        .worker(pair.remote.clone())
        .locks(2)
        .barriers(1)
        .topology(TopologyConfig {
            shards: shards_from_env(),
            fabric: FabricMode::Sim { seed: sim_seed },
            ..Default::default()
        })
        .obs(recorder.clone())
        .init(|g| {
            for i in 0..(CHUNKS * CHUNK) as u64 {
                g.write_int(0, i, 1000 + i as i128).unwrap();
            }
        })
        .run(move |c, info| -> Result<WorkerLog, DsdError> {
            let w = info.index;
            let (mut log, mut sections) = (Vec::new(), Vec::new());
            c.barrier(b)?;
            for phase in phases.iter() {
                let (early, late) = phase.ops[w].split_at(phase.ops[w].len() / 2);
                for op in early.iter().filter_map(|op| legal(op, w, &phase.owners)) {
                    perform(c, 0, &op, &mut log)?;
                }
                for (lock, ops) in &phase.sections[w] {
                    let count_at = (*lock as usize * REGION) as u64;
                    c.acquire(LockId::new(u32::from(*lock)))?;
                    let nth = c.read_float(1, count_at)?;
                    c.write_float(1, count_at, nth + 1.0)?;
                    let mut reads = Vec::new();
                    for op in ops {
                        perform(c, 1, &locked(op, *lock), &mut reads)?;
                    }
                    c.release(LockId::new(u32::from(*lock)))?;
                    sections.push((nth, reads));
                }
                for op in late.iter().filter_map(|op| legal(op, w, &phase.owners)) {
                    perform(c, 0, &op, &mut log)?;
                }
                c.barrier(b)?;
            }
            // Everything, once more, as this worker sees it at the end.
            let (all_xs, all_fs) = (CHUNKS * CHUNK, 2 * REGION);
            perform(
                c,
                0,
                &Access::Read {
                    first: 0,
                    len: all_xs,
                },
                &mut log,
            )?;
            perform(
                c,
                1,
                &Access::Read {
                    first: 0,
                    len: all_fs,
                },
                &mut log,
            )?;
            Ok((log, sections))
        })
        .map_err(|e| e.to_string())?;

    // The sequential model. A phase's unlocked accesses see the state at
    // its opening barrier plus the worker's own stores (nobody else writes
    // what it may touch); the sections on a lock ran in the order of the
    // counts they read.
    let mut xs: Vec<f64> = (0..CHUNKS * CHUNK).map(|i| 1000.0 + i as f64).collect();
    let mut fs = vec![0f64; 2 * REGION];
    let (mut logs, mut sections): (Vec<_>, Vec<_>) = outcome
        .results
        .into_iter()
        .map(|(log, sections)| (log.into_iter(), sections.into_iter()))
        .unzip();
    for (p, phase) in program.iter().enumerate() {
        let at_barrier = xs.clone();
        let mut ran = Vec::new();
        for w in 0..WORKERS {
            let mut mine = at_barrier.clone();
            for op in phase.ops[w]
                .iter()
                .filter_map(|op| legal(op, w, &phase.owners))
            {
                if !replay(&mut mine, &op, &mut logs[w]) {
                    return Err(format!(
                        "phase {p}, worker {w}: {op:?} returned something else"
                    ));
                }
            }
            for c in (0..CHUNKS).filter(|&c| phase.owners[c] == w as u8) {
                let chunk = c * CHUNK..(c + 1) * CHUNK;
                xs[chunk.clone()].copy_from_slice(&mine[chunk]);
            }
            for (lock, ops) in &phase.sections[w] {
                let (nth, reads) = sections[w].next().ok_or("a section left no log")?;
                ran.push((*lock, nth as u64, w, ops, reads));
            }
        }
        ran.sort_by_key(|&(lock, nth, ..)| (lock, nth));
        for (lock, nth, w, ops, reads) in ran {
            let count_at = lock as usize * REGION;
            if fs[count_at] != nth as f64 {
                return Err(format!(
                    "phase {p}: two sections on lock {lock} both ran as number {nth}"
                ));
            }
            fs[count_at] += 1.0;
            let mut reads = reads.into_iter();
            for op in ops.iter().map(|op| locked(op, lock)) {
                if !replay(&mut fs, &op, &mut reads) {
                    return Err(format!(
                        "phase {p}, worker {w}, section {nth} on lock {lock}: {op:?} returned something else"
                    ));
                }
            }
        }
    }
    for (w, log) in logs.iter_mut().enumerate() {
        if !log.by_ref().eq(xs.iter().chain(&fs).copied()) {
            return Err(format!("worker {w}'s final view is not the model's"));
        }
    }
    let home = &outcome.final_gthv;
    let home_xs = (0..xs.len() as u64).map(|i| home.read_int(0, i).unwrap() as f64);
    let home_fs = (0..fs.len() as u64).map(|i| home.read_float(1, i).unwrap());
    if !home_xs.eq(xs.iter().copied()) || !home_fs.eq(fs.iter().copied()) {
        return Err("the home's final bytes are not the model's".into());
    }
    let snap = recorder.snapshot().expect("armed");
    let count = |name: &str| {
        let row = snap.counters.iter().find(|(k, _)| k == name);
        row.map_or(0, |(_, v)| *v)
    };
    Ok((
        count("client.range_fetches"),
        count("home.ranges_noticed"),
        count("home.held_forwards"),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// On every paper pair (and, under `HDSM_SHARDS=3`, with entries,
    /// locks and the barrier homed on different shards): no accessor ever
    /// returns a value the sequential model does not, and the home ends on
    /// the model's bytes.
    #[test]
    fn race_free_programs_match_the_sequential_model_on_every_paper_pair(
        program in prop::collection::vec(raw_phase(), 2..7),
        sim_seed in any::<u64>(),
    ) {
        for pair in 0..paper_pairs().len() {
            let verdict = run_against_model(program.clone(), pair, sim_seed);
            prop_assert!(verdict.is_ok(), "pair {}, sim seed {:#x}: {}", pair, sim_seed, verdict.unwrap_err());
        }
    }
}

/// The programs above are only a check of fetch-before-use if they fetch:
/// over a fixed set of them, notices are sent and noticed ranges are read
/// — some of them from the writer that held them.
#[test]
fn random_programs_do_read_what_they_were_only_noticed_of() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::from_name("random_programs_do_read_what_they_were_only_noticed_of");
    let (mut fetches, mut notices, mut forwards) = (0, 0, 0);
    for _ in 0..8 {
        let program = prop::collection::vec(raw_phase(), 6..7).generate(&mut rng);
        let (f, n, h) = run_against_model(program, 2, rng.next_u64()).expect("matches the model");
        fetches += f;
        notices += n;
        forwards += h;
    }
    assert!(
        fetches > 0 && notices > 0 && forwards > 0,
        "{fetches} fetches, {notices} notices, {forwards} forwards"
    );
}

// ---------------------------------------------------------------------------
// Pipeline-vs-reference properties: compiled run plans and the parallel
// diff scan must be indistinguishable from the references they are pinned
// to (`convert_scalar_run`, the serial `diff_pages`).
// ---------------------------------------------------------------------------

use hdsm::memory::diff::{diff_pages, diff_pages_parallel};
use hdsm::memory::space::AddressSpace;
use hdsm::platform::endian::Endianness;
use hdsm::platform::scalar::ScalarClass;
use hdsm::tags::convert::{convert_scalar_run, ConversionStats};
use hdsm::tags::plan::RunPlan;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// Random (class, src/dst size, src/dst endian, count) over random
    /// source bytes: a lowered [`RunPlan`] must agree with
    /// `convert_scalar_run` on the verdict (representability errors
    /// included), the destination bytes and the [`ConversionStats`].
    #[test]
    fn run_plan_apply_matches_convert_scalar_run(
        class_sel in 0u8..4,
        s_sel in 0u8..4,
        d_sel in 0u8..4,
        se_big in any::<bool>(),
        de_big in any::<bool>(),
        count in 0u64..33,
        raw in prop::collection::vec(any::<u8>(), 8 * 32),
    ) {
        let class = [
            ScalarClass::Signed,
            ScalarClass::Unsigned,
            ScalarClass::Float,
            ScalarClass::Pointer,
        ][class_sel as usize];
        let widths: &[u32] = match class {
            ScalarClass::Float | ScalarClass::Pointer => &[4, 8],
            _ => &[1, 2, 4, 8],
        };
        let ss = widths[s_sel as usize % widths.len()];
        let ds = widths[d_sel as usize % widths.len()];
        let se = if se_big { Endianness::Big } else { Endianness::Little };
        let de = if de_big { Endianness::Big } else { Endianness::Little };
        let src = &raw[..(u64::from(ss) * count) as usize];
        let dst_len = (u64::from(ds) * count) as usize;

        let mut want = vec![0x55u8; dst_len];
        let mut want_stats = ConversionStats::default();
        let want_res =
            convert_scalar_run(src, ss, se, &mut want, ds, de, class, count, &mut want_stats);

        let plan = RunPlan::lower(class, ss, se, ds, de);
        let mut got = vec![0x55u8; dst_len];
        let mut got_stats = ConversionStats::default();
        let got_res = plan.apply(src, &mut got, count, &mut got_stats);

        // Debug strings: a float error may carry a NaN, which is not `==`.
        prop_assert_eq!(format!("{got_res:?}"), format!("{want_res:?}"));
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_stats, want_stats);
        prop_assert_eq!(plan.is_memcpy(), ss == ds && se == de);
    }

    /// Random dirty-byte patterns: the sharded parallel diff scan must
    /// return exactly the runs of the serial scan for any thread count.
    #[test]
    fn parallel_diff_scan_equals_serial(
        pages in 1usize..40,
        writes in prop::collection::vec((any::<u16>(), 1usize..16, any::<u8>()), 0..64),
        threads in 2usize..9,
    ) {
        const PAGE: usize = 256;
        const BASE: u64 = 0x8000;
        let len = pages * PAGE;
        let mut space = AddressSpace::new(BASE, len, PAGE);
        space.protect_all();
        for (off, wlen, val) in writes {
            let off = off as usize % len;
            let wlen = wlen.min(len - off);
            space.write(BASE + off as u64, &vec![val; wlen]).unwrap();
        }
        prop_assert_eq!(diff_pages_parallel(&space, threads), diff_pages(&space));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The home directory is a total function: every entry, lock, barrier
    /// and cond id maps to exactly one shard, always in range, and worker
    /// endpoints never collide with shard endpoints.
    #[test]
    fn directory_maps_every_id_to_exactly_one_shard(
        id in any::<u32>(),
        shards in 1u32..9,
        rank in 1u32..32,
    ) {
        use hdsm::dsd::Directory;
        let d = Directory::new(shards);
        for shard_of in [
            Directory::entry_shard,
            Directory::lock_shard,
            Directory::barrier_shard,
            Directory::cond_shard,
        ] {
            let owner = shard_of(&d, id);
            prop_assert!(owner < shards, "owner {owner} out of range");
            // Exactly one shard claims the id: the function is
            // deterministic, so "claims" means "equals the computed owner".
            let claimants = (0..shards).filter(|&s| shard_of(&d, id) == s).count();
            prop_assert_eq!(claimants, 1);
            // Re-evaluation agrees (pure function of (id, S)).
            prop_assert_eq!(owner, shard_of(&Directory::new(shards), id));
        }
        // Topology: shard s listens on endpoint s; worker rank r sits
        // above every shard endpoint.
        prop_assert!(d.shard_eps().all(|ep| ep < shards));
        prop_assert!(d.worker_ep(rank) >= shards);
        prop_assert_eq!(d.worker_ep(rank), shards + rank - 1);
    }
}
