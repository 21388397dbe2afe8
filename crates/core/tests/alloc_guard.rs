//! Allocation guard for the store → `UpdateRange` → frame → apply path: a
//! tracked store is a bounds check, an encode into a stack buffer and a
//! copy, the release scan and `map_runs` allocate their output vector and
//! nothing per element, page or run, and a batch is one frame from
//! extraction to apply — written, enveloped,
//! validated and applied with a handful of allocations whatever the number
//! of updates. A client's store adds to its write set in place: a store
//! loop allocates per row it writes, not per store, and a strided row it
//! takes in leaves its sets in one cut. A counting global allocator holds
//! all of it to that.

use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_core::ids::BarrierId;
use hdsm_core::protocol::DsdMsg;
use hdsm_core::runs::{map_runs, scan_ranges, UpdateRange};
use hdsm_core::update::{apply_batch, extract_updates};
use hdsm_core::{ClusterBuilder, DsdError, TopologyConfig};
use hdsm_memory::diff::DiffRun;
use hdsm_net::FabricMode;
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::ConversionStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread; the test
    /// harness's other threads do not disturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const CALLS: u64 = 10_000;

fn instance() -> GthvInstance {
    instance_on(PlatformSpec::linux_x86())
}

fn instance_on(platform: Platform) -> GthvInstance {
    let def = StructBuilder::new("G")
        .array("grid", ScalarKind::Double, 2 * CALLS as usize)
        .array("counts", ScalarKind::Int, CALLS as usize)
        .build()
        .unwrap();
    GthvInstance::new(GthvDef::new(def).unwrap(), platform)
}

#[test]
fn stores_and_loads_on_faulted_pages_do_not_allocate() {
    let mut g = instance();
    g.space_mut().protect_all();
    // First touch of every page: the fault handler allocates the twins.
    for e in 0..CALLS {
        g.write_float(0, e, 1.0).unwrap();
        g.write_int(1, e, 1).unwrap();
    }
    let (n, sum) = allocations(|| {
        let mut sum = 0.0;
        for e in 0..CALLS {
            g.write_float(0, e, e as f64).unwrap();
            g.write_int(1, e, e as i128).unwrap();
            sum += g.read_float(0, e).unwrap();
        }
        sum
    });
    assert_eq!(sum, (CALLS * (CALLS - 1) / 2) as f64);
    assert_eq!(n, 0, "{n} allocations in {CALLS} stores and loads");
}

#[test]
fn the_release_scan_allocates_its_output_and_nothing_per_element_or_page() {
    // A stripe rewritten whole: all of `grid` and the head of `counts`,
    // 43 pages of 4 KiB (a `jacobi` interval at n = 255), two ranges.
    let mut g = instance();
    g.space_mut().protect_all();
    let ints = (43 * 4096 - 8 * 2 * CALLS) / 4;
    for e in 0..2 * CALLS {
        g.write_float(0, e, e as f64 + 0.5).unwrap();
    }
    for e in 0..ints {
        g.write_int(1, e, e as i128 + 1).unwrap();
    }
    assert_eq!(g.space().dirty_count(), 43);
    let (n, ranges) = allocations(|| scan_ranges(g.table(), g.space()));
    let range = |entry, count| UpdateRange::new(entry, 0, count);
    assert_eq!(ranges, [range(0, 2 * CALLS), range(1, ints)]);
    assert!(n <= 8, "{n} allocations to scan 43 rewritten pages");

    // SOR's shape: every other element, so that no range joins the last.
    let mut g = instance();
    g.space_mut().protect_all();
    for k in 0..CALLS {
        g.write_float(0, 2 * k, k as f64 + 0.5).unwrap();
    }
    let (n, ranges) = allocations(|| scan_ranges(g.table(), g.space()));
    assert_eq!(ranges.len(), CALLS as usize);
    // Doubling from 4 to 16 384 slots is 13 (re)allocations.
    assert!(n <= 16, "{n} allocations for {CALLS} one-element ranges");
}

#[test]
fn map_runs_allocates_its_output_and_nothing_per_run() {
    let g = instance();
    let grid = g.table().row(0).unwrap();
    // Every other element, so that no range folds into the one before it.
    let runs: Vec<DiffRun> = (0..CALLS)
        .map(|k| DiffRun {
            addr: grid.elem_addr(2 * k),
            len: 3,
        })
        .collect();
    let (n, mapped) = allocations(|| map_runs(g.table(), &runs));
    assert_eq!(mapped.len(), runs.len());
    // Doubling from 4 to 16 384 slots is 13 (re)allocations.
    assert!(n <= 16, "{n} allocations for {CALLS} runs");
}

#[test]
fn a_batch_costs_a_few_allocations_from_extraction_to_apply_not_one_per_update() {
    let mut sender = instance();
    for k in 0..CALLS {
        sender.write_float(0, 2 * k, k as f64 + 0.5).unwrap();
    }
    // SOR's shape: every other element, so that no range joins the last.
    let ranges: Vec<UpdateRange> = (0..CALLS).map(|k| UpdateRange::new(0, 2 * k, 1)).collect();

    // The release: the frame (buffer + reference count), then the message
    // that carries it (the same again).
    let (n, (payload, kind)) = allocations(|| {
        let updates = extract_updates(&sender, &ranges).unwrap();
        assert_eq!(updates.len(), CALLS as usize);
        let msg = DsdMsg::BarrierEnter {
            barrier: 0,
            rank: 2,
            updates,
        };
        (msg.encode_enveloped(1), msg.kind())
    });
    assert!(
        n <= 8,
        "{n} allocations to extract and encode {CALLS} updates"
    );

    // The acquire on the opposite byte order: the batch is a slice of the
    // payload, and every run is swapped straight into the address space.
    let mut receiver = instance_on(PlatformSpec::solaris_sparc());
    let mut stats = ConversionStats::default();
    let (n, batch) = allocations(|| {
        let (_, msg) = DsdMsg::decode_enveloped(kind, payload.clone()).unwrap();
        let DsdMsg::BarrierEnter { updates, .. } = msg else {
            panic!("decoded {msg:?}");
        };
        let tally = apply_batch(&mut receiver, &updates, &mut stats).unwrap();
        assert_eq!(tally, (0, CALLS, 0));
        updates
    });
    assert!(
        n <= 8,
        "{n} allocations to decode and apply {CALLS} updates"
    );
    assert_eq!(stats.scalars_swapped, CALLS);
    for k in [0, 1, CALLS - 1] {
        assert_eq!(receiver.read_float(0, 2 * k).unwrap(), k as f64 + 0.5);
    }

    let (n, copy) = allocations(|| batch.clone());
    assert_eq!(n, 0, "{n} allocations to clone a batch");
    assert_eq!(copy, batch);
}

#[test]
fn a_lock_sized_release_allocates_its_row_table_and_an_empty_one_nothing() {
    // What a lock section ships: one group of one row of one element,
    // decoded and applied on the opposite byte order. The frame is a
    // slice of the payload and the swap goes straight into the space, so
    // the row table is all that is allocated: the vector the check
    // decodes into, sized once, and the reference count that shares it.
    // A release with nothing to ship keeps no table.
    let mut sender = instance();
    sender.write_int(1, 7, 42).unwrap();
    let mut receiver = instance_on(PlatformSpec::solaris_sparc());
    let mut stats = ConversionStats::default();
    for (count, bound) in [(1, 2), (0, 0)] {
        let ranges: Vec<UpdateRange> = (0..count).map(|_| UpdateRange::new(1, 7, 1)).collect();
        let updates = extract_updates(&sender, &ranges).unwrap();
        let msg = DsdMsg::UnlockRequest {
            lock: 0,
            rank: 2,
            updates,
        };
        let (payload, kind) = (msg.encode_enveloped(1), msg.kind());
        let mut decode_and_apply = || {
            let (_, msg) = DsdMsg::decode_enveloped(kind, payload.clone()).unwrap();
            let DsdMsg::UnlockRequest { updates, .. } = msg else {
                panic!("decoded {msg:?}");
            };
            apply_batch(&mut receiver, &updates, &mut stats).unwrap()
        };
        // The first apply lowers the conversion plan; every later one
        // finds it.
        assert_eq!(decode_and_apply(), (0, count, 0));
        let (n, tally) = allocations(&mut decode_and_apply);
        assert_eq!(tally, (0, count, 0));
        assert!(
            n <= bound,
            "{n} allocations to decode and apply {count} one-element update"
        );
    }
    assert_eq!(receiver.read_int(1, 7).unwrap(), 42);
}

#[test]
fn a_clients_store_loops_allocate_per_row_not_per_store() {
    // One worker's stripe of a 255 × 255 grid: 84 rows of one red-black
    // colour, then 84 further rows' interiors stored densely in ascending
    // order. Each grows its write set by one row per grid row.
    const N: u64 = 255;
    const ROWS: u64 = 84;
    let def = StructBuilder::new("G")
        .array("grid", ScalarKind::Double, (N * N) as usize)
        .build()
        .unwrap();
    let sim = TopologyConfig {
        fabric: FabricMode::Sim { seed: 1 },
        ..Default::default()
    };
    let outcome = ClusterBuilder::new()
        .gthv(GthvDef::new(def).unwrap())
        .topology(sim)
        .worker(PlatformSpec::linux_x86())
        .run(|c, _| {
            c.barrier(BarrierId::new(0))?;
            let (colour, stored) = allocations(|| {
                for i in 1..=ROWS {
                    for j in (1..N - 1).filter(|j| (i + j) % 2 == 0) {
                        c.write_float(0, i * N + j, 1.0)?;
                    }
                }
                Ok::<_, DsdError>(())
            });
            stored?;
            let (dense, stored) = allocations(|| {
                for i in ROWS + 1..=2 * ROWS {
                    for j in 1..N - 1 {
                        c.write_float(0, i * N + j, 2.0)?;
                    }
                }
                Ok::<_, DsdError>(())
            });
            stored?;
            Ok((colour, dense))
        })
        .expect("the worker ran its loops");
    let (colour, dense) = outcome.results[0];
    // Doubling from 4 to 128 rows is 6 (re)allocations; the dense loop
    // finds the colour's capacity and doubles it once.
    assert!(
        colour <= 8,
        "{colour} allocations for one colour of {ROWS} rows"
    );
    assert!(dense <= 8, "{dense} allocations for {ROWS} dense rows");
}

#[test]
fn a_fetched_colour_leaves_the_stale_set_per_row_not_per_element() {
    // Worker 0 reads ROWS rows of a 255-wide grid while worker 1 writes
    // one red-black colour of them and holds it: worker 1's ship list
    // predates worker 0's reads. Each held element is noticed to worker 0,
    // so its stale set is the colour. Worker 0 then reads the rows again:
    // the fetch's reply brings the colour as one strided row per grid row,
    // and each row leaves the stale set in one cut. Taken out element by
    // element, as the apply walk once did, that read cost 24 236
    // allocations (30 now).
    const N: u64 = 255;
    const ROWS: u64 = 32;
    let def = StructBuilder::new("G")
        .array("grid", ScalarKind::Double, (N * N) as usize)
        .build()
        .unwrap();
    let sim = TopologyConfig {
        fabric: FabricMode::Sim { seed: 1 },
        ..Default::default()
    };
    let colour = |i: u64| (1..N - 1).filter(move |j| (i + j).is_multiple_of(2));
    let barrier = BarrierId::new(0);
    let outcome = ClusterBuilder::new()
        .gthv(GthvDef::new(def).unwrap())
        .topology(sim)
        .worker(PlatformSpec::linux_x86())
        .worker(PlatformSpec::linux_x86())
        .run(|c, info| {
            let mut rows = vec![0.0; (ROWS * N) as usize];
            c.barrier(barrier)?;
            if info.index == 0 {
                c.read_float(0, 0)?; // what worker 1 ships at its next entry
            }
            c.barrier(barrier)?;
            match info.index {
                0 => c.read_floats(0, N, &mut rows)?,
                _ => (1..=ROWS)
                    .flat_map(|i| colour(i).map(move |j| i * N + j))
                    .try_for_each(|e| c.write_float(0, e, 7.0))?,
            }
            c.barrier(barrier)?;
            let (n, read) = allocations(|| c.read_floats(0, N, &mut rows));
            read?;
            Ok((n, rows[colour(1).next().unwrap() as usize]))
        })
        .expect("the workers ran");
    let (n, seen) = outcome.results[0];
    assert_eq!(seen, 7.0, "worker 0 read the colour");
    assert!(n <= 2 * ROWS, "{n} allocations for a colour of {ROWS} rows");
}

#[test]
fn a_red_black_colour_is_gathered_and_swapped_per_frame_not_per_row_or_element() {
    // A Linux worker releases one red-black colour of 32 rows of a
    // 255-wide grid (32 strided rows, 4 048 elements) and a Solaris home
    // applies it, byte-swapped. The gather allocates the frame and its row
    // table, each a buffer and the count that shares it, and the apply
    // swaps each row into its hull and allocates nothing: neither
    // allocates per row or per element. The parent, which gathered and
    // applied element by element, made the same 4 and 0.
    const N: u64 = 255;
    const ROWS: u64 = 32;
    let def = StructBuilder::new("G")
        .array("grid", ScalarKind::Double, (N * N) as usize)
        .build()
        .unwrap();
    let def = GthvDef::new(def).unwrap();
    let mut sender = GthvInstance::new(def.clone(), PlatformSpec::linux_x86());
    let colour: Vec<UpdateRange> = (1..=ROWS)
        .map(|i| {
            let first = 1 + (i + 1) % 2;
            let count = (N - 2 - first) / 2 + 1;
            UpdateRange::row(0, (i * N + first, count, 2))
        })
        .collect();
    let elems: u64 = colour.iter().map(|r| r.count).sum();
    for r in &colour {
        for k in 0..r.count {
            let e = r.first + k * r.stride;
            sender.write_float(0, e, e as f64 + 0.25).unwrap();
        }
    }
    let (n, updates) = allocations(|| extract_updates(&sender, &colour).unwrap());
    let rows: usize = updates.groups().map(|g| g.rows().len()).sum();
    assert_eq!((rows, updates.len() as u64), (ROWS as usize, elems));
    assert!(n <= 4, "{n} allocations to gather {ROWS} strided rows");

    // The first apply lowers the conversion plan; every later one finds it.
    let mut home = GthvInstance::new(def, PlatformSpec::solaris_sparc());
    let mut stats = ConversionStats::default();
    apply_batch(&mut home, &updates, &mut stats).unwrap();
    let (n, tally) = allocations(|| apply_batch(&mut home, &updates, &mut stats).unwrap());
    assert_eq!(tally, (0, elems, 0));
    assert_eq!(n, 0, "{n} allocations to apply {ROWS} strided rows");
    assert_eq!(stats.scalars_swapped, 2 * elems);
    for e in [N + 1, N + 3, ROWS * N + 252] {
        assert_eq!(home.read_float(0, e).unwrap(), e as f64 + 0.25);
    }
    assert_eq!(home.read_float(0, N + 2).unwrap(), 0.0);
}
