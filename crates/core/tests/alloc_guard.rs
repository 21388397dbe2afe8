//! Allocation guard for the store → `UpdateRange` path: a tracked store
//! is a bounds check, an encode into a stack buffer and a copy, and
//! `map_runs` allocates its output vector and nothing per run. A counting
//! global allocator holds both to that.

use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_core::runs::map_runs;
use hdsm_memory::diff::DiffRun;
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::PlatformSpec;
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
    let def = StructBuilder::new("G")
        .array("grid", ScalarKind::Double, 2 * CALLS as usize)
        .array("counts", ScalarKind::Int, CALLS as usize)
        .build()
        .unwrap();
    GthvInstance::new(GthvDef::new(def).unwrap(), PlatformSpec::linux_x86())
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
