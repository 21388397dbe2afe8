//! Pin the calling thread, and the threads it then spawns, to one CPU.
//!
//! On the sim fabric one actor runs at a time and every message is a
//! hand-off between two OS threads. Left to the scheduler, the hand-offs
//! sometimes cross cores, each one a wake-up of an idle virtual CPU:
//! measured on the 2-core sandbox, `lock_s3` ran 0.5 s or 2.2 s depending
//! on where the threads landed, and `jacobi_sl` 1.35 to 1.87 s unpinned
//! against 1.12 to 1.27 s pinned. The serialised cost of all ranks is
//! the quantity the end-to-end numbers report, so cluster runs on the
//! sim fabric are pinned; the measurements of real concurrency are not.

/// Enough words for 1024 CPUs, the size of glibc's `cpu_set_t`.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the
    // `size_of_val(&mask)` bytes the call is told it may fill; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of the `size_of_val(mask)` bytes
    // the call is told to read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &Mask) -> bool {
    false
}

/// Restores the previous affinity when dropped.
pub struct Pinned {
    before: Option<Mask>,
}

/// Pin to the highest-numbered CPU this thread may use (CPU 0 takes most
/// interrupts). Where the platform refuses, the run goes on unpinned and
/// [`Pinned::is_pinned`] says so.
pub fn pin_to_one_cpu() -> Pinned {
    let before = get().and_then(|all| {
        let word = all.iter().rposition(|w| *w != 0)?;
        let mut one: Mask = [0; 16];
        one[word] = 1 << (63 - all[word].leading_zeros());
        set(&one).then_some(all)
    });
    Pinned { before }
}

impl Pinned {
    pub fn is_pinned(&self) -> bool {
        self.before.is_some()
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(all) = &self.before {
            set(all);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_allowed_cpu_and_restores() {
        let all = get().expect("affinity readable");
        {
            let p = pin_to_one_cpu();
            assert!(p.is_pinned());
            let one = get().unwrap();
            assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert!(one.iter().zip(&all).all(|(o, a)| o & a == *o));
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        }
        assert_eq!(get().unwrap(), all);
    }
}
