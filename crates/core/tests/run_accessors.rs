//! The typed run accessors against the loop of scalar accessors they
//! replace: on every platform preset, for every scalar kind, an accepted
//! run leaves exactly what the loop leaves (values, bytes, faults, dirty
//! pages), and a rejected one fails the way the loop's first failing call
//! does — except that a rejected *write* run has stored nothing.

use hdsm_core::gthv::{GthvDef, GthvError, GthvInstance};
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::scalar::{ScalarClass, ScalarKind};
use hdsm_platform::spec::{Platform, PlatformSpec};
use proptest::prelude::*;

/// One array per scalar kind, long enough that runs straddle pages (the
/// structure spans a dozen 4 KiB pages), pointers last. Entry id = index
/// into `ScalarKind::ALL`.
fn def() -> GthvDef {
    let mut b = StructBuilder::new("AllKinds");
    for kind in ScalarKind::ALL {
        let len = if kind == ScalarKind::Ptr { 4 } else { 700 };
        b = b.array(format!("{kind:?}"), kind, len);
    }
    GthvDef::new(b.build().unwrap()).unwrap()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// An armed instance whose every byte is seeded noise.
fn noisy(platform: &Platform, seed: u64) -> GthvInstance {
    let mut g = GthvInstance::new(def(), platform.clone());
    let mut state = seed | 1;
    let noise: Vec<u8> = (0..g.space().len())
        .map(|_| xorshift(&mut state) as u8)
        .collect();
    let base = g.space().base();
    g.space_mut().write_untracked(base, &noise).unwrap();
    g.space_mut().reset_and_protect();
    g
}

/// `(faults, dirty pages, bytes)`: what a store leaves behind.
fn footprint(g: &GthvInstance) -> (u64, Vec<usize>, Vec<u8>) {
    let space = g.space();
    (
        space.stats().faults,
        space.dirty_pages().collect(),
        space.raw().to_vec(),
    )
}

/// A run to try: which entry, where in it, how long, through which
/// accessor family, and the seed of the values a write stores.
#[derive(Debug, Clone)]
struct Case {
    entry: u32,
    first: u64,
    len: usize,
    floats: bool,
    values: u64,
}

fn any_case() -> impl Strategy<Value = Case> {
    (
        // One past the last entry: no such entry.
        0..=ScalarKind::ALL.len() as u32,
        0..10u32,
        any::<u64>(),
        prop_oneof![0..4usize, 0..200usize, 0..1300usize],
        // The accessor family is right for the entry three times in four.
        0..4u32,
        any::<u64>(),
    )
        .prop_map(|(entry, place, r, len, family, values)| {
            let kind = ScalarKind::ALL.get(entry as usize).copied();
            let count = if kind == Some(ScalarKind::Ptr) {
                4
            } else {
                700
            };
            let first = match place {
                // Inside the entry (a long run from here leaves it).
                0..=6 => r % count,
                // Around its end.
                7 | 8 => count - 3 + r % 6,
                // Where `first + len` overflows.
                _ => u64::MAX - r % 2,
            };
            let float_entry = kind.is_some_and(|k| k.class() == ScalarClass::Float);
            Case {
                entry,
                first,
                len,
                floats: float_entry == (family != 0),
                values,
            }
        })
}

/// Integers for a write: each fits `size` bytes under `class`, except that
/// about one run in three holds one value that does not.
fn int_values(case: &Case, size: usize, class: ScalarClass) -> Vec<i128> {
    let mut state = case.values | 1;
    let bits = size as u32 * 8;
    let mut out: Vec<i128> = (0..case.len)
        .map(|_| {
            let raw = u128::from(xorshift(&mut state)) & ((1u128 << bits) - 1);
            if class == ScalarClass::Signed && raw >> (bits - 1) == 1 {
                raw as i128 - (1i128 << bits)
            } else {
                raw as i128
            }
        })
        .collect();
    if !out.is_empty() && xorshift(&mut state).is_multiple_of(3) {
        let at = xorshift(&mut state) as usize % out.len();
        out[at] = if xorshift(&mut state).is_multiple_of(2) {
            1i128 << bits
        } else {
            -(1i128 << bits) - 1
        };
    }
    out
}

fn float_values(case: &Case) -> Vec<f64> {
    let mut state = case.values | 1;
    (0..case.len)
        .map(|_| f64::from_bits(xorshift(&mut state)))
        .collect()
}

/// What a loop of one-element calls makes of the run: `Ok` when every call
/// passed, else the first error (the calls before it have happened).
fn scalar_loop(
    case: &Case,
    mut call: impl FnMut(u64, usize) -> Result<(), GthvError>,
) -> Result<(), GthvError> {
    (0..case.len).try_for_each(|k| call(case.first.wrapping_add(k as u64), k))
}

/// The contract of an empty run, which no scalar call can speak for: the
/// entry exists, is of the accessor's kind, and `first` is not past its end.
fn empty_run_ok(g: &GthvInstance, case: &Case) -> bool {
    g.table().row(case.entry).is_some_and(|row| {
        (row.kind.class() == ScalarClass::Float) == case.floats
            && row.kind != ScalarKind::Ptr
            && case.first <= row.count
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn read_runs_equal_the_scalar_loop(
        platform in prop::sample::select(PlatformSpec::presets()),
        case in any_case(),
        noise in any::<u64>(),
    ) {
        let g = noisy(&platform, noise);
        if case.floats {
            let mut run = vec![0.0f64; case.len];
            let got = g.read_floats(case.entry, case.first, &mut run);
            let mut looped = vec![0.0f64; case.len];
            let want = scalar_loop(&case, |elem, k| {
                looped[k] = g.read_float(case.entry, elem)?;
                Ok(())
            });
            if case.len == 0 {
                prop_assert_eq!(got.is_ok(), empty_run_ok(&g, &case));
            } else {
                prop_assert_eq!(&got, &want);
            }
            if got.is_ok() {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&run), bits(&looped));
            }
        } else {
            let mut run = vec![0i128; case.len];
            let got = g.read_ints(case.entry, case.first, &mut run);
            let mut looped = vec![0i128; case.len];
            let want = scalar_loop(&case, |elem, k| {
                looped[k] = g.read_int(case.entry, elem)?;
                Ok(())
            });
            if case.len == 0 {
                prop_assert_eq!(got.is_ok(), empty_run_ok(&g, &case));
            } else {
                prop_assert_eq!(&got, &want);
            }
            if got.is_ok() {
                prop_assert_eq!(run, looped);
            }
        }
        // Reads never fault.
        prop_assert_eq!(g.space().stats().faults, 0);
    }

    #[test]
    fn write_runs_equal_the_scalar_loop_or_store_nothing(
        platform in prop::sample::select(PlatformSpec::presets()),
        case in any_case(),
        noise in any::<u64>(),
    ) {
        let (mut run, mut looped) = (noisy(&platform, noise), noisy(&platform, noise));
        let pristine = footprint(&run);
        let (got, want) = if case.floats {
            let values = float_values(&case);
            (
                run.write_floats(case.entry, case.first, &values),
                scalar_loop(&case, |elem, k| looped.write_float(case.entry, elem, values[k])),
            )
        } else {
            // Sized for the entry when it is an integer one; any other
            // entry refuses the run before it looks at a value.
            let (size, class) = run
                .table()
                .row(case.entry)
                .filter(|row| row.kind.is_integer())
                .map_or((4, ScalarClass::Signed), |row| (row.size as usize, row.kind.class()));
            let values = int_values(&case, size, class);
            (
                run.write_ints(case.entry, case.first, &values),
                scalar_loop(&case, |elem, k| looped.write_int(case.entry, elem, values[k])),
            )
        };
        if case.len == 0 {
            prop_assert_eq!(got.is_ok(), empty_run_ok(&run, &case));
        } else {
            prop_assert_eq!(&got, &want);
        }
        if got.is_ok() {
            prop_assert_eq!(footprint(&run), footprint(&looped));
            // One tracked store call for the run, one per element for the loop.
            prop_assert_eq!(run.space().stats().writes, 1);
            prop_assert_eq!(looped.space().stats().writes, case.len as u64);
        } else {
            // Validated whole before the first store: unlike the loop, a
            // refused run has changed no byte and faulted no page.
            prop_assert_eq!(footprint(&run), pristine);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The strategy is only worth its name if it produces accepted runs,
    /// page-straddling ones, and each way of being refused.
    #[test]
    fn the_cases_reach_every_outcome(cases in prop::collection::vec(any_case(), 2000..2001)) {
        let g = noisy(&PlatformSpec::linux_x86(), 1);
        let (mut ok, mut straddling, mut no_entry, mut range, mut kind) = (0, 0, 0, 0, 0);
        for case in cases {
            let got = if case.floats {
                g.read_floats(case.entry, case.first, &mut vec![0.0; case.len])
            } else {
                g.read_ints(case.entry, case.first, &mut vec![0; case.len])
            };
            match got {
                Ok(()) => {
                    ok += 1;
                    let row = g.table().row(case.entry).unwrap();
                    let start = row.addr + case.first * u64::from(row.size) - g.space().base();
                    let end = start + case.len as u64 * u64::from(row.size);
                    if case.len > 0 && start / 4096 != (end - 1) / 4096 {
                        straddling += 1;
                    }
                }
                Err(GthvError::NoSuchEntry(_)) => no_entry += 1,
                Err(GthvError::ElemOutOfRange { .. }) => range += 1,
                Err(GthvError::KindMismatch { .. }) => kind += 1,
                Err(e) => panic!("reads fail in three ways, not {e}"),
            }
        }
        for (what, n) in [
            ("accepted", ok),
            ("page-straddling", straddling),
            ("no such entry", no_entry),
            ("out of range", range),
            ("wrong kind", kind),
        ] {
            prop_assert!(n >= 20, "only {} {} cases in 2000", n, what);
        }
    }
}
