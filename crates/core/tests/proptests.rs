//! Property tests for the DSD core: the update pipeline
//! (diff → index ranges → wire → receiver-makes-right apply) must carry
//! arbitrary write patterns faithfully between arbitrary platform pairs.
//!
//! Ranges come from `abstract_diffs(diff_pages(..))`, the paper-literal
//! byte-granular route, on purpose: it is the path independent of the
//! client's `scan_ranges` (which `runs`' own tests hold to it), so a defect
//! in the fused scan cannot hide here behind itself.

use bytes::Bytes;
use hdsm_core::gthv::{GthvDef, GthvInstance};
use hdsm_core::runs::{abstract_diffs, UpdateRange};
use hdsm_core::update::{apply_batch, extract_updates, UpdateError, PTR_ELEM_BITS};
use hdsm_memory::diff::diff_pages;
use hdsm_platform::ctype::StructBuilder;
use hdsm_platform::endian::{fits_uint, read_uint, write_uint};
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::{convert_scalar_run, ConversionStats};
use hdsm_tags::generate::tag_for_scalar_run;
use hdsm_tags::wire::reference::{pack_grouped, run_shape, unpack_updates, updates_of, WireUpdate};
use hdsm_tags::wire::{pack_batch_fast, unpack_batch};
use proptest::prelude::*;

const INTS: u64 = 200;
const DOUBLES: u64 = 40;
const PTRS: u64 = 4;
const LONGS: u64 = 6;

fn def() -> GthvDef {
    GthvDef::new(
        StructBuilder::new("G")
            .array("xs", ScalarKind::Int, INTS as usize)
            .array("fs", ScalarKind::Double, DOUBLES as usize)
            .array("ps", ScalarKind::Ptr, PTRS as usize)
            .scalar("tail", ScalarKind::Short)
            .array("ls", ScalarKind::Long, LONGS as usize)
            .build()
            .unwrap(),
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum W {
    Int(u64, i32),
    Float(u64, f32),
    Ptr(u64, Option<u64>),
    Tail(i16),
}

fn any_write() -> impl Strategy<Value = W> {
    prop_oneof![
        (0..INTS, any::<i32>()).prop_map(|(e, v)| W::Int(e, v)),
        (
            0..DOUBLES,
            any::<f32>().prop_filter("finite", |f| f.is_finite())
        )
            .prop_map(|(e, v)| W::Float(e, v)),
        (0..PTRS, prop::option::of(0..INTS)).prop_map(|(e, v)| W::Ptr(e, v)),
        any::<i16>().prop_map(W::Tail),
    ]
}

fn any_platform() -> impl Strategy<Value = Platform> {
    prop::sample::select(PlatformSpec::presets())
}

fn apply_writes(g: &mut GthvInstance, writes: &[W]) {
    for w in writes {
        match w {
            W::Int(e, v) => g.write_int(0, *e, *v as i128).unwrap(),
            W::Float(e, v) => g.write_float(1, *e, *v as f64).unwrap(),
            W::Ptr(e, None) => g.write_ptr(2, *e, None).unwrap(),
            W::Ptr(e, Some(t)) => g.write_ptr(2, *e, Some((0, *t))).unwrap(),
            W::Tail(v) => g.write_int(3, 0, *v as i128).unwrap(),
        }
    }
}

fn logical_equal(a: &GthvInstance, b: &GthvInstance) -> bool {
    for e in 0..INTS {
        if a.read_int(0, e).unwrap() != b.read_int(0, e).unwrap() {
            return false;
        }
    }
    for e in 0..DOUBLES {
        if a.read_float(1, e).unwrap() != b.read_float(1, e).unwrap() {
            return false;
        }
    }
    for e in 0..PTRS {
        if a.read_ptr(2, e).unwrap() != b.read_ptr(2, e).unwrap() {
            return false;
        }
    }
    a.read_int(3, 0).unwrap() == b.read_int(3, 0).unwrap()
}

/// Extraction as it was when a batch was a `Vec<WireUpdate>`: one owned
/// update per range, payload copied out (pointers swizzled) — the oracle
/// the direct frame writer is held to.
fn reference_extract(
    gthv: &GthvInstance,
    ranges: &[UpdateRange],
) -> Result<Vec<WireUpdate>, UpdateError> {
    let endian = gthv.platform().endian;
    let mut out = Vec::new();
    for r in ranges {
        let row = gthv
            .table()
            .row(r.entry)
            .ok_or(UpdateError::NoSuchEntry(r.entry))?;
        if r.first + r.count > row.count {
            return Err(UpdateError::RangeOutOfBounds {
                entry: r.entry,
                first: r.first,
                count: r.count,
                available: row.count,
            });
        }
        let s = row.size as usize;
        let mut data = gthv
            .space()
            .read(row.elem_addr(r.first), s * r.count as usize)?
            .to_vec();
        if row.kind == ScalarKind::Ptr {
            for word in data.chunks_exact_mut(s) {
                let addr = read_uint(word, endian) as u64;
                let portable = match addr {
                    0 => 0,
                    _ => {
                        let (entry, elem) = gthv.table().locate(addr).ok_or_else(|| {
                            UpdateError::BadPointer(format!(
                                "address {addr:#x} is not in the shared region"
                            ))
                        })?;
                        1 + ((u64::from(entry) << PTR_ELEM_BITS) | elem)
                    }
                };
                write_uint(u128::from(portable), word, endian);
            }
        }
        out.push(WireUpdate {
            entry: r.entry,
            elem_offset: r.first,
            endian,
            tag: tag_for_scalar_run(row.kind, row.size, r.count),
            data: Bytes::from(data),
        });
    }
    Ok(out)
}

/// Apply as it was: every decision per update, every update converted
/// into a buffer of its own by the reference run conversion and stored
/// whole. Returns the per-kind tally `apply_batch` returns.
fn reference_apply(
    gthv: &mut GthvInstance,
    updates: &[WireUpdate],
    stats: &mut ConversionStats,
) -> Result<(u64, u64, u64), UpdateError> {
    let mut tally = (0, 0, 0);
    let local = gthv.platform().endian;
    for u in updates {
        let row = gthv
            .table()
            .row(u.entry)
            .ok_or(UpdateError::NoSuchEntry(u.entry))?
            .clone();
        let (src_size, count, is_ptr) = run_shape(&u.tag).expect("extracted tags are runs");
        let count = u64::from(count);
        if (row.kind == ScalarKind::Ptr) != is_ptr {
            return Err(UpdateError::KindMismatch { entry: u.entry });
        }
        if u.elem_offset + count > row.count {
            return Err(UpdateError::RangeOutOfBounds {
                entry: u.entry,
                first: u.elem_offset,
                count,
                available: row.count,
            });
        }
        let d = row.size as usize;
        let mut native = vec![0u8; d * count as usize];
        if is_ptr {
            for (src, dst) in u
                .data
                .chunks_exact(src_size as usize)
                .zip(native.chunks_exact_mut(d))
            {
                let addr = match read_uint(src, u.endian) as u64 {
                    0 => 0,
                    portable => {
                        let v = portable - 1;
                        let (entry, elem) =
                            ((v >> PTR_ELEM_BITS) as u32, v & ((1 << PTR_ELEM_BITS) - 1));
                        match gthv.table().row(entry) {
                            Some(target) if elem < target.count => target.elem_addr(elem),
                            _ => return Err(UpdateError::BadPointer(String::new())),
                        }
                    }
                };
                if !fits_uint(u128::from(addr), d) {
                    return Err(UpdateError::BadPointer(String::new()));
                }
                write_uint(u128::from(addr), dst, local);
                stats.scalars_converted += 1;
            }
            tally.2 += 1;
        } else {
            convert_scalar_run(
                &u.data,
                src_size,
                u.endian,
                &mut native,
                row.size,
                local,
                row.kind.class(),
                count,
                stats,
            )?;
            if src_size == row.size && u.endian == local {
                tally.0 += 1;
            } else {
                tally.1 += 1;
            }
        }
        gthv.space_mut()
            .write_untracked(row.elem_addr(u.elem_offset), &native)?;
    }
    Ok(tally)
}

fn entry_len(entry: u32) -> u64 {
    [INTS, DOUBLES, PTRS, 1, LONGS][entry as usize]
}

/// Range sets of every shape a release produces and some it does not:
/// clipped single ranges in any order, strided one-element ranges that
/// cannot coalesce, whole entries, entry switches, the empty set.
fn any_ranges() -> impl Strategy<Value = Vec<UpdateRange>> {
    let range = |entry, first, count| UpdateRange::new(entry, first, count);
    let one = (0u32..5, 0u64..INTS, 1u64..50).prop_map(move |(entry, first, count)| {
        let first = first % entry_len(entry);
        vec![range(entry, first, count.min(entry_len(entry) - first))]
    });
    let strided =
        (0u32..2, 0u64..20, 2u64..5, 1u64..40).prop_map(move |(entry, start, stride, n)| {
            (0..n)
                .map(|k| range(entry, start + k * stride, 1))
                .filter(|r| r.first < entry_len(entry))
                .collect()
        });
    let whole = (0u32..5).prop_map(move |entry| vec![range(entry, 0, entry_len(entry))]);
    prop::collection::vec(prop_oneof![one, strided, whole], 0..6).prop_map(|sets| sets.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The direct frame writer against extract → `Vec<WireUpdate>` →
    /// grouped pack, and the in-place group walk against per-update apply
    /// through `convert_scalar_run`: the same frame byte for byte, the same
    /// views update for update, the same destination bytes,
    /// `ConversionStats` and tally — or the same error, with the same
    /// bytes already written — on every platform pair (LL, SL, SS, the
    /// 64-bit presets, narrowing longs and pointers included).
    #[test]
    fn frame_writer_and_group_walk_match_the_reference(
        writes in prop::collection::vec(any_write(), 0..40),
        longs in prop::collection::vec((0..LONGS, any::<i64>()), 0..4),
        dangling in prop::option::of((0..PTRS, 1u64..0xffff)),
        mut ranges in any_ranges(),
        spoil in 0u32..12,
        src_p in any_platform(),
        dst_p in any_platform(),
    ) {
        // Now and then, a range past its entry's end or of no entry (on
        // its own: the writer checks every range before it reads any
        // pointer, so of a bad range *after* a dangling pointer it reports
        // the range, where the reference reports the pointer).
        let dangling = dangling.filter(|_| spoil > 1);
        match spoil {
            0 => ranges.push(UpdateRange::new(9, 0, 1)),
            1 => ranges.push(UpdateRange::new(1, DOUBLES - 1, 2)),
            _ => {}
        }
        let mut src = GthvInstance::new(def(), src_p);
        apply_writes(&mut src, &writes);
        for (e, v) in longs {
            // A value an ILP32 sender cannot hold is simply not written.
            let _ = src.write_int(4, e, i128::from(v >> (e * 8)));
        }
        if let Some((slot, junk)) = dangling {
            // A pointer into nowhere: below the shared region's base.
            let row = src.table().row(2).unwrap();
            let (addr, size) = (row.elem_addr(slot), row.size as usize);
            let mut word = [0u8; 8];
            write_uint(u128::from(junk), &mut word[..size], src.platform().endian);
            src.space_mut().write_untracked(addr, &word[..size]).unwrap();
        }

        let batch = match (extract_updates(&src, &ranges), reference_extract(&src, &ranges)) {
            (Ok(batch), Ok(us)) => {
                prop_assert_eq!(batch.frame(), &pack_grouped(&us));
                prop_assert_eq!(&updates_of(&batch), &us);
                prop_assert_eq!(&unpack_updates(batch.frame().clone()).unwrap(), &us);
                prop_assert_eq!(batch.len(), us.len());
                let bytes: usize = us.iter().map(|u| u.data.len()).sum();
                prop_assert_eq!(batch.payload_bytes(), bytes as u64);
                prop_assert_eq!(&unpack_batch(batch.frame().clone()).unwrap(), &batch);
                batch
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(got, want);
                return Ok(());
            }
            (got, want) => {
                prop_assert!(false, "writer {:?}, reference {:?}", got.map(|b| b.len()), want);
                unreachable!()
            }
        };

        let mut got = GthvInstance::new(def(), dst_p.clone());
        let mut want = GthvInstance::new(def(), dst_p.clone());
        let (mut got_stats, mut want_stats) = Default::default();
        let got_tally = apply_batch(&mut got, &batch, &mut got_stats);
        let want_tally = reference_apply(&mut want, &updates_of(&batch), &mut want_stats);
        // A refused batch stores and counts nothing.
        if want_tally.is_err() {
            (want, want_stats) = (GthvInstance::new(def(), dst_p), Default::default());
        }
        match (got_tally, want_tally) {
            (Ok(g), Ok(w)) => prop_assert_eq!(g, w),
            (Err(UpdateError::BadPointer(_)), Err(UpdateError::BadPointer(_))) => {}
            (g, w) => prop_assert_eq!(g, w),
        }
        prop_assert_eq!(got.space().raw(), want.space().raw());
        prop_assert_eq!(got_stats, want_stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// diff → ranges → extract → pack → unpack → apply moves exactly the
    /// written state from a src platform to a dst platform.
    #[test]
    fn pipeline_transfers_arbitrary_writes(
        writes in prop::collection::vec(any_write(), 1..40),
        src_p in any_platform(),
        dst_p in any_platform(),
    ) {
        let mut src = GthvInstance::new(def(), src_p);
        src.space_mut().protect_all();
        apply_writes(&mut src, &writes);

        let ranges = abstract_diffs(src.table(), &diff_pages(src.space()));
        let ups = extract_updates(&src, &ranges).unwrap();
        let unpacked = unpack_batch(pack_batch_fast(&ups)).unwrap();

        let mut dst = GthvInstance::new(def(), dst_p);
        let mut stats = ConversionStats::default();
        apply_batch(&mut dst, &unpacked, &mut stats).unwrap();
        prop_assert!(logical_equal(&src, &dst));
    }

    /// Ranges produced by abstraction are sorted, disjoint and in bounds.
    #[test]
    fn abstracted_ranges_are_well_formed(
        writes in prop::collection::vec(any_write(), 0..40),
    ) {
        let p = PlatformSpec::solaris_sparc();
        let mut g = GthvInstance::new(def(), p);
        g.space_mut().protect_all();
        apply_writes(&mut g, &writes);
        let ranges = abstract_diffs(g.table(), &diff_pages(g.space()));
        let mut prev: Option<UpdateRange> = None;
        for r in &ranges {
            let row = g.table().row(r.entry).unwrap();
            prop_assert!(r.count >= 1);
            prop_assert!(r.first + r.count <= row.count);
            if let Some(p) = prev {
                prop_assert!(
                    p.entry < r.entry || (p.entry == r.entry && p.end() < r.first),
                    "ranges not sorted/disjoint: {:?} then {:?}", p, r
                );
            }
            prev = Some(*r);
        }
    }

    /// Re-extracting and re-applying the same updates is idempotent.
    #[test]
    fn apply_is_idempotent(
        writes in prop::collection::vec(any_write(), 1..20),
    ) {
        let mut src = GthvInstance::new(def(), PlatformSpec::linux_x86());
        src.space_mut().protect_all();
        apply_writes(&mut src, &writes);
        let ranges = abstract_diffs(src.table(), &diff_pages(src.space()));
        let ups = extract_updates(&src, &ranges).unwrap();
        let mut dst = GthvInstance::new(def(), PlatformSpec::linux_arm());
        let mut stats = ConversionStats::default();
        apply_batch(&mut dst, &ups, &mut stats).unwrap();
        let snapshot = dst.space().raw().to_vec();
        apply_batch(&mut dst, &ups, &mut stats).unwrap();
        prop_assert_eq!(dst.space().raw(), &snapshot[..]);
    }
}
