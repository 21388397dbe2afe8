//! Update extraction and application.
//!
//! The releaser side turns coalesced [`UpdateRange`]s into [`WireUpdate`]
//! frames: a CGT-RMR tag plus the raw bytes of the modified elements, in
//! the sender's native format. The applier side is receiver-makes-right:
//! identical tag + endianness → `memcpy`; otherwise per-element conversion
//! (paper §4.1, Figure 5).
//!
//! **Pointers** get special treatment in both directions (paper §4: "with
//! each index then, it is straightforward to map the index to a memory
//! address and vice-versa"): a pointer stored in the shared region is a
//! native simulated address, meaningless on another node, so the extractor
//! *swizzles* each pointer to a portable `(entry, element)` index form and
//! the applier maps it back to a local address through its own index
//! table. Pointer updates therefore never take the memcpy fast path.

use crate::gthv::GthvInstance;
use crate::runs::UpdateRange;
use bytes::Bytes;
use hdsm_platform::endian::{fits_uint, read_uint, write_uint};
use hdsm_platform::scalar::{ScalarClass, ScalarKind};
use hdsm_tags::convert::{ConversionError, ConversionStats};
use hdsm_tags::generate::tag_for_scalar_run;
use hdsm_tags::plan::RunPlan;
use hdsm_tags::tag::TagItem;
use hdsm_tags::wire::WireUpdate;
use std::fmt;

/// Bits of the portable pointer word reserved for the element index.
/// A portable pointer is `0` (NULL) or `1 + (entry << 24 | elem)`; the
/// `+1` bias keeps NULL all-zeros. 24 bits of element index covers the
/// paper's largest arrays (56 169 elements) with ample margin, and the
/// whole word still fits a 4-byte pointer (entry < 127).
pub const PTR_ELEM_BITS: u32 = 24;

/// How an update was applied — exposed so tests and benches can verify
/// the paper's fast-path claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// Homogeneous memcpy fast path.
    Memcpy,
    /// Full receiver-makes-right conversion.
    Converted,
    /// Pointer unswizzling (always element-by-element).
    PointerTranslated,
}

/// Errors from update extraction/application.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// Entry id not present in the table.
    NoSuchEntry(u32),
    /// Element range exceeds the entry.
    RangeOutOfBounds {
        /// Offending entry.
        entry: u32,
        /// First element requested.
        first: u64,
        /// Elements requested.
        count: u64,
        /// Elements available.
        available: u64,
    },
    /// Update tag is not a single scalar/pointer run.
    BadTagShape(String),
    /// Tag scalar kind (pointer vs data) disagrees with the entry.
    KindMismatch {
        /// Entry id.
        entry: u32,
    },
    /// A pointer value could not be swizzled (dangling address) or
    /// unswizzled (bad index).
    BadPointer(String),
    /// Underlying conversion failure.
    Conversion(ConversionError),
    /// Underlying memory failure.
    Mem(hdsm_memory::space::MemError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::NoSuchEntry(e) => write!(f, "no entry {e}"),
            UpdateError::RangeOutOfBounds {
                entry,
                first,
                count,
                available,
            } => write!(
                f,
                "range [{first}, +{count}) out of bounds for entry {entry} ({available} elems)"
            ),
            UpdateError::BadTagShape(t) => write!(f, "bad update tag {t}"),
            UpdateError::KindMismatch { entry } => write!(f, "kind mismatch for entry {entry}"),
            UpdateError::BadPointer(s) => write!(f, "bad pointer: {s}"),
            UpdateError::Conversion(e) => write!(f, "conversion: {e}"),
            UpdateError::Mem(e) => write!(f, "memory: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<ConversionError> for UpdateError {
    fn from(e: ConversionError) -> Self {
        UpdateError::Conversion(e)
    }
}

impl From<hdsm_memory::space::MemError> for UpdateError {
    fn from(e: hdsm_memory::space::MemError) -> Self {
        UpdateError::Mem(e)
    }
}

/// Encode a local pointer word (native simulated address) into the
/// portable index form.
fn swizzle_ptr(gthv: &GthvInstance, raw_addr: u64) -> Result<u64, UpdateError> {
    if raw_addr == 0 {
        return Ok(0);
    }
    let (entry, elem) = gthv.table().locate(raw_addr).ok_or_else(|| {
        UpdateError::BadPointer(format!("address {raw_addr:#x} is not in the shared region"))
    })?;
    if elem >= (1 << PTR_ELEM_BITS) {
        return Err(UpdateError::BadPointer(format!(
            "element index {elem} exceeds the {PTR_ELEM_BITS}-bit portable pointer field"
        )));
    }
    Ok(1 + ((u64::from(entry) << PTR_ELEM_BITS) | elem))
}

/// Decode a portable pointer word to a local native address.
fn unswizzle_ptr(gthv: &GthvInstance, portable: u64) -> Result<u64, UpdateError> {
    if portable == 0 {
        return Ok(0);
    }
    let v = portable - 1;
    let entry = (v >> PTR_ELEM_BITS) as u32;
    let elem = v & ((1 << PTR_ELEM_BITS) - 1);
    let row = gthv
        .table()
        .row(entry)
        .ok_or_else(|| UpdateError::BadPointer(format!("portable pointer to bad entry {entry}")))?;
    if elem >= row.count {
        return Err(UpdateError::BadPointer(format!(
            "portable pointer to {entry}[{elem}] out of range"
        )));
    }
    Ok(row.elem_addr(elem))
}

/// Extract wire updates for the given (coalesced) ranges from a node's
/// shared region. Data entries ship verbatim native bytes; pointer entries
/// are swizzled to the portable index form (still in native byte order —
/// the receiver handles endianness like any unsigned scalar).
pub fn extract_updates(
    gthv: &GthvInstance,
    ranges: &[UpdateRange],
) -> Result<Vec<WireUpdate>, UpdateError> {
    let mut out = Vec::with_capacity(ranges.len());
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
        let len = (u64::from(row.size) * r.count) as usize;
        let raw = gthv.space().read(row.elem_addr(r.first), len)?;
        let data = if row.kind == ScalarKind::Ptr {
            let mut swizzled = vec![0u8; len];
            let s = row.size as usize;
            for i in 0..r.count as usize {
                let addr = read_uint(&raw[i * s..(i + 1) * s], gthv.platform().endian) as u64;
                let portable = swizzle_ptr(gthv, addr)?;
                write_uint(
                    u128::from(portable),
                    &mut swizzled[i * s..(i + 1) * s],
                    gthv.platform().endian,
                );
            }
            Bytes::from(swizzled)
        } else {
            Bytes::copy_from_slice(raw)
        };
        out.push(WireUpdate {
            entry: r.entry,
            elem_offset: r.first,
            endian: gthv.platform().endian,
            sender: gthv.platform().name.clone(),
            tag: tag_for_scalar_run(row.kind, row.size, r.count),
            data,
        });
    }
    Ok(out)
}

fn run_shape(u: &WireUpdate) -> Result<(u32, u64, bool), UpdateError> {
    match u.tag.0.as_slice() {
        [TagItem::Scalar { size, count }, TagItem::Padding { bytes: 0 }] => {
            Ok((*size, u64::from(*count), false))
        }
        [TagItem::Pointer { size, count }, TagItem::Padding { bytes: 0 }] => {
            Ok((*size, u64::from(*count), true))
        }
        _ => Err(UpdateError::BadTagShape(u.tag.to_string())),
    }
}

/// Apply one wire update to a node's shared region (untracked — applying
/// remote updates must not look like local writes).
///
/// Returns how it was applied; the caller times this call as `t_conv`.
pub fn apply_update(
    gthv: &mut GthvInstance,
    u: &WireUpdate,
    stats: &mut ConversionStats,
) -> Result<Applied, UpdateError> {
    apply_inner(gthv, u, stats, false)
}

/// Apply one wire update through the *tracked* write path, so the write
/// faults/twins/dirties like an application store. Used when replaying a
/// migrating thread's unreleased modifications onto its new node.
pub fn apply_tracked(
    gthv: &mut GthvInstance,
    u: &WireUpdate,
    stats: &mut ConversionStats,
) -> Result<Applied, UpdateError> {
    apply_inner(gthv, u, stats, true)
}

fn apply_inner(
    gthv: &mut GthvInstance,
    u: &WireUpdate,
    stats: &mut ConversionStats,
    tracked: bool,
) -> Result<Applied, UpdateError> {
    // Copy the scalar fields out of the row instead of cloning it — the
    // row's path String would otherwise be allocated and dropped once per
    // update, 16k times per SOR release.
    let (row_addr, row_size, row_count, row_kind) = {
        let row = gthv
            .table()
            .row(u.entry)
            .ok_or(UpdateError::NoSuchEntry(u.entry))?;
        (row.addr, row.size, row.count, row.kind)
    };
    let (src_size, count, is_ptr) = run_shape(u)?;
    if (row_kind == ScalarKind::Ptr) != is_ptr {
        return Err(UpdateError::KindMismatch { entry: u.entry });
    }
    if u.elem_offset + count > row_count {
        return Err(UpdateError::RangeOutOfBounds {
            entry: u.entry,
            first: u.elem_offset,
            count,
            available: row_count,
        });
    }
    let dst_addr = row_addr + u.elem_offset * u64::from(row_size);
    let dst_len = (u64::from(row_size) * count) as usize;
    let local_endian = gthv.platform().endian;

    if is_ptr {
        // Always element-by-element: unswizzle into native addresses.
        let s = src_size as usize;
        if u.data.len() != s * count as usize {
            return Err(UpdateError::Conversion(ConversionError::SrcSizeMismatch {
                expected: (s * count as usize) as u64,
                got: u.data.len() as u64,
            }));
        }
        let mut native = vec![0u8; dst_len];
        let d = row_size as usize;
        for i in 0..count as usize {
            let portable = read_uint(&u.data[i * s..(i + 1) * s], u.endian) as u64;
            let addr = unswizzle_ptr(gthv, portable)?;
            if !fits_uint(u128::from(addr), d) {
                return Err(UpdateError::BadPointer(format!(
                    "address {addr:#x} does not fit a {d}-byte pointer"
                )));
            }
            write_uint(
                u128::from(addr),
                &mut native[i * d..(i + 1) * d],
                local_endian,
            );
            stats.scalars_converted += 1;
        }
        store(gthv, dst_addr, &native, tracked)?;
        return Ok(Applied::PointerTranslated);
    }

    // Homogeneous fast path: same element size and byte order → memcpy.
    // (The paper gates this on a tag string comparison; size+endian
    // equality is exactly what identical run tags plus the wire-header
    // endianness check establish.)
    if src_size == row_size && u.endian == local_endian {
        if u.data.len() != dst_len {
            return Err(UpdateError::Conversion(ConversionError::SrcSizeMismatch {
                expected: dst_len as u64,
                got: u.data.len() as u64,
            }));
        }
        store(gthv, dst_addr, &u.data, tracked)?;
        stats.memcpy_bytes += dst_len as u64;
        return Ok(Applied::Memcpy);
    }

    // Heterogeneous path: receiver makes right, through the compiled plan
    // for (entry, sender shape) — lowered once, memoized — instead of
    // re-deriving the dispatch per update.
    let mut native = vec![0u8; dst_len];
    let class = row_kind.class();
    let plan = gthv
        .plans_mut()
        .lookup(u.entry as usize, src_size, u.endian, || {
            RunPlan::lower(class, src_size, u.endian, row_size, local_endian)
        });
    plan.apply(&u.data, &mut native, count, stats)?;
    store(gthv, dst_addr, &native, tracked)?;
    Ok(Applied::Converted)
}

fn store(
    gthv: &mut GthvInstance,
    addr: u64,
    bytes: &[u8],
    tracked: bool,
) -> Result<(), UpdateError> {
    if tracked {
        gthv.space_mut().write(addr, bytes)?;
    } else {
        gthv.space_mut().write_untracked(addr, bytes)?;
    }
    Ok(())
}

/// Apply a whole batch, returning per-kind counts `(memcpy, converted,
/// pointer)`.
pub fn apply_batch(
    gthv: &mut GthvInstance,
    updates: &[WireUpdate],
    stats: &mut ConversionStats,
) -> Result<(u64, u64, u64), UpdateError> {
    let (mut m, mut c, mut p) = (0, 0, 0);
    for u in updates {
        match apply_update(gthv, u, stats)? {
            Applied::Memcpy => m += 1,
            Applied::Converted => c += 1,
            Applied::PointerTranslated => p += 1,
        }
    }
    Ok((m, c, p))
}

/// Ranges covering the *entire* shared structure — used to seed a freshly
/// joined node or to log initialisation as one big batch.
pub fn full_ranges(gthv: &GthvInstance) -> Vec<UpdateRange> {
    gthv.table()
        .rows()
        .iter()
        .map(|r| UpdateRange {
            entry: r.entry,
            first: 0,
            count: r.count,
        })
        .collect()
}

/// The conversion class of an entry (test helper).
pub fn entry_class(gthv: &GthvInstance, entry: u32) -> Option<ScalarClass> {
    gthv.table().row(entry).map(|r| r.kind.class())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gthv::{GthvDef, GthvInstance};
    use hdsm_platform::ctype::paper_figure4_struct;
    use hdsm_platform::spec::{Platform, PlatformSpec};

    fn inst(p: Platform) -> GthvInstance {
        GthvInstance::new(GthvDef::new(paper_figure4_struct()).unwrap(), p)
    }

    fn range(entry: u32, first: u64, count: u64) -> UpdateRange {
        UpdateRange {
            entry,
            first,
            count,
        }
    }

    #[test]
    fn extract_apply_homogeneous_is_memcpy() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::linux_x86());
        for i in 0..100 {
            src.write_int(1, i, (i as i128) * 3 - 50).unwrap();
        }
        let ups = extract_updates(&src, &[range(1, 0, 100)]).unwrap();
        let mut stats = ConversionStats::default();
        let (m, c, p) = apply_batch(&mut dst, &ups, &mut stats).unwrap();
        assert_eq!((m, c, p), (1, 0, 0));
        assert_eq!(stats.memcpy_bytes, 400);
        for i in 0..100 {
            assert_eq!(dst.read_int(1, i).unwrap(), (i as i128) * 3 - 50);
        }
    }

    #[test]
    fn extract_apply_heterogeneous_converts() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::solaris_sparc());
        for i in 0..50 {
            src.write_int(2, i, -(i as i128) * 7).unwrap();
        }
        let ups = extract_updates(&src, &[range(2, 0, 50)]).unwrap();
        let mut stats = ConversionStats::default();
        let (m, c, _p) = apply_batch(&mut dst, &ups, &mut stats).unwrap();
        assert_eq!((m, c), (0, 1));
        assert_eq!(stats.scalars_swapped, 50);
        for i in 0..50 {
            assert_eq!(dst.read_int(2, i).unwrap(), -(i as i128) * 7);
        }
    }

    #[test]
    fn pointer_swizzles_across_heterogeneous_nodes() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::solaris_sparc64());
        src.write_ptr(0, 0, Some((3, 4321))).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 1)]).unwrap();
        let mut stats = ConversionStats::default();
        let applied = apply_update(&mut dst, &ups[0], &mut stats).unwrap();
        assert_eq!(applied, Applied::PointerTranslated);
        // The logical target survived even though ILP32 LE → LP64 BE and
        // the local addresses of C[4321] differ between the two layouts.
        assert_eq!(dst.read_ptr(0, 0).unwrap(), Some((3, 4321)));
        let src_addr = src.table().row(3).unwrap().elem_addr(4321);
        let dst_addr = dst.table().row(3).unwrap().elem_addr(4321);
        assert_ne!(src_addr, dst_addr);
    }

    #[test]
    fn null_pointer_ships_as_zero() {
        let mut src = inst(PlatformSpec::solaris_sparc());
        let mut dst = inst(PlatformSpec::linux_x86());
        src.write_ptr(0, 0, None).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 1)]).unwrap();
        assert!(ups[0].data.iter().all(|&b| b == 0));
        let mut stats = ConversionStats::default();
        apply_update(&mut dst, &ups[0], &mut stats).unwrap();
        assert_eq!(dst.read_ptr(0, 0).unwrap(), None);
    }

    #[test]
    fn pointer_updates_never_memcpy_even_homogeneous() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::linux_x86());
        src.write_ptr(0, 0, Some((1, 5))).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 1)]).unwrap();
        let mut stats = ConversionStats::default();
        assert_eq!(
            apply_update(&mut dst, &ups[0], &mut stats).unwrap(),
            Applied::PointerTranslated
        );
        assert_eq!(dst.read_ptr(0, 0).unwrap(), Some((1, 5)));
    }

    #[test]
    fn partial_range_lands_at_right_offset() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::solaris_sparc());
        for i in 200..210 {
            src.write_int(3, i, 1000 + i as i128).unwrap();
        }
        let ups = extract_updates(&src, &[range(3, 200, 10)]).unwrap();
        assert_eq!(ups[0].elem_offset, 200);
        let mut stats = ConversionStats::default();
        apply_update(&mut dst, &ups[0], &mut stats).unwrap();
        assert_eq!(dst.read_int(3, 205).unwrap(), 1205);
        assert_eq!(dst.read_int(3, 199).unwrap(), 0);
        assert_eq!(dst.read_int(3, 210).unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_rejected_both_sides() {
        let src = inst(PlatformSpec::linux_x86());
        assert!(matches!(
            extract_updates(&src, &[range(1, 56160, 100)]),
            Err(UpdateError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            extract_updates(&src, &[range(9, 0, 1)]),
            Err(UpdateError::NoSuchEntry(9))
        ));
        let mut dst = inst(PlatformSpec::linux_x86());
        let mut ups = extract_updates(&src, &[range(1, 0, 4)]).unwrap();
        ups[0].elem_offset = 56168;
        let mut stats = ConversionStats::default();
        assert!(matches!(
            apply_update(&mut dst, &ups[0], &mut stats),
            Err(UpdateError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut src = inst(PlatformSpec::linux_x86());
        src.write_int(1, 0, 5).unwrap();
        let mut ups = extract_updates(&src, &[range(1, 0, 1)]).unwrap();
        ups[0].entry = 0; // pointer entry, scalar tag
        let mut dst = inst(PlatformSpec::linux_x86());
        let mut stats = ConversionStats::default();
        assert!(matches!(
            apply_update(&mut dst, &ups[0], &mut stats),
            Err(UpdateError::KindMismatch { .. })
        ));
    }

    #[test]
    fn applied_updates_do_not_dirty_the_receiver() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::linux_x86());
        dst.space_mut().protect_all();
        src.write_int(1, 0, 1).unwrap();
        let ups = extract_updates(&src, &[range(1, 0, 1)]).unwrap();
        let mut stats = ConversionStats::default();
        apply_update(&mut dst, &ups[0], &mut stats).unwrap();
        assert_eq!(dst.space().dirty_count(), 0);
        assert_eq!(dst.space().stats().faults, 0);
    }

    #[test]
    fn full_ranges_cover_everything() {
        let g = inst(PlatformSpec::linux_x86());
        let rs = full_ranges(&g);
        assert_eq!(rs.len(), 5);
        assert_eq!(rs[1].count, 56169);
        let total_elems: u64 = rs.iter().map(|r| r.count).sum();
        assert_eq!(total_elems, 1 + 3 * 56169 + 1);
    }

    #[test]
    fn overflow_on_narrowing_long_entries() {
        use hdsm_platform::ctype::StructBuilder;
        use hdsm_platform::scalar::ScalarKind;
        let def = StructBuilder::new("L")
            .array("xs", ScalarKind::Long, 4)
            .build()
            .unwrap();
        let gd = GthvDef::new(def).unwrap();
        let mut src = GthvInstance::new(gd.clone(), PlatformSpec::linux_x86_64());
        let mut dst = GthvInstance::new(gd, PlatformSpec::linux_x86());
        src.write_int(0, 0, 1i128 << 40).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 4)]).unwrap();
        let mut stats = ConversionStats::default();
        assert!(matches!(
            apply_update(&mut dst, &ups[0], &mut stats),
            Err(UpdateError::Conversion(ConversionError::IntOverflow { .. }))
        ));
    }
}
