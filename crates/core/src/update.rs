//! Update extraction and application.
//!
//! The releaser side frames coalesced [`UpdateRange`]s as an
//! [`UpdateBatch`]: per range a run-shaped CGT-RMR tag plus the raw bytes
//! of the modified elements, in the sender's native format, written
//! straight into the grouped wire frame. The applier side walks that frame
//! and is receiver-makes-right: identical tag + endianness → `memcpy`;
//! otherwise per-element conversion (paper §4.1, Figure 5).
//!
//! **Pointers** get special treatment in both directions (paper §4: "with
//! each index then, it is straightforward to map the index to a memory
//! address and vice-versa"): a pointer stored in the shared region is a
//! native simulated address, meaningless on another node, so the extractor
//! *swizzles* each pointer to a portable `(entry, element)` index form and
//! the applier maps it back to a local address through its own index
//! table. Pointer updates therefore never take the memcpy fast path.

use crate::gthv::GthvInstance;
use crate::index_table::IndexRow;
use crate::interval::IntervalSet;
use crate::runs::UpdateRange;
use hdsm_platform::endian::{fits_uint, read_uint, write_uint};
use hdsm_platform::scalar::ScalarKind;
use hdsm_tags::convert::{ConversionError, ConversionStats};
use hdsm_tags::plan::{RunOp, RunPlan};
use hdsm_tags::wire::{FrameWriter, GroupHead, RunGroup, UpdateBatch, UpdateView};
use std::fmt;

/// Bits of the portable pointer word reserved for the element index.
/// A portable pointer is `0` (NULL) or `1 + (entry << 24 | elem)`; the
/// `+1` bias keeps NULL all-zeros. 24 bits of element index covers the
/// paper's largest arrays (56 169 elements) with ample margin, and the
/// whole word still fits a 4-byte pointer (entry < 127).
pub const PTR_ELEM_BITS: u32 = 24;

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

/// Frame the current bytes of the given (coalesced) ranges as an update
/// batch: a dense range is one update, a strided one an update an
/// element. Data entries ship verbatim native bytes; pointer entries are
/// swizzled to the portable index form (still in native byte order — the
/// receiver handles endianness like any unsigned scalar).
///
/// Two passes over `ranges`: the first touches no data, checks every
/// range against its row and plans the frame (consecutive ranges of one
/// entry form one run group, their rows folded once by
/// [`hdsm_tags::wire::fold_rows`], so the frame is the same whether a
/// strided range came in whole or an element at a time); the second
/// writes group headers, run tables and payload straight from the address
/// space into that one buffer. The cost is per range and per row, not per
/// update, and one copy of each payload byte.
pub fn extract_updates(
    gthv: &GthvInstance,
    ranges: &[UpdateRange],
) -> Result<UpdateBatch, UpdateError> {
    if ranges.is_empty() {
        return Ok(UpdateBatch::default());
    }
    let endian = gthv.platform().endian;
    let groups = || ranges.chunk_by(|a, b| a.entry == b.entry);
    let mut w = FrameWriter::default();
    for group in groups() {
        let entry = group[0].entry;
        let row = row_of(gthv, entry)?;
        let rows = || group.iter().map(|r| (r.first, r.count, r.stride));
        within(row, rows())?;
        w.plan_group(entry, row.size, rows());
    }
    for group in groups() {
        let row = gthv.table().row(group[0].entry).expect("checked above");
        let head = GroupHead {
            entry: row.entry,
            endian,
            is_ptr: row.kind == ScalarKind::Ptr,
            size: row.size,
        };
        w.begin_group(head);
        let s = row.size as usize;
        for r in group {
            let hull = (r.end() - r.first) as usize;
            let raw = gthv.space().read(row.elem_addr(r.first), s * hull)?;
            if !head.is_ptr && r.stride == 1 {
                w.put_payload(raw);
                continue;
            }
            for native in raw.chunks(s * r.stride as usize).map(|e| &e[..s]) {
                if !head.is_ptr {
                    w.put_payload(native);
                    continue;
                }
                let portable = swizzle_ptr(gthv, read_uint(native, endian) as u64)?;
                let mut word = [0u8; 16];
                write_uint(u128::from(portable), &mut word[..s], endian);
                w.put_payload(&word[..s]);
            }
        }
    }
    Ok(w.finish())
}

/// Apply a batch to a node's shared region (untracked — applying remote
/// updates must not look like local writes), returning per-kind update
/// counts `(memcpy, converted, pointer)`; the caller times this call as
/// `t_conv`. Every element a run names takes the remote value: this is the
/// home's apply, and every oracle's.
///
/// The batch is refused whole, before its first store, unless every
/// group's entry is in the table with the group's kind and every row's
/// last element lies inside it. Then the plan is looked up once per group,
/// and a `Memcpy`/`Swap` run — which cannot fail — converts straight into
/// its destination in the address space: one pass over the payload, no
/// allocation. A `Convert` or pointer run can still fail on any element
/// (`IntOverflow`, `BadPointer`), so it is built in one scratch buffer the
/// walk owns and stored only whole; such an error leaves every earlier
/// update applied and the failing one unwritten.
pub fn apply_batch(
    gthv: &mut GthvInstance,
    batch: &UpdateBatch,
    stats: &mut ConversionStats,
) -> Result<(u64, u64, u64), UpdateError> {
    apply_keeping(gthv, batch, stats, |_| None)
}

/// [`apply_batch`] on a copy with stores of its own outstanding:
/// `written(entry)` is the entry's write set, the elements this thread has
/// stored to since its last release, and those keep their local value. The
/// store is newer than anything an acquire can deliver to a race-free
/// program, and the next release ships it. A run that meets a written span
/// is built whole in the scratch buffer, counted as if applied whole, and
/// stored only in the gaps between the spans. Where the entry has nothing
/// written — every barrier's acquire, which follows its release — the walk
/// is [`apply_batch`]'s.
pub(crate) fn apply_keeping<'w>(
    gthv: &mut GthvInstance,
    batch: &UpdateBatch,
    stats: &mut ConversionStats,
    written: impl Fn(u32) -> Option<&'w IntervalSet>,
) -> Result<(u64, u64, u64), UpdateError> {
    for g in batch.groups() {
        let row = row_of(gthv, g.head.entry)?;
        if (row.kind == ScalarKind::Ptr) != g.head.is_ptr {
            return Err(UpdateError::KindMismatch { entry: row.entry });
        }
        within(row, g.rows().iter().copied())?;
    }
    let mut walk = ApplyWalk {
        stats,
        scratch: Vec::new(),
        tally: (0, 0, 0),
    };
    for g in batch.groups() {
        let kept = written(g.head.entry).filter(|w| !w.is_empty());
        walk.apply_group(gthv, g, kept)?;
    }
    Ok(walk.tally)
}

/// The index-table row of `entry`.
fn row_of(gthv: &GthvInstance, entry: u32) -> Result<&IndexRow, UpdateError> {
    gthv.table()
        .row(entry)
        .ok_or(UpdateError::NoSuchEntry(entry))
}

/// Refuse the rows `(first, count, stride)` unless every element they
/// name lies inside `row`'s entry.
fn within(row: &IndexRow, rows: impl Iterator<Item = (u64, u64, u64)>) -> Result<(), UpdateError> {
    for (first, count, stride) in rows {
        let last = count.checked_sub(1).and_then(|k| k.checked_mul(stride));
        let last = last.and_then(|d| first.checked_add(d));
        if last.is_none_or(|last| last >= row.count) {
            let (entry, available) = (row.entry, row.count);
            return Err(UpdateError::RangeOutOfBounds {
                entry,
                first,
                count,
                available,
            });
        }
    }
    Ok(())
}

/// What one walk over a batch carries from group to group.
struct ApplyWalk<'s> {
    stats: &'s mut ConversionStats,
    /// Where a run that can fail half-way, or that is stored only in part,
    /// is built before it is stored.
    scratch: Vec<u8>,
    /// Updates applied as `(memcpy, converted, pointer)`.
    tally: (u64, u64, u64),
}

impl ApplyWalk<'_> {
    /// Apply the runs of one checked group, but for the elements `kept`
    /// holds: the per-entry decisions first, once.
    fn apply_group(
        &mut self,
        gthv: &mut GthvInstance,
        g: RunGroup<'_>,
        kept: Option<&IntervalSet>,
    ) -> Result<(), UpdateError> {
        let (head, entry) = (g.head, g.head.entry);
        // Copy the scalar fields out of the row instead of cloning it —
        // its path is a heap `String`.
        let (row_addr, row_size, row_kind) = {
            let row = gthv.table().row(entry).expect("checked before the walk");
            (row.addr, row.size, row.kind)
        };
        let local_endian = gthv.platform().endian;
        // Receiver makes right through the compiled plan for (entry,
        // sender shape) — lowered once, memoized; `Memcpy` exactly when
        // element size and byte order agree. Pointers never take it: they
        // are unswizzled element by element.
        let plan = (!head.is_ptr).then(|| {
            gthv.plans_mut()
                .lookup(entry as usize, head.size, head.endian, || {
                    RunPlan::lower(
                        row_kind.class(),
                        head.size,
                        head.endian,
                        row_size,
                        local_endian,
                    )
                })
        });
        for run in g.runs() {
            let end = run.elem_offset + run.count;
            let dst_addr = row_addr + run.elem_offset * u64::from(row_size);
            let dst_len = (u64::from(row_size) * run.count) as usize;
            let keep = kept.filter(|k| k.touching(run.elem_offset, end).next().is_some());
            // A run that cannot fail and is stored whole goes straight
            // into the space.
            let in_place = keep.is_none() && plan.is_some_and(|p| p.op != RunOp::Convert);
            match plan {
                Some(plan) if in_place => {
                    let dst = gthv.space_mut().slice_mut_untracked(dst_addr, dst_len)?;
                    plan.apply(run.data, dst, run.count, self.stats)?;
                }
                Some(plan) => {
                    self.scratch.clear();
                    self.scratch.resize(dst_len, 0);
                    plan.apply(run.data, &mut self.scratch, run.count, self.stats)?;
                    self.store_scratch(gthv, dst_addr, row_size, (run.elem_offset, end), keep)?;
                }
                None => {
                    self.unswizzle_run(gthv, &head, &run, row_size as usize)?;
                    self.store_scratch(gthv, dst_addr, row_size, (run.elem_offset, end), keep)?;
                }
            }
            match plan.map(|p| p.op) {
                Some(RunOp::Memcpy) => self.tally.0 += 1,
                Some(_) => self.tally.1 += 1,
                None => self.tally.2 += 1,
            }
        }
        Ok(())
    }

    /// Unswizzle a pointer run into native addresses, in `scratch`.
    fn unswizzle_run(
        &mut self,
        gthv: &GthvInstance,
        head: &GroupHead,
        run: &UpdateView<'_>,
        dst_size: usize,
    ) -> Result<(), UpdateError> {
        let s = head.size as usize;
        self.scratch.clear();
        self.scratch.resize(dst_size * run.count as usize, 0);
        for (src, dst) in run
            .data
            .chunks_exact(s)
            .zip(self.scratch.chunks_exact_mut(dst_size))
        {
            let addr = unswizzle_ptr(gthv, read_uint(src, head.endian) as u64)?;
            if !fits_uint(u128::from(addr), dst_size) {
                return Err(UpdateError::BadPointer(format!(
                    "address {addr:#x} does not fit a {dst_size}-byte pointer"
                )));
            }
            write_uint(u128::from(addr), dst, gthv.platform().endian);
            self.stats.scalars_converted += 1;
        }
        Ok(())
    }

    /// Store the run built in `scratch` — elements `[first, end)` of
    /// `size` bytes, at `addr` — but for the elements `keep` holds.
    fn store_scratch(
        &self,
        gthv: &mut GthvInstance,
        addr: u64,
        size: u32,
        (first, end): (u64, u64),
        keep: Option<&IntervalSet>,
    ) -> Result<(), UpdateError> {
        let space = gthv.space_mut();
        let Some(keep) = keep else {
            space.write_untracked(addr, &self.scratch)?;
            return Ok(());
        };
        let size = size as usize;
        for gap in keep.split(first, end).filter(|p| !p.inside) {
            let from = (gap.first - first) as usize * size;
            let to = (gap.end - first) as usize * size;
            space.write_untracked(addr + from as u64, &self.scratch[from..to])?;
        }
        Ok(())
    }
}

/// Ranges covering the *entire* shared structure — used to seed a freshly
/// joined node or to log initialisation as one big batch.
pub fn full_ranges(gthv: &GthvInstance) -> Vec<UpdateRange> {
    gthv.table()
        .rows()
        .iter()
        .map(|r| UpdateRange::new(r.entry, 0, r.count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gthv::{GthvDef, GthvInstance};
    use hdsm_platform::ctype::paper_figure4_struct;
    use hdsm_platform::spec::{Platform, PlatformSpec};
    use hdsm_tags::wire::reference::{batch_of, updates_of, WireUpdate};

    fn inst(p: Platform) -> GthvInstance {
        GthvInstance::new(GthvDef::new(paper_figure4_struct()).unwrap(), p)
    }

    fn range(entry: u32, first: u64, count: u64) -> UpdateRange {
        UpdateRange::new(entry, first, count)
    }

    fn apply(dst: &mut GthvInstance, batch: &UpdateBatch) -> Result<(u64, u64, u64), UpdateError> {
        apply_batch(dst, batch, &mut ConversionStats::default())
    }

    #[test]
    fn extract_apply_homogeneous_is_memcpy() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::linux_x86());
        for i in 0..100 {
            src.write_int(1, i, (i as i128) * 3 - 50).unwrap();
        }
        let ups = extract_updates(&src, &[range(1, 0, 100)]).unwrap();
        assert_eq!((ups.len(), ups.payload_bytes()), (1, 400));
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
    fn consecutive_ranges_of_an_entry_share_one_group() {
        let src = inst(PlatformSpec::linux_x86());
        let ups = extract_updates(
            &src,
            &[
                range(1, 0, 1),
                range(1, 2, 1),
                range(2, 0, 3),
                range(1, 4, 1),
            ],
        )
        .unwrap();
        let runs: Vec<usize> = ups.groups().map(|g| g.runs().count()).collect();
        assert_eq!(runs, [2, 1, 1]);
        assert_eq!((ups.len(), ups.payload_bytes()), (4, 4 + 4 + 12 + 4));
    }

    #[test]
    fn pointer_swizzles_across_heterogeneous_nodes() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::solaris_sparc64());
        src.write_ptr(0, 0, Some((3, 4321))).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 1)]).unwrap();
        assert_eq!(apply(&mut dst, &ups).unwrap(), (0, 0, 1));
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
        assert!(updates_of(&ups)
            .iter()
            .all(|u| u.data.iter().all(|&b| b == 0)));
        apply(&mut dst, &ups).unwrap();
        assert_eq!(dst.read_ptr(0, 0).unwrap(), None);
    }

    #[test]
    fn pointer_updates_never_memcpy_even_homogeneous() {
        let mut src = inst(PlatformSpec::linux_x86());
        let mut dst = inst(PlatformSpec::linux_x86());
        src.write_ptr(0, 0, Some((1, 5))).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 1)]).unwrap();
        assert_eq!(apply(&mut dst, &ups).unwrap(), (0, 0, 1));
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
        assert_eq!(updates_of(&ups)[0].elem_offset, 200);
        apply(&mut dst, &ups).unwrap();
        assert_eq!(dst.read_int(3, 205).unwrap(), 1205);
        assert_eq!(dst.read_int(3, 199).unwrap(), 0);
        assert_eq!(dst.read_int(3, 210).unwrap(), 0);
    }

    /// `count` elements of `entry` from `first` on, `stride` apart.
    fn strided(entry: u32, first: u64, count: u64, stride: u64) -> UpdateRange {
        UpdateRange {
            stride,
            ..range(entry, first, count)
        }
    }

    #[test]
    fn strided_ranges_frame_as_the_reference_packs_their_one_element_updates() {
        use hdsm_tags::generate::tag_for_scalar_run;
        use hdsm_tags::wire::reference::pack_grouped;
        let mut src = inst(PlatformSpec::linux_x86());
        for i in 0..20_000 {
            src.write_int(1, i, i as i128 * 3 - 7).unwrap();
            src.write_int(2, i, -(i as i128)).unwrap();
        }
        // The updates `ranges` are, each read off the space on its own.
        let expanded = |ranges: &[UpdateRange]| -> Vec<WireUpdate> {
            let one = |entry: u32, first: u64, count: u64| {
                let row = src.table().row(entry).unwrap();
                let len = (row.size as u64 * count) as usize;
                let data = src.space().read(row.elem_addr(first), len).unwrap();
                WireUpdate {
                    entry,
                    elem_offset: first,
                    endian: src.platform().endian,
                    tag: tag_for_scalar_run(row.kind, row.size, count),
                    data: data.to_vec().into(),
                }
            };
            let each = |r: &UpdateRange| match r.stride {
                1 => vec![one(r.entry, r.first, r.count)],
                s => (0..r.count)
                    .map(|k| one(r.entry, r.first + k * s, 1))
                    .collect(),
            };
            ranges.iter().flat_map(each).collect()
        };
        let cases: [(&str, Vec<UpdateRange>); 5] = [
            (
                "offsets across the varint bands",
                vec![strided(1, 100, 10, 7), strided(2, 16_300, 6, 30)],
            ),
            (
                "a range that continues the lattice joins its row",
                vec![strided(1, 1, 5, 2), strided(1, 11, 3, 2), range(1, 17, 1)],
            ),
            (
                "dense neighbours",
                vec![
                    range(1, 0, 5),
                    strided(1, 6, 4, 2),
                    range(1, 20, 3),
                    strided(2, 3, 3, 9),
                ],
            ),
            (
                "a changed gap and a lattice that breaks inside a range",
                vec![
                    strided(1, 0, 3, 2),
                    strided(1, 8, 4, 3),
                    strided(1, 30, 2, 5),
                ],
            ),
            (
                "a tie stays dense",
                vec![strided(1, 0, 2, 2), range(1, 10, 3)],
            ),
        ];
        for (what, ranges) in cases {
            let batch = extract_updates(&src, &ranges).unwrap();
            let us = expanded(&ranges);
            assert_eq!(batch.frame(), &pack_grouped(&us), "{what}");
            assert_eq!(updates_of(&batch), us, "{what}");
        }
        // The lattice that continues across two ranges is one strided row:
        // elements 1, 3, …, 17 of `A`.
        let batch = extract_updates(&src, &[strided(1, 1, 5, 2), strided(1, 11, 4, 2)]).unwrap();
        assert_eq!(&batch.frame()[..7], &[0xD5, 1, 0x80 | 4, 1, 1, 1, 9]);
        let tie = extract_updates(&src, &[strided(1, 0, 2, 2), range(1, 10, 3)]).unwrap();
        assert_eq!(tie.frame()[2], 4, "a dense table");
    }

    #[test]
    fn extraction_rejects_what_the_table_does_not_hold() {
        let src = inst(PlatformSpec::linux_x86());
        assert!(matches!(
            extract_updates(&src, &[range(1, 0, 4), range(1, 56160, 100)]),
            Err(UpdateError::RangeOutOfBounds { first: 56160, .. })
        ));
        // `first + count` wraps.
        assert!(matches!(
            extract_updates(&src, &[range(1, u64::MAX, 2)]),
            Err(UpdateError::RangeOutOfBounds { count: 2, .. })
        ));
        assert!(matches!(
            extract_updates(&src, &[range(9, 0, 1)]),
            Err(UpdateError::NoSuchEntry(9))
        ));
        // A strided range's last element, not its count, must fit.
        assert!(extract_updates(&src, &[strided(1, 56000, 57, 3)]).is_ok());
        assert!(matches!(
            extract_updates(&src, &[strided(1, 56000, 58, 3)]),
            Err(UpdateError::RangeOutOfBounds { count: 58, .. })
        ));
        assert!(matches!(
            extract_updates(&src, &[strided(1, 2, 3, u64::MAX / 2)]),
            Err(UpdateError::RangeOutOfBounds { count: 3, .. })
        ));
    }

    /// A batch of three one-element updates to `A` (entry 1) of a
    /// homogeneous pair, with update `k` rewritten by `edit`.
    fn three_with(k: usize, edit: impl Fn(&mut WireUpdate)) -> UpdateBatch {
        let mut src = inst(PlatformSpec::linux_x86());
        for i in 0..3 {
            src.write_int(1, 2 * i, 7 + i as i128).unwrap();
        }
        let ranges = [range(1, 0, 1), range(1, 2, 1), range(1, 4, 1)];
        let mut us = updates_of(&extract_updates(&src, &ranges).unwrap());
        edit(&mut us[k]);
        batch_of(&us)
    }

    #[test]
    fn per_group_checks_reject_what_per_update_checks_did() {
        // A failing update is reported as it always was, and the batch is
        // refused whole: nothing before it, in its own group or another,
        // is applied either.
        type Edit = fn(&mut WireUpdate);
        type Check = fn(&UpdateError) -> bool;
        let cases: [(&str, Edit, Check); 4] = [
            (
                "NoSuchEntry",
                |u| u.entry = 9,
                |e| *e == UpdateError::NoSuchEntry(9),
            ),
            (
                "KindMismatch",
                |u| u.entry = 0,
                |e| *e == UpdateError::KindMismatch { entry: 0 },
            ),
            (
                "RangeOutOfBounds",
                |u| u.elem_offset = 56169,
                |e| {
                    *e == UpdateError::RangeOutOfBounds {
                        entry: 1,
                        first: 56169,
                        count: 1,
                        available: 56169,
                    }
                },
            ),
            (
                "RangeOutOfBounds (offset + count wraps)",
                |u| u.elem_offset = u64::MAX,
                |e| matches!(e, UpdateError::RangeOutOfBounds { .. }),
            ),
        ];
        for (name, edit, check) in cases {
            for k in 0..3 {
                let mut dst = inst(PlatformSpec::linux_x86());
                let err = apply(&mut dst, &three_with(k, edit)).unwrap_err();
                assert!(check(&err), "{name} at {k}: {err:?}");
                for i in 0..3 {
                    let got = dst.read_int(1, 2 * i).unwrap();
                    assert_eq!(got, 0, "{name} at {k}");
                }
                assert_eq!(dst.read_ptr(0, 0).unwrap(), None, "{name} at {k}");
            }
        }
    }

    #[test]
    fn a_batch_whose_second_group_runs_past_its_entry_stores_nothing() {
        // Four elements of `A`, then nine of `B` moved one past its end:
        // the first group passes every check, the second refuses the
        // batch before its first store, on either byte order.
        let mut src = inst(PlatformSpec::linux_x86());
        for i in 0..4 {
            src.write_int(1, i, 40 + i as i128).unwrap();
        }
        let ranges = [range(1, 0, 4), range(2, 56160, 9)];
        let mut us = updates_of(&extract_updates(&src, &ranges).unwrap());
        us[1].elem_offset = 56161;
        let batch = batch_of(&us);
        assert_eq!(batch.groups().count(), 2);
        for p in [PlatformSpec::linux_x86(), PlatformSpec::solaris_sparc()] {
            let mut dst = inst(p);
            dst.write_int(1, 1, -5).unwrap();
            let before = dst.space().raw().to_vec();
            let err = apply(&mut dst, &batch).unwrap_err();
            let want = UpdateError::RangeOutOfBounds {
                entry: 2,
                first: 56161,
                count: 9,
                available: 56169,
            };
            assert_eq!(err, want);
            assert!(dst.space().raw() == before, "a byte was stored");
        }
    }

    #[test]
    fn applied_updates_do_not_dirty_the_receiver() {
        let mut src = inst(PlatformSpec::linux_x86());
        src.write_int(1, 0, 1).unwrap();
        let ups = extract_updates(&src, &[range(1, 0, 1)]).unwrap();
        for p in [PlatformSpec::linux_x86(), PlatformSpec::solaris_sparc()] {
            let mut dst = inst(p);
            dst.space_mut().protect_all();
            apply(&mut dst, &ups).unwrap();
            assert_eq!(dst.read_int(1, 0).unwrap(), 1);
            assert_eq!(dst.space().dirty_count(), 0);
            assert_eq!(dst.space().stats().faults, 0);
        }
    }

    #[test]
    fn apply_keeps_what_the_write_set_holds() {
        use hdsm_platform::ctype::StructBuilder;
        let def = StructBuilder::new("K")
            .array("ps", ScalarKind::Ptr, 3)
            .array("xs", ScalarKind::Long, 6)
            .build()
            .unwrap();
        let def = GthvDef::new(def).unwrap();
        // Pointers 0..3 and longs 0..6 shipped; the receiver wrote pointer
        // 1 and every other long from 1 on since its last release: one
        // strided row of its write set.
        let mut src = GthvInstance::new(def.clone(), PlatformSpec::linux_x86());
        for i in 0..6 {
            src.write_int(1, i, 100 + i as i128).unwrap();
        }
        for i in 0..3 {
            src.write_ptr(0, i, Some((1, i))).unwrap();
        }
        let ups = extract_updates(&src, &[range(0, 0, 3), range(1, 0, 6)]).unwrap();
        let mut written = [IntervalSet::default(), IntervalSet::default()];
        written[0].insert(1, 2);
        for e in [1, 3, 5] {
            written[1].insert(e, e + 1);
        }
        assert_eq!(written[1].rows().collect::<Vec<_>>(), [(1, 3, 2)]);
        for p in [PlatformSpec::linux_x86(), PlatformSpec::solaris_sparc64()] {
            let mut dst = GthvInstance::new(def.clone(), p.clone());
            for i in 0..6 {
                dst.write_int(1, i, -1).unwrap();
            }
            dst.write_ptr(0, 1, Some((1, 5))).unwrap();
            let (mut kept_stats, mut whole_stats) = Default::default();
            let kept = apply_keeping(&mut dst, &ups, &mut kept_stats, |e| written.get(e as usize))
                .unwrap();
            let longs: Vec<i128> = (0..6).map(|i| dst.read_int(1, i).unwrap()).collect();
            assert_eq!(longs, [100, -1, 102, -1, 104, -1], "{}", p.name);
            let ptrs: Vec<_> = (0..3).map(|i| dst.read_ptr(0, i).unwrap()).collect();
            assert_eq!(ptrs, [Some((1, 0)), Some((1, 5)), Some((1, 2))]);
            // Counted as applied whole: a kept element is converted, then
            // not stored.
            let mut whole = GthvInstance::new(def.clone(), p);
            let whole = apply_batch(&mut whole, &ups, &mut whole_stats).unwrap();
            assert_eq!((kept, kept_stats), (whole, whole_stats));
        }
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
        for i in 0..4 {
            src.write_int(0, i, 100 + i as i128).unwrap();
            dst.write_int(0, i, -1).unwrap();
        }
        // The third element of the second update does not fit a 4-byte
        // long: the first update lands, the second leaves no byte behind —
        // not even of the two elements converted before the failure.
        src.write_int(0, 3, 1i128 << 40).unwrap();
        let ups = extract_updates(&src, &[range(0, 0, 1), range(0, 1, 3)]).unwrap();
        assert!(matches!(
            apply(&mut dst, &ups),
            Err(UpdateError::Conversion(ConversionError::IntOverflow { .. }))
        ));
        let got: Vec<i128> = (0..4).map(|i| dst.read_int(0, i).unwrap()).collect();
        assert_eq!(got, [100, -1, -1, -1]);
    }
}
