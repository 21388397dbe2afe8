//! The shared global structure `GThV`.
//!
//! MigThread's preprocessor "collects all global data into a single
//! structure, GThV" (paper §4); the programmer-facing replacement here is
//! [`GthvDef`], an explicit declaration of that structure. Each node
//! instantiates the definition as a [`GthvInstance`]: the structure laid
//! out in the node's *native representation* inside an [`AddressSpace`],
//! plus the node's [`IndexTable`].
//!
//! All application access goes through the typed accessors, which emulate
//! plain C loads/stores: writes run through the page-protection check
//! (twin/diff write detection, when a page DSM or a test arms it), reads
//! never fault. The DSD client never arms it: it records what its own
//! accessors store.

use crate::index_table::IndexTable;
use hdsm_memory::space::{AddressSpace, MemError};
use hdsm_platform::ctype::{CType, StructDef, TypeError};
use hdsm_platform::endian::{
    fits_int, fits_uint, read_float, read_float_run, read_int_run, read_uint, write_float,
    write_float_run, write_int_run, write_uint,
};
use hdsm_platform::layout::TypeLayout;
use hdsm_platform::scalar::{ScalarClass, ScalarKind};
use hdsm_platform::spec::Platform;
use hdsm_tags::plan::{PlanCache, RunPlan};
use std::fmt;
use std::sync::Arc;

/// The paper's Table 1 base address; used as the default simulated base.
pub const DEFAULT_BASE: u64 = 0x4005_8000;

/// The shared declaration of the global structure (identical on every
/// node — it is part of the program).
#[derive(Debug, Clone)]
pub struct GthvDef {
    /// The struct definition.
    pub def: Arc<StructDef>,
    /// The struct as a C type.
    pub ty: CType,
    /// Simulated base address for instances.
    pub base: u64,
}

impl GthvDef {
    /// Wrap a struct definition, validating it.
    pub fn new(def: Arc<StructDef>) -> Result<GthvDef, TypeError> {
        let ty = CType::Struct(def.clone());
        ty.validate()?;
        Ok(GthvDef {
            def,
            ty,
            base: DEFAULT_BASE,
        })
    }

    /// Entry id of a top-level field by name (panics if absent — a typo in
    /// the program, not a runtime condition). Only valid when the field
    /// flattens to a single row (scalar or array-of-scalar).
    pub fn entry_of(&self, field: &str) -> u32 {
        // Entry order equals flattening order; for flat structs (the
        // common case) that is field order.
        let mut entry = 0u32;
        for f in &self.def.fields {
            let leaf_rows = rows_for(&f.ty);
            if f.name == field {
                assert_eq!(
                    leaf_rows, 1,
                    "field {field} flattens to {leaf_rows} rows; address it by path"
                );
                return entry;
            }
            entry += leaf_rows;
        }
        panic!("no field named {field} in {}", self.def.name);
    }
}

fn rows_for(ty: &CType) -> u32 {
    match ty {
        CType::Scalar(_) => 1,
        CType::Array(elem, len) => match &**elem {
            CType::Scalar(_) => 1,
            other => rows_for(other) * (*len as u32),
        },
        CType::Struct(def) => def.fields.iter().map(|f| rows_for(&f.ty)).sum(),
    }
}

/// Errors from typed global-data access.
#[derive(Debug, Clone, PartialEq)]
pub enum GthvError {
    /// Entry id out of range.
    NoSuchEntry(u32),
    /// Element index out of range for the entry.
    ElemOutOfRange {
        /// Entry accessed.
        entry: u32,
        /// Element requested.
        elem: u64,
        /// Elements available.
        count: u64,
    },
    /// Scalar class mismatch (e.g. float accessor on an int entry).
    KindMismatch {
        /// Entry accessed.
        entry: u32,
        /// Actual kind.
        actual: ScalarKind,
    },
    /// Underlying memory error.
    Mem(MemError),
    /// Value not representable on this platform.
    Overflow,
}

impl fmt::Display for GthvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GthvError::NoSuchEntry(e) => write!(f, "no entry {e}"),
            GthvError::ElemOutOfRange { entry, elem, count } => {
                write!(
                    f,
                    "element {elem} out of range for entry {entry} ({count} elements)"
                )
            }
            GthvError::KindMismatch { entry, actual } => {
                write!(f, "entry {entry} is {actual:?}")
            }
            GthvError::Mem(e) => write!(f, "memory: {e}"),
            GthvError::Overflow => write!(f, "value not representable"),
        }
    }
}

impl std::error::Error for GthvError {}

impl From<MemError> for GthvError {
    fn from(e: MemError) -> Self {
        GthvError::Mem(e)
    }
}

/// A node's instantiation of the global structure.
#[derive(Debug)]
pub struct GthvInstance {
    def: GthvDef,
    platform: Platform,
    layout: TypeLayout,
    table: IndexTable,
    space: AddressSpace,
    plans: PlanCache,
}

impl GthvInstance {
    /// Lay out the definition on `platform` and build the index table.
    /// The backing space starts unprotected (initialisation phase).
    pub fn new(def: GthvDef, platform: Platform) -> GthvInstance {
        let layout = TypeLayout::compute(&def.ty, &platform);
        let table = IndexTable::build(&def.ty, def.base, &platform);
        let space = AddressSpace::new(def.base, layout.size as usize, platform.page_size);
        // Compile conversion plans alongside the index table: one slot per
        // entry, primed with the homogeneous identity plan (updates from a
        // like-shaped sender are a memcpy). Heterogeneous senders re-lower
        // lazily on first contact and stay memoized thereafter.
        let mut plans = PlanCache::with_entries(table.rows().len());
        for (i, row) in table.rows().iter().enumerate() {
            plans.prime(
                i,
                row.size,
                platform.endian,
                RunPlan::lower(
                    row.kind.class(),
                    row.size,
                    platform.endian,
                    row.size,
                    platform.endian,
                ),
            );
        }
        GthvInstance {
            def,
            platform,
            layout,
            table,
            space,
            plans,
        }
    }

    /// The shared declaration.
    pub fn def(&self) -> &GthvDef {
        &self.def
    }

    /// This node's platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// This node's layout of the structure.
    pub fn layout(&self) -> &TypeLayout {
        &self.layout
    }

    /// This node's index table.
    pub fn table(&self) -> &IndexTable {
        &self.table
    }

    /// The protected address space (mutable, for the DSD protocol).
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// The protected address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// The compiled conversion-plan cache (read-only view).
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// The compiled conversion-plan cache, for the hot apply path.
    pub(crate) fn plans_mut(&mut self) -> &mut PlanCache {
        &mut self.plans
    }

    /// The one check every accessor makes: where the `count` elements of
    /// `entry` from `first` live on this node. Fails the way a loop of
    /// one-element accesses would — no such entry, `first` outside the
    /// entry, a kind `want` refuses, then the run leaving the entry at its
    /// end (reported at the first element past it). An empty run passes
    /// when `first` is at most the entry's length.
    #[inline]
    fn locate(
        &self,
        entry: u32,
        first: u64,
        count: u64,
        want: impl FnOnce(ScalarClass) -> bool,
    ) -> Result<Located, GthvError> {
        let row = self.table.row(entry).ok_or(GthvError::NoSuchEntry(entry))?;
        let outside = |elem| GthvError::ElemOutOfRange {
            entry,
            elem,
            count: row.count,
        };
        if first >= row.count && (count > 0 || first > row.count) {
            return Err(outside(first));
        }
        let class = row.kind.class();
        if !want(class) {
            return Err(GthvError::KindMismatch {
                entry,
                actual: row.kind,
            });
        }
        if first.checked_add(count).is_none_or(|end| end > row.count) {
            return Err(outside(row.count));
        }
        let size = row.size as usize;
        Ok(Located {
            addr: row.addr + first * u64::from(row.size),
            size,
            len: count as usize * size,
            class,
        })
    }

    /// Read an integer element.
    #[inline]
    pub fn read_int(&self, entry: u32, elem: u64) -> Result<i128, GthvError> {
        let mut value = [0];
        self.read_ints(entry, elem, &mut value)?;
        Ok(value[0])
    }

    /// Write an integer element (tracked: may fault / create a twin).
    #[inline]
    pub fn write_int(&mut self, entry: u32, elem: u64, value: i128) -> Result<(), GthvError> {
        self.write_ints(entry, elem, &[value])
    }

    /// Read a float element.
    #[inline]
    pub fn read_float(&self, entry: u32, elem: u64) -> Result<f64, GthvError> {
        let at = self.locate(entry, elem, 1, is_float)?;
        let bytes = self.space.read(at.addr, at.size)?;
        Ok(read_float(bytes, self.platform.endian))
    }

    /// Write a float element (tracked).
    #[inline]
    pub fn write_float(&mut self, entry: u32, elem: u64, value: f64) -> Result<(), GthvError> {
        let at = self.locate(entry, elem, 1, is_float)?;
        let out = self.space.slice_mut(at.addr, at.size)?;
        write_float(value, out, self.platform.endian);
        Ok(())
    }

    /// Read the `out.len()` integer elements of `entry` from `first`: one
    /// range and kind check for the run, then a fixed-width load each.
    pub fn read_ints(&self, entry: u32, first: u64, out: &mut [i128]) -> Result<(), GthvError> {
        let at = self.locate(entry, first, out.len() as u64, is_int)?;
        let bytes = self.space.read(at.addr, at.len)?;
        let signed = at.class == ScalarClass::Signed;
        read_int_run(bytes, at.size, self.platform.endian, signed, out);
        Ok(())
    }

    /// Write `values` to the integer elements of `entry` from `first`
    /// (tracked: one protection check per page touched, one fault per
    /// protected page). The run is validated whole — range, kind, every
    /// value representable — before its first byte is stored, so a
    /// rejected run changes nothing.
    pub fn write_ints(&mut self, entry: u32, first: u64, values: &[i128]) -> Result<(), GthvError> {
        let fits = |size: usize, class, values: &[i128]| {
            values.iter().all(|&v| match class {
                ScalarClass::Signed => fits_int(v, size),
                _ => v >= 0 && fits_uint(v as u128, size),
            })
        };
        let at = match self.locate(entry, first, values.len() as u64, is_int) {
            Ok(at) => at,
            // The run leaves the entry at its end: a loop of stores would
            // have met an unrepresentable value before that end first.
            Err(tail @ GthvError::ElemOutOfRange { elem, .. }) if elem > first => {
                let head = &values[..(elem - first) as usize];
                let at = self.locate(entry, first, head.len() as u64, is_int)?;
                return Err(if fits(at.size, at.class, head) {
                    tail
                } else {
                    GthvError::Overflow
                });
            }
            Err(e) => return Err(e),
        };
        if !fits(at.size, at.class, values) {
            return Err(GthvError::Overflow);
        }
        let out = self.space.slice_mut(at.addr, at.len)?;
        write_int_run(values, at.size, self.platform.endian, out);
        Ok(())
    }

    /// Read the `out.len()` float elements of `entry` from `first` — a row
    /// of a matrix into the caller's buffer, checked once.
    pub fn read_floats(&self, entry: u32, first: u64, out: &mut [f64]) -> Result<(), GthvError> {
        let at = self.locate(entry, first, out.len() as u64, is_float)?;
        let bytes = self.space.read(at.addr, at.len)?;
        read_float_run(bytes, at.size, self.platform.endian, out);
        Ok(())
    }

    /// Write `values` to the float elements of `entry` from `first`
    /// (tracked like [`Self::write_ints`], validated whole before the
    /// first store).
    pub fn write_floats(
        &mut self,
        entry: u32,
        first: u64,
        values: &[f64],
    ) -> Result<(), GthvError> {
        let at = self.locate(entry, first, values.len() as u64, is_float)?;
        let out = self.space.slice_mut(at.addr, at.len)?;
        write_float_run(values, at.size, self.platform.endian, out);
        Ok(())
    }

    /// Read a pointer element as a logical target `(entry, elem)`.
    pub fn read_ptr(&self, entry: u32, elem: u64) -> Result<Option<(u32, u64)>, GthvError> {
        let at = self.locate(entry, elem, 1, is_ptr)?;
        let bytes = self.space.read(at.addr, at.size)?;
        let raw = read_uint(bytes, self.platform.endian) as u64;
        if raw == 0 {
            return Ok(None);
        }
        Ok(self.table.locate(raw))
    }

    /// Write a pointer element pointing at `(entry, elem)` of the shared
    /// region (or NULL). The stored value is a *native simulated address*,
    /// exactly like a C pointer; cross-node translation happens in the
    /// update layer via the index table.
    pub fn write_ptr(
        &mut self,
        entry: u32,
        elem: u64,
        target: Option<(u32, u64)>,
    ) -> Result<(), GthvError> {
        let at = self.locate(entry, elem, 1, is_ptr)?;
        let raw: u64 = match target {
            None => 0,
            Some((te, tel)) => self.locate(te, tel, 1, |_| true)?.addr,
        };
        if !fits_uint(u128::from(raw), at.size) {
            return Err(GthvError::Overflow);
        }
        let out = self.space.slice_mut(at.addr, at.size)?;
        write_uint(u128::from(raw), out, self.platform.endian);
        Ok(())
    }
}

/// Where a checked run of elements lives: what [`GthvInstance::locate`]
/// hands the accessors.
#[derive(Debug, Clone, Copy)]
struct Located {
    /// Simulated address of the first element.
    addr: u64,
    /// Bytes per element on this node.
    size: usize,
    /// Bytes in the whole run.
    len: usize,
    /// Conversion class of the entry.
    class: ScalarClass,
}

fn is_int(class: ScalarClass) -> bool {
    matches!(class, ScalarClass::Signed | ScalarClass::Unsigned)
}

fn is_float(class: ScalarClass) -> bool {
    class == ScalarClass::Float
}

fn is_ptr(class: ScalarClass) -> bool {
    class == ScalarClass::Pointer
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_platform::ctype::{paper_figure4_struct, StructBuilder};
    use hdsm_platform::spec::PlatformSpec;

    fn figure4_instance(p: Platform) -> GthvInstance {
        GthvInstance::new(GthvDef::new(paper_figure4_struct()).unwrap(), p)
    }

    #[test]
    fn entry_ids_match_fields() {
        let d = GthvDef::new(paper_figure4_struct()).unwrap();
        assert_eq!(d.entry_of("GThP"), 0);
        assert_eq!(d.entry_of("A"), 1);
        assert_eq!(d.entry_of("B"), 2);
        assert_eq!(d.entry_of("C"), 3);
        assert_eq!(d.entry_of("n"), 4);
    }

    #[test]
    #[should_panic(expected = "no field named")]
    fn entry_of_unknown_field_panics() {
        GthvDef::new(paper_figure4_struct()).unwrap().entry_of("Z");
    }

    #[test]
    fn int_accessors_roundtrip_on_be_platform() {
        let mut g = figure4_instance(PlatformSpec::solaris_sparc());
        g.write_int(1, 100, -12345).unwrap();
        assert_eq!(g.read_int(1, 100).unwrap(), -12345);
        // Bytes really are big-endian in the space.
        let row = g.table().row(1).unwrap().clone();
        let raw = g.space().read(row.elem_addr(100), 4).unwrap();
        assert_eq!(raw, (-12345i32).to_be_bytes());
    }

    #[test]
    fn writes_fault_and_dirty_when_protected() {
        let mut g = figure4_instance(PlatformSpec::linux_x86());
        g.space_mut().protect_all();
        g.write_int(1, 0, 7).unwrap();
        assert_eq!(g.space().stats().faults, 1);
        assert_eq!(g.space().dirty_count(), 1);
    }

    #[test]
    fn bounds_and_kind_checks() {
        let mut g = figure4_instance(PlatformSpec::linux_x86());
        assert!(matches!(g.read_int(9, 0), Err(GthvError::NoSuchEntry(9))));
        assert!(matches!(
            g.read_int(1, 56169),
            Err(GthvError::ElemOutOfRange { .. })
        ));
        assert!(matches!(
            g.read_float(1, 0),
            Err(GthvError::KindMismatch { .. })
        ));
        assert!(matches!(
            g.write_int(1, 0, 1i128 << 40),
            Err(GthvError::Overflow)
        ));
    }

    #[test]
    fn run_bounds_cannot_overflow() {
        // `first + count` wraps in u64; the run is refused, not a panic
        // (debug) or an access to elements 0.. (release).
        let mut g = figure4_instance(PlatformSpec::linux_x86());
        let past = |r| matches!(r, Err(GthvError::ElemOutOfRange { elem, .. }) if elem == u64::MAX);
        assert!(past(g.read_ints(1, u64::MAX, &mut [0; 2])));
        assert!(past(g.write_ints(1, u64::MAX, &[7; 2])));
        assert_eq!(g.space().stats().writes, 0);
        // A run is reported where a loop of scalar calls would stop: at
        // the first element past the entry.
        assert!(matches!(
            g.read_ints(1, 56168, &mut [0; 2]),
            Err(GthvError::ElemOutOfRange { elem: 56169, .. })
        ));
    }

    #[test]
    fn runs_roundtrip_and_fault_once_per_page() {
        let mut g = figure4_instance(PlatformSpec::solaris_sparc());
        g.space_mut().protect_all();
        // 3000 ints = 12000 bytes from A[100]: three 8 KiB pages at most.
        let values: Vec<i128> = (0..3000).map(|v| v * 7 - 9000).collect();
        g.write_ints(1, 100, &values).unwrap();
        let stats = g.space().stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.faults as usize, g.space().dirty_count());
        assert!((2..=3).contains(&stats.faults));
        let mut back = vec![0; 3000];
        g.read_ints(1, 100, &mut back).unwrap();
        assert_eq!(back, values);
        assert_eq!(g.read_int(1, 100 + 2999).unwrap(), values[2999]);
    }

    #[test]
    fn float_entries() {
        let def = StructBuilder::new("F")
            .array("xs", ScalarKind::Double, 10)
            .array("ys", ScalarKind::Float, 10)
            .build()
            .unwrap();
        let mut g = GthvInstance::new(GthvDef::new(def).unwrap(), PlatformSpec::solaris_sparc());
        g.write_float(0, 3, 2.5).unwrap();
        g.write_float(1, 3, 0.25).unwrap();
        assert_eq!(g.read_float(0, 3).unwrap(), 2.5);
        assert_eq!(g.read_float(1, 3).unwrap(), 0.25);
        // Runs convert the same way, at both widths.
        g.write_floats(0, 4, &[1.5, -2.0]).unwrap();
        g.write_floats(1, 4, &[1.5, -2.0]).unwrap();
        for entry in [0, 1] {
            let mut run = [0.0; 3];
            g.read_floats(entry, 3, &mut run).unwrap();
            assert_eq!(run[1..], [1.5, -2.0]);
            assert_eq!(run[0], g.read_float(entry, 3).unwrap());
        }
        assert!(matches!(
            g.write_ints(0, 0, &[1]),
            Err(GthvError::KindMismatch { .. })
        ));
    }

    #[test]
    fn pointer_accessors_store_native_addresses() {
        let mut g = figure4_instance(PlatformSpec::linux_x86());
        // GThP = &A[10]
        g.write_ptr(0, 0, Some((1, 10))).unwrap();
        assert_eq!(g.read_ptr(0, 0).unwrap(), Some((1, 10)));
        // Raw stored value is the simulated address of A[10].
        let raw = g.space().read(g.table().row(0).unwrap().addr, 4).unwrap();
        let addr = u32::from_le_bytes(raw.try_into().unwrap()) as u64;
        assert_eq!(addr, g.table().row(1).unwrap().elem_addr(10));
        // NULL
        g.write_ptr(0, 0, None).unwrap();
        assert_eq!(g.read_ptr(0, 0).unwrap(), None);
    }

    #[test]
    fn pointer_to_invalid_target_rejected() {
        let mut g = figure4_instance(PlatformSpec::linux_x86());
        assert!(g.write_ptr(0, 0, Some((9, 0))).is_err());
        assert!(g.write_ptr(0, 0, Some((1, u64::MAX))).is_err());
    }

    #[test]
    fn same_def_different_layout_sizes() {
        let g32 = figure4_instance(PlatformSpec::linux_x86());
        let g64 = figure4_instance(PlatformSpec::solaris_sparc64());
        assert!(g64.layout().size > g32.layout().size);
        assert_eq!(g32.table().rows().len(), g64.table().rows().len());
    }
}
