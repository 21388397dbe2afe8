//! Per-platform type layout.
//!
//! Reproduces the System-V-style C struct layout algorithm: each field is
//! placed at the next offset aligned to its alignment; the struct's own
//! alignment is the maximum field alignment; the total size is rounded up to
//! that alignment (tail padding). CGT-RMR's `(m,0)` padding tuples (paper
//! §3.2) are derived directly from the padding this module computes —
//! including the ubiquitous `(0,0)` "no padding" entries the paper's
//! Figure 3 shows between every pair of fields.

use crate::ctype::CType;
use crate::scalar::ScalarKind;
use crate::spec::PlatformSpec;

/// Layout of one struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Offset from the start of the struct.
    pub offset: u64,
    /// Layout of the field's type.
    pub layout: TypeLayout,
    /// Padding bytes inserted *after* this field (before the next field, or
    /// tail padding for the last field). This is exactly the `m` of the
    /// CGT-RMR `(m,0)` padding tuple that follows the field's data tuple.
    pub padding_after: u64,
}

/// Shape of a laid-out type.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutKind {
    /// A scalar of the given kind.
    Scalar(ScalarKind),
    /// An array; element stride equals the element layout's size (C has no
    /// inter-element padding beyond the element's own tail padding).
    Array {
        /// Element layout.
        elem: Box<TypeLayout>,
        /// Number of elements.
        len: u64,
    },
    /// A struct with laid-out fields.
    Struct {
        /// Struct tag name.
        name: String,
        /// Fields with offsets and padding.
        fields: Vec<FieldLayout>,
    },
}

/// A type laid out for one specific platform.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeLayout {
    /// Total size in bytes, including tail padding.
    pub size: u64,
    /// Alignment requirement in bytes.
    pub align: u64,
    /// Structure of the layout.
    pub kind: LayoutKind,
}

impl TypeLayout {
    /// Compute the layout of `ty` on `platform`.
    pub fn compute(ty: &CType, platform: &PlatformSpec) -> TypeLayout {
        match ty {
            CType::Scalar(kind) => TypeLayout {
                size: platform.size_of(*kind) as u64,
                align: platform.align_of(*kind) as u64,
                kind: LayoutKind::Scalar(*kind),
            },
            CType::Array(elem, len) => {
                let elem_layout = TypeLayout::compute(elem, platform);
                TypeLayout {
                    size: elem_layout.size * (*len as u64),
                    align: elem_layout.align,
                    kind: LayoutKind::Array {
                        elem: Box::new(elem_layout),
                        len: *len as u64,
                    },
                }
            }
            CType::Struct(def) => {
                let mut offset: u64 = 0;
                let mut align: u64 = 1;
                let mut fields: Vec<FieldLayout> = Vec::with_capacity(def.fields.len());
                for f in &def.fields {
                    let fl = TypeLayout::compute(&f.ty, platform);
                    let aligned = round_up(offset, fl.align);
                    // Padding created by aligning *this* field belongs after
                    // the *previous* field, matching the tag stream order
                    // (data tuple, padding tuple, data tuple, …).
                    if let Some(prev) = fields.last_mut() {
                        prev.padding_after = aligned - offset;
                    }
                    align = align.max(fl.align);
                    let size = fl.size;
                    fields.push(FieldLayout {
                        name: f.name.clone(),
                        offset: aligned,
                        layout: fl,
                        padding_after: 0,
                    });
                    offset = aligned + size;
                }
                let total = round_up(offset, align);
                if let Some(last) = fields.last_mut() {
                    last.padding_after = total - offset;
                }
                TypeLayout {
                    size: total,
                    align,
                    kind: LayoutKind::Struct {
                        name: def.name.clone(),
                        fields,
                    },
                }
            }
        }
    }

    /// Iterate the scalar leaves of this layout in address order, yielding
    /// `(offset, kind, size)` for each scalar. Arrays are expanded.
    ///
    /// This is the primitive from which index tables and full tags are
    /// generated; keep it allocation-light — big arrays are visited lazily.
    pub fn for_each_scalar<F: FnMut(u64, ScalarKind, u64)>(&self, base: u64, f: &mut F) {
        match &self.kind {
            LayoutKind::Scalar(kind) => f(base, *kind, self.size),
            LayoutKind::Array { elem, len } => {
                for i in 0..*len {
                    elem.for_each_scalar(base + i * elem.size, f);
                }
            }
            LayoutKind::Struct { fields, .. } => {
                for fl in fields {
                    fl.layout.for_each_scalar(base + fl.offset, f);
                }
            }
        }
    }

    /// For a struct layout, the laid-out fields; panics otherwise.
    pub fn struct_fields(&self) -> &[FieldLayout] {
        match &self.kind {
            LayoutKind::Struct { fields, .. } => fields,
            other => panic!("struct_fields on non-struct layout {other:?}"),
        }
    }

    /// True if the layout contains any pointer scalar.
    pub fn contains_pointer(&self) -> bool {
        match &self.kind {
            LayoutKind::Scalar(k) => *k == ScalarKind::Ptr,
            LayoutKind::Array { elem, .. } => elem.contains_pointer(),
            LayoutKind::Struct { fields, .. } => fields.iter().any(|f| f.layout.contains_pointer()),
        }
    }
}

/// Round `v` up to the next multiple of `align` (which must be a power of
/// two or any positive integer; we use the generic formula).
pub fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctype::{paper_figure4_struct, StructBuilder};
    use crate::spec::PlatformSpec;

    #[test]
    fn scalar_layouts_match_spec() {
        let p = PlatformSpec::solaris_sparc();
        let l = TypeLayout::compute(&CType::Scalar(ScalarKind::Double), &p);
        assert_eq!((l.size, l.align), (8, 8));
        let p = PlatformSpec::linux_x86();
        let l = TypeLayout::compute(&CType::Scalar(ScalarKind::Double), &p);
        assert_eq!((l.size, l.align), (8, 4));
    }

    #[test]
    fn struct_padding_i386_vs_sparc() {
        // struct { char c; double d; }
        let def = StructBuilder::new("S")
            .scalar("c", ScalarKind::Char)
            .scalar("d", ScalarKind::Double)
            .build()
            .unwrap();
        let ty = CType::Struct(def);

        let linux = TypeLayout::compute(&ty, &PlatformSpec::linux_x86());
        // i386: double aligned to 4 → 3 bytes padding, total 12.
        assert_eq!(linux.size, 12);
        assert_eq!(linux.struct_fields()[0].padding_after, 3);
        assert_eq!(linux.struct_fields()[1].offset, 4);

        let sparc = TypeLayout::compute(&ty, &PlatformSpec::solaris_sparc());
        // SPARC: double aligned to 8 → 7 bytes padding, total 16.
        assert_eq!(sparc.size, 16);
        assert_eq!(sparc.struct_fields()[0].padding_after, 7);
        assert_eq!(sparc.struct_fields()[1].offset, 8);
    }

    #[test]
    fn tail_padding() {
        // struct { double d; char c; } → tail padding to align.
        let def = StructBuilder::new("T")
            .scalar("d", ScalarKind::Double)
            .scalar("c", ScalarKind::Char)
            .build()
            .unwrap();
        let ty = CType::Struct(def);
        let sparc = TypeLayout::compute(&ty, &PlatformSpec::solaris_sparc());
        assert_eq!(sparc.size, 16);
        assert_eq!(sparc.struct_fields()[1].padding_after, 7);
    }

    #[test]
    fn figure4_layout_on_linux_x86() {
        // void* + 3 * int[56169] + int, ILP32: everything 4-byte, no padding.
        let ty = CType::Struct(paper_figure4_struct());
        let l = TypeLayout::compute(&ty, &PlatformSpec::linux_x86());
        assert_eq!(l.size, 4 + 3 * 4 * 56169 + 4);
        for f in l.struct_fields() {
            assert_eq!(f.padding_after, 0);
        }
        // Field offsets reproduce the index-table addresses of paper Table 1
        // relative to base 0x40058000.
        let offs: Vec<u64> = l.struct_fields().iter().map(|f| f.offset).collect();
        assert_eq!(
            offs,
            vec![
                0,
                0x40058004 - 0x40058000,
                0x4008eda8 - 0x40058000,
                0x400c5b4c - 0x40058000,
                0x400fc8f0 - 0x40058000,
            ]
        );
    }

    #[test]
    fn figure4_layout_on_lp64_differs() {
        let ty = CType::Struct(paper_figure4_struct());
        let l = TypeLayout::compute(&ty, &PlatformSpec::linux_x86_64());
        // 8-byte pointer, arrays of 4-byte ints, int tail; tail padding to 8.
        assert_eq!(l.struct_fields()[0].layout.size, 8);
        assert_eq!(l.size % 8, 0);
        assert!(l.size > TypeLayout::compute(&ty, &PlatformSpec::linux_x86()).size);
    }

    #[test]
    fn scalar_walk_counts_leaves() {
        let ty = CType::Struct(paper_figure4_struct());
        let l = TypeLayout::compute(&ty, &PlatformSpec::linux_x86());
        let mut n = 0u64;
        let mut last = None;
        l.for_each_scalar(0, &mut |off, _kind, size| {
            if let Some((po, ps)) = last {
                assert!(off >= po + ps, "scalars out of order");
                let _ = po;
            }
            last = Some((off, size));
            n += 1;
        });
        assert_eq!(n, ty.scalar_count());
    }

    #[test]
    fn array_stride_includes_elem_tail_padding() {
        let inner = StructBuilder::new("I")
            .scalar("d", ScalarKind::Double)
            .scalar("c", ScalarKind::Char)
            .build()
            .unwrap();
        let arr = CType::array(CType::Struct(inner), 3);
        let sparc = TypeLayout::compute(&arr, &PlatformSpec::solaris_sparc());
        assert_eq!(sparc.size, 16 * 3);
        let mut offsets = vec![];
        sparc.for_each_scalar(0, &mut |o, k, _| {
            if k == ScalarKind::Double {
                offsets.push(o);
            }
        });
        assert_eq!(offsets, vec![0, 16, 32]);
    }

    #[test]
    fn contains_pointer_detection() {
        let ty = CType::Struct(paper_figure4_struct());
        assert!(TypeLayout::compute(&ty, &PlatformSpec::linux_x86()).contains_pointer());
        let no_ptr = CType::array(CType::Scalar(ScalarKind::Int), 4);
        assert!(!TypeLayout::compute(&no_ptr, &PlatformSpec::linux_x86()).contains_pointer());
    }
}
