//! The architecture-independent index table (paper §4, Table 1).
//!
//! At application start-up the table is built from the `GThV` structure:
//! one row per element of the structure, recording the element's base
//! address *on this node*, the per-scalar size *on this node*, and the
//! element count (negative for pointers). Interleaved padding rows mirror
//! the paper's Table 1. The crucial property (paper §4): "while the
//! data-type sizes may differ within the tables (depending on the
//! architecture), the **indexes of each element will remain the same**" —
//! the flattening order is derived from the shared type declaration, so
//! entry *k* means the same logical element on every node, and mapping an
//! index to a local memory address (and back) is a table lookup.

use hdsm_platform::ctype::CType;
use hdsm_platform::layout::{LayoutKind, TypeLayout};
use hdsm_platform::scalar::ScalarKind;
use hdsm_platform::spec::PlatformSpec;

/// One data row of the index table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRow {
    /// Entry id — identical on every node (row order is derived from the
    /// shared declaration).
    pub entry: u32,
    /// Base simulated address of the first element on this node.
    pub addr: u64,
    /// Size in bytes of one element on this node.
    pub size: u32,
    /// Number of elements (always positive here; [`IndexRow::number`]
    /// renders the paper's sign convention).
    pub count: u64,
    /// Scalar kind (supplies the conversion class; the paper keeps this in
    /// the preprocessor's type knowledge).
    pub kind: ScalarKind,
    /// Padding bytes following this element (for the Table 1 rendering).
    pub padding_after: u32,
    /// Dotted field path, e.g. `"A"` or `"pair.3.x"` (diagnostics).
    pub path: String,
}

impl IndexRow {
    /// The paper's `Number` column: negative for pointers.
    pub fn number(&self) -> i64 {
        if self.kind == ScalarKind::Ptr {
            -(self.count as i64)
        } else {
            self.count as i64
        }
    }

    /// End address (exclusive) of the row's data.
    pub fn end(&self) -> u64 {
        self.addr + u64::from(self.size) * self.count
    }

    /// Address of element `elem`.
    #[inline]
    pub fn elem_addr(&self, elem: u64) -> u64 {
        debug_assert!(elem < self.count);
        self.addr + elem * u64::from(self.size)
    }

    /// The elements the byte range `[start, end)` touches, as
    /// `(first, count)`; an element touched in part counts whole. `None`
    /// if the range misses the row's data (or is empty).
    pub(crate) fn elems_overlapping(&self, start: u64, end: u64) -> Option<(u64, u64)> {
        let from = start.max(self.addr);
        let to = end.min(self.end());
        if from >= to {
            return None;
        }
        let size = u64::from(self.size);
        let first = (from - self.addr) / size;
        let last = (to - 1 - self.addr) / size;
        Some((first, last - first + 1))
    }
}

/// The per-node index table.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexTable {
    rows: Vec<IndexRow>,
    base: u64,
    total_size: u64,
}

impl IndexTable {
    /// Build the table for `ty` laid out at simulated address `base` on
    /// `platform`. Flattening rules:
    /// * a scalar field → one row with `count == 1`;
    /// * an array of scalars → one row with `count == len`;
    /// * nested structs / arrays of aggregates → recursively flattened into
    ///   one row per leaf run, in declaration/address order.
    pub fn build(ty: &CType, base: u64, platform: &PlatformSpec) -> IndexTable {
        let layout = TypeLayout::compute(ty, platform);
        let mut rows = Vec::new();
        flatten(&layout, base, "", &mut rows);
        // Assign entry ids and padding-after from address gaps.
        let total = layout.size;
        for (i, row) in rows.iter_mut().enumerate() {
            row.entry = i as u32;
        }
        let n = rows.len();
        for i in 0..n {
            let next_addr = if i + 1 < n {
                rows[i + 1].addr
            } else {
                base + total
            };
            rows[i].padding_after = (next_addr - rows[i].end()) as u32;
        }
        IndexTable {
            rows,
            base,
            total_size: total,
        }
    }

    /// All data rows, entry order.
    pub fn rows(&self) -> &[IndexRow] {
        &self.rows
    }

    /// Row for an entry id.
    #[inline]
    pub fn row(&self, entry: u32) -> Option<&IndexRow> {
        self.rows.get(entry as usize)
    }

    /// Base simulated address of the shared region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total byte size of the shared region on this node.
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Map an address to `(entry, element)` — the index ↔ address mapping
    /// the paper calls "straightforward". Returns `None` for addresses in
    /// padding or outside the region.
    pub fn locate(&self, addr: u64) -> Option<(u32, u64)> {
        // Binary search for the last row with row.addr <= addr.
        let idx = self.rows.partition_point(|r| r.addr <= addr);
        if idx == 0 {
            return None;
        }
        let row = &self.rows[idx - 1];
        if addr >= row.end() {
            return None; // in padding after the row
        }
        Some((row.entry, (addr - row.addr) / u64::from(row.size)))
    }

    /// Render the table in the paper's Table 1 format (address / size /
    /// number, with interleaved padding rows).
    pub fn render_paper_table(&self) -> String {
        let mut out = String::from("Address      Size  Number\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:#010x}  {:>4}  {:>6}\n",
                row.addr,
                row.size,
                row.number()
            ));
            out.push_str(&format!(
                "{:#010x}  {:>4}  {:>6}\n",
                row.end(),
                row.padding_after,
                0
            ));
        }
        out
    }
}

fn flatten(layout: &TypeLayout, base: u64, path: &str, rows: &mut Vec<IndexRow>) {
    match &layout.kind {
        LayoutKind::Scalar(kind) => rows.push(IndexRow {
            entry: 0,
            addr: base,
            size: layout.size as u32,
            count: 1,
            kind: *kind,
            padding_after: 0,
            path: path.to_string(),
        }),
        LayoutKind::Array { elem, len } => match &elem.kind {
            LayoutKind::Scalar(kind) => rows.push(IndexRow {
                entry: 0,
                addr: base,
                size: elem.size as u32,
                count: *len,
                kind: *kind,
                padding_after: 0,
                path: path.to_string(),
            }),
            _ => {
                for i in 0..*len {
                    let sub = if path.is_empty() {
                        format!("{i}")
                    } else {
                        format!("{path}.{i}")
                    };
                    flatten(elem, base + i * elem.size, &sub, rows);
                }
            }
        },
        LayoutKind::Struct { fields, .. } => {
            for f in fields {
                let sub = if path.is_empty() {
                    f.name.clone()
                } else {
                    format!("{path}.{}", f.name)
                };
                flatten(&f.layout, base + f.offset, &sub, rows);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_platform::ctype::{paper_figure4_struct, CType, StructBuilder};
    use hdsm_platform::spec::PlatformSpec;

    const PAPER_BASE: u64 = 0x4005_8000;

    fn figure4_table(p: &PlatformSpec) -> IndexTable {
        IndexTable::build(&CType::Struct(paper_figure4_struct()), PAPER_BASE, p)
    }

    /// Reproduce paper Table 1 exactly (addresses, sizes, numbers).
    #[test]
    fn paper_table1_reproduced() {
        let t = figure4_table(&PlatformSpec::linux_x86());
        let rows = t.rows();
        let expect: [(u64, u32, i64); 5] = [
            (0x4005_8000, 4, -1),
            (0x4005_8004, 4, 56169),
            (0x4008_eda8, 4, 56169),
            (0x400c_5b4c, 4, 56169),
            (0x400f_c8f0, 4, 1),
        ];
        assert_eq!(rows.len(), 5);
        for (row, (addr, size, number)) in rows.iter().zip(expect) {
            assert_eq!(row.addr, addr, "addr of {}", row.path);
            assert_eq!(row.size, size);
            assert_eq!(row.number(), number);
            assert_eq!(row.padding_after, 0);
        }
        let rendered = t.render_paper_table();
        assert!(rendered.contains("0x40058000     4      -1"));
        assert!(rendered.contains("0x40058004     4   56169"));
        assert!(rendered.contains("0x4008eda8     4   56169"));
        assert!(rendered.contains("0x400c5b4c     4   56169"));
        assert!(rendered.contains("0x400fc8f0     4       1"));
        assert!(rendered.contains("0x400fc8f4     0       0"));
    }

    /// "The indexes of each element will remain the same" across
    /// architectures — sizes/addresses may differ, entries must not.
    #[test]
    fn entries_architecture_independent() {
        let l = figure4_table(&PlatformSpec::linux_x86());
        let s64 = figure4_table(&PlatformSpec::solaris_sparc64());
        assert_eq!(l.rows().len(), s64.rows().len());
        for (a, b) in l.rows().iter().zip(s64.rows()) {
            assert_eq!(a.entry, b.entry);
            assert_eq!(a.path, b.path);
            assert_eq!(a.count, b.count);
            assert_eq!(a.kind, b.kind);
        }
        // Pointer row grew on LP64.
        assert_eq!(l.rows()[0].size, 4);
        assert_eq!(s64.rows()[0].size, 8);
    }

    #[test]
    fn locate_addresses() {
        let t = figure4_table(&PlatformSpec::linux_x86());
        assert_eq!(t.locate(PAPER_BASE), Some((0, 0)));
        assert_eq!(t.locate(PAPER_BASE + 4), Some((1, 0)));
        assert_eq!(t.locate(PAPER_BASE + 4 + 4 * 100), Some((1, 100)));
        // Mid-element address maps to the containing element.
        assert_eq!(t.locate(PAPER_BASE + 4 + 4 * 100 + 3), Some((1, 100)));
        assert_eq!(t.locate(0x400f_c8f0), Some((4, 0)));
        // Out of range.
        assert_eq!(t.locate(PAPER_BASE - 1), None);
        assert_eq!(t.locate(0x400f_c8f4), None);
    }

    #[test]
    fn locate_padding_returns_none() {
        // struct { char c; double d; } on SPARC has 7 pad bytes at +1.
        let def = StructBuilder::new("P")
            .scalar("c", hdsm_platform::scalar::ScalarKind::Char)
            .scalar("d", hdsm_platform::scalar::ScalarKind::Double)
            .build()
            .unwrap();
        let t = IndexTable::build(&CType::Struct(def), 0x1000, &PlatformSpec::solaris_sparc());
        assert_eq!(t.locate(0x1000), Some((0, 0)));
        assert_eq!(t.locate(0x1001), None);
        assert_eq!(t.locate(0x1007), None);
        assert_eq!(t.locate(0x1008), Some((1, 0)));
        assert_eq!(t.rows()[0].padding_after, 7);
    }

    #[test]
    fn elems_overlapping_clamps_to_the_row() {
        let t = figure4_table(&PlatformSpec::linux_x86());
        let (a, b) = (&t.rows()[1], &t.rows()[2]);
        // A write covering the tail of A and the first 2 elements of B.
        let (start, end) = (a.elem_addr(56167), b.elem_addr(2));
        assert_eq!(a.elems_overlapping(start, end), Some((56167, 2)));
        assert_eq!(b.elems_overlapping(start, end), Some((0, 2)));
        assert_eq!(t.rows()[3].elems_overlapping(start, end), None);
    }

    #[test]
    fn overlap_partial_element_includes_whole_element() {
        let t = figure4_table(&PlatformSpec::linux_x86());
        let a = &t.rows()[1];
        // One byte inside element 10.
        let ov = a.elems_overlapping(a.elem_addr(10) + 1, a.elem_addr(10) + 2);
        assert_eq!(ov, Some((10, 1)));
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let t = figure4_table(&PlatformSpec::linux_x86());
        for row in t.rows() {
            assert_eq!(row.elems_overlapping(PAPER_BASE, PAPER_BASE), None);
            assert_eq!(row.elems_overlapping(row.addr + 1, row.addr + 1), None);
            assert_eq!(
                row.elems_overlapping(PAPER_BASE - 100, PAPER_BASE - 50),
                None
            );
        }
    }

    #[test]
    fn nested_struct_flattening() {
        let inner = StructBuilder::new("I")
            .scalar("x", hdsm_platform::scalar::ScalarKind::Int)
            .scalar("y", hdsm_platform::scalar::ScalarKind::Int)
            .build()
            .unwrap();
        let outer = StructBuilder::new("O")
            .field("pair", CType::array(CType::Struct(inner), 2))
            .array("tail", hdsm_platform::scalar::ScalarKind::Double, 3)
            .build()
            .unwrap();
        let t = IndexTable::build(
            &CType::Struct(outer),
            0x2000,
            &PlatformSpec::solaris_sparc(),
        );
        let paths: Vec<&str> = t.rows().iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["pair.0.x", "pair.0.y", "pair.1.x", "pair.1.y", "tail"]
        );
        assert_eq!(t.rows()[4].count, 3);
    }
}
