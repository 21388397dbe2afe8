//! Logical thread state.

use hdsm_platform::ctype::CType;
use hdsm_platform::layout::TypeLayout;
use hdsm_platform::spec::Platform;
use hdsm_platform::value::{Value, ValueError};

/// One block of live thread data (the unit MigThread tags and converts).
///
/// The bytes are always in the *native representation* of `platform` —
/// migrating a block to another platform goes through the portable image
/// ([`crate::packfmt`]) and receiver-makes-right conversion.
#[derive(Debug, Clone)]
pub struct TypedBlock {
    /// The declared C type of the block.
    pub ty: CType,
    /// Platform whose representation `bytes` uses.
    pub platform: Platform,
    /// Layout of `ty` on `platform` (cached).
    pub layout: TypeLayout,
    /// Native byte image.
    pub bytes: Vec<u8>,
}

impl TypedBlock {
    /// A zeroed block of `ty` on `platform`.
    pub fn zeroed(ty: CType, platform: Platform) -> TypedBlock {
        let layout = TypeLayout::compute(&ty, &platform);
        let bytes = vec![0u8; layout.size as usize];
        TypedBlock {
            ty,
            platform,
            layout,
            bytes,
        }
    }

    /// Decode the whole block to a logical value.
    pub fn value(&self) -> Result<Value, ValueError> {
        Value::decode(&self.layout, &self.platform, &self.bytes)
    }

    /// Overwrite the whole block from a logical value.
    pub fn set(&mut self, value: &Value) -> Result<(), ValueError> {
        value.encode(&self.layout, &self.platform, &mut self.bytes)
    }

    /// Decode one top-level struct field.
    pub fn get_field(&self, index: usize) -> Result<Value, ValueError> {
        let f = &self.layout.struct_fields()[index];
        let start = f.offset as usize;
        let end = start + f.layout.size as usize;
        Value::decode(&f.layout, &self.platform, &self.bytes[start..end])
    }

    /// Encode one top-level struct field.
    pub fn set_field(&mut self, index: usize, value: &Value) -> Result<(), ValueError> {
        let f = self.layout.struct_fields()[index].clone();
        let start = f.offset as usize;
        let end = start + f.layout.size as usize;
        value.encode(&f.layout, &self.platform, &mut self.bytes[start..end])
    }

    /// Size of the native image in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Locate the `leaf`-th scalar of this block: `(offset, size, kind)`.
    /// Leaf indexes are layout-independent; offsets are not.
    pub fn leaf_info(&self, leaf: u64) -> Option<(u64, u64, hdsm_platform::scalar::ScalarKind)> {
        let mut n = 0u64;
        let mut found = None;
        self.layout.for_each_scalar(0, &mut |off, kind, size| {
            if n == leaf {
                found = Some((off, size, kind));
            }
            n += 1;
        });
        found
    }

    /// Write a pointer word at the `leaf`-th scalar (which must be a
    /// pointer leaf): the symbolic representation `1 + target_offset`
    /// (`0` = NULL), in this block's native byte order and pointer size.
    pub fn write_ptr_leaf(
        &mut self,
        leaf: u64,
        target_offset: Option<u64>,
    ) -> Result<(), ValueError> {
        let (off, size, kind) = self.leaf_info(leaf).ok_or(ValueError::ArityMismatch {
            expected: 0,
            got: leaf,
        })?;
        if kind != hdsm_platform::scalar::ScalarKind::Ptr {
            return Err(ValueError::ShapeMismatch(format!(
                "leaf {leaf} is {kind:?}, not a pointer"
            )));
        }
        let raw = match target_offset {
            None => 0u128,
            Some(o) => 1 + u128::from(o),
        };
        if !hdsm_platform::endian::fits_uint(raw, size as usize) {
            return Err(ValueError::Overflow {
                kind,
                value: format!("{target_offset:?}"),
            });
        }
        hdsm_platform::endian::write_uint(
            raw,
            &mut self.bytes[off as usize..(off + size) as usize],
            self.platform.endian,
        );
        Ok(())
    }

    /// Read a pointer word at the `leaf`-th scalar as a target offset.
    pub fn read_ptr_leaf(&self, leaf: u64) -> Result<Option<u64>, ValueError> {
        let (off, size, kind) = self.leaf_info(leaf).ok_or(ValueError::ArityMismatch {
            expected: 0,
            got: leaf,
        })?;
        if kind != hdsm_platform::scalar::ScalarKind::Ptr {
            return Err(ValueError::ShapeMismatch(format!(
                "leaf {leaf} is {kind:?}, not a pointer"
            )));
        }
        let raw = hdsm_platform::endian::read_uint(
            &self.bytes[off as usize..(off + size) as usize],
            self.platform.endian,
        );
        Ok(if raw == 0 {
            None
        } else {
            Some((raw - 1) as u64)
        })
    }
}

/// A named block within a thread state. Conventional names: `"MThV"` for
/// value state, `"MThP"` for pointer state (paper Fig. 3), `"stack:<n>"`
/// for stack frames, `"heap:<n>"` for heap objects.
#[derive(Debug, Clone)]
pub struct NamedBlock {
    /// Block name.
    pub name: String,
    /// The block data.
    pub block: TypedBlock,
}

/// A cross-block pointer: "the `src_leaf`-th scalar of block `src_block`
/// points at the `dst_leaf`-th scalar of block `dst_block`".
///
/// Leaf indexes are *layout-independent* (they count scalar leaves in
/// declaration order), so a link survives heterogeneous migration even
/// though the byte offsets of both ends change with the platform — the
/// same trick the DSD index table plays for `GThV` pointers. This is what
/// lets MigThread ship stack/heap pointers that systems like Ariadne
/// (paper §2) recover by error-prone stack scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Block holding the pointer.
    pub src_block: String,
    /// Scalar-leaf index of the pointer within `src_block`.
    pub src_leaf: u64,
    /// Block the pointer targets.
    pub dst_block: String,
    /// Scalar-leaf index of the target within `dst_block`.
    pub dst_leaf: u64,
}

/// The complete logical state of one application thread, as captured at an
/// adaptation point.
#[derive(Debug, Clone)]
pub struct ThreadState {
    /// Program identifier — the receiving node's registry must know it
    /// (the same application binary runs on every node; paper §3.1).
    pub program: String,
    /// Logical resume point (valid only at adaptation points).
    pub resume_point: u32,
    /// Named data blocks.
    pub blocks: Vec<NamedBlock>,
    /// Cross-block pointers, re-targeted on restore.
    pub links: Vec<Link>,
}

impl ThreadState {
    /// Create an empty state for `program`.
    pub fn new(program: impl Into<String>) -> ThreadState {
        ThreadState {
            program: program.into(),
            resume_point: 0,
            blocks: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Record a cross-block pointer (see [`Link`]). The pointer's stored
    /// word is materialised at restore time; callers only maintain the
    /// logical link.
    pub fn add_link(
        &mut self,
        src_block: impl Into<String>,
        src_leaf: u64,
        dst_block: impl Into<String>,
        dst_leaf: u64,
    ) {
        self.links.push(Link {
            src_block: src_block.into(),
            src_leaf,
            dst_block: dst_block.into(),
            dst_leaf,
        });
    }

    /// Append a named block.
    pub fn push_block(&mut self, name: impl Into<String>, block: TypedBlock) {
        self.blocks.push(NamedBlock {
            name: name.into(),
            block,
        });
    }

    /// Find a block by name.
    pub fn block(&self, name: &str) -> Option<&TypedBlock> {
        self.blocks
            .iter()
            .find(|b| b.name == name)
            .map(|b| &b.block)
    }

    /// Find a block by name, mutably.
    pub fn block_mut(&mut self, name: &str) -> Option<&mut TypedBlock> {
        self.blocks
            .iter_mut()
            .find(|b| b.name == name)
            .map(|b| &mut b.block)
    }

    /// Total native bytes across blocks.
    pub fn total_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.block.size()).sum()
    }

    /// Materialise every [`Link`] into its pointer word: for each link,
    /// the target's byte offset *in the current layout* is written into
    /// the source pointer leaf. Called automatically after restore; call
    /// manually after mutating `links` locally.
    pub fn materialize_links(&mut self) -> Result<(), ValueError> {
        let links = self.links.clone();
        for link in &links {
            let target_off = {
                let dst = self.block(&link.dst_block).ok_or_else(|| {
                    ValueError::ShapeMismatch(format!("no block {}", link.dst_block))
                })?;
                let (off, _, _) = dst.leaf_info(link.dst_leaf).ok_or_else(|| {
                    ValueError::ShapeMismatch(format!(
                        "no leaf {} in {}",
                        link.dst_leaf, link.dst_block
                    ))
                })?;
                off
            };
            let src = self
                .block_mut(&link.src_block)
                .ok_or_else(|| ValueError::ShapeMismatch(format!("no block {}", link.src_block)))?;
            src.write_ptr_leaf(link.src_leaf, Some(target_off))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_platform::ctype::StructBuilder;
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::PlatformSpec;

    fn mthv_type() -> CType {
        CType::Struct(
            StructBuilder::new("MThV")
                .scalar("p", ScalarKind::Ptr)
                .scalar("i", ScalarKind::Int)
                .scalar("sum", ScalarKind::Double)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn zeroed_block_decodes_to_zero() {
        let b = TypedBlock::zeroed(mthv_type(), PlatformSpec::solaris_sparc());
        let v = b.value().unwrap();
        assert_eq!(v.field(0), &Value::Ptr(None));
        assert_eq!(v.field(1), &Value::Int(0));
        assert_eq!(v.field(2), &Value::Float(0.0));
    }

    #[test]
    fn field_level_access() {
        let mut b = TypedBlock::zeroed(mthv_type(), PlatformSpec::linux_x86());
        b.set_field(1, &Value::Int(42)).unwrap();
        b.set_field(2, &Value::Float(1.5)).unwrap();
        assert_eq!(b.get_field(1).unwrap(), Value::Int(42));
        assert_eq!(b.get_field(2).unwrap(), Value::Float(1.5));
        assert_eq!(b.get_field(0).unwrap(), Value::Ptr(None));
    }

    #[test]
    fn blocks_are_native_representation() {
        let mut le = TypedBlock::zeroed(CType::Scalar(ScalarKind::Int), PlatformSpec::linux_x86());
        let mut be = TypedBlock::zeroed(
            CType::Scalar(ScalarKind::Int),
            PlatformSpec::solaris_sparc(),
        );
        le.set(&Value::Int(1)).unwrap();
        be.set(&Value::Int(1)).unwrap();
        assert_eq!(le.bytes, vec![1, 0, 0, 0]);
        assert_eq!(be.bytes, vec![0, 0, 0, 1]);
    }

    #[test]
    fn thread_state_block_lookup() {
        let mut st = ThreadState::new("matmul");
        st.push_block(
            "MThV",
            TypedBlock::zeroed(mthv_type(), PlatformSpec::linux_x86()),
        );
        st.resume_point = 3;
        assert!(st.block("MThV").is_some());
        assert!(st.block("MThP").is_none());
        st.block_mut("MThV")
            .unwrap()
            .set_field(1, &Value::Int(7))
            .unwrap();
        assert_eq!(
            st.block("MThV").unwrap().get_field(1).unwrap(),
            Value::Int(7)
        );
        assert!(st.total_bytes() > 0);
    }
}
