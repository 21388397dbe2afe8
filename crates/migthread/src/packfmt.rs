//! The portable migration image.
//!
//! Packing produces, per block, a CGT-RMR tag plus the raw native bytes —
//! "the physical state is transformed into a logical form to achieve
//! platform-independence" (paper §3.1). The *sender does no conversion*;
//! the receiver rebuilds each block in its own representation from the
//! shared type declaration (receiver makes right).

use crate::state::{Link, NamedBlock, ThreadState, TypedBlock};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_platform::layout::TypeLayout;
use hdsm_platform::spec::{Platform, PlatformSpec};
use hdsm_tags::convert::{convert_block, ConversionError, ConversionStats};
use hdsm_tags::generate::tag_for;
use hdsm_tags::parse::parse_tag;
use hdsm_tags::wire::bounded_vec;
use std::fmt;

/// Magic guarding migration images.
const MAGIC: u32 = 0x4D695468; // "MiTh"

/// A serialized thread state ready for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    /// The frame bytes.
    pub bytes: Bytes,
}

/// Errors during migration pack/unpack/restore.
#[derive(Debug)]
pub enum MigrateError {
    /// Image is malformed or truncated.
    BadImage(String),
    /// The sending platform is not known to the receiver.
    UnknownPlatform(String),
    /// The receiver has no registered program of this name.
    UnknownProgram(String),
    /// The tag in the image disagrees with the sender layout of the
    /// declared type — a corrupted or mismatched image.
    TagMismatch {
        /// Tag in the image.
        image: String,
        /// Tag expected from the declared type on the sender platform.
        expected: String,
    },
    /// Receiver-makes-right conversion failed.
    Conversion(ConversionError),
    /// A block name in the image does not exist in the receiver's state
    /// declaration.
    UnknownBlock(String),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::BadImage(s) => write!(f, "bad migration image: {s}"),
            MigrateError::UnknownPlatform(p) => write!(f, "unknown platform {p}"),
            MigrateError::UnknownProgram(p) => write!(f, "unknown program {p}"),
            MigrateError::TagMismatch { image, expected } => {
                write!(f, "tag mismatch: image {image} vs expected {expected}")
            }
            MigrateError::Conversion(e) => write!(f, "conversion failed: {e}"),
            MigrateError::UnknownBlock(b) => write!(f, "unknown block {b}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<ConversionError> for MigrateError {
    fn from(e: ConversionError) -> Self {
        MigrateError::Conversion(e)
    }
}

fn put_str(out: &mut BytesMut, s: &str) {
    out.put_u16(s.len().min(u16::MAX as usize) as u16);
    out.put_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
}

fn get_str(buf: &mut Bytes) -> Result<String, MigrateError> {
    if buf.remaining() < 2 {
        return Err(MigrateError::BadImage("truncated string length".into()));
    }
    let n = buf.get_u16() as usize;
    if buf.remaining() < n {
        return Err(MigrateError::BadImage("truncated string".into()));
    }
    String::from_utf8(buf.copy_to_bytes(n).to_vec())
        .map_err(|_| MigrateError::BadImage("non-UTF-8 string".into()))
}

/// Pack a thread state into a portable image. Every block is shipped as
/// `(name, tag, native-bytes)`; the image header records the program name,
/// resume point and sending platform.
pub fn pack_state(state: &ThreadState) -> StateImage {
    let mut out = BytesMut::with_capacity(64 + state.total_bytes());
    out.put_u32(MAGIC);
    put_str(&mut out, &state.program);
    out.put_u32(state.resume_point);
    // All blocks of one thread live on one platform; record it once from
    // the first block (an empty state records an empty platform name).
    let plat_name = state
        .blocks
        .first()
        .map(|b| b.block.platform.name.clone())
        .unwrap_or_default();
    put_str(&mut out, &plat_name);
    out.put_u32(state.blocks.len() as u32);
    for nb in &state.blocks {
        put_str(&mut out, &nb.name);
        let tag = tag_for(&nb.block.layout).to_string();
        put_str(&mut out, &tag);
        out.put_u64(nb.block.bytes.len() as u64);
        out.put_slice(&nb.block.bytes);
    }
    out.put_u32(state.links.len() as u32);
    for l in &state.links {
        put_str(&mut out, &l.src_block);
        out.put_u64(l.src_leaf);
        put_str(&mut out, &l.dst_block);
        out.put_u64(l.dst_leaf);
    }
    StateImage {
        bytes: out.freeze(),
    }
}

/// A block parsed out of an image (still in sender representation).
#[derive(Debug, Clone)]
pub struct RawBlock {
    /// Block name.
    pub name: String,
    /// Tag string from the image.
    pub tag: String,
    /// Sender-native bytes.
    pub bytes: Bytes,
}

/// Parsed image header + raw blocks.
#[derive(Debug, Clone)]
pub struct ParsedImage {
    /// Program name.
    pub program: String,
    /// Resume point.
    pub resume_point: u32,
    /// Sender platform name.
    pub platform: String,
    /// Raw blocks.
    pub blocks: Vec<RawBlock>,
    /// Cross-block pointer links.
    pub links: Vec<Link>,
}

/// Parse an image without converting (the receiver's first step).
pub fn parse_image(image: &StateImage) -> Result<ParsedImage, MigrateError> {
    let mut buf = image.bytes.clone();
    if buf.remaining() < 4 || buf.get_u32() != MAGIC {
        return Err(MigrateError::BadImage("bad magic".into()));
    }
    let program = get_str(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(MigrateError::BadImage("truncated header".into()));
    }
    let resume_point = buf.get_u32();
    let platform = get_str(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(MigrateError::BadImage("truncated block count".into()));
    }
    let n = buf.get_u32();
    // Smallest block: two empty strings and a zero data length.
    let mut blocks = bounded_vec(
        n,
        2 + 2 + 8,
        buf.remaining(),
        MigrateError::BadImage("truncated block table".into()),
    )?;
    for _ in 0..n {
        let name = get_str(&mut buf)?;
        let tag = get_str(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(MigrateError::BadImage("truncated block length".into()));
        }
        let len = buf.get_u64() as usize;
        if buf.remaining() < len {
            return Err(MigrateError::BadImage("truncated block data".into()));
        }
        let bytes = buf.copy_to_bytes(len);
        blocks.push(RawBlock { name, tag, bytes });
    }
    if buf.remaining() < 4 {
        return Err(MigrateError::BadImage("truncated link count".into()));
    }
    let nl = buf.get_u32();
    // Smallest link: two empty block names and two leaf indices.
    let mut links = bounded_vec(
        nl,
        2 + 8 + 2 + 8,
        buf.remaining(),
        MigrateError::BadImage("truncated link table".into()),
    )?;
    for _ in 0..nl {
        let src_block = get_str(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(MigrateError::BadImage("truncated link".into()));
        }
        let src_leaf = buf.get_u64();
        let dst_block = get_str(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(MigrateError::BadImage("truncated link".into()));
        }
        let dst_leaf = buf.get_u64();
        links.push(Link {
            src_block,
            src_leaf,
            dst_block,
            dst_leaf,
        });
    }
    if buf.has_remaining() {
        return Err(MigrateError::BadImage("trailing bytes".into()));
    }
    Ok(ParsedImage {
        program,
        resume_point,
        platform,
        blocks,
        links,
    })
}

/// Restore a thread state on `target`: parse the image, look up the sender
/// platform, and receiver-makes-right convert every block into the local
/// representation. `declared` supplies the C type of each block name (the
/// shared program knowledge that replaces the preprocessor's tables).
pub fn unpack_state(
    image: &StateImage,
    target: &Platform,
    declared: &ThreadState,
) -> Result<ThreadState, MigrateError> {
    let parsed = parse_image(image)?;
    if parsed.program != declared.program {
        return Err(MigrateError::UnknownProgram(parsed.program));
    }
    let sender = PlatformSpec::by_name(&parsed.platform)
        .ok_or_else(|| MigrateError::UnknownPlatform(parsed.platform.clone()))?;
    let mut out = ThreadState::new(parsed.program.clone());
    out.resume_point = parsed.resume_point;
    for raw in &parsed.blocks {
        let decl = declared
            .block(&raw.name)
            .ok_or_else(|| MigrateError::UnknownBlock(raw.name.clone()))?;
        let src_layout = TypeLayout::compute(&decl.ty, &sender);
        // Validate the image tag against the declared type (the paper's
        // homogeneous string-compare doubles as an integrity check).
        let expected = tag_for(&src_layout).to_string();
        if raw.tag != expected {
            // Parse to confirm it's at least a tag, then report mismatch.
            let _ = parse_tag(&raw.tag)
                .map_err(|e| MigrateError::BadImage(format!("unparsable tag: {e}")))?;
            return Err(MigrateError::TagMismatch {
                image: raw.tag.clone(),
                expected,
            });
        }
        let mut local = TypedBlock::zeroed(decl.ty.clone(), target.clone());
        let mut stats = ConversionStats::default();
        convert_block(
            &src_layout,
            &sender,
            &raw.bytes,
            &local.layout.clone(),
            target,
            &mut local.bytes,
            &mut stats,
        )?;
        out.blocks.push(NamedBlock {
            name: raw.name.clone(),
            block: local,
        });
    }
    // Re-target cross-block pointers against the new layouts (paper §3.1:
    // pointers must be translated because addresses differ per platform).
    out.links = parsed.links;
    out.materialize_links()
        .map_err(|e| MigrateError::BadImage(format!("bad link: {e}")))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_platform::ctype::{CType, StructBuilder};
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::value::Value;

    fn mthv() -> CType {
        CType::Struct(
            StructBuilder::new("MThV")
                .scalar("i", ScalarKind::Int)
                .scalar("sum", ScalarKind::Double)
                .array("row", ScalarKind::Int, 16)
                .build()
                .unwrap(),
        )
    }

    fn sample_state(p: Platform) -> ThreadState {
        let mut st = ThreadState::new("matmul");
        st.resume_point = 2;
        let mut b = TypedBlock::zeroed(mthv(), p.clone());
        b.set_field(0, &Value::Int(5)).unwrap();
        b.set_field(1, &Value::Float(0.5)).unwrap();
        b.set_field(2, &Value::Array((0..16).map(Value::Int).collect()))
            .unwrap();
        st.push_block("MThV", b);
        let mut p_block = TypedBlock::zeroed(CType::Scalar(ScalarKind::Ptr), p);
        p_block.set(&Value::Ptr(Some(128))).unwrap();
        st.push_block("MThP", p_block);
        st
    }

    fn declared(p: &Platform) -> ThreadState {
        let mut st = ThreadState::new("matmul");
        st.push_block("MThV", TypedBlock::zeroed(mthv(), p.clone()));
        st.push_block(
            "MThP",
            TypedBlock::zeroed(CType::Scalar(ScalarKind::Ptr), p.clone()),
        );
        st
    }

    #[test]
    fn heterogeneous_migration_roundtrip() {
        let src = PlatformSpec::linux_x86();
        let dst = PlatformSpec::solaris_sparc();
        let st = sample_state(src);
        let image = pack_state(&st);
        let restored = unpack_state(&image, &dst, &declared(&dst)).unwrap();
        assert_eq!(restored.resume_point, 2);
        assert_eq!(restored.program, "matmul");
        let v = restored.block("MThV").unwrap().value().unwrap();
        assert_eq!(v.field(0), &Value::Int(5));
        assert_eq!(v.field(1), &Value::Float(0.5));
        assert_eq!(
            restored.block("MThP").unwrap().value().unwrap(),
            Value::Ptr(Some(128))
        );
        // Restored bytes are genuinely big-endian now.
        assert_ne!(
            restored.block("MThV").unwrap().bytes,
            st.block("MThV").unwrap().bytes
        );
    }

    #[test]
    fn homogeneous_migration_is_byte_identical() {
        let src = PlatformSpec::solaris_sparc();
        let dst = PlatformSpec::aix_power(); // homogeneous layout rules
        let st = sample_state(src);
        let image = pack_state(&st);
        let restored = unpack_state(&image, &dst, &declared(&dst)).unwrap();
        assert_eq!(
            restored.block("MThV").unwrap().bytes,
            st.block("MThV").unwrap().bytes
        );
    }

    #[test]
    fn ilp32_to_lp64_pointer_growth() {
        let src = PlatformSpec::linux_x86();
        let dst = PlatformSpec::solaris_sparc64();
        let st = sample_state(src);
        let restored = unpack_state(&pack_state(&st), &dst, &declared(&dst)).unwrap();
        let p = restored.block("MThP").unwrap();
        assert_eq!(p.size(), 8);
        assert_eq!(p.value().unwrap(), Value::Ptr(Some(128)));
    }

    #[test]
    fn unknown_program_rejected() {
        let src = PlatformSpec::linux_x86();
        let st = sample_state(src.clone());
        let image = pack_state(&st);
        let mut wrong = declared(&src);
        wrong.program = "lu".into();
        assert!(matches!(
            unpack_state(&image, &src, &wrong),
            Err(MigrateError::UnknownProgram(_))
        ));
    }

    #[test]
    fn unknown_block_rejected() {
        let src = PlatformSpec::linux_x86();
        let st = sample_state(src.clone());
        let image = pack_state(&st);
        let mut partial = ThreadState::new("matmul");
        partial.push_block("MThV", TypedBlock::zeroed(mthv(), src.clone()));
        assert!(matches!(
            unpack_state(&image, &src, &partial),
            Err(MigrateError::UnknownBlock(_))
        ));
    }

    #[test]
    fn truncated_images_rejected() {
        let st = sample_state(PlatformSpec::linux_x86());
        let image = pack_state(&st);
        for cut in 0..image.bytes.len().min(64) {
            let partial = StateImage {
                bytes: image.bytes.slice(..cut),
            };
            assert!(parse_image(&partial).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn empty_state_roundtrips() {
        let st = ThreadState::new("noop");
        let image = pack_state(&st);
        let parsed = parse_image(&image).unwrap();
        assert_eq!(parsed.blocks.len(), 0);
        assert_eq!(parsed.program, "noop");
        assert!(parsed.links.is_empty());
    }

    /// A stack frame holds a pointer into a heap object; after a
    /// heterogeneous migration the pointer must reference the same logical
    /// element even though the heap object's layout (and hence the
    /// target's byte offset) changed. This is the case the paper's
    /// related-work section says Ariadne's stack scanning "can fail" at.
    #[test]
    fn stack_to_heap_pointer_survives_heterogeneous_migration() {
        let linux = PlatformSpec::linux_x86();
        let sparc64 = PlatformSpec::solaris_sparc64();

        // Heap object: struct { char hdr; double payload[4]; } — offsets
        // differ between i386 (payload at 4) and SPARC64 (payload at 8).
        let heap_ty = CType::Struct(
            StructBuilder::new("Obj")
                .scalar("hdr", ScalarKind::Char)
                .array("payload", ScalarKind::Double, 4)
                .build()
                .unwrap(),
        );
        // Stack frame: struct { void *cursor; int depth; }.
        let frame_ty = CType::Struct(
            StructBuilder::new("Frame")
                .scalar("cursor", ScalarKind::Ptr)
                .scalar("depth", ScalarKind::Int)
                .build()
                .unwrap(),
        );

        let mut st = ThreadState::new("walker");
        let mut heap = TypedBlock::zeroed(heap_ty.clone(), linux.clone());
        heap.set_field(
            1,
            &Value::Array((0..4).map(|i| Value::Float(i as f64 + 0.5)).collect()),
        )
        .unwrap();
        st.push_block("heap:0", heap);
        let mut frame = TypedBlock::zeroed(frame_ty.clone(), linux.clone());
        frame.set_field(1, &Value::Int(3)).unwrap();
        st.push_block("stack:0", frame);
        // cursor = &heap_obj.payload[2] → leaf 3 of heap:0 (hdr is leaf 0,
        // payload[0..3] are leaves 1..4).
        st.add_link("stack:0", 0, "heap:0", 3);
        st.materialize_links().unwrap();

        // On the source platform the pointer word encodes offset 4+16=20.
        assert_eq!(
            st.block("stack:0").unwrap().read_ptr_leaf(0).unwrap(),
            Some(4 + 2 * 8)
        );

        // Migrate to big-endian LP64.
        let mut decl = ThreadState::new("walker");
        decl.push_block("heap:0", TypedBlock::zeroed(heap_ty, sparc64.clone()));
        decl.push_block("stack:0", TypedBlock::zeroed(frame_ty, sparc64.clone()));
        let restored = unpack_state(&pack_state(&st), &sparc64, &decl).unwrap();

        // Data converted…
        let heap = restored.block("heap:0").unwrap();
        assert_eq!(
            heap.get_field(1).unwrap(),
            Value::Array((0..4).map(|i| Value::Float(i as f64 + 0.5)).collect())
        );
        // …and the pointer re-targeted: payload starts at 8 on SPARC64, so
        // payload[2] is at byte offset 8 + 16 = 24, not 20.
        assert_eq!(
            restored.block("stack:0").unwrap().read_ptr_leaf(0).unwrap(),
            Some(8 + 2 * 8)
        );
        assert_eq!(restored.links, st.links);
        // Non-pointer frame data intact.
        assert_eq!(
            restored.block("stack:0").unwrap().get_field(1).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn link_to_missing_block_rejected_at_restore() {
        let linux = PlatformSpec::linux_x86();
        let mut st = sample_state(linux.clone());
        st.add_link("MThP", 0, "nonexistent", 0);
        let image = pack_state(&st);
        assert!(matches!(
            unpack_state(&image, &linux, &declared(&linux)),
            Err(MigrateError::BadImage(_))
        ));
    }

    #[test]
    fn link_to_non_pointer_leaf_rejected() {
        let linux = PlatformSpec::linux_x86();
        let mut st = sample_state(linux.clone());
        // Leaf 0 of MThV is an int, not a pointer.
        st.add_link("MThV", 0, "MThP", 0);
        assert!(st.materialize_links().is_err());
    }
}
