//! Receiver-makes-right conversion.
//!
//! The sender never converts anything: it ships raw bytes in its own native
//! format plus a tag. The receiver ("makes right") either
//!
//! * detects that the sender is layout-homogeneous and performs a straight
//!   `memcpy` — the paper's homogeneous fast path, gated by a tag string
//!   comparison (§5: "a string comparison to ensure identical tags, as in
//!   the homogeneous case") and an endianness check from the wire header; or
//! * walks the source and destination layouts in lock-step, byte-swapping,
//!   sign-/zero-extending and resizing each scalar.
//!
//! Cross-size integer narrowing checks for representability — a value that
//! does not fit the destination type is a hard error, not silent truncation
//! (heterogeneous sharing cannot be made lossless by wishful thinking).

use hdsm_platform::endian::{
    fits_int, fits_uint, read_float, read_int, read_uint, write_float, write_int, write_uint,
    Endianness,
};
use hdsm_platform::layout::{LayoutKind, TypeLayout};
use hdsm_platform::scalar::ScalarClass;
use hdsm_platform::spec::PlatformSpec;
use std::fmt;

/// Counters describing what a conversion actually did — used by the
/// benchmarks to verify the fast path really is a memcpy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// Bytes moved through the homogeneous `memcpy` fast path.
    pub memcpy_bytes: u64,
    /// Individual scalars converted element-by-element.
    pub scalars_converted: u64,
    /// Scalars that needed a byte swap.
    pub scalars_swapped: u64,
    /// Scalars that changed size (widen/narrow).
    pub scalars_resized: u64,
}

impl ConversionStats {
    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &ConversionStats) {
        self.memcpy_bytes += other.memcpy_bytes;
        self.scalars_converted += other.scalars_converted;
        self.scalars_swapped += other.scalars_swapped;
        self.scalars_resized += other.scalars_resized;
    }
}

/// Errors from receiver-makes-right conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ConversionError {
    /// Source buffer length does not match the source layout/tag.
    SrcSizeMismatch {
        /// Expected bytes.
        expected: u64,
        /// Provided bytes.
        got: u64,
    },
    /// Destination buffer length does not match the destination layout.
    DstSizeMismatch {
        /// Expected bytes.
        expected: u64,
        /// Provided bytes.
        got: u64,
    },
    /// An integer value does not fit the destination representation.
    IntOverflow {
        /// The value that failed to narrow.
        value: i128,
        /// Destination size in bytes.
        dst_size: u32,
        /// Whether the destination is signed.
        signed: bool,
    },
    /// Source and destination layouts have different shapes (they were not
    /// computed from the same C type).
    ShapeMismatch(String),
    /// Float sizes other than 4/8 bytes.
    UnsupportedFloat {
        /// Offending size.
        size: u32,
    },
    /// Homogeneous apply was requested but tags differ.
    TagMismatch {
        /// Sender tag.
        src: String,
        /// Receiver tag.
        dst: String,
    },
}

impl fmt::Display for ConversionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConversionError::SrcSizeMismatch { expected, got } => {
                write!(f, "source buffer {got}B != tag size {expected}B")
            }
            ConversionError::DstSizeMismatch { expected, got } => {
                write!(f, "destination buffer {got}B != layout size {expected}B")
            }
            ConversionError::IntOverflow {
                value,
                dst_size,
                signed,
            } => write!(
                f,
                "{value} does not fit {}{}-byte destination",
                if *signed { "signed " } else { "unsigned " },
                dst_size
            ),
            ConversionError::ShapeMismatch(s) => write!(f, "layout shape mismatch: {s}"),
            ConversionError::UnsupportedFloat { size } => {
                write!(f, "unsupported float size {size}")
            }
            ConversionError::TagMismatch { src, dst } => {
                write!(f, "tag mismatch: sender {src} vs receiver {dst}")
            }
        }
    }
}

impl std::error::Error for ConversionError {}

/// Convert one scalar from the source representation to the destination
/// representation.
///
/// Public so the compiled-plan layer ([`crate::plan`]) and its property
/// tests can pin plan application against the canonical per-scalar
/// semantics.
pub fn convert_one(
    src: &[u8],
    src_endian: Endianness,
    dst: &mut [u8],
    dst_endian: Endianness,
    class: ScalarClass,
    stats: &mut ConversionStats,
) -> Result<(), ConversionError> {
    stats.scalars_converted += 1;
    if src.len() != dst.len() {
        stats.scalars_resized += 1;
    }
    if src_endian != dst_endian {
        stats.scalars_swapped += 1;
    }
    match class {
        ScalarClass::Signed => {
            let v = read_int(src, src_endian);
            if !fits_int(v, dst.len()) {
                return Err(ConversionError::IntOverflow {
                    value: v,
                    dst_size: dst.len() as u32,
                    signed: true,
                });
            }
            write_int(v, dst, dst_endian);
        }
        ScalarClass::Unsigned => {
            let v = read_uint(src, src_endian);
            if !fits_uint(v, dst.len()) {
                return Err(ConversionError::IntOverflow {
                    value: v as i128,
                    dst_size: dst.len() as u32,
                    signed: false,
                });
            }
            write_uint(v, dst, dst_endian);
        }
        ScalarClass::Float => {
            if !matches!(src.len(), 4 | 8) {
                return Err(ConversionError::UnsupportedFloat {
                    size: src.len() as u32,
                });
            }
            if !matches!(dst.len(), 4 | 8) {
                return Err(ConversionError::UnsupportedFloat {
                    size: dst.len() as u32,
                });
            }
            let v = read_float(src, src_endian);
            write_float(v, dst, dst_endian);
        }
        ScalarClass::Pointer => {
            // Pointers travel in index space (offset into the shared
            // region, biased by 1 so NULL stays all-zeros) — see
            // hdsm_platform::value. Cross-platform translation is therefore
            // an unsigned resize; a pointer into a region bigger than the
            // destination's address width is a genuine overflow.
            let v = read_uint(src, src_endian);
            if !fits_uint(v, dst.len()) {
                return Err(ConversionError::IntOverflow {
                    value: v as i128,
                    dst_size: dst.len() as u32,
                    signed: false,
                });
            }
            write_uint(v, dst, dst_endian);
        }
    }
    Ok(())
}

/// Convert a contiguous run of `count` scalars of one class.
///
/// The reference semantics of a run conversion: the DSM update path
/// applies the compiled [`crate::plan::RunPlan`], which is property-tested
/// byte- and stats-identical to this function, and `convert_block` (thread
/// migration) runs on it directly. Coalesced array-element runs (paper §5,
/// Figure 9 discussion) are converted with one call. Fast paths:
/// * same size and endianness → single `memcpy`;
/// * same size, opposite endianness → tight per-element byte swap.
#[allow(clippy::too_many_arguments)]
pub fn convert_scalar_run(
    src: &[u8],
    src_size: u32,
    src_endian: Endianness,
    dst: &mut [u8],
    dst_size: u32,
    dst_endian: Endianness,
    class: ScalarClass,
    count: u64,
    stats: &mut ConversionStats,
) -> Result<(), ConversionError> {
    let want_src = u64::from(src_size) * count;
    if src.len() as u64 != want_src {
        return Err(ConversionError::SrcSizeMismatch {
            expected: want_src,
            got: src.len() as u64,
        });
    }
    let want_dst = u64::from(dst_size) * count;
    if dst.len() as u64 != want_dst {
        return Err(ConversionError::DstSizeMismatch {
            expected: want_dst,
            got: dst.len() as u64,
        });
    }
    if src_size == dst_size && src_endian == dst_endian {
        dst.copy_from_slice(src);
        stats.memcpy_bytes += src.len() as u64;
        return Ok(());
    }
    if src_size == dst_size && (class != ScalarClass::Float || matches!(src_size, 4 | 8)) {
        // Same-size cross-endian (or same-endian different... unreachable):
        // plain byte reversal per element is exact for ints, pointers and
        // IEEE-754 floats alike.
        let s = src_size as usize;
        for (d, c) in dst.chunks_exact_mut(s).zip(src.chunks_exact(s)) {
            for (i, b) in c.iter().rev().enumerate() {
                d[i] = *b;
            }
        }
        stats.scalars_converted += count;
        stats.scalars_swapped += count;
        return Ok(());
    }
    let ss = src_size as usize;
    let ds = dst_size as usize;
    for i in 0..count as usize {
        convert_one(
            &src[i * ss..(i + 1) * ss],
            src_endian,
            &mut dst[i * ds..(i + 1) * ds],
            dst_endian,
            class,
            stats,
        )?;
    }
    Ok(())
}

/// Convert an entire typed block (struct/array/scalar) between two
/// platforms. `src_layout` and `dst_layout` must come from the same C type.
///
/// If the platforms are layout-homogeneous the whole block is `memcpy`'d.
pub fn convert_block(
    src_layout: &TypeLayout,
    src_plat: &PlatformSpec,
    src: &[u8],
    dst_layout: &TypeLayout,
    dst_plat: &PlatformSpec,
    dst: &mut [u8],
    stats: &mut ConversionStats,
) -> Result<(), ConversionError> {
    if src.len() as u64 != src_layout.size {
        return Err(ConversionError::SrcSizeMismatch {
            expected: src_layout.size,
            got: src.len() as u64,
        });
    }
    if dst.len() as u64 != dst_layout.size {
        return Err(ConversionError::DstSizeMismatch {
            expected: dst_layout.size,
            got: dst.len() as u64,
        });
    }
    if src_plat.homogeneous_with(dst_plat) {
        debug_assert_eq!(src_layout.size, dst_layout.size);
        dst.copy_from_slice(src);
        stats.memcpy_bytes += src.len() as u64;
        return Ok(());
    }
    convert_walk(src_layout, src_plat, src, dst_layout, dst_plat, dst, stats)
}

fn convert_walk(
    src_layout: &TypeLayout,
    src_plat: &PlatformSpec,
    src: &[u8],
    dst_layout: &TypeLayout,
    dst_plat: &PlatformSpec,
    dst: &mut [u8],
    stats: &mut ConversionStats,
) -> Result<(), ConversionError> {
    match (&src_layout.kind, &dst_layout.kind) {
        (LayoutKind::Scalar(sk), LayoutKind::Scalar(dk)) => {
            if sk.class() != dk.class() {
                return Err(ConversionError::ShapeMismatch(format!(
                    "scalar {sk:?} vs {dk:?}"
                )));
            }
            convert_one(
                src,
                src_plat.endian,
                dst,
                dst_plat.endian,
                sk.class(),
                stats,
            )
        }
        (
            LayoutKind::Array {
                elem: se, len: sl, ..
            },
            LayoutKind::Array {
                elem: de, len: dl, ..
            },
        ) => {
            if sl != dl {
                return Err(ConversionError::ShapeMismatch(format!(
                    "array length {sl} vs {dl}"
                )));
            }
            // Scalar-element arrays take the run fast path.
            if let (LayoutKind::Scalar(sk), LayoutKind::Scalar(_)) = (&se.kind, &de.kind) {
                return convert_scalar_run(
                    src,
                    se.size as u32,
                    src_plat.endian,
                    dst,
                    de.size as u32,
                    dst_plat.endian,
                    sk.class(),
                    *sl,
                    stats,
                );
            }
            let ss = se.size as usize;
            let ds = de.size as usize;
            for i in 0..*sl as usize {
                convert_walk(
                    se,
                    src_plat,
                    &src[i * ss..(i + 1) * ss],
                    de,
                    dst_plat,
                    &mut dst[i * ds..(i + 1) * ds],
                    stats,
                )?;
            }
            Ok(())
        }
        (LayoutKind::Struct { fields: sf, .. }, LayoutKind::Struct { fields: df, .. }) => {
            if sf.len() != df.len() {
                return Err(ConversionError::ShapeMismatch(format!(
                    "struct fields {} vs {}",
                    sf.len(),
                    df.len()
                )));
            }
            // Zero the destination so padding bytes are deterministic.
            dst.fill(0);
            for (s, d) in sf.iter().zip(df) {
                let so = s.offset as usize;
                let se = so + s.layout.size as usize;
                let dofs = d.offset as usize;
                let de = dofs + d.layout.size as usize;
                convert_walk(
                    &s.layout,
                    src_plat,
                    &src[so..se],
                    &d.layout,
                    dst_plat,
                    &mut dst[dofs..de],
                    stats,
                )?;
            }
            Ok(())
        }
        _ => Err(ConversionError::ShapeMismatch(
            "layout kinds differ".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsm_platform::ctype::{CType, StructBuilder};
    use hdsm_platform::scalar::ScalarKind;
    use hdsm_platform::spec::PlatformSpec;
    use hdsm_platform::value::Value;

    fn roundtrip_value(v: &Value, ty: &CType, a: &PlatformSpec, b: &PlatformSpec) {
        let la = TypeLayout::compute(ty, a);
        let lb = TypeLayout::compute(ty, b);
        let src = v.encode_vec(&la, a).unwrap();
        let mut dst = vec![0u8; lb.size as usize];
        let mut stats = ConversionStats::default();
        convert_block(&la, a, &src, &lb, b, &mut dst, &mut stats).unwrap();
        let back = Value::decode(&lb, b, &dst).unwrap();
        assert_eq!(&back, v, "{} -> {}", a.name, b.name);
    }

    #[test]
    fn int_array_linux_to_solaris() {
        let ty = CType::array(CType::Scalar(ScalarKind::Int), 100);
        let v = Value::Array((0..100).map(|i| Value::Int(i * 7 - 350)).collect());
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::solaris_sparc(),
        );
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::solaris_sparc(),
            &PlatformSpec::linux_x86(),
        );
    }

    #[test]
    fn doubles_cross_endian() {
        let ty = CType::array(CType::Scalar(ScalarKind::Double), 8);
        let v = Value::Array(
            (0..8)
                .map(|i| Value::Float((i as f64) * 0.125 - 0.5))
                .collect(),
        );
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::solaris_sparc(),
        );
    }

    #[test]
    fn long_widens_32_to_64() {
        let ty = CType::Scalar(ScalarKind::Long);
        let v = Value::Int(-123_456);
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::linux_x86_64(),
        );
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::solaris_sparc64(),
        );
    }

    #[test]
    fn long_narrowing_overflow_detected() {
        let ty = CType::Scalar(ScalarKind::Long);
        let p64 = PlatformSpec::linux_x86_64();
        let p32 = PlatformSpec::linux_x86();
        let l64 = TypeLayout::compute(&ty, &p64);
        let l32 = TypeLayout::compute(&ty, &p32);
        let src = Value::Int(1i128 << 40).encode_vec(&l64, &p64).unwrap();
        let mut dst = vec![0u8; 4];
        let mut stats = ConversionStats::default();
        let err = convert_block(&l64, &p64, &src, &l32, &p32, &mut dst, &mut stats);
        assert!(matches!(err, Err(ConversionError::IntOverflow { .. })));
    }

    #[test]
    fn struct_with_padding_relocation() {
        // Field offsets differ between i386 (double@4) and SPARC (double@8).
        let def = StructBuilder::new("S")
            .scalar("c", ScalarKind::Char)
            .scalar("d", ScalarKind::Double)
            .scalar("n", ScalarKind::Int)
            .build()
            .unwrap();
        let ty = CType::Struct(def);
        let v = Value::Struct(vec![Value::Int(-5), Value::Float(6.25), Value::Int(99)]);
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::solaris_sparc(),
        );
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::solaris_sparc(),
            &PlatformSpec::linux_x86(),
        );
    }

    #[test]
    fn same_endian_different_padding_relocates_fields() {
        // linux-x86 and linux-arm share byte order but not `double`
        // alignment, so field offsets differ and a raw memcpy would be
        // wrong; conversion must relocate without swapping any bytes.
        let def = StructBuilder::new("S")
            .scalar("c", ScalarKind::Char)
            .scalar("d", ScalarKind::Double)
            .build()
            .unwrap();
        let ty = CType::Struct(def);
        let x86 = PlatformSpec::linux_x86();
        let arm = PlatformSpec::linux_arm();
        let lx = TypeLayout::compute(&ty, &x86);
        let la = TypeLayout::compute(&ty, &arm);
        assert_ne!(lx.size, la.size); // 12 vs 16
        let v = Value::Struct(vec![Value::Int(3), Value::Float(1.25)]);
        let src = v.encode_vec(&lx, &x86).unwrap();
        let mut dst = vec![0u8; la.size as usize];
        let mut stats = ConversionStats::default();
        convert_block(&lx, &x86, &src, &la, &arm, &mut dst, &mut stats).unwrap();
        assert_eq!(Value::decode(&la, &arm, &dst).unwrap(), v);
        assert_eq!(stats.scalars_swapped, 0, "no byte swaps needed");
        assert_eq!(stats.memcpy_bytes, 0, "but no block memcpy either");
        roundtrip_value(&v, &ty, &x86, &arm);
    }

    #[test]
    fn homogeneous_block_is_pure_memcpy() {
        let ty = CType::array(CType::Scalar(ScalarKind::Int), 64);
        let s = PlatformSpec::solaris_sparc();
        let a = PlatformSpec::aix_power();
        let ls = TypeLayout::compute(&ty, &s);
        let la = TypeLayout::compute(&ty, &a);
        let v = Value::Array((0..64).map(Value::Int).collect());
        let src = v.encode_vec(&ls, &s).unwrap();
        let mut dst = vec![0u8; la.size as usize];
        let mut stats = ConversionStats::default();
        convert_block(&ls, &s, &src, &la, &a, &mut dst, &mut stats).unwrap();
        assert_eq!(stats.memcpy_bytes, 256);
        assert_eq!(stats.scalars_converted, 0);
        assert_eq!(dst, src);
    }

    #[test]
    fn heterogeneous_block_never_memcpys() {
        let ty = CType::array(CType::Scalar(ScalarKind::Int), 64);
        let l = PlatformSpec::linux_x86();
        let s = PlatformSpec::solaris_sparc();
        let ll = TypeLayout::compute(&ty, &l);
        let ls = TypeLayout::compute(&ty, &s);
        let v = Value::Array((0..64).map(Value::Int).collect());
        let src = v.encode_vec(&ll, &l).unwrap();
        let mut dst = vec![0u8; ls.size as usize];
        let mut stats = ConversionStats::default();
        convert_block(&ll, &l, &src, &ls, &s, &mut dst, &mut stats).unwrap();
        assert_eq!(stats.memcpy_bytes, 0);
        assert_eq!(stats.scalars_converted, 64);
        assert_eq!(stats.scalars_swapped, 64);
    }

    #[test]
    fn scalar_run_fast_swap_matches_generic() {
        let src_vals: Vec<i32> = (0..32).map(|i| i * -1234567).collect();
        let src: Vec<u8> = src_vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut dst = vec![0u8; src.len()];
        let mut stats = ConversionStats::default();
        convert_scalar_run(
            &src,
            4,
            Endianness::Little,
            &mut dst,
            4,
            Endianness::Big,
            ScalarClass::Signed,
            32,
            &mut stats,
        )
        .unwrap();
        let expect: Vec<u8> = src_vals.iter().flat_map(|v| v.to_be_bytes()).collect();
        assert_eq!(dst, expect);
        assert_eq!(stats.scalars_swapped, 32);
    }

    #[test]
    fn run_size_mismatch_errors() {
        let mut dst = vec![0u8; 8];
        let mut stats = ConversionStats::default();
        assert!(matches!(
            convert_scalar_run(
                &[0u8; 7],
                4,
                Endianness::Little,
                &mut dst,
                4,
                Endianness::Little,
                ScalarClass::Signed,
                2,
                &mut stats
            ),
            Err(ConversionError::SrcSizeMismatch { .. })
        ));
    }

    #[test]
    fn pointer_translation_preserves_offset_semantics() {
        // A pointer at offset 0x1234 on ILP32 LE must still reference
        // offset 0x1234 after conversion to LP64 BE.
        let ty = CType::Scalar(ScalarKind::Ptr);
        let v = Value::Ptr(Some(0x1234));
        roundtrip_value(
            &v,
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::solaris_sparc64(),
        );
        roundtrip_value(
            &Value::Ptr(None),
            &ty,
            &PlatformSpec::linux_x86(),
            &PlatformSpec::solaris_sparc64(),
        );
    }
}
