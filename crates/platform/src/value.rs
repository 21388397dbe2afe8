//! Platform-independent typed values.
//!
//! A [`Value`] is the *logical* content of a piece of shared data — the
//! application-level abstraction the paper keeps talking about. Encoding a
//! value against a [`TypeLayout`] produces the exact byte image a C program
//! on that platform would hold in memory (native endianness, native sizes,
//! real padding bytes); decoding recovers the logical value. The simulator
//! uses this to materialise "big-endian node memory" on the little-endian
//! host, and the test suite uses encode→convert→decode round-trips as the
//! ground truth for CGT-RMR conversion.

use crate::endian::{
    fits_int, fits_uint, read_float, read_int, read_uint, write_float, write_int, write_uint,
};
use crate::layout::{LayoutKind, TypeLayout};
use crate::scalar::{ScalarClass, ScalarKind};
use crate::spec::PlatformSpec;
use std::fmt;

/// A logical value of some C type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Any integer scalar (stored wide; encoding truncates/extends to the
    /// platform's size for the declared kind).
    Int(i128),
    /// Any float scalar.
    Float(f64),
    /// A pointer, held *symbolically* as a byte offset into the shared
    /// region (`None` = NULL). Raw addresses never travel between nodes —
    /// the paper's index table exists precisely to make pointers portable.
    Ptr(Option<u64>),
    /// Array elements.
    Array(Vec<Value>),
    /// Struct fields in declaration order.
    Struct(Vec<Value>),
}

impl Value {
    /// A zero value matching the shape of `layout`.
    pub fn zero_of(layout: &TypeLayout) -> Value {
        match &layout.kind {
            LayoutKind::Scalar(kind) => match kind.class() {
                ScalarClass::Signed | ScalarClass::Unsigned => Value::Int(0),
                ScalarClass::Float => Value::Float(0.0),
                ScalarClass::Pointer => Value::Ptr(None),
            },
            LayoutKind::Array { elem, len } => {
                Value::Array((0..*len).map(|_| Value::zero_of(elem)).collect())
            }
            LayoutKind::Struct { fields, .. } => {
                Value::Struct(fields.iter().map(|f| Value::zero_of(&f.layout)).collect())
            }
        }
    }

    /// Encode into `out` (which must be exactly `layout.size` bytes) in the
    /// platform's native representation. Padding bytes are zeroed, matching
    /// what the DSM's twin/diff sees for freshly protected pages.
    pub fn encode(
        &self,
        layout: &TypeLayout,
        platform: &PlatformSpec,
        out: &mut [u8],
    ) -> Result<(), ValueError> {
        if out.len() as u64 != layout.size {
            return Err(ValueError::SizeMismatch {
                expected: layout.size,
                got: out.len() as u64,
            });
        }
        match (&layout.kind, self) {
            (LayoutKind::Scalar(kind), v) => encode_scalar(v, *kind, platform, out),
            (LayoutKind::Array { elem, len }, Value::Array(items)) => {
                if items.len() as u64 != *len {
                    return Err(ValueError::ArityMismatch {
                        expected: *len,
                        got: items.len() as u64,
                    });
                }
                let stride = elem.size as usize;
                for (i, item) in items.iter().enumerate() {
                    item.encode(elem, platform, &mut out[i * stride..(i + 1) * stride])?;
                }
                Ok(())
            }
            (LayoutKind::Struct { fields, .. }, Value::Struct(vals)) => {
                if vals.len() != fields.len() {
                    return Err(ValueError::ArityMismatch {
                        expected: fields.len() as u64,
                        got: vals.len() as u64,
                    });
                }
                out.fill(0);
                for (fl, v) in fields.iter().zip(vals) {
                    let start = fl.offset as usize;
                    let end = start + fl.layout.size as usize;
                    v.encode(&fl.layout, platform, &mut out[start..end])?;
                }
                Ok(())
            }
            (_, v) => Err(ValueError::ShapeMismatch(format!(
                "value {v} does not match layout"
            ))),
        }
    }

    /// Encode into a fresh buffer of the right size.
    pub fn encode_vec(
        &self,
        layout: &TypeLayout,
        platform: &PlatformSpec,
    ) -> Result<Vec<u8>, ValueError> {
        let mut buf = vec![0u8; layout.size as usize];
        self.encode(layout, platform, &mut buf)?;
        Ok(buf)
    }

    /// Decode a native byte image back into a logical value.
    pub fn decode(
        layout: &TypeLayout,
        platform: &PlatformSpec,
        bytes: &[u8],
    ) -> Result<Value, ValueError> {
        if bytes.len() as u64 != layout.size {
            return Err(ValueError::SizeMismatch {
                expected: layout.size,
                got: bytes.len() as u64,
            });
        }
        match &layout.kind {
            LayoutKind::Scalar(kind) => decode_scalar(*kind, platform, bytes),
            LayoutKind::Array { elem, len } => {
                let stride = elem.size as usize;
                let mut items = Vec::with_capacity(*len as usize);
                for i in 0..*len as usize {
                    items.push(Value::decode(
                        elem,
                        platform,
                        &bytes[i * stride..(i + 1) * stride],
                    )?);
                }
                Ok(Value::Array(items))
            }
            LayoutKind::Struct { fields, .. } => {
                let mut vals = Vec::with_capacity(fields.len());
                for fl in fields {
                    let start = fl.offset as usize;
                    let end = start + fl.layout.size as usize;
                    vals.push(Value::decode(&fl.layout, platform, &bytes[start..end])?);
                }
                Ok(Value::Struct(vals))
            }
        }
    }

    /// Access a struct field by position; panics on non-structs (test aid).
    pub fn field(&self, i: usize) -> &Value {
        match self {
            Value::Struct(v) => &v[i],
            other => panic!("field() on non-struct value {other}"),
        }
    }

    /// Interpret as integer; panics otherwise (test aid).
    pub fn as_int(&self) -> i128 {
        match self {
            Value::Int(v) => *v,
            other => panic!("as_int on {other}"),
        }
    }
}

fn encode_scalar(
    v: &Value,
    kind: ScalarKind,
    platform: &PlatformSpec,
    out: &mut [u8],
) -> Result<(), ValueError> {
    let endian = platform.endian;
    match (kind.class(), v) {
        (ScalarClass::Signed, Value::Int(x)) => {
            if !fits_int(*x, out.len()) {
                return Err(ValueError::Overflow {
                    kind,
                    value: x.to_string(),
                });
            }
            write_int(*x, out, endian);
            Ok(())
        }
        (ScalarClass::Unsigned, Value::Int(x)) => {
            if *x < 0 || !fits_uint(*x as u128, out.len()) {
                return Err(ValueError::Overflow {
                    kind,
                    value: x.to_string(),
                });
            }
            write_uint(*x as u128, out, endian);
            Ok(())
        }
        (ScalarClass::Float, Value::Float(x)) => {
            write_float(*x, out, endian);
            Ok(())
        }
        (ScalarClass::Pointer, Value::Ptr(p)) => {
            // NULL encodes as 0; non-NULL encodes as 1 + offset, the same
            // "index-space" representation the conversion layer ships. See
            // hdsm-tags::convert for the cross-node translation.
            let raw = match p {
                None => 0u128,
                Some(off) => 1u128 + u128::from(*off),
            };
            if !fits_uint(raw, out.len()) {
                return Err(ValueError::Overflow {
                    kind,
                    value: format!("{p:?}"),
                });
            }
            write_uint(raw, out, endian);
            Ok(())
        }
        (_, v) => Err(ValueError::ShapeMismatch(format!(
            "value {v} is not a {kind:?}"
        ))),
    }
}

fn decode_scalar(
    kind: ScalarKind,
    platform: &PlatformSpec,
    bytes: &[u8],
) -> Result<Value, ValueError> {
    let endian = platform.endian;
    Ok(match kind.class() {
        ScalarClass::Signed => Value::Int(read_int(bytes, endian)),
        ScalarClass::Unsigned => Value::Int(read_uint(bytes, endian) as i128),
        ScalarClass::Float => Value::Float(read_float(bytes, endian)),
        ScalarClass::Pointer => {
            let raw = read_uint(bytes, endian);
            Value::Ptr(if raw == 0 {
                None
            } else {
                Some((raw - 1) as u64)
            })
        }
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ptr(None) => write!(f, "NULL"),
            Value::Ptr(Some(off)) => write!(f, "&shared+{off:#x}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, it) in items.iter().take(8).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                if items.len() > 8 {
                    write!(f, ", …×{}", items.len())?;
                }
                write!(f, "]")
            }
            Value::Struct(fields) => {
                write!(f, "{{")?;
                for (i, it) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Errors from encoding/decoding values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// Buffer size does not match the layout size.
    SizeMismatch {
        /// Bytes the layout requires.
        expected: u64,
        /// Bytes provided.
        got: u64,
    },
    /// Array/struct arity mismatch.
    ArityMismatch {
        /// Elements the layout requires.
        expected: u64,
        /// Elements provided.
        got: u64,
    },
    /// Value variant does not match the layout shape.
    ShapeMismatch(String),
    /// Integer/pointer does not fit the platform's representation. This is
    /// the honest failure mode of heterogeneous sharing: a 64-bit value has
    /// no faithful image on an ILP32 node.
    Overflow {
        /// Scalar kind being encoded.
        kind: ScalarKind,
        /// The offending value (stringified).
        value: String,
    },
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::SizeMismatch { expected, got } => {
                write!(f, "buffer size {got} != layout size {expected}")
            }
            ValueError::ArityMismatch { expected, got } => {
                write!(f, "arity {got} != expected {expected}")
            }
            ValueError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
            ValueError::Overflow { kind, value } => {
                write!(
                    f,
                    "{value} does not fit a {} on this platform",
                    kind.c_name()
                )
            }
        }
    }
}

impl std::error::Error for ValueError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctype::{CType, StructBuilder};
    use crate::spec::PlatformSpec;

    fn layout_on(ty: &CType, p: &PlatformSpec) -> TypeLayout {
        TypeLayout::compute(ty, p)
    }

    #[test]
    fn int_encoding_matches_native_byte_order() {
        let ty = CType::Scalar(ScalarKind::Int);
        let lx = PlatformSpec::linux_x86();
        let sp = PlatformSpec::solaris_sparc();
        let v = Value::Int(0x0102_0304);
        assert_eq!(
            v.encode_vec(&layout_on(&ty, &lx), &lx).unwrap(),
            0x0102_0304u32.to_le_bytes()
        );
        assert_eq!(
            v.encode_vec(&layout_on(&ty, &sp), &sp).unwrap(),
            0x0102_0304u32.to_be_bytes()
        );
    }

    #[test]
    fn roundtrip_on_every_preset() {
        let def = StructBuilder::new("Mix")
            .scalar("c", ScalarKind::Char)
            .scalar("d", ScalarKind::Double)
            .array("xs", ScalarKind::Short, 5)
            .scalar("p", ScalarKind::Ptr)
            .scalar("l", ScalarKind::Long)
            .build()
            .unwrap();
        let ty = CType::Struct(def);
        let v = Value::Struct(vec![
            Value::Int(-7),
            Value::Float(2.75),
            Value::Array((0..5).map(|i| Value::Int(i * 100 - 200)).collect()),
            Value::Ptr(Some(0x1234)),
            Value::Int(-1_000_000),
        ]);
        for p in PlatformSpec::presets() {
            let l = layout_on(&ty, &p);
            let bytes = v.encode_vec(&l, &p).unwrap();
            let back = Value::decode(&l, &p, &bytes).unwrap();
            assert_eq!(back, v, "roundtrip failed on {}", p.name);
        }
    }

    #[test]
    fn overflow_detected_on_narrow_platform() {
        let ty = CType::Scalar(ScalarKind::Long);
        let p32 = PlatformSpec::linux_x86();
        let l32 = layout_on(&ty, &p32);
        let too_big = Value::Int(1i128 << 40);
        assert!(matches!(
            too_big.encode_vec(&l32, &p32),
            Err(ValueError::Overflow { .. })
        ));
        let p64 = PlatformSpec::linux_x86_64();
        let l64 = layout_on(&ty, &p64);
        assert!(too_big.encode_vec(&l64, &p64).is_ok());
    }

    #[test]
    fn unsigned_rejects_negative() {
        let ty = CType::Scalar(ScalarKind::UInt);
        let p = PlatformSpec::linux_x86();
        let l = layout_on(&ty, &p);
        assert!(Value::Int(-1).encode_vec(&l, &p).is_err());
        assert!(Value::Int(0xffff_ffff).encode_vec(&l, &p).is_ok());
    }

    #[test]
    fn null_and_offset_pointers() {
        let ty = CType::Scalar(ScalarKind::Ptr);
        for p in PlatformSpec::presets() {
            let l = layout_on(&ty, &p);
            let null = Value::Ptr(None).encode_vec(&l, &p).unwrap();
            assert!(null.iter().all(|&b| b == 0));
            let off = Value::Ptr(Some(42)).encode_vec(&l, &p).unwrap();
            assert_eq!(Value::decode(&l, &p, &off).unwrap(), Value::Ptr(Some(42)));
        }
    }

    #[test]
    fn padding_bytes_are_zeroed() {
        let def = StructBuilder::new("P")
            .scalar("c", ScalarKind::Char)
            .scalar("d", ScalarKind::Double)
            .build()
            .unwrap();
        let ty = CType::Struct(def);
        let p = PlatformSpec::solaris_sparc();
        let l = layout_on(&ty, &p);
        let bytes = Value::Struct(vec![Value::Int(-1), Value::Float(1.0)])
            .encode_vec(&l, &p)
            .unwrap();
        assert_eq!(&bytes[1..8], &[0u8; 7]); // padding between c and d
    }

    #[test]
    fn shape_mismatch_rejected() {
        let ty = CType::Scalar(ScalarKind::Int);
        let p = PlatformSpec::linux_x86();
        let l = layout_on(&ty, &p);
        assert!(Value::Float(1.0).encode_vec(&l, &p).is_err());
        let arr = CType::array(CType::Scalar(ScalarKind::Int), 3);
        let la = layout_on(&arr, &p);
        assert!(matches!(
            Value::Array(vec![Value::Int(1)]).encode_vec(&la, &p),
            Err(ValueError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn zero_of_matches_layout() {
        let ty = CType::Struct(crate::ctype::paper_figure4_struct());
        let p = PlatformSpec::linux_x86();
        let l = layout_on(&ty, &p);
        let z = Value::zero_of(&l);
        let bytes = z.encode_vec(&l, &p).unwrap();
        assert!(bytes.iter().all(|&b| b == 0));
    }
}
