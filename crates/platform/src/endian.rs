//! Byte-order primitives.
//!
//! The conversion engine never assumes the host's endianness: every value
//! that crosses a node boundary is read and written through these helpers,
//! parameterised by the *declared* endianness of the simulated platform.

/// Byte order of a simulated platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    /// Least-significant byte first (x86, x86-64, little-endian ARM).
    Little,
    /// Most-significant byte first (SPARC, POWER, classic network order).
    Big,
}

impl Endianness {
    /// The host's byte order (used only by tests that cross-check against
    /// native `to_le_bytes`/`to_be_bytes`).
    pub const fn host() -> Self {
        #[cfg(target_endian = "little")]
        {
            Endianness::Little
        }
        #[cfg(target_endian = "big")]
        {
            Endianness::Big
        }
    }

    /// Short human label, `LE` / `BE`.
    pub const fn label(self) -> &'static str {
        match self {
            Endianness::Little => "LE",
            Endianness::Big => "BE",
        }
    }
}

/// Read an unsigned integer of `bytes.len()` bytes (1..=16) in the given
/// byte order.
///
/// # Panics
/// Panics if `bytes` is empty or longer than 16 bytes.
pub fn read_uint(bytes: &[u8], endian: Endianness) -> u128 {
    assert!(
        !bytes.is_empty() && bytes.len() <= 16,
        "read_uint supports 1..=16 bytes, got {}",
        bytes.len()
    );
    let mut acc: u128 = 0;
    match endian {
        Endianness::Big => {
            for &b in bytes {
                acc = (acc << 8) | u128::from(b);
            }
        }
        Endianness::Little => {
            for &b in bytes.iter().rev() {
                acc = (acc << 8) | u128::from(b);
            }
        }
    }
    acc
}

/// Read a signed integer of `bytes.len()` bytes, sign-extending from the
/// most significant *represented* bit.
pub fn read_int(bytes: &[u8], endian: Endianness) -> i128 {
    let raw = read_uint(bytes, endian);
    let bits = bytes.len() as u32 * 8;
    if bits == 128 {
        return raw as i128;
    }
    let sign_bit = 1u128 << (bits - 1);
    if raw & sign_bit != 0 {
        // Sign-extend.
        (raw | (u128::MAX << bits)) as i128
    } else {
        raw as i128
    }
}

/// Write the low `out.len()` bytes of `value` in the given byte order.
/// Truncates silently — callers that care about range check beforehand
/// (see [`fits_uint`] / [`fits_int`]).
pub fn write_uint(value: u128, out: &mut [u8], endian: Endianness) {
    assert!(
        !out.is_empty() && out.len() <= 16,
        "write_uint supports 1..=16 bytes, got {}",
        out.len()
    );
    let mut v = value;
    match endian {
        Endianness::Little => {
            for b in out.iter_mut() {
                *b = (v & 0xff) as u8;
                v >>= 8;
            }
        }
        Endianness::Big => {
            for b in out.iter_mut().rev() {
                *b = (v & 0xff) as u8;
                v >>= 8;
            }
        }
    }
}

/// Write a signed integer (two's complement truncation to `out.len()` bytes).
pub fn write_int(value: i128, out: &mut [u8], endian: Endianness) {
    write_uint(value as u128, out, endian);
}

/// Does `value` fit in an unsigned field of `size` bytes?
pub fn fits_uint(value: u128, size: usize) -> bool {
    if size >= 16 {
        return true;
    }
    value < (1u128 << (size * 8))
}

/// Does `value` fit in a signed two's-complement field of `size` bytes?
pub fn fits_int(value: i128, size: usize) -> bool {
    if size >= 16 {
        return true;
    }
    let bits = size as u32 * 8;
    let min = -(1i128 << (bits - 1));
    let max = (1i128 << (bits - 1)) - 1;
    value >= min && value <= max
}

/// Read an IEEE-754 float of 4 or 8 bytes into an `f64`.
pub fn read_float(bytes: &[u8], endian: Endianness) -> f64 {
    match bytes.len() {
        4 => f32::from_bits(read_uint(bytes, endian) as u32) as f64,
        8 => f64::from_bits(read_uint(bytes, endian) as u64),
        n => panic!("unsupported float size {n}"),
    }
}

/// Write an `f64` as an IEEE-754 float of 4 or 8 bytes.
pub fn write_float(value: f64, out: &mut [u8], endian: Endianness) {
    match out.len() {
        4 => write_uint(u128::from((value as f32).to_bits()), out, endian),
        8 => write_uint(u128::from(value.to_bits()), out, endian),
        n => panic!("unsupported float size {n}"),
    }
}

/// In-place byte swap (used by the fast path of same-size cross-endian
/// conversion).
pub fn swap_bytes(buf: &mut [u8]) {
    buf.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_roundtrip_le() {
        let mut buf = [0u8; 4];
        write_uint(0x1234_5678, &mut buf, Endianness::Little);
        assert_eq!(buf, 0x1234_5678u32.to_le_bytes());
        assert_eq!(read_uint(&buf, Endianness::Little), 0x1234_5678);
    }

    #[test]
    fn uint_roundtrip_be() {
        let mut buf = [0u8; 4];
        write_uint(0x1234_5678, &mut buf, Endianness::Big);
        assert_eq!(buf, 0x1234_5678u32.to_be_bytes());
        assert_eq!(read_uint(&buf, Endianness::Big), 0x1234_5678);
    }

    #[test]
    fn int_sign_extension() {
        let mut buf = [0u8; 2];
        write_int(-2, &mut buf, Endianness::Big);
        assert_eq!(buf, (-2i16).to_be_bytes());
        assert_eq!(read_int(&buf, Endianness::Big), -2);
        assert_eq!(read_int(&buf, Endianness::Big) as i64, -2i64);
    }

    #[test]
    fn int_positive_not_extended() {
        let mut buf = [0u8; 2];
        write_int(0x7fff, &mut buf, Endianness::Little);
        assert_eq!(read_int(&buf, Endianness::Little), 0x7fff);
    }

    #[test]
    fn float_roundtrip_both_orders() {
        for endian in [Endianness::Little, Endianness::Big] {
            let mut b4 = [0u8; 4];
            write_float(1.5, &mut b4, endian);
            assert_eq!(read_float(&b4, endian), 1.5);
            let mut b8 = [0u8; 8];
            write_float(-std::f64::consts::PI, &mut b8, endian);
            assert_eq!(read_float(&b8, endian), -std::f64::consts::PI);
        }
    }

    #[test]
    fn float32_crosses_through_f64() {
        let mut b4 = [0u8; 4];
        write_float(0.1f32 as f64, &mut b4, Endianness::Big);
        assert_eq!(read_float(&b4, Endianness::Big), 0.1f32 as f64);
    }

    #[test]
    fn fits_checks() {
        assert!(fits_uint(255, 1));
        assert!(!fits_uint(256, 1));
        assert!(fits_int(127, 1));
        assert!(!fits_int(128, 1));
        assert!(fits_int(-128, 1));
        assert!(!fits_int(-129, 1));
        assert!(fits_int(i128::MAX, 16));
    }

    #[test]
    fn cross_endian_swap_equivalence() {
        // Reading LE bytes as BE equals byte-swapping then reading LE.
        let v: u32 = 0xdead_beef;
        let le = v.to_le_bytes();
        let as_be = read_uint(&le, Endianness::Big) as u32;
        assert_eq!(as_be, v.swap_bytes());
    }

    #[test]
    fn sixteen_byte_values() {
        let mut buf = [0u8; 16];
        write_uint(u128::MAX - 5, &mut buf, Endianness::Little);
        assert_eq!(read_uint(&buf, Endianness::Little), u128::MAX - 5);
        write_int(-1, &mut buf, Endianness::Big);
        assert_eq!(read_int(&buf, Endianness::Big), -1);
    }

    #[test]
    #[should_panic(expected = "read_uint supports")]
    fn read_uint_rejects_empty() {
        read_uint(&[], Endianness::Little);
    }
}
