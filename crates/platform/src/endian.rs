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

/// One fixed-width load: `$bytes` (exactly `size_of::<$ty>()` long) as a
/// `$ty` in byte order `$endian`.
macro_rules! load {
    ($ty:ty, $bytes:expr, $endian:expr) => {{
        let raw: [u8; std::mem::size_of::<$ty>()] = $bytes.try_into().expect("width matched");
        match $endian {
            Endianness::Little => <$ty>::from_le_bytes(raw),
            Endianness::Big => <$ty>::from_be_bytes(raw),
        }
    }};
}

/// One fixed-width store of `$value` into `$out` (exactly as long as the
/// value) in byte order `$endian`.
macro_rules! store {
    ($value:expr, $out:expr, $endian:expr) => {{
        let value = $value;
        $out.copy_from_slice(&match $endian {
            Endianness::Little => value.to_le_bytes(),
            Endianness::Big => value.to_be_bytes(),
        })
    }};
}

/// Read an unsigned integer of `bytes.len()` bytes (1..=16) in the given
/// byte order: one load at the widths scalars have, [`read_uint_bytewise`]
/// at any other.
///
/// # Panics
/// Panics if `bytes` is empty or longer than 16 bytes.
#[inline]
pub fn read_uint(bytes: &[u8], endian: Endianness) -> u128 {
    match bytes.len() {
        1 => u128::from(bytes[0]),
        2 => u128::from(load!(u16, bytes, endian)),
        4 => u128::from(load!(u32, bytes, endian)),
        8 => u128::from(load!(u64, bytes, endian)),
        _ => read_uint_bytewise(bytes, endian),
    }
}

/// [`read_uint`] one byte at a time: the path of the odd widths, and the
/// reference the fixed-width loads are tested against.
pub fn read_uint_bytewise(bytes: &[u8], endian: Endianness) -> u128 {
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
#[inline]
pub fn read_int(bytes: &[u8], endian: Endianness) -> i128 {
    match bytes.len() {
        1 => i128::from(bytes[0] as i8),
        2 => i128::from(load!(i16, bytes, endian)),
        4 => i128::from(load!(i32, bytes, endian)),
        8 => i128::from(load!(i64, bytes, endian)),
        _ => read_int_bytewise(bytes, endian),
    }
}

/// [`read_int`] over [`read_uint_bytewise`] (odd widths, and the test
/// reference).
pub fn read_int_bytewise(bytes: &[u8], endian: Endianness) -> i128 {
    let raw = read_uint_bytewise(bytes, endian);
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
#[inline]
pub fn write_uint(value: u128, out: &mut [u8], endian: Endianness) {
    match out.len() {
        1 => out[0] = value as u8,
        2 => store!(value as u16, out, endian),
        4 => store!(value as u32, out, endian),
        8 => store!(value as u64, out, endian),
        _ => write_uint_bytewise(value, out, endian),
    }
}

/// [`write_uint`] one byte at a time (odd widths, and the test reference).
pub fn write_uint_bytewise(value: u128, out: &mut [u8], endian: Endianness) {
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
#[inline]
pub fn write_int(value: i128, out: &mut [u8], endian: Endianness) {
    write_uint(value as u128, out, endian);
}

/// Does `value` fit in an unsigned field of `size` bytes?
#[inline]
pub fn fits_uint(value: u128, size: usize) -> bool {
    if size >= 16 {
        return true;
    }
    value < (1u128 << (size * 8))
}

/// Does `value` fit in a signed two's-complement field of `size` bytes?
#[inline]
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
#[inline]
pub fn read_float(bytes: &[u8], endian: Endianness) -> f64 {
    match bytes.len() {
        4 => f64::from(f32::from_bits(load!(u32, bytes, endian))),
        8 => f64::from_bits(load!(u64, bytes, endian)),
        n => panic!("unsupported float size {n}"),
    }
}

/// Write an `f64` as an IEEE-754 float of 4 or 8 bytes.
#[inline]
pub fn write_float(value: f64, out: &mut [u8], endian: Endianness) {
    match out.len() {
        4 => store!((value as f32).to_bits(), out, endian),
        8 => store!(value.to_bits(), out, endian),
        n => panic!("unsupported float size {n}"),
    }
}

/// Read the `out.len()` floats of `size` bytes each that `src` holds. The
/// width and byte order are decided once for the run, then every element
/// is one fixed-width load — the shape of `hdsm_tags::plan`'s swap kernel.
///
/// # Panics
/// Panics if `src` is not `out.len() * size` bytes or `size` is not 4 or 8.
pub fn read_float_run(src: &[u8], size: usize, endian: Endianness, out: &mut [f64]) {
    assert_eq!(src.len(), out.len() * size, "run length mismatch");
    macro_rules! run {
        ($ty:ty, $from:ident, $widen:expr) => {
            for (o, c) in out
                .iter_mut()
                .zip(src.chunks_exact(std::mem::size_of::<$ty>()))
            {
                *o = $widen(<$ty>::$from(c.try_into().expect("chunk is one element")));
            }
        };
    }
    let single = |bits: u32| f64::from(f32::from_bits(bits));
    match (size, endian) {
        (8, Endianness::Little) => run!(u64, from_le_bytes, f64::from_bits),
        (8, Endianness::Big) => run!(u64, from_be_bytes, f64::from_bits),
        (4, Endianness::Little) => run!(u32, from_le_bytes, single),
        (4, Endianness::Big) => run!(u32, from_be_bytes, single),
        (n, _) => panic!("unsupported float size {n}"),
    }
}

/// Write `values` as floats of `size` bytes each into `dst`; the inverse
/// of [`read_float_run`], decided once per run the same way.
///
/// # Panics
/// Panics if `dst` is not `values.len() * size` bytes or `size` is not 4
/// or 8.
pub fn write_float_run(values: &[f64], size: usize, endian: Endianness, dst: &mut [u8]) {
    assert_eq!(dst.len(), values.len() * size, "run length mismatch");
    macro_rules! run {
        ($ty:ty, $to:ident, $narrow:expr) => {
            for (c, v) in dst.chunks_exact_mut(std::mem::size_of::<$ty>()).zip(values) {
                c.copy_from_slice(&$narrow(*v).$to());
            }
        };
    }
    let single = |v: f64| (v as f32).to_bits();
    match (size, endian) {
        (8, Endianness::Little) => run!(u64, to_le_bytes, f64::to_bits),
        (8, Endianness::Big) => run!(u64, to_be_bytes, f64::to_bits),
        (4, Endianness::Little) => run!(u32, to_le_bytes, single),
        (4, Endianness::Big) => run!(u32, to_be_bytes, single),
        (n, _) => panic!("unsupported float size {n}"),
    }
}

/// Read the `out.len()` integers of `size` bytes each that `src` holds,
/// sign- or zero-extended.
///
/// # Panics
/// Panics if `src` is not `out.len() * size` bytes.
pub fn read_int_run(src: &[u8], size: usize, endian: Endianness, signed: bool, out: &mut [i128]) {
    assert_eq!(src.len(), out.len() * size, "run length mismatch");
    let elems = out.iter_mut().zip(src.chunks_exact(size));
    if signed {
        elems.for_each(|(o, c)| *o = read_int(c, endian));
    } else {
        elems.for_each(|(o, c)| *o = read_uint(c, endian) as i128);
    }
}

/// Write `values` as integers of `size` bytes each into `dst` (two's
/// complement truncation, as [`write_int`]: check [`fits_int`] /
/// [`fits_uint`] first).
///
/// # Panics
/// Panics if `dst` is not `values.len() * size` bytes.
pub fn write_int_run(values: &[i128], size: usize, endian: Endianness, dst: &mut [u8]) {
    assert_eq!(dst.len(), values.len() * size, "run length mismatch");
    for (c, v) in dst.chunks_exact_mut(size).zip(values) {
        write_int(*v, c, endian);
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

    /// Bit patterns that exercise every byte lane and both signs.
    fn patterns() -> impl Iterator<Item = u128> {
        let mut x = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835_u128;
        (0..64)
            .map(move |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .chain([0, 1, 0x80, 0xff, u128::MAX, 1 << 127, (1 << 127) - 1])
    }

    #[test]
    fn fixed_width_loads_and_stores_equal_the_byte_loop_at_every_width() {
        for width in 1..=16usize {
            for endian in [Endianness::Little, Endianness::Big] {
                for v in patterns() {
                    let (mut fast, mut slow) = ([0u8; 16], [0u8; 16]);
                    write_uint(v, &mut fast[..width], endian);
                    write_uint_bytewise(v, &mut slow[..width], endian);
                    assert_eq!(fast, slow, "store width {width} {endian:?}");
                    let bytes = &slow[..width];
                    assert_eq!(read_uint(bytes, endian), read_uint_bytewise(bytes, endian));
                    // Sign extension: the top represented bit decides.
                    let signed = read_int(bytes, endian);
                    assert_eq!(signed, read_int_bytewise(bytes, endian));
                    let top = read_uint_bytewise(bytes, endian) >> (width * 8 - 1) & 1;
                    assert_eq!(signed < 0, top == 1, "sign at width {width}");
                    let mut again = [0u8; 16];
                    write_int(signed, &mut again[..width], endian);
                    assert_eq!(again, slow, "signed roundtrip width {width}");
                }
            }
        }
    }

    #[test]
    fn run_kernels_equal_the_scalar_loop() {
        let values: Vec<f64> = patterns().map(|v| f64::from_bits(v as u64)).collect();
        let ints: Vec<i128> = patterns().map(|v| v as i128).collect();
        for endian in [Endianness::Little, Endianness::Big] {
            for size in [4usize, 8] {
                let mut run = vec![0u8; values.len() * size];
                write_float_run(&values, size, endian, &mut run);
                let mut scalar = vec![0u8; run.len()];
                for (c, v) in scalar.chunks_exact_mut(size).zip(&values) {
                    write_float(*v, c, endian);
                }
                assert_eq!(run, scalar);
                let mut back = vec![0.0; values.len()];
                read_float_run(&run, size, endian, &mut back);
                for (b, c) in back.iter().zip(run.chunks_exact(size)) {
                    assert_eq!(b.to_bits(), read_float(c, endian).to_bits());
                }
            }
            for size in [1usize, 2, 3, 4, 8, 16] {
                let mut run = vec![0u8; ints.len() * size];
                write_int_run(&ints, size, endian, &mut run);
                for signed in [true, false] {
                    let mut back = vec![0i128; ints.len()];
                    read_int_run(&run, size, endian, signed, &mut back);
                    for (b, c) in back.iter().zip(run.chunks_exact(size)) {
                        let want = if signed {
                            read_int_bytewise(c, endian)
                        } else {
                            read_uint_bytewise(c, endian) as i128
                        };
                        assert_eq!(*b, want, "size {size} signed {signed}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "read_uint supports")]
    fn read_uint_rejects_empty() {
        read_uint(&[], Endianness::Little);
    }
}
