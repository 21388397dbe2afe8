//! The one integer codec of the DSD wire: unsigned LEB128, seven bits a
//! byte, low bits first, each byte but the last with its top bit set.
//! 0–127 take one byte, 128–16 383 two, a `u64` at most ten. [`get`]
//! accepts only the one encoding a value has: a varint longer than its
//! value needs, longer than ten bytes or above its field's `max` is
//! [`VarintError::Invalid`]. So [`len`] of a decoded value is the bytes
//! it took. There is no unchecked read: a frame's varints are read once,
//! by its check, which keeps the values it read.

use bytes::{Buf, BufMut};

/// Why a varint could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The buffer ends inside it.
    Truncated,
    /// Overlong, not canonical, or above the field's range.
    Invalid,
}

/// Bytes `v` takes on the wire.
#[inline]
pub fn len(v: u64) -> usize {
    // One byte a started group of seven bits, 0 taking one: the bits
    // times 9/64 rounds a division by 7 up for every width up to 64.
    ((63 - (v | 1).leading_zeros() as usize) * 9 + 73) / 64
}

/// Append `v`.
#[inline]
pub fn put(out: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        out.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    out.put_u8(v as u8);
}

/// Read a varint of at most `max` off the front of `buf`.
#[inline(always)]
pub fn get(buf: &mut impl Buf, max: u64) -> Result<u64, VarintError> {
    let (v, n) = match *buf.chunk() {
        [b0, ..] if b0 < 0x80 => (u64::from(b0), 1),
        [b0, b1, ..] if b1 < 0x80 => (u64::from(b0 & 0x7f) | u64::from(b1) << 7, 2),
        [b0, b1, b2, ..] if b2 < 0x80 => {
            let low = u64::from(b0 & 0x7f) | u64::from(b1 & 0x7f) << 7;
            (low | u64::from(b2) << 14, 3)
        }
        _ => long(buf.chunk())?,
    };
    // A last byte of 0 says nothing the one before did not.
    if v > max || (n > 1 && buf.chunk()[n - 1] == 0) {
        return Err(VarintError::Invalid);
    }
    buf.advance(n);
    Ok(v)
}

/// The value and length of a varint of four bytes or more that opens
/// `bytes`: ten bytes at most, the tenth holding bit 63 alone.
fn long(bytes: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        if i == 9 && b & 0x7f > 1 {
            return Err(VarintError::Invalid);
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            return Ok((v, i + 1));
        }
    }
    Err([VarintError::Truncated, VarintError::Invalid][usize::from(bytes.len() >= 10)])
}

/// [`get`] of a `u32` field.
#[inline(always)]
pub fn get32(buf: &mut impl Buf) -> Result<u32, VarintError> {
    get(buf, u64::from(u32::MAX)).map(|v| v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put(&mut out, v);
        out
    }

    fn dec(bytes: &[u8], max: u64) -> Result<(u64, usize), VarintError> {
        let mut b = bytes;
        get(&mut b, max).map(|v| (v, bytes.len() - b.len()))
    }

    #[test]
    fn values_take_the_bytes_their_bits_need_and_come_back() {
        let cases: [(u64, &[u8]); 8] = [
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (16_383, &[0xff, 0x7f]),
            (1 << 21, &[0x80, 0x80, 0x80, 0x01]),
            (u64::from(u32::MAX), &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ];
        for (v, want) in cases {
            assert_eq!(enc(v), want, "{v}");
            assert_eq!(len(v), want.len(), "{v}");
            assert_eq!(dec(want, u64::MAX), Ok((v, want.len())), "{v}");
        }
        let top = enc(u64::MAX);
        assert_eq!((top.len(), len(u64::MAX), top[9]), (10, 10, 0x01));
        assert_eq!(dec(&top, u64::MAX), Ok((u64::MAX, 10)));
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
                assert_eq!(dec(&enc(v), u64::MAX), Ok((v, len(v))), "{v}");
            }
        }
    }

    #[test]
    fn overlong_non_canonical_and_out_of_range_varints_are_refused() {
        // Non-canonical: a value spelled with a trailing zero group.
        for bad in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00], &[0xff, 0x00]] {
            assert_eq!(dec(bad, u64::MAX), Err(VarintError::Invalid), "{bad:x?}");
        }
        // Overlong: six bytes for a `u32`, eleven for a `u64`, and a tenth
        // byte with more than bit 63 in it.
        let six = [0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert_eq!(get32(&mut &six[..]), Err(VarintError::Invalid));
        let eleven = [&[0xff; 10][..], &[0x01]].concat();
        assert_eq!(dec(&eleven, u64::MAX), Err(VarintError::Invalid));
        let wide = [&[0xff; 9][..], &[0x02]].concat();
        assert_eq!(dec(&wide, u64::MAX), Err(VarintError::Invalid));
        // Out of range: one above `u32::MAX` in a `u32` field, and any
        // value above a field's own bound.
        let above = enc(u64::from(u32::MAX) + 1);
        assert_eq!(get32(&mut &above[..]), Err(VarintError::Invalid));
        assert_eq!(dec(&[0x05], 4), Err(VarintError::Invalid));
        assert_eq!(dec(&enc(300), 299), Err(VarintError::Invalid));
        // Cut anywhere inside, it is truncated.
        for v in [300, 1 << 21, u64::MAX] {
            let full = enc(v);
            for cut in 0..full.len() {
                assert_eq!(dec(&full[..cut], u64::MAX), Err(VarintError::Truncated));
            }
        }
    }
}
