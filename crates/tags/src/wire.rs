//! Wire framing for updates.
//!
//! An update travels as *metadata + tag + raw data*. The metadata (entry
//! index, element offset, sender identity) is framed in fixed network byte
//! order; the **payload stays in the sender's native format** — that is the
//! "receiver makes right" contract. Packing cost is the paper's `t_pack`,
//! unpacking `t_unpack` (Eq. 1); both are deliberately cheap (length-
//! prefixed copies), matching the paper's observation that
//! `t_pack`/`t_unpack` are comparatively small.

use crate::parse::{parse_tag, TagParseError};
use crate::tag::{Tag, TagItem};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_platform::endian::Endianness;
use std::fmt;

/// Magic bytes guarding every update frame.
const MAGIC: u16 = 0xD5D; // "DSD"
/// Frame format version.
const VERSION: u8 = 1;
/// Sentinel distinguishing a v2 grouped batch from a v1 count-prefixed
/// batch: a v1 batch starts with its update count, which can never be
/// `u32::MAX`, so the two formats are self-describing and [`unpack_batch`]
/// accepts either.
const BATCH_V2_MARKER: u32 = u32::MAX;

/// One update: "this range of elements of entry `entry` now has these
/// bytes" — the unit the home node and remote threads exchange on
/// lock/unlock (paper §4.1/§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct WireUpdate {
    /// Index-table entry the update targets.
    pub entry: u32,
    /// First element within the entry (array element index; 0 for scalars).
    pub elem_offset: u64,
    /// Byte order of `data`.
    pub endian: Endianness,
    /// Name of the sending platform (diagnostics; not used for decisions —
    /// the tag + endian byte are authoritative).
    pub sender: String,
    /// CGT-RMR tag describing `data`.
    pub tag: Tag,
    /// Raw bytes in the sender's native format.
    pub data: Bytes,
}

/// Errors from unpacking a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Frame too short for the declared lengths.
    Truncated,
    /// Magic or version mismatch.
    BadHeader,
    /// Tag string failed to parse.
    BadTag(TagParseError),
    /// Tag string was not ASCII.
    NonAsciiTag,
    /// Declared data length disagrees with the tag's byte size.
    LengthMismatch {
        /// Bytes the tag describes.
        tag_bytes: u64,
        /// Bytes in the frame.
        data_bytes: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadHeader => write!(f, "bad magic/version"),
            WireError::BadTag(e) => write!(f, "bad tag: {e}"),
            WireError::NonAsciiTag => write!(f, "tag is not ASCII"),
            WireError::LengthMismatch {
                tag_bytes,
                data_bytes,
            } => write!(f, "tag says {tag_bytes}B but frame carries {data_bytes}B"),
        }
    }
}

impl std::error::Error for WireError {}

/// Size a `Vec` for a length prefix read from outside the program.
///
/// `count` is the declared element count (any of the `u16`/`u32` prefixes
/// the decoders use), `min_elem_bytes` the fewest bytes one encoded
/// element can occupy and `remaining` what the buffer still holds. A
/// count the buffer cannot possibly back fails with the decoder's own
/// `truncated` error *before* anything is allocated, so no wire input can
/// make a decoder reserve more than a small multiple of the bytes it was
/// actually handed.
pub fn bounded_vec<T, E>(
    count: impl Into<u64>,
    min_elem_bytes: usize,
    remaining: usize,
    truncated: E,
) -> Result<Vec<T>, E> {
    let count = count.into();
    match count.checked_mul(min_elem_bytes as u64) {
        Some(need) if need <= remaining as u64 => Ok(Vec::with_capacity(count as usize)),
        _ => Err(truncated),
    }
}

/// Pack one update into `out`.
pub fn pack_update(u: &WireUpdate, out: &mut BytesMut) {
    let tag_str = u.tag.to_string();
    debug_assert!(tag_str.is_ascii());
    out.put_u16(MAGIC);
    out.put_u8(VERSION);
    out.put_u8(match u.endian {
        Endianness::Little => 0,
        Endianness::Big => 1,
    });
    out.put_u32(u.entry);
    out.put_u64(u.elem_offset);
    out.put_u8(u.sender.len().min(255) as u8);
    out.put_slice(&u.sender.as_bytes()[..u.sender.len().min(255)]);
    out.put_u32(tag_str.len() as u32);
    out.put_slice(tag_str.as_bytes());
    out.put_u64(u.data.len() as u64);
    out.put_slice(&u.data);
}

/// Fewest bytes a v1 frame occupies: fixed header, empty sender, empty
/// tag, empty payload.
const MIN_FRAME_BYTES: usize = (2 + 1 + 1 + 4 + 8 + 1) + 4 + 8;

/// Unpack one update from the front of `buf`, advancing it.
pub fn unpack_update(buf: &mut Bytes) -> Result<WireUpdate, WireError> {
    if buf.remaining() < 2 + 1 + 1 + 4 + 8 + 1 {
        return Err(WireError::Truncated);
    }
    if buf.get_u16() != MAGIC {
        return Err(WireError::BadHeader);
    }
    if buf.get_u8() != VERSION {
        return Err(WireError::BadHeader);
    }
    let endian = match buf.get_u8() {
        0 => Endianness::Little,
        1 => Endianness::Big,
        _ => return Err(WireError::BadHeader),
    };
    let entry = buf.get_u32();
    let elem_offset = buf.get_u64();
    let name_len = buf.get_u8() as usize;
    if buf.remaining() < name_len + 4 {
        return Err(WireError::Truncated);
    }
    let sender = String::from_utf8_lossy(&buf.copy_to_bytes(name_len)).into_owned();
    let tag_len = buf.get_u32() as usize;
    if buf.remaining() < tag_len + 8 {
        return Err(WireError::Truncated);
    }
    let tag_bytes = buf.copy_to_bytes(tag_len);
    if !tag_bytes.is_ascii() {
        return Err(WireError::NonAsciiTag);
    }
    let tag_str = std::str::from_utf8(&tag_bytes).map_err(|_| WireError::NonAsciiTag)?;
    let tag = parse_tag(tag_str).map_err(WireError::BadTag)?;
    let data_len = buf.get_u64() as usize;
    if buf.remaining() < data_len {
        return Err(WireError::Truncated);
    }
    let data = buf.copy_to_bytes(data_len);
    if tag.byte_size() != data.len() as u64 {
        return Err(WireError::LengthMismatch {
            tag_bytes: tag.byte_size(),
            data_bytes: data.len() as u64,
        });
    }
    Ok(WireUpdate {
        entry,
        elem_offset,
        endian,
        sender,
        tag,
        data,
    })
}

/// Pack a batch in the v1 format (count-prefixed frames). Nothing in the
/// DSM ships this any more — [`pack_batch_fast`] is the wire format — but
/// it stays as the reference the property tests compare against and as
/// the producer of the v1 input [`unpack_batch`] must keep accepting.
pub fn pack_batch(updates: &[WireUpdate]) -> Bytes {
    let mut out =
        BytesMut::with_capacity(16 + updates.iter().map(|u| 64 + u.data.len()).sum::<usize>());
    out.put_u32(updates.len() as u32);
    for u in updates {
        pack_update(u, &mut out);
    }
    out.freeze()
}

/// Unpack a batch previously produced by [`pack_batch`] or
/// [`pack_batch_fast`] — the leading word distinguishes the two formats.
pub fn unpack_batch(mut buf: Bytes) -> Result<Vec<WireUpdate>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u32();
    if n == BATCH_V2_MARKER {
        return unpack_batch_v2(buf);
    }
    let mut out = bounded_vec(n, MIN_FRAME_BYTES, buf.remaining(), WireError::Truncated)?;
    for _ in 0..n {
        out.push(unpack_update(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(WireError::BadHeader);
    }
    Ok(out)
}

/// Match a run-shaped tag — the shape every DSM update carries
/// (`(m,n)(0,0)` or `(m,-n)(0,0)`): `(size, count, is_pointer)`.
fn tag_run_shape(tag: &Tag) -> Option<(u32, u32, bool)> {
    match tag.0.as_slice() {
        [TagItem::Scalar { size, count }, TagItem::Padding { bytes: 0 }] => {
            Some((*size, *count, false))
        }
        [TagItem::Pointer { size, count }, TagItem::Padding { bytes: 0 }] => {
            Some((*size, *count, true))
        }
        _ => None,
    }
}

/// Pack a batch in the v2 grouped format.
///
/// Consecutive updates sharing (entry, endianness, sender, element size,
/// scalar-vs-pointer) and a run-shaped tag collapse into one *run group*
/// that frames the shared metadata once and then just
/// `(elem_offset, count)` pairs plus a single concatenated payload —
/// SOR's 16k two-element updates shrink from ~50 framed bytes each to 12.
/// Crucially the receiver reconstructs each update's tag directly from the
/// group header, so `t_unpack` pays no per-update string parse. Updates
/// whose tags are not run-shaped travel in a *raw group* of v1 frames.
/// Grouping only ever merges **consecutive** updates, so apply order — and
/// therefore last-writer-wins semantics within a batch — is preserved
/// exactly.
pub fn pack_batch_fast(updates: &[WireUpdate]) -> Bytes {
    // Partition into maximal consecutive segments: (is_run_group, start, end).
    let mut segs: Vec<(bool, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < updates.len() {
        let mut j = i + 1;
        if let Some((size, _, is_ptr)) = tag_run_shape(&updates[i].tag) {
            while j < updates.len() {
                match tag_run_shape(&updates[j].tag) {
                    Some((s, _, p))
                        if s == size
                            && p == is_ptr
                            && updates[j].entry == updates[i].entry
                            && updates[j].endian == updates[i].endian
                            && updates[j].sender == updates[i].sender =>
                    {
                        j += 1;
                    }
                    _ => break,
                }
            }
            segs.push((true, i, j));
        } else {
            while j < updates.len() && tag_run_shape(&updates[j].tag).is_none() {
                j += 1;
            }
            segs.push((false, i, j));
        }
        i = j;
    }
    let mut out =
        BytesMut::with_capacity(32 + updates.iter().map(|u| 16 + u.data.len()).sum::<usize>());
    out.put_u32(BATCH_V2_MARKER);
    out.put_u32(segs.len() as u32);
    for (is_run, a, b) in segs {
        let head = &updates[a];
        if is_run {
            let (size, _, is_ptr) = tag_run_shape(&head.tag).expect("segment head is run-shaped");
            out.put_u8(0);
            out.put_u8(match head.endian {
                Endianness::Little => 0,
                Endianness::Big => 1,
            });
            out.put_u8(u8::from(is_ptr));
            out.put_u32(size);
            out.put_u32(head.entry);
            out.put_u8(head.sender.len().min(255) as u8);
            out.put_slice(&head.sender.as_bytes()[..head.sender.len().min(255)]);
            out.put_u32((b - a) as u32);
            let mut data_len: u64 = 0;
            for u in &updates[a..b] {
                let (_, count, _) = tag_run_shape(&u.tag).expect("grouped update is run-shaped");
                debug_assert_eq!(u.data.len() as u64, u.tag.byte_size());
                out.put_u64(u.elem_offset);
                out.put_u32(count);
                data_len += u.data.len() as u64;
            }
            out.put_u64(data_len);
            for u in &updates[a..b] {
                out.put_slice(&u.data);
            }
        } else {
            out.put_u8(1);
            out.put_u32((b - a) as u32);
            for u in &updates[a..b] {
                pack_update(u, &mut out);
            }
        }
    }
    out.freeze()
}

/// Unpack the body of a v2 grouped batch (marker already consumed).
fn unpack_batch_v2(mut buf: Bytes) -> Result<Vec<WireUpdate>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let groups = buf.get_u32();
    // The smallest group is a raw group: kind byte + frame count.
    let mut out = bounded_vec(groups, 1 + 4, buf.remaining(), WireError::Truncated)?;
    for _ in 0..groups {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => {
                if buf.remaining() < 1 + 1 + 4 + 4 + 1 {
                    return Err(WireError::Truncated);
                }
                let endian = match buf.get_u8() {
                    0 => Endianness::Little,
                    1 => Endianness::Big,
                    _ => return Err(WireError::BadHeader),
                };
                let is_ptr = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadHeader),
                };
                let size = buf.get_u32();
                if size == 0 {
                    return Err(WireError::BadHeader);
                }
                let entry = buf.get_u32();
                let name_len = buf.get_u8() as usize;
                if buf.remaining() < name_len + 4 {
                    return Err(WireError::Truncated);
                }
                let sender = String::from_utf8_lossy(&buf.copy_to_bytes(name_len)).into_owned();
                let nruns = buf.get_u32();
                let mut runs = bounded_vec(nruns, 8 + 4, buf.remaining(), WireError::Truncated)?;
                let mut want: u64 = 0;
                for _ in 0..nruns {
                    let elem_offset = buf.get_u64();
                    let count = buf.get_u32();
                    if count == 0 {
                        return Err(WireError::BadHeader);
                    }
                    want = u64::from(size)
                        .checked_mul(u64::from(count))
                        .and_then(|b| want.checked_add(b))
                        .ok_or(WireError::BadHeader)?;
                    runs.push((elem_offset, count));
                }
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let data_len = buf.get_u64();
                if data_len != want {
                    return Err(WireError::LengthMismatch {
                        tag_bytes: want,
                        data_bytes: data_len,
                    });
                }
                if (buf.remaining() as u64) < data_len {
                    return Err(WireError::Truncated);
                }
                let data = buf.copy_to_bytes(data_len as usize);
                let mut at = 0usize;
                for (elem_offset, count) in runs {
                    let len = (u64::from(size) * u64::from(count)) as usize;
                    let item = if is_ptr {
                        TagItem::Pointer { size, count }
                    } else {
                        TagItem::Scalar { size, count }
                    };
                    out.push(WireUpdate {
                        entry,
                        elem_offset,
                        endian,
                        sender: sender.clone(),
                        tag: Tag(vec![item, TagItem::Padding { bytes: 0 }]),
                        data: data.slice(at..at + len),
                    });
                    at += len;
                }
            }
            1 => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let n = buf.get_u32() as usize;
                for _ in 0..n {
                    out.push(unpack_update(&mut buf)?);
                }
            }
            _ => return Err(WireError::BadHeader),
        }
    }
    if buf.has_remaining() {
        return Err(WireError::BadHeader);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::tag_for_scalar_run;
    use hdsm_platform::scalar::ScalarKind;

    fn sample(entry: u32, n: u64) -> WireUpdate {
        let data: Vec<u8> = (0..n * 4).map(|i| (i % 251) as u8).collect();
        WireUpdate {
            entry,
            elem_offset: 7,
            endian: Endianness::Big,
            sender: "solaris-sparc".into(),
            tag: tag_for_scalar_run(ScalarKind::Int, 4, n),
            data: Bytes::from(data),
        }
    }

    #[test]
    fn single_roundtrip() {
        let u = sample(3, 10);
        let mut out = BytesMut::new();
        pack_update(&u, &mut out);
        let mut buf = out.freeze();
        let back = unpack_update(&mut buf).unwrap();
        assert_eq!(back, u);
        assert!(!buf.has_remaining());
    }

    #[test]
    fn batch_roundtrip() {
        let us = vec![sample(0, 1), sample(1, 100), sample(9, 3)];
        let packed = pack_batch(&us);
        let back = unpack_batch(packed).unwrap();
        assert_eq!(back, us);
    }

    #[test]
    fn empty_batch() {
        assert_eq!(unpack_batch(pack_batch(&[])).unwrap(), vec![]);
    }

    #[test]
    fn detects_truncation_everywhere() {
        let u = sample(1, 4);
        let mut out = BytesMut::new();
        pack_update(&u, &mut out);
        let full = out.freeze();
        for cut in 0..full.len() {
            let mut part = full.slice(..cut);
            assert!(
                unpack_update(&mut part).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn detects_bad_magic() {
        let u = sample(1, 1);
        let mut out = BytesMut::new();
        pack_update(&u, &mut out);
        let mut bytes = out.to_vec();
        bytes[0] ^= 0xff;
        let mut buf = Bytes::from(bytes);
        assert_eq!(unpack_update(&mut buf), Err(WireError::BadHeader));
    }

    #[test]
    fn detects_tag_data_length_mismatch() {
        let mut u = sample(1, 4);
        u.data = u.data.slice(..8); // tag says 16 bytes
        let mut out = BytesMut::new();
        pack_update(&u, &mut out);
        let mut buf = out.freeze();
        assert!(matches!(
            unpack_update(&mut buf),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn batch_rejects_trailing_garbage() {
        let packed = pack_batch(&[sample(0, 1)]);
        let mut with_garbage = BytesMut::from(&packed[..]);
        with_garbage.put_u8(0);
        assert!(unpack_batch(with_garbage.freeze()).is_err());
    }

    fn aggregate_sample(entry: u32) -> WireUpdate {
        // Not run-shaped: forces the raw-group fallback.
        let tag = crate::parse::parse_tag("((4,1)(0,0),3)").unwrap();
        WireUpdate {
            entry,
            elem_offset: 0,
            endian: Endianness::Little,
            sender: "linux-x86".into(),
            tag,
            data: Bytes::from(vec![7u8; 12]),
        }
    }

    #[test]
    fn fast_batch_roundtrips_and_preserves_order() {
        // Same entry runs (groupable), an entry switch, an aggregate tag
        // (raw fallback), then more runs — order must survive exactly.
        let us = vec![
            sample(0, 2),
            sample(0, 2),
            sample(0, 5),
            sample(1, 3),
            aggregate_sample(2),
            sample(1, 1),
            sample(1, 1),
        ];
        let packed = pack_batch_fast(&us);
        assert_eq!(unpack_batch(packed).unwrap(), us);
    }

    #[test]
    fn fast_batch_of_empty_and_single() {
        assert_eq!(unpack_batch(pack_batch_fast(&[])).unwrap(), vec![]);
        let us = vec![sample(4, 9)];
        assert_eq!(unpack_batch(pack_batch_fast(&us)).unwrap(), us);
        let us = vec![aggregate_sample(0)];
        assert_eq!(unpack_batch(pack_batch_fast(&us)).unwrap(), us);
    }

    #[test]
    fn fast_batch_is_much_smaller_for_small_runs() {
        // The SOR shape: thousands of tiny same-entry updates.
        let us: Vec<WireUpdate> = (0..500)
            .map(|i| WireUpdate {
                elem_offset: i * 7,
                ..sample(3, 2)
            })
            .collect();
        let v1 = pack_batch(&us);
        let v2 = pack_batch_fast(&us);
        assert_eq!(unpack_batch(v2.clone()).unwrap(), us);
        assert!(
            v2.len() * 2 < v1.len(),
            "grouped batch should at least halve framing: v1={} v2={}",
            v1.len(),
            v2.len()
        );
    }

    #[test]
    fn fast_batch_does_not_group_across_sender_or_endian_changes() {
        let mut other = sample(0, 2);
        other.endian = Endianness::Little;
        other.sender = "linux-x86".into();
        let us = vec![sample(0, 2), other, sample(0, 2)];
        let packed = pack_batch_fast(&us);
        assert_eq!(unpack_batch(packed).unwrap(), us);
    }

    #[test]
    fn fast_batch_detects_truncation_everywhere() {
        let us = vec![sample(0, 2), sample(0, 3), aggregate_sample(1)];
        let full = pack_batch_fast(&us);
        for cut in 0..full.len() {
            assert!(
                unpack_batch(full.slice(..cut)).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn fast_batch_rejects_trailing_garbage() {
        let packed = pack_batch_fast(&[sample(0, 1)]);
        let mut with_garbage = BytesMut::from(&packed[..]);
        with_garbage.put_u8(9);
        assert!(unpack_batch(with_garbage.freeze()).is_err());
    }

    #[test]
    fn v1_batches_still_decode() {
        // Mixed-version clusters: a v1 producer must stay readable.
        let us = vec![sample(0, 1), sample(1, 100)];
        assert_eq!(unpack_batch(pack_batch(&us)).unwrap(), us);
    }
}
