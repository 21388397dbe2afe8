//! The grouped v2 codec as it was when a batch was a `Vec<WireUpdate>`:
//! group materialised updates into a frame, materialise a frame's updates.
//! Nothing in the DSM calls it. It is the oracle the unit and property
//! tests hold [`FrameWriter`](super::FrameWriter)'s frames and
//! [`UpdateBatch`]'s views to, byte for byte and update for update, and
//! the tests' way from hand-made [`WireUpdate`]s to a batch.

use super::{
    bounded_vec, endian_byte, endian_of, unpack_batch, GroupHead, UpdateBatch, WireError,
    BATCH_V2_MARKER, RUN_BYTES, RUN_GROUP_FIXED_BYTES,
};
use crate::tag::{Tag, TagItem};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_platform::endian::Endianness;

/// One update as an owned value: "this range of elements of entry `entry`
/// now has these bytes" — the unit the home node and remote threads
/// exchange on lock/unlock (paper §4.1/§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct WireUpdate {
    /// Index-table entry the update targets.
    pub entry: u32,
    /// First element within the entry (array element index; 0 for scalars).
    pub elem_offset: u64,
    /// Byte order of `data`.
    pub endian: Endianness,
    /// Name of the sending platform (diagnostics; not used for decisions).
    pub sender: String,
    /// CGT-RMR tag describing `data`: one scalar or pointer run.
    pub tag: Tag,
    /// Raw bytes in the sender's native format.
    pub data: Bytes,
}

/// Match a run-shaped tag — the shape every DSM update carries
/// (`(m,n)(0,0)` or `(m,-n)(0,0)`): `(size, count, is_pointer)`.
pub fn run_shape(tag: &Tag) -> Option<(u32, u32, bool)> {
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

/// The tag of a run of `count` elements of `size` bytes.
fn run_tag(size: u32, count: u32, is_ptr: bool) -> Tag {
    let item = if is_ptr {
        TagItem::Pointer { size, count }
    } else {
        TagItem::Scalar { size, count }
    };
    Tag(vec![item, TagItem::Padding { bytes: 0 }])
}

/// Pack `updates` in the grouped format: each maximal run of consecutive
/// updates sharing (entry, endianness, sender, element size,
/// scalar-vs-pointer) becomes one run group.
///
/// # Panics
/// If a tag is not run-shaped.
pub fn pack_grouped(updates: &[WireUpdate]) -> Bytes {
    let shape = |u: &WireUpdate| run_shape(&u.tag).expect("update tag is one run");
    let segs: Vec<&[WireUpdate]> = updates
        .chunk_by(|a, b| {
            let ((sa, _, pa), (sb, _, pb)) = (shape(a), shape(b));
            sa == sb
                && pa == pb
                && a.entry == b.entry
                && a.endian == b.endian
                && a.sender == b.sender
        })
        .collect();
    let mut out =
        BytesMut::with_capacity(32 + updates.iter().map(|u| 16 + u.data.len()).sum::<usize>());
    out.put_u32(BATCH_V2_MARKER);
    out.put_u32(segs.len() as u32);
    for seg in segs {
        let head = &seg[0];
        let (size, _, is_ptr) = shape(head);
        out.put_u8(0);
        out.put_u8(endian_byte(head.endian));
        out.put_u8(u8::from(is_ptr));
        out.put_u32(size);
        out.put_u32(head.entry);
        out.put_u8(head.sender.len().min(255) as u8);
        out.put_slice(&head.sender.as_bytes()[..head.sender.len().min(255)]);
        out.put_u32(seg.len() as u32);
        let mut data_len: u64 = 0;
        for u in seg {
            debug_assert_eq!(u.data.len() as u64, u.tag.byte_size());
            out.put_u64(u.elem_offset);
            out.put_u32(shape(u).1);
            data_len += u.data.len() as u64;
        }
        out.put_u64(data_len);
        for u in seg {
            out.put_slice(&u.data);
        }
    }
    out.freeze()
}

/// `updates` as the batch a DSM sender would have framed them in.
pub fn batch_of(updates: &[WireUpdate]) -> UpdateBatch {
    unpack_batch(pack_grouped(updates)).expect("reference frame decodes")
}

/// The updates `batch`'s borrowed views show, as owned values (payloads
/// copied): what the tests compare with [`unpack_updates`] of its frame.
pub fn updates_of(batch: &UpdateBatch) -> Vec<WireUpdate> {
    let mut out = Vec::with_capacity(batch.len());
    for g in batch.groups() {
        let GroupHead {
            endian,
            is_ptr,
            size,
            sender,
            ..
        } = g.head;
        out.extend(g.runs().map(|r| WireUpdate {
            entry: r.entry,
            elem_offset: r.elem_offset,
            endian,
            sender: String::from_utf8_lossy(sender).into_owned(),
            tag: run_tag(size, r.count as u32, is_ptr),
            data: Bytes::copy_from_slice(r.data),
        }));
    }
    out
}

/// Materialise the updates of a batch frame — what `unpack_batch`
/// returned before the frame itself became the batch.
pub fn unpack_updates(mut buf: Bytes) -> Result<Vec<WireUpdate>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    if buf.get_u32() != BATCH_V2_MARKER {
        return Err(WireError::BadHeader);
    }
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let groups = buf.get_u32();
    let mut out = bounded_vec(
        groups,
        RUN_GROUP_FIXED_BYTES,
        buf.remaining(),
        WireError::Truncated,
    )?;
    for _ in 0..groups {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        if buf.get_u8() != 0 {
            return Err(WireError::BadHeader);
        }
        if buf.remaining() < 1 + 1 + 4 + 4 + 1 {
            return Err(WireError::Truncated);
        }
        let endian = endian_of(buf.get_u8())?;
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
        let mut runs = bounded_vec(nruns, RUN_BYTES, buf.remaining(), WireError::Truncated)?;
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
            out.push(WireUpdate {
                entry,
                elem_offset,
                endian,
                sender: sender.clone(),
                tag: run_tag(size, count, is_ptr),
                data: data.slice(at..at + len),
            });
            at += len;
        }
    }
    if buf.has_remaining() {
        return Err(WireError::BadHeader);
    }
    Ok(out)
}
