//! The grouped v2 codec as it was when a batch was a `Vec<WireUpdate>`:
//! group materialised updates into a frame, materialise a frame's updates.
//! Nothing in the DSM calls it. It is the oracle the unit and property
//! tests hold [`FrameWriter`](super::FrameWriter)'s frames and
//! [`UpdateBatch`]'s views to, byte for byte and update for update, and
//! the tests' way from hand-made [`WireUpdate`]s to a batch.

use super::{
    bounded_vec, endian_byte, endian_of, pack_update, run_shape, unpack_batch, unpack_update,
    Group, GroupHead, UpdateBatch, WireError, WireUpdate, BATCH_V2_MARKER, MIN_FRAME_BYTES,
};
use crate::tag::{Tag, TagItem};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Pack `updates` in the v2 grouped format: maximal runs of consecutive
/// updates sharing (entry, endianness, sender, element size,
/// scalar-vs-pointer) and a run-shaped tag become run groups, the rest raw
/// groups of v1 frames.
pub fn pack_grouped(updates: &[WireUpdate]) -> Bytes {
    // Partition into maximal consecutive segments: (is_run_group, start, end).
    let mut segs: Vec<(bool, usize, usize)> = Vec::new();
    let mut i = 0;
    while i < updates.len() {
        let mut j = i + 1;
        if let Some((size, _, is_ptr)) = run_shape(&updates[i].tag) {
            while j < updates.len() {
                match run_shape(&updates[j].tag) {
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
            while j < updates.len() && run_shape(&updates[j].tag).is_none() {
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
            let (size, _, is_ptr) = run_shape(&head.tag).expect("segment head is run-shaped");
            out.put_u8(0);
            out.put_u8(endian_byte(head.endian));
            out.put_u8(u8::from(is_ptr));
            out.put_u32(size);
            out.put_u32(head.entry);
            out.put_u8(head.sender.len().min(255) as u8);
            out.put_slice(&head.sender.as_bytes()[..head.sender.len().min(255)]);
            out.put_u32((b - a) as u32);
            let mut data_len: u64 = 0;
            for u in &updates[a..b] {
                let (_, count, _) = run_shape(&u.tag).expect("grouped update is run-shaped");
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

/// `updates` as the batch a DSM sender would have framed them in.
pub fn batch_of(updates: &[WireUpdate]) -> UpdateBatch {
    unpack_batch(pack_grouped(updates)).expect("reference frame decodes")
}

/// The updates `batch`'s borrowed views show, as owned values (payloads
/// copied): what the tests compare with [`unpack_updates`] of its frame.
pub fn updates_of(batch: &UpdateBatch) -> Vec<WireUpdate> {
    let mut out = Vec::with_capacity(batch.len());
    for group in batch.groups() {
        match group {
            Group::Runs(g) => {
                let GroupHead {
                    endian,
                    is_ptr,
                    size,
                    sender,
                    ..
                } = g.head;
                out.extend(g.runs().map(|r| {
                    let count = r.count as u32;
                    let item = if is_ptr {
                        TagItem::Pointer { size, count }
                    } else {
                        TagItem::Scalar { size, count }
                    };
                    WireUpdate {
                        entry: r.entry,
                        elem_offset: r.elem_offset,
                        endian,
                        sender: String::from_utf8_lossy(sender).into_owned(),
                        tag: Tag(vec![item, TagItem::Padding { bytes: 0 }]),
                        data: Bytes::copy_from_slice(r.data),
                    }
                }));
            }
            Group::Raw(g) => out.extend(g.updates().map(|u| {
                let data = Bytes::copy_from_slice(u.data);
                u.into_update(data)
            })),
        }
    }
    out
}

/// Materialise the updates of a v1 or v2 batch — what `unpack_batch`
/// returned before the frame itself became the batch.
pub fn unpack_updates(mut buf: Bytes) -> Result<Vec<WireUpdate>, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u32();
    if n == BATCH_V2_MARKER {
        return unpack_updates_v2(buf);
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

/// The body of a v2 grouped batch (marker already consumed).
fn unpack_updates_v2(mut buf: Bytes) -> Result<Vec<WireUpdate>, WireError> {
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
