//! The grouped codec as it would be over a `Vec<WireUpdate>`: group
//! materialised updates into a frame, materialise a frame's updates.
//! Nothing in the DSM calls it. It is the oracle the unit and property
//! tests hold [`FrameWriter`](super::FrameWriter)'s frames and
//! [`UpdateBatch`]'s views to, byte for byte and update for update, and
//! the tests' way from hand-made [`WireUpdate`]s to a batch. It reads its
//! varints with a loop of its own, not [`varint::get`]: a varint is
//! canonical exactly when [`varint::put`] of its value gives its bytes.
//! It folds strided rows over a `Vec` and expands them with loops of its
//! own too.

use super::{bounded_vec, unpack_batch, varint, GroupHead, UpdateBatch, WireError, BATCH_MARKER};
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

/// Read a varint of at most `max`: up to ten bytes, the last without its
/// top bit; refused unless writing the value back gives the same bytes.
fn get_varint(buf: &mut Bytes, max: u64) -> Result<u64, WireError> {
    let mut v: u128 = 0;
    for i in 0..10 {
        let Some(&b) = buf.get(i) else {
            return Err(WireError::Truncated);
        };
        v |= u128::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            let read = buf.split_to(i + 1);
            if v > u128::from(max) {
                return Err(WireError::BadHeader);
            }
            let mut again = BytesMut::new();
            varint::put(&mut again, v as u64);
            return if again[..] == read[..] {
                Ok(v as u64)
            } else {
                Err(WireError::BadHeader)
            };
        }
    }
    Err(WireError::BadHeader)
}

/// A varint of a `u32` field.
fn take_u32(buf: &mut Bytes) -> Result<u32, WireError> {
    get_varint(buf, u32::MAX.into()).map(|v| v as u32)
}

/// The table of a group's `(offset, count)` runs: a row each, or, when
/// that is strictly shorter, strided rows that fold each left-to-right
/// sequence of one-element runs at one gap of 2 or more.
fn run_table(runs: &[(u64, u32)]) -> (bool, BytesMut) {
    let mut rows: Vec<(u64, u64, u64)> = Vec::new();
    for &(offset, count) in runs {
        if let Some((first, n, stride)) = rows.last_mut().filter(|_| count == 1) {
            // A dense run's stride is 1: no gap of 2 or more extends it.
            let gap = offset.saturating_sub(*first + (*n - 1) * *stride);
            if gap >= 2 && (*n == 1 || gap == *stride) && *n < u64::from(u32::MAX) {
                (*n, *stride) = (*n + 1, gap);
                continue;
            }
        }
        rows.push((offset, count.into(), 1));
    }
    let table = |rows: Vec<Vec<u64>>| {
        let mut table = BytesMut::new();
        varint::put(&mut table, rows.len() as u64);
        for v in rows.concat() {
            varint::put(&mut table, v);
        }
        table
    };
    let dense = table(runs.iter().map(|&(o, c)| vec![o, c.into()]).collect());
    let strided = table(rows.into_iter().map(|(f, n, s)| vec![f, n, s]).collect());
    match strided.len() < dense.len() {
        true => (true, strided),
        false => (false, dense),
    }
}

/// Pack `updates` in the grouped format: each maximal run of consecutive
/// updates sharing (entry, endianness, element size, scalar-vs-pointer)
/// becomes one run group.
///
/// # Panics
/// If a tag is not run-shaped, or its element size is not 1 to 31.
pub fn pack_grouped(updates: &[WireUpdate]) -> Bytes {
    let shape = |u: &WireUpdate| run_shape(&u.tag).expect("update tag is one run");
    let segs: Vec<&[WireUpdate]> = updates
        .chunk_by(|a, b| {
            let ((sa, _, pa), (sb, _, pb)) = (shape(a), shape(b));
            sa == sb && pa == pb && a.entry == b.entry && a.endian == b.endian
        })
        .collect();
    let mut out = BytesMut::new();
    out.put_u8(BATCH_MARKER);
    varint::put(&mut out, segs.len() as u64);
    for seg in segs {
        let head = &seg[0];
        let (size, _, is_ptr) = shape(head);
        assert!((1..32).contains(&size), "element size {size}");
        let big = head.endian == Endianness::Big;
        let runs: Vec<(u64, u32)> = seg.iter().map(|u| (u.elem_offset, shape(u).1)).collect();
        let (strided, table) = run_table(&runs);
        out.put_u8(
            size as u8 | u8::from(is_ptr) << 5 | u8::from(big) << 6 | u8::from(strided) << 7,
        );
        varint::put(&mut out, head.entry.into());
        out.put_slice(&table);
        for u in seg {
            debug_assert_eq!(u.data.len() as u64, u.tag.byte_size());
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
            ..
        } = g.head;
        out.extend(g.runs().map(|r| WireUpdate {
            entry: r.entry,
            elem_offset: r.elem_offset,
            endian,
            tag: run_tag(size, r.count as u32, is_ptr),
            data: Bytes::copy_from_slice(r.data),
        }));
    }
    out
}

/// Materialise the updates of a batch frame — what `unpack_batch`
/// returned before the frame itself became the batch.
pub fn unpack_updates(mut buf: Bytes) -> Result<Vec<WireUpdate>, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    if buf.get_u8() != BATCH_MARKER {
        return Err(WireError::BadHeader);
    }
    let groups = take_u32(&mut buf)?;
    // A group is at least its shape byte, entry and run count.
    let mut out = bounded_vec(groups, 3, buf.remaining(), WireError::Truncated)?;
    for _ in 0..groups {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let shape = buf.get_u8();
        let size = u32::from(shape & 0x1f);
        if size == 0 {
            return Err(WireError::BadHeader);
        }
        let is_ptr = shape & 0x20 != 0;
        let endian = [Endianness::Little, Endianness::Big][usize::from(shape & 0x40 != 0)];
        let strided = shape & 0x80 != 0;
        let entry = take_u32(&mut buf)?;
        let nrows = take_u32(&mut buf)?;
        // A row is at least two (dense) or three (strided) one-byte varints.
        let fields = 2 + usize::from(strided);
        let mut rows = bounded_vec(nrows, fields, buf.remaining(), WireError::Truncated)?;
        for _ in 0..nrows {
            let first = get_varint(&mut buf, u64::MAX)?;
            let count = take_u32(&mut buf)?;
            let stride = strided.then(|| get_varint(&mut buf, u64::MAX));
            let stride = stride.transpose()?.unwrap_or(1);
            let last = u128::from(first) + u128::from(count.max(1) - 1) * u128::from(stride);
            if count == 0 || stride == 0 || last > u128::from(u64::MAX) {
                return Err(WireError::BadHeader);
            }
            rows.push((first, count, stride));
        }
        let elems: u128 = rows.iter().map(|&(_, count, _)| u128::from(count)).sum();
        let want = u64::try_from(elems * u128::from(size)).map_err(|_| WireError::BadHeader)?;
        if (buf.remaining() as u64) < want {
            return Err(WireError::Truncated);
        }
        for (first, count, stride) in rows {
            // A dense run is one update; a strided row is one an element.
            let (n, each) = if stride == 1 { (1, count) } else { (count, 1) };
            for k in 0..u64::from(n) {
                out.push(WireUpdate {
                    entry,
                    elem_offset: first + k * stride,
                    endian,
                    tag: run_tag(size, each, is_ptr),
                    data: buf.split_to((u64::from(size) * u64::from(each)) as usize),
                });
            }
        }
    }
    if buf.has_remaining() {
        return Err(WireError::BadHeader);
    }
    Ok(out)
}
