//! Wire framing for updates.
//!
//! An update travels as *metadata + tag + raw data*. The metadata (entry
//! index, element offset, element count) is framed as canonical varints
//! ([`varint`]), each in the bytes its value needs; the **payload stays
//! in the sender's native format** — that is the "receiver makes right"
//! contract. Packing cost is the paper's `t_pack`, unpacking `t_unpack`
//! (Eq. 1); both are deliberately cheap (length-prefixed copies),
//! matching the paper's observation that `t_pack`/`t_unpack` are
//! comparatively small.
//!
//! The grouped frame of run groups is the one batch format, on the wire
//! and in memory: an [`UpdateBatch`] owns the frame, a [`FrameWriter`]
//! writes it straight from the sender's address space, [`unpack_batch`]
//! validates a received one once and keeps it, and the receiver applies
//! from borrowed [`RunGroup`] views of it. Every update is one coalesced
//! scalar or pointer run (`(m,n)(0,0)` / `(m,-n)(0,0)`, paper §4.1), so a
//! group frames one *shape* byte where a tag string would stand:
//!
//! ```text
//! frame = marker u8 | groups | group*
//! group = shape u8 | entry | rows | (offset, count | first, count, stride)* | payload
//! shape = size (bits 0–4, 1..=31) | pointer (bit 5) | big-endian (bit 6) | strided (bit 7)
//! ```
//!
//! Every other integer is a varint. A strided row names `first + k·stride`
//! for `k < count`: one dense run at stride 1, else `count` one-element
//! updates; a writer takes it for a group only when that is strictly
//! smaller. Nothing the receiver can work out is framed: a group's payload
//! is `size × Σcount` bytes. The shape byte keeps each frame
//! self-describing, so a receiver needs no table of its senders'
//! platforms. [`mod@reference`] is the codec over owned updates the tests
//! compare against.
//! A run table is decoded once: a batch keeps the rows the check of a
//! received frame decoded, or a [`FrameWriter`] planned — the same rows
//! either way — beside its frame, and every later walk reads those.

use bytes::{Buf, BufMut, Bytes};
use hdsm_platform::endian::Endianness;
use std::fmt;
use std::sync::{Arc, OnceLock};

pub mod reference;
pub mod varint;

use varint::VarintError;

/// First byte of every batch frame; a buffer that opens with anything
/// else is refused as [`WireError::BadHeader`].
const BATCH_MARKER: u8 = 0xD5;

/// Errors from unpacking a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Frame too short for what it declares.
    Truncated,
    /// Not a batch frame, or a field outside its range.
    BadHeader,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadHeader => write!(f, "bad frame header"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<VarintError> for WireError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => WireError::Truncated,
            VarintError::Invalid => WireError::BadHeader,
        }
    }
}

/// Size a `Vec` for a length prefix read from outside the program.
///
/// `count` is the declared element count (any of the varint counts the
/// decoders read), `min_elem_bytes` the fewest bytes one encoded element
/// can occupy and `remaining` what the buffer still holds. A count the
/// buffer cannot possibly back fails with the decoder's own `truncated`
/// error *before* anything is allocated, so no wire input can make a
/// decoder reserve more than the bytes it was handed divided by the
/// smallest element.
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

/// What the updates of one run group share, framed once per group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupHead {
    /// Index-table entry every run of the group targets.
    pub entry: u32,
    /// Byte order of the payload.
    pub endian: Endianness,
    /// Pointer runs (`(m,-n)`) rather than data runs (`(m,n)`).
    pub is_ptr: bool,
    /// Bytes per element on the sender, 1 to 31.
    pub size: u32,
}

impl GroupHead {
    /// The shape byte.
    ///
    /// # Panics
    /// If the element size is 0 or above 31.
    fn shape(&self) -> u8 {
        assert!((1..32).contains(&self.size), "element size {}", self.size);
        let big = self.endian == Endianness::Big;
        self.size as u8 | u8::from(self.is_ptr) << 5 | u8::from(big) << 6
    }

    /// The head a shape byte and an entry name.
    fn of(shape: u8, entry: u32) -> GroupHead {
        GroupHead {
            entry,
            endian: [Endianness::Little, Endianness::Big][usize::from(shape >> 6 & 1)],
            is_ptr: shape & 0x20 != 0,
            size: u32::from(shape & 0x1f),
        }
    }
}

/// One update of a batch, borrowed from the frame: `count` elements of
/// `entry` from `elem_offset` on now hold `data`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateView<'a> {
    /// Index-table entry the update targets.
    pub entry: u32,
    /// First element within the entry.
    pub elem_offset: u64,
    /// Elements the update covers.
    pub count: u64,
    /// Raw bytes in the sender's native format.
    pub data: &'a [u8],
}

/// A row of a batch's table: a group's `(first, count, stride)` row, or its
/// head row `(rows | shape << 32, entry, where its payload starts)`.
type Row = (u64, u64, u64);

/// A run group of a batch: consecutive updates sharing a [`GroupHead`],
/// its rows and its concatenated payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunGroup<'a> {
    /// What every run shares.
    pub head: GroupHead,
    rows: &'a [Row],
    data: &'a [u8],
}

impl<'a> RunGroup<'a> {
    /// The group's rows `(first, count, stride)` in frame order.
    pub fn rows(&self) -> &'a [(u64, u64, u64)] {
        self.rows
    }

    /// The group's updates in frame order: a row of stride 1 is one
    /// update, a row of a larger stride one update an element.
    pub fn runs(&self) -> impl Iterator<Item = UpdateView<'a>> + 'a {
        let (entry, size) = (self.head.entry, self.head.size as usize);
        let (mut rows, mut data) = (self.rows.iter(), self.data);
        // What is left of the open row: its next element, count and stride.
        let (mut next, mut left, mut stride) = (0, 0, 1);
        std::iter::from_fn(move || {
            if left == 0 {
                (next, left, stride) = *rows.next()?;
            }
            let count = if stride == 1 { left } else { 1 };
            let view;
            (view, data) = data.split_at(size * count as usize);
            let elem_offset = next;
            // The last element was checked to fit; past it nothing is read.
            (next, left) = (next.wrapping_add(stride), left - count);
            Some(UpdateView {
                entry,
                elem_offset,
                count,
                data: view,
            })
        })
    }
}

/// Split the group at the front of `buf`, `len - buf.len()` bytes into its
/// frame, off it with every check the format has, and push its head row and
/// rows onto `out`, sized only once the buffer is seen to hold them: how
/// many updates it holds and their payload bytes.
fn split_group(buf: &mut &[u8], len: usize, out: &mut Vec<Row>) -> Result<(usize, u64), WireError> {
    let (&shape, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    let (size, strided) = (u64::from(shape & 0x1f), shape & STRIDED != 0);
    *buf = rest;
    if size == 0 {
        return Err(WireError::BadHeader);
    }
    let (entry, nrows) = (varint::get32(buf)?, varint::get32(buf)?);
    // A row is at least two or three one-byte varints.
    if u64::from(nrows) * (2 + u64::from(strided)) > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    let at = out.len();
    out.reserve(1 + nrows as usize);
    out.push((0, 0, 0));
    let (mut elems, mut updates) = (0u64, 0u64);
    for _ in 0..nrows {
        let first = varint::get(buf, u64::MAX)?;
        let count = u64::from(varint::get32(buf)?);
        let stride = strided.then(|| varint::get(buf, u64::MAX));
        let stride = stride.transpose()?.unwrap_or(1);
        // Each element named must be one a `u64` can index.
        let last = count.checked_sub(1).and_then(|k| k.checked_mul(stride));
        if stride == 0 || last.and_then(|d| first.checked_add(d)).is_none() {
            return Err(WireError::BadHeader);
        }
        out.push((first, count, stride));
        // At most `u32::MAX` counts of at most `u32::MAX` each.
        elems += count;
        updates += if stride == 1 { 1 } else { count };
    }
    let data_len = elems.checked_mul(size).ok_or(WireError::BadHeader)?;
    if (buf.len() as u64) < data_len {
        return Err(WireError::Truncated);
    }
    let meta = u64::from(nrows) | u64::from(shape) << 32;
    out[at] = (meta, entry.into(), (len - buf.len()) as u64);
    *buf = &buf[data_len as usize..];
    // No more updates than payload bytes, which the buffer holds.
    Ok((updates as usize, data_len))
}

/// A batch of updates: the grouped frame itself, validated once, with its
/// decoded run table, update count and payload bytes. It is what every
/// message, log and snapshot of the DSM carries; cloning shares the frame
/// and the table, and two batches are equal when their frames are (the
/// rest follows from the frame).
///
/// Consecutive updates sharing (entry, endianness, element size,
/// scalar-vs-pointer) form one *run group* that frames the shared
/// metadata once and then just its varint rows plus a single concatenated
/// payload — a red-black writer's every-other-element stores along a row
/// of SOR's grid take one `(first, count, stride)` row, not a row each —
/// and the receiver parses no tag.
/// Grouping only ever merges **consecutive** updates, so apply order —
/// and therefore last-writer-wins semantics within a batch — is preserved
/// exactly.
#[derive(Clone, PartialEq)]
pub struct UpdateBatch {
    frame: Bytes,
    /// Per group a head row, then its rows: the vector they were decoded
    /// or planned in, shared as it is, like the frame; none without groups.
    rows: Option<Arc<Vec<Row>>>,
    updates: usize,
    payload_bytes: u64,
}

impl Default for UpdateBatch {
    /// The empty batch; every empty batch shares one frame.
    fn default() -> UpdateBatch {
        static EMPTY: OnceLock<UpdateBatch> = OnceLock::new();
        EMPTY
            .get_or_init(|| FrameWriter::default().finish())
            .clone()
    }
}

impl fmt::Debug for UpdateBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpdateBatch")
            .field("updates", &self.updates)
            .field("payload_bytes", &self.payload_bytes)
            .field("frame_bytes", &self.frame.len())
            .finish()
    }
}

impl UpdateBatch {
    /// The frame: what travels, byte for byte.
    pub fn frame(&self) -> &Bytes {
        &self.frame
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates
    }

    /// Whether the batch holds no update.
    pub fn is_empty(&self) -> bool {
        self.updates == 0
    }

    /// Payload bytes of all updates, framing excluded.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// The groups in frame order, borrowed, read off the batch's rows. A
    /// run group without rows holds no update and is skipped.
    pub fn groups(&self) -> impl Iterator<Item = RunGroup<'_>> + '_ {
        let mut table = self.rows.as_deref().map_or(&[][..], Vec::as_slice);
        std::iter::from_fn(move || loop {
            let (&(meta, entry, at), rest) = table.split_first()?;
            let rows;
            (rows, table) = rest.split_at(meta as u32 as usize);
            let head = GroupHead::of((meta >> 32) as u8, entry as u32);
            let len = rows.iter().map(|r| r.1).sum::<u64>() * u64::from(head.size);
            let data = &self.frame[at as usize..][..len as usize];
            if !rows.is_empty() {
                return Some(RunGroup { head, rows, data });
            }
        })
    }

    /// Every update in frame order, borrowed: only `benchmark/`, frozen
    /// between benchmark PRs, still walks a batch so.
    pub fn iter(&self) -> impl Iterator<Item = UpdateView<'_>> + '_ {
        self.groups().flat_map(|g| g.runs())
    }
}

/// The frame of a batch. (The name is from when packing was a pass over
/// materialised updates; `benchmark/`, frozen between benchmark PRs, and
/// `tests/differential.rs` call it.)
pub fn pack_batch_fast(batch: &UpdateBatch) -> Bytes {
    batch.frame.clone()
}

/// Validate a received batch and keep it, as the zero-copy slice it
/// arrived in. Every length is checked against what the buffer holds
/// before it is used, and nothing is allocated from one.
pub fn unpack_batch(mut buf: Bytes) -> Result<UpdateBatch, WireError> {
    let batch = split_batch(&mut buf)?;
    if buf.has_remaining() {
        return Err(WireError::BadHeader);
    }
    Ok(batch)
}

/// [`unpack_batch`] for a batch that is followed by something else: the
/// frame says where it ends (a group count, then every group's runs), so
/// it is split off the front of `buf` and what follows stays there.
pub fn split_batch(buf: &mut Bytes) -> Result<UpdateBatch, WireError> {
    let (&marker, mut rest) = buf.split_first().ok_or(WireError::Truncated)?;
    if marker != BATCH_MARKER {
        return Err(WireError::BadHeader);
    }
    let groups = varint::get32(&mut rest)?;
    // A group is at least its shape byte and two one-byte varints.
    if u64::from(groups) * 3 > rest.len() as u64 {
        return Err(WireError::Truncated);
    }
    let (whole, mut rows, mut updates, mut payload_bytes) = (buf.len(), Vec::new(), 0, 0);
    for _ in 0..groups {
        let (n, bytes) = split_group(&mut rest, whole, &mut rows)?;
        (updates, payload_bytes) = (updates + n, payload_bytes + bytes);
    }
    Ok(UpdateBatch {
        frame: buf.split_to(whole - rest.len()),
        rows: (!rows.is_empty()).then(|| Arc::new(rows)),
        updates,
        payload_bytes,
    })
}

/// Fold the runs `runs` (`count` elements `first + k·stride`) into rows,
/// handed to `row` in order: an element of a one-element run (count 1 or
/// stride 2+) continues the last row of such runs where it follows at its
/// one gap of 2+ (any, after one element); a dense run is a row of its own.
/// So the rows do not depend on how the same elements were cut into runs.
///
/// # Panics
/// If a run is empty.
#[inline]
pub fn fold_rows(
    runs: impl IntoIterator<Item = (u64, u64, u64)>,
    mut row: impl FnMut((u64, u64, u64)),
) {
    let mut fold = RowFold::default();
    let closed = runs.into_iter().filter_map(|run| fold.push(run));
    closed.for_each(|r| row(counted(r)));
    fold.open().into_iter().for_each(|r| row(counted(r)));
}

/// The row `(first, last, stride)` as `(first, count, stride)`.
#[inline]
pub fn counted((first, last, stride): (u64, u64, u64)) -> (u64, u64, u64) {
    match stride {
        1 => (first, last - first + 1, 1),
        s => (first, (last - first) / s + 1, s),
    }
}

/// [`fold_rows`] a run at a time, holding its last row, open to what
/// follows, as `(first, last, stride)` (a lone element at stride 1): the
/// form a set of rows is searched in.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowFold(Option<(u64, u64, u64)>);

impl RowFold {
    /// A fold whose last row is `row`, a row a fold made.
    #[inline]
    pub fn resume(row: Option<(u64, u64, u64)>) -> RowFold {
        let made = |(f, l, s): (u64, u64, u64)| s > 0 && f <= l && (l - f) % s == 0;
        debug_assert!(row.is_none_or(|r| made(r) && (r.0 < r.1 || r.2 == 1)));
        RowFold(row)
    }

    /// The last row, open to what follows.
    #[inline]
    pub fn open(&self) -> Option<(u64, u64, u64)> {
        self.0
    }

    /// How many of the run's leading elements the last row takes: a row of
    /// one-element runs goes on at its one gap, up to `u32::MAX` elements.
    #[inline]
    pub fn takes(&self, (first, count, stride): (u64, u64, u64)) -> u64 {
        const MOST: u64 = u32::MAX as u64;
        let Some((f, last, gap)) = self.0 else {
            return 0;
        };
        let ones = (count == 1 || stride > 1) && (f == last || gap > 1);
        let step = first.saturating_sub(last);
        let room = last - f < (MOST - 1).saturating_mul(gap);
        match ones && step >= 2 && (f == last || step == gap) && room {
            false => 0,
            // A run's later elements continue the row only at its gap.
            true if count > 1 && stride == step => count.min(MOST - counted((f, last, gap)).1),
            true => 1,
        }
    }

    /// Fold in the run `(first, count, stride)`; the row it closed, if any.
    ///
    /// # Panics
    /// If the run is empty.
    #[inline]
    pub fn push(
        &mut self,
        (mut first, mut count, stride): (u64, u64, u64),
    ) -> Option<(u64, u64, u64)> {
        assert!(count > 0, "empty run");
        let take = self.takes((first, count, stride));
        if let Some((f, last, _)) = self.0.filter(|_| take > 0) {
            self.0 = Some((f, first + (take - 1) * stride, first - last));
            if take == count {
                return None;
            }
            (first, count) = (first + take * stride, count - take);
        }
        let stride = if count == 1 { 1 } else { stride };
        self.0
            .replace((first, first + (count - 1) * stride, stride))
    }
}

/// Bytes the varints of `first + k·stride`, `k < count`, take: a byte each,
/// and one more for each band edge `2^7j` an element reaches.
fn varints_len(first: u64, count: u64, stride: u64) -> usize {
    let below = |edge: u64| edge.saturating_sub(first).div_ceil(stride).min(count);
    (1..10).fold(count, |bytes, j| bytes + count - below(1 << (7 * j))) as usize
}

/// Bit 7 of a shape byte: the group's table is strided.
const STRIDED: u8 = 0x80;

/// Writes a grouped frame into one buffer sized exactly before the first
/// byte is written. The sender first plans every group from its runs
/// ([`Self::plan_group`]), which folds them into rows once and sizes the
/// group; then, per group in the same order, writes the header and table
/// from those rows ([`Self::begin_group`]) and appends the payload
/// straight from its address space ([`Self::put_payload`]). The batch
/// keeps the rows as they were written.
#[derive(Default)]
pub struct FrameWriter {
    out: Vec<u8>,
    /// Per planned group a head row, then its rows. Until the group is
    /// written its head row's payload field counts its elements instead.
    rows: Vec<Row>,
    groups: u64,
    /// The head row of the next group to open.
    next: usize,
    /// Bytes the planned groups take.
    body: usize,
    /// `out.len()` once the open group's payload is complete.
    group_end: usize,
    updates: u64,
    payload_bytes: u64,
}

impl FrameWriter {
    /// Plan the next run group: `entry`, elements of `size` bytes, and the
    /// runs `runs` ([`fold_rows`]' runs). Its table is strided only when
    /// that is strictly smaller, so a group with nothing to fold keeps its
    /// dense table, whose rows are one update each.
    ///
    /// # Panics
    /// If a group was opened already, or a run is empty or counts more
    /// than `u32::MAX` elements.
    pub fn plan_group(
        &mut self,
        entry: u32,
        size: u32,
        runs: impl IntoIterator<Item = (u64, u64, u64)>,
    ) {
        assert!(self.out.is_empty(), "a group planned late");
        let (head, runs) = (self.rows.len(), runs.into_iter());
        self.rows.reserve(1 + runs.size_hint().0);
        self.rows.push((0, 0, 0));
        let long = |r: &(u64, u64, u64)| assert!(r.1 <= u32::MAX.into(), "run too long");
        fold_rows(runs.inspect(long), |row| self.rows.push(row));
        let (mut dense, mut strided, mut elems, mut updates) = (0, 0, 0, 0);
        for &(first, count, stride) in &self.rows[head + 1..] {
            strided += varint::len(first) + varint::len(count) + varint::len(stride);
            // A dense table frames each update's offset and count.
            let (ones, offsets) = match stride {
                1 => (1, varint::len(first) + varint::len(count)),
                _ => (count, varints_len(first, count, stride) + count as usize),
            };
            dense += offsets;
            (elems, updates) = (elems + count, updates + ones);
        }
        let n_rows = (self.rows.len() - head - 1) as u64;
        let (dense, strided) = (dense + varint::len(updates), strided + varint::len(n_rows));
        let data_len = u64::from(size) * elems;
        self.body += 1 + varint::len(entry.into()) + dense.min(strided) + data_len as usize;
        let shape = if strided < dense { STRIDED } else { 0 };
        if shape == 0 && updates > n_rows {
            // Each element of a strided row is a row of the dense table.
            let folded = self.rows.split_off(head + 1);
            let each = |(first, count, stride): Row| {
                let (n, count) = if stride == 1 { (1, count) } else { (count, 1) };
                (0..n).map(move |k| (first + k * stride, count, 1))
            };
            self.rows.extend(folded.into_iter().flat_map(each));
        }
        let n_rows = (self.rows.len() - head - 1) as u64;
        self.rows[head] = (n_rows | u64::from(shape) << 32, entry.into(), elems);
        self.groups += 1;
        self.updates += updates;
        self.payload_bytes += data_len;
    }

    /// The frame's header, once, in a buffer of the frame's size.
    fn start(&mut self) {
        if self.out.is_empty() {
            self.out = Vec::with_capacity(1 + varint::len(self.groups) + self.body);
            self.out.put_u8(BATCH_MARKER);
            varint::put(&mut self.out, self.groups);
            self.group_end = self.out.len();
        }
    }

    /// Open the next planned group, whose entry and element size `head`
    /// names: its header and its table. The payload of its elements,
    /// `head.size` bytes each in order, must follow through
    /// [`Self::put_payload`].
    ///
    /// # Panics
    /// If the previous group's payload is incomplete, every planned group
    /// is open already, or the element size is not 1 to 31.
    pub fn begin_group(&mut self, head: GroupHead) {
        self.start();
        assert_eq!(self.out.len(), self.group_end, "previous group's payload");
        let (meta, _, elems) = *self.rows.get(self.next).expect("a group too many");
        let (n_rows, shape) = (meta as u32 as usize, head.shape() | (meta >> 32) as u8);
        let out = &mut self.out;
        out.put_u8(shape);
        let mut put = |vs: &[u64]| vs.iter().for_each(|&v| varint::put(out, v));
        put(&[head.entry.into(), n_rows as u64]);
        let fields = if shape & STRIDED != 0 { 3 } else { 2 };
        for &(first, count, stride) in &self.rows[self.next + 1..][..n_rows] {
            put(&[first, count, stride][..fields]);
        }
        let at = out.len();
        let meta = n_rows as u64 | u64::from(shape) << 32;
        self.rows[self.next] = (meta, head.entry.into(), at as u64);
        self.next += 1 + n_rows;
        self.group_end = at + (u64::from(head.size) * elems) as usize;
    }

    /// Append payload bytes of the open group.
    pub fn put_payload(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// The finished batch.
    ///
    /// # Panics
    /// If the frame is not exactly what [`Self::plan_group`] and
    /// [`Self::begin_group`] were told it would be.
    pub fn finish(mut self) -> UpdateBatch {
        self.start();
        assert_eq!(self.out.len(), self.group_end, "last group's payload");
        assert_eq!(self.next, self.rows.len(), "groups planned but not written");
        let planned = 1 + varint::len(self.groups) + self.body;
        assert_eq!(self.out.len(), planned, "frame was sized for its groups");
        UpdateBatch {
            frame: self.out.into(),
            rows: (!self.rows.is_empty()).then(|| Arc::new(self.rows)),
            updates: self.updates as usize,
            payload_bytes: self.payload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{pack_grouped, unpack_updates, updates_of, WireUpdate};
    use super::*;
    use crate::generate::tag_for_scalar_run;
    use hdsm_platform::scalar::ScalarKind;

    fn sample(entry: u32, n: u64) -> WireUpdate {
        let data: Vec<u8> = (0..n * 4).map(|i| (i % 251) as u8).collect();
        WireUpdate {
            entry,
            elem_offset: 7,
            endian: Endianness::Big,
            tag: tag_for_scalar_run(ScalarKind::Int, 4, n),
            data: Bytes::from(data),
        }
    }

    /// A pointer run: never shares a group with a data run.
    fn pointer_sample(entry: u32) -> WireUpdate {
        WireUpdate {
            entry,
            elem_offset: 0,
            endian: Endianness::Little,
            tag: tag_for_scalar_run(ScalarKind::Ptr, 4, 3),
            data: Bytes::from(vec![7u8; 12]),
        }
    }

    #[test]
    fn empty_batch() {
        let batch = unpack_batch(pack_grouped(&[])).unwrap();
        assert_eq!(batch, UpdateBatch::default());
        assert!(batch.is_empty() && batch.groups().next().is_none());
        // The marker and a group count of 0.
        assert_eq!(&batch.frame()[..], &[BATCH_MARKER, 0]);
    }

    #[test]
    fn batch_roundtrips_and_preserves_order() {
        // Same entry runs (groupable), an entry switch, a pointer run,
        // then more runs — order must survive exactly.
        let us = vec![
            sample(0, 2),
            sample(0, 2),
            sample(0, 5),
            sample(1, 3),
            pointer_sample(2),
            sample(1, 1),
            sample(1, 1),
        ];
        let batch = unpack_batch(pack_grouped(&us)).unwrap();
        assert_eq!(updates_of(&batch), us);
        assert_eq!(batch.groups().count(), 4);
        // The counts the batch carries are the flat walk's.
        let flat: Vec<(u32, u64, usize)> = batch
            .groups()
            .flat_map(|g| g.runs())
            .map(|u| (u.entry, u.count, u.data.len()))
            .collect();
        let want: Vec<(u32, u64, usize)> = us
            .iter()
            .map(|u| (u.entry, u.tag.element_count(), u.data.len()))
            .collect();
        assert_eq!(flat, want);
        assert_eq!(batch.len(), us.len());
        let bytes: usize = us.iter().map(|u| u.data.len()).sum();
        assert_eq!(batch.payload_bytes(), bytes as u64);
        // The frame is the batch: packing it again is handing it over.
        assert_eq!(pack_batch_fast(&batch), pack_grouped(&us));
    }

    #[test]
    fn small_runs_of_one_entry_frame_their_varints_and_their_payload() {
        // The SOR shape: thousands of tiny same-entry updates.
        let us: Vec<WireUpdate> = (0..500)
            .map(|i| WireUpdate {
                elem_offset: i * 7,
                ..sample(3, 2)
            })
            .collect();
        let frame = pack_grouped(&us);
        assert_eq!(updates_of(&unpack_batch(frame.clone()).unwrap()), us);
        let mut w = FrameWriter::default();
        w.plan_group(3, 4, (0..500).map(|i| (i * 7, 2, 1)));
        w.begin_group(GroupHead {
            entry: 3,
            endian: Endianness::Big,
            is_ptr: false,
            size: 4,
        });
        us.iter().for_each(|u| w.put_payload(&u.data));
        assert_eq!(w.finish().frame(), &frame);
        let group = frame.len() - 2;
        // Shape, entry and a two-byte run count; then offsets below 128
        // (19 of them) in one byte, the rest in two, and every count in
        // one.
        assert_eq!(group - 500 * 8, 1 + 1 + 2 + 19 * 2 + 481 * 3);
    }

    #[test]
    fn batch_does_not_group_across_endian_or_size_changes() {
        let mut other = sample(0, 2);
        other.endian = Endianness::Little;
        let mut wide = sample(0, 1);
        wide.tag = tag_for_scalar_run(ScalarKind::Double, 8, 1);
        wide.data = Bytes::from(vec![3u8; 8]);
        let us = vec![sample(0, 2), other, sample(0, 2), wide];
        let batch = unpack_batch(pack_grouped(&us)).unwrap();
        assert_eq!(batch.groups().count(), 4);
        assert_eq!(updates_of(&batch), us);
    }

    #[test]
    fn batch_detects_truncation_everywhere() {
        let us = vec![sample(0, 2), sample(0, 3), pointer_sample(1)];
        let full = pack_grouped(&us);
        for cut in 0..full.len() {
            assert!(
                unpack_batch(full.slice(..cut)).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn split_batch_leaves_what_follows_the_frame() {
        let us = vec![sample(0, 2), pointer_sample(1)];
        let frame = pack_grouped(&us);
        let mut buf = frame.to_vec();
        buf.extend_from_slice(b"what follows");
        let mut buf = Bytes::from(buf);
        let batch = split_batch(&mut buf).unwrap();
        assert_eq!(batch.frame(), &frame);
        assert_eq!(updates_of(&batch), us);
        assert_eq!(&buf[..], b"what follows");
        // The empty batch is a frame too, and a cut one is still refused.
        let mut empty = Bytes::from([pack_grouped(&[]).as_ref(), &[7u8][..]].concat());
        assert!(split_batch(&mut empty).unwrap().is_empty());
        assert_eq!(&empty[..], &[7]);
        for cut in 0..frame.len() {
            assert!(
                split_batch(&mut frame.slice(..cut)).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn batch_rejects_trailing_garbage() {
        let mut with_garbage = pack_grouped(&[sample(0, 1)]).to_vec();
        with_garbage.push(9);
        assert!(unpack_batch(with_garbage.into()).is_err());
    }

    #[test]
    fn the_payload_is_as_long_as_the_rows_say() {
        // One group of 4 four-byte elements: marker, group count, shape,
        // entry, run count, offset, count, then 16 payload bytes.
        let bytes = pack_grouped(&[sample(1, 4)]).to_vec();
        assert_eq!(&bytes[..7], &[BATCH_MARKER, 1, 0x44, 1, 1, 7, 4]);
        assert_eq!(bytes.len(), 7 + 16);
        let mut more = bytes.clone();
        more[6] = 5;
        assert_eq!(unpack_batch(more.into()), Err(WireError::Truncated));
        let mut fewer = bytes;
        fewer[6] = 3;
        assert_eq!(unpack_batch(fewer.into()), Err(WireError::BadHeader));
    }

    #[test]
    fn other_batch_formats_and_shapes_are_bad_headers() {
        // A count-prefixed batch of the retired v1 format: empty, and one
        // frame (magic 0x0D5D, version 1, tag text, payload).
        let mut v1 = vec![0, 0, 0, 1, 0x0d, 0x5d, 1, 1];
        v1.extend_from_slice(&[0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0]);
        v1.extend_from_slice(&[0, 0, 0, 10]);
        v1.extend_from_slice(b"(4,1)(0,0)");
        v1.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 4, 1, 2, 3, 4]);
        // The retired fixed-width v2 frame: a `u32::MAX` marker, a group
        // count, and a run group with its kind byte, sender name and
        // payload length.
        let mut v2 = vec![0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 4];
        v2.extend_from_slice(&[0, 0, 0, 3, 1, b's', 0, 0, 0, 1]);
        v2.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 100, 0, 0, 0, 1]);
        v2.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 4, 1, 2, 3, 4]);
        // Shapes of size 0, dense and strided.
        let one = pack_grouped(&[sample(0, 1)]).to_vec();
        assert_eq!(one[2], 0x44);
        let shaped = |shape: u8| {
            let mut b = one.clone();
            b[2] = shape;
            b
        };
        let sizeless = [0x40, 0x60, 0x80, 0xc0].map(shaped);
        for bytes in [vec![0; 4], v1, v2].into_iter().chain(sizeless) {
            let bytes = Bytes::from(bytes);
            assert_eq!(unpack_batch(bytes.clone()), Err(WireError::BadHeader));
            assert_eq!(unpack_updates(bytes), Err(WireError::BadHeader));
        }
    }

    #[test]
    fn overlong_non_canonical_and_out_of_range_varints_are_refused() {
        // Each field of `[marker, groups 1, shape, entry 3, runs 1, offset
        // 100, count 1, payload]` spelled badly in turn: six bytes for a
        // `u32`, eleven for the `u64` offset, a trailing zero group, and a
        // `u32` field one above `u32::MAX`.
        let u32_fields = [1, 3, 4, 6];
        let six = vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let above = vec![0x80, 0x80, 0x80, 0x80, 0x10];
        let eleven = [&[0xff; 10][..], &[0x01]].concat();
        let plain = [BATCH_MARKER, 1, 0x44, 3, 1, 100, 1];
        let frame = |at: usize, spelled: &[u8]| {
            let mut fields: Vec<Vec<u8>> = plain.iter().map(|&b| vec![b]).collect();
            fields[at] = spelled.to_vec();
            Bytes::from([fields.concat(), vec![9, 9, 9, 9]].concat())
        };
        assert_eq!(
            updates_of(&unpack_batch(frame(5, &[100])).unwrap()).len(),
            1
        );
        for at in [1, 3, 4, 5, 6] {
            let mut cases = vec![vec![plain[at] | 0x80, 0x00], eleven.clone()];
            if u32_fields.contains(&at) {
                cases.extend([six.clone(), above.clone()]);
            }
            for spelled in cases {
                let bytes = frame(at, &spelled);
                assert_eq!(
                    unpack_batch(bytes.clone()),
                    Err(WireError::BadHeader),
                    "field {at} as {spelled:x?}"
                );
                assert_eq!(unpack_updates(bytes), Err(WireError::BadHeader));
            }
        }
    }

    /// Updates whose varints take several bytes: an entry above 127, an
    /// offset above 2^21 and a run of more than 127 elements.
    fn wide_sample() -> WireUpdate {
        WireUpdate {
            entry: 300,
            elem_offset: (1 << 21) + 5,
            ..sample(300, 130)
        }
    }

    /// One-element updates of entry 2 at `first`, `first + gap`, … —
    /// `n` of them, the shape a strided row folds.
    fn every(first: u64, gap: u64, n: u64) -> Vec<WireUpdate> {
        (0..n)
            .map(|k| WireUpdate {
                elem_offset: first + k * gap,
                data: Bytes::from(vec![k as u8; 4]),
                ..sample(2, 1)
            })
            .collect()
    }

    #[test]
    fn decoder_agrees_with_the_reference_on_every_truncation_and_byte_flip() {
        // Accepted input: the same updates. Rejected input: the same
        // `WireError`, whichever field the damage lands in. The third
        // group is strided, its first element and stride two-byte varints.
        let us = [
            vec![sample(0, 2), sample(0, 3), pointer_sample(1)],
            every(300, 130, 3),
            vec![wide_sample(), sample(1, 1)],
        ]
        .concat();
        let full = pack_grouped(&us);
        let strided = [0xc4, 2, 1, 0xac, 0x02, 3, 0x82, 0x01];
        assert!(full.windows(8).any(|w| w == strided));
        let agree = |bytes: Bytes, what: &str| {
            let got = unpack_batch(bytes.clone()).map(|b| updates_of(&b));
            assert_eq!(got, unpack_updates(bytes), "{what}");
        };
        for cut in 0..=full.len() {
            agree(full.slice(..cut), &format!("cut at {cut}"));
        }
        for at in 0..full.len() {
            for flip in [0x01, 0x40, 0x80, 0xff] {
                let mut bytes = full.to_vec();
                bytes[at] ^= flip;
                agree(Bytes::from(bytes), &format!("byte {at} ^ {flip:#x}"));
            }
        }
    }

    /// A frame of one group of entry 1, big-endian four-byte elements,
    /// from the `(offset, count)` runs `runs`, its payload byte `i` being
    /// `i`.
    fn written(runs: &[(u64, u32)]) -> UpdateBatch {
        let head = GroupHead {
            entry: 1,
            endian: Endianness::Big,
            is_ptr: false,
            size: 4,
        };
        let mut w = FrameWriter::default();
        w.plan_group(1, 4, runs.iter().map(|&(o, c)| (o, c.into(), 1)));
        w.begin_group(head);
        let elems: u32 = runs.iter().map(|r| r.1).sum();
        w.put_payload(&(0..4 * elems as u8).collect::<Vec<u8>>());
        w.finish()
    }

    #[test]
    fn a_strided_row_folds_a_constant_gap_of_one_element_runs() {
        // Three elements two apart and a dense run of four: rows (3, 3, 2)
        // and (20, 4, 1) where the dense table would take four.
        let batch = written(&[(3, 1), (5, 1), (7, 1), (20, 4)]);
        let table = [BATCH_MARKER, 1, 0xc4, 1, 2, 3, 3, 2, 20, 4, 1];
        assert_eq!(&batch.frame()[..11], &table);
        assert_eq!(batch.frame().len(), 11 + 7 * 4);
        let group = batch.groups().next().unwrap();
        assert_eq!(group.rows(), [(3, 3, 2), (20, 4, 1)]);
        let views: Vec<(u64, u64, &[u8])> = group
            .runs()
            .map(|u| (u.elem_offset, u.count, u.data))
            .collect();
        let want: [(u64, u64, &[u8]); 4] = [
            (3, 1, &[0, 1, 2, 3]),
            (5, 1, &[4, 5, 6, 7]),
            (7, 1, &[8, 9, 10, 11]),
            (20, 4, &(12..28).collect::<Vec<u8>>()),
        ];
        assert_eq!(views, want);
        assert_eq!((batch.len(), batch.payload_bytes()), (4, 28));
        assert_eq!(batch, unpack_batch(batch.frame().clone()).unwrap());
        assert_eq!(batch.frame(), &pack_grouped(&updates_of(&batch)));
        // A changed gap starts a new row; so does a dense run, and a gap
        // of 1 (what coalescing would have joined) or going back.
        let batch = written(&[(0, 1), (2, 1), (4, 1), (7, 1), (10, 1), (11, 1), (9, 1)]);
        let rows = [0xc4, 1, 4, 0, 3, 2, 7, 2, 3, 11, 1, 1, 9, 1, 1];
        assert_eq!(&batch.frame()[2..17], &rows);
        assert_eq!(batch.len(), 7);
        // A table the strided form would not shorten stays dense: here
        // both take seven bytes, and the writer hands over a row an
        // update, as the check of its frame decodes it.
        let batch = written(&[(0, 1), (2, 1), (10, 3)]);
        assert_eq!(&batch.frame()[2..11], &[0x44, 1, 3, 0, 1, 2, 1, 10, 3]);
        let rows = [(0, 1, 1), (2, 1, 1), (10, 3, 1)];
        assert_eq!(batch.groups().next().unwrap().rows(), rows);
        assert!(batch
            .groups()
            .eq(unpack_batch(batch.frame().clone()).unwrap().groups()));
    }

    #[test]
    fn strided_rows_out_of_range_are_refused() {
        // `[marker, 1 group, strided shape, entry 0, 1 row, first, count,
        // stride]`, then eight payload bytes.
        let frame = |row: &[u8]| {
            let head = [BATCH_MARKER, 1, 0xc4, 0, 1];
            Bytes::from([&head[..], row, &[9; 8]].concat())
        };
        let max_less_1 = [&[0xfe][..], &[0xff; 8], &[0x01]].concat();
        let u32_max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        let cases = [
            (vec![3, 2, 4], Ok(2)),
            (vec![3, 2, 0], Err(WireError::BadHeader)),
            (vec![3, 0, 4], Err(WireError::BadHeader)),
            // Last element `u64::MAX`, then one past it.
            ([&max_less_1[..], &[2, 1]].concat(), Ok(1)),
            (
                [&max_less_1[..], &[2, 2]].concat(),
                Err(WireError::BadHeader),
            ),
            // A huge count over eight bytes of payload.
            (
                [&[3][..], &u32_max, &[2]].concat(),
                Err(WireError::Truncated),
            ),
            (vec![3, 2], Err(WireError::Truncated)),
        ];
        for (row, want) in cases {
            let bytes = frame(&row);
            let got = unpack_batch(bytes.clone()).map(|b| b.len());
            assert_eq!(got, want, "row {row:x?}");
            let reference = unpack_updates(bytes).map(|us| us.len());
            assert_eq!(reference, want, "row {row:x?}");
        }
        // Cut anywhere inside a strided frame.
        let full = pack_grouped(&every(1 << 30, 1 << 20, 3));
        assert_eq!(full[2], 0xc4);
        for cut in 0..full.len() {
            assert_eq!(unpack_batch(full.slice(..cut)), Err(WireError::Truncated));
            assert_eq!(unpack_updates(full.slice(..cut)), Err(WireError::Truncated));
        }
    }

    #[test]
    fn a_wild_group_or_row_count_sizes_no_row_table() {
        // `u32::MAX` groups, then one group of `u32::MAX` dense rows and
        // one of `u32::MAX` strided rows, each declared in twelve bytes.
        let most = [0xff, 0xff, 0xff, 0xff, 0x0f];
        let frames = [
            [&[BATCH_MARKER][..], &most, &[0x44, 0, 1, 0, 1, 9]].concat(),
            [&[BATCH_MARKER, 1, 0x44, 0][..], &most, &[0, 1, 9]].concat(),
            [&[BATCH_MARKER, 1, 0xc4, 0][..], &most, &[0, 1, 1]].concat(),
        ];
        // Each is refused before its table is sized: a table sized from
        // either count would take 96 GiB, which the decoder fuzz's capped
        // address space turns into an abort.
        for bytes in frames.map(Bytes::from) {
            assert_eq!(bytes.len(), 12);
            assert_eq!(unpack_batch(bytes.clone()), Err(WireError::Truncated));
            assert_eq!(unpack_updates(bytes), Err(WireError::Truncated));
        }
    }

    #[test]
    fn frame_writer_writes_the_reference_frame() {
        let us = vec![sample(0, 2), sample(0, 5), wide_sample()];
        let head = |entry| GroupHead {
            entry,
            endian: Endianness::Big,
            is_ptr: false,
            size: 4,
        };
        let mut w = FrameWriter::default();
        w.plan_group(0, 4, [(7, 2, 1), (7, 5, 1)]);
        w.plan_group(300, 4, [((1 << 21) + 5, 130, 1)]);
        w.begin_group(head(0));
        w.put_payload(&us[0].data);
        w.put_payload(&us[1].data);
        w.begin_group(head(300));
        w.put_payload(&us[2].data);
        let batch = w.finish();
        assert_eq!(batch.frame(), &pack_grouped(&us));
        assert_eq!((batch.len(), batch.payload_bytes()), (3, 28 + 520));
        assert_eq!(batch, unpack_batch(batch.frame().clone()).unwrap());
    }

    #[test]
    fn frame_writer_folds_strided_runs_as_the_reference_folds_their_updates() {
        let cases: [&[(u64, u64, u64)]; 5] = [
            // Offsets across the varint bands at 128 and 16 384.
            &[(100, 10, 7), (16_300, 6, 30)],
            // A run that continues the lattice joins the row.
            &[(1, 5, 2), (11, 3, 2), (17, 1, 1)],
            // Dense neighbours, and a lattice that breaks inside a run.
            &[(0, 5, 1), (6, 4, 2), (20, 3, 1), (30, 3, 2), (35, 4, 3)],
            // A tie: both tables take seven bytes, so it stays dense.
            &[(0, 2, 2), (10, 3, 1)],
            &[(4, 1, 9)],
        ];
        for runs in cases {
            let update = |(first, count): (u64, u64)| WireUpdate {
                elem_offset: first,
                tag: tag_for_scalar_run(ScalarKind::Int, 4, count),
                data: Bytes::from(vec![first as u8; 4 * count as usize]),
                ..sample(2, 1)
            };
            let each = |&(first, count, stride): &(u64, u64, u64)| match stride {
                1 => vec![update((first, count))],
                _ => (0..count)
                    .map(|k| update((first + k * stride, 1)))
                    .collect(),
            };
            let us: Vec<WireUpdate> = runs.iter().flat_map(each).collect();
            let mut w = FrameWriter::default();
            w.plan_group(2, 4, runs.iter().copied());
            w.begin_group(GroupHead {
                entry: 2,
                endian: Endianness::Big,
                is_ptr: false,
                size: 4,
            });
            us.iter().for_each(|u| w.put_payload(&u.data));
            let batch = w.finish();
            assert_eq!(batch.frame(), &pack_grouped(&us), "{runs:?}");
            assert_eq!(updates_of(&batch), us, "{runs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "previous group's payload")]
    fn frame_writer_refuses_a_group_with_missing_payload() {
        let head = GroupHead {
            entry: 0,
            endian: Endianness::Little,
            is_ptr: false,
            size: 8,
        };
        let mut w = FrameWriter::default();
        w.plan_group(0, 8, [(0, 1, 1)]);
        w.plan_group(0, 8, [(1, 1, 1)]);
        w.begin_group(head);
        w.put_payload(&[0; 4]);
        w.begin_group(head);
    }
}
