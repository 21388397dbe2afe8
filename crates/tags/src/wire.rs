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
//! group = shape u8 | entry | runs | (offset, count)* | payload
//! shape = size (bits 0–4, 1..=31) | pointer (bit 5) | big-endian (bit 6)
//! ```
//!
//! Every other integer is a varint. Nothing the receiver can work out is
//! framed: a group's payload is `size × Σcount` bytes. The shape byte
//! keeps each frame self-describing, so a receiver needs no table of its
//! senders' platforms. [`mod@reference`] is the codec over owned updates
//! the tests compare against.

use bytes::{Buf, BufMut, Bytes};
use hdsm_platform::endian::Endianness;
use std::fmt;
use std::sync::OnceLock;

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

/// Bytes of the run table of `runs` rows that opens `buf`: up to its
/// `2 × runs`-th byte without a continuation bit, counted eight bytes at
/// a time while that many varints are left.
fn table_len(buf: &[u8], runs: usize) -> usize {
    let (mut ends, mut at) = (2 * runs, 0);
    while ends >= 8 {
        let word = u64::from_le_bytes(buf[at..at + 8].try_into().expect("eight bytes"));
        ends -= (!word & 0x8080_8080_8080_8080).count_ones() as usize;
        at += 8;
    }
    while ends > 0 {
        ends -= usize::from(buf[at] < 0x80);
        at += 1;
    }
    at
}

/// Split the first `n` bytes off the front of `buf` (which holds them).
fn take<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    head
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

    /// Read a shape byte and an entry off the front of `buf`: a shape
    /// with its reserved bit set or a size of 0 is refused.
    fn take(buf: &mut &[u8]) -> Result<GroupHead, WireError> {
        if buf.is_empty() {
            return Err(WireError::Truncated);
        }
        let shape = buf.get_u8();
        let size = u32::from(shape & 0x1f);
        if shape & 0x80 != 0 || size == 0 {
            return Err(WireError::BadHeader);
        }
        let endian = [Endianness::Little, Endianness::Big][usize::from(shape >> 6 & 1)];
        let (entry, is_ptr) = (varint::get32(buf)?, shape & 0x20 != 0);
        Ok(GroupHead {
            entry,
            endian,
            is_ptr,
            size,
        })
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

/// A run group of a batch: consecutive updates sharing a [`GroupHead`],
/// framed as `(elem_offset, count)` rows and one concatenated payload.
#[derive(Debug, Clone, Copy)]
pub struct RunGroup<'a> {
    /// What every run shares.
    pub head: GroupHead,
    table: &'a [u8],
    data: &'a [u8],
}

/// The `(elem_offset, count)` rows of a checked run table.
fn rows(mut table: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    std::iter::from_fn(move || {
        (!table.is_empty()).then(|| (varint::read(&mut table), varint::read(&mut table)))
    })
}

impl<'a> RunGroup<'a> {
    /// The group's updates in frame order — two varints and a slice each.
    pub fn runs(&self) -> impl Iterator<Item = UpdateView<'a>> + 'a {
        let (entry, size, mut data) = (self.head.entry, self.head.size as usize, self.data);
        rows(self.table).map(move |(elem_offset, count)| {
            let (head, rest) = data.split_at(size * count as usize);
            data = rest;
            UpdateView {
                entry,
                elem_offset,
                count,
                data: head,
            }
        })
    }
}

/// Split the group at the front of `buf` off it, with every check the
/// format has and nothing allocated from a wire-supplied length: how many
/// updates it holds and their payload bytes.
fn split_group(buf: &mut &[u8]) -> Result<(usize, u64), WireError> {
    let head = GroupHead::take(buf)?;
    let nruns = varint::get32(buf)? as usize;
    // A row is at least two one-byte varints.
    if nruns as u64 * 2 > buf.len() as u64 {
        return Err(WireError::Truncated);
    }
    let (mut rest, mut elems) = (*buf, 0u64);
    for _ in 0..nruns {
        varint::get(&mut rest, u64::MAX)?;
        let count = varint::get32(&mut rest)?;
        if count == 0 {
            return Err(WireError::BadHeader);
        }
        // At most `u32::MAX` counts of at most `u32::MAX` each.
        elems += u64::from(count);
    }
    let data_len = elems
        .checked_mul(head.size.into())
        .ok_or(WireError::BadHeader)?;
    if (rest.len() as u64) < data_len {
        return Err(WireError::Truncated);
    }
    *buf = &rest[data_len as usize..];
    Ok((nruns, data_len))
}

/// A batch of updates: the grouped frame itself, validated once, with its
/// update count and payload bytes. It is what every message, log and
/// snapshot of the DSM carries; cloning shares the frame.
///
/// Consecutive updates sharing (entry, endianness, element size,
/// scalar-vs-pointer) form one *run group* that frames the shared
/// metadata once and then just `(elem_offset, count)` varint pairs plus a
/// single concatenated payload — SOR's 10 735 one-element updates take
/// three or four framed bytes each — and the receiver parses no tag.
/// Grouping only ever merges **consecutive** updates, so apply order —
/// and therefore last-writer-wins semantics within a batch — is preserved
/// exactly.
#[derive(Clone, PartialEq)]
pub struct UpdateBatch {
    frame: Bytes,
    updates: usize,
    payload_bytes: u64,
}

impl Default for UpdateBatch {
    /// The empty batch; every empty batch shares one frame.
    fn default() -> UpdateBatch {
        static EMPTY: OnceLock<UpdateBatch> = OnceLock::new();
        EMPTY
            .get_or_init(|| FrameWriter::new(0, 0).finish())
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

    /// The groups in frame order, borrowed. A run group without runs
    /// holds no update and is skipped. The frame was checked when the
    /// batch was made, so a run table is stepped over by its last bytes
    /// alone (`table_len`), and only a group before the last sums its
    /// counts to find where its payload ends.
    pub fn groups(&self) -> impl Iterator<Item = RunGroup<'_>> + '_ {
        const CHECKED: &str = "frame checked when the batch was made";
        let mut rest = &self.frame[1..];
        let mut left = varint::get32(&mut rest).expect(CHECKED);
        std::iter::from_fn(move || {
            while left > 0 {
                left -= 1;
                let head = GroupHead::take(&mut rest).expect(CHECKED);
                let nruns = varint::get32(&mut rest).expect(CHECKED) as usize;
                let len = table_len(rest, nruns);
                let table = take(&mut rest, len);
                let data_len = match left {
                    0 => rest.len(),
                    _ => rows(table)
                        .map(|(_, n)| n as usize * head.size as usize)
                        .sum(),
                };
                let data = take(&mut rest, data_len);
                if nruns > 0 {
                    return Some(RunGroup { head, table, data });
                }
            }
            None
        })
    }

    /// Every update in frame order, borrowed.
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
    let mut rest: &[u8] = buf;
    if rest.is_empty() {
        return Err(WireError::Truncated);
    }
    if rest.get_u8() != BATCH_MARKER {
        return Err(WireError::BadHeader);
    }
    let groups = varint::get32(&mut rest)?;
    // A group is at least its shape byte and two one-byte varints.
    if u64::from(groups) * 3 > rest.len() as u64 {
        return Err(WireError::Truncated);
    }
    let (mut updates, mut payload_bytes) = (0, 0);
    for _ in 0..groups {
        let (n, bytes) = split_group(&mut rest)?;
        updates += n;
        payload_bytes += bytes;
    }
    let frame_len = buf.len() - rest.len();
    Ok(UpdateBatch {
        frame: buf.split_to(frame_len),
        updates,
        payload_bytes,
    })
}

/// Writes a grouped frame group by group into one buffer sized exactly
/// before the first byte is written: the sender sizes the frame from its
/// ranges ([`Self::run_group_bytes`]), then per group writes the header
/// and run table ([`Self::begin_group`]) and appends the payload straight
/// from its address space ([`Self::put_payload`]).
pub struct FrameWriter {
    out: Vec<u8>,
    /// Groups the header announced and `begin_group` has not yet opened.
    groups_left: u32,
    /// `out.len()` once the open group's payload is complete.
    group_end: usize,
    planned: usize,
    updates: usize,
    payload_bytes: u64,
}

impl FrameWriter {
    /// Bytes a run group of `entry` with elements of `size` bytes and the
    /// `(elem_offset, count)` rows `runs` occupies in the frame, payload
    /// included.
    pub fn run_group_bytes(
        entry: u32,
        size: u32,
        runs: impl ExactSizeIterator<Item = (u64, u32)>,
    ) -> usize {
        let head = 1 + varint::len(entry.into()) + varint::len(runs.len() as u64);
        runs.fold(head, |n, (offset, count)| {
            n + varint::len(offset) + varint::len(count.into()) + size as usize * count as usize
        })
    }

    /// A frame of `groups` groups occupying `body_bytes` in all (the sum
    /// of their [`Self::run_group_bytes`]).
    pub fn new(groups: u32, body_bytes: usize) -> FrameWriter {
        let planned = 1 + varint::len(groups.into()) + body_bytes;
        let mut out = Vec::with_capacity(planned);
        out.put_u8(BATCH_MARKER);
        varint::put(&mut out, groups.into());
        FrameWriter {
            groups_left: groups,
            group_end: out.len(),
            out,
            planned,
            updates: 0,
            payload_bytes: 0,
        }
    }

    /// Open the next run group: its header and its `(elem_offset, count)`
    /// table. The payload of the runs, `head.size * count` bytes each in
    /// the same order, must follow through [`Self::put_payload`].
    ///
    /// # Panics
    /// If the previous group's payload is incomplete, a run is empty, the
    /// element size is not 1 to 31 or the frame was sized for fewer
    /// groups.
    pub fn begin_group(
        &mut self,
        head: GroupHead,
        runs: impl ExactSizeIterator<Item = (u64, u32)>,
    ) {
        assert_eq!(self.out.len(), self.group_end, "previous group's payload");
        self.groups_left = self.groups_left.checked_sub(1).expect("a group too many");
        let out = &mut self.out;
        out.put_u8(head.shape());
        varint::put(out, head.entry.into());
        varint::put(out, runs.len() as u64);
        self.updates += runs.len();
        let mut data_len: u64 = 0;
        for (elem_offset, count) in runs {
            assert!(count > 0, "empty run");
            varint::put(out, elem_offset);
            varint::put(out, count.into());
            data_len += u64::from(head.size) * u64::from(count);
        }
        self.payload_bytes += data_len;
        self.group_end = out.len() + data_len as usize;
    }

    /// Append payload bytes of the open group.
    pub fn put_payload(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// The finished batch.
    ///
    /// # Panics
    /// If the frame is not exactly what [`Self::new`] and
    /// [`Self::begin_group`] were told it would be.
    pub fn finish(self) -> UpdateBatch {
        assert_eq!(self.out.len(), self.group_end, "last group's payload");
        assert_eq!(self.groups_left, 0, "groups announced but not written");
        assert_eq!(
            self.out.len(),
            self.planned,
            "frame was sized for its groups"
        );
        UpdateBatch {
            frame: self.out.into(),
            updates: self.updates,
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
        assert!(batch.is_empty() && batch.iter().next().is_none());
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
            .iter()
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
        let runs = (0..500u32).map(|i| (u64::from(i) * 7, 2));
        let group = FrameWriter::run_group_bytes(3, 4, runs);
        assert_eq!(frame.len(), 2 + group);
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
        // A shape with its reserved bit set, and one of size 0.
        let one = pack_grouped(&[sample(0, 1)]).to_vec();
        assert_eq!(one[2], 0x44);
        let shaped = |shape: u8| {
            let mut b = one.clone();
            b[2] = shape;
            b
        };
        for bytes in [vec![0; 4], v1, v2, shaped(0xc4), shaped(0x40), shaped(0x60)] {
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

    #[test]
    fn decoder_agrees_with_the_reference_on_every_truncation_and_byte_flip() {
        // Accepted input: the same updates. Rejected input: the same
        // `WireError`, whichever field the damage lands in.
        let us = vec![
            sample(0, 2),
            sample(0, 3),
            pointer_sample(1),
            wide_sample(),
            sample(1, 1),
        ];
        let full = pack_grouped(&us);
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

    #[test]
    fn frame_writer_writes_the_reference_frame() {
        let us = vec![sample(0, 2), sample(0, 5), wide_sample()];
        let head = |entry| GroupHead {
            entry,
            endian: Endianness::Big,
            is_ptr: false,
            size: 4,
        };
        let wide = ((1 << 21) + 5, 130);
        let body = FrameWriter::run_group_bytes(0, 4, [(7, 2), (7, 5)].into_iter())
            + FrameWriter::run_group_bytes(300, 4, [wide].into_iter());
        let mut w = FrameWriter::new(2, body);
        w.begin_group(head(0), [(7, 2), (7, 5)].into_iter());
        w.put_payload(&us[0].data);
        w.put_payload(&us[1].data);
        w.begin_group(head(300), [wide].into_iter());
        w.put_payload(&us[2].data);
        let batch = w.finish();
        assert_eq!(batch.frame(), &pack_grouped(&us));
        assert_eq!((batch.len(), batch.payload_bytes()), (3, 28 + 520));
        assert_eq!(batch, unpack_batch(batch.frame().clone()).unwrap());
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
        let group = FrameWriter::run_group_bytes(0, 8, [(0, 1)].into_iter());
        let mut w = FrameWriter::new(2, 2 * group);
        w.begin_group(head, [(0, 1)].into_iter());
        w.put_payload(&[0; 4]);
        w.begin_group(head, [(1, 1)].into_iter());
    }
}
