//! Wire framing for updates.
//!
//! An update travels as *metadata + tag + raw data*. The metadata (entry
//! index, element offset, sender identity) is framed in fixed network byte
//! order; the **payload stays in the sender's native format** — that is the
//! "receiver makes right" contract. Packing cost is the paper's `t_pack`,
//! unpacking `t_unpack` (Eq. 1); both are deliberately cheap (length-
//! prefixed copies), matching the paper's observation that
//! `t_pack`/`t_unpack` are comparatively small.
//!
//! The grouped v2 frame of run groups is the one batch format, on the
//! wire and in memory: an [`UpdateBatch`] owns the frame, a
//! [`FrameWriter`] writes it straight from the sender's address space,
//! [`unpack_batch`] validates a received one once and keeps it, and the
//! receiver applies from borrowed [`RunGroup`] views of it. Every update
//! is one coalesced scalar or pointer run (`(m,n)(0,0)` / `(m,-n)(0,0)`,
//! paper §4.1), so a group frames element size and pointer flag where a
//! tag string would stand. [`mod@reference`] is the codec over owned
//! updates the tests compare against.

use bytes::{Buf, BufMut, Bytes};
use hdsm_platform::endian::Endianness;
use std::fmt;
use std::sync::OnceLock;

pub mod reference;

/// First word of every batch frame; a buffer that opens with anything
/// else is refused as [`WireError::BadHeader`].
const BATCH_V2_MARKER: u32 = u32::MAX;
/// A v2 frame opens with the marker and its group count.
const FRAME_HEADER_BYTES: usize = 4 + 4;
/// A run group around its sender name, run table and payload: kind,
/// endianness, pointer flag, element size, entry, name length, run count
/// and payload length.
const RUN_GROUP_FIXED_BYTES: usize = 1 + 1 + 1 + 4 + 4 + 1 + 4 + 8;
/// One row of a run table: element offset and element count.
const RUN_BYTES: usize = 8 + 4;

/// Errors from unpacking a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Frame too short for the declared lengths.
    Truncated,
    /// Not a grouped v2 frame, or a header field outside its range.
    BadHeader,
    /// Declared data length disagrees with the run table's byte size.
    LengthMismatch {
        /// Bytes the run table describes (each row a run tag's worth).
        tag_bytes: u64,
        /// Bytes in the frame.
        data_bytes: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadHeader => write!(f, "bad frame header"),
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

fn endian_byte(e: Endianness) -> u8 {
    match e {
        Endianness::Little => 0,
        Endianness::Big => 1,
    }
}

fn endian_of(byte: u8) -> Result<Endianness, WireError> {
    match byte {
        0 => Ok(Endianness::Little),
        1 => Ok(Endianness::Big),
        _ => Err(WireError::BadHeader),
    }
}

/// Split the first `n` bytes off the front of `buf` (which holds them).
fn take<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    head
}

/// What the updates of one run group share, framed once per group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupHead<'a> {
    /// Index-table entry every run of the group targets.
    pub entry: u32,
    /// Byte order of the payload.
    pub endian: Endianness,
    /// Pointer runs (`(m,-n)`) rather than data runs (`(m,n)`).
    pub is_ptr: bool,
    /// Bytes per element on the sender.
    pub size: u32,
    /// Name of the sending platform (diagnostics; at most 255 bytes are
    /// framed).
    pub sender: &'a [u8],
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
    pub head: GroupHead<'a>,
    table: &'a [u8],
    data: &'a [u8],
}

impl<'a> RunGroup<'a> {
    /// The group's updates in frame order — two loads and a slice each.
    pub fn runs(&self) -> impl Iterator<Item = UpdateView<'a>> + 'a {
        let (entry, size, mut data) = (self.head.entry, self.head.size as usize, self.data);
        self.table.chunks_exact(RUN_BYTES).map(move |row| {
            let (offset, count) = row.split_at(8);
            let count = u32::from_be_bytes(count.try_into().expect("4-byte count"));
            let (head, rest) = data.split_at(size * count as usize);
            data = rest;
            UpdateView {
                entry,
                elem_offset: u64::from_be_bytes(offset.try_into().expect("8-byte offset")),
                count: u64::from(count),
                data: head,
            }
        })
    }
}

/// Split the group at the front of `buf` off it, with every check the
/// format has and nothing allocated from a wire-supplied length; also how
/// many updates it holds and their payload bytes. `validated` says the
/// frame passed this once already (it is an [`UpdateBatch`]'s), so the
/// pass over the run table that checks it against the payload length is
/// not made again.
fn split_group<'a>(
    buf: &mut &'a [u8],
    validated: bool,
) -> Result<(RunGroup<'a>, usize, u64), WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    // The kind byte: run groups are kind 0, and the only kind.
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
    let sender = take(buf, name_len);
    let nruns = buf.get_u32() as usize;
    if nruns as u64 * RUN_BYTES as u64 > buf.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    let table = take(buf, nruns * RUN_BYTES);
    let mut want: u64 = 0;
    if !validated {
        for row in table.chunks_exact(RUN_BYTES) {
            let count = u32::from_be_bytes(row[8..].try_into().expect("4-byte count"));
            if count == 0 {
                return Err(WireError::BadHeader);
            }
            want = u64::from(size)
                .checked_mul(u64::from(count))
                .and_then(|b| want.checked_add(b))
                .ok_or(WireError::BadHeader)?;
        }
    }
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let data_len = buf.get_u64();
    if !validated && data_len != want {
        return Err(WireError::LengthMismatch {
            tag_bytes: want,
            data_bytes: data_len,
        });
    }
    if (buf.remaining() as u64) < data_len {
        return Err(WireError::Truncated);
    }
    let data = take(buf, data_len as usize);
    let head = GroupHead {
        entry,
        endian,
        is_ptr,
        size,
        sender,
    };
    Ok((RunGroup { head, table, data }, nruns, data_len))
}

/// A batch of updates: the grouped v2 frame itself, validated once, with
/// its update count and payload bytes. It is what every message, log and
/// snapshot of the DSM carries; cloning shares the frame.
///
/// Consecutive updates sharing (entry, endianness, sender, element size,
/// scalar-vs-pointer) form one *run group* that frames the shared
/// metadata once and then just `(elem_offset, count)` pairs plus a single
/// concatenated payload — SOR's 10 735 one-element updates take 20 framed
/// bytes each, not ~50 — and the receiver parses no tag. Grouping only
/// ever merges **consecutive** updates, so apply order — and therefore
/// last-writer-wins semantics within a batch — is preserved exactly.
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
    /// holds no update and is skipped.
    pub fn groups(&self) -> impl Iterator<Item = RunGroup<'_>> + '_ {
        let mut rest = &self.frame[FRAME_HEADER_BYTES..];
        std::iter::from_fn(move || {
            while !rest.is_empty() {
                match split_group(&mut rest, true).expect("frame checked when the batch was made") {
                    (_, 0, _) => continue,
                    (group, ..) => return Some(group),
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
/// frame says where it ends (a group count, then every group's lengths),
/// so it is split off the front of `buf` and what follows stays there.
pub fn split_batch(buf: &mut Bytes) -> Result<UpdateBatch, WireError> {
    let mut rest: &[u8] = buf;
    if rest.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    if rest.get_u32() != BATCH_V2_MARKER {
        return Err(WireError::BadHeader);
    }
    if rest.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let groups = rest.get_u32();
    if u64::from(groups) * RUN_GROUP_FIXED_BYTES as u64 > rest.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    let (mut updates, mut payload_bytes) = (0, 0);
    for _ in 0..groups {
        let (_, n, bytes) = split_group(&mut rest, false)?;
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

/// Writes a grouped v2 frame group by group into one buffer sized
/// exactly before the first byte is written: the sender sizes the frame
/// from its ranges ([`Self::run_group_bytes`]), then per group writes the
/// header and run table ([`Self::begin_group`]) and appends the payload
/// straight from its address space ([`Self::put_payload`]).
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
    /// Bytes a run group of `runs` runs and `data_len` payload bytes from
    /// `sender` occupies in the frame.
    pub fn run_group_bytes(sender: &[u8], runs: usize, data_len: usize) -> usize {
        RUN_GROUP_FIXED_BYTES + sender.len().min(255) + runs * RUN_BYTES + data_len
    }

    /// A frame of `groups` groups occupying `body_bytes` in all (the sum
    /// of their [`Self::run_group_bytes`]).
    pub fn new(groups: u32, body_bytes: usize) -> FrameWriter {
        let planned = FRAME_HEADER_BYTES + body_bytes;
        let mut out = Vec::with_capacity(planned);
        out.put_u32(BATCH_V2_MARKER);
        out.put_u32(groups);
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
    /// If the previous group's payload is incomplete, a run is empty or
    /// the frame was sized for fewer groups.
    pub fn begin_group(
        &mut self,
        head: GroupHead<'_>,
        runs: impl ExactSizeIterator<Item = (u64, u32)>,
    ) {
        assert_eq!(self.out.len(), self.group_end, "previous group's payload");
        self.groups_left = self.groups_left.checked_sub(1).expect("a group too many");
        let out = &mut self.out;
        out.put_u8(0);
        out.put_u8(endian_byte(head.endian));
        out.put_u8(u8::from(head.is_ptr));
        out.put_u32(head.size);
        out.put_u32(head.entry);
        let sender = &head.sender[..head.sender.len().min(255)];
        out.put_u8(sender.len() as u8);
        out.put_slice(sender);
        out.put_u32(runs.len() as u32);
        self.updates += runs.len();
        let mut data_len: u64 = 0;
        for (elem_offset, count) in runs {
            assert!(count > 0, "empty run");
            out.put_u64(elem_offset);
            out.put_u32(count);
            data_len += u64::from(head.size) * u64::from(count);
        }
        out.put_u64(data_len);
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
            sender: "solaris-sparc".into(),
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
            sender: "linux-x86".into(),
            tag: tag_for_scalar_run(ScalarKind::Ptr, 4, 3),
            data: Bytes::from(vec![7u8; 12]),
        }
    }

    #[test]
    fn empty_batch() {
        let batch = unpack_batch(pack_grouped(&[])).unwrap();
        assert_eq!(batch, UpdateBatch::default());
        assert!(batch.is_empty() && batch.iter().next().is_none());
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
    fn small_runs_of_one_entry_frame_twelve_bytes_each() {
        // The SOR shape: thousands of tiny same-entry updates.
        let us: Vec<WireUpdate> = (0..500)
            .map(|i| WireUpdate {
                elem_offset: i * 7,
                ..sample(3, 2)
            })
            .collect();
        let frame = pack_grouped(&us);
        assert_eq!(updates_of(&unpack_batch(frame.clone()).unwrap()), us);
        let group = FrameWriter::run_group_bytes(b"solaris-sparc", 500, 500 * 8);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + group);
        assert_eq!(
            group - 500 * 8,
            RUN_GROUP_FIXED_BYTES + 13 + 500 * RUN_BYTES
        );
    }

    #[test]
    fn batch_does_not_group_across_sender_or_endian_changes() {
        let mut other = sample(0, 2);
        other.endian = Endianness::Little;
        other.sender = "linux-x86".into();
        let us = vec![sample(0, 2), other, sample(0, 2)];
        let batch = unpack_batch(pack_grouped(&us)).unwrap();
        assert_eq!(batch.groups().count(), 3);
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
    fn detects_table_data_length_mismatch() {
        // One group of 4 four-byte elements: the payload length is the
        // eight bytes before the 16 payload bytes.
        let mut bytes = pack_grouped(&[sample(1, 4)]).to_vec();
        let at = bytes.len() - 16 - 1;
        bytes[at] ^= 8;
        assert_eq!(
            unpack_batch(bytes.into()),
            Err(WireError::LengthMismatch {
                tag_bytes: 16,
                data_bytes: 24
            })
        );
    }

    #[test]
    fn other_batch_formats_and_group_kinds_are_bad_headers() {
        // A count-prefixed batch of the retired v1 format: empty, and one
        // frame (magic 0x0D5D, version 1, tag text, payload).
        let mut v1 = vec![0, 0, 0, 1, 0x0d, 0x5d, 1, 1];
        v1.extend_from_slice(&[0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0]);
        v1.extend_from_slice(&[0, 0, 0, 10]);
        v1.extend_from_slice(b"(4,1)(0,0)");
        v1.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 4, 1, 2, 3, 4]);
        // A group of kind 1 (once: raw v1 frames) in a v2 frame.
        let mut kind1 = pack_grouped(&[sample(0, 1)]).to_vec();
        assert_eq!(kind1[FRAME_HEADER_BYTES], 0);
        kind1[FRAME_HEADER_BYTES] = 1;
        for bytes in [vec![0; 4], v1, kind1] {
            let bytes = Bytes::from(bytes);
            assert_eq!(unpack_batch(bytes.clone()), Err(WireError::BadHeader));
            assert_eq!(unpack_updates(bytes), Err(WireError::BadHeader));
        }
    }

    #[test]
    fn decoder_agrees_with_the_reference_on_every_truncation_and_byte_flip() {
        // Accepted input: the same updates. Rejected input: the same
        // `WireError`, whichever field the damage lands in.
        let us = vec![sample(0, 2), sample(0, 3), pointer_sample(1), sample(1, 1)];
        let full = pack_grouped(&us);
        let agree = |bytes: Bytes, what: &str| {
            let got = unpack_batch(bytes.clone()).map(|b| updates_of(&b));
            assert_eq!(got, unpack_updates(bytes), "{what}");
        };
        for cut in 0..=full.len() {
            agree(full.slice(..cut), &format!("cut at {cut}"));
        }
        for at in 0..full.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bytes = full.to_vec();
                bytes[at] ^= flip;
                agree(Bytes::from(bytes), &format!("byte {at} ^ {flip:#x}"));
            }
        }
    }

    #[test]
    fn frame_writer_writes_the_reference_frame() {
        let us = vec![sample(0, 2), sample(0, 5), sample(3, 1)];
        let head = |entry| GroupHead {
            entry,
            endian: Endianness::Big,
            is_ptr: false,
            size: 4,
            sender: b"solaris-sparc",
        };
        let sizes = [(2, 28), (1, 4)];
        let body = sizes
            .iter()
            .map(|&(runs, len)| FrameWriter::run_group_bytes(b"solaris-sparc", runs, len))
            .sum();
        let mut w = FrameWriter::new(2, body);
        w.begin_group(head(0), [(7, 2), (7, 5)].into_iter());
        w.put_payload(&us[0].data);
        w.put_payload(&us[1].data);
        w.begin_group(head(3), [(7, 1)].into_iter());
        w.put_payload(&us[2].data);
        let batch = w.finish();
        assert_eq!(batch.frame(), &pack_grouped(&us));
        assert_eq!((batch.len(), batch.payload_bytes()), (3, 32));
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
            sender: b"x",
        };
        let mut w = FrameWriter::new(2, 2 * FrameWriter::run_group_bytes(b"x", 1, 8));
        w.begin_group(head, [(0, 1)].into_iter());
        w.put_payload(&[0; 4]);
        w.begin_group(head, [(1, 1)].into_iter());
    }
}
