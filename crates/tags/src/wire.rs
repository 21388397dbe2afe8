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
//! The grouped v2 frame is also the one in-memory form of a batch: an
//! [`UpdateBatch`] owns the frame, a [`FrameWriter`] writes it straight
//! from the sender's address space, [`unpack_batch`] validates a received
//! one once and keeps it, and the receiver applies from borrowed
//! [`Group`] views of it. [`WireUpdate`] is the owned value of one update
//! — the v1 frame's codec, the tests' input and [`mod@reference`]'s output.

use crate::parse::{parse_tag, TagParseError};
use crate::tag::{Tag, TagItem};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hdsm_platform::endian::Endianness;
use std::fmt;
use std::sync::OnceLock;

pub mod reference;

/// Magic bytes guarding every update frame.
const MAGIC: u16 = 0xD5D; // "DSD"
/// Frame format version.
const VERSION: u8 = 1;
/// Sentinel distinguishing a v2 grouped batch from a v1 count-prefixed
/// batch: a v1 batch starts with its update count, which can never be
/// `u32::MAX`, so the two formats are self-describing and [`unpack_batch`]
/// accepts either.
const BATCH_V2_MARKER: u32 = u32::MAX;
/// A v2 frame opens with the marker and its group count.
const FRAME_HEADER_BYTES: usize = 4 + 4;
/// A run group around its sender name, run table and payload: kind,
/// endianness, pointer flag, element size, entry, name length, run count
/// and payload length.
const RUN_GROUP_FIXED_BYTES: usize = 1 + 1 + 1 + 4 + 4 + 1 + 4 + 8;
/// One row of a run table: element offset and element count.
const RUN_BYTES: usize = 8 + 4;

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
    out.put_u8(endian_byte(u.endian));
    out.put_u32(u.entry);
    out.put_u64(u.elem_offset);
    out.put_u8(u.sender.len().min(255) as u8);
    out.put_slice(&u.sender.as_bytes()[..u.sender.len().min(255)]);
    out.put_u32(tag_str.len() as u32);
    out.put_slice(tag_str.as_bytes());
    out.put_u64(u.data.len() as u64);
    out.put_slice(&u.data);
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

/// Fewest bytes a v1 frame occupies: fixed header, empty sender, empty
/// tag, empty payload.
const MIN_FRAME_BYTES: usize = (2 + 1 + 1 + 4 + 8 + 1) + 4 + 8;

/// Split the first `n` bytes off the front of `buf` (which holds them).
fn take<'a>(buf: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    head
}

/// One v1 frame split into its fields, name and payload still borrowed
/// from the buffer: what a raw group of a batch holds.
#[derive(Debug, Clone, PartialEq)]
pub struct RawUpdate<'a> {
    /// Index-table entry the update targets.
    pub entry: u32,
    /// First element within the entry.
    pub elem_offset: u64,
    /// Byte order of `data`.
    pub endian: Endianness,
    /// Name of the sending platform, as framed.
    pub sender: &'a [u8],
    /// CGT-RMR tag describing `data` (any shape).
    pub tag: Tag,
    /// Raw bytes in the sender's native format.
    pub data: &'a [u8],
}

impl RawUpdate<'_> {
    fn into_update(self, data: Bytes) -> WireUpdate {
        WireUpdate {
            entry: self.entry,
            elem_offset: self.elem_offset,
            endian: self.endian,
            sender: String::from_utf8_lossy(self.sender).into_owned(),
            tag: self.tag,
            data,
        }
    }
}

/// Split one v1 frame off the front of `buf`, advancing it: every check
/// the format has, nothing copied but the parsed tag.
fn split_update<'a>(buf: &mut &'a [u8]) -> Result<RawUpdate<'a>, WireError> {
    if buf.remaining() < 2 + 1 + 1 + 4 + 8 + 1 {
        return Err(WireError::Truncated);
    }
    if buf.get_u16() != MAGIC {
        return Err(WireError::BadHeader);
    }
    if buf.get_u8() != VERSION {
        return Err(WireError::BadHeader);
    }
    let endian = endian_of(buf.get_u8())?;
    let entry = buf.get_u32();
    let elem_offset = buf.get_u64();
    let name_len = buf.get_u8() as usize;
    if buf.remaining() < name_len + 4 {
        return Err(WireError::Truncated);
    }
    let sender = take(buf, name_len);
    let tag_len = buf.get_u32() as usize;
    if buf.remaining() < tag_len + 8 {
        return Err(WireError::Truncated);
    }
    let tag_bytes = take(buf, tag_len);
    if !tag_bytes.is_ascii() {
        return Err(WireError::NonAsciiTag);
    }
    let tag_str = std::str::from_utf8(tag_bytes).map_err(|_| WireError::NonAsciiTag)?;
    let tag = parse_tag(tag_str).map_err(WireError::BadTag)?;
    let data_len = buf.get_u64();
    if (buf.remaining() as u64) < data_len {
        return Err(WireError::Truncated);
    }
    let data = take(buf, data_len as usize);
    if tag.byte_size() != data_len {
        return Err(WireError::LengthMismatch {
            tag_bytes: tag.byte_size(),
            data_bytes: data_len,
        });
    }
    Ok(RawUpdate {
        entry,
        elem_offset,
        endian,
        sender,
        tag,
        data,
    })
}

/// Unpack one update from the front of `buf`, advancing it. The payload
/// is a shared slice of `buf`, not a copy.
pub fn unpack_update(buf: &mut Bytes) -> Result<WireUpdate, WireError> {
    let mut rest: &[u8] = buf;
    let raw = split_update(&mut rest)?;
    let end = buf.len() - rest.len();
    let data = buf.slice(end - raw.data.len()..end);
    let update = raw.into_update(data);
    buf.advance(end);
    Ok(update)
}

/// Pack a batch in the v1 format (count-prefixed frames). Nothing in the
/// DSM ships this any more — the grouped frame a [`FrameWriter`] writes is
/// the wire format — but it stays as the reference the property tests
/// compare against and as the producer of the v1 input [`unpack_batch`]
/// must keep accepting.
pub fn pack_batch(updates: &[WireUpdate]) -> Bytes {
    let mut out =
        BytesMut::with_capacity(16 + updates.iter().map(|u| 64 + u.data.len()).sum::<usize>());
    out.put_u32(updates.len() as u32);
    for u in updates {
        pack_update(u, &mut out);
    }
    out.freeze()
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

/// A raw group of a batch: v1 frames, whose tags need not be run-shaped.
/// No DSM sender produces one; a v1 batch is kept as one.
#[derive(Debug, Clone, Copy)]
pub struct RawGroup<'a> {
    frames: &'a [u8],
}

impl<'a> RawGroup<'a> {
    /// The group's updates in frame order, each parsed again (tag
    /// included) — the cold path.
    pub fn updates(&self) -> impl Iterator<Item = RawUpdate<'a>> + 'a {
        let mut rest = self.frames;
        std::iter::from_fn(move || {
            (!rest.is_empty())
                .then(|| split_update(&mut rest).expect("frame checked when the batch was made"))
        })
    }
}

/// One group of a batch, borrowed from its frame.
#[derive(Debug, Clone, Copy)]
pub enum Group<'a> {
    /// Run-shaped updates behind one shared header.
    Runs(RunGroup<'a>),
    /// v1 frames.
    Raw(RawGroup<'a>),
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
) -> Result<(Group<'a>, usize, u64), WireError> {
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
            Ok((Group::Runs(RunGroup { head, table, data }), nruns, data_len))
        }
        1 => {
            if buf.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let n = buf.get_u32() as usize;
            let frames = *buf;
            let mut data_len = 0;
            for _ in 0..n {
                data_len += split_update(buf)?.data.len() as u64;
            }
            let frames = &frames[..frames.len() - buf.len()];
            Ok((Group::Raw(RawGroup { frames }), n, data_len))
        }
        _ => Err(WireError::BadHeader),
    }
}

/// A batch of updates: the grouped v2 frame itself, validated once, with
/// its update count and payload bytes. It is what every message, log and
/// snapshot of the DSM carries; cloning shares the frame.
///
/// Consecutive updates sharing (entry, endianness, sender, element size,
/// scalar-vs-pointer) and a run-shaped tag form one *run group* that
/// frames the shared metadata once and then just `(elem_offset, count)`
/// pairs plus a single concatenated payload — SOR's 10 735 one-element
/// updates take 20 framed bytes each, not ~50 — and the receiver needs no
/// per-update tag parse. Updates whose tags are not run-shaped travel in
/// a *raw group* of v1 frames. Grouping only ever merges **consecutive**
/// updates, so apply order — and therefore last-writer-wins semantics
/// within a batch — is preserved exactly.
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
    pub fn groups(&self) -> impl Iterator<Item = Group<'_>> + '_ {
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
        self.groups().flat_map(|group| {
            let (runs, raw) = match group {
                Group::Runs(g) => (Some(g.runs()), None),
                Group::Raw(g) => (None, Some(g.updates())),
            };
            let raw = raw.into_iter().flatten().map(|u| UpdateView {
                entry: u.entry,
                elem_offset: u.elem_offset,
                count: u.tag.element_count(),
                data: u.data,
            });
            runs.into_iter().flatten().chain(raw)
        })
    }
}

/// The frame of a batch. (The name is from when packing was a pass over
/// materialised updates; `benchmark/`, frozen between benchmark PRs, and
/// `tests/differential.rs` call it.)
pub fn pack_batch_fast(batch: &UpdateBatch) -> Bytes {
    batch.frame.clone()
}

/// Validate a received batch — a grouped v2 frame or a v1 batch, the
/// leading word tells which — and keep it. A v2 frame is kept as the
/// zero-copy slice it arrived in; a v1 batch is copied once, whole, into a
/// frame of one raw group. Every length is checked against what the
/// buffer holds before it is used, and nothing is allocated from one.
pub fn unpack_batch(buf: Bytes) -> Result<UpdateBatch, WireError> {
    let mut rest: &[u8] = &buf;
    if rest.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = rest.get_u32();
    if n != BATCH_V2_MARKER {
        return unpack_batch_v1(n, rest);
    }
    if rest.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let groups = rest.get_u32();
    // The smallest group is a raw group: kind byte + frame count.
    if u64::from(groups) * (1 + 4) > rest.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    let (mut updates, mut payload_bytes) = (0, 0);
    for _ in 0..groups {
        let (_, n, bytes) = split_group(&mut rest, false)?;
        updates += n;
        payload_bytes += bytes;
    }
    if rest.has_remaining() {
        return Err(WireError::BadHeader);
    }
    Ok(UpdateBatch {
        frame: buf,
        updates,
        payload_bytes,
    })
}

/// The cold half of [`unpack_batch`]: `n` v1 frames, re-framed as they
/// are into one raw group.
fn unpack_batch_v1(n: u32, frames: &[u8]) -> Result<UpdateBatch, WireError> {
    if u64::from(n) * MIN_FRAME_BYTES as u64 > frames.len() as u64 {
        return Err(WireError::Truncated);
    }
    let mut rest = frames;
    let mut payload_bytes = 0;
    for _ in 0..n {
        payload_bytes += split_update(&mut rest)?.data.len() as u64;
    }
    if rest.has_remaining() {
        return Err(WireError::BadHeader);
    }
    if n == 0 {
        return Ok(UpdateBatch::default());
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + 1 + 4 + frames.len());
    frame.put_u32(BATCH_V2_MARKER);
    frame.put_u32(1);
    frame.put_u8(1);
    frame.put_u32(n);
    frame.put_slice(frames);
    Ok(UpdateBatch {
        frame: frame.into(),
        updates: n as usize,
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
    use super::reference::{pack_grouped, unpack_updates, updates_of};
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
        assert_eq!(updates_of(&back), us);
    }

    #[test]
    fn empty_batch() {
        for empty in [pack_batch(&[]), pack_grouped(&[])] {
            let batch = unpack_batch(empty).unwrap();
            assert_eq!(batch, UpdateBatch::default());
            assert!(batch.is_empty() && batch.iter().next().is_none());
        }
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
        let batch = unpack_batch(pack_grouped(&us)).unwrap();
        assert_eq!(updates_of(&batch), us);
        // The flat walk covers raw-group updates too, and the counts the
        // batch carries are the walk's.
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
    fn fast_batch_of_single_run_and_single_raw_update() {
        let us = vec![sample(4, 9)];
        assert_eq!(updates_of(&unpack_batch(pack_grouped(&us)).unwrap()), us);
        let us = vec![aggregate_sample(0)];
        assert_eq!(updates_of(&unpack_batch(pack_grouped(&us)).unwrap()), us);
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
        let v2 = pack_grouped(&us);
        assert_eq!(updates_of(&unpack_batch(v2.clone()).unwrap()), us);
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
        let batch = unpack_batch(pack_grouped(&us)).unwrap();
        assert_eq!(batch.groups().count(), 3);
        assert_eq!(updates_of(&batch), us);
    }

    #[test]
    fn fast_batch_detects_truncation_everywhere() {
        let us = vec![sample(0, 2), sample(0, 3), aggregate_sample(1)];
        let full = pack_grouped(&us);
        for cut in 0..full.len() {
            assert!(
                unpack_batch(full.slice(..cut)).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn fast_batch_rejects_trailing_garbage() {
        let packed = pack_grouped(&[sample(0, 1)]);
        let mut with_garbage = BytesMut::from(&packed[..]);
        with_garbage.put_u8(9);
        assert!(unpack_batch(with_garbage.freeze()).is_err());
    }

    #[test]
    fn v1_batches_still_decode() {
        // Mixed-version clusters: a v1 producer must stay readable.
        let us = vec![sample(0, 1), aggregate_sample(2), sample(1, 100)];
        let batch = unpack_batch(pack_batch(&us)).unwrap();
        assert_eq!(updates_of(&batch), us);
        assert_eq!((batch.len(), batch.payload_bytes()), (3, 4 + 12 + 400));
        // Kept as one raw group of the frames as they came; what is
        // stored is itself a frame both decoders read.
        assert!(matches!(
            batch.groups().collect::<Vec<_>>()[..],
            [Group::Raw(_)]
        ));
        assert_eq!(unpack_updates(batch.frame().clone()).unwrap(), us);
    }

    #[test]
    fn decoder_agrees_with_the_reference_on_every_truncation_and_byte_flip() {
        // Accepted input: the same updates. Rejected input: the same
        // `WireError`, whichever field the damage lands in.
        let us = vec![
            sample(0, 2),
            sample(0, 3),
            aggregate_sample(1),
            sample(1, 1),
        ];
        for full in [pack_grouped(&us), pack_batch(&us)] {
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
