//! Offline stand-in for the `bytes` crate.
//!
//! The container this repo builds in has no crates.io access, so the
//! workspace vendors a minimal, behaviour-compatible subset of the `bytes`
//! API: [`Bytes`] (cheaply cloneable, sliceable, immutable buffer),
//! [`BytesMut`] (growable builder), and the [`Buf`]/[`BufMut`] cursor
//! traits. Only the operations the hdsm crates actually use are provided.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Internally a reference-counted `Vec<u8>` plus a window; `clone` and
/// [`Bytes::slice`] are O(1) and share the underlying allocation. The
/// [`Buf`] impl consumes from the front of the window.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static byte slice (copies here; the real crate borrows).
    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::from(b.to_vec())
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        Bytes::from(b.to_vec())
    }

    /// Length of the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) sub-slice sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off the tail at `at`, leaving `self` with the head.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// Split off the head up to `at`, leaving `self` with the tail.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copy out to a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        Bytes::from(b.buf)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for e in std::ascii::escape_default(b) {
                write!(f, "{}", e as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer used to build messages.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserve additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> BytesMut {
        BytesMut { buf: v.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", &self.buf)
    }
}

macro_rules! get_impl {
    ($this:expr, $ty:ty, $n:expr, from_be_bytes) => {{
        let mut a = [0u8; $n];
        $this.copy_to_slice(&mut a);
        <$ty>::from_be_bytes(a)
    }};
    ($this:expr, $ty:ty, $n:expr, from_le_bytes) => {{
        let mut a = [0u8; $n];
        $this.copy_to_slice(&mut a);
        <$ty>::from_le_bytes(a)
    }};
}

/// Read cursor over a byte source; all multi-byte reads advance the cursor
/// and panic (like the real crate) when the source is too short — callers
/// are expected to check [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Advance the cursor.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copy bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Copy `len` bytes out into a new `Bytes`, advancing.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut v = vec![0u8; len];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        get_impl!(self, u8, 1, from_be_bytes)
    }
    /// Read a big-endian u16.
    fn get_u16(&mut self) -> u16 {
        get_impl!(self, u16, 2, from_be_bytes)
    }
    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        get_impl!(self, u16, 2, from_le_bytes)
    }
    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        get_impl!(self, u32, 4, from_be_bytes)
    }
    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        get_impl!(self, u32, 4, from_le_bytes)
    }
    /// Read a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        get_impl!(self, u64, 8, from_be_bytes)
    }
    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        get_impl!(self, u64, 8, from_le_bytes)
    }
    /// Read a big-endian i32.
    fn get_i32(&mut self) -> i32 {
        get_impl!(self, i32, 4, from_be_bytes)
    }
    /// Read a big-endian i64.
    fn get_i64(&mut self) -> i64 {
        get_impl!(self, i64, 8, from_be_bytes)
    }
}

// The cursor of every wire decoder: three-line methods of a non-generic
// impl, which without the attribute are calls across the crate boundary
// (no LTO here) — two or three of them per integer read.
impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
    /// O(1), like the real crate: the head is a shared slice of the same
    /// allocation, not a copy.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor appending to a growable buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a big-endian i32.
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian i64.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut m = BytesMut::new();
        m.put_u32(0xdeadbeef);
        m.put_u8(7);
        m.put_u64(42);
        m.put_u32_le(0x01020304);
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 17);
        assert_eq!(b.get_u32(), 0xdeadbeef);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u64(), 42);
        assert_eq!(b.get_u32_le(), 0x01020304);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slices_share_and_window() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut t = s.clone();
        t.advance(1);
        assert_eq!(&t[..], &[3, 4]);
        assert_eq!(&s[..], &[2, 3, 4], "clone unaffected");
    }

    #[test]
    fn copy_to_bytes_on_bytes_shares_the_allocation_and_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        b.advance(1);
        let head = b.copy_to_bytes(3);
        assert_eq!(&head[..], &[2, 3, 4]);
        assert_eq!(&b[..], &[5], "cursor advanced past the head");
        assert!(Arc::ptr_eq(&head.data, &b.data), "head is a copy");
        // The trait default (any other `Buf`) still copies.
        let mut s: &[u8] = &[7, 8, 9];
        assert_eq!(&s.copy_to_bytes(2)[..], &[7, 8]);
        assert_eq!(s, &[9]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn copy_to_bytes_underflow_panics() {
        Bytes::from(vec![1, 2]).copy_to_bytes(3);
    }

    #[test]
    fn split_to_and_off() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4]);
    }
}
