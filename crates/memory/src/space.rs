//! The software address space.

use std::collections::BTreeSet;
use std::fmt;

/// Per-page protection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageProt {
    /// Writes fault (the DSM's armed state after a release).
    ReadOnly,
    /// Writes proceed directly (after the first fault, or never armed).
    ReadWrite,
}

/// Counters describing fault activity — the DSM uses these to assert the
/// "one fault per page, subsequent writes go through directly" behaviour
/// the paper relies on to keep signal-handler time minimal (§4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Number of write faults taken (= twins created).
    pub faults: u64,
    /// Bytes copied into twins.
    pub twin_bytes: u64,
    /// Tracked store calls, faulting or not: one per [`AddressSpace::write`]
    /// or [`AddressSpace::slice_mut`], however many bytes it covers — a run
    /// of elements stored through one call counts once.
    pub writes: u64,
}

/// Errors from address-space access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access outside `[base, base+len)`.
    OutOfRange {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "access [{addr:#x}, +{len}) outside address space")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A contiguous simulated memory region with page-granular write protection
/// and twin/diff support.
///
/// Addresses are *simulated virtual addresses*: the region starts at `base`
/// (e.g. `0x40058000`, the base the paper's Table 1 shows) regardless of
/// where the backing `Vec` lives on the host.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    base: u64,
    page_size: usize,
    /// `log2(page_size)`: offset → page is a shift on the store path.
    page_shift: u32,
    data: Vec<u8>,
    prot: Vec<PageProt>,
    /// Whether any page has ever been protected: until then no store can
    /// fault, and the store path reads no page's protection.
    armed: bool,
    twins: Vec<Option<Box<[u8]>>>,
    dirty: BTreeSet<usize>,
    stats: FaultStats,
}

impl AddressSpace {
    /// Create a zero-filled space of at least `len` bytes starting at
    /// simulated address `base`, rounded up to whole pages.
    ///
    /// # Panics
    /// Panics if `page_size` is not a power of two (every MMU's is).
    pub fn new(base: u64, len: usize, page_size: usize) -> AddressSpace {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two, got {page_size}"
        );
        let pages = len.div_ceil(page_size).max(1);
        AddressSpace {
            base,
            page_size,
            page_shift: page_size.trailing_zeros(),
            data: vec![0; pages * page_size],
            prot: vec![PageProt::ReadWrite; pages],
            armed: false,
            twins: vec![None; pages],
            dirty: BTreeSet::new(),
            stats: FaultStats::default(),
        }
    }

    /// Simulated base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total size in bytes (whole pages).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the space has no pages (never happens via [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.prot.len()
    }

    /// Fault statistics so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    #[inline]
    fn offset_of(&self, addr: u64, len: usize) -> Result<usize, MemError> {
        let off = addr
            .checked_sub(self.base)
            .ok_or(MemError::OutOfRange { addr, len })? as usize;
        if off.checked_add(len).is_none_or(|end| end > self.data.len()) {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(off)
    }

    /// Read `len` bytes at simulated address `addr`. Reads never fault —
    /// the DSD propagates updates at acquire time, so the protocol never
    /// needs read traps (paper §4 traps only writes).
    #[inline]
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let off = self.offset_of(addr, len)?;
        Ok(&self.data[off..off + len])
    }

    /// Write `bytes` at `addr` through the protection check: the first
    /// write to a protected page runs the fault handler (twin copy,
    /// unprotect, mark dirty), exactly the paper's SIGSEGV handler.
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }

    /// The destination of one tracked write of `len` bytes at `addr`: every
    /// protected page it touches faults first, then the caller fills the
    /// slice in place (a conversion writes straight into the space instead
    /// of into a buffer [`Self::write`] would copy).
    ///
    /// The store path proper is the range check, the write count and the
    /// slice; a space some page of which was ever armed adds one protection
    /// check per page touched. The handler is out of line.
    #[inline]
    pub fn slice_mut(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemError> {
        let off = self.offset_of(addr, len)?;
        self.stats.writes += 1;
        if self.armed && len > 0 {
            let first = off >> self.page_shift;
            let last = (off + len - 1) >> self.page_shift;
            if self.prot[first..=last].contains(&PageProt::ReadOnly) {
                self.fault_pages(first, last);
            }
        }
        Ok(&mut self.data[off..off + len])
    }

    /// Write bypassing protection (used by the DSM itself when applying
    /// remote updates to the authoritative copy — those must not count as
    /// local modifications).
    pub fn write_untracked(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        self.slice_mut_untracked(addr, bytes.len())?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// [`Self::slice_mut`] bypassing protection, as
    /// [`Self::write_untracked`] does.
    #[inline]
    pub fn slice_mut_untracked(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemError> {
        let off = self.offset_of(addr, len)?;
        Ok(&mut self.data[off..off + len])
    }

    /// Run the fault handler on every protected page of `first..=last`.
    #[cold]
    #[inline(never)]
    fn fault_pages(&mut self, first: usize, last: usize) {
        for page in first..=last {
            if self.prot[page] == PageProt::ReadOnly {
                self.fault(page);
            }
        }
    }

    /// The fault handler: copy the pristine page into a twin, unprotect,
    /// record dirty.
    fn fault(&mut self, page: usize) {
        debug_assert_eq!(self.prot[page], PageProt::ReadOnly);
        let start = page << self.page_shift;
        let twin: Box<[u8]> = self.data[start..start + self.page_size].into();
        self.stats.faults += 1;
        self.stats.twin_bytes += twin.len() as u64;
        self.twins[page] = Some(twin);
        self.prot[page] = PageProt::ReadWrite;
        self.dirty.insert(page);
    }

    /// Write-protect a byte range (page-granular: every page overlapping
    /// the range is armed). This is the DSM's `mprotect(PROT_READ)` at
    /// acquire/re-arm time.
    pub fn protect(&mut self, addr: u64, len: usize) -> Result<(), MemError> {
        if len == 0 {
            return Ok(());
        }
        let off = self.offset_of(addr, len)?;
        let first = off >> self.page_shift;
        let last = (off + len - 1) >> self.page_shift;
        self.prot[first..=last].fill(PageProt::ReadOnly);
        self.armed = true;
        Ok(())
    }

    /// Arm the entire space.
    pub fn protect_all(&mut self) {
        self.prot.fill(PageProt::ReadOnly);
        self.armed = true;
    }

    /// Protection state of the page containing `addr`.
    pub fn prot_at(&self, addr: u64) -> Result<PageProt, MemError> {
        let off = self.offset_of(addr, 1)?;
        Ok(self.prot[off >> self.page_shift])
    }

    /// Indices of dirty pages, ascending.
    pub fn dirty_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty.iter().copied()
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Current contents of a page.
    pub fn page(&self, page: usize) -> &[u8] {
        &self.data[page * self.page_size..(page + 1) * self.page_size]
    }

    /// Twin (pristine copy) of a page, if it faulted since the last reset.
    pub fn twin(&self, page: usize) -> Option<&[u8]> {
        self.twins[page].as_deref()
    }

    /// Simulated address of the first byte of a page.
    pub fn page_addr(&self, page: usize) -> u64 {
        self.base + (page * self.page_size) as u64
    }

    /// Discard all twins and dirty marks and re-arm protection — a page
    /// DSM's state transition after a release has shipped the diffs.
    pub fn reset_and_protect(&mut self) {
        for t in &mut self.twins {
            *t = None;
        }
        self.dirty.clear();
        self.protect_all();
    }

    /// Raw view of the full backing store (tests/benches).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x4005_8000;

    fn space() -> AddressSpace {
        AddressSpace::new(BASE, 10_000, 4096)
    }

    #[test]
    fn rounds_up_to_pages() {
        let s = space();
        assert_eq!(s.len(), 3 * 4096);
        assert_eq!(s.page_count(), 3);
        assert_eq!(s.page_addr(1), BASE + 4096);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = space();
        s.write(BASE + 100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(s.read(BASE + 100, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(s.read(BASE + 104, 2).unwrap(), &[0, 0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = space();
        assert!(s.read(BASE - 1, 1).is_err());
        assert!(s.read(BASE + 3 * 4096, 1).is_err());
        assert!(s.read(BASE + 3 * 4096 - 1, 2).is_err());
        assert!(s.write(u64::MAX, &[0]).is_err());
        // Length overflow must not wrap.
        assert!(s.read(BASE, usize::MAX).is_err());
    }

    #[test]
    fn first_write_to_protected_page_faults_once() {
        let mut s = space();
        s.protect_all();
        assert_eq!(s.stats().faults, 0);
        s.write(BASE + 10, &[9]).unwrap();
        assert_eq!(s.stats().faults, 1);
        assert_eq!(s.dirty_count(), 1);
        assert_eq!(s.prot_at(BASE + 10).unwrap(), PageProt::ReadWrite);
        // Subsequent writes to the same page do not fault again.
        s.write(BASE + 20, &[8]).unwrap();
        s.write(BASE + 30, &[7]).unwrap();
        assert_eq!(s.stats().faults, 1);
    }

    #[test]
    fn twin_captures_pre_write_contents() {
        let mut s = space();
        s.write(BASE, &[1, 2, 3]).unwrap(); // before arming
        s.protect_all();
        s.write(BASE + 1, &[9]).unwrap();
        let twin = s.twin(0).expect("twin exists");
        assert_eq!(&twin[..3], &[1, 2, 3]);
        assert_eq!(s.read(BASE, 3).unwrap(), &[1, 9, 3]);
    }

    #[test]
    fn write_spanning_pages_faults_both() {
        let mut s = space();
        s.protect_all();
        let addr = BASE + 4096 - 2;
        s.write(addr, &[1, 2, 3, 4]).unwrap();
        assert_eq!(s.stats().faults, 2);
        let dirty: Vec<usize> = s.dirty_pages().collect();
        assert_eq!(dirty, vec![0, 1]);
    }

    #[test]
    fn untracked_write_does_not_fault_or_dirty() {
        let mut s = space();
        s.protect_all();
        s.write_untracked(BASE + 5, &[42]).unwrap();
        assert_eq!(s.stats().faults, 0);
        assert_eq!(s.dirty_count(), 0);
        assert_eq!(s.prot_at(BASE + 5).unwrap(), PageProt::ReadOnly);
        assert_eq!(s.read(BASE + 5, 1).unwrap(), &[42]);
    }

    #[test]
    fn reset_and_protect_rearms() {
        let mut s = space();
        s.protect_all();
        s.write(BASE, &[1]).unwrap();
        assert_eq!(s.dirty_count(), 1);
        s.reset_and_protect();
        assert_eq!(s.dirty_count(), 0);
        assert!(s.twin(0).is_none());
        // Writing again faults again.
        s.write(BASE, &[2]).unwrap();
        assert_eq!(s.stats().faults, 2);
    }

    #[test]
    fn protecting_one_page_arms_a_space_stores_have_touched() {
        let mut s = space();
        s.write(BASE + 4096, &[1]).unwrap();
        s.write(BASE + 2 * 4096, &[2]).unwrap();
        assert_eq!(s.stats().faults, 0);
        s.protect(BASE + 4096, 1).unwrap();
        s.write(BASE + 2 * 4096 + 8, &[3]).unwrap();
        assert_eq!(s.stats().faults, 0, "a store to an unarmed page faulted");
        s.write(BASE + 4096 + 8, &[4]).unwrap();
        assert_eq!(
            s.stats().faults,
            1,
            "a store to the armed page did not fault"
        );
        assert_eq!(s.dirty_pages().collect::<Vec<_>>(), [1]);
        assert_eq!(&s.twin(1).unwrap()[..9], &[1, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn partial_protect_only_arms_touched_pages() {
        let mut s = space();
        s.protect(BASE + 4096, 1).unwrap();
        assert_eq!(s.prot_at(BASE).unwrap(), PageProt::ReadWrite);
        assert_eq!(s.prot_at(BASE + 4096).unwrap(), PageProt::ReadOnly);
        assert_eq!(s.prot_at(BASE + 2 * 4096).unwrap(), PageProt::ReadWrite);
    }

    #[test]
    fn sparc_page_size_changes_fault_granularity() {
        let mut s = AddressSpace::new(BASE, 16384, 8192);
        s.protect_all();
        s.write(BASE, &[1]).unwrap();
        s.write(BASE + 8000, &[1]).unwrap(); // same 8K page
        assert_eq!(s.stats().faults, 1);
        s.write(BASE + 8192, &[1]).unwrap(); // next page
        assert_eq!(s.stats().faults, 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn page_size_must_be_a_power_of_two() {
        AddressSpace::new(BASE, 10_000, 3000);
    }

    #[test]
    fn zero_length_write_is_noop() {
        let mut s = space();
        s.protect_all();
        s.write(BASE, &[]).unwrap();
        assert_eq!(s.stats().faults, 0);
    }
}
