#![warn(missing_docs)]

//! Simulated paged virtual memory with write detection.
//!
//! A traditional DSM (paper §4) installs a SIGSEGV handler, `mprotect()`s
//! the shared region, and on the first write to a page copies the pristine
//! page (the *twin*), unprotects the page and lets the write continue;
//! at release time each dirty page is compared byte-by-byte against its
//! twin to produce a *diff*.
//!
//! This crate reproduces that machinery in a software [`AddressSpace`]:
//! the write accessor checks a per-page protection bit and runs the exact
//! fault-handler logic (twin copy → unprotect → record dirty → proceed).
//! The observable artefacts — one fault per page, twins, dirty sets,
//! byte-run diffs — are identical to the `mprotect` implementation; only
//! the trap delivery differs (a branch instead of a hardware fault), which
//! is also what lets a node simulate a *different page size* than the
//! host's (the paper's SPARC nodes have 8 KiB pages, x86 nodes 4 KiB).
//!
//! The DSD client does not arm it: its store accessors record what they
//! write, so twins and diffs serve the page-DSM baseline and, as the
//! oracle the recorded write set is tested against, the DSD's tests.

pub mod diff;
pub mod space;

pub use diff::{diff_pages, DiffRun};
pub use space::{AddressSpace, FaultStats, MemError, PageProt};
