#![warn(missing_docs)]

//! MigThread: application-level heterogeneous thread migration.
//!
//! Paper §3: thread states (global data segment, stack, heap, registers)
//! are "extracted from their original locations … and abstracted up to the
//! application level", turning the physical state into a logical,
//! platform-independent form. The original system uses a source-to-source
//! preprocessor that collects a thread's variables into `MThV`/`MThP`
//! structures; here a computation declares its state explicitly:
//!
//! * [`state::TypedBlock`] — one structure of live data, held in the *native
//!   byte representation* of the platform the thread currently runs on;
//! * [`state::ThreadState`] — the full logical thread state: named blocks
//!   (`MThV`, `MThP`, stack frames, heap objects) plus a resume point (the
//!   logical program counter, valid at adaptation points only);
//! * [`packfmt`] — the portable migration image: CGT-RMR tags + raw bytes
//!   per block, convertible on the receiving platform ("receiver makes
//!   right");
//! * [`compute::Computation`] — the resumable-computation contract that
//!   replaces preprocessor-instrumented C functions.
//!
//! Who migrates where, and when, is decided outside this crate:
//! `hdsm_core::placement::plan_thread_moves` plans moves, and
//! `hdsm_core::cluster::run_migrating` steps a [`Computation`] as one
//! worker's body and carries out that worker's moves.

pub mod compute;
pub mod packfmt;
pub mod state;

pub use compute::{Computation, ProgramRegistry, StepStatus};
pub use packfmt::{pack_state, unpack_state, MigrateError, StateImage};
pub use state::{NamedBlock, ThreadState, TypedBlock};
