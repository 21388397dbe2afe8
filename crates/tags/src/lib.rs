#![warn(missing_docs)]

//! CGT-RMR: Coarse-Grain Tagged "Receiver Makes Right" data conversion.
//!
//! This crate implements the data-conversion scheme of paper §3.2:
//!
//! * **Tags** describe the physical layout of a block of data as a sequence
//!   of `(m,n)` tuples — scalars `(m,n)`, pointers `(m,-n)`, padding slots
//!   `(m,0)` (with `(0,0)` meaning "no padding"), and recursively nested
//!   aggregates `((…)(…),n)`. The textual form is exactly the paper's
//!   (Figure 3 is reproduced verbatim by a unit test).
//! * **Generation** derives a tag from a C type laid out on a concrete
//!   platform (the role of the MigThread preprocessor's `sprintf()` glue).
//! * **Conversion** is receiver-side: the sender ships raw bytes in its own
//!   native format plus the tag; the receiver compares tags — identical
//!   tags mean the peers are layout-compatible and a straight `memcpy`
//!   suffices — otherwise it walks both layouts in lock-step byte-swapping,
//!   sign-extending and resizing each scalar ("receiver makes right").
//! * **Wire format** ([`wire`]) frames tag + data for transport.

pub mod convert;
pub mod generate;
pub mod parse;
pub mod plan;
pub mod tag;
pub mod wire;

pub use convert::{
    convert_block, convert_one, convert_scalar_run, ConversionError, ConversionStats,
};
pub use generate::{tag_for, tag_for_scalar_run};
pub use parse::{parse_tag, TagParseError};
pub use plan::{Elems, PlanCache, RunOp, RunPlan};
pub use tag::{Tag, TagItem};
pub use wire::{unpack_batch, UpdateBatch, WireError};
