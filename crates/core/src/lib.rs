#![warn(missing_docs)]

//! DSD — the paper's Distributed Shared Data mechanism.
//!
//! This crate is the primary contribution of "An Adaptive Heterogeneous
//! Software DSM" (ICPP Workshops 2006): a release-consistent, fully
//! heterogeneous shared-data layer whose synchronization API mirrors
//! Pthreads (`MTh_lock` / `MTh_unlock` / `MTh_barrier` / `MTh_join`,
//! paper §4) and whose update pipeline is
//!
//! ```text
//! drain the write set the store accessors kept: the
//!     coalesced application-level index ranges       t_index
//!   → settle the ranges that ship (whole-entry
//!     promotion), one CGT-RMR run tag each           t_tag
//!   → frame run groups + raw native data            t_pack
//!   → ship to peer
//!   → unpack                                        t_unpack
//!   → memcpy (homogeneous) / convert (heterogeneous) t_conv
//! ```
//!
//! matching the cost decomposition of Eq. 1:
//! `C_share = t_index + t_tag + t_pack + t_unpack + t_conv`.
//!
//! Key modules:
//! * [`gthv`] — the shared global structure (`GThV`) instantiated in a
//!   node's native representation inside a paged address space;
//! * [`index_table`] — the architecture-independent index table built from
//!   `GThV` at start-up (paper Table 1);
//! * [`runs`] — diff→index abstraction with consecutive-element coalescing:
//!   the element scan the client's write set is tested against, and the
//!   byte-granular two-step route the scan is held to;
//! * [`update`] — update extraction and receiver-makes-right application,
//!   including pointer swizzling through the index table;
//! * [`protocol`], `home`, [`client`] — the distributed lock / barrier /
//!   join protocol between remote threads and the home node's stub
//!   service, which [`cluster`] runs (its errors are [`HomeError`]);
//! * `interval` — the per-entry range sets behind "ship what is read" and
//!   "know what was written": a reader's interest, its
//!   noticed-but-unfetched ranges and its write set;
//! * [`cluster`] — orchestration of a simulated heterogeneous cluster
//!   (node threads + home service) on the threaded or the deterministic
//!   fabric; a migrating thread is a worker body,
//!   [`cluster::run_migrating`], whose moves a caller plans, for instance
//!   with [`placement::plan_thread_moves`];
//! * [`placement`] — heat-driven re-homing of index entries;
//! * [`baseline`] — a traditional homogeneous twin/diff page DSM used as
//!   the comparison baseline;
//! * [`costs`] — Eq. 1 cost accounting.

pub mod baseline;
pub mod client;
pub mod cluster;
pub mod costs;
pub mod directory;
pub mod gthv;
pub(crate) mod home;
pub mod ids;
pub mod index_table;
pub(crate) mod interval;
pub mod placement;
pub mod protocol;
pub mod runs;
pub mod update;

pub use client::{DsdClient, DsdError, LockGuard};
pub use cluster::{
    ClusterBuilder, ClusterCtl, ClusterError, ClusterOutcome, TimingConfig, TopologyConfig,
    WorkerInfo,
};
pub use costs::CostBreakdown;
pub use directory::Directory;
pub use gthv::{GthvDef, GthvInstance};
pub use home::HomeError;
pub use ids::{BarrierId, CondId, LockId, ShardId};
pub use index_table::{IndexRow, IndexTable};
pub use placement::{
    plan_thread_moves, PlacementDecision, PlacementInputs, PlacementPolicy, ThreadMove,
};
pub use runs::UpdateRange;
