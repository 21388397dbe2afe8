#![warn(missing_docs)]

//! Facade crate re-exporting the heterogeneous DSM workspace.
pub use hdsm_apps as apps;
pub use hdsm_core as dsd;
pub use hdsm_memory as memory;
pub use hdsm_migthread as migthread;
pub use hdsm_net as net;
pub use hdsm_obs as obs;
pub use hdsm_platform as platform;
pub use hdsm_tags as tags;

pub mod prelude {
    //! Everything a DSD session touches, in one import.
    //!
    //! `use hdsm::prelude::*;` gives an application the cluster builder,
    //! the typed synchronization handles, the client session API and the
    //! platform specs — no deep-importing individual workspace crates.
    pub use hdsm_core::{
        BarrierId, ClusterBuilder, ClusterCtl, ClusterError, ClusterOutcome, CondId, CostBreakdown,
        Directory, DsdClient, DsdError, GthvDef, GthvInstance, LockGuard, LockId,
        PlacementDecision, PlacementInputs, PlacementPolicy, ShardId, TimingConfig, TopologyConfig,
        WorkerInfo,
    };
    pub use hdsm_net::{FabricMode, FaultPlan, NetConfig};
    pub use hdsm_obs::{ObsSnapshot, Recorder};
    pub use hdsm_platform::spec::{Platform, PlatformSpec};
}
