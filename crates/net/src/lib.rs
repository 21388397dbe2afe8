#![warn(missing_docs)]

//! Simulated cluster transport.
//!
//! The paper's nodes are separate machines joined by TCP sockets; ours are
//! threads joined by channels. The crucial property preserved is the
//! *byte boundary*: a [`Message`] payload is an opaque `Bytes` buffer — the
//! only things that cross between nodes are serialized bytes (in the
//! sender's native format) plus CGT-RMR tags, never shared Rust objects.
//!
//! The [`Network`] also keeps per-kind traffic statistics and a simple
//! latency/bandwidth cost model ([`NetConfig`]) used by the benchmark
//! harnesses to report simulated communication time alongside measured
//! computation time. By default no real sleeping happens — the model is
//! pure accounting — so unit tests stay fast.

//! Fault injection ([`fault::FaultPlan`]) makes the simulated fabric
//! deliberately imperfect — seeded, deterministic drops, duplicates,
//! reorders, delay jitter and runtime partitions — so the reliability
//! layer above it can be tested against real failure modes.

//! Simulation mode ([`sim::SimFabric`]) goes further: the whole fabric —
//! delivery, timeouts, leases, heartbeats — runs on a virtual clock under
//! a seeded discrete-event scheduler, so a cluster run is an exactly
//! reproducible function of `(workload, config, seed)`.

pub mod clock;
pub mod endpoint;
pub mod fault;
pub mod message;
pub mod sim;
pub mod stats;

pub use clock::{FabricClock, FabricInstant, Ticker};
pub use endpoint::{Endpoint, NetError, Network};
pub use fault::{FaultPlan, LinkFaults};
pub use message::{Message, MsgKind};
pub use sim::{ActorGuard, ActorId, FabricMode, SimFabric, Step, Turn, Wake};
pub use stats::{DestTraffic, NetConfig, NetStats};
