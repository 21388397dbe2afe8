//! hdsm-obs — observability substrate for the heterogeneous DSM.
//!
//! One [`Recorder`] handle threads through the whole stack. Disabled (the
//! default) it is a null pointer check per call site; enabled it gathers:
//!
//! - **Events** — per-rank ring buffers of structured spans and instants
//!   ([`Event`], [`EventKind`]), all recorded through one path that takes
//!   one lock: lock wait/hold, barriers, the Eq. 1 cost
//!   pipeline (diff scan, tag build, pack, unpack, convert), message
//!   send/recv, retransmits, injected faults, lease expiries, failover.
//! - **Metrics** — named counters, gauges and log2-bucket latency
//!   histograms with p50/p95/p99 ([`Registry`], [`Histogram`]).
//! - **Heatmaps** — per-index-entry traffic tables and the placement
//!   engine's two signals ([`Heatmap`]), charged a batch at a time
//!   through [`Recorder::heat`]: one lock per release or acquire, not one
//!   per update.
//! - **Causal tracing** — every event is stamped on the recorder's one
//!   clock and with a global record sequence, so [`Recorder::events`] is
//!   a causal order by construction (a send is recorded before its
//!   message is enqueued, its receive after it is dequeued); plus
//!   per-sync-op critical paths naming the straggler rank, slowest shard
//!   and retransmit count behind each barrier/lock latency ([`critpath`]),
//!   computed when a reader asks ([`Recorder::critpaths`], the watchdog's
//!   attribution) and never by [`Recorder::snapshot`].
//! - **Exporters** — Chrome tracing JSON ([`chrome_trace`], one track per
//!   rank, with flow arrows linking send→receive across tracks), a
//!   plain-text cluster report and the machine-readable [`ObsSnapshot`].
//! - **Live telemetry** — a windowed [`timeseries`] emitting one delta
//!   [`Frame`] per fabric-clock interval, a stall [`watchdog`] aging
//!   in-flight sync ops against latency budgets ([`StallReport`]), and a
//!   [`blackbox`] flight recorder dumping triggered diagnostic bundles.
//!
//! The crate sits below the rest of the stack and speaks message kinds as
//! `&'static str` labels, so every other crate can depend on it without
//! cycles. It holds what only it can see: fabric traffic is counted once,
//! by `hdsm_net::NetStats`, and handed to the time-series by whoever
//! holds the `Network` ([`Recorder::tick_window`]).

#![warn(missing_docs)]

pub mod blackbox;
pub mod chrome;
pub mod critpath;
pub mod event;
pub mod heatmap;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod snapshot;
pub mod timeseries;
pub mod watchdog;

pub use blackbox::{pretty as pretty_bundle, TriggerRow};
pub use chrome::chrome_trace;
pub use critpath::{LinkRetransmits, OpCritPath, Segment};
pub use event::{Event, EventKind, OpCtx, OpKind};
pub use heatmap::{EntryStats, Heatmap, WriterStats};
pub use metrics::{bucket_index, bucket_upper, Histogram, Registry, BUCKETS};
pub use recorder::{InflightOp, ObsConfig, Recorder, Span};
pub use ring::EventRing;
pub use snapshot::{
    DecisionRow, EntryRow, HistSummary, ObsSnapshot, ReleaseRow, RingDropRow, WriterRow,
};
pub use timeseries::{Frame, Sample, TimeSeries};
pub use watchdog::{StallReport, WatchdogConfig};
