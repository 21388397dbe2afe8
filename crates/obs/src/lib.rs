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
//!   histograms with p50/p95/p99.
//! - **Heatmaps** — per-index-entry traffic tables and the placement
//!   engine's two signals, charged a batch at a time through
//!   [`Recorder::heat`]: one lock per release or acquire, not one per
//!   update.
//! - **Causal tracing** — every event is stamped on the recorder's one
//!   clock and with a global record sequence, so [`Recorder::events`] is
//!   a causal order by construction (a send is recorded before its
//!   message is enqueued, its receive after it is dequeued); plus
//!   per-sync-op critical paths naming the straggler rank, slowest shard
//!   and retransmit count behind each barrier/lock latency, computed
//!   when a reader asks ([`Recorder::critpaths`], the watchdog's
//!   attribution) and never by [`Recorder::snapshot`].
//! - **Live telemetry** — a windowed time-series emitting one delta
//!   [`Frame`] per fabric-clock interval, a stall watchdog aging in-flight
//!   sync ops against latency budgets ([`StallReport`]), and a flight
//!   recorder writing a bundle per trigger ([`TriggerRow`]).
//!
//! A run has one export, its JSONL log ([`Recorder::log`]): a header,
//! then one row per event, frame, stall, placement decision and trigger.
//! A flight-recorder bundle is the same log over the last events of each
//! rank. Besides the log there are views for people: Chrome tracing JSON
//! ([`chrome_trace`], one track per endpoint, with flow arrows linking
//! send→receive across tracks) and the plain-text cluster report of the
//! in-memory tables ([`ObsSnapshot::report`]).
//!
//! The crate sits below the rest of the stack and speaks message kinds as
//! `&'static str` labels, so every other crate can depend on it without
//! cycles. It holds what only it can see: fabric traffic is counted once,
//! by `hdsm_net::NetStats`, and handed to the time-series by whoever
//! holds the `Network` ([`Recorder::tick_window`]).

#![warn(missing_docs)]

mod chrome;
mod critpath;
mod event;
mod heatmap;
mod log;
mod metrics;
mod recorder;
mod ring;
mod snapshot;
mod timeseries;
mod watchdog;

pub use chrome::chrome_trace;
pub use event::{Event, EventKind, OpCtx, OpKind};
pub use heatmap::WriterStats;
pub use log::TriggerRow;
pub use recorder::{ObsConfig, Recorder, Span};
pub use snapshot::{DecisionRow, EntryRow, ObsSnapshot};
pub use timeseries::Frame;
pub use watchdog::{StallReport, WatchdogConfig};
