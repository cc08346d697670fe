//! # ipim-trace — zero-overhead observability for the iPIM simulator
//!
//! A hermetic (std-only) tracing and metrics subsystem shared by every
//! simulator crate:
//!
//! - **Structured events** ([`TraceEvent`]): typed records of the
//!   micro-architectural moments the final counters average away — DRAM
//!   command issue, row open/close, refresh windows, NoC flit hops and
//!   credit stalls, SIMB issue/stall transitions, scratchpad traffic,
//!   barrier entry/release, and the skip-ahead engine's jumped windows.
//! - **Sinks** ([`TraceSink`]): where events go. [`RingSink`] keeps the
//!   last *N* records in memory and counts what it drops; [`NullSink`]
//!   discards everything. The
//!   [`Tracer`] handle each component holds makes the disabled path one
//!   branch on an `Option` — no sink, no formatting, no allocation.
//! - **Metrics** ([`MetricsRegistry`]): a deterministic hierarchical
//!   registry of counters/gauges/histograms keyed by component path
//!   (`cube0/vault0/pg3/bank1/...`), built from the simulator's final
//!   counters after a run — never touched on the hot path.
//! - **Exporters** ([`chrome`]): Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto, plus a plain-text metrics table.
//!
//! ## Overhead contract
//!
//! Instrumented components call [`Tracer::emit`] with a closure; when no
//! sink is attached the closure is never run, so the disabled cost is a
//! single `Option` discriminant test per potential event. The CI budget is
//! ≤2 % wall-clock on StencilChain with tracing off (see DESIGN.md
//! §"Observability").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
pub mod chrome;
mod event;
pub mod json;
mod metrics;
mod sink;

pub use capture::TraceCapture;
pub use event::{CompId, CompRegistry, DramCmdKind, SpadKind, TraceEvent};
pub use metrics::{Histogram, Metric, MetricsRegistry};
pub use sink::{NullSink, Record, RingSink, SharedSink, TraceSink, Tracer};
