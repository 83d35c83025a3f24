//! Live metrics and streaming trace sinks.
//!
//! The paper's offline pipeline — run, dump the trace, analyze — answers
//! "what happened?"; this module answers "what is happening?". Engine
//! hooks stream through a fan-out [`MultiSink`] into the LotusTrace log
//! and a [`MetricsSink`] that folds events into a [`MetricsRegistry`] of
//! counters, virtual-time gauge series, and latency histograms. Sinks
//! return a charge per event; the fan-out accounts each one's overhead.
//! The registry exports to Prometheus text, JSON, and CSV ([`export`])
//! and renders as a `lotus top` terminal dashboard ([`dashboard`]).
//!
//! Determinism contract: every sample is stamped with virtual [`lotus_sim::Time`],
//! every map is ordered, and nothing consults the wall clock — two
//! identical seeded runs export byte-identical metrics.

pub mod dashboard;
pub mod export;
pub mod registry;
pub mod sink;

pub use dashboard::{render_dashboard, sparkline, utilization_bar, DashboardOptions};
pub use export::{to_csv, to_json, to_prometheus};
pub use lotus_dataflow::{TraceEvent, TraceSink};
pub use registry::{
    GaugeSeries, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, MetricsUpdate,
};
pub use sink::{names, MetricsSink, MultiSink};
