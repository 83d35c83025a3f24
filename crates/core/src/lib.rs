//! # lotus-core — LotusTrace + LotusMap
//!
//! The Lotus paper's contribution, reproduced over the simulated
//! substrates:
//!
//! * [`trace`] — **LotusTrace**: lightweight instrumented tracing of the
//!   PyTorch DataLoader data flow. Captures per-batch preprocessing time
//!   (\[T1\]), main-process wait time (\[T2\], with the 1 µs out-of-order
//!   marker) and per-operation elapsed time (\[T3\]); provides the analysis
//!   behind Tables II and Figures 4–5 and Chrome-Trace-Viewer export with
//!   data-flow arrows and negative synthetic ids (Figure 2).
//! * [`metrics`] — live observability: a streaming [`metrics::TraceSink`]
//!   layer fanned out from the engine's tracer hooks, a deterministic
//!   [`metrics::MetricsRegistry`] of counters / virtual-time gauge series /
//!   latency histograms, Prometheus-text / JSON / CSV exporters, and a
//!   `lotus top`-style terminal dashboard.
//! * [`map`] — **LotusMap**: isolates each Python operation under the
//!   hardware profiler's collection-control API (warm-up, `sleep()`
//!   bucketing gap, the `C ≥ 1-(1-f/s)^n` run-count formula), buckets and
//!   filters the sampled native functions into a mapping (Table I), and
//!   splits whole-pipeline hardware counters back onto Python operations
//!   by LotusTrace elapsed-time weights (Figure 6).
//! * [`tune`] — **lotus tune**: closes the characterization loop with an
//!   automatic DataLoader configuration search (grid + hill climbing
//!   with dominance pruning) that scores every candidate on throughput,
//!   T2 wait, and memory footprint, and recommends a configuration with
//!   a predicted speedup and a T1/T2/T3-based bottleneck verdict.
//! * [`check`] — **lotus check**: a bounded protocol model checker that
//!   explores ready-event interleavings of the DataLoader protocol
//!   through the simulator's schedule-controller hook and judges each
//!   run against a safety-invariant catalog (sample conservation,
//!   dispatch discipline, bounded buffers, progress), plus a trace
//!   linter for recorded/imported LotusTrace streams.
//! * [`exec`] — deterministic parallel execution: a scoped-thread job
//!   pool that joins results by submission index (so `--jobs N` output
//!   is byte-identical to serial) and a content-addressed on-disk trial
//!   cache that lets repeated sweeps skip already-measured
//!   configurations.
//!
//! ```
//! use lotus_core::map::required_runs;
//! use lotus_sim::Span;
//!
//! // The paper's §IV-B example: a 660 µs function under 10 ms sampling
//! // needs 20 runs for 75% capture probability.
//! assert_eq!(required_runs(0.75, Span::from_micros(660), Span::from_millis(10)), 20);
//! ```

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod check;
pub mod exec;
pub mod map;
pub mod metrics;
pub mod trace;
pub mod tune;
