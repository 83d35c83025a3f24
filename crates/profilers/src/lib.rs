//! # lotus-profilers — baseline profiler models
//!
//! Behavioural models of the profilers the Lotus paper compares against
//! (§VI): Scalene, py-spy, austin and the PyTorch profiler. Each model
//! plugs into the same [`lotus_dataflow::Tracer`] hook points as
//! LotusTrace, keeps only what its mechanism would capture (sampling
//! grids, main-process-only traces) and charges its interference back to
//! the simulated program — so Table III's overhead numbers and Table IV's
//! functionality matrix are *outputs* of the models, not constants.
//!
//! The [`ComparisonHarness`] reruns one experiment configuration under
//! every profiler and assembles the comparison rows.

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod capabilities;
mod comparison;
mod models;
mod native;

pub use capabilities::{lotus_capabilities, Capabilities};
pub use comparison::{BaselineProfiler, ComparisonHarness, ComparisonRow, SinkOverheadRow};
pub use models::{ProfilerModel, ProfilerOutput, SamplingConfig, SamplingProfiler, TorchProfiler};
pub use native::{NativeSampler, SamplerConfig, SamplerTick, ThreadSample};
