//! # Lotus — characterization of ML preprocessing pipelines via framework
//! and hardware profiling (Rust reproduction)
//!
//! A full reproduction of the IISWC 2024 paper *"Lotus: Characterization
//! of Machine Learning Preprocessing Pipelines via Framework and Hardware
//! Profiling"* over deterministic simulated substrates. This facade crate
//! re-exports the whole workspace:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel
//! * [`uarch`] — CPU micro-architecture, PMU and sampling-driver model
//! * [`codec`] — the SJPG image codec with Table I's kernel inventory
//! * [`data`] — tensors, images, dataset models
//! * [`transforms`] — the preprocessing transform library
//! * [`dataflow`] — the PyTorch-DataLoader data-flow model
//! * [`core`] — **LotusTrace + LotusMap**, the paper's contribution
//! * [`profilers`] — baseline profiler models (Scalene, py-spy, austin,
//!   PyTorch profiler)
//! * [`workloads`] — the IC/IS/OD MLPerf pipelines
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use lotus::core::trace::LotusTrace;
//! use lotus::uarch::{Machine, MachineConfig};
//! use lotus::workloads::{ExperimentConfig, PipelineKind};
//!
//! // Trace a (scaled-down) image-classification epoch with LotusTrace.
//! let machine = Machine::new(MachineConfig::cloudlab_c4130());
//! let trace = Arc::new(LotusTrace::new());
//! let config = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
//!     .scaled_to(256);
//! let report = config.build(&machine, Arc::clone(&trace) as _, None).run()?;
//! assert!(report.batches > 0);
//!
//! // Per-operation elapsed times (the paper's Table II).
//! for op in trace.op_stats() {
//!     println!("{:>28}: avg {:.2} ms", op.name, op.summary.mean);
//! }
//! # Ok::<(), lotus::dataflow::JobError>(())
//! ```

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod auditing;
pub mod checking;
pub mod running;
pub mod tuning;

pub use lotus_codec as codec;
pub use lotus_core as core;
pub use lotus_data as data;
pub use lotus_dataflow as dataflow;
pub use lotus_profilers as profilers;
pub use lotus_sim as sim;
pub use lotus_transforms as transforms;
pub use lotus_uarch as uarch;
pub use lotus_workloads as workloads;
