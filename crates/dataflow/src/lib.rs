//! # lotus-dataflow — PyTorch DataLoader data-flow model
//!
//! A faithful re-implementation of `torch.utils.data.DataLoader`'s
//! asynchronous multi-process protocol (§II-B of the Lotus paper) on the
//! deterministic simulator:
//!
//! * the **main process** pre-fills per-worker *index queues* with
//!   `prefetch_factor` batches, then consumes batches **in order** from the
//!   single shared *data queue*, pinning and caching out-of-order arrivals;
//! * **DataLoader workers** loop over their index queue, fetch (load +
//!   transform + collate) each batch, and push it back through the data
//!   queue;
//! * a **GPU group** executes one synchronous training step per consumed
//!   batch.
//!
//! Instrumentation hooks ([`Tracer`]) expose exactly the events LotusTrace
//! records (\[T1\]/\[T2\]/\[T3\]) and charge per-profiler overhead.
//!
//! See [`TrainingJob`] for the entry point.

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod audit;
mod backend;
mod config;
mod dataset;
mod error;
mod loader;
mod model;
mod native;
mod pipeline;
mod policy;
mod protocol;
mod sync;
mod tracer;
mod worker;

pub use audit::{AuditFeed, AuditMutation, CvKind, SyncEvent, SyncOp, UNKNOWN_TID};
pub use backend::{ExecutionBackend, SimBackend};
pub use config::{DataLoaderConfig, GpuConfig};
pub use dataset::{BatchSampler, Dataset, Sampler};
pub use error::JobError;
pub use loader::{JobReport, LoaderMutation, TrainingJob};
pub use model::{run_native_model, ModelConfig, ModelRun};
pub use native::{NativeBackend, NativeOptions, NativeQueue};
pub use pipeline::{Pipeline, Source};
pub use policy::{
    BatchRef, DispatchContext, Lane, Placement, Refill, SchedulingPolicy, SchedulingPolicyKind,
};
pub use protocol::{
    worker_os_pid, DATA_QUEUE_DEPTH_GAUGE, IN_FLIGHT_GAUGE, MAIN_OS_PID, PINNED_CACHE_GAUGE,
    QUEUE_DEPTH_PREFIX,
};
pub use sync::{StdSync, SyncFacade};
pub use tracer::{NullTracer, TraceEvent, TraceSink, Tracer};

pub use lotus_sim::FaultPlan;
