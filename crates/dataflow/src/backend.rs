//! Execution backends: where a [`TrainingJob`] actually runs.
//!
//! The DataLoader protocol (policy dispatch, bounded queues, the
//! reorder buffer, dead-worker redispatch) is written once, in
//! `protocol.rs`, against a small substrate trait covering the clock,
//! the queues, batch costs and shutdown. An [`ExecutionBackend`] chooses
//! the substrate:
//!
//! * [`SimBackend`] — the deterministic discrete-event simulator with a
//!   virtual clock ([`TrainingJob::run`]). Every run is exactly
//!   reproducible; kernel durations come from the cost model.
//! * [`crate::NativeBackend`] — real OS threads, real channels, a
//!   monotonic wall clock, and real pixels through the codec/transform
//!   kernels. Timestamps are nondeterministic; the protocol's structure
//!   (counts, ordering, conservation) is not.
//!
//! Both emit the same [`crate::Tracer`] event stream, so LotusTrace, the
//! metrics registry, and the trace linter consume either backend's output
//! unchanged.

use crate::error::JobError;
use crate::loader::{JobReport, TrainingJob};

/// An execution substrate for the DataLoader protocol.
pub trait ExecutionBackend {
    /// A short stable name for reports and BENCH files (`"sim"`,
    /// `"native"`).
    fn name(&self) -> &'static str;

    /// Runs the job's epoch(s) to completion on this substrate.
    ///
    /// # Errors
    ///
    /// Returns the same [`JobError`] variants as [`TrainingJob::run`]:
    /// invalid configuration, an in-band sample error, all workers dead,
    /// or a substrate failure.
    fn run(&self, job: TrainingJob) -> Result<JobReport, JobError>;
}

/// The virtual-time simulation backend — delegates to
/// [`TrainingJob::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, job: TrainingJob) -> Result<JobReport, JobError> {
        job.run()
    }
}
