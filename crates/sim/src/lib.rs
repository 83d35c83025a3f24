//! # lotus-sim — deterministic discrete-event simulation kernel
//!
//! The substrate underneath the Lotus reproduction: a process-oriented
//! discrete-event simulator with a nanosecond virtual clock. Simulated
//! processes are `async` blocks that await [`Ctx::delay`] and [`Queue`]
//! operations; the scheduler polls them one at a time on the thread that
//! runs the simulation, so every experiment in the repository is exactly
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use lotus_sim::{Simulation, Span};
//!
//! let mut sim = Simulation::new();
//! let q = sim.queue::<&'static str>("greetings", None);
//! let tx = q.clone();
//! sim.spawn("producer", move |ctx| async move {
//!     ctx.delay(Span::from_millis(1)).await;
//!     tx.push(&ctx, "hello").await;
//! });
//! sim.spawn("consumer", move |ctx| async move {
//!     let msg = q.pop(&ctx).await;
//!     assert_eq!(msg, "hello");
//!     assert_eq!(ctx.now(), lotus_sim::Time::ZERO + Span::from_millis(1));
//! });
//! sim.run()?;
//! # Ok::<(), lotus_sim::SimError>(())
//! ```
//!
//! ## Determinism guarantees
//!
//! * At most one process executes at any moment: processes are futures,
//!   polled on the caller's thread, and no thread is ever spawned.
//! * Events at equal virtual time fire in the order they were scheduled.
//! * No wall-clock time or OS entropy is consulted anywhere.

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::{Mutex, MutexGuard};

/// Locks `mutex`, panicking on poisoning.
///
/// Poisoning is unreachable by construction: no code holding one of the
/// crate's locks can panic, so a poisoned lock means the simulator itself
/// is broken and no recovery is meaningful. This is the one sanctioned
/// lock-acquisition panic site in the crate; `#[track_caller]` keeps the
/// panic pointing at the real call site.
#[allow(clippy::expect_used)]
#[track_caller]
pub(crate) fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("lock poisoned")
}

mod clock;
mod control;
mod ctx;
mod error;
mod fault;
mod kernel;
mod queue;
mod sim;
mod storage;
mod time;

pub use clock::{TimeSource, WallClock};
pub use control::{
    Choice, DecisionPoint, DecisionRecord, FifoController, GuidedController, ScheduleController,
};
pub use ctx::Ctx;
pub use error::{BlockedProcess, SimError};
pub use fault::FaultPlan;
pub use kernel::Pid;
pub use queue::Queue;
pub use sim::{RunReport, Simulation};
pub use storage::{
    DeviceModel, FileLayout, ReadOutcome, Storage, StorageConfig, StorageCounters, StorageTier,
    PAGE_BYTES,
};
pub use time::{Span, Time};
