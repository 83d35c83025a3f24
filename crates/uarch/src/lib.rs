//! # lotus-uarch — CPU micro-architecture, PMU and sampling-driver model
//!
//! The "hardware" substrate of the Lotus reproduction. Native C/C++
//! functions from the paper's Table I inventory are modelled as *kernels*
//! ([`KernelSpec`]) with analytic cost coefficients; executing a kernel on a
//! [`CpuThread`] yields elapsed virtual time plus a vector of hardware
//! events ([`HwEvents`]) reflecting cache behaviour, top-down pipeline
//! slots, and contention from other concurrently active workers
//! ([`Machine::load`]).
//!
//! A [`HwProfiler`] session observes kernel executions the way Intel VTune
//! or AMD uProf would: either exactly (counting) or through a sampling
//! driver with a fixed grid and attribution skid — the artifacts LotusMap's
//! methodology (bucketing, filtering, the run-count formula, the `sleep()`
//! gap) exists to overcome.
//!
//! ```
//! use std::sync::Arc;
//! use lotus_uarch::{CostCoeffs, CpuThread, HwProfiler, Machine, MachineConfig, ProfilerConfig};
//!
//! let machine = Machine::new(MachineConfig::cloudlab_c4130());
//! let decode = machine.kernel("decode_mcu", "libjpeg.so.9", CostCoeffs::compute_default());
//! let profiler = Arc::new(HwProfiler::new(ProfilerConfig::counting()));
//! let mut cpu = CpuThread::new(Arc::clone(&machine));
//! cpu.attach_profiler(Arc::clone(&profiler));
//! cpu.exec(decode, 50_000.0);
//! let report = profiler.report(&machine);
//! assert_eq!(report[0].name, "decode_mcu");
//! ```

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cost;
mod events;
mod feed;
mod kernels;
mod machine;
mod profiler;
mod thread;

pub use cost::{evaluate, KernelCost};
pub use events::HwEvents;
pub use feed::{KernelSample, KernelSpanFeed};
pub use kernels::{CostCoeffs, KernelId, KernelRegistry, KernelSpec};
pub use machine::{Machine, MachineConfig, Vendor};
pub use profiler::{
    format_report, CollectionMode, FnStats, FunctionProfile, HwProfiler, ProfilerConfig,
};
pub use thread::{CpuThread, Invocation};
