//! `lotus tune` — automatic DataLoader configuration search over the
//! deterministic simulation.
//!
//! The paper's characterization answers *"where does the time go?"*;
//! this module closes the loop and answers *"what should I set?"*. It
//! sweeps a [`SearchSpace`] of DataLoader knobs (`num_workers`,
//! `prefetch_factor`, `data_queue_cap`, `pin_memory`), runs one
//! deterministic simulated epoch per candidate through an
//! oracle closure, folds each run's metrics registry and trace into a
//! [`Scorecard`], and reports:
//!
//! * the **Pareto frontier** of throughput vs. peak resident batches
//!   (the memory footprint of queued + pinned + in-progress data),
//! * a per-config **bottleneck verdict** — the one rule,
//!   [`Verdict::classify`](crate::trace::insights::Verdict::classify),
//!   that `lotus trace` and `lotus run` also apply,
//! * a **recommended configuration** with its predicted speedup over
//!   the baseline.
//!
//! Search is either an exhaustive grid with early dominance pruning
//! (configs beaten on *both* throughput and mean T2 wait by a
//! smaller-worker sibling cut the rest of their worker sweep) or greedy
//! hill climbing over single-knob moves — see [`Strategy`].
//!
//! Everything is virtual-time simulation: a full sweep costs
//! milliseconds of wall clock, and the same seed always yields
//! byte-identical [`TuneReport::to_json`] output. Fault plans compose —
//! a candidate whose run degrades (e.g. every worker killed) becomes a
//! failed [`Scorecard`] instead of aborting the sweep.
//!
//! # Examples
//!
//! ```
//! use lotus_core::tune::{SearchSpace, Strategy, TrialConfig, Tuner};
//! use lotus_core::tune::TrialMeasurement;
//! use lotus_core::metrics::MetricsRegistry;
//! use lotus_core::trace::analysis::OpClassTotals;
//! use lotus_sim::Span;
//!
//! let tuner = Tuner { space: SearchSpace::default(), strategy: Strategy::Grid };
//! let baseline = TrialConfig {
//!     num_workers: 1, prefetch_factor: 2, data_queue_cap: None, pin_memory: true,
//! };
//! let report = tuner.run(baseline, |c| {
//!     // A real oracle runs a simulated epoch; this toy one just makes
//!     // workers help linearly.
//!     Ok(TrialMeasurement {
//!         elapsed: Span::from_millis(800 / c.num_workers as u64),
//!         batches: 16,
//!         samples: 128,
//!         snapshot: MetricsRegistry::new().snapshot(),
//!         op_classes: OpClassTotals::default(),
//!     })
//! })?;
//! assert_eq!(report.recommended.num_workers, 8);
//! println!("{}", report.render_table());
//! # Ok::<(), String>(())
//! ```

mod score;
mod search;
mod space;

pub use score::{Scorecard, TrialMeasurement};
pub use search::{Strategy, TuneReport, Tuner};
pub use space::{SearchSpace, TrialConfig};
