//! **lotus check** — protocol model checking and trace linting.
//!
//! Two complementary static/dynamic analyses over the DataLoader model:
//!
//! 1. A **bounded protocol model checker**: the simulator exposes its
//!    nondeterministic choices (ready-event ties — worker completion
//!    order, fault firing points) through
//!    [`ScheduleController`](lotus_sim::ScheduleController); the
//!    [`explorer`] drives small pipeline configurations through distinct
//!    interleavings by DFS over schedule prefixes, deduplicating on the
//!    kernel's structural state hash, and judges every run against the
//!    safety-invariant catalog in [`invariants`]. A violation yields a
//!    minimized, deterministically replayable counterexample schedule.
//! 2. A **trace linter** ([`lint`]): structural invariants over recorded
//!    or imported LotusTrace streams — balanced span pairs, per-track
//!    monotonicity, \[T1\]/\[T2\] accounting identities, orphan instants,
//!    gauge bounds — with typed errors on malformed input.
//!
//! The invariant catalog and the exploration bounds are documented in
//! `DESIGN.md`; the `lotus check` CLI in the repository `README.md`.

pub mod audit;
pub mod explorer;
pub mod invariants;
pub mod lint;
pub mod observer;

pub use audit::{
    analyze, minimize_events, model::explore_native_model, model::run_model, model::ModelConfig,
    AuditFinding, AuditReport, AuditSpec, AuditStats,
};
pub use explorer::{
    explore, Counterexample, ExploreBounds, ExploreReport, ExploreStats, ScheduledRun,
};
pub use invariants::{verify, ProtocolSpec, RunEnding, Violation};
pub use lint::{
    lint_gauges, lint_records, load_trace, CheckError, GaugeLimits, LintFinding, LintRule,
    ReportFacts,
};
pub use observer::RecordingObserver;
