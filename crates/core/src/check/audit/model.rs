//! Bounded exhaustive interleaving checks of the native backend's
//! synchronization code.
//!
//! The live auditor ([`super::analyze`]) judges the one interleaving a
//! real run happened to take. [`explore_native_model`] judges every
//! small interleaving within its bounds, in `cargo test`: each run is
//! [`run_native_model`], the backend's own `NativeQueue`, liveness-gated
//! commit and status-check recheck executed as lotus-sim processes under
//! one schedule prefix. A run fails on any analyzer finding over its
//! [`SyncEvent`] stream, and on a simulation that deadlocked or blew its
//! step budget.
//!
//! [`ModelConfig::bug`] seeds one of the backend's own
//! [`AuditMutation`](lotus_dataflow::AuditMutation)s, so the tests here
//! assert the explorer catches each one and passes the code as it ships
//! — the auditor's own regression harness.

use lotus_dataflow::{run_native_model, SyncEvent};

pub use lotus_dataflow::ModelConfig;

use super::super::explorer::{explore, ExploreBounds, ExploreReport, ScheduledRun};
use super::super::invariants::Violation;
use super::{analyze, AuditSpec};

/// Runs the shipped code under one schedule prefix and judges the run.
/// Returns the verdict for the explorer plus the raw event stream, for
/// `--replay` displays. Deterministic: equal prefixes produce equal
/// runs, so a counterexample schedule replays exactly.
#[must_use]
pub fn run_model(
    cfg: &ModelConfig,
    prefix: &[usize],
    max_steps: u64,
) -> (ScheduledRun, Vec<SyncEvent>) {
    let run = run_native_model(cfg, prefix, max_steps);
    let findings = analyze(&run.events, &AuditSpec::native_backend()).findings;
    let violations = run
        .outcome
        .err()
        .map(|e| e.to_string())
        .into_iter()
        .chain(findings.iter().map(ToString::to_string))
        .map(|finding| Violation::SyncAudit { finding })
        .collect();
    (
        ScheduledRun {
            decisions: run.decisions,
            violations,
        },
        run.events,
    )
}

/// Explores the bounded interleavings of the shipped synchronization
/// code in the shape `cfg`.
#[must_use]
pub fn explore_native_model(cfg: &ModelConfig, bounds: &ExploreBounds) -> ExploreReport {
    explore(bounds, |prefix| run_model(cfg, prefix, bounds.max_steps).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_dataflow::AuditMutation;

    fn bounds() -> ExploreBounds {
        ExploreBounds {
            max_schedules: 2_000,
            max_depth: 96,
            max_branch: 4,
            ..ExploreBounds::default()
        }
    }

    fn explore_bug(bug: AuditMutation) -> ExploreReport {
        let cfg = ModelConfig {
            bug,
            ..ModelConfig::default()
        };
        explore_native_model(&cfg, &bounds())
    }

    fn cx_mentions(report: &ExploreReport, needle: &str) -> bool {
        report
            .counterexample
            .as_ref()
            .is_some_and(|cx| cx.violations.iter().any(|v| v.to_string().contains(needle)))
    }

    #[test]
    fn clean_model_explores_clean() {
        let report = explore_native_model(&ModelConfig::default(), &bounds());
        assert!(
            report.clean(),
            "clean protocol flagged: {:?}",
            report.counterexample
        );
        assert!(report.stats.schedules_run > 1, "no interleavings explored");
    }

    /// With the real 5 s status check, a lost wakeup is a training run
    /// that hangs; the shipped main thread limps on at its next status
    /// check, and the analyzer flags the missing notify.
    #[test]
    fn skip_notify_deadlocks_and_is_caught() {
        let report = explore_bug(AuditMutation::SkipNotify);
        assert!(
            cx_mentions(&report, "deadlock") || cx_mentions(&report, "missed wake"),
            "skip-notify escaped: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn release_recheck_is_caught_as_ungated_commit() {
        let report = explore_bug(AuditMutation::ReleaseRecheck);
        assert!(
            cx_mentions(&report, "ungated commit"),
            "release-recheck escaped: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn lock_order_inversion_is_caught_as_cycle() {
        let report = explore_bug(AuditMutation::LockOrder);
        assert!(
            cx_mentions(&report, "lock-order cycle"),
            "lock-order escaped: {:?}",
            report.counterexample
        );
    }

    /// The `if` is seeded in `NativeQueue`'s real consumer wait loop, and
    /// its counterexample schedule replays to the same finding.
    #[test]
    fn if_instead_of_while_is_caught() {
        let cfg = ModelConfig {
            bug: AuditMutation::IfInsteadOfWhile,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        assert!(
            cx_mentions(&report, "wait without re-check"),
            "if-instead-of-while escaped: {:?}",
            report.counterexample
        );
        let cx = report.counterexample.expect("caught above");
        let (replay, _) = run_model(&cfg, &cx.schedule, bounds().max_steps);
        assert!(replay
            .violations
            .iter()
            .any(|v| v.to_string().contains("wait without re-check")));
    }

    #[test]
    fn counterexample_schedules_replay_deterministically() {
        let cfg = ModelConfig {
            bug: AuditMutation::SkipNotify,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds());
        let cx = report.counterexample.expect("skip-notify must be caught");
        let (a, a_events) = run_model(&cfg, &cx.schedule, bounds().max_steps);
        let (b, b_events) = run_model(&cfg, &cx.schedule, bounds().max_steps);
        assert!(!a.violations.is_empty());
        assert_eq!(a.violations, b.violations);
        assert_eq!(a_events, b_events);
    }
}
