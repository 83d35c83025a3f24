//! The concrete `lotus audit` runner: live happens-before audits of
//! native-backend runs.
//!
//! Each audit attaches an [`AuditFeed`] to a [`NativeBackend`], runs one
//! small protocol-only epoch (cost-only payloads, no GPU emulation —
//! the synchronization skeleton is what's under test, not the kernels),
//! drains the recorded synchronization-event stream, and judges it with
//! [`analyze`] against the native backend's contract
//! ([`AuditSpec::native_backend`]). The matrix covers the IC/AC/IS
//! pipelines under every scheduling policy; `--mutate` re-runs the
//! matrix with a seeded backend defect the auditor is expected to flag
//! (exit 1 when it does not — the same trust-but-verify UX as `lotus
//! check --mutate`).

use std::sync::Arc;

use lotus_core::check::{analyze, minimize_events, AuditReport, AuditSpec};
use lotus_dataflow::{
    AuditFeed, AuditMutation, ExecutionBackend, NativeBackend, NativeOptions, NullTracer,
    SchedulingPolicyKind, SyncEvent,
};
use lotus_sim::Span;
use lotus_uarch::{Machine, MachineConfig};
use lotus_workloads::{ExperimentConfig, PipelineKind};

/// Options for one audit matrix.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Pipelines to audit.
    pub pipelines: Vec<PipelineKind>,
    /// Scheduling policies to audit each pipeline under.
    pub policies: Vec<SchedulingPolicyKind>,
    /// Samples per run (small: the protocol, not the kernels, is under
    /// test).
    pub items: u64,
    /// Worker count per run.
    pub workers: usize,
    /// Main-process liveness-polling interval. Short by default so a
    /// seeded lost wakeup stalls the run for milliseconds, not the
    /// PyTorch-faithful 5 s.
    pub status_check: Span,
    /// Seeded backend defect ([`AuditMutation::None`] for a clean
    /// audit).
    pub mutation: AuditMutation,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions {
            pipelines: vec![
                PipelineKind::ImageClassification,
                PipelineKind::AudioClassification,
                PipelineKind::ImageSegmentation,
            ],
            policies: SchedulingPolicyKind::ALL.to_vec(),
            items: 32,
            workers: 2,
            status_check: Span::from_millis(20),
            mutation: AuditMutation::None,
        }
    }
}

/// One audited native run.
#[derive(Debug)]
pub struct AuditRun {
    /// `pipeline/policy` label.
    pub name: String,
    /// The analyzer's verdict.
    pub report: AuditReport,
    /// The drained synchronization-event stream (for `--trace` and
    /// counterexample minimization).
    pub events: Vec<SyncEvent>,
    /// Feed self-accounted recording cost, nanoseconds.
    pub audit_overhead_ns: u64,
    /// The run's wall elapsed time.
    pub elapsed: Span,
    /// Batches the run delivered.
    pub batches: u64,
}

/// Audits one native run of `kind` under `policy`.
///
/// # Errors
///
/// Returns the loader-validation or job error as a string, or an error
/// when the run delivered no batch (fewer items than one batch): an
/// empty event stream would audit clean without checking anything.
pub fn audit_run(
    kind: PipelineKind,
    policy: SchedulingPolicyKind,
    options: &AuditOptions,
) -> Result<AuditRun, String> {
    let mut config = ExperimentConfig::paper_default(kind);
    config.batch_size = 4;
    config.num_workers = options.workers;
    let config = config.scaled_to(options.items).with_policy(policy);
    let loader = config.loader_defaults();
    loader.validate()?;
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let job = config.build_with(
        &machine,
        Arc::new(NullTracer) as _,
        None,
        loader,
        lotus_dataflow::FaultPlan::default(),
    );
    let feed = Arc::new(AuditFeed::new());
    let backend = NativeBackend::new(NativeOptions {
        status_check: options.status_check,
        emulate_gpu: false,
    })
    .with_audit(Arc::clone(&feed))
    .with_audit_mutation(options.mutation);
    let name = format!("{}/{}", kind.abbrev(), policy.as_str());
    let report = backend.run(job).map_err(|e| e.to_string())?;
    if report.batches == 0 {
        return Err(format!(
            "{name}: {} item(s) fill no batch, so the run had nothing to audit",
            options.items
        ));
    }
    let events = feed.drain();
    Ok(AuditRun {
        name,
        report: analyze(&events, &AuditSpec::native_backend()),
        events,
        audit_overhead_ns: feed.overhead_ns(),
        elapsed: report.elapsed,
        batches: report.batches,
    })
}

/// Runs the whole audit matrix (pipelines × policies).
///
/// # Errors
///
/// Returns the first run error as a string.
pub fn audit_matrix(options: &AuditOptions) -> Result<Vec<AuditRun>, String> {
    let mut runs = Vec::new();
    for &kind in &options.pipelines {
        for &policy in &options.policies {
            runs.push(audit_run(kind, policy, options)?);
        }
    }
    Ok(runs)
}

/// Shrinks a flagged run's event stream to a minimal window still
/// triggering the run's most severe finding (the first one, in stream
/// order). Returns `None` for clean runs.
#[must_use]
pub fn minimized_window(run: &AuditRun) -> Option<Vec<SyncEvent>> {
    let kind = run.report.findings.first()?.kind();
    Some(minimize_events(
        &run.events,
        &AuditSpec::native_backend(),
        kind,
        512,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_native_run_audits_clean() {
        let options = AuditOptions::default();
        let run = audit_run(
            PipelineKind::ImageClassification,
            SchedulingPolicyKind::RoundRobin,
            &options,
        )
        .unwrap();
        assert!(
            run.report.clean(),
            "clean run flagged: {:?}",
            run.report.findings
        );
        assert!(run.batches > 0);
        assert!(run.report.stats.events > 0);
        assert!(run.report.stats.threads >= 2);
    }

    #[test]
    fn a_run_without_a_full_batch_is_an_error_not_ok() {
        let options = AuditOptions {
            items: 2,
            ..AuditOptions::default()
        };
        let err = audit_run(
            PipelineKind::ImageClassification,
            SchedulingPolicyKind::RoundRobin,
            &options,
        )
        .unwrap_err();
        assert!(err.contains("nothing to audit"), "{err}");
    }

    #[test]
    fn seeded_mutations_are_flagged_and_minimized() {
        for (mutation, expected) in [
            (AuditMutation::SkipNotify, "missed-wake"),
            (AuditMutation::ReleaseRecheck, "ungated-commit"),
            (AuditMutation::LockOrder, "lock-cycle"),
        ] {
            let options = AuditOptions {
                mutation,
                ..AuditOptions::default()
            };
            let run = audit_run(
                PipelineKind::ImageClassification,
                SchedulingPolicyKind::RoundRobin,
                &options,
            )
            .unwrap();
            assert!(
                run.report.findings.iter().any(|f| f.kind() == expected),
                "{} escaped the auditor: {:?}",
                mutation.as_str(),
                run.report.findings
            );
            let window = minimized_window(&run).expect("flagged run has a window");
            assert!(
                window.len() <= run.events.len(),
                "minimization grew the stream"
            );
        }
    }
}
