//! Integration tests for `lotus audit`: clean native runs audit clean
//! under every scheduling policy, every seeded backend mutation is
//! flagged with the expected finding kind, the detached feed stays
//! zero-cost, and the bounded exploration of the backend's own
//! synchronization code catches every seeded bug while passing the code
//! as it ships.

use std::sync::Arc;

use lotus::auditing::{audit_run, minimized_window, AuditOptions};
use lotus::core::check::{
    analyze, explore_native_model, run_model, AuditSpec, ExploreBounds, ModelConfig,
};
use lotus::dataflow::{
    AuditFeed, AuditMutation, ExecutionBackend, NativeBackend, NativeOptions, NullTracer,
    SchedulingPolicyKind,
};
use lotus::sim::Span;
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

fn options() -> AuditOptions {
    AuditOptions {
        items: 32,
        ..AuditOptions::default()
    }
}

/// The acceptance matrix: IC/AC/IS native runs audit clean under every
/// scheduling policy.
#[test]
fn clean_matrix_audits_clean_under_every_policy() {
    for kind in [
        PipelineKind::ImageClassification,
        PipelineKind::AudioClassification,
        PipelineKind::ImageSegmentation,
    ] {
        for policy in SchedulingPolicyKind::ALL {
            let run = audit_run(kind, policy, &options()).unwrap();
            assert!(
                run.report.clean(),
                "{}: clean run flagged: {:?}",
                run.name,
                run.report.findings
            );
            assert!(run.report.stats.events > 0, "{}: no events", run.name);
            assert!(run.batches > 0, "{}: no batches", run.name);
        }
    }
}

/// Every seeded backend mutation is flagged with its expected finding
/// kind, and the minimizer shrinks the counterexample window.
#[test]
fn every_seeded_mutation_is_flagged() {
    for (mutation, expected) in [
        (AuditMutation::SkipNotify, "missed-wake"),
        (AuditMutation::ReleaseRecheck, "ungated-commit"),
        (AuditMutation::LockOrder, "lock-cycle"),
    ] {
        let run = audit_run(
            PipelineKind::ImageClassification,
            SchedulingPolicyKind::RoundRobin,
            &AuditOptions {
                mutation,
                ..options()
            },
        )
        .unwrap();
        assert!(
            run.report.findings.iter().any(|f| f.kind() == expected),
            "{} escaped: {:?}",
            mutation.as_str(),
            run.report.findings
        );
        let window = minimized_window(&run).expect("flagged run yields a window");
        assert!(!window.is_empty());
        assert!(
            window.len() < run.events.len(),
            "{}: window did not shrink ({} events)",
            mutation.as_str(),
            window.len()
        );
        // The window is self-contained: re-analyzing it reproduces a
        // finding of the same kind.
        let again = analyze(&window, &AuditSpec::native_backend());
        assert!(again.findings.iter().any(|f| f.kind() == expected));
    }
}

/// A detached feed records nothing and charges nothing — the audit
/// instrumentation is zero-cost when switched off.
#[test]
fn detached_feed_is_free() {
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.batch_size = 4;
    config.num_workers = 2;
    let config = config.scaled_to(32);
    let loader = config.loader_defaults();
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let job = config.build_with(
        &machine,
        Arc::new(NullTracer) as _,
        None,
        loader,
        lotus::dataflow::FaultPlan::default(),
    );
    let feed = Arc::new(AuditFeed::new());
    feed.detach();
    NativeBackend::new(NativeOptions {
        status_check: Span::from_millis(20),
        emulate_gpu: false,
    })
    .with_audit(Arc::clone(&feed))
    .run(job)
    .unwrap();
    assert!(feed.is_empty());
    assert_eq!(feed.overhead_ns(), 0);
}

/// The bounded exploration passes the shipped code and catches every
/// seeded bug; counterexample schedules replay to the same verdict.
#[test]
fn model_exploration_catches_every_bug_and_passes_clean() {
    let bounds = ExploreBounds {
        max_schedules: 2_000,
        max_depth: 96,
        ..ExploreBounds::default()
    };
    let clean = explore_native_model(&ModelConfig::default(), &bounds);
    assert!(
        clean.clean(),
        "clean model flagged: {:?}",
        clean.counterexample
    );

    for bug in AuditMutation::ALL {
        let cfg = ModelConfig {
            bug,
            ..ModelConfig::default()
        };
        let report = explore_native_model(&cfg, &bounds);
        let cx = report
            .counterexample
            .unwrap_or_else(|| panic!("{} escaped the model explorer", bug.as_str()));
        assert!(!cx.violations.is_empty());
        let (replay, _) = run_model(&cfg, &cx.schedule, bounds.max_steps);
        assert!(
            !replay.violations.is_empty(),
            "{}: counterexample schedule did not replay",
            bug.as_str()
        );
    }
}
