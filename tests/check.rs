//! Integration tests for `lotus check`: randomized (seeded) schedules and
//! fault plans never violate the invariant catalog on the unmutated
//! loader; deliberately seeded loader bugs are always flagged; fresh
//! traces and their Chrome round-trips lint clean.

use std::sync::Arc;

use lotus::checking::{check_scenario, run_scheduled, scenarios, CheckOptions};
use lotus::core::check::{
    lint_records, verify, ProtocolSpec, RecordingObserver, ReportFacts, RunEnding, Violation,
};
use lotus::core::metrics::MultiSink;
use lotus::core::trace::chrome::{from_chrome_trace, to_chrome_trace, ChromeTraceOptions};
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus::dataflow::{FaultPlan, LoaderMutation, SchedulingPolicyKind};
use lotus::sim::{Span, Time};
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};
use proptest::prelude::*;

fn quick_options(workers: usize) -> CheckOptions {
    CheckOptions {
        workers,
        with_faults: false,
        ..CheckOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any schedule prefix, any surviving-kill fault plan: the unmutated
    /// loader upholds every invariant in the catalog.
    #[test]
    fn randomized_schedules_and_faults_never_violate_the_unmutated_loader(
        workers in 1usize..=3,
        schedule in prop::collection::vec(0usize..4, 0..10),
        kill in prop::option::of((0usize..8, 20u64..400)),
    ) {
        let options = quick_options(workers);
        let mut scenario = scenarios(PipelineKind::ImageClassification, &options)
            .into_iter()
            .next()
            .expect("at least the no-fault scenario");
        if let (Some((victim, at_ms)), true) = (kill, workers >= 2) {
            // Kill exactly one worker so survivors can finish the epoch.
            scenario.faults = FaultPlan::new(7).kill_process(
                format!("dataloader{}", victim % workers),
                Time::ZERO + Span::from_millis(at_ms),
            );
        }
        let outcome = run_scheduled(&scenario, &schedule, &options.bounds);
        prop_assert!(
            outcome.violations.is_empty(),
            "schedule {schedule:?}, kill {kill:?}: ending {:?}, violations {:?}",
            outcome.ending,
            outcome.violations
        );
    }

    /// A loader that silently drops a batch stalls the epoch under every
    /// schedule, and the catalog flags it.
    #[test]
    fn lost_batch_is_flagged_under_every_schedule(
        schedule in prop::collection::vec(0usize..4, 0..8),
        batch_id in 0u64..4,
    ) {
        let mut options = quick_options(2);
        options.mutation = LoaderMutation::LoseBatch { batch_id };
        let scenario = &scenarios(PipelineKind::ImageClassification, &options)[0];
        let outcome = run_scheduled(scenario, &schedule, &options.bounds);
        prop_assert!(
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Stalled { .. })),
            "schedule {schedule:?}, lost batch {batch_id}: ending {:?}, violations {:?}",
            outcome.ending,
            outcome.violations
        );
    }

    /// A loader that redispatches a live worker's batch violates dispatch
    /// discipline under every schedule.
    #[test]
    fn premature_redispatch_is_flagged_under_every_schedule(
        schedule in prop::collection::vec(0usize..4, 0..8),
    ) {
        let mut options = quick_options(2);
        options.mutation = LoaderMutation::RedispatchLive { batch_id: 1 };
        let scenario = &scenarios(PipelineKind::ImageClassification, &options)[0];
        let outcome = run_scheduled(scenario, &schedule, &options.bounds);
        prop_assert!(
            outcome.violations.iter().any(|v| matches!(
                v,
                Violation::RedispatchBeforeDeath { .. } | Violation::DoubleDispatch { .. }
            )),
            "schedule {schedule:?}: violations {:?}",
            outcome.violations
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every scheduling policy — not just the round-robin default —
    /// upholds sample conservation, dispatch discipline and progress
    /// under randomized schedules and surviving-kill plans.
    #[test]
    fn every_policy_upholds_the_catalog_under_randomized_kill_plans(
        policy_idx in 0usize..SchedulingPolicyKind::ALL.len(),
        workers in 1usize..=3,
        schedule in prop::collection::vec(0usize..4, 0..8),
        kill in prop::option::of((0usize..8, 20u64..400)),
    ) {
        let policy = SchedulingPolicyKind::ALL[policy_idx];
        let mut options = quick_options(workers);
        options.policy = policy;
        let mut scenario = scenarios(PipelineKind::ImageClassification, &options)
            .into_iter()
            .next()
            .expect("at least the no-fault scenario");
        if let (Some((victim, at_ms)), true) = (kill, workers >= 2) {
            scenario.faults = FaultPlan::new(7).kill_process(
                format!("dataloader{}", victim % workers),
                Time::ZERO + Span::from_millis(at_ms),
            );
        }
        let outcome = run_scheduled(&scenario, &schedule, &options.bounds);
        prop_assert!(
            outcome.violations.is_empty(),
            "{policy:?}: schedule {schedule:?}, kill {kill:?}: ending {:?}, violations {:?}",
            outcome.ending,
            outcome.violations
        );
    }

    /// Seeded loader bugs stay detectable no matter which policy is
    /// dispatching: a lost batch stalls, a premature redispatch breaks
    /// dispatch discipline.
    #[test]
    fn seeded_mutations_are_detected_under_every_policy(
        policy_idx in 0usize..SchedulingPolicyKind::ALL.len(),
        schedule in prop::collection::vec(0usize..4, 0..6),
        lose in any::<bool>(),
    ) {
        let policy = SchedulingPolicyKind::ALL[policy_idx];
        let mut options = quick_options(2);
        options.policy = policy;
        options.mutation = if lose {
            LoaderMutation::LoseBatch { batch_id: 1 }
        } else {
            LoaderMutation::RedispatchLive { batch_id: 1 }
        };
        let scenario = &scenarios(PipelineKind::ImageClassification, &options)[0];
        let outcome = run_scheduled(scenario, &schedule, &options.bounds);
        let detected = if lose {
            outcome
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Stalled { .. }))
        } else {
            outcome.violations.iter().any(|v| matches!(
                v,
                Violation::RedispatchBeforeDeath { .. } | Violation::DoubleDispatch { .. }
            ))
        };
        prop_assert!(
            detected,
            "{policy:?} lose={lose}: schedule {schedule:?}: violations {:?}",
            outcome.violations
        );
    }
}

/// The full explorer over the fault scenario: clean on the unmutated
/// loader, and the counterexample it finds for a seeded bug replays to
/// the identical verdict.
#[test]
fn explorer_is_clean_unmutated_and_counterexamples_replay() {
    let mut options = quick_options(2);
    options.with_faults = true;
    options.bounds.max_schedules = 16;
    for scenario in scenarios(PipelineKind::AudioClassification, &options) {
        let report = check_scenario(&scenario, &options.bounds);
        assert!(
            report.clean(),
            "{}: {:?}",
            scenario.name,
            report.counterexample
        );
    }

    options.mutation = LoaderMutation::LoseBatch { batch_id: 2 };
    let scenario = &scenarios(PipelineKind::AudioClassification, &options)[0];
    let report = check_scenario(scenario, &options.bounds);
    let cx = report.counterexample.expect("seeded bug found");
    let replay_a = run_scheduled(scenario, &cx.schedule, &options.bounds);
    let replay_b = run_scheduled(scenario, &cx.schedule, &options.bounds);
    assert_eq!(replay_a.violations, cx.violations);
    assert_eq!(replay_a.violations, replay_b.violations);
    assert_eq!(
        replay_a.decisions, replay_b.decisions,
        "replays are deterministic"
    );
}

/// A fresh LotusTrace of a faulty run lints clean, directly and after a
/// Chrome-trace round trip; the same run's live event stream, gauges
/// included, satisfies the invariant catalog.
#[test]
fn fresh_traces_and_chrome_round_trips_lint_clean() {
    // A mid-epoch kill is survivable with >= 2 workers and exercises the
    // death/redispatch lint rules; IC's paper default is 1 worker and a
    // batch of 128, so shrink to 8 batches of 8 across 2 workers.
    let mut experiment =
        ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(64);
    experiment.batch_size = 8;
    experiment.num_workers = 2;
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        per_log_overhead: Span::ZERO,
        op_mode: OpLogMode::Full,
    }));
    let mut loader = experiment.loader_defaults();
    loader.data_queue_cap = Some(8);
    let observer = Arc::new(RecordingObserver::new());
    let sinks = Arc::new(
        MultiSink::new()
            .with(Arc::clone(&trace) as _)
            .with(Arc::clone(&observer) as _),
    );
    let faults = FaultPlan::new(experiment.seed)
        .kill_process("dataloader0", Time::ZERO + Span::from_millis(5));
    let report = experiment
        .build_with(&machine, sinks as _, None, loader, faults)
        .run()
        .expect("survivor finishes the epoch");
    assert_eq!(report.batches, 8, "the kill must not end the epoch early");

    let records = trace.records();
    assert!(
        records
            .iter()
            .any(|r| r.kind == lotus::core::trace::SpanKind::WorkerDied),
        "the kill must land mid-epoch so death/redispatch rules are exercised"
    );
    let facts = ReportFacts {
        elapsed: report.elapsed,
        batches: report.batches,
    };
    let findings = lint_records(&records, Some(&facts));
    assert!(findings.is_empty(), "fresh trace: {findings:#?}");

    let doc = to_chrome_trace(&records, ChromeTraceOptions { coarse: false });
    let reimported = from_chrome_trace(&doc).expect("round trip parses");
    let findings = lint_records(&reimported, Some(&facts));
    assert!(findings.is_empty(), "chrome round trip: {findings:#?}");

    let spec = ProtocolSpec {
        num_workers: loader.num_workers,
        prefetch_factor: loader.prefetch_factor,
        data_queue_cap: loader.data_queue_cap,
        expected_batches: 8,
        expected_samples: 64,
    };
    let ending = RunEnding::Completed {
        batches: report.batches,
        samples: report.samples,
    };
    let violations = verify(&spec, &observer.events(), &ending);
    assert!(violations.is_empty(), "live events: {violations:#?}");
}

/// The linter catches seeded corruption: a duplicated delivery, a broken
/// queue-delay identity, and an orphan redispatch mark.
#[test]
fn linter_flags_seeded_trace_corruption() {
    let mut experiment =
        ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(32);
    experiment.batch_size = 8;
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        per_log_overhead: Span::ZERO,
        op_mode: OpLogMode::Full,
    }));
    experiment
        .build(&machine, Arc::clone(&trace) as _, None)
        .run()
        .expect("clean run");
    let records = trace.records();
    assert!(lint_records(&records, None).is_empty());

    use lotus::core::trace::SpanKind;
    // Duplicate a delivery.
    let mut corrupted = records.clone();
    let wait = corrupted
        .iter()
        .find(|r| r.kind == SpanKind::BatchWait)
        .expect("some wait")
        .clone();
    corrupted.push(wait);
    assert!(!lint_records(&corrupted, None).is_empty());

    // Break the queue-delay arithmetic.
    let mut corrupted = records.clone();
    let wait = corrupted
        .iter_mut()
        .find(|r| r.kind == SpanKind::BatchWait)
        .expect("some wait");
    wait.queue_delay += Span::from_nanos(1);
    assert!(!lint_records(&corrupted, None).is_empty());

    // An orphan redispatch mark with no preceding death.
    let mut corrupted = records.clone();
    let mut mark = corrupted[0].clone();
    mark.kind = SpanKind::BatchRedispatched;
    corrupted.insert(0, mark);
    assert!(!lint_records(&corrupted, None).is_empty());
}
