//! Sim-vs-native protocol parity: the native execution backend must
//! produce wall-clock LotusTraces that satisfy every invariant the trace
//! linter enforces on simulated runs, conserve samples under worker
//! death, and land in the same bottleneck family as the simulation.
//!
//! Every assertion here is structural — counts, ordering, conservation,
//! lint cleanliness — never an absolute duration: wall-clock numbers
//! vary run to run and machine to machine, the protocol shape does not.

use std::collections::BTreeSet;
use std::sync::Arc;

use lotus::core::check::{
    lint_records, verify, ProtocolSpec, RecordingObserver, ReportFacts, RunEnding,
};
use lotus::core::metrics::names;
use lotus::core::trace::insights::Verdict;
use lotus::core::trace::SpanKind;
use lotus::dataflow::{
    ExecutionBackend, FaultPlan, NativeBackend, NativeOptions, SchedulingPolicyKind,
};
use lotus::running::{run_experiment, RunOptions, RunOutcome};
use lotus::sim::{Span, Time};
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

fn small_ic(items: u64, workers: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.batch_size = 16;
    config.num_workers = workers;
    config.scaled_to(items)
}

/// Fast native run: real threads and real queues, cost-only payloads
/// (materialization exercises the kernels, not the protocol, and the
/// protocol is what these tests pin down).
fn native_protocol_run(config: &ExperimentConfig, faults: FaultPlan) -> RunOutcome {
    let mut options = RunOptions::native();
    options.materialize = false;
    options.status_check = Span::from_millis(5);
    options.faults = faults;
    run_experiment(config, &options).expect("native run failed")
}

fn assert_lints_clean(outcome: &RunOutcome) {
    let facts = ReportFacts {
        elapsed: outcome.report.elapsed,
        batches: outcome.report.batches,
    };
    let findings = lint_records(&outcome.trace.records(), Some(&facts));
    assert!(
        findings.is_empty(),
        "native trace must pass every lint invariant, got: {findings:#?}"
    );
}

#[test]
fn native_trace_passes_every_lint_invariant() {
    let config = small_ic(96, 2);
    let outcome = native_protocol_run(&config, FaultPlan::default());
    assert_eq!(outcome.report.batches, 6);
    assert_eq!(outcome.report.samples, 96);
    assert_lints_clean(&outcome);
}

#[test]
fn native_materialized_trace_passes_every_lint_invariant() {
    // Real pixels through the codec and transform kernels, small enough
    // for a debug-build test run.
    let config = small_ic(32, 2);
    let mut options = RunOptions::native();
    options.status_check = Span::from_millis(5);
    let outcome = run_experiment(&config, &options).expect("native run failed");
    assert_eq!(outcome.report.batches, 2);
    assert_lints_clean(&outcome);
}

#[test]
fn native_run_consumes_every_batch_exactly_once_in_order() {
    let config = small_ic(128, 3);
    let outcome = native_protocol_run(&config, FaultPlan::default());
    let records = outcome.trace.records();

    let consumed: Vec<u64> = records
        .iter()
        .filter(|r| r.kind == SpanKind::BatchConsumed)
        .map(|r| r.batch_id)
        .collect();
    let expected: Vec<u64> = (0..outcome.report.batches).collect();
    assert_eq!(
        consumed, expected,
        "batches must be consumed exactly once each, in order"
    );

    // Sample conservation: every batch was fetched by exactly one worker.
    let fetched: Vec<u64> = records
        .iter()
        .filter(|r| r.kind == SpanKind::BatchPreprocessed)
        .map(|r| r.batch_id)
        .collect();
    let unique: BTreeSet<u64> = fetched.iter().copied().collect();
    assert_eq!(fetched.len(), unique.len(), "no batch fetched twice");
    assert_eq!(unique, expected.iter().copied().collect());
}

#[test]
fn native_worker_death_redispatches_and_still_lints_clean() {
    let config = small_ic(128, 2);
    let faults = FaultPlan::new(config.seed)
        .kill_process("dataloader1".to_string(), Time::ZERO + Span::from_millis(1));
    let outcome = native_protocol_run(&config, faults);

    // Conservation survives the death: the survivor picks up the orphans.
    assert_eq!(outcome.report.batches, 8);
    assert_eq!(outcome.report.samples, 128);

    let records = outcome.trace.records();
    let died = records
        .iter()
        .filter(|r| r.kind == SpanKind::WorkerDied)
        .count();
    assert_eq!(died, 1, "exactly one worker death observed");
    // The dead worker had dispatched-but-unfinished batches; each one
    // must carry a redispatch instant before its (single) consume.
    let redispatched = records
        .iter()
        .filter(|r| r.kind == SpanKind::BatchRedispatched)
        .count();
    assert!(redispatched > 0, "orphaned batches must be redispatched");
    assert_lints_clean(&outcome);
}

#[test]
fn simulated_verdict_family_predicts_the_native_one() {
    // The cross-validation the bench job relies on: the simulation's
    // bottleneck *family* (input-bound vs accelerator-bound) must match
    // what a real-thread run of the same configuration measures. IC with
    // paper defaults starves the accelerator in both worlds.
    let config = small_ic(64, 2);
    let sim = run_experiment(&config, &RunOptions::sim()).expect("sim run failed");

    let mut options = RunOptions::native();
    options.status_check = Span::from_millis(5);
    let native = run_experiment(&config, &options).expect("native run failed");

    assert_eq!(sim.report.batches, native.report.batches);
    assert_eq!(sim.report.samples, native.report.samples);
    let family = |outcome: &RunOutcome| outcome.scorecard.verdict.map(Verdict::family);
    let (sim_family, native_family) = (family(&sim), family(&native));
    assert_eq!(
        sim_family, native_family,
        "sim verdict {:?} vs native verdict {:?}",
        sim.scorecard.verdict, native.scorecard.verdict
    );
    assert_eq!(sim_family, Some("input-bound"));
}

#[test]
fn native_gauges_carry_wall_clock_timestamps_from_the_shared_clock() {
    // Satellite check for `lotus top --backend native`: queue-depth and
    // in-flight gauges must be stamped by the run's shared wall clock —
    // timestamps strictly inside [0, elapsed], monotone per series.
    let config = small_ic(96, 2);
    let outcome = native_protocol_run(&config, FaultPlan::default());
    let elapsed = outcome.report.elapsed;

    let gauges = &outcome.measurement.snapshot.gauges;
    let data_queue = format!("{}data_queue", names::QUEUE_DEPTH_PREFIX);
    for name in [data_queue.as_str(), "in_flight_batches"] {
        let series = gauges
            .get(name)
            .unwrap_or_else(|| panic!("native run must emit the `{name}` gauge"));
        assert!(!series.samples().is_empty());
        let mut last = Time::ZERO;
        for &(at, value) in series.samples() {
            assert!(at >= last, "gauge `{name}` timestamps must be monotone");
            assert!(
                at <= Time::ZERO + elapsed,
                "gauge `{name}` stamped past the run's elapsed time"
            );
            assert!(value >= 0.0);
            last = at;
        }
    }
    // The in-flight gauge is bounded by the dispatch discipline:
    // prefetch_factor × workers outstanding batches, never more.
    let loader = config.loader_defaults();
    let bound = (loader.prefetch_factor * loader.num_workers) as f64;
    let peak = gauges["in_flight_batches"]
        .samples()
        .iter()
        .fold(0.0f64, |m, &(_, v)| m.max(v));
    assert!(
        peak <= bound,
        "in-flight batches peaked at {peak}, above the dispatch bound {bound}"
    );
}

#[test]
fn native_trace_log_round_trips_and_lints_via_the_text_format() {
    // What `lotus run --log FILE` writes is exactly what
    // `lotus check --trace FILE` reads; the round trip must stay clean.
    let config = small_ic(64, 2);
    let outcome = native_protocol_run(&config, FaultPlan::default());
    let text = outcome.trace.to_log_string();
    let parsed: Vec<_> = text
        .lines()
        .map(|l| {
            lotus::core::trace::TraceRecord::parse_log_line(l).expect("every emitted line parses")
        })
        .collect();
    assert_eq!(parsed.len(), outcome.trace.len());
    let findings = lint_records(&parsed, None);
    assert!(
        findings.is_empty(),
        "round-tripped log must lint clean: {findings:#?}"
    );
}

#[test]
fn native_runs_uphold_the_invariant_catalog() {
    // The `lotus check` catalog judges native event streams as it judges
    // simulated ones. Real threads race where the simulator cannot: a
    // worker that fetched a batch before its dispatch was traced would
    // show up as an extra fetch (and a starved batch behind it). Cost-only
    // IC at batch 2 keeps fetches short enough for such races to surface.
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let backend = NativeBackend::new(NativeOptions {
        status_check: Span::from_millis(2),
        emulate_gpu: false,
    });
    let kill_one = FaultPlan::new(7).kill_process("dataloader1", Time::ZERO + Span::from_millis(1));
    let cases = [
        (2, FaultPlan::default(), "2 workers"),
        (3, FaultPlan::default(), "3 workers"),
        (3, kill_one, "3 workers, dataloader1 killed at 1 ms"),
    ];
    let mut failures = Vec::new();
    for round in 0..10 {
        for policy in SchedulingPolicyKind::ALL {
            for (workers, faults, label) in &cases {
                let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
                config.batch_size = 2;
                config.num_workers = *workers;
                let config = config.scaled_to(64).with_policy(policy);
                let loader = config.loader_defaults();
                let observer = Arc::new(RecordingObserver::new());
                let job = config.build_with(
                    &machine,
                    Arc::clone(&observer) as _,
                    None,
                    loader,
                    faults.clone(),
                );
                let report = backend
                    .run(job)
                    .unwrap_or_else(|e| panic!("{policy}, {label}: native run failed: {e}"));
                let spec = ProtocolSpec {
                    num_workers: loader.num_workers,
                    prefetch_factor: loader.prefetch_factor,
                    data_queue_cap: loader.data_queue_cap,
                    expected_batches: 32,
                    expected_samples: 64,
                };
                let ending = RunEnding::Completed {
                    batches: report.batches,
                    samples: report.samples,
                };
                for violation in verify(&spec, &observer.events(), &ending) {
                    failures.push(format!("round {round}, {policy}, {label}: {violation}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} invariant violation(s) on the native backend:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
