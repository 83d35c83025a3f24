//! The concrete `lotus check` runner: binds the bounded model checker in
//! [`lotus_core::check`] to the [`lotus_workloads`] pipelines.
//!
//! Each explored schedule builds a fresh machine and runs one
//! deterministic simulated epoch of a deliberately *small* configuration
//! (a few batches, 1–3 workers) under a
//! [`GuidedController`] that steers every
//! ready-event tie, with a zero-overhead [`RecordingObserver`] capturing
//! the protocol events. The run's event log is judged against the
//! safety-invariant catalog; the DFS in [`lotus_core::check::explorer`]
//! expands untried tie-breaks until the bounded schedule space is
//! exhausted or a violation is minimized into a replayable
//! counterexample.

use std::sync::Arc;

use lotus_core::check::{
    explore, verify, ExploreBounds, ExploreReport, ProtocolSpec, RecordingObserver, RunEnding,
    ScheduledRun, Violation,
};
use lotus_dataflow::{
    DataLoaderConfig, FaultPlan, JobError, JobReport, LoaderMutation, NullTracer,
    SchedulingPolicyKind, TraceEvent,
};
use lotus_sim::{DecisionRecord, GuidedController, SimError, Span, Time};
use lotus_uarch::{Machine, MachineConfig};
use lotus_workloads::{ExperimentConfig, PipelineKind};

/// Options for one `lotus check` run.
///
/// # Examples
///
/// ```
/// use lotus::checking::{check_pipeline, CheckOptions};
/// use lotus::workloads::PipelineKind;
///
/// let mut options = CheckOptions::default();
/// options.bounds.max_schedules = 8; // a quick doc-test-sized sweep
/// options.with_faults = false;
/// let checks = check_pipeline(PipelineKind::ImageClassification, &options);
/// assert!(checks.iter().all(|(_, report)| report.clean()));
/// ```
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Exploration limits (schedules, depth, branching, step budget).
    pub bounds: ExploreBounds,
    /// Worker processes in the checked configuration (keep small: the
    /// schedule space grows factorially).
    pub workers: usize,
    /// Dataset items in the checked configuration.
    pub items: u64,
    /// Samples per batch.
    pub batch_size: usize,
    /// Also explore a fault scenario that kills one worker mid-epoch
    /// (requires `workers >= 2` so a survivor can finish).
    pub with_faults: bool,
    /// Test-only loader mutation to seed a protocol bug (used by the
    /// `--mutate` validation mode and the self-test suite).
    pub mutation: LoaderMutation,
    /// Dispatch policy the checked loader schedules with.
    pub policy: SchedulingPolicyKind,
}

impl Default for CheckOptions {
    /// Two workers over 16 items in batches of 4 (four batches), with
    /// the fault scenario enabled and no mutation.
    fn default() -> CheckOptions {
        CheckOptions {
            bounds: ExploreBounds::default(),
            workers: 2,
            items: 16,
            batch_size: 4,
            with_faults: true,
            mutation: LoaderMutation::None,
            policy: SchedulingPolicyKind::RoundRobin,
        }
    }
}

/// One concrete configuration + fault plan the checker explores.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable scenario label, e.g. `IC workers=2 no-faults`.
    pub name: String,
    /// The (small) experiment configuration.
    pub experiment: ExperimentConfig,
    /// Loader knobs under check (bounded data queue so the cap invariant
    /// has teeth).
    pub loader: DataLoaderConfig,
    /// Fault plan applied to every explored schedule.
    pub faults: FaultPlan,
    /// Seeded loader mutation ([`LoaderMutation::None`] for real checks).
    pub mutation: LoaderMutation,
}

impl Scenario {
    /// The protocol facts the invariant catalog judges runs against.
    #[must_use]
    pub fn spec(&self) -> ProtocolSpec {
        let items = self.experiment.dataset_items.unwrap_or(0);
        // drop_last is set: only full batches are dispatched.
        let expected_batches = items / self.loader.batch_size as u64;
        ProtocolSpec {
            num_workers: self.loader.num_workers,
            prefetch_factor: self.loader.prefetch_factor,
            data_queue_cap: self.loader.data_queue_cap,
            expected_batches,
            expected_samples: expected_batches * self.loader.batch_size as u64,
        }
    }
}

/// Everything one guided run produced: the decision log (for the DFS),
/// the verdict, and the raw evidence (for counterexample printing).
#[derive(Debug, Clone)]
pub struct ScheduledOutcome {
    /// The controller's decision log.
    pub decisions: Vec<DecisionRecord>,
    /// Invariant violations of this run.
    pub violations: Vec<Violation>,
    /// How the run ended.
    pub ending: RunEnding,
    /// The recorded protocol events.
    pub events: Vec<TraceEvent<'static>>,
}

fn small_experiment(kind: PipelineKind, options: &CheckOptions) -> ExperimentConfig {
    ExperimentConfig {
        pipeline: kind,
        batch_size: options.batch_size,
        num_gpus: 1,
        num_workers: options.workers,
        dataset_items: Some(options.items),
        seed: 0x0107,
        storage: None,
        sequential_access: false,
        policy: options.policy,
    }
}

fn checked_loader(experiment: &ExperimentConfig) -> DataLoaderConfig {
    let mut loader = experiment.loader_defaults();
    // A bounded data queue makes the queue-cap invariant meaningful.
    loader.data_queue_cap = Some(loader.prefetch_factor * loader.num_workers);
    loader
}

/// Builds the scenarios `lotus check` explores for one pipeline: the
/// fault-free protocol, plus (when enabled and survivable) a mid-epoch
/// worker kill that exercises death observation and redispatch.
#[must_use]
pub fn scenarios(kind: PipelineKind, options: &CheckOptions) -> Vec<Scenario> {
    let experiment = small_experiment(kind, options);
    let loader = checked_loader(&experiment);
    let policy_tag = if options.policy == SchedulingPolicyKind::RoundRobin {
        String::new()
    } else {
        format!(" policy={}", options.policy.as_str())
    };
    let mut out = vec![Scenario {
        name: format!(
            "{} workers={} no-faults{policy_tag}",
            kind.abbrev(),
            options.workers
        ),
        experiment,
        loader,
        faults: FaultPlan::default(),
        mutation: options.mutation,
    }];
    if options.with_faults && options.workers >= 2 {
        let kill_at = match baseline_elapsed(&out[0]) {
            Some(elapsed) => Time::ZERO + elapsed.mul_f64(0.5),
            None => Time::ZERO + Span::from_millis(50),
        };
        out.push(Scenario {
            name: format!(
                "{} workers={} kill worker0 @{:.0}ms{policy_tag}",
                kind.abbrev(),
                options.workers,
                kill_at.as_nanos() as f64 / 1e6
            ),
            experiment,
            loader,
            faults: FaultPlan::new(experiment.seed).kill_process("dataloader0", kill_at),
            mutation: options.mutation,
        });
    }
    out
}

/// Elapsed virtual time of the scenario under the default schedule with
/// no faults, used to aim the kill mid-epoch.
fn baseline_elapsed(scenario: &Scenario) -> Option<Span> {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    scenario
        .experiment
        .build_with(
            &machine,
            Arc::new(NullTracer) as _,
            None,
            scenario.loader,
            FaultPlan::default(),
        )
        .run()
        .ok()
        .map(|report| report.elapsed)
}

fn classify(outcome: Result<JobReport, JobError>) -> RunEnding {
    match outcome {
        Ok(report) => RunEnding::Completed {
            batches: report.batches,
            samples: report.samples,
        },
        Err(JobError::Sample { .. }) => RunEnding::SampleError,
        Err(JobError::AllWorkersDied { .. }) => RunEnding::AllWorkersDied,
        Err(JobError::Sim(SimError::StepLimit { .. })) => RunEnding::StepLimit,
        Err(JobError::Sim(e @ SimError::Deadlock { .. })) => RunEnding::Deadlock(e.to_string()),
        Err(JobError::Sim(SimError::ProcessPanic { process, message })) => {
            RunEnding::Panic(format!("{process}: {message}"))
        }
        Err(JobError::InvalidConfig(message)) => {
            RunEnding::Panic(format!("invalid configuration: {message}"))
        }
    }
}

/// Runs one guided simulation of `scenario` under `schedule` and judges
/// it against the invariant catalog. Identical inputs replay
/// byte-identically — this is both the explorer's probe and the
/// `--replay` entry point.
#[must_use]
pub fn run_scheduled(
    scenario: &Scenario,
    schedule: &[usize],
    bounds: &ExploreBounds,
) -> ScheduledOutcome {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let observer = Arc::new(RecordingObserver::new());
    let controller = GuidedController::new(schedule.to_vec(), bounds.max_steps);
    let mut job = scenario.experiment.build_with(
        &machine,
        Arc::clone(&observer) as _,
        None,
        scenario.loader,
        scenario.faults.clone(),
    );
    job.controller = Some(Arc::clone(&controller) as _);
    job.mutation = scenario.mutation;
    let ending = classify(job.run());
    let events = observer.events();
    let violations = verify(&scenario.spec(), &events, &ending);
    ScheduledOutcome {
        decisions: controller.decisions(),
        violations,
        ending,
        events,
    }
}

/// Explores one scenario's schedule space within `bounds`.
#[must_use]
pub fn check_scenario(scenario: &Scenario, bounds: &ExploreBounds) -> ExploreReport {
    explore(bounds, |schedule| {
        let outcome = run_scheduled(scenario, schedule, bounds);
        ScheduledRun {
            decisions: outcome.decisions,
            violations: outcome.violations,
        }
    })
}

/// Runs the full check for one pipeline: every scenario from
/// [`scenarios`], each explored within `options.bounds`.
#[must_use]
pub fn check_pipeline(
    kind: PipelineKind,
    options: &CheckOptions,
) -> Vec<(Scenario, ExploreReport)> {
    scenarios(kind, options)
        .into_iter()
        .map(|scenario| {
            let report = check_scenario(&scenario, &options.bounds);
            (scenario, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> CheckOptions {
        CheckOptions {
            bounds: ExploreBounds {
                max_schedules: 12,
                ..ExploreBounds::default()
            },
            with_faults: false,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn unmutated_ic_scenario_is_clean() {
        let options = quick_options();
        for (scenario, report) in check_pipeline(PipelineKind::ImageClassification, &options) {
            assert!(
                report.clean(),
                "{}: {:?}",
                scenario.name,
                report.counterexample
            );
            assert!(report.stats.schedules_run > 0);
        }
    }

    #[test]
    fn lose_batch_mutation_is_caught_and_replayable() {
        let mut options = quick_options();
        options.mutation = LoaderMutation::LoseBatch { batch_id: 1 };
        let scenario = &scenarios(PipelineKind::ImageClassification, &options)[0];
        let report = check_scenario(scenario, &options.bounds);
        let cx = report.counterexample.expect("lost batch must be detected");
        assert!(
            cx.violations
                .iter()
                .any(|v| matches!(v, Violation::Stalled { .. })),
            "losing a batch stalls the epoch: {:?}",
            cx.violations
        );
        // The counterexample replays deterministically.
        let replay = run_scheduled(scenario, &cx.schedule, &options.bounds);
        assert_eq!(replay.violations, cx.violations);
        assert_eq!(replay.ending, RunEnding::StepLimit);
    }

    #[test]
    fn premature_redispatch_mutation_is_caught() {
        let mut options = quick_options();
        options.mutation = LoaderMutation::RedispatchLive { batch_id: 1 };
        let scenario = &scenarios(PipelineKind::ImageClassification, &options)[0];
        let report = check_scenario(scenario, &options.bounds);
        let cx = report
            .counterexample
            .expect("premature redispatch must be detected");
        assert!(
            cx.violations.iter().any(|v| matches!(
                v,
                Violation::RedispatchBeforeDeath { .. } | Violation::DoubleDispatch { .. }
            )),
            "redispatching a live worker's batch violates dispatch discipline: {:?}",
            cx.violations
        );
    }
}
