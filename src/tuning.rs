//! The concrete `lotus tune` runner: binds the generic search engine in
//! [`lotus_core::tune`] to the [`lotus_workloads`] pipelines.
//!
//! Each trial runs one deterministic simulated epoch of the chosen
//! pipeline under the candidate DataLoader configuration, through the
//! same **zero-overhead** measurement harness as `lotus run`, so the
//! scorecards reflect the pipeline itself, not the instrumentation, and
//! a trial scores exactly like `lotus run --backend sim` of the same
//! configuration. A [`FaultPlan`] composes: a trial whose run degrades
//! (worker kills, sample errors, deadlocks) becomes a failed scorecard
//! instead of aborting the sweep.

use std::path::PathBuf;

use lotus_core::exec::{self, TrialCache};
use lotus_core::tune::{SearchSpace, Strategy, TrialConfig, TrialMeasurement, TuneReport, Tuner};
use lotus_dataflow::FaultPlan;
use lotus_workloads::ExperimentConfig;

use crate::running::Harness;

/// Options for one tuning run.
///
/// # Examples
///
/// ```
/// use lotus::tuning::{tune_experiment, TuneOptions};
/// use lotus::workloads::{ExperimentConfig, PipelineKind};
///
/// let experiment = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
///     .scaled_to(256);
/// let report = tune_experiment(&experiment, &TuneOptions::default())?;
/// assert!(report.cards.iter().any(|c| c.is_ok()));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Candidate knob values to explore.
    pub space: SearchSpace,
    /// Grid sweep or hill climbing.
    pub strategy: Strategy,
    /// Fault plan applied to every trial run ([`FaultPlan::default`]
    /// injects nothing).
    pub faults: FaultPlan,
    /// Parallel measurement threads. Output is byte-identical for every
    /// value — see [`Tuner::run_with`].
    pub jobs: usize,
    /// Root of the on-disk trial cache, or `None` to run every trial
    /// live. The cache key covers the experiment fingerprint, machine,
    /// fault plan, and trial knobs, so stale hits are impossible.
    pub cache_dir: Option<PathBuf>,
}

impl Default for TuneOptions {
    /// Grid search over [`SearchSpace::default`] with no faults, fanned
    /// over the machine's available parallelism, without a cache.
    fn default() -> Self {
        TuneOptions {
            space: SearchSpace::default(),
            strategy: Strategy::Grid,
            faults: FaultPlan::default(),
            jobs: exec::default_jobs(),
            cache_dir: None,
        }
    }
}

/// The baseline configuration a tuning run is judged against: the
/// experiment's own worker count with PyTorch-shaped defaults for the
/// remaining knobs (matching [`ExperimentConfig::loader_defaults`]).
#[must_use]
pub fn baseline_trial(experiment: &ExperimentConfig) -> TrialConfig {
    let defaults = experiment.loader_defaults();
    TrialConfig {
        num_workers: defaults.num_workers,
        prefetch_factor: defaults.prefetch_factor,
        data_queue_cap: defaults.data_queue_cap,
        pin_memory: defaults.pin_memory,
    }
}

/// Runs the configuration search for one workload and returns the
/// report (scorecards, Pareto frontier, recommendation, predicted
/// speedup). Everything is virtual-time simulation, so a full sweep is
/// fast and the same inputs always produce byte-identical
/// [`TuneReport::to_json`] output.
///
/// # Errors
///
/// Returns an error when the search space is invalid or no candidate
/// configuration (baseline included) completed successfully.
pub fn tune_experiment(
    experiment: &ExperimentConfig,
    options: &TuneOptions,
) -> Result<TuneReport, String> {
    let tuner = Tuner {
        space: options.space.clone(),
        strategy: options.strategy,
    };
    let cache = match &options.cache_dir {
        // An unopenable cache directory degrades to live execution; the
        // sweep itself must not fail on a read-only working directory.
        Some(root) => TrialCache::open(root, trial_context(experiment, &options.faults)).ok(),
        None => None,
    };
    tuner.run_with(
        baseline_trial(experiment),
        |trial| run_trial(experiment, trial, &options.faults),
        options.jobs,
        cache.as_ref(),
    )
}

/// The trial-cache context string: everything a trial's outcome depends
/// on besides its own four knobs — the experiment fingerprint, the
/// simulated machine, and the fault plan.
#[must_use]
pub fn trial_context(experiment: &ExperimentConfig, faults: &FaultPlan) -> String {
    format!(
        "{}; machine=cloudlab_c4130; faults[{}]",
        experiment.fingerprint(),
        faults.fingerprint()
    )
}

/// Runs one candidate configuration: one simulated epoch under the
/// zero-overhead measurement harness.
///
/// # Errors
///
/// Returns the loader-validation or job error as a string — the tuner
/// records it as a degraded (failed) scorecard.
pub fn run_trial(
    experiment: &ExperimentConfig,
    trial: &TrialConfig,
    faults: &FaultPlan,
) -> Result<TrialMeasurement, String> {
    let loader = trial.apply(experiment.loader_defaults());
    loader.validate()?;
    let harness = Harness::new(loader.num_workers);
    let report = harness
        .job(experiment, loader, faults.clone(), false)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(harness.measurement(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_workloads::PipelineKind;

    #[test]
    fn baseline_matches_loader_defaults() {
        let experiment = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
        let trial = baseline_trial(&experiment);
        assert_eq!(trial.num_workers, experiment.num_workers);
        assert_eq!(trial.prefetch_factor, 2);
        assert_eq!(trial.data_queue_cap, None);
        assert!(trial.pin_memory);
    }

    #[test]
    fn invalid_trial_is_reported_not_panicked() {
        let experiment = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
        let bad = TrialConfig {
            num_workers: 0,
            prefetch_factor: 2,
            data_queue_cap: None,
            pin_memory: true,
        };
        let err = run_trial(&experiment, &bad, &FaultPlan::default()).unwrap_err();
        assert_eq!(
            err,
            "num_workers must be at least 1 (worker-process data loading)"
        );
    }
}
