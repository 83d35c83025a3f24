//! Integration tests for `lotus tune`: ground-truth recommendations,
//! byte-deterministic JSON, fault-plan composition, and the bounded
//! data-queue memory/throughput trade-off.

use lotus::core::trace::insights::Verdict;
use lotus::core::tune::{SearchSpace, Strategy};
use lotus::dataflow::FaultPlan;
use lotus::sim::{Span, Time};
use lotus::tuning::{baseline_trial, tune_experiment, TuneOptions};
use lotus::workloads::{ExperimentConfig, PipelineKind};

/// The AC pipeline anchored at one worker: transform-heavy audio
/// preprocessing starves the GPU, so the ground truth is unambiguous —
/// adding workers must win, by a measured margin.
fn preprocessing_bound_experiment() -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(PipelineKind::AudioClassification);
    config.num_workers = 1;
    config.scaled_to(256)
}

#[test]
fn ground_truth_preprocessing_bound_pipeline_wants_more_workers() {
    let config = preprocessing_bound_experiment();
    let report = tune_experiment(&config, &TuneOptions::default()).unwrap();

    // The baseline (1 worker) must be diagnosed as preprocessing-bound.
    assert_eq!(
        report.baseline.verdict,
        Some(Verdict::PreprocessingBound),
        "1-worker AC starves the consumer on transforms"
    );

    // The recommendation must add workers and beat the default
    // DataLoaderConfig by a measured margin.
    assert!(
        report.recommended.num_workers > 1,
        "recommended {:?}",
        report.recommended
    );
    let baseline = &report.baseline;
    let recommended = report.recommended_card();
    assert!(
        recommended.throughput > 1.5 * baseline.throughput,
        "recommended {:.1} samples/s vs baseline {:.1}",
        recommended.throughput,
        baseline.throughput
    );
    let speedup = report.predicted_speedup.unwrap();
    assert!(speedup > 1.5, "predicted speedup {speedup}");
    // The prediction is the measured elapsed ratio, not an extrapolation.
    let measured = baseline.elapsed.as_secs_f64() / recommended.elapsed.as_secs_f64();
    assert!((speedup - measured).abs() < 1e-9);

    // The frontier is consistent: sorted by footprint, recommended on it.
    assert!(report.frontier.contains(&report.recommended));
    let footprints: Vec<f64> = report
        .frontier
        .iter()
        .map(|c| {
            report
                .cards
                .iter()
                .find(|card| card.config == *c)
                .unwrap()
                .footprint_batches
        })
        .collect();
    assert!(
        footprints.windows(2).all(|w| w[0] < w[1]),
        "frontier footprints must strictly increase: {footprints:?}"
    );
}

#[test]
fn same_seed_produces_byte_identical_json() {
    let config = preprocessing_bound_experiment();
    let options = TuneOptions {
        strategy: Strategy::HillClimb { max_moves: 8 },
        ..TuneOptions::default()
    };
    let a = tune_experiment(&config, &options).unwrap().to_json();
    let b = tune_experiment(&config, &options).unwrap().to_json();
    assert_eq!(a, b, "virtual-time tuning must be byte-deterministic");
    // And a different seed is genuinely a different run (the sampler
    // shuffles differently), not a constant.
    let mut reseeded = config;
    reseeded.seed = 0xBEEF;
    let c = tune_experiment(&reseeded, &options).unwrap().to_json();
    assert_ne!(a, c, "seed must reach the simulation");
}

#[test]
fn fault_plan_degrades_configs_without_aborting_the_sweep() {
    let config = preprocessing_bound_experiment();
    // Kill worker 0 almost immediately: single-worker trials lose their
    // only worker and die; multi-worker trials redispatch and survive.
    let options = TuneOptions {
        space: SearchSpace {
            workers: vec![1, 2, 4],
            prefetch: vec![2],
            queue_caps: vec![None],
            pin_memory: vec![true],
        },
        strategy: Strategy::Grid,
        faults: FaultPlan::new(config.seed)
            .kill_process("dataloader0", Time::ZERO + Span::from_millis(5)),
        ..TuneOptions::default()
    };
    let report = tune_experiment(&config, &options).unwrap();

    let degraded: Vec<_> = report.cards.iter().filter(|c| !c.is_ok()).collect();
    assert!(
        !degraded.is_empty(),
        "1-worker trials must be reported as degraded"
    );
    assert!(degraded.iter().all(|c| c.config.num_workers == 1));
    assert!(
        degraded[0]
            .failed
            .as_deref()
            .unwrap()
            .contains("exited unexpectedly"),
        "failure must carry the job error: {:?}",
        degraded[0].failed
    );

    // Surviving trials carry the worker death in their scorecards, and
    // the recommendation avoids the degraded configuration.
    let survivors: Vec<_> = report.cards.iter().filter(|c| c.is_ok()).collect();
    assert!(!survivors.is_empty());
    assert!(survivors.iter().all(|c| c.worker_deaths == 1));
    assert!(report.recommended.num_workers > 1);
    // The baseline died, so no speedup prediction is possible.
    assert!(report.baseline.failed.is_some());
    assert!(report.predicted_speedup.is_none());
}

#[test]
fn bounded_data_queue_trades_throughput_for_footprint() {
    // IC with a slow consumer relative to 4 workers: unbounded queues let
    // batches pile up; a cap of 1 holds the footprint down.
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.num_workers = 4;
    let config = config.scaled_to(512);
    let options = TuneOptions {
        space: SearchSpace {
            workers: vec![4],
            prefetch: vec![2],
            queue_caps: vec![None, Some(1)],
            pin_memory: vec![true],
        },
        strategy: Strategy::Grid,
        faults: FaultPlan::default(),
        ..TuneOptions::default()
    };
    let report = tune_experiment(&config, &options).unwrap();
    let card = |cap: Option<usize>| {
        report
            .cards
            .iter()
            .find(|c| c.config.data_queue_cap == cap)
            .unwrap()
    };
    let unbounded = card(None);
    let bounded = card(Some(1));
    assert!(bounded.is_ok() && unbounded.is_ok());
    assert!(
        bounded.footprint_batches < unbounded.footprint_batches,
        "cap=1 must shrink peak resident batches: {} vs {}",
        bounded.footprint_batches,
        unbounded.footprint_batches
    );
    // Both consume the full epoch.
    assert_eq!(bounded.samples, unbounded.samples);
}

#[test]
fn baseline_trial_mirrors_experiment_defaults() {
    let config = ExperimentConfig::paper_default(PipelineKind::ObjectDetection);
    let trial = baseline_trial(&config);
    let loader = trial.apply(config.loader_defaults());
    assert_eq!(loader, config.loader_defaults());
}

#[test]
fn parallel_jobs_produce_byte_identical_reports() {
    let config = preprocessing_bound_experiment();
    let serial = tune_experiment(
        &config,
        &TuneOptions {
            jobs: 1,
            ..TuneOptions::default()
        },
    )
    .unwrap();
    let parallel = tune_experiment(
        &config,
        &TuneOptions {
            jobs: 4,
            ..TuneOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "--jobs must never change a report byte"
    );
    assert_eq!(serial.recommended, parallel.recommended);
    assert_eq!(serial.pruned, parallel.pruned);
}

#[test]
fn warm_trial_cache_replays_the_sweep_without_live_trials() {
    let cache_dir =
        std::env::temp_dir().join(format!("lotus-tune-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let config = preprocessing_bound_experiment();
    let options = TuneOptions {
        jobs: 4,
        cache_dir: Some(cache_dir.clone()),
        ..TuneOptions::default()
    };
    let cold = tune_experiment(&config, &options).unwrap();
    assert!(cold.trials_live > 0, "cold cache must run live trials");
    assert_eq!(cold.trials_cached, 0);

    let warm = tune_experiment(&config, &options).unwrap();
    assert_eq!(warm.trials_live, 0, "warm rerun must be all cache hits");
    assert_eq!(warm.trials_cached, cold.trials_live);
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "cache warmth must never change a report byte"
    );

    // A different fault plan is a different sweep context: no stale hits.
    // (A queue slowdown changes behavior without failing any trial.)
    let refaulted = TuneOptions {
        faults: FaultPlan::new(config.seed).slow_queue("data_queue", 2.0),
        ..options
    };
    let other = tune_experiment(&config, &refaulted).unwrap();
    assert!(other.trials_live > 0);
    assert_eq!(other.trials_cached, 0);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
