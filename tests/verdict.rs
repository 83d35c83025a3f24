//! One run, one verdict. The bottleneck rule reads the same four inputs
//! whether they come from a run's metrics (`lotus run`, `lotus top`,
//! `lotus tune`) or from its trace records (`lotus trace`), so every
//! command names the same bottleneck. The sweep is image classification,
//! 8,192 items on the simulated backend, at 2 to 8 workers: it crosses
//! from fetch-bound to GPU-bound.

use std::process::Command;

use lotus::core::trace::insights::analyze;
use lotus::core::tune::Scorecard;
use lotus::dataflow::FaultPlan;
use lotus::running::{run_experiment, RunOptions};
use lotus::tuning::{baseline_trial, run_trial};
use lotus::workloads::{ExperimentConfig, PipelineKind};

const WORKERS: std::ops::RangeInclusive<usize> = 2..=8;

fn ic(workers: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
    config.num_workers = workers;
    config.scaled_to(8_192)
}

#[test]
fn records_and_metrics_feed_the_rule_the_same_inputs() {
    for workers in WORKERS {
        let experiment = ic(workers);
        let outcome = run_experiment(&experiment, &RunOptions::sim()).unwrap();
        let card = &outcome.scorecard;
        let insights = analyze(&outcome.trace.records());
        // Exact: both sides fold integer totals with the same divisions.
        assert_eq!(
            (
                insights.wait_fraction,
                insights.mean_wait_ms,
                insights.mean_queue_delay_ms
            ),
            (
                card.wait_fraction,
                card.mean_wait_ms,
                card.mean_queue_delay_ms
            ),
            "{workers} workers"
        );
        assert_eq!(insights.verdict, card.verdict, "{workers} workers");

        // A tune trial of the same configuration is the same run.
        let trial = baseline_trial(&experiment);
        let measurement = run_trial(&experiment, &trial, &FaultPlan::default()).unwrap();
        assert_eq!(
            &Scorecard::from_measurement(trial, &measurement),
            card,
            "{workers} workers"
        );
    }
}

/// The text from `verdict:` to the end of its line.
fn verdict_line(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lotus"))
        .args(args)
        .output()
        .expect("the lotus binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|line| line.find("verdict: ").map(|at| line[at..].to_string()))
        .unwrap_or_else(|| panic!("{args:?} printed no verdict:\n{stdout}"))
}

#[test]
fn trace_and_run_print_the_same_verdict() {
    for workers in WORKERS {
        let workers = workers.to_string();
        let shape = ["--pipeline", "ic", "--items", "8192", "--workers", &workers];
        let trace = verdict_line(&[&["trace"], &shape[..]].concat());
        let run = verdict_line(&[&["run", "--backend", "sim"], &shape[..]].concat());
        let top = verdict_line(&[&["top", "--backend", "sim"], &shape[..]].concat());
        assert_eq!(trace, run, "{workers} workers");
        assert_eq!(top, run, "{workers} workers");
    }
}

/// Image classification batches 128 samples with `drop_last`, so 64
/// items make an epoch with no batch: nothing is measured, and no
/// command names a bottleneck.
#[test]
fn a_run_that_consumes_no_batch_gets_no_verdict() {
    let outcome = run_experiment(&ic(2).scaled_to(64), &RunOptions::sim()).unwrap();
    assert_eq!(outcome.scorecard.batches, 0);
    assert_eq!(outcome.scorecard.verdict, None);
    assert_eq!(analyze(&outcome.trace.records()).verdict, None);

    let shape = ["--pipeline", "ic", "--items", "64"];
    for command in [&["trace"][..], &["run", "--backend", "sim"], &["top"]] {
        assert_eq!(
            verdict_line(&[command, &shape[..]].concat()),
            "verdict: none (no batch consumed)",
            "{command:?}"
        );
    }
}
