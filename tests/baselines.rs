//! The committed round-robin baselines, regenerated through the library.
//!
//! `baselines/TRACE_ic_roundrobin.log` is `lotus trace --pipeline ic
//! --items 256 --log` and `baselines/TUNE_ic_roundrobin.json` is `lotus
//! tune --pipeline ic --items 256 --no-cache --json`. Both predate the
//! scheduling-policy layer and the shared protocol core, so any change
//! to the simulated engine must keep them byte-identical.

use std::sync::Arc;

use lotus::core::trace::LotusTrace;
use lotus::tuning::{tune_experiment, TuneOptions};
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

fn ic_256() -> ExperimentConfig {
    ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(256)
}

/// Asserts byte equality, reporting the first differing line rather than
/// both whole files.
fn assert_identical(name: &str, actual: &str, expected: &str) {
    if actual == expected {
        return;
    }
    let (a, e): (Vec<&str>, Vec<&str>) = (actual.lines().collect(), expected.lines().collect());
    let line = a.iter().zip(&e).position(|(x, y)| x != y);
    match line {
        Some(i) => panic!(
            "{name} drifted at line {}:\n  got:      {}\n  expected: {}",
            i + 1,
            a[i],
            e[i]
        ),
        None => panic!(
            "{name} drifted: {} lines regenerated, {} committed (or a trailing-byte difference)",
            a.len(),
            e.len()
        ),
    }
}

#[test]
fn round_robin_trace_matches_the_committed_log() {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::new());
    ic_256()
        .build(&machine, Arc::clone(&trace) as _, None)
        .run()
        .expect("the IC run completes");
    assert_identical(
        "baselines/TRACE_ic_roundrobin.log",
        &trace.to_log_string(),
        include_str!("../baselines/TRACE_ic_roundrobin.log"),
    );
}

#[test]
fn round_robin_tune_report_matches_the_committed_json() {
    let options = TuneOptions {
        jobs: 1,
        cache_dir: None,
        ..TuneOptions::default()
    };
    let report = tune_experiment(&ic_256(), &options).expect("the default grid tunes");
    assert_identical(
        "baselines/TUNE_ic_roundrobin.json",
        &report.to_json(),
        include_str!("../baselines/TUNE_ic_roundrobin.json"),
    );
}
