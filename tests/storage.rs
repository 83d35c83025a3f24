//! End-to-end tests of the simulated storage tier: cold tiny-file epochs
//! are storage-bound, warm page caches flip the bottleneck back to the
//! CPU phases, and every produced trace passes the lint catalog —
//! including the per-read containment invariant.

use lotus::core::check::lint_records;
use lotus::core::map::StorageAttribution;
use lotus::core::metrics::{render_dashboard, DashboardOptions};
use lotus::core::trace::analysis::op_class_totals;
use lotus::core::trace::insights::{analyze, Verdict};
use lotus::core::trace::SpanKind;
use lotus::running::{run_experiment, RunOptions};
use lotus::sim::{FileLayout, StorageConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

fn ic(items: u64) -> ExperimentConfig {
    ExperimentConfig::paper_default(PipelineKind::ImageClassification).scaled_to(items)
}

#[test]
fn cold_ic_is_storage_bound_and_warm_flips_back() {
    let cold = run_experiment(
        &ic(256).with_storage(StorageConfig::remote_object_store()),
        &RunOptions::sim(),
    )
    .unwrap();
    let warm = run_experiment(
        &ic(256).with_storage(StorageConfig::remote_object_store().warm()),
        &RunOptions::sim(),
    )
    .unwrap();

    // Cold tiny files on an object store: the tune verdict, its family,
    // and the trace-analysis verdict all call it storage-bound.
    assert_eq!(cold.scorecard.verdict, Some(Verdict::StorageBound));
    assert_eq!(
        cold.scorecard.verdict.map(Verdict::family),
        Some("input-bound")
    );
    let cold_insights = analyze(&cold.trace.records());
    assert_eq!(cold_insights.verdict, Some(Verdict::StorageBound));
    assert!(
        cold_insights.t0_fraction > 0.35,
        "cold t0 fraction {}",
        cold_insights.t0_fraction
    );

    // A warm page cache flips the bottleneck back to the CPU phases.
    let warm_insights = analyze(&warm.trace.records());
    assert_ne!(warm.scorecard.verdict, Some(Verdict::StorageBound));
    assert_ne!(warm_insights.verdict, Some(Verdict::StorageBound));
    assert!(
        warm_insights.t0_fraction < 0.05,
        "warm t0 fraction {}",
        warm_insights.t0_fraction
    );

    // The joined attribution agrees: cold reads hit the object store,
    // warm ones the page cache, and warm T0 collapses.
    let cold_attr = cold.storage.as_ref().expect("cold run attributed");
    let warm_attr = warm.storage.as_ref().expect("warm run attributed");
    assert_eq!(cold_attr.tiers[0].tier, "object-store");
    assert_eq!(cold_attr.hit_ratio(), 0.0);
    assert_eq!(warm_attr.hit_ratio(), 1.0);
    assert!(
        warm_attr.t0_total() < cold_attr.t0_total().mul_f64(0.05),
        "warm {:?} !<< cold {:?}",
        warm_attr.t0_total(),
        cold_attr.t0_total()
    );
}

#[test]
fn storage_traces_lint_clean_including_containment() {
    for storage in [
        StorageConfig::remote_object_store(),
        StorageConfig::remote_object_store().warm(),
    ] {
        let outcome = run_experiment(&ic(256).with_storage(storage), &RunOptions::sim()).unwrap();
        let records = outcome.trace.records();
        assert!(
            records
                .iter()
                .any(|r| matches!(r.kind, SpanKind::StorageRead(_))),
            "no storage-read spans recorded"
        );
        let findings = lint_records(&records, None);
        assert!(findings.is_empty(), "lint findings: {findings:?}");
    }
}

#[test]
fn runs_without_storage_are_untouched() {
    let outcome = run_experiment(&ic(256), &RunOptions::sim()).unwrap();
    assert!(outcome.storage.is_none());
    assert!(
        !outcome
            .trace
            .records()
            .iter()
            .any(|r| matches!(r.kind, SpanKind::StorageRead(_))),
        "legacy runs must not emit storage spans"
    );
    assert!(op_class_totals(&outcome.trace.records()).storage.is_zero());
}

#[test]
fn sequential_packed_epochs_outrun_shuffled_tiny_files() {
    let run = |config: ExperimentConfig| {
        let outcome = run_experiment(&config, &RunOptions::sim()).unwrap();
        let storage = outcome.storage.expect("storage configured");
        (outcome.report.elapsed, storage)
    };
    let (tiny_elapsed, tiny) = run(ic(256)
        .with_storage(StorageConfig::remote_object_store().with_layout(FileLayout::TinyFiles)));
    let (packed_elapsed, packed) = run(ic(256)
        .sequential()
        .with_storage(StorageConfig::remote_object_store().with_layout(FileLayout::PackedRecords)));
    assert!(
        packed_elapsed < tiny_elapsed,
        "packed sequential {packed_elapsed} !< tiny shuffled {tiny_elapsed}"
    );
    assert!(
        packed.hit_ratio() > tiny.hit_ratio(),
        "readahead should lift the packed hit ratio: packed {} vs tiny {}",
        packed.hit_ratio(),
        tiny.hit_ratio()
    );
}

#[test]
fn storage_runs_are_deterministic() {
    let config = ic(256).with_storage(StorageConfig::remote_object_store());
    let a = run_experiment(&config, &RunOptions::sim()).unwrap();
    let b = run_experiment(&config, &RunOptions::sim()).unwrap();
    assert_eq!(a.report.elapsed, b.report.elapsed);
    assert_eq!(
        a.storage.as_ref().map(StorageAttribution::to_json),
        b.storage.as_ref().map(StorageAttribution::to_json)
    );
    assert_eq!(a.trace.records(), b.trace.records());
}

#[test]
fn storage_metrics_reach_the_snapshot_and_dashboard() {
    let outcome = run_experiment(
        &ic(256).with_storage(StorageConfig::remote_object_store()),
        &RunOptions::sim(),
    )
    .unwrap();
    let snapshot = &outcome.measurement.snapshot;
    assert!(snapshot
        .counters
        .contains_key("storage_reads_total.object-store"));
    assert!(snapshot.histograms.contains_key("t0_storage_read_ns"));
    let dashboard = render_dashboard(snapshot, DashboardOptions { width: 16 });
    assert!(dashboard.contains("\nstorage\n"), "{dashboard}");
    assert!(dashboard.contains("object-store"));
    assert!(dashboard.contains("t0 fetch: p50"));
}
