//! The SJPG store behind materialized image datasets, end to end: a
//! native run over a warm store reads one stored file per sample and
//! traces each read as a `[T0]` record that lints clean, while a
//! simulated run's trace does not depend on whether the store is warm.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lotus::core::check::{lint_records, ReportFacts};
use lotus::core::trace::{LotusTrace, SpanKind, TraceRecord};
use lotus::data::dist::LogNormal;
use lotus::data::ImageDatasetModel;
use lotus::dataflow::{
    DataLoaderConfig, ExecutionBackend, FaultPlan, GpuConfig, JobReport, LoaderMutation,
    NativeBackend, NativeOptions, SimBackend, TrainingJob,
};
use lotus::sim::Span;
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ic_transforms, ImageFolderDataset, IoModel};

fn scratch_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lotus-image-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 32-image IC epoch over small images, decoded from the store at
/// `root`, at batch 8 on two workers.
fn job(root: &Path, trace: &Arc<LotusTrace>) -> TrainingJob {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let model = ImageDatasetModel::custom(
        "small",
        32,
        11,
        LogNormal::from_mean_std(9_000.0, 4_000.0),
        (96, 160),
        0.55,
    );
    let dataset = ImageFolderDataset::new(
        &machine,
        model,
        IoModel::local_nvme(),
        ic_transforms(&machine),
    )
    .materialized_in(root);
    TrainingJob {
        machine: Arc::clone(&machine),
        dataset: Arc::new(dataset),
        storage: None,
        loader: DataLoaderConfig {
            batch_size: 8,
            num_workers: 2,
            ..DataLoaderConfig::default()
        },
        gpu: GpuConfig::v100(1, Span::from_micros(500)),
        tracer: Arc::clone(trace) as _,
        hw_profiler: None,
        seed: 3,
        epochs: 1,
        faults: FaultPlan::default(),
        controller: None,
        mutation: LoaderMutation::None,
    }
}

fn run(backend: &dyn ExecutionBackend, root: &Path) -> (JobReport, Arc<LotusTrace>) {
    let trace = Arc::new(LotusTrace::new());
    let report = backend.run(job(root, &trace)).expect("run failed");
    (report, trace)
}

fn reads(records: &[TraceRecord]) -> Vec<&TraceRecord> {
    records
        .iter()
        .filter(|r| matches!(r.kind, SpanKind::StorageRead(_)))
        .collect()
}

#[test]
fn a_warm_native_run_traces_one_t0_read_per_sample() {
    let root = scratch_root("native");
    let native = NativeBackend::new(NativeOptions {
        status_check: Span::from_millis(5),
        emulate_gpu: false,
    });
    let (cold, cold_trace) = run(&native, &root);
    assert_eq!(cold.samples, 32);
    assert!(
        reads(&cold_trace.records()).is_empty(),
        "a cold store encodes every record and reads none"
    );

    let (warm, warm_trace) = run(&native, &root);
    assert_eq!(warm.samples, 32);
    let records = warm_trace.records();
    let t0 = reads(&records);
    assert_eq!(t0.len() as u64, warm.samples);
    assert!(t0
        .iter()
        .all(|r| r.kind == SpanKind::StorageRead("local-disk".into())));
    let facts = ReportFacts {
        elapsed: warm.elapsed,
        batches: warm.batches,
    };
    let findings = lint_records(&records, Some(&facts));
    assert!(findings.is_empty(), "{findings:#?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_simulated_trace_does_not_depend_on_the_store() {
    let root = scratch_root("sim");
    let (cold, cold_trace) = run(&SimBackend, &root);
    let (warm, warm_trace) = run(&SimBackend, &root);
    assert_eq!(cold, warm);
    assert!(reads(&warm_trace.records()).is_empty());
    assert_eq!(cold_trace.to_log_string(), warm_trace.to_log_string());
    let _ = std::fs::remove_dir_all(&root);
}
