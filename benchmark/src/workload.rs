//! Turning a workload and a seed into the program's inputs: the
//! experiment configuration, the dataset indices each epoch visits, and
//! the jobs built from them through the program's public API.

use std::sync::Arc;

use lotus::core::metrics::{MetricsRegistry, MetricsSink, MultiSink};
use lotus::core::trace::{LotusTrace, LotusTraceConfig, OpLogMode};
use lotus::data::{ImageDatasetModel, ImageRecord};
use lotus::dataflow::{
    DataLoaderConfig, FaultPlan, NativeBackend, NativeOptions, Sampler, TrainingJob,
};
use lotus::sim::Span;
use lotus::uarch::{Machine, MachineConfig};
use lotus::workloads::{ExperimentConfig, PipelineKind};

use crate::spec::{Size, Workload};

/// The experiment a workload runs: the paper's pipeline defaults with
/// one loader worker, the workload's batch size, and the benchmark seed —
/// the only way the seed reaches the program.
///
/// Native workloads visit samples in the order the benchmark's dataset
/// wrapper presents (`sequential`), so each epoch's batches are the ones
/// [`epoch_order`] composes.
pub fn experiment(workload: Workload, size: Size, seed: u64) -> ExperimentConfig {
    let mut exp = ExperimentConfig::paper_default(workload.pipeline()).scaled_to(size.pool);
    exp.batch_size = size.batch;
    exp.seed = seed;
    if workload == Workload::TuneSim {
        exp
    } else {
        exp.num_workers = 1;
        exp.sequential()
    }
}

/// The image-dataset model the program builds for `exp` (IC: ImageNet,
/// OD: COCO), truncated the same way.
pub fn image_model(exp: &ExperimentConfig) -> ImageDatasetModel {
    let model = match exp.pipeline {
        PipelineKind::ObjectDetection => ImageDatasetModel::coco(exp.seed),
        _ => ImageDatasetModel::imagenet(exp.seed),
    };
    model.truncated(exp.dataset_items.unwrap_or(model.len()))
}

/// The dataset indices one native epoch visits, in delivery order.
///
/// Real-pixel workloads take `epoch_samples` records at evenly spaced
/// quantiles of image size over the seed's record pool, so every seed
/// sees the same size distribution with fresh content. Records are dealt
/// into batches largest first, each to the lightest batch with room, so
/// batches carry about the same pixel count; the batch order is the
/// program's own seeded shuffle. ImageNet sizes are heavy-tailed: without
/// this, the few multi-megapixel images a 96-sample draw happens to get
/// would set throughput and tail wait, and seeds would disagree by ±15%.
///
/// The cost-only workload visits a seeded permutation of its pool.
pub fn epoch_order(workload: Workload, exp: &ExperimentConfig, size: Size) -> Vec<u64> {
    let n = size.epoch_samples;
    if !workload.materialized() {
        return Sampler::Random { seed: exp.seed }.epoch_order(n as u64, 0);
    }
    let model = image_model(exp);
    let mut pool: Vec<ImageRecord> = (0..model.len()).map(|i| model.record(i)).collect();
    pool.sort_by_key(|r| (r.pixels(), r.index));
    let picked = (0..n)
        .rev()
        .map(|j| pool[(2 * j + 1) * pool.len() / (2 * n)]);
    let batches = n / size.batch;
    let mut dealt: Vec<(u64, Vec<u64>)> = vec![(0, Vec::with_capacity(size.batch)); batches];
    for record in picked {
        let lightest = dealt
            .iter_mut()
            .filter(|(_, b)| b.len() < size.batch)
            .min_by_key(|(px, _)| *px);
        if let Some((px, b)) = lightest {
            *px += record.pixels();
            b.push(record.index);
        }
    }
    Sampler::Random { seed: exp.seed }
        .epoch_order(batches as u64, 0)
        .into_iter()
        .flat_map(|b| dealt[b as usize].1.clone())
        .collect()
}

/// A built job with the measurement harness `src/running.rs` uses: a
/// zero-overhead [`LotusTrace`] plus a free [`MetricsSink`].
pub struct Built {
    /// The job, ready for a backend.
    pub job: TrainingJob,
    /// The machine the job was built on.
    pub machine: Arc<Machine>,
    /// The run's LotusTrace.
    pub trace: Arc<LotusTrace>,
    /// The registry the metrics sink feeds.
    pub registry: Arc<MetricsRegistry>,
}

/// Builds one epoch's job: `Machine::new`, the harness, and
/// `build_materialized_with` (real pixels) or `build_with` (cost-only).
pub fn build(
    exp: &ExperimentConfig,
    loader: DataLoaderConfig,
    materialize: bool,
    faults: &FaultPlan,
) -> Built {
    let machine = Machine::new(MachineConfig::cloudlab_c4130());
    let trace = Arc::new(LotusTrace::with_config(LotusTraceConfig {
        per_log_overhead: Span::ZERO,
        op_mode: OpLogMode::Full,
    }));
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = Arc::new(MetricsSink::with_overhead(
        Arc::clone(&registry),
        loader.num_workers,
        Span::ZERO,
    ));
    let sinks = Arc::new(
        MultiSink::new()
            .with(Arc::clone(&trace) as _)
            .with(metrics as _),
    );
    let job = if materialize {
        exp.build_materialized_with(&machine, sinks as _, None, loader, faults.clone())
    } else {
        exp.build_with(&machine, sinks as _, None, loader, faults.clone())
    };
    Built {
        job,
        machine,
        trace,
        registry,
    }
}

/// The native backend every native workload runs on: a closed-loop
/// consumer (no emulated GPU) and PyTorch's 5 s liveness poll.
pub fn native_backend() -> NativeBackend {
    NativeBackend::new(NativeOptions {
        status_check: Span::from_secs(5),
        emulate_gpu: false,
    })
}

/// The output shape the workload's transform chain declares for every
/// sample: `ToTensor` after a 224² crop (IC) or an 800×1066 resize (OD).
pub fn declared_shape(pipeline: PipelineKind) -> [usize; 3] {
    match pipeline {
        PipelineKind::ObjectDetection => [3, 800, 1066],
        _ => [3, 224, 224],
    }
}
