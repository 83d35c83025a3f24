//! The three MLPerf-derived pipelines (§V-A of the paper) and the
//! experiment configurations that drive every table and figure.

use std::sync::Arc;

use lotus_data::{AudioDatasetModel, ImageDatasetModel, VolumeDatasetModel};
use lotus_dataflow::{
    DataLoaderConfig, GpuConfig, Sampler, SchedulingPolicyKind, Tracer, TrainingJob,
};
use lotus_sim::{Span, Storage, StorageConfig};
use lotus_transforms::{
    Cast, Compose, GaussianNoise, MelSpectrogram, Normalize, PadTrim, RandBalancedCrop,
    RandomBrightnessAugmentation, RandomFlip3d, RandomHorizontalFlip, RandomResizedCrop, Resample,
    Resize, SpecAugment, ToTensor,
};
use lotus_uarch::{HwProfiler, Machine};

use crate::datasets::{AudioClipDataset, ImageFolderDataset, VolumeDataset};
use crate::io::IoModel;

/// Which of the paper's three MLPerf training pipelines to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// Image classification: ImageNet + ResNet18 (IC).
    ImageClassification,
    /// Image segmentation: KiTS19 + U-Net3D (IS).
    ImageSegmentation,
    /// Object detection: MS-COCO + Mask R-CNN (OD).
    ObjectDetection,
    /// Audio classification (AC) — the repository's extension pipeline
    /// for the preprocessing-bound workload class the paper's
    /// introduction cites (not part of the paper's evaluation).
    AudioClassification,
}

impl PipelineKind {
    /// The paper's abbreviation (IC/IS/OD).
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            PipelineKind::ImageClassification => "IC",
            PipelineKind::ImageSegmentation => "IS",
            PipelineKind::ObjectDetection => "OD",
            PipelineKind::AudioClassification => "AC",
        }
    }
}

/// One experiment run: pipeline + DataLoader/GPU knobs + scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Pipeline to run.
    pub pipeline: PipelineKind,
    /// Samples per batch.
    pub batch_size: usize,
    /// GPUs in the DataParallel group.
    pub num_gpus: usize,
    /// DataLoader worker processes.
    pub num_workers: usize,
    /// Truncate the dataset to this many items (None = full dataset).
    /// Scaled runs keep every distribution identical; only totals shrink.
    pub dataset_items: Option<u64>,
    /// Run seed.
    pub seed: u64,
    /// Simulated storage hierarchy the dataset reads from. `None` (the
    /// default everywhere) keeps the closed-form [`crate::IoModel`]
    /// costs of earlier PRs — no traced \[T0\] reads, byte-identical
    /// behavior. `Some` routes every `get_item` through a shared
    /// [`Storage`] instance instead.
    pub storage: Option<StorageConfig>,
    /// Visit dataset items in index order instead of the default seeded
    /// random permutation. Sequential access is what makes packed-record
    /// layouts fast: readahead turns neighbor fetches into page-cache
    /// hits, while shuffled access defeats it.
    pub sequential_access: bool,
    /// Dispatch discipline assigning index batches to loader workers.
    /// [`SchedulingPolicyKind::RoundRobin`] (the default) is PyTorch's
    /// strict `_worker_queue_idx_cycle` and leaves every fingerprint and
    /// trace byte-identical to earlier revisions.
    pub policy: SchedulingPolicyKind,
}

impl ExperimentConfig {
    /// The per-pipeline default configuration from §V-A: IC uses
    /// batch 128 / 1 GPU / 1 loader (Table II), IS batch 2 / 1 GPU /
    /// 8 loaders, OD batch 2 / 1 GPU / 4 loaders.
    #[must_use]
    pub fn paper_default(pipeline: PipelineKind) -> ExperimentConfig {
        let (batch_size, num_gpus, num_workers) = match pipeline {
            PipelineKind::ImageClassification => (128, 1, 1),
            PipelineKind::ImageSegmentation => (2, 1, 8),
            PipelineKind::ObjectDetection => (2, 1, 4),
            PipelineKind::AudioClassification => (64, 1, 4),
        };
        ExperimentConfig {
            pipeline,
            batch_size,
            num_gpus,
            num_workers,
            dataset_items: None,
            seed: 0x0107,
            storage: None,
            sequential_access: false,
            policy: SchedulingPolicyKind::RoundRobin,
        }
    }

    /// Returns a copy dispatching index batches with the given
    /// scheduling policy instead of strict round-robin.
    ///
    /// ```
    /// use lotus_dataflow::SchedulingPolicyKind;
    /// use lotus_workloads::{ExperimentConfig, PipelineKind};
    ///
    /// let ws = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
    ///     .with_policy(SchedulingPolicyKind::WorkStealing);
    /// assert!(ws.fingerprint().ends_with(" policy=work-stealing"));
    /// ```
    #[must_use]
    pub fn with_policy(mut self, policy: SchedulingPolicyKind) -> ExperimentConfig {
        self.policy = policy;
        self
    }

    /// Returns a copy truncated to `items` dataset items.
    #[must_use]
    pub fn scaled_to(mut self, items: u64) -> ExperimentConfig {
        self.dataset_items = Some(items);
        self
    }

    /// Returns a copy that reads through the given simulated storage
    /// hierarchy (traced \[T0\] reads instead of closed-form I/O waits).
    ///
    /// ```
    /// use lotus_sim::StorageConfig;
    /// use lotus_workloads::{ExperimentConfig, PipelineKind};
    ///
    /// let cold = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
    ///     .with_storage(StorageConfig::remote_object_store());
    /// assert!(cold.storage.is_some());
    /// assert!(cold.fingerprint().contains("storage["));
    /// ```
    #[must_use]
    pub fn with_storage(mut self, storage: StorageConfig) -> ExperimentConfig {
        self.storage = Some(storage);
        self
    }

    /// Returns a copy whose sampler visits items in index order instead
    /// of a seeded shuffle — the access pattern that lets packed-record
    /// layouts benefit from readahead.
    ///
    /// ```
    /// use lotus_workloads::{ExperimentConfig, PipelineKind};
    ///
    /// let seq = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
    ///     .sequential();
    /// assert!(seq.sequential_access);
    /// assert!(seq.fingerprint().ends_with(" seq"));
    /// ```
    #[must_use]
    pub fn sequential(mut self) -> ExperimentConfig {
        self.sequential_access = true;
        self
    }

    /// The natural storage hierarchy for this pipeline's dataset: IC, OD
    /// and AC read training sets from a remote object store (tiny files,
    /// cold caches); IS keeps its preprocessed KiTS19 volumes on local
    /// NVMe. This is what the CLI's `--storage cold|warm` presets build
    /// on.
    #[must_use]
    pub fn default_storage(&self) -> StorageConfig {
        match self.pipeline {
            PipelineKind::ImageSegmentation => StorageConfig::local_nvme(),
            _ => StorageConfig::remote_object_store(),
        }
    }

    /// A stable one-line fingerprint of everything that determines this
    /// experiment's simulated behavior, for content-addressed cache
    /// keys: pipeline, batch size, GPU and worker counts, dataset
    /// truncation, and seed.
    ///
    /// ```
    /// use lotus_workloads::{ExperimentConfig, PipelineKind};
    ///
    /// let experiment = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
    ///     .scaled_to(4096);
    /// assert_eq!(experiment.fingerprint(), "IC bs128 gpus1 workers1 items4096 seed=0x107");
    /// ```
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let items = match self.dataset_items {
            Some(n) => format!("items{n}"),
            None => "items-full".to_string(),
        };
        let mut fp = format!(
            "{} bs{} gpus{} workers{} {} seed={:#x}",
            self.pipeline.abbrev(),
            self.batch_size,
            self.num_gpus,
            self.num_workers,
            items,
            self.seed
        );
        if let Some(storage) = &self.storage {
            fp.push(' ');
            fp.push_str(&storage.fingerprint_token());
        }
        if self.sequential_access {
            fp.push_str(" seq");
        }
        // Only a non-default policy stamps the fingerprint, so every
        // round-robin cache key stays byte-identical to prior revisions.
        if self.policy != SchedulingPolicyKind::RoundRobin {
            fp.push_str(&format!(" policy={}", self.policy.as_str()));
        }
        fp
    }

    /// The DataLoader configuration [`build`](Self::build) uses: this
    /// experiment's batch size and worker count with PyTorch-shaped
    /// defaults for the rest (prefetch 2, unbounded data queue, pinned
    /// memory, seeded random sampling). `lotus tune` overlays its trial
    /// knobs on this.
    #[must_use]
    pub fn loader_defaults(&self) -> DataLoaderConfig {
        DataLoaderConfig {
            batch_size: self.batch_size,
            num_workers: self.num_workers,
            prefetch_factor: 2,
            data_queue_cap: None,
            pin_memory: true,
            sampler: if self.sequential_access {
                Sampler::Sequential
            } else {
                Sampler::Random { seed: self.seed }
            },
            drop_last: true,
            policy: self.policy,
        }
    }

    /// Builds the training job for this configuration with the default
    /// loader knobs ([`loader_defaults`](Self::loader_defaults)) and no
    /// fault injection.
    #[must_use]
    pub fn build(
        &self,
        machine: &Arc<Machine>,
        tracer: Arc<dyn Tracer>,
        hw_profiler: Option<Arc<HwProfiler>>,
    ) -> TrainingJob {
        self.build_with(
            machine,
            tracer,
            hw_profiler,
            self.loader_defaults(),
            lotus_dataflow::FaultPlan::default(),
        )
    }

    /// Builds the training job with an explicit DataLoader configuration
    /// and fault plan — the entry point for `lotus tune` trials, which
    /// vary the loader knobs while everything else (dataset, transforms,
    /// GPU model, seed) stays fixed.
    #[must_use]
    pub fn build_with(
        &self,
        machine: &Arc<Machine>,
        tracer: Arc<dyn Tracer>,
        hw_profiler: Option<Arc<HwProfiler>>,
        loader: DataLoaderConfig,
        faults: lotus_dataflow::FaultPlan,
    ) -> TrainingJob {
        self.build_job(machine, tracer, hw_profiler, loader, faults, false)
    }

    /// Like [`build_with`](Self::build_with), but the image pipelines
    /// (IC, OD) materialize real pixels — each record's SJPG file is read
    /// from the store under `.lotus-cache/` and decoded, after being
    /// synthesized and encoded on its first use — so the codec and
    /// transform kernels do real work. Building touches no file. This is
    /// what the native execution backend profiles;
    /// IS and AC remain cost-only (their volume/audio loaders model cost
    /// without materializing content).
    #[must_use]
    pub fn build_materialized_with(
        &self,
        machine: &Arc<Machine>,
        tracer: Arc<dyn Tracer>,
        hw_profiler: Option<Arc<HwProfiler>>,
        loader: DataLoaderConfig,
        faults: lotus_dataflow::FaultPlan,
    ) -> TrainingJob {
        self.build_job(machine, tracer, hw_profiler, loader, faults, true)
    }

    fn build_job(
        &self,
        machine: &Arc<Machine>,
        tracer: Arc<dyn Tracer>,
        hw_profiler: Option<Arc<HwProfiler>>,
        loader: DataLoaderConfig,
        faults: lotus_dataflow::FaultPlan,
        materialize: bool,
    ) -> TrainingJob {
        let storage = self.storage.map(|cfg| Arc::new(Storage::new(cfg)));
        let (dataset, gpu): (Arc<dyn lotus_dataflow::Dataset>, GpuConfig) = match self.pipeline {
            PipelineKind::ImageClassification => {
                let mut model = ImageDatasetModel::imagenet(self.seed);
                if let Some(items) = self.dataset_items {
                    model = model.truncated(items);
                }
                let mut dataset = ImageFolderDataset::new(
                    machine,
                    model,
                    IoModel::cloudlab_iscsi(),
                    ic_transforms(machine),
                );
                if materialize {
                    dataset = dataset.materialized();
                }
                if let Some(storage) = &storage {
                    dataset = dataset.with_storage(Arc::clone(storage));
                }
                (
                    Arc::new(dataset),
                    GpuConfig::v100(self.num_gpus, gpu_step::RESNET18_PER_SAMPLE),
                )
            }
            PipelineKind::ImageSegmentation => {
                let items = self.dataset_items.unwrap_or(210);
                let mut dataset = VolumeDataset::new(
                    machine,
                    VolumeDatasetModel::kits19(self.seed),
                    IoModel::local_nvme(),
                    is_transforms(machine),
                    items,
                );
                if let Some(storage) = &storage {
                    dataset = dataset.with_storage(Arc::clone(storage));
                }
                (
                    Arc::new(dataset),
                    GpuConfig::v100(self.num_gpus, gpu_step::UNET3D_PER_SAMPLE),
                )
            }
            PipelineKind::ObjectDetection => {
                let mut model = ImageDatasetModel::coco(self.seed);
                if let Some(items) = self.dataset_items {
                    model = model.truncated(items);
                }
                let mut dataset = ImageFolderDataset::new(
                    machine,
                    model,
                    IoModel::cloudlab_iscsi(),
                    od_transforms(machine),
                );
                if materialize {
                    dataset = dataset.materialized();
                }
                if let Some(storage) = &storage {
                    dataset = dataset.with_storage(Arc::clone(storage));
                }
                (
                    Arc::new(dataset),
                    GpuConfig::v100(self.num_gpus, gpu_step::MASKRCNN_PER_SAMPLE),
                )
            }
            PipelineKind::AudioClassification => {
                let mut model = AudioDatasetModel::audioset(self.seed);
                if let Some(items) = self.dataset_items {
                    model = model.truncated(items);
                }
                let mut dataset = AudioClipDataset::new(
                    machine,
                    model,
                    IoModel::cloudlab_iscsi(),
                    ac_transforms(machine),
                );
                if let Some(storage) = &storage {
                    dataset = dataset.with_storage(Arc::clone(storage));
                }
                (
                    Arc::new(dataset),
                    GpuConfig::v100(self.num_gpus, gpu_step::AUDIO_CNN_PER_SAMPLE),
                )
            }
        };
        TrainingJob {
            machine: Arc::clone(machine),
            dataset,
            storage,
            loader,
            gpu,
            tracer,
            hw_profiler,
            seed: self.seed,
            epochs: 1,
            faults,
            controller: None,
            mutation: lotus_dataflow::LoaderMutation::None,
        }
    }
}

/// Per-sample forward+backward GPU step times on a V100, calibrated so
/// that IC is preprocessing-bound while IS and OD are GPU-bound with the
/// paper's step times (IS ≈ 750 ms and OD ≈ 250 ms per batch of 2).
pub mod gpu_step {
    use lotus_sim::Span;

    /// ResNet18 (≈700 images/s/GPU).
    pub const RESNET18_PER_SAMPLE: Span = Span::from_micros(1_400);
    /// U-Net3D on 128³ patches.
    pub const UNET3D_PER_SAMPLE: Span = Span::from_micros(372_000);
    /// Mask R-CNN with a ResNet-50 backbone.
    pub const MASKRCNN_PER_SAMPLE: Span = Span::from_micros(122_000);
    /// A VGGish-style audio CNN over mel spectrograms (extension).
    pub const AUDIO_CNN_PER_SAMPLE: Span = Span::from_micros(1_200);
}

/// The IC transform chain from Listing 1: RandomResizedCrop(224),
/// RandomHorizontalFlip, ToTensor, Normalize.
#[must_use]
pub fn ic_transforms(machine: &Machine) -> Compose {
    Compose::new(
        machine,
        vec![
            Box::new(RandomResizedCrop::new(machine, 224)),
            Box::new(RandomHorizontalFlip::new(machine, 0.5)),
            Box::new(ToTensor::new(machine)),
            Box::new(Normalize::imagenet(machine)),
        ],
    )
}

/// The IS transform chain: RandBalancedCrop(128³, 0.4), RandomFlip,
/// Cast, RandomBrightnessAugmentation(0.1), GaussianNoise(0.1).
#[must_use]
pub fn is_transforms(machine: &Machine) -> Compose {
    Compose::new(
        machine,
        vec![
            Box::new(RandBalancedCrop::new(machine, (128, 128, 128), 0.4)),
            Box::new(RandomFlip3d::new(machine, 1.0 / 3.0)),
            Box::new(Cast::new(machine)),
            Box::new(RandomBrightnessAugmentation::new(machine, 0.1)),
            Box::new(GaussianNoise::new(machine, 0.1, 0.1)),
        ],
    )
}

/// The OD transform chain: Resize (Mask R-CNN's 800-pixel short side),
/// RandomHorizontalFlip, ToTensor, Normalize.
#[must_use]
pub fn od_transforms(machine: &Machine) -> Compose {
    Compose::new(
        machine,
        vec![
            Box::new(Resize::new(machine, 800, 1066)),
            Box::new(RandomHorizontalFlip::new(machine, 0.5)),
            Box::new(ToTensor::new(machine)),
            Box::new(Normalize::imagenet(machine)),
        ],
    )
}

/// The AC (extension) transform chain: Resample 22.05 kHz → 16 kHz,
/// PadTrim to 4 s, MelSpectrogram (1024/512, 64 mels), SpecAugment.
#[must_use]
pub fn ac_transforms(machine: &Machine) -> Compose {
    Compose::new(
        machine,
        vec![
            Box::new(Resample::new(machine, 22_050, 16_000)),
            Box::new(PadTrim::new(machine, 64_000)),
            Box::new(MelSpectrogram::new(machine, 16_000, 1024, 512, 64)),
            Box::new(SpecAugment::new(machine, 16, 8)),
        ],
    )
}

/// Check that the GPU step-time calibration reproduces the paper's
/// measured per-batch step times (IS 750 ms, OD 250 ms at batch 2).
#[must_use]
pub fn paper_step_times_hold() -> bool {
    let is = GpuConfig::v100(1, gpu_step::UNET3D_PER_SAMPLE).step_span(2);
    let od = GpuConfig::v100(1, gpu_step::MASKRCNN_PER_SAMPLE).step_span(2);
    let near = |a: Span, target_ms: f64| (a.as_millis_f64() - target_ms).abs() / target_ms < 0.05;
    near(is, 750.0) && near(od, 250.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_uarch::MachineConfig;

    #[test]
    fn paper_defaults_match_section_v_a() {
        let ic = ExperimentConfig::paper_default(PipelineKind::ImageClassification);
        assert_eq!((ic.batch_size, ic.num_gpus, ic.num_workers), (128, 1, 1));
        let is = ExperimentConfig::paper_default(PipelineKind::ImageSegmentation);
        assert_eq!((is.batch_size, is.num_gpus, is.num_workers), (2, 1, 8));
        let od = ExperimentConfig::paper_default(PipelineKind::ObjectDetection);
        assert_eq!((od.batch_size, od.num_gpus, od.num_workers), (2, 1, 4));
    }

    #[test]
    fn gpu_step_calibration_matches_paper() {
        assert!(paper_step_times_hold());
    }

    #[test]
    fn build_produces_runnable_jobs_for_all_pipelines() {
        for kind in [
            PipelineKind::ImageClassification,
            PipelineKind::ImageSegmentation,
            PipelineKind::ObjectDetection,
            PipelineKind::AudioClassification,
        ] {
            let machine = Machine::new(MachineConfig::cloudlab_c4130());
            let base = ExperimentConfig::paper_default(kind);
            let config = base.scaled_to(base.batch_size as u64 * 2);
            let job = config.build(&machine, Arc::new(lotus_dataflow::NullTracer), None);
            let report = job.run().unwrap();
            assert_eq!(report.batches, 2, "{kind:?} must consume both batches");
        }
    }

    #[test]
    fn abbreviations_match_paper() {
        assert_eq!(PipelineKind::ImageClassification.abbrev(), "IC");
        assert_eq!(PipelineKind::ImageSegmentation.abbrev(), "IS");
        assert_eq!(PipelineKind::ObjectDetection.abbrev(), "OD");
    }
}
