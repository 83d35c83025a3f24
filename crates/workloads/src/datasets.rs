//! Dataset implementations: `ImageFolder`-style encoded-image datasets and
//! numpy-volume datasets, both reporting their `Loader` step to the
//! LotusTrace observer.

use std::path::PathBuf;
use std::sync::Arc;

use lotus_codec::Codec;
use lotus_core::exec::DEFAULT_CACHE_DIR;
use lotus_data::{AudioDatasetModel, DType, ImageDatasetModel, VolumeDatasetModel};
use lotus_dataflow::Dataset;
use lotus_sim::{Storage, Time};
use lotus_transforms::{
    python_interp_kernel, Compose, PipelineError, Sample, TransformCtx, TransformObserver,
};
use lotus_uarch::{CostCoeffs, KernelId, Machine};

use crate::io::IoModel;
use crate::store::ImageStore;

/// The shared fetch stage every dataset's `get_item` starts with: the
/// Python-level dispatch overhead (dataset `__getitem__`, file open),
/// then the record's bytes — from the simulated storage hierarchy
/// (traced, \[T0\]) when one is attached, or from the closed-form
/// [`IoModel`] wait otherwise. One code path for all three dataset
/// kinds, so fault injection, storage reads and the "Loader" span all
/// compose identically.
struct FetchStage {
    io: IoModel,
    storage: Option<Arc<Storage>>,
    python_overhead: KernelId,
}

impl FetchStage {
    fn new(machine: &Machine, io: IoModel) -> FetchStage {
        FetchStage {
            io,
            storage: None,
            python_overhead: python_interp_kernel(machine),
        }
    }

    /// Begins one `get_item`: charges the Python dispatch overhead and
    /// reads `bytes` for `record_index`, reporting the read to the
    /// observer when a storage hierarchy is attached. Returns the cursor
    /// at entry — the start of the "Loader" op span the caller reports.
    fn fetch(
        &self,
        record_index: u64,
        bytes: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Time {
        let start = ctx.cpu.cursor();
        ctx.cpu.exec(self.python_overhead, 0.0);
        match &self.storage {
            Some(storage) => {
                let issued = ctx.cpu.cursor();
                let read = storage.read(record_index, bytes, issued);
                // Off-CPU wait for the read, including queueing behind
                // other workers on the backing device.
                ctx.cpu.idle(read.span);
                observer.on_storage_read(issued, &read);
            }
            // Closed-form I/O wait (with the straggler tail).
            None => ctx.cpu.idle(self.io.read_span_with(bytes, ctx.rng)),
        }
        start
    }
}

/// `torchvision.datasets.ImageFolder` over a synthetic encoded-image
/// dataset: `get_item` reads the file (I/O), decodes it through the SJPG
/// codec ("Loader" in Table II), then applies the transform chain.
pub struct ImageFolderDataset {
    model: ImageDatasetModel,
    codec: Codec,
    fetch: FetchStage,
    transforms: Compose,
    /// The SJPG files real pixels are decoded from; `None` in cost-only
    /// mode.
    store: Option<ImageStore>,
}

impl std::fmt::Debug for ImageFolderDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageFolderDataset")
            .field("dataset", &self.model.name())
            .field("len", &self.model.len())
            .field("store", &self.store.as_ref().map(ImageStore::dir))
            .finish()
    }
}

impl ImageFolderDataset {
    /// Creates the dataset in cost-only mode (the default for large
    /// simulated epochs).
    #[must_use]
    pub fn new(
        machine: &Machine,
        model: ImageDatasetModel,
        io: IoModel,
        transforms: Compose,
    ) -> ImageFolderDataset {
        ImageFolderDataset {
            model,
            codec: Codec::new(machine),
            fetch: FetchStage::new(machine, io),
            transforms,
            store: None,
        }
    }

    /// Attaches the simulated storage hierarchy `get_item` reads from:
    /// the closed-form `IoModel` wait becomes traced \[T0\] storage
    /// reads against the shared page cache and backing devices.
    #[must_use]
    pub fn with_storage(mut self, storage: Arc<Storage>) -> ImageFolderDataset {
        self.fetch.storage = Some(storage);
        self
    }

    /// Switches on real pixels: `get_item` reads each record's SJPG file
    /// from `.lotus-cache/sjpg/` in the working directory and decodes
    /// it, as torchvision's `ImageFolder` reads a stored JPEG. A record's
    /// first use synthesizes and encodes it and stores the file;
    /// deleting the directory is always safe. Orders of magnitude slower
    /// than cost-only mode; meant for native runs, examples and
    /// correctness tests.
    #[must_use]
    pub fn materialized(self) -> ImageFolderDataset {
        self.materialized_in(DEFAULT_CACHE_DIR)
    }

    /// Like [`materialized`](Self::materialized), with the store under
    /// `root`. Nothing is created there until the first `get_item`.
    #[must_use]
    pub fn materialized_in(mut self, root: impl Into<PathBuf>) -> ImageFolderDataset {
        self.store = Some(ImageStore::new(root));
        self
    }

    /// The underlying dataset model.
    #[must_use]
    pub fn model(&self) -> &ImageDatasetModel {
        &self.model
    }
}

impl Dataset for ImageFolderDataset {
    fn len(&self) -> u64 {
        self.model.len()
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        let record = self.model.record(index);
        let start = self.fetch.fetch(index, record.file_bytes, ctx, observer);
        // Native kernel spans inside the decode attribute to the Loader op.
        ctx.cpu.set_op_context("Loader");
        let sample = match &self.store {
            Some(store) => {
                let decoded = store
                    .decode(&record, &self.codec, ctx.cpu, observer)
                    .map_err(|e| PipelineError::Decode {
                        index,
                        reason: e.to_string(),
                    })?;
                Sample::image(decoded)
            }
            None => {
                self.codec
                    .charge_decode(record.width, record.height, record.file_bytes, ctx.cpu);
                Sample::image_meta(record.height as usize, record.width as usize)
            }
        };
        observer.on_transform("Loader", start, ctx.cpu.cursor().since(start));
        self.transforms.apply_observed(sample, ctx, observer)
    }

    fn cost_hint(&self, index: u64) -> Option<u64> {
        Some(self.model.record(index).file_bytes)
    }
}

/// The IS pipeline's dataset: preprocessed KiTS19 cases stored as numpy
/// arrays on local disk; `get_item` reads and parses the volume ("Load"),
/// then applies the volumetric transform chain.
pub struct VolumeDataset {
    model: VolumeDatasetModel,
    fetch: FetchStage,
    transforms: Compose,
    npy_read: KernelId,
    /// Number of items one epoch draws; indices wrap over the 210 cases
    /// (MLPerf's epoch-level oversampling).
    epoch_items: u64,
}

impl std::fmt::Debug for VolumeDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VolumeDataset")
            .field("cases", &self.model.len())
            .field("epoch_items", &self.epoch_items)
            .finish()
    }
}

impl VolumeDataset {
    /// Creates the dataset. `epoch_items` is the number of samples one
    /// epoch draws (indices wrap over the case list).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_items == 0`.
    #[must_use]
    pub fn new(
        machine: &Machine,
        model: VolumeDatasetModel,
        io: IoModel,
        transforms: Compose,
        epoch_items: u64,
    ) -> VolumeDataset {
        assert!(epoch_items > 0, "epoch_items must be positive");
        VolumeDataset {
            model,
            fetch: FetchStage::new(machine, io),
            transforms,
            npy_read: machine.kernel(
                "npy_fromfile",
                "_multiarray_umath.cpython-310-x86_64-linux-gnu.so",
                CostCoeffs::streaming_default(),
            ),
            epoch_items,
        }
    }

    /// Attaches the simulated storage hierarchy `get_item` reads from.
    #[must_use]
    pub fn with_storage(mut self, storage: Arc<Storage>) -> VolumeDataset {
        self.fetch.storage = Some(storage);
        self
    }
}

impl Dataset for VolumeDataset {
    fn len(&self) -> u64 {
        self.epoch_items
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        // Indices wrap over the case list, so the storage read targets
        // the wrapped record (oversampled epochs re-read the same case,
        // which the page cache then serves).
        let wrapped = index % self.model.len();
        let record = self.model.record(wrapped);
        let start = self
            .fetch
            .fetch(wrapped, record.stored_bytes, ctx, observer);
        // numpy materializes the array from the raw bytes.
        ctx.cpu.exec(self.npy_read, record.stored_bytes as f64);
        let sample = Sample::tensor_meta(
            &[
                record.dims.0 as usize,
                record.dims.1 as usize,
                record.dims.2 as usize,
            ],
            DType::F32,
        );
        observer.on_transform("Loader", start, ctx.cpu.cursor().since(start));
        self.transforms.apply_observed(sample, ctx, observer)
    }

    fn cost_hint(&self, index: u64) -> Option<u64> {
        Some(self.model.record(index % self.model.len()).stored_bytes)
    }
}

/// The audio-classification extension's dataset: FLAC-like compressed
/// clips; `get_item` reads and decodes the clip ("Loader"), then applies
/// the audio transform chain.
pub struct AudioClipDataset {
    model: AudioDatasetModel,
    fetch: FetchStage,
    transforms: Compose,
    flac_decode: KernelId,
}

impl std::fmt::Debug for AudioClipDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AudioClipDataset")
            .field("len", &self.model.len())
            .finish()
    }
}

impl AudioClipDataset {
    /// Creates the dataset.
    #[must_use]
    pub fn new(
        machine: &Machine,
        model: AudioDatasetModel,
        io: IoModel,
        transforms: Compose,
    ) -> AudioClipDataset {
        AudioClipDataset {
            model,
            fetch: FetchStage::new(machine, io),
            transforms,
            flac_decode: machine.kernel(
                "FLAC__stream_decoder_process_single",
                "libFLAC.so.8",
                CostCoeffs {
                    base_insts: 3_000.0,
                    insts_per_unit: 95.0, // per decoded sample
                    uops_per_inst: 1.15,
                    ipc_base: 1.9,
                    l1_miss_per_unit: 0.02,
                    l2_miss_per_unit: 0.004,
                    llc_miss_per_unit: 0.001,
                    branches_per_unit: 6.0,
                    mispredict_rate: 0.04,
                    frontend_sensitivity: 0.6,
                },
            ),
        }
    }

    /// Attaches the simulated storage hierarchy `get_item` reads from.
    #[must_use]
    pub fn with_storage(mut self, storage: Arc<Storage>) -> AudioClipDataset {
        self.fetch.storage = Some(storage);
        self
    }
}

impl Dataset for AudioClipDataset {
    fn len(&self) -> u64 {
        self.model.len()
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        let record = self.model.record(index);
        let start = self.fetch.fetch(index, record.file_bytes, ctx, observer);
        ctx.cpu.exec(self.flac_decode, record.samples as f64);
        let sample = Sample::tensor_meta(&[record.samples as usize], DType::F32);
        observer.on_transform("Loader", start, ctx.cpu.cursor().since(start));
        self.transforms.apply_observed(sample, ctx, observer)
    }

    fn cost_hint(&self, index: u64) -> Option<u64> {
        Some(self.model.record(index).file_bytes)
    }
}

/// Convenience observer that discards events but asserts monotonic starts
/// (used in tests).
#[derive(Debug, Default)]
pub struct MonotonicObserver {
    last_start: Option<Time>,
}

impl TransformObserver for MonotonicObserver {
    fn on_transform(&mut self, _name: &str, start: Time, _elapsed: lotus_sim::Span) {
        if let Some(prev) = self.last_start {
            assert!(start >= prev, "op starts must be monotonic within a worker");
        }
        self.last_start = Some(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_data::dist::LogNormal;
    use lotus_transforms::NullObserver;
    use lotus_uarch::{CpuThread, MachineConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn the_store_root_appears_at_the_first_get_item_not_at_construction() {
        let root = std::env::temp_dir().join(format!("lotus-dataset-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let model = ImageDatasetModel::custom(
            "tiny",
            4,
            9,
            LogNormal::from_mean_std(2_000.0, 500.0),
            (24, 48),
            0.55,
        );
        let dataset = ImageFolderDataset::new(
            &machine,
            model,
            IoModel::local_nvme(),
            Compose::new(&machine, vec![]),
        )
        .materialized_in(&root);
        assert!(!root.exists(), "construction touches no file");

        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = TransformCtx {
            cpu: &mut cpu,
            rng: &mut rng,
        };
        let sample = dataset.get_item(2, &mut ctx, &mut NullObserver).unwrap();
        assert!(sample.is_materialized());
        let record = dataset.model().record(2);
        assert!(ImageStore::new(&root).path_of(&record).is_file());
        let _ = std::fs::remove_dir_all(&root);
    }
}
