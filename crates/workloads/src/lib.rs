//! # lotus-workloads — the paper's three MLPerf pipelines
//!
//! Builds the Image Classification (ImageNet + ResNet18), Image
//! Segmentation (KiTS19 + U-Net3D) and Object Detection (MS-COCO +
//! Mask R-CNN) preprocessing pipelines of §V-A over the simulated
//! substrates, with the storage, GPU and dataset models calibrated to the
//! paper's measurements.
//!
//! ```
//! use std::sync::Arc;
//! use lotus_dataflow::NullTracer;
//! use lotus_uarch::{Machine, MachineConfig};
//! use lotus_workloads::{ExperimentConfig, PipelineKind};
//!
//! let machine = Machine::new(MachineConfig::cloudlab_c4130());
//! let config = ExperimentConfig::paper_default(PipelineKind::ImageClassification)
//!     .scaled_to(256);
//! let report = config.build(&machine, Arc::new(NullTracer), None).run()?;
//! assert_eq!(report.samples, 256);
//! # Ok::<(), lotus_dataflow::JobError>(())
//! ```

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]

pub mod calibration;

mod datasets;
mod io;
mod mapping;
mod pipelines;
mod store;

pub use datasets::{AudioClipDataset, ImageFolderDataset, MonotonicObserver, VolumeDataset};
pub use io::IoModel;
pub use mapping::{
    build_ic_mapping, build_ic_mapping_for_batch, build_ic_mapping_native, NATIVE_MAPPING_BATCH,
};
pub use pipelines::{
    ac_transforms, gpu_step, ic_transforms, is_transforms, od_transforms, paper_step_times_hold,
    ExperimentConfig, PipelineKind,
};
