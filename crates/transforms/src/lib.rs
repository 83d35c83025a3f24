//! # lotus-transforms — ML preprocessing transforms
//!
//! The torchvision/numpy-style transform library used by the paper's three
//! MLPerf pipelines. Each transform has a *real* implementation operating
//! on materialized [`lotus_data::Image`]/[`lotus_data::Tensor`] payloads
//! **and** charges named native-kernel costs to a
//! [`lotus_uarch::CpuThread`], so the same code path serves unit tests,
//! examples, LotusMap isolation runs and the large-scale (cost-only)
//! pipeline simulations.
//!
//! * IC / OD image ops: [`RandomResizedCrop`], [`Resize`],
//!   [`RandomHorizontalFlip`], [`ToTensor`], [`Normalize`]
//! * IS volume ops: [`RandBalancedCrop`], [`RandomFlip3d`], [`Cast`],
//!   [`RandomBrightnessAugmentation`], [`GaussianNoise`]
//! * Audio ops (extension workload): [`Resample`], [`MelSpectrogram`],
//!   [`SpecAugment`]
//! * Batch assembly: [`Collate`]
//! * Chaining + the LotusTrace \[T3\] hook: [`Compose`] /
//!   [`TransformObserver`]
//!
//! ```
//! use std::sync::Arc;
//! use lotus_transforms::{Compose, RandomResizedCrop, Sample, ToTensor, TransformCtx};
//! use lotus_uarch::{CpuThread, Machine, MachineConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let machine = Machine::new(MachineConfig::cloudlab_c4130());
//! let pipeline = Compose::new(&machine, vec![
//!     Box::new(RandomResizedCrop::new(&machine, 224)),
//!     Box::new(ToTensor::new(&machine)),
//! ]);
//! let mut cpu = CpuThread::new(Arc::clone(&machine));
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut ctx = TransformCtx { cpu: &mut cpu, rng: &mut rng };
//! let out = pipeline
//!     .apply(Sample::image_meta(500, 375), &mut ctx)
//!     .expect("an image sample satisfies every transform in the chain");
//! assert_eq!(out.bytes(), 3 * 224 * 224 * 4);
//! ```

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod audio_ops;
mod collate;
mod error;
mod image_ops;
mod sample;
mod transform;
mod volume_ops;

pub use audio_ops::{MelSpectrogram, PadTrim, Resample, SpecAugment};
pub use collate::Collate;
pub use error::PipelineError;
pub use image_ops::{
    resize_bilinear, resize_bilinear_ref, Normalize, RandomHorizontalFlip, RandomResizedCrop,
    Resize, ToTensor,
};
pub use sample::{Batch, Sample};
pub use transform::{
    python_interp_kernel, Compose, NullObserver, Transform, TransformCtx, TransformObserver,
};
pub use volume_ops::{
    Cast, GaussianNoise, RandBalancedCrop, RandomBrightnessAugmentation, RandomFlip3d,
};
