//! # lotus-data — tensors, images and synthetic dataset models
//!
//! Shared data substrate for the Lotus reproduction: a minimal dense
//! [`Tensor`], decoded [`Image`]s, seedable distributions
//! ([`dist::LogNormal`], [`dist::Normal`]), descriptive statistics
//! ([`stats::Summary`]) and deterministic synthetic dataset models matching
//! the published statistics of ImageNet, KiTS19 and MS-COCO
//! ([`ImageDatasetModel`], [`VolumeDatasetModel`]).
//!
//! ```
//! use lotus_data::ImageDatasetModel;
//!
//! let imagenet = ImageDatasetModel::imagenet(42);
//! let rec = imagenet.record(0);
//! assert!(rec.file_bytes > 0);
//! let img = rec.materialize();
//! assert_eq!(img.height(), rec.height as usize);
//! ```

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dist;
pub mod stats;

mod dataset;
mod image;
mod tensor;

pub use dataset::{
    mix_seed, AudioDatasetModel, AudioRecord, ImageDatasetModel, ImageRecord, VolumeDatasetModel,
    VolumeRecord,
};
pub use image::Image;
pub use tensor::{DType, Tensor, TensorData};
