//! # lotus-codec — the SJPG image codec
//!
//! A real, from-scratch JPEG-style codec (DCT, quantization, zig-zag,
//! run-length/category entropy coding, 4:2:0 chroma) whose internal phases
//! are factored into the *named native kernels* of the paper's Table I
//! (`decode_mcu`, `jpeg_idct_islow`, `ycc_rgb_convert`,
//! `__memcpy_avx_unaligned_erms`, …). Decoding an image both produces real
//! pixels and charges modelled hardware cost to a
//! [`lotus_uarch::CpuThread`]; the geometry-only twin
//! [`Codec::charge_decode`] charges identical cost without materializing
//! pixels, which is what the large-scale pipeline simulations use.
//!
//! See [`Codec`] for an end-to-end example.

#![warn(missing_docs)]
// The whole workspace is safe Rust; determinism and auditability both
// lean on it. Gate any future exception through a crate-level decision.
#![deny(unsafe_code)]
// Library code must surface failures as typed errors; every remaining
// panic site carries a targeted `#[allow]` with its invariant argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bits;
pub mod color;
pub mod dct;
pub mod dsp;
pub mod entropy;

mod codec;
mod kernels;

pub use codec::{Codec, CodecError, EncodedImage, HEADER_BYTES};
pub use kernels::{libs, CodecKernels};
