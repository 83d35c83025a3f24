//! Output checks on the untraced run: a dataset wrapper that presents the
//! benchmark's epoch order to the loader and inspects every sample the
//! program returns, plus the codec's round-trip fidelity.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use lotus::data::Image;
use lotus::dataflow::Dataset;
use lotus::transforms::{PipelineError, Sample, TransformCtx, TransformObserver};

/// Presents `order` (wrapper index → program index) as the dataset and
/// checks each sample the wrapped program dataset returns: exactly one
/// visit per index, the declared tensor shape, only finite values. An
/// order-independent digest of the epoch's tensors lets epochs be
/// compared for determinism.
pub struct CheckedDataset {
    inner: Arc<dyn Dataset>,
    order: Arc<Vec<u64>>,
    shape: [usize; 3],
    visits: Vec<AtomicU32>,
    digest: AtomicU64,
    bad: AtomicU64,
}

impl CheckedDataset {
    /// Wraps `inner`, visiting `order`, expecting tensors of `shape`.
    pub fn new(inner: Arc<dyn Dataset>, order: Arc<Vec<u64>>, shape: [usize; 3]) -> Self {
        let visits = (0..order.len()).map(|_| AtomicU32::new(0)).collect();
        CheckedDataset {
            inner,
            order,
            shape,
            visits,
            digest: AtomicU64::new(0),
            bad: AtomicU64::new(0),
        }
    }

    /// The epoch's verdict once the run is over.
    pub fn verdict(&self) -> EpochCheck {
        let mut missing = 0;
        let mut repeated = 0;
        for v in &self.visits {
            match v.load(Ordering::Relaxed) {
                0 => missing += 1,
                1 => {}
                n => repeated += u64::from(n - 1),
            }
        }
        EpochCheck {
            missing,
            repeated,
            bad_samples: self.bad.load(Ordering::Relaxed),
            digest: self.digest.load(Ordering::Relaxed),
        }
    }
}

/// What [`CheckedDataset`] saw over one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCheck {
    /// Epoch indices never fetched.
    pub missing: u64,
    /// Fetches beyond the first of an index.
    pub repeated: u64,
    /// Samples with a wrong shape or a non-finite value.
    pub bad_samples: u64,
    /// Order-independent digest of every sample's tensor.
    pub digest: u64,
}

impl Dataset for CheckedDataset {
    fn len(&self) -> u64 {
        self.order.len() as u64
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        let slot = index as usize;
        let sample = self.inner.get_item(self.order[slot], ctx, observer)?;
        self.visits[slot].fetch_add(1, Ordering::Relaxed);
        match sample_digest(&sample, &self.shape) {
            Some(h) => {
                self.digest.fetch_add(h, Ordering::Relaxed);
            }
            None => {
                self.bad.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(sample)
    }

    fn cost_hint(&self, index: u64) -> Option<u64> {
        self.inner.cost_hint(self.order[index as usize])
    }
}

/// splitmix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A digest of one sample's shape and values, or `None` when the sample
/// is not a tensor of `shape` or holds a non-finite value. Cost-only
/// samples digest their shape alone.
pub fn sample_digest(sample: &Sample, shape: &[usize]) -> Option<u64> {
    let Sample::Tensor {
        shape: declared,
        data,
        ..
    } = sample
    else {
        return None;
    };
    if declared != shape {
        return None;
    }
    let mut h = shape
        .iter()
        .fold(0x243F_6A88_85A3_08D3, |h, &d| mix(h ^ d as u64));
    if let Some(tensor) = data {
        if tensor.shape() != shape {
            return None;
        }
        let values = tensor.try_as_f32()?;
        // Eight independent lanes keep the pass cheap next to the
        // transforms that produced the tensor.
        const LANES: usize = 8;
        let mut acc = [0u64; LANES];
        let mut finite = true;
        let chunks = values.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (a, v) in acc.iter_mut().zip(chunk) {
                finite &= v.is_finite();
                *a = (*a ^ u64::from(v.to_bits())).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }
        for v in tail {
            finite &= v.is_finite();
            h = mix(h ^ u64::from(v.to_bits()));
        }
        if !finite {
            return None;
        }
        h = acc.iter().fold(h, |h, &a| mix(h ^ a));
    }
    Some(mix(h))
}

/// Peak signal-to-noise ratio of `decoded` against `original`, in dB
/// (infinite for identical images).
pub fn psnr_db(original: &Image, decoded: &Image) -> f64 {
    let (a, b) = (original.pixels(), decoded.pixels());
    if a.len() != b.len() || a.is_empty() {
        return 0.0;
    }
    let sse: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
        .sum();
    let mse = sse / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0 * 255.0 / mse).log10()
    }
}

/// The lowest round-trip PSNR the codec may show at the quality the
/// dataset encodes with before outputs count as wrong.
pub const PSNR_FLOOR_DB: f64 = 30.0;

#[cfg(test)]
mod tests {
    use super::*;
    use lotus::data::{DType, Tensor};

    #[test]
    fn digest_rejects_wrong_shapes_and_non_finite_values() {
        let shape = [3, 2, 2];
        let good = Sample::tensor(Tensor::from_f32(&shape, vec![0.5; 12]));
        assert!(sample_digest(&good, &shape).is_some());
        assert!(sample_digest(&good, &[3, 2, 3]).is_none());
        let mut values = vec![0.5; 12];
        values[11] = f32::NAN;
        let nan = Sample::tensor(Tensor::from_f32(&shape, values));
        assert!(sample_digest(&nan, &shape).is_none());
        let meta = Sample::tensor_meta(&shape, DType::F32);
        assert!(sample_digest(&meta, &shape).is_some());
        assert!(sample_digest(&Sample::image_meta(2, 2), &shape).is_none());
    }

    #[test]
    fn digest_sees_every_value() {
        let shape = [1, 3, 3];
        let a = Sample::tensor(Tensor::from_f32(&shape, vec![1.0; 9]));
        let mut values = vec![1.0; 9];
        values[8] = 2.0;
        let b = Sample::tensor(Tensor::from_f32(&shape, values));
        assert_ne!(sample_digest(&a, &shape), sample_digest(&b, &shape));
    }
}
