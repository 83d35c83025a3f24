//! A minimal dense tensor, sufficient for the preprocessing transforms.

/// Element type of a [`Tensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned 8-bit (decoded image bytes).
    U8,
    /// 32-bit float (normalized model inputs).
    F32,
}

impl DType {
    /// Size of one element in bytes.
    #[must_use]
    pub fn size_bytes(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::F32 => 4,
        }
    }
}

/// Storage for a [`Tensor`].
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// Unsigned 8-bit buffer.
    U8(Vec<u8>),
    /// 32-bit float buffer.
    F32(Vec<f32>),
}

/// A dense, row-major tensor.
///
/// Only what the preprocessing pipelines need: shape/dtype bookkeeping,
/// elementwise access, and conversions. Layout for images is CHW after
/// `ToTensor` (PyTorch convention) and HWC before.
///
/// ```
/// use lotus_data::{DType, Tensor};
///
/// let t = Tensor::zeros(&[3, 2, 2], DType::F32);
/// assert_eq!(t.len(), 12);
/// assert_eq!(t.size_bytes(), 48);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: TensorData,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty.
    #[must_use]
    pub fn zeros(shape: &[usize], dtype: DType) -> Tensor {
        assert!(
            !shape.is_empty(),
            "tensor shape must have at least one dimension"
        );
        let len = shape.iter().product();
        let data = match dtype {
            DType::U8 => TensorData::U8(vec![0; len]),
            DType::F32 => TensorData::F32(vec![0.0; len]),
        };
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Wraps an owned u8 buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    #[must_use]
    pub fn from_u8(shape: &[usize], data: Vec<u8>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data: TensorData::U8(data),
        }
    }

    /// Wraps an owned f32 buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    #[must_use]
    pub fn from_f32(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data: TensorData::F32(data),
        }
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True for a zero-element tensor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    #[must_use]
    pub fn dtype(&self) -> DType {
        match self.data {
            TensorData::U8(_) => DType::U8,
            TensorData::F32(_) => DType::F32,
        }
    }

    /// Total buffer size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.len() * self.dtype().size_bytes()
    }

    /// Borrows the u8 buffer, or `None` if the dtype is not [`DType::U8`].
    #[must_use]
    pub fn try_as_u8(&self) -> Option<&[u8]> {
        match &self.data {
            TensorData::U8(v) => Some(v),
            TensorData::F32(_) => None,
        }
    }

    /// Mutably borrows the u8 buffer, or `None` if the dtype is not
    /// [`DType::U8`].
    pub fn try_as_u8_mut(&mut self) -> Option<&mut [u8]> {
        match &mut self.data {
            TensorData::U8(v) => Some(v),
            TensorData::F32(_) => None,
        }
    }

    /// Borrows the u8 buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dtype is not [`DType::U8`]; use [`Tensor::try_as_u8`]
    /// where a typed error is needed instead.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn as_u8(&self) -> &[u8] {
        self.try_as_u8().expect("tensor is f32, expected u8")
    }

    /// Mutably borrows the u8 buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dtype is not [`DType::U8`].
    #[allow(clippy::expect_used)]
    pub fn as_u8_mut(&mut self) -> &mut [u8] {
        self.try_as_u8_mut().expect("tensor is f32, expected u8")
    }

    /// Borrows the f32 buffer, or `None` if the dtype is not [`DType::F32`].
    #[must_use]
    pub fn try_as_f32(&self) -> Option<&[f32]> {
        match &self.data {
            TensorData::F32(v) => Some(v),
            TensorData::U8(_) => None,
        }
    }

    /// Mutably borrows the f32 buffer, or `None` if the dtype is not
    /// [`DType::F32`].
    pub fn try_as_f32_mut(&mut self) -> Option<&mut [f32]> {
        match &mut self.data {
            TensorData::F32(v) => Some(v),
            TensorData::U8(_) => None,
        }
    }

    /// Borrows the f32 buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dtype is not [`DType::F32`]; use [`Tensor::try_as_f32`]
    /// where a typed error is needed instead.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn as_f32(&self) -> &[f32] {
        self.try_as_f32().expect("tensor is u8, expected f32")
    }

    /// Mutably borrows the f32 buffer.
    ///
    /// # Panics
    ///
    /// Panics if the dtype is not [`DType::F32`].
    #[allow(clippy::expect_used)]
    pub fn as_f32_mut(&mut self) -> &mut [f32] {
        self.try_as_f32_mut().expect("tensor is u8, expected f32")
    }

    /// Converts to f32 in `[0, 1]` (PyTorch `ToTensor` scaling) if u8;
    /// returns self unchanged if already f32.
    #[must_use]
    pub fn to_f32_scaled(&self) -> Tensor {
        match &self.data {
            TensorData::F32(_) => self.clone(),
            TensorData::U8(v) => Tensor {
                shape: self.shape.clone(),
                data: TensorData::F32(v.iter().map(|&b| f32::from(b) / 255.0).collect()),
            },
        }
    }

    /// Converts to u8 with saturation (the IS pipeline's `Cast`).
    #[must_use]
    pub fn to_u8_saturating(&self) -> Tensor {
        match &self.data {
            TensorData::U8(_) => self.clone(),
            TensorData::F32(v) => Tensor {
                shape: self.shape.clone(),
                data: TensorData::U8(v.iter().map(|&f| f.clamp(0.0, 255.0) as u8).collect()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_len_and_dtype() {
        let t = Tensor::zeros(&[2, 3, 4], DType::U8);
        assert_eq!(t.len(), 24);
        assert_eq!(t.dtype(), DType::U8);
        assert_eq!(t.size_bytes(), 24);
        assert!(t.as_u8().iter().all(|&b| b == 0));
    }

    #[test]
    fn f32_size_is_four_bytes_per_element() {
        let t = Tensor::zeros(&[5], DType::F32);
        assert_eq!(t.size_bytes(), 20);
    }

    #[test]
    fn to_f32_scaled_maps_255_to_1() {
        let t = Tensor::from_u8(&[3], vec![0, 128, 255]);
        let f = t.to_f32_scaled();
        let v = f.as_f32();
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 128.0 / 255.0).abs() < 1e-6);
        assert_eq!(v[2], 1.0);
    }

    #[test]
    fn to_u8_saturates() {
        let t = Tensor::from_f32(&[3], vec![-5.0, 100.2, 300.0]);
        assert_eq!(t.to_u8_saturating().as_u8(), &[0, 100, 255]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn mismatched_shape_is_rejected() {
        let _ = Tensor::from_u8(&[2, 2], vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "expected u8")]
    fn wrong_dtype_access_panics() {
        let t = Tensor::zeros(&[1], DType::F32);
        let _ = t.as_u8();
    }
}
