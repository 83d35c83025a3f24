//! Raw decoded images (HWC, 8-bit).

use rand::Rng;

use crate::tensor::Tensor;

/// A decoded RGB image in HWC layout, 8 bits per channel.
///
/// ```
/// use lotus_data::Image;
///
/// let img = Image::filled(4, 6, [10, 20, 30]);
/// assert_eq!(img.pixel(2, 3), [10, 20, 30]);
/// assert_eq!(img.len_bytes(), 4 * 6 * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    height: usize,
    width: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// Number of channels (always RGB here, like torchvision's
    /// `pil_loader` which converts everything to RGB).
    pub const CHANNELS: usize = 3;

    /// Creates an image filled with one color.
    #[must_use]
    pub fn filled(height: usize, width: usize, rgb: [u8; 3]) -> Image {
        let mut pixels = Vec::with_capacity(height * width * Self::CHANNELS);
        for _ in 0..height * width {
            pixels.extend_from_slice(&rgb);
        }
        Image {
            height,
            width,
            pixels,
        }
    }

    /// Wraps an owned HWC pixel buffer.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != height * width * 3`.
    #[must_use]
    pub fn from_pixels(height: usize, width: usize, pixels: Vec<u8>) -> Image {
        assert_eq!(
            pixels.len(),
            height * width * Self::CHANNELS,
            "pixel buffer size mismatch"
        );
        Image {
            height,
            width,
            pixels,
        }
    }

    /// Generates a synthetic photo-like image: smooth gradients plus
    /// seeded noise, so codec round-trips and transforms exercise
    /// realistic (compressible but non-trivial) content.
    #[must_use]
    pub fn synthetic(height: usize, width: usize, rng: &mut impl Rng) -> Image {
        let mut pixels = Vec::with_capacity(height * width * Self::CHANNELS);
        let (fx, fy) = (rng.gen_range(0.5..3.0), rng.gen_range(0.5..3.0));
        let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        for y in 0..height {
            for x in 0..width {
                let u = x as f64 / width.max(1) as f64;
                let v = y as f64 / height.max(1) as f64;
                let base = ((u * fx + v * fy) * std::f64::consts::TAU + phase).sin() * 0.5 + 0.5;
                for c in 0..Self::CHANNELS {
                    let chan = (base * 200.0 + c as f64 * 18.0) as i32;
                    let noise = rng.gen_range(-12i32..=12);
                    pixels.push((chan + noise).clamp(0, 255) as u8);
                }
            }
        }
        Image {
            height,
            width,
            pixels,
        }
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Borrow of the HWC pixel buffer.
    #[must_use]
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Buffer size in bytes.
    #[must_use]
    pub fn len_bytes(&self) -> usize {
        self.pixels.len()
    }

    /// The RGB value at `(y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn pixel(&self, y: usize, x: usize) -> [u8; 3] {
        assert!(
            y < self.height && x < self.width,
            "pixel ({y},{x}) out of bounds"
        );
        let base = (y * self.width + x) * Self::CHANNELS;
        [
            self.pixels[base],
            self.pixels[base + 1],
            self.pixels[base + 2],
        ]
    }

    /// Sets the RGB value at `(y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set_pixel(&mut self, y: usize, x: usize, rgb: [u8; 3]) {
        assert!(
            y < self.height && x < self.width,
            "pixel ({y},{x}) out of bounds"
        );
        let base = (y * self.width + x) * Self::CHANNELS;
        self.pixels[base..base + 3].copy_from_slice(&rgb);
    }

    /// Converts to an HWC u8 tensor (consuming the image).
    #[must_use]
    pub fn into_tensor(self) -> Tensor {
        Tensor::from_u8(&[self.height, self.width, Self::CHANNELS], self.pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn filled_sets_every_pixel() {
        let img = Image::filled(2, 3, [1, 2, 3]);
        for y in 0..2 {
            for x in 0..3 {
                assert_eq!(img.pixel(y, x), [1, 2, 3]);
            }
        }
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut img = Image::filled(4, 4, [0, 0, 0]);
        img.set_pixel(3, 1, [9, 8, 7]);
        assert_eq!(img.pixel(3, 1), [9, 8, 7]);
        assert_eq!(img.pixel(3, 2), [0, 0, 0]);
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let a = Image::synthetic(16, 16, &mut StdRng::seed_from_u64(7));
        let b = Image::synthetic(16, 16, &mut StdRng::seed_from_u64(7));
        let c = Image::synthetic(16, 16, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_has_texture() {
        let img = Image::synthetic(32, 32, &mut StdRng::seed_from_u64(1));
        let distinct: std::collections::HashSet<u8> = img.pixels().iter().copied().collect();
        assert!(distinct.len() > 16, "synthetic image should not be flat");
    }

    #[test]
    fn into_tensor_preserves_shape() {
        let img = Image::filled(5, 7, [3, 3, 3]);
        let t = img.into_tensor();
        assert_eq!(t.shape(), &[5, 7, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_pixel_panics() {
        let img = Image::filled(2, 2, [0; 3]);
        let _ = img.pixel(2, 0);
    }
}
