//! The SJPG codec: a real JPEG-style encoder/decoder whose phases execute
//! (and are costed as) the paper's Table I native kernels.

use lotus_data::Image;
use lotus_uarch::{CpuThread, Machine, Vendor};

use crate::bits::{BitReader, BitWriter};
use crate::color::{planar_420_to_rgb, rgb_to_planar_420, PlanarYcc};
use crate::dct::{
    dequantize, fdct8x8, idct8x8, quantize, scale_quant_table, BLOCK, BLOCK_LEN, CHROMA_QUANT,
    LUMA_QUANT,
};
use crate::entropy::{decode_blocks, encode_blocks};
use crate::kernels::CodecKernels;

/// Size of the SJPG header in bytes, counted into
/// [`EncodedImage::file_bytes`]: the magic `SJPG`, the format revision,
/// the quality, two zero bytes, then the width and the height as
/// little-endian `u32`s.
pub const HEADER_BYTES: u64 = HEADER_LEN as u64;

const HEADER_LEN: usize = 16;

const MAGIC: [u8; 4] = *b"SJPG";

/// Revision of the byte layout [`EncodedImage::to_bytes`] writes;
/// [`EncodedImage::from_bytes`] reads no other.
const FORMAT_REVISION: u8 = 1;

/// The largest width or height SJPG accepts: JPEG's 16-bit limit.
pub const MAX_SIDE: u32 = 65_535;

/// Errors from parsing or decoding an [`EncodedImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The entropy bitstream ended before all blocks were decoded.
    Truncated,
    /// The file is shorter than the header, or its magic or zero bytes
    /// are wrong.
    BadHeader,
    /// The header names a format revision that
    /// [`EncodedImage::to_bytes`] does not write.
    UnsupportedRevision(u8),
    /// The header declares a quality outside 1–100.
    InvalidQuality(u8),
    /// The header declares a zero side, or one above [`MAX_SIDE`].
    InvalidDimensions {
        /// Declared width.
        width: u32,
        /// Declared height.
        height: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("truncated sjpg bitstream"),
            CodecError::BadHeader => f.write_str("not an sjpg file"),
            CodecError::UnsupportedRevision(rev) => {
                write!(f, "unsupported sjpg format revision {rev}")
            }
            CodecError::InvalidQuality(q) => write!(f, "invalid sjpg quality {q}"),
            CodecError::InvalidDimensions { width, height } => {
                write!(f, "invalid sjpg dimensions {width}x{height}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An encoded SJPG image ("file").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedImage {
    /// Decoded width in pixels.
    pub width: u32,
    /// Decoded height in pixels.
    pub height: u32,
    /// Encoding quality (1–100).
    pub quality: u8,
    data: Vec<u8>,
}

impl EncodedImage {
    /// Total file size (header + entropy data).
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        HEADER_BYTES + self.data.len() as u64
    }

    /// The entropy-coded payload.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.data
    }

    /// Truncates the entropy payload to at most `len` bytes — a
    /// fault-injection helper for exercising decoder robustness against
    /// corrupt files.
    pub fn truncate_payload(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// The file's bytes: the [`HEADER_BYTES`] header, then the payload,
    /// so `to_bytes().len() == file_bytes()`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + self.data.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&[FORMAT_REVISION, self.quality, 0, 0]);
        bytes.extend_from_slice(&self.width.to_le_bytes());
        bytes.extend_from_slice(&self.height.to_le_bytes());
        bytes.extend_from_slice(&self.data);
        bytes
    }

    /// Parses a file written by [`to_bytes`](Self::to_bytes). Whatever
    /// follows the header is the payload; [`Codec::decode`] finds out
    /// whether it holds enough blocks.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for a short file, a wrong magic or zero
    /// byte, another format revision, or a quality or side out of range.
    pub fn from_bytes(bytes: &[u8]) -> Result<EncodedImage, CodecError> {
        let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
            return Err(CodecError::BadHeader);
        };
        if header[..4] != MAGIC || header[6..8] != [0, 0] {
            return Err(CodecError::BadHeader);
        }
        if header[4] != FORMAT_REVISION {
            return Err(CodecError::UnsupportedRevision(header[4]));
        }
        let le_u32 = |at: usize| {
            u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
        };
        let encoded = EncodedImage {
            width: le_u32(8),
            height: le_u32(12),
            quality: header[5],
            data: payload.to_vec(),
        };
        encoded.check_header()?;
        Ok(encoded)
    }

    /// Checks the header fields every decode sizes its work by.
    fn check_header(&self) -> Result<(), CodecError> {
        if !(1..=100).contains(&self.quality) {
            return Err(CodecError::InvalidQuality(self.quality));
        }
        let side_ok = |side: u32| (1..=MAX_SIDE).contains(&side);
        if !side_ok(self.width) || !side_ok(self.height) {
            return Err(CodecError::InvalidDimensions {
                width: self.width,
                height: self.height,
            });
        }
        Ok(())
    }
}

/// Per-plane block geometry for an image, shared by the real decode path
/// and the cost-only path so the two always charge identical work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockGeometry {
    luma_blocks: u64,
    chroma_blocks_per_plane: u64,
    pixels: u64,
    chroma_samples: u64,
}

fn geometry(width: u32, height: u32) -> BlockGeometry {
    let (w, h) = (u64::from(width), u64::from(height));
    let (cw, ch) = (w.div_ceil(2), h.div_ceil(2));
    BlockGeometry {
        luma_blocks: w.div_ceil(8) * h.div_ceil(8),
        chroma_blocks_per_plane: cw.div_ceil(8) * ch.div_ceil(8),
        pixels: w * h,
        chroma_samples: cw * ch * 2,
    }
}

/// The SJPG codec bound to one machine's kernel registry.
///
/// ```
/// use std::sync::Arc;
/// use lotus_codec::Codec;
/// use lotus_data::Image;
/// use lotus_uarch::{CpuThread, Machine, MachineConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let machine = Machine::new(MachineConfig::cloudlab_c4130());
/// let codec = Codec::new(&machine);
/// let mut cpu = CpuThread::new(Arc::clone(&machine));
/// let original = Image::synthetic(48, 64, &mut StdRng::seed_from_u64(1));
/// let encoded = codec.encode(&original, 85, &mut cpu);
/// let decoded = codec.decode(&encoded, &mut cpu)?;
/// assert_eq!(decoded.width(), 64);
/// # Ok::<(), lotus_codec::CodecError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    kernels: CodecKernels,
    vendor: Vendor,
}

impl Codec {
    /// Creates a codec, registering its kernel inventory on `machine`.
    #[must_use]
    pub fn new(machine: &Machine) -> Codec {
        Codec {
            kernels: CodecKernels::register(machine),
            vendor: machine.config().vendor,
        }
    }

    /// The codec's kernel ids (for mapping and attribution tests).
    #[must_use]
    pub fn kernels(&self) -> &CodecKernels {
        &self.kernels
    }

    /// Encodes `image` at `quality`, executing the encode-path kernels on
    /// `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside 1–100.
    #[must_use]
    pub fn encode(&self, image: &Image, quality: u8, cpu: &mut CpuThread) -> EncodedImage {
        let geo = geometry(image.width() as u32, image.height() as u32);
        cpu.exec(self.kernels.rgb_ycc_convert, geo.pixels as f64);
        let planar = cpu.observe_native(self.kernels.rgb_ycc_convert, || {
            rgb_to_planar_420(image.pixels(), image.height(), image.width())
        });
        let luma_table = scale_quant_table(&LUMA_QUANT, quality);
        let chroma_table = scale_quant_table(&CHROMA_QUANT, quality);

        cpu.exec(
            self.kernels.fdct_islow,
            (geo.luma_blocks + 2 * geo.chroma_blocks_per_plane) as f64 * BLOCK_LEN as f64,
        );
        let (y_blocks, cb_blocks, cr_blocks) = cpu.observe_native(self.kernels.fdct_islow, || {
            (
                plane_to_blocks(&planar.y, planar.height, planar.width, &luma_table),
                plane_to_blocks(
                    &planar.cb,
                    planar.chroma_height(),
                    planar.chroma_width(),
                    &chroma_table,
                ),
                plane_to_blocks(
                    &planar.cr,
                    planar.chroma_height(),
                    planar.chroma_width(),
                    &chroma_table,
                ),
            )
        });

        let data = cpu.observe_native(self.kernels.encode_mcu, || {
            let mut writer = BitWriter::new();
            encode_blocks(&y_blocks, &mut writer);
            encode_blocks(&cb_blocks, &mut writer);
            encode_blocks(&cr_blocks, &mut writer);
            writer.finish()
        });
        cpu.exec(self.kernels.encode_mcu, data.len() as f64);
        cpu.exec(self.kernels.memcpy, data.len() as f64);
        EncodedImage {
            width: image.width() as u32,
            height: image.height() as u32,
            quality,
            data,
        }
    }

    /// Decodes `encoded`, executing the decode-path (Loader) kernels on
    /// `cpu`. This is the real-compute twin of
    /// [`Codec::charge_decode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for truncated or malformed input, and for a
    /// quality or side out of range.
    pub fn decode(&self, encoded: &EncodedImage, cpu: &mut CpuThread) -> Result<Image, CodecError> {
        encoded.check_header()?;
        self.charge_decode(encoded.width, encoded.height, encoded.file_bytes(), cpu);

        let geo = geometry(encoded.width, encoded.height);
        let mut reader = BitReader::new(&encoded.data);
        let decoded = cpu.observe_native(self.kernels.decode_mcu, || {
            let y = decode_blocks(&mut reader, geo.luma_blocks as usize)?;
            let cb = decode_blocks(&mut reader, geo.chroma_blocks_per_plane as usize)?;
            let cr = decode_blocks(&mut reader, geo.chroma_blocks_per_plane as usize)?;
            Ok((y.0, cb.0, cr.0))
        });
        let (y_blocks, cb_blocks, cr_blocks) =
            decoded.map_err(|_: crate::bits::BitstreamExhausted| CodecError::Truncated)?;

        let luma_table = scale_quant_table(&LUMA_QUANT, encoded.quality);
        let chroma_table = scale_quant_table(&CHROMA_QUANT, encoded.quality);
        let (w, h) = (encoded.width as usize, encoded.height as usize);
        let (cw, ch) = (w.div_ceil(2), h.div_ceil(2));
        let y = cpu.observe_native(self.kernels.idct_islow, || {
            blocks_to_plane(&y_blocks, h, w, &luma_table)
        });
        let (cb, cr) = cpu.observe_native(self.kernels.idct_16x16, || {
            (
                blocks_to_plane(&cb_blocks, ch, cw, &chroma_table),
                blocks_to_plane(&cr_blocks, ch, cw, &chroma_table),
            )
        });
        let planar = PlanarYcc {
            height: h,
            width: w,
            y,
            cb,
            cr,
        };
        let rgb = cpu.observe_native(self.kernels.ycc_rgb_convert, || planar_420_to_rgb(&planar));
        Ok(cpu.observe_native(self.kernels.unpack_rgb, || Image::from_pixels(h, w, rgb)))
    }

    /// Charges the encode-path kernel costs for an image of the given
    /// dimensions producing `payload_bytes` of entropy data, without
    /// touching pixels — the cost-only twin of [`Codec::encode`].
    pub fn charge_encode(&self, width: u32, height: u32, payload_bytes: u64, cpu: &mut CpuThread) {
        let geo = geometry(width, height);
        cpu.exec(self.kernels.rgb_ycc_convert, geo.pixels as f64);
        cpu.exec(
            self.kernels.fdct_islow,
            (geo.luma_blocks + 2 * geo.chroma_blocks_per_plane) as f64 * BLOCK_LEN as f64,
        );
        cpu.exec(self.kernels.encode_mcu, payload_bytes as f64);
        cpu.exec(self.kernels.memcpy, payload_bytes as f64);
    }

    /// Charges the decode-path kernel costs for an image of the given
    /// dimensions and encoded size, without touching pixel data. The
    /// simulation's fast path; guaranteed to charge exactly what
    /// [`Codec::decode`] charges for the same geometry.
    pub fn charge_decode(&self, width: u32, height: u32, file_bytes: u64, cpu: &mut CpuThread) {
        let geo = geometry(width, height);
        let payload = file_bytes.saturating_sub(HEADER_BYTES) as f64;
        let decoded_bytes = (geo.pixels * 3) as f64;
        cpu.exec(self.kernels.alloc_output, decoded_bytes);
        cpu.exec(self.kernels.memset, decoded_bytes);
        cpu.exec(self.kernels.fill_bit_buffer, payload);
        cpu.exec(self.kernels.decode_mcu, payload);
        cpu.exec(
            self.kernels.idct_islow,
            (geo.luma_blocks * BLOCK_LEN as u64) as f64,
        );
        cpu.exec(
            self.kernels.idct_16x16,
            (2 * geo.chroma_blocks_per_plane * BLOCK_LEN as u64) as f64,
        );
        match self.vendor {
            Vendor::Intel => {
                // Upsampling is merged into the one-pass driver on Intel.
                cpu.exec(
                    self.kernels.decompress_driver,
                    (geo.pixels + geo.chroma_samples) as f64,
                );
            }
            Vendor::Amd => {
                cpu.exec(self.kernels.decompress_driver, geo.pixels as f64);
                if let Some(upsample) = self.kernels.sep_upsample {
                    cpu.exec(upsample, geo.chroma_samples as f64);
                }
            }
        }
        cpu.exec(self.kernels.ycc_rgb_convert, geo.pixels as f64);
        cpu.exec(self.kernels.unpack_rgb, geo.pixels as f64);
        cpu.exec(self.kernels.memcpy, decoded_bytes);
    }
}

/// Splits a plane into quantized 8×8 blocks (row-major block order),
/// padding edges by replication.
fn plane_to_blocks(
    plane: &[u8],
    height: usize,
    width: usize,
    table: &[u16; BLOCK_LEN],
) -> Vec<[i16; BLOCK_LEN]> {
    let mut blocks = Vec::with_capacity(height.div_ceil(8) * width.div_ceil(8));
    for by in 0..height.div_ceil(8) {
        for bx in 0..width.div_ceil(8) {
            let mut samples = [0.0f64; BLOCK_LEN];
            for y in 0..BLOCK {
                for x in 0..BLOCK {
                    let py = (by * BLOCK + y).min(height - 1);
                    let px = (bx * BLOCK + x).min(width - 1);
                    samples[y * BLOCK + x] = f64::from(plane[py * width + px]) - 128.0;
                }
            }
            blocks.push(quantize(&fdct8x8(&samples), table));
        }
    }
    blocks
}

/// Reassembles a plane from quantized blocks.
fn blocks_to_plane(
    blocks: &[[i16; BLOCK_LEN]],
    height: usize,
    width: usize,
    table: &[u16; BLOCK_LEN],
) -> Vec<u8> {
    let blocks_wide = width.div_ceil(8);
    let mut plane = vec![0u8; height * width];
    for (bi, q) in blocks.iter().enumerate() {
        let by = bi / blocks_wide;
        let bx = bi % blocks_wide;
        let samples = idct8x8(&dequantize(q, table));
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                let py = by * BLOCK + y;
                let px = bx * BLOCK + x;
                if py < height && px < width {
                    plane[py * width + px] =
                        (samples[y * BLOCK + x] + 128.0).round().clamp(0.0, 255.0) as u8;
                }
            }
        }
    }
    plane
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_uarch::MachineConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (Arc<Machine>, Codec, CpuThread) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let cpu = CpuThread::new(Arc::clone(&machine));
        (machine, codec, cpu)
    }

    fn psnr(a: &Image, b: &Image) -> f64 {
        let mse: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
            .sum::<f64>()
            / a.pixels().len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    #[test]
    fn round_trip_preserves_dimensions_and_content() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(40, 56, &mut StdRng::seed_from_u64(5));
        let encoded = codec.encode(&original, 90, &mut cpu);
        let decoded = codec.decode(&encoded, &mut cpu).unwrap();
        assert_eq!(decoded.height(), 40);
        assert_eq!(decoded.width(), 56);
        let q = psnr(&original, &decoded);
        assert!(q > 28.0, "PSNR too low: {q} dB");
    }

    #[test]
    fn higher_quality_means_bigger_files_and_better_psnr() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(64, 64, &mut StdRng::seed_from_u64(9));
        let low = codec.encode(&original, 20, &mut cpu);
        let high = codec.encode(&original, 95, &mut cpu);
        assert!(high.file_bytes() > low.file_bytes());
        let low_psnr = psnr(&original, &codec.decode(&low, &mut cpu).unwrap());
        let high_psnr = psnr(&original, &codec.decode(&high, &mut cpu).unwrap());
        assert!(high_psnr > low_psnr, "{high_psnr} vs {low_psnr}");
    }

    #[test]
    fn compression_actually_compresses() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(96, 96, &mut StdRng::seed_from_u64(2));
        let encoded = codec.encode(&original, 75, &mut cpu);
        assert!(
            encoded.file_bytes() < original.len_bytes() as u64 / 2,
            "encoded {} vs raw {}",
            encoded.file_bytes(),
            original.len_bytes()
        );
    }

    #[test]
    fn decode_charges_exactly_what_charge_decode_charges() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let original = Image::synthetic(33, 47, &mut StdRng::seed_from_u64(3));
        let encoded = codec.encode(&original, 80, &mut cpu);

        let mut real_cpu = CpuThread::new(Arc::clone(&machine));
        codec.decode(&encoded, &mut real_cpu).unwrap();
        let mut cost_cpu = CpuThread::new(Arc::clone(&machine));
        codec.charge_decode(
            encoded.width,
            encoded.height,
            encoded.file_bytes(),
            &mut cost_cpu,
        );
        assert_eq!(real_cpu.cursor(), cost_cpu.cursor());
    }

    #[test]
    fn encode_charges_exactly_what_charge_encode_charges() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let original = Image::synthetic(40, 24, &mut StdRng::seed_from_u64(8));
        let mut real = CpuThread::new(Arc::clone(&machine));
        let encoded = codec.encode(&original, 80, &mut real);
        let mut cost = CpuThread::new(Arc::clone(&machine));
        codec.charge_encode(
            encoded.width,
            encoded.height,
            encoded.payload().len() as u64,
            &mut cost,
        );
        assert_eq!(real.cursor(), cost.cursor());
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(32, 32, &mut StdRng::seed_from_u64(4));
        let mut encoded = codec.encode(&original, 80, &mut cpu);
        let quarter = encoded.payload().len() / 4;
        encoded.truncate_payload(quarter);
        assert_eq!(codec.decode(&encoded, &mut cpu), Err(CodecError::Truncated));
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        let (_m, codec, mut cpu) = setup();
        let bogus = EncodedImage {
            width: 0,
            height: 32,
            quality: 80,
            data: vec![],
        };
        assert!(matches!(
            codec.decode(&bogus, &mut cpu),
            Err(CodecError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn quality_outside_1_to_100_is_an_error() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(16, 16, &mut StdRng::seed_from_u64(6));
        let mut encoded = codec.encode(&original, 80, &mut cpu);
        for quality in [0, 101, u8::MAX] {
            encoded.quality = quality;
            assert_eq!(
                codec.decode(&encoded, &mut cpu),
                Err(CodecError::InvalidQuality(quality))
            );
        }
    }

    #[test]
    fn sides_above_the_16_bit_limit_are_an_error() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(16, 16, &mut StdRng::seed_from_u64(7));
        let mut encoded = codec.encode(&original, 80, &mut cpu);
        for (width, height) in [(u32::MAX, u32::MAX), (MAX_SIDE + 1, 16), (16, MAX_SIDE + 1)] {
            encoded.width = width;
            encoded.height = height;
            assert_eq!(
                codec.decode(&encoded, &mut cpu),
                Err(CodecError::InvalidDimensions { width, height })
            );
        }
    }

    #[test]
    fn bytes_round_trip_and_count_as_the_file_size() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(20, 28, &mut StdRng::seed_from_u64(12));
        let encoded = codec.encode(&original, 85, &mut cpu);
        let bytes = encoded.to_bytes();
        assert_eq!(bytes.len() as u64, encoded.file_bytes());
        assert_eq!(&bytes[..4], b"SJPG");
        assert_eq!(EncodedImage::from_bytes(&bytes), Ok(encoded));
    }

    #[test]
    fn malformed_headers_are_errors() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(16, 24, &mut StdRng::seed_from_u64(13));
        let good = codec.encode(&original, 85, &mut cpu).to_bytes();
        let edited = |at: usize, value: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + value.len()].copy_from_slice(value);
            EncodedImage::from_bytes(&bytes)
        };
        assert_eq!(
            EncodedImage::from_bytes(&good[..15]),
            Err(CodecError::BadHeader)
        );
        assert_eq!(EncodedImage::from_bytes(&[]), Err(CodecError::BadHeader));
        assert_eq!(edited(0, b"JPEG"), Err(CodecError::BadHeader));
        assert_eq!(edited(7, &[1]), Err(CodecError::BadHeader));
        assert_eq!(edited(4, &[2]), Err(CodecError::UnsupportedRevision(2)));
        assert_eq!(edited(5, &[0]), Err(CodecError::InvalidQuality(0)));
        assert_eq!(
            edited(8, &0u32.to_le_bytes()),
            Err(CodecError::InvalidDimensions {
                width: 0,
                height: 16
            })
        );
        assert_eq!(
            edited(12, &(MAX_SIDE + 1).to_le_bytes()),
            Err(CodecError::InvalidDimensions {
                width: 24,
                height: MAX_SIDE + 1
            })
        );
        // A bare header is a well-formed file whose payload is empty.
        let header_only = EncodedImage::from_bytes(&good[..16]).unwrap();
        assert_eq!(header_only.payload(), &[] as &[u8]);
        assert_eq!(
            codec.decode(&header_only, &mut cpu),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn odd_sized_images_round_trip() {
        let (_m, codec, mut cpu) = setup();
        let original = Image::synthetic(17, 23, &mut StdRng::seed_from_u64(11));
        let encoded = codec.encode(&original, 85, &mut cpu);
        let decoded = codec.decode(&encoded, &mut cpu).unwrap();
        assert_eq!((decoded.height(), decoded.width()), (17, 23));
    }

    #[test]
    fn decode_time_scales_with_image_size() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let mut small = CpuThread::new(Arc::clone(&machine));
        codec.charge_decode(100, 100, 8_000, &mut small);
        let mut large = CpuThread::new(Arc::clone(&machine));
        codec.charge_decode(1000, 1000, 600_000, &mut large);
        assert!(large.cursor().as_nanos() > 20 * small.cursor().as_nanos());
    }
}
