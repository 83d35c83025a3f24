//! JPEG-style entropy coding of quantized DCT blocks: DC prediction,
//! zero-run-length AC coding, and category/magnitude bit packing.

use crate::bits::{BitReader, BitWriter, BitstreamExhausted};
use crate::dct::{BLOCK_LEN, ZIGZAG};

/// Number of bits needed to represent `v.abs()` (JPEG "category"; 0 for 0).
#[must_use]
pub fn category(v: i16) -> u8 {
    (16 - i32::from(v)
        .unsigned_abs()
        .leading_zeros()
        .saturating_sub(16)) as u8
}

fn magnitude_bits(v: i16, cat: u8) -> u32 {
    // JPEG convention: negative values are stored as v + 2^cat - 1.
    if v >= 0 {
        v as u32
    } else {
        (v + ((1 << cat) - 1)) as u32
    }
}

fn decode_magnitude(bits: u32, cat: u8) -> i16 {
    if cat == 0 {
        return 0;
    }
    let half = 1u32 << (cat - 1);
    if bits >= half {
        bits as i16
    } else {
        (bits as i32 - ((1 << cat) - 1)) as i16
    }
}

/// Statistics from encoding or decoding one block sequence, used for
/// kernel work accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntropyStats {
    /// Number of (run, value) symbols coded, including EOB/ZRL markers.
    pub symbols: u64,
}

/// Encodes a sequence of quantized blocks into `writer`.
///
/// The DC coefficient of each block is delta-coded against the previous
/// block; AC coefficients use (zero-run, category) symbols with EOB and
/// ZRL markers, mirroring baseline JPEG's Huffman layer (the codes
/// themselves are fixed-width nibbles rather than true Huffman codes).
pub fn encode_blocks(blocks: &[[i16; BLOCK_LEN]], writer: &mut BitWriter) -> EntropyStats {
    let mut stats = EntropyStats::default();
    let mut prev_dc = 0i16;
    for block in blocks {
        // DC delta.
        let diff = block[ZIGZAG[0]] - prev_dc;
        prev_dc = block[ZIGZAG[0]];
        let cat = category(diff);
        writer.write_bits(u32::from(cat), 4);
        writer.write_bits(magnitude_bits(diff, cat), cat);
        stats.symbols += 1;
        // AC run-length.
        let mut run = 0u8;
        for &zz in &ZIGZAG[1..] {
            let v = block[zz];
            if v == 0 {
                run += 1;
                continue;
            }
            while run >= 16 {
                // ZRL: sixteen zeros.
                writer.write_bits(0xF, 4);
                writer.write_bits(0x0, 4);
                stats.symbols += 1;
                run -= 16;
            }
            let cat = category(v);
            writer.write_bits(u32::from(run), 4);
            writer.write_bits(u32::from(cat), 4);
            writer.write_bits(magnitude_bits(v, cat), cat);
            stats.symbols += 1;
            run = 0;
        }
        if run > 0 {
            // EOB.
            writer.write_bits(0x0, 4);
            writer.write_bits(0x0, 4);
            stats.symbols += 1;
        }
    }
    stats
}

/// The fewest bits one coded block takes (a 4-bit DC category and one
/// 8-bit AC symbol): a header's untrusted block count reserves no more.
const MIN_BLOCK_BITS: usize = 12;

/// Decodes `count` blocks from `reader`.
///
/// # Errors
///
/// Returns [`BitstreamExhausted`] on a truncated or malformed stream: one
/// that ends early, runs past the end of a block, or predicts a DC value
/// outside `i16`.
pub fn decode_blocks(
    reader: &mut BitReader<'_>,
    count: usize,
) -> Result<(Vec<[i16; BLOCK_LEN]>, EntropyStats), BitstreamExhausted> {
    let mut stats = EntropyStats::default();
    let mut blocks = Vec::with_capacity(count.min(reader.bits_left() / MIN_BLOCK_BITS));
    let mut prev_dc = 0i16;
    for _ in 0..count {
        let mut block = [0i16; BLOCK_LEN];
        let cat = reader.read_bits(4)? as u8;
        let bits = reader.read_bits(cat)?;
        prev_dc = prev_dc
            .checked_add(decode_magnitude(bits, cat))
            .ok_or(BitstreamExhausted)?;
        block[ZIGZAG[0]] = prev_dc;
        stats.symbols += 1;
        let mut pos = 1usize;
        while pos < BLOCK_LEN {
            let run = reader.read_bits(4)? as usize;
            let cat = reader.read_bits(4)? as u8;
            stats.symbols += 1;
            if run == 0 && cat == 0 {
                break; // EOB
            }
            if run == 15 && cat == 0 {
                pos += 16; // ZRL
                continue;
            }
            pos += run;
            if pos >= BLOCK_LEN {
                return Err(BitstreamExhausted);
            }
            let bits = reader.read_bits(cat)?;
            block[ZIGZAG[pos]] = decode_magnitude(bits, cat);
            pos += 1;
        }
        blocks.push(block);
    }
    Ok((blocks, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(blocks: &[[i16; BLOCK_LEN]]) {
        let mut w = BitWriter::new();
        let enc_stats = encode_blocks(blocks, &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (decoded, dec_stats) = decode_blocks(&mut r, blocks.len()).unwrap();
        assert_eq!(decoded, blocks);
        assert_eq!(enc_stats.symbols, dec_stats.symbols);
    }

    #[test]
    fn dc_overflow_is_an_error() {
        // Two +32767 DC differences predict 65534, outside i16.
        let mut w = BitWriter::new();
        for _ in 0..2 {
            w.write_bits(15, 4);
            w.write_bits(0x7FFF, 15);
            w.write_bits(0, 8); // EOB
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_blocks(&mut r, 2), Err(BitstreamExhausted));
    }

    #[test]
    fn hostile_block_count_reserves_only_what_the_stream_holds() {
        // Two empty blocks' worth of bits, and a count no allocator has.
        let bytes = [0u8; 3];
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            decode_blocks(&mut r, usize::MAX / 64),
            Err(BitstreamExhausted)
        );
    }

    #[test]
    fn category_matches_bit_width() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(-3), 2);
        assert_eq!(category(255), 8);
        assert_eq!(category(-256), 9);
        assert_eq!(category(1023), 10);
    }

    #[test]
    fn empty_blocks_round_trip() {
        round_trip(&[[0i16; BLOCK_LEN]; 3]);
    }

    #[test]
    fn dense_blocks_round_trip() {
        let mut block = [0i16; BLOCK_LEN];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as i16 - 32) * 3;
        }
        round_trip(&[block, block]);
    }

    #[test]
    fn sparse_blocks_with_long_runs_round_trip() {
        let mut block = [0i16; BLOCK_LEN];
        block[0] = 100;
        block[ZIGZAG[40]] = -7; // forces > 16-zero runs (ZRL path)
        block[ZIGZAG[63]] = 3;
        round_trip(&[block]);
    }

    #[test]
    fn dc_prediction_spans_blocks() {
        let mut a = [0i16; BLOCK_LEN];
        let mut b = [0i16; BLOCK_LEN];
        a[0] = 500;
        b[0] = 510;
        round_trip(&[a, b]);
        // With prediction, the second DC costs only the 10-unit delta.
        let mut w_pred = BitWriter::new();
        encode_blocks(&[a, b], &mut w_pred);
        b[0] = -500;
        let mut w_jump = BitWriter::new();
        encode_blocks(&[a, b], &mut w_jump);
        assert!(w_pred.bit_len() < w_jump.bit_len());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut block = [0i16; BLOCK_LEN];
        block[0] = 100;
        let mut w = BitWriter::new();
        encode_blocks(&[block], &mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes[..bytes.len().saturating_sub(1)]);
        // Ask for more blocks than are present.
        assert!(decode_blocks(&mut r, 5).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_quantized_blocks_round_trip(
            raw in prop::collection::vec(-1024i16..=1024, BLOCK_LEN * 3)
        ) {
            let mut blocks = Vec::new();
            for chunk in raw.chunks_exact(BLOCK_LEN) {
                let mut b = [0i16; BLOCK_LEN];
                b.copy_from_slice(chunk);
                blocks.push(b);
            }
            let mut w = BitWriter::new();
            encode_blocks(&blocks, &mut w);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let (decoded, _) = decode_blocks(&mut r, blocks.len()).unwrap();
            prop_assert_eq!(decoded, blocks);
        }
    }
}
