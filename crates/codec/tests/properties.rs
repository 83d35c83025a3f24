//! Property-based tests for the SJPG codec: round trips at arbitrary
//! geometry, cost/real-path agreement, quality monotonicity, and files
//! mutated every way a disk or a hostile writer can.

use std::sync::Arc;

use lotus_codec::{Codec, EncodedImage, MAX_SIDE};
use lotus_data::Image;
use lotus_uarch::{CpuThread, Machine, MachineConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode→decode preserves dimensions and stays visually close for
    /// arbitrary (small) geometry, content seeds and qualities.
    #[test]
    fn round_trip_any_geometry(
        h in 8usize..48,
        w in 8usize..48,
        seed in 0u64..1_000,
        quality in 30u8..=95,
    ) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let original = Image::synthetic(h, w, &mut StdRng::seed_from_u64(seed));
        let encoded = codec.encode(&original, quality, &mut cpu);
        let decoded = codec.decode(&encoded, &mut cpu).unwrap();
        prop_assert_eq!(decoded.height(), h);
        prop_assert_eq!(decoded.width(), w);
        // Mean absolute error bounded (lossy but sane).
        let mae: f64 = original
            .pixels()
            .iter()
            .zip(decoded.pixels())
            .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
            .sum::<f64>()
            / original.pixels().len() as f64;
        prop_assert!(mae < 24.0, "MAE {mae} at q{quality} {h}x{w}");
    }

    /// The cost-only path charges exactly what the real decode charges,
    /// for arbitrary geometry.
    #[test]
    fn charge_decode_matches_real_decode(h in 8usize..64, w in 8usize..64, seed in 0u64..500) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let mut enc_cpu = CpuThread::new(Arc::clone(&machine));
        let original = Image::synthetic(h, w, &mut StdRng::seed_from_u64(seed));
        let encoded = codec.encode(&original, 80, &mut enc_cpu);

        let mut real = CpuThread::new(Arc::clone(&machine));
        codec.decode(&encoded, &mut real).unwrap();
        let mut cost = CpuThread::new(Arc::clone(&machine));
        codec.charge_decode(encoded.width, encoded.height, encoded.file_bytes(), &mut cost);
        prop_assert_eq!(real.cursor(), cost.cursor());
    }

    /// Truncating the payload anywhere never panics — it either still
    /// decodes (truncation hit padding) or reports an error.
    #[test]
    fn truncation_is_always_graceful(cut in 0usize..200, seed in 0u64..100) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let original = Image::synthetic(24, 24, &mut StdRng::seed_from_u64(seed));
        let encoded = codec.encode(&original, 75, &mut cpu);
        let mut truncated = encoded.clone();
        let keep = truncated.payload().len().saturating_sub(cut);
        truncated = {
            // Rebuild with a shorter payload through the public surface:
            // decode errors are the interesting outcome either way.
            let mut t = truncated;
            t.truncate_payload(keep);
            t
        };
        let _ = codec.decode(&truncated, &mut cpu); // must not panic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A stored file with flipped bits, overwritten bytes, a cut, edited
    /// header fields or appended junk never panics the parser or the
    /// decoder: it is an error, or an image of the header's dimensions.
    #[test]
    fn mutated_files_parse_and_decode_totally(
        seed in 0u64..3,
        edits in prop::collection::vec(edit(), 1..4),
    ) {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let codec = Codec::new(&machine);
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let original = Image::synthetic(
            12 + 5 * seed as usize,
            20 - 3 * seed as usize,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut bytes = codec.encode(&original, 85, &mut cpu).to_bytes();
        for e in &edits {
            e.apply(&mut bytes);
        }
        if let Ok(encoded) = EncodedImage::from_bytes(&bytes) {
            if let Ok(image) = codec.decode(&encoded, &mut cpu) {
                prop_assert_eq!(image.width(), encoded.width as usize);
                prop_assert_eq!(image.height(), encoded.height as usize);
            }
        }
    }
}

/// One edit of a valid SJPG file. Positions are taken modulo the file's
/// length when applied.
#[derive(Debug, Clone)]
enum Edit {
    FlipBit {
        at: usize,
        bit: u8,
    },
    Overwrite {
        at: usize,
        byte: u8,
    },
    Truncate {
        at: usize,
    },
    /// Writes `value` over one header field: 0 the format revision, 1 the
    /// quality, 2 the width, 3 the height.
    HeaderField {
        field: u8,
        value: u32,
    },
    Append {
        junk: Vec<u8>,
    },
}

impl Edit {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let len = bytes.len().max(1);
        match self {
            Edit::FlipBit { at, bit } => {
                if let Some(b) = bytes.get_mut(at % len) {
                    *b ^= 1 << bit;
                }
            }
            Edit::Overwrite { at, byte } => {
                if let Some(b) = bytes.get_mut(at % len) {
                    *b = *byte;
                }
            }
            Edit::Truncate { at } => bytes.truncate(at % len),
            Edit::HeaderField { field, value } => {
                let (at, le) = match field {
                    0 => (4, vec![*value as u8]),
                    1 => (5, vec![*value as u8]),
                    2 => (8, value.to_le_bytes().to_vec()),
                    _ => (12, value.to_le_bytes().to_vec()),
                };
                if let Some(dst) = bytes.get_mut(at..at + le.len()) {
                    dst.copy_from_slice(&le);
                }
            }
            Edit::Append { junk } => bytes.extend_from_slice(junk),
        }
    }
}

fn edit() -> impl Strategy<Value = Edit> {
    let side = prop_oneof![
        Just(0u32),
        Just(1),
        Just(MAX_SIDE),
        Just(MAX_SIDE + 1),
        Just(u32::MAX),
        0u32..64,
    ];
    prop_oneof![
        (0usize..4_096, 0u8..8).prop_map(|(at, bit)| Edit::FlipBit { at, bit }),
        (0usize..4_096, any::<u8>()).prop_map(|(at, byte)| Edit::Overwrite { at, byte }),
        (0usize..4_096).prop_map(|at| Edit::Truncate { at }),
        (0u8..2, 0u32..256).prop_map(|(field, value)| Edit::HeaderField { field, value }),
        (2u8..4, side).prop_map(|(field, value)| Edit::HeaderField { field, value }),
        prop::collection::vec(any::<u8>(), 1..64).prop_map(|junk| Edit::Append { junk }),
    ]
}
