//! Bit-level I/O for the entropy coder.

/// Accumulates bits MSB-first into a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    current: u8,
    filled: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Writes the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            self.current = (self.current << 1) | bit as u8;
            self.filled += 1;
            if self.filled == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.current <<= 8 - self.filled;
            self.bytes.push(self.current);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

/// Error returned when a [`BitReader`] runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamExhausted;

impl std::fmt::Display for BitstreamExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bitstream exhausted")
    }
}

impl std::error::Error for BitstreamExhausted {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos_bits: 0 }
    }

    /// Reads `count` bits, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u8) -> Result<u32, BitstreamExhausted> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if self.pos_bits + count as usize > self.bytes.len() * 8 {
            return Err(BitstreamExhausted);
        }
        let mut value = 0u32;
        for _ in 0..count {
            let byte = self.bytes[self.pos_bits / 8];
            let bit = (byte >> (7 - self.pos_bits % 8)) & 1;
            value = (value << 1) | u32::from(bit);
            self.pos_bits += 1;
        }
        Ok(value)
    }

    /// Bits not yet consumed.
    #[must_use]
    pub fn bits_left(&self) -> usize {
        self.bytes.len() * 8 - self.pos_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(0b1101_0110, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(8).unwrap(), 0b1101_0110);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // The flush pads to 8 bits; reading 9 must fail.
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(BitstreamExhausted));
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_sequences_round_trip(values in prop::collection::vec((0u32..=u32::MAX, 1u8..=32), 0..200)) {
            let mut w = BitWriter::new();
            for &(v, c) in &values {
                let masked = if c == 32 { v } else { v & ((1 << c) - 1) };
                w.write_bits(masked, c);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, c) in &values {
                let masked = if c == 32 { v } else { v & ((1 << c) - 1) };
                prop_assert_eq!(r.read_bits(c).unwrap(), masked);
            }
        }
    }
}
