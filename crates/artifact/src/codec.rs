//! Little-endian byte codec and the checksum shared by the header, the
//! section table and the row index.

use crate::ArtifactError;

/// Odd multiplier of a checksum lane step (the 64-bit golden ratio).
const MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial lane states: distinct, so equal words in different lanes
/// leave different states.
const SEEDS: [u64; 4] = [
    0xcbf2_9ce4_8422_2325,
    0x8422_2325_cbf2_9ce4,
    0x2325_cbf2_9ce4_8422,
    0x9ce4_8422_2325_cbf2,
];

/// One lane step. For a fixed word `w` it is a bijection of `lane`
/// (xor, an odd multiply and an xor-shift are each invertible), and for a
/// fixed lane it is a bijection of `w`, so changing any one word changes
/// the lane, and every later step keeps it changed.
#[inline(always)]
fn step(lane: u64, w: u64) -> u64 {
    let x = (lane ^ w).wrapping_mul(MULT);
    x ^ (x >> 29)
}

/// The little-endian `u64` of up to 8 bytes, zero-padded.
#[inline(always)]
pub(crate) fn word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..b.len()].copy_from_slice(b);
    u64::from_le_bytes(w)
}

/// The artifact's 64-bit checksum over `bytes`: the header, the options
/// fingerprint, every section and every row carry one.
///
/// Four independent lanes take consecutive little-endian `u64` words in
/// turn, so the multiplies of a 32-byte block overlap; the lanes, the
/// tail bytes (zero-padded to one word) and the length are then folded
/// into one state by the same step. Every step is a bijection of the
/// state it updates, so any change confined to one word (every single-bit
/// flip and every single-byte change) changes the result. This is an
/// integrity check against truncation and bit rot, not an adversarial MAC.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        lanes[0] = step(lanes[0], word(&b[0..8]));
        lanes[1] = step(lanes[1], word(&b[8..16]));
        lanes[2] = step(lanes[2], word(&b[16..24]));
        lanes[3] = step(lanes[3], word(&b[24..32]));
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = step(*lane, word(w));
    }
    let mut h = step(SEEDS[0], bytes.len() as u64);
    for lane in lanes {
        h = step(h, lane);
    }
    step(h, word(words.remainder()))
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// including signed zero and infinities).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Consumes the writer into its buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a byte slice; every read
/// returns [`ArtifactError::Truncated`] with the caller's context when the
/// slice runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, ArtifactError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, ArtifactError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, ArtifactError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, ArtifactError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` bit pattern, rejecting NaN — no field of the format
    /// admits one, and letting a NaN through would poison every time
    /// comparison downstream.
    pub fn f64_bits(&mut self, context: &'static str) -> Result<f64, ArtifactError> {
        let v = f64::from_bits(self.u64(context)?);
        if v.is_nan() {
            return Err(ArtifactError::Corrupt {
                context: "NaN time value",
            });
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64_bits(-0.0);
        w.f64_bits(f64::INFINITY);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.f64_bits("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_bits("f").unwrap(), f64::INFINITY);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(
            r.u8("g"),
            Err(ArtifactError::Truncated { context: "g" })
        ));
    }

    #[test]
    fn nan_is_rejected() {
        let mut w = Writer::new();
        w.u64(f64::NAN.to_bits());
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            r.f64_bits("t"),
            Err(ArtifactError::Corrupt { .. })
        ));
    }

    #[test]
    fn checksum_covers_length_and_every_word_position() {
        // Trailing zeros, and zeros in each block and tail position, all
        // count.
        let zeros = [0u8; 80];
        let sums: Vec<u64> = (0..=zeros.len()).map(|n| checksum(&zeros[..n])).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sums.len(), "two zero prefixes collide");
        // Swapping two words between lanes changes the sum.
        let mut a = [0u8; 32];
        a[0] = 1;
        let mut b = [0u8; 32];
        b[8] = 1;
        assert_ne!(checksum(&a), checksum(&b));
    }
}
