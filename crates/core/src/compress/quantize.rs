//! Uniform b-bit quantization (Konečný et al.'s baseline compressor).

use super::CompressedVec;

/// Linear quantization into `2^bits` levels over the vector's `[min, max]`
/// range. `bits ≤ 8`; codes are packed at true bit granularity (LSB-first
/// within each byte), so a 2-bit payload really is a quarter of an 8-bit
/// one — the wire cost the policy advertises is the cost that is charged.
#[derive(Clone, Copy, Debug)]
pub struct UniformQuantizer {
    bits: u8,
}

impl UniformQuantizer {
    /// # Panics
    /// Panics unless `1 ≤ bits ≤ 8`.
    pub(crate) fn new(bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        UniformQuantizer { bits }
    }

    /// Recovers the quantizer from a payload's self-described level count
    /// (`words_f32[2]`). `None` unless it matches a width in `1..=8` — this
    /// is how adaptive-width receivers decode without side information.
    pub(crate) fn from_payload(payload: &CompressedVec) -> Option<UniformQuantizer> {
        let levels = *payload.words_f32.get(2)?;
        (1..=8u8)
            .find(|&b| ((1u32 << b) - 1) as f32 == levels)
            .map(UniformQuantizer::new)
    }

    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantizes `values` into `out`'s sections: the codes in `bytes`,
    /// `[min, max, levels]` in `words_f32`.
    pub(crate) fn compress_into(&self, values: &[f32], out: &mut CompressedVec) {
        let min = values.iter().copied().fold(f32::INFINITY, f32::min);
        let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let range = (max - min).max(1e-12);
        let levels = self.levels() as f32;
        let code = |v: f32| (((v - min) / range) * levels).round() as u16;
        out.bytes.clear();
        out.bytes
            .reserve((values.len() * self.bits as usize).div_ceil(8));
        // LSB-first bitstream: each code occupies exactly `bits` bits, with
        // the final byte zero-padded. For 4 and 8 bits this degenerates to
        // the familiar nibble / byte layouts.
        let mut acc: u16 = 0;
        let mut filled: u32 = 0;
        for &v in values {
            acc |= code(v) << filled;
            filled += u32::from(self.bits);
            while filled >= 8 {
                out.bytes.push(acc as u8);
                acc >>= 8;
                filled -= 8;
            }
        }
        if filled > 0 {
            out.bytes.push(acc as u8);
        }
        out.words_u32.clear();
        out.words_f32.clear();
        // The payload self-describes its level count so receivers (e.g. the
        // adaptive-width policy) need no side channel.
        out.words_f32.extend_from_slice(&[min, max, levels]);
    }

    /// Lifts `len` codes back onto the payload's range; `false` unless the
    /// payload holds exactly `[min, max, levels]` for this width and
    /// `ceil(len · bits / 8)` code bytes.
    pub(crate) fn decompress_into(
        &self,
        payload: &CompressedVec,
        len: usize,
        out: &mut Vec<f32>,
    ) -> bool {
        let levels = self.levels() as f32;
        let &[min, max, described] = payload.words_f32.as_slice() else {
            return false;
        };
        let code_bytes = len.checked_mul(self.bits.into()).map(|b| b.div_ceil(8));
        if described != levels || code_bytes != Some(payload.bytes.len()) {
            return false;
        }
        let range = (max - min).max(1e-12);
        let lift = |c: u16| min + (c as f32 / levels) * range;
        out.clear();
        out.reserve(len);
        let mask: u16 = (1u16 << self.bits) - 1;
        let mut acc: u16 = 0;
        let mut filled: u32 = 0;
        let mut feed = payload.bytes.iter();
        for _ in 0..len {
            while filled < u32::from(self.bits) {
                acc |= u16::from(*feed.next().expect("code underrun")) << filled;
                filled += 8;
            }
            out.push(lift(acc & mask));
            acc >>= self.bits;
            filled -= u32::from(self.bits);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{relative_error, round_trip, AnyCompressor};

    fn q(bits: u8) -> AnyCompressor {
        AnyCompressor::Quantize(UniformQuantizer::new(bits))
    }

    #[test]
    fn eight_bit_error_is_small() {
        let x: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let (rec, payload) = round_trip(q(8), &x);
        assert!(relative_error(&x, &rec) < 0.01);
        // 1 byte/code + 2 range floats + header ≪ 4 bytes/f32.
        assert!(payload.wire_bytes() < 1000 * 4 / 3);
    }

    #[test]
    fn four_bit_packs_two_codes_per_byte() {
        let x: Vec<f32> = (0..101).map(|i| i as f32).collect();
        let (rec, q4) = round_trip(q(4), &x);
        assert_eq!(q4.bytes.len(), 51);
        assert_eq!(rec.len(), 101);
        // Endpoints still exact.
        assert!((rec[0] - 0.0).abs() < 1e-4);
        assert!((rec[100] - 100.0).abs() < 1e-4);
        // Code payload is half the 8-bit variant's (headers aside).
        let q8 = round_trip(q(8), &x).1;
        assert_eq!(q8.bytes.len(), 101);
        assert!(q4.wire_bytes() < q8.wire_bytes());
    }

    #[test]
    fn low_bit_widths_pack_below_nibble_granularity() {
        let x: Vec<f32> = (0..101).map(|i| (i as f32 * 0.3).sin()).collect();
        for bits in 1u8..=8 {
            let (rec, payload) = round_trip(q(bits), &x);
            assert_eq!(
                payload.bytes.len(),
                (101 * bits as usize).div_ceil(8),
                "bits={bits}"
            );
            assert_eq!(rec.len(), 101, "bits={bits}");
        }
        // 2-bit codes cost a quarter of 8-bit ones, not half.
        let q2 = round_trip(q(2), &x).1;
        let q8 = round_trip(q(8), &x).1;
        assert_eq!(q2.bytes.len(), 26);
        assert_eq!(q8.bytes.len(), 101);
    }

    #[test]
    fn odd_length_round_trips_at_low_bits() {
        let x = vec![-1.0f32, 0.5, 2.0];
        let (rec, _) = round_trip(q(2), &x);
        assert_eq!(rec.len(), 3);
        assert!((rec[0] + 1.0).abs() < 1e-4);
        assert!((rec[2] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn fewer_bits_more_error() {
        let x: Vec<f32> = (0..500).map(|i| (i as f32 * 0.11).cos()).collect();
        let e8 = relative_error(&x, &round_trip(q(8), &x).0);
        let e4 = relative_error(&x, &round_trip(q(4), &x).0);
        let e1 = relative_error(&x, &round_trip(q(1), &x).0);
        assert!(e8 < e4 && e4 < e1, "{e8} {e4} {e1}");
    }

    #[test]
    fn endpoints_are_exact() {
        let x = vec![-2.0f32, 0.0, 5.0];
        let (rec, _) = round_trip(q(8), &x);
        assert!((rec[0] + 2.0).abs() < 1e-5);
        assert!((rec[2] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn constant_vector_is_exact() {
        let x = vec![1.5f32; 64];
        let (rec, _) = round_trip(q(2), &x);
        for v in rec {
            assert!((v - 1.5).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn rejects_zero_bits() {
        UniformQuantizer::new(0);
    }
}
