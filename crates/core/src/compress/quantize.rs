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

    fn levels(&self) -> f32 {
        ((1u32 << self.bits) - 1) as f32
    }

    /// Quantizes `values` into `out`'s sections: the codes in `bytes`,
    /// `[min, max, levels]` in `words_f32`.
    pub(crate) fn compress_into(&self, values: &[f32], out: &mut CompressedVec) {
        let grid = Grid::new(extent(values), self.levels());
        let mut codes = CodeWriter::new(self.bits, values.len(), &mut out.bytes);
        for &v in values {
            codes.push(grid.code(v));
        }
        codes.finish();
        grid.describe(out);
    }

    /// [`UniformQuantizer::compress_into`] for the error-feedback sender,
    /// given `update`'s [`extent`]: the pass that writes the codes also
    /// writes each code's reconstruction into `recon` and `update − recon`
    /// into `residual` (both `update`'s length).
    pub(crate) fn compress_with_feedback(
        &self,
        update: &[f32],
        extent: (f32, f32),
        out: &mut CompressedVec,
        recon: &mut Vec<f32>,
        residual: &mut [f32],
    ) {
        let grid = Grid::new(extent, self.levels());
        let table = grid.lift_table();
        recon.clear();
        recon.resize(update.len(), 0.0);
        let mut codes = CodeWriter::new(self.bits, update.len(), &mut out.bytes);
        for ((&u, c), r) in update.iter().zip(recon.iter_mut()).zip(residual) {
            let code = grid.code(u);
            codes.push(code);
            *c = table[usize::from(code)];
            *r = u - *c;
        }
        codes.finish();
        grid.describe(out);
    }

    /// Lifts `len` codes back onto the payload's range, plus `base[i]` when
    /// a base is given (the receiver's global); `false` unless the payload
    /// holds exactly `[min, max, levels]` for this width and
    /// `ceil(len · bits / 8)` code bytes.
    pub(crate) fn decompress_into(
        &self,
        payload: &CompressedVec,
        len: usize,
        base: Option<&[f32]>,
        out: &mut Vec<f32>,
    ) -> bool {
        let &[min, max, described] = payload.words_f32.as_slice() else {
            return false;
        };
        let code_bytes = len.checked_mul(self.bits.into()).map(|b| b.div_ceil(8));
        if described != self.levels() || code_bytes != Some(payload.bytes.len()) {
            return false;
        }
        let table = Grid::new((min, max), described).lift_table();
        out.clear();
        if self.bits == 8 {
            lift(&table, payload.bytes.iter().copied(), base, out);
            return true;
        }
        let bits = u32::from(self.bits);
        let (mut acc, mut filled) = (0u16, 0u32);
        let mut feed = payload.bytes.iter();
        let codes = std::iter::from_fn(|| {
            if filled < bits {
                acc |= u16::from(*feed.next()?) << filled;
                filled += 8;
            }
            let code = (acc & ((1 << bits) - 1)) as u8;
            acc >>= bits;
            filled -= bits;
            Some(code)
        });
        lift(&table, codes.take(len), base, out);
        true
    }
}

/// Writes `table[code]` (+ `base[i]`) for each code into `out`.
fn lift(
    table: &[f32; 256],
    codes: impl Iterator<Item = u8>,
    base: Option<&[f32]>,
    out: &mut Vec<f32>,
) {
    match base {
        Some(base) => out.extend(codes.zip(base).map(|(c, &b)| table[usize::from(c)] + b)),
        None => out.extend(codes.map(|c| table[usize::from(c)])),
    }
}

/// The NaN-ignoring `(min, max)` of `values`; `(∞, −∞)` when there is no
/// number. Eight lanes run side by side; `f32::min` and `f32::max` leave
/// the sign of a zero result open, so a zero extremum takes the sign of
/// the first zero in `values`: what a sequential fold that keeps the first
/// of equal values returns (`−0 == +0`, so only zeros tie).
pub(crate) fn extent(values: &[f32]) -> (f32, f32) {
    const LANES: usize = 8;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
            *l = l.min(v);
            *h = h.max(v);
        }
    }
    let mut min = lo
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f32::INFINITY, f32::min);
    let mut max = hi
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f32::NEG_INFINITY, f32::max);
    if min == 0.0 || max == 0.0 {
        if let Some(zero) = values.iter().copied().find(|&v| v == 0.0) {
            if min == 0.0 {
                min = zero;
            }
            if max == 0.0 {
                max = zero;
            }
        }
    }
    (min, max)
}

/// A vector's quantization grid: `levels` equal steps over `[min, max]`,
/// the range floored at `1e-12` so a constant vector has one.
struct Grid {
    min: f32,
    max: f32,
    range: f32,
    levels: f32,
}

impl Grid {
    fn new((min, max): (f32, f32), levels: f32) -> Grid {
        let range = (max - min).max(1e-12);
        Grid {
            min,
            max,
            range,
            levels,
        }
    }

    /// The code of `v`: `round(((v − min) / range) · levels)`.
    ///
    /// `f32::round` is a libm call per value on the baseline x86-64 target,
    /// so the rounding is a truncation and a half-step test. That equals
    /// `x.round() as u16` for every `x` in `[−0, 255]` and for NaN: the cast
    /// truncates exactly (NaN to 0), the fraction `x − t` is exact, and
    /// `round` takes halves away from zero. Those are all the `x` this
    /// expression yields for a `v` of the vector the grid was taken over:
    /// `min ≤ v ≤ max` puts `v − min` at most `range`, so the quotient lies
    /// in `[−0, 1]`, and every infinite or NaN operand makes it NaN.
    #[inline]
    fn code(&self, v: f32) -> u8 {
        let x = ((v - self.min) / self.range) * self.levels;
        let t = x as u8;
        t + u8::from(x - f32::from(t) >= 0.5)
    }

    /// `table[c]` is what code `c` stands for, `min + (c / levels) · range`,
    /// for `c` in `0..=levels`; no code exceeds `levels`.
    fn lift_table(&self) -> [f32; 256] {
        let mut table = [0.0; 256];
        for (c, t) in table.iter_mut().enumerate().take(self.levels as usize + 1) {
            *t = self.min + (c as f32 / self.levels) * self.range;
        }
        table
    }

    /// Writes the payload's word sections: no `u32` words, `[min, max,
    /// levels]` as `f32`s. The level count self-describes the width, so
    /// receivers (the adaptive-width policy) need no side channel.
    fn describe(&self, out: &mut CompressedVec) {
        out.words_u32.clear();
        out.words_f32.clear();
        out.words_f32
            .extend_from_slice(&[self.min, self.max, self.levels]);
    }
}

/// Appends codes to a payload's `bytes`: one byte per code at 8 bits, else
/// an LSB-first bitstream in which each code occupies exactly `bits` bits
/// and the final byte is zero-padded.
struct CodeWriter<'a> {
    bytes: &'a mut Vec<u8>,
    bits: u32,
    acc: u16,
    filled: u32,
}

impl<'a> CodeWriter<'a> {
    /// Clears `bytes` and reserves room for `n` codes.
    fn new(bits: u8, n: usize, bytes: &'a mut Vec<u8>) -> Self {
        bytes.clear();
        bytes.reserve((n * usize::from(bits)).div_ceil(8));
        CodeWriter {
            bytes,
            bits: bits.into(),
            acc: 0,
            filled: 0,
        }
    }

    #[inline]
    fn push(&mut self, code: u8) {
        if self.bits == 8 {
            self.bytes.push(code);
            return;
        }
        self.acc |= u16::from(code) << self.filled;
        self.filled += self.bits;
        if self.filled >= 8 {
            self.bytes.push(self.acc as u8);
            self.acc >>= 8;
            self.filled -= 8;
        }
    }

    fn finish(self) {
        if self.filled > 0 {
            self.bytes.push(self.acc as u8);
        }
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
