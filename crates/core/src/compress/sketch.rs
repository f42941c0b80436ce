//! Count-sketch compression (the FetchSGD family): project the vector into
//! a small sketch with pairwise-independent hash/sign functions; estimate
//! coordinates back by the median of their sketch cells.

use super::CompressedVec;

/// The most rows a sketch may have: the decoder's median scratch lives on
/// the stack. Policy validation (`Compression::from_wire`) accepts no more.
pub(crate) const MAX_ROWS: usize = 63;

/// A seeded count sketch with `rows × cols` counters.
#[derive(Clone, Copy, Debug)]
pub struct CountSketch {
    rows: usize,
    cols: usize,
    seed: u64,
}

impl CountSketch {
    /// # Panics
    /// Panics if `rows` is even (median needs an odd count), above
    /// [`MAX_ROWS`], or zero-sized.
    pub(crate) fn new(rows: usize, cols: usize, seed: u64) -> Self {
        assert!(rows % 2 == 1, "rows must be odd");
        assert!(rows <= MAX_ROWS, "sketch rows capped at {MAX_ROWS}");
        assert!(cols > 0);
        CountSketch { rows, cols, seed }
    }

    #[inline]
    fn hash(&self, row: usize, i: usize) -> (usize, f32) {
        // SplitMix64-style mixing; cheap and adequate for sketching.
        let mut z = (i as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(row as u64 + 1))
            .wrapping_add(self.seed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let col = (z % self.cols as u64) as usize;
        let sign = if (z >> 63) & 1 == 1 { 1.0 } else { -1.0 };
        (col, sign)
    }

    /// Sketches `values` into `out`'s `rows × cols` table (`words_f32`).
    pub(crate) fn compress_into(&self, values: &[f32], out: &mut CompressedVec) {
        out.words_u32.clear();
        out.bytes.clear();
        out.words_f32.clear();
        out.words_f32.resize(self.rows * self.cols, 0.0);
        for (i, &v) in values.iter().enumerate() {
            for r in 0..self.rows {
                let (c, s) = self.hash(r, i);
                out.words_f32[r * self.cols + c] += s * v;
            }
        }
    }

    /// Estimates `len` coordinates, each the median of its sketch cells;
    /// `false` unless the payload's table holds `rows × cols` words.
    pub(crate) fn decompress_into(
        &self,
        payload: &CompressedVec,
        len: usize,
        out: &mut Vec<f32>,
    ) -> bool {
        if payload.words_f32.len() != self.rows * self.cols {
            return false;
        }
        self.estimate(payload, len, out);
        true
    }

    /// The estimate of [`CountSketch::decompress_into`] without its check:
    /// the sender's reconstruction of a payload it wrote itself.
    pub(crate) fn estimate(&self, payload: &CompressedVec, len: usize, out: &mut Vec<f32>) {
        let table = &payload.words_f32;
        let mut cells = [0.0f32; MAX_ROWS];
        out.clear();
        out.reserve(len);
        for i in 0..len {
            for (r, cell) in cells[..self.rows].iter_mut().enumerate() {
                let (c, s) = self.hash(r, i);
                *cell = s * table[r * self.cols + c];
            }
            cells[..self.rows].sort_by(|a, b| a.total_cmp(b));
            out.push(cells[self.rows / 2]); // median
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{relative_error, round_trip, AnyCompressor};

    fn sketch(rows: usize, cols: usize, seed: u64) -> AnyCompressor {
        AnyCompressor::Sketch(CountSketch::new(rows, cols, seed))
    }

    /// A sparse heavy-hitter vector is recovered well by a modest sketch.
    #[test]
    fn recovers_heavy_hitters() {
        let mut x = vec![0.0f32; 2000];
        x[17] = 50.0;
        x[900] = -30.0;
        x[1500] = 40.0;
        let (rec, payload) = round_trip(sketch(5, 101, 7), &x);
        let bytes = payload.wire_bytes();
        assert!((rec[17] - 50.0).abs() < 5.0, "{}", rec[17]);
        assert!((rec[900] + 30.0).abs() < 5.0);
        assert!((rec[1500] - 40.0).abs() < 5.0);
        assert!(bytes < 2000 * 4 / 3, "sketch must be compact: {bytes}");
    }

    #[test]
    fn bigger_sketch_is_more_accurate() {
        let x: Vec<f32> = (0..500)
            .map(|i| if i % 50 == 0 { 10.0 } else { 0.1 })
            .collect();
        let small = relative_error(&x, &round_trip(sketch(3, 31, 1), &x).0);
        let big = relative_error(&x, &round_trip(sketch(7, 257, 1), &x).0);
        assert!(big < small, "{big} vs {small}");
    }

    #[test]
    fn sketch_is_linear() {
        // sketch(a + b) == sketch(a) + sketch(b): the property FetchSGD
        // exploits to aggregate sketches server-side.
        let a: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
        let b: Vec<f32> = (0..100).map(|i| ((i * 7) % 13) as f32).collect();
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let sk = sketch(3, 17, 9);
        let (sa, sb, ssum) = (
            round_trip(sk, &a).1,
            round_trip(sk, &b).1,
            round_trip(sk, &sum).1,
        );
        for ((x, y), z) in sa.words_f32.iter().zip(&sb.words_f32).zip(&ssum.words_f32) {
            assert!((x + y - z).abs() < 1e-3);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let x = vec![1.0f32, 2.0, 3.0];
        let a = round_trip(sketch(3, 7, 5), &x).1;
        let b = round_trip(sketch(3, 7, 5), &x).1;
        assert_eq!(a.words_f32, b.words_f32);
        let c = round_trip(sketch(3, 7, 6), &x).1;
        assert_ne!(a.words_f32, c.words_f32);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_rows() {
        CountSketch::new(4, 7, 0);
    }
}
