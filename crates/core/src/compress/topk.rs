//! Top-k sparsification: keep only the k largest-magnitude coordinates.

use super::CompressedVec;

/// Keeps the `k` largest-|value| entries (index + value pairs on the wire).
#[derive(Clone, Copy, Debug)]
pub struct TopK {
    k: usize,
}

impl TopK {
    /// # Panics
    /// Panics if `k == 0`.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK { k }
    }

    /// Keep a fraction of the coordinates of an `n`-vector.
    pub(crate) fn with_ratio(n: usize, ratio: f32) -> Self {
        assert!((0.0..=1.0).contains(&ratio));
        TopK::new(((n as f32 * ratio).ceil() as usize).max(1))
    }

    /// Writes the kept coordinates into `out`: ascending indices in
    /// `words_u32`, their values in `words_f32`.
    pub(crate) fn compress_into(&self, values: &[f32], out: &mut CompressedVec) {
        let k = self.k.min(values.len());
        // The selection scratch still allocates; the payload sections reuse
        // the caller's buffers.
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.select_nth_unstable_by(k.saturating_sub(1), |&a, &b| {
            values[b].abs().total_cmp(&values[a].abs())
        });
        let kept = &mut order[..k];
        kept.sort_unstable();
        out.words_u32.clear();
        out.words_u32.extend(kept.iter().map(|&i| i as u32));
        out.words_f32.clear();
        out.words_f32.extend(kept.iter().map(|&i| values[i]));
        out.bytes.clear();
    }

    /// Scatters the kept coordinates into a zeroed length-`len` vector;
    /// `false` unless every index has a value and lies below `len`.
    pub(crate) fn decompress_into(
        &self,
        payload: &CompressedVec,
        len: usize,
        out: &mut Vec<f32>,
    ) -> bool {
        let idx = &payload.words_u32;
        if idx.len() != payload.words_f32.len() || idx.iter().any(|&i| i as usize >= len) {
            return false;
        }
        Self::scatter(payload, len, out);
        true
    }

    /// The scatter of [`TopK::decompress_into`] without its checks: the
    /// sender's reconstruction of a payload it wrote itself.
    pub(crate) fn scatter(payload: &CompressedVec, len: usize, out: &mut Vec<f32>) {
        out.clear();
        out.resize(len, 0.0);
        for (&i, &v) in payload.words_u32.iter().zip(&payload.words_f32) {
            out[i as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{relative_error, round_trip, AnyCompressor};

    fn top(k: usize) -> AnyCompressor {
        AnyCompressor::TopK(TopK::new(k))
    }

    #[test]
    fn keeps_the_largest_coordinates() {
        let x = vec![0.1f32, -5.0, 0.2, 3.0, -0.05];
        let (rec, _) = round_trip(top(2), &x);
        assert_eq!(rec, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn k_equal_len_is_lossless() {
        let x = vec![1.0f32, -2.0, 3.5];
        let (rec, _) = round_trip(top(3), &x);
        assert_eq!(rec, x);
    }

    #[test]
    fn error_decreases_with_k() {
        let x: Vec<f32> = (0..200).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let e10 = relative_error(&x, &round_trip(top(10), &x).0);
        let e50 = relative_error(&x, &round_trip(top(50), &x).0);
        let e150 = relative_error(&x, &round_trip(top(150), &x).0);
        assert!(e10 > e50 && e50 > e150);
    }

    #[test]
    fn wire_cost_scales_with_k() {
        let x = vec![1.0f32; 1000];
        let b10 = round_trip(top(10), &x).1.wire_bytes();
        let b100 = round_trip(top(100), &x).1.wire_bytes();
        assert!(b100 > 5 * b10);
        assert!(b10 < 1000); // far below the dense 4000 B
    }

    #[test]
    fn with_ratio_rounds_up() {
        let t = AnyCompressor::TopK(TopK::with_ratio(10, 0.05));
        let (rec, _) = round_trip(t, &[1.0; 10]);
        assert_eq!(rec.iter().filter(|&&v| v != 0.0).count(), 1);
    }
}
