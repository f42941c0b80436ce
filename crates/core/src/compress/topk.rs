//! Top-k sparsification: keep only the k largest-magnitude coordinates.

use super::{CompressedVec, Compressor};

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
}

impl Compressor for TopK {
    fn name(&self) -> &'static str {
        "top-k"
    }

    fn compress(&self, values: &[f32]) -> CompressedVec {
        let mut out = CompressedVec::default();
        self.compress_into(values, &mut out);
        out
    }

    fn decompress(&self, payload: &CompressedVec, len: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(len);
        self.decompress_into(payload, len, &mut out);
        out
    }

    fn compress_into(&self, values: &[f32], out: &mut CompressedVec) {
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

    fn decompress_into(&self, payload: &CompressedVec, len: usize, out: &mut Vec<f32>) {
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
    use crate::compress::relative_error;

    #[test]
    fn keeps_the_largest_coordinates() {
        let x = vec![0.1f32, -5.0, 0.2, 3.0, -0.05];
        let (rec, _) = TopK::new(2).round_trip(&x);
        assert_eq!(rec, vec![0.0, -5.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn k_equal_len_is_lossless() {
        let x = vec![1.0f32, -2.0, 3.5];
        let (rec, _) = TopK::new(3).round_trip(&x);
        assert_eq!(rec, x);
    }

    #[test]
    fn error_decreases_with_k() {
        let x: Vec<f32> = (0..200).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let e10 = relative_error(&x, &TopK::new(10).round_trip(&x).0);
        let e50 = relative_error(&x, &TopK::new(50).round_trip(&x).0);
        let e150 = relative_error(&x, &TopK::new(150).round_trip(&x).0);
        assert!(e10 > e50 && e50 > e150);
    }

    #[test]
    fn wire_cost_scales_with_k() {
        let x = vec![1.0f32; 1000];
        let b10 = TopK::new(10).round_trip(&x).1;
        let b100 = TopK::new(100).round_trip(&x).1;
        assert!(b100 > 5 * b10);
        assert!(b10 < 1000); // far below the dense 4000 B
    }

    #[test]
    fn with_ratio_rounds_up() {
        let t = TopK::with_ratio(10, 0.05);
        let (rec, _) = t.round_trip(&[1.0; 10]);
        assert_eq!(rec.iter().filter(|&&v| v != 0.0).count(), 1);
    }
}
