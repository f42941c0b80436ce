//! Column reductions, row-wise log-softmax, and argmax helpers.
//!
//! Sums and the log-softmax `exp` pass run on the [`crate::simd`] kernels,
//! and the log-softmax's row sums take the canonical 8-lane order of
//! [`crate::simd::scalar::sum`], so every tier rounds alike.

use crate::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// Column sums of a 2-D tensor, `[m, n] → [n]`, into a caller-provided
    /// buffer (zeroed first, then accumulated row by row). Used for bias
    /// gradients.
    pub fn sum_axis0_into(&self, out: &mut Tensor) {
        assert_eq!(self.ndim(), 2, "sum_axis0 requires a matrix");
        let n = self.dims()[1];
        out.resize(&[n]);
        out.fill(0.0);
        let o = out.data_mut();
        for row in self.data().chunks_exact(n) {
            simd::add_assign_slices(o, row);
        }
    }

    /// Column means of a 2-D tensor, `[m, n] → [n]`, into a caller-provided
    /// buffer.
    ///
    /// This is the local mapping operator `δ = (1/n) Σ φ(x)` of the paper
    /// when applied to a feature matrix.
    pub fn mean_axis0_into(&self, out: &mut Tensor) {
        let m = self.dims()[0] as f32;
        self.sum_axis0_into(out);
        out.scale_in_place(1.0 / m);
    }

    /// Index of the maximum in each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.argmax_rows_into(&mut out);
        out
    }

    /// [`argmax_rows`](Tensor::argmax_rows) into a caller-provided vector
    /// (cleared first; reuses its allocation).
    pub fn argmax_rows_into(&self, out: &mut Vec<usize>) {
        assert_eq!(self.ndim(), 2, "argmax_rows requires a matrix");
        let n = self.dims()[1];
        out.clear();
        out.extend(self.data().chunks_exact(n).map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        }));
    }

    /// Numerically stable row-wise log-softmax of a 2-D tensor into a
    /// caller-provided buffer: row `r` less `m + ln Σ exp(x − m)`, `m` its
    /// maximum and the sum in the canonical 8-lane order. Three passes over
    /// the whole matrix — the rows less their maxima, one `exp` over all of
    /// them, each row less its log-normalizer — so a batch of short rows
    /// costs one dispatched kernel call.
    pub fn log_softmax_rows_into(&self, out: &mut Tensor) {
        assert_eq!(self.ndim(), 2, "log_softmax_rows requires a matrix");
        let n = self.dims()[1];
        out.assign(self);
        if out.numel() == 0 {
            return;
        }
        let row_max = |row: &[f32]| row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // Matrix-sized scratch for the exp pass; grows to the largest batch
        // once per thread, so the warm training path stays allocation-free.
        LOG_SOFTMAX_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            if scratch.len() < out.numel() {
                scratch.resize(out.numel(), 0.0);
            }
            let ex = &mut scratch[..out.numel()];
            for (e, row) in ex.chunks_exact_mut(n).zip(out.data().chunks_exact(n)) {
                let m = row_max(row);
                for (e, &x) in e.iter_mut().zip(row) {
                    *e = x - m;
                }
            }
            // `e·1 + (−0)` is `e` exactly (also for `e = −0`), so each
            // `exp` operand is `x − m`, rounded once.
            simd::exp_slices(ex, 1.0, -0.0);
            for (row, e) in out.data_mut().chunks_exact_mut(n).zip(ex.chunks_exact(n)) {
                let lz = row_max(row) + simd::scalar::sum(e).ln();
                for x in row {
                    *x -= lz;
                }
            }
        });
    }
}

thread_local! {
    /// Batch-sized scratch for [`Tensor::log_softmax_rows_into`]'s exp pass.
    static LOG_SOFTMAX_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis0_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let mut out = Tensor::scratch();
        t.sum_axis0_into(&mut out);
        assert_eq!(out.data(), &[9.0, 12.0]);
        t.mean_axis0_into(&mut out);
        assert_eq!(out.data(), &[3.0, 4.0]);
    }

    #[test]
    fn argmax_rows_picks_per_row_maximum() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = [0.5f32, -1.5, 2.0];
        let mut a = Tensor::scratch();
        Tensor::from_vec(x.to_vec(), &[1, 3]).log_softmax_rows_into(&mut a);
        let z: f32 = x.iter().map(|v| v.exp()).sum();
        for (l, v) in a.data().iter().zip(x) {
            assert!((l - (v.exp() / z).ln()).abs() < 1e-5);
        }
    }
}
