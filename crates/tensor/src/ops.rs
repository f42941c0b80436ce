//! Element-wise arithmetic and BLAS-1 style helpers, each writing into a
//! buffer the caller owns.
//!
//! The BLAS-1 kernels themselves live in [`crate::simd`] (runtime-dispatched
//! AVX2 / AVX-512 tiers with a bit-exact scalar fallback); this module wires
//! them into the [`Tensor`] API.

use crate::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// In-place `self *= s`.
    pub fn scale_in_place(&mut self, s: f32) {
        simd::scale_slices(self.data_mut(), s);
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        simd::add_assign_slices(self.data_mut(), other.data());
    }

    /// In-place `self += a * other` (axpy).
    pub fn axpy(&mut self, a: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        simd::axpy_slices(self.data_mut(), a, other.data());
    }

    /// Applies `f` pairwise with `other` (shapes must match) into a
    /// caller-provided buffer (resized as needed; every element overwritten).
    pub fn zip_map_into(&self, other: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        out.resize(self.dims());
        for ((o, &a), &b) in out.data_mut().iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
    }

    /// In-place `self[r] += bias` for every row of a 2-D tensor.
    pub fn add_row_bias_assign(&mut self, bias: &Tensor) {
        assert_eq!(self.ndim(), 2, "add_row_bias requires a matrix");
        let cols = self.dims()[1];
        assert_eq!(bias.numel(), cols, "bias length mismatch");
        let b = bias.data();
        for row in self.data_mut().chunks_exact_mut(cols) {
            simd::add_assign_slices(row, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{dot_slices, sq_dist_slices};

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn in_place_ops() {
        let mut a = t(&[1.0, 2.0]);
        a.add_assign(&t(&[3.0, 4.0]));
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.axpy(0.5, &t(&[2.0, 2.0]));
        assert_eq!(a.data(), &[5.0, 7.0]);
        a.scale_in_place(2.0);
        assert_eq!(a.data(), &[10.0, 14.0]);
    }

    #[test]
    fn dot_slices_matches_naive_on_odd_lengths() {
        let a: Vec<f32> = (0..13).map(|v| v as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|v| (v as f32).sin()).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_slices(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn sq_dist_is_zero_on_self() {
        let a: Vec<f32> = (0..7).map(|v| v as f32).collect();
        assert_eq!(sq_dist_slices(&a, &a), 0.0);
        let b = vec![0.0; 7];
        let expected: f32 = a.iter().map(|v| v * v).sum();
        assert!((sq_dist_slices(&a, &b) - expected).abs() < 1e-5);
    }

    #[test]
    fn row_bias_broadcasts() {
        let mut m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        m.add_row_bias_assign(&t(&[10.0, 20.0]));
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_checks_shapes() {
        t(&[1.0]).zip_map_into(&t(&[1.0, 2.0]), &mut Tensor::scratch(), |a, b| a + b);
    }
}
