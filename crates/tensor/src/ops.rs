//! Element-wise arithmetic and BLAS-1 style helpers.
//!
//! The BLAS-1 kernels themselves live in [`crate::simd`] (runtime-dispatched
//! AVX2 / AVX-512 tiers with a bit-exact scalar fallback); this module wires
//! them into the [`Tensor`] API.

use crate::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// Element-wise sum (shapes must match).
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// [`add`](Tensor::add) into a caller-provided buffer.
    pub fn add_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_map_into(other, out, |a, b| a + b);
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// [`sub`](Tensor::sub) into a caller-provided buffer.
    pub fn sub_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_map_into(other, out, |a, b| a - b);
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// [`mul`](Tensor::mul) into a caller-provided buffer.
    pub fn mul_into(&self, other: &Tensor, out: &mut Tensor) {
        self.zip_map_into(other, out, |a, b| a * b);
    }

    /// `self + scalar`.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// `self * scalar`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// [`scale`](Tensor::scale) into a caller-provided buffer.
    pub fn scale_into(&self, s: f32, out: &mut Tensor) {
        self.map_into(out, |v| v * s);
    }

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

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::scratch();
        self.map_into(&mut out, f);
        out
    }

    /// Applies `f` element-wise into a caller-provided buffer (resized as
    /// needed; every element overwritten).
    pub fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32) {
        out.resize(self.dims());
        for (o, &v) in out.data_mut().iter_mut().zip(self.data()) {
            *o = f(v);
        }
    }

    /// Applies `f` pairwise with `other` (shapes must match).
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::scratch();
        self.zip_map_into(other, &mut out, f);
        out
    }

    /// Applies `f` pairwise with `other` into a caller-provided buffer.
    pub fn zip_map_into(&self, other: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        out.resize(self.dims());
        for ((o, &a), &b) in out.data_mut().iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
    }

    /// Dot product of two tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        simd::dot_slices(self.data(), other.data())
    }

    /// Squared Euclidean norm of the flattened tensor.
    pub fn norm_sq(&self) -> f32 {
        simd::dot_slices(self.data(), self.data())
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Adds `bias` (length = last dim) to every row of a 2-D tensor.
    pub fn add_row_bias(&self, bias: &Tensor) -> Tensor {
        let mut out = Tensor::scratch();
        self.add_row_bias_into(bias, &mut out);
        out
    }

    /// [`add_row_bias`](Tensor::add_row_bias) into a caller-provided buffer.
    pub fn add_row_bias_into(&self, bias: &Tensor, out: &mut Tensor) {
        out.assign(self);
        out.add_row_bias_assign(bias);
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
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
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
    fn dot_and_norms() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert!((a.norm() - 5.0).abs() < 1e-6);
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
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[10.0, 20.0]);
        assert_eq!(m.add_row_bias(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_checks_shapes() {
        t(&[1.0]).add(&t(&[1.0, 2.0]));
    }
}
