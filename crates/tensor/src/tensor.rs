//! The core [`Tensor`] type.

use crate::shape::Shape;

/// A dense, row-major, contiguous `f32` tensor.
///
/// All kernels in this crate operate on `Tensor`s. The data buffer is always
/// exactly `shape.numel()` elements long.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let mut t = Self::zeros(dims);
        t.fill(1.0);
        t
    }

    /// The cheapest valid tensor: a single zero. Intended as the initial
    /// value of reusable output buffers that `_into` kernels [`resize`]
    /// (and then fully overwrite) on first use.
    ///
    /// [`resize`]: Tensor::resize
    pub fn scratch() -> Self {
        Tensor {
            shape: Shape::new(&[1]),
            data: vec![0.0],
        }
    }

    /// Builds a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != product(dims)`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// A 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(data.to_vec(), &[data.len()])
    }

    /// The shape of this tensor.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total element count.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// In-place reshape (no copy, and no allocation when the shape's
    /// existing capacity suffices).
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        assert_eq!(dims.iter().product::<usize>(), self.numel());
        self.shape.set_dims(dims);
    }

    /// Row `r` of a 2-D tensor as a slice.
    ///
    /// # Panics
    /// Panics if the tensor is not 2-D or the row is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a matrix");
        let cols = self.dims()[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Transpose of a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose() requires a matrix");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// True when every element is finite (no NaN / ±inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Reshapes to `dims`, reusing the existing allocation when capacity
    /// allows. Contents are **unspecified** afterwards (the old values are
    /// neither preserved in any particular layout nor cleared) — callers
    /// must fully overwrite the buffer, which every `_into` kernel does.
    ///
    /// When the shape already matches this is a no-op, so warm reusable
    /// buffers never touch the allocator.
    pub fn resize(&mut self, dims: &[usize]) {
        if self.shape.dims() == dims {
            return;
        }
        self.shape.set_dims(dims);
        self.data.resize(self.shape.numel(), 0.0);
    }

    /// Makes this tensor an exact copy of `src` (shape and data), reusing
    /// the existing allocation when capacity allows.
    pub fn assign(&mut self, src: &Tensor) {
        self.resize(src.dims());
        self.data.copy_from_slice(&src.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_contents() {
        assert!(Tensor::zeros(&[2, 2]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(&[2, 3]);
        *t.at_mut(&[1, 2]) = 5.0;
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.data()[5], 5.0);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn resize_reuses_capacity_and_assign_copies() {
        let mut t = Tensor::scratch();
        t.resize(&[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        let cap_ptr = t.data().as_ptr();
        t.resize(&[3, 2]); // same numel: no reallocation, same buffer
        assert_eq!(t.data().as_ptr(), cap_ptr);
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        t.assign(&src);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.data(), src.data());
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.is_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.is_finite());
    }
}
