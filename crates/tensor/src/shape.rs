//! Shape arithmetic for row-major contiguous tensors.

/// A tensor shape: the extent of each dimension, outermost first.
///
/// Shapes are small (rank ≤ 4 in this codebase) so a plain `Vec<usize>` is
/// used; the wrapper exists to centralize index math and validation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    /// Panics if any dimension is zero; zero-sized tensors are never valid in
    /// this codebase and allowing them would push checks into every kernel.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        Shape(dims.to_vec())
    }

    /// Replaces the extents in place, reusing the existing allocation when
    /// capacity allows. [`Tensor::resize`](crate::Tensor::resize) calls this
    /// on every shape change, so warm reusable buffers never touch the
    /// allocator for their shape either.
    ///
    /// # Panics
    /// Panics if any dimension is zero (same contract as [`Shape::new`]).
    pub fn set_dims(&mut self, dims: &[usize]) {
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        self.0.clear();
        self.0.extend_from_slice(dims);
    }

    /// The dimension extents, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Linear (flat) offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if `idx` has the wrong rank or any coordinate is out of range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.0.len(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for i in (0..self.0.len()).rev() {
            assert!(
                idx[i] < self.0[i],
                "index {idx:?} out of bounds for shape {:?}",
                self.0
            );
            off += idx[i] * stride;
            stride *= self.0[i];
        }
        off
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_is_product_of_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
        assert_eq!(Shape::new(&[7]).numel(), 7);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[1, 0, 1]), 13);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_range() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn rejects_zero_dim() {
        Shape::new(&[3, 0]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }
}
