//! Reusable scratch buffers for the zero-allocation hot path.
//!
//! A [`Workspace`] is a bag of tensors whose allocations are recycled across
//! uses: [`Workspace::take`] hands out a buffer resized to the requested
//! shape (contents unspecified — pair it with `_into` kernels, which fully
//! overwrite their destination), and [`Workspace::give`] returns it to the
//! pool. After the shapes of a computation have been seen once, every
//! subsequent `take` is allocation-free.
//!
//! Reuse never changes results: an `_into` kernel zeroes or fully
//! overwrites its destination first, so a reused buffer ends up with the
//! bytes of a fresh one, and a `Workspace` only changes *where* the bytes
//! live, never what they hold afterwards.

use crate::tensor::Tensor;

/// A pool of recycled tensor allocations.
///
/// Buffers are handed out in LIFO order, so a fixed take/give pattern (the
/// common case: a model's forward/backward pass) re-acquires the same
/// buffers — and therefore the same capacities — every step.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Tensor>,
}

impl Workspace {
    /// An empty workspace. Allocates nothing until the first [`take`] miss.
    ///
    /// [`take`]: Workspace::take
    pub fn new() -> Self {
        Workspace { pool: Vec::new() }
    }

    /// Takes a buffer of shape `dims` from the pool (recycling the most
    /// recently returned allocation), or allocates one if the pool is empty.
    /// Contents are unspecified; the caller must fully overwrite them.
    pub fn take(&mut self, dims: &[usize]) -> Tensor {
        let mut t = self.pool.pop().unwrap_or_else(Tensor::scratch);
        t.resize(dims);
        t
    }

    /// Returns a buffer to the pool for future reuse.
    pub fn give(&mut self, t: Tensor) {
        self.pool.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_the_returned_allocation() {
        let mut ws = Workspace::new();
        let mut a = ws.take(&[4, 4]);
        a.fill(7.0);
        let ptr = a.data().as_ptr();
        ws.give(a);
        let b = ws.take(&[2, 8]); // same numel: must reuse the allocation
        assert_eq!(b.data().as_ptr(), ptr);
        assert_eq!(b.dims(), &[2, 8]);
    }

    #[test]
    fn lifo_order_pairs_shapes_with_capacities() {
        let mut ws = Workspace::new();
        let small = ws.take(&[2]);
        let big = ws.take(&[64]);
        let big_ptr = big.data().as_ptr();
        ws.give(small);
        ws.give(big);
        // The last buffer returned is the first handed back out.
        let again = ws.take(&[64]);
        assert_eq!(again.data().as_ptr(), big_ptr);
    }

    #[test]
    fn empty_pool_allocates_fresh() {
        let mut ws = Workspace::new();
        let t = ws.take(&[3, 3]);
        assert_eq!(t.numel(), 9);
    }
}
