//! Token embedding table.
//!
//! Token inputs are not tensors, so `Embedding` has its own forward/backward
//! signature rather than implementing [`crate::Layer`]: one buffer-reusing
//! forward and one backward, and its one parameter is the public `table`.
//! Output is *time-major* `[T, N, D]` because that is the layout the LSTM
//! consumes (each timestep is then a contiguous `[N, D]` slab).

use crate::param::Param;
use rand::Rng;
use rfl_tensor::{Initializer, Tensor};

/// A learned lookup table mapping token ids to dense vectors.
pub struct Embedding {
    pub table: Param, // [vocab, dim]
    cached_tokens: Vec<u32>,
    cached_batch: usize,
    cached_steps: usize,
}

impl Embedding {
    pub fn new<R: Rng>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        let table = Initializer::Normal(0.1).init(&[vocab, dim], rng);
        Embedding {
            table: Param::new(table),
            cached_tokens: Vec::new(),
            cached_batch: 0,
            cached_steps: 0,
        }
    }

    pub fn vocab(&self) -> usize {
        self.table.value.dims()[0]
    }

    pub fn dim(&self) -> usize {
        self.table.value.dims()[1]
    }

    /// Looks up a batch of fixed-length sequences into `out` (every element
    /// overwritten); a warm call allocates nothing.
    ///
    /// `tokens` is row-major `[N, T]`; `out` becomes time-major `[T, N, D]`.
    ///
    /// # Panics
    /// Panics if any token id is out of vocabulary or sequences are ragged.
    pub fn forward_into(&mut self, tokens: &[Vec<u32>], out: &mut Tensor) {
        let n = tokens.len();
        assert!(n > 0, "empty batch");
        let t = tokens[0].len();
        assert!(
            tokens.iter().all(|s| s.len() == t),
            "ragged batch: all sequences must share one length"
        );
        let d = self.dim();
        let v = self.vocab();
        out.resize(&[t, n, d]);
        let table = self.table.value.data();
        let o = out.data_mut();
        // Tokens are cached time-major to mirror the gradient layout.
        self.cached_tokens.clear();
        self.cached_tokens.resize(t * n, 0);
        for (i, seq) in tokens.iter().enumerate() {
            for (step, &tok) in seq.iter().enumerate() {
                assert!((tok as usize) < v, "token {tok} out of vocab {v}");
                let src = &table[tok as usize * d..(tok as usize + 1) * d];
                let dst = (step * n + i) * d;
                o[dst..dst + d].copy_from_slice(src);
                self.cached_tokens[step * n + i] = tok;
            }
        }
        self.cached_batch = n;
        self.cached_steps = t;
    }

    /// Accumulates gradients into the table rows used by the last forward.
    pub fn backward(&mut self, dout: &Tensor) {
        let (t, n, d) = (self.cached_steps, self.cached_batch, self.dim());
        assert_eq!(
            dout.dims(),
            &[t, n, d],
            "Embedding::backward shape mismatch"
        );
        let g = dout.data();
        let table_grad = self.table.grad.data_mut();
        for (slot, &tok) in self.cached_tokens.iter().enumerate() {
            let src = &g[slot * d..(slot + 1) * d];
            let dst = &mut table_grad[tok as usize * d..(tok as usize + 1) * d];
            for (dv, sv) in dst.iter_mut().zip(src) {
                *dv += *sv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_copies_rows_time_major() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(4, 3, &mut rng);
        let mut out = Tensor::scratch();
        e.forward_into(&[vec![1, 2], vec![3, 0]], &mut out);
        assert_eq!(out.dims(), &[2, 2, 3]);
        // step 0: rows for tokens 1 (seq 0) and 3 (seq 1)
        assert_eq!(&out.data()[0..3], e.table.value.row(1));
        assert_eq!(&out.data()[3..6], e.table.value.row(3));
        // step 1: tokens 2 and 0
        assert_eq!(&out.data()[6..9], e.table.value.row(2));
        assert_eq!(&out.data()[9..12], e.table.value.row(0));
    }

    #[test]
    fn backward_accumulates_per_token() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = Embedding::new(3, 2, &mut rng);
        // Token 1 appears twice; gradient should double up.
        e.forward_into(&[vec![1, 1]], &mut Tensor::scratch());
        let dout = Tensor::ones(&[2, 1, 2]);
        e.backward(&dout);
        assert_eq!(e.table.grad.row(1), &[2.0, 2.0]);
        assert_eq!(e.table.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_oov_token() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = Embedding::new(2, 2, &mut rng);
        e.forward_into(&[vec![5]], &mut Tensor::scratch());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_batch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = Embedding::new(4, 2, &mut rng);
        e.forward_into(&[vec![0, 1], vec![0]], &mut Tensor::scratch());
    }
}
