//! Mini-batch sampling.

use rand::seq::SliceRandom;
use rand::Rng;

/// Samples mini-batch index sets, cycling through a reshuffled permutation of
/// the dataset each epoch (the sampling scheme of FedAvg's local training).
pub struct BatchSampler {
    n: usize,
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
}

impl BatchSampler {
    /// # Panics
    /// Panics on an empty dataset or zero batch size.
    pub fn new(n: usize, batch_size: usize) -> Self {
        assert!(n > 0, "empty dataset");
        assert!(batch_size > 0, "zero batch size");
        BatchSampler {
            n,
            batch_size: batch_size.min(n),
            order: (0..n).collect(),
            // Start exhausted so the very first batch comes from a fresh
            // shuffle (otherwise every sampler would begin with 0, 1, 2, …).
            cursor: n,
        }
    }

    /// Next batch of indices; reshuffles when the epoch is exhausted.
    pub fn next_batch<R: Rng>(&mut self, rng: &mut R) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.batch_size);
        self.next_batch_into(rng, &mut out);
        out
    }

    /// [`Self::next_batch`] into a caller-provided buffer (cleared first;
    /// its allocation is reused across steps). Draws from the same RNG
    /// stream, so the index sequence is identical to `next_batch`.
    pub fn next_batch_into<R: Rng>(&mut self, rng: &mut R, out: &mut Vec<usize>) {
        if self.cursor + self.batch_size > self.n {
            self.order.shuffle(rng);
            self.cursor = 0;
        }
        out.clear();
        out.extend_from_slice(&self.order[self.cursor..self.cursor + self.batch_size]);
        self.cursor += self.batch_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batches_have_requested_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = BatchSampler::new(10, 3);
        for _ in 0..20 {
            assert_eq!(s.next_batch(&mut rng).len(), 3);
        }
    }

    #[test]
    fn covers_every_index_within_an_epoch() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = BatchSampler::new(9, 3);
        let mut seen = [false; 9];
        for _ in 0..3 {
            for i in s.next_batch(&mut rng) {
                assert!(!seen[i], "index {i} repeated within epoch");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn clamps_batch_to_dataset_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = BatchSampler::new(4, 100);
        assert_eq!(s.next_batch(&mut rng).len(), 4);
    }

    #[test]
    fn indices_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = BatchSampler::new(7, 2);
        for _ in 0..50 {
            assert!(s.next_batch(&mut rng).iter().all(|&i| i < 7));
        }
    }
}
