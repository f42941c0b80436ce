//! Mini-batch sampling.

use rand::seq::SliceRandom;
use rand::Rng;

/// Samples mini-batch index sets, cycling through a reshuffled permutation of
/// the dataset each epoch (the sampling scheme of FedAvg's local training).
///
/// `BatchSampler::default()` is a sampler over no examples, drawing empty
/// batches until [`BatchSampler::reset`] or [`BatchSampler::unpack`] gives
/// it some.
#[derive(Default)]
pub struct BatchSampler {
    n: usize,
    batch_size: usize,
    order: Vec<usize>,
    cursor: usize,
}

impl BatchSampler {
    /// Makes this a sampler over `n` examples drawing batches of
    /// `batch_size` (clamped to `n`), at the start of its first epoch,
    /// reusing its allocation.
    ///
    /// # Panics
    /// Panics on an empty dataset or zero batch size.
    pub fn reset(&mut self, n: usize, batch_size: usize) {
        assert!(n > 0, "empty dataset");
        assert!(batch_size > 0, "zero batch size");
        self.n = n;
        self.batch_size = batch_size.min(n);
        self.order.clear();
        self.order.extend(0..n);
        // Start exhausted so the very first batch comes from a fresh
        // shuffle (otherwise every sampler would begin with 0, 1, 2, …).
        self.cursor = n;
    }

    /// Words [`BatchSampler::pack`] writes for a sampler over `n` examples.
    pub fn packed_words(n: usize) -> usize {
        1 + order_words(n)
    }

    /// Writes the sampler's position into `out`, which holds exactly
    /// [`BatchSampler::packed_words`]: the cursor, then the epoch's order at
    /// the narrowest width that holds every index (one byte up to 256
    /// examples, two up to 65,536, four beyond), packed little-end first
    /// into 32-bit words. Neither `n` nor the batch size is stored: both are
    /// the caller's, and [`BatchSampler::unpack`] is handed them again.
    ///
    /// # Panics
    /// Panics if `n` does not fit in 32 bits or `out` has another length.
    pub fn pack(&self, out: &mut [u32]) {
        assert!(
            u32::try_from(self.n).is_ok(),
            "a packed sampler holds under 2^32 examples"
        );
        let len = BatchSampler::packed_words(self.n);
        assert_eq!(out.len(), len, "packed sampler length");
        // The cursor never passes `n`.
        out[0] = self.cursor as u32;
        let words = &mut out[1..];
        match indices_per_word_log2(self.n) {
            2 => pack_indices::<4>(&self.order, words),
            1 => pack_indices::<2>(&self.order, words),
            _ => pack_indices::<1>(&self.order, words),
        }
    }

    /// Restores the position [`BatchSampler::pack`] wrote into `words` (all
    /// of them) for a sampler over `n` examples, reusing this sampler's
    /// allocation: the next batches are the ones the packed sampler would
    /// have drawn from the same RNG.
    ///
    /// # Panics
    /// Panics on an empty dataset, a zero batch size, or if `words` is not
    /// one packed sampler over `n` examples.
    pub fn unpack(&mut self, n: usize, batch_size: usize, words: &[u32]) {
        assert!(n > 0, "empty dataset");
        assert!(batch_size > 0, "zero batch size");
        assert_eq!(
            words.len(),
            BatchSampler::packed_words(n),
            "not a packed sampler over {n} examples"
        );
        let cursor = words[0] as usize;
        assert!(cursor <= n, "cursor {cursor} past {n} examples");
        self.n = n;
        self.batch_size = batch_size.min(n);
        self.cursor = cursor;
        self.order.resize(n, 0);
        let order = &mut self.order[..];
        match indices_per_word_log2(n) {
            2 => unpack_indices::<4>(&words[1..], order),
            1 => unpack_indices::<2>(&words[1..], order),
            _ => unpack_indices::<1>(&words[1..], order),
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

/// Base-2 logarithm of the indices of a sampler over `n` examples that one
/// packed word holds (a shift, so sizing a record divides nothing).
fn indices_per_word_log2(n: usize) -> u32 {
    match n {
        0..=0x100 => 2,
        0x101..=0x1_0000 => 1,
        _ => 0,
    }
}

/// Words holding `n` packed indices.
fn order_words(n: usize) -> usize {
    let shift = indices_per_word_log2(n);
    (n + (1 << shift) - 1) >> shift
}

/// Writes `order` into `out` at `PER` indices a word, the first in the low
/// bits.
fn pack_indices<const PER: usize>(order: &[usize], out: &mut [u32]) {
    let bits = 32 / PER;
    let word = |c: &[usize]| {
        let at = c.iter().enumerate();
        at.fold(0u32, |w, (j, &i)| w | ((i as u32) << (j * bits)))
    };
    let whole = order.chunks_exact(PER);
    if let Some(last) = out.get_mut(whole.len()) {
        *last = word(whole.remainder());
    }
    for (w, c) in out.iter_mut().zip(whole) {
        *w = word(c);
    }
}

/// Overwrites `order` (`n` long) with the indices `words` holds, `PER` to
/// a word.
fn unpack_indices<const PER: usize>(words: &[u32], order: &mut [usize]) {
    let bits = 32 / PER;
    let mask = u32::MAX >> (32 - bits);
    let index = |w: u32, j: usize| ((w >> (j * bits)) & mask) as usize;
    let mut whole = order.chunks_exact_mut(PER);
    for (c, &w) in whole.by_ref().zip(words) {
        for (j, i) in c.iter_mut().enumerate() {
            *i = index(w, j);
        }
    }
    let rest = whole.into_remainder();
    if let Some(&w) = words.last().filter(|_| !rest.is_empty()) {
        for (j, i) in rest.iter_mut().enumerate() {
            *i = index(w, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler(n: usize, batch_size: usize) -> BatchSampler {
        let mut s = BatchSampler::default();
        s.reset(n, batch_size);
        s
    }

    #[test]
    fn batches_have_requested_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = sampler(10, 3);
        for _ in 0..20 {
            assert_eq!(s.next_batch(&mut rng).len(), 3);
        }
    }

    #[test]
    fn covers_every_index_within_an_epoch() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = sampler(9, 3);
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
        let mut s = sampler(4, 100);
        assert_eq!(s.next_batch(&mut rng).len(), 4);
    }

    #[test]
    fn packing_resumes_the_epoch_at_every_width() {
        for n in [1, 3, 255, 256, 257, 65_535, 65_536, 65_537] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut s = sampler(n, 7);
            s.next_batch(&mut rng);
            let mut words = vec![0; BatchSampler::packed_words(n)];
            s.pack(&mut words);
            // Unpacked into a sampler that held another shape before.
            let mut t = sampler(9, 2);
            t.unpack(n, 7, &words);
            let mut again = rng.clone();
            for _ in 0..3 {
                assert_eq!(s.next_batch(&mut rng), t.next_batch(&mut again), "n = {n}");
            }
        }
    }

    #[test]
    fn indices_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = sampler(7, 2);
        for _ in 0..50 {
            assert!(s.next_batch(&mut rng).iter().all(|&i| i < 7));
        }
    }
}
