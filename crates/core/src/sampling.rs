//! Client sampling (the `SR` knob of FedAvg).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Above this population the shuffle path's `O(N)` scratch vector starts to
/// matter (a million-client registry would allocate 8 MB just to pick 10k
/// ids), so sparse selections switch to rejection sampling.
const SPARSE_N_MIN: usize = 65_536;

/// Samples `⌈SR·N⌉` distinct clients uniformly without replacement.
/// `sr = 1.0` is full participation. The returned indices are sorted so the
/// downstream iteration order is deterministic.
///
/// Small populations (or dense selections) shuffle an index vector — the
/// historical path, kept bit-for-bit so every pinned run reproduces. Huge
/// sparse selections (`n > 65536`, `m < n/8`) draw ids by rejection
/// sampling instead: `O(m)` memory and expected `O(m)` draws, never
/// materializing the population.
pub fn sample_clients<R: Rng>(n: usize, sr: f32, rng: &mut R) -> Vec<usize> {
    assert!(n > 0, "no clients");
    assert!((0.0..=1.0).contains(&sr), "sample ratio in [0, 1]");
    let m = ((n as f32 * sr).ceil() as usize).clamp(1, n);
    if m == n {
        return (0..n).collect();
    }
    if n > SPARSE_N_MIN && m < n / 8 {
        let mut chosen = HashSet::with_capacity(m);
        let mut selected = Vec::with_capacity(m);
        while selected.len() < m {
            let k = rng.gen_range(0..n);
            if chosen.insert(k) {
                selected.push(k);
            }
        }
        selected.sort_unstable();
        return selected;
    }
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    let mut selected = all[..m].to_vec();
    selected.sort_unstable();
    selected
}

/// A deterministic per-round selection stream
/// ([`crate::Trainer::pipelined`]).
///
/// The classic sampler threads one mutable RNG through the rounds, so round
/// `t+1`'s selection cannot be known before round `t` has drawn.
/// `SelectionStream` makes every round's
/// draw independently addressable by forking a fresh RNG per round from a
/// fixed seed, so `select(t)` returns the same ids no matter when — or how
/// many times — it is asked.
#[derive(Clone, Copy, Debug)]
pub struct SelectionStream {
    seed: u64,
}

impl SelectionStream {
    pub fn new(seed: u64) -> Self {
        SelectionStream { seed }
    }

    /// The RNG stream for `round`, decorrelated across rounds by a
    /// golden-ratio multiplier on the (1-based) round index.
    fn rng_for_round(&self, round: usize) -> StdRng {
        let r = (round as u64).wrapping_add(1);
        StdRng::seed_from_u64(self.seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Round `round`'s selection: `⌈sr·n⌉` distinct sorted ids, a pure
    /// function of `(seed, round, n, sr)`.
    pub fn select(&self, round: usize, n: usize, sr: f32) -> Vec<usize> {
        sample_clients(n, sr, &mut self.rng_for_round(round))
    }
}

/// Renormalized aggregation weights over the selected clients:
/// `p_k / Σ_{j∈S} p_j`.
pub fn renormalized_weights(weights: &[f32], selected: &[usize]) -> Vec<f32> {
    let total: f32 = selected.iter().map(|&k| weights[k]).sum();
    assert!(total > 0.0, "selected clients have zero weight");
    selected.iter().map(|&k| weights[k] / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_participation_returns_all() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_clients(5, 1.0, &mut rng), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn partial_participation_size_and_uniqueness() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_clients(100, 0.2, &mut rng);
        assert_eq!(s.len(), 20);
        let mut dedup = s.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn at_least_one_client() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample_clients(10, 0.0, &mut rng).len(), 1);
    }

    #[test]
    fn coverage_over_many_rounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 20];
        for _ in 0..100 {
            for i in sample_clients(20, 0.2, &mut rng) {
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every client eventually sampled");
    }

    #[test]
    fn sparse_path_draws_distinct_sorted_ids() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = SPARSE_N_MIN * 2;
        let s = sample_clients(n, 0.01, &mut rng);
        assert_eq!(s.len(), (n as f32 * 0.01).ceil() as usize);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(s.iter().all(|&k| k < n));
    }

    #[test]
    fn dense_selection_on_large_n_keeps_the_shuffle_path() {
        // m ≥ n/8 must not switch algorithms even above the size gate —
        // the rejection loop would degenerate as m → n.
        let mut rng = StdRng::seed_from_u64(5);
        let n = SPARSE_N_MIN + 1;
        let s = sample_clients(n, 0.5, &mut rng);
        assert_eq!(s.len(), n.div_ceil(2));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn algorithm_boundary_is_deterministic_and_duplicate_free() {
        // n = 65536 ± 1 with m = n/8 ± 1 straddles both gates of the sparse
        // switch (`n > SPARSE_N_MIN && m < n / 8`). Each cell must pick one
        // algorithm, return exactly m sorted distinct in-range ids, and
        // replay bit-identically from the same seed.
        for n in [SPARSE_N_MIN - 1, SPARSE_N_MIN, SPARSE_N_MIN + 1] {
            for m in [n / 8 - 1, n / 8, n / 8 + 1] {
                // sr chosen so ⌈sr·n⌉ lands exactly on m: the largest float
                // at or below m/n keeps the ceil from overshooting.
                let sr = (m as f32) / (n as f32);
                let sr = if (sr * n as f32).ceil() as usize > m {
                    f32::from_bits(sr.to_bits() - 1)
                } else {
                    sr
                };
                let a = sample_clients(n, sr, &mut StdRng::seed_from_u64(9));
                let b = sample_clients(n, sr, &mut StdRng::seed_from_u64(9));
                assert_eq!(a, b, "replay n={n} m={m}");
                assert_eq!(a.len(), m, "size n={n} m={m}");
                assert!(
                    a.windows(2).all(|w| w[0] < w[1]),
                    "sorted+distinct n={n} m={m}"
                );
                assert!(a.iter().all(|&k| k < n), "range n={n} m={m}");
            }
        }
    }

    #[test]
    fn selection_stream_is_stable_per_round_and_varies_across_rounds() {
        let s = SelectionStream::new(7);
        let r0 = s.select(0, 1000, 0.1);
        assert_eq!(r0, s.select(0, 1000, 0.1), "same round replays");
        assert_eq!(r0.len(), 100);
        assert!(r0.windows(2).all(|w| w[0] < w[1]));
        let r1 = s.select(1, 1000, 0.1);
        assert_ne!(r0, r1, "rounds decorrelated");
        // Lookahead is order-free: asking for round 5 before round 1 does
        // not disturb either draw.
        let r5 = s.select(5, 1000, 0.1);
        assert_eq!(r1, s.select(1, 1000, 0.1));
        assert_eq!(r5, s.select(5, 1000, 0.1));
    }

    #[test]
    fn renormalized_weights_sum_to_one() {
        let w = vec![0.1, 0.2, 0.3, 0.4];
        let r = renormalized_weights(&w, &[1, 3]);
        assert!((r.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((r[0] - 0.2 / 0.6).abs() < 1e-6);
    }
}
