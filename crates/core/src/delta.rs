//! Server-side storage of the clients' δ maps.

use crate::mmd;
use std::collections::BTreeMap;

/// Rows are interleaved across shards in blocks of this many clients, so a
/// round's selection (arbitrary ids) spreads across shards instead of
/// landing on one, while federations with `n ≤ BLOCK` keep all rows in a
/// single block — every reduction below then runs in plain ascending-id
/// order, bit-identical to a dense table.
const BLOCK: usize = 256;

/// The table of per-client mean feature embeddings held by the server.
///
/// * **rFedAvg** broadcasts the *entire table* to every client each round —
///   `O(dN²)` bytes — and each client averages the others' entries locally.
/// * **rFedAvg+** stores the same table but broadcasts only the per-client
///   leave-one-out average `δ̄^{−k}` — `O(dN)` bytes total.
///
/// # Sharded sparse storage
///
/// Rows live in `thread_budget()` shards of `BTreeMap<usize, Vec<f32>>`,
/// block-index-hashed (`(k / BLOCK) % shards`). Only rows that a client has
/// actually reported occupy memory, so at cross-device scale the table
/// costs `O(participants·d)`, not `O(N·d)` — a million registered clients
/// at 1% lifetime participation store 10⁴ rows, not 10⁶. Unreported rows
/// read as zeros (`Self::get` hands back a shared zero row), preserving
/// the dense table's observable behavior.
///
/// Mutation goes through `&mut self`, so the shards need no locks of their
/// own (the per-shard locks of the lazy path live in
/// [`crate::registry::ClientRegistry`], which *is* touched concurrently).
/// Sharding here buys deterministic divide-and-combine reductions: totals
/// are accumulated per block and the block partials combined in ascending
/// block order, so results never depend on the thread budget, and with
/// `n ≤ BLOCK` (every tier-1 federation) they are bitwise identical to the
/// historical dense single-pass sums.
#[derive(Clone, Debug)]
pub struct DeltaTable {
    shards: Vec<BTreeMap<usize, Vec<f32>>>,
    n: usize,
    dim: usize,
    /// Number of rows written at least once (= total rows stored).
    n_init: usize,
    /// What [`Self::get`] returns for unreported clients.
    zero: Vec<f32>,
}

impl DeltaTable {
    /// A table for `n` clients with `dim`-dimensional maps, every row
    /// starting unreported and reading as zeros (the paper's server
    /// initializes `δ_0` arbitrarily; zeros make the first-round
    /// regularizer a pull toward the origin, which λ keeps tiny).
    pub fn new(n: usize, dim: usize) -> Self {
        Self::with_shards(n, dim, rfl_tensor::thread_budget().max(1))
    }

    fn with_shards(n: usize, dim: usize, shards: usize) -> Self {
        DeltaTable {
            shards: vec![BTreeMap::new(); shards.max(1)],
            n,
            dim,
            n_init: 0,
            zero: vec![0.0; dim],
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Rows actually stored (clients that have reported at least once).
    pub fn num_initialized(&self) -> usize {
        self.n_init
    }

    fn shard_of(&self, k: usize) -> usize {
        (k / BLOCK) % self.shards.len()
    }

    /// Updates client `k`'s entry.
    pub fn set(&mut self, k: usize, delta: Vec<f32>) {
        self.set_from_slice(k, &delta);
    }

    /// Updates client `k`'s entry by copying into its existing row, so the
    /// table's storage is reused across rounds instead of reallocated.
    pub fn set_from_slice(&mut self, k: usize, delta: &[f32]) {
        assert_eq!(delta.len(), self.dim, "δ dim mismatch");
        assert!(k < self.n, "client {k} out of range");
        let shard = self.shard_of(k);
        let row = self.shards[shard].entry(k).or_insert_with(|| {
            self.n_init += 1;
            Vec::with_capacity(delta.len())
        });
        row.clear();
        row.extend_from_slice(delta);
    }

    /// Client `k`'s row; zeros when it has never reported.
    pub(crate) fn get(&self, k: usize) -> &[f32] {
        self.shards[self.shard_of(k)]
            .get(&k)
            .map_or(&self.zero, Vec::as_slice)
    }

    fn is_initialized(&self, k: usize) -> bool {
        self.shards[self.shard_of(k)].contains_key(&k)
    }

    /// Dense materialization of all `n` rows (zeros for unreported
    /// clients) — only for the `O(N²)`-flavored mmd diagnostics below;
    /// never call this on a cross-device-sized table.
    fn dense_rows(&self) -> Vec<Vec<f32>> {
        (0..self.n).map(|k| self.get(k).to_vec()).collect()
    }

    /// The full table flattened (what rFedAvg broadcasts): `N·d` scalars.
    pub fn flattened(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.n * self.dim);
        self.flattened_into(&mut out);
        out
    }

    /// [`Self::flattened`] into a caller-provided buffer (cleared first; its
    /// allocation is reused across rounds).
    pub fn flattened_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.n * self.dim);
        for k in 0..self.n {
            out.extend_from_slice(self.get(k));
        }
    }

    /// Sum of all initialized rows, accumulated per block in ascending
    /// block order — deterministic under any shard count, and with a
    /// single block identical to summing rows `0..n` in one pass.
    fn initialized_total(&self) -> Vec<f32> {
        let mut blocks: Vec<(usize, Vec<f32>)> = Vec::new();
        for shard in &self.shards {
            let mut iter = shard.iter().peekable();
            while let Some((&k0, _)) = iter.peek() {
                let block = k0 / BLOCK;
                let mut partial = vec![0.0f32; self.dim];
                while let Some((&k, _)) = iter.peek() {
                    if k / BLOCK != block {
                        break;
                    }
                    let (_, row) = iter.next().expect("peeked entry vanished");
                    for (t, &v) in partial.iter_mut().zip(row) {
                        *t += v;
                    }
                }
                blocks.push((block, partial));
            }
        }
        blocks.sort_by_key(|&(b, _)| b);
        let mut total = vec![0.0f32; self.dim];
        for (_, partial) in blocks {
            rfl_tensor::add_assign_slices(&mut total, &partial);
        }
        total
    }

    /// Leave-one-out average over the *initialized* entries only, or `None`
    /// when no other client has reported a δ yet. With partial participation
    /// some clients may never have been selected; their zero placeholders
    /// must not drag the regularization target toward the origin.
    pub fn mean_excluding_initialized(&self, k: usize) -> Option<Vec<f32>> {
        let mut out = vec![0.0f32; self.dim];
        let mut count = 0usize;
        for shard in &self.shards {
            for (&j, d) in shard {
                if j == k {
                    continue;
                }
                for (o, &v) in out.iter_mut().zip(d) {
                    *o += v;
                }
                count += 1;
            }
        }
        if count == 0 {
            return None;
        }
        let inv = 1.0 / count as f32;
        for o in &mut out {
            *o *= inv;
        }
        Some(out)
    }

    fn loo_from_total(&self, total: &[f32], k: usize) -> Option<Vec<f32>> {
        let (cnt, sub): (usize, Option<&[f32]>) = if self.is_initialized(k) {
            (self.n_init.saturating_sub(1), Some(self.get(k)))
        } else {
            (self.n_init, None)
        };
        if cnt == 0 {
            return None;
        }
        let inv = 1.0 / cnt as f32;
        Some(match sub {
            Some(dk) => total.iter().zip(dk).map(|(&t, &v)| (t - v) * inv).collect(),
            None => total.iter().map(|&t| t * inv).collect(),
        })
    }

    /// All `N` leave-one-out averages over initialized entries in one pass:
    /// `O(N·d)` total instead of `O(N²·d)` for `N` calls of
    /// [`Self::mean_excluding_initialized`]. The per-`k` result is identical
    /// up to summation order (`T_init − δ_k` vs. skipping `δ_k` in the sum).
    /// Cross-device round loops use `Self::means_excluding_initialized_for`
    /// instead, which skips the `O(N·d)` output for unselected clients.
    pub fn means_excluding_initialized(&self) -> Vec<Option<Vec<f32>>> {
        let total = self.initialized_total();
        (0..self.n)
            .map(|k| self.loo_from_total(&total, k))
            .collect()
    }

    /// Leave-one-out averages for a subset of clients only (the round's
    /// selection): `O(init·d + |ks|·d)` rather than materializing all `N`
    /// targets. `out[i]` corresponds to `ks[i]` and matches what
    /// [`Self::means_excluding_initialized`] would put at index `ks[i]`.
    pub(crate) fn means_excluding_initialized_for(&self, ks: &[usize]) -> Vec<Option<Vec<f32>>> {
        let total = self.initialized_total();
        ks.iter().map(|&k| self.loo_from_total(&total, k)).collect()
    }

    /// Mean pairwise regularizer across all clients — the global
    /// `Σ p_k r_k` proxy logged as `reg_value` in training curves.
    /// Uses the `O(N·d)` [`mmd::MmdStats`] expansion rather than the
    /// `O(N²·d)` pairwise loop.
    pub fn mean_regularizer(&self) -> f32 {
        let rows = self.dense_rows();
        let stats = mmd::MmdStats::new(&rows);
        stats.regularizer_values().iter().sum::<f32>() / self.n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed_and_uninitialized() {
        let t = DeltaTable::new(3, 2);
        assert_eq!(t.num_initialized(), 0);
        assert_eq!(t.get(1), &[0.0, 0.0]);
        assert_eq!(t.flattened().len(), 6);
    }

    #[test]
    fn set_counts_each_row_once_reported() {
        let mut t = DeltaTable::new(2, 1);
        t.set(0, vec![1.0]);
        assert_eq!(t.num_initialized(), 1);
        t.set(1, vec![3.0]);
        assert_eq!(t.num_initialized(), 2);
        assert_eq!(t.mean_excluding_initialized(0), Some(vec![3.0]));
        assert_eq!(t.mean_excluding_initialized(1), Some(vec![1.0]));
    }

    #[test]
    fn flattened_concatenates_in_client_order() {
        let mut t = DeltaTable::new(2, 2);
        t.set(0, vec![1.0, 2.0]);
        t.set(1, vec![3.0, 4.0]);
        assert_eq!(t.flattened(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn regularizer_decreases_as_deltas_align() {
        let mut t = DeltaTable::new(3, 2);
        t.set(0, vec![0.0, 0.0]);
        t.set(1, vec![2.0, 0.0]);
        t.set(2, vec![0.0, 2.0]);
        let far = t.mean_regularizer();
        t.set(1, vec![0.1, 0.0]);
        t.set(2, vec![0.0, 0.1]);
        assert!(t.mean_regularizer() < far);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn rejects_wrong_dim() {
        DeltaTable::new(2, 3).set(0, vec![1.0]);
    }

    #[test]
    fn rewriting_a_row_does_not_recount_it() {
        let mut t = DeltaTable::new(2, 1);
        t.set(0, vec![1.0]);
        t.set(0, vec![2.0]);
        assert_eq!(t.num_initialized(), 1);
        assert_eq!(t.get(0), &[2.0]);
    }

    #[test]
    fn storage_is_sparse_in_reported_rows() {
        // A "million"-ish registry: only reported rows occupy shard slots.
        let mut t = DeltaTable::new(1_000_000, 4);
        for k in [3usize, 70_000, 999_999] {
            t.set(k, vec![k as f32; 4]);
        }
        assert_eq!(t.num_initialized(), 3);
        let stored: usize = t.shards.iter().map(BTreeMap::len).sum();
        assert_eq!(stored, 3);
        assert_eq!(t.get(70_000), &[70_000.0; 4]);
        assert_eq!(t.get(500_000), &[0.0; 4]);
    }

    #[test]
    fn totals_are_shard_count_invariant() {
        // Same rows under 1 shard vs many shards: identical bits out of the
        // block-ordered reduction (rows span multiple blocks on purpose).
        let build = |t: &mut DeltaTable| {
            for k in [0usize, 1, 255, 256, 511, 513, 1024] {
                t.set(k, vec![0.1 + k as f32 * 1e-3, -(k as f32) * 7e-4]);
            }
        };
        let mut t1 = DeltaTable::with_shards(2048, 2, 1);
        build(&mut t1);
        let mut t4 = DeltaTable::with_shards(2048, 2, 4);
        build(&mut t4);
        assert_eq!(t1.shards.len(), 1);
        assert_eq!(t4.shards.len(), 4);
        let total1 = t1.initialized_total();
        let total4 = t4.initialized_total();
        assert_eq!(total1, total4);
        for k in [0usize, 2, 256, 513, 2047] {
            assert_eq!(
                t1.loo_from_total(&total1, k),
                t4.loo_from_total(&total4, k),
                "k={k}"
            );
        }
    }
}

#[cfg(test)]
mod partial_tests {
    use super::*;

    #[test]
    fn mean_excluding_initialized_skips_unreported_clients() {
        let mut t = DeltaTable::new(4, 1);
        assert!(t.mean_excluding_initialized(0).is_none());
        t.set(1, vec![2.0]);
        assert_eq!(t.mean_excluding_initialized(0), Some(vec![2.0]));
        t.set(3, vec![4.0]);
        assert_eq!(t.mean_excluding_initialized(0), Some(vec![3.0]));
        // Excludes self even when initialized.
        t.set(0, vec![100.0]);
        assert_eq!(t.mean_excluding_initialized(0), Some(vec![3.0]));
    }

    #[test]
    fn batch_means_match_per_client_queries() {
        let mut t = DeltaTable::new(5, 3);
        t.set(0, vec![1.0, -2.0, 0.5]);
        t.set(2, vec![0.25, 4.0, -1.5]);
        t.set(4, vec![-3.0, 0.0, 2.0]);
        let batch = t.means_excluding_initialized();
        assert_eq!(batch.len(), 5);
        for (k, entry) in batch.iter().enumerate() {
            match (entry, t.mean_excluding_initialized(k)) {
                (Some(b), Some(p)) => {
                    for (a, c) in b.iter().zip(&p) {
                        assert!((a - c).abs() < 1e-6, "k={k}: {a} vs {c}");
                    }
                }
                (None, None) => {}
                (b, p) => panic!("k={k}: batch {b:?} vs per-k {p:?}"),
            }
        }
    }

    #[test]
    fn batch_means_all_none_when_table_empty() {
        let t = DeltaTable::new(3, 2);
        assert!(t.means_excluding_initialized().iter().all(|m| m.is_none()));
    }

    #[test]
    fn batch_means_single_initialized_client() {
        let mut t = DeltaTable::new(3, 1);
        t.set(1, vec![5.0]);
        let batch = t.means_excluding_initialized();
        // Client 1 has no *other* initialized peer; the rest see only client 1.
        assert_eq!(batch[0], Some(vec![5.0]));
        assert_eq!(batch[1], None);
        assert_eq!(batch[2], Some(vec![5.0]));
    }

    #[test]
    fn subset_means_match_the_batch_form() {
        let mut t = DeltaTable::new(600, 2);
        for k in [1usize, 2, 300, 512] {
            t.set(k, vec![k as f32, -(k as f32)]);
        }
        let all = t.means_excluding_initialized();
        let ks = [0usize, 1, 300, 599];
        let subset = t.means_excluding_initialized_for(&ks);
        for (i, &k) in ks.iter().enumerate() {
            assert_eq!(subset[i], all[k], "k={k}");
        }
    }
}
