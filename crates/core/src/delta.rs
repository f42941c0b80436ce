//! Server-side storage of the clients' δ maps.

use crate::mmd;
use std::collections::BTreeMap;

/// Initialized rows are summed in blocks of this many consecutive ids, and
/// the block partials added in ascending block order: the arithmetic every
/// leave-one-out target is taken from. With `n ≤ BLOCK` there is one block,
/// and the total is the plain ascending-id sum of a dense table.
const BLOCK: usize = 256;

/// The table of per-client mean feature embeddings held by the server.
///
/// * **rFedAvg** broadcasts the *entire table* to every client each round —
///   `O(dN²)` bytes — and each client averages the others' entries locally.
/// * **rFedAvg+** stores the same table but broadcasts only the per-client
///   leave-one-out average `δ̄^{−k}` — `O(dN)` bytes total.
///
/// # Sparse storage
///
/// Rows live in one `BTreeMap<usize, Vec<f32>>` keyed by client id. Only
/// rows that a client has actually reported occupy memory, so at
/// cross-device scale the table costs `O(participants·d)`, not `O(N·d)` — a
/// million registered clients at 1% lifetime participation store 10⁴ rows,
/// not 10⁶. Unreported rows read as zeros (`Self::get` hands back a shared
/// zero row), preserving the dense table's observable behavior. Every walk
/// over the rows is in ascending id order, so no result depends on the
/// thread budget.
#[derive(Clone, Debug)]
pub struct DeltaTable {
    rows: BTreeMap<usize, Vec<f32>>,
    n: usize,
    dim: usize,
    /// What [`Self::get`] returns for unreported clients.
    zero: Vec<f32>,
}

impl DeltaTable {
    /// A table for `n` clients with `dim`-dimensional maps, every row
    /// starting unreported and reading as zeros (the paper's server
    /// initializes `δ_0` arbitrarily; zeros make the first-round
    /// regularizer a pull toward the origin, which λ keeps tiny).
    pub fn new(n: usize, dim: usize) -> Self {
        DeltaTable {
            rows: BTreeMap::new(),
            n,
            dim,
            zero: vec![0.0; dim],
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Rows actually stored (clients that have reported at least once).
    pub fn num_initialized(&self) -> usize {
        self.rows.len()
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
        let row = self.rows.entry(k).or_default();
        row.clear();
        row.extend_from_slice(delta);
    }

    /// Client `k`'s row; zeros when it has never reported.
    pub(crate) fn get(&self, k: usize) -> &[f32] {
        self.rows.get(&k).map_or(&self.zero, Vec::as_slice)
    }

    /// Dense materialization of all `n` rows (zeros for unreported
    /// clients) — only for the `O(N²)`-flavored mmd diagnostics below;
    /// never call this on a cross-device-sized table.
    fn dense_rows(&self) -> Vec<Vec<f32>> {
        (0..self.n).map(|k| self.get(k).to_vec()).collect()
    }

    /// The full table flattened (what rFedAvg broadcasts), `N·d` scalars,
    /// into a caller-provided buffer (cleared first; its allocation is
    /// reused across rounds).
    pub fn flattened_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.n * self.dim);
        for k in 0..self.n {
            out.extend_from_slice(self.get(k));
        }
    }

    /// Sum of all initialized rows: each [`BLOCK`] of ids summed in
    /// ascending id order, the block partials added in ascending block
    /// order — with a single block, the sum of rows `0..n` in one pass.
    fn initialized_total(&self) -> Vec<f32> {
        let mut total = vec![0.0f32; self.dim];
        let mut partial = vec![0.0f32; self.dim];
        let mut rows = self.rows.iter().peekable();
        while let Some((&k0, _)) = rows.peek() {
            let block = k0 / BLOCK;
            partial.fill(0.0);
            while let Some((_, row)) = rows.next_if(|(&k, _)| k / BLOCK == block) {
                rfl_tensor::add_assign_slices(&mut partial, row);
            }
            rfl_tensor::add_assign_slices(&mut total, &partial);
        }
        total
    }

    /// Leave-one-out average over the *initialized* entries only, or `None`
    /// when no other client has reported a δ yet. With partial participation
    /// some clients may never have been selected; their zero placeholders
    /// must not drag the regularization target toward the origin.
    pub fn mean_excluding_initialized(&self, k: usize) -> Option<Vec<f32>> {
        let others = self.others(k)?;
        let mut out = vec![0.0f32; self.dim];
        for (_, d) in self.rows.iter().filter(|(&j, _)| j != k) {
            rfl_tensor::add_assign_slices(&mut out, d);
        }
        rfl_tensor::scale_slices(&mut out, 1.0 / others as f32);
        Some(out)
    }

    /// How many reported rows are not client `k`'s; `None` when none is.
    fn others(&self, k: usize) -> Option<usize> {
        let others = self.rows.len() - usize::from(self.rows.contains_key(&k));
        (others > 0).then_some(others)
    }

    fn loo_from_total(&self, total: &[f32], k: usize) -> Option<Vec<f32>> {
        let inv = 1.0 / self.others(k)? as f32;
        // An unreported client's row reads as zeros, and `t − 0` is `t`.
        let loo = total.iter().zip(self.get(k)).map(|(&t, &v)| (t - v) * inv);
        Some(loo.collect())
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
        let mut flat = vec![1.0];
        t.flattened_into(&mut flat);
        assert_eq!(flat, vec![0.0; 6]);
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
        let mut flat = Vec::new();
        t.flattened_into(&mut flat);
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0]);
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
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.get(70_000), &[70_000.0; 4]);
        assert_eq!(t.get(500_000), &[0.0; 4]);
    }

    #[test]
    fn the_total_adds_block_partials_in_ascending_block_order() {
        // Rows in four blocks: 1e8 swallows the small terms beside it, so
        // block by block is not one ascending pass.
        let rows = [
            (0, 1e8),
            (1, 1.0),
            (255, 2.0),
            (256, -1e8),
            (511, 1.0),
            (513, 4.0),
            (1024, -3.0),
        ];
        let mut t = DeltaTable::new(2048, 1);
        for &(k, v) in rows.iter().rev() {
            t.set(k, vec![v]);
        }
        let sum = |vs: &mut dyn Iterator<Item = f32>| vs.fold(0.0f32, |s, v| s + v);
        let block = |b: usize| sum(&mut rows.iter().filter(|r| r.0 / BLOCK == b).map(|r| r.1));
        let oracle = sum(&mut [0, 1, 2, 4].into_iter().map(block));
        assert_eq!(t.initialized_total(), [oracle]);
        let flat = sum(&mut rows.iter().map(|r| r.1));
        assert_ne!(oracle, flat, "pick rows whose order shows");
        let want = Some(vec![(oracle - 4.0) / 6.0]);
        assert_eq!(t.loo_from_total(&[oracle], 513), want);
    }

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
    fn mean_excluding_initialized_sums_in_ascending_id_order() {
        // Rows in three blocks whose sum depends on its order: in id order
        // 1e8 + 1 − 1e8 rounds the 1 away.
        let mut t = DeltaTable::new(600, 1);
        for (k, v) in [(0usize, 1e8f32), (256, 1.0), (512, -1e8), (599, 3.0)] {
            t.set(k, vec![v]);
        }
        let sum = [1e8f32, 1.0, -1e8].iter().fold(0.0f32, |s, &v| s + v);
        assert_eq!(t.mean_excluding_initialized(599), Some(vec![sum / 3.0]));
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
