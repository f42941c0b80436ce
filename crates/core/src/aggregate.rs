//! Streaming O(d) aggregation as a fixed-shape reduction tree: every
//! arriving upload is folded into its **leaf** the moment it arrives, and
//! the leaves are combined along a spine whose shape depends only on the
//! selection — never on arrival order or thread count.
//!
//! Materialize-then-average — buffer `O(sampled·d)` floats, then walk the
//! whole set — holds 10,000 live parameter vectors
//! with a million registered clients and 1% sampling. The
//! [`StreamingAggregator`] replaces the buffer with one flat `d`-float
//! accumulator plus a folded-weight scalar.
//!
//! # The reduction tree
//!
//! The aggregate `Σ wᵢ·θᵢ` is evaluated as a binary tree fixed by the
//! selection slots:
//!
//! - **Leaves** are `fl(wᵢ·θᵢ)`, computed eagerly when slot `i`'s upload
//!   arrives ([`rfl_tensor::scale_slices_into`] into a pooled buffer). Leaf
//!   evaluation is embarrassingly parallel and order-free — an upload
//!   arriving ahead of a lower, still-pending slot does its multiply work
//!   immediately instead of parking raw bytes in a `BTreeMap` and re-reading
//!   them later. Out-of-order arrivals therefore never block: by the time
//!   the spine reaches a stashed slot, its scaling work is already done.
//! - **Interior nodes** form a left comb: `acc ← acc + leafᵢ` in slot
//!   order ([`rfl_tensor::add_assign_slices`]). A left comb is the one tree
//!   shape whose per-element operation sequence is *identical* to the flat
//!   sequential fold `zeros; acc += w₀·θ₀; acc += w₁·θ₁; …`, which is what
//!   keeps the result bit-identical to the materializing oracle below (f32
//!   addition is not associative, so any balanced shape would change the
//!   pinned losses).
//!
//! In-order arrivals skip the explicit leaf and fold straight into the spine
//! with [`rfl_tensor::axpy_slices`] — bit-equal, because axpy performs the
//! same separate multiply-then-add per element that `scale_into` +
//! `add_assign` performs in two passes (no FMA contraction on either path;
//! see the `rfl_tensor::simd` determinism contract).
//!
//! # Parallelism
//!
//! Both the leaf scaling and the spine combines are element-wise, so for
//! large `d` they are chunked across the shared worker pool
//! ([`rfl_tensor::parallel_for_chunks`]). Each chunk owns a disjoint region
//! of the output and the per-element order within a chunk is fixed, so the
//! result is bit-identical at any `RFL_THREADS` value.
//!
//! # Determinism
//!
//! PerfectTransport, FaultyTransport, and SocketTransport runs — where
//! frames genuinely complete out of order — all execute the identical
//! per-element operation sequence, so the canonical pinned loss reproduces
//! bit-exactly over the wire.
//!
//! # Bit-compatibility with the oracle
//!
//! The weights handed to the aggregator are prenormalized over the *whole
//! selection* ([`crate::sampling::renormalized_weights`]). When every
//! selected upload arrives (the common, pinned case) the fold sequence is
//! exactly `zeros; axpy(w_0, θ_0); axpy(w_1, θ_1); …` — bit-identical to
//! `weighted_average(params, renormalized_weights(..))`, the oracle in
//! rfl-core's `tests/oracle/fold.rs` that `tests/proptests.rs` pins the
//! aggregator against. When uploads drop, the accumulator is rescaled
//! once by `1/Σ(folded weights)` — the same renormalize-over-survivors
//! semantics, applied as a single deterministic correction instead of a
//! re-walk of buffered vectors.

/// Dimension at which element-wise tree ops start chunking across the worker
/// pool; below this the dispatch overhead exceeds the win.
const PAR_MIN_DIM: usize = 1 << 16;
/// Chunk length of the pool-parallel grid (fixed, so the grid depends only
/// on `d` — never on the thread budget).
const PAR_CHUNK: usize = 1 << 14;

/// `y += a·x`, chunked across the pool for large `d`. Element-wise, so
/// bit-identical to the single-threaded [`rfl_tensor::axpy_slices`].
fn axpy_par(y: &mut [f32], a: f32, x: &[f32]) {
    if y.len() < PAR_MIN_DIM {
        rfl_tensor::axpy_slices(y, a, x);
    } else {
        rfl_tensor::parallel_for_chunks(y, PAR_CHUNK, |i, chunk| {
            let s = i * PAR_CHUNK;
            rfl_tensor::axpy_slices(chunk, a, &x[s..s + chunk.len()]);
        });
    }
}

/// `y += x`, chunked like [`axpy_par`].
fn add_assign_par(y: &mut [f32], x: &[f32]) {
    if y.len() < PAR_MIN_DIM {
        rfl_tensor::add_assign_slices(y, x);
    } else {
        rfl_tensor::parallel_for_chunks(y, PAR_CHUNK, |i, chunk| {
            let s = i * PAR_CHUNK;
            rfl_tensor::add_assign_slices(chunk, &x[s..s + chunk.len()]);
        });
    }
}

/// `out = a·x`, chunked like [`axpy_par`].
fn scale_into_par(out: &mut [f32], a: f32, x: &[f32]) {
    if out.len() < PAR_MIN_DIM {
        rfl_tensor::scale_slices_into(out, a, x);
    } else {
        rfl_tensor::parallel_for_chunks(out, PAR_CHUNK, |i, chunk| {
            let s = i * PAR_CHUNK;
            rfl_tensor::scale_slices_into(chunk, a, &x[s..s + chunk.len()]);
        });
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Not yet arrived and not known-dropped.
    Pending,
    /// Arrived out of order; its leaf `fl(w·θ)` is already computed.
    Leafed,
    /// Combined into the spine accumulator.
    Folded,
    /// The transport reported the upload lost; the slot will never arrive.
    Dropped,
}

/// Fold-on-arrival weighted-average accumulator built as a fixed-shape
/// reduction tree. See the module docs.
///
/// All buffers (accumulator, weights, slot states, leaf pool) are retained
/// across [`StreamingAggregator::reset_for_selection`] calls, so a
/// federation that keeps one aggregator per run performs zero steady-state
/// allocations per round on the no-drop path.
#[derive(Debug, Default)]
pub struct StreamingAggregator {
    dim: usize,
    acc: Vec<f32>,
    /// Per-slot weights, prenormalized over the selection.
    weights: Vec<f32>,
    state: Vec<SlotState>,
    /// Scaled leaves of out-of-order arrivals, indexed by slot. `None` for
    /// slots that folded straight into the spine. Empty on in-order paths.
    leaves: Vec<Option<Vec<f32>>>,
    /// Recycled leaf buffers (bounded by the worst observed reorder depth).
    pool: Vec<Vec<f32>>,
    /// Lowest slot not yet folded or skipped.
    next_slot: usize,
    folded: usize,
    resolved: usize,
    /// Σ weights of folded slots, accumulated in fold (slot) order.
    folded_weight: f32,
    /// Donated buffer (e.g. the previous global) reused as the next `acc`.
    spare: Option<Vec<f32>>,
}

impl StreamingAggregator {
    /// Re-arms the aggregator for a new round over `selected`, computing the
    /// prenormalized weights in place (bit-identical to
    /// [`crate::sampling::renormalized_weights`]) and reusing every buffer.
    pub fn reset_for_selection(&mut self, dim: usize, all_weights: &[f32], selected: &[usize]) {
        let total: f32 = selected.iter().map(|&k| all_weights[k]).sum();
        assert!(total > 0.0, "selected clients have zero total weight");
        self.weights.clear();
        self.weights
            .extend(selected.iter().map(|&k| all_weights[k] / total));
        self.rearm(dim);
    }

    /// Zeroes the accumulator (recycling a donated buffer when the current
    /// one was taken by `finish`), returns stale leaves to the pool, and
    /// resets all per-round state; the weight vector is left as-is.
    fn rearm(&mut self, dim: usize) {
        self.dim = dim;
        if self.acc.is_empty() {
            if let Some(spare) = self.spare.take() {
                self.acc = spare;
            }
        }
        self.acc.clear();
        self.acc.resize(dim, 0.0);
        self.state.clear();
        self.state.resize(self.weights.len(), SlotState::Pending);
        for leaf in self.leaves.iter_mut() {
            if let Some(buf) = leaf.take() {
                self.pool.push(buf);
            }
        }
        self.leaves.clear();
        self.leaves.resize_with(self.weights.len(), || None);
        self.next_slot = 0;
        self.folded = 0;
        self.resolved = 0;
        self.folded_weight = 0.0;
    }

    /// Advances the spine: combines ready leaves and skips dropped slots
    /// until the next still-pending slot.
    fn drain(&mut self) {
        while self.next_slot < self.state.len() {
            match self.state[self.next_slot] {
                SlotState::Pending => break,
                SlotState::Dropped | SlotState::Folded => self.next_slot += 1,
                SlotState::Leafed => {
                    let slot = self.next_slot;
                    let leaf = self.leaves[slot].take().expect("leaf payload missing");
                    add_assign_par(&mut self.acc, &leaf);
                    self.folded_weight += self.weights[slot];
                    self.folded += 1;
                    self.pool.push(leaf);
                    self.state[slot] = SlotState::Folded;
                    self.next_slot += 1;
                }
            }
        }
    }

    /// Accepts the upload for `slot`. In-order arrivals combine straight
    /// into the spine; out-of-order arrivals compute their leaf `fl(w·θ)`
    /// immediately and are combined once every earlier slot resolves.
    pub fn push(&mut self, slot: usize, params: &[f32]) {
        assert!(slot < self.state.len(), "slot {slot} out of range");
        assert_eq!(
            self.state[slot],
            SlotState::Pending,
            "slot {slot} resolved twice"
        );
        assert_eq!(params.len(), self.dim, "upload dim mismatch at slot {slot}");
        self.resolved += 1;
        let w = self.weights[slot];
        if slot == self.next_slot {
            // Spine fast path: one fused pass (axpy ≡ leaf + combine bitwise).
            axpy_par(&mut self.acc, w, params);
            self.folded_weight += w;
            self.folded += 1;
            self.state[slot] = SlotState::Folded;
            self.next_slot += 1;
            self.drain();
        } else {
            let mut leaf = self.pool.pop().unwrap_or_default();
            leaf.clear();
            leaf.resize(self.dim, 0.0);
            scale_into_par(&mut leaf, w, params);
            self.leaves[slot] = Some(leaf);
            self.state[slot] = SlotState::Leafed;
        }
    }

    /// Records that `slot`'s upload was lost in transit, unblocking any
    /// leafed later arrivals.
    pub fn mark_dropped(&mut self, slot: usize) {
        assert!(slot < self.state.len(), "slot {slot} out of range");
        assert_eq!(
            self.state[slot],
            SlotState::Pending,
            "slot {slot} resolved twice"
        );
        self.resolved += 1;
        self.state[slot] = SlotState::Dropped;
        if slot == self.next_slot {
            self.drain();
        }
    }

    /// Finishes the round and returns the aggregate, or `None` when every
    /// upload dropped (the round leaves the global untouched, matching the
    /// empty-delivery guards in the algorithms). With partial delivery the
    /// accumulator is rescaled once by `1/Σ(folded weights)` —
    /// renormalization over the survivors.
    ///
    /// # Panics
    /// Panics if any slot is still unresolved (neither arrived nor marked
    /// dropped) — the caller must account for every selected client.
    pub fn finish(&mut self) -> Option<Vec<f32>> {
        assert_eq!(
            self.resolved,
            self.state.len(),
            "finish() with unresolved slots"
        );
        debug_assert!(self.leaves.iter().all(Option::is_none));
        if self.folded == 0 {
            return None;
        }
        let mut acc = std::mem::take(&mut self.acc);
        if self.folded < self.state.len() {
            assert!(
                self.folded_weight > 0.0,
                "surviving uploads have zero total weight"
            );
            rfl_tensor::scale_slices(&mut acc, 1.0 / self.folded_weight);
        }
        Some(acc)
    }

    /// Donates a spent `d`-float buffer (typically the previous global
    /// parameters) to be recycled as the next round's accumulator.
    pub fn donate(&mut self, buf: Vec<f32>) {
        if self
            .spare
            .as_ref()
            .is_none_or(|s| s.capacity() < buf.capacity())
        {
            self.spare = Some(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh aggregator for one round: `dim`-float accumulator, one
    /// prenormalized weight per selection slot.
    fn fresh(dim: usize, weights: Vec<f32>) -> StreamingAggregator {
        let mut agg = StreamingAggregator {
            weights,
            ..StreamingAggregator::default()
        };
        agg.rearm(dim);
        agg
    }

    fn params(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..d).map(|j| (i * d + j) as f32 * 0.37 - 1.5).collect())
            .collect()
    }

    #[test]
    fn arrival_order_is_irrelevant() {
        let p = params(6, 9);
        let w = vec![0.3, 0.1, 0.15, 0.2, 0.05, 0.2];
        let mut in_order = fresh(9, w.clone());
        for (slot, pi) in p.iter().enumerate() {
            in_order.push(slot, pi);
        }
        let want = in_order.finish().unwrap();
        for perm in [[5, 0, 3, 1, 4, 2], [2, 1, 0, 5, 4, 3], [0, 5, 1, 4, 2, 3]] {
            let mut agg = fresh(9, w.clone());
            for &slot in &perm {
                agg.push(slot, &p[slot]);
            }
            assert_eq!(agg.finish().unwrap(), want, "perm {perm:?}");
        }
    }

    #[test]
    fn drops_renormalize_over_survivors() {
        let p = params(4, 5);
        let w = vec![0.4, 0.1, 0.3, 0.2];
        let mut agg = fresh(5, w.clone());
        agg.push(0, &p[0]);
        agg.mark_dropped(1);
        agg.push(2, &p[2]);
        agg.mark_dropped(3);
        let got = agg.finish().unwrap();
        // Oracle: fold survivors in slot order, then one rescale.
        let mut want = vec![0.0f32; 5];
        rfl_tensor::axpy_slices(&mut want, w[0], &p[0]);
        rfl_tensor::axpy_slices(&mut want, w[2], &p[2]);
        rfl_tensor::scale_slices(&mut want, 1.0 / (w[0] + w[2]));
        assert_eq!(got, want);
    }

    #[test]
    fn late_drop_unblocks_leafed_arrivals() {
        let p = params(3, 4);
        let w = vec![0.5, 0.25, 0.25];
        let mut agg = fresh(4, w.clone());
        agg.push(2, &p[2]); // leafed: slots 0 and 1 unresolved
        agg.push(0, &p[0]); // folds 0; 2 still blocked behind 1
        assert_eq!(agg.folded, 1);
        agg.mark_dropped(1); // unblocks 2
        assert_eq!(agg.folded, 2);
        let got = agg.finish().unwrap();
        let mut want = vec![0.0f32; 4];
        rfl_tensor::axpy_slices(&mut want, w[0], &p[0]);
        rfl_tensor::axpy_slices(&mut want, w[2], &p[2]);
        rfl_tensor::scale_slices(&mut want, 1.0 / (w[0] + w[2]));
        assert_eq!(got, want);
    }

    #[test]
    fn all_dropped_returns_none() {
        let mut agg = fresh(3, vec![0.5, 0.5]);
        agg.mark_dropped(0);
        agg.mark_dropped(1);
        assert!(agg.finish().is_none());
    }

    #[test]
    fn single_survivor_recovers_its_params_up_to_rescale() {
        let p = params(3, 6);
        let w = vec![0.25, 0.5, 0.25];
        let mut agg = fresh(6, w.clone());
        agg.mark_dropped(0);
        agg.push(1, &p[1]);
        agg.mark_dropped(2);
        let got = agg.finish().unwrap();
        for (g, x) in got.iter().zip(&p[1]) {
            assert!((g - x).abs() <= x.abs() * 1e-6 + 1e-6, "{g} vs {x}");
        }
    }

    #[test]
    fn leaf_pool_recycles_across_rounds() {
        let all_w = vec![0.25f32; 4];
        let sel = vec![0usize, 1, 2, 3];
        let p = params(4, 16);
        let mut agg = StreamingAggregator::default();
        let mut prev = None;
        for _ in 0..3 {
            agg.reset_for_selection(16, &all_w, &sel);
            // Fully reversed arrival: every slot but the last goes through
            // a leaf buffer, exercising pool reuse on later rounds.
            for slot in (0..4).rev() {
                agg.push(slot, &p[slot]);
            }
            let got = agg.finish().unwrap();
            if let Some(prev) = &prev {
                assert_eq!(&got, prev);
            }
            prev = Some(got);
        }
    }

    #[test]
    #[should_panic(expected = "resolved twice")]
    fn double_push_panics() {
        let p = params(2, 2);
        let mut agg = fresh(2, vec![0.5, 0.5]);
        agg.push(0, &p[0]);
        agg.push(0, &p[0]);
    }

    #[test]
    #[should_panic(expected = "unresolved slots")]
    fn finish_with_pending_slot_panics() {
        let mut agg = fresh(2, vec![0.5, 0.5]);
        agg.push(0, &[1.0, 2.0]);
        let _ = agg.finish();
    }
}
