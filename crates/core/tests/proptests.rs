//! Property-based tests of the FL-core primitives, and the tests that pin
//! the fast forms the library runs (`MmdStats`, `StreamingAggregator`)
//! against the direct, materializing forms in `oracle/`, which no
//! production path calls.

mod oracle {
    pub mod fold;
    pub mod mmd;
}

use oracle::fold::weighted_average;
use oracle::mmd::{mean_excluding, regularizer_value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rfl_core::dp::{clip_l2, privatize_delta, DpConfig};
use rfl_core::mmd::{self, MmdStats};
use rfl_core::sampling::{renormalized_weights, sample_clients};
use rfl_core::StreamingAggregator;
use rfl_tensor::Tensor;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

/// `params` (one upload per slot of `sel`) through a fresh
/// [`StreamingAggregator`] over `raw`'s weights, arriving in `order`.
fn fold(
    raw: &[f32],
    sel: &[usize],
    params: &[Vec<f32>],
    order: impl IntoIterator<Item = usize>,
) -> Vec<f32> {
    let mut agg = StreamingAggregator::default();
    agg.reset_for_selection(params[0].len(), raw, sel);
    for slot in order {
        agg.push(slot, &params[slot]);
    }
    agg.finish().unwrap()
}

proptest! {
    /// MMD is a squared metric on embeddings: symmetric, zero iff equal
    /// inputs, and non-negative.
    #[test]
    fn mmd_squared_metric_properties(a in finite_vec(8), b in finite_vec(8)) {
        prop_assert_eq!(mmd::mmd_sq(&a, &a), 0.0);
        prop_assert_eq!(mmd::mmd_sq(&a, &b), mmd::mmd_sq(&b, &a));
        prop_assert!(mmd::mmd_sq(&a, &b) >= 0.0);
    }

    /// √MMD satisfies the triangle inequality (it is the Euclidean norm).
    #[test]
    fn mmd_triangle_inequality(
        a in finite_vec(6), b in finite_vec(6), c in finite_vec(6)
    ) {
        let ab = mmd::mmd_sq(&a, &b).sqrt() as f64;
        let bc = mmd::mmd_sq(&b, &c).sqrt() as f64;
        let ac = mmd::mmd_sq(&a, &c).sqrt() as f64;
        prop_assert!(ac <= ab + bc + 1e-4);
    }

    /// The surrogate r̃_k is always a lower bound of the exact r_k (Jensen).
    #[test]
    fn surrogate_never_exceeds_exact(
        d0 in finite_vec(4), d1 in finite_vec(4), d2 in finite_vec(4), d3 in finite_vec(4)
    ) {
        let deltas = vec![d0, d1, d2, d3];
        for k in 0..4 {
            let exact = regularizer_value(k, &deltas);
            let mean = mean_excluding(k, &deltas);
            let surrogate = mmd::mmd_sq(&deltas[k], &mean);
            prop_assert!(surrogate <= exact + 1e-3, "k={}: {} > {}", k, surrogate, exact);
        }
    }

    /// The feature gradient vanishes exactly when the batch mean hits the
    /// target, and is anti-symmetric around it.
    #[test]
    fn feature_gradient_antisymmetry(mu in finite_vec(5), lambda in 0.001f32..1.0) {
        let b = 3usize;
        let mut rows = Vec::new();
        for _ in 0..b {
            rows.extend_from_slice(&mu);
        }
        let feats = Tensor::from_vec(rows, &[b, 5]);
        // target above vs below the mean by the same offset.
        let above: Vec<f32> = mu.iter().map(|v| v + 1.0).collect();
        let below: Vec<f32> = mu.iter().map(|v| v - 1.0).collect();
        let gradient = |target: &[f32]| {
            let mut out = Tensor::scratch();
            mmd::feature_gradient_into(&feats, target, lambda, &mut Tensor::scratch(), &mut out);
            out
        };
        let g_above = gradient(&above);
        let g_below = gradient(&below);
        for (x, y) in g_above.data().iter().zip(g_below.data()) {
            prop_assert!((x + y).abs() < 1e-4);
        }
        let g_center = gradient(&mu);
        prop_assert!(g_center.data().iter().all(|v| v.abs() < 1e-5));
    }

    /// Clipping puts every vector inside the ball and never changes vectors
    /// already inside it.
    #[test]
    fn clip_projects_onto_ball(v in finite_vec(6), clip in 0.1f32..20.0) {
        let mut w = v.clone();
        clip_l2(&mut w, clip);
        let norm: f32 = w.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm <= clip * (1.0 + 1e-5));
        let orig: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if orig <= clip {
            prop_assert_eq!(w, v);
        }
    }

    /// The Gaussian mechanism is deterministic per seed and bounded in
    /// expectation by clip + noise.
    #[test]
    fn dp_deterministic_per_seed(v in finite_vec(8), sigma in 0.0f32..5.0) {
        let cfg = DpConfig::new(sigma, 1.0, 10);
        let mut a = v.clone();
        let mut b = v.clone();
        privatize_delta(&mut a, cfg, &mut StdRng::seed_from_u64(3));
        privatize_delta(&mut b, cfg, &mut StdRng::seed_from_u64(3));
        prop_assert_eq!(a, b);
    }

    /// Sampling always returns sorted, unique, in-range indices of the
    /// expected count.
    #[test]
    fn sampling_invariants(n in 2usize..50, sr in 0.01f32..1.0, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_clients(n, sr, &mut rng);
        let expected = (((n as f32) * sr).ceil() as usize).clamp(1, n);
        prop_assert_eq!(s.len(), expected);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(s.iter().all(|&i| i < n));
    }

    /// Renormalized weights always form a distribution over the selection.
    #[test]
    fn renormalized_weights_are_distribution(
        w in prop::collection::vec(0.01f32..1.0, 6)
    ) {
        let r = renormalized_weights(&w, &[0, 2, 5]);
        prop_assert!((r.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        prop_assert!(r.iter().all(|&v| v > 0.0));
    }

    /// A weighted average of parameter vectors stays inside their
    /// coordinate-wise convex hull.
    #[test]
    fn weighted_average_in_convex_hull(
        a in finite_vec(5), b in finite_vec(5), t in 0.0f32..1.0
    ) {
        let avg = weighted_average(
            &[a.clone(), b.clone()],
            &[t, 1.0 - t],
        );
        for i in 0..5 {
            let lo = a[i].min(b[i]) - 1e-4;
            let hi = a[i].max(b[i]) + 1e-4;
            prop_assert!(avg[i] >= lo && avg[i] <= hi);
        }
    }

    /// The streaming fold-on-arrival aggregator is **bitwise** identical to
    /// the materializing oracle `weighted_average(params,
    /// renormalized_weights(..))` for any parameter dimension, any sampled
    /// subset of the registry (including zero-weight members, as long as the
    /// selection's total weight is positive), and any arrival permutation —
    /// out-of-order arrivals must not change the fold sequence.
    #[test]
    fn streaming_aggregator_matches_oracle_bitwise(
        dim in 1usize..24,
        flat in finite_vec(8 * 24),
        raw_w in prop::collection::vec(0.0f32..1.0, 8),
        sr in 0.1f32..1.0,
        seed in 0u64..1000,
    ) {
        let sel = sample_clients(8, sr, &mut StdRng::seed_from_u64(seed));
        let n = sel.len();
        prop_assume!(sel.iter().map(|&k| raw_w[k]).sum::<f32>() > 0.0);
        let params: Vec<Vec<f32>> =
            (0..n).map(|i| flat[i * dim..(i + 1) * dim].to_vec()).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xA11));
        let got = fold(&raw_w, &sel, &params, order);
        let want =
            weighted_average(&params, &renormalized_weights(&raw_w, &sel));
        prop_assert_eq!(got, want);
    }

    /// The three aggregation formulations are one: the tree fold under an
    /// arbitrary arrival permutation, the sequential fold (slot order —
    /// the historical `StreamingAggregator` walk, now the tree's in-order
    /// fast path), and the materializing `weighted_average` oracle are
    /// pairwise **bitwise** equal, including zero-weight members.
    #[test]
    fn tree_fold_equals_sequential_fold_equals_oracle(
        dim in 1usize..48,
        flat in finite_vec(8 * 48),
        raw_w in prop::collection::vec(0.0f32..1.0, 8),
        sr in 0.1f32..1.0,
        seed in 0u64..1000,
    ) {
        let sel = sample_clients(8, sr, &mut StdRng::seed_from_u64(seed));
        let n = sel.len();
        prop_assume!(sel.iter().map(|&k| raw_w[k]).sum::<f32>() > 0.0);
        let params: Vec<Vec<f32>> =
            (0..n).map(|i| flat[i * dim..(i + 1) * dim].to_vec()).collect();

        // Sequential: arrivals in slot order (every push hits the in-order
        // spine path).
        let sequential = fold(&raw_w, &sel, &params, 0..n);

        // Tree: the same uploads in a random arrival permutation (late
        // slots land as scaled leaves, folded on the spine in slot order).
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x7EE));
        let treed = fold(&raw_w, &sel, &params, order);

        let oracle =
            weighted_average(&params, &renormalized_weights(&raw_w, &sel));
        prop_assert_eq!(&treed, &sequential);
        prop_assert_eq!(&sequential, &oracle);
    }

    /// Drops down to a **single survivor**: whichever slot survives and in
    /// whatever order the other slots' drop notices resolve around its
    /// arrival, the result is the survivor's vector scaled by
    /// `w·(1/w)` — exactly what the sequential walk produces.
    #[test]
    fn single_survivor_is_arrival_order_free(
        n in 2usize..8,
        dim in 1usize..32,
        flat in finite_vec(8 * 32),
        raw_w in prop::collection::vec(0.01f32..1.0, 8),
        survivor_pick in 0usize..8,
        seed in 0u64..1000,
    ) {
        let survivor = survivor_pick % n;
        let params: Vec<Vec<f32>> =
            (0..n).map(|i| flat[i * dim..(i + 1) * dim].to_vec()).collect();
        let sel: Vec<usize> = (0..n).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut agg = StreamingAggregator::default();
        agg.reset_for_selection(dim, &raw_w[..n], &sel);
        for &slot in &order {
            if slot == survivor {
                agg.push(slot, &params[slot]);
            } else {
                agg.mark_dropped(slot);
            }
        }
        let got = agg.finish().unwrap();
        let norm = renormalized_weights(&raw_w[..n], &sel);
        let mut want = vec![0.0f32; dim];
        rfl_tensor::axpy_slices(&mut want, norm[survivor], &params[survivor]);
        rfl_tensor::scale_slices(&mut want, 1.0 / norm[survivor]);
        prop_assert_eq!(got, want);
    }

    /// Under drops — any loss pattern down to a single survivor — the
    /// streaming result equals folding the survivors in slot order and
    /// rescaling once by the surviving weight mass, regardless of the order
    /// in which arrivals and drop notices resolve.
    #[test]
    fn streaming_aggregator_drop_renormalization_is_order_free(
        n in 2usize..8,
        dim in 1usize..24,
        flat in finite_vec(8 * 24),
        raw_w in prop::collection::vec(0.01f32..1.0, 8),
        drop_bits in 0usize..255,
        seed in 0u64..1000,
    ) {
        let dropped: Vec<bool> = (0..n).map(|i| drop_bits >> i & 1 == 1).collect();
        prop_assume!(dropped.iter().any(|&d| !d));
        let params: Vec<Vec<f32>> =
            (0..n).map(|i| flat[i * dim..(i + 1) * dim].to_vec()).collect();
        let sel: Vec<usize> = (0..n).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut agg = StreamingAggregator::default();
        agg.reset_for_selection(dim, &raw_w[..n], &sel);
        for &slot in &order {
            if dropped[slot] {
                agg.mark_dropped(slot);
            } else {
                agg.push(slot, &params[slot]);
            }
        }
        let got = agg.finish().unwrap();
        let norm = renormalized_weights(&raw_w[..n], &sel);
        let mut want = vec![0.0f32; dim];
        let mut survivor_weight = 0.0f32;
        for slot in 0..n {
            if !dropped[slot] {
                rfl_tensor::axpy_slices(&mut want, norm[slot], &params[slot]);
                survivor_weight += norm[slot];
            }
        }
        if dropped.iter().any(|&d| d) {
            rfl_tensor::scale_slices(&mut want, 1.0 / survivor_weight);
        }
        prop_assert_eq!(got, want);
    }
}

#[test]
fn identical_distributions_have_zero_regularizer() {
    let deltas = vec![vec![1.0, 1.0]; 5];
    for k in 0..5 {
        assert_eq!(regularizer_value(k, &deltas), 0.0);
    }
}

#[test]
fn surrogate_is_lower_bound_of_regularizer() {
    // Jensen: ‖δ_k − mean_j δ_j‖² ≤ (1/(N−1)) Σ_j ‖δ_k − δ_j‖².
    let deltas = vec![
        vec![0.0, 0.0],
        vec![1.0, 2.0],
        vec![-1.0, 3.0],
        vec![0.5, -0.5],
    ];
    for k in 0..4 {
        let mean = mean_excluding(k, &deltas);
        let surrogate = mmd::mmd_sq(&deltas[k], &mean);
        let exact = regularizer_value(k, &deltas);
        assert!(surrogate <= exact + 1e-6, "k={k}: {surrogate} > {exact}");
    }
}

#[test]
fn mean_excluding_excludes_self() {
    let deltas = vec![vec![100.0], vec![1.0], vec![3.0]];
    assert_eq!(mean_excluding(0, &deltas), vec![2.0]);
    assert_eq!(mean_excluding(1, &deltas), vec![51.5]);
}

#[test]
fn stats_match_pairwise_oracle() {
    let deltas: Vec<Vec<f32>> = (0..7)
        .map(|k| {
            (0..5)
                .map(|i| ((k * 13 + i * 7) as f32).sin() * 2.0)
                .collect()
        })
        .collect();
    let stats = MmdStats::new(&deltas).regularizer_values();
    for (k, &fast) in stats.iter().enumerate() {
        let oracle = regularizer_value(k, &deltas);
        assert!(
            (fast - oracle).abs() <= 1e-4 * oracle.abs().max(1.0),
            "k={k}: {fast} vs {oracle}"
        );
    }
    assert_eq!(stats.len(), deltas.len());
}

/// `n` parameter vectors of `d` distinct values.
fn params(n: usize, d: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| (0..d).map(|j| (i * d + j) as f32 * 0.37 - 1.5).collect())
        .collect()
}

#[test]
fn weighted_average_of_identical_is_identity() {
    let p = vec![vec![1.0, 2.0], vec![1.0, 2.0]];
    assert_eq!(weighted_average(&p, &[0.3, 0.7]), vec![1.0, 2.0]);
}

#[test]
fn weighted_average_weights_matter() {
    let p = vec![vec![0.0], vec![10.0]];
    assert_eq!(weighted_average(&p, &[0.9, 0.1]), vec![1.0]);
}

#[test]
fn in_order_fold_matches_weighted_average_bitwise() {
    let p = params(5, 17);
    let raw = [0.2, 0.1, 0.4, 0.05, 0.25];
    let sel = [0, 1, 2, 3, 4];
    let got = fold(&raw, &sel, &p, 0..5);
    assert_eq!(got, weighted_average(&p, &renormalized_weights(&raw, &sel)));
}

#[test]
fn pool_parallel_dims_match_the_oracle_in_any_arrival_order() {
    // From 2^16 floats on (the aggregator's PAR_MIN_DIM) the leaf/spine ops
    // chunk across the worker pool; the result must still be bit-identical
    // to the sequential oracle, in order and fully reversed.
    let d = (1 << 16) + 3;
    let p = params(3, d);
    let (raw, sel) = ([0.5, 0.2, 0.3], [0, 1, 2]);
    let want = weighted_average(&p, &renormalized_weights(&raw, &sel));
    for order in [[0usize, 1, 2], [2, 1, 0]] {
        assert_eq!(fold(&raw, &sel, &p, order), want, "order {order:?}");
    }
}

#[test]
fn reset_reuses_buffers_and_matches_fresh() {
    let all_w = vec![0.1f32, 0.2, 0.3, 0.4];
    let sel = vec![0usize, 2, 3];
    let p = params(3, 8);
    let run = |agg: &mut StreamingAggregator| {
        agg.reset_for_selection(8, &all_w, &sel);
        for (slot, pi) in p.iter().enumerate() {
            agg.push(slot, pi);
        }
        agg.finish().unwrap()
    };
    let mut agg = StreamingAggregator::default();
    let first = run(&mut agg);
    agg.donate(first.clone());
    let second = run(&mut agg);
    assert_eq!(first, second);
    assert_eq!(
        first,
        weighted_average(&p, &renormalized_weights(&all_w, &sel))
    );
}
