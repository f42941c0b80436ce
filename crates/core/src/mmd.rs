//! Empirical maximum mean discrepancy (MMD) between client feature
//! distributions — the distribution regularizer of Sec. III-B.
//!
//! Following the paper's proof-of-concept instantiation, `φ` is the network's
//! feature extractor (everything up to the last FC layer) and the kernel is
//! linear, so the squared MMD between clients `i` and `j` reduces to
//! `‖δ_i − δ_j‖²` with `δ_k = (1/n_k) Σ φ(x_{k,·})` (Eq. 2).

use rfl_tensor::{add_assign_slices, dot_slices, scale_slices, sq_dist_slices, sum_slices, Tensor};

/// Squared MMD (linear kernel) between two mean embeddings.
pub fn mmd_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "embedding dims differ");
    sq_dist_slices(a, b)
}

/// The paper's regularizer value for client `k` (Eq. 5):
/// `r_k = (1/(N−1)) Σ_{j≠k} ‖δ_k − δ_j‖²`.
///
/// This is the direct pairwise form — `O(N·d)` per client, `O(N²·d)` when
/// evaluated for every client. It is kept as the readable reference (and
/// test oracle) for [`MmdStats`], which computes all `N` values in `O(N·d)`
/// total.
pub fn regularizer_value(k: usize, deltas: &[Vec<f32>]) -> f32 {
    let n = deltas.len();
    assert!(n >= 2, "need at least two clients");
    assert!(k < n);
    let mut sum = 0.0f32;
    for (j, d) in deltas.iter().enumerate() {
        if j != k {
            sum += mmd_sq(&deltas[k], d);
        }
    }
    sum / (n - 1) as f32
}

/// Precomputed per-client norms and dot products with the embedding total,
/// turning the all-clients regularizer from `O(N²·d)` into `O(N·d)` via
/// `Σ_{j≠k} ‖δ_k − δ_j‖² = (N−1)‖δ_k‖² + Σ_{j≠k}‖δ_j‖² − 2·δ_k·Σ_{j≠k}δ_j`.
pub struct MmdStats<'a> {
    deltas: &'a [Vec<f32>],
    /// `‖δ_j‖²` per client.
    norms: Vec<f32>,
    /// `Σ_j ‖δ_j‖²`.
    sum_norms: f32,
    /// `δ_k · T` per client, `T = Σ_j δ_j` (component-wise).
    dots: Vec<f32>,
}

impl<'a> MmdStats<'a> {
    /// `O(N·d)` precomputation over the full delta table.
    pub fn new(deltas: &'a [Vec<f32>]) -> Self {
        let n = deltas.len();
        assert!(n >= 2, "need at least two clients");
        let d = deltas[0].len();
        let mut total = vec![0.0f32; d];
        for dj in deltas {
            assert_eq!(dj.len(), d, "embedding dims differ");
            add_assign_slices(&mut total, dj);
        }
        let norms: Vec<f32> = deltas.iter().map(|dj| dot_slices(dj, dj)).collect();
        let sum_norms = sum_slices(&norms);
        let dots = deltas.iter().map(|dj| dot_slices(dj, &total)).collect();
        MmdStats {
            deltas,
            norms,
            sum_norms,
            dots,
        }
    }

    /// `r_k` in `O(1)` after precomputation. Algebraically identical to
    /// [`regularizer_value`]; clamped at zero since the expanded form can
    /// round to a tiny negative where the pairwise sum cannot.
    pub(crate) fn regularizer_value(&self, k: usize) -> f32 {
        let n = self.deltas.len();
        let nk = self.norms[k];
        let sum = (n - 1) as f32 * nk + (self.sum_norms - nk) - 2.0 * (self.dots[k] - nk);
        (sum / (n - 1) as f32).max(0.0)
    }

    /// All `N` regularizer values in `O(N)` after the `O(N·d)` precompute.
    pub fn regularizer_values(&self) -> Vec<f32> {
        (0..self.deltas.len())
            .map(|k| self.regularizer_value(k))
            .collect()
    }
}

/// rFedAvg+'s surrogate `r̃_k = ‖δ_k − δ̄^{−k}‖²` where `δ̄^{−k}` is the mean
/// of the other clients' embeddings. A lower bound of [`regularizer_value`]
/// (Jensen), with the same gradient w.r.t. `δ_k`.
pub fn surrogate_value(delta_k: &[f32], mean_others: &[f32]) -> f32 {
    mmd_sq(delta_k, mean_others)
}

/// Mean of the other clients' embeddings `δ̄^{−k} = (1/(N−1)) Σ_{j≠k} δ_j`,
/// by direct summation.
pub fn mean_excluding(k: usize, deltas: &[Vec<f32>]) -> Vec<f32> {
    let n = deltas.len();
    assert!(n >= 2, "need at least two clients");
    assert!(k < n);
    let d = deltas[0].len();
    let mut out = vec![0.0f32; d];
    for (j, dj) in deltas.iter().enumerate() {
        if j == k {
            continue;
        }
        assert_eq!(dj.len(), d, "embedding dims differ");
        add_assign_slices(&mut out, dj);
    }
    scale_slices(&mut out, 1.0 / (n - 1) as f32);
    out
}

/// Gradient of `λ·‖μ_B − δ_target‖²` w.r.t. each row of the batch feature
/// matrix, where `μ_B` is the batch mean: every row receives
/// `2λ(μ_B − δ_target)/B`. This is the `dfeatures` tensor injected into the
/// model's backward pass during regularized local SGD.
pub fn feature_gradient(batch_features: &Tensor, target: &[f32], lambda: f32) -> Tensor {
    let mut mu = Tensor::scratch();
    let mut out = Tensor::scratch();
    feature_gradient_into(batch_features, target, lambda, &mut mu, &mut out);
    out
}

/// [`feature_gradient`] into caller-provided buffers: `mu` is scratch for
/// the batch mean, `out` receives the `[B, d]` gradient. Bit-identical to
/// the allocating form and allocation-free once the buffers are warm.
pub fn feature_gradient_into(
    batch_features: &Tensor,
    target: &[f32],
    lambda: f32,
    mu: &mut Tensor,
    out: &mut Tensor,
) {
    assert_eq!(batch_features.ndim(), 2);
    let (b, d) = (batch_features.dims()[0], batch_features.dims()[1]);
    assert_eq!(target.len(), d, "target dim mismatch");
    batch_features.mean_axis0_into(mu);
    let scale = 2.0 * lambda / b as f32;
    out.resize(&[b, d]);
    let (first, rest) = out.data_mut().split_at_mut(d);
    for ((o, &m), &t) in first.iter_mut().zip(mu.data()).zip(target) {
        *o = scale * (m - t);
    }
    for r in rest.chunks_exact_mut(d) {
        r.copy_from_slice(first);
    }
}

/// The regularizer loss `λ·‖μ_B − δ_target‖²` for monitoring, with a
/// caller-provided scratch `mu` for the batch mean.
pub(crate) fn regularizer_loss_into(
    batch_features: &Tensor,
    target: &[f32],
    lambda: f32,
    mu: &mut Tensor,
) -> f32 {
    assert_eq!(batch_features.ndim(), 2, "expected a feature matrix");
    batch_features.mean_axis0_into(mu);
    assert_eq!(mu.numel(), target.len(), "embedding dims differ");
    lambda * sq_dist_slices(mu.data(), target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmd_metric_properties() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        // identity
        assert_eq!(mmd_sq(&a, &a), 0.0);
        // symmetry
        assert_eq!(mmd_sq(&a, &b), mmd_sq(&b, &a));
        // positivity
        assert!(mmd_sq(&a, &b) > 0.0);
        assert_eq!(mmd_sq(&a, &b), 8.0);
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
            let surrogate = surrogate_value(&deltas[k], &mean);
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
        let stats = MmdStats::new(&deltas);
        for k in 0..deltas.len() {
            let fast = stats.regularizer_value(k);
            let oracle = regularizer_value(k, &deltas);
            assert!(
                (fast - oracle).abs() <= 1e-4 * oracle.abs().max(1.0),
                "k={k}: {fast} vs {oracle}"
            );
        }
        assert_eq!(stats.regularizer_values().len(), deltas.len());
    }

    #[test]
    fn stats_near_zero_on_identical_embeddings() {
        // Identical embeddings: the pairwise sum is exactly zero, while the
        // expanded form only cancels up to rounding. The clamp guarantees the
        // residual is never negative; it must also stay negligibly small.
        let deltas = vec![vec![0.3f32, -0.7, 1.9]; 6];
        let stats = MmdStats::new(&deltas);
        for k in 0..6 {
            let r = stats.regularizer_value(k);
            assert!((0.0..1e-4).contains(&r), "k={k}: {r}");
        }
    }

    #[test]
    fn feature_gradient_matches_finite_difference() {
        let f = Tensor::from_vec(vec![0.5, 1.5, 2.5, -0.5], &[2, 2]);
        let target = vec![1.0, -1.0];
        let lambda = 0.3;
        let g = feature_gradient(&f, &target, lambda);
        let eps = 1e-3;
        let loss = |f: &Tensor| regularizer_loss_into(f, &target, lambda, &mut Tensor::scratch());
        for i in 0..4 {
            let mut fp = f.clone();
            fp.data_mut()[i] += eps;
            let fd = (loss(&fp) - loss(&f)) / eps;
            assert!((fd - g.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    fn gradient_is_zero_at_target() {
        let f = Tensor::from_vec(vec![1.0, 2.0, 1.0, 2.0], &[2, 2]);
        let g = feature_gradient(&f, &[1.0, 2.0], 1.0);
        assert!(g.data().iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn gradient_scales_linearly_with_lambda() {
        let f = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let g1 = feature_gradient(&f, &[0.0, 0.0], 1.0);
        let g2 = feature_gradient(&f, &[0.0, 0.0], 2.0);
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }
}
