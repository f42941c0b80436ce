//! Empirical maximum mean discrepancy (MMD) between client feature
//! distributions — the distribution regularizer of Sec. III-B.
//!
//! Following the paper's proof-of-concept instantiation, `φ` is the network's
//! feature extractor (everything up to the last FC layer) and the kernel is
//! linear, so the squared MMD between clients `i` and `j` reduces to
//! `‖δ_i − δ_j‖²` with `δ_k = (1/n_k) Σ φ(x_{k,·})` (Eq. 2).

use rfl_tensor::{add_assign_slices, dot_slices, sq_dist_slices, sum_slices, Tensor};

/// Squared MMD (linear kernel) between two mean embeddings. Between a
/// client's `δ_k` and the mean `δ̄^{−k}` of the other clients' embeddings it
/// is rFedAvg+'s surrogate `r̃_k = ‖δ_k − δ̄^{−k}‖²`: a lower bound (Jensen)
/// of the paper's pairwise `r_k = (1/(N−1)) Σ_{j≠k} ‖δ_k − δ_j‖²` (Eq. 5),
/// with the same gradient w.r.t. `δ_k`.
pub fn mmd_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "embedding dims differ");
    sq_dist_slices(a, b)
}

/// Precomputed per-client norms and dot products with the embedding total,
/// turning the all-clients regularizer `r_k` (Eq. 5) from the pairwise
/// `O(N²·d)` sum — kept as the oracle in rfl-core's `tests/oracle/mmd.rs` —
/// into `O(N·d)` via
/// `Σ_{j≠k} ‖δ_k − δ_j‖² = (N−1)‖δ_k‖² + Σ_{j≠k}‖δ_j‖² − 2·δ_k·Σ_{j≠k}δ_j`.
pub struct MmdStats {
    /// `‖δ_j‖²` per client.
    norms: Vec<f32>,
    /// `Σ_j ‖δ_j‖²`.
    sum_norms: f32,
    /// `δ_k · T` per client, `T = Σ_j δ_j` (component-wise).
    dots: Vec<f32>,
}

impl MmdStats {
    /// `O(N·d)` precomputation over the full delta table.
    pub fn new(deltas: &[Vec<f32>]) -> Self {
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
            norms,
            sum_norms,
            dots,
        }
    }

    /// All `N` values of `r_k`, each `O(1)` after the `O(N·d)` precompute.
    /// Algebraically identical to the pairwise sum; clamped at zero since
    /// the expanded form can round to a tiny negative where the pairwise
    /// sum cannot.
    pub fn regularizer_values(&self) -> Vec<f32> {
        let others = (self.norms.len() - 1) as f32;
        let r_k = |(&nk, &dot): (&f32, &f32)| {
            let sum = others * nk + (self.sum_norms - nk) - 2.0 * (dot - nk);
            (sum / others).max(0.0)
        };
        self.norms.iter().zip(&self.dots).map(r_k).collect()
    }
}

/// Gradient of `λ·‖μ_B − δ_target‖²` w.r.t. each row of the batch feature
/// matrix, where `μ_B` is the batch mean: every row receives
/// `2λ(μ_B − δ_target)/B`. This is the `dfeatures` tensor injected into the
/// model's backward pass during regularized local SGD. `mu` is scratch for
/// the batch mean, `out` receives the `[B, d]` gradient; allocation-free
/// once the buffers are warm.
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

    /// The `[B, d]` gradient into fresh buffers.
    fn gradient(f: &Tensor, target: &[f32], lambda: f32) -> Tensor {
        let mut out = Tensor::scratch();
        feature_gradient_into(f, target, lambda, &mut Tensor::scratch(), &mut out);
        out
    }

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
    fn stats_near_zero_on_identical_embeddings() {
        // Identical embeddings: the pairwise sum is exactly zero, while the
        // expanded form only cancels up to rounding. The clamp guarantees the
        // residual is never negative; it must also stay negligibly small.
        let deltas = vec![vec![0.3f32, -0.7, 1.9]; 6];
        for (k, r) in MmdStats::new(&deltas)
            .regularizer_values()
            .iter()
            .enumerate()
        {
            assert!((0.0..1e-4).contains(r), "k={k}: {r}");
        }
    }

    #[test]
    fn feature_gradient_matches_finite_difference() {
        let f = Tensor::from_vec(vec![0.5, 1.5, 2.5, -0.5], &[2, 2]);
        let target = vec![1.0, -1.0];
        let lambda = 0.3;
        let g = gradient(&f, &target, lambda);
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
        let g = gradient(&f, &[1.0, 2.0], 1.0);
        assert!(g.data().iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn gradient_scales_linearly_with_lambda() {
        let f = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let g1 = gradient(&f, &[0.0, 0.0], 1.0);
        let g2 = gradient(&f, &[0.0, 0.0], 2.0);
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }
}
