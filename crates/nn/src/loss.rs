//! Loss functions returning `(mean loss, gradient w.r.t. logits)`.

use rfl_tensor::Tensor;

/// Softmax cross-entropy over `[N, K]` logits with integer labels.
///
/// Returns the batch-mean loss and `dL/dlogits` (already divided by `N`).
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let mut log_p = Tensor::scratch();
    let mut dlogits = Tensor::scratch();
    let loss = cross_entropy_into(logits, labels, &mut log_p, &mut dlogits);
    (loss, dlogits)
}

/// [`cross_entropy`] into caller-provided buffers (`log_p` scratch and the
/// gradient destination), bit-identical and allocation-free when warm.
pub fn cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    log_p: &mut Tensor,
    dlogits: &mut Tensor,
) -> f32 {
    assert_eq!(logits.ndim(), 2, "cross_entropy expects [N, K] logits");
    let (n, k) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), n, "label count mismatch");
    logits.log_softmax_rows_into(log_p);
    let mut loss = 0.0f32;
    // Softmax probabilities via the dispatched batch-exp kernel, less the
    // one-hot labels, then one scale of the whole matrix: per element
    // `(p − [j = y]) · (1/N)`.
    dlogits.assign(log_p);
    rfl_tensor::exp_slices(dlogits.data_mut(), 1.0, 0.0);
    let (lp, d) = (log_p.data(), dlogits.data_mut());
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range for {k} classes");
        loss -= lp[r * k + y];
        d[r * k + y] -= 1.0;
    }
    let inv_n = 1.0 / n as f32;
    rfl_tensor::scale_slices(d, inv_n);
    loss * inv_n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_gives_near_zero_loss() {
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0, 100.0], &[2, 2]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-4);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot_over_n() {
        let logits = Tensor::zeros(&[1, 2]);
        let (_, d) = cross_entropy(&logits, &[1]);
        assert!((d.at(&[0, 0]) - 0.5).abs() < 1e-6);
        assert!((d.at(&[0, 1]) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0], &[2, 3]);
        let (_, d) = cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.2, -0.4, 0.9, 0.1], &[2, 2]);
        let labels = [1usize, 0];
        let (base, d) = cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let (plus, _) = cross_entropy(&lp, &labels);
            let fd = (plus - base) / eps;
            assert!((fd - d.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        cross_entropy(&Tensor::zeros(&[1, 2]), &[2]);
    }
}
