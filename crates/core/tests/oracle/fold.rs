//! The oracle `rfl_core::StreamingAggregator`'s fold tree is pinned against.

/// Weighted average of parameter vectors (`Σ w_i θ_i`), every vector
/// materialized and folded in slot order.
pub fn weighted_average(params: &[Vec<f32>], weights: &[f32]) -> Vec<f32> {
    assert_eq!(params.len(), weights.len());
    assert!(!params.is_empty());
    let mut out = vec![0.0; params[0].len()];
    for (p, &w) in params.iter().zip(weights) {
        assert_eq!(p.len(), out.len());
        rfl_tensor::axpy_slices(&mut out, w, p);
    }
    out
}
