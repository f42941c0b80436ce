//! The pairwise forms of Sec. III-B: the oracles of `rfl_core::mmd::MmdStats`
//! (Eq. 5 for all `N` clients in `O(N·d)`) and of rFedAvg+'s targets.

use rfl_core::mmd::mmd_sq;
use rfl_tensor::{add_assign_slices, scale_slices};

/// The paper's regularizer value for client `k` (Eq. 5):
/// `r_k = (1/(N−1)) Σ_{j≠k} ‖δ_k − δ_j‖²`, by the direct pairwise sum —
/// `O(N·d)` per client, `O(N²·d)` for every client.
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
