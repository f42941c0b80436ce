//! Local-update rules: how each algorithm modifies vanilla local SGD.
//!
//! A [`LocalRule`] is pure data (no closures) so that client training can be
//! dispatched across worker threads; the client interprets the rule inside
//! its step loop.

use std::sync::Arc;

/// The per-round local-update modification for one client.
#[derive(Clone, Debug)]
pub enum LocalRule {
    /// Vanilla local SGD (FedAvg, q-FedAvg local phase).
    Plain,
    /// FedProx: add `μ(w − w_anchor)` to the gradient (the gradient of the
    /// proximal term `μ/2·‖w − w_global‖²`).
    Prox { mu: f32, anchor: Arc<Vec<f32>> },
    /// SCAFFOLD: add the control-variate correction `c − c_k` to the
    /// gradient, `c` as `ControlDown` delivered it and `c_k` the client's.
    Scaffold { c: Arc<Vec<f32>> },
    /// rFedAvg / rFedAvg+: inject the distribution-regularizer gradient
    /// `2λ(μ_B − δ_target)/B` at the feature layer (Eq. 5 with the delayed
    /// target `δ_target`).
    Mmd { lambda: f32, target: Arc<Vec<f32>> },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_are_cheaply_cloneable() {
        let big = Arc::new(vec![0.0f32; 1_000]);
        let r = LocalRule::Mmd {
            lambda: 0.5,
            target: big.clone(),
        };
        let r2 = r.clone();
        // The Arc is shared, not deep-copied.
        if let (LocalRule::Mmd { target: a, .. }, LocalRule::Mmd { target: b, .. }) = (&r, &r2) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            unreachable!();
        }
        assert_eq!(Arc::strong_count(&big), 3);
    }
}
