//! q-FedAvg (Li et al., ICLR 2020): fair resource allocation in federated
//! learning via the q-fair objective `Σ p_k F_k^{q+1}/(q+1)`.

use crate::plane::Capability;
use crate::round::Round;
use crate::rules::LocalRule;
use crate::trainer::Algorithm;
use rfl_trace::SpanKind;

/// q-FedAvg with fairness parameter `q` (q = 0 recovers FedAvg-style
/// updates; the paper uses q = 1.0 on images, 1e-4 on Sent140).
///
/// Per the reference implementation, the Lipschitz estimate is `L = 1/η_l`
/// and the aggregation is
/// `w⁺ = w − Σ_k Δ_k / Σ_k h_k` with
/// `Δ_k = F_k^q · L·(w − w_k)` and `h_k = q·F_k^{q−1}·‖L(w − w_k)‖² + L·F_k^q`.
pub struct QFedAvg {
    q: f32,
    /// `F_k`: the global model's loss on each participant's data.
    losses: Vec<f32>,
    /// `η_l` of each participant, read in the same wake as its `F_k`.
    lrs: Vec<f32>,
}

impl QFedAvg {
    pub fn new(q: f32) -> Self {
        assert!(q >= 0.0, "q must be non-negative");
        QFedAvg {
            q,
            losses: Vec::new(),
            lrs: Vec::new(),
        }
    }
}

impl Algorithm for QFedAvg {
    fn name(&self) -> &'static str {
        "q-FedAvg"
    }

    fn needs(&self) -> &'static [Capability] {
        &[Capability::ClientStateRead]
    }

    /// Reads `F_k` and `η_l` client-side, right after the download.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        let evals = r.fed.local_mut().eval_local(&r.active);
        (self.losses, self.lrs) = evals.into_iter().unzip();
        vec![LocalRule::Plain; r.active.len()]
    }

    /// The q-fair sums `Σ Δ_k` and `Σ h_k` are per-upload accumulations, so
    /// each upload folds into them as it arrives and is dropped — O(d)
    /// server state. The global snapshot is captured before the walk
    /// because the visitor cannot borrow the federation.
    fn fold(&mut self, r: &mut Round<'_>) -> Vec<usize> {
        let fed = &mut *r.fed;
        let global = fed.global().to_vec();
        let mut delta_sum = vec![0.0f32; global.len()];
        let mut h_sum = 0.0f32;
        let (q, losses, lrs) = (self.q, &self.losses, &self.lrs);
        let delivered = fed.fold_uploads(&r.active, false, |slot, _, params| {
            let lipschitz = 1.0 / lrs[slot];
            let f_k = losses[slot].max(1e-10);
            let fq = f_k.powf(q);
            let mut grad_sq = 0.0f32;
            for (j, d) in delta_sum.iter_mut().enumerate() {
                let g = lipschitz * (global[j] - params[j]);
                *d += fq * g;
                grad_sq += g * g;
            }
            h_sum += q * f_k.powf(q - 1.0) * grad_sq + lipschitz * fq;
        });

        let mut span = fed.tracer().span(SpanKind::Aggregate);
        span.counter("clients", delivered.len() as u64);
        if !delivered.is_empty() {
            assert!(h_sum > 0.0, "degenerate q-FedAvg denominator");
            let mut new_global = global;
            for (g, d) in new_global.iter_mut().zip(&delta_sum) {
                *g -= d / h_sum;
            }
            fed.set_global(new_global);
        }
        delivered
    }

    fn uniform_losses(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_with_small_q() {
        let (mut fed, cfg) = convex_fed(1.0, 30, 8);
        let h = run_rounds(&mut QFedAvg::new(1e-4), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn learns_with_q_one_on_noniid() {
        let (mut fed, cfg) = convex_fed(0.0, 31, 8);
        let h = run_rounds(&mut QFedAvg::new(1.0), &mut fed, &cfg, 25);
        assert!(h.final_accuracy().unwrap() > 0.4);
    }

    #[test]
    fn update_moves_global_toward_clients() {
        let (mut fed, cfg) = convex_fed(0.0, 32, 4);
        let w0 = fed.global().to_vec();
        run_rounds(&mut QFedAvg::new(1.0), &mut fed, &cfg, 1);
        assert_ne!(fed.global(), w0.as_slice());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_q() {
        QFedAvg::new(-0.5);
    }
}
