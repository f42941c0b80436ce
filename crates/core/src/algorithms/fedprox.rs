//! FedProx (Li et al., MLSys 2020): FedAvg with a proximal term
//! `μ/2·‖w − w_global‖²` in every local objective.

use crate::plane::Capability;
use crate::round::Round;
use crate::rules::LocalRule;
use crate::trainer::Algorithm;
use std::sync::Arc;

/// FedProx with proximal coefficient `μ` (the paper uses μ = 1.0 on the
/// image benchmarks and 0.01 on Sent140).
pub struct FedProx {
    mu: f32,
}

impl FedProx {
    pub fn new(mu: f32) -> Self {
        assert!(mu >= 0.0, "μ must be non-negative");
        FedProx { mu }
    }
}

impl Algorithm for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
    }

    fn needs(&self) -> &'static [Capability] {
        &[Capability::ServerSideRule]
    }

    /// Every participant is anchored to the global model it just received.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        let anchor = Arc::new(r.fed.global().to_vec());
        let mu = self.mu;
        vec![LocalRule::Prox { mu, anchor }; r.active.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FedAvg;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_on_iid_data() {
        let (mut fed, cfg) = convex_fed(1.0, 10, 8);
        let h = run_rounds(&mut FedProx::new(0.1), &mut fed, &cfg, 15);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn mu_zero_matches_fedavg_exactly() {
        let (mut fed_a, cfg) = convex_fed(0.0, 11, 8);
        let (mut fed_b, _) = convex_fed(0.0, 11, 8);
        let ha = run_rounds(&mut FedAvg::new(), &mut fed_a, &cfg, 5);
        let hb = run_rounds(&mut FedProx::new(0.0), &mut fed_b, &cfg, 5);
        assert_eq!(ha.final_accuracy(), hb.final_accuracy());
        assert_eq!(fed_a.global(), fed_b.global());
    }

    #[test]
    fn large_mu_limits_drift_from_anchor() {
        // μ is bounded by the stability condition lr·μ < 1 (lr = 0.1 here);
        // μ = 8 should strongly limit how far clients move per round
        // compared with FedAvg.
        let drift_of = |algo: &mut dyn crate::trainer::Algorithm, seed| {
            let (mut fed, cfg) = convex_fed(0.0, seed, 8);
            let w0 = fed.global().to_vec();
            run_rounds(algo, &mut fed, &cfg, 3);
            fed.global()
                .iter()
                .zip(&w0)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
        };
        let free = drift_of(&mut FedAvg::new(), 12);
        let prox = drift_of(&mut FedProx::new(8.0), 12);
        assert!(prox < free * 0.5, "prox {prox} vs free {free}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_mu() {
        FedProx::new(-1.0);
    }
}
