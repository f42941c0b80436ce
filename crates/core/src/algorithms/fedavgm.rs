//! FedAvgM (Hsu et al., 2019): FedAvg with server-side momentum — an
//! extension baseline beyond the paper's comparison set, often used to
//! stabilize non-IID training.

use crate::trainer::Algorithm;

/// FedAvg with heavy-ball momentum applied to the *server* update:
/// `v ← β·v + Δ̄`, `w ← w + v`, where `Δ̄` is the weighted mean client
/// update.
pub struct FedAvgM {
    beta: f32,
    velocity: Vec<f32>,
}

impl FedAvgM {
    pub fn new(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "β in [0, 1)");
        FedAvgM {
            beta,
            velocity: Vec::new(),
        }
    }
}

impl Algorithm for FedAvgM {
    fn name(&self) -> &'static str {
        "FedAvgM"
    }

    fn server_step(&mut self, global: &[f32], mut average: Vec<f32>) -> Vec<f32> {
        if self.velocity.len() != global.len() {
            self.velocity = vec![0.0; global.len()];
        }
        for ((v, g), a) in self.velocity.iter_mut().zip(global).zip(&mut average) {
            *v = self.beta * *v + (*a - g);
            *a = g + *v;
        }
        average
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FedAvg;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_on_noniid_data() {
        let (mut fed, cfg) = convex_fed(0.0, 70, 8);
        let h = run_rounds(&mut FedAvgM::new(0.7), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn beta_zero_matches_fedavg() {
        let (mut fed_a, cfg) = convex_fed(0.0, 71, 4);
        let (mut fed_b, _) = convex_fed(0.0, 71, 4);
        run_rounds(&mut FedAvg::new(), &mut fed_a, &cfg, 5);
        run_rounds(&mut FedAvgM::new(0.0), &mut fed_b, &cfg, 5);
        // `g + (a − g)` vs `a` differ by float rounding only.
        for (a, b) in fed_a.global().iter().zip(fed_b.global()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (mut fed, cfg) = convex_fed(0.0, 72, 4);
        let mut algo = FedAvgM::new(0.9);
        run_rounds(&mut algo, &mut fed, &cfg, 3);
        assert!(algo.velocity.iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "β in")]
    fn rejects_bad_beta() {
        FedAvgM::new(1.0);
    }
}
