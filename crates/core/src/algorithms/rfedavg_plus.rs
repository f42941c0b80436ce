//! rFedAvg+ — Algorithm 2 of the paper.
//!
//! Two improvements over rFedAvg:
//!
//! 1. **Double synchronization**: after aggregation the server re-broadcasts
//!    the *global* model and every participant computes its δ with that
//!    consistent model (removing the local-model inconsistency that inflates
//!    the convergence constant `C₃` to `C₂` in Theorems 1–2).
//! 2. **Averaged broadcast**: the server sends each client only the
//!    leave-one-out average `δ̄^{−k}` (`d` scalars) instead of the whole
//!    table (`N·d`), cutting δ communication from `O(dN²)` to `O(dN)`.
//!    The surrogate `r̃_k = ‖δ_k − δ̄^{−k}‖²` has the same gradient in
//!    `δ_k` as the exact pairwise regularizer.

use super::mmd_rules;
use crate::comm::{CommStats, MsgKind};
use crate::delta::DeltaTable;
use crate::dp::DpConfig;
use crate::plane::Capability;
use crate::round::Round;
use crate::rules::LocalRule;
use crate::trainer::Algorithm;
use rfl_trace::SpanKind;

/// rFedAvg+ with regularization weight `λ`.
pub struct RFedAvgPlus {
    lambda: f32,
    table: Option<DeltaTable>,
    dp: Option<DpConfig>,
}

impl RFedAvgPlus {
    pub fn new(lambda: f32) -> Self {
        assert!(lambda >= 0.0, "λ must be non-negative");
        RFedAvgPlus {
            lambda,
            table: None,
            dp: None,
        }
    }

    /// Adds the Gaussian mechanism on uploaded δ maps (Fig. 12).
    pub fn with_dp(mut self, dp: DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    pub fn delta_table(&self) -> Option<&DeltaTable> {
        self.table.as_ref()
    }
}

impl Algorithm for RFedAvgPlus {
    fn name(&self) -> &'static str {
        "rFedAvg+"
    }

    fn needs(&self) -> &'static [Capability] {
        match self.dp {
            Some(_) => &[Capability::DeltaPrivacy],
            None => &[],
        }
    }

    /// Sends each participant its averaged δ target — d scalars each,
    /// O(dN) in total. A client trains against the copy it received; a
    /// dropped target degrades it to unregularized training for the round.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        let (n, d) = (r.fed.num_clients(), r.fed.feature_dim());
        let table = self.table.get_or_insert_with(|| DeltaTable::new(n, d));
        let (active, lambda) = (&r.active, self.lambda);
        let bytes = CommStats::delta_download_bytes;
        let kind = SpanKind::DeltaBroadcast;
        r.fed.metered(kind, bytes, Some(d), active.len(), |fed| {
            mmd_rules(table, active, lambda, |k, target| {
                fed.transport().send(MsgKind::DeltaDown, k, &target).data
            })
        })
    }

    /// Second sync: the consistent global model goes down again and δ is
    /// computed with it. Only clients the re-broadcast reaches report one.
    fn after_fold(&mut self, r: &mut Round<'_>) {
        let table = self.table.as_mut().expect("prepare built the table");
        let resynced = r.fed.broadcast_params(&r.active);
        r.fed
            .sync_deltas(&resynced, table, r.cfg.probe_batch(), self.dp, r.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::RFedAvg;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_on_noniid_data() {
        let (mut fed, cfg) = convex_fed(0.0, 50, 8);
        let h = run_rounds(&mut RFedAvgPlus::new(1e-2), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn delta_traffic_is_linear_in_participants() {
        let (mut fed, cfg) = convex_fed(0.0, 51, 8);
        let d = fed.feature_dim() as u64;
        let mut algo = RFedAvgPlus::new(1e-2);
        let h = run_rounds(&mut algo, &mut fed, &cfg, 2);
        // Round 0: no targets yet → upload only (8 × (4+4d)).
        assert_eq!(h.records()[0].delta_bytes, 8 * (4 + 4 * d));
        // Round 1: targets down + δ up → 2 × 8 × (4+4d).
        assert_eq!(h.records()[1].delta_bytes, 2 * 8 * (4 + 4 * d));
    }

    #[test]
    fn delta_traffic_is_n_times_smaller_than_rfedavg() {
        let (mut fed_a, cfg) = convex_fed(0.0, 52, 8);
        let (mut fed_b, _) = convex_fed(0.0, 52, 8);
        let ha = run_rounds(&mut RFedAvg::new(1e-2), &mut fed_a, &cfg, 3);
        let hb = run_rounds(&mut RFedAvgPlus::new(1e-2), &mut fed_b, &cfg, 3);
        // The table broadcast dominates rFedAvg's δ traffic; rFedAvg+ should
        // be several times cheaper (≈ N/2 with up+down counted).
        let a = ha.total_delta_bytes();
        let b = hb.total_delta_bytes();
        assert!(a > 4 * b, "rFedAvg {a} vs rFedAvg+ {b}");
    }

    #[test]
    fn double_sync_doubles_model_downloads() {
        let (mut fed, cfg) = convex_fed(0.0, 53, 4);
        let n_params = fed.num_params() as u64;
        let d = fed.feature_dim() as u64;
        let h = run_rounds(&mut RFedAvgPlus::new(1e-2), &mut fed, &cfg, 1);
        let per_model = 4 + 4 * n_params;
        let down_model = h.records()[0].down_bytes; // round 0 has no δ download
        assert_eq!(down_model, 2 * 4 * per_model, "two model broadcasts");
        let _ = d;
    }

    #[test]
    fn reduces_delta_discrepancy_over_rounds() {
        let (mut fed, cfg) = convex_fed(0.0, 54, 4);
        let mut algo = RFedAvgPlus::new(0.5);
        run_rounds(&mut algo, &mut fed, &cfg, 2);
        let early = algo.delta_table().unwrap().mean_regularizer();
        run_rounds(&mut algo, &mut fed, &cfg, 15);
        let late = algo.delta_table().unwrap().mean_regularizer();
        assert!(late < early, "{early} → {late}");
    }

    #[test]
    fn deltas_computed_from_consistent_global_model() {
        // With identical client data the post-sync δ maps must coincide
        // (they are computed from the SAME global parameters on the same
        // distribution) — the defining property of the double sync.
        use rand::SeedableRng;
        use rfl_data::synth::gaussian::GaussianMixtureSpec;
        use rfl_data::FederatedData;
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(40, None, &mut rng);
        let idx: Vec<usize> = (0..40).collect();
        let data = FederatedData {
            clients: vec![pool.select(&idx), pool.select(&idx)],
            test: spec.generate(8, None, &mut rng),
        };
        let cfg = crate::federation::FlConfig {
            rounds: 2,
            parallel: false,
            batch_size: 8,
            ..crate::federation::FlConfig::cross_silo()
        };
        let mut fed = crate::federation::Federation::new(
            &data,
            crate::federation::ModelFactory::linear_net(10, 6, 4, 0.0),
            crate::federation::OptimizerFactory::sgd(0.1),
            &cfg,
            55,
        );
        let mut algo = RFedAvgPlus::new(1e-2);
        run_rounds(&mut algo, &mut fed, &cfg, 2);
        let t = algo.delta_table().unwrap();
        for (a, b) in t.get(0).iter().zip(t.get(1)) {
            assert!((a - b).abs() < 1e-6, "δ inconsistency: {a} vs {b}");
        }
    }

    #[test]
    fn dp_with_zero_sigma_only_clips() {
        let (mut fed_a, cfg) = convex_fed(0.0, 56, 4);
        let (mut fed_b, _) = convex_fed(0.0, 56, 4);
        let mut clean = RFedAvgPlus::new(1e-2);
        // Huge clip bound + zero sigma = identity mechanism.
        let mut dp = RFedAvgPlus::new(1e-2).with_dp(DpConfig::new(0.0, 1e9, 10));
        run_rounds(&mut clean, &mut fed_a, &cfg, 3);
        run_rounds(&mut dp, &mut fed_b, &cfg, 3);
        assert_eq!(
            clean.delta_table().unwrap().get(1),
            dp.delta_table().unwrap().get(1)
        );
    }
}
