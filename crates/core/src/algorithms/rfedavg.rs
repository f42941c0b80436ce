//! rFedAvg — Algorithm 1 of the paper.
//!
//! FedAvg plus the distribution regularizer computed against *delayed*
//! per-client δ maps: at each round the server broadcasts the entire table
//! `δ = (δ¹, …, δᴺ)` (an `O(dN²)` broadcast — the cost the paper criticizes)
//! and each client regularizes toward the mean of the other clients' delayed
//! maps. After local training each client recomputes its δ **with its own
//! local model parameters** (the inconsistency that rFedAvg+ later removes)
//! and uploads it.

use super::mmd_rules;
use crate::comm::{CommStats, MsgKind};
use crate::delta::DeltaTable;
use crate::dp::DpConfig;
use crate::plane::Capability;
use crate::round::Round;
use crate::rules::LocalRule;
use crate::trainer::Algorithm;
use rfl_trace::SpanKind;

/// rFedAvg with regularization weight `λ`.
pub struct RFedAvg {
    lambda: f32,
    table: Option<DeltaTable>,
    dp: Option<DpConfig>,
    /// Scratch for the flattened table broadcast, reused across rounds so
    /// the O(N·d) payload is encoded from one stable allocation.
    flat_buf: Vec<f32>,
}

impl RFedAvg {
    pub fn new(lambda: f32) -> Self {
        assert!(lambda >= 0.0, "λ must be non-negative");
        RFedAvg {
            lambda,
            table: None,
            dp: None,
            flat_buf: Vec::new(),
        }
    }

    /// Adds the Gaussian mechanism on uploaded δ maps (privacy evaluation).
    pub fn with_dp(mut self, dp: DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    /// The server's δ table (diagnostics; `None` before the first round).
    pub fn delta_table(&self) -> Option<&DeltaTable> {
        self.table.as_ref()
    }
}

impl Algorithm for RFedAvg {
    fn name(&self) -> &'static str {
        "rFedAvg"
    }

    fn needs(&self) -> &'static [Capability] {
        match self.dp {
            Some(_) => &[Capability::TableDownload, Capability::DeltaPrivacy],
            None => &[Capability::TableDownload],
        }
    }

    /// Broadcasts the FULL delayed table to every participant — the
    /// O(dN²) communication of Algorithm 1 (N·d scalars to each of them).
    /// Each client's target is the mean of the other already-reported
    /// delayed maps; a client whose table download drops, or with nobody
    /// else reported yet (δ₀ is uninformative), trains unregularized.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        let (n, d) = (r.fed.num_clients(), r.fed.feature_dim());
        let table = self.table.get_or_insert_with(|| DeltaTable::new(n, d));
        let (active, flat) = (&r.active, &mut self.flat_buf);
        let bytes = CommStats::delta_download_bytes;
        let kind = SpanKind::DeltaBroadcast;
        let table_ok = r
            .fed
            .metered(kind, bytes, Some(n * d), active.len(), |fed| {
                table.flattened_into(flat);
                fed.transport()
                    .broadcast(MsgKind::DeltaTableDown, active, flat)
                    .delivered_clients(active)
            });
        mmd_rules(table, active, self.lambda, |k, target| {
            table_ok.binary_search(&k).ok().map(|_| target)
        })
    }

    /// δ is recomputed with each client's LOCAL (post-training) model —
    /// Algorithm 1 line 10 — and uploaded (d scalars per participant)
    /// BEFORE the model upload, which is also where the DP noise draws sit
    /// in the server RNG stream.
    fn before_upload(&mut self, r: &mut Round<'_>) {
        let table = self.table.as_mut().expect("prepare built the table");
        r.fed
            .sync_deltas(&r.active, table, r.cfg.probe_batch(), self.dp, r.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_on_noniid_data() {
        let (mut fed, cfg) = convex_fed(0.0, 40, 8);
        let h = run_rounds(&mut RFedAvg::new(1e-2), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn delta_broadcast_is_quadratic_in_participants() {
        let (mut fed, cfg) = convex_fed(0.0, 41, 8);
        let d = fed.feature_dim() as u64;
        let h = run_rounds(&mut RFedAvg::new(1e-2), &mut fed, &cfg, 1);
        let r = &h.records()[0];
        // Download: 8 participants × (4 + 4·N·d) table bytes;
        // upload: 8 × (4 + 4·d).
        let expected_down = 8 * (4 + 4 * 8 * d);
        let expected_up = 8 * (4 + 4 * d);
        assert_eq!(r.delta_bytes, expected_down + expected_up);
    }

    #[test]
    fn first_round_is_unregularized_then_regularizer_activates() {
        let (mut fed, cfg) = convex_fed(0.0, 42, 4);
        let mut algo = RFedAvg::new(1.0);
        let h = run_rounds(&mut algo, &mut fed, &cfg, 3);
        assert_eq!(h.records()[0].reg_loss, 0.0);
        // After round 0 every client has reported (full participation), so
        // the MMD rule is active and the measured reg loss is positive.
        assert!(h.records()[1].reg_loss > 0.0);
        assert_eq!(algo.delta_table().unwrap().num_initialized(), 4);
    }

    #[test]
    fn reduces_delta_discrepancy_over_rounds() {
        // The whole point of the regularizer: client δ maps converge.
        let (mut fed, cfg) = convex_fed(0.0, 43, 4);
        let mut algo = RFedAvg::new(0.5);
        run_rounds(&mut algo, &mut fed, &cfg, 2);
        let early = algo.delta_table().unwrap().mean_regularizer();
        run_rounds(&mut algo, &mut fed, &cfg, 15);
        let late = algo.delta_table().unwrap().mean_regularizer();
        assert!(
            late < early,
            "δ discrepancy did not shrink: {early} → {late}"
        );
    }

    #[test]
    fn lambda_zero_tracks_fedavg_accuracy() {
        use crate::algorithms::FedAvg;
        let (mut fed_a, cfg) = convex_fed(0.0, 44, 4);
        let (mut fed_b, _) = convex_fed(0.0, 44, 4);
        let ha = run_rounds(&mut FedAvg::new(), &mut fed_a, &cfg, 8);
        let hb = run_rounds(&mut RFedAvg::new(0.0), &mut fed_b, &cfg, 8);
        // λ=0 still injects a zero feature gradient, so trajectories are
        // identical up to float noise.
        let (a, b) = (ha.final_accuracy().unwrap(), hb.final_accuracy().unwrap());
        assert!((a - b).abs() < 0.02, "{a} vs {b}");
    }

    #[test]
    fn dp_noise_perturbs_the_table() {
        let (mut fed_a, cfg) = convex_fed(0.0, 45, 4);
        let (mut fed_b, _) = convex_fed(0.0, 45, 4);
        let mut clean = RFedAvg::new(1e-2);
        let mut noisy = RFedAvg::new(1e-2).with_dp(DpConfig::new(5.0, 1.0, 10));
        run_rounds(&mut clean, &mut fed_a, &cfg, 2);
        run_rounds(&mut noisy, &mut fed_b, &cfg, 2);
        let a = clean.delta_table().unwrap().get(0).to_vec();
        let b = noisy.delta_table().unwrap().get(0).to_vec();
        assert_ne!(a, b);
    }
}
