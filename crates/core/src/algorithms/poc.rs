//! Power-of-Choice client selection (Cho et al., 2020) combined with the
//! distribution regularizer — the paper's "adaptive participant selection"
//! future-work direction.
//!
//! Instead of uniform sampling, the server samples a *candidate set* of
//! `d ≥ m` clients, asks them for their current local loss at the global
//! model, and keeps the `m` highest-loss candidates. Biasing participation
//! toward struggling clients speeds convergence on heterogeneous data.

use super::mmd_rules;
use crate::delta::DeltaTable;
use crate::plane::Capability;
use crate::round::Round;
use crate::rules::LocalRule;
use crate::sampling::sample_clients;
use crate::trainer::Algorithm;
use rfl_trace::SpanKind;

/// FedAvg (optionally with the rFedAvg+ regularizer) under Power-of-Choice
/// selection with a candidate pool `d = oversample · m`.
pub struct PowerOfChoice {
    oversample: f32,
    /// λ = 0 disables the regularizer (plain PoC-FedAvg).
    lambda: f32,
    table: Option<DeltaTable>,
}

impl PowerOfChoice {
    pub fn new(oversample: f32, lambda: f32) -> Self {
        assert!(oversample >= 1.0, "oversample factor must be ≥ 1");
        assert!(lambda >= 0.0);
        PowerOfChoice {
            oversample,
            lambda,
            table: None,
        }
    }
}

impl Algorithm for PowerOfChoice {
    fn name(&self) -> &'static str {
        "PoC-rFedAvg+"
    }

    fn needs(&self) -> &'static [Capability] {
        &[Capability::ClientStateRead, Capability::ServerSideRule]
    }

    /// Candidate pool, then keep the highest-loss m. The whole ranking —
    /// including the candidate broadcast and loss probe — is the
    /// "selection" phase of this algorithm, and leaves the selection
    /// holding the model.
    fn select(&mut self, r: &mut Round<'_>) {
        let n = r.fed.num_clients();
        let mut span = r.fed.tracer().span(SpanKind::Select);
        let m = ((n as f32 * r.cfg.sample_ratio).ceil() as usize).clamp(1, n);
        let pool_sr = (r.cfg.sample_ratio * self.oversample).min(1.0);
        let candidates = sample_clients(n, pool_sr, r.rng);
        span.counter("candidates", candidates.len() as u64);
        // Only candidates whose model download arrived can report a loss and
        // therefore be ranked; the rest drop out of the pool.
        let pool = r.fed.broadcast_params(&candidates);
        if !pool.is_empty() {
            let evals = r.fed.local_mut().eval_local(&pool);
            let losses = evals.into_iter().map(|(loss, _)| loss);
            let mut ranked: Vec<(usize, f32)> = pool.into_iter().zip(losses).collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            r.selected = ranked.iter().take(m).map(|(k, _)| *k).collect();
            r.selected.sort_unstable();
            r.active = r.selected.clone();
        }
        span.counter("clients", r.selected.len() as u64);
    }

    /// rFedAvg+ style targets for the selection only — O(m·d), not O(N·d)
    /// — handed to the replicas directly.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        let (n, d) = (r.fed.num_clients(), r.fed.feature_dim());
        let table = self.table.get_or_insert_with(|| DeltaTable::new(n, d));
        if self.lambda == 0.0 {
            return vec![LocalRule::Plain; r.active.len()];
        }
        mmd_rules(table, &r.active, self.lambda, |_, target| Some(target))
    }

    /// Re-broadcast, then δ recomputation — server-simulated here (the
    /// in-process plane's δ request, its maps read in place without the
    /// metered claims of `Federation::sync_deltas`), so the span carries
    /// dims but no bytes.
    fn after_fold(&mut self, r: &mut Round<'_>) {
        if self.lambda == 0.0 {
            return;
        }
        let table = self.table.as_mut().expect("prepare built the table");
        let resynced = r.fed.broadcast_params(&r.selected);
        let mut span = r.fed.tracer().span(SpanKind::DeltaSync);
        span.counter("dims", table.dim() as u64);
        span.counter("clients", resynced.len() as u64);
        let local = r.fed.local_mut();
        local.probe_deltas(&resynced, r.cfg.probe_batch());
        for (&k, delta) in resynced.iter().zip(local.probed()) {
            table.set_from_slice(k, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_with_partial_participation() {
        let (mut fed, mut cfg) = convex_fed(0.0, 80, 8);
        cfg.sample_ratio = 0.25;
        let h = run_rounds(&mut PowerOfChoice::new(2.0, 1e-3), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.4);
        assert!(h.records().iter().all(|r| r.participants == 2));
    }

    #[test]
    fn selects_high_loss_clients() {
        // With oversample = N/m (full pool) the selection must equal the
        // top-m clients by loss at the global model.
        let (mut fed, mut cfg) = convex_fed(0.0, 81, 8);
        cfg.sample_ratio = 0.25; // m = 2
        let mut algo = PowerOfChoice::new(4.0, 0.0); // pool = all 8
        let all: Vec<usize> = (0..8).collect();
        fed.broadcast_params(&all);
        let mut losses: Vec<(usize, f32)> = fed
            .local_mut()
            .eval_local(&all)
            .into_iter()
            .enumerate()
            .map(|(k, (loss, _))| (k, loss))
            .collect();
        losses.sort_by(|a, b| b.1.total_cmp(&a.1));
        let expected: Vec<usize> = {
            let mut v: Vec<usize> = losses.iter().take(2).map(|(k, _)| *k).collect();
            v.sort_unstable();
            v
        };
        let h = run_rounds(&mut algo, &mut fed, &cfg, 1);
        // The first round's pool covers all clients, so selection is exact.
        let rec = &h.records()[0];
        assert_eq!(rec.participants, 2);
        // We can't read the selection from the history, so re-derive it via
        // the outcome: check by rerunning with the same seeds.
        let (mut fed2, _) = convex_fed(0.0, 81, 8);
        let mut rng = rand::SeedableRng::seed_from_u64(cfg.seed ^ 0x5EED_5EED);
        let mut algo2 = PowerOfChoice::new(4.0, 0.0);
        let out = crate::round::run_round(&mut algo2, &mut fed2, &cfg, &mut rng);
        assert_eq!(out.selected, expected);
    }

    #[test]
    #[should_panic(expected = "oversample")]
    fn rejects_bad_oversample() {
        PowerOfChoice::new(0.5, 0.0);
    }
}
