//! SCAFFOLD (Karimireddy et al., ICML 2020): stochastic controlled averaging
//! with server/client control variates correcting client drift.

use super::intersect_sorted;
use crate::comm::{CommStats, MsgKind};
use crate::plane::Capability;
use crate::round::Round;
use crate::rules::LocalRule;
use crate::trainer::Algorithm;
use rfl_trace::SpanKind;
use std::sync::Arc;

/// SCAFFOLD with server step size `η_g` (the paper sets η_g = 1.0).
///
/// Uses "option II" for the client control-variate update:
/// `c_k⁺ = c_k − c + (w_global − w_k)/(E·η_l)`.
pub struct Scaffold {
    eta_g: f32,
    c: Vec<f32>,
    c_k: Vec<Vec<f32>>,
}

impl Scaffold {
    pub fn new(eta_g: f32) -> Self {
        assert!(eta_g > 0.0, "η_g must be positive");
        Scaffold {
            eta_g,
            c: Vec::new(),
            c_k: Vec::new(),
        }
    }
}

impl Algorithm for Scaffold {
    fn name(&self) -> &'static str {
        "Scaffold"
    }

    fn needs(&self) -> &'static [Capability] {
        use Capability::*;
        &[ControlPlane, ServerSideRule, ClientStateRead]
    }

    /// Second download: the server control variate, in a broadcast span of
    /// its own so byte accounting still reconciles with `CommStats`. A
    /// client participates only if BOTH downloads arrive, and trains with
    /// the correction `c − c_k` on every gradient.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        let (n, dim) = (r.fed.num_clients(), r.fed.num_params());
        if self.c.len() != dim {
            self.c = vec![0.0; dim];
            self.c_k = vec![vec![0.0; dim]; n];
        }
        let (selected, c) = (&r.selected, &self.c);
        let bytes = CommStats::download_bytes;
        let bd = r
            .fed
            .metered(SpanKind::Broadcast, bytes, None, selected.len(), |fed| {
                fed.transport().broadcast(MsgKind::ControlDown, selected, c)
            });
        r.active = intersect_sorted(&r.active, &bd.delivered_clients(selected));
        (r.active.iter())
            .map(|&k| LocalRule::Scaffold {
                correction: Arc::new(
                    bd.data
                        .iter()
                        .zip(&self.c_k[k])
                        .map(|(c, ck)| c - ck)
                        .collect(),
                ),
            })
            .collect()
    }

    /// Streams the model uploads: each one folds `w_k − w` into the O(d)
    /// update sum and yields its client's control-variate update, then is
    /// dropped. The control uploads are buffered (not sent inside the
    /// fold) so the wire keeps its order — every ModelUp before the first
    /// ControlUp. What the fold needs of the federation is captured up
    /// front; the visitor cannot borrow it.
    fn fold(&mut self, r: &mut Round<'_>) -> Vec<usize> {
        let (fed, active) = (&mut *r.fed, &r.active);
        let n = fed.num_clients();
        let global_before = fed.global().to_vec();
        let lrs = fed.learning_rates(active);
        let mut update_sum = vec![0.0f32; global_before.len()];
        let mut ctrl_uploads: Vec<(usize, Vec<f32>)> = Vec::with_capacity(active.len());
        let (c, c_k) = (&self.c, &self.c_k);
        let local_steps = r.cfg.local_steps as f32;
        let delivered = fed.fold_uploads(active, false, |slot, k, params| {
            rfl_tensor::add_assign_slices(&mut update_sum, params);
            rfl_tensor::axpy_slices(&mut update_sum, -1.0, &global_before);
            let scale = 1.0 / (local_steps * lrs[slot]);
            let c_k_new: Vec<f32> = c_k[k]
                .iter()
                .zip(c)
                .zip(global_before.iter().zip(params))
                .map(|((ck, c), (g, w))| ck - c + scale * (g - w))
                .collect();
            ctrl_uploads.push((k, c_k_new));
        });

        // Control-variate uploads (option II). A client whose model upload
        // dropped skips its control upload too (the link is dead for the
        // round), so `c` only absorbs delivered updates.
        let mut c_delta_sum = vec![0.0f32; global_before.len()];
        let bytes = CommStats::upload_bytes;
        fed.metered(SpanKind::Upload, bytes, None, delivered.len(), |fed| {
            for (k, c_k_new) in ctrl_uploads {
                if let Some(received) = fed.transport().send(MsgKind::ControlUp, k, &c_k_new).data {
                    for ((s, new), old) in c_delta_sum.iter_mut().zip(&received).zip(&self.c_k[k]) {
                        *s += new - old;
                    }
                    self.c_k[k] = received;
                }
            }
        });
        // c ← c + (|S|/N)·mean_S(c_k⁺ − c_k)  ==  c + (1/N)·Σ_S(c_k⁺ − c_k)
        for (c, d) in self.c.iter_mut().zip(&c_delta_sum) {
            *c += d / n as f32;
        }

        // Server update: w ← w + η_g · mean_D (w_k − w) over the delivered
        // uploads, applied from the folded sum.
        let mut span = fed.tracer().span(SpanKind::Aggregate);
        span.counter("clients", delivered.len() as u64);
        if !delivered.is_empty() {
            let step = self.eta_g / delivered.len() as f32;
            let mut new_global = global_before;
            rfl_tensor::axpy_slices(&mut new_global, step, &update_sum);
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
    fn learns_on_noniid_data() {
        let (mut fed, cfg) = convex_fed(0.0, 20, 8);
        let h = run_rounds(&mut Scaffold::new(1.0), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn control_variates_become_nonzero_after_a_round() {
        let (mut fed, cfg) = convex_fed(0.0, 21, 4);
        let mut algo = Scaffold::new(1.0);
        run_rounds(&mut algo, &mut fed, &cfg, 2);
        assert!(algo.c.iter().any(|&v| v != 0.0));
        assert!(algo.c_k[0].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn server_control_stays_mean_of_clients_under_full_participation() {
        // Invariant of SCAFFOLD with SR = 1: c = (1/N) Σ c_k after every round.
        let (mut fed, cfg) = convex_fed(0.0, 22, 4);
        let mut algo = Scaffold::new(1.0);
        run_rounds(&mut algo, &mut fed, &cfg, 3);
        let n = 4;
        for i in 0..fed.num_params() {
            let mean: f32 = (0..n).map(|k| algo.c_k[k][i]).sum::<f32>() / n as f32;
            assert!(
                (algo.c[i] - mean).abs() < 1e-4,
                "c[{i}] = {} vs mean {mean}",
                algo.c[i]
            );
        }
    }

    #[test]
    fn doubles_communication_vs_fedavg() {
        let (mut fed, cfg) = convex_fed(0.0, 23, 4);
        let h = run_rounds(&mut Scaffold::new(1.0), &mut fed, &cfg, 1);
        let n_params = fed.num_params() as u64;
        let per_msg = 4 + 4 * n_params;
        // params + control variate in each direction, per participant.
        assert_eq!(h.records()[0].down_bytes, 4 * 2 * per_msg);
        assert_eq!(h.records()[0].up_bytes, 4 * 2 * per_msg);
    }

    #[test]
    fn partial_participation_works() {
        let (mut fed, mut cfg) = convex_fed(0.0, 24, 8);
        cfg.sample_ratio = 0.5;
        let h = run_rounds(&mut Scaffold::new(1.0), &mut fed, &cfg, 10);
        assert!(h.records().iter().all(|r| r.participants == 4));
        assert!(h.final_accuracy().unwrap() > 0.4);
    }
}
