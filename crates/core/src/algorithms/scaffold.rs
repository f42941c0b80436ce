//! SCAFFOLD (Karimireddy et al., ICML 2020): stochastic controlled averaging
//! with server/client control variates correcting client drift. The server
//! keeps `c`; each client keeps its `c_k` in its record and computes its
//! own update in its training job (`plane::LocalPlane::train`).

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
/// `c_k⁺ = c_k − c + (w_global − ŵ_k)/(K_k·η_k)`, for the `K_k` steps
/// client `k` ran at rate `η_k` and the `ŵ_k` its upload delivers.
pub struct Scaffold {
    eta_g: f32,
    c: Vec<f32>,
}

impl Scaffold {
    pub fn new(eta_g: f32) -> Self {
        assert!(eta_g > 0.0, "η_g must be positive");
        Scaffold {
            eta_g,
            c: Vec::new(),
        }
    }
}

impl Algorithm for Scaffold {
    fn name(&self) -> &'static str {
        "Scaffold"
    }

    fn needs(&self) -> &'static [Capability] {
        &[Capability::ControlPlane]
    }

    /// Second download: the server control variate, in a broadcast span of
    /// its own so byte accounting still reconciles with `CommStats`. A
    /// client participates only if BOTH downloads arrive, and trains with
    /// the correction `c − c_k` on every gradient. The first call gives
    /// every record a `c_k` of zeros.
    fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
        if self.c.len() != r.fed.num_params() {
            self.c = vec![0.0; r.fed.num_params()];
            r.fed.local_mut().registry.reserve_control(self.c.len());
        }
        let (selected, c) = (&r.selected, &self.c);
        let bytes = CommStats::download_bytes;
        let bd = r
            .fed
            .metered(SpanKind::Broadcast, bytes, None, selected.len(), |fed| {
                fed.transport().broadcast(MsgKind::ControlDown, selected, c)
            });
        r.active = intersect_sorted(&r.active, &bd.delivered_clients(selected));
        let c = Arc::new(bd.data);
        vec![LocalRule::Scaffold { c }; r.active.len()]
    }

    /// Streams the model uploads into the O(d) sum of `w_k − w`, then the
    /// control uploads of the clients whose model arrived (every ModelUp
    /// before the first ControlUp: a client whose model upload dropped
    /// skips its control upload too) into the sum of their `Δ`s.
    fn fold(&mut self, r: &mut Round<'_>) -> Vec<usize> {
        let fed = &mut *r.fed;
        let global_before = fed.global().to_vec();
        let (mut update_sum, mut c_delta_sum) = (vec![0.0; self.c.len()], vec![0.0; self.c.len()]);
        let delivered = fed.fold_uploads(&r.active, false, |_, _, params| {
            rfl_tensor::add_assign_slices(&mut update_sum, params);
            rfl_tensor::axpy_slices(&mut update_sum, -1.0, &global_before);
        });
        fed.fold_uploads(&delivered, true, |_, _, delta| {
            rfl_tensor::add_assign_slices(&mut c_delta_sum, delta)
        });
        // c ← c + (|S|/N)·mean_S(c_k⁺ − c_k)  ==  c + (1/N)·Σ_S(c_k⁺ − c_k)
        for (c, d) in self.c.iter_mut().zip(&c_delta_sum) {
            *c += d / fed.num_clients() as f32;
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
    use crate::federation::{Federation, StragglerModel};
    use crate::testutil::{convex_fed, run_rounds};

    #[test]
    fn learns_on_noniid_data() {
        let (mut fed, cfg) = convex_fed(0.0, 20, 8);
        let h = run_rounds(&mut Scaffold::new(1.0), &mut fed, &cfg, 20);
        assert!(h.final_accuracy().unwrap() > 0.5);
    }

    /// Client `k`'s control variate, read off its record.
    fn c_k(fed: &mut Federation, k: usize) -> Vec<f32> {
        fed.with_client(k, |c| c.control().clone())
    }

    #[test]
    fn control_variates_become_nonzero_after_a_round() {
        let (mut fed, cfg) = convex_fed(0.0, 21, 4);
        let mut algo = Scaffold::new(1.0);
        run_rounds(&mut algo, &mut fed, &cfg, 2);
        assert!(algo.c.iter().any(|&v| v != 0.0));
        assert!(c_k(&mut fed, 0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn server_control_stays_mean_of_clients_under_full_participation() {
        // Invariant of SCAFFOLD with SR = 1: c = (1/N) Σ c_k after every round.
        let (mut fed, cfg) = convex_fed(0.0, 22, 4);
        let mut algo = Scaffold::new(1.0);
        run_rounds(&mut algo, &mut fed, &cfg, 3);
        let n = 4;
        let c_k: Vec<Vec<f32>> = (0..n).map(|k| c_k(&mut fed, k)).collect();
        for (i, c) in algo.c.iter().enumerate() {
            let mean: f32 = c_k.iter().map(|c_k| c_k[i]).sum::<f32>() / n as f32;
            assert!((c - mean).abs() < 1e-4, "c[{i}] = {c} vs mean {mean}");
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

    /// Option II divides by the steps each client ran: at round 0 (`c = c_k
    /// = 0`) a straggler's `c_k⁺` is `(g − ŵ_k)/(K_k·η)` for its own `K_k`.
    #[test]
    fn a_straggler_s_variate_divides_by_the_steps_it_ran() {
        let (mut fed, cfg) = convex_fed(0.0, 25, 4);
        fed.set_straggler_model(Some(StragglerModel::new(9, 1)));
        let tracer = rfl_trace::Tracer::enabled();
        fed.set_tracer(tracer.clone());
        let g = fed.global().to_vec();
        run_rounds(&mut Scaffold::new(1.0), &mut fed, &cfg, 1);
        let steps: Vec<(usize, usize)> = (tracer.records().iter())
            .filter(|s| s.kind == "local_train")
            .map(|s| {
                (
                    s.client.unwrap() as usize,
                    s.counter("batches").unwrap() as usize,
                )
            })
            .collect();
        assert_eq!(steps.len(), 4);
        assert!(steps.iter().any(|&(_, e)| e < cfg.local_steps), "{steps:?}");
        for (k, e) in steps {
            // The client wakes at the model it trained, its dense upload.
            let (w, lr) = fed.with_client(k, |c| {
                let mut w = Vec::new();
                c.read_params(&mut w);
                (w, c.lr())
            });
            let (c_k, scale) = (c_k(&mut fed, k), 1.0 / (e as f32 * lr));
            for i in 0..g.len() {
                assert_eq!(
                    c_k[i],
                    scale * (g[i] - w[i]),
                    "client {k} ({e} steps), [{i}]"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "client 2 holds a record")]
    fn the_variates_are_reserved_before_any_client_wakes() {
        let (mut fed, cfg) = convex_fed(0.0, 26, 4);
        fed.with_client(2, |_| ());
        run_rounds(&mut Scaffold::new(1.0), &mut fed, &cfg, 1);
    }
}
