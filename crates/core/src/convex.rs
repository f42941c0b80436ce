//! Helpers for validating the convergence theory (Sec. V, Theorems 1–2) on
//! strongly convex objectives.
//!
//! The theorems state that with the decaying step size `η_t = 2/(μ(γ + t))`,
//! `γ = max(8κ, E)`, both rFedAvg and rFedAvg+ converge at `O(1/T)` with a
//! constant that is larger for rFedAvg (`C₃ > C₂`). The
//! `theory_convergence` experiment uses these helpers to (a) run the
//! algorithms under the prescribed schedule and (b) estimate the empirical
//! convergence exponent from the loss curve.

use crate::federation::Federation;

/// The theory's step-size schedule `η_t = 2/(μ(γ + t))` with
/// `γ = max(8κ, E)`, expressed per *round* (the paper's `t` counts gradient
/// steps; we evaluate at round boundaries `t = c·E`).
pub fn theory_schedule(mu: f64, kappa: f64, local_steps: usize) -> impl Fn(usize) -> f32 {
    assert!(mu > 0.0 && kappa >= 1.0);
    let gamma = (8.0 * kappa).max(local_steps as f64);
    move |round| {
        let t = (round * local_steps) as f64;
        (2.0 / (mu * (gamma + t))) as f32
    }
}

/// Weighted global data loss `Σ_k p_k f_k(w_global)` over the *training*
/// data of every client — the `F(w̄_t)` tracked by the theory experiment
/// (the regularizer value is reported separately).
pub fn global_train_loss(fed: &mut Federation) -> f32 {
    let per_client = fed.evaluate_per_client();
    per_client
        .iter()
        .zip(fed.weights())
        .map(|(e, &w)| w * e.loss)
        .sum()
}

/// Least-squares slope of `log(err)` against `log(t)`.
///
/// For an `O(1/t)` rate the slope approaches −1; for `O(1/√t)` it
/// approaches −0.5. Points with non-positive coordinates are skipped.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(t, e)| *t > 0.0 && *e > 0.0)
        .map(|&(t, e)| (t.ln(), e.ln()))
        .collect();
    assert!(pts.len() >= 2, "need at least two valid points");
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate abscissae");
    (n * sxy - sx * sy) / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FedAvg, RFedAvg, RFedAvgPlus};
    use crate::testutil::convex_fed;
    use crate::trainer::{Algorithm, Trainer};

    #[test]
    fn schedule_decays_as_prescribed() {
        let sched = theory_schedule(0.1, 10.0, 5);
        let eta0 = sched(0);
        let eta10 = sched(10);
        assert!(eta0 > eta10);
        // γ = 80, t = 50 → η = 2/(0.1·130)
        assert!((eta10 - (2.0 / (0.1 * 130.0)) as f32).abs() < 1e-6);
    }

    #[test]
    fn loglog_slope_recovers_known_exponents() {
        let one_over_t: Vec<(f64, f64)> = (1..50).map(|t| (t as f64, 5.0 / t as f64)).collect();
        assert!((loglog_slope(&one_over_t) + 1.0).abs() < 1e-6);
        let one_over_sqrt: Vec<(f64, f64)> = (1..50)
            .map(|t| (t as f64, 2.0 / (t as f64).sqrt()))
            .collect();
        assert!((loglog_slope(&one_over_sqrt) + 0.5).abs() < 1e-6);
    }

    fn excess_loss_curve(algo: &mut dyn Algorithm, seed: u64) -> Vec<(f64, f64)> {
        let (mut fed, cfg) = convex_fed(0.0, seed, 4);
        let mut points = Vec::new();
        let rounds = 40usize;
        let run_cfg = crate::federation::FlConfig {
            rounds: 1,
            eval_every: 1,
            ..cfg
        };
        // η_t = 2/(μ(γ+t)) with μ from the model's L2 plus data curvature —
        // treat μ ≈ 0.5, κ ≈ 4 for this toy problem.
        let sched = theory_schedule(0.5, 4.0, cfg.local_steps);
        for round in 0..rounds {
            for k in 0..fed.num_clients() {
                fed.with_client(k, |c| c.set_lr(sched(round)));
            }
            Trainer::new(run_cfg).run(algo, &mut fed);
            if round >= 4 {
                points.push(((round + 1) as f64, global_train_loss(&mut fed) as f64));
            }
        }
        points
    }

    #[test]
    fn algorithms_converge_under_theory_schedule() {
        for (name, algo) in [
            ("fedavg", &mut FedAvg::new() as &mut dyn Algorithm),
            ("rfedavg", &mut RFedAvg::new(1e-3)),
            ("rfedavg+", &mut RFedAvgPlus::new(1e-3)),
        ] {
            let pts = excess_loss_curve(algo, 60);
            let first = pts.first().unwrap().1;
            let last = pts.last().unwrap().1;
            assert!(last < first, "{name}: loss {first} → {last} did not drop");
        }
    }
}
