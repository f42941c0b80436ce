//! Integration tests of the convergence theory (Sec. V).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfedavg::core::convex::{global_train_loss, loglog_slope, theory_schedule};
use rfedavg::data::synth::gaussian::GaussianMixtureSpec;
use rfedavg::data::FederatedData;
use rfedavg::prelude::*;

fn convex_fed(seed: u64, cfg: &FlConfig) -> Federation {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let clients = (0..6)
        .map(|_| {
            let s = spec.random_shift(1.0, &mut rng);
            spec.generate(50, Some(&s), &mut rng)
        })
        .collect();
    let test = spec.generate(100, None, &mut rng);
    Federation::new(
        &FederatedData { clients, test },
        ModelFactory::linear_net(10, 6, 4, 1e-2),
        OptimizerFactory::sgd(0.1),
        cfg,
        seed,
    )
}

fn run_with_schedule(algo: &mut dyn Algorithm, rounds: usize, seed: u64) -> Vec<(f64, f64)> {
    let cfg = FlConfig {
        rounds: 1,
        local_steps: 5,
        batch_size: 10,
        sample_ratio: 1.0,
        eval_every: 1,
        parallel: false,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: rfedavg::core::compress::Compression::None,
    };
    let mut fed = convex_fed(seed, &cfg);
    let sched = theory_schedule(0.5, 4.0, cfg.local_steps);
    let mut pts = Vec::new();
    for round in 0..rounds {
        for k in 0..fed.num_clients() {
            fed.with_client(k, |c| c.set_lr(sched(round)));
        }
        let one = FlConfig {
            seed: seed + round as u64,
            ..cfg
        };
        Trainer::new(one).run(algo, &mut fed);
        pts.push(((round + 1) as f64, global_train_loss(&mut fed) as f64));
    }
    pts
}

/// Under the theory's η_t = 2/(μ(γ+t)) schedule, all three algorithms
/// converge: the loss decreases substantially and the excess-loss log-log
/// slope is clearly negative (the O(1/T) signature of Theorems 1–2).
#[test]
fn convergence_rate_under_theory_schedule() {
    for (name, algo) in [
        ("fedavg", &mut FedAvg::new() as &mut dyn Algorithm),
        ("rfedavg", &mut RFedAvg::new(1e-3)),
        ("rfedavg+", &mut RFedAvgPlus::new(1e-3)),
    ] {
        let pts = run_with_schedule(algo, 30, 20);
        let first = pts[0].1;
        let last = pts.last().unwrap().1;
        assert!(last < first * 0.8, "{name}: {first} → {last}");
        let fstar = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min) - 1e-4;
        let excess: Vec<(f64, f64)> = pts
            .iter()
            .skip(2)
            .map(|&(t, l)| (t, (l - fstar).max(1e-9)))
            .collect();
        let slope = loglog_slope(&excess);
        assert!(slope < -0.3, "{name}: slope {slope} not decreasing fast");
    }
}

/// The schedule itself matches the formula η_t = 2/(μ(γ+t)).
#[test]
fn schedule_formula() {
    let mu = 0.2f64;
    let kappa = 5.0f64;
    let e = 4usize;
    let gamma = (8.0 * kappa).max(e as f64); // 40
    let sched = theory_schedule(mu, kappa, e);
    for round in [0usize, 3, 10] {
        let t = (round * e) as f64;
        let expected = (2.0 / (mu * (gamma + t))) as f32;
        assert!((sched(round) - expected).abs() < 1e-7);
    }
}

/// Theorem 1 vs Theorem 2 (C₂ < C₃): with a *large* λ amplifying the
/// approximation error, rFedAvg+'s consistent (global-model) δ should give
/// a final loss no worse than rFedAvg's inconsistent (local-model) δ.
#[test]
fn double_sync_no_worse_than_local_delta() {
    let final_loss = |plus: bool| -> f64 {
        let mut trials = Vec::new();
        for seed in [21u64, 22, 23] {
            let pts = if plus {
                run_with_schedule(&mut RFedAvgPlus::new(0.05), 25, seed)
            } else {
                run_with_schedule(&mut RFedAvg::new(0.05), 25, seed)
            };
            trials.push(pts.last().unwrap().1);
        }
        trials.iter().sum::<f64>() / trials.len() as f64
    };
    let plus = final_loss(true);
    let base = final_loss(false);
    assert!(
        plus <= base * 1.1,
        "rFedAvg+ should be no worse: {plus} vs rFedAvg {base}"
    );
}
