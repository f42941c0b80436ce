//! Integration tests of the paper's headline claims about the distribution
//! regularizer (Sec. III-B, IV, VI).

#[path = "../crates/core/tests/oracle/mmd.rs"]
mod oracle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfedavg::core::mmd;
use rfedavg::data::synth::gaussian::GaussianMixtureSpec;
use rfedavg::data::FederatedData;
use rfedavg::prelude::*;

/// A federation whose clients see *feature-shifted* versions of the same
/// task — the distribution-shift regime the regularizer targets.
fn shifted_fed(seed: u64, shift: f32, cfg: &FlConfig) -> Federation {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let clients = (0..6)
        .map(|_| {
            let s = spec.random_shift(shift, &mut rng);
            spec.generate(50, Some(&s), &mut rng)
        })
        .collect();
    let test = spec.generate(150, None, &mut rng);
    let data = FederatedData { clients, test };
    Federation::new(
        &data,
        ModelFactory::linear_net(10, 6, 4, 1e-3),
        OptimizerFactory::sgd(0.1),
        cfg,
        seed,
    )
}

fn cfg(rounds: usize, seed: u64) -> FlConfig {
    FlConfig {
        rounds,
        local_steps: 5,
        batch_size: 10,
        sample_ratio: 1.0,
        eval_every: rounds,
        parallel: false,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: rfedavg::core::compress::Compression::None,
    }
}

/// Headline claim: under feature shift, the regularized algorithms reduce
/// the inter-client δ discrepancy far below FedAvg's.
#[test]
fn regularizer_shrinks_client_discrepancy_vs_fedavg() {
    let run = |regularized: bool| -> f32 {
        let c = cfg(20, 11);
        let mut fed = shifted_fed(11, 2.0, &c);
        if regularized {
            let mut algo = RFedAvgPlus::new(0.05);
            Trainer::new(c).run(&mut algo, &mut fed);
        } else {
            let mut algo = FedAvg::new();
            Trainer::new(c).run(&mut algo, &mut fed);
        }
        // Measure the pairwise MMD (Eq. 5) of the final global model's δ maps.
        let selected: Vec<usize> = (0..fed.num_clients()).collect();
        fed.broadcast_params(&selected);
        let deltas: Vec<Vec<f32>> = selected
            .iter()
            .map(|&k| fed.with_client(k, |c| c.compute_delta(32)))
            .collect();
        mmd::MmdStats::new(&deltas)
            .regularizer_values()
            .iter()
            .sum::<f32>()
            / deltas.len() as f32
    };
    let fedavg_mmd = run(false);
    let reg_mmd = run(true);
    assert!(
        reg_mmd < fedavg_mmd * 0.8,
        "regularizer did not shrink discrepancy: FedAvg {fedavg_mmd} vs rFedAvg+ {reg_mmd}"
    );
}

/// The surrogate r̃ (used by rFedAvg+) lower-bounds the exact regularizer r
/// on real δ tables produced by training.
#[test]
fn surrogate_lower_bounds_exact_on_trained_deltas() {
    let c = cfg(8, 12);
    let mut fed = shifted_fed(12, 2.0, &c);
    let mut algo = FedAvg::new();
    Trainer::new(c).run(&mut algo, &mut fed);
    let selected: Vec<usize> = (0..fed.num_clients()).collect();
    fed.broadcast_params(&selected);
    let deltas: Vec<Vec<f32>> = selected
        .iter()
        .map(|&k| fed.with_client(k, |c| c.compute_delta(32)))
        .collect();
    for k in 0..deltas.len() {
        let exact = oracle::regularizer_value(k, &deltas);
        let surrogate = mmd::mmd_sq(&deltas[k], &oracle::mean_excluding(k, &deltas));
        assert!(surrogate <= exact + 1e-5, "k={k}: {surrogate} > {exact}");
    }
}

/// Communication scaling (the O(dN²) vs O(dN) claim): doubling the client
/// count roughly quadruples rFedAvg's δ traffic but only doubles rFedAvg+'s.
#[test]
fn delta_traffic_scaling_in_n() {
    let traffic = |n_clients: usize, plus: bool| -> u64 {
        let mut rng = StdRng::seed_from_u64(13);
        let spec = GaussianMixtureSpec::default_spec();
        let clients = (0..n_clients)
            .map(|_| spec.generate(20, None, &mut rng))
            .collect();
        let test = spec.generate(40, None, &mut rng);
        let data = FederatedData { clients, test };
        let c = cfg(3, 13);
        let mut fed = Federation::new(
            &data,
            ModelFactory::linear_net(10, 6, 4, 1e-3),
            OptimizerFactory::sgd(0.1),
            &c,
            13,
        );
        let h = if plus {
            let mut a = RFedAvgPlus::new(1e-3);
            Trainer::new(c).run(&mut a, &mut fed)
        } else {
            let mut a = RFedAvg::new(1e-3);
            Trainer::new(c).run(&mut a, &mut fed)
        };
        h.total_delta_bytes()
    };
    let r4 = traffic(4, false) as f64;
    let r8 = traffic(8, false) as f64;
    let p4 = traffic(4, true) as f64;
    let p8 = traffic(8, true) as f64;
    // rFedAvg: dominated by the N×(N·d) broadcast → ratio ≈ 4.
    assert!(r8 / r4 > 3.0, "rFedAvg scaling {}", r8 / r4);
    // rFedAvg+: strictly linear → ratio ≈ 2.
    assert!(p8 / p4 < 2.5, "rFedAvg+ scaling {}", p8 / p4);
    // And at equal N, rFedAvg+ is much cheaper.
    assert!(p8 * 3.0 < r8);
}

/// λ = 0 reduces both proposed algorithms to FedAvg-quality updates (the
/// regularizer gradient vanishes), so accuracies coincide closely.
#[test]
fn lambda_zero_recovers_fedavg() {
    let acc = |which: u8| -> f32 {
        let c = cfg(10, 14);
        let mut fed = shifted_fed(14, 1.0, &c);
        let h = match which {
            0 => Trainer::new(c).run(&mut FedAvg::new(), &mut fed),
            1 => Trainer::new(c).run(&mut RFedAvg::new(0.0), &mut fed),
            _ => Trainer::new(c).run(&mut RFedAvgPlus::new(0.0), &mut fed),
        };
        h.final_accuracy().unwrap()
    };
    let f = acc(0);
    assert!((acc(1) - f).abs() < 0.05);
    assert!((acc(2) - f).abs() < 0.05);
}

/// DP noise on δ: moderate σ₂ leaves accuracy within a few points of the
/// noiseless run (paper Fig. 12's "σ₂ ≤ 5 barely matters").
#[test]
fn moderate_dp_noise_is_tolerated() {
    use rfedavg::core::dp::DpConfig;
    let run = |sigma: f32| -> f32 {
        let c = cfg(15, 15);
        let mut fed = shifted_fed(15, 1.0, &c);
        let mut algo = if sigma == 0.0 {
            RFedAvgPlus::new(1e-3)
        } else {
            RFedAvgPlus::new(1e-3).with_dp(DpConfig::new(sigma, 1.0, 10))
        };
        Trainer::new(c)
            .run(&mut algo, &mut fed)
            .final_accuracy()
            .unwrap()
    };
    let clean = run(0.0);
    let noisy = run(2.0);
    assert!(
        (clean - noisy).abs() < 0.15,
        "σ₂=2 moved accuracy too much: {clean} vs {noisy}"
    );
}
