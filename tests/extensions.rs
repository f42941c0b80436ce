//! Integration tests of the extension features: compression,
//! personalization, adaptive selection, and server momentum.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfedavg::core::compress::Compression;
use rfedavg::core::personalization::{mean_gain, personalize_all};
use rfedavg::data::synth::gaussian::GaussianMixtureSpec;
use rfedavg::data::{partition, FederatedData};
use rfedavg::prelude::*;

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
        compression: Compression::None,
    }
}

fn fed(seed: u64, cfg: &FlConfig) -> Federation {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(240, None, &mut rng);
    let parts = partition::similarity(pool.labels(), 6, 0.0, &mut rng);
    let test = spec.generate(120, None, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);
    Federation::new(
        &data,
        ModelFactory::linear_net(10, 6, 4, 1e-3),
        OptimizerFactory::sgd(0.1),
        cfg,
        seed,
    )
}

/// Compression end-to-end: every codec still learns, and the upload bytes
/// rank dense > 8-bit > top-10%.
#[test]
fn compressed_pipelines_learn_and_save_bytes() {
    let run = |compression: Compression| -> (f32, u64) {
        let c = FlConfig {
            compression,
            ..cfg(12, 40)
        };
        let mut f = fed(40, &c);
        let h = Trainer::new(c).run(&mut FedAvg::new(), &mut f);
        (
            h.final_accuracy().unwrap(),
            h.records().iter().map(|r| r.up_bytes).sum(),
        )
    };
    let (acc_dense, up_dense) = run(Compression::None);
    let (acc_q8, up_q8) = run(Compression::Quantize { bits: 8 });
    let n = fed(40, &cfg(1, 40)).num_params();
    let (acc_topk, up_topk) = run(Compression::TopK { ratio: 0.1 });
    let (acc_sketch, _) = run(Compression::Sketch {
        rows: 5,
        cols: ((n / 4) | 1) as u32,
        seed: 3,
    });

    assert!(acc_dense > 0.4);
    assert!(acc_q8 > acc_dense - 0.1, "{acc_q8} vs {acc_dense}");
    assert!(acc_topk > 0.35, "{acc_topk}");
    assert!(acc_sketch > 0.3, "{acc_sketch}");
    assert!(up_q8 < up_dense / 2, "{up_q8} vs {up_dense}");
    assert!(up_topk < up_q8, "{up_topk} vs {up_q8}");
}

/// Personalization on a regularized global model lifts local accuracy.
#[test]
fn personalization_gain_positive_on_noniid() {
    let c = cfg(10, 42);
    let mut f = fed(42, &c);
    Trainer::new(c).run(&mut RFedAvgPlus::new(1e-3), &mut f);
    let results = personalize_all(&mut f, 25, 32);
    assert!(mean_gain(&results) > 0.0);
}

/// Power-of-Choice keeps learning with partial participation and biases
/// toward struggling clients (smoke; the exact-selection property is
/// unit-tested in core).
#[test]
fn power_of_choice_learns() {
    let mut c = cfg(15, 43);
    c.sample_ratio = 0.34;
    let mut f = fed(43, &c);
    let h = Trainer::new(c).run(&mut PowerOfChoice::new(2.0, 1e-3), &mut f);
    assert!(h.final_accuracy().unwrap() > 0.4);
}

/// FedAvgM: momentum accelerates early progress relative to plain FedAvg
/// on this convex task (same seed/data).
#[test]
fn server_momentum_changes_trajectory() {
    let c = cfg(6, 45);
    let mut fa = fed(45, &c);
    let mut fb = fed(45, &c);
    let ha = Trainer::new(c).run(&mut FedAvg::new(), &mut fa);
    let hb = Trainer::new(c).run(&mut FedAvgM::new(0.7), &mut fb);
    assert_ne!(fa.global(), fb.global());
    // Both learn.
    assert!(ha.final_accuracy().unwrap() > 0.3);
    assert!(hb.final_accuracy().unwrap() > 0.3);
}
