//! Integration tests of the extension features: compression,
//! personalization, adaptive selection, and server momentum.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfedavg::core::comm::{FaultConfig, FaultyTransport};
use rfedavg::core::compress::{CompressedVec, Compression};
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

/// FedAvg to the end of `c`: final test accuracy and summed upload bytes.
fn run_fedavg(mut f: Federation, c: FlConfig) -> (f32, u64) {
    let h = Trainer::new(c).run(&mut FedAvg::new(), &mut f);
    (
        h.final_accuracy().unwrap(),
        h.records().iter().map(|r| r.up_bytes).sum(),
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
        run_fedavg(fed(40, &c), c)
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

/// The compression gate, on a model wide enough (logistic 64 → 4, 260
/// parameters, 8 clients) that a 2-bit frame's fixed header does not eat the
/// reduction: the ledger charges quantizer frames at their exact encoded
/// length, some policy moves ≥ 10× fewer upload bytes than dense within one
/// point of its accuracy, and the same frames riding a lossy link degrade
/// like dense ones instead of wedging the round loop.
#[test]
fn compressed_uploads_are_charged_exactly_and_save_ten_times_at_dense_accuracy() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;
    const SEED: u64 = 7;
    let mut rng = StdRng::seed_from_u64(SEED);
    let spec = GaussianMixtureSpec {
        dim: 64,
        ..GaussianMixtureSpec::default_spec()
    };
    let pool = spec.generate(CLIENTS * 40, None, &mut rng);
    let parts = partition::similarity(pool.labels(), CLIENTS, 0.5, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, spec.generate(512, None, &mut rng));
    let run = |compression: Compression, drop: f64| -> (f32, u64) {
        let c = FlConfig {
            local_steps: 2,
            compression,
            ..cfg(ROUNDS, SEED)
        };
        let mut f = Federation::new(
            &data,
            ModelFactory::logistic(64, 4, 1e-3),
            OptimizerFactory::sgd(0.1),
            &c,
            SEED,
        );
        if drop > 0.0 {
            f.set_transport(Box::new(FaultyTransport::new(FaultConfig::lossy(
                SEED ^ 0x10557,
                drop,
                1,
            ))));
        }
        run_fedavg(f, c)
    };

    let (acc_dense, up_dense) = run(Compression::None, 0.0);
    // A quantizer frame's shape does not depend on the values, so any vector
    // of the model's dimension gives the closed-form ledger total.
    let probe = vec![0.0f32; 64 * 4 + 4];
    let mut payload = CompressedVec::default();
    let mut best_reduction = 0.0f64;
    for bits in [8, 4, 2, 1] {
        let policy = Compression::Quantize { bits };
        let (acc, up) = run(policy, 0.0);
        policy
            .for_upload(&probe)
            .expect("a compressing policy")
            .compress_into(&probe, &mut payload);
        assert_eq!(
            up,
            (ROUNDS * CLIENTS * payload.wire_bytes()) as u64,
            "quantize:{bits} upload bytes are not rounds × clients × wire_bytes()"
        );
        if acc_dense - acc < 0.01 {
            best_reduction = best_reduction.max(up_dense as f64 / up as f64);
        }
    }
    assert!(
        best_reduction >= 10.0,
        "best reduction within 0.01 of dense accuracy {acc_dense}: {best_reduction:.1}x"
    );

    for policy in [Compression::None, Compression::Quantize { bits: 4 }] {
        let (acc, _) = run(policy, 0.1);
        assert!(
            acc >= 0.5 * acc_dense,
            "{policy:?} under 10 % drops collapsed to {acc} (clean dense {acc_dense})"
        );
    }
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
