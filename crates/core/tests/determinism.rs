//! End-to-end determinism: a federated training run must produce
//! bit-identical losses and global parameters at any worker-pool thread
//! budget. This is the contract that makes `RFL_THREADS` a pure performance
//! knob — experiment results never depend on the machine's core count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::prelude::*;
use rfl_core::{
    canonical, Federation, FlConfig, MaterializedSource, ModelFactory, OptimizerFactory, Trainer,
};
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::synth::text::SynthTextSpec;
use rfl_data::{partition, FederatedData};
use rfl_nn::{CnnConfig, LstmConfig};
use rfl_tensor::simd::{set_simd_tier, simd_tier, Tier};
use std::sync::Arc;

/// The small CNN federation behind every run in this suite.
fn cnn_data(seed: u64) -> (FederatedData, FlConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = SynthImageSpec::mnist_like();
    let pool = spec.generate(4 * 24, &mut rng);
    let parts = partition::similarity(pool.labels(), 4, 0.5, &mut rng);
    let test = spec.generate(32, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);
    let cfg = FlConfig {
        rounds: 2,
        local_steps: 2,
        batch_size: 8,
        sample_ratio: 1.0,
        eval_every: 100,
        parallel: true,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    };
    (data, cfg)
}

fn run_rounds(mut fed: Federation, cfg: FlConfig) -> (Vec<f32>, Vec<f32>) {
    let mut algo = RFedAvgPlus::new(1e-3);
    let history = Trainer::new(cfg).run(&mut algo, &mut fed);
    let losses = history.records().iter().map(|r| r.train_loss).collect();
    (losses, fed.global().to_vec())
}

/// Two rounds of rFedAvg+ on a small CNN federation: convolutions, GEMMs,
/// the MMD regularizer, and the parallel client work-queue all on the hot
/// path.
fn run_cnn_rounds(seed: u64) -> (Vec<f32>, Vec<f32>) {
    run_cnn_rounds_with(seed, rfl_core::compress::Compression::None)
}

fn run_cnn_rounds_with(seed: u64, policy: rfl_core::compress::Compression) -> (Vec<f32>, Vec<f32>) {
    let (data, mut cfg) = cnn_data(seed);
    cfg.compression = policy;
    let fed = Federation::new(
        &data,
        ModelFactory::cnn(CnnConfig::mnist_like()),
        OptimizerFactory::sgd(0.05),
        &cfg,
        seed,
    );
    run_rounds(fed, cfg)
}

/// The same run through lazy client management: clients live in the sharded
/// registry as hibernated state and are materialized only for the rounds
/// that sample them.
fn run_cnn_rounds_lazy(seed: u64) -> (Vec<f32>, Vec<f32>) {
    run_cnn_rounds_lazy_with(seed, rfl_core::compress::Compression::None)
}

fn run_cnn_rounds_lazy_with(
    seed: u64,
    policy: rfl_core::compress::Compression,
) -> (Vec<f32>, Vec<f32>) {
    let (data, mut cfg) = cnn_data(seed);
    cfg.compression = policy;
    let source = Arc::new(MaterializedSource::from_federated(&data));
    let fed = Federation::lazy(
        source,
        data.test.clone(),
        ModelFactory::cnn(CnnConfig::mnist_like()),
        OptimizerFactory::sgd(0.05),
        &cfg,
        seed,
    );
    run_rounds(fed, cfg)
}

#[test]
fn training_is_bit_identical_across_thread_budgets() {
    rfl_tensor::set_thread_budget(1);
    let (losses_1, params_1) = run_cnn_rounds(7);
    rfl_tensor::set_thread_budget(4);
    let (losses_4, params_4) = run_cnn_rounds(7);
    rfl_tensor::set_thread_budget(1);

    assert_eq!(
        losses_1, losses_4,
        "per-round losses must not depend on the thread budget"
    );
    assert_eq!(
        params_1, params_4,
        "global parameters must not depend on the thread budget"
    );
    assert!(losses_1.iter().all(|l| l.is_finite()));
}

/// Running the identical federation twice in one process must be
/// bit-identical: the second run executes with every process-global cache
/// warm (worker pool spun up, allocator reuse patterns primed), so any
/// state leaking across runs through the reusable workspaces or `_into`
/// scratch buffers would surface here as a diverging loss or parameter.
#[test]
fn warm_rerun_is_bit_identical_to_fresh_run() {
    rfl_tensor::set_thread_budget(2);
    let (losses_fresh, params_fresh) = run_cnn_rounds(11);
    let (losses_warm, params_warm) = run_cnn_rounds(11);
    rfl_tensor::set_thread_budget(1);

    assert_eq!(
        losses_fresh, losses_warm,
        "a warm re-run must reproduce the fresh run's losses exactly"
    );
    assert_eq!(
        params_fresh, params_warm,
        "a warm re-run must reproduce the fresh run's parameters exactly"
    );
}

/// Lazy client management is a pure memory optimization: hibernating
/// clients between rounds and rebuilding them on selection must not perturb
/// a single bit of the training trajectory. Client RNG streams are keyed on
/// `(seed, client id)`, not construction order, so materialization order is
/// free to differ.
#[test]
fn lazy_mode_is_bit_identical_to_eager() {
    let (losses_eager, params_eager) = run_cnn_rounds(13);
    let (losses_lazy, params_lazy) = run_cnn_rounds_lazy(13);

    assert_eq!(
        losses_eager, losses_lazy,
        "lazy client materialization must not change per-round losses"
    );
    assert_eq!(
        params_eager, params_lazy,
        "lazy client materialization must not change the global parameters"
    );
}

/// With upload compression on, each client carries an error-feedback
/// residual across rounds. The residual is part of a client's record, so
/// hibernating a client between rounds and rebuilding it on selection must
/// reproduce the eager trajectory bit-for-bit — the invariant that keeps
/// lazy mode a pure memory optimization even under lossy uploads.
#[test]
fn lazy_mode_is_bit_identical_to_eager_with_compression() {
    let policy = rfl_core::compress::Compression::Quantize { bits: 6 };
    let (losses_eager, params_eager) = run_cnn_rounds_with(13, policy);
    let (losses_lazy, params_lazy) = run_cnn_rounds_lazy_with(13, policy);

    assert_eq!(
        losses_eager, losses_lazy,
        "hibernation must preserve the compression residual (losses diverged)"
    );
    assert_eq!(
        params_eager, params_lazy,
        "hibernation must preserve the compression residual (parameters diverged)"
    );
    // And the trajectory genuinely differs from the dense one — the policy
    // was actually in force, not silently ignored.
    let (dense_losses, _) = run_cnn_rounds(13);
    assert_ne!(losses_eager, dense_losses, "compression had no effect");
}

/// The canonical pinned loss must reproduce through the streaming
/// aggregator AND the lazy registry path at any thread budget — the
/// end-to-end gate on the million-client round machinery.
#[test]
fn lazy_mode_reproduces_the_canonical_pin() {
    let data = canonical::data(canonical::SEED);
    let cfg = canonical::config(canonical::SEED, canonical::ROUNDS);
    for budget in [1, 4] {
        rfl_tensor::set_thread_budget(budget);
        let source = Arc::new(MaterializedSource::from_federated(&data));
        let mut fed = Federation::lazy(
            source,
            data.test.clone(),
            canonical::model(),
            canonical::optimizer(),
            &cfg,
            canonical::SEED,
        );
        let h = canonical::run(&mut fed, canonical::SEED, canonical::ROUNDS);
        let loss = h.records().last().unwrap().train_loss as f64;
        rfl_tensor::set_thread_budget(1);
        assert!(
            canonical::loss_matches_pin(loss),
            "lazy canonical run drifted from the pin at {budget} threads: {loss:.9}"
        );
    }
}

/// Final-round training loss of [`run_lstm_rounds`], printed by the commit
/// that precedes the register-tile GEMM and the fused LSTM cell (the
/// `axpy`/`dot4` products and the per-gate `sigmoid/tanh_slices` sequence).
/// A rewrite of the recurrent kernels is checked against this number, which
/// it did not produce.
const LSTM_PINNED_FINAL_LOSS: f32 = 0.588_255_05; // 0x3f1697e2

/// Three rounds of rFedAvg on the sent140-like 2-layer LSTM with RMSProp:
/// per-timestep gate GEMMs and their `transa`/`transb` partners at B = 20,
/// the gate non-linearities, BPTT, the embedding, the δ sync and the MMD
/// regularizer.
fn run_lstm_rounds() -> (Vec<f32>, Vec<f32>) {
    let seed = 23;
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = SynthTextSpec::sent140_like();
    let (pool, users) = spec.generate_users(4, 4 * 32, &mut rng);
    let parts = partition::by_user(&users);
    let (test, _) = spec.generate_users(1, 32, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);
    let cfg = FlConfig {
        rounds: 3,
        local_steps: 3,
        batch_size: 20,
        sample_ratio: 1.0,
        eval_every: 1,
        parallel: true,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    };
    let mut fed = Federation::new(
        &data,
        ModelFactory::lstm(LstmConfig::sent140_like()),
        OptimizerFactory::rmsprop(0.01),
        &cfg,
        seed,
    );
    let mut algo = RFedAvg::new(0.1);
    let history = Trainer::new(cfg).run(&mut algo, &mut fed);
    let losses = history.records().iter().map(|r| r.train_loss).collect();
    (losses, fed.global().to_vec())
}

/// The recurrent path's pin: the same LSTM federation at thread budgets 1
/// and 4, on every SIMD tier the CPU has, must agree bit for bit with each
/// other and with [`LSTM_PINNED_FINAL_LOSS`].
#[test]
fn lstm_training_is_bit_identical_across_thread_budgets_and_simd() {
    let (tier0, threads0) = (simd_tier(), rfl_tensor::thread_budget());
    let mut runs = Vec::new();
    for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
        for threads in [1, 4] {
            set_simd_tier(tier);
            rfl_tensor::set_thread_budget(threads);
            runs.push((tier, threads, run_lstm_rounds()));
        }
    }
    set_simd_tier(tier0);
    rfl_tensor::set_thread_budget(threads0);

    let (_, _, (losses, params)) = &runs[0];
    let last = *losses.last().expect("three rounds ran");
    println!("lstm final train loss: {last:?} ({:#010x})", last.to_bits());
    for (tier, threads, (l, p)) in &runs[1..] {
        assert_eq!(l, losses, "losses differ at {tier:?} threads={threads}");
        assert_eq!(p, params, "params differ at {tier:?} threads={threads}");
    }
    assert_eq!(
        last.to_bits(),
        LSTM_PINNED_FINAL_LOSS.to_bits(),
        "LSTM final loss {last:?} drifted from the pin {LSTM_PINNED_FINAL_LOSS:?}"
    );
}

/// Eight label-skewed Gaussian clients, half of them sampled a round, for
/// the eager ≡ lazy table: partial participation makes the lazy registry
/// hibernate a client between the rounds that sample it.
fn gaussian_data() -> (FederatedData, FlConfig) {
    let seed = 29;
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = rfl_data::synth::gaussian::GaussianMixtureSpec::default_spec();
    let pool = spec.generate(8 * 30, None, &mut rng);
    let parts = partition::similarity(pool.labels(), 8, 0.0, &mut rng);
    let test = spec.generate(64, None, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);
    let cfg = FlConfig {
        rounds: 5,
        local_steps: 3,
        batch_size: 10,
        sample_ratio: 0.5,
        eval_every: 100,
        parallel: true,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    };
    (data, cfg)
}

/// Per-round losses and the final global of `algo` on the Gaussian
/// federation, eager or lazy, over a perfect or a lossy link.
fn gaussian_run(algo: &mut dyn Algorithm, lazy: bool, lossy: bool) -> (Vec<u32>, Vec<u32>) {
    let (data, cfg) = gaussian_data();
    let model = ModelFactory::linear_net(10, 6, 4, 1e-3);
    let optimizer = OptimizerFactory::sgd(0.1);
    let mut fed = if lazy {
        let source = Arc::new(MaterializedSource::from_federated(&data));
        Federation::lazy(source, data.test.clone(), model, optimizer, &cfg, cfg.seed)
    } else {
        Federation::new(&data, model, optimizer, &cfg, cfg.seed)
    };
    if lossy {
        let link = FaultyTransport::new(FaultConfig::lossy(5, 0.2, 0));
        fed.set_transport(Box::new(link));
    }
    let h = Trainer::new(cfg).run(algo, &mut fed);
    let losses = h.records().iter().map(|r| r.train_loss.to_bits());
    let global = fed.global().iter().map(|x| x.to_bits());
    (losses.collect(), global.collect())
}

type Make = fn() -> Box<dyn Algorithm>;

/// Every algorithm `rfl_core::algorithms` exports, and rFedAvg+ under DP,
/// trains the same bits on a lazy federation as on an eager one — over a
/// perfect link and a lossy one, at one worker and at two.
#[test]
fn every_algorithm_is_bit_identical_eager_and_lazy() {
    let table: [(&str, Make); 9] = [
        ("FedAvg", || Box::new(FedAvg::new())),
        ("FedAvgM", || Box::new(FedAvgM::new(0.7))),
        ("FedProx", || Box::new(FedProx::new(0.1))),
        ("q-FedAvg", || Box::new(QFedAvg::new(1.0))),
        ("power-of-choice", || {
            Box::new(PowerOfChoice::new(2.0, 1e-2))
        }),
        ("SCAFFOLD", || Box::new(Scaffold::new(1.0))),
        ("rFedAvg", || Box::new(RFedAvg::new(1e-2))),
        ("rFedAvg+", || Box::new(RFedAvgPlus::new(1e-2))),
        ("rFedAvg+ DP", || {
            Box::new(RFedAvgPlus::new(1e-2).with_dp(rfl_core::dp::DpConfig::new(0.5, 1.0, 10)))
        }),
    ];
    let before = rfl_tensor::thread_budget();
    let mut failures = Vec::new();
    for (label, make) in table {
        for lossy in [false, true] {
            rfl_tensor::set_thread_budget(1);
            let eager = gaussian_run(make().as_mut(), false, lossy);
            assert!(eager.0.iter().all(|&l| f32::from_bits(l).is_finite()));
            for budget in [1, 2] {
                rfl_tensor::set_thread_budget(budget);
                let lazy = gaussian_run(make().as_mut(), true, lossy);
                if lazy != eager {
                    failures.push(format!("{label} (lossy {lossy}, budget {budget})"));
                }
            }
        }
    }
    rfl_tensor::set_thread_budget(before);
    assert!(
        failures.is_empty(),
        "lazy runs diverged from eager: {}",
        failures.join(", ")
    );
}
