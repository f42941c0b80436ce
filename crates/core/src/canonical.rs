//! The canonical pinned round loop — one definition of the federated CNN
//! run whose final training loss is bit-pinned across every execution mode.
//!
//! The allocation gate (`tests/alloc.rs`), the `benchmark/` harness, the
//! distributed binaries (`rfl-server`, `rfl-client`), and the loopback
//! integration tests all build this exact run: same synthetic MNIST-like
//! pool, same similarity partition, same CNN and SGD hyper-parameters, same
//! rFedAvg+ round structure. Any divergence — a kernel change, a transport
//! bug, a client process sampling one extra RNG draw — shows up as a loss
//! mismatch against [`PINNED_ROUND_LOSS`].
//!
//! Determinism notes: everything is derived from the single `seed`. The
//! pool/partition/test RNG stream, the model initialization, and each
//! client's private RNG (`seed ⊕ id·φ` inside [`Client::new`]) are shared
//! by a distributed client regenerating its shard — which is why a remote
//! run can be compared bit-exactly against the in-process oracle.

use crate::algorithms::RFedAvgPlus;
use crate::client::Client;
use crate::federation::{Federation, FlConfig, ModelFactory, OptimizerFactory};
use crate::history::History;
use crate::trainer::Trainer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::{partition, FederatedData};
use rfl_nn::CnnConfig;

/// Round-loop loss pinned at the SIMD-kernel PR (PR 5): every later change
/// must reproduce it bit-for-bit. Re-pinned once from the PR 2–4 value
/// 1.604142427 when the canonical 8-lane accumulation order and polynomial
/// `exp` replaced the sequential libm kernels (EXPERIMENTS.md "Round-loop
/// loss pin (provenance)"); it is identical under SIMD on/off, at any
/// thread count, and across the in-process and socket transports.
pub const PINNED_ROUND_LOSS: f64 = 1.604142189;

/// Seed of the pinned run.
pub const SEED: u64 = 7;

/// Rounds of the pinned run.
pub const ROUNDS: usize = 2;

/// Participants in the pinned run.
pub const NUM_CLIENTS: usize = 4;

/// rFedAvg+ regularization weight `λ` of the pinned run.
pub const LAMBDA: f32 = 1e-3;

/// Local SGD learning rate of the pinned run.
pub const LR: f32 = 0.05;

/// Whether `loss` reproduces [`PINNED_ROUND_LOSS`] bit-exactly at `f32`
/// precision (the trainer records `f32` losses; the pin is written with
/// more digits than `f32` carries, so both sides are compared as `f32`
/// bits — the comparison every gate in the repo uses).
pub fn loss_matches_pin(loss: f64) -> bool {
    loss as f32 == PINNED_ROUND_LOSS as f32
}

/// The run configuration (any `seed`/`rounds`, canonical hyper-parameters).
pub fn config(seed: u64, rounds: usize) -> FlConfig {
    FlConfig {
        rounds,
        local_steps: 2,
        batch_size: 16,
        sample_ratio: 1.0,
        eval_every: 100,
        parallel: true,
        clip_grad_norm: Some(10.0),
        seed,
        delta_probe_batch: None,
        compression: crate::compress::Compression::None,
    }
}

/// The federated dataset: a 160-example synthetic MNIST-like pool split
/// over [`NUM_CLIENTS`] clients by label-similarity 0.5, plus a 64-example
/// test set. One RNG stream, in this exact draw order — every consumer
/// (server, clients, benches) must regenerate it identically.
pub fn data(seed: u64) -> FederatedData {
    data_for(seed, NUM_CLIENTS)
}

/// [`data`] generalized to any participant count: `40·n` pool examples
/// split over `n` clients, same draw order, same hyper-parameters. With
/// `n == NUM_CLIENTS` this is byte-identical to the pinned dataset (the
/// RNG stream only depends on the counts, which scale together) — the
/// 64-client smoke leg uses a larger `n` without forking the data recipe.
pub fn data_for(seed: u64, n_clients: usize) -> FederatedData {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = SynthImageSpec::mnist_like();
    let pool = spec.generate(n_clients * 40, &mut rng);
    let parts = partition::similarity(pool.labels(), n_clients, 0.5, &mut rng);
    let test = spec.generate(64, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

/// The model factory of the pinned run.
pub fn model() -> ModelFactory {
    ModelFactory::cnn(CnnConfig::mnist_like())
}

/// The optimizer factory of the pinned run.
pub fn optimizer() -> OptimizerFactory {
    OptimizerFactory::sgd(LR)
}

/// Builds client `k` as [`Federation::new`] first wakes it: the global
/// initialization derived from `seed`, then the client's own optimizer
/// state, RNG stream, and gradient clip. This is what a distributed
/// `rfl-client` process runs so its parameter trajectory is bit-identical
/// to the in-process client's.
pub fn client(k: usize, fed_data: &FederatedData, cfg: &FlConfig, seed: u64) -> Client {
    let shard = fed_data.clients[k].clone();
    let (batch, sgd) = (cfg.batch_size, optimizer().build());
    let mut c = Client::new(k, model().build(seed), shard, sgd, batch, seed);
    c.set_clip_grad_norm(cfg.clip_grad_norm);
    c
}

/// Runs the pinned round loop in-process on the given federation (which
/// must be built from [`data`]/[`model`] with the same seed) and returns
/// the history; `h.records().last().train_loss` is the pinned loss when
/// `(seed, rounds) == (SEED, ROUNDS)`.
pub fn run(fed: &mut Federation, seed: u64, rounds: usize) -> History {
    let mut algo = RFedAvgPlus::new(LAMBDA);
    Trainer::new(config(seed, rounds)).run(&mut algo, fed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_run_reproduces_the_pinned_loss() {
        let (fed_data, cfg) = (data(SEED), config(SEED, ROUNDS));
        let mut fed = Federation::new(&fed_data, model(), optimizer(), &cfg, SEED);
        let h = run(&mut fed, SEED, ROUNDS);
        let loss = h.records().last().unwrap().train_loss as f64;
        assert!(
            loss_matches_pin(loss),
            "canonical loop drifted from the pin: {loss:.9}"
        );
    }

    #[test]
    fn client_replica_matches_federation_client() {
        let fed_data = data(SEED);
        let cfg = config(SEED, ROUNDS);
        let mut fed = Federation::new(&fed_data, model(), optimizer(), &cfg, SEED);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for k in 0..NUM_CLIENTS {
            let replica = client(k, &fed_data, &cfg, SEED);
            replica.read_params(&mut a);
            fed.with_client(k, |c| c.read_params(&mut b));
            assert_eq!(a, b, "client {k} replica diverges at init");
        }
    }
}
