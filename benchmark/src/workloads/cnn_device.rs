//! `cnn_device` — Fig. 10c: the cifar-like CNN, cross-device, rFedAvg+.
//!
//! Conv/GEMM kernels, `nn` backward and local SGD do almost all the work;
//! wire, registry and fold do almost none.

use super::paper::Paper;
use crate::ledger;
use crate::probes::{head_batch, replica, Probes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::RFedAvgPlus;
use rfl_core::compress::Compression;
use rfl_core::{FlConfig, ModelFactory, OptimizerFactory};
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::{partition, FederatedData};
use rfl_nn::CnnConfig;

const CLIENTS: usize = 24;
const SAMPLES_PER_CLIENT: usize = 32;
const TEST_SAMPLES: usize = 200;
const LAMBDA: f32 = 1e-4;

/// 24 clients × 32 cifar-like images split by label similarity 0 %, plus a
/// 200-example test set, all from one stream seeded by `--seed`.
fn data(seed: u64) -> FederatedData {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = SynthImageSpec::cifar_like();
    let pool = spec.generate(CLIENTS * SAMPLES_PER_CLIENT, &mut rng);
    let parts = partition::similarity(pool.labels(), CLIENTS, 0.0, &mut rng);
    let test = spec.generate(TEST_SAMPLES, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

pub fn spec() -> Paper {
    Paper {
        name: "cnn_device",
        rounds_per_second: 4,
        warm: 2,
        cfg: FlConfig {
            rounds: 0,
            local_steps: 10,
            batch_size: 16,
            sample_ratio: 0.2,
            eval_every: 1,
            parallel: true,
            clip_grad_norm: Some(10.0),
            delta_probe_batch: None,
            seed: 0,
            compression: Compression::None,
        },
        model: ModelFactory::cnn(CnnConfig::cifar_like()),
        optimizer: OptimizerFactory::sgd(0.1),
        data,
        regularized: || Box::new(RFedAvgPlus::new(LAMBDA)),
        target_acc: 0.45,
        ledger: |fed, m| {
            (
                ledger::rfedavg_plus_round(m, fed.num_params(), fed.feature_dim()),
                ledger::fedavg_round(m, fed.num_params()),
            )
        },
        probes,
        explained_s,
    }
}

fn probes(
    p: &mut Probes,
    data: &FederatedData,
    fed: &mut rfl_core::Federation,
    cfg: &FlConfig,
    cohort: usize,
) {
    let model = ModelFactory::cnn(CnnConfig::cifar_like());
    let optimizer = OptimizerFactory::sgd(0.1);
    let image = SynthImageSpec::cifar_like();
    p.time("data.synth_image_s", || {
        let mut rng = StdRng::seed_from_u64(5);
        std::hint::black_box(image.generate(SAMPLES_PER_CLIENT, &mut rng));
    });
    let labels: Vec<usize> = data
        .clients
        .iter()
        .flat_map(|c| c.labels().to_vec())
        .collect();
    p.time("data.partition_s", || {
        let mut rng = StdRng::seed_from_u64(6);
        std::hint::black_box(partition::similarity(&labels, CLIENTS, 0.0, &mut rng));
    });
    p.tensor_cnn(cfg.batch_size);
    let (input, labels) = head_batch(&data.clients[0], cfg.batch_size);
    p.nn_model("cnn", model, optimizer, "nn.sgd_step_s", &input, &labels);
    let mut client = replica(
        &data.clients[0],
        model,
        optimizer,
        cfg.batch_size,
        cfg.clip_grad_norm,
        cfg.seed,
    );
    p.client(&mut client, cfg.local_steps, LAMBDA, cfg.probe_batch());
    p.mmd_feature_grad(cfg.batch_size, fed.feature_dim());
    p.fold("aggregate.fold_deep_s", cohort, fed.num_params(), false);
    p.perfect_roundtrip(fed.num_params());
    p.eval(fed);
}

/// One rFedAvg+ round, serially: every participant trains under the MMD
/// rule, answers the δ probe, and has its parameters installed twice and
/// read once (≈ one `param_io`); the wire sees two model broadcasts and
/// `m` uploads (a `perfect_roundtrip` is one of each); one fold.
fn explained_s(out: &crate::harness::Outcome, m: usize) -> f64 {
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    m as f64 * (get("client.train_mmd_s") + get("client.compute_delta_s") + get("nn.param_io_s"))
        + (2 + m) as f64 / 2.0 * get("transport.perfect_roundtrip_s")
        + get("aggregate.fold_deep_s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_data_and_leaves_the_exact_counts_alone() {
        let spec = spec();
        crate::workloads::paper::tests::seed_moves_data_not_definitions(&spec);
        let fed = spec.federation(&data(3), 3);
        assert_eq!(spec.cohort(fed.num_clients()), 5);
        assert_eq!((spec.ledger)(&fed, 5), (1_112_060, 739_640));
    }
}
