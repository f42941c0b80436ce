//! `lstm_silo` — the sent140-like 2-layer LSTM, cross-silo, rFedAvg.
//!
//! The recurrent path: per-timestep small GEMMs, SIMD gate non-linearities,
//! embedding, RMSProp; conv does nothing. Full participation makes
//! rFedAvg's O(dN²) δ-table broadcast and the δ sync a visible share, which
//! `cnn_device` hides.

use super::paper::Paper;
use crate::ledger;
use crate::probes::{head_batch, replica, Probes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::RFedAvg;
use rfl_core::compress::Compression;
use rfl_core::{FlConfig, ModelFactory, OptimizerFactory};
use rfl_data::synth::text::SynthTextSpec;
use rfl_data::{partition, FederatedData};
use rfl_nn::LstmConfig;

const CLIENTS: usize = 8;
const TOTAL_SAMPLES: usize = 8 * 32;
const TEST_SAMPLES: usize = 200;
const LAMBDA: f32 = 0.1;

/// 256 sent140-like tweets over 8 users, partitioned by user (quantity,
/// label and vocabulary skew), plus 200 tweets of held-out users.
fn data(seed: u64) -> FederatedData {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = SynthTextSpec::sent140_like();
    let (pool, users) = spec.generate_users(CLIENTS, TOTAL_SAMPLES, &mut rng);
    let parts = partition::by_user(&users);
    let (test, _) = spec.generate_users(CLIENTS / 4, TEST_SAMPLES, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

pub fn spec() -> Paper {
    Paper {
        name: "lstm_silo",
        rounds_per_second: 16,
        warm: 5,
        cfg: FlConfig {
            rounds: 0,
            local_steps: 5,
            batch_size: 20,
            sample_ratio: 1.0,
            eval_every: 1,
            parallel: true,
            clip_grad_norm: Some(10.0),
            delta_probe_batch: None,
            seed: 0,
            compression: Compression::None,
        },
        model: ModelFactory::lstm(LstmConfig::sent140_like()),
        optimizer: OptimizerFactory::rmsprop(0.01),
        data,
        regularized: || Box::new(RFedAvg::new(LAMBDA)),
        target_acc: 0.7,
        ledger: |fed, m| {
            (
                ledger::rfedavg_round(fed.num_clients(), m, fed.num_params(), fed.feature_dim()),
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
    let lstm = LstmConfig::sent140_like();
    let model = ModelFactory::lstm(lstm);
    let optimizer = OptimizerFactory::rmsprop(0.01);
    let text = SynthTextSpec::sent140_like();
    p.time("data.synth_text_s", || {
        let mut rng = StdRng::seed_from_u64(5);
        std::hint::black_box(text.generate_users(CLIENTS, TOTAL_SAMPLES, &mut rng));
    });
    p.tensor_lstm(cfg.batch_size, lstm.hidden);
    // The largest user has a full batch.
    let (input, labels) = head_batch(&data.clients[0], cfg.batch_size);
    p.nn_model(
        "lstm",
        model,
        optimizer,
        "nn.rmsprop_step_s",
        &input,
        &labels,
    );
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
    p.delta_plane(CLIENTS, fed.feature_dim());
    p.fold("aggregate.fold_deep_s", cohort, fed.num_params(), false);
    p.perfect_roundtrip(fed.num_params());
    p.eval(fed);
}

/// One rFedAvg round, serially: every client trains under the MMD rule and
/// answers the δ probe (probed on the largest user, so an upper estimate),
/// one install and one read of its parameters; one model broadcast and `m`
/// uploads on the wire; the δ table is flattened and the leave-one-out
/// means computed once; one fold.
fn explained_s(out: &crate::harness::Outcome, m: usize) -> f64 {
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    m as f64 * (get("client.train_mmd_s") + get("client.compute_delta_s") + get("nn.param_io_s"))
        + (1 + m) as f64 / 2.0 * get("transport.perfect_roundtrip_s")
        + get("delta.flatten_s")
        + get("delta.means_excluding_s")
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
        assert_eq!(spec.cohort(fed.num_clients()), CLIENTS);
        assert_eq!((spec.ledger)(&fed, CLIENTS), (1_146_112, 1_136_832));
    }
}
