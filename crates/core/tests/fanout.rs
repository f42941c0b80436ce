//! What the in-process plane's fan-out must not move.
//!
//! δ probes, local evaluations and the global evaluation's mini-batches
//! are dealt to workers under the thread budget; what they compute lands
//! in index-addressed slots, and everything whose *order* is observable —
//! DP noise from the server RNG, the fault schedule's per-message hash,
//! the byte ledger, the `f64` loss sum — is then walked in selection (or
//! batch) order on one thread. So a run's δ table, global model,
//! per-round evaluation and ledger are the same bits with the fan-out one
//! worker wide (`parallel: false`, budget 1) or four, eager or lazy, and
//! [`FINGERPRINTS`] — recorded on the commit before the probes and the
//! evaluation fanned out — says they are also the bits of the one-thread
//! loops.

mod common;

use common::bit_hash;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::delta::DeltaTable;
use rfl_core::dp::DpConfig;
use rfl_core::prelude::*;
use rfl_core::MaterializedSource;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::{partition, FederatedData};
use std::sync::Arc;

const SEED: u64 = 71;
const CLIENTS: usize = 8;

/// Eight label-skewed Gaussian clients and a 200-example test set — four
/// evaluation mini-batches of 64, 64, 64 and 8.
fn data() -> FederatedData {
    let mut rng = StdRng::seed_from_u64(SEED);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(CLIENTS * 30, None, &mut rng);
    let parts = partition::similarity(pool.labels(), CLIENTS, 0.0, &mut rng);
    let test = spec.generate(200, None, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

fn config(parallel: bool) -> FlConfig {
    FlConfig {
        rounds: 4,
        local_steps: 3,
        batch_size: 10,
        sample_ratio: 0.75,
        eval_every: 1,
        parallel,
        clip_grad_norm: Some(10.0),
        seed: SEED,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    }
}

fn federation(data: &FederatedData, cfg: &FlConfig, lazy: bool) -> Federation {
    let model = ModelFactory::linear_net(10, 6, 4, 1e-3);
    let optimizer = OptimizerFactory::sgd(0.1);
    if lazy {
        let source = Arc::new(MaterializedSource::from_federated(data));
        Federation::lazy(source, data.test.clone(), model, optimizer, cfg, SEED)
    } else {
        Federation::new(data, model, optimizer, cfg, SEED)
    }
}

/// A regularized algorithm that exposes its δ table.
trait Regularized: Algorithm {
    fn table(&self) -> &DeltaTable;
}

impl Regularized for RFedAvg {
    fn table(&self) -> &DeltaTable {
        self.delta_table().expect("a round ran")
    }
}

impl Regularized for RFedAvgPlus {
    fn table(&self) -> &DeltaTable {
        self.delta_table().expect("a round ran")
    }
}

type Make = fn() -> Box<dyn Regularized>;

/// One run on one line: the δ table and the global as bit hashes, every
/// round's test loss and accuracy bits, δ-plane bytes, messages, drops.
fn fingerprint(make: Make, lossy: bool, lazy: bool, parallel: bool) -> String {
    let cfg = config(parallel);
    let mut fed = federation(&data(), &cfg, lazy);
    if lossy {
        let link = FaultyTransport::new(FaultConfig::lossy(7, 0.3, 0));
        fed.set_transport(Box::new(link));
    }
    let mut algo = make();
    let h = Trainer::new(cfg).run(algo.as_mut(), &mut fed);
    let table = algo.table();
    let evals: Vec<String> = (h.records().iter())
        .map(|r| {
            let (loss, acc) = (r.test_loss.expect("eval"), r.test_acc.expect("eval"));
            format!("{:08x}/{:08x}", loss.to_bits(), acc.to_bits())
        })
        .collect();
    let stats = fed.comm_stats();
    let mut flat = Vec::new();
    table.flattened_into(&mut flat);
    format!(
        "table={:016x} rows={} global={:016x} eval=[{}] ddown={} dup={} msgs={} dropped={}",
        bit_hash(&flat),
        table.num_initialized(),
        bit_hash(fed.global()),
        evals.join(","),
        stats.delta_download_bytes(),
        stats.delta_upload_bytes(),
        stats.messages(),
        fed.fault_stats().dropped,
    )
}

fn dp() -> DpConfig {
    DpConfig::new(0.5, 1.0, 10)
}

/// (label, algorithm, lossy link?, the line every configuration prints).
/// The DP rows pin the order of the noise draws in the server RNG; the
/// lossy ones also that a dropped δ upload still cost its probe, its
/// noise draw and its place in the fault schedule.
const FINGERPRINTS: &[(&str, Make, bool, &str)] = &[
    (
        "rFedAvg",
        || Box::new(RFedAvg::new(1e-2)),
        false,
        "table=272d154f0a1bd575 rows=8 global=cb0f5aaf1d1d886f eval=[3fafdf15/3eee147b,3f920cca/3f028f5c,3f81e774/3f147ae1,3f6b57e2/3f1d70a4] ddown=4704 dup=672 msgs=56 dropped=0",
    ),
    (
        "rFedAvg+",
        || Box::new(RFedAvgPlus::new(1e-2)),
        false,
        "table=cb291ce287ab94eb rows=8 global=440483ee0281a918 eval=[3fafdf15/3eee147b,3f920957/3f028f5c,3f81e795/3f147ae1,3f6b5152/3f1d70a4] ddown=504 dup=672 msgs=74 dropped=0",
    ),
    (
        "rFedAvg/dp",
        || Box::new(RFedAvg::new(1e-2).with_dp(dp())),
        false,
        "table=bcb446c4d539d8ea rows=8 global=297835b733672089 eval=[3fafdf15/3eee147b,3f90923b/3f03d70a,3f858d0c/3f0ccccd,3f7a5dc9/3f1851ec] ddown=4704 dup=672 msgs=56 dropped=0",
    ),
    (
        "rFedAvg/dp lossy",
        || Box::new(RFedAvg::new(1e-2).with_dp(dp())),
        true,
        "table=fcfdcd261ca8e15d rows=7 global=b86110c2d70d5594 eval=[3fbaec4c/3ed47ae1,3faad49e/3ef33333,3f8f4b65/3f0a3d71,3f93248e/3f051eb8] ddown=3332 dup=476 msgs=42 dropped=16",
    ),
    (
        "rFedAvg+/dp lossy",
        || Box::new(RFedAvgPlus::new(1e-2).with_dp(dp())),
        true,
        "table=c71db22df2005f6c rows=7 global=23a7c8de026196d1 eval=[3fb670e7/3ee66666,3fa0b74c/3f028f5c,3f88a012/3f0b851f,3f8b083a/3f0e147b] ddown=420 dup=448 msgs=57 dropped=17",
    ),
];

#[test]
fn delta_table_global_and_evaluation_bits_do_not_depend_on_the_fan_out() {
    let before = rfl_tensor::thread_budget();
    let mut failures = Vec::new();
    for &(label, make, lossy, recorded) in FINGERPRINTS {
        for lazy in [false, true] {
            for (parallel, budget) in [(false, 1), (true, 1), (true, 2), (true, 4), (false, 4)] {
                rfl_tensor::set_thread_budget(budget);
                let got = fingerprint(make, lossy, lazy, parallel);
                if got != recorded {
                    failures.push(format!(
                        "{label} (lazy {lazy}, parallel {parallel}, budget {budget}):\n    {got:?}"
                    ));
                }
            }
        }
    }
    rfl_tensor::set_thread_budget(before);
    assert!(
        failures.is_empty(),
        "fingerprints moved; these runs read:\n{}",
        failures.join("\n")
    );
}

/// Fig. 11's per-client evaluation: the lazy registry regenerates each
/// shard instead of materializing the client, and must report what the
/// eager replicas' shards do, in client order, at any budget.
#[test]
fn per_client_evaluation_is_the_same_eager_and_lazy_at_any_budget() {
    let before = rfl_tensor::thread_budget();
    let (data, cfg) = (data(), config(true));
    rfl_tensor::set_thread_budget(1);
    let want = federation(&data, &config(false), false).evaluate_per_client();
    assert_eq!(want.len(), CLIENTS);
    for budget in [1, 2, 4] {
        rfl_tensor::set_thread_budget(budget);
        for lazy in [false, true] {
            let got = federation(&data, &cfg, lazy).evaluate_per_client();
            assert_eq!(got, want, "lazy {lazy}, budget {budget}");
        }
    }
    rfl_tensor::set_thread_budget(before);
}
