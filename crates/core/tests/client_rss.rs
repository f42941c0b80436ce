//! Gate: peak resident bytes one more client adds to a [`Federation::new`]
//! run.
//!
//! Runs `cnn_device`'s shape — the cifar-like CNN, 32 examples per client,
//! sample ratio 0.2, ten local steps, rFedAvg+ — for a few rounds over 24
//! clients and then over 48, at thread budget 2, and charges the growth of
//! the peak resident set between the two runs to the 24 added clients.
//!
//! Between requests a client is its record plus its shard, which the
//! federation keeps resident (32 images of 3 × 16 × 16 floats, 98 KB). The
//! model replicas, workspaces and step buffers live in the registry's
//! shells, and every request holds at most one per worker, so three rounds
//! build two shells whatever the client count. What sets the reading is
//! therefore the data, not the clients' working state. At 48 clients the
//! peak is reached before any client wakes: generating the data holds the
//! image pool and the shards cut from it at once (18.5 MB), then
//! `Federation::new` clones the shards while the caller's copy is still
//! alive (19.1 MB), and the three rounds add under 1 MB (18.6–19.8 MB at
//! the end). At 24 clients the rounds set the peak (12.8–13.7 MB, against
//! 9.7 MB after setup). So the reading is what a client's data adds at
//! setup, less the rounds' headroom at 24 clients: 224–255 KB over 15
//! readings, about two and a half copies of its shard. While rFedAvg+'s δ probe kept its
//! cohort of shells live until the next round (a fifth of the clients,
//! 1.1 MB each after a train and a probe) this read 270–320 KB, and a
//! federation that kept a replica, its workspaces and its step buffers for
//! every client read 750–770 KB, after three rounds had touched about half
//! of its clients (EXPERIMENTS.md "One client lifecycle", "No client is
//! live between requests").
//!
//! This file holds exactly one test function: `VmHWM` is process-wide, and
//! a sibling test's memory would be charged to the clients.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::RFedAvgPlus;
use rfl_core::compress::Compression;
use rfl_core::{Federation, FlConfig, ModelFactory, OptimizerFactory, Trainer};
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::{partition, FederatedData};
use rfl_nn::CnnConfig;

const SAMPLES_PER_CLIENT: usize = 32;
const TEST_SAMPLES: usize = 200;
const ROUNDS: usize = 3;
const SEED: u64 = 17;
/// Peak resident bytes one added client may cost: the highest reading
/// (255 KB) plus a quarter.
const BYTES_PER_ADDED_CLIENT_CEILING: f64 = 319e3;

/// `cnn_device`'s data recipe over `clients` clients.
fn data(clients: usize) -> FederatedData {
    let mut rng = StdRng::seed_from_u64(SEED);
    let spec = SynthImageSpec::cifar_like();
    let pool = spec.generate(clients * SAMPLES_PER_CLIENT, &mut rng);
    let parts = partition::similarity(pool.labels(), clients, 0.0, &mut rng);
    let test = spec.generate(TEST_SAMPLES, &mut rng);
    FederatedData::from_partition(&pool, &parts, test)
}

/// The peak resident set once a run over `clients` clients has ended.
fn peak_after_run(clients: usize) -> u64 {
    let cfg = FlConfig {
        rounds: ROUNDS,
        local_steps: 10,
        batch_size: 16,
        sample_ratio: 0.2,
        eval_every: 1,
        parallel: true,
        clip_grad_norm: Some(10.0),
        delta_probe_batch: None,
        seed: SEED,
        compression: Compression::None,
    };
    let mut fed = Federation::new(
        &data(clients),
        ModelFactory::cnn(CnnConfig::cifar_like()),
        OptimizerFactory::sgd(0.1),
        &cfg,
        SEED,
    );
    Trainer::new(cfg).run(&mut RFedAvgPlus::new(1e-4), &mut fed);
    rfl_core::mem::peak_rss_bytes()
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/status")]
fn an_added_client_stays_under_its_peak_byte_ceiling() {
    rfl_tensor::set_thread_budget(2);
    let small = peak_after_run(24);
    assert!(small > 0, "VmHWM is unreadable");
    let large = peak_after_run(48);
    let per_client = large.saturating_sub(small) as f64 / 24.0;
    println!(
        "peak RSS {:.2} MB at 24 clients, {:.2} MB at 48: {:.0} KB per added client",
        small as f64 / 1e6,
        large as f64 / 1e6,
        per_client / 1e3
    );
    assert!(
        per_client <= BYTES_PER_ADDED_CLIENT_CEILING,
        "{:.0} KB of peak RSS per added client, above the ceiling of {:.0} KB",
        per_client / 1e3,
        BYTES_PER_ADDED_CLIENT_CEILING / 1e3
    );
}
