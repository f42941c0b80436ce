//! Gate: peak resident bytes one more client adds to a [`Federation::new`]
//! run.
//!
//! Runs `cnn_device`'s shape — the cifar-like CNN, 32 examples per client,
//! sample ratio 0.2, ten local steps, rFedAvg+ — for a few rounds over 24
//! clients and then over 48, at thread budget 2, and charges the growth of
//! the peak resident set between the two runs to the 24 added clients.
//!
//! Between requests a client is its record plus its shard, which the
//! federation keeps resident (32 images of 3 × 16 × 16 floats, 98 KB) and
//! shares with the caller's `FederatedData`: a `Dataset` clone is a
//! reference-count bump, so `Federation::new` adds no copy. The model
//! replicas, workspaces and step buffers live in the registry's shells, and
//! every request holds at most one per worker, so three rounds build two
//! shells whatever the client count. What sets the reading is therefore
//! the data, not the clients' working state. At 48 clients the peak is
//! reached while the data is generated: the image pool and the shards cut
//! from it are alive at once, two copies of every client's data, on top of
//! what the 24-client run left with the allocator (17.2–17.4 MB after
//! setup); `Federation::new` and the three rounds add nothing measurable.
//! At 24 clients the rounds set the peak (11.9–12.7 MB, against 8.9 MB
//! after setup). So the reading is two copies of a client's data plus the
//! smaller run's allocator leftovers, less the rounds' headroom at 24
//! clients: 236–269 KB over ten readings (peaks of 12.2–12.7 MB at 24
//! clients and 18.2–19.1 MB at 48). While `Federation::new` cloned every
//! shard, the same ten readings were 226–252 KB at peaks of 13.6–14.0 MB
//! and 19.3–20.0 MB: the clone raised both runs' peaks alike. While
//! rFedAvg+'s δ probe kept its cohort of shells live until the next round
//! (a fifth of the clients, 1.1 MB each after a train and a probe) this
//! read 270–320 KB, and a federation that kept a replica, its workspaces
//! and its step buffers for every client read 750–770 KB, after three
//! rounds had touched about half of its clients (EXPERIMENTS.md "One
//! client lifecycle", "No client is live between requests").
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
/// Peak resident bytes one added client may cost: a quarter above the
/// highest reading of the clone era (255 KB). The highest of today's ten
/// (269 KB) plus a quarter is 336 KB, above it, so it stays.
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
