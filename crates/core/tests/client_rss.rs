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
//! the data, not the clients' working state.
//!
//! Each run is a fresh process — this binary again, running only this test
//! with `CLIENT_RSS_LEG` naming the client count — so neither peak sits on
//! what the other run left with the allocator. While both ran in one
//! process, the 48-client peak (reached while its data is generated: the
//! image pool and the shards cut from it are alive at once) sat on the
//! 24-client run's leftovers, 17.2–17.4 MB after setup against 13.5–13.7
//! MB in a fresh process, and ten readings were 236–269 KB. Earlier
//! designs read more: 270–320 KB while rFedAvg+'s δ probe kept its cohort
//! of shells live until the next round, and 750–770 KB while a federation
//! kept a replica, its workspaces and its step buffers for every client
//! (EXPERIMENTS.md "One client lifecycle", "No client is live between
//! requests").
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
use std::process::Command;

const SAMPLES_PER_CLIENT: usize = 32;
const TEST_SAMPLES: usize = 200;
const ROUNDS: usize = 3;
const SEED: u64 = 17;
/// The variable that makes a run of this binary one leg: its client count.
const LEG: &str = "CLIENT_RSS_LEG";
/// The one test, which the legs re-run.
const TEST: &str = "an_added_client_stays_under_its_peak_byte_ceiling";
/// Peak resident bytes one added client may cost: a quarter above the
/// highest of ten readings with each leg in a fresh process (102–111 KB,
/// at peaks of 12.39–12.52 MB at 24 clients and 14.95–15.14 MB at 48; the
/// default test profile read 101–112 KB). Over one process the same gate
/// read 236–269 KB and held a ceiling of 319 KB.
const BYTES_PER_ADDED_CLIENT_CEILING: f64 = 139e3;

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

/// The peak resident set of a fresh process that ran over `clients`
/// clients: this test binary again, as one leg.
fn peak_of_a_fresh_run(clients: usize) -> u64 {
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
        .env(LEG, clients.to_string())
        .output()
        .expect("the leg starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the {clients}-client leg failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness prints the test's name on the same line.
    let peak = stdout.split("peak bytes: ").nth(1);
    peak.and_then(|p| p.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("the {clients}-client leg printed no peak:\n{stdout}"))
}

#[test]
fn an_added_client_stays_under_its_peak_byte_ceiling() {
    if let Ok(clients) = std::env::var(LEG) {
        rfl_tensor::set_thread_budget(2);
        let clients = clients.parse().expect("a client count");
        println!("peak bytes: {}", peak_after_run(clients));
        return;
    }
    let small = peak_of_a_fresh_run(24);
    assert!(small > 0, "VmHWM is unreadable");
    let large = peak_of_a_fresh_run(48);
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
