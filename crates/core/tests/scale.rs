//! Scale gate: memory follows the sampled cohort, not the registry.
//!
//! Streamed-selection FedAvg rounds on [`Federation::lazy`] over a source that
//! *generates* each client's shard on demand, so a registered client that is
//! never sampled costs a descriptor in the sharded registry and nothing
//! else. 100,000 registered clients at 1 % and 1,000,000 at 0.1 % both
//! sample 1,000 a round, so the permitted `O(d + sampled)` term cancels and
//! the shared ceiling isolates the forbidden `O(N)` one: eagerly
//! materializing the smaller federation alone holds ~500 MB of datasets and
//! replicas.
//!
//! This file holds exactly one test function: the peak resident set is
//! process-wide, and a sibling test's memory would be charged to the legs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::FedAvg;
use rfl_core::{ClientDataSource, Federation, FlConfig, ModelFactory, OptimizerFactory, Trainer};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::Dataset;
use rfl_tensor::Tensor;
use std::sync::Arc;

const SAMPLES_PER_CLIENT: usize = 32;
const DIM: usize = 32;
const CLASSES: usize = 4;
const SEED: u64 = 7;
/// Peak-RSS ceiling of either leg. They measure about 8 MB and 12 MB: a
/// training job holds one live client per worker, so the cohort's
/// datasets and replicas are never resident at once.
const RSS_CEILING_BYTES: u64 = 64 * 1024 * 1024;

const SPEC: GaussianMixtureSpec = GaussianMixtureSpec {
    dim: DIM,
    classes: CLASSES,
    sep: 2.0,
    noise: 1.0,
    mean_seed: 45,
};

/// Client `k`'s shard is a pure function of `(seed, k)`: a hibernated client
/// rebuilds the identical data on every wake, and the registry never stores
/// data for unsampled clients.
struct GaussianSource {
    /// Class means, shared by every shard and hoisted out of the per-client
    /// path.
    means: Tensor,
    clients: usize,
}

impl ClientDataSource for GaussianSource {
    fn num_clients(&self) -> usize {
        self.clients
    }
    fn num_samples(&self, _k: usize) -> usize {
        SAMPLES_PER_CLIENT
    }
    fn dataset(&self, k: usize) -> Dataset {
        // Same (seed, id) keying discipline as the client RNG streams.
        let mut rng = StdRng::seed_from_u64(SEED ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let shift = SPEC.random_shift(1.0, &mut rng);
        SPEC.generate_with_means(&self.means, SAMPLES_PER_CLIENT, Some(&shift), &mut rng)
    }
}

/// Two streamed-selection FedAvg rounds over `clients` registered clients; returns
/// the leg's final train loss and peak resident bytes.
fn run_leg(clients: usize, sample_ratio: f32) -> (f32, u64) {
    assert!(
        rfl_core::mem::reset_peak_rss(),
        "cannot reset VmHWM, so the second leg would inherit the first one's peak"
    );
    let cfg = FlConfig {
        rounds: 2,
        local_steps: 1,
        batch_size: 8,
        sample_ratio,
        eval_every: usize::MAX,
        clip_grad_norm: None,
        seed: SEED,
        ..FlConfig::cross_device()
    };
    let source = Arc::new(GaussianSource {
        means: SPEC.means(),
        clients,
    });
    let mut fed = Federation::lazy(
        source,
        SPEC.generate(64, None, &mut StdRng::seed_from_u64(SEED)),
        ModelFactory::logistic(DIM, CLASSES, 0.0),
        OptimizerFactory::sgd(0.05),
        &cfg,
        SEED,
    );
    let h = Trainer::new(cfg)
        .pipelined()
        .run(&mut FedAvg::new(), &mut fed);
    let last = h.records().last().expect("two rounds ran");
    // 1,000,000 × 0.001f32 rounds up to 1,001.
    assert!(
        (1_000..=1_001).contains(&last.participants),
        "{clients} clients: {} sampled",
        last.participants
    );
    (last.train_loss, rfl_core::mem::peak_rss_bytes())
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/status")]
fn peak_rss_follows_the_cohort_from_100k_to_1m_registered_clients() {
    for (clients, sample_ratio) in [(100_000, 0.01), (1_000_000, 0.001)] {
        let (loss, peak) = run_leg(clients, sample_ratio);
        assert!(loss.is_finite(), "{clients} clients diverged: loss {loss}");
        assert!(
            peak <= RSS_CEILING_BYTES,
            "{clients} registered clients peaked at {peak} resident bytes, \
             above the ceiling of {RSS_CEILING_BYTES}"
        );
        println!("{clients} registered: peak RSS {peak} bytes, loss {loss}");
    }
}
