//! `scale_lazy`'s generating source, shared by the tests that measure the
//! lazy registry (`persist_rss.rs` and `scale.rs`, each including this file
//! by `#[path]`): client `k`'s shard is a pure function of `(seed, k)`, so a
//! hibernated client rebuilds the identical data on every wake, and the
//! registry never stores data for a client.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::ClientDataSource;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::Dataset;
use rfl_tensor::Tensor;

pub const SAMPLES_PER_CLIENT: usize = 32;
pub const DIM: usize = 32;
pub const CLASSES: usize = 4;

pub const SPEC: GaussianMixtureSpec = GaussianMixtureSpec {
    dim: DIM,
    classes: CLASSES,
    sep: 2.0,
    noise: 1.0,
    mean_seed: 45,
};

pub struct GaussianSource {
    /// Class means, shared by every shard and hoisted out of the per-client
    /// path.
    means: Tensor,
    clients: usize,
    seed: u64,
}

impl GaussianSource {
    /// `clients` registered clients whose shards are keyed on `seed`.
    pub fn new(clients: usize, seed: u64) -> Self {
        GaussianSource {
            means: SPEC.means(),
            clients,
            seed,
        }
    }
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
        let key = self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(key);
        let shift = SPEC.random_shift(1.0, &mut rng);
        SPEC.generate_with_means(&self.means, SAMPLES_PER_CLIENT, Some(&shift), &mut rng)
    }
}
