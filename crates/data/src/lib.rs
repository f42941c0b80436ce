//! # rfl-data
//!
//! Synthetic federated datasets and non-IID partitioners for the rFedAvg
//! reproduction.
//!
//! The paper evaluates on MNIST, CIFAR10, Sent140, and FEMNIST. Those
//! corpora are not available offline, so this crate provides *statistically
//! analogous synthetic generators* (see `DESIGN.md` §3 for the substitution
//! arguments) plus every partitioning scheme the paper uses:
//!
//! * [`partition::similarity`] — the paper's label-skew scheme: allocate
//!   `s%` of the data IID, sort the rest by label, and deal contiguous
//!   shards to clients (`s = 0%` totally non-IID, `s = 100%` IID);
//! * [`partition::iid`] — uniform shuffle-and-deal;
//! * [`partition::by_user`] — group samples by their generating user
//!   (Sent140/FEMNIST-style natural feature + quantity skew);
//! * [`partition::dirichlet`] — label-Dirichlet skew (a common alternative,
//!   used by ablation experiments);
//! * [`partition::quantity_skew`] — power-law quantity skew.
//!
//! ```
//! use rfl_data::synth::image::SynthImageSpec;
//! use rfl_data::partition;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let ds = SynthImageSpec::mnist_like().generate(200, &mut rng);
//! let parts = partition::similarity(ds.labels(), 10, 0.0, &mut rng);
//! assert_eq!(parts.len(), 10);
//! ```

pub mod batch;
pub mod dataset;
pub mod partition;
pub mod stats;
pub mod synth;

pub use batch::BatchSampler;
pub use dataset::{Dataset, ExampleKind, Examples, FederatedData};
