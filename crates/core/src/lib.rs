//! # rfl-core
//!
//! Federated-learning framework and the algorithms of *Distribution-
//! Regularized Federated Learning on Non-IID Data* (ICDE 2023).
//!
//! The crate runs a synchronous FL system: a [`Federation`] holds the
//! server's state (flat global parameters, aggregation weights, the
//! streaming fold, evaluation) over one client plane ([`plane`]) — clients
//! in this process, asleep between requests (a record of optimizer state
//! and seeded RNG beside a data shard, woken for each request it answers)
//! behind a byte-accurate simulated [`comm::Transport`] ([`comm::PerfectTransport`],
//! or [`comm::FaultyTransport`] with seeded drops, latency, retries and
//! deadlines), or real client processes behind [`comm::SocketTransport`].
//! One round driver ([`round`]) runs the phase sequence every algorithm
//! shares; an [`Algorithm`] is its state plus the hooks it overrides, and
//! [`Trainer::try_run`] refuses an algorithm × back-end pair the plane
//! cannot serve before round 0.
//!
//! ## Algorithms
//!
//! | Algorithm | Paper | Key mechanism |
//! |---|---|---|
//! | [`algorithms::FedAvg`] | McMahan et al. | local SGD + weighted averaging |
//! | [`algorithms::FedProx`] | Li et al. | proximal term `μ‖w − w_global‖²/2` |
//! | [`algorithms::Scaffold`] | Karimireddy et al. | control variates `c, c_k` |
//! | [`algorithms::QFedAvg`] | Li et al. | q-fair aggregation |
//! | [`algorithms::RFedAvg`] | **this paper, Alg. 1** | delayed per-client δ maps, `O(dN²)` broadcast |
//! | [`algorithms::RFedAvgPlus`] | **this paper, Alg. 2** | double sync + averaged δ, `O(dN)` broadcast |
//!
//! ## The distribution regularizer
//!
//! [`mmd`] implements the empirical (linear-kernel) maximum mean discrepancy
//! between clients' mean feature embeddings `δ_k = (1/n_k) Σ φ(x)`. During
//! local SGD the regularizer's gradient `2λ(μ_B − δ_target)/B` is injected
//! at the feature layer through the model's feature hook (Eq. 3–5).
//!
//! ```
//! use rfl_core::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = rfl_data::synth::gaussian::GaussianMixtureSpec::default_spec();
//! let pool = data.generate(120, None, &mut rng);
//! let parts = rfl_data::partition::similarity(pool.labels(), 4, 0.0, &mut rng);
//! let test = data.generate(40, None, &mut rng);
//! let fed_data = rfl_data::FederatedData::from_partition(&pool, &parts, test);
//!
//! let cfg = FlConfig { rounds: 3, ..FlConfig::cross_silo() };
//! let factory = ModelFactory::logistic(10, 4, 1e-3);
//! let mut fed = Federation::new(&fed_data, factory, OptimizerFactory::sgd(0.1), &cfg, 7);
//! let mut algo = RFedAvgPlus::new(1e-2);
//! let history = Trainer::new(cfg).run(&mut algo, &mut fed);
//! assert_eq!(history.len(), 3);
//! ```

// The crate's few `unsafe` blocks (the reactor's system calls in
// `comm::sys`, the descriptor limit in `mem`) each state why they hold.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aggregate;
pub mod algorithms;
pub mod canonical;
pub mod client;
pub mod comm;
pub mod compress;
pub mod convex;
pub mod delta;
pub mod dp;
pub mod eval;
pub mod federation;
pub(crate) mod history;
pub mod mem;
pub mod mmd;
pub mod personalization;
pub mod plane;
pub mod registry;
pub mod round;
pub(crate) mod rules;
pub mod sampling;
#[cfg(test)]
pub(crate) mod testutil;
pub mod trainer;

pub use aggregate::StreamingAggregator;
pub use client::Client;
pub use comm::{
    FaultConfig, FaultStats, FaultyTransport, LatencyModel, MsgKind, PerfectTransport, Transport,
};
pub use federation::{Federation, FlConfig, ModelFactory, OptimizerFactory, StragglerModel};
pub use history::{History, RoundRecord};
pub use registry::{ClientDataSource, ClientRegistry, MaterializedSource};
pub use rules::LocalRule;
pub use trainer::{Algorithm, RoundOutcome, Trainer};

/// Convenient glob import for examples and binaries.
pub mod prelude {
    pub use crate::algorithms::{
        FedAvg, FedAvgM, FedProx, PowerOfChoice, QFedAvg, RFedAvg, RFedAvgPlus, Scaffold,
    };
    pub use crate::client::Client;
    pub use crate::comm::{
        CommStats, FaultConfig, FaultStats, FaultyTransport, LatencyModel, MsgKind,
        PerfectTransport, Transport,
    };
    pub use crate::federation::{
        Federation, FlConfig, ModelFactory, OptimizerFactory, StragglerModel,
    };
    pub use crate::history::{History, RoundRecord};
    pub use crate::trainer::{Algorithm, Trainer};
}
