//! Shared helpers for the algorithm unit tests.

use crate::compress::Compression;
use crate::federation::{Federation, FlConfig, ModelFactory, OptimizerFactory};
use crate::history::History;
use crate::registry::{ClientDataSource, MaterializedSource};
use crate::trainer::{Algorithm, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::FederatedData;
use std::sync::Arc;

/// A small strongly convex federation on a Gaussian mixture with the
/// similarity-`s` partition, suitable for fast algorithm unit tests.
pub(crate) fn convex_fed(similarity: f64, seed: u64, n_clients: usize) -> (Federation, FlConfig) {
    convex_fed_with(similarity, seed, n_clients, Compression::None)
}

/// [`convex_fed`] with `compression` as the upload policy.
pub(crate) fn convex_fed_with(
    similarity: f64,
    seed: u64,
    n_clients: usize,
    compression: Compression,
) -> (Federation, FlConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(40 * n_clients, None, &mut rng);
    let parts = rfl_data::partition::similarity(pool.labels(), n_clients, similarity, &mut rng);
    let test = spec.generate(200, None, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);
    let cfg = FlConfig {
        rounds: 10,
        local_steps: 5,
        batch_size: 10,
        sample_ratio: 1.0,
        eval_every: 1,
        parallel: false,
        clip_grad_norm: Some(10.0),
        delta_probe_batch: None,
        seed,
        compression,
    };
    let fed = Federation::new(
        &data,
        ModelFactory::linear_net(10, 6, 4, 1e-3),
        OptimizerFactory::sgd(0.1),
        &cfg,
        seed,
    );
    (fed, cfg)
}

/// 40 lazy clients of 10 samples each, a quarter sampled per round.
pub(crate) fn lazy_fed(seed: u64) -> (Federation, FlConfig) {
    lazy_fed_over(seed, |source| Arc::new(source))
}

/// [`lazy_fed`] behind whatever `wrap` puts in front of its data source.
pub(crate) fn lazy_fed_over(
    seed: u64,
    wrap: impl FnOnce(MaterializedSource) -> Arc<dyn ClientDataSource>,
) -> (Federation, FlConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(400, None, &mut rng);
    let parts = rfl_data::partition::iid(400, 40, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, spec.generate(40, None, &mut rng));
    let cfg = FlConfig {
        rounds: 8,
        local_steps: 2,
        batch_size: 5,
        sample_ratio: 0.25,
        eval_every: 100,
        ..FlConfig::cross_device()
    };
    let fed = Federation::lazy(
        wrap(MaterializedSource::from_federated(&data)),
        data.test.clone(),
        ModelFactory::logistic(10, 4, 0.0),
        OptimizerFactory::sgd(0.1),
        &cfg,
        seed,
    );
    (fed, cfg)
}

/// Runs `rounds` rounds of `algo` and returns the history.
pub(crate) fn run_rounds(
    algo: &mut dyn Algorithm,
    fed: &mut Federation,
    cfg: &FlConfig,
    rounds: usize,
) -> History {
    let cfg = FlConfig { rounds, ..*cfg };
    Trainer::new(cfg).run(algo, fed)
}

/// Every delivered upload of `selected`, materialized as `(client, params)`.
pub(crate) fn uploads(fed: &mut Federation, selected: &[usize]) -> Vec<(usize, Vec<f32>)> {
    let mut out = Vec::with_capacity(selected.len());
    fed.fold_uploads(selected, |_, k, params| out.push((k, params.to_vec())));
    out
}

/// The FedAvg round tail: fold the uploads of `selected` into the weighted
/// average and install it. Returns the delivered ids.
pub(crate) fn collect_aggregate(fed: &mut Federation, selected: &[usize]) -> Vec<usize> {
    let (delivered, average) = fed.collect_average(selected);
    if let Some(average) = average {
        fed.set_global(average);
    }
    delivered
}
