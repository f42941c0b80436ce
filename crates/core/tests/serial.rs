//! `parallel: false` means the round thread and nobody else.
//!
//! One test on purpose: the thread budget is process-wide, and a test
//! beside this one that lowered it to 1 would make this one pass whatever
//! the plane did.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::algorithms::FedAvg;
use rfl_core::{
    ClientDataSource, Federation, FlConfig, MaterializedSource, ModelFactory, OptimizerFactory,
    Trainer,
};
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::{Dataset, FederatedData};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Remembers which threads asked for a shard.
struct Watched {
    inner: MaterializedSource,
    callers: Mutex<HashSet<ThreadId>>,
}

impl ClientDataSource for Watched {
    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }
    fn num_samples(&self, k: usize) -> usize {
        self.inner.num_samples(k)
    }
    fn dataset(&self, k: usize) -> Dataset {
        let me = std::thread::current().id();
        self.callers.lock().expect("caller set poisoned").insert(me);
        self.inner.dataset(k)
    }
}

/// A serial lazy federation materializes its cohorts — eight missing
/// clients a round, twice the budget — on the thread that runs the round.
#[test]
fn a_serial_lazy_federation_materializes_on_the_round_thread_alone() {
    rfl_tensor::set_thread_budget(4);
    let mut rng = StdRng::seed_from_u64(5);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(320, None, &mut rng);
    let parts = rfl_data::partition::iid(320, 16, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, spec.generate(40, None, &mut rng));
    let cfg = FlConfig {
        rounds: 4,
        local_steps: 2,
        batch_size: 10,
        sample_ratio: 0.5,
        eval_every: 100,
        parallel: false,
        ..FlConfig::cross_device()
    };
    let source = Arc::new(Watched {
        inner: MaterializedSource::from_federated(&data),
        callers: Mutex::new(HashSet::new()),
    });
    let mut fed = Federation::lazy(
        source.clone(),
        data.test.clone(),
        ModelFactory::logistic(10, 4, 0.0),
        OptimizerFactory::sgd(0.1),
        &cfg,
        5,
    );
    Trainer::new(cfg).run(&mut FedAvg, &mut fed);
    let callers = source.callers.lock().expect("caller set poisoned");
    assert_eq!(
        *callers,
        HashSet::from([std::thread::current().id()]),
        "a serial federation asked for shards from other threads"
    );
}
