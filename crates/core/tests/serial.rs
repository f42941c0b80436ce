//! Who runs client jobs: `parallel: false` means the round thread and
//! nobody else, and `parallel: true` adds only the kernel pool's
//! `rfl-worker`s.
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
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Remembers which threads asked for a shard, and their names.
struct Watched {
    inner: MaterializedSource,
    callers: Mutex<HashMap<ThreadId, Option<String>>>,
}

impl ClientDataSource for Watched {
    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }
    fn num_samples(&self, k: usize) -> usize {
        self.inner.num_samples(k)
    }
    fn dataset(&self, k: usize) -> Dataset {
        let me = std::thread::current();
        let mut callers = self.callers.lock().expect("caller set poisoned");
        callers.insert(me.id(), me.name().map(str::to_owned));
        self.inner.dataset(k)
    }
}

/// The threads that asked for shards in four rounds of a lazy federation
/// (eight missing clients a round) and one per-client evaluation, which
/// regenerates every shard through the source on its fan-out.
fn shard_callers(parallel: bool) -> HashMap<ThreadId, Option<String>> {
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
        parallel,
        ..FlConfig::cross_device()
    };
    let source = Arc::new(Watched {
        inner: MaterializedSource::from_federated(&data),
        callers: Mutex::new(HashMap::new()),
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
    assert_eq!(fed.evaluate_per_client().len(), 16);
    let callers = source.callers.lock().expect("caller set poisoned");
    callers.clone()
}

/// At budget 4, a serial lazy federation materializes on the round thread
/// alone; a parallel one adds the kernel pool's workers and nobody else.
#[test]
fn client_jobs_run_on_the_round_thread_and_the_kernel_pool_alone() {
    rfl_tensor::set_thread_budget(4);
    let me = std::thread::current().id();

    let serial = shard_callers(false);
    assert_eq!(
        serial.keys().copied().collect::<Vec<_>>(),
        [me],
        "a serial federation asked for shards from other threads: {serial:?}"
    );

    let parallel = shard_callers(true);
    let strangers: Vec<_> = (parallel.iter())
        .filter(|&(&id, name)| id != me && name.as_deref() != Some("rfl-worker"))
        .collect();
    assert!(
        strangers.is_empty(),
        "shards asked for off the round thread and the pool: {strangers:?}"
    );
}
