//! Sharded, lazily materialized client registry for cross-device scale.
//!
//! A simulated federation used to hold every client — model replica,
//! dataset shard, scratch buffers — live for the whole run: `O(N·d)` server
//! memory, which at a million registered clients is absurd when only 1% of
//! them participate per round. In lazy mode, a registered client is nothing
//! but a *descriptor*: its id plus the deterministic recipes (federation
//! seed, model/optimizer factories, data source) that rebuild it on demand.
//! The heavyweight objects exist only while the client is **active** in the
//! current round; eviction keeps just the client's durable half (RNG
//! position, epoch-shuffle cursor, optimizer state, flat parameters, EF
//! residual) in an index-hashed shard map.
//!
//! # Shells
//!
//! The other half of a client — its model replica and the step loop's
//! buffers, a `ClientShell` — is not durable and not thrown away either:
//! [`ClientRegistry::hibernate`] takes the client apart, files the durable
//! half in its shard and puts the shell on a free list;
//! [`ClientRegistry::materialize`] pops one, overwrites every parameter
//! with the client's own, and hands back a client whose first step is
//! already warm. A shell is only *built* when the list is empty, and each
//! materialization says whether it had to
//! ([`ClientRegistry::materialize_counted`]): the trace spans add those
//! flags up, which stays exact with several threads materializing at once
//! where a before/after reading of a shared counter would not. Building one
//! per sampled client instead cost 60 allocator calls per client-round —
//! made on one thread, used on a second, freed on a third, as the round
//! engine then ran — and 60 % of a lazy round's CPU inside libc
//! (EXPERIMENTS.md "Why a lazy round spent 60 % of its CPU in the
//! allocator").
//!
//! The list needs no cap: a shell is built only when every shell built
//! before it is inside a live client, so the list never holds more shells
//! than clients were live at once. A training request keeps one client per
//! worker live — each job wakes its client, trains it and hibernates it
//! before taking the next — so a lazy FedAvg run builds at most a
//! fan-out's width of shells; a request that leaves its clients live until the
//! next round (a δ probe, a local evaluation) holds a cohort's worth. It is
//! one `Mutex<Vec<_>>` locked twice per client-round, for one `pop` and one
//! `push`, by up to a thread budget's worth of workers; shard it only with a
//! measurement that says the lock is hot.
//!
//! A recycled shell arrives dirty and differently shaped — the previous
//! tenant may have had a smaller shard (a clamped batch), trained under an
//! MMD rule, or been evaluated — and none of that may show. It does not:
//! `write_params` overwrites every parameter, `zero_grads` opens every
//! step, and every buffer of the step loop, the models, their layers and
//! their `Workspace`s is cleared or resized and then fully overwritten
//! before it is read (the shapes already changed from step to step within
//! one client: the ragged last batch of `compute_delta`). The
//! `a_shells_history_is_invisible` test pins it for all four model
//! families, large tenant first and small tenant first.
//!
//! # Determinism
//!
//! Nothing about a client's state may depend on *when* it is first
//! materialized, or around which shell. Client `k`'s RNG stream is keyed on
//! `(seed, k)` (the same `seed ^ k·φ64` offset [`crate::client::Client::new`]
//! always used — never on construction order), and a fresh client starts
//! from the *initial* global parameters exactly as an eagerly built one
//! does. Hibernate → materialize round-trips bit-exactly, so an eager run
//! and a lazy run of the same federation produce identical losses and
//! parameters (pinned by the `eager ≡ lazy` e2e test).
//!
//! # Sharding
//!
//! Persisted state lives in `thread_budget()` shards behind per-shard
//! mutexes, hashed by client index (`k % shards`). They are sharded because
//! they are touched concurrently: a round's selection is woken and
//! hibernated by the plane's `fan_out` workers (the round thread and the
//! kernel pool's `rfl-worker`s; the round thread alone under
//! `parallel: false`), each job its own client's, so a worker only contends
//! on the shard owning its current client. Whatever a client computes lands
//! in its selection slot, so results are independent of scheduling.

use crate::client::{Client, ClientPersist, ClientShell};
use crate::federation::{FlConfig, ModelFactory, OptimizerFactory};
use rfl_data::{Dataset, FederatedData};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Deterministic, thread-safe recipe for client datasets. Implementations
/// must return bit-identical datasets for repeated calls with the same `k` —
/// lazy clients regenerate their shard on every wake.
pub trait ClientDataSource: Send + Sync {
    /// Number of registered clients.
    fn num_clients(&self) -> usize;
    /// `n_k` — sample count of client `k`'s shard, *without* materializing
    /// it (aggregation weights for a million clients must stay O(N) ints).
    fn num_samples(&self, k: usize) -> usize;
    /// Materializes client `k`'s dataset.
    fn dataset(&self, k: usize) -> Dataset;
}

/// A [`ClientDataSource`] over pre-materialized datasets (the classic
/// [`FederatedData`] layout) — used to run existing federations in lazy
/// mode and to pin eager ≡ lazy equivalence.
pub struct MaterializedSource {
    clients: Arc<Vec<Dataset>>,
}

impl MaterializedSource {
    pub fn new(clients: Vec<Dataset>) -> Self {
        MaterializedSource {
            clients: Arc::new(clients),
        }
    }

    /// Borrows the client datasets out of a [`FederatedData`] (cloned once;
    /// the test set stays with the caller).
    pub fn from_federated(data: &FederatedData) -> Self {
        MaterializedSource::new(data.clients.clone())
    }
}

impl ClientDataSource for MaterializedSource {
    fn num_clients(&self) -> usize {
        self.clients.len()
    }

    fn num_samples(&self, k: usize) -> usize {
        self.clients[k].len()
    }

    fn dataset(&self, k: usize) -> Dataset {
        self.clients[k].clone()
    }
}

/// The lazy-mode backing store: construction recipes plus the sharded
/// persist map. See the module docs.
pub struct ClientRegistry {
    source: Arc<dyn ClientDataSource>,
    model: ModelFactory,
    optimizer: OptimizerFactory,
    batch_size: usize,
    clip_grad_norm: Option<f32>,
    seed: u64,
    /// The global initialization every client starts from — a client first
    /// sampled in round 40 must begin exactly where an eager replica would
    /// have: at the round-0 global, not the current one (its download
    /// installs the current global only if the link delivers).
    init_global: Vec<f32>,
    shards: Vec<Mutex<HashMap<usize, ClientPersist>>>,
    /// Shells of hibernated clients, waiting for the next materialization.
    /// One lock, taken twice per client-round (see the module docs before
    /// sharding it).
    shells: Mutex<Vec<ClientShell>>,
    /// Shells ever built — a statistic for the tests (the spans count the
    /// flag each [`ClientRegistry::materialize_counted`] call returns).
    shells_built: AtomicU64,
}

impl ClientRegistry {
    pub fn new(
        source: Arc<dyn ClientDataSource>,
        model: ModelFactory,
        optimizer: OptimizerFactory,
        cfg: &FlConfig,
        seed: u64,
        init_global: Vec<f32>,
    ) -> Self {
        let n_shards = rfl_tensor::thread_budget().max(1);
        ClientRegistry {
            source,
            model,
            optimizer,
            batch_size: cfg.batch_size,
            clip_grad_norm: cfg.clip_grad_norm,
            seed,
            init_global,
            shards: (0..n_shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shells: Mutex::new(Vec::new()),
            shells_built: AtomicU64::new(0),
        }
    }

    pub(crate) fn source(&self) -> &Arc<dyn ClientDataSource> {
        &self.source
    }

    /// Clients currently hibernated (previously sampled, not active).
    pub fn num_persisted(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("registry shard poisoned").len())
            .sum()
    }

    fn shard_of(&self, k: usize) -> usize {
        k % self.shards.len()
    }

    /// Shells built so far. A shell is only built when the list is empty,
    /// that is when every shell built before it is inside a live client, so
    /// this is also the most clients that were ever live at once.
    #[cfg(test)]
    pub(crate) fn shells_built(&self) -> u64 {
        self.shells_built.load(Ordering::Relaxed)
    }

    /// Shells on the list right now.
    #[cfg(test)]
    pub(crate) fn shells_idle(&self) -> usize {
        self.shells.lock().expect("shell list poisoned").len()
    }

    /// Builds the live simulation object for client `k`: its persisted
    /// state — or, the first time, the initial state from the deterministic
    /// recipes — assembled around a recycled shell and its regenerated
    /// dataset. Takes `&self` — several threads materialize a selection at
    /// once, contending only on the per-shard locks and, for one `pop`, on
    /// the shell list.
    pub fn materialize(&self, k: usize) -> Client {
        self.materialize_counted(k).0
    }

    /// [`ClientRegistry::materialize`], also saying whether the client's
    /// shell had to be built (`true`) or came off the list — per call, so
    /// concurrent materialization sites can each keep an exact tally.
    pub(crate) fn materialize_counted(&self, k: usize) -> (Client, bool) {
        let persist = self.shards[self.shard_of(k)]
            .lock()
            .expect("registry shard poisoned")
            .remove(&k);
        let recycled = self.shells.lock().expect("shell list poisoned").pop();
        let fresh_shell = recycled.is_none();
        let shell = recycled.unwrap_or_else(|| {
            self.shells_built.fetch_add(1, Ordering::Relaxed);
            ClientShell::new(self.model.build(self.seed))
        });
        let data = self.source.dataset(k);
        let persist = persist.unwrap_or_else(|| {
            ClientPersist::initial(
                k,
                data.len(),
                self.optimizer.build(),
                self.batch_size,
                self.seed,
                self.init_global.clone(),
            )
        });
        let client = Client::assemble(k, shell, data, persist, self.clip_grad_norm);
        (client, fresh_shell)
    }

    /// Evicts a client: its durable state goes to its shard, its shell back
    /// on the list, its dataset away.
    pub fn hibernate(&self, client: Client) {
        let k = client.id();
        let (persist, shell) = client.take_apart();
        self.shards[self.shard_of(k)]
            .lock()
            .expect("registry shard poisoned")
            .insert(k, persist);
        self.shells.lock().expect("shell list poisoned").push(shell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LocalRule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfl_data::synth::gaussian::GaussianMixtureSpec;

    fn source(n_clients: usize, seed: u64) -> (MaterializedSource, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(20 * n_clients, None, &mut rng);
        let parts = rfl_data::partition::iid(20 * n_clients, n_clients, &mut rng);
        let test = spec.generate(20, None, &mut rng);
        let data = FederatedData::from_partition(&pool, &parts, test);
        (MaterializedSource::from_federated(&data), data.test.clone())
    }

    fn registry(seed: u64) -> ClientRegistry {
        let (src, _) = source(4, seed);
        let model = ModelFactory::logistic(10, 4, 0.0);
        let init = model.build(seed);
        let mut init_global = Vec::new();
        init.read_params(&mut init_global);
        let mut cfg = FlConfig::cross_silo();
        cfg.batch_size = 5;
        ClientRegistry::new(
            Arc::new(src),
            model,
            OptimizerFactory::sgd(0.1),
            &cfg,
            seed,
            init_global,
        )
    }

    #[test]
    fn materialization_order_does_not_change_clients() {
        let reg_a = registry(3);
        let reg_b = registry(3);
        // Build in opposite orders; every client must be bit-identical.
        let mut a: Vec<Client> = (0..4).map(|k| reg_a.materialize(k)).collect();
        let mut b: Vec<Client> = (0..4).rev().map(|k| reg_b.materialize(k)).collect();
        b.reverse();
        for (ca, cb) in a.iter_mut().zip(b.iter_mut()) {
            let ra = ca.train_local(3, &LocalRule::Plain);
            let rb = cb.train_local(3, &LocalRule::Plain);
            assert_eq!(ra.loss, rb.loss, "client {} diverged", ca.id());
        }
    }

    #[test]
    fn hibernate_then_materialize_resumes_training() {
        // Two identical registries: one client stays live, its twin is
        // evicted and revived mid-run; both must train bit-identically.
        let reg = registry(5);
        let reg2 = registry(5);
        let mut live = reg.materialize(2);
        let mut cycled = reg2.materialize(2);

        live.train_local(2, &LocalRule::Plain);
        cycled.train_local(2, &LocalRule::Plain);
        reg2.hibernate(cycled);
        assert_eq!(reg2.num_persisted(), 1);
        let mut cycled = reg2.materialize(2);
        assert_eq!(reg2.num_persisted(), 0);
        let ra = live.train_local(4, &LocalRule::Plain);
        let rb = cycled.train_local(4, &LocalRule::Plain);
        assert_eq!(ra.loss, rb.loss);
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        live.read_params(&mut wa);
        cycled.read_params(&mut wb);
        assert_eq!(wa, wb);
    }

    /// What a tenant's run leaves behind that a caller can read, as bits.
    #[derive(Debug, PartialEq)]
    struct Footprint {
        losses: Vec<u32>,
        params: Vec<u32>,
        delta: Vec<u32>,
        eval: crate::eval::EvalResult,
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const BATCH: usize = 8;

    /// A two-client registry per model family: client 0 holds 20 samples
    /// (full batches), client 1 holds 5 (every batch clamped).
    fn two_tenant_registry(model: ModelFactory, pool: &Dataset) -> ClientRegistry {
        let big: Vec<usize> = (0..20).collect();
        let small: Vec<usize> = (20..25).collect();
        let src = MaterializedSource::new(vec![pool.select(&big), pool.select(&small)]);
        let mut init_global = Vec::new();
        model.build(3).read_params(&mut init_global);
        let mut cfg = FlConfig::cross_silo();
        cfg.batch_size = BATCH;
        cfg.clip_grad_norm = Some(5.0);
        ClientRegistry::new(
            Arc::new(src),
            model,
            OptimizerFactory::rmsprop(0.01),
            &cfg,
            3,
            init_global,
        )
    }

    fn mmd(c: &Client) -> LocalRule {
        LocalRule::Mmd {
            lambda: 0.1,
            target: Arc::new(vec![0.25; c.feature_dim()]),
        }
    }

    /// The first tenant dirties everything a shell owns: MMD steps fill
    /// `mu`/`dfeatures`, `compute_delta` and `evaluate_local` leave
    /// eval-mode caches and a ragged last batch behind.
    fn first_tenant(reg: &ClientRegistry, k: usize) {
        let mut c = reg.materialize(k);
        let rule = mmd(&c);
        c.train_local(3, &rule);
        c.compute_delta(BATCH - 1);
        c.evaluate_local(BATCH + 3);
        reg.hibernate(c);
    }

    fn second_tenant(reg: &ClientRegistry, k: usize) -> Footprint {
        let mut c = reg.materialize(k);
        let rule = mmd(&c);
        let mut losses = Vec::new();
        for rule in [&LocalRule::Plain, &LocalRule::Plain, &rule] {
            let r = c.train_local(2, rule);
            losses.extend([r.loss.to_bits(), r.reg_loss.to_bits()]);
        }
        let delta = bits(&c.compute_delta(BATCH));
        let eval = c.evaluate_local(BATCH);
        let mut params = Vec::new();
        c.read_params(&mut params);
        Footprint {
            losses,
            params: bits(&params),
            delta,
            eval,
        }
    }

    #[test]
    fn a_shells_history_is_invisible() {
        use rfl_data::synth::{image::SynthImageSpec, text::SynthTextSpec};
        use rfl_nn::{CnnConfig, LstmConfig};
        let mut rng = StdRng::seed_from_u64(21);
        let dense = GaussianMixtureSpec::default_spec().generate(25, None, &mut rng);
        let images = SynthImageSpec::mnist_like().generate(25, &mut rng);
        let (tokens, _) = SynthTextSpec::sent140_like().generate_users(1, 25, &mut rng);
        let families = [
            ("logistic", ModelFactory::logistic(10, 4, 1e-3), &dense),
            (
                "linear_net",
                ModelFactory::linear_net(10, 6, 4, 1e-3),
                &dense,
            ),
            ("cnn", ModelFactory::cnn(CnnConfig::mnist_like()), &images),
            (
                "lstm",
                ModelFactory::lstm(LstmConfig::sent140_like()),
                &tokens,
            ),
        ];
        for (name, model, pool) in families {
            // Big tenant first, then small; then the reverse.
            for (first, second) in [(0, 1), (1, 0)] {
                let recycled = two_tenant_registry(model, pool);
                first_tenant(&recycled, first);
                assert_eq!(recycled.shells_idle(), 1);
                let got = second_tenant(&recycled, second);
                assert_eq!(
                    recycled.shells_built(),
                    1,
                    "{name}: the shell was not reused"
                );

                let empty_list = two_tenant_registry(model, pool);
                let want = second_tenant(&empty_list, second);
                assert_eq!(
                    got, want,
                    "{name}: tenant {first} leaked into tenant {second}"
                );
            }
        }
    }

    #[test]
    fn fresh_clients_start_at_the_initial_global() {
        let reg = registry(7);
        let c = reg.materialize(3);
        let mut params = Vec::new();
        c.read_params(&mut params);
        assert_eq!(params, reg.init_global);
    }
}
