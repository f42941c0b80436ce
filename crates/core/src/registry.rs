//! Sharded, lazily materialized client registry: every in-process
//! federation's clients.
//!
//! A simulated federation used to hold every client — model replica,
//! dataset shard, scratch buffers — live for the whole run: `O(N·d)` server
//! memory, which at a million registered clients is absurd when only 1% of
//! them participate per round, and a replica per client even where a fifth
//! of them train per round. Here a registered client is nothing but a
//! *descriptor*: its id plus the deterministic recipes (federation seed,
//! model/optimizer factories, data source) that rebuild it on demand. The
//! heavyweight objects exist only while a request runs on the client;
//! hibernation keeps just the client's durable half, packed into one flat
//! record (see "Records" below) in its shard's arena. The dataset shard is
//! the source's: [`MaterializedSource`] (what [`crate::Federation::new`]
//! runs on) keeps it resident and each wake shares it (a [`Dataset`] clone
//! is a reference-count bump), a generating source builds it again.
//!
//! # Records
//!
//! A hibernated client is one run of 32-bit words: the xoshiro state, the
//! learning rate, the optimizer's state, the EF residual, SCAFFOLD's `c_k`,
//! and the sampler's cursor and epoch order at the narrowest integer width
//! that holds its indices (layout in `client.rs`). A record has one shape
//! for the client's life: every shell the registry builds holds `d` zeros
//! of optimizer state under RMSProp, of residual under compression and of
//! `c_k` once SCAFFOLD reserved them before any wake, else none, and a
//! first wake zero-fills all three. So the shape and the shard give a
//! record's length, and the record stores neither it nor the sampler's
//! `n`. For `scale_lazy`'s client — logistic 32 → 4, 32 examples, SGD —
//! that is 18 words, and with its index entry 86–88 resident bytes
//! (`tests/persist_rss.rs` holds it to 92; EXPERIMENTS.md "A client's
//! record has one shape for life").
//!
//! The records of a shard live in its arena: 64 KiB chunks of words that
//! are never reallocated (a record longer than a chunk gets one of its
//! own), and an index from client id (a `u32`) to the word offset of its
//! slot. No record has a malloc chunk of its own, and a growing shard
//! never holds two copies of its records, as one growing vector would
//! while it reallocates. A wake unpacks the slot into the shell and marks
//! the index entry awake; a second wake of an awake client panics. A
//! client's first hibernation reserves its slot at the arena's tail, and
//! every later one packs the record into that slot: a record never moves,
//! so the arena holds no word but its records'.
//!
//! A record holds no parameters. In a round that
//! [`crate::round::run_round`] drives, a sleeping client's are dead across
//! rounds: every request that reads them runs after a broadcast that
//! reached the client, and that broadcast overwrites them. Within a round
//! the one reader of a trained sleeper's parameters is rFedAvg's δ probe
//! before the upload, and the training request already keeps them: each
//! job reads its client's parameters into its reply slot, the upload,
//! before the hibernation. So the plane's lifecycle is three rules: a wake
//! installs the trained model of the client's upload, else the last
//! broadcast when the client is owed it (the plane keeps that one copy, not
//! one per record), else NaN — deterministic, and loud if read; a client's
//! very first wake, handed nothing, holds the initial global, as every
//! client does before anything reached it; and a broadcast voids the
//! uploads and the δ request's maps. A claim takes a client's reply once,
//! and only one a request since the last broadcast left: any other claim
//! is refused. No parameter lands in a record, and a request that only
//! reads leaves what the plane keeps as it was, so the next wake installs
//! the same parameters. A caller that drives requests itself
//! can see what a record drops: a client trained, then missed by a
//! broadcast, wakes at NaN, not at the model it trained, and what a
//! `Federation::with_client` call does to the parameters is gone with the
//! call (`Federation::train_selected`, `Federation::with_client`).
//!
//! Waking unpacks the record into a recycled shell and hibernating packs
//! it back, bit-exactly in every durable field, straight from and into the
//! slot: a warm wake → train → hibernate cycle copies the record nowhere
//! else and allocates nothing for it. A client's first wake has no record:
//! the shell is restarted as that client, which is what unpacking its
//! initial record would leave. The index stays `O(persisted)`: a dense
//! array over every registered id would be the `O(N)` term
//! `tests/scale.rs` forbids.
//!
//! # Shells
//!
//! The rest of a live client — its model replica, RNG, sampler, optimizer,
//! residual and the step loop's buffers, a `ClientShell` — is working
//! state, and not thrown away either: [`ClientRegistry::hibernate`] takes
//! the client apart, files its record in its shard and puts the shell on a
//! free list; a wake (`ClientRegistry::wake`) pops one, overwrites every
//! parameter and every durable field, and hands back a client whose first
//! step is already warm. A shell is only *built* when the list is empty,
//! and each wake says whether it had to: the trace spans add those
//! flags up, which stays exact with several threads materializing at once
//! where a before/after reading of a shared counter would not. Building one
//! per sampled client instead cost 60 allocator calls per client-round —
//! made on one thread, used on a second, freed on a third, as the round
//! engine then ran — and 60 % of a lazy round's CPU inside libc
//! (EXPERIMENTS.md "Why a lazy round spent 60 % of its CPU in the
//! allocator").
//!
//! The list needs no cap: a shell is built only when every shell built
//! before it is in use — inside a live client — so the list never holds
//! more shells than were in use at once. Every request of the in-process
//! plane is one job per client — wake it, answer, hibernate it — and a
//! worker takes its next client only once it has put the last one back, so
//! a run builds at most its widest fan-out's worth of shells, whatever the
//! algorithm: two at thread budget 2, where a δ probe that kept its cohort
//! live until the next round built a cohort's worth
//! (`federation::shell_tests::the_shell_list_is_bounded_and_leaks_nothing`
//! holds six algorithms to it). Nothing trims the list either: the plane
//! never leaves more on it than that, and a caller that materializes
//! clients itself (`benchmark/`'s registry probe holds 10,000 live) gets
//! back on it what it hibernates. It is one `Mutex<Vec<_>>` locked twice
//! per client-request, for one `pop` and one `push`, by up to a thread
//! budget's worth of workers; shard it only with a measurement that says
//! the lock is hot.
//!
//! A recycled shell arrives dirty and differently shaped — the previous
//! tenant may have had a smaller shard (a clamped batch), trained under an
//! MMD rule, or been evaluated — and none of that may show. It does not:
//! the wake overwrites every durable field from the record and every
//! parameter with the ones it installs, `zero_grads` opens every
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
//! uses — never on wake order), and its parameters are those a client kept
//! live all run would hold wherever a round reads one: the trained model
//! or the broadcast that reached it for the plane's wakes.
//! [`ClientRegistry::materialize`] always installs the initial global.
//! Hibernate → wake round-trips every durable field bit-exactly, so a run
//! over a resident source and one over a generating source of the same
//! shards produce identical losses and parameters (`determinism.rs`), as
//! do a distributed client and its in-process twin.
//!
//! # Sharding
//!
//! Records live in `thread_budget()` shards behind per-shard mutexes, each
//! an arena (see "Records"), client `k` in shard `k % shards`. The last
//! chunk's unused tail, under 64 KiB and never written, is paid once per
//! shard. They are sharded because they are touched
//! concurrently: a round's selection is woken and hibernated by the
//! plane's `fan_out` workers (the round thread and the kernel pool's
//! `rfl-worker`s; the round thread alone under `parallel: false`), each job
//! its own client's, so a worker only contends on the shard owning its
//! current client. Whatever a client computes lands
//! in its selection slot, so results are independent of scheduling.

use crate::client::{Client, ClientShell, Shape};
use crate::federation::{FlConfig, ModelFactory, OptimizerFactory};
use rfl_data::{Dataset, FederatedData};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Deterministic, thread-safe recipe for client datasets. Implementations
/// must return bit-identical datasets for repeated calls with the same `k` —
/// a client gets its shard again on every wake.
pub trait ClientDataSource: Send + Sync {
    /// Number of registered clients.
    fn num_clients(&self) -> usize;
    /// `n_k` — sample count of client `k`'s shard, *without* materializing
    /// it (aggregation weights for a million clients must stay O(N) ints).
    fn num_samples(&self, k: usize) -> usize;
    /// Client `k`'s dataset for one wake or evaluation: built for it, or,
    /// from a source that keeps it resident, a clone that shares the
    /// resident buffers.
    fn dataset(&self, k: usize) -> Dataset;
}

/// A [`ClientDataSource`] over resident datasets (the classic
/// [`FederatedData`] layout) — what [`crate::Federation::new`] runs on. A
/// [`Dataset`] clone shares its buffers, so the source holds the caller's
/// shards without copying them, and a wake copies no example.
pub struct MaterializedSource {
    clients: Vec<Dataset>,
}

impl MaterializedSource {
    pub fn new(clients: Vec<Dataset>) -> Self {
        MaterializedSource { clients }
    }

    /// The client datasets of a [`FederatedData`], shared with it (the test
    /// set stays with the caller).
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

/// The in-process plane's backing store: construction recipes plus the
/// sharded record map. See the module docs.
pub struct ClientRegistry {
    source: Arc<dyn ClientDataSource>,
    model: ModelFactory,
    optimizer: OptimizerFactory,
    batch_size: usize,
    clip_grad_norm: Option<f32>,
    seed: u64,
    /// The global initialization, which [`ClientRegistry::materialize`]
    /// and a first wake handed nothing installs: what a client holds before
    /// anything reached it.
    init_global: Vec<f32>,
    /// Every client's, for life: what each shell is built with and each
    /// hibernation is held to.
    shape: Shape,
    /// Each woken client's record, by id: `k % shards.len()` picks the
    /// arena.
    shards: Vec<Mutex<Arena>>,
    /// Shells of hibernated clients, waiting for the next materialization.
    /// One lock, taken twice per client-round (see the module docs before
    /// sharding it).
    shells: Mutex<Vec<ClientShell>>,
    /// Shells ever built — a statistic for the tests (the spans count the
    /// flag each [`ClientRegistry::wake`] call returns).
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
        let d = init_global.len();
        let state = optimizer.build().state_mut().map_or(0, |_| d);
        let residual = if cfg.compression.is_enabled() { d } else { 0 };
        ClientRegistry {
            source,
            model,
            optimizer,
            batch_size: cfg.batch_size,
            clip_grad_norm: cfg.clip_grad_norm,
            seed,
            init_global,
            shape: Shape([state, residual, 0]),
            shards: (0..n_shards)
                .map(|_| Mutex::new(Arena::default()))
                .collect(),
            shells: Mutex::new(Vec::new()),
            shells_built: AtomicU64::new(0),
        }
    }

    /// Gives every record a `d`-word section for SCAFFOLD's `c_k`. Panics,
    /// naming a client, once any has woken: its record has no such section.
    pub(crate) fn reserve_control(&mut self, d: usize) {
        for shard in &mut self.shards {
            if let Some(k) = shard.get_mut().expect("shard poisoned").index.keys().next() {
                panic!("client {k} holds a record: reserve the control variates before any wake");
            }
        }
        self.shape.0[2] = d;
    }

    pub(crate) fn source(&self) -> &Arc<dyn ClientDataSource> {
        &self.source
    }

    /// Clients currently hibernated (woken before, not live now).
    pub fn num_persisted(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("registry shard poisoned").persisted())
            .sum()
    }

    fn shard(&self, k: usize) -> std::sync::MutexGuard<'_, Arena> {
        self.shards[k % self.shards.len()]
            .lock()
            .expect("registry shard poisoned")
    }

    /// Builds the live simulation object for client `k` at the initial
    /// global (`ClientRegistry::wake` with it) — always the initial
    /// global, whatever the client trained before it was hibernated: a
    /// record keeps no parameters. Takes `&self` — several
    /// threads materialize a selection at once, contending only on the
    /// per-shard locks and, for one `pop`, on the shell list.
    pub fn materialize(&self, k: usize) -> Client {
        self.wake(k, Some(&self.init_global)).0
    }

    /// Client `k` brought to life: its record — or, the first time, its
    /// initial record from the deterministic recipes — unpacked into a
    /// recycled shell around its shard, at `params`. Without `params` a
    /// first wake holds the initial global, as every client does before
    /// anything reached it, and any later wake NaN in every parameter. Also
    /// says whether the shell had to be built (`true`) or came off the list
    /// — per call, so concurrent wake sites can each keep an exact tally.
    ///
    /// # Panics
    /// Panics if client `k` is awake: woken and not hibernated since.
    pub(crate) fn wake(&self, k: usize, params: Option<&[f32]>) -> (Client, bool) {
        let (mut shell, fresh_shell) = self.pop_shell();
        let data = self.source.dataset(k);
        let (n, batch) = (data.len(), self.batch_size);
        let mut arena = self.shard(k);
        let Some(record) = arena.wake(k, self.shape.record_len(n)) else {
            drop(arena);
            panic!("client {k} is awake: a wake follows its hibernation");
        };
        match record {
            Some(record) => shell.unpack(record, n, batch, params),
            None => {
                shell.restart(k, n, batch, self.seed, self.optimizer.lr());
                shell.install(Some(params.unwrap_or(&self.init_global)));
            }
        }
        drop(arena);
        let client = Client::wake(k, shell, data, self.clip_grad_norm);
        (client, fresh_shell)
    }

    /// A shell off the list, or a new one if the list is empty (`true`).
    fn pop_shell(&self) -> (ClientShell, bool) {
        match self.shells.lock().expect("shell list poisoned").pop() {
            Some(shell) => (shell, false),
            None => {
                self.shells_built.fetch_add(1, Ordering::Relaxed);
                let (model, optimizer) = (self.model.build(self.seed), self.optimizer.build());
                let shell = ClientShell::new(model, optimizer, self.shape);
                (shell, true)
            }
        }
    }

    /// Evicts a client: its durable state, packed into its record, goes to
    /// its slot in its shard's arena, its shell back on the list, its
    /// dataset and parameters away.
    ///
    /// # Panics
    /// Panics if the client is not awake or not of the federation's shape.
    pub fn hibernate(&self, client: Client) {
        let k = client.id();
        let mut shell = client.take_apart();
        assert_eq!(shell.shape(), self.shape, "client {k} has another shape");
        let len = self.shape.record_len(self.source.num_samples(k));
        shell.pack(self.shard(k).hibernate(k, len));
        self.shells.lock().expect("shell list poisoned").push(shell);
    }
}

/// Words per arena chunk (64 KiB). A record longer than a chunk gets one of
/// its own length.
const CHUNK_WORDS: usize = 1 << 14;
/// An index entry's awake mark.
const AWAKE: u32 = 1 << 31;
/// The offset of an awake client that has no slot yet (first woken).
const NO_SLOT: u32 = AWAKE - 1;

/// One shard's records: every record one run of words in a chunk that is
/// never reallocated, at the offset its index entry names (chunk ·
/// [`CHUNK_WORDS`] + word in the chunk) from the client's first
/// hibernation on. The module docs, "Records".
#[derive(Default)]
struct Arena {
    /// Filled up to their capacity and never past it: a chunk's unused tail
    /// is never written, so its untouched pages need not be resident.
    chunks: Vec<Vec<u32>>,
    /// Client id → its slot's offset, or [`NO_SLOT`]; [`AWAKE`] set while
    /// the client is live.
    index: HashMap<u32, u32>,
    /// Entries marked [`AWAKE`].
    awake: usize,
}

impl Arena {
    fn key(k: usize) -> u32 {
        u32::try_from(k).unwrap_or_else(|_| panic!("client id {k} is not under 2^32"))
    }

    fn persisted(&self) -> usize {
        self.index.len() - self.awake
    }

    /// The `len` words at `offset`.
    fn slot(&self, offset: u32, len: usize) -> &[u32] {
        let at = offset as usize;
        &self.chunks[at / CHUNK_WORDS][at % CHUNK_WORDS..][..len]
    }

    fn slot_mut(&mut self, offset: u32, len: usize) -> &mut [u32] {
        let at = offset as usize;
        &mut self.chunks[at / CHUNK_WORDS][at % CHUNK_WORDS..][..len]
    }

    /// Marks client `k`, whose record is `len` words, awake: `Some` of its
    /// record, or `Some(None)` on its first wake. `None`, changing nothing,
    /// if `k` is awake.
    fn wake(&mut self, k: usize, len: usize) -> Option<Option<&[u32]>> {
        let entry = self.index.entry(Arena::key(k)).or_insert(NO_SLOT);
        if *entry & AWAKE != 0 {
            return None;
        }
        let offset = *entry;
        *entry |= AWAKE;
        self.awake += 1;
        Some((offset != NO_SLOT).then(|| self.slot(offset, len)))
    }

    /// Marks awake client `k` asleep and hands back its slot of `len` words
    /// to pack the record into, reserved at its first hibernation.
    fn hibernate(&mut self, k: usize, len: usize) -> &mut [u32] {
        let offset = match self.index.get(&Arena::key(k)) {
            Some(&e) if e == NO_SLOT | AWAKE => self.reserve(len),
            Some(&e) if e & AWAKE != 0 => e & !AWAKE,
            _ => panic!("client {k} is not awake: a hibernation follows its wake"),
        };
        self.index.insert(Arena::key(k), offset);
        self.awake -= 1;
        self.slot_mut(offset, len)
    }

    /// A new slot of `len` words, at the tail of the last chunk or at the
    /// start of a new one.
    fn reserve(&mut self, len: usize) -> u32 {
        // A chunk holds at most `CHUNK_WORDS` words but a record longer than
        // that, whatever capacity the allocator handed it.
        let fits = |c: &Vec<u32>| c.len() + len <= c.capacity().min(CHUNK_WORDS);
        if !self.chunks.last().is_some_and(fits) {
            self.chunks.push(Vec::with_capacity(CHUNK_WORDS.max(len)));
        }
        let c = self.chunks.len() - 1;
        let chunk = &mut self.chunks[c];
        let offset = c * CHUNK_WORDS + chunk.len();
        chunk.resize(chunk.len() + len, 0);
        u32::try_from(offset)
            .ok()
            .filter(|&o| o < NO_SLOT)
            .expect("a registry shard holds under 2^31 words")
    }
}

/// Test accessors of the registry's shell statistics.
#[cfg(test)]
impl ClientRegistry {
    /// Shells built so far. A shell is only built when the list is empty,
    /// that is when every shell built before it is in use, so this is also
    /// the most shells that were ever in use at once: one per live client.
    pub(crate) fn shells_built(&self) -> u64 {
        self.shells_built.load(Ordering::Relaxed)
    }

    /// Shells on the list right now.
    pub(crate) fn shells_idle(&self) -> usize {
        self.shells.lock().expect("shell list poisoned").len()
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
        // evicted and revived mid-run with the live one's parameters
        // installed, as a broadcast would; both must train bit-identically.
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
        let mut params = Vec::new();
        live.read_params(&mut params);
        cycled.write_params(&params);
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

    /// Trains both clients `steps` steps and asserts that every loss, every
    /// parameter bit, the residual, the control variate and the learning
    /// rate agree.
    fn train_twins(mut a: Client, mut b: Client, steps: usize, what: &str) {
        for _ in 0..steps {
            let (ra, rb) = (
                a.train_local(1, &LocalRule::Plain),
                b.train_local(1, &LocalRule::Plain),
            );
            assert_eq!(ra.loss.to_bits(), rb.loss.to_bits(), "{what}");
        }
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.read_params(&mut wa);
        b.read_params(&mut wb);
        assert_eq!(bits(&wa), bits(&wb), "{what}");
        let (ra, rb) = (a.feedback_buffers().0, b.feedback_buffers().0);
        assert_eq!(bits(ra), bits(rb), "{what}");
        assert_eq!(bits(a.control()), bits(b.control()), "{what}");
        assert_eq!(a.lr().to_bits(), b.lr().to_bits(), "{what}");
    }

    #[test]
    fn a_record_round_trips_every_durable_field() {
        // One client per shard size, on both sides of every width the
        // sampler's order packs at (1, 2 and 4 bytes per index), with
        // RMSProp accumulators, a changed learning rate, an EF residual of
        // 8-bit quantized uploads, a control variate and a cursor in the
        // middle of an epoch; its twin stays live.
        let sizes = [1, 255, 256, 257, 65_535, 65_536, 65_537];
        let mut rng = StdRng::seed_from_u64(4);
        let pool = GaussianMixtureSpec::default_spec().generate(65_537, None, &mut rng);
        let neighbour = pool.select(&(0..1_000).collect::<Vec<_>>());
        for n in sizes {
            let shard = pool.select(&(0..n).collect::<Vec<_>>());
            let model = ModelFactory::logistic(10, 4, 0.0);
            let mut init_global = Vec::new();
            model.build(5).read_params(&mut init_global);
            let mut cfg = FlConfig::cross_silo();
            cfg.batch_size = 4;
            cfg.compression = crate::compress::Compression::Quantize { bits: 8 };
            let reg = || {
                let shards = vec![shard.clone(), neighbour.clone()];
                let src = Arc::new(MaterializedSource::new(shards));
                let optimizer = OptimizerFactory::rmsprop(0.01);
                ClientRegistry::new(src, model, optimizer, &cfg, 5, init_global.clone())
            };
            let (mut stays, mut cycles) = (reg(), reg());
            for r in [&mut stays, &mut cycles] {
                r.reserve_control(init_global.len());
            }
            let (mut live, mut cycled) = (stays.materialize(0), cycles.materialize(0));
            for c in [&mut live, &mut cycled] {
                c.train_local(3, &LocalRule::Plain);
                c.set_lr(0.003);
                let d = c.feedback_buffers().0;
                d.clear();
                d.extend((0..init_global.len()).map(|i| (i as f32 - 20.5) * 1e-3));
                for (i, v) in c.control().iter_mut().enumerate() {
                    *v = (i as f32 - 3.5) * 7e-4;
                }
            }
            // Client 1 (1,000 examples) trains and sleeps last, so client 0
            // wakes around the shell it left behind, and installs its
            // twin's parameters as a broadcast would.
            let mut neighbour = cycles.materialize(1);
            neighbour.train_local(2, &LocalRule::Plain);
            cycles.hibernate(cycled);
            cycles.hibernate(neighbour);
            let mut params = Vec::new();
            live.read_params(&mut params);
            let (cycled, _) = cycles.wake(0, Some(&params));
            assert_eq!(cycles.shells_built(), 2);
            train_twins(live, cycled, 5, &format!("n = {n}"));
        }
    }

    /// Client `k`'s slot offset.
    fn offset(reg: &ClientRegistry, k: usize) -> u32 {
        reg.shard(k).index[&(k as u32)] & !AWAKE
    }

    /// Client `k`'s stored record.
    fn stored(reg: &ClientRegistry, k: usize) -> Vec<u32> {
        let (at, len) = (
            offset(reg, k),
            reg.shape.record_len(reg.source.num_samples(k)),
        );
        reg.shard(k).slot(at, len).to_vec()
    }

    #[test]
    fn scale_lazy_s_record_is_18_words() {
        // Logistic 32 → 4 (132 parameters, none kept), 32 examples (a
        // 1-byte order: 8 words), SGD (no state), no compression (no
        // residual): a 9-word header and 1 + 8 sampler words.
        let spec = GaussianMixtureSpec {
            dim: 32,
            ..GaussianMixtureSpec::default_spec()
        };
        let shard = spec.generate(32, None, &mut StdRng::seed_from_u64(1));
        let model = ModelFactory::logistic(32, 4, 0.0);
        let mut init_global = Vec::new();
        model.build(1).read_params(&mut init_global);
        let mut cfg = FlConfig::cross_device();
        cfg.batch_size = 8;
        let src = Arc::new(MaterializedSource::new(vec![shard]));
        let reg = ClientRegistry::new(
            src,
            model,
            OptimizerFactory::sgd(0.05),
            &cfg,
            1,
            init_global,
        );
        let mut c = reg.materialize(0);
        c.train_local(1, &LocalRule::Plain);
        reg.hibernate(c);
        assert_eq!(stored(&reg, 0).len(), 18);
        assert_eq!(reg.shard(0).chunks[0].len(), 18);
    }

    #[test]
    fn a_record_keeps_its_slot_and_round_trips_bit_exactly() {
        // Three clients of one arena (ids 0, s and 2s of s shards) under
        // RMSProp and 8-bit quantized uploads, so a record holds its
        // accumulators and its EF residual from the first hibernation on,
        // whether the client trained or took a (simulated) compressed upload
        // before it or not. Client 2s holds 1,000 examples, so its sampler
        // words outnumber its parameters. Each client's twin in a second
        // registry stays live all along.
        let mut rng = StdRng::seed_from_u64(9);
        let pool = GaussianMixtureSpec::default_spec().generate(1_000, None, &mut rng);
        let small = pool.select(&(0..20).collect::<Vec<_>>());
        let reg = |s: usize| {
            let mut shards = vec![small.clone(); 2 * s];
            shards.push(pool.clone());
            let model = ModelFactory::logistic(10, 4, 0.0);
            let mut init_global = Vec::new();
            model.build(6).read_params(&mut init_global);
            let mut cfg = FlConfig::cross_silo();
            cfg.batch_size = 4;
            cfg.compression = crate::compress::Compression::Quantize { bits: 8 };
            let src = Arc::new(MaterializedSource::new(shards));
            let optimizer = OptimizerFactory::rmsprop(0.01);
            ClientRegistry::new(src, model, optimizer, &cfg, 6, init_global)
        };
        let s = rfl_tensor::thread_budget().max(1);
        let (cycles, stays) = (reg(s), reg(s));
        let ids = [0, s, 2 * s];
        let mut twins: Vec<Client> = ids.iter().map(|&k| stays.materialize(k)).collect();
        // Per wake, per client: train, add a residual, or only read.
        #[derive(Clone, Copy)]
        enum Op {
            Train,
            Residual,
            Read,
        }
        use Op::{Read, Residual, Train};
        let wakes = [
            [Train, Read, Read],
            [Residual, Train, Train],
            [Train, Residual, Residual],
            [Read, Read, Read],
            [Train, Train, Train],
        ];
        // Client → its stored record, and the offset its first hibernation
        // got.
        let mut want: HashMap<usize, Vec<u32>> = HashMap::new();
        let mut slots: HashMap<usize, u32> = HashMap::new();
        // Every stored record is as it was and where it was, and the arena
        // holds those records and no other word.
        let held = |want: &HashMap<usize, Vec<u32>>, slots: &mut HashMap<usize, u32>, what| {
            for (&k, record) in want {
                assert_eq!(&stored(&cycles, k), record, "{what}: client {k}");
                let at = offset(&cycles, k);
                assert_eq!(
                    *slots.entry(k).or_insert(at),
                    at,
                    "{what}: client {k} moved"
                );
            }
            let words: usize = cycles.shard(0).chunks.iter().map(Vec::len).sum();
            assert_eq!(words, want.values().map(Vec::len).sum(), "{what}");
        };
        for (w, ops) in wakes.iter().enumerate() {
            // Wake all three, in an order that turns with each wake.
            let order: Vec<usize> = (0..3).map(|i| (i + w) % 3).collect();
            let mut live: Vec<Option<Client>> = (0..3).map(|_| None).collect();
            for &i in &order {
                let mut params = Vec::new();
                twins[i].read_params(&mut params);
                live[i] = Some(cycles.wake(ids[i], Some(&params)).0);
            }
            assert_eq!(cycles.num_persisted(), 0);
            for (i, op) in ops.iter().enumerate() {
                let c = live[i].as_mut().expect("woken");
                for c in [c, &mut twins[i]] {
                    match op {
                        Train => drop(c.train_local(2, &LocalRule::Plain)),
                        Residual => {
                            let d = c.feedback_buffers().0;
                            d.clear();
                            d.extend((0..44).map(|j| (j + w) as f32 * 1e-3));
                        }
                        Read => drop(c.evaluate_local(8)),
                    }
                }
            }
            // Hibernate them in the reverse order.
            for (n, &i) in order.iter().rev().enumerate() {
                cycles.hibernate(live[i].take().expect("woken"));
                assert_eq!(cycles.num_persisted(), n + 1);
                want.insert(ids[i], stored(&cycles, ids[i]));
                held(&want, &mut slots, format!("wake {w}"));
            }
            // A wake straight into a hibernation writes the same words back.
            for &k in &ids {
                cycles.hibernate(cycles.wake(k, None).0);
                held(&want, &mut slots, format!("rewake {w}"));
            }
        }
        for (i, twin) in twins.into_iter().enumerate() {
            let mut params = Vec::new();
            twin.read_params(&mut params);
            let (cycled, _) = cycles.wake(ids[i], Some(&params));
            train_twins(twin, cycled, 3, &format!("client {}", ids[i]));
        }
    }

    #[test]
    #[should_panic(expected = "client 2 has another shape")]
    fn hibernating_a_client_of_another_shape_panics() {
        // An uncompressed federation's records hold no residual.
        let reg = registry(8);
        let mut c = reg.materialize(2);
        c.feedback_buffers().0.push(0.5);
        reg.hibernate(c);
    }

    #[test]
    #[should_panic(expected = "client 1 is awake")]
    fn a_second_wake_of_an_awake_client_panics() {
        let reg = registry(8);
        let _live = reg.materialize(1);
        reg.materialize(1);
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
