//! The federation: clients, global parameters, pluggable transport, and the
//! shared round plumbing used by every algorithm.

use crate::aggregate::StreamingAggregator;
use crate::client::{Client, LocalReport};
use crate::comm::{
    BroadcastDelivery, CommStats, Delivery, FaultStats, MsgKind, PerfectTransport, RemoteTransport,
    Transport,
};
use crate::compress::{
    compress_plain, decode_plain_into, decode_upload_into, ef_compress_update, CompressedVec,
    Compression,
};
use crate::delta::DeltaTable;
use crate::dp::{privatize_delta, DpConfig};
use crate::eval::{evaluate, EvalResult};
use crate::registry::{ClientDataSource, ClientRegistry};
use crate::rules::LocalRule;
use crate::sampling::{sample_clients, SelectionStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_data::{Dataset, FederatedData};
use rfl_nn::{
    CnnClassifier, CnnConfig, LinearNet, LogisticRegression, LstmClassifier, LstmConfig, Model,
    Optimizer, RmsProp, Sgd,
};
use rfl_trace::{SpanKind, Tracer};
use std::sync::Arc;

/// Run-level hyper-parameters shared by all algorithms.
#[derive(Clone, Copy, Debug)]
pub struct FlConfig {
    /// Communication rounds `C`.
    pub rounds: usize,
    /// Local steps per round `E`.
    pub local_steps: usize,
    /// Local mini-batch size `B`.
    pub batch_size: usize,
    /// Client sample ratio `SR` (1.0 = full participation).
    pub sample_ratio: f32,
    /// Evaluate the global model on the test set every `eval_every` rounds.
    pub eval_every: usize,
    /// Run selected clients' local training on worker threads.
    pub parallel: bool,
    /// Global-norm gradient clip applied to the assembled local gradient
    /// (data gradient + algorithm corrections). Standard stabilization for
    /// control-variate methods; `None` disables. Rarely binds at the paper's
    /// learning rates, but prevents SCAFFOLD's runaway feedback loop on
    /// high-variance synthetic data.
    pub clip_grad_norm: Option<f32>,
    /// Batch size of the δ probe — the forward passes estimating a client's
    /// mean feature embedding `δ_k` for the regularizer sync. `None` uses
    /// the historical default `batch_size.max(32)`: probing is a pure
    /// forward pass, so it benefits from larger batches than training, and
    /// small training batch sizes are floored at 32.
    pub delta_probe_batch: Option<usize>,
    /// Server RNG seed (client RNGs derive from the federation seed).
    pub seed: u64,
    /// Upload-compression policy: model uploads and δ syncs cross the
    /// transport as exact-framed [`CompressedVec`] messages with per-client
    /// error feedback. [`Compression::None`] (the default in every preset)
    /// keeps the dense wire path and its pinned byte accounting.
    pub compression: Compression,
}

impl FlConfig {
    /// The paper's cross-silo setting (N = 20, E = 5, SR = 1.0).
    pub fn cross_silo() -> Self {
        FlConfig {
            rounds: 60,
            local_steps: 5,
            batch_size: 32,
            sample_ratio: 1.0,
            eval_every: 1,
            parallel: true,
            clip_grad_norm: Some(10.0),
            delta_probe_batch: None,
            seed: 0,
            compression: Compression::None,
        }
    }

    /// The paper's cross-device setting (N = 500, E = 10, SR = 0.2).
    pub fn cross_device() -> Self {
        FlConfig {
            rounds: 60,
            local_steps: 10,
            batch_size: 32,
            sample_ratio: 0.2,
            eval_every: 1,
            parallel: true,
            clip_grad_norm: Some(10.0),
            delta_probe_batch: None,
            seed: 0,
            compression: Compression::None,
        }
    }

    /// The effective δ-probe batch size (see
    /// [`FlConfig::delta_probe_batch`]).
    pub fn probe_batch(&self) -> usize {
        self.delta_probe_batch.unwrap_or(self.batch_size.max(32))
    }
}

/// Model constructors — pure data so federations can be rebuilt per seed.
#[derive(Clone, Copy, Debug)]
pub enum ModelFactory {
    Cnn(CnnConfig),
    Lstm(LstmConfig),
    Logistic {
        dim: usize,
        classes: usize,
        l2: f32,
    },
    LinearNet {
        dim: usize,
        feature_dim: usize,
        classes: usize,
        l2: f32,
    },
}

impl ModelFactory {
    pub fn cnn(cfg: CnnConfig) -> Self {
        ModelFactory::Cnn(cfg)
    }

    pub fn lstm(cfg: LstmConfig) -> Self {
        ModelFactory::Lstm(cfg)
    }

    pub fn logistic(dim: usize, classes: usize, l2: f32) -> Self {
        ModelFactory::Logistic { dim, classes, l2 }
    }

    pub fn linear_net(dim: usize, feature_dim: usize, classes: usize, l2: f32) -> Self {
        ModelFactory::LinearNet {
            dim,
            feature_dim,
            classes,
            l2,
        }
    }

    /// Builds a model with weights derived from `seed`.
    pub fn build(&self, seed: u64) -> Box<dyn Model> {
        let mut rng = StdRng::seed_from_u64(seed);
        match *self {
            ModelFactory::Cnn(cfg) => Box::new(CnnClassifier::new(cfg, &mut rng)),
            ModelFactory::Lstm(cfg) => Box::new(LstmClassifier::new(cfg, &mut rng)),
            ModelFactory::Logistic { dim, classes, l2 } => {
                Box::new(LogisticRegression::new(dim, classes, l2, &mut rng))
            }
            ModelFactory::LinearNet {
                dim,
                feature_dim,
                classes,
                l2,
            } => Box::new(LinearNet::new(dim, feature_dim, classes, l2, &mut rng)),
        }
    }
}

/// Local-optimizer constructors.
#[derive(Clone, Copy, Debug)]
pub enum OptimizerFactory {
    Sgd { lr: f32 },
    RmsProp { lr: f32 },
}

impl OptimizerFactory {
    pub fn sgd(lr: f32) -> Self {
        OptimizerFactory::Sgd { lr }
    }

    pub fn rmsprop(lr: f32) -> Self {
        OptimizerFactory::RmsProp { lr }
    }

    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerFactory::Sgd { lr } => Box::new(Sgd::new(lr)),
            OptimizerFactory::RmsProp { lr } => Box::new(RmsProp::new(lr)),
        }
    }
}

/// System heterogeneity: when installed on a [`Federation`], every
/// uniform-step training call ([`Federation::train_selected`]) draws each
/// client's local step count from `[min_steps, steps]` with a seeded hash of
/// `(seed, round, client)` — stragglers complete fewer local epochs. The
/// draw is stateless, so it is bit-reproducible at any thread budget and
/// identical across algorithms sharing a seed.
#[derive(Clone, Copy, Debug)]
pub struct StragglerModel {
    /// Seed of the per-round step draws.
    pub seed: u64,
    /// Minimum local steps a straggler completes (≥ 1).
    pub min_steps: usize,
}

impl StragglerModel {
    pub fn new(seed: u64, min_steps: usize) -> Self {
        assert!(min_steps >= 1, "stragglers still take at least one step");
        StragglerModel { seed, min_steps }
    }

    /// The step count client `k` completes in `round` when the nominal
    /// budget is `steps`.
    pub fn steps_for(&self, round: u64, client: usize, steps: usize) -> usize {
        if steps <= self.min_steps {
            return steps;
        }
        let mut h = crate::comm::mix64(self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = crate::comm::mix64(h ^ (client as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
        self.min_steps + (h as usize) % (steps - self.min_steps + 1)
    }
}

/// Panics on a policy that would not survive the wire (invalid bit widths,
/// ratios, or sketch shapes) — the same validation the socket handshake
/// applies.
fn assert_wire_valid(policy: Compression) {
    let (mode, bits, ratio, rows, cols, seed) = policy.to_wire();
    assert!(
        Compression::from_wire(mode, bits, ratio, rows, cols, seed).is_some(),
        "invalid compression policy: {policy:?}"
    );
}

/// Attaches drop/retry/deadline counters to a span — only when nonzero, so
/// perfect-transport span shapes are unchanged.
pub(crate) fn fault_counters(span: &mut rfl_trace::Span, faults: &FaultStats) {
    if faults.dropped > 0 {
        span.counter("dropped", faults.dropped);
    }
    if faults.retries > 0 {
        span.counter("retries", faults.retries);
    }
    if faults.deadline_drops > 0 {
        span.counter("deadline_drops", faults.deadline_drops);
    }
}

/// Attaches a materialization site's tally to its span: `clients` brought
/// to life, of which `shells_built` needed a new shell and `shells_reused`
/// took one off the registry's list. The split is the growth of the
/// registry's build count across the site, which is exact because sites
/// never overlap: each joins the wave before it before materializing.
fn shell_counters(span: &mut rfl_trace::Span, clients: usize, shells_built: u64) {
    span.counter("clients", clients as u64);
    span.counter("shells_built", shells_built);
    span.counter("shells_reused", clients as u64 - shells_built);
}

/// Round-addressable selection lookahead for the pipelined round engine
/// (see [`Federation::enable_pipelined_rounds`]).
struct Lookahead {
    stream: SelectionStream,
    sample_ratio: f32,
    /// Total rounds of the run — no prefetch wave is launched past the
    /// final round (it would strand persists in a wave nobody consumes).
    rounds: usize,
    /// `false` = streamed selection only, no background waves (the
    /// degenerate form the pipelined ≡ serial equivalence tests compare
    /// against).
    overlap: bool,
}

/// The federated system — simulated (local [`Client`] replicas) or
/// distributed (remote mode: clients are real processes behind a
/// [`RemoteTransport`], and the same round plumbing asks the wire instead
/// of the local replicas).
pub struct Federation {
    /// Eager mode: all `N` replicas, indexed by client id. Lazy mode: only
    /// the round's *active* clients, kept sorted by id (see `local_idx`).
    clients: Vec<Client>,
    /// Remote mode: `clients` is empty and every client-side operation is
    /// routed through the transport's [`RemoteTransport`] half.
    remote: bool,
    /// Lazy mode: the sharded descriptor/persist store that materializes
    /// clients on demand ([`Federation::lazy`]). `None` in eager/remote
    /// mode. Shared (`Arc`) with the pipelined engine's prefetch and
    /// hibernate worker threads.
    registry: Option<Arc<ClientRegistry>>,
    n_clients: usize,
    weights: Vec<f32>,
    global: Vec<f32>,
    transport: Box<dyn Transport>,
    test: Dataset,
    eval_model: Box<dyn Model>,
    parallel: bool,
    eval_batch: usize,
    tracer: Tracer,
    current_round: u64,
    straggler: Option<StragglerModel>,
    /// Pipelined round engine: round-addressable selection stream plus the
    /// lookahead bounds ([`Federation::enable_pipelined_rounds`]).
    lookahead: Option<Lookahead>,
    /// In-flight prefetch wave: clients for a *predicted* future selection,
    /// materializing on a spare thread while the current round trains. The
    /// next `ensure_active` consumes it — merging the ids it wanted and
    /// returning the rest to the registry shards.
    prefetch: Option<std::thread::JoinHandle<Vec<Client>>>,
    /// In-flight hibernate wave: the previous round's active clients being
    /// persisted in the background. At most one wave is alive at a time,
    /// and every materialization path joins it first, so a persist being
    /// written can never race a wake of the same client.
    hibernate_wave: Option<std::thread::JoinHandle<()>>,
    /// When set, `evict_active` hibernates on a background thread instead
    /// of inline (installed with the pipelined engine; wave-style drivers
    /// can toggle it separately via `set_background_hibernate`).
    background_hibernate: bool,
    /// Per-run streaming aggregation state; buffers are reused across
    /// rounds so the aggregate step allocates nothing once warm.
    agg: StreamingAggregator,
    /// Reused upload read buffer (local-mode `collect_*`).
    upload_buf: Vec<f32>,
    /// Upload-compression policy ([`Compression::None`] = dense wire path).
    compression: Compression,
    /// Compression workspaces, reused across rounds: EF update / local
    /// reconstruction scratch, the encoded payload, its round-tripped copy,
    /// and the decoded parameter vector handed to the fold visitor. Keeping
    /// these warm preserves the 0-allocs/step aggregation gate with
    /// compression enabled.
    comp_update: Vec<f32>,
    comp_recon: Vec<f32>,
    comp_payload: CompressedVec,
    comp_rt: CompressedVec,
    comp_decoded: Vec<f32>,
}

impl Federation {
    /// What the three constructors share: the evaluation replica and the
    /// global initialization derived from `seed`, the validated compression
    /// policy, and cold round state — no clients yet, perfect transport.
    fn base(
        model: ModelFactory,
        cfg: &FlConfig,
        seed: u64,
        weights: Vec<f32>,
        test: Dataset,
    ) -> Self {
        assert!(weights.len() >= 2, "need at least two clients");
        assert_wire_valid(cfg.compression);
        let eval_model = model.build(seed);
        let mut global = Vec::new();
        eval_model.read_params(&mut global);
        Federation {
            clients: Vec::new(),
            remote: false,
            registry: None,
            n_clients: weights.len(),
            weights,
            global,
            transport: Box::new(PerfectTransport::new()),
            test,
            eval_model,
            parallel: cfg.parallel,
            eval_batch: 64,
            tracer: Tracer::disabled(),
            current_round: 0,
            straggler: None,
            lookahead: None,
            prefetch: None,
            hibernate_wave: None,
            background_hibernate: false,
            agg: StreamingAggregator::default(),
            upload_buf: Vec::new(),
            compression: cfg.compression,
            comp_update: Vec::new(),
            comp_recon: Vec::new(),
            comp_payload: CompressedVec::default(),
            comp_rt: CompressedVec::default(),
            comp_decoded: Vec::new(),
        }
    }

    /// Builds the federation: every client starts from the same global
    /// initialization (derived from `seed`), with its own optimizer state
    /// and RNG stream.
    pub fn new(
        data: &FederatedData,
        model: ModelFactory,
        optimizer: OptimizerFactory,
        cfg: &FlConfig,
        seed: u64,
    ) -> Self {
        let mut fed = Self::base(model, cfg, seed, data.client_weights(), data.test.clone());
        fed.clients = data
            .clients
            .iter()
            .enumerate()
            .map(|(k, d)| {
                let mut m = model.build(seed);
                m.write_params(&fed.global);
                let mut c = Client::new(k, m, d.clone(), optimizer.build(), cfg.batch_size, seed);
                c.set_clip_grad_norm(cfg.clip_grad_norm);
                c
            })
            .collect();
        fed
    }

    /// Builds a *lazy-mode* federation for cross-device scale: registered
    /// clients are descriptors in a sharded [`ClientRegistry`], materialized
    /// (dataset + model replica) only when sampled and evicted back to their
    /// durable state when the next round starts. Server memory is
    /// `O(d + active·d)` instead of `O(N·d)`, so a million registered
    /// clients at 1% sampling fit comfortably. Training is bit-identical to
    /// an eager [`Federation::new`] over the same data — client RNG streams
    /// are keyed on `(seed, id)`, never on construction order.
    pub fn lazy(
        source: Arc<dyn ClientDataSource>,
        test: Dataset,
        model: ModelFactory,
        optimizer: OptimizerFactory,
        cfg: &FlConfig,
        seed: u64,
    ) -> Self {
        // Same arithmetic as `FederatedData::client_weights`, bit for bit,
        // without materializing any dataset.
        let n = source.num_clients();
        let total: usize = (0..n).map(|k| source.num_samples(k)).sum();
        assert!(total > 0, "no training data");
        let weights = (0..n)
            .map(|k| source.num_samples(k) as f32 / total as f32)
            .collect();
        let mut fed = Self::base(model, cfg, seed, weights, test);
        let registry = ClientRegistry::new(source, model, optimizer, cfg, seed, fed.global.clone());
        fed.registry = Some(Arc::new(registry));
        fed
    }

    /// Builds a *remote-mode* federation: no local client replicas — the
    /// clients are real processes reachable through `transport`'s
    /// [`RemoteTransport`] half. The server still owns the canonical
    /// `data` (for aggregation weights and the held-out test set), the
    /// global model, and the evaluation; every training/upload step is
    /// asked of the wire instead of computed locally. Algorithms and
    /// [`crate::Trainer::run`] are unchanged.
    pub fn remote(
        data: &FederatedData,
        model: ModelFactory,
        cfg: &FlConfig,
        seed: u64,
        mut transport: Box<dyn Transport>,
    ) -> Self {
        assert!(
            transport.as_remote().is_some(),
            "remote federation needs a transport with a RemoteTransport half"
        );
        let mut fed = Self::base(model, cfg, seed, data.client_weights(), data.test.clone());
        fed.remote = true;
        fed.transport = transport;
        fed
    }

    fn remote_transport(&mut self) -> &mut dyn RemoteTransport {
        self.transport
            .as_remote()
            .expect("remote federation lost its RemoteTransport half")
    }

    /// Ends a remote run: tells every client process to shut down and
    /// closes the links. No-op in simulation mode.
    pub fn shutdown_remote(&mut self) {
        if self.remote {
            self.remote_transport().shutdown();
        }
    }

    /// Swaps the network backend. The default is [`PerfectTransport`]
    /// (lossless, zero-latency); install a
    /// [`crate::comm::FaultyTransport`] to simulate drops, retries, and
    /// deadline dropouts. Must be called before training starts — the byte
    /// ledger starts over with the new transport.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// Installs a system-heterogeneity model: subsequent uniform-step
    /// training calls draw per-client step counts from it.
    pub fn set_straggler_model(&mut self, model: Option<StragglerModel>) {
        self.straggler = model;
    }

    /// The active upload-compression policy.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// Switches the upload-compression policy. With anything but
    /// [`Compression::None`], model uploads cross the transport as
    /// [`MsgKind::CompressedUp`] frames (error-feedback compressed against
    /// the last broadcast global) and δ syncs as
    /// [`MsgKind::CompressedDeltaUp`] frames. In remote mode the clients
    /// must run the same policy (it rides the `Welcome` frame), so flip it
    /// before the first round, never mid-run. Panics on a policy that would
    /// not survive the wire, like the constructors.
    pub fn set_compression(&mut self, policy: Compression) {
        assert_wire_valid(policy);
        self.compression = policy;
    }

    /// Marks the start of communication round `round`: resets the
    /// transport's per-round fault state (virtual clocks, deadlines), pins
    /// the round index used by the straggler model, and — in lazy mode —
    /// evicts the previous round's active clients back to the registry.
    /// [`crate::Trainer`] calls this automatically.
    pub fn begin_round(&mut self, round: u64) {
        self.current_round = round;
        self.evict_active();
        self.transport.begin_round(round);
    }

    /// Lazy mode only (no-op otherwise): hibernates every active client
    /// back into the registry shards, dropping the heavyweight simulation
    /// objects. Called automatically by [`Federation::begin_round`];
    /// wave-style drivers (`bench_scale`) call it between waves so peak
    /// memory is bounded by the wave size, not the sampled count.
    ///
    /// With background hibernation on, the persist writes happen on a
    /// spare thread (one wave at a time) so the round loop moves straight
    /// on to the next selection; every materialization path joins the wave
    /// before touching the shards.
    pub fn evict_active(&mut self) {
        if self.registry.is_none() || self.clients.is_empty() {
            return;
        }
        if !self.background_hibernate {
            let reg = self.registry.as_ref().expect("lazy mode");
            for c in self.clients.drain(..) {
                reg.hibernate(c);
            }
            return;
        }
        self.join_hibernate_wave();
        let reg = Arc::clone(self.registry.as_ref().expect("lazy mode"));
        let batch: Vec<Client> = self.clients.drain(..).collect();
        let tracer = self.tracer.clone();
        self.hibernate_wave = Some(std::thread::spawn(move || {
            let mut span = tracer.span(SpanKind::Hibernate);
            span.counter("clients", batch.len() as u64);
            for c in batch {
                reg.hibernate(c);
            }
        }));
    }

    /// Switches [`Federation::evict_active`] between inline and
    /// background hibernation (lazy mode). The pipelined engine turns this
    /// on; wave-style drivers can opt in without installing a selection
    /// stream.
    pub fn set_background_hibernate(&mut self, on: bool) {
        if !on {
            self.join_hibernate_wave();
        }
        self.background_hibernate = on;
    }

    fn join_hibernate_wave(&mut self) {
        if let Some(w) = self.hibernate_wave.take() {
            w.join().expect("hibernate wave panicked");
        }
    }

    /// Joins any in-flight prefetch/hibernate waves, returning prefetched
    /// clients to the registry shards. After this the shard maps hold
    /// every inactive client's persist — call before inspecting
    /// [`Federation::num_persisted`] or tearing a pipelined run down.
    pub fn quiesce(&mut self) {
        self.join_hibernate_wave();
        self.consume_prefetch(&[]);
    }

    /// Whether this federation materializes clients lazily.
    pub fn is_lazy(&self) -> bool {
        self.registry.is_some()
    }

    /// Lazy mode: clients currently hibernated in the registry (previously
    /// sampled, not active). 0 in eager/remote mode.
    pub fn num_persisted(&self) -> usize {
        self.registry.as_ref().map_or(0, |r| r.num_persisted())
    }

    /// Applies a learning-rate schedule step to the whole federation.
    /// Eager mode sets every replica's optimizer; lazy mode records the
    /// rate in the registry (applied whenever a client materializes) and
    /// updates the currently active set; remote mode is a no-op — real
    /// client processes own their optimizer, and the schedule is not part
    /// of the socket protocol.
    pub fn apply_lr_schedule(&mut self, lr: f32) {
        if self.remote {
            return;
        }
        if let Some(reg) = &self.registry {
            reg.set_pending_lr(lr);
        }
        for c in &mut self.clients {
            c.set_lr(lr);
        }
    }

    /// Resolves a client id to its slot in `self.clients`. Eager mode is
    /// the identity; lazy mode binary-searches the id-sorted active set.
    /// Remote mode has no slots to resolve.
    fn local_idx(&self, k: usize) -> usize {
        assert!(
            !self.remote,
            "client state lives in the remote process; this algorithm needs local replicas"
        );
        if self.registry.is_none() {
            k
        } else {
            self.clients
                .binary_search_by_key(&k, |c| c.id())
                .unwrap_or_else(|_| panic!("client {k} is not active this round"))
        }
    }

    /// Lazy mode: materializes every client in `ids` (sorted) that is not
    /// already active, fanning construction across the worker budget, and
    /// merges them into the id-sorted active set. No-op in eager/remote
    /// mode.
    fn ensure_active(&mut self, ids: &[usize]) {
        if self.registry.is_none() {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        // Fast path: everything requested is already active. Crucially this
        // leaves in-flight waves untouched — training/eval calls for the
        // *current* wave must not consume a prefetch carrying the *next*
        // one (returning its builds to the shards un-merged would redo
        // every materialization inline at the next broadcast).
        if ids
            .iter()
            .all(|&k| self.clients.binary_search_by_key(&k, |c| c.id()).is_ok())
        {
            return;
        }
        // Any persist still being written must land before a wake can look
        // for it, and the prefetch wave holds the persists of the clients
        // it built — consume it (merge or return) before deciding what is
        // still missing.
        self.join_hibernate_wave();
        self.consume_prefetch(ids);
        let reg = self.registry.as_ref().expect("lazy mode");
        let missing: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&k| self.clients.binary_search_by_key(&k, |c| c.id()).is_err())
            .collect();
        if missing.is_empty() {
            return;
        }
        let mut span = self.tracer.span(SpanKind::Materialize);
        let built_before = reg.shells_built();
        let threads = rfl_tensor::thread_budget().min(missing.len());
        let mut built: Vec<Option<Client>> = (0..missing.len()).map(|_| None).collect();
        if threads <= 1 {
            for (slot, &k) in missing.iter().enumerate() {
                built[slot] = Some(reg.materialize(k));
            }
        } else {
            // Index-addressed slots + an atomic work queue: the result is
            // independent of which worker builds which client.
            let slots: Vec<std::sync::Mutex<&mut Option<Client>>> =
                built.iter_mut().map(std::sync::Mutex::new).collect();
            let next = std::sync::atomic::AtomicUsize::new(0);
            let work = |_: usize| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= missing.len() {
                    break;
                }
                let client = reg.materialize(missing[i]);
                **slots[i].lock().expect("slot poisoned") = Some(client);
            };
            std::thread::scope(|s| {
                for t in 1..threads {
                    let work = &work;
                    s.spawn(move || work(t));
                }
                work(0);
            });
        }
        shell_counters(&mut span, missing.len(), reg.shells_built() - built_before);
        drop(span);
        self.clients
            .extend(built.into_iter().map(|c| c.expect("client not built")));
        self.clients.sort_by_key(|c| c.id());
    }

    /// Merges a finished prefetch wave into the active set: clients in
    /// `ids` (and not already active) join the round, everything else —
    /// mispredictions, or ids a custom driver never asked for — goes back
    /// to the registry shards so the persist each build consumed returns
    /// home. Merged clients are re-stamped with the *current* pending
    /// learning rate: a schedule step may have landed after the wave
    /// launched.
    fn consume_prefetch(&mut self, ids: &[usize]) {
        let Some(wave) = self.prefetch.take() else {
            return;
        };
        let built = wave.join().expect("prefetch wave panicked");
        let reg = self.registry.as_ref().expect("prefetch implies lazy mode");
        let lr = reg.pending_lr();
        let mut merged = false;
        for mut c in built {
            if ids.binary_search(&c.id()).is_ok()
                && self
                    .clients
                    .binary_search_by_key(&c.id(), |c| c.id())
                    .is_err()
            {
                if let Some(lr) = lr {
                    c.set_lr(lr);
                }
                self.clients.push(c);
                merged = true;
            } else {
                reg.hibernate(c);
            }
        }
        if merged {
            self.clients.sort_by_key(|c| c.id());
        }
    }

    /// Spawns a prefetch wave materializing `ids` on a spare thread. The
    /// previous hibernate wave (if any) is handed to the worker to join
    /// first: the predicted selection may include clients whose persists
    /// are still being written.
    fn spawn_prefetch(&mut self, ids: Vec<usize>) {
        let reg = Arc::clone(self.registry.as_ref().expect("lazy mode"));
        let hibernating = self.hibernate_wave.take();
        let tracer = self.tracer.clone();
        self.prefetch = Some(std::thread::spawn(move || {
            if let Some(w) = hibernating {
                w.join().expect("hibernate wave panicked");
            }
            let mut span = tracer.span(SpanKind::Prefetch);
            let built_before = reg.shells_built();
            let built: Vec<Client> = ids.iter().map(|&k| reg.materialize(k)).collect();
            shell_counters(&mut span, built.len(), reg.shells_built() - built_before);
            built
        }));
    }

    /// Predicts round `current + 1`'s selection from the lookahead stream
    /// and prefetches the clients that are not active right now. Active
    /// ids are *never* prefetched — their authoritative state is the live
    /// object, and a second build would fabricate a persist from the
    /// initial global.
    fn launch_prefetch(&mut self) {
        let Some(la) = &self.lookahead else { return };
        if !la.overlap || self.prefetch.is_some() || self.registry.is_none() {
            return;
        }
        let next = self.current_round as usize + 1;
        if next >= la.rounds {
            return;
        }
        let predicted = la.stream.select(next, self.n_clients, la.sample_ratio);
        let ids: Vec<usize> = predicted
            .into_iter()
            .filter(|&k| self.clients.binary_search_by_key(&k, |c| c.id()).is_err())
            .collect();
        if !ids.is_empty() {
            self.spawn_prefetch(ids);
        }
    }

    /// Manually schedules a prefetch wave for `ids` (sorted) — the hook
    /// wave-style drivers use to double-buffer: while wave `i` trains, wave
    /// `i+1` materializes. Already-active ids are skipped; a wave already
    /// in flight wins (one at a time). The wave is consumed by the next
    /// `ensure_active`-routed call (`broadcast_params`, `client_mut`, ...).
    pub fn prefetch_hint(&mut self, ids: &[usize]) {
        if self.registry.is_none() || self.prefetch.is_some() {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let ids: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&k| self.clients.binary_search_by_key(&k, |c| c.id()).is_err())
            .collect();
        if !ids.is_empty() {
            self.spawn_prefetch(ids);
        }
    }

    /// Turns on the pipelined round engine (lazy mode only). Selections
    /// come from a round-addressable [`SelectionStream`] seeded here
    /// instead of the trainer's threaded RNG, so round `t+1`'s ids are
    /// known while round `t` is still training: [`Federation::broadcast_params`]
    /// launches a prefetch wave materializing them on a spare thread, and
    /// [`Federation::begin_round`] hibernates the previous selection in
    /// the background. `rounds` bounds the lookahead. Training results are
    /// bit-identical to the same stream without overlap (pinned by the
    /// pipeline tests); note the selection *sequence* differs from the
    /// legacy threaded-RNG draw whenever `sample_ratio < 1`.
    pub fn enable_pipelined_rounds(&mut self, seed: u64, sample_ratio: f32, rounds: usize) {
        assert!(
            self.registry.is_some(),
            "pipelined rounds need a lazy-mode federation"
        );
        self.lookahead = Some(Lookahead {
            stream: SelectionStream::new(seed),
            sample_ratio,
            rounds,
            overlap: true,
        });
        self.background_hibernate = true;
    }

    /// The degenerate pipelined engine: same [`SelectionStream`] draws, no
    /// background waves. Exists so determinism tests can A/B the overlap
    /// machinery against a serial run with identical selections.
    pub fn enable_streamed_selection(&mut self, seed: u64, sample_ratio: f32, rounds: usize) {
        assert!(
            self.registry.is_some(),
            "streamed selection needs a lazy-mode federation"
        );
        self.lookahead = Some(Lookahead {
            stream: SelectionStream::new(seed),
            sample_ratio,
            rounds,
            overlap: false,
        });
    }

    /// Draws the current round's selection: from the round-addressable
    /// stream when the pipelined engine is installed (the same ids its
    /// prefetch wave predicted), otherwise from the classic rng-threaded
    /// sampler. `rng` is untouched in streamed mode.
    pub fn sample_selection(&self, ratio: f32, rng: &mut StdRng) -> Vec<usize> {
        match &self.lookahead {
            Some(la) => la
                .stream
                .select(self.current_round as usize, self.n_clients, ratio),
            None => sample_clients(self.n_clients, ratio, rng),
        }
    }

    /// Installs an observability sink; all subsequent transport operations,
    /// local training, and evaluations emit spans into it. Defaults to the
    /// disabled (no-op) tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn num_clients(&self) -> usize {
        self.n_clients
    }

    pub fn num_params(&self) -> usize {
        self.global.len()
    }

    pub fn feature_dim(&self) -> usize {
        self.eval_model.feature_dim()
    }

    /// The flat-parameter range of the feature extractor `φ` (the paper's
    /// `w̃`); everything after it is the output layer `w̿`.
    pub fn phi_param_range(&self) -> std::ops::Range<usize> {
        self.eval_model.phi_param_range()
    }

    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    pub fn global(&self) -> &[f32] {
        &self.global
    }

    pub fn set_global(&mut self, params: Vec<f32>) {
        assert_eq!(params.len(), self.global.len());
        self.global = params;
    }

    /// The transport's byte/message ledger.
    pub fn comm_stats(&self) -> &CommStats {
        self.transport.stats()
    }

    /// A copy of the ledger (for `since`-style per-phase accounting).
    pub fn comm_snapshot(&self) -> CommStats {
        self.transport.stats().clone()
    }

    /// Message-level fault counters (all zeros under [`PerfectTransport`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.transport.fault_stats()
    }

    /// Sends `payload` to `client` as a `kind` message through the
    /// transport. Algorithm code uses this for its custom traffic (control
    /// variates, δ targets); the plumbing below covers model sync.
    pub fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery {
        self.transport.send(kind, client, payload)
    }

    /// Sends `payload` to every client in `clients` (byte cost charged per
    /// receiver, content decoded once).
    pub fn broadcast(
        &mut self,
        kind: MsgKind,
        clients: &[usize],
        payload: &[f32],
    ) -> BroadcastDelivery {
        self.transport.broadcast(kind, clients, payload)
    }

    /// Borrows client `k`. Lazy mode: `k` must be active this round
    /// (materialized by a broadcast or [`Federation::client_mut`]).
    pub fn client(&self, k: usize) -> &Client {
        let idx = self.local_idx(k);
        &self.clients[idx]
    }

    /// Mutably borrows client `k`, materializing it first in lazy mode.
    pub fn client_mut(&mut self, k: usize) -> &mut Client {
        if self.registry.is_some() && self.clients.binary_search_by_key(&k, |c| c.id()).is_err() {
            self.ensure_active(&[k]);
        }
        let idx = self.local_idx(k);
        &mut self.clients[idx]
    }

    /// Sends the current global parameters to every selected client as a
    /// metered [`MsgKind::ModelDown`] broadcast, installing them into the
    /// client models whose link delivered. Returns the delivered subset (==
    /// `selected` under the perfect transport) — clients that missed the
    /// download sit the round out.
    pub fn broadcast_params(&mut self, selected: &[usize]) -> Vec<usize> {
        self.ensure_active(selected);
        // Pipelined engine: this round's actives are in place — start
        // materializing the *next* round's predicted selection on a spare
        // thread while this round trains and folds.
        self.launch_prefetch();
        let mut span = self.tracer.span(SpanKind::Broadcast);
        let before = self.comm_snapshot();
        let fbefore = self.fault_stats();
        let bd = self
            .transport
            .broadcast(MsgKind::ModelDown, selected, &self.global);
        let delivered = bd.delivered_clients(selected);
        if !self.remote {
            // Remote clients install the parameters from the frame they
            // received; the local install is the simulation's stand-in.
            for &k in &delivered {
                let idx = self.local_idx(k);
                self.clients[idx].write_params(&bd.data);
            }
        }
        span.counter("bytes", self.comm_stats().since(&before).download_bytes());
        span.counter("clients", selected.len() as u64);
        fault_counters(&mut span, &self.fault_stats().since(&fbefore));
        delivered
    }

    /// The streaming upload walk shared by every collection flavor: claims
    /// each selected client's [`MsgKind::ModelUp`] upload in **selection
    /// order** (local mode sends it through the transport; remote mode
    /// claims the frame off the client's session queue) and hands delivered
    /// payloads to `visit(slot, client, params)` one at a time — each
    /// payload is dropped before the next is claimed, so the server never
    /// holds more than one upload unless the visitor keeps it. Returns the
    /// delivered client ids.
    pub fn fold_uploads(
        &mut self,
        selected: &[usize],
        mut visit: impl FnMut(usize, usize, &[f32]),
    ) -> Vec<usize> {
        let mut span = self.tracer.span(SpanKind::Upload);
        let before = self.comm_snapshot();
        let fbefore = self.fault_stats();
        let mut delivered = Vec::with_capacity(selected.len());
        let policy = self.compression;
        if self.remote {
            // The clients already pushed their parameters after training;
            // the server folds each upload as its frame completes, claiming
            // them in selection order so aggregation is deterministic no
            // matter the arrival order on the wire.
            if policy.is_enabled() {
                // Compressed frames decode straight into reused workspaces
                // feeding the fold — still O(d) server memory.
                let mut rt = std::mem::take(&mut self.comp_rt);
                let mut decoded = std::mem::take(&mut self.comp_decoded);
                for (slot, &k) in selected.iter().enumerate() {
                    let link =
                        self.remote_transport()
                            .recv_compressed(MsgKind::CompressedUp, k, &mut rt);
                    if link.delivered && decode_upload_into(policy, &rt, &self.global, &mut decoded)
                    {
                        visit(slot, k, &decoded);
                        delivered.push(k);
                    }
                }
                self.comp_rt = rt;
                self.comp_decoded = decoded;
            } else {
                for (slot, &k) in selected.iter().enumerate() {
                    if let Some(params) = self.remote_transport().recv(MsgKind::ModelUp, k).data {
                        visit(slot, k, &params);
                        delivered.push(k);
                    }
                }
            }
        } else {
            let mut buf = std::mem::take(&mut self.upload_buf);
            if policy.is_enabled() {
                // Simulate exactly what a remote client does: compress the
                // update (params − last broadcast global) with error
                // feedback, send the framed payload through the transport,
                // and decode the received copy against the same global. The
                // residual lives on the client so hibernation keeps the
                // eager ≡ lazy trajectory bit-exact.
                let mut update = std::mem::take(&mut self.comp_update);
                let mut recon = std::mem::take(&mut self.comp_recon);
                let mut payload = std::mem::take(&mut self.comp_payload);
                let mut rt = std::mem::take(&mut self.comp_rt);
                let mut decoded = std::mem::take(&mut self.comp_decoded);
                for (slot, &k) in selected.iter().enumerate() {
                    let idx = self.local_idx(k);
                    self.clients[idx].read_params(&mut buf);
                    ef_compress_update(
                        policy,
                        &buf,
                        &self.global,
                        self.clients[idx].residual_mut(),
                        &mut update,
                        &mut recon,
                        &mut payload,
                    );
                    let link =
                        self.transport
                            .send_compressed(MsgKind::CompressedUp, k, &payload, &mut rt);
                    if link.delivered && decode_upload_into(policy, &rt, &self.global, &mut decoded)
                    {
                        visit(slot, k, &decoded);
                        delivered.push(k);
                    }
                }
                self.comp_update = update;
                self.comp_recon = recon;
                self.comp_payload = payload;
                self.comp_rt = rt;
                self.comp_decoded = decoded;
            } else {
                for (slot, &k) in selected.iter().enumerate() {
                    let idx = self.local_idx(k);
                    self.clients[idx].read_params(&mut buf);
                    if let Some(params) = self.transport.send(MsgKind::ModelUp, k, &buf).data {
                        visit(slot, k, &params);
                        delivered.push(k);
                    }
                }
            }
            self.upload_buf = buf;
        }
        span.counter("bytes", self.comm_stats().since(&before).upload_bytes());
        span.counter("clients", selected.len() as u64);
        fault_counters(&mut span, &self.fault_stats().since(&fbefore));
        delivered
    }

    /// [`Federation::fold_uploads`] with **arrival-order** claiming on the
    /// dense remote path: each sweep resolves every selected client whose
    /// upload frame has already completed in the reactor (non-blocking
    /// probe), so early finishers fold into the aggregation tree while
    /// stragglers are still uploading; only when nothing is ready does the
    /// walk block — on the earliest still-pending client, with the
    /// standard per-claim timeout. `visit` may therefore run in any order,
    /// which only the order-free reduction tree of
    /// [`Federation::collect_average`] tolerates. Returned delivered ids
    /// are in selection order either way, and the byte/fault accounting is
    /// identical. Local and compressed paths delegate unchanged.
    fn fold_uploads_unordered(
        &mut self,
        selected: &[usize],
        mut visit: impl FnMut(usize, usize, &[f32]),
    ) -> Vec<usize> {
        if !self.remote || self.compression.is_enabled() {
            return self.fold_uploads(selected, visit);
        }
        let mut span = self.tracer.span(SpanKind::Upload);
        let before = self.comm_snapshot();
        let fbefore = self.fault_stats();
        let mut got = vec![false; selected.len()];
        let mut pending: std::collections::VecDeque<usize> = (0..selected.len()).collect();
        while !pending.is_empty() {
            let mut progressed = false;
            for _ in 0..pending.len() {
                let slot = pending.pop_front().expect("pending non-empty");
                let k = selected[slot];
                match self.remote_transport().try_recv(MsgKind::ModelUp, k) {
                    None => pending.push_back(slot),
                    Some(d) => {
                        progressed = true;
                        if let Some(params) = d.data {
                            visit(slot, k, &params);
                            got[slot] = true;
                        }
                    }
                }
            }
            if !progressed {
                if let Some(slot) = pending.pop_front() {
                    let k = selected[slot];
                    if let Some(params) = self.remote_transport().recv(MsgKind::ModelUp, k).data {
                        visit(slot, k, &params);
                        got[slot] = true;
                    }
                }
            }
        }
        let delivered: Vec<usize> = selected
            .iter()
            .enumerate()
            .filter(|&(slot, _)| got[slot])
            .map(|(_, &k)| k)
            .collect();
        span.counter("bytes", self.comm_stats().since(&before).upload_bytes());
        span.counter("clients", selected.len() as u64);
        fault_counters(&mut span, &self.fault_stats().since(&fbefore));
        delivered
    }

    /// Streaming collect-and-average *without* installing the result:
    /// returns the delivered ids and the weighted average over them (with
    /// weights renormalized over the survivors), or `None` when every
    /// upload dropped. Bit-identical to
    /// [`crate::aggregate::weighted_average`] over the uploads with
    /// `renormalized_weights(weights, delivered)` when all of them arrive.
    pub fn collect_average(&mut self, selected: &[usize]) -> (Vec<usize>, Option<Vec<f32>>) {
        let dim = self.global.len();
        let mut fold_span = self.tracer.span(SpanKind::Fold);
        let mut agg = std::mem::take(&mut self.agg);
        agg.reset_for_selection(dim, &self.weights, selected);
        let delivered =
            self.fold_uploads_unordered(selected, |slot, _, params| agg.push(slot, params));
        // Resolve the slots whose uploads were lost.
        let mut di = 0usize;
        for (slot, &k) in selected.iter().enumerate() {
            if di < delivered.len() && delivered[di] == k {
                di += 1;
            } else {
                agg.mark_dropped(slot);
            }
        }
        let avg = agg.finish();
        self.agg = agg;
        fold_span.counter("clients", delivered.len() as u64);
        fold_span.counter("dims", dim as u64);
        drop(fold_span);
        (delivered, avg)
    }

    /// The standard FedAvg-style round tail in O(d) server memory: claims
    /// the selected clients' uploads in selection order, folds each one
    /// into the [`StreamingAggregator`] on arrival, and installs the
    /// aggregate as the new global (uploads all lost ⇒ the global is left
    /// untouched). Returns the delivered ids.
    pub fn collect_aggregate(&mut self, selected: &[usize]) -> Vec<usize> {
        let (delivered, avg) = self.collect_average(selected);
        let mut span = self.tracer.span(SpanKind::Aggregate);
        span.counter("clients", delivered.len() as u64);
        if let Some(avg) = avg {
            let old = std::mem::replace(&mut self.global, avg);
            self.agg.donate(old);
        }
        delivered
    }

    /// The shared δ synchronization of the regularized algorithms
    /// (rFedAvg Alg. 1 line 10, rFedAvg+ second sync): every client in
    /// `selected` recomputes its δ map with a `probe_batch`-sized probe,
    /// optionally privatizes it with the Gaussian mechanism, and uploads it
    /// as a metered [`MsgKind::DeltaUp`]; delivered maps replace the
    /// server's table rows. Wrapped in a `delta_sync` span.
    pub fn sync_deltas(
        &mut self,
        selected: &[usize],
        table: &mut DeltaTable,
        probe_batch: usize,
        dp: Option<DpConfig>,
        rng: &mut StdRng,
    ) -> usize {
        let mut span = self.tracer.span(SpanKind::DeltaSync);
        let before = self.comm_snapshot();
        let fbefore = self.fault_stats();
        let mut delivered = 0usize;
        if self.remote {
            assert!(
                dp.is_none(),
                "DP δ privatization runs client-side and is not wired over the socket protocol yet"
            );
            let round = self.current_round;
            let policy = self.compression;
            // Fan the probe requests out first so clients compute their δ
            // maps concurrently, then claim the uploads in selection order.
            for &k in selected {
                self.remote_transport().request_delta(k, round, probe_batch);
            }
            if policy.is_enabled() {
                let dim = table.dim();
                let mut rt = std::mem::take(&mut self.comp_rt);
                let mut decoded = std::mem::take(&mut self.comp_decoded);
                for &k in selected {
                    let link = self.remote_transport().recv_compressed(
                        MsgKind::CompressedDeltaUp,
                        k,
                        &mut rt,
                    );
                    if link.delivered && decode_plain_into(policy, &rt, dim, &mut decoded) {
                        table.set(k, decoded.clone());
                        delivered += 1;
                    }
                }
                self.comp_rt = rt;
                self.comp_decoded = decoded;
            } else {
                for &k in selected {
                    if let Some(received) = self.remote_transport().recv(MsgKind::DeltaUp, k).data {
                        table.set(k, received);
                        delivered += 1;
                    }
                }
            }
        } else {
            self.ensure_active(selected);
            let policy = self.compression;
            for &k in selected {
                let idx = self.local_idx(k);
                let mut delta = self.clients[idx].compute_delta(probe_batch);
                if let Some(dp) = dp {
                    privatize_delta(&mut delta, dp, rng);
                }
                if policy.is_enabled() {
                    // δ syncs are stateless (no error feedback): the probe
                    // recomputes the map from scratch each round, so a lossy
                    // sync has nothing to carry over.
                    compress_plain(policy, &delta, &mut self.comp_payload);
                    let link = self.transport.send_compressed(
                        MsgKind::CompressedDeltaUp,
                        k,
                        &self.comp_payload,
                        &mut self.comp_rt,
                    );
                    if link.delivered
                        && decode_plain_into(
                            policy,
                            &self.comp_rt,
                            delta.len(),
                            &mut self.comp_decoded,
                        )
                    {
                        table.set(k, self.comp_decoded.clone());
                        delivered += 1;
                    }
                } else if let Some(received) = self.transport.send(MsgKind::DeltaUp, k, &delta).data
                {
                    table.set(k, received);
                    delivered += 1;
                }
            }
        }
        span.counter(
            "bytes",
            self.comm_stats().since(&before).delta_upload_bytes(),
        );
        span.counter("dims", table.dim() as u64);
        span.counter("clients", selected.len() as u64);
        fault_counters(&mut span, &self.fault_stats().since(&fbefore));
        delivered
    }

    /// Runs local training on the selected clients (in parallel when
    /// configured); `rules[i]` applies to `selected[i]`. When a
    /// [`StragglerModel`] is installed, each client's step count is drawn
    /// from it instead of the uniform `steps`.
    pub fn train_selected(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: usize,
    ) -> Vec<LocalReport> {
        let per_client: Vec<usize> = match self.straggler {
            Some(m) => selected
                .iter()
                .map(|&k| m.steps_for(self.current_round, k, steps))
                .collect(),
            None => vec![steps; selected.len()],
        };
        self.train_selected_steps(selected, rules, &per_client)
    }

    /// [`Federation::train_selected`] with the per-client step counts
    /// resolved.
    fn train_selected_steps(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: &[usize],
    ) -> Vec<LocalReport> {
        assert_eq!(selected.len(), rules.len(), "one rule per selected client");
        assert_eq!(selected.len(), steps.len(), "one step count per client");
        if self.remote {
            // The rule each client applies is decided on the client from
            // the frames it received (a delivered δ target ⇒ MMD); the
            // server-side `rules` agree by construction, because both sides
            // key off the same delivery outcome.
            let round = self.current_round;
            for (&k, &e) in selected.iter().zip(steps) {
                self.remote_transport().start_training(k, round, e);
            }
            let tracer = self.tracer.clone();
            let mut reports = Vec::with_capacity(selected.len());
            for &k in selected {
                let mut span = tracer.client_span(SpanKind::LocalTrain, k);
                let report = self
                    .remote_transport()
                    .recv_report(k)
                    .unwrap_or(LocalReport {
                        loss: 0.0,
                        reg_loss: 0.0,
                        steps: 0,
                        examples: 0,
                    });
                span.counter("batches", report.steps as u64);
                span.counter("examples", report.examples as u64);
                reports.push(report);
            }
            return reports;
        }
        self.ensure_active(selected);
        if !self.parallel || selected.len() == 1 {
            return selected
                .iter()
                .zip(rules)
                .zip(steps)
                .map(|((&k, rule), &e)| {
                    let mut span = self.tracer.client_span(SpanKind::LocalTrain, k);
                    let idx = self.local_idx(k);
                    let report = self.clients[idx].train_local(e, rule);
                    span.counter("batches", report.steps as u64);
                    span.counter("examples", report.examples as u64);
                    report
                })
                .collect();
        }
        // Parallel path: take disjoint &mut Client views of the selected
        // subset (selected ids are sorted and unique, so their positions in
        // the id-sorted active vec are strictly increasing too).
        debug_assert!(selected.windows(2).all(|w| w[0] < w[1]));
        let idxs: Vec<usize> = selected.iter().map(|&k| self.local_idx(k)).collect();
        let mut refs: Vec<&mut Client> = Vec::with_capacity(idxs.len());
        {
            let mut rest: &mut [Client] = &mut self.clients;
            let mut offset = 0usize;
            for &k in &idxs {
                let (_, tail) = rest.split_at_mut(k - offset);
                let (head, tail) = tail.split_at_mut(1);
                refs.push(&mut head[0]);
                rest = tail;
                offset = k + 1;
            }
        }
        // Work-queue scheduling: an atomic counter hands out one client at a
        // time, so a straggler (many local steps, big shard) occupies one
        // worker while the rest drain the remaining queue — unlike static
        // chunking, where every client unlucky enough to share the
        // straggler's chunk waits behind it. Reports are written to
        // index-addressed slots, so the result is independent of which
        // worker runs which client. The worker count honors the same budget
        // as the tensor kernels (`RFL_THREADS` / `set_thread_budget`).
        let threads = rfl_tensor::thread_budget().min(refs.len());
        let mut reports = vec![
            LocalReport {
                loss: 0.0,
                reg_loss: 0.0,
                steps: 0,
                examples: 0,
            };
            selected.len()
        ];
        type WorkItem<'a> = (&'a mut Client, &'a LocalRule, usize, &'a mut LocalReport);
        let work: Vec<std::sync::Mutex<Option<WorkItem>>> = refs
            .into_iter()
            .zip(rules)
            .zip(steps)
            .zip(reports.iter_mut())
            .map(|(((c, rule), &e), slot)| std::sync::Mutex::new(Some((c, rule, e, slot))))
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let drain = |tracer: Tracer| loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= work.len() {
                break;
            }
            let (c, rule, e, slot) = work[i]
                .lock()
                .expect("work slot poisoned")
                .take()
                .expect("work item claimed twice");
            let mut span = tracer.client_span(SpanKind::LocalTrain, c.id());
            let report = c.train_local(e, rule);
            span.counter("batches", report.steps as u64);
            span.counter("examples", report.examples as u64);
            *slot = report;
        };
        std::thread::scope(|s| {
            for _ in 1..threads {
                let tracer = self.tracer.clone();
                let drain = &drain;
                s.spawn(move || drain(tracer));
            }
            // The calling thread is worker 0.
            drain(self.tracer.clone());
        });
        reports
    }

    /// Evaluates the global model on the held-out test set.
    pub fn evaluate_global(&mut self) -> EvalResult {
        let mut span = self.tracer.span(SpanKind::Eval);
        self.eval_model.write_params(&self.global);
        let result = evaluate(self.eval_model.as_mut(), &self.test, self.eval_batch);
        span.counter("examples", result.n as u64);
        result
    }

    /// Evaluates the global model on each client's local data
    /// (fairness evaluation, Fig. 11).
    pub fn evaluate_per_client(&mut self) -> Vec<EvalResult> {
        self.eval_model.write_params(&self.global);
        let model = self.eval_model.as_mut();
        let batch = self.eval_batch;
        if let Some(reg) = &self.registry {
            // Lazy mode: evaluation only needs each client's *dataset*, so
            // regenerate shards transiently from the source instead of
            // materializing whole clients.
            let source = Arc::clone(reg.source());
            return (0..source.num_clients())
                .map(|k| evaluate(model, &source.dataset(k), batch))
                .collect();
        }
        self.clients
            .iter()
            .map(|c| evaluate(model, c.data(), batch))
            .collect()
    }

    /// Mean data loss of the *global* model over selected clients' local
    /// data (used by q-FedAvg's fair aggregation).
    pub fn local_losses_at_global(&mut self, selected: &[usize]) -> Vec<f32> {
        // Clients already hold the broadcast global parameters.
        self.ensure_active(selected);
        selected
            .iter()
            .map(|&k| {
                let idx = self.local_idx(k);
                self.clients[idx].evaluate_local(self.eval_batch)
            })
            .map(|r| r.loss)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::uploads;
    use rand::Rng;
    use rfl_data::synth::gaussian::GaussianMixtureSpec;

    fn small_fed(parallel: bool, seed: u64) -> Federation {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(80, None, &mut rng);
        let parts = rfl_data::partition::iid(80, 4, &mut rng);
        let test = spec.generate(40, None, &mut rng);
        let data = FederatedData::from_partition(&pool, &parts, test);
        let mut cfg = FlConfig::cross_silo();
        cfg.parallel = parallel;
        cfg.batch_size = 10;
        Federation::new(
            &data,
            ModelFactory::logistic(10, 4, 0.0),
            OptimizerFactory::sgd(0.1),
            &cfg,
            seed,
        )
    }

    #[test]
    fn all_clients_start_at_global() {
        let fed = small_fed(false, 0);
        let mut buf = Vec::new();
        for k in 0..fed.num_clients() {
            fed.client(k).read_params(&mut buf);
            assert_eq!(buf, fed.global());
        }
    }

    #[test]
    fn broadcast_meters_per_receiver() {
        let mut fed = small_fed(false, 1);
        let n_params = fed.num_params();
        let delivered = fed.broadcast_params(&[0, 2]);
        assert_eq!(delivered, vec![0, 2], "perfect transport delivers all");
        assert_eq!(
            fed.comm_stats().download_bytes(),
            2 * (4 + 4 * n_params as u64)
        );
    }

    #[test]
    fn parallel_equals_serial() {
        let mut fed_s = small_fed(false, 2);
        let mut fed_p = small_fed(true, 2);
        let selected = vec![0, 1, 2, 3];
        let rules = vec![LocalRule::Plain; 4];
        fed_s.broadcast_params(&selected);
        fed_p.broadcast_params(&selected);
        let rs = fed_s.train_selected(&selected, &rules, 5);
        let rp = fed_p.train_selected(&selected, &rules, 5);
        for (a, b) in rs.iter().zip(&rp) {
            assert_eq!(a.loss, b.loss);
        }
        let ps = uploads(&mut fed_s, &selected);
        let pp = uploads(&mut fed_p, &selected);
        assert_eq!(ps, pp);
    }

    #[test]
    fn parallel_handles_sparse_selection() {
        let mut fed = small_fed(true, 3);
        let selected = vec![1, 3];
        let rules = vec![LocalRule::Plain; 2];
        let reports = fed.train_selected(&selected, &rules, 3);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.steps == 3));
    }

    #[test]
    fn evaluate_per_client_returns_one_result_each() {
        let mut fed = small_fed(false, 4);
        let results = fed.evaluate_per_client();
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.n > 0));
    }

    #[test]
    fn train_changes_params_and_reduces_global_loss_after_aggregate() {
        let mut fed = small_fed(false, 5);
        let before = fed.evaluate_global().loss;
        for _ in 0..10 {
            let selected: Vec<usize> = (0..4).collect();
            fed.broadcast_params(&selected);
            let rules = vec![LocalRule::Plain; 4];
            fed.train_selected(&selected, &rules, 5);
            fed.collect_aggregate(&selected);
        }
        let after = fed.evaluate_global().loss;
        assert!(after < before, "{before} → {after}");
    }

    #[test]
    fn tracing_does_not_change_results() {
        // The no-op sink is not enough: even an *enabled* tracer must be
        // invisible to training (it only reads the transport meters and the
        // clock, never the RNG streams).
        let run = |trace: bool| {
            let mut fed = small_fed(true, 7);
            let tracer = if trace {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            };
            fed.set_tracer(tracer.clone());
            let selected = vec![0, 1, 2, 3];
            for _ in 0..3 {
                fed.broadcast_params(&selected);
                fed.train_selected(&selected, &vec![LocalRule::Plain; 4], 5);
                fed.collect_aggregate(&selected);
            }
            (fed.global().to_vec(), tracer.records().len())
        };
        let (off, n_off) = run(false);
        let (on, n_on) = run(true);
        assert_eq!(off, on, "tracing changed training results");
        assert_eq!(n_off, 0);
        assert!(n_on > 0);
    }

    #[test]
    fn span_bytes_match_comm_stats() {
        let mut fed = small_fed(false, 8);
        let tracer = Tracer::enabled();
        fed.set_tracer(tracer.clone());
        fed.broadcast_params(&[0, 1, 2]);
        let params = uploads(&mut fed, &[0, 1, 2]);
        assert_eq!(params.len(), 3);
        let recs = tracer.records();
        let sum = |kind: &str| -> u64 {
            recs.iter()
                .filter(|r| r.kind == kind)
                .filter_map(|r| r.counter("bytes"))
                .sum()
        };
        assert_eq!(sum("broadcast"), fed.comm_stats().download_bytes());
        assert_eq!(sum("upload"), fed.comm_stats().upload_bytes());
    }

    #[test]
    fn rng_streams_do_not_collide() {
        // Two distinct clients with identical data must still take different
        // batch sequences.
        let mut rng = StdRng::seed_from_u64(9);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(40, None, &mut rng);
        let parts = [(0..40).collect::<Vec<_>>(), (0..40).collect::<Vec<_>>()];
        let test = spec.generate(8, None, &mut rng);
        let data = FederatedData {
            clients: parts.iter().map(|p| pool.select(p)).collect(),
            test,
        };
        let cfg = FlConfig {
            parallel: false,
            batch_size: 4,
            ..FlConfig::cross_silo()
        };
        let mut fed = Federation::new(
            &data,
            ModelFactory::logistic(10, 4, 0.0),
            OptimizerFactory::sgd(0.5),
            &cfg,
            9,
        );
        fed.broadcast_params(&[0, 1]);
        fed.train_selected(&[0, 1], &[LocalRule::Plain, LocalRule::Plain], 1);
        let params = uploads(&mut fed, &[0, 1]);
        assert_ne!(
            params[0].1, params[1].1,
            "clients sampled identical batches"
        );
        let _ = rng.gen::<f32>();
    }
}

#[cfg(test)]
mod straggler_tests {
    use super::*;
    use crate::rules::LocalRule;
    use crate::testutil::uploads;
    use rfl_data::synth::gaussian::GaussianMixtureSpec;

    #[test]
    fn per_client_steps_are_respected() {
        let mut rng = StdRng::seed_from_u64(30);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(80, None, &mut rng);
        let parts = rfl_data::partition::iid(80, 4, &mut rng);
        let test = spec.generate(20, None, &mut rng);
        let data = rfl_data::FederatedData::from_partition(&pool, &parts, test);
        let cfg = FlConfig {
            parallel: false,
            batch_size: 10,
            ..FlConfig::cross_silo()
        };
        let mut fed = Federation::new(
            &data,
            ModelFactory::logistic(10, 4, 0.0),
            OptimizerFactory::sgd(0.1),
            &cfg,
            30,
        );
        let selected = vec![0, 1, 2, 3];
        fed.broadcast_params(&selected);
        let rules = vec![LocalRule::Plain; 4];
        let reports = fed.train_selected_steps(&selected, &rules, &[1, 3, 5, 7]);
        let got: Vec<usize> = reports.iter().map(|r| r.steps).collect();
        assert_eq!(got, vec![1, 3, 5, 7]);
    }

    #[test]
    fn parallel_straggler_training_matches_serial() {
        let make = |parallel: bool| {
            let mut rng = StdRng::seed_from_u64(31);
            let spec = GaussianMixtureSpec::default_spec();
            let pool = spec.generate(80, None, &mut rng);
            let parts = rfl_data::partition::iid(80, 4, &mut rng);
            let test = spec.generate(20, None, &mut rng);
            let data = rfl_data::FederatedData::from_partition(&pool, &parts, test);
            let cfg = FlConfig {
                parallel,
                batch_size: 10,
                ..FlConfig::cross_silo()
            };
            Federation::new(
                &data,
                ModelFactory::logistic(10, 4, 0.0),
                OptimizerFactory::sgd(0.1),
                &cfg,
                31,
            )
        };
        let selected = vec![0, 1, 2, 3];
        let rules = vec![LocalRule::Plain; 4];
        let steps = [2usize, 4, 1, 6];
        let mut fed_s = make(false);
        let mut fed_p = make(true);
        fed_s.broadcast_params(&selected);
        fed_p.broadcast_params(&selected);
        fed_s.train_selected_steps(&selected, &rules, &steps);
        fed_p.train_selected_steps(&selected, &rules, &steps);
        assert_eq!(
            uploads(&mut fed_s, &selected),
            uploads(&mut fed_p, &selected)
        );
    }

    #[test]
    fn straggler_model_draws_bounded_deterministic_steps() {
        let m = StragglerModel::new(7, 2);
        for round in 0..5u64 {
            for k in 0..20 {
                let s = m.steps_for(round, k, 10);
                assert!((2..=10).contains(&s));
                assert_eq!(s, m.steps_for(round, k, 10), "stateless draw");
            }
        }
        // Different rounds reshuffle who straggles.
        let r0: Vec<usize> = (0..20).map(|k| m.steps_for(0, k, 10)).collect();
        let r1: Vec<usize> = (0..20).map(|k| m.steps_for(1, k, 10)).collect();
        assert_ne!(r0, r1);
        // A budget at or below the floor is returned untouched.
        assert_eq!(m.steps_for(0, 0, 2), 2);
        assert_eq!(m.steps_for(0, 0, 1), 1);
    }

    #[test]
    fn probe_batch_defaults_to_floored_batch_size() {
        let mut cfg = FlConfig::cross_silo();
        cfg.batch_size = 10;
        assert_eq!(cfg.probe_batch(), 32);
        cfg.batch_size = 64;
        assert_eq!(cfg.probe_batch(), 64);
        cfg.delta_probe_batch = Some(16);
        assert_eq!(cfg.probe_batch(), 16);
    }
}

#[cfg(test)]
mod transport_tests {
    use super::*;
    use crate::comm::{FaultConfig, FaultyTransport};
    use crate::rules::LocalRule;
    use crate::testutil::uploads;
    use rfl_data::synth::gaussian::GaussianMixtureSpec;

    fn fed_with(transport: Option<Box<dyn Transport>>, seed: u64) -> Federation {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = GaussianMixtureSpec::default_spec();
        let pool = spec.generate(80, None, &mut rng);
        let parts = rfl_data::partition::iid(80, 4, &mut rng);
        let test = spec.generate(20, None, &mut rng);
        let data = FederatedData::from_partition(&pool, &parts, test);
        let cfg = FlConfig {
            parallel: false,
            batch_size: 10,
            ..FlConfig::cross_silo()
        };
        let mut fed = Federation::new(
            &data,
            ModelFactory::logistic(10, 4, 0.0),
            OptimizerFactory::sgd(0.1),
            &cfg,
            seed,
        );
        if let Some(t) = transport {
            fed.set_transport(t);
        }
        fed
    }

    #[test]
    fn dropped_model_download_skips_param_install() {
        // Certain loss: nothing is installed and nobody participates.
        let t = FaultyTransport::new(FaultConfig::lossy(1, 1.0, 0));
        let mut fed = fed_with(Some(Box::new(t)), 40);
        let mut before = Vec::new();
        fed.client(0).read_params(&mut before);
        fed.client_mut(0).write_params(&vec![0.5; before.len()]);
        let delivered = fed.broadcast_params(&[0, 1, 2, 3]);
        assert!(delivered.is_empty());
        let mut after = Vec::new();
        fed.client(0).read_params(&mut after);
        assert_eq!(after, vec![0.5; after.len()], "params must stay untouched");
        assert_eq!(fed.fault_stats().dropped, 4);
        // Bytes were still charged for the failed attempts.
        assert!(fed.comm_stats().download_bytes() > 0);
    }

    #[test]
    fn dropped_uploads_are_excluded_from_collection() {
        let t = FaultyTransport::new(FaultConfig::lossy(3, 0.5, 0));
        let mut fed = fed_with(Some(Box::new(t)), 41);
        let all = vec![0, 1, 2, 3];
        let active = fed.broadcast_params(&all);
        fed.train_selected(&active, &vec![LocalRule::Plain; active.len()], 1);
        let before = fed.fault_stats();
        let uploads = uploads(&mut fed, &active);
        let dropped_uploads = fed.fault_stats().since(&before).dropped as usize;
        assert_eq!(uploads.len() + dropped_uploads, active.len());
        for (k, p) in &uploads {
            assert!(active.contains(k));
            assert_eq!(p.len(), fed.num_params());
        }
    }

    #[test]
    fn lossless_faulty_matches_perfect_plumbing() {
        let mut perfect = fed_with(None, 42);
        let mut faulty = fed_with(
            Some(Box::new(FaultyTransport::new(FaultConfig::lossless(9)))),
            42,
        );
        for round in 0..3 {
            for fed in [&mut perfect, &mut faulty] {
                fed.begin_round(round);
                let selected = vec![0, 1, 2, 3];
                let active = fed.broadcast_params(&selected);
                assert_eq!(active, selected);
                fed.train_selected(&active, &vec![LocalRule::Plain; 4], 2);
                assert_eq!(fed.collect_aggregate(&active), active);
            }
        }
        assert_eq!(
            perfect.global(),
            faulty.global(),
            "bit-identical trajectories"
        );
        let (p, f) = (perfect.comm_stats(), faulty.comm_stats());
        assert_eq!(p.total_bytes(), f.total_bytes());
        assert_eq!(p.messages(), f.messages());
        assert_eq!(faulty.fault_stats(), crate::comm::FaultStats::default());
    }

    #[test]
    #[should_panic(expected = "invalid compression policy")]
    fn constructors_reject_wire_invalid_policies() {
        use crate::canonical::{config, data, model, optimizer};
        let mut cfg = config(44, 1);
        cfg.compression = Compression::Quantize { bits: 9 };
        Federation::new(&data(44), model(), optimizer(), &cfg, 44);
    }

    #[test]
    #[should_panic(expected = "invalid compression policy")]
    fn set_compression_rejects_wire_invalid_policies() {
        fed_with(None, 45).set_compression(Compression::TopK { ratio: 1.5 });
    }

    #[test]
    fn straggler_model_reduces_steps_through_train_selected() {
        let mut fed = fed_with(None, 43);
        fed.set_straggler_model(Some(StragglerModel::new(5, 1)));
        fed.begin_round(0);
        let selected = vec![0, 1, 2, 3];
        fed.broadcast_params(&selected);
        let reports = fed.train_selected(&selected, &vec![LocalRule::Plain; 4], 50);
        let steps: Vec<usize> = reports.iter().map(|r| r.steps).collect();
        assert!(steps.iter().all(|&s| (1..=50).contains(&s)));
        assert!(steps.iter().any(|&s| s < 50), "someone should straggle");
        // The draw is pinned to the round: same round, same steps.
        let again = fed.train_selected(&selected, &vec![LocalRule::Plain; 4], 50);
        assert_eq!(steps, again.iter().map(|r| r.steps).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod shell_tests {
    use super::*;
    use rfl_data::synth::gaussian::GaussianMixtureSpec;

    /// 40 lazy clients of 10 samples each, a quarter sampled per round.
    fn lazy_fed(seed: u64) -> (Federation, FlConfig) {
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
            Arc::new(crate::registry::MaterializedSource::from_federated(&data)),
            data.test.clone(),
            ModelFactory::logistic(10, 4, 0.0),
            OptimizerFactory::sgd(0.1),
            &cfg,
            seed,
        );
        (fed, cfg)
    }

    #[test]
    fn a_mispredicted_wave_returns_both_persist_and_shell() {
        let (mut fed, _) = lazy_fed(51);
        fed.begin_round(0);
        fed.prefetch_hint(&[1, 3, 5]);
        // Nothing of the wave is wanted: three persists go to the shards,
        // three shells to the list, and the two clients the round does want
        // are assembled around two of those.
        fed.broadcast_params(&[0, 2]);
        let reg = fed.registry.as_ref().expect("lazy mode");
        assert_eq!(reg.num_persisted(), 3);
        assert_eq!(reg.shells_built(), 3);
        assert_eq!(reg.shells_idle(), 1);
        assert_eq!(fed.clients.len(), 2);
    }

    /// FedAvg under observation: a mispredicted hint wave before round 0,
    /// the shell list checked against the build count after every round.
    #[derive(Default)]
    struct ShellProbe {
        hinted: Vec<usize>,
        selections: Vec<Vec<usize>>,
    }

    impl crate::trainer::Algorithm for ShellProbe {
        fn name(&self) -> &'static str {
            "ShellProbe"
        }

        fn round(
            &mut self,
            fed: &mut Federation,
            cfg: &FlConfig,
            round: usize,
            rng: &mut StdRng,
        ) -> crate::trainer::RoundOutcome {
            if round == 0 {
                let wanted = fed.sample_selection(cfg.sample_ratio, rng);
                self.hinted = (0..fed.num_clients())
                    .filter(|k| !wanted.contains(k))
                    .take(5)
                    .collect();
                fed.prefetch_hint(&self.hinted);
            }
            let outcome = crate::algorithms::FedAvg.round(fed, cfg, round, rng);
            let reg = fed.registry.as_ref().expect("lazy mode");
            assert!(reg.shells_idle() as u64 <= reg.shells_built());
            self.selections.push(outcome.selected.clone());
            outcome
        }
    }

    #[test]
    fn the_shell_list_is_bounded_and_leaks_nothing() {
        use std::collections::BTreeSet;
        let (mut fed, cfg) = lazy_fed(52);
        let mut probe = ShellProbe::default();
        crate::Trainer::new(cfg)
            .pipelined()
            .run(&mut probe, &mut fed);
        fed.evict_active();
        fed.quiesce();

        // Every client ever brought to life is persisted, exactly once.
        let touched: BTreeSet<usize> = probe
            .selections
            .iter()
            .flatten()
            .chain(&probe.hinted)
            .copied()
            .collect();
        assert_eq!(probe.hinted.len(), 5);
        assert_eq!(fed.num_persisted(), touched.len());

        // Every shell ever built is back on the list ...
        let reg = fed.registry.as_ref().expect("lazy mode");
        assert_eq!(reg.shells_idle() as u64, reg.shells_built());
        // ... and there are no more of them than clients were ever live at
        // once: a round's selection plus the prefetch of the next one (or
        // the hint wave, alone before round 0). 80 client-rounds ran.
        let live_high_water = probe
            .selections
            .windows(2)
            .map(|w| w[0].iter().chain(&w[1]).collect::<BTreeSet<_>>().len())
            .max()
            .expect("several rounds")
            .max(probe.hinted.len());
        assert!(
            reg.shells_built() <= live_high_water as u64,
            "{} shells for at most {live_high_water} live clients",
            reg.shells_built()
        );
        assert!(live_high_water <= 20);
    }
}
