//! The federation: the server's half of a round — global parameters,
//! aggregation weights, the streaming fold, evaluation — over one client
//! plane.
//!
//! The constructor picks the [`crate::plane`] back-end: [`Federation::new`]
//! and [`Federation::lazy`] the in-process one (eager replicas or the lazy
//! registry, behind any [`Transport`]), [`Federation::remote`] the socket
//! one over a [`SocketTransport`]. Everything below them is written once
//! against the plane: a model broadcast is an install, the fold claims
//! uploads, the δ sync claims δ frames, and each metered phase is one
//! `Federation::metered` call. Which phases run, in what order, with
//! which hooks, is [`crate::round`].

use crate::aggregate::StreamingAggregator;
use crate::client::{Client, LocalReport};
use crate::comm::{CommStats, FaultStats, RemoteTransport, SocketTransport, Transport};
use crate::compress::{decode_plain_into, decode_upload_into, CompressedVec, Compression};
use crate::delta::DeltaTable;
use crate::dp::DpConfig;
use crate::eval::{evaluate, EvalResult};
use crate::plane::{
    fan_out_width, ClientPlane, LocalPlane, Pull, RemotePlane, Unsupported, EVAL_BATCH, NO_REPLICAS,
};
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
            local_steps: 10,
            sample_ratio: 0.2,
            ..FlConfig::cross_silo()
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

    /// The learning rate every optimizer it builds starts at.
    pub(crate) fn lr(&self) -> f32 {
        match *self {
            OptimizerFactory::Sgd { lr } | OptimizerFactory::RmsProp { lr } => lr,
        }
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
    fn steps_for(&self, round: u64, client: usize, steps: usize) -> usize {
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

/// The byte ledger and fault counters at one instant; [`Meter::stop`] is
/// what the transport charged since.
pub(crate) struct Meter(CommStats, FaultStats);

impl Meter {
    pub(crate) fn start(fed: &Federation) -> Meter {
        Meter(fed.comm_stats().clone(), fed.fault_stats())
    }

    pub(crate) fn stop(self, fed: &Federation) -> (CommStats, FaultStats) {
        let (comm, faults) = (fed.comm_stats(), fed.fault_stats());
        (comm.since(&self.0), faults.since(&self.1))
    }
}

/// Client `k` of an eager federation: a replica starting at `global`, its
/// own optimizer state and RNG stream, the run's gradient clip.
pub(crate) fn eager_client(
    k: usize,
    data: &FederatedData,
    model: ModelFactory,
    optimizer: OptimizerFactory,
    cfg: &FlConfig,
    seed: u64,
    global: &[f32],
) -> Client {
    let mut replica = model.build(seed);
    replica.write_params(global);
    let shard = data.clients[k].clone();
    let mut c = Client::new(k, replica, shard, optimizer.build(), cfg.batch_size, seed);
    c.set_clip_grad_norm(cfg.clip_grad_norm);
    c
}

/// Forward-only replicas of the global model, one per evaluation worker.
/// The first is built with the federation (the global initialization is
/// read off it); the rest the first time a thread budget asks for them.
struct EvalReplicas {
    factory: ModelFactory,
    seed: u64,
    models: Vec<Box<dyn Model>>,
}

impl EvalReplicas {
    /// `n ≥ 1` replicas holding `params`.
    fn load(&mut self, n: usize, params: &[f32]) -> &mut [Box<dyn Model>] {
        while self.models.len() < n {
            self.models.push(self.factory.build(self.seed));
        }
        for model in &mut self.models[..n] {
            model.write_params(params);
        }
        &mut self.models[..n]
    }
}

/// The federated system: the server's state over one client plane —
/// in-process replicas ([`Federation::new`], [`Federation::lazy`]) or real
/// client processes behind a socket ([`Federation::remote`]).
pub struct Federation {
    plane: ClientPlane,
    weights: Vec<f32>,
    global: Vec<f32>,
    test: Dataset,
    eval: EvalReplicas,
    tracer: Tracer,
    current_round: u64,
    /// Draws each round's selection instead of the trainer's RNG, once
    /// [`Federation::enable_streamed_selection`] installed it.
    selection: Option<SelectionStream>,
    straggler: Option<StragglerModel>,
    /// Per-run streaming aggregation state; buffers are reused across
    /// rounds so the aggregate step allocates nothing once warm.
    agg: StreamingAggregator,
    /// Upload-compression policy ([`Compression::None`] = dense wire path).
    compression: Compression,
    /// Server-side decode workspaces, reused across rounds: the received
    /// compressed frame and the parameter vector decoded from it.
    comp_rt: CompressedVec,
    comp_decoded: Vec<f32>,
}

impl Federation {
    /// What the three constructors share: the evaluation replica and the
    /// global initialization derived from `seed`, the validated compression
    /// policy, and cold round state around the plane `plane` builds from
    /// that global.
    fn base(
        model: ModelFactory,
        cfg: &FlConfig,
        seed: u64,
        weights: Vec<f32>,
        test: Dataset,
        plane: impl FnOnce(&[f32]) -> ClientPlane,
    ) -> Self {
        assert!(weights.len() >= 2, "need at least two clients");
        assert_wire_valid(cfg.compression);
        let eval_model = model.build(seed);
        let mut global = Vec::new();
        eval_model.read_params(&mut global);
        Federation {
            plane: plane(&global),
            weights,
            global,
            test,
            eval: EvalReplicas {
                factory: model,
                seed,
                models: vec![eval_model],
            },
            tracer: Tracer::disabled(),
            current_round: 0,
            selection: None,
            straggler: None,
            agg: StreamingAggregator::default(),
            compression: cfg.compression,
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
        let weights = data.client_weights();
        Self::base(model, cfg, seed, weights, data.test.clone(), |global| {
            let clients = (0..data.clients.len())
                .map(|k| eager_client(k, data, model, optimizer, cfg, seed, global))
                .collect();
            ClientPlane::Local(LocalPlane::new(
                clients,
                None,
                data.clients.len(),
                cfg.parallel,
            ))
        })
    }

    /// Builds a *lazy-mode* federation for cross-device scale: registered
    /// clients are descriptors in a sharded [`ClientRegistry`], materialized
    /// (dataset + model replica) only while a request needs them — a
    /// training request wakes, trains and hibernates each client in one job,
    /// so one client per worker is live while a cohort trains. Server memory
    /// is `O(d + active·d)` instead of `O(N·d)`, so a million registered
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
        Self::base(model, cfg, seed, weights, test, |global| {
            let registry =
                ClientRegistry::new(source, model, optimizer, cfg, seed, global.to_vec());
            ClientPlane::Local(LocalPlane::new(Vec::new(), Some(registry), n, cfg.parallel))
        })
    }

    /// Builds a federation over the socket plane: no local client replicas —
    /// the clients are real processes reachable through `transport`. The
    /// server still owns the canonical `data` (for aggregation weights and
    /// the held-out test set), the global model, and the evaluation; every
    /// training/upload step is asked of the wire instead of computed
    /// locally. [`crate::Trainer::run`] is unchanged; algorithms whose
    /// hooks need more than the wire carries are refused before round 0.
    pub fn remote(
        data: &FederatedData,
        model: ModelFactory,
        cfg: &FlConfig,
        seed: u64,
        transport: Box<SocketTransport>,
    ) -> Self {
        let weights = data.client_weights();
        Self::base(model, cfg, seed, weights, data.test.clone(), |_| {
            ClientPlane::Remote(RemotePlane {
                transport,
                tracer: Tracer::disabled(),
            })
        })
    }

    /// Ends a remote run: tells every client process to shut down and
    /// closes the links. No-op in simulation mode.
    pub fn shutdown_remote(&mut self) {
        if let ClientPlane::Remote(r) = &mut self.plane {
            r.transport.shutdown();
        }
    }

    /// The socket server's event-loop counters — final after
    /// [`Federation::shutdown_remote`]; `None` in simulation mode.
    pub fn reactor_counters(&self) -> Option<crate::comm::ReactorCounters> {
        match &self.plane {
            ClientPlane::Remote(r) => Some(r.transport.reactor_counters()),
            ClientPlane::Local(_) => None,
        }
    }

    fn local(&self) -> &LocalPlane {
        self.plane.local().expect(NO_REPLICAS)
    }

    pub(crate) fn local_mut(&mut self) -> &mut LocalPlane {
        self.plane.local_mut().expect(NO_REPLICAS)
    }

    /// Swaps the in-process plane's network. The default is
    /// [`crate::comm::PerfectTransport`] (lossless, zero-latency); install a
    /// [`crate::comm::FaultyTransport`] to simulate drops, retries, and
    /// deadline dropouts. Must be called before training starts — the byte
    /// ledger starts over with the new transport.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.local_mut().transport = transport;
    }

    /// Installs a system-heterogeneity model: subsequent uniform-step
    /// training calls draw per-client step counts from it.
    pub fn set_straggler_model(&mut self, model: Option<StragglerModel>) {
        self.straggler = model;
    }

    /// Marks the start of communication round `round`: resets the
    /// transport's per-round fault state (virtual clocks, deadlines), pins
    /// the round index used by the straggler model and the selection
    /// stream, and — in lazy mode — hibernates the clients a request left
    /// live. [`crate::Trainer`] calls this automatically.
    pub fn begin_round(&mut self, round: u64) {
        self.current_round = round;
        if let Some(l) = self.plane.local_mut() {
            l.evict_active();
        }
        self.transport().begin_round(round);
    }

    /// The lazy registry, when this federation materializes clients lazily.
    pub(crate) fn registry(&self) -> Option<&ClientRegistry> {
        self.plane.local().and_then(|l| l.registry.as_ref())
    }

    /// Lazy mode: clients currently hibernated in the registry (previously
    /// sampled, not live). 0 otherwise.
    pub fn num_persisted(&self) -> usize {
        self.registry().map_or(0, |r| r.num_persisted())
    }

    /// Draws every later round's selection from a round-addressable
    /// [`SelectionStream`] seeded here instead of the trainer's threaded
    /// RNG (what [`crate::Trainer::pipelined`] installs on a lazy
    /// federation). The selection *sequence* differs from the threaded draw
    /// whenever the sample ratio is below 1.
    pub fn enable_streamed_selection(&mut self, seed: u64) {
        self.selection = Some(SelectionStream::new(seed));
    }

    /// Draws the current round's selection: from the selection stream when
    /// one is installed, otherwise from the classic rng-threaded sampler.
    /// `rng` is untouched in streamed mode.
    pub(crate) fn sample_selection(&self, ratio: f32, rng: &mut StdRng) -> Vec<usize> {
        let n = self.num_clients();
        match &self.selection {
            Some(stream) => stream.select(self.current_round as usize, n, ratio),
            None => sample_clients(n, ratio, rng),
        }
    }

    /// Installs an observability sink; all subsequent transport operations,
    /// local training, and evaluations emit spans into it. Defaults to the
    /// disabled (no-op) tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.plane.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn num_clients(&self) -> usize {
        self.weights.len()
    }

    pub fn num_params(&self) -> usize {
        self.global.len()
    }

    pub fn feature_dim(&self) -> usize {
        self.eval.models[0].feature_dim()
    }

    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// Installs `params` as the global model; the old vector becomes the
    /// streaming fold's next accumulator.
    pub(crate) fn set_global(&mut self, params: Vec<f32>) {
        assert_eq!(params.len(), self.global.len());
        let old = std::mem::replace(&mut self.global, params);
        self.agg.donate(old);
    }

    /// The transport's byte/message ledger.
    pub fn comm_stats(&self) -> &CommStats {
        self.plane.transport().stats()
    }

    /// Message-level fault counters (all zeros under the perfect transport).
    pub fn fault_stats(&self) -> FaultStats {
        self.plane.transport().fault_stats()
    }

    /// Whether this federation's client plane offers everything `algo`'s
    /// hooks need ([`crate::Trainer::try_run`] asks before round 0).
    pub(crate) fn check(&self, algo: &dyn crate::round::Algorithm) -> Result<(), Unsupported> {
        match self.plane.missing(algo.needs()) {
            None => Ok(()),
            Some(capability) => Err(Unsupported {
                algorithm: algo.name(),
                backend: self.plane.backend(),
                capability,
            }),
        }
    }

    /// The network below the plane, for a hook's extra downloads (δ
    /// targets, the δ table, control variates); model sync is
    /// [`Federation::broadcast_params`].
    pub(crate) fn transport(&mut self) -> &mut dyn Transport {
        self.plane.transport_mut()
    }

    /// Borrows client `k` (in-process plane). Lazy mode: `k` must be live —
    /// woken this round by [`Federation::client_mut`] or a request other than
    /// training, which puts its clients back as it goes.
    pub fn client(&self, k: usize) -> &Client {
        self.local().client(k)
    }

    /// Mutably borrows client `k`, materializing it first in lazy mode. A
    /// lazy client keeps no parameters while it sleeps. It wakes holding the
    /// last broadcast if that reached it and no request has woken it since,
    /// its trained model if the last training request trained it after that
    /// broadcast, and NaN in every parameter otherwise — where an eager
    /// replica holds whatever it held last.
    pub fn client_mut(&mut self, k: usize) -> &mut Client {
        self.local_mut().client_mut(k)
    }

    /// The one metered phase: runs `body` inside a `kind` span that carries
    /// what the transport charged meanwhile — `bytes` picks the plane and
    /// direction off the ledger's growth — then `dims`, `clients`, and the
    /// fault counters when nonzero.
    pub(crate) fn metered<R>(
        &mut self,
        kind: SpanKind,
        bytes: fn(&CommStats) -> u64,
        dims: Option<usize>,
        clients: usize,
        body: impl FnOnce(&mut Federation) -> R,
    ) -> R {
        let mut span = self.tracer.span(kind);
        let meter = Meter::start(self);
        let out = body(self);
        let (comm, faults) = meter.stop(self);
        span.counter("bytes", bytes(&comm));
        if let Some(dims) = dims {
            span.counter("dims", dims as u64);
        }
        span.counter("clients", clients as u64);
        fault_counters(&mut span, &faults);
        out
    }

    /// Sends the current global parameters to every selected client as a
    /// metered `ModelDown` broadcast, installing them into the client
    /// models whose link delivered (a lazy client asleep installs them when
    /// a request wakes it). Returns the delivered subset (==
    /// `selected` under the perfect transport) — clients that missed the
    /// download sit the round out.
    pub fn broadcast_params(&mut self, selected: &[usize]) -> Vec<usize> {
        self.metered(
            SpanKind::Broadcast,
            CommStats::download_bytes,
            None,
            selected.len(),
            |fed| fed.plane.install(selected, &fed.global),
        )
    }

    /// The streaming upload walk: claims each selected client's upload in
    /// selection order and hands delivered parameters to
    /// `visit(slot, client, params)` one at a time, so the server never
    /// holds more than one upload unless the visitor keeps it. Compressed
    /// frames decode into reused workspaces against the global they were
    /// compressed against. Returns the delivered ids in selection order.
    pub(crate) fn fold_uploads(
        &mut self,
        selected: &[usize],
        mut visit: impl FnMut(usize, usize, &[f32]),
    ) -> Vec<usize> {
        let clients = selected.len();
        self.metered(
            SpanKind::Upload,
            CommStats::upload_bytes,
            None,
            clients,
            |fed| {
                let (policy, global) = (fed.compression, &fed.global);
                let mut delivered = Vec::with_capacity(clients);
                for (slot, &k) in selected.iter().enumerate() {
                    let what = Pull::Upload { global };
                    let (rt, values) = (&mut fed.comp_rt, &mut fed.comp_decoded);
                    let decode = |rt: &_, out: &mut _| decode_upload_into(policy, rt, global, out);
                    if let Some(params) = fed.plane.claim(k, what, policy, rt, values, decode) {
                        visit(slot, k, params);
                        delivered.push(k);
                    }
                }
                delivered
            },
        )
    }

    /// Streaming collect-and-average *without* installing the result:
    /// returns the delivered ids and the weighted average over them (with
    /// weights renormalized over the survivors), or `None` when every
    /// upload dropped. Bit-identical to the materializing
    /// `weighted_average` oracle (rfl-core's `tests/oracle/fold.rs`) over the
    /// uploads with `renormalized_weights(weights, delivered)` when all of
    /// them arrive.
    pub(crate) fn collect_average(&mut self, selected: &[usize]) -> (Vec<usize>, Option<Vec<f32>>) {
        let dim = self.global.len();
        let mut fold_span = self.tracer.span(SpanKind::Fold);
        let mut agg = std::mem::take(&mut self.agg);
        agg.reset_for_selection(dim, &self.weights, selected);
        let delivered = self.fold_uploads(selected, |slot, _, params| agg.push(slot, params));
        for (slot, k) in selected.iter().enumerate() {
            if delivered.binary_search(k).is_err() {
                agg.mark_dropped(slot);
            }
        }
        let avg = agg.finish();
        self.agg = agg;
        fold_span.counter("clients", delivered.len() as u64);
        fold_span.counter("dims", dim as u64);
        (delivered, avg)
    }

    /// The shared δ synchronization of the regularized algorithms
    /// (rFedAvg Alg. 1 line 10, rFedAvg+ second sync): every client in
    /// `selected` answers a `Delta` request — recomputes its δ map with a
    /// `probe_batch`-sized probe, optionally privatizes it with the
    /// Gaussian mechanism, and uploads it on the metered δ plane; delivered
    /// maps replace the server's table rows. The probes run concurrently
    /// (the request fans out); the noise draws, the sends and the table
    /// writes follow in selection order. Wrapped in a `delta_sync` span.
    /// Returns how many arrived.
    pub(crate) fn sync_deltas(
        &mut self,
        selected: &[usize],
        table: &mut DeltaTable,
        probe_batch: usize,
        dp: Option<DpConfig>,
        rng: &mut StdRng,
    ) -> usize {
        let (dim, clients) = (table.dim(), selected.len());
        let bytes = CommStats::delta_upload_bytes;
        self.metered(SpanKind::DeltaSync, bytes, Some(dim), clients, |fed| {
            fed.plane
                .request_deltas(selected, fed.current_round, probe_batch);
            let policy = fed.compression;
            let mut delivered = 0;
            for &k in selected {
                let what = Pull::Delta {
                    dp: dp.map(|dp| (dp, &mut *rng)),
                };
                let (rt, values) = (&mut fed.comp_rt, &mut fed.comp_decoded);
                let decode = |rt: &_, out: &mut _| decode_plain_into(policy, rt, dim, out);
                if let Some(delta) = fed.plane.claim(k, what, policy, rt, values, decode) {
                    table.set_from_slice(k, delta);
                    delivered += 1;
                }
            }
            delivered
        })
    }

    /// Runs local training on the selected clients (in parallel when
    /// configured); `rules[i]` applies to `selected[i]`. A lazy client's
    /// upload is read as its training ends, before it goes back to sleep,
    /// and the fold claims what was read. When a
    /// [`StragglerModel`] is installed, each client's step count is drawn
    /// from it instead of the uniform `steps`. One report per client, in
    /// selection order; `None` where a remote client's never came back.
    ///
    /// A lazy client goes back to sleep without its parameters. Until the
    /// next broadcast or training request, a request that wakes it (a δ
    /// probe, [`Federation::client_mut`]) installs the trained model its
    /// upload holds; after that, it wakes at NaN unless a broadcast reaches
    /// it, where an eager replica would still hold its trained model.
    pub fn train_selected(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: usize,
    ) -> Vec<Option<LocalReport>> {
        let per_client: Vec<usize> = match self.straggler {
            Some(m) => selected
                .iter()
                .map(|&k| m.steps_for(self.current_round, k, steps))
                .collect(),
            None => vec![steps; selected.len()],
        };
        assert_eq!(selected.len(), rules.len(), "one rule per selected client");
        let (global, policy) = (&self.global, self.compression);
        self.plane.train(
            selected,
            rules,
            &per_client,
            self.current_round,
            global,
            policy,
        )
    }

    /// Evaluates the global model on the held-out test set, its
    /// mini-batches dealt to a replica per worker of [`fan_out_width`] (a
    /// socket plane's server evaluates under the whole budget).
    pub fn evaluate_global(&mut self) -> EvalResult {
        let mut span = self.tracer.span(SpanKind::Eval);
        let batches = self.test.len().div_ceil(EVAL_BATCH);
        let parallel = self.plane.local().is_none_or(|l| l.parallel);
        let workers = fan_out_width(parallel, batches);
        let replicas = self.eval.load(workers, &self.global);
        let result = evaluate(replicas, &self.test, EVAL_BATCH);
        span.counter("examples", result.n as u64);
        result
    }

    /// Evaluates the global model on each client's local data
    /// (fairness evaluation, Fig. 11), a replica per worker of the
    /// per-client fan-out; empty on the socket plane.
    pub fn evaluate_per_client(&mut self) -> Vec<EvalResult> {
        let Some(l) = self.plane.local() else {
            return Vec::new();
        };
        let workers = fan_out_width(l.parallel, self.weights.len());
        l.evaluate_each(self.eval.load(workers, &self.global))
    }

    /// The δ map of each selected client, probed in place and unmetered —
    /// the server-simulated sync of power-of-choice; the metered one is
    /// [`Federation::sync_deltas`].
    pub(crate) fn probe_deltas(&mut self, selected: &[usize], probe_batch: usize) -> &[Vec<f32>] {
        self.local_mut().probe_deltas(selected, probe_batch)
    }

    /// Mean data loss of the model each selected client holds — the global
    /// one, right after a broadcast — on its own data (q-FedAvg's fair
    /// weights, power-of-choice's ranking).
    pub(crate) fn eval_local(&mut self, selected: &[usize]) -> Vec<f32> {
        self.local_mut().eval_local(selected)
    }

    /// The learning rate each selected client trains with, read off the
    /// replica (woken again in lazy mode).
    pub(crate) fn learning_rates(&mut self, selected: &[usize]) -> Vec<f32> {
        self.local_mut().learning_rates(selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{collect_aggregate, uploads};
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
            assert_eq!(a.unwrap().loss, b.unwrap().loss);
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
        assert!(reports.iter().all(|r| r.unwrap().steps == 3));
    }

    #[test]
    fn evaluate_per_client_returns_one_result_each() {
        let mut fed = small_fed(false, 4);
        let results = fed.evaluate_per_client();
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.n > 0));
    }

    /// The per-client evaluations hand back what one client at a time on
    /// one thread computes, in the order asked, at any thread budget.
    #[test]
    fn local_and_per_client_evaluation_return_the_serial_values_in_order() {
        let before = rfl_tensor::thread_budget();
        let selected = vec![0, 2, 3];
        let mut fed = small_fed(false, 6);
        fed.broadcast_params(&selected);
        fed.train_selected(&selected, &vec![LocalRule::Plain; 3], 3);
        // Local losses: each replica's own (now diverged) parameters.
        let local: Vec<u32> = (selected.iter())
            .map(|&k| fed.client_mut(k).evaluate_local(EVAL_BATCH).loss.to_bits())
            .collect();
        // Per-client results: the global model on each client's shard.
        let mut model = ModelFactory::logistic(10, 4, 0.0).build(6);
        model.write_params(fed.global());
        let each: Vec<EvalResult> = (0..fed.num_clients())
            .map(|k| {
                let model = std::slice::from_mut(&mut model);
                evaluate(model, fed.client(k).data(), EVAL_BATCH)
            })
            .collect();
        assert_eq!(each.len(), 4);
        for (parallel, budget) in [(false, 1), (true, 1), (true, 2), (true, 4)] {
            rfl_tensor::set_thread_budget(budget);
            let mut fed = small_fed(parallel, 6);
            fed.broadcast_params(&selected);
            fed.train_selected(&selected, &vec![LocalRule::Plain; 3], 3);
            let got: Vec<u32> = (fed.eval_local(&selected).iter())
                .map(|l| l.to_bits())
                .collect();
            assert_eq!(got, local, "parallel {parallel}, budget {budget}");
            assert_eq!(fed.evaluate_per_client(), each);
        }
        rfl_tensor::set_thread_budget(before);
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
            collect_aggregate(&mut fed, &selected);
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
                collect_aggregate(&mut fed, &selected);
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
        let (global, policy) = (fed.global.clone(), fed.compression);
        let reports = fed
            .plane
            .train(&selected, &rules, &[1, 3, 5, 7], 0, &global, policy);
        let got: Vec<usize> = reports.iter().map(|r| r.unwrap().steps).collect();
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
        for fed in [&mut fed_s, &mut fed_p] {
            let (global, policy) = (fed.global.clone(), fed.compression);
            fed.plane
                .train(&selected, &rules, &steps, 0, &global, policy);
        }
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
    use crate::testutil::{collect_aggregate, uploads};
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
                assert_eq!(collect_aggregate(fed, &active), active);
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
    fn constructors_reject_a_top_k_ratio_above_one() {
        use crate::canonical::{config, data, model, optimizer};
        let mut cfg = config(45, 1);
        cfg.compression = Compression::TopK { ratio: 1.5 };
        Federation::new(&data(45), model(), optimizer(), &cfg, 45);
    }

    #[test]
    #[should_panic(expected = "invalid compression policy")]
    fn constructors_reject_a_sketch_with_more_rows_than_the_decoder_takes() {
        use crate::canonical::{config, data, model, optimizer};
        let mut cfg = config(46, 1);
        cfg.compression = Compression::Sketch {
            rows: 65,
            cols: 31,
            seed: 1,
        };
        Federation::new(&data(46), model(), optimizer(), &cfg, 46);
    }

    #[test]
    fn straggler_model_reduces_steps_through_train_selected() {
        let mut fed = fed_with(None, 43);
        fed.set_straggler_model(Some(StragglerModel::new(5, 1)));
        fed.begin_round(0);
        let selected = vec![0, 1, 2, 3];
        fed.broadcast_params(&selected);
        let reports = fed.train_selected(&selected, &vec![LocalRule::Plain; 4], 50);
        let steps: Vec<usize> = reports.iter().map(|r| r.unwrap().steps).collect();
        assert!(steps.iter().all(|&s| (1..=50).contains(&s)));
        assert!(steps.iter().any(|&s| s < 50), "someone should straggle");
        // The draw is pinned to the round: same round, same steps.
        let again = fed.train_selected(&selected, &vec![LocalRule::Plain; 4], 50);
        assert_eq!(
            steps,
            again.iter().map(|r| r.unwrap().steps).collect::<Vec<_>>()
        );
    }
}

#[cfg(test)]
mod shell_tests {
    use super::*;
    use crate::comm::{
        BroadcastDelivery, Delivery, DropReason, LinkOutcome, MsgKind, PerfectTransport,
    };
    use crate::testutil::lazy_fed;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_sleeper_wakes_at_its_broadcast_or_trained_model_and_at_nan_otherwise() {
        // Round 0 reaches clients 1, 2 and 3. Client 1 trains live after a
        // request woke it and changed its learning rate, client 3 in its
        // own job; client 2 is not trained, and no request wakes it.
        let (mut fed, _) = lazy_fed(51);
        let round_0 = fed.global().to_vec();
        fed.begin_round(0);
        fed.broadcast_params(&[1, 2, 3]);
        assert!(fed.local().clients.is_empty(), "a broadcast wakes nobody");
        fed.client_mut(1).set_lr(0.0123);
        let rules = vec![LocalRule::Plain; 2];
        fed.train_selected(&[1, 3], &rules, 2);
        fed.begin_round(1);
        assert_eq!(fed.num_persisted(), 2, "only a wake makes a record");
        let lrs: Vec<u32> = fed
            .learning_rates(&[1, 2, 3])
            .iter()
            .map(|l| l.to_bits())
            .collect();
        assert_eq!(
            lrs,
            [0.0123f32.to_bits(), 0.1f32.to_bits(), 0.1f32.to_bits()]
        );
        let params = |fed: &Federation, k: usize| {
            let mut p = Vec::new();
            fed.client(k).read_params(&mut p);
            assert_eq!(p.len(), fed.num_params());
            p
        };
        // Client 1 slept with nothing to install; client 2 holds the
        // broadcast that reached it, bit for bit; client 3 its trained
        // model, which its upload kept.
        assert!(params(&fed, 1).iter().all(|p| p.is_nan()));
        let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(params(&fed, 2)), bits(round_0.clone()));
        let trained = params(&fed, 3);
        assert!(trained.iter().all(|p| p.is_finite()) && trained != round_0);

        // A broadcast that misses client 3 voids its upload: it wakes at
        // NaN from then on, as do clients 1 and 2.
        fed.begin_round(2);
        fed.broadcast_params(&[5]);
        fed.learning_rates(&[1, 2, 3]);
        for k in [1, 2, 3] {
            assert!(params(&fed, k).iter().all(|p| p.is_nan()), "client {k}");
        }
    }

    /// A perfect link that loses every `DeltaUp` frame of `victim`.
    struct LosesDeltas {
        inner: PerfectTransport,
        victim: usize,
    }

    impl Transport for LosesDeltas {
        fn begin_round(&mut self, round: u64) {
            self.inner.begin_round(round)
        }
        fn send(&mut self, kind: MsgKind, client: usize, payload: &[f32]) -> Delivery {
            let mut d = self.inner.send(kind, client, payload);
            if kind == MsgKind::DeltaUp && client == self.victim {
                d.data = None;
                d.reason = Some(DropReason::Loss);
            }
            d
        }
        fn broadcast(
            &mut self,
            kind: MsgKind,
            clients: &[usize],
            payload: &[f32],
        ) -> BroadcastDelivery {
            self.inner.broadcast(kind, clients, payload)
        }
        fn send_compressed(
            &mut self,
            kind: MsgKind,
            client: usize,
            payload: &CompressedVec,
            out: &mut CompressedVec,
        ) -> LinkOutcome {
            self.inner.send_compressed(kind, client, payload, out)
        }
        fn stats(&self) -> &CommStats {
            self.inner.stats()
        }
        fn fault_stats(&self) -> FaultStats {
            self.inner.fault_stats()
        }
    }

    #[test]
    fn a_lost_delta_claim_leaves_no_map_a_later_claim_can_read() {
        // Clients 1 and 3 train in their own jobs and are woken again by
        // the δ request; the link loses client 3's map.
        let (mut fed, cfg) = lazy_fed(53);
        fed.set_transport(Box::new(LosesDeltas {
            inner: PerfectTransport::new(),
            victim: 3,
        }));
        let (selected, probe) = ([1, 3], cfg.probe_batch());
        fed.begin_round(0);
        fed.broadcast_params(&selected);
        let rules = vec![LocalRule::Plain; 2];
        fed.train_selected(&selected, &rules, 2);
        let mut table = DeltaTable::new(fed.num_clients(), fed.feature_dim());
        let mut rng = StdRng::seed_from_u64(0);
        let arrived = fed.sync_deltas(&selected, &mut table, probe, None, &mut rng);
        assert_eq!((arrived, table.num_initialized()), (1, 1));

        // The next broadcast voids the map the δ request probed for client
        // 3, as it voids the stored uploads: claiming it again finds
        // nothing.
        fed.broadcast_params(&[1]);
        let claim = catch_unwind(AssertUnwindSafe(|| {
            let (policy, rt, values) = (fed.compression, &mut fed.comp_rt, &mut fed.comp_decoded);
            let what = Pull::Delta { dp: None };
            fed.plane.claim(3, what, policy, rt, values, |_, _| true);
        }));
        let payload = claim.expect_err("a voided δ map was claimed");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.starts_with("a δ claim follows its request"),
            "{message}"
        );
    }

    /// FedAvg under observation: the selections, and after every fold the
    /// state a training request leaves behind.
    #[derive(Default)]
    struct ShellProbe {
        selections: Vec<Vec<usize>>,
    }

    impl crate::trainer::Algorithm for ShellProbe {
        fn name(&self) -> &'static str {
            "ShellProbe"
        }

        fn select(&mut self, r: &mut crate::round::Round<'_>) {
            r.selected = r.fed.sample_selection(r.cfg.sample_ratio, r.rng);
            self.selections.push(r.selected.clone());
        }

        fn after_fold(&mut self, r: &mut crate::round::Round<'_>) {
            // Every job put its client back: nobody is live, every shell
            // is on the list.
            assert!(r.fed.local().clients.is_empty(), "a trained client is live");
            let reg = r.fed.registry().expect("lazy mode");
            assert_eq!(reg.shells_idle() as u64, reg.shells_built());
        }
    }

    #[test]
    fn the_shell_list_is_bounded_and_leaks_nothing() {
        for parallel in [false, true] {
            let (mut fed, cfg) = lazy_fed(52);
            fed.local_mut().parallel = parallel;
            let tracer = Tracer::enabled();
            fed.set_tracer(tracer.clone());
            let mut probe = ShellProbe::default();
            crate::Trainer::new(cfg)
                .pipelined()
                .run(&mut probe, &mut fed);
            fed.local_mut().evict_active();

            // Every client ever brought to life is persisted, exactly once,
            // and every shell ever built is back on the list ...
            let touched: BTreeSet<usize> = probe.selections.iter().flatten().copied().collect();
            assert_eq!(fed.num_persisted(), touched.len());
            let reg = fed.registry().expect("lazy mode");
            assert_eq!(reg.shells_idle() as u64, reg.shells_built());

            // ... and there are no more of them than a round had workers
            // waking clients: a job holds one live client at a time. (The
            // thread budget is process-wide and tests beside this one move
            // it, so the workers are counted off the journal: one
            // `materialize` span each.)
            let records = tracer.records();
            let workers = (0..cfg.rounds as u64)
                .map(|round| {
                    let woke = |s: &&rfl_trace::SpanRecord| s.kind == "materialize";
                    let in_round = records.iter().filter(|s| s.round == Some(round));
                    in_round.filter(woke).count()
                })
                .max()
                .expect("several rounds");
            assert!(
                reg.shells_built() <= workers as u64,
                "{} shells for {workers} workers (parallel {parallel})",
                reg.shells_built()
            );
            if !parallel {
                assert_eq!(reg.shells_built(), 1, "a serial plane needs one shell");
            }
            // Each client-round was woken once, by its job.
            let woken: u64 = (records.iter())
                .filter(|s| s.kind == "materialize")
                .filter_map(|s| s.counter("clients"))
                .sum();
            assert_eq!(woken, (cfg.rounds * 10) as u64);
        }
    }
}
