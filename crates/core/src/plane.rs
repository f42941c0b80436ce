//! The client plane: what a round asks of "a cohort of clients", and the
//! two back-ends that answer.
//!
//! A round makes five requests — *install* the global, *train* under a
//! rule, *upload* the parameters, probe a *δ* map, *evaluate* locally — and
//! `ClientPlane` has one method for each, taking the whole selection.
//! `LocalPlane` owns the replicas (an eager `Vec<Client>` or the lazy
//! registry's active set) and carries their frames through any
//! [`Transport`], so perfect and faulty delivery are the same code;
//! `RemotePlane` sends the requests to processes running
//! [`crate::comm::run_client_loop`] and claims their frames off the wire.
//! Requests fan out to the whole selection first — in process that is
//! [`fan_out`] dealing the selected replicas to workers under the thread
//! budget, each writing into its own slot — and upload and δ frames are
//! then claimed one client at a time, in selection order unless the caller
//! allows the dense fold's arrival-order sweep. What a client does to
//! produce such a frame is written once, in [`answer`], for both sides.
//!
//! The back-end is chosen once, by the [`crate::Federation`] constructor;
//! what it offers beyond the five requests is a list of [`Capability`]s
//! that [`crate::Trainer::try_run`] checks the algorithm's against.

use crate::client::{Client, LocalReport};
use crate::comm::{Delivery, LinkOutcome, MsgKind, PerfectTransport, RemoteTransport, Transport};
use crate::compress::{compress_plain, ef_compress_update, CompressedVec, Compression};
use crate::dp::{privatize_delta, DpConfig};
use crate::eval::{evaluate, EvalResult};
use crate::registry::ClientRegistry;
use crate::rules::LocalRule;
use crate::sampling::SelectionStream;
use rand::rngs::StdRng;
use rfl_data::Dataset;
use rfl_nn::Model;
use rfl_trace::{SpanKind, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Something a round hook needs from the plane beyond the five requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capability {
    /// The server decides each client's [`LocalRule`] and the client must
    /// apply it as given (FedProx's anchor, SCAFFOLD's correction, a δ
    /// target that never crossed the wire). A remote client derives its
    /// rule from the frames it received, so only `Plain` and an MMD rule
    /// built from a delivered `DeltaDown` agree on both sides.
    ServerSideRule,
    /// The server reads client state directly: learning rates, the local
    /// loss at the global model, an unmetered δ probe.
    ClientStateRead,
    /// The full δ-table broadcast (`DeltaTableDown`) of rFedAvg.
    TableDownload,
    /// The control-variate planes (`ControlDown` / `ControlUp`) of SCAFFOLD.
    ControlPlane,
    /// The Gaussian mechanism on δ uploads, which runs on the client.
    DeltaPrivacy,
}

/// An algorithm × back-end pair that cannot run, named before round 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unsupported {
    pub algorithm: &'static str,
    pub backend: &'static str,
    pub capability: Capability,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (algo, capability) = (self.algorithm, self.capability);
        let backend = self.backend;
        write!(
            f,
            "{algo} needs {capability:?}, which the {backend} back-end does not provide"
        )
    }
}

impl std::error::Error for Unsupported {}

/// Batch size of every evaluation pass (global and per client).
pub(crate) const EVAL_BATCH: usize = 64;

/// The two requests whose reply is a frame the server claims per client.
pub(crate) enum Pull<'a> {
    /// The parameters: dense, or — under an enabled policy — the update
    /// against `global` compressed with the client's error-feedback
    /// residual.
    Upload { global: &'a [f32] },
    /// The δ map the request probed, privatized when `dp` is set
    /// (compressed without error feedback: the probe starts from scratch
    /// every round, so there is nothing to carry over).
    Delta {
        dp: Option<(DpConfig, &'a mut StdRng)>,
    },
}

impl Pull<'_> {
    /// The message kind of the frame, dense or compressed.
    pub(crate) fn kind(&self, compressed: bool) -> MsgKind {
        match (self, compressed) {
            (Pull::Upload { .. }, false) => MsgKind::ModelUp,
            (Pull::Upload { .. }, true) => MsgKind::CompressedUp,
            (Pull::Delta { .. }, false) => MsgKind::DeltaUp,
            (Pull::Delta { .. }, true) => MsgKind::CompressedDeltaUp,
        }
    }
}

/// Reused client-side buffers of [`answer`]: the flat parameters or δ map,
/// the error-feedback workspaces and the encoded payload.
#[derive(Default)]
pub(crate) struct Scratch {
    flat: Vec<f32>,
    /// The probed δ map: a δ *request* fills it
    /// ([`Client::compute_delta_into`]), the claim's [`answer`] frames it.
    pub(crate) delta: Vec<f32>,
    update: Vec<f32>,
    recon: Vec<f32>,
    payload: CompressedVec,
}

/// A client's frame, borrowed from the [`Scratch`] it was built in.
pub(crate) enum Frame<'a> {
    Dense(&'a [f32]),
    Compressed(&'a CompressedVec),
}

/// The client half of an upload or a δ claim — the same arithmetic in the
/// same order whichever side of a wire the client sits on. The δ probe
/// itself belongs to the request, as on the wire: by the time its frame is
/// claimed the map is in `scratch.delta`, and what is left is what must
/// happen in claim order — the noise draws and the frame.
pub(crate) fn answer<'a>(
    client: &mut Client,
    what: Pull<'_>,
    policy: Compression,
    scratch: &'a mut Scratch,
) -> Frame<'a> {
    let values = match what {
        Pull::Upload { global } => {
            client.read_params(&mut scratch.flat);
            if policy.is_enabled() {
                ef_compress_update(
                    policy,
                    &scratch.flat,
                    global,
                    client.residual_mut(),
                    &mut scratch.update,
                    &mut scratch.recon,
                    &mut scratch.payload,
                );
            }
            &scratch.flat
        }
        Pull::Delta { dp } => {
            if let Some((dp, rng)) = dp {
                privatize_delta(&mut scratch.delta, dp, rng);
            }
            if policy.is_enabled() {
                compress_plain(policy, &scratch.delta, &mut scratch.payload);
            }
            &scratch.delta
        }
    };
    if policy.is_enabled() {
        Frame::Compressed(&scratch.payload)
    } else {
        Frame::Dense(values)
    }
}

/// A pulled frame as it reached the server.
pub(crate) enum Arrived {
    Dense(Vec<f32>),
    /// Decoded into the caller's `CompressedVec`.
    Compressed,
    Lost,
}

impl Arrived {
    fn dense(delivery: Delivery) -> Arrived {
        delivery.data.map_or(Arrived::Lost, Arrived::Dense)
    }

    fn compressed(link: LinkOutcome) -> Arrived {
        if link.delivered {
            Arrived::Compressed
        } else {
            Arrived::Lost
        }
    }
}

/// Runs `job(worker, i, item)` once for the `i`-th of `items`, on one thread
/// per element of `workers` (never more threads than items), the caller
/// being the first. An atomic counter hands the items out one at a time, so
/// a slow job occupies one worker while the rest drain the queue (static
/// chunking would park everything that shares the slow job's chunk behind
/// it). Whatever a job writes goes through its item — a `&mut` slot of the
/// caller's, addressed by `i` — so the result does not depend on which
/// worker ran what; `worker` is for state no two jobs may share at once (a
/// model replica, batch buffers), `&mut vec![(); threads]` when there is
/// none.
pub(crate) fn fan_out<W: Send, I: Send>(
    items: impl IntoIterator<Item = I>,
    workers: &mut [W],
    job: impl Fn(&mut W, usize, I) + Sync,
) {
    let work: Vec<Mutex<Option<I>>> = (items.into_iter())
        .map(|item| Mutex::new(Some(item)))
        .collect();
    let next = AtomicUsize::new(0);
    let drain = |worker: &mut W| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = work.get(i) else { break };
        let item = slot.lock().expect("work slot poisoned").take();
        job(worker, i, item.expect("work item claimed twice"));
    };
    let drain = &drain;
    let (own, others) = workers.split_first_mut().expect("a fan-out needs a worker");
    std::thread::scope(|s| {
        for worker in others.iter_mut().take(work.len().saturating_sub(1)) {
            s.spawn(move || drain(worker));
        }
        drain(own);
    });
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

fn train_counters(span: &mut rfl_trace::Span, report: Option<&LocalReport>) {
    span.counter("batches", report.map_or(0, |r| r.steps as u64));
    span.counter("examples", report.map_or(0, |r| r.examples as u64));
}

/// Round-addressable selection lookahead for the pipelined round engine
/// (see [`crate::Federation::enable_pipelined_rounds`]).
pub(crate) struct Lookahead {
    pub(crate) stream: SelectionStream,
    pub(crate) sample_ratio: f32,
    /// Total rounds of the run — no prefetch wave is launched past the
    /// final round (it would strand persists in a wave nobody consumes).
    pub(crate) rounds: usize,
    /// `false` = streamed selection only, no background waves (the
    /// degenerate form the pipelined ≡ serial equivalence tests compare
    /// against).
    pub(crate) overlap: bool,
}

/// The in-process back-end: client replicas the server process owns, their
/// frames carried by a simulated [`Transport`].
pub(crate) struct LocalPlane {
    /// Sorted by id. Eager mode: all `N` replicas; lazy mode: only the
    /// round's *active* clients.
    pub(crate) clients: Vec<Client>,
    /// Lazy mode: the sharded descriptor/persist store that materializes
    /// clients on demand. Shared (`Arc`) with the pipelined engine's
    /// prefetch and hibernate worker threads.
    pub(crate) registry: Option<Arc<ClientRegistry>>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) tracer: Tracer,
    n_clients: usize,
    parallel: bool,
    pub(crate) lookahead: Option<Lookahead>,
    /// In-flight prefetch wave: clients for a *predicted* future selection,
    /// materializing on a spare thread while the current round trains. The
    /// next `ensure_active` consumes it — merging the ids it wanted and
    /// returning the rest to the registry shards.
    prefetch: Option<JoinHandle<Vec<Client>>>,
    /// In-flight hibernate wave: the previous round's active clients being
    /// persisted in the background. At most one wave is alive at a time,
    /// and every materialization path joins it first, so a persist being
    /// written can never race a wake of the same client.
    hibernate_wave: Option<JoinHandle<()>>,
    /// When set, `evict_active` hibernates on a background thread instead
    /// of inline.
    pub(crate) background_hibernate: bool,
    scratch: Scratch,
    /// The last δ request: who was probed (sorted) and, slot for slot,
    /// their maps, until [`LocalPlane::pull`] takes them. The buffers are
    /// recycled from one request to the next.
    probed: Vec<usize>,
    deltas: Vec<Vec<f32>>,
}

impl LocalPlane {
    /// Replicas can be asked anything.
    pub(crate) const OFFERS: &'static [Capability] = &[
        Capability::ServerSideRule,
        Capability::ClientStateRead,
        Capability::TableDownload,
        Capability::ControlPlane,
        Capability::DeltaPrivacy,
    ];

    /// Eager `clients`, or a lazy `registry` of `n_clients`, on the default
    /// perfect transport.
    pub(crate) fn new(
        clients: Vec<Client>,
        registry: Option<Arc<ClientRegistry>>,
        n_clients: usize,
        parallel: bool,
    ) -> Self {
        LocalPlane {
            clients,
            registry,
            transport: Box::new(PerfectTransport::new()),
            tracer: Tracer::disabled(),
            n_clients,
            parallel,
            lookahead: None,
            prefetch: None,
            hibernate_wave: None,
            background_hibernate: false,
            scratch: Scratch::default(),
            probed: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// The slot of client `k` in the id-sorted `self.clients`, if it is live.
    fn slot(&self, k: usize) -> Option<usize> {
        self.clients.binary_search_by_key(&k, |c| c.id()).ok()
    }

    fn is_active(&self, k: usize) -> bool {
        self.slot(k).is_some()
    }

    fn inactive(&self, ids: &[usize]) -> Vec<usize> {
        let idle = ids.iter().filter(|&&k| !self.is_active(k));
        idle.copied().collect()
    }

    fn idx(&self, k: usize) -> usize {
        self.slot(k)
            .unwrap_or_else(|| panic!("client {k} is not active this round"))
    }

    pub(crate) fn client(&self, k: usize) -> &Client {
        &self.clients[self.idx(k)]
    }

    pub(crate) fn client_mut(&mut self, k: usize) -> &mut Client {
        self.ensure_active(&[k]);
        let idx = self.idx(k);
        &mut self.clients[idx]
    }

    /// Hibernates every active client back into the registry shards (lazy
    /// mode; no-op otherwise). With background hibernation on, the persist
    /// writes happen on a spare thread (one wave at a time); every
    /// materialization path joins the wave before touching the shards.
    pub(crate) fn evict_active(&mut self) {
        let Some(reg) = self.registry.clone() else {
            return;
        };
        if self.clients.is_empty() {
            return;
        }
        if !self.background_hibernate {
            for c in self.clients.drain(..) {
                reg.hibernate(c);
            }
            return;
        }
        self.join_hibernate_wave();
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

    fn join_hibernate_wave(&mut self) {
        if let Some(w) = self.hibernate_wave.take() {
            w.join().expect("hibernate wave panicked");
        }
    }

    /// Joins any in-flight waves, returning prefetched clients to the
    /// registry shards.
    pub(crate) fn quiesce(&mut self) {
        self.join_hibernate_wave();
        self.consume_prefetch(&[]);
    }

    /// Sets every live replica's learning rate and, in lazy mode, records
    /// it for clients that materialize later.
    pub(crate) fn set_lr(&mut self, lr: f32) {
        if let Some(reg) = &self.registry {
            reg.set_pending_lr(lr);
        }
        for c in &mut self.clients {
            c.set_lr(lr);
        }
    }

    /// Lazy mode: materializes every client in `ids` (sorted) that is not
    /// already active, fanning construction across the worker budget, and
    /// merges them into the id-sorted active set. No-op in eager mode.
    pub(crate) fn ensure_active(&mut self, ids: &[usize]) {
        if self.registry.is_none() {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        // Fast path: everything requested is already active. Crucially this
        // leaves in-flight waves untouched — training/eval calls for the
        // *current* wave must not consume a prefetch carrying the *next*
        // one (returning its builds to the shards un-merged would redo
        // every materialization inline at the next broadcast).
        if ids.iter().all(|&k| self.is_active(k)) {
            return;
        }
        // Any persist still being written must land before a wake can look
        // for it, and the prefetch wave holds the persists of the clients
        // it built — consume it (merge or return) before deciding what is
        // still missing.
        self.join_hibernate_wave();
        self.consume_prefetch(ids);
        let reg = self.registry.as_ref().expect("lazy mode");
        let missing = self.inactive(ids);
        if missing.is_empty() {
            return;
        }
        let mut span = self.tracer.span(SpanKind::Materialize);
        let built_before = reg.shells_built();
        let mut built: Vec<Option<Client>> = missing.iter().map(|_| None).collect();
        let workers = &mut vec![(); rfl_tensor::thread_budget()];
        fan_out(built.iter_mut(), workers, |(), i, slot| {
            *slot = Some(reg.materialize(missing[i]));
        });
        shell_counters(&mut span, missing.len(), reg.shells_built() - built_before);
        drop(span);
        let built = built.into_iter().map(|c| c.expect("client not built"));
        self.clients.extend(built);
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
        let reg = self.registry.clone().expect("prefetch implies lazy mode");
        let lr = reg.pending_lr();
        let mut merged = false;
        for mut c in built {
            if ids.binary_search(&c.id()).is_ok() && !self.is_active(c.id()) {
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

    /// Schedules a prefetch wave materializing the not-yet-active clients of
    /// `ids` (sorted) on a spare thread; a wave already in flight wins (one
    /// at a time). Active ids are *never* prefetched — their authoritative
    /// state is the live object, and a second build would fabricate a
    /// persist from the initial global. The previous hibernate wave (if
    /// any) is handed to the worker to join first: the wanted clients may
    /// include some whose persists are still being written.
    pub(crate) fn prefetch_hint(&mut self, ids: &[usize]) {
        let Some(reg) = self.registry.clone() else {
            return;
        };
        if self.prefetch.is_some() {
            return;
        }
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let ids = self.inactive(ids);
        if ids.is_empty() {
            return;
        }
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

    /// Brings `selected` to life for `round` and — pipelined engine — starts
    /// materializing round `round + 1`'s predicted selection on a spare
    /// thread while this round trains and folds.
    fn activate(&mut self, selected: &[usize], round: u64) {
        self.ensure_active(selected);
        let Some(la) = &self.lookahead else { return };
        let next = round as usize + 1;
        if la.overlap && self.prefetch.is_none() && next < la.rounds {
            let predicted = la.stream.select(next, self.n_clients, la.sample_ratio);
            self.prefetch_hint(&predicted);
        }
    }

    fn install(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        let bd = self
            .transport
            .broadcast(MsgKind::ModelDown, selected, global);
        let delivered = bd.delivered_clients(selected);
        for &k in &delivered {
            let idx = self.idx(k);
            self.clients[idx].write_params(&bd.data);
        }
        delivered
    }

    /// Workers of a per-client fan-out: the same budget as the tensor
    /// kernels (`RFL_THREADS` / `set_thread_budget`), or one for a serial
    /// federation.
    pub(crate) fn threads(&self) -> usize {
        if self.parallel {
            rfl_tensor::thread_budget()
        } else {
            1
        }
    }

    /// The one per-client loop: runs `job(i, client, slot)` for every
    /// `selected[i]` (sorted by id), the live replica and `slots[i]` handed
    /// to it as disjoint `&mut` views, across [`fan_out`] on
    /// [`LocalPlane::threads`] workers.
    fn each_selected<T: Send>(
        &mut self,
        selected: &[usize],
        slots: &mut [T],
        job: impl Fn(usize, &mut Client, &mut T) + Sync,
    ) {
        self.ensure_active(selected);
        assert_eq!(slots.len(), selected.len(), "one slot per selected client");
        // Both lists are sorted by id, so one pass over the live clients
        // finds the selected ones in order.
        assert!(
            selected.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted"
        );
        let all_live = selected.iter().all(|&k| self.is_active(k));
        assert!(all_live, "a selected client is not live");
        let workers = &mut vec![(); self.threads()];
        let mut wanted = selected.iter().peekable();
        let live = (self.clients.iter_mut())
            .filter(|c| wanted.next_if(|&&k| k == c.id()).is_some())
            .zip(slots);
        fan_out(live, workers, |(), i, (client, slot)| job(i, client, slot));
    }

    fn train(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: &[usize],
    ) -> Vec<Option<LocalReport>> {
        let mut reports = vec![None; selected.len()];
        let tracer = self.tracer.clone();
        self.each_selected(selected, &mut reports, |i, c, slot| {
            let mut span = tracer.client_span(SpanKind::LocalTrain, c.id());
            let report = c.train_local(steps[i], &rules[i]);
            train_counters(&mut span, Some(&report));
            *slot = Some(report);
        });
        reports
    }

    /// The client half of a δ request, for the whole selection at once:
    /// probes every selected client's map with `probe_batch`-sized batches
    /// into the plane's recycled buffers and returns them in selection
    /// order. [`LocalPlane::pull`] then frames them one at a time.
    pub(crate) fn probe_deltas(&mut self, selected: &[usize], probe_batch: usize) -> &[Vec<f32>] {
        let mut deltas = std::mem::take(&mut self.deltas);
        if deltas.len() < selected.len() {
            deltas.resize_with(selected.len(), Vec::new);
        }
        self.each_selected(selected, &mut deltas[..selected.len()], |_, c, map| {
            c.compute_delta_into(map, probe_batch)
        });
        self.deltas = deltas;
        self.probed.clear();
        self.probed.extend_from_slice(selected);
        &self.deltas[..selected.len()]
    }

    fn pull(
        &mut self,
        k: usize,
        what: Pull<'_>,
        policy: Compression,
        rt: &mut CompressedVec,
    ) -> Arrived {
        let kind = what.kind(policy.is_enabled());
        let idx = self.idx(k);
        if let Pull::Delta { .. } = what {
            let probed = self.probed.binary_search(&k);
            let slot = probed.expect("a δ claim follows its request");
            std::mem::swap(&mut self.scratch.delta, &mut self.deltas[slot]);
        }
        match answer(&mut self.clients[idx], what, policy, &mut self.scratch) {
            Frame::Dense(values) => Arrived::dense(self.transport.send(kind, k, values)),
            Frame::Compressed(payload) => {
                Arrived::compressed(self.transport.send_compressed(kind, k, payload, rt))
            }
        }
    }

    /// The local loss of the model each selected client holds.
    pub(crate) fn eval_local(&mut self, selected: &[usize]) -> Vec<f32> {
        let mut losses = vec![0.0; selected.len()];
        self.each_selected(selected, &mut losses, |_, c, loss| {
            *loss = c.evaluate_local(EVAL_BATCH).loss
        });
        losses
    }

    /// Evaluates the model `replicas` hold on every client's data, one
    /// worker per replica, results in client order. Lazy mode regenerates
    /// the shards transiently from the source instead of materializing
    /// clients.
    pub(crate) fn evaluate_each(&self, replicas: &mut [Box<dyn Model>]) -> Vec<EvalResult> {
        let mut results: Vec<Option<EvalResult>> = vec![None; self.n_clients];
        let on = |model: &mut Box<dyn Model>, shard: &Dataset| {
            Some(evaluate(std::slice::from_mut(model), shard, EVAL_BATCH))
        };
        match &self.registry {
            Some(reg) => fan_out(results.iter_mut(), replicas, |model, k, result| {
                *result = on(model, &reg.source().dataset(k))
            }),
            None => {
                let shards = self.clients.iter().map(Client::data).zip(&mut results);
                fan_out(shards, replicas, |model, _, (shard, result)| {
                    *result = on(model, shard)
                })
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("client not evaluated"));
        results.collect()
    }
}

/// The socket back-end: the clients are processes running
/// [`crate::comm::run_client_loop`]; the server sends requests as frames
/// and claims the replies off their sessions.
pub(crate) struct RemotePlane {
    pub(crate) transport: Box<dyn RemoteTransport>,
    pub(crate) tracer: Tracer,
}

impl RemotePlane {
    /// A remote client knows the five requests and nothing else.
    pub(crate) const OFFERS: &'static [Capability] = &[];
}

/// The client plane of a federation: one of the two back-ends.
#[allow(clippy::large_enum_variant)] // one per federation, never moved
pub(crate) enum ClientPlane {
    Local(LocalPlane),
    Remote(RemotePlane),
}

impl ClientPlane {
    pub(crate) fn backend(&self) -> &'static str {
        match self {
            ClientPlane::Local(_) => "in-process",
            ClientPlane::Remote(_) => "socket",
        }
    }

    /// The first of `needs` this back-end does not offer.
    pub(crate) fn missing(&self, needs: &[Capability]) -> Option<Capability> {
        let offers = match self {
            ClientPlane::Local(_) => LocalPlane::OFFERS,
            ClientPlane::Remote(_) => RemotePlane::OFFERS,
        };
        needs.iter().copied().find(|c| !offers.contains(c))
    }

    pub(crate) fn local(&self) -> Option<&LocalPlane> {
        match self {
            ClientPlane::Local(l) => Some(l),
            ClientPlane::Remote(_) => None,
        }
    }

    pub(crate) fn local_mut(&mut self) -> Option<&mut LocalPlane> {
        match self {
            ClientPlane::Local(l) => Some(l),
            ClientPlane::Remote(_) => None,
        }
    }

    pub(crate) fn transport(&self) -> &dyn Transport {
        match self {
            ClientPlane::Local(l) => l.transport.as_ref(),
            ClientPlane::Remote(r) => r.transport.as_ref(),
        }
    }

    pub(crate) fn transport_mut(&mut self) -> &mut dyn Transport {
        match self {
            ClientPlane::Local(l) => l.transport.as_mut(),
            ClientPlane::Remote(r) => r.transport.as_mut(),
        }
    }

    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        match self {
            ClientPlane::Local(l) => l.tracer = tracer,
            ClientPlane::Remote(r) => r.tracer = tracer,
        }
    }

    /// Readies `selected` for `round`'s first request (lazy
    /// materialization, the pipelined engine's prefetch).
    pub(crate) fn activate(&mut self, selected: &[usize], round: u64) {
        if let ClientPlane::Local(l) = self {
            l.activate(selected, round);
        }
    }

    /// One `ModelDown` broadcast, installed by every client it reaches (a
    /// remote one installs from the frame); returns who those are.
    pub(crate) fn install(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        match self {
            ClientPlane::Local(l) => l.install(selected, global),
            ClientPlane::Remote(r) => r
                .transport
                .broadcast(MsgKind::ModelDown, selected, global)
                .delivered_clients(selected),
        }
    }

    /// Trains every selected client — across the worker pool, or each in
    /// its own process — and returns the reports in selection order, `None`
    /// where none came back. A remote client applies the rule it derives
    /// from the frames it received (a delivered δ target ⇒ MMD), which
    /// agrees with `rules` for every algorithm the capability check admits.
    pub(crate) fn train(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: &[usize],
        round: u64,
    ) -> Vec<Option<LocalReport>> {
        match self {
            ClientPlane::Local(l) => l.train(selected, rules, steps),
            ClientPlane::Remote(r) => {
                debug_assert!(
                    (rules.iter()).all(|r| matches!(r, LocalRule::Plain | LocalRule::Mmd { .. })),
                    "a remote client cannot be handed this rule"
                );
                for (&k, &e) in selected.iter().zip(steps) {
                    r.transport.start_training(k, round, e);
                }
                selected
                    .iter()
                    .map(|&k| {
                        let mut span = r.tracer.client_span(SpanKind::LocalTrain, k);
                        let report = r.transport.recv_report(k);
                        train_counters(&mut span, report.as_ref());
                        report
                    })
                    .collect()
            }
        }
    }

    /// Fans the δ-probe requests out so the clients compute their maps
    /// concurrently — remote ones each in its process, replicas across the
    /// worker pool; the replies are then [`ClientPlane::pull`]ed.
    pub(crate) fn request_deltas(&mut self, selected: &[usize], round: u64, probe_batch: usize) {
        match self {
            ClientPlane::Local(l) => {
                l.probe_deltas(selected, probe_batch);
            }
            ClientPlane::Remote(r) => {
                for &k in selected {
                    r.transport.request_delta(k, round, probe_batch);
                }
            }
        }
    }

    /// Claims client `k`'s frame for `what`. With `block` unset, a remote
    /// client whose frame has not completed yet (on a live link) is `None`;
    /// in process there is never anything to wait for.
    pub(crate) fn pull(
        &mut self,
        k: usize,
        what: Pull<'_>,
        policy: Compression,
        rt: &mut CompressedVec,
        block: bool,
    ) -> Option<Arrived> {
        let kind = what.kind(policy.is_enabled());
        Some(match self {
            ClientPlane::Local(l) => l.pull(k, what, policy, rt),
            ClientPlane::Remote(r) if policy.is_enabled() => {
                Arrived::compressed(r.transport.recv_compressed(kind, k, rt))
            }
            ClientPlane::Remote(r) if block => Arrived::dense(r.transport.recv(kind, k)),
            ClientPlane::Remote(r) => Arrived::dense(r.transport.try_recv(kind, k)?),
        })
    }
}

/// Why [`crate::Federation::client`] and friends panic on the socket
/// back-end (the capability check keeps algorithms from getting this far).
pub(crate) const NO_REPLICAS: &str =
    "client state lives in the remote process; this back-end has no local replicas";
