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
            std::thread::Builder::new()
                .name("rfl-fanout".into())
                .spawn_scoped(s, move || drain(worker))
                .expect("failed to spawn a fan-out helper");
        }
        drain(own);
    });
}

/// Spawns one of the plane's per-round threads under `name`, so per-thread
/// tools (`scripts/thread-cpu.sh`, a debugger) tell it from the round
/// thread.
fn spawn_named<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"))
}

/// A cohort on its way to life: the ids of one materialization wave, handed
/// out one at a time to whoever asks. Any number of threads drain it at once
/// — [`materialize`] over [`Wave::claims`] — and each id goes to exactly one
/// of them, so no client is ever built twice (a second build would find its
/// persist gone and fabricate one from the initial global).
struct Wave {
    ids: Vec<usize>,
    /// Index of the next id to hand out. A *closed* wave parks it at
    /// [`Wave::CLOSED`], past the end of any id list, so every claim comes
    /// back empty until [`Wave::open`] resets it.
    next: AtomicUsize,
}

impl Wave {
    const CLOSED: usize = usize::MAX / 2;

    /// A wave over `ids`; `closed` until a hibernate wave that may still be
    /// writing some of their persists has landed.
    fn new(ids: Vec<usize>, closed: bool) -> Wave {
        let next = AtomicUsize::new(if closed { Wave::CLOSED } else { 0 });
        Wave { ids, next }
    }

    /// Lets the ids flow. Called once, by the thread that joined the
    /// hibernate wave: the `Release` store pairs with the `Acquire` of
    /// every later [`Wave::claim`].
    fn open(&self) {
        debug_assert!(
            self.next.load(Ordering::Relaxed) >= Wave::CLOSED,
            "only a closed wave opens"
        );
        self.next.store(0, Ordering::Release);
    }

    fn claim(&self) -> Option<usize> {
        // `Acquire`: whoever gets an id sees what the opener saw land.
        let i = self.next.fetch_add(1, Ordering::Acquire);
        self.ids.get(i).copied()
    }

    /// The ids nobody has claimed yet, claimed one by one as the iterator
    /// advances; ends when the wave is empty (at once on a closed one).
    fn claims(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::from_fn(|| self.claim())
    }
}

/// Brings `ids` to life one after the other and journals them as one `kind`
/// span: `clients` built, of which `shells_built` needed a new shell and
/// `shells_reused` took one off the registry's list (each
/// [`ClientRegistry::materialize_counted`] call says which, so the split
/// stays exact with any number of threads materializing at once). No ids, no
/// span: a drainer that found its wave already empty leaves no trace.
fn materialize(
    reg: &ClientRegistry,
    tracer: &Tracer,
    kind: SpanKind,
    ids: impl Iterator<Item = usize>,
) -> Vec<Client> {
    let mut ids = ids.peekable();
    if ids.peek().is_none() {
        return Vec::new();
    }
    let mut span = tracer.span(kind);
    let mut shells_built = 0;
    let built: Vec<Client> = ids
        .map(|k| {
            let (client, fresh_shell) = reg.materialize_counted(k);
            shells_built += u64::from(fresh_shell);
            client
        })
        .collect();
    span.counter("clients", built.len() as u64);
    span.counter("shells_built", shells_built);
    span.counter("shells_reused", built.len() as u64 - shells_built);
    built
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

/// A prefetch wave in flight: the queue, and the thread spawned to drain it
/// while the round it was launched in goes on — one drainer among several
/// once the next round arrives and wants the clients.
struct Prefetch {
    wave: Arc<Wave>,
    /// Returns what it built, journaled as a `prefetch` span.
    owner: JoinHandle<Vec<Client>>,
}

/// The in-process back-end: client replicas the server process owns, their
/// frames carried by a simulated [`Transport`].
pub(crate) struct LocalPlane {
    /// Sorted by id. Eager mode: all `N` replicas; lazy mode: only the
    /// round's *active* clients.
    pub(crate) clients: Vec<Client>,
    /// Lazy mode: the sharded descriptor/persist store that materializes
    /// clients on demand. Shared (`Arc`) with the pipelined engine's
    /// prefetch and hibernate threads.
    pub(crate) registry: Option<Arc<ClientRegistry>>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) tracer: Tracer,
    n_clients: usize,
    parallel: bool,
    pub(crate) lookahead: Option<Lookahead>,
    /// In-flight prefetch wave: clients for a *predicted* future selection,
    /// materializing while the current round trains. The next
    /// `ensure_active` consumes it — drains what is left of it, merges the
    /// ids it wanted and returns the rest to the registry shards.
    prefetch: Option<Prefetch>,
    /// In-flight hibernate wave: the previous round's active clients being
    /// persisted by one background thread. Every materialization path joins
    /// it first — or, when a prefetch wave took it over, stays closed until
    /// that wave's owner has — so a persist being written can never race a
    /// wake of the same client.
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
    /// writes happen on one spawned thread per wave (one wave at a time);
    /// every materialization path joins the wave before touching the shards.
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
        self.hibernate_wave = Some(spawn_named("rfl-hibernate", move || {
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
    /// already active, on [`LocalPlane::threads`] workers, and merges them
    /// into the id-sorted active set. No-op in eager mode.
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
        let missing = self.inactive(ids);
        if missing.is_empty() {
            return;
        }
        let built = self.drain(&Wave::new(missing, false), self.threads());
        self.clients.extend(built);
        self.clients.sort_by_key(|c| c.id());
    }

    /// Drains `wave` on `workers` threads — the caller and the rest from
    /// [`fan_out`] — each journaling what it built as a `materialize` span,
    /// and returns the clients in no particular order.
    fn drain(&self, wave: &Wave, workers: usize) -> Vec<Client> {
        let reg = self.registry.as_deref().expect("lazy mode");
        let tracer = &self.tracer;
        let mut shares: Vec<Vec<Client>> = (0..workers).map(|_| Vec::new()).collect();
        fan_out(&mut shares, &mut vec![(); workers], |(), _, share| {
            *share = materialize(reg, tracer, SpanKind::Materialize, wave.claims());
        });
        shares.into_iter().flatten().collect()
    }

    /// Finishes the prefetch wave and merges it into the active set. The
    /// round thread does not wait for the wave's owner: it drains the queue
    /// beside it, with as many [`fan_out`] workers as leave the owner its
    /// share of [`LocalPlane::threads`], and joins the owner once the queue
    /// is empty. Clients in `ids` (and not already active) then join the
    /// round; everything else — mispredictions, or ids a custom driver never
    /// asked for — goes back to the registry shards so the persist each
    /// build consumed returns home. Merged clients are re-stamped with the
    /// *current* pending learning rate: a schedule step may have landed
    /// after the wave launched.
    fn consume_prefetch(&mut self, ids: &[usize]) {
        let Some(Prefetch { wave, owner }) = self.prefetch.take() else {
            return;
        };
        let helpers = self.threads().saturating_sub(1).max(1);
        let mut built = self.drain(&wave, helpers);
        built.extend(owner.join().expect("prefetch wave panicked"));
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

    /// Launches a prefetch wave over the not-yet-active clients of `ids`
    /// (sorted): a [`Wave`] and one spawned thread, its owner, that starts
    /// draining it; a wave already in flight wins (one at a time). Active
    /// ids are *never* prefetched — their authoritative state is the live
    /// object, and a second build would fabricate a persist from the
    /// initial global. The previous hibernate wave (if any) is handed to
    /// the owner to join first, and the wave stays closed to everyone until
    /// it has: the wanted clients may include some whose persists are still
    /// being written.
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
        let wave = Arc::new(Wave::new(ids, hibernating.is_some()));
        let owner = {
            let (wave, tracer) = (Arc::clone(&wave), self.tracer.clone());
            spawn_named("rfl-prefetch", move || {
                if let Some(w) = hibernating {
                    w.join().expect("hibernate wave panicked");
                    wave.open();
                }
                materialize(&reg, &tracer, SpanKind::Prefetch, wave.claims())
            })
        };
        self.prefetch = Some(Prefetch { wave, owner });
    }

    /// Brings `selected` to life for `round` and — pipelined engine —
    /// launches the wave for round `round + 1`'s predicted selection, which
    /// its owner thread drains while this round trains and folds.
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

/// Who ends up draining a prefetch wave is a race the round thread and the
/// wave's owner run every round. These tests script it: the plane launches
/// no wave of its own (streamed selection), a hook launches each round's
/// wave over the same [`Wave`] with an owner thread that follows a
/// [`Script`], and the plane's own `consume_prefetch` plays the joiner.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{Federation, FlConfig};
    use crate::registry::{ClientDataSource, MaterializedSource};
    use crate::round::{Algorithm, Round};
    use crate::testutil::lazy_fed_over;
    use rfl_trace::SpanRecord;
    use std::sync::mpsc;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Script {
        /// The owner has drained the wave before the round thread arrives.
        OwnerDrainsAll,
        /// The owner does not start before the joiner has drained the wave.
        JoinerDrainsAll,
        /// The owner takes the first half and stops; the joiner finds the
        /// rest.
        Split,
        /// The wave is closed and the owner opens it only once the join has
        /// been refused: the joiner only waits. Serial planes only.
        ClosedAtJoin,
    }

    /// Launches the wave over `ids` with an owner that follows `script`.
    fn launch(plane: &mut LocalPlane, ids: Vec<usize>, script: Script) {
        let reg = plane.registry.clone().expect("lazy mode");
        let tracer = plane.tracer.clone();
        let helpers = plane.threads().saturating_sub(1).max(1);
        let wave = Arc::new(Wave::new(ids, script == Script::ClosedAtJoin));
        let (done, owner_is_done) = mpsc::channel();
        let owner = {
            let wave = Arc::clone(&wave);
            std::thread::spawn(move || {
                let len = wave.ids.len();
                // Fails, rather than hangs, when the joiner never asks.
                let wait_for_claims = |n: usize| {
                    let patience = std::time::Instant::now() + std::time::Duration::from_secs(20);
                    while wave.next.load(Ordering::Relaxed) < n {
                        assert!(
                            std::time::Instant::now() < patience,
                            "the joiner never asked"
                        );
                        std::thread::yield_now();
                    }
                };
                let share = match script {
                    Script::OwnerDrainsAll => len,
                    Script::Split => len / 2,
                    Script::JoinerDrainsAll => {
                        // Nobody else claims, so `len` claims made are the
                        // joiner's and the wave is empty.
                        wait_for_claims(len);
                        0
                    }
                    Script::ClosedAtJoin => {
                        // The serial plane's join asks a closed wave once.
                        assert_eq!(helpers, 1, "a serial plane");
                        assert!(wave.next.load(Ordering::Relaxed) >= Wave::CLOSED);
                        wait_for_claims(Wave::CLOSED + 1);
                        wave.open();
                        len
                    }
                };
                let ids = wave.claims().take(share);
                let built = materialize(&reg, &tracer, SpanKind::Prefetch, ids);
                let _ = done.send(());
                built
            })
        };
        if matches!(script, Script::OwnerDrainsAll | Script::Split) {
            // An owner that panicked drops its end: done either way.
            let _ = owner_is_done.recv();
        }
        plane.prefetch = Some(Prefetch { wave, owner });
    }

    /// Counts `dataset` calls per client, and refuses the poisoned one.
    struct Recording {
        inner: MaterializedSource,
        calls: Mutex<Vec<usize>>,
        poisoned: AtomicUsize,
    }

    impl ClientDataSource for Recording {
        fn num_clients(&self) -> usize {
            self.inner.num_clients()
        }
        fn num_samples(&self, k: usize) -> usize {
            self.inner.num_samples(k)
        }
        fn dataset(&self, k: usize) -> rfl_data::Dataset {
            let poisoned = self.poisoned.load(Ordering::Relaxed);
            assert_ne!(k, poisoned, "shard {k} is corrupt");
            self.calls.lock().expect("call log poisoned").push(k);
            self.inner.dataset(k)
        }
    }

    /// Which id of round 2's wave the source refuses to produce.
    #[derive(Clone, Copy)]
    enum Poison {
        /// The owner's first.
        First,
        /// The joiner's last.
        Last,
    }

    /// FedAvg, with a scripted wave for the next round launched where the
    /// pipelined engine launches its own: right after the broadcast.
    struct Scripted {
        script: Script,
        source: Arc<Recording>,
        poison: Option<Poison>,
        selections: Vec<Vec<usize>>,
        waves: Vec<Vec<usize>>,
    }

    impl Algorithm for Scripted {
        fn name(&self) -> &'static str {
            "Scripted"
        }

        fn prepare(&mut self, r: &mut Round<'_>) -> Vec<LocalRule> {
            self.selections.push(r.selected.clone());
            let next = self.selections.len();
            if next < r.cfg.rounds {
                let plane = r.fed.local_mut();
                let la = plane.lookahead.as_ref().expect("streamed selection");
                let predicted = la.stream.select(next, plane.n_clients, la.sample_ratio);
                let ids = plane.inactive(&predicted);
                assert!(ids.len() >= 2, "a wave worth splitting");
                let poisoned = match self.poison.filter(|_| next == 2) {
                    Some(Poison::First) => ids[0],
                    Some(Poison::Last) => ids[ids.len() - 1],
                    None => usize::MAX,
                };
                self.source.poisoned.store(poisoned, Ordering::Relaxed);
                launch(plane, ids.clone(), self.script);
                self.waves.push(ids);
            }
            vec![LocalRule::Plain; r.active.len()]
        }
    }

    /// What a run leaves behind: the global, every client's durable state
    /// (its parameters, and the loss of one more step for the RNG position,
    /// the shuffle cursor and the optimizer), how many are persisted.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        losses: Vec<u32>,
        global: Vec<u32>,
        persists: Vec<u32>,
        num_persisted: usize,
    }

    fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
        v.iter().map(|x| x.to_bits())
    }

    struct Run {
        outcome: Outcome,
        /// Ids in the order `dataset` was called, up to the end of the run.
        calls: Vec<usize>,
        selections: Vec<Vec<usize>>,
        waves: Vec<Vec<usize>>,
        spans: Vec<SpanRecord>,
        cfg: FlConfig,
    }

    /// The un-overlapped streamed run (`script: None`) or a scripted one.
    fn run(script: Option<Script>, parallel: bool, poison: Option<Poison>) -> Run {
        let mut source = None;
        let (mut fed, cfg) = lazy_fed_over(61, |inner| {
            let recording = Arc::new(Recording {
                inner,
                calls: Mutex::new(Vec::new()),
                poisoned: AtomicUsize::new(usize::MAX),
            });
            source = Some(Arc::clone(&recording));
            recording
        });
        let source = source.expect("the source was wrapped");
        // The plane copied `cfg.parallel` when the federation was built.
        fed.local_mut().parallel = parallel;
        fed.enable_streamed_selection(cfg.seed, cfg.sample_ratio, cfg.rounds);
        let tracer = Tracer::enabled();
        fed.set_tracer(tracer.clone());
        let trainer = || crate::Trainer::new(cfg);
        let (history, selections, waves) = match script {
            None => {
                let history = trainer().run(&mut crate::algorithms::FedAvg, &mut fed);
                (history, Vec::new(), Vec::new())
            }
            Some(script) => {
                let mut algo = Scripted {
                    script,
                    source: Arc::clone(&source),
                    poison,
                    selections: Vec::new(),
                    waves: Vec::new(),
                };
                // The production hibernate path under the scripted waves.
                fed.local_mut().background_hibernate = true;
                let history = trainer().run(&mut algo, &mut fed);
                (history, algo.selections, algo.waves)
            }
        };
        let calls = source.calls.lock().expect("call log poisoned").clone();
        let outcome = settle(&mut fed, &history);
        Run {
            outcome,
            calls,
            selections,
            waves,
            spans: tracer.records(),
            cfg,
        }
    }

    fn settle(fed: &mut Federation, history: &crate::history::History) -> Outcome {
        fed.local_mut().evict_active();
        fed.quiesce();
        let reg = Arc::clone(fed.registry().expect("lazy mode"));
        assert_eq!(
            reg.shells_idle() as u64,
            reg.shells_built(),
            "a shell leaked"
        );
        let num_persisted = reg.num_persisted();
        let (mut persists, mut params) = (Vec::new(), Vec::new());
        for k in 0..reg.num_clients() {
            let mut c = reg.materialize(k);
            c.read_params(&mut params);
            persists.extend(bits(&params));
            persists.push(c.train_local(1, &LocalRule::Plain).loss.to_bits());
        }
        Outcome {
            losses: (history.records().iter())
                .map(|r| r.train_loss.to_bits())
                .collect(),
            global: bits(fed.global()).collect(),
            persists,
            num_persisted,
        }
    }

    /// Clients journaled by the `prefetch` spans and by the `materialize`
    /// spans; every span's shell split adds up and none is empty.
    fn journaled(spans: &[SpanRecord]) -> (u64, u64) {
        let (mut prefetched, mut materialized) = (0, 0);
        for s in spans {
            let total = match s.kind {
                "prefetch" => &mut prefetched,
                "materialize" => &mut materialized,
                _ => continue,
            };
            let get = |name| s.counter(name).expect("materialization sites count shells");
            assert_eq!(get("shells_built") + get("shells_reused"), get("clients"));
            assert!(get("clients") > 0, "an empty {} span", s.kind);
            *total += get("clients");
        }
        (prefetched, materialized)
    }

    #[test]
    fn every_interleaving_of_owner_and_joiner_is_the_unoverlapped_run() {
        let reference = run(None, true, None);
        let client_rounds = (reference.cfg.rounds * 10) as u64;
        assert_eq!(journaled(&reference.spans), (0, client_rounds));
        for parallel in [false, true] {
            for script in [
                Script::OwnerDrainsAll,
                Script::JoinerDrainsAll,
                Script::Split,
                Script::ClosedAtJoin,
            ] {
                // How many helpers a closed wave refuses follows the
                // process-wide thread budget, which tests beside this one
                // move; a serial plane has one whatever it reads.
                if script == Script::ClosedAtJoin && parallel {
                    continue;
                }
                let what = format!("{script:?}, parallel {parallel}");
                let got = run(Some(script), parallel, None);
                assert_eq!(got.outcome, reference.outcome, "{what}");

                // Every selected client was brought to life once per round
                // it was selected in, by somebody.
                let mut wanted: Vec<usize> = got.selections.concat();
                let mut calls = got.calls.clone();
                wanted.sort_unstable();
                calls.sort_unstable();
                assert_eq!(calls, wanted, "{what}");
                assert_eq!(wanted.len() as u64, client_rounds);

                assert_eq!(got.waves.len(), got.cfg.rounds - 1, "{what}");
                let owners_share: usize = (got.waves.iter())
                    .map(|ids| match script {
                        Script::OwnerDrainsAll | Script::ClosedAtJoin => ids.len(),
                        Script::Split => ids.len() / 2,
                        Script::JoinerDrainsAll => 0,
                    })
                    .sum();
                let (prefetched, materialized) = journaled(&got.spans);
                assert_eq!(prefetched, owners_share as u64, "{what}");
                assert_eq!(prefetched + materialized, client_rounds, "{what}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "prefetch wave panicked")]
    fn a_shard_that_panics_under_the_owner_panics_at_the_join() {
        run(Some(Script::Split), false, Some(Poison::First));
    }

    #[test]
    #[should_panic(expected = "is corrupt")]
    fn a_shard_that_panics_under_a_helper_panics_at_the_join() {
        run(Some(Script::Split), false, Some(Poison::Last));
    }

    #[test]
    fn a_closed_wave_hands_out_nothing_until_it_opens_and_then_each_id_once() {
        let wave = Wave::new(vec![3, 5, 8], true);
        assert_eq!(wave.claims().next(), None);
        wave.open();
        let (mut a, mut b) = (wave.claims(), wave.claims());
        assert_eq!(
            [a.next(), b.next(), a.next(), b.next(), a.next()],
            [Some(3), Some(5), Some(8), None, None]
        );
    }
}
