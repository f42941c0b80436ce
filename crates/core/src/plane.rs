//! The client plane: what a round asks of "a cohort of clients", and the
//! two back-ends that answer.
//!
//! A round makes five requests — *install* the global, *train* under a
//! rule, *upload* the parameters, probe a *δ* map, *evaluate* locally — and
//! `ClientPlane` has one method for each, taking the whole selection.
//! `LocalPlane` owns the replicas (an eager `Vec<Client>` or the lazy
//! registry, whose clients are live only while a request needs them) and
//! carries their frames through any
//! [`Transport`], so perfect and faulty delivery are the same code;
//! `RemotePlane` sends the requests to processes running
//! [`crate::comm::run_client_loop`] and claims their frames off the wire.
//! Requests fan out to the whole selection first — in process that is
//! [`fan_out`] dealing the selected replicas to workers under the thread
//! budget, each writing into its own slot — and upload and δ frames are
//! then claimed one client at a time, in selection order, by one blocking
//! call on either back-end ([`ClientPlane::claim`]) that also decodes a
//! compressed frame, so the server's caller sees values or nothing. A lazy
//! client's upload is read by the training job that put it back to sleep,
//! the way a remote client answers its training request with its upload;
//! the claim only frames it. What a client does to produce such a frame is
//! written once, in [`answer_upload`] and [`answer_delta`], for both sides.
//!
//! The back-end is chosen once, by the [`crate::Federation`] constructor;
//! what it offers beyond the five requests is a list of [`Capability`]s
//! that [`crate::Trainer::try_run`] checks the algorithm's against.

use crate::client::{Client, LocalReport};
use crate::comm::{
    Delivery, LinkOutcome, MsgKind, PerfectTransport, RemoteTransport, SocketTransport, Transport,
};
use crate::compress::{compress_plain, ef_compress_update, CompressedVec, Compression};
use crate::dp::{privatize_delta, DpConfig};
use crate::eval::{evaluate, EvalResult};
use crate::registry::ClientRegistry;
use crate::rules::LocalRule;
use rand::rngs::StdRng;
use rfl_data::Dataset;
use rfl_nn::Model;
use rfl_trace::{Span, SpanKind, Stopwatch, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Reused client-side buffers of [`answer_upload`] and [`answer_delta`]:
/// the flat parameters or δ map,
/// the error-feedback workspaces and the encoded payload.
#[derive(Default)]
pub(crate) struct Scratch {
    flat: Vec<f32>,
    /// The probed δ map: a δ *request* fills it
    /// ([`Client::compute_delta_into`]), the claim's [`answer_delta`]
    /// frames it.
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

impl Scratch {
    /// The frame an answer left in these buffers: an upload's (`upload`)
    /// or a δ claim's.
    fn frame(&self, upload: bool, policy: Compression) -> Frame<'_> {
        match (policy.is_enabled(), upload) {
            (true, _) => Frame::Compressed(&self.payload),
            (false, true) => Frame::Dense(&self.flat),
            (false, false) => Frame::Dense(&self.delta),
        }
    }
}

/// The client half of an upload — the same arithmetic in the same order
/// whichever side of a wire the client sits on: the parameters, dense, or
/// the update against `global` compressed with the client's error-feedback
/// residual.
pub(crate) fn answer_upload<'a>(
    client: &mut Client,
    global: &[f32],
    policy: Compression,
    scratch: &'a mut Scratch,
) -> Frame<'a> {
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
    scratch.frame(true, policy)
}

/// The client half of a δ claim, on both sides of a wire. The δ probe
/// itself belongs to the request, as on the wire: by the time its frame is
/// claimed the map is in `scratch.delta`, and what is left is what must
/// happen in claim order — the noise draws and the frame. It touches no
/// client.
pub(crate) fn answer_delta<'a>(
    dp: Option<(DpConfig, &mut StdRng)>,
    policy: Compression,
    scratch: &'a mut Scratch,
) -> Frame<'a> {
    if let Some((dp, rng)) = dp {
        privatize_delta(&mut scratch.delta, dp, rng);
    }
    if policy.is_enabled() {
        compress_plain(policy, &scratch.delta, &mut scratch.payload);
    }
    scratch.frame(false, policy)
}

/// A pulled frame as it reached the server.
enum Arrived {
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

/// Workers of a fan-out over `items`: the thread budget the kernels run on
/// (`RFL_THREADS` / `set_thread_budget`) when `parallel`
/// ([`crate::FlConfig::parallel`]), one otherwise, and never more than the
/// items. Every fan-out is sized here.
pub(crate) fn fan_out_width(parallel: bool, items: usize) -> usize {
    if !parallel {
        return 1;
    }
    rfl_tensor::thread_budget().min(items).max(1)
}

/// Runs `job(worker, i, item)` once for the `i`-th of `items`, one pool
/// task per element of `workers` (never more tasks than items) on rfl-tensor's
/// persistent pool: the caller and up to `budget − 1` `rfl-worker`s. An
/// atomic counter hands the items out one at a time, so a slow job occupies
/// one worker while the rest drain the queue (static chunking would park
/// everything that shares the slow job's chunk behind it). Whatever a job
/// writes goes through its item — a `&mut` slot of the caller's, addressed
/// by `i` — so the result does not depend on which worker ran what;
/// `worker` is for state no two jobs may share at once (a model replica,
/// batch buffers), `&mut vec![(); n]` when there is none. The kernels a job
/// calls run inline on the thread that runs the job (see
/// [`rfl_tensor::parallel_for`]), which moves no bit: a kernel's result
/// does not depend on how many threads ran it.
pub(crate) fn fan_out<W: Send, I: Send>(
    items: impl IntoIterator<Item = I>,
    workers: &mut [W],
    job: impl Fn(&mut W, usize, I) + Sync,
) {
    assert!(!workers.is_empty(), "a fan-out needs a worker");
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
    let n = workers.len().min(work.len());
    rfl_tensor::parallel_for_chunks(&mut workers[..n], 1, |_, w| drain(&mut w[0]));
}

/// One worker's wakes (or hibernations) within one request, journaled as a
/// single span when the request ends: `clients`, and for wakes the shell
/// split ([`ClientRegistry::wake`] says per call whether the shell was new,
/// so the split stays exact with several workers at once).
/// A training worker's wakes alternate with its clients' training, so the
/// span's duration is the sum of the pieces, not the time since it opened.
#[derive(Default)]
struct Tally {
    span: Option<Span>,
    clients: u64,
    shells_built: u64,
    busy_ns: u64,
}

impl Tally {
    /// Runs `f` as one more piece of this tally's `kind` span.
    fn time<R>(&mut self, tracer: &Tracer, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        self.span.get_or_insert_with(|| tracer.span(kind));
        self.clients += 1;
        if !tracer.is_enabled() {
            return f();
        }
        let clock = Stopwatch::start();
        let out = f();
        self.busy_ns += clock.elapsed_ns();
        out
    }

    /// Journals the span, if there was any piece.
    fn close(self, shells: bool) {
        let Some(mut span) = self.span else { return };
        span.counter("clients", self.clients);
        if shells {
            span.counter("shells_built", self.shells_built);
            span.counter("shells_reused", self.clients - self.shells_built);
        }
        span.close_with_duration(self.busy_ns);
    }
}

/// A worker's `materialize` and `hibernate` tallies in one request.
#[derive(Default)]
struct Share {
    woke: Tally,
    slept: Tally,
}

impl Share {
    /// Client `k` woken at `params` ([`ClientRegistry::wake`]).
    fn wake(
        &mut self,
        tracer: &Tracer,
        reg: &ClientRegistry,
        k: usize,
        params: Option<&[f32]>,
    ) -> Client {
        let (client, fresh_shell) = self
            .woke
            .time(tracer, SpanKind::Materialize, || reg.wake(k, params));
        self.woke.shells_built += u64::from(fresh_shell);
        client
    }

    fn hibernate(&mut self, tracer: &Tracer, reg: &ClientRegistry, client: Client) {
        self.slept
            .time(tracer, SpanKind::Hibernate, || reg.hibernate(client));
    }

    fn close(self) {
        self.woke.close(true);
        self.slept.close(false);
    }
}

/// The last model broadcast, kept for the lazy clients it reached while
/// they were asleep: whichever request wakes one installs it, as the
/// broadcast would have installed it into a live replica. The next
/// broadcast replaces it.
#[derive(Default)]
struct Installed {
    params: Vec<f32>,
    /// Reached while asleep and not woken since, sorted.
    owed: Vec<usize>,
}

impl Installed {
    /// The broadcast client `k` is owed, if any.
    fn owed_to(&self, k: usize) -> Option<&[f32]> {
        let owed = self.owed.binary_search(&k).is_ok();
        owed.then_some(&self.params[..])
    }

    /// `woken` (sorted) have installed the broadcast.
    fn woke(&mut self, woken: &[usize]) {
        self.owed.retain(|k| woken.binary_search(k).is_err());
    }
}

fn train_counters(span: &mut Span, report: Option<&LocalReport>) {
    span.counter("batches", report.map_or(0, |r| r.steps as u64));
    span.counter("examples", report.map_or(0, |r| r.examples as u64));
}

/// The in-process back-end: client replicas the server process owns, their
/// frames carried by a simulated [`Transport`].
///
/// On a lazy plane a client is live only while a request needs it. A
/// training request is one job per client on one worker — wake it, install
/// the round's broadcast, train it, read its upload into a slot of the
/// request, hibernate it — so at most one client per worker is live while a
/// cohort trains. Every other request (a δ probe, a local evaluation,
/// [`LocalPlane::client_mut`]) wakes the clients it asks for and leaves them
/// live until the next round begins. A sleeping client keeps no parameters:
/// such a wake installs the trained model its stored upload holds, else the
/// broadcast the client is owed, else NaN.
pub(crate) struct LocalPlane {
    /// Sorted by id. Eager mode: all `N` replicas; lazy mode: the clients a
    /// request other than training woke this round.
    pub(crate) clients: Vec<Client>,
    /// Lazy mode: the sharded descriptor/record store that materializes
    /// clients on demand.
    pub(crate) registry: Option<ClientRegistry>,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) tracer: Tracer,
    n_clients: usize,
    pub(crate) parallel: bool,
    installed: Installed,
    scratch: Scratch,
    /// The last training request's sleepers: who the jobs woke (sorted)
    /// and, slot for slot, the upload each read as its training ended,
    /// until [`LocalPlane::pull`] frames them or a broadcast voids them.
    /// A slot's `flat` is the trained model, which a later wake installs.
    stored: Vec<usize>,
    uploads: Vec<Scratch>,
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
        registry: Option<ClientRegistry>,
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
            installed: Installed::default(),
            scratch: Scratch::default(),
            stored: Vec::new(),
            uploads: Vec::new(),
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

    /// Lazy mode: hibernates every live client back into the registry
    /// shards. No-op otherwise.
    pub(crate) fn evict_active(&mut self) {
        let Some(reg) = &self.registry else { return };
        for c in self.clients.drain(..) {
            reg.hibernate(c);
        }
    }

    /// Lazy mode: materializes every client in `ids` (sorted) that is not
    /// already live — at the trained model its stored upload holds, else
    /// the broadcast it is owed, else NaN — on [`fan_out_width`] workers,
    /// each journaling its share as a `materialize` span, and merges them
    /// into the id-sorted live set. No-op in eager mode.
    pub(crate) fn ensure_active(&mut self, ids: &[usize]) {
        let Some(reg) = &self.registry else { return };
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let missing = self.inactive(ids);
        if missing.is_empty() {
            return;
        }
        let (installed, tracer) = (&self.installed, &self.tracer);
        let (stored, uploads) = (&self.stored, &self.uploads);
        let mut shares: Vec<(Share, Vec<Client>)> =
            (0..fan_out_width(self.parallel, missing.len()))
                .map(|_| Default::default())
                .collect();
        fan_out(&missing, &mut shares, |(share, woken), _, &k| {
            let params = match stored.binary_search(&k) {
                Ok(slot) => Some(&uploads[slot].flat[..]),
                Err(_) => installed.owed_to(k),
            };
            woken.push(share.wake(tracer, reg, k, params))
        });
        for (share, woken) in shares {
            share.close();
            self.clients.extend(woken);
        }
        self.clients.sort_by_key(|c| c.id());
        self.installed.woke(&missing);
    }

    /// One `ModelDown` broadcast: live replicas install it now, lazy clients
    /// asleep when it reaches them when a request wakes them. A client
    /// still owed the previous broadcast is owed nothing more unless this
    /// one reaches it (in a round that [`crate::round::run_round`] drives,
    /// whatever reads its parameters next runs after a broadcast that
    /// does). A new model voids the last training request's uploads and the
    /// last δ request's maps.
    fn install(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        let bd = self
            .transport
            .broadcast(MsgKind::ModelDown, selected, global);
        let delivered = bd.delivered_clients(selected);
        self.stored.clear();
        self.probed.clear();
        self.installed.owed.clear();
        for &k in &delivered {
            match self.slot(k) {
                Some(idx) => self.clients[idx].write_params(&bd.data),
                // Lazy mode: every eager replica is live.
                None => self.installed.owed.push(k),
            }
        }
        // Kept only while owed: an eager plane holds no second global.
        if !self.installed.owed.is_empty() {
            self.installed.params = bd.data;
        }
        delivered
    }

    /// The one per-client loop: runs `job(i, client, slot)` for every
    /// `selected[i]` (sorted by id), the live replica and `slots[i]` handed
    /// to it as disjoint `&mut` views, across [`fan_out`] on
    /// [`fan_out_width`] workers.
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
        let workers = &mut vec![(); fan_out_width(self.parallel, selected.len())];
        let mut wanted = selected.iter().peekable();
        let live = (self.clients.iter_mut())
            .filter(|c| wanted.next_if(|&&k| k == c.id()).is_some())
            .zip(slots);
        fan_out(live, workers, |(), i, (client, slot)| job(i, client, slot));
    }

    /// Trains every selected client (sorted by id) under `rules[i]` for
    /// `steps[i]`, one job per client across [`fan_out`]. A live replica
    /// trains in place, and its upload is read when the server claims it.
    /// A lazy client that is asleep is woken by its job, installs the
    /// round's broadcast, trains, has its upload — against `global` under
    /// `policy` — read into a slot of the request, and is hibernated again,
    /// all on one worker; [`LocalPlane::pull`] frames the stored upload.
    fn train(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: &[usize],
        global: &[f32],
        policy: Compression,
    ) -> Vec<Option<LocalReport>> {
        assert!(
            selected.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted"
        );
        let mut reports = vec![None; selected.len()];
        let asleep = self.inactive(selected);
        let mut uploads = std::mem::take(&mut self.uploads);
        if uploads.len() < asleep.len() {
            uploads.resize_with(asleep.len(), Scratch::default);
        }
        let width = fan_out_width(self.parallel, selected.len());
        let mut shares: Vec<Share> = (0..width).map(|_| Share::default()).collect();
        let (reg, installed, tracer) = (self.registry.as_ref(), &self.installed, &self.tracer);
        // Each selected id with its live replica, or, asleep, with the
        // slot its upload goes to (both lists are sorted by id).
        let (mut live, mut slots) = (self.clients.iter_mut().peekable(), uploads.iter_mut());
        let replicas = selected.iter().map(|&k| {
            while live.next_if(|c| c.id() < k).is_some() {}
            live.next_if(|c| c.id() == k)
                .ok_or_else(|| (k, slots.next().expect("a slot per sleeper")))
        });
        let train = |client: &mut Client, i: usize| {
            let mut span = tracer.client_span(SpanKind::LocalTrain, client.id());
            let report = client.train_local(steps[i], &rules[i]);
            train_counters(&mut span, Some(&report));
            report
        };
        fan_out(
            replicas.zip(&mut reports),
            &mut shares,
            |share, i, (replica, report)| {
                *report = Some(match replica {
                    Ok(client) => train(client, i),
                    Err((k, slot)) => {
                        let reg = reg.unwrap_or_else(|| panic!("client {k} is not live"));
                        let mut client = share.wake(tracer, reg, k, installed.owed_to(k));
                        let trained = train(&mut client, i);
                        answer_upload(&mut client, global, policy, slot);
                        share.hibernate(tracer, reg, client);
                        trained
                    }
                })
            },
        );
        for share in shares {
            share.close();
        }
        self.installed.woke(&asleep);
        self.uploads = uploads;
        self.stored = asleep;
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

    /// Sends client `k`'s frame for `what`: the upload its training job
    /// stored or the one [`answer_upload`] reads off the live client, or
    /// the δ map the last δ request probed. A δ claim reads no client.
    fn pull(
        &mut self,
        k: usize,
        what: Pull<'_>,
        policy: Compression,
        rt: &mut CompressedVec,
    ) -> Arrived {
        let kind = what.kind(policy.is_enabled());
        let frame = match what {
            Pull::Upload { global } => match self.stored.binary_search(&k) {
                Ok(slot) => self.uploads[slot].frame(true, policy),
                Err(_) => {
                    let idx = self.idx(k);
                    answer_upload(&mut self.clients[idx], global, policy, &mut self.scratch)
                }
            },
            Pull::Delta { dp } => {
                let probed = self.probed.binary_search(&k);
                let slot = probed.expect("a δ claim follows its request");
                std::mem::swap(&mut self.scratch.delta, &mut self.deltas[slot]);
                answer_delta(dp, policy, &mut self.scratch)
            }
        };
        match frame {
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

    /// The learning rate each selected client trains with.
    pub(crate) fn learning_rates(&mut self, selected: &[usize]) -> Vec<f32> {
        let mut lrs = vec![0.0; selected.len()];
        self.each_selected(selected, &mut lrs, |_, c, lr| *lr = c.lr());
        lrs
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
    pub(crate) transport: Box<SocketTransport>,
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

    /// One `ModelDown` broadcast, installed by every client it reaches (a
    /// remote one from the frame, a lazy one asleep when a request wakes
    /// it); returns who those are.
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
    /// where none came back. A lazy client's upload (against `global`,
    /// under `policy`) is read as its job ends. A remote client applies the
    /// rule it derives from the frames it received (a delivered δ target ⇒
    /// MMD), which agrees with `rules` for every algorithm the capability
    /// check admits.
    pub(crate) fn train(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: &[usize],
        round: u64,
        global: &[f32],
        policy: Compression,
    ) -> Vec<Option<LocalReport>> {
        match self {
            ClientPlane::Local(l) => l.train(selected, rules, steps, global, policy),
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
    /// worker pool; the replies are then claimed one at a time
    /// ([`ClientPlane::claim`]).
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

    /// Claims client `k`'s frame for `what`, blocking until it resolves,
    /// and returns its values: a dense frame's as they arrived, a compressed
    /// one (received into `rt`) as `decode` rebuilds it into `values`.
    /// `None` when the frame was lost or did not decode; an undecodable
    /// remote frame is counted as a loss (in process every frame is built
    /// by the policy's own codec and decodes).
    pub(crate) fn claim<'v>(
        &mut self,
        k: usize,
        what: Pull<'_>,
        policy: Compression,
        rt: &mut CompressedVec,
        values: &'v mut Vec<f32>,
        decode: impl FnOnce(&CompressedVec, &mut Vec<f32>) -> bool,
    ) -> Option<&'v [f32]> {
        let kind = what.kind(policy.is_enabled());
        let arrived = match self {
            ClientPlane::Local(l) => l.pull(k, what, policy, rt),
            ClientPlane::Remote(r) if policy.is_enabled() => {
                Arrived::compressed(r.transport.recv_compressed(kind, k, rt))
            }
            ClientPlane::Remote(r) => Arrived::dense(r.transport.recv(kind, k)),
        };
        match arrived {
            Arrived::Dense(dense) => *values = dense,
            Arrived::Compressed if decode(rt, values) => {}
            Arrived::Compressed => {
                if let ClientPlane::Remote(r) = self {
                    r.transport.drop_undecodable();
                }
                return None;
            }
            Arrived::Lost => return None,
        }
        Some(values)
    }
}

/// Why [`crate::Federation::client`] and friends panic on the socket
/// back-end (the capability check keeps algorithms from getting this far).
pub(crate) const NO_REPLICAS: &str =
    "client state lives in the remote process; this back-end has no local replicas";

#[cfg(test)]
mod tests {
    use crate::registry::{ClientDataSource, MaterializedSource};
    use crate::testutil::lazy_fed_over;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// A source whose every shard is corrupt.
    struct Corrupt(MaterializedSource);

    impl ClientDataSource for Corrupt {
        fn num_clients(&self) -> usize {
            self.0.num_clients()
        }
        fn num_samples(&self, k: usize) -> usize {
            self.0.num_samples(k)
        }
        fn dataset(&self, k: usize) -> rfl_data::Dataset {
            panic!("shard {k} is corrupt")
        }
    }

    /// Serial, and on the pool at budget 2: the round panics with the
    /// shard's own message, whichever thread ran the job.
    #[test]
    fn a_shard_that_panics_in_a_training_job_panics_the_round() {
        let before = rfl_tensor::thread_budget();
        rfl_tensor::set_thread_budget(2);
        for parallel in [false, true] {
            let (mut fed, cfg) = lazy_fed_over(61, |inner| Arc::new(Corrupt(inner)));
            fed.local_mut().parallel = parallel;
            let round = AssertUnwindSafe(|| {
                crate::Trainer::new(cfg).run(&mut crate::algorithms::FedAvg, &mut fed)
            });
            let payload = catch_unwind(round).expect_err("a corrupt shard trained");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("is corrupt"),
                "parallel {parallel}: {message:?}"
            );
        }
        rfl_tensor::set_thread_budget(before);
    }
}
