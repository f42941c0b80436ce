//! The client plane: what a round asks of "a cohort of clients", and the
//! two back-ends that answer.
//!
//! A round makes five requests — *install* the global, *train* under a
//! rule, *upload* the parameters, probe a *δ* map, *evaluate* locally — and
//! `ClientPlane` has one method for each, taking the whole selection.
//! `LocalPlane` owns the in-process clients (a registry; each request wakes
//! a client in a job of its own and puts it back to sleep before the job
//! ends) and carries their frames through any [`Transport`], so perfect and
//! faulty delivery are the same code; `RemotePlane` sends the requests to
//! processes running [`run_client_loop`], which lives here too (and in
//! [`crate::comm`] by re-export). A request fans out to the whole selection
//! first — in process, `fan_out` deals the clients
//! to workers under the thread budget — and leaves one reply per client;
//! upload and δ frames are then claimed one client at a time, in selection
//! order, by one blocking call on either back-end (`ClientPlane::claim`)
//! that also decodes a compressed frame, so the server's caller sees values
//! or nothing. What a client does to produce a frame is written once, in
//! `answer_upload` and `answer_delta`, for both sides; the frame is a
//! `Payload` borrowed from the client's reply buffers, which a socket
//! client sends as is.
//!
//! The back-end is chosen once, by the [`crate::Federation`] constructor;
//! what it offers beyond the five requests is a list of [`Capability`]s
//! that [`crate::Trainer::try_run`] checks the algorithm's against.

use crate::client::{Client, LocalReport};
use crate::comm::{
    ClientConn, ClientEvent, ControlMsg, Delivery, LinkOutcome, MsgKind, Payload, PerfectTransport,
    RemoteTransport, SocketTransport, Transport,
};
use crate::compress::{
    compress_plain, decode_upload_into, ef_compress_update, CompressedVec, Compression,
};
use crate::dp::{privatize_delta, DpConfig};
use crate::eval::{evaluate, EvalResult};
use crate::registry::ClientRegistry;
use crate::rules::LocalRule;
use rand::rngs::StdRng;
use rfl_nn::Model;
use rfl_trace::{Span, SpanKind, Stopwatch, Tracer};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Something a round hook needs from the plane beyond the five requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capability {
    /// The server decides each client's [`LocalRule`] and the client must
    /// apply it as given (FedProx's anchor, a δ target that never crossed
    /// the wire). A remote client derives its rule from the frames it
    /// received, so only `Plain` and an MMD rule built from a delivered
    /// `DeltaDown` agree on both sides.
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

/// The requests whose reply is a frame the server claims per client.
pub(crate) enum Pull<'a> {
    /// The parameters the client trained to: dense, or — under an enabled
    /// policy — the update against the broadcast it trained from,
    /// compressed with the client's error-feedback residual.
    Upload,
    /// The δ map the request probed, privatized when `dp` is set
    /// (compressed without error feedback: the probe starts from scratch
    /// every round, so there is nothing to carry over).
    Delta {
        dp: Option<(DpConfig, &'a mut StdRng)>,
    },
    /// SCAFFOLD's `Δ = c_k⁺ − c_k` the training job computed, dense.
    Control,
}

impl Pull<'_> {
    /// The message kind of the frame, dense or compressed.
    pub(crate) fn kind(&self, compressed: bool) -> MsgKind {
        match (self, compressed) {
            (Pull::Upload, false) => MsgKind::ModelUp,
            (Pull::Upload, true) => MsgKind::CompressedUp,
            (Pull::Delta { .. }, false) => MsgKind::DeltaUp,
            (Pull::Delta { .. }, true) => MsgKind::CompressedDeltaUp,
            (Pull::Control, _) => MsgKind::ControlUp,
        }
    }
}

/// A client's reply to a frame-bearing request, in reused buffers: the
/// values — the flat parameters of an upload, or a δ map — and their
/// encoded payload under an enabled policy. The error-feedback workspaces
/// are the client's own step buffers ([`Client::feedback_buffers`]), so an
/// upload holds only its frame and the trained model.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The flat parameters [`answer_upload`] reads, or the δ map a δ
    /// request probed ([`Client::compute_delta_into`]) for
    /// [`answer_delta`] to frame.
    pub(crate) values: Vec<f32>,
    payload: CompressedVec,
}

impl Scratch {
    /// The frame an answer left in these buffers.
    fn frame(&self, policy: Compression) -> Payload<'_> {
        match policy.is_enabled() {
            true => Payload::Compressed(&self.payload),
            false => Payload::Dense(&self.values),
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
) -> Payload<'a> {
    client.read_params(&mut scratch.values);
    if policy.is_enabled() {
        let (residual, update, recon) = client.feedback_buffers();
        ef_compress_update(
            policy,
            &scratch.values,
            global,
            residual,
            update,
            recon,
            &mut scratch.payload,
        );
    }
    scratch.frame(policy)
}

/// The client half of a δ claim, on both sides of a wire. The δ probe
/// itself belongs to the request, as on the wire: by the time its frame is
/// claimed the map is in `scratch.values`, and what is left is what must
/// happen in claim order — the noise draws and the frame. It touches no
/// client.
pub(crate) fn answer_delta<'a>(
    dp: Option<(DpConfig, &mut StdRng)>,
    policy: Compression,
    scratch: &'a mut Scratch,
) -> Payload<'a> {
    if let Some((dp, rng)) = dp {
        privatize_delta(&mut scratch.values, dp, rng);
    }
    if policy.is_enabled() {
        compress_plain(policy, &scratch.values, &mut scratch.payload);
    }
    scratch.frame(policy)
}

/// A pulled frame that reached the server (`None`: lost).
enum Arrived {
    Dense(Vec<f32>),
    /// Received into the caller's `CompressedVec`.
    Compressed,
}

impl Arrived {
    fn dense(delivery: Delivery) -> Option<Arrived> {
        delivery.data.map(Arrived::Dense)
    }

    fn compressed(link: LinkOutcome) -> Option<Arrived> {
        link.delivered.then_some(Arrived::Compressed)
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
    /// One job of a request: wakes client `k` at `params`
    /// ([`ClientRegistry::wake`]), runs `f` on it and hibernates it,
    /// journaling the wake and the hibernation into this worker's tallies.
    fn serve<R>(
        &mut self,
        tracer: &Tracer,
        reg: &ClientRegistry,
        k: usize,
        params: Option<&[f32]>,
        f: impl FnOnce(&mut Client) -> R,
    ) -> R {
        let (mut client, fresh_shell) = self
            .woke
            .time(tracer, SpanKind::Materialize, || reg.wake(k, params));
        self.woke.shells_built += u64::from(fresh_shell);
        let out = f(&mut client);
        self.slept
            .time(tracer, SpanKind::Hibernate, || reg.hibernate(client));
        out
    }

    fn close(self) {
        self.woke.close(true);
        self.slept.close(false);
    }
}

/// One client's reply to a frame-bearing request, until a claim takes it.
#[derive(Default)]
struct Slot {
    client: usize,
    reply: Scratch,
    taken: bool,
}

/// The replies of the last request of one kind — training or δ — since
/// the last broadcast: a slot per client it asked, sorted by client. A
/// claim takes a slot once; a broadcast voids them all, and the next
/// request of the kind replaces them. The buffers are recycled from one
/// request to the next.
#[derive(Default)]
struct Replies {
    slots: Vec<Slot>,
    len: usize,
}

impl Replies {
    /// Readies an untaken slot for each of `selected` (sorted), replacing
    /// what the last request left.
    fn ask(&mut self, selected: &[usize]) -> &mut [Slot] {
        assert!(selected.is_sorted_by(|a, b| a < b), "ids must be sorted");
        if self.slots.len() < selected.len() {
            self.slots.resize_with(selected.len(), Slot::default);
        }
        self.len = selected.len();
        for (slot, &k) in self.slots.iter_mut().zip(selected) {
            (slot.client, slot.taken) = (k, false);
        }
        &mut self.slots[..self.len]
    }

    /// The slot of client `k`'s reply, if the last request asked `k`.
    fn find(&self, k: usize) -> Option<usize> {
        let live = &self.slots[..self.len];
        live.binary_search_by_key(&k, |s| s.client).ok()
    }

    /// Takes client `k`'s reply. Panics when no request since the last
    /// broadcast left one or a claim took it already: `a` names the claim
    /// in the message.
    fn claim(&mut self, k: usize, a: &str) -> &mut Scratch {
        let i = self.find(k).filter(|&i| !self.slots[i].taken);
        let i = i.unwrap_or_else(|| panic!("{a} claim follows its request, once"));
        self.slots[i].taken = true;
        &mut self.slots[i].reply
    }
}

/// What the plane keeps of its sleeping clients' parameters, since a
/// record keeps none: the last model broadcast for the clients it reached,
/// and the uploads of the clients the last training request trained, each
/// holding the trained model. A broadcast replaces the one and voids the
/// other.
#[derive(Default)]
struct Kept {
    broadcast: Vec<f32>,
    /// Reached by `broadcast` and not trained since, sorted.
    owed: Vec<usize>,
    /// The training request's replies; a claim frames nothing more, and the
    /// trained model stays for the wakes until the next broadcast.
    uploads: Replies,
}

impl Kept {
    /// What a wake of client `k` installs: the trained model its upload
    /// holds, else the broadcast it is owed, else nothing (NaN; the initial
    /// global at its first wake).
    fn params_of(&self, k: usize) -> Option<&[f32]> {
        match self.uploads.find(k) {
            Some(i) => Some(&self.uploads.slots[i].reply.values),
            None => (self.owed.binary_search(&k).ok()).map(|_| &self.broadcast[..]),
        }
    }
}

fn train_counters(span: &mut Span, report: Option<&LocalReport>) {
    span.counter("batches", report.map_or(0, |r| r.steps as u64));
    span.counter("examples", report.map_or(0, |r| r.examples as u64));
}

/// The in-process back-end: clients the server process owns, their frames
/// carried by a simulated [`Transport`].
///
/// No client is live between requests: it is its record in the registry
/// and its shard in the source. Every request is one job per client on one
/// worker ([`LocalPlane::each_selected`]) — wake it, answer, hibernate it —
/// so a request holds at most one client per worker, the way a remote
/// client answers a request and keeps nothing. Three rules make the
/// lifecycle:
/// - a wake installs the trained model of the client's upload, else the
///   broadcast it is owed, else NaN ([`Kept::params_of`]);
/// - a first wake holds the initial global;
/// - a broadcast voids the training and δ requests' replies.
///
/// The two frame-bearing requests leave a reply slot per client — training
/// its framed upload and trained model, a δ request its map — and a claim
/// takes a slot once: a claim that no request since the last broadcast
/// answered, or that a claim before it took, is refused (it panics). A job
/// that only reads leaves the owed broadcast and the uploads as they were,
/// so the next wake installs the same parameters.
pub(crate) struct LocalPlane {
    /// The sharded record store that materializes clients on demand.
    pub(crate) registry: ClientRegistry,
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) tracer: Tracer,
    pub(crate) parallel: bool,
    kept: Kept,
    /// The δ request's replies: the maps it probed.
    deltas: Replies,
    /// The training request's SCAFFOLD replies: `Δ`, then `c_k⁺`.
    controls: Replies,
}

impl LocalPlane {
    /// In-process clients can be asked anything.
    pub(crate) const OFFERS: &'static [Capability] = &[
        Capability::ServerSideRule,
        Capability::ClientStateRead,
        Capability::TableDownload,
        Capability::ControlPlane,
        Capability::DeltaPrivacy,
    ];

    /// Every client of `registry` asleep, on the default perfect transport.
    pub(crate) fn new(registry: ClientRegistry, parallel: bool) -> Self {
        LocalPlane {
            registry,
            transport: Box::new(PerfectTransport::new()),
            tracer: Tracer::disabled(),
            parallel,
            kept: Kept::default(),
            deltas: Replies::default(),
            controls: Replies::default(),
        }
    }

    /// Runs `f` on client `k`, woken where it rests for the call and
    /// hibernated after it.
    pub(crate) fn with_client<R>(&self, k: usize, f: impl FnOnce(&mut Client) -> R) -> R {
        let mut share = Share::default();
        let params = self.kept.params_of(k);
        let out = share.serve(&self.tracer, &self.registry, k, params, f);
        share.close();
        out
    }

    /// One `ModelDown` broadcast: the clients it reaches are owed it until
    /// a training request trains them. A client still owed the previous
    /// broadcast is owed nothing more unless this one reaches it (in a
    /// round that [`crate::round::run_round`] drives, whatever reads its
    /// parameters next runs after a broadcast that does). A new model voids
    /// the replies of the last training and δ requests.
    fn install(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        let bd = self
            .transport
            .broadcast(MsgKind::ModelDown, selected, global);
        let delivered = bd.delivered_clients(selected);
        (self.kept.uploads.len, self.deltas.len, self.controls.len) = (0, 0, 0);
        self.kept.owed.clone_from(&delivered);
        self.kept.broadcast = bd.data;
        delivered
    }

    /// The job runner of every request: one job per `selected[i]` across
    /// [`fan_out`] on [`fan_out_width`] workers, which wakes the client
    /// where it rests, runs `job(client, i, slot)` with the `i`-th of
    /// `slots` and hibernates it.
    fn each_selected<T: Send>(
        &self,
        selected: &[usize],
        slots: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
        job: impl Fn(&mut Client, usize, T) + Sync,
    ) {
        let slots = slots.into_iter();
        assert_eq!(slots.len(), selected.len(), "one slot per selected client");
        let width = fan_out_width(self.parallel, selected.len());
        let mut shares: Vec<Share> = (0..width).map(|_| Share::default()).collect();
        let (reg, kept, tracer) = (&self.registry, &self.kept, &self.tracer);
        let jobs = selected.iter().zip(slots);
        fan_out(jobs, &mut shares, |share, i, (&k, slot)| {
            share.serve(tracer, reg, k, kept.params_of(k), |c| job(c, i, slot))
        });
        for share in shares {
            share.close();
        }
    }

    /// Trains every selected client (sorted by id) under `rules[i]` for
    /// `steps[i]`: each job wakes the client at the broadcast it is owed,
    /// trains it and reads its upload — against `global` under `policy` —
    /// into its reply slot before the hibernation; a SCAFFOLD job then adds
    /// `Δ` and `c_k⁺` (option II) from what its upload delivers, as the
    /// server decodes it. [`LocalPlane::pull`] frames nothing more.
    fn train(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: &[usize],
        global: &[f32],
        policy: Compression,
    ) -> Vec<Option<LocalReport>> {
        let mut reports = vec![None; selected.len()];
        // With the uploads out of `kept`, a wake finds only the owed
        // broadcast.
        let mut uploads = std::mem::take(&mut self.kept.uploads);
        let mut controls = std::mem::take(&mut self.controls);
        let scaffold = |r: &LocalRule| matches!(r, LocalRule::Scaffold { .. });
        let any = rules.iter().any(scaffold);
        let mut asked = controls.ask(if any { selected } else { &[] }).iter_mut();
        let slots = (uploads.ask(selected).iter_mut().zip(&mut reports)).map(|s| (s, asked.next()));
        let tracer = &self.tracer;
        self.each_selected(selected, slots, |client, i, ((slot, report), control)| {
            let mut span = tracer.client_span(SpanKind::LocalTrain, selected[i]);
            let trained = client.train_local(steps[i], &rules[i]);
            train_counters(&mut span, Some(&trained));
            drop(span);
            answer_upload(client, global, policy, &mut slot.reply);
            if let (LocalRule::Scaffold { c }, Some(control)) = (&rules[i], control) {
                let (up, w) = (&slot.reply, &mut control.reply.values);
                match policy.is_enabled() {
                    true => assert!(decode_upload_into(policy, &up.payload, global, w)),
                    false => w.clone_from(&up.values),
                }
                w.resize(2 * global.len(), 0.0);
                let (delta, next) = w.split_at_mut(global.len());
                let scale = 1.0 / (trained.steps as f32 * client.lr());
                let pairs = client.control().iter().zip(c.iter());
                for (((d, n), (ck, c)), g) in delta.iter_mut().zip(next).zip(pairs).zip(global) {
                    *n = ck - c + scale * (g - *d);
                    *d = *n - ck;
                }
            }
            *report = Some(trained);
        });
        let owed = &mut self.kept.owed;
        owed.retain(|k| selected.binary_search(k).is_err());
        (self.kept.uploads, self.controls) = (uploads, controls);
        reports
    }

    /// The client half of a δ request, for the whole selection (sorted) at
    /// once: probes every selected client's map with `probe_batch`-sized
    /// batches into its reply slot. [`LocalPlane::pull`] frames them one at
    /// a time; [`LocalPlane::probed`] reads them in place.
    pub(crate) fn probe_deltas(&mut self, selected: &[usize], probe_batch: usize) {
        let mut deltas = std::mem::take(&mut self.deltas);
        self.each_selected(selected, deltas.ask(selected), |c, _, slot| {
            c.compute_delta_into(&mut slot.reply.values, probe_batch)
        });
        self.deltas = deltas;
    }

    /// The maps the last δ request probed, in selection order.
    pub(crate) fn probed(&self) -> impl Iterator<Item = &[f32]> {
        let live = &self.deltas.slots[..self.deltas.len];
        live.iter().map(|s| &s.reply.values[..])
    }

    /// Sends client `k`'s frame for `what`, taking the reply a request left
    /// ([`Replies::claim`]): the upload or the control `Δ` its training job
    /// framed, or the δ map the last δ request probed, privatized and
    /// framed here in claim order. A claim reads no client.
    fn pull(
        &mut self,
        k: usize,
        what: Pull<'_>,
        policy: Compression,
        rt: &mut CompressedVec,
    ) -> Option<Arrived> {
        let kind = what.kind(policy.is_enabled());
        let frame = match what {
            Pull::Upload => self.kept.uploads.claim(k, "an upload").frame(policy),
            Pull::Delta { dp } => answer_delta(dp, policy, self.deltas.claim(k, "a δ")),
            Pull::Control => {
                let values = &self.controls.claim(k, "a control").values;
                Payload::Dense(&values[..values.len() / 2])
            }
        };
        match frame {
            Payload::Dense(values) => Arrived::dense(self.transport.send(kind, k, values)),
            Payload::Compressed(payload) => {
                Arrived::compressed(self.transport.send_compressed(kind, k, payload, rt))
            }
            Payload::Bytes(_) => unreachable!("a client's answer is values"),
        }
    }

    /// Installs in each of `clients` (sorted) its control reply's `c_k⁺`.
    pub(crate) fn commit_controls(&self, clients: &[usize]) {
        let controls = &self.controls;
        self.each_selected(clients, clients, |c, _, &k| {
            let i = controls.find(k).filter(|&i| controls.slots[i].taken);
            let v = &controls.slots[i.expect("a commit follows its claim")]
                .reply
                .values;
            c.control().copy_from_slice(&v[v.len() / 2..]);
        });
    }

    /// `(loss, learning rate)` of each selected client, from one wake: the
    /// mean data loss of the model it holds — the global one, right after a
    /// broadcast — on its own data, and the rate it trains with (q-FedAvg's
    /// fair weights, power-of-choice's ranking).
    pub(crate) fn eval_local(&self, selected: &[usize]) -> Vec<(f32, f32)> {
        let mut evals = vec![(0.0, 0.0); selected.len()];
        self.each_selected(selected, &mut evals, |c, _, eval| {
            *eval = (c.evaluate_local(EVAL_BATCH).loss, c.lr())
        });
        evals
    }

    /// Evaluates the model `replicas` hold on every client's data, one
    /// worker per replica, results in client order. The shards come from
    /// the source (shared or built for the pass); no client wakes.
    pub(crate) fn evaluate_each(&self, replicas: &mut [Box<dyn Model>]) -> Vec<EvalResult> {
        let source = self.registry.source();
        let mut results: Vec<Option<EvalResult>> = vec![None; source.num_clients()];
        fan_out(results.iter_mut(), replicas, |model, k, result| {
            let model = std::slice::from_mut(model);
            *result = Some(evaluate(model, &source.dataset(k), EVAL_BATCH))
        });
        let results = results
            .into_iter()
            .map(|r| r.expect("client not evaluated"));
        results.collect()
    }
}

/// The socket back-end: the clients are processes running
/// [`run_client_loop`]; the server sends requests as frames
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
    /// remote one from the frame, an in-process one asleep when a request
    /// wakes it); returns who those are.
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
    /// where none came back. An in-process client's upload (against
    /// `global`, under `policy`) is read as its job ends. A remote client applies the
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
    /// concurrently — remote ones each in its process, in-process ones
    /// across the worker pool; the replies are then claimed one at a time
    /// ([`ClientPlane::claim`]).
    pub(crate) fn request_deltas(&mut self, selected: &[usize], round: u64, probe_batch: usize) {
        match self {
            ClientPlane::Local(l) => l.probe_deltas(selected, probe_batch),
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
        match arrived? {
            Arrived::Dense(dense) => *values = dense,
            Arrived::Compressed if decode(rt, values) => {}
            Arrived::Compressed => {
                if let ClientPlane::Remote(r) = self {
                    r.transport.drop_undecodable();
                }
                return None;
            }
        }
        Some(values)
    }
}

/// Client-loop tuning knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientLoopOpts {
    /// Graceful churn: after completing round `r`'s training and upload,
    /// answer its δ probe with a `Goodbye` and leave the federation.
    pub leave_after_round: Option<u64>,
    /// Upload-compression policy (normally taken from the `Welcome` frame).
    /// When enabled, model uploads go up as error-feedback-compressed
    /// `CompressedUp` frames and δ syncs as `CompressedDeltaUp` frames.
    pub compression: Compression,
}

/// How a client loop ended.
#[derive(Debug)]
pub enum ClientOutcome {
    /// The server ended the run; exit cleanly.
    Shutdown,
    /// This client left gracefully (`leave_after_round`).
    Left,
    /// The link died; the caller may reconnect and resume.
    Disconnected(io::Error),
}

/// The event-driven client half of the protocol: installs broadcast
/// parameters, trains on `TrainStart` (with the δ target received this
/// round, if any) and follows the report with the upload, answers δ probes
/// — until `Shutdown`, a graceful departure, or a dead link. The frames it
/// uploads come from `answer_upload` and `answer_delta`, the functions the
/// in-process plane's jobs call on the clients they wake.
///
/// The numeric call sequence on `client` is exactly the one the in-process
/// simulation makes on its local replica, so the client's RNG stream and
/// parameter trajectory are bit-identical to the oracle's.
pub fn run_client_loop(
    conn: &mut ClientConn,
    client: &mut Client,
    lambda: f32,
    opts: &ClientLoopOpts,
) -> ClientOutcome {
    let mut pending_target: Option<Vec<f32>> = None;
    // The last broadcast parameters (a compressed upload is relative to
    // them) and the reused upload workspaces. The error-feedback residual
    // itself lives on the `Client` so hibernation persists it.
    let mut global: Vec<f32> = Vec::new();
    let mut scratch = Scratch::default();
    let compressed = opts.compression.is_enabled();
    loop {
        let event = match conn.read_event() {
            Ok(ev) => ev,
            Err(e) => return ClientOutcome::Disconnected(e),
        };
        let io_result = match event {
            ClientEvent::Payload(MsgKind::ModelDown, params) => {
                client.write_params(&params);
                global = params;
                Ok(())
            }
            ClientEvent::Payload(MsgKind::DeltaDown, target) => {
                pending_target = Some(target);
                Ok(())
            }
            ClientEvent::Control(ControlMsg::TrainStart { steps, .. }) => {
                let rule = match pending_target.take() {
                    Some(target) => LocalRule::Mmd {
                        lambda,
                        target: Arc::new(target),
                    },
                    None => LocalRule::Plain,
                };
                let report = client.train_local(steps as usize, &rule);
                conn.send_control(&ControlMsg::Report {
                    loss: report.loss,
                    reg_loss: report.reg_loss,
                    steps: report.steps as u32,
                    examples: report.examples as u32,
                })
                .and_then(|()| {
                    let frame = answer_upload(client, &global, opts.compression, &mut scratch);
                    conn.send(Pull::Upload.kind(compressed), frame)
                })
            }
            ClientEvent::Control(ControlMsg::DeltaProbe { round, probe_batch }) => {
                if opts.leave_after_round == Some(round) {
                    let _ = conn.send_control(&ControlMsg::Goodbye);
                    return ClientOutcome::Left;
                }
                // The request is the probe; the frame is claimed at once.
                client.compute_delta_into(&mut scratch.values, probe_batch as usize);
                let frame = answer_delta(None, opts.compression, &mut scratch);
                conn.send(Pull::Delta { dp: None }.kind(compressed), frame)
            }
            ClientEvent::Control(ControlMsg::Shutdown) => return ClientOutcome::Shutdown,
            // Frames this loop has no request for (`DeltaTableDown`, the
            // control-variate planes) are ignored rather than fatal: the
            // server refuses, before round 0, every algorithm that would
            // send one ([`crate::Trainer::try_run`]).
            _ => Ok(()),
        };
        if let Err(e) = io_result {
            return ClientOutcome::Disconnected(e);
        }
    }
}

/// Why [`crate::Federation::with_client`] and friends panic on the socket
/// back-end (the capability check keeps algorithms from getting this far).
pub(crate) const NO_LOCAL_CLIENTS: &str =
    "client state lives in the remote process; this back-end has no in-process clients";

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
