//! A federated client: private data, a model replica, persistent local
//! optimizer state, and a private RNG.
//!
//! A [`Client`] is its dataset around a `ClientShell`: the model replica,
//! the RNG, the epoch sampler, the optimizer, the EF residual, SCAFFOLD's
//! control variate and the step loop's buffers. A federation keeps a client
//! between requests as its *record*: its durable state — the RNG, the
//! sampler, the optimizer's state, the residual and the control variate —
//! packed into one run of 32-bit words, all the registry keeps of it while
//! it sleeps. Waking unpacks the record into a recycled shell, with the
//! parameters it is handed, and hibernating packs it back
//! ([`crate::registry`]).

use crate::eval::{evaluate, gather_batch, to_input, EvalResult};
use crate::mmd;
use crate::rules::LocalRule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_data::{BatchSampler, Dataset};
use rfl_nn::{cross_entropy_into, Input, Model, ModelOutput, Optimizer};
use rfl_tensor::Tensor;

/// Result of one local training phase.
#[derive(Clone, Copy, Debug)]
pub struct LocalReport {
    /// Mean data loss (`f_k`) over the local steps.
    pub loss: f32,
    /// Mean regularizer loss (`λ·r̃_k` estimate) over the local steps;
    /// zero unless an MMD rule was active.
    pub reg_loss: f32,
    /// Steps actually performed.
    pub steps: usize,
    /// Total training examples consumed across those steps.
    pub examples: usize,
}

/// Word layout of a client record ([`ClientShell::pack`]): a fixed
/// header, then the optimizer's state words, the EF residual, the control
/// variate and the packed sampler.
///
/// | words | field |
/// |---|---|
/// | 0..8 | xoshiro256++ state, four `u64`s low word first |
/// | 8 | learning rate (`f32` bits) |
/// | 9.. | optimizer state, residual, control variate (`f32` bits) |
/// | rest | cursor, order ([`BatchSampler::pack`]) |
///
/// Neither the three lengths nor the sampler's example count is stored: they
/// are the federation's [`Shape`] and the shard's, so [`Shape::record_len`]
/// gives a record's length. A record holds no parameters: a sleeping
/// client's are dead, because the next broadcast it installs overwrites
/// them before anything reads them. A wake installs the parameters it is
/// handed, or NaN ([`ClientShell::unpack`]).
const LR: usize = 8;
const HEADER: usize = 9;

/// The lengths of a client's optimizer state, EF residual and control
/// variate, in record order, its federation's for life: for `d` parameters,
/// `d` words of state under RMSProp, of residual under compression and of
/// control variate under SCAFFOLD, else none. A standalone [`Client::new`]
/// has the empty shape and sizes each on first use; it is never packed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Shape(pub(crate) [usize; 3]);

impl Shape {
    /// Words of the record of a client of this shape with `n_samples`
    /// examples.
    pub(crate) fn record_len(self, n_samples: usize) -> usize {
        HEADER + self.0.iter().sum::<usize>() + BatchSampler::packed_words(n_samples)
    }
}

/// A live client's working state: the model replica, the RNG, the sampler,
/// the optimizer, the EF residual and control variate, and every buffer of
/// the step loop.
///
/// The registry recycles shells across clients of one federation, so
/// a shell that served one client must serve any other, already warm, with
/// bit-identical results. It does: a wake overwrites every durable field
/// from the client's record and every parameter ([`ClientShell::unpack`]),
/// `zero_grads` opens every step, and each buffer is resized and fully
/// overwritten before it is read.
pub(crate) struct ClientShell {
    model: Box<dyn Model>,
    rng: StdRng,
    sampler: BatchSampler,
    /// Its learning rate and [`Optimizer::state_mut`] words are the
    /// client's; the kind (and its constants) is the federation's.
    optimizer: Box<dyn Optimizer>,
    /// Error-feedback residual of the compression stage: what the last
    /// compressed upload failed to carry, folded into the next update, of
    /// the shell's [`Shape`]. Durable state — dropping it on eviction would
    /// silently change the model trajectory whenever uploads are compressed.
    residual: Vec<f32>,
    /// SCAFFOLD's `c_k`, of the shell's [`Shape`]: zeros until a commit.
    control: Vec<f32>,
    /// The flat parameters: the step loop's read/step/write buffer, and a
    /// wake's NaN fill.
    params: Vec<f32>,
    /// Boxed: a shell moves in and out of a live client and the registry's
    /// free list twice per client-round, and this keeps the move to the
    /// fields above and a pointer.
    scratch: Box<StepScratch>,
}

/// The step loop's reusable buffers: once warm, a local SGD step touches
/// the allocator only through the model's own (workspace-backed) forward.
struct StepScratch {
    grads: Vec<f32>,
    batch_idx: Vec<usize>,
    batch_input: Option<Input>,
    batch_labels: Vec<usize>,
    out: ModelOutput,
    log_p: Tensor,
    dlogits: Tensor,
    mu: Tensor,
    dfeatures: Tensor,
    feat_sum: Tensor,
}

impl ClientShell {
    /// A cold shell around `model` and `optimizer` (fresh, of the
    /// federation's kind), its durable sections zeros of `shape`, that holds
    /// no client yet: [`ClientShell::restart`] or [`ClientShell::unpack`]
    /// makes it one. Its other buffers size themselves on first use.
    pub(crate) fn new(model: Box<dyn Model>, optimizer: Box<dyn Optimizer>, shape: Shape) -> Self {
        let [state, residual, control] = shape.0;
        let mut shell = ClientShell {
            model,
            rng: StdRng::from_state([0; 4]),
            sampler: BatchSampler::default(),
            optimizer,
            residual: vec![0.0; residual],
            control: vec![0.0; control],
            params: Vec::new(),
            scratch: Box::new(StepScratch {
                grads: Vec::new(),
                batch_idx: Vec::new(),
                batch_input: None,
                batch_labels: Vec::new(),
                out: ModelOutput::scratch(),
                log_p: Tensor::scratch(),
                dlogits: Tensor::scratch(),
                mu: Tensor::scratch(),
                dfeatures: Tensor::scratch(),
                feat_sum: Tensor::scratch(),
            }),
        };
        if let Some(words) = shell.optimizer.state_mut() {
            words.resize(state, 0.0);
        }
        shell
    }

    /// Makes the durable fields client `id`'s before its first local step,
    /// in place: its own RNG stream, a sampler over `n_samples` examples,
    /// the learning rate `lr`, and zeros in the durable sections, which keep
    /// their shape. The replica's parameters are the caller's to set.
    pub(crate) fn restart(
        &mut self,
        id: usize,
        n_samples: usize,
        batch_size: usize,
        seed: u64,
        lr: f32,
    ) {
        assert!(n_samples > 0, "client {id} has no data");
        // Offset the stream so clients never share a sequence.
        self.rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.sampler.reset(n_samples, batch_size);
        self.optimizer.set_lr(lr);
        for v in self.durable() {
            v.fill(0.0);
        }
    }

    /// The three sections of the record, in place.
    fn durable(&mut self) -> [&mut [f32]; 3] {
        let state = self.optimizer.state_mut().map(Vec::as_mut_slice);
        let state = state.unwrap_or_default();
        [state, &mut self.residual, &mut self.control]
    }

    /// The shape of the client this shell holds.
    pub(crate) fn shape(&mut self) -> Shape {
        Shape(self.durable().map(|v| v.len()))
    }

    /// Writes the record (layout at [`HEADER`]) of the client this shell
    /// holds into `out`, which holds exactly [`Shape::record_len`] words of
    /// its shape.
    pub(crate) fn pack(&mut self, out: &mut [u32]) {
        let lr = self.optimizer.lr();
        let (head, mut body) = out.split_at_mut(HEADER);
        for (pair, w) in head.chunks_exact_mut(2).zip(self.rng.state()) {
            pair.copy_from_slice(&[w as u32, (w >> 32) as u32]);
        }
        head[LR] = lr.to_bits();
        for v in self.durable() {
            let (field, rest) = body.split_at_mut(v.len());
            for (w, x) in field.iter_mut().zip(v) {
                *w = x.to_bits();
            }
            body = rest;
        }
        self.sampler.pack(body);
    }

    /// Makes this shell the client whose `record` ([`ClientShell::pack`],
    /// exactly [`Shape::record_len`] words of the shell's shape) it is
    /// handed, over `n_samples` examples, at `params`, in place: the
    /// RNG/sampler/optimizer/residual/control variate resume exactly where
    /// they stopped, whatever the shell held before, and `params` overwrite
    /// the replica's ([`ClientShell::install`]). `batch_size` is the federation's (the
    /// sampler clamps it to the shard again).
    pub(crate) fn unpack(
        &mut self,
        record: &[u32],
        n_samples: usize,
        batch_size: usize,
        params: Option<&[f32]>,
    ) {
        let (head, mut body) = record.split_at(HEADER);
        let word = |i: usize| u64::from(head[2 * i]) | u64::from(head[2 * i + 1]) << 32;
        self.rng = StdRng::from_state([word(0), word(1), word(2), word(3)]);
        self.optimizer.set_lr(f32::from_bits(head[LR]));
        self.install(params);
        for v in self.durable() {
            let (field, rest) = body.split_at(v.len());
            for (x, &w) in v.iter_mut().zip(field) {
                *x = f32::from_bits(w);
            }
            body = rest;
        }
        self.sampler.unpack(n_samples, batch_size, body);
    }

    /// Overwrites the replica's parameters with `params`, or with NaN in
    /// every one when `None`.
    pub(crate) fn install(&mut self, params: Option<&[f32]>) {
        let params = match params {
            Some(params) => params,
            None => {
                self.params.clear();
                self.params.resize(self.model.num_params(), f32::NAN);
                &self.params
            }
        };
        self.model.write_params(params);
    }
}

/// One client in the federation.
pub struct Client {
    id: usize,
    data: Dataset,
    clip_grad_norm: Option<f32>,
    shell: ClientShell,
}

impl Client {
    /// A standalone client (a distributed client process, a probe): the
    /// initial durable state and a cold shell around `model`, whose current
    /// parameters are the starting point.
    pub fn new(
        id: usize,
        model: Box<dyn Model>,
        data: Dataset,
        optimizer: Box<dyn Optimizer>,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        let lr = optimizer.lr();
        let mut shell = ClientShell::new(model, optimizer, Shape::default());
        shell.restart(id, data.len(), batch_size, seed, lr);
        Client {
            id,
            data,
            clip_grad_norm: None,
            shell,
        }
    }

    /// A federation client: `shell`, already made client `id` from its
    /// record ([`ClientShell::unpack`]) or from scratch
    /// ([`ClientShell::restart`]), around its shard. Inverse of
    /// [`Client::take_apart`].
    pub(crate) fn wake(
        id: usize,
        shell: ClientShell,
        data: Dataset,
        clip_grad_norm: Option<f32>,
    ) -> Self {
        assert!(!data.is_empty(), "client {id} has no data");
        Client {
            id,
            data,
            clip_grad_norm,
            shell,
        }
    }

    /// Takes the client apart into its reusable shell, which still holds
    /// the client's durable state for [`ClientShell::pack`], dropping the
    /// dataset. The registry calls this when evicting a client after its
    /// round.
    pub(crate) fn take_apart(self) -> ClientShell {
        self.shell
    }

    /// Enables global-norm gradient clipping on the assembled local
    /// gradient (data gradient plus algorithm corrections).
    pub fn set_clip_grad_norm(&mut self, clip: Option<f32>) {
        assert!(clip.is_none_or(|c| c > 0.0), "clip must be positive");
        self.clip_grad_norm = clip;
    }

    pub(crate) fn id(&self) -> usize {
        self.id
    }

    pub fn feature_dim(&self) -> usize {
        self.shell.model.feature_dim()
    }

    /// Installs parameters received from the server.
    pub fn write_params(&mut self, params: &[f32]) {
        self.shell.model.write_params(params);
    }

    /// Reads the client's current parameters.
    pub fn read_params(&self, out: &mut Vec<f32>) {
        self.shell.model.read_params(out);
    }

    /// What [`crate::compress::ef_compress_update`] works in: the
    /// error-feedback residual of the compressed-upload stage (of the
    /// client's [`Shape`]; durable state, it survives hibernation), and
    /// for the update and its reconstruction the step loop's parameter and
    /// gradient buffers, which every step overwrites before reading.
    pub(crate) fn feedback_buffers(&mut self) -> (&mut Vec<f32>, &mut Vec<f32>, &mut Vec<f32>) {
        let shell = &mut self.shell;
        (
            &mut shell.residual,
            &mut shell.params,
            &mut shell.scratch.grads,
        )
    }

    /// SCAFFOLD's `c_k` (durable state, it survives hibernation).
    pub(crate) fn control(&mut self) -> &mut Vec<f32> {
        &mut self.shell.control
    }

    /// Learning rate of the local optimizer.
    pub(crate) fn lr(&self) -> f32 {
        self.shell.optimizer.lr()
    }

    /// Overrides the local learning rate (decaying schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.shell.optimizer.set_lr(lr);
    }

    /// Runs `steps` mini-batch SGD steps under `rule` (Algorithm 1/2 inner
    /// loop, lines 6–10).
    pub fn train_local(&mut self, steps: usize, rule: &LocalRule) -> LocalReport {
        let Client {
            data,
            clip_grad_norm,
            shell,
            ..
        } = self;
        let (data, scratch) = (&*data, &mut *shell.scratch);
        let mut loss_sum = 0.0f32;
        let mut reg_sum = 0.0f32;
        let mut examples = 0usize;
        for _ in 0..steps {
            shell
                .sampler
                .next_batch_into(&mut shell.rng, &mut scratch.batch_idx);
            examples += scratch.batch_idx.len();
            gather_batch(
                data,
                &scratch.batch_idx,
                &mut scratch.batch_input,
                &mut scratch.batch_labels,
            );
            shell.model.zero_grads();
            shell.model.forward_into(
                scratch.batch_input.as_ref().expect("batch gathered"),
                &mut scratch.out,
                true,
            );
            let loss = cross_entropy_into(
                &scratch.out.logits,
                &scratch.batch_labels,
                &mut scratch.log_p,
                &mut scratch.dlogits,
            );
            loss_sum += loss;

            let dfeatures = match rule {
                LocalRule::Mmd { lambda, target } => {
                    reg_sum += mmd::regularizer_loss_into(
                        &scratch.out.features,
                        target,
                        *lambda,
                        &mut scratch.mu,
                    );
                    mmd::feature_gradient_into(
                        &scratch.out.features,
                        target,
                        *lambda,
                        &mut scratch.mu,
                        &mut scratch.dfeatures,
                    );
                    Some(&scratch.dfeatures)
                }
                _ => None,
            };
            shell.model.backward(&scratch.dlogits, dfeatures);

            shell.model.read_params(&mut shell.params);
            shell.model.read_grads(&mut scratch.grads);
            match rule {
                LocalRule::Prox { mu, anchor } => {
                    debug_assert_eq!(anchor.len(), shell.params.len());
                    for ((g, w), a) in scratch
                        .grads
                        .iter_mut()
                        .zip(&shell.params)
                        .zip(anchor.iter())
                    {
                        *g += mu * (w - a);
                    }
                }
                LocalRule::Scaffold { c } => {
                    debug_assert_eq!(c.len(), scratch.grads.len());
                    shell.control.resize(c.len(), 0.0); // a standalone client's first use
                    for ((g, c), ck) in scratch.grads.iter_mut().zip(c.iter()).zip(&shell.control) {
                        *g += c - ck;
                    }
                }
                _ => {}
            }
            if let Some(clip) = *clip_grad_norm {
                let norm = scratch.grads.iter().map(|g| g * g).sum::<f32>().sqrt();
                if norm > clip {
                    let s = clip / norm;
                    for g in &mut scratch.grads {
                        *g *= s;
                    }
                }
            }
            shell.optimizer.step(&mut shell.params, &scratch.grads);
            shell.model.write_params(&shell.params);
        }
        LocalReport {
            loss: loss_sum / steps.max(1) as f32,
            reg_loss: reg_sum / steps.max(1) as f32,
            steps,
            examples,
        }
    }

    /// Computes the local mapping `δ_k = (1/n_k) Σ φ(x)` over the *full*
    /// local dataset with the client's current parameters (Algorithm 1
    /// line 10 / Algorithm 2 line 15), batched to bound memory.
    pub fn compute_delta(&mut self, batch: usize) -> Vec<f32> {
        let mut delta = Vec::new();
        self.compute_delta_into(&mut delta, batch);
        delta
    }

    /// [`Client::compute_delta`] into a caller-provided buffer (overwritten;
    /// its allocation is reused from one probe to the next).
    pub(crate) fn compute_delta_into(&mut self, sum: &mut Vec<f32>, batch: usize) {
        let Client { data, shell, .. } = self;
        let (data, scratch) = (&*data, &mut *shell.scratch);
        let n = data.len();
        sum.clear();
        sum.resize(shell.model.feature_dim(), 0.0);
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch).min(n);
            scratch.batch_idx.clear();
            scratch.batch_idx.extend(lo..hi);
            gather_batch(
                data,
                &scratch.batch_idx,
                &mut scratch.batch_input,
                &mut scratch.batch_labels,
            );
            shell.model.forward_into(
                scratch.batch_input.as_ref().expect("batch gathered"),
                &mut scratch.out,
                false,
            );
            scratch.out.features.sum_axis0_into(&mut scratch.feat_sum);
            for (s, &v) in sum.iter_mut().zip(scratch.feat_sum.data()) {
                *s += v;
            }
            lo = hi;
        }
        let inv = 1.0 / n as f32;
        for s in sum {
            *s *= inv;
        }
    }

    /// Feature embeddings of up to `max_n` local samples (visualization).
    pub fn compute_features(&mut self, max_n: usize) -> (Tensor, Vec<usize>) {
        let n = self.data.len().min(max_n);
        let idx: Vec<usize> = (0..n).collect();
        let sub = self.data.select(&idx);
        let out = self.shell.model.forward(&to_input(sub.examples()), false);
        (out.features, sub.labels().to_vec())
    }

    /// Loss/accuracy of the current model on the client's own data
    /// (used by q-FedAvg and the fairness evaluation).
    pub(crate) fn evaluate_local(&mut self, batch: usize) -> EvalResult {
        evaluate(
            std::slice::from_mut(&mut self.shell.model),
            &self.data,
            batch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rfl_data::Examples;
    use rfl_nn::{LinearNet, LogisticRegression, Sgd};
    use rfl_tensor::Initializer;
    use std::sync::Arc;

    fn dense_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Initializer::Normal(1.0).init(&[n, 4], &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        // Make it learnable: shift coordinate 0 by the label.
        for (i, &y) in labels.iter().enumerate() {
            x.data_mut()[i * 4] += if y == 1 { 2.0 } else { -2.0 };
        }
        Dataset::new(Examples::Dense(x), labels, 2)
    }

    fn make_client(seed: u64) -> Client {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Box::new(LogisticRegression::new(4, 2, 0.0, &mut rng));
        Client::new(
            0,
            model,
            dense_data(32, seed),
            Box::new(Sgd::new(0.2)),
            8,
            seed,
        )
    }

    #[test]
    fn plain_training_reduces_loss() {
        let mut c = make_client(0);
        let before = c.evaluate_local(16).loss;
        c.train_local(30, &LocalRule::Plain);
        let after = c.evaluate_local(16).loss;
        assert!(after < before, "{before} → {after}");
    }

    #[test]
    fn prox_rule_pulls_toward_anchor() {
        // With an enormous μ the parameters barely move from the anchor.
        let mut c_free = make_client(1);
        let mut c_prox = make_client(1);
        let mut anchor = Vec::new();
        c_prox.read_params(&mut anchor);
        let anchor = Arc::new(anchor);
        c_free.train_local(20, &LocalRule::Plain);
        // μ must keep lr·μ < 1 or plain SGD on the proximal term diverges
        // (lr = 0.2 here, so μ = 4 gives a per-step pull factor of 0.8).
        c_prox.train_local(
            20,
            &LocalRule::Prox {
                mu: 4.0,
                anchor: anchor.clone(),
            },
        );
        let mut w_free = Vec::new();
        let mut w_prox = Vec::new();
        c_free.read_params(&mut w_free);
        c_prox.read_params(&mut w_prox);
        let drift = |w: &[f32]| -> f32 {
            w.iter()
                .zip(anchor.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        assert!(drift(&w_prox) < drift(&w_free) * 0.5);
    }

    #[test]
    fn scaffold_correction_shifts_update() {
        // A constant correction acts like an extra gradient: params move
        // opposite to it.
        let mut c = make_client(2);
        let n = c.shell.model.num_params();
        let mut before = Vec::new();
        c.read_params(&mut before);
        let c_server = Arc::new(vec![1000.0f32; n]);
        c.train_local(1, &LocalRule::Scaffold { c: c_server });
        let mut after = Vec::new();
        c.read_params(&mut after);
        // lr 0.2 × correction 1000 dominates: every param decreased by ~200.
        for (b, a) in before.iter().zip(&after) {
            assert!(b - a > 100.0, "param did not move: {b} → {a}");
        }
    }

    #[test]
    fn mmd_rule_shrinks_distance_to_target() {
        // LinearNet has a trainable feature map, so the MMD pull must reduce
        // ‖δ − target‖ when λ is large.
        let mut rng = StdRng::seed_from_u64(3);
        let model = Box::new(LinearNet::new(4, 3, 2, 0.0, &mut rng));
        let mut c = Client::new(0, model, dense_data(32, 3), Box::new(Sgd::new(0.05)), 8, 3);
        let target = Arc::new(vec![0.0f32; 3]);
        let d0 = c.compute_delta(16);
        let dist0: f32 = d0.iter().map(|v| v * v).sum();
        // λ sized so lr·λ stays contractive on this linear feature map.
        c.train_local(
            100,
            &LocalRule::Mmd {
                lambda: 0.5,
                target: target.clone(),
            },
        );
        let d1 = c.compute_delta(16);
        let dist1: f32 = d1.iter().map(|v| v * v).sum();
        assert!(dist1 < dist0, "{dist0} → {dist1}");
    }

    #[test]
    fn compute_delta_matches_manual_mean() {
        let mut c = make_client(4);
        let d_batched = c.compute_delta(5); // odd batch to exercise the loop
        let d_full = c.compute_delta(1000);
        for (a, b) in d_batched.iter().zip(&d_full) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn report_counts_steps_and_losses() {
        let mut c = make_client(5);
        let r = c.train_local(7, &LocalRule::Plain);
        assert_eq!(r.steps, 7);
        assert_eq!(r.examples, 7 * 8, "32 samples / batch 8 → full batches");
        assert!(r.loss > 0.0);
        assert_eq!(r.reg_loss, 0.0);
    }

    /// A shell of `shape` that held another client, of another shard, seed
    /// and learning rate, whose replica starts from *different* weights
    /// than `make_client`'s and whose residual holds 2.0, so a parameter or
    /// durable field the wake failed to overwrite would show.
    fn foreign_shell(shape: Shape) -> ClientShell {
        let mut rng = StdRng::seed_from_u64(0xF0E1);
        let model = Box::new(LogisticRegression::new(4, 2, 0.0, &mut rng));
        let mut shell = ClientShell::new(model, Box::new(Sgd::new(0.9)), shape);
        shell.restart(3, 5, 2, 11, 0.9);
        shell.residual.fill(2.0);
        shell
    }

    /// `c` (client 0 over `dense_data(32, seed)`) packed into its record and
    /// woken from it around a [`foreign_shell`] of its shape and a
    /// regenerated dataset, at `params`.
    fn rewake(c: Client, seed: u64, params: Option<&[f32]>) -> Client {
        let mut shell = c.take_apart();
        let shape = shell.shape();
        let mut record = vec![0; shape.record_len(32)];
        shell.pack(&mut record);
        let mut woken = foreign_shell(shape);
        woken.unpack(&record, 32, 8, params);
        Client::wake(0, woken, dense_data(32, seed), None)
    }

    #[test]
    fn take_apart_wake_roundtrip_is_bit_exact() {
        // A client evicted mid-run and woken from its record around another
        // shell + a regenerated dataset, with the live twin's parameters
        // installed as a broadcast would, must continue training
        // bit-identically to one that stayed live the whole time.
        let mut live = make_client(7);
        let mut cycled = make_client(7);
        live.train_local(3, &LocalRule::Plain);
        cycled.train_local(3, &LocalRule::Plain);
        let mut params = Vec::new();
        live.read_params(&mut params);
        let mut cycled = rewake(cycled, 7, Some(&params));
        live.train_local(5, &LocalRule::Plain);
        cycled.train_local(5, &LocalRule::Plain);
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        live.read_params(&mut wa);
        cycled.read_params(&mut wb);
        assert_eq!(wa, wb, "eviction round-trip diverged");
    }

    #[test]
    fn take_apart_preserves_the_compression_residual() {
        let mut c = make_client(8);
        c.feedback_buffers()
            .0
            .extend_from_slice(&[0.25, -1.5, 3.0e-8]);
        let woken = rewake(c, 8, None);
        assert_eq!(woken.shell.residual, [0.25, -1.5, 3.0e-8]);
    }

    #[test]
    fn clients_with_same_seed_and_id_are_deterministic() {
        let mut a = make_client(6);
        let mut b = make_client(6);
        a.train_local(5, &LocalRule::Plain);
        b.train_local(5, &LocalRule::Plain);
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.read_params(&mut wa);
        b.read_params(&mut wb);
        assert_eq!(wa, wb);
    }
}
