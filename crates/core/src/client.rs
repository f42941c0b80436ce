//! A federated client: private data, a model replica, persistent local
//! optimizer state, and a private RNG.
//!
//! A [`Client`] is two halves around its dataset: the durable
//! `ClientPersist` — everything that must survive an eviction — and a
//! `ClientShell` — the model replica and the step loop's buffers, which
//! hold nothing a later tenant can observe and are therefore recycled by
//! the lazy registry instead of rebuilt ([`crate::registry`]).

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

/// The durable half of a client, retained while the heavyweight simulation
/// objects (model replica, dataset, scratch buffers) are evicted between
/// rounds. [`Client::take_apart`] hands it out and [`Client::assemble`]
/// takes it back, round-tripping the client bit-exactly: the RNG stream
/// position, the epoch-shuffle cursor, the optimizer state (RMSProp
/// accumulators, learning rate), and the flat parameters are everything
/// local training reads besides the data itself, which the registry
/// regenerates deterministically.
pub(crate) struct ClientPersist {
    rng: StdRng,
    sampler: BatchSampler,
    optimizer: Box<dyn Optimizer>,
    /// The flat parameters: the step loop's read/step/write buffer while
    /// the client is live (empty until an eager client's first step), the
    /// model's only durable copy while it is not.
    params: Vec<f32>,
    /// Error-feedback residual of the compression stage: what the last
    /// compressed upload failed to carry, folded into the next update.
    /// Empty (length 0) until the first compressed upload. Durable state —
    /// dropping it on eviction would silently change the model trajectory
    /// whenever uploads are compressed.
    residual: Vec<f32>,
}

impl ClientPersist {
    /// The durable state of client `id` before its first local step: its
    /// own RNG stream, a sampler over `n_samples` examples, a fresh
    /// optimizer, and `params` as the starting point.
    pub(crate) fn initial(
        id: usize,
        n_samples: usize,
        optimizer: Box<dyn Optimizer>,
        batch_size: usize,
        seed: u64,
        params: Vec<f32>,
    ) -> Self {
        assert!(n_samples > 0, "client {id} has no data");
        ClientPersist {
            // Offset the stream so clients never share a sequence.
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            sampler: BatchSampler::new(n_samples, batch_size),
            optimizer,
            params,
            residual: Vec::new(),
        }
    }
}

/// The non-durable half of a client: the model replica and every buffer of
/// the step loop. Nothing in it outlives a call as *state* — `write_params`
/// overwrites every parameter on assembly, `zero_grads` opens every step,
/// and each buffer is resized and fully overwritten before it is read — so
/// a shell that served one client can serve any other of the same
/// architecture, already warm, with bit-identical results.
pub(crate) struct ClientShell {
    model: Box<dyn Model>,
    grads: Vec<f32>,
    // Reusable mini-batch buffers: once warm, a local SGD step touches the
    // allocator only through the model's own (workspace-backed) forward.
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
    /// A cold shell around `model`; its buffers size themselves on first use.
    pub(crate) fn new(model: Box<dyn Model>) -> Self {
        ClientShell {
            model,
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
        }
    }
}

/// One client in the federation.
pub struct Client {
    id: usize,
    data: Dataset,
    clip_grad_norm: Option<f32>,
    persist: ClientPersist,
    shell: ClientShell,
}

impl Client {
    /// An eager client: the initial durable state and a cold shell around
    /// `model`, whose current parameters are the starting point (the flat
    /// copy fills on the first step).
    pub fn new(
        id: usize,
        model: Box<dyn Model>,
        data: Dataset,
        optimizer: Box<dyn Optimizer>,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Client {
            id,
            persist: ClientPersist::initial(
                id,
                data.len(),
                optimizer,
                batch_size,
                seed,
                Vec::new(),
            ),
            data,
            clip_grad_norm: None,
            shell: ClientShell::new(model),
        }
    }

    /// Puts a client together from its two halves and its (regenerated)
    /// dataset: the persisted parameters overwrite whatever the shell's
    /// replica held, and the RNG/sampler/optimizer resume exactly where
    /// they stopped. Bit-exact inverse of [`Client::take_apart`], whatever
    /// the shell did in between.
    pub(crate) fn assemble(
        id: usize,
        mut shell: ClientShell,
        data: Dataset,
        persist: ClientPersist,
        clip_grad_norm: Option<f32>,
    ) -> Self {
        assert!(!data.is_empty(), "client {id} has no data");
        shell.model.write_params(&persist.params);
        Client {
            id,
            data,
            clip_grad_norm,
            persist,
            shell,
        }
    }

    /// Takes the client apart into its durable state (now holding the
    /// replica's current parameters) and its reusable shell, dropping the
    /// dataset. The lazy registry calls this when evicting a client after
    /// its round.
    pub(crate) fn take_apart(mut self) -> (ClientPersist, ClientShell) {
        self.shell.model.read_params(&mut self.persist.params);
        (self.persist, self.shell)
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

    pub fn data(&self) -> &Dataset {
        &self.data
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

    /// The error-feedback residual of the compressed-upload stage. The
    /// compression helpers ([`crate::compress::ef_compress_update`]) size it
    /// lazily on first use; it is durable state and survives hibernation.
    pub(crate) fn residual_mut(&mut self) -> &mut Vec<f32> {
        &mut self.persist.residual
    }

    /// Learning rate of the local optimizer.
    pub(crate) fn lr(&self) -> f32 {
        self.persist.optimizer.lr()
    }

    /// Overrides the local learning rate (decaying schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.persist.optimizer.set_lr(lr);
    }

    /// Runs `steps` mini-batch SGD steps under `rule` (Algorithm 1/2 inner
    /// loop, lines 6–10).
    pub fn train_local(&mut self, steps: usize, rule: &LocalRule) -> LocalReport {
        let Client {
            data,
            clip_grad_norm,
            persist,
            shell,
            ..
        } = self;
        let mut loss_sum = 0.0f32;
        let mut reg_sum = 0.0f32;
        let mut examples = 0usize;
        for _ in 0..steps {
            persist
                .sampler
                .next_batch_into(&mut persist.rng, &mut shell.batch_idx);
            examples += shell.batch_idx.len();
            gather_batch(
                data,
                &shell.batch_idx,
                &mut shell.batch_input,
                &mut shell.batch_labels,
            );
            shell.model.zero_grads();
            shell.model.forward_into(
                shell.batch_input.as_ref().expect("batch gathered"),
                &mut shell.out,
                true,
            );
            let loss = cross_entropy_into(
                &shell.out.logits,
                &shell.batch_labels,
                &mut shell.log_p,
                &mut shell.dlogits,
            );
            loss_sum += loss;

            let dfeatures = match rule {
                LocalRule::Mmd { lambda, target } => {
                    reg_sum += mmd::regularizer_loss_into(
                        &shell.out.features,
                        target,
                        *lambda,
                        &mut shell.mu,
                    );
                    mmd::feature_gradient_into(
                        &shell.out.features,
                        target,
                        *lambda,
                        &mut shell.mu,
                        &mut shell.dfeatures,
                    );
                    Some(&shell.dfeatures)
                }
                _ => None,
            };
            shell.model.backward(&shell.dlogits, dfeatures);

            shell.model.read_params(&mut persist.params);
            shell.model.read_grads(&mut shell.grads);
            match rule {
                LocalRule::Prox { mu, anchor } => {
                    debug_assert_eq!(anchor.len(), persist.params.len());
                    for ((g, w), a) in shell
                        .grads
                        .iter_mut()
                        .zip(&persist.params)
                        .zip(anchor.iter())
                    {
                        *g += mu * (w - a);
                    }
                }
                LocalRule::Scaffold { correction } => {
                    debug_assert_eq!(correction.len(), shell.grads.len());
                    for (g, c) in shell.grads.iter_mut().zip(correction.iter()) {
                        *g += c;
                    }
                }
                _ => {}
            }
            if let Some(clip) = *clip_grad_norm {
                let norm = shell.grads.iter().map(|g| g * g).sum::<f32>().sqrt();
                if norm > clip {
                    let s = clip / norm;
                    for g in &mut shell.grads {
                        *g *= s;
                    }
                }
            }
            persist.optimizer.step(&mut persist.params, &shell.grads);
            shell.model.write_params(&persist.params);
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
        let n = data.len();
        sum.clear();
        sum.resize(shell.model.feature_dim(), 0.0);
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + batch).min(n);
            shell.batch_idx.clear();
            shell.batch_idx.extend(lo..hi);
            gather_batch(
                data,
                &shell.batch_idx,
                &mut shell.batch_input,
                &mut shell.batch_labels,
            );
            shell.model.forward_into(
                shell.batch_input.as_ref().expect("batch gathered"),
                &mut shell.out,
                false,
            );
            shell.out.features.sum_axis0_into(&mut shell.feat_sum);
            for (s, &v) in sum.iter_mut().zip(shell.feat_sum.data()) {
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
        let correction = Arc::new(vec![1000.0f32; n]);
        c.train_local(1, &LocalRule::Scaffold { correction });
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

    /// A cold shell whose replica starts from *different* weights than
    /// `make_client`'s, so a parameter the assembly failed to overwrite
    /// would show.
    fn foreign_shell() -> ClientShell {
        let mut rng = StdRng::seed_from_u64(0xF0E1);
        ClientShell::new(Box::new(LogisticRegression::new(4, 2, 0.0, &mut rng)))
    }

    #[test]
    fn take_apart_assemble_roundtrip_is_bit_exact() {
        // A client evicted mid-run and put back together around another
        // shell + a regenerated dataset must continue training
        // bit-identically to one that stayed live the whole time.
        let mut live = make_client(7);
        let mut cycled = make_client(7);
        live.train_local(3, &LocalRule::Plain);
        cycled.train_local(3, &LocalRule::Plain);
        let (persist, _) = cycled.take_apart();
        let mut cycled = Client::assemble(0, foreign_shell(), dense_data(32, 7), persist, None);
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
        c.residual_mut().extend_from_slice(&[0.25, -1.5, 3.0e-8]);
        let (persist, _) = c.take_apart();
        let woken = Client::assemble(0, foreign_shell(), dense_data(32, 8), persist, None);
        assert_eq!(woken.persist.residual, [0.25, -1.5, 3.0e-8]);
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
