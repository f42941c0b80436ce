//! Models with the *feature hook* required by the distribution regularizer.
//!
//! Every model's forward pass returns both the feature embedding `φ(x)`
//! (the output of the last fully-connected layer before the classifier, per
//! the paper's Sec. III-B) and the classification logits. The backward pass
//! accepts an optional extra gradient w.r.t. the features, which is how the
//! MMD regularizer's gradient is injected during local SGD.
//!
//! Each model states its flat parameter order once, in its two
//! [`Model::for_each_param`] visitors; `read_params`, `write_params`,
//! `read_grads`, `zero_grads` and `num_params` all walk them.

mod cnn;
mod linear;
mod lstm_classifier;

pub use cnn::{CnnClassifier, CnnConfig};
pub use linear::{LinearNet, LogisticRegression};
pub use lstm_classifier::{LstmClassifier, LstmConfig};

use crate::param::Param;
use rfl_tensor::Tensor;

/// A batch of model inputs.
#[derive(Clone, Debug)]
pub enum Input {
    /// Image batch `[N, C, H, W]`.
    Images(Tensor),
    /// Fixed-length token sequences (one `Vec` per example).
    Tokens(Vec<Vec<u32>>),
    /// Dense feature batch `[N, D]`.
    Dense(Tensor),
}

/// Forward-pass result: feature embeddings `[N, F]` and logits `[N, K]`.
pub struct ModelOutput {
    pub features: Tensor,
    pub logits: Tensor,
}

impl ModelOutput {
    /// Placeholder output for use as a reusable [`Model::forward_into`]
    /// destination; resized (and fully overwritten) on first use.
    pub fn scratch() -> Self {
        ModelOutput {
            features: Tensor::scratch(),
            logits: Tensor::scratch(),
        }
    }
}

/// A trainable classifier exposing flat-parameter I/O and the feature hook.
///
/// An implementor writes the buffer-reusing forward, the backward, the two
/// parameter visitors and the three shape queries; the allocating forward
/// and the flat parameter I/O are provided once here.
pub trait Model: Send {
    /// Forward pass into a caller-owned [`ModelOutput`], reusing its
    /// buffers (both fully overwritten; a warm call allocates nothing).
    /// `train` says a backward will follow.
    fn forward_into(&mut self, input: &Input, out: &mut ModelOutput, train: bool);

    /// Backward pass for the most recent training forward.
    ///
    /// * `dlogits` — gradient of the loss w.r.t. the logits.
    /// * `dfeatures` — optional extra gradient w.r.t. the features (the MMD
    ///   regularizer term); summed into the classifier-input gradient.
    fn backward(&mut self, dlogits: &Tensor, dfeatures: Option<&Tensor>);

    /// Visits every parameter in the model's canonical (flat) order.
    fn for_each_param(&self, f: &mut dyn FnMut(&Param));

    /// Mutable twin of [`for_each_param`](Model::for_each_param), in the
    /// same order.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Dimension of the feature embedding `φ(x)`.
    fn feature_dim(&self) -> usize;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Scalar indices (into the flat parameter vector) that belong to `φ`,
    /// i.e. every parameter *except* the output layer. Exposed so the δ map
    /// size and the theory checks can reason about `w̃` vs `w̿`.
    fn phi_param_range(&self) -> std::ops::Range<usize>;

    /// [`forward_into`](Model::forward_into) into a fresh [`ModelOutput`].
    fn forward(&mut self, input: &Input, train: bool) -> ModelOutput {
        let mut out = ModelOutput::scratch();
        self.forward_into(input, &mut out, train);
        out
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.numel());
        n
    }

    /// Copies all parameters, flattened, into `out`.
    fn read_params(&self, out: &mut Vec<f32>) {
        out.clear();
        self.for_each_param(&mut |p| out.extend_from_slice(p.value.data()));
    }

    /// Writes a flat parameter vector into the model.
    ///
    /// # Panics
    /// Panics if `src` length differs from the total parameter count.
    fn write_params(&mut self, src: &[f32]) {
        assert_eq!(
            src.len(),
            self.num_params(),
            "flat parameter length mismatch"
        );
        let mut off = 0;
        self.for_each_param_mut(&mut |p| {
            let n = p.numel();
            p.value.data_mut().copy_from_slice(&src[off..off + n]);
            off += n;
        });
    }

    /// Copies all gradients, flattened, into `out`.
    fn read_grads(&self, out: &mut Vec<f32>) {
        out.clear();
        self.for_each_param(&mut |p| out.extend_from_slice(p.grad.data()));
    }

    /// Zeroes all gradient accumulators.
    fn zero_grads(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }
}
