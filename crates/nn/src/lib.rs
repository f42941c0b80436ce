//! # rfl-nn
//!
//! A compact neural-network library with *manual backpropagation*, built on
//! [`rfl_tensor`]. It implements exactly what the rFedAvg reproduction needs:
//!
//! * layers: [`Linear`], [`Conv2d`], [`ReluMaxPool`] (ReLU and 2×2
//!   max-pooling in one pass), [`Relu`], [`Tanh`], [`Sigmoid`], [`Flatten`],
//!   [`Lstm`] (each a [`Layer`]), and the token lookup [`Embedding`];
//! * loss: softmax [`cross_entropy`];
//! * optimizers over flat parameter vectors: [`Sgd`] and
//!   [`RmsProp`] — the paper trains image models with SGD and the
//!   Sent140 LSTM with RMSProp;
//! * models exposing the *feature hook* needed by the distribution
//!   regularizer: [`CnnClassifier`], [`LstmClassifier`],
//!   [`LogisticRegression`] (the strongly convex objective used for the
//!   convergence theory), [`LinearNet`].
//!
//! Each pass is written once. A [`Layer`] implements `forward_into` /
//! `backward_into`, which write into caller-owned buffers, and (if it has
//! parameters) the `for_each_param` / `for_each_param_mut` visitors; a
//! [`Model`] implements `forward_into`, `backward`, the two visitors and
//! three shape queries. The allocating `forward` / `backward`, `zero_grads`,
//! `num_params` and the flat parameter I/O (`read_params`, `write_params`,
//! `read_grads`) are provided by the traits on top of those, so a model's
//! flat parameter order is stated once, in its visitors.
//!
//! ## The feature hook
//!
//! The paper's regularizer `r_k` (Eq. 5) is the MMD distance between clients'
//! mean feature embeddings `δ = (1/n) Σ φ(x)` where `φ` is the network up to
//! (and including) the last fully-connected layer before the classifier.
//! Every [`Model`] therefore returns `(features, logits)` from its forward
//! pass, and `backward` accepts an extra gradient `dfeatures` that is summed
//! into the feature layer — this is how `∇r_k` enters local SGD.
//!
//! ```
//! use rfl_nn::{LogisticRegression, Model, Input, cross_entropy};
//! use rand::{rngs::StdRng, SeedableRng};
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = LogisticRegression::new(4, 3, 0.0, &mut rng);
//! let x = rfl_tensor::Tensor::zeros(&[2, 4]);
//! let out = model.forward(&Input::Dense(x), true);
//! let (loss, dlogits) = cross_entropy(&out.logits, &[0, 2]);
//! model.backward(&dlogits, None);
//! assert!(loss > 0.0);
//! ```

mod activations;
mod conv2d;
mod embedding;
mod flatten;
mod layer;
mod linear;
mod loss;
mod lstm;
mod models;
mod optim;
mod param;
mod pooling;

pub use activations::{Relu, Sigmoid, Tanh};
pub use conv2d::Conv2d;
pub use embedding::Embedding;
pub use flatten::Flatten;
pub use layer::Layer;
pub use linear::Linear;
pub use loss::{cross_entropy, cross_entropy_into};
pub use lstm::Lstm;
pub use models::{
    CnnClassifier, CnnConfig, Input, LinearNet, LogisticRegression, LstmClassifier, LstmConfig,
    Model, ModelOutput,
};
pub use optim::{Optimizer, RmsProp, Sgd};
pub use param::Param;
pub use pooling::ReluMaxPool;

#[cfg(test)]
mod gradcheck;
