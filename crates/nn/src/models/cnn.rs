//! The CNN classifier used for the image benchmarks.
//!
//! Architecture (scaled-down version of the McMahan et al. CNN, see
//! DESIGN.md §3): `conv3×3(c1) → ReLU → pool2 → conv3×3(c2) → ReLU → pool2 →
//! flatten → FC(feature_dim) → ReLU → FC(classes)`, each `ReLU → pool2` one
//! [`ReluMaxPool`] pass. The post-ReLU output of the first FC layer is the
//! feature embedding `φ(x)`.

use super::{Input, Model, ModelOutput};
use crate::activations::Relu;
use crate::conv2d::Conv2d;
use crate::flatten::Flatten;
use crate::layer::Layer;
use crate::linear::Linear;
use crate::param::Param;
use crate::pooling::ReluMaxPool;
use rand::Rng;
use rfl_tensor::{Tensor, Workspace};

/// Hyper-parameters of [`CnnClassifier`].
#[derive(Clone, Copy, Debug)]
pub struct CnnConfig {
    pub in_channels: usize,
    pub image_size: usize,
    pub conv1_channels: usize,
    pub conv2_channels: usize,
    pub feature_dim: usize,
    pub num_classes: usize,
}

impl CnnConfig {
    /// Model for the MNIST-like benchmark (1×16×16, 10 classes).
    pub fn mnist_like() -> Self {
        CnnConfig {
            in_channels: 1,
            image_size: 16,
            conv1_channels: 8,
            conv2_channels: 16,
            feature_dim: 64,
            num_classes: 10,
        }
    }

    /// Model for the CIFAR10-like benchmark (3×16×16, 10 classes).
    pub fn cifar_like() -> Self {
        CnnConfig {
            in_channels: 3,
            image_size: 16,
            conv1_channels: 8,
            conv2_channels: 16,
            feature_dim: 64,
            num_classes: 10,
        }
    }

    /// Model for the FEMNIST-like benchmark (1×16×16, 62 classes).
    pub fn femnist_like() -> Self {
        CnnConfig {
            in_channels: 1,
            image_size: 16,
            conv1_channels: 8,
            conv2_channels: 16,
            feature_dim: 64,
            num_classes: 62,
        }
    }
}

/// CNN with the feature hook at the penultimate FC layer.
pub struct CnnClassifier {
    cfg: CnnConfig,
    conv1: Conv2d,
    pool1: ReluMaxPool,
    conv2: Conv2d,
    pool2: ReluMaxPool,
    flatten: Flatten,
    fc1: Linear,
    relu3: Relu,
    fc2: Linear,
    ws: Workspace,
}

impl CnnClassifier {
    pub fn new<R: Rng>(cfg: CnnConfig, rng: &mut R) -> Self {
        let after_pool1 = cfg.image_size / 2;
        let after_pool2 = after_pool1 / 2;
        let flat = cfg.conv2_channels * after_pool2 * after_pool2;
        CnnClassifier {
            cfg,
            conv1: Conv2d::new(cfg.in_channels, cfg.conv1_channels, 3, 1, 1, rng),
            pool1: ReluMaxPool::new(),
            conv2: Conv2d::new(cfg.conv1_channels, cfg.conv2_channels, 3, 1, 1, rng),
            pool2: ReluMaxPool::new(),
            flatten: Flatten::new(),
            fc1: Linear::new(flat, cfg.feature_dim, rng),
            relu3: Relu::new(),
            fc2: Linear::new(cfg.feature_dim, cfg.num_classes, rng),
            ws: Workspace::new(),
        }
    }
}

impl Model for CnnClassifier {
    fn forward_into(&mut self, input: &Input, out: &mut ModelOutput, train: bool) {
        let x = match input {
            Input::Images(t) => t,
            _ => panic!("CnnClassifier expects Input::Images"),
        };
        assert_eq!(x.dims()[1], self.cfg.in_channels, "channel mismatch");
        assert_eq!(x.dims()[2], self.cfg.image_size, "image size mismatch");
        // Activations ping-pong between two recycled workspace buffers;
        // features/logits land directly in the caller's reusable output.
        let mut a = self.ws.take(&[1]);
        let mut b = self.ws.take(&[1]);
        self.conv1.forward_into(x, &mut a, train);
        self.pool1.forward_into(&a, &mut b, train);
        self.conv2.forward_into(&b, &mut a, train);
        self.pool2.forward_into(&a, &mut b, train);
        self.flatten.forward_into(&b, &mut a, train);
        self.fc1.forward_into(&a, &mut b, train);
        self.relu3.forward_into(&b, &mut out.features, train);
        self.fc2.forward_into(&out.features, &mut out.logits, train);
        self.ws.give(b);
        self.ws.give(a);
    }

    fn backward(&mut self, dlogits: &Tensor, dfeatures: Option<&Tensor>) {
        let mut a = self.ws.take(&[1]);
        let mut b = self.ws.take(&[1]);
        self.fc2.backward_into(dlogits, &mut a);
        if let Some(df) = dfeatures {
            a.add_assign(df);
        }
        self.relu3.backward_into(&a, &mut b);
        self.fc1.backward_into(&b, &mut a);
        self.flatten.backward_into(&a, &mut b);
        self.pool2.backward_into(&b, &mut a);
        self.conv2.backward_into(&a, &mut b);
        self.pool1.backward_into(&b, &mut a);
        self.conv1.backward_params(&a); // nobody reads the input gradient
        self.ws.give(b);
        self.ws.give(a);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.for_each_param(f);
        self.conv2.for_each_param(f);
        self.fc1.for_each_param(f);
        self.fc2.for_each_param(f);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.for_each_param_mut(f);
        self.conv2.for_each_param_mut(f);
        self.fc1.for_each_param_mut(f);
        self.fc2.for_each_param_mut(f);
    }

    fn feature_dim(&self) -> usize {
        self.cfg.feature_dim
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    fn phi_param_range(&self) -> std::ops::Range<usize> {
        // Everything except fc2 (the output layer).
        let total = self.num_params();
        let head = self.fc2.num_params();
        0..total - head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfl_tensor::Initializer;

    fn model(seed: u64) -> CnnClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        CnnClassifier::new(CnnConfig::mnist_like(), &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let mut m = model(0);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Initializer::Normal(1.0).init(&[4, 1, 16, 16], &mut rng);
        let out = m.forward(&Input::Images(x), true);
        assert_eq!(out.features.dims(), &[4, 64]);
        assert_eq!(out.logits.dims(), &[4, 10]);
        assert!(out.logits.is_finite());
    }

    #[test]
    fn features_are_non_negative_post_relu() {
        let mut m = model(0);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Initializer::Normal(1.0).init(&[2, 1, 16, 16], &mut rng);
        let out = m.forward(&Input::Images(x), true);
        assert!(out.features.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn flat_param_round_trip_preserves_output() {
        let mut m = model(3);
        let mut rng = StdRng::seed_from_u64(4);
        let x = Initializer::Normal(1.0).init(&[1, 1, 16, 16], &mut rng);
        let before = m.forward(&Input::Images(x.clone()), false).logits;
        let mut flat = Vec::new();
        m.read_params(&mut flat);
        assert_eq!(flat.len(), m.num_params());
        m.write_params(&flat);
        let after = m.forward(&Input::Images(x), false).logits;
        assert_eq!(before, after);
    }

    #[test]
    fn phi_range_excludes_head() {
        let m = model(5);
        let range = m.phi_param_range();
        assert_eq!(range.start, 0);
        assert_eq!(m.num_params() - range.end, 64 * 10 + 10);
    }

    #[test]
    fn backward_fills_gradients() {
        let mut m = model(6);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Initializer::Normal(1.0).init(&[2, 1, 16, 16], &mut rng);
        let out = m.forward(&Input::Images(x), true);
        let (_, d) = cross_entropy(&out.logits, &[1, 2]);
        m.backward(&d, None);
        let mut g = Vec::new();
        m.read_grads(&mut g);
        assert!(g.iter().any(|&v| v != 0.0));
        m.zero_grads();
        m.read_grads(&mut g);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn feature_gradient_injection_changes_grads() {
        let mut m = model(8);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Initializer::Normal(1.0).init(&[2, 1, 16, 16], &mut rng);
        let out = m.forward(&Input::Images(x.clone()), true);
        let (_, d) = cross_entropy(&out.logits, &[0, 1]);
        m.backward(&d, None);
        let mut g_plain = Vec::new();
        m.read_grads(&mut g_plain);

        m.zero_grads();
        let out = m.forward(&Input::Images(x), true);
        let (_, d) = cross_entropy(&out.logits, &[0, 1]);
        let df = Tensor::ones(&[2, 64]);
        m.backward(&d, Some(&df));
        let mut g_inject = Vec::new();
        m.read_grads(&mut g_inject);
        assert_ne!(g_plain, g_inject);
        // The head (fc2) gradient must be identical — injection happens
        // strictly below the classifier.
        let head_start = m.phi_param_range().end;
        assert_eq!(&g_plain[head_start..], &g_inject[head_start..]);
    }

    #[test]
    fn warm_buffers_match_fresh_model_after_batch_size_change() {
        // Shrinking then regrowing the reusable buffers (a smaller batch
        // after a larger one) must be bit-identical to a fresh model that
        // never saw the large batch.
        let mut warm = model(12);
        let mut fresh = model(12);
        let mut rng = StdRng::seed_from_u64(13);
        let big = Initializer::Normal(1.0).init(&[16, 1, 16, 16], &mut rng);
        let small = Initializer::Normal(1.0).init(&[7, 1, 16, 16], &mut rng);
        let _ = warm.forward(&Input::Images(big), true);
        let w = warm.forward(&Input::Images(small.clone()), true);
        let f = fresh.forward(&Input::Images(small), true);
        assert_eq!(w.logits.data(), f.logits.data());
        assert_eq!(w.features.data(), f.features.data());
    }

    /// End-to-end training sanity: loss decreases on a tiny fixed batch.
    #[test]
    fn overfits_tiny_batch() {
        use crate::optim::{Optimizer, Sgd};
        let mut m = model(10);
        let mut rng = StdRng::seed_from_u64(11);
        let x = Initializer::Normal(1.0).init(&[8, 1, 16, 16], &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let mut opt = Sgd::new(0.05);
        let mut flat = Vec::new();
        let mut grads = Vec::new();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            m.zero_grads();
            let out = m.forward(&Input::Images(x.clone()), true);
            let (loss, d) = cross_entropy(&out.logits, &labels);
            m.backward(&d, None);
            m.read_params(&mut flat);
            m.read_grads(&mut grads);
            opt.step(&mut flat, &grads);
            m.write_params(&flat);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.7,
            "loss {} → {last} did not drop",
            first.unwrap()
        );
    }
}
