//! Linear models: multinomial logistic regression (the strongly convex
//! objective of the convergence theory) and a two-layer linear network with
//! a genuine trainable feature map.

use super::{Input, Model, ModelOutput};
use crate::layer::Layer;
use crate::linear::Linear;
use crate::param::Param;
use rand::Rng;
use rfl_tensor::Tensor;

/// Multinomial logistic regression with L2 weight decay.
///
/// With `l2 > 0` the local objectives are `l2`-strongly convex and L-smooth,
/// satisfying assumption A1 of the paper exactly; this is the model used by
/// the `theory_convergence` experiment. The feature map `φ` is the identity
/// (it has no trainable parameters), so `phi_param_range` is empty.
pub struct LogisticRegression {
    head: Linear,
    l2: f32,
}

impl LogisticRegression {
    pub fn new<R: Rng>(in_dim: usize, classes: usize, l2: f32, rng: &mut R) -> Self {
        assert!(l2 >= 0.0);
        LogisticRegression {
            head: Linear::new(in_dim, classes, rng),
            l2,
        }
    }
}

impl Model for LogisticRegression {
    fn forward_into(&mut self, input: &Input, out: &mut ModelOutput, train: bool) {
        let x = match input {
            Input::Dense(t) => t,
            _ => panic!("LogisticRegression expects Input::Dense"),
        };
        self.head.forward_into(x, &mut out.logits, train);
        // φ is the identity: the features *are* the input.
        out.features.assign(x);
    }

    fn backward(&mut self, dlogits: &Tensor, _dfeatures: Option<&Tensor>) {
        // φ is the identity here, so a feature gradient would only flow into
        // the (non-trainable) input; it is intentionally dropped, and the
        // head's input gradient is not computed.
        self.head.backward_params_into(dlogits);
        if self.l2 > 0.0 {
            let l2 = self.l2;
            self.head.weight.grad.axpy(l2, &self.head.weight.value);
            self.head.bias.grad.axpy(l2, &self.head.bias.value);
        }
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        self.head.for_each_param(f);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.head.for_each_param_mut(f);
    }

    fn feature_dim(&self) -> usize {
        self.head.in_dim()
    }

    fn num_classes(&self) -> usize {
        self.head.out_dim()
    }

    fn phi_param_range(&self) -> std::ops::Range<usize> {
        0..0
    }
}

/// A two-layer *linear* network: `features = x·A`, `logits = features·W + b`.
///
/// The feature map is linear (hence convex, assumption A6) and trainable, so
/// the distribution regularizer has a non-trivial gradient — this is the
/// simplest model that exercises the full rFedAvg/rFedAvg+ machinery and is
/// used in convergence experiments alongside [`LogisticRegression`].
pub struct LinearNet {
    feat: Linear,
    head: Linear,
    l2: f32,
    dfeat: Tensor, // scratch: gradient w.r.t. the features
}

impl LinearNet {
    pub fn new<R: Rng>(
        in_dim: usize,
        feature_dim: usize,
        classes: usize,
        l2: f32,
        rng: &mut R,
    ) -> Self {
        LinearNet {
            feat: Linear::new(in_dim, feature_dim, rng),
            head: Linear::new(feature_dim, classes, rng),
            l2,
            dfeat: Tensor::scratch(),
        }
    }
}

impl Model for LinearNet {
    fn forward_into(&mut self, input: &Input, out: &mut ModelOutput, train: bool) {
        let x = match input {
            Input::Dense(t) => t,
            _ => panic!("LinearNet expects Input::Dense"),
        };
        self.feat.forward_into(x, &mut out.features, train);
        self.head
            .forward_into(&out.features, &mut out.logits, train);
    }

    fn backward(&mut self, dlogits: &Tensor, dfeatures: Option<&Tensor>) {
        self.head.backward_into(dlogits, &mut self.dfeat);
        if let Some(df) = dfeatures {
            self.dfeat.add_assign(df);
        }
        // Nobody reads the input gradient.
        self.feat.backward_params_into(&self.dfeat);
        if self.l2 > 0.0 {
            let l2 = self.l2;
            self.for_each_param_mut(&mut |p| p.grad.axpy(l2, &p.value));
        }
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        self.feat.for_each_param(f);
        self.head.for_each_param(f);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.feat.for_each_param_mut(f);
        self.head.for_each_param_mut(f);
    }

    fn feature_dim(&self) -> usize {
        self.feat.out_dim()
    }

    fn num_classes(&self) -> usize {
        self.head.out_dim()
    }

    fn phi_param_range(&self) -> std::ops::Range<usize> {
        0..self.feat.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;
    use crate::optim::{Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfl_tensor::Initializer;

    #[test]
    fn logreg_shapes_and_identity_features() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = LogisticRegression::new(4, 3, 0.0, &mut rng);
        let x = Initializer::Normal(1.0).init(&[5, 4], &mut rng);
        let out = m.forward(&Input::Dense(x.clone()), true);
        assert_eq!(out.logits.dims(), &[5, 3]);
        assert_eq!(out.features, x);
        assert!(m.phi_param_range().is_empty());
    }

    #[test]
    fn l2_adds_weight_decay_to_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m0 = LogisticRegression::new(2, 2, 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m1 = LogisticRegression::new(2, 2, 0.5, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        for m in [&mut m0, &mut m1] {
            let out = m.forward(&Input::Dense(x.clone()), true);
            let (_, d) = cross_entropy(&out.logits, &[0]);
            m.backward(&d, None);
        }
        let mut g0 = Vec::new();
        let mut g1 = Vec::new();
        m0.read_grads(&mut g0);
        m1.read_grads(&mut g1);
        let mut p = Vec::new();
        m0.read_params(&mut p);
        for i in 0..g0.len() {
            assert!((g1[i] - (g0[i] + 0.5 * p[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn logreg_learns_linearly_separable_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = LogisticRegression::new(2, 2, 0.0, &mut rng);
        // Class 0 at (-1,-1), class 1 at (1,1).
        let x = Tensor::from_vec(vec![-1.0, -1.0, 1.0, 1.0, -0.8, -1.2, 1.1, 0.9], &[4, 2]);
        let y = [0usize, 1, 0, 1];
        let mut opt = Sgd::new(0.5);
        let (mut flat, mut grads) = (Vec::new(), Vec::new());
        for _ in 0..100 {
            m.zero_grads();
            let out = m.forward(&Input::Dense(x.clone()), true);
            let (_, d) = cross_entropy(&out.logits, &y);
            m.backward(&d, None);
            m.read_params(&mut flat);
            m.read_grads(&mut grads);
            opt.step(&mut flat, &grads);
            m.write_params(&flat);
        }
        let out = m.forward(&Input::Dense(x), false);
        assert_eq!(out.logits.argmax_rows(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn linearnet_feature_hook_flows_to_feat_only_below_head() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = LinearNet::new(3, 4, 2, 0.0, &mut rng);
        let x = Initializer::Normal(1.0).init(&[2, 3], &mut rng);
        let out = m.forward(&Input::Dense(x.clone()), true);
        let (_, d) = cross_entropy(&out.logits, &[0, 1]);
        m.backward(&d, Some(&Tensor::ones(&[2, 4])));
        let mut g = Vec::new();
        m.read_grads(&mut g);
        assert!(g.iter().any(|&v| v != 0.0));
        // Repeat without injection: head grads identical, feat grads differ.
        let mut rng = StdRng::seed_from_u64(3);
        let mut m2 = LinearNet::new(3, 4, 2, 0.0, &mut rng);
        let out = m2.forward(&Input::Dense(x), true);
        let (_, d) = cross_entropy(&out.logits, &[0, 1]);
        m2.backward(&d, None);
        let mut g2 = Vec::new();
        m2.read_grads(&mut g2);
        let phi_end = m.phi_param_range().end;
        assert_ne!(&g[..phi_end], &g2[..phi_end]);
        assert_eq!(&g[phi_end..], &g2[phi_end..]);
    }
}
