//! The LSTM classifier for the Sent140-like sentiment benchmark.
//!
//! Architecture mirroring the paper's Sent140 model (scaled; see DESIGN.md):
//! `Embedding → 2× LSTM → last hidden state → FC(feature_dim) → Tanh →
//! FC(classes)`. The Tanh output of the penultimate FC layer is the feature
//! embedding `φ(x)` — being bounded it also satisfies the paper's diameter
//! assumption A5 by construction.

use super::{Input, Model, ModelOutput};
use crate::activations::Tanh;
use crate::embedding::Embedding;
use crate::layer::Layer;
use crate::linear::Linear;
use crate::lstm::Lstm;
use crate::param::Param;
use rand::Rng;
use rfl_tensor::{Tensor, Workspace};

/// Hyper-parameters of [`LstmClassifier`].
#[derive(Clone, Copy, Debug)]
pub struct LstmConfig {
    pub vocab: usize,
    pub embed_dim: usize,
    pub hidden: usize,
    pub feature_dim: usize,
    pub num_classes: usize,
}

impl LstmConfig {
    /// Model for the Sent140-like benchmark.
    pub fn sent140_like() -> Self {
        LstmConfig {
            vocab: 128,
            embed_dim: 16,
            hidden: 32,
            feature_dim: 32,
            num_classes: 2,
        }
    }
}

/// Two-layer LSTM classifier with the feature hook.
pub struct LstmClassifier {
    cfg: LstmConfig,
    embed: Embedding,
    lstm1: Lstm,
    lstm2: Lstm,
    fc_feat: Linear,
    tanh: Tanh,
    fc_out: Linear,
    cached_steps: usize,
    cached_batch: usize,
    ws: Workspace,
}

impl LstmClassifier {
    pub fn new<R: Rng>(cfg: LstmConfig, rng: &mut R) -> Self {
        LstmClassifier {
            cfg,
            embed: Embedding::new(cfg.vocab, cfg.embed_dim, rng),
            lstm1: Lstm::new(cfg.embed_dim, cfg.hidden, rng),
            lstm2: Lstm::new(cfg.hidden, cfg.hidden, rng),
            fc_feat: Linear::new(cfg.hidden, cfg.feature_dim, rng),
            tanh: Tanh::new(),
            fc_out: Linear::new(cfg.feature_dim, cfg.num_classes, rng),
            cached_steps: 0,
            cached_batch: 0,
            ws: Workspace::new(),
        }
    }
}

impl Model for LstmClassifier {
    fn forward_into(&mut self, input: &Input, out: &mut ModelOutput, train: bool) {
        let tokens = match input {
            Input::Tokens(t) => t,
            _ => panic!("LstmClassifier expects Input::Tokens"),
        };
        let mut emb = self.ws.take(&[1]);
        self.embed.forward_into(tokens, &mut emb); // [T, N, D]
        let mut h1 = self.ws.take(&[1]);
        self.lstm1.forward_into(&emb, &mut h1, train); // [T, N, H]
        let mut h2 = self.ws.take(&[1]);
        self.lstm2.forward_into(&h1, &mut h2, train); // [T, N, H]
        let (t_len, n, h_dim) = (h2.dims()[0], h2.dims()[1], h2.dims()[2]);
        self.cached_steps = t_len;
        self.cached_batch = n;
        // Final hidden state of the top layer.
        let mut last = self.ws.take(&[n, h_dim]);
        last.data_mut()
            .copy_from_slice(&h2.data()[(t_len - 1) * n * h_dim..]);
        let mut f = self.ws.take(&[1]);
        self.fc_feat.forward_into(&last, &mut f, train);
        self.tanh.forward_into(&f, &mut out.features, train);
        self.fc_out
            .forward_into(&out.features, &mut out.logits, train);
        self.ws.give(f);
        self.ws.give(last);
        self.ws.give(h2);
        self.ws.give(h1);
        self.ws.give(emb);
    }

    fn backward(&mut self, dlogits: &Tensor, dfeatures: Option<&Tensor>) {
        let mut a = self.ws.take(&[1]);
        let mut b = self.ws.take(&[1]);
        self.fc_out.backward_into(dlogits, &mut a);
        if let Some(df) = dfeatures {
            a.add_assign(df);
        }
        self.tanh.backward_into(&a, &mut b);
        self.fc_feat.backward_into(&b, &mut a);
        // `a` is d_last [N, H]; expand to [T, N, H] with gradient only at
        // the final step.
        let (t_len, n) = (self.cached_steps, self.cached_batch);
        let h_dim = self.lstm2.hidden();
        let mut dh2 = self.ws.take(&[t_len, n, h_dim]);
        dh2.fill(0.0);
        dh2.data_mut()[(t_len - 1) * n * h_dim..].copy_from_slice(a.data());
        let mut dh1 = self.ws.take(&[1]);
        self.lstm2.backward_into(&dh2, &mut dh1);
        let mut demb = self.ws.take(&[1]);
        self.lstm1.backward_into(&dh1, &mut demb);
        self.embed.backward(&demb);
        self.ws.give(demb);
        self.ws.give(dh1);
        self.ws.give(dh2);
        self.ws.give(b);
        self.ws.give(a);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.embed.table);
        self.lstm1.for_each_param(f);
        self.lstm2.for_each_param(f);
        self.fc_feat.for_each_param(f);
        self.fc_out.for_each_param(f);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embed.table);
        self.lstm1.for_each_param_mut(f);
        self.lstm2.for_each_param_mut(f);
        self.fc_feat.for_each_param_mut(f);
        self.fc_out.for_each_param_mut(f);
    }

    fn feature_dim(&self) -> usize {
        self.cfg.feature_dim
    }

    fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    fn phi_param_range(&self) -> std::ops::Range<usize> {
        let total = self.num_params();
        let head = self.fc_out.num_params();
        0..total - head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;
    use crate::optim::{Optimizer, RmsProp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> LstmClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmClassifier::new(LstmConfig::sent140_like(), &mut rng)
    }

    fn batch(n: usize, t: usize, seed: u64) -> Vec<Vec<u32>> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..t).map(|_| rng.gen_range(0..128)).collect())
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let mut m = model(0);
        let out = m.forward(&Input::Tokens(batch(3, 8, 1)), true);
        assert_eq!(out.features.dims(), &[3, 32]);
        assert_eq!(out.logits.dims(), &[3, 2]);
        assert!(out.logits.is_finite());
    }

    #[test]
    fn features_are_bounded_by_tanh() {
        let mut m = model(0);
        let out = m.forward(&Input::Tokens(batch(4, 12, 2)), true);
        assert!(out.features.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn backward_fills_all_param_grads() {
        let mut m = model(1);
        let out = m.forward(&Input::Tokens(batch(2, 6, 3)), true);
        let (_, d) = cross_entropy(&out.logits, &[0, 1]);
        m.backward(&d, None);
        // Every parameter group should receive some gradient.
        let mut i = 0;
        m.for_each_param(&mut |p| {
            assert!(
                p.grad.data().iter().any(|&v| v != 0.0),
                "param group {i} has zero grad"
            );
            i += 1;
        });
    }

    #[test]
    fn overfits_tiny_batch_with_rmsprop() {
        let mut m = model(2);
        let tokens = batch(6, 8, 4);
        let labels: Vec<usize> = (0..6).map(|i| i % 2).collect();
        let mut opt = RmsProp::new(0.01);
        let (mut flat, mut grads) = (Vec::new(), Vec::new());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            m.zero_grads();
            let out = m.forward(&Input::Tokens(tokens.clone()), true);
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
            last < first.unwrap() * 0.5,
            "loss {} → {last}",
            first.unwrap()
        );
    }

    #[test]
    fn phi_range_excludes_output_layer() {
        let m = model(3);
        assert_eq!(m.num_params() - m.phi_param_range().end, 32 * 2 + 2);
    }

    #[test]
    fn flat_round_trip_preserves_output() {
        let mut m = model(4);
        let tokens = batch(2, 5, 5);
        let before = m.forward(&Input::Tokens(tokens.clone()), false).logits;
        let mut flat = Vec::new();
        m.read_params(&mut flat);
        m.write_params(&flat);
        let after = m.forward(&Input::Tokens(tokens), false).logits;
        assert_eq!(before, after);
    }
}
