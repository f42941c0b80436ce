//! Implementing your own model: anything that implements `rfedavg::nn::Model`
//! — including the feature hook — plugs into every algorithm in the
//! framework. Here: a tiny radial-basis classifier trained with rFedAvg+.
//!
//! Run with: `cargo run --release --example custom_model`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfedavg::data::synth::gaussian::GaussianMixtureSpec;
use rfedavg::data::{partition, FederatedData};
use rfedavg::nn::{cross_entropy, Input, Layer, Linear, Model, ModelOutput, Param, Sigmoid};

use rfedavg::core::{Client, LocalRule};
use rfedavg::tensor::Tensor;
use std::sync::Arc;

/// A sigmoid-bottleneck classifier: `x → Linear → Sigmoid (= φ) → Linear`.
/// The sigmoid features are bounded, which suits the MMD regularizer's
/// diameter assumption (A5). The model owns its intermediate buffers, so a
/// warm step allocates nothing.
struct SigmoidNet {
    feat: Linear,
    act: Sigmoid,
    head: Linear,
    h: Tensor,      // the bottleneck's pre-activation
    dfeat: Tensor,  // gradient w.r.t. the features
    dh: Tensor,     // gradient w.r.t. the pre-activation
    dinput: Tensor, // the input gradient nobody reads
}

impl SigmoidNet {
    fn new(in_dim: usize, hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        SigmoidNet {
            feat: Linear::new(in_dim, hidden, rng),
            act: Sigmoid::new(),
            head: Linear::new(hidden, classes, rng),
            h: Tensor::scratch(),
            dfeat: Tensor::scratch(),
            dh: Tensor::scratch(),
            dinput: Tensor::scratch(),
        }
    }
}

/// The minimal `Model`: the buffer-reusing forward, the backward, the two
/// parameter visitors (the one place the flat parameter order is written)
/// and three shape queries. `forward`, `read_params`, `write_params`,
/// `read_grads`, `zero_grads` and `num_params` come with the trait.
impl Model for SigmoidNet {
    fn forward_into(&mut self, input: &Input, out: &mut ModelOutput, train: bool) {
        let x = match input {
            Input::Dense(t) => t,
            _ => panic!("SigmoidNet expects dense inputs"),
        };
        self.feat.forward_into(x, &mut self.h, train);
        self.act.forward_into(&self.h, &mut out.features, train);
        self.head
            .forward_into(&out.features, &mut out.logits, train);
    }

    fn backward(&mut self, dlogits: &Tensor, dfeatures: Option<&Tensor>) {
        self.head.backward_into(dlogits, &mut self.dfeat);
        if let Some(df) = dfeatures {
            self.dfeat.add_assign(df); // ← the MMD regularizer enters here
        }
        self.act.backward_into(&self.dfeat, &mut self.dh);
        self.feat.backward_into(&self.dh, &mut self.dinput);
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
        self.head.in_dim()
    }

    fn num_classes(&self) -> usize {
        self.head.out_dim()
    }

    fn phi_param_range(&self) -> std::ops::Range<usize> {
        0..self.feat.num_params()
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let spec = GaussianMixtureSpec::default_spec();
    let pool = spec.generate(6 * 40, None, &mut rng);
    let parts = partition::similarity(pool.labels(), 6, 0.0, &mut rng);
    let test = spec.generate(150, None, &mut rng);
    let data = FederatedData::from_partition(&pool, &parts, test);

    // Custom models are wired by building the clients by hand — the
    // Federation's built-in factories cover the stock models; here we use
    // the lower-level Client API directly.
    let lambda = 0.05f32;
    let mut clients: Vec<Client> = data
        .clients
        .iter()
        .enumerate()
        .map(|(k, d)| {
            let mut model_rng = StdRng::seed_from_u64(99); // same init everywhere
            let model = Box::new(SigmoidNet::new(10, 12, 4, &mut model_rng));
            Client::new(
                k,
                model,
                d.clone(),
                Box::new(rfedavg::nn::Sgd::new(0.2)),
                10,
                99,
            )
        })
        .collect();

    // A minimal rFedAvg+-style loop over the custom clients.
    let mut global = Vec::new();
    clients[0].read_params(&mut global);
    let weights = data.client_weights();
    let mut table = rfedavg::core::delta::DeltaTable::new(clients.len(), 12);
    for round in 0..15 {
        for c in clients.iter_mut() {
            c.write_params(&global);
        }
        let mut reports = Vec::new();
        for (k, c) in clients.iter_mut().enumerate() {
            let rule = match table.mean_excluding_initialized(k) {
                Some(target) => LocalRule::Mmd {
                    lambda,
                    target: Arc::new(target),
                },
                None => LocalRule::Plain,
            };
            reports.push(c.train_local(5, &rule));
        }
        // Weighted average.
        let mut acc = vec![0.0f32; global.len()];
        let mut buf = Vec::new();
        for (c, &w) in clients.iter().zip(&weights) {
            c.read_params(&mut buf);
            for (a, v) in acc.iter_mut().zip(&buf) {
                *a += w * v;
            }
        }
        global = acc;
        // Double sync: δ from the fresh global model.
        for (k, c) in clients.iter_mut().enumerate() {
            c.write_params(&global);
            table.set(k, c.compute_delta(32));
        }
        let loss: f32 = reports.iter().map(|r| r.loss).sum::<f32>() / reports.len() as f32;
        println!(
            "round {round:>2}: train loss {loss:.3}, δ discrepancy {:.4}",
            table.mean_regularizer()
        );
    }

    // Evaluate the custom global model.
    let mut eval_rng = StdRng::seed_from_u64(99);
    let mut model = SigmoidNet::new(10, 12, 4, &mut eval_rng);
    model.write_params(&global);
    let out = model.forward(
        &Input::Dense(match data.test.examples() {
            rfedavg::data::Examples::Dense(t) => t.clone(),
            _ => unreachable!(),
        }),
        false,
    );
    let (loss, _) = cross_entropy(&out.logits, data.test.labels());
    let pred = out.logits.argmax_rows();
    let acc = pred
        .iter()
        .zip(data.test.labels())
        .filter(|(p, y)| p == y)
        .count() as f32
        / data.test.len() as f32;
    println!(
        "\ncustom SigmoidNet via rFedAvg+: test acc {:.1}%, loss {loss:.3}",
        acc * 100.0
    );
}
