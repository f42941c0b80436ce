//! `CnnClassifier`, whose `ReLU → pool2` pairs are one `ReluMaxPool`
//! pass each, against the layer sequence it ran before: `Conv2d`, `Relu`,
//! `MaxPool2d::new(2)` (the textbook pool of `rfl-tensor`'s
//! `tests/oracle/pool.rs`, with its own inference argmax), `Conv2d`,
//! `Relu`, `MaxPool2d::new(2)`, `Flatten`, `Linear`, `Relu`, `Linear`. A
//! cifar-like and an mnist-like step at batch 16, 32 and 200, with an
//! inference forward on another batch between the forward and the
//! backward, give the same logits, features and parameter gradients, bit
//! for bit, on every SIMD tier this CPU runs.

#[path = "../../tensor/tests/oracle/pool.rs"]
mod old_pool;
#[path = "../../tensor/tests/tiers/mod.rs"]
mod tiers;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{CnnClassifier, CnnConfig, Conv2d, Flatten, Input, Layer, Linear, Model, Param, Relu};
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{Initializer, Tensor};

/// `MaxPool2d::new(2)`: the textbook pool, a training forward's argmax kept
/// for the backward, an inference forward's discarded.
#[derive(Default)]
struct MaxPool2d {
    input_dims: [usize; 4],
    argmax: Vec<u32>,
}

impl Layer for MaxPool2d {
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        let dims: [usize; 4] = input.dims().try_into().expect("NCHW");
        let (y, argmax) = old_pool::maxpool(input.data(), dims);
        *out = Tensor::from_vec(y, &old_pool::out_dims(dims));
        if train {
            (self.input_dims, self.argmax) = (dims, argmax);
        }
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let len = self.input_dims.iter().product();
        let dx = old_pool::maxpool_backward(len, dout.data(), &self.argmax);
        *dinput = Tensor::from_vec(dx, &self.input_dims);
    }
}

/// The layers `CnnClassifier` ran before the fusion, in its order.
struct Sequence {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2d,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2d,
    flatten: Flatten,
    fc1: Linear,
    relu3: Relu,
    fc2: Linear,
}

impl Sequence {
    /// The layers of `model`, with its parameters.
    fn of(cfg: CnnConfig, model: &CnnClassifier) -> Sequence {
        let mut rng = StdRng::seed_from_u64(0);
        let flat = cfg.conv2_channels * (cfg.image_size / 4).pow(2);
        let mut seq = Sequence {
            conv1: Conv2d::new(cfg.in_channels, cfg.conv1_channels, 3, 1, 1, &mut rng),
            relu1: Relu::new(),
            pool1: MaxPool2d::default(),
            conv2: Conv2d::new(cfg.conv1_channels, cfg.conv2_channels, 3, 1, 1, &mut rng),
            relu2: Relu::new(),
            pool2: MaxPool2d::default(),
            flatten: Flatten::new(),
            fc1: Linear::new(flat, cfg.feature_dim, &mut rng),
            relu3: Relu::new(),
            fc2: Linear::new(cfg.feature_dim, cfg.num_classes, &mut rng),
        };
        let mut values = Vec::new();
        model.read_params(&mut values);
        let mut at = 0;
        seq.for_each_param_mut(&mut |p| {
            let n = p.numel();
            p.value.data_mut().copy_from_slice(&values[at..at + n]);
            at += n;
        });
        assert_eq!(at, values.len(), "parameter counts differ");
        seq
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.for_each_param_mut(f);
        self.conv2.for_each_param_mut(f);
        self.fc1.for_each_param_mut(f);
        self.fc2.for_each_param_mut(f);
    }

    fn grads(&mut self) -> Vec<u32> {
        let mut g = Vec::new();
        self.for_each_param_mut(&mut |p| g.extend(bits(&p.grad)));
        g
    }

    /// Features and logits.
    fn forward(&mut self, x: &Tensor, train: bool) -> (Tensor, Tensor) {
        let a = self.conv1.forward(x, train);
        let a = self.relu1.forward(&a, train);
        let a = self.pool1.forward(&a, train);
        let a = self.conv2.forward(&a, train);
        let a = self.relu2.forward(&a, train);
        let a = self.pool2.forward(&a, train);
        let a = self.flatten.forward(&a, train);
        let a = self.fc1.forward(&a, train);
        let features = self.relu3.forward(&a, train);
        let logits = self.fc2.forward(&features, train);
        (features, logits)
    }

    fn backward(&mut self, dlogits: &Tensor, dfeatures: &Tensor) {
        let mut d = self.fc2.backward(dlogits);
        d.add_assign(dfeatures);
        let d = self.relu3.backward(&d);
        let d = self.fc1.backward(&d);
        let d = self.flatten.backward(&d);
        let d = self.pool2.backward(&d);
        let d = self.relu2.backward(&d);
        let d = self.conv2.backward(&d);
        let d = self.pool1.backward(&d);
        let d = self.relu1.backward(&d);
        self.conv1.backward_params(&d);
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_cnn_step_matches_the_unfused_layer_sequence_on_every_tier() {
    let _held = tiers::Settings::hold();
    for tier in tiers::available(&Tier::ALL) {
        assert!(set_simd_tier(tier));
        for (name, cfg) in [
            ("cifar", CnnConfig::cifar_like()),
            ("mnist", CnnConfig::mnist_like()),
        ] {
            for batch in [16, 32, 200] {
                let at = format!("{name}-like, batch {batch}, {tier:?}");
                let mut rng = StdRng::seed_from_u64(batch as u64);
                let mut model = CnnClassifier::new(cfg, &mut rng);
                let mut seq = Sequence::of(cfg, &model);
                let image = |n: usize, rng: &mut StdRng| {
                    Initializer::Normal(1.0).init(&[n, cfg.in_channels, 16, 16], rng)
                };
                let (x, other) = (image(batch, &mut rng), image(batch + 3, &mut rng));

                let out = model.forward(&Input::Images(x.clone()), true);
                let (features, logits) = seq.forward(&x, true);
                assert_eq!(bits(&out.logits), bits(&logits), "{at}: logits");
                assert_eq!(bits(&out.features), bits(&features), "{at}: features");

                let inferred = model.forward(&Input::Images(other.clone()), false);
                let (features, logits) = seq.forward(&other, false);
                assert_eq!(
                    bits(&inferred.logits),
                    bits(&logits),
                    "{at}: inference logits"
                );
                assert_eq!(
                    bits(&inferred.features),
                    bits(&features),
                    "{at}: inference features"
                );

                let dlogits = Initializer::Normal(1.0).init(out.logits.dims(), &mut rng);
                let dfeatures = Initializer::Normal(1.0).init(out.features.dims(), &mut rng);
                model.backward(&dlogits, Some(&dfeatures));
                seq.backward(&dlogits, &dfeatures);
                let mut grads = Vec::new();
                model.read_grads(&mut grads);
                let grads: Vec<u32> = grads.iter().map(|v| v.to_bits()).collect();
                assert_eq!(grads, seq.grads(), "{at}: gradients");
            }
        }
    }
}
