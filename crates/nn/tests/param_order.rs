//! One parameter order per type: each model and parameterized layer states
//! its flat order once, in its two visitors, and the provided flat I/O walks
//! them. For every type below, a ramp written with `write_params` reads back
//! as the ramp through the immutable visitor, tags written through the
//! mutable visitor come back from `read_params` in visit order, `num_params`
//! is the sum of the visited sizes, and the visit order of shapes is the
//! canonical one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{
    CnnClassifier, CnnConfig, Conv2d, Input, Layer, Linear, LinearNet, LogisticRegression, Lstm,
    LstmClassifier, LstmConfig, Model, ModelOutput, Param,
};
use rfl_tensor::Tensor;

/// A layer seen as a [`Model`], so its visitors meet the provided flat I/O.
struct Wrapped<L>(L);

impl<L: Layer + Send> Model for Wrapped<L> {
    fn forward_into(&mut self, _: &Input, _: &mut ModelOutput, _: bool) {
        unreachable!("only the visitors are exercised")
    }
    fn backward(&mut self, _: &Tensor, _: Option<&Tensor>) {
        unreachable!("only the visitors are exercised")
    }
    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        self.0.for_each_param(f);
    }
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.for_each_param_mut(f);
    }
    fn feature_dim(&self) -> usize {
        0
    }
    fn num_classes(&self) -> usize {
        0
    }
    fn phi_param_range(&self) -> std::ops::Range<usize> {
        0..0
    }
}

fn check(name: &str, m: &mut dyn Model, shapes: &[&[usize]]) {
    let mut dims: Vec<Vec<usize>> = Vec::new();
    m.for_each_param(&mut |p| dims.push(p.value.dims().to_vec()));
    assert_eq!(dims, shapes, "{name}: visit order of shapes");
    let sizes: Vec<usize> = dims.iter().map(|d| d.iter().product()).collect();
    let n = m.num_params();
    assert_eq!(n, sizes.iter().sum::<usize>(), "{name}: num_params");

    let ramp: Vec<f32> = (0..n).map(|i| i as f32).collect();
    m.write_params(&ramp);
    let mut visited = Vec::with_capacity(n);
    m.for_each_param(&mut |p| visited.extend_from_slice(p.value.data()));
    assert!(visited == ramp, "{name}: write_params then for_each_param");

    let mut tag = 0.0;
    m.for_each_param_mut(&mut |p| {
        tag += 1.0;
        p.value.fill(tag);
    });
    let mut flat = Vec::new();
    m.read_params(&mut flat);
    let tags: Vec<f32> = sizes
        .iter()
        .enumerate()
        .flat_map(|(k, &s)| std::iter::repeat_n(k as f32 + 1.0, s))
        .collect();
    assert!(flat == tags, "{name}: for_each_param_mut then read_params");
}

fn check_layer<L: Layer + Send>(name: &str, layer: L, shapes: &[&[usize]]) {
    let n = layer.num_params();
    let mut m = Wrapped(layer);
    check(name, &mut m, shapes);
    assert_eq!(n, m.num_params(), "{name}: Layer::num_params");
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(7)
}

#[test]
fn cnn_classifier_visits_conv1_conv2_fc1_fc2() {
    let mut m = CnnClassifier::new(CnnConfig::cifar_like(), &mut rng());
    let shapes: [&[usize]; 8] = [
        &[8, 3, 3, 3],
        &[8],
        &[16, 8, 3, 3],
        &[16],
        &[256, 64],
        &[64],
        &[64, 10],
        &[10],
    ];
    check("CnnClassifier", &mut m, &shapes);
}

#[test]
fn lstm_classifier_visits_embedding_lstm1_lstm2_fc_feat_fc_out() {
    let mut m = LstmClassifier::new(LstmConfig::sent140_like(), &mut rng());
    let shapes: [&[usize]; 11] = [
        &[128, 16],
        &[16, 128],
        &[32, 128],
        &[128],
        &[32, 128],
        &[32, 128],
        &[128],
        &[32, 32],
        &[32],
        &[32, 2],
        &[2],
    ];
    check("LstmClassifier", &mut m, &shapes);
}

#[test]
fn logistic_regression_visits_its_head() {
    let mut m = LogisticRegression::new(6, 3, 0.1, &mut rng());
    check("LogisticRegression", &mut m, &[&[6, 3], &[3]]);
}

#[test]
fn linear_net_visits_feat_then_head() {
    let mut m = LinearNet::new(6, 4, 3, 0.1, &mut rng());
    check("LinearNet", &mut m, &[&[6, 4], &[4], &[4, 3], &[3]]);
}

#[test]
fn layers_visit_weights_then_biases() {
    check_layer("Linear", Linear::new(5, 7, &mut rng()), &[&[5, 7], &[7]]);
    check_layer(
        "Conv2d",
        Conv2d::new(3, 4, 3, 1, 1, &mut rng()),
        &[&[4, 3, 3, 3], &[4]],
    );
    check_layer(
        "Lstm",
        Lstm::new(5, 6, &mut rng()),
        &[&[5, 24], &[6, 24], &[24]],
    );
}

#[test]
#[should_panic(expected = "flat parameter length mismatch")]
fn write_params_rejects_a_wrong_length() {
    let mut m = LogisticRegression::new(2, 2, 0.0, &mut rng());
    m.write_params(&[0.0; 5]);
}
