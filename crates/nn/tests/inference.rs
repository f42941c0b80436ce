//! Inference forwards (`train = false`) keep no state for a backward: after
//! a training forward on batch A and an inference forward on batch B of
//! another batch size, a backward computes exactly what it computes after A
//! alone, for every layer that caches something and for a whole CNN; and a
//! model's inference forward computes what its training forward does, bit
//! for bit. `Lstm` is the one exception: its inference forward invalidates
//! the BPTT cache, and a backward after it panics (`lstm.rs`'s
//! `backward_after_inference_forward_panics`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{
    CnnClassifier, CnnConfig, Conv2d, Flatten, Input, Layer, Linear, Model, Relu, ReluMaxPool,
    Sigmoid, Tanh,
};
use rfl_tensor::{Initializer, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Builds a layer with `make`, runs a training forward on A (`dims`), then
/// (if `inference`) an inference forward on B (`dims` with three more
/// examples), then a backward; returns the input gradient and every
/// parameter gradient, as bits.
fn backward_after<L: Layer>(
    make: &impl Fn() -> L,
    dims: &[usize],
    inference: bool,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(30);
    let a = Initializer::Normal(1.0).init(dims, &mut rng);
    let b_dims: Vec<usize> = [dims[0] + 3].iter().chain(&dims[1..]).copied().collect();
    let b = Initializer::Normal(1.0).init(&b_dims, &mut rng);
    let mut layer = make();
    let y = layer.forward(&a, true);
    let dy = Initializer::Normal(1.0).init(y.dims(), &mut rng);
    if inference {
        layer.forward(&b, false);
    }
    let dx = layer.backward(&dy);
    let mut grads = Vec::new();
    layer.for_each_param(&mut |p| grads.push(bits(&p.grad)));
    (bits(&dx), grads)
}

fn check<L: Layer>(make: impl Fn() -> L, dims: &[usize]) {
    assert_eq!(
        backward_after(&make, dims, true),
        backward_after(&make, dims, false)
    );
}

#[test]
fn conv2d_backward_ignores_an_inference_forward() {
    check(
        || Conv2d::new(3, 8, 3, 1, 1, &mut StdRng::seed_from_u64(1)),
        &[4, 3, 9, 9],
    );
}

#[test]
fn linear_backward_ignores_an_inference_forward() {
    check(
        || Linear::new(12, 5, &mut StdRng::seed_from_u64(2)),
        &[6, 12],
    );
}

#[test]
fn relu_backward_ignores_an_inference_forward() {
    check(Relu::new, &[4, 3, 5, 5]);
}

#[test]
fn tanh_backward_ignores_an_inference_forward() {
    check(Tanh::new, &[4, 7]);
}

#[test]
fn sigmoid_backward_ignores_an_inference_forward() {
    check(Sigmoid::new, &[4, 7]);
}

#[test]
fn relu_maxpool_backward_ignores_an_inference_forward() {
    check(ReluMaxPool::new, &[4, 3, 8, 8]);
}

#[test]
fn flatten_backward_ignores_an_inference_forward() {
    check(Flatten::new, &[4, 3, 5, 5]);
}

#[test]
fn cnn_backward_ignores_an_inference_forward() {
    for cfg in [CnnConfig::mnist_like(), CnnConfig::cifar_like()] {
        let grads = |inference: bool| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut model = CnnClassifier::new(cfg, &mut rng);
            let image = |n: usize, rng: &mut StdRng| {
                Input::Images(Initializer::Normal(1.0).init(&[n, cfg.in_channels, 16, 16], rng))
            };
            let (a, b) = (image(16, &mut rng), image(5, &mut rng));
            let out = model.forward(&a, true);
            let dlogits = Initializer::Normal(1.0).init(out.logits.dims(), &mut rng);
            let dfeatures = Initializer::Normal(1.0).init(out.features.dims(), &mut rng);
            if inference {
                model.forward(&b, false);
            }
            model.backward(&dlogits, Some(&dfeatures));
            let mut g = Vec::new();
            model.read_grads(&mut g);
            g.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        assert_eq!(grads(true), grads(false));
    }
}

#[test]
fn cnn_inference_forward_is_bit_identical_to_training_forward() {
    for cfg in [CnnConfig::mnist_like(), CnnConfig::cifar_like()] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = CnnClassifier::new(cfg, &mut rng);
        let x = Initializer::Normal(1.0).init(&[16, cfg.in_channels, 16, 16], &mut rng);
        let input = Input::Images(x);
        let trained = model.forward(&input, true);
        let inferred = model.forward(&input, false);
        assert_eq!(bits(&inferred.logits), bits(&trained.logits));
        assert_eq!(bits(&inferred.features), bits(&trained.features));
    }
}
