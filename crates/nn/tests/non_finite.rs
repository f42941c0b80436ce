//! A CNN training step whose convolution weights hold ±inf or NaN computes
//! the same gradient and parameter bits on every SIMD tier the CPU has, at
//! one and four threads. Such a call takes the convolutions' textbook loops
//! instead of their tiles (`rfl_tensor::conv`'s module docs), and the
//! non-finite values then flow through ReLU, max-pooling and the linear
//! layers, forward and backward, before the SGD step.
//!
//! NaN results are compared as "both NaN": IEEE 754 and Rust leave a NaN's
//! sign and payload unspecified.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{CnnClassifier, CnnConfig, Input, Model, Optimizer, Sgd};
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{set_thread_budget, Initializer};

#[path = "../../tensor/tests/tiers/mod.rs"]
mod tiers;

/// Which parameter tensor (in `for_each_param` order: conv1 weight, conv1
/// bias, conv2 weight, …) gets which non-finite values, at flat offsets.
type Poison = (usize, &'static [(usize, f32)]);

/// One training step of `cfg` at batch 16 with `poison` written into the
/// initial parameters; returns the gradients and the stepped parameters.
fn step(cfg: CnnConfig, poison: Poison) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(31);
    let mut model = CnnClassifier::new(cfg, &mut rng);
    let mut index = 0;
    model.for_each_param_mut(&mut |p| {
        if index == poison.0 {
            for &(at, v) in poison.1 {
                p.value.data_mut()[at] = v;
            }
        }
        index += 1;
    });
    let dims = [16, cfg.in_channels, cfg.image_size, cfg.image_size];
    let x = Input::Images(Initializer::Normal(1.0).init(&dims, &mut rng));
    let out = model.forward(&x, true);
    let dlogits = Initializer::Normal(1.0).init(out.logits.dims(), &mut rng);
    let dfeatures = Initializer::Normal(1.0).init(out.features.dims(), &mut rng);
    model.backward(&dlogits, Some(&dfeatures));
    let (mut grads, mut params) = (Vec::new(), Vec::new());
    model.read_grads(&mut grads);
    model.read_params(&mut params);
    Sgd::new(0.1).step(&mut params, &grads);
    (grads, params)
}

fn same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: got {g:?} ({:#x}), scalar tier {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

#[test]
fn cnn_step_with_non_finite_conv_weights_is_identical_on_every_tier() {
    const INF: f32 = f32::INFINITY;
    // Taps of three filters in conv1 or conv2, two of them in kernel
    // column 0, which the left border pixels read in the padding.
    let poisons: [Poison; 2] = [
        (0, &[(3, INF), (9 + 6, -INF), (5 * 9 + 8, f32::NAN)]),
        (
            2,
            &[(72 + 3, INF), (3 * 72 + 10, -INF), (5 * 72 + 40, f32::NAN)],
        ),
    ];
    let _settings = tiers::Settings::hold();
    for cfg in [CnnConfig::mnist_like(), CnnConfig::cifar_like()] {
        for poison in poisons {
            set_simd_tier(Tier::Scalar);
            set_thread_budget(1);
            let (want_grads, want_params) = step(cfg, poison);
            let finite = want_grads.iter().filter(|v| v.is_finite()).count();
            assert!(
                finite > 0 && finite < want_grads.len(),
                "a step should leave some gradients finite and make some not"
            );
            for tier in tiers::available(&Tier::ALL) {
                for threads in [1, 4] {
                    set_simd_tier(tier);
                    set_thread_budget(threads);
                    let (grads, params) = step(cfg, poison);
                    let tag = |what| {
                        format!(
                            "{cfg:?} param {} {tier:?} threads={threads}: {what}",
                            poison.0
                        )
                    };
                    same(&grads, &want_grads, &tag("grads"));
                    same(&params, &want_params, &tag("params"));
                }
            }
        }
    }
}
