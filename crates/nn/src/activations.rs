//! Parameter-free activation layers.
//!
//! The tanh and sigmoid forwards run on the dispatched `rfl_tensor` SIMD
//! kernels, the ReLU forward on one plain pass that also writes its mask;
//! backward passes use only cached forward values, so they stay scalar
//! `zip_map`s.

use crate::layer::Layer;
use rfl_tensor::{sigmoid_slices, tanh_slices, Tensor};

/// Rectified linear unit: `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    /// One pass over the input writes the output — MAXPS semantics
    /// (`x > 0 ? x : 0`): NaN and −0.0 both map to +0.0 — and, with
    /// `train = true`, the mask. With `train = false` nothing is cached: a
    /// later backward still pairs with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        out.resize(input.dims());
        let pairs = out.data_mut().iter_mut().zip(input.data());
        if train {
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.resize(input.numel(), false);
            for ((o, &v), m) in pairs.zip(mask.iter_mut()) {
                *m = v > 0.0;
                *o = if *m { v } else { 0.0 };
            }
        } else {
            for (o, &v) in pairs {
                *o = if v > 0.0 { v } else { 0.0 };
            }
        }
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        assert_eq!(mask.len(), dout.numel());
        dinput.resize(dout.dims());
        for ((d, &g), &m) in dinput.data_mut().iter_mut().zip(dout.data()).zip(mask) {
            *d = if m { g } else { 0.0 };
        }
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    /// With `train = false` nothing is cached: a later backward still pairs
    /// with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        out.assign(input);
        tanh_slices(out.data_mut());
        if train {
            match &mut self.cached_output {
                Some(t) => t.assign(out),
                None => self.cached_output = Some(out.clone()),
            }
        }
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let y = self
            .cached_output
            .as_ref()
            .expect("Tanh::backward before forward");
        dout.zip_map_into(y, dinput, |g, yv| g * (1.0 - yv * yv));
    }
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    /// With `train = false` nothing is cached: a later backward still pairs
    /// with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        out.assign(input);
        sigmoid_slices(out.data_mut());
        if train {
            match &mut self.cached_output {
                Some(t) => t.assign(out),
                None => self.cached_output = Some(out.clone()),
            }
        }
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let y = self
            .cached_output
            .as_ref()
            .expect("Sigmoid::backward before forward");
        dout.zip_map_into(y, dinput, |g, yv| g * yv * (1.0 - yv));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let dx = r.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_maps_nan_and_negative_zero_to_positive_zero() {
        let x = Tensor::from_slice(&[-0.0, f32::NAN, -f32::NAN, f32::NEG_INFINITY, f32::INFINITY]);
        for train in [true, false] {
            let y = Relu::new().forward(&x, train);
            let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits,
                [0, 0, 0, 0, f32::INFINITY.to_bits()],
                "train = {train}"
            );
        }
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut t = Tanh::new();
        let x = Tensor::from_slice(&[0.5]);
        let y = t.forward(&x, true);
        let dx = t.backward(&Tensor::from_slice(&[1.0]));
        let expected = 1.0 - y.data()[0] * y.data()[0];
        assert!((dx.data()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let y = Sigmoid::new().forward(&Tensor::from_slice(&[100.0, -100.0, 0.0]), true);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
        assert!(y.data()[1] < 1e-6 && y.data()[1].is_finite());
        assert!((y.data()[2] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_layer_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_slice(&[0.0]);
        s.forward(&x, true);
        let dx = s.backward(&Tensor::from_slice(&[4.0]));
        assert!((dx.data()[0] - 1.0).abs() < 1e-6); // 4 * 0.5 * 0.5
    }

    #[test]
    fn tanh_and_sigmoid_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(0);
        check_layer_gradients(&mut Tanh::new(), &[3, 5], &mut rng);
        check_layer_gradients(&mut Sigmoid::new(), &[3, 5], &mut rng);
    }
}
