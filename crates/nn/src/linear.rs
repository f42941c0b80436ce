//! Fully-connected layer: `y = x·W + b`.

use crate::layer::Layer;
use crate::param::Param;
use rand::Rng;
use rfl_tensor::{Initializer, Tensor};

/// A dense layer with weight `[in, out]` and bias `[out]`.
///
/// The layer owns its activation cache and gradient scratch buffers, so a
/// warm `forward_into`/`backward_into` step performs no heap allocation.
pub struct Linear {
    pub weight: Param,
    pub bias: Param,
    cached_input: Option<Tensor>,
    dw: Tensor, // scratch for xᵀ·dY, kept so dW accumulation order matches PR 3
    db: Tensor, // scratch for column-sums of dY
}

impl Linear {
    /// Xavier-initialized dense layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let weight = Initializer::XavierUniform {
            fan_in: in_dim,
            fan_out: out_dim,
        }
        .init(&[in_dim, out_dim], rng);
        Linear {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_dim])),
            cached_input: None,
            dw: Tensor::scratch(),
            db: Tensor::scratch(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// The weight and bias gradients of [`Layer::backward_into`], bit for
    /// bit, without the input gradient `dY·Wᵀ`: for a layer whose input
    /// gradient nobody reads.
    pub fn backward_params_into(&mut self, dout: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before forward");
        // dW += xᵀ·dY ; db += column-sums of dY. The per-call products land
        // in scratch tensors before being accumulated so the summation order
        // matches the allocating implementation exactly.
        x.matmul_transa_into(dout, &mut self.dw);
        self.weight.grad.add_assign(&self.dw);
        dout.sum_axis0_into(&mut self.db);
        self.bias.grad.add_assign(&self.db);
    }
}

impl Layer for Linear {
    /// With `train = false` nothing is cached: a later backward still pairs
    /// with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        assert_eq!(input.ndim(), 2, "Linear expects [batch, in] input");
        assert_eq!(input.dims()[1], self.in_dim(), "Linear input dim mismatch");
        input.matmul_into(&self.weight.value, out);
        out.add_row_bias_assign(&self.bias.value);
        if train {
            match &mut self.cached_input {
                Some(t) => t.assign(input),
                None => self.cached_input = Some(input.clone()),
            }
        }
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        self.backward_params_into(dout);
        // dX = dY·Wᵀ.
        dout.matmul_transb_into(&self.weight.value, dinput);
    }

    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        l.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        l.bias.value = Tensor::from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 4, &mut rng);
        check_layer_gradients(&mut l, &[5, 3], &mut rng);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let d = Tensor::ones(&[1, 2]);
        l.forward(&x, true);
        l.backward(&d);
        let g1 = l.weight.grad.clone();
        l.forward(&x, true);
        l.backward(&d);
        for (a, b) in l.weight.grad.data().iter().zip(g1.data()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_params_matches_full_backward_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(32, 4, &mut rng);
        let x = Initializer::Normal(1.0).init(&[8, 32], &mut rng);
        let y = l.forward(&x, true);
        let dy = Initializer::Normal(1.0).init(y.dims(), &mut rng);
        l.backward(&dy);
        let (dw, db) = (l.weight.grad.clone(), l.bias.grad.clone());
        l.weight.zero_grad();
        l.bias.zero_grad();
        l.backward_params_into(&dy);
        assert_eq!(l.weight.grad.data(), dw.data());
        assert_eq!(l.bias.grad.data(), db.data());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = Linear::new(5, 7, &mut rng);
        assert_eq!(l.num_params(), 5 * 7 + 7);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn rejects_wrong_input_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Linear::new(3, 2, &mut rng);
        l.forward(&Tensor::zeros(&[1, 4]), true);
    }
}
