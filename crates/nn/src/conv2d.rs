//! Convolutional layer wrapping the tensor-level kernels.

use crate::layer::Layer;
use crate::param::Param;
use rand::Rng;
use rfl_tensor::{
    conv2d_backward_into, conv2d_backward_params_into, conv2d_into, Conv2dGrads, ConvSpec,
    Initializer, Tensor,
};

/// 2-D convolution over NCHW inputs with Kaiming-initialized weights.
///
/// Owns its activation cache and backward scratch buffers (`grads_buf`,
/// `scratch`), so warm `forward_into`/`backward_into` steps allocate
/// nothing.
pub struct Conv2d {
    pub weight: Param, // [out_ch, in_ch, k, k]
    pub bias: Param,   // [out_ch]
    spec: ConvSpec,
    cached_input: Option<Tensor>,
    grads_buf: Conv2dGrads,
    scratch: Vec<f32>,
}

impl Conv2d {
    pub fn new<R: Rng>(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let weight =
            Initializer::KaimingNormal { fan_in }.init(&[out_ch, in_ch, kernel, kernel], rng);
        Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            spec: ConvSpec {
                kernel,
                stride,
                pad,
            },
            cached_input: None,
            grads_buf: Conv2dGrads::scratch(),
            scratch: Vec::new(),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// [`Layer::backward_into`] for a network's first layer: accumulates the
    /// same weight and bias gradients, bit for bit, and skips the input
    /// gradient nobody reads.
    pub fn backward_params(&mut self, dout: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward before forward");
        conv2d_backward_params_into(
            x,
            &self.weight.value,
            dout,
            self.spec,
            &mut self.grads_buf,
            &mut self.scratch,
        );
        self.accumulate_param_grads();
    }

    fn accumulate_param_grads(&mut self) {
        self.weight.grad.add_assign(&self.grads_buf.dweight);
        self.bias.grad.add_assign(&self.grads_buf.dbias);
    }
}

impl Layer for Conv2d {
    /// With `train = false` nothing is cached: a later backward still pairs
    /// with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        conv2d_into(input, &self.weight.value, &self.bias.value, self.spec, out);
        if train {
            match &mut self.cached_input {
                Some(t) => t.assign(input),
                None => self.cached_input = Some(input.clone()),
            }
        }
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward before forward");
        conv2d_backward_into(
            x,
            &self.weight.value,
            dout,
            self.spec,
            &mut self.grads_buf,
            &mut self.scratch,
        );
        self.accumulate_param_grads();
        // Hand the freshly computed dinput to the caller and keep their old
        // buffer as next call's scratch — no copy, no allocation.
        std::mem::swap(&mut self.grads_buf.dinput, dinput);
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
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
        let y = c.forward(&Tensor::zeros(&[2, 1, 8, 8]), true);
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        check_layer_gradients(&mut c, &[2, 2, 5, 5], &mut rng);
    }

    #[test]
    fn strided_gradients_pass_finite_difference_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::new(1, 2, 3, 2, 0, &mut rng);
        check_layer_gradients(&mut c, &[1, 1, 7, 7], &mut rng);
    }

    #[test]
    fn backward_params_matches_full_backward_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Initializer::Normal(1.0).init(&[4, 3, 9, 9], &mut rng);
        let y = c.forward(&x, true);
        let dy = Initializer::Normal(1.0).init(y.dims(), &mut rng);
        c.backward(&dy);
        let (dw, db) = (c.weight.grad.clone(), c.bias.grad.clone());
        c.weight.zero_grad();
        c.bias.zero_grad();
        c.backward_params(&dy);
        assert_eq!(c.weight.grad.data(), dw.data());
        assert_eq!(c.bias.grad.data(), db.data());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        assert_eq!(c.num_params(), 8 * 3 * 3 * 3 + 8);
    }

    #[test]
    fn forward_backward_bit_identical_across_thread_budgets() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let x = Initializer::Normal(1.0).init(&[4, 3, 9, 9], &mut rng);
        let run = |c: &mut Conv2d, budget: usize| {
            rfl_tensor::set_thread_budget(budget);
            let y = c.forward(&x, true);
            let dx = c.backward(&Tensor::ones(y.dims()));
            let dw = c.weight.grad.clone();
            (y, dx, dw)
        };
        let prev = rfl_tensor::thread_budget();
        let (y1, dx1, dw1) = run(&mut c, 1);
        c.weight.zero_grad();
        c.bias.zero_grad();
        let (y4, dx4, dw4) = run(&mut c, 4);
        rfl_tensor::set_thread_budget(prev);
        assert_eq!(y1.data(), y4.data());
        assert_eq!(dx1.data(), dx4.data());
        assert_eq!(dw1.data(), dw4.data());
    }
}
