//! ReLU and 2×2 max-pooling in one layer.

use crate::layer::Layer;
use rfl_tensor::{relu_maxpool2x2_backward_into, relu_maxpool2x2_into, Tensor};

/// ReLU followed by 2×2 max-pooling with stride 2 over NCHW inputs, in one
/// pass (`rfl_tensor::relu_maxpool2x2_into`): the bits of a [`Relu`]
/// followed by a non-overlapping 2×2 max-pool, forward and backward.
///
/// [`Relu`]: crate::Relu
#[derive(Default)]
pub struct ReluMaxPool {
    input_dims: Vec<usize>,
    /// The last training forward's argmax, which a backward reads.
    argmax: Vec<u8>,
    /// An inference forward's argmax, written and not kept.
    argmax_inference: Vec<u8>,
}

impl ReluMaxPool {
    pub fn new() -> Self {
        ReluMaxPool::default()
    }
}

impl Layer for ReluMaxPool {
    /// With `train = false` nothing is cached: a later backward still pairs
    /// with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        if !train {
            relu_maxpool2x2_into(input, out, &mut self.argmax_inference);
            return;
        }
        relu_maxpool2x2_into(input, out, &mut self.argmax);
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.dims());
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        assert!(
            !self.input_dims.is_empty(),
            "ReluMaxPool::backward before forward"
        );
        relu_maxpool2x2_backward_into(&self.input_dims, dout, &self.argmax, dinput);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_round_trip() {
        let mut p = ReluMaxPool::new();
        let x = Tensor::from_vec(
            vec![1.0, -2.0, 3.0, 4.0, -1.0, -2.0, -0.0, f32::NAN],
            &[2, 1, 2, 2],
        );
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 0.0]);
        let dx = p.backward(&Tensor::from_vec(vec![1.0, 5.0], &[2, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn has_no_params() {
        assert_eq!(ReluMaxPool::new().num_params(), 0);
    }
}
