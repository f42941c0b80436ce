//! Max-pooling layer.

use crate::layer::Layer;
use rfl_tensor::{maxpool2d_backward_into, maxpool2d_into, PoolSpec, Tensor};

/// Non-overlapping (by default) 2-D max pooling over NCHW inputs.
pub struct MaxPool2d {
    spec: PoolSpec,
    input_dims: Vec<usize>,
    /// The last training forward's argmax, which a backward reads.
    argmax: Vec<u32>,
    /// An inference forward's argmax, written and not kept.
    argmax_inference: Vec<u32>,
}

impl MaxPool2d {
    /// Square window with `stride == window`.
    pub fn new(window: usize) -> Self {
        MaxPool2d {
            spec: PoolSpec::square(window),
            input_dims: Vec::new(),
            argmax: Vec::new(),
            argmax_inference: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    /// With `train = false` nothing is cached: a later backward still pairs
    /// with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        if !train {
            maxpool2d_into(input, self.spec, out, &mut self.argmax_inference);
            return;
        }
        maxpool2d_into(input, self.spec, out, &mut self.argmax);
        self.input_dims.clear();
        self.input_dims.extend_from_slice(input.dims());
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        assert!(
            !self.argmax.is_empty(),
            "MaxPool2d::backward before forward"
        );
        maxpool2d_backward_into(&self.input_dims, dout, &self.argmax, dinput);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_round_trip() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[4.0]);
        let dx = p.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn has_no_params() {
        assert_eq!(MaxPool2d::new(2).num_params(), 0);
    }
}
