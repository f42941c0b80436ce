//! The [`Layer`] trait: tensor-in / tensor-out modules with cached state.
//!
//! An implementor writes the two buffer-reusing passes and, if it has
//! parameters, the two visitors; everything else is provided once here.

use crate::param::Param;
use rfl_tensor::Tensor;

/// A differentiable module mapping one tensor to another.
///
/// `forward_into` caches whatever it needs for `backward_into`;
/// `backward_into` consumes the gradient w.r.t. the output and writes the
/// gradient w.r.t. the input while *accumulating* parameter gradients.
/// Layers are stateful, so a layer instance must see matching
/// forward/backward pairs (standard for manual backprop engines).
pub trait Layer {
    /// Forward pass into `out` (resized and fully overwritten; a warm call
    /// allocates nothing). `train` says a backward will follow: with `false`
    /// a layer caches nothing, and a later backward still pairs with the
    /// last training forward. The one exception is [`Lstm`](crate::Lstm):
    /// its inference forward invalidates the BPTT cache, and a backward
    /// after it panics rather than return a wrong gradient.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool);

    /// Backward pass for the most recent training forward, writing the input
    /// gradient into `dinput` (resized and fully overwritten).
    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor);

    /// Visits every parameter in the layer's canonical order. The default
    /// visits none: parameter-free layers write neither visitor.
    fn for_each_param(&self, _f: &mut dyn FnMut(&Param)) {}

    /// Mutable twin of [`for_each_param`](Layer::for_each_param), in the
    /// same order.
    fn for_each_param_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// [`forward_into`](Layer::forward_into) into a fresh tensor.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::scratch();
        self.forward_into(input, &mut out, train);
        out
    }

    /// [`backward_into`](Layer::backward_into) into a fresh tensor.
    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mut dinput = Tensor::scratch();
        self.backward_into(dout, &mut dinput);
        dinput
    }

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.numel());
        n
    }
}
