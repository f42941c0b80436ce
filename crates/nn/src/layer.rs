//! The [`Layer`] trait: tensor-in / tensor-out modules with cached state.

use crate::param::Param;
use rfl_tensor::Tensor;

/// A differentiable module mapping one tensor to another.
///
/// `forward` caches whatever it needs for `backward`; `backward` consumes the
/// gradient w.r.t. the output and returns the gradient w.r.t. the input while
/// *accumulating* parameter gradients. Layers are stateful, so a layer
/// instance must see matching forward/backward pairs (standard for manual
/// backprop engines).
pub trait Layer {
    /// Forward pass. `train` says a backward will follow: with `false` the
    /// convolution, dense, ReLU and max-pool layers cache nothing, and a
    /// later backward still pairs with the last training forward.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass for the most recent `forward` call.
    fn backward(&mut self, dout: &Tensor) -> Tensor;

    /// [`forward`](Layer::forward) writing into a caller-provided buffer.
    ///
    /// The hot-path layers override this with a zero-allocation
    /// implementation that is bit-identical to `forward` (the `_into`
    /// kernels fully overwrite their destinations); this default keeps
    /// rarely-used layers correct without converting them.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        let r = self.forward(input, train);
        out.assign(&r);
    }

    /// [`backward`](Layer::backward) writing the input gradient into a
    /// caller-provided buffer. Same override contract as
    /// [`forward_into`](Layer::forward_into).
    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        let r = self.backward(dout);
        dinput.assign(&r);
    }

    /// Immutable views of this layer's parameters (possibly empty).
    fn params(&self) -> Vec<&Param>;

    /// Mutable views of this layer's parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Visits every parameter in the same order as [`params`](Layer::params)
    /// without materializing a `Vec`. Hot-path layers override this (and the
    /// `_mut` twin) so per-step parameter walks stay allocation-free.
    fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
        for p in self.params() {
            f(p);
        }
    }

    /// Mutable twin of [`for_each_param`](Layer::for_each_param).
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
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
