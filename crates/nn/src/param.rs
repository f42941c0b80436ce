//! Trainable parameters: a value tensor paired with its gradient accumulator.

use rfl_tensor::Tensor;

/// A trainable parameter. `grad` always has the same shape as `value` and is
/// *accumulated* into by backward passes; callers zero it between steps.
#[derive(Clone, Debug)]
pub struct Param {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Number of scalars in this parameter.
    #[inline]
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.numel(), 6);
        assert!(p.grad.data().iter().all(|&v| v == 0.0));
        assert_eq!(p.grad.dims(), p.value.dims());
    }

    #[test]
    fn zero_grad_clears_accumulator() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad.fill(5.0);
        p.zero_grad();
        assert!(p.grad.data().iter().all(|&v| v == 0.0));
    }
}
