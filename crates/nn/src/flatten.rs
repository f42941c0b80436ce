//! Flatten layer: `[N, ...] → [N, prod(...)]`.

use crate::layer::Layer;
use rfl_tensor::Tensor;

/// Collapses all non-batch dimensions into one.
#[derive(Default)]
pub struct Flatten {
    input_dims: Vec<usize>,
}

impl Flatten {
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    /// Records the input's dims for the backward only when `train` is true:
    /// a later backward still pairs with the last training forward.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        if train {
            self.input_dims.clear();
            self.input_dims.extend_from_slice(input.dims());
        }
        let n = input.dims()[0];
        out.assign(input);
        out.reshape_in_place(&[n, input.numel() / n]);
    }

    fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
        assert!(
            !self.input_dims.is_empty(),
            "Flatten::backward before forward"
        );
        dinput.assign(dout);
        dinput.reshape_in_place(&self.input_dims);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 48]);
        let dx = f.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(dx.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        check_layer_gradients(
            &mut Flatten::new(),
            &[2, 3, 2, 2],
            &mut StdRng::seed_from_u64(0),
        );
    }
}
