//! Finite-difference gradient checking used throughout the test suite.

use crate::layer::Layer;
use rand::Rng;
use rfl_tensor::{Initializer, Tensor};

/// Checks a layer's analytic gradients against central finite differences
/// using the scalar loss `L = Σ output`.
///
/// Verifies the gradient w.r.t. the input and w.r.t. up to 8 sampled
/// coordinates of each parameter. Panics (assert) on disagreement; intended
/// for `#[test]` use.
pub fn check_layer_gradients<L: Layer, R: Rng>(layer: &mut L, input_dims: &[usize], rng: &mut R) {
    let x = Initializer::Normal(0.5).init(input_dims, rng);
    let eps = 1e-2f32;
    let tol = 5e-2f32;

    let loss = |layer: &mut L, x: &Tensor| -> f32 { layer.forward(x, true).sum() };

    let base = loss(layer, &x);
    layer.zero_grads();
    let y = layer.forward(&x, true);
    let dout = Tensor::ones(y.dims());
    let dx = layer.backward(&dout);

    // Input gradient: sample up to 8 coordinates.
    let n_in = x.numel();
    let analytic_dx = dx.data().to_vec();
    let picks = n_in.min(8);
    let stride = (n_in / picks).max(1);
    for s in 0..picks {
        let i = (s * stride) % n_in;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let fd = (loss(layer, &xp) - loss(layer, &xm)) / (2.0 * eps);
        assert!(
            (fd - analytic_dx[i]).abs() < tol.max(fd.abs() * 0.05),
            "input grad[{i}]: finite-diff {fd} vs analytic {}",
            analytic_dx[i]
        );
    }

    // Parameter gradients.
    let analytic: Vec<Vec<f32>> = layer
        .params()
        .iter()
        .map(|p| p.grad.data().to_vec())
        .collect();
    let param_sizes: Vec<usize> = layer.params().iter().map(|p| p.numel()).collect();
    for (pi, &size) in param_sizes.iter().enumerate() {
        for s in 0..size.min(8) {
            let i = (s * 7919) % size; // pseudo-random but deterministic picks
            let orig = layer.params()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let plus = loss(layer, &x);
            layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let minus = loss(layer, &x);
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let fd = (plus - minus) / (2.0 * eps);
            let an = analytic[pi][i];
            assert!(
                (fd - an).abs() < tol.max(fd.abs() * 0.05),
                "param {pi} grad[{i}]: finite-diff {fd} vs analytic {an}"
            );
        }
    }
    let _ = base;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accepts_correct_layer() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut linear = Linear::new(3, 5, &mut rng);
        check_layer_gradients(&mut linear, &[4, 3], &mut rng);
    }

    struct BrokenLayer(Linear);

    impl Layer for BrokenLayer {
        fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
            self.0.forward(input, train)
        }
        fn backward(&mut self, dout: &Tensor) -> Tensor {
            // Wrong: scales the gradient by 2.
            self.0.backward(&dout.scale(2.0))
        }
        fn params(&self) -> Vec<&crate::Param> {
            self.0.params()
        }
        fn params_mut(&mut self) -> Vec<&mut crate::Param> {
            self.0.params_mut()
        }
    }

    #[test]
    #[should_panic]
    fn rejects_broken_layer() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut broken = BrokenLayer(Linear::new(3, 3, &mut rng));
        check_layer_gradients(&mut broken, &[2, 3], &mut rng);
    }
}
