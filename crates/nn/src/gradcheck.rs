//! Finite-difference gradient checking for rfl-nn's unit tests.

use crate::layer::Layer;
use rand::Rng;
use rfl_tensor::{sum_slices, Initializer, Tensor};

/// Checks a layer's analytic gradients against central finite differences
/// using the scalar loss `L = Σ output`.
///
/// Verifies the gradient w.r.t. the input and w.r.t. up to 8 sampled
/// coordinates of each parameter, walking the parameters through the
/// layer's visitors. Panics (assert) on disagreement.
pub(crate) fn check_layer_gradients<L: Layer, R: Rng>(
    layer: &mut L,
    input_dims: &[usize],
    rng: &mut R,
) {
    let x = Initializer::Normal(0.5).init(input_dims, rng);
    let eps = 1e-2f32;
    let tol = 5e-2f32;

    let loss = |layer: &mut L, x: &Tensor| -> f32 { sum_slices(layer.forward(x, true).data()) };

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

    // Parameter gradients, in visit order: (values, analytic gradient).
    let mut params: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
    layer.for_each_param(&mut |p| params.push((p.value.data().to_vec(), p.grad.data().to_vec())));
    for (pi, (values, analytic)) in params.iter().enumerate() {
        let size = values.len();
        for s in 0..size.min(8) {
            let i = (s * 7919) % size; // pseudo-random but deterministic picks
            set_param(layer, pi, i, values[i] + eps);
            let plus = loss(layer, &x);
            set_param(layer, pi, i, values[i] - eps);
            let minus = loss(layer, &x);
            set_param(layer, pi, i, values[i]);
            let fd = (plus - minus) / (2.0 * eps);
            let an = analytic[i];
            assert!(
                (fd - an).abs() < tol.max(fd.abs() * 0.05),
                "param {pi} grad[{i}]: finite-diff {fd} vs analytic {an}"
            );
        }
    }
}

/// Sets scalar `i` of the `pi`-th visited parameter to `v`.
fn set_param<L: Layer>(layer: &mut L, pi: usize, i: usize, v: f32) {
    let mut k = 0;
    layer.for_each_param_mut(&mut |p| {
        if k == pi {
            p.value.data_mut()[i] = v;
        }
        k += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Param};
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
        fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
            self.0.forward_into(input, out, train);
        }
        fn backward_into(&mut self, dout: &Tensor, dinput: &mut Tensor) {
            // Wrong: scales the gradient by 2.
            let mut doubled = dout.clone();
            doubled.scale_in_place(2.0);
            self.0.backward_into(&doubled, dinput);
        }
        fn for_each_param(&self, f: &mut dyn FnMut(&Param)) {
            self.0.for_each_param(f);
        }
        fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.for_each_param_mut(f);
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
