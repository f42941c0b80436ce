//! Property-based tests of the NN building blocks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_nn::{cross_entropy, Layer, Linear, Optimizer, Relu, RmsProp, Sgd};
use rfl_tensor::Tensor;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, len)
}

proptest! {
    /// Linear layers are linear: f(ax) = a·f(x) − (a−1)·bias.
    #[test]
    fn linear_layer_is_affine(x in finite_vec(6), a in 0.5f32..2.0) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(6, 3, &mut rng);
        let xt = Tensor::from_vec(x, &[1, 6]);
        let y1 = l.forward(&xt, true);
        let mut xa = xt.clone();
        xa.scale_in_place(a);
        let y2 = l.forward(&xa, true);
        let b = l.bias.value.clone();
        for j in 0..3 {
            let expected = a * y1.at(&[0, j]) - (a - 1.0) * b.data()[j];
            prop_assert!((y2.at(&[0, j]) - expected).abs() < 1e-2,
                "{} vs {}", y2.at(&[0, j]), expected);
        }
    }

    /// ReLU output is idempotent: relu(relu(x)) == relu(x).
    #[test]
    fn relu_is_idempotent(x in finite_vec(12)) {
        let mut r = Relu::new();
        let xt = Tensor::from_slice(&x);
        let once = r.forward(&xt, true);
        let twice = r.forward(&once, true);
        prop_assert_eq!(once, twice);
    }

    /// Cross-entropy is non-negative and bounded by log K at the uniform
    /// point; boosting the true logit never increases the loss.
    #[test]
    fn cross_entropy_monotone_in_true_logit(
        logits in finite_vec(4), label in 0usize..4, boost in 0.1f32..5.0
    ) {
        let l0 = Tensor::from_vec(logits.clone(), &[1, 4]);
        let (loss0, _) = cross_entropy(&l0, &[label]);
        prop_assert!(loss0 >= 0.0);
        let mut boosted = logits;
        boosted[label] += boost;
        let l1 = Tensor::from_vec(boosted, &[1, 4]);
        let (loss1, _) = cross_entropy(&l1, &[label]);
        prop_assert!(loss1 <= loss0 + 1e-5, "{} > {}", loss1, loss0);
    }

    /// Cross-entropy gradient row sums vanish (softmax − onehot property).
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(logits in finite_vec(10)) {
        let l = Tensor::from_vec(logits, &[2, 5]);
        let (_, d) = cross_entropy(&l, &[1, 4]);
        for r in 0..2 {
            let s: f32 = d.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// One SGD step on a quadratic strictly reduces it when lr is small.
    #[test]
    fn sgd_descends_quadratic(w0 in finite_vec(5), lr in 0.001f32..0.4) {
        let mut opt = Sgd::new(lr);
        let mut w = w0.clone();
        let g: Vec<f32> = w.iter().map(|v| 2.0 * v).collect();
        let before: f32 = w.iter().map(|v| v * v).sum();
        opt.step(&mut w, &g);
        let after: f32 = w.iter().map(|v| v * v).sum();
        prop_assert!(after <= before + 1e-6, "{} > {}", after, before);
    }

    /// RMSProp never produces non-finite parameters on finite inputs.
    #[test]
    fn rmsprop_stays_finite(w0 in finite_vec(5), g in finite_vec(5)) {
        let mut opt = RmsProp::new(0.01);
        let mut w = w0;
        for _ in 0..20 {
            opt.step(&mut w, &g);
        }
        prop_assert!(w.iter().all(|v| v.is_finite()));
    }

    /// Writing a flat parameter vector then reading it back round-trips.
    #[test]
    fn flat_param_round_trip(vals in finite_vec(6 * 3 + 3)) {
        use rfl_nn::{Input, LogisticRegression, Model};
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = LogisticRegression::new(6, 3, 0.0, &mut rng);
        m.write_params(&vals);
        let mut got = Vec::new();
        m.read_params(&mut got);
        prop_assert_eq!(got, vals);
        // and the model still works
        let out = m.forward(&Input::Dense(Tensor::zeros(&[1, 6])), false);
        prop_assert!(out.logits.is_finite());
    }
}
