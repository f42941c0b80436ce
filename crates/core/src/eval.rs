//! Model evaluation on datasets.

use rfl_data::{gather_rows_into, Dataset, Examples};
use rfl_nn::{cross_entropy_into, Input, Model, ModelOutput};
use rfl_tensor::Tensor;

/// Evaluation outcome on one dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    pub loss: f32,
    pub accuracy: f32,
    pub n: usize,
}

/// Converts a data payload into a model input (borrows where possible).
pub fn to_input(ex: &Examples) -> Input {
    match ex {
        Examples::Images(t) => Input::Images(t.clone()),
        Examples::Dense(t) => Input::Dense(t.clone()),
        Examples::Tokens(s) => Input::Tokens(s.clone()),
    }
}

/// Gathers the examples and labels at `indices` into a reusable
/// input/label buffer pair. The first call populates the slot; warm calls
/// copy into the existing buffers without touching the allocator (the
/// mini-batch inner loops of training and evaluation all go through here).
pub(crate) fn gather_batch(
    data: &Dataset,
    indices: &[usize],
    input: &mut Option<Input>,
    labels: &mut Vec<usize>,
) {
    labels.clear();
    labels.extend(indices.iter().map(|&i| data.labels()[i]));
    match (data.examples(), &mut *input) {
        (Examples::Images(t), Some(Input::Images(buf))) => gather_rows_into(t, indices, buf),
        (Examples::Dense(t), Some(Input::Dense(buf))) => gather_rows_into(t, indices, buf),
        (Examples::Tokens(s), Some(Input::Tokens(buf))) => {
            buf.resize(indices.len(), Vec::new());
            for (dst, &i) in buf.iter_mut().zip(indices) {
                dst.clear();
                dst.extend_from_slice(&s[i]);
            }
        }
        (ex, slot) => {
            *slot = Some(match ex {
                Examples::Images(t) => {
                    let mut b = Tensor::scratch();
                    gather_rows_into(t, indices, &mut b);
                    Input::Images(b)
                }
                Examples::Dense(t) => {
                    let mut b = Tensor::scratch();
                    gather_rows_into(t, indices, &mut b);
                    Input::Dense(b)
                }
                Examples::Tokens(s) => {
                    Input::Tokens(indices.iter().map(|&i| s[i].clone()).collect())
                }
            });
        }
    }
}

/// Evaluates `model` (eval mode) on `data` in mini-batches of `batch`.
///
/// One input/label buffer pair is gathered into across all mini-batches, so
/// the loop is allocation-free after the first batch; the values seen by
/// the model are identical to slicing fresh sub-datasets (the batch-size
/// invariance test pins this).
pub fn evaluate(model: &mut dyn Model, data: &Dataset, batch: usize) -> EvalResult {
    assert!(batch > 0);
    let n = data.len();
    assert!(n > 0, "empty evaluation set");
    let mut correct = 0usize;
    let mut loss_sum = 0.0f64;
    let mut input: Option<Input> = None;
    let mut labels: Vec<usize> = Vec::new();
    let mut idx: Vec<usize> = Vec::with_capacity(batch.min(n));
    let mut pred: Vec<usize> = Vec::new();
    let mut out = ModelOutput::scratch();
    let (mut log_p, mut dlogits) = (Tensor::scratch(), Tensor::scratch());
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + batch).min(n);
        idx.clear();
        idx.extend(lo..hi);
        gather_batch(data, &idx, &mut input, &mut labels);
        model.forward_into(input.as_ref().expect("batch gathered"), &mut out, false);
        let loss = cross_entropy_into(&out.logits, &labels, &mut log_p, &mut dlogits);
        loss_sum += loss as f64 * (hi - lo) as f64;
        out.logits.argmax_rows_into(&mut pred);
        correct += pred.iter().zip(&labels).filter(|(p, y)| p == y).count();
        lo = hi;
    }
    EvalResult {
        loss: (loss_sum / n as f64) as f32,
        accuracy: correct as f32 / n as f32,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfl_nn::LogisticRegression;
    use rfl_tensor::Tensor;

    fn toy_data() -> Dataset {
        // Perfectly separable on the first coordinate.
        let x = Tensor::from_vec(vec![5.0, 0.0, -5.0, 0.0, 4.0, 0.0, -4.0, 0.0], &[4, 2]);
        Dataset::new(Examples::Dense(x), vec![1, 0, 1, 0], 2)
    }

    #[test]
    fn perfect_classifier_scores_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = LogisticRegression::new(2, 2, 0.0, &mut rng);
        // Set W = [[-3, 3], [0, 0]], b = 0: logit_1 − logit_0 = 6·x0.
        m.write_params(&[-3.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
        let r = evaluate(&mut m, &toy_data(), 2);
        assert_eq!(r.accuracy, 1.0);
        assert!(r.loss < 0.01);
        assert_eq!(r.n, 4);
    }

    #[test]
    fn anti_classifier_scores_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = LogisticRegression::new(2, 2, 0.0, &mut rng);
        m.write_params(&[3.0, -3.0, 0.0, 0.0, 0.0, 0.0]);
        let r = evaluate(&mut m, &toy_data(), 10);
        assert_eq!(r.accuracy, 0.0);
    }

    /// The one-thread loop `evaluate` was before it dealt its mini-batches
    /// out, kept as the oracle: batches in ascending order through one
    /// model, the `f64` loss sum taken as they complete.
    fn evaluate_serial(model: &mut dyn Model, data: &Dataset, batch: usize) -> EvalResult {
        let n = data.len();
        let (mut correct, mut loss_sum) = (0usize, 0.0f64);
        let (mut input, mut labels, mut pred) = (None, Vec::new(), Vec::new());
        let mut out = ModelOutput::scratch();
        let (mut log_p, mut dlogits) = (Tensor::scratch(), Tensor::scratch());
        for lo in (0..n).step_by(batch) {
            let idx: Vec<usize> = (lo..(lo + batch).min(n)).collect();
            gather_batch(data, &idx, &mut input, &mut labels);
            model.forward_into(input.as_ref().expect("batch gathered"), &mut out, false);
            let loss = cross_entropy_into(&out.logits, &labels, &mut log_p, &mut dlogits);
            loss_sum += loss as f64 * idx.len() as f64;
            out.logits.argmax_rows_into(&mut pred);
            correct += pred.iter().zip(&labels).filter(|(p, y)| p == y).count();
        }
        EvalResult {
            loss: (loss_sum / n as f64) as f32,
            accuracy: correct as f32 / n as f32,
            n,
        }
    }

    /// Every model family × test sets around the batch boundary × thread
    /// budgets 1, 2 and 4 (more workers than the 1–4 batches included):
    /// the same loss bits, accuracy bits and count as the serial loop.
    #[test]
    fn evaluate_matches_the_serial_loop_bit_for_bit() {
        use crate::federation::ModelFactory;
        use crate::plane::EVAL_BATCH;
        use rfl_data::synth::gaussian::GaussianMixtureSpec;
        use rfl_data::synth::image::SynthImageSpec;
        use rfl_data::synth::text::SynthTextSpec;
        use rfl_nn::{CnnConfig, LstmConfig};

        type MakeData = fn(usize, &mut StdRng) -> Dataset;
        let families: [(&str, ModelFactory, MakeData); 3] = [
            ("logistic", ModelFactory::logistic(10, 4, 0.0), |n, rng| {
                GaussianMixtureSpec::default_spec().generate(n, None, rng)
            }),
            (
                "cnn",
                ModelFactory::cnn(CnnConfig::mnist_like()),
                |n, rng| SynthImageSpec::mnist_like().generate(n, rng),
            ),
            (
                "lstm",
                ModelFactory::lstm(LstmConfig::sent140_like()),
                |n, rng| SynthTextSpec::sent140_like().generate_users(1, n, rng).0,
            ),
        ];
        let before = rfl_tensor::thread_budget();
        for (name, factory, make_data) in families {
            for n in [1, 63, 64, 65, 200] {
                let data = make_data(n, &mut StdRng::seed_from_u64(n as u64));
                rfl_tensor::set_thread_budget(1);
                let want = evaluate_serial(factory.build(5).as_mut(), &data, EVAL_BATCH);
                assert_eq!(want.n, n);
                for budget in [1, 2, 4] {
                    rfl_tensor::set_thread_budget(budget);
                    let got = evaluate(factory.build(5).as_mut(), &data, EVAL_BATCH);
                    assert_eq!(
                        (got.loss.to_bits(), got.accuracy.to_bits(), got.n),
                        (want.loss.to_bits(), want.accuracy.to_bits(), want.n),
                        "{name}, {n} examples, budget {budget}: {got:?} vs {want:?}"
                    );
                }
            }
        }
        rfl_tensor::set_thread_budget(before);
    }

    #[test]
    fn batching_does_not_change_result() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = LogisticRegression::new(2, 2, 0.0, &mut rng);
        let a = evaluate(&mut m, &toy_data(), 1);
        let b = evaluate(&mut m, &toy_data(), 4);
        assert!((a.loss - b.loss).abs() < 1e-5);
        assert_eq!(a.accuracy, b.accuracy);
    }
}
