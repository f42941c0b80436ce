//! Model evaluation on datasets.

use crate::plane::fan_out;
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

/// One evaluation worker: a replica of the model and the buffers its
/// mini-batches are gathered and scored in, reused from batch to batch.
struct Worker<'a> {
    model: &'a mut dyn Model,
    idx: Vec<usize>,
    input: Option<Input>,
    labels: Vec<usize>,
    out: ModelOutput,
    log_p: Tensor,
    dlogits: Tensor,
    pred: Vec<usize>,
}

/// Evaluates the model `replicas` hold (eval mode; every replica the same
/// parameters) on `data` in mini-batches of `batch`, dealt across
/// [`fan_out`] to one worker per replica.
///
/// Each worker gathers into one input/label buffer pair across its
/// mini-batches, so it is allocation-free after its first; the values seen
/// by the model are identical to slicing fresh sub-datasets (the batch-size
/// invariance test pins this). Mini-batch `b` leaves its loss term and its
/// correct count in slot `b`, and the `f64` loss sum is taken over the
/// slots in ascending order afterwards — a reduction whose shape is keyed
/// on the batch index, never on arrival or worker count, so the result is
/// the same bits from one replica or from many.
pub(crate) fn evaluate(
    replicas: &mut [Box<dyn Model>],
    data: &Dataset,
    batch: usize,
) -> EvalResult {
    assert!(batch > 0);
    let n = data.len();
    assert!(n > 0, "empty evaluation set");
    let mut per_batch = vec![(0.0f64, 0usize); n.div_ceil(batch)];
    let mut workers: Vec<Worker> = (replicas.iter_mut())
        .map(|model| Worker {
            model: model.as_mut(),
            idx: Vec::with_capacity(batch.min(n)),
            input: None,
            labels: Vec::new(),
            out: ModelOutput::scratch(),
            log_p: Tensor::scratch(),
            dlogits: Tensor::scratch(),
            pred: Vec::new(),
        })
        .collect();
    fan_out(per_batch.iter_mut(), &mut workers, |w, b, slot| {
        let (lo, hi) = (b * batch, ((b + 1) * batch).min(n));
        w.idx.clear();
        w.idx.extend(lo..hi);
        gather_batch(data, &w.idx, &mut w.input, &mut w.labels);
        let input = w.input.as_ref().expect("batch gathered");
        w.model.forward_into(input, &mut w.out, false);
        let loss = cross_entropy_into(&w.out.logits, &w.labels, &mut w.log_p, &mut w.dlogits);
        w.out.logits.argmax_rows_into(&mut w.pred);
        let correct = w.pred.iter().zip(&w.labels).filter(|(p, y)| p == y);
        *slot = (loss as f64 * (hi - lo) as f64, correct.count());
    });
    let (loss_sum, correct) = per_batch
        .iter()
        .fold((0.0f64, 0usize), |(l, c), (dl, dc)| (l + dl, c + dc));
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
        let mut m: Box<dyn Model> = Box::new(LogisticRegression::new(2, 2, 0.0, &mut rng));
        // Set W = [[-3, 3], [0, 0]], b = 0: logit_1 − logit_0 = 6·x0.
        m.write_params(&[-3.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
        let r = evaluate(std::slice::from_mut(&mut m), &toy_data(), 2);
        assert_eq!(r.accuracy, 1.0);
        assert!(r.loss < 0.01);
        assert_eq!(r.n, 4);
    }

    #[test]
    fn anti_classifier_scores_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m: Box<dyn Model> = Box::new(LogisticRegression::new(2, 2, 0.0, &mut rng));
        m.write_params(&[3.0, -3.0, 0.0, 0.0, 0.0, 0.0]);
        let r = evaluate(std::slice::from_mut(&mut m), &toy_data(), 10);
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
    /// budgets 1, 2 and 4 with a replica each (more workers than the 1–4
    /// batches included): the same loss bits, accuracy bits and count as
    /// the serial loop.
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
                    let mut replicas: Vec<_> = (0..budget).map(|_| factory.build(5)).collect();
                    let got = evaluate(&mut replicas, &data, EVAL_BATCH);
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
        let mut m: [Box<dyn Model>; 1] = [Box::new(LogisticRegression::new(2, 2, 0.0, &mut rng))];
        let a = evaluate(&mut m, &toy_data(), 1);
        let b = evaluate(&mut m, &toy_data(), 4);
        assert!((a.loss - b.loss).abs() < 1e-5);
        assert_eq!(a.accuracy, b.accuracy);
    }
}
