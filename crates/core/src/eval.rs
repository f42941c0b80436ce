//! Model evaluation on datasets.

use crate::plane::fan_out;
use rfl_data::{Dataset, ExampleKind, Examples};
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
/// Image and dense rows come through [`Dataset::gather_into`], so a deferred
/// dataset builds only the rows a batch reads.
pub(crate) fn gather_batch(
    data: &Dataset,
    indices: &[usize],
    input: &mut Option<Input>,
    labels: &mut Vec<usize>,
) {
    labels.clear();
    labels.extend(indices.iter().map(|&i| data.labels()[i]));
    // A slot of another kind (or none yet) starts from an empty buffer.
    let fresh = match (data.kind(), &*input) {
        (ExampleKind::Images, Some(Input::Images(_)))
        | (ExampleKind::Dense, Some(Input::Dense(_)))
        | (ExampleKind::Tokens, Some(Input::Tokens(_))) => None,
        (ExampleKind::Images, _) => Some(Input::Images(Tensor::scratch())),
        (ExampleKind::Dense, _) => Some(Input::Dense(Tensor::scratch())),
        (ExampleKind::Tokens, _) => Some(Input::Tokens(Vec::new())),
    };
    if let Some(f) = fresh {
        *input = Some(f);
    }
    match input.as_mut().expect("the slot was filled above") {
        Input::Images(buf) | Input::Dense(buf) => data.gather_into(indices, buf),
        Input::Tokens(buf) => {
            let Examples::Tokens(s) = data.examples() else {
                unreachable!("a token dataset holds tokens")
            };
            buf.resize(indices.len(), Vec::new());
            for (dst, &i) in buf.iter_mut().zip(indices) {
                dst.clear();
                dst.extend_from_slice(&s[i]);
            }
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
    use rand::{RngCore, SeedableRng};
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

    /// A Gaussian-mixture dataset built the eager way, written out here
    /// rather than taken from the library: one `normal_fill` over the whole
    /// `n × dim` matrix, then `μ_y + noise·z + s` element by element (`+ 0.0`
    /// without a shift). Its rows, flat.
    fn eager_rows(
        spec: &rfl_data::synth::gaussian::GaussianMixtureSpec,
        n: usize,
        shift: Option<&[f32]>,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let means = spec.means();
        let mut x = vec![0.0f32; n * spec.dim];
        rfl_tensor::normal_fill(rng, &mut x);
        for (i, row) in x.chunks_exact_mut(spec.dim).enumerate() {
            let mu = means.row(i % spec.classes);
            for (j, d) in row.iter_mut().enumerate() {
                *d = mu[j] + spec.noise * *d + shift.map_or(0.0, |s| s[j]);
            }
        }
        x
    }

    proptest::proptest! {
        /// A deferred Gaussian dataset gathered through `gather_batch` in
        /// random batches (any indices, repeats allowed), then the whole set
        /// in one batch, then one more batch — so gathers run before, at and
        /// after the one that builds its examples: every row and label
        /// equals the eager build's bit for bit, and so do its examples.
        #[test]
        fn deferred_gathers_equal_the_eager_rows(
            seed in 0u64..1_000,
            dim in 1usize..40,
            classes in 1usize..5,
            noise in 0.25f32..3.0,
            n in 1usize..48,
            shifted in proptest::prelude::any::<bool>(),
            batches in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0usize..1_000, 1..12),
                1..8,
            ),
        ) {
            use rfl_data::synth::gaussian::GaussianMixtureSpec;
            let spec = GaussianMixtureSpec { dim, classes, noise, ..GaussianMixtureSpec::default_spec() };
            let mut rng = StdRng::seed_from_u64(seed);
            let shift = shifted.then(|| spec.random_shift(1.5, &mut rng));
            let mut eager_rng = rng.clone();
            let data = spec.generate_with_means(&spec.means(), n, shift.as_deref(), &mut rng);
            let want = eager_rows(&spec, n, shift.as_deref(), &mut eager_rng);
            proptest::prop_assert_eq!(rng.next_u64(), eager_rng.next_u64(), "the streams part");

            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut order: Vec<Vec<usize>> = batches
                .iter()
                .map(|b| b.iter().map(|&i| i % n).collect())
                .collect();
            order.push((0..n).collect());
            order.push(batches[0].iter().map(|&i| i % n).collect());
            let (mut input, mut labels) = (None, Vec::new());
            for idx in &order {
                gather_batch(&data, idx, &mut input, &mut labels);
                let Some(Input::Dense(x)) = &input else {
                    panic!("a Gaussian batch is dense")
                };
                proptest::prop_assert_eq!(x.dims(), &[idx.len(), dim]);
                for (r, &i) in idx.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        bits(x.row(r)),
                        bits(&want[i * dim..(i + 1) * dim]),
                        "row {} of batch {:?}",
                        i,
                        idx
                    );
                    proptest::prop_assert_eq!(labels[r], i % classes);
                }
            }
            let Examples::Dense(x) = data.examples() else {
                panic!("a Gaussian dataset is dense")
            };
            proptest::prop_assert_eq!(bits(x.data()), bits(&want));
        }
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
