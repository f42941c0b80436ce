//! Dataset containers shared by all benchmarks.

use crate::synth::gaussian::GaussianRows;
use rfl_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The example payload of a dataset.
#[derive(Clone, Debug)]
pub enum Examples {
    /// Image batch `[N, C, H, W]`.
    Images(Tensor),
    /// Fixed-length token sequences.
    Tokens(Vec<Vec<u32>>),
    /// Dense feature batch `[N, D]`.
    Dense(Tensor),
}

/// Which [`Examples`] variant a dataset holds, known without building a
/// deferred dataset's examples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExampleKind {
    Images,
    Tokens,
    Dense,
}

impl Examples {
    /// Number of examples.
    pub fn len(&self) -> usize {
        match self {
            Examples::Images(t) | Examples::Dense(t) => t.dims()[0],
            Examples::Tokens(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers the examples at `indices` into a new payload.
    pub fn select(&self, indices: &[usize]) -> Examples {
        assert!(!indices.is_empty(), "cannot select an empty subset");
        match self {
            Examples::Images(t) => Examples::Images(gather_rows(t, indices)),
            Examples::Dense(t) => Examples::Dense(gather_rows(t, indices)),
            Examples::Tokens(s) => {
                Examples::Tokens(indices.iter().map(|&i| s[i].clone()).collect())
            }
        }
    }
}

/// Gathers rows (dim-0 slices) of a tensor.
fn gather_rows(t: &Tensor, indices: &[usize]) -> Tensor {
    let mut out = Tensor::scratch();
    gather_rows_into(t, indices, &mut out);
    out
}

/// Gathers rows (dim-0 slices) of a tensor into a caller-provided
/// destination. The destination is resized (a no-op when the shape already
/// matches, so warm mini-batch loops gather without allocating) and every
/// element is overwritten.
fn gather_rows_into(t: &Tensor, indices: &[usize], out: &mut Tensor) {
    let row = t.numel() / t.dims()[0];
    let nd = t.ndim();
    assert!(nd <= 8, "gather_rows_into supports up to 8 dims");
    let mut dims = [0usize; 8];
    dims[..nd].copy_from_slice(t.dims());
    dims[0] = indices.len();
    out.resize(&dims[..nd]);
    let src = t.data();
    let dst = out.data_mut();
    for (o, &i) in indices.iter().enumerate() {
        dst[o * row..(o + 1) * row].copy_from_slice(&src[i * row..(i + 1) * row]);
    }
}

/// A labelled dataset. Immutable once built, and shared: its examples,
/// labels and class count live behind one `Arc`, so a clone is a
/// reference-count bump and every clone reads the same buffers.
///
/// A Gaussian-mixture dataset
/// ([`GaussianMixtureSpec::generate_with_means`](crate::synth::gaussian::GaussianMixtureSpec::generate_with_means))
/// is *deferred*: it holds its elements' raw draws, and a gather
/// ([`Dataset::gather_into`]) turns only the rows it reads into values,
/// bit for bit the values an eager build would hold. Its examples are built
/// once, by [`Dataset::examples`], [`Dataset::select`], or the gather that
/// takes its gathers past its length; every later read copies them.
#[derive(Clone, Debug)]
pub struct Dataset(Arc<Labelled>);

#[derive(Debug)]
struct Labelled {
    /// Set at construction for an eager dataset, at first need for a
    /// deferred one.
    examples: OnceLock<Examples>,
    /// A deferred dataset's rows, and the rows its gathers have read so far.
    deferred: Option<(GaussianRows, AtomicUsize)>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// # Panics
    /// Panics if lengths disagree or any label is out of range.
    pub fn new(examples: Examples, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(examples.len(), labels.len(), "examples/labels length");
        Dataset::labelled(OnceLock::from(examples), None, labels, num_classes)
    }

    /// A dense dataset of one row of `rows` per label, turned into values
    /// as they are read.
    ///
    /// # Panics
    /// Panics if any label is out of range.
    pub(crate) fn deferred(rows: GaussianRows, labels: Vec<usize>, num_classes: usize) -> Self {
        let deferred = Some((rows, AtomicUsize::new(0)));
        Dataset::labelled(OnceLock::new(), deferred, labels, num_classes)
    }

    fn labelled(
        examples: OnceLock<Examples>,
        deferred: Option<(GaussianRows, AtomicUsize)>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        assert!(
            labels.iter().all(|&y| y < num_classes),
            "label out of range"
        );
        Dataset(Arc::new(Labelled {
            examples,
            deferred,
            labels,
            num_classes,
        }))
    }

    pub fn len(&self) -> usize {
        self.0.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.labels.is_empty()
    }

    /// The examples, built on first call for a deferred dataset.
    pub fn examples(&self) -> &Examples {
        self.0.examples.get_or_init(|| {
            let (rows, _) = self
                .0
                .deferred
                .as_ref()
                .expect("an eager dataset has examples");
            let mut x = Tensor::zeros(&[self.len(), rows.dim()]);
            rows.rows_into(0..self.len(), &self.0.labels, x.data_mut());
            Examples::Dense(x)
        })
    }

    pub fn kind(&self) -> ExampleKind {
        if self.0.deferred.is_some() {
            return ExampleKind::Dense;
        }
        match self.examples() {
            Examples::Images(_) => ExampleKind::Images,
            Examples::Tokens(_) => ExampleKind::Tokens,
            Examples::Dense(_) => ExampleKind::Dense,
        }
    }

    pub fn labels(&self) -> &[usize] {
        &self.0.labels
    }

    /// Gathers the examples at `indices` of an image or dense dataset into
    /// `out` (resized; a warm buffer of the batch's shape is not
    /// reallocated), row by row from [`Dataset::examples`]. A deferred
    /// dataset whose gathers, this one included, total at most its length
    /// builds only these rows; the gather that passes it builds the
    /// examples.
    ///
    /// # Panics
    /// Panics on a token dataset or an index out of range.
    pub fn gather_into(&self, indices: &[usize], out: &mut Tensor) {
        if let (Some((rows, gathered)), None) = (&self.0.deferred, self.0.examples.get()) {
            // A count only: the examples are published by the `OnceLock`.
            let before = gathered.fetch_add(indices.len(), Ordering::Relaxed);
            if before + indices.len() <= self.len() {
                out.resize(&[indices.len(), rows.dim()]);
                rows.rows_into(indices.iter().copied(), &self.0.labels, out.data_mut());
                return;
            }
        }
        match self.examples() {
            Examples::Images(t) | Examples::Dense(t) => gather_rows_into(t, indices, out),
            Examples::Tokens(_) => panic!("a token dataset has no rows to gather"),
        }
    }

    /// Subset at `indices` (copies the data).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset::new(
            self.examples().select(indices),
            indices.iter().map(|&i| self.0.labels[i]).collect(),
            self.0.num_classes,
        )
    }

    /// Splits into `(train, held_out)` with `frac` of samples in train,
    /// after a seeded shuffle. Both halves must be non-empty.
    ///
    /// # Panics
    /// Panics if `frac` leaves either side empty.
    pub fn split<R: rand::Rng>(&self, frac: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&frac));
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        let cut = ((self.len() as f64) * frac).round() as usize;
        assert!(cut > 0 && cut < self.len(), "split leaves an empty side");
        (self.select(&order[..cut]), self.select(&order[cut..]))
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.0.num_classes];
        for &y in &self.0.labels {
            counts[y] += 1;
        }
        counts
    }
}

/// A federated view: one dataset per client plus a held-out test set.
#[derive(Clone, Debug)]
pub struct FederatedData {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
}

impl FederatedData {
    /// Builds a federated split from a pooled train set and index partition.
    pub fn from_partition(train: &Dataset, parts: &[Vec<usize>], test: Dataset) -> Self {
        let clients = parts.iter().map(|idx| train.select(idx)).collect();
        FederatedData { clients, test }
    }

    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// FedAvg aggregation weights `p_k = n_k / Σ n_j`.
    pub fn client_weights(&self) -> Vec<f32> {
        let total: usize = self.clients.iter().map(|c| c.len()).sum();
        assert!(total > 0, "no training data");
        self.clients
            .iter()
            .map(|c| c.len() as f32 / total as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_dataset(n: usize) -> Dataset {
        let x = Tensor::from_vec((0..n * 4).map(|v| v as f32).collect(), &[n, 1, 2, 2]);
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(Examples::Images(x), labels, 3)
    }

    #[test]
    fn select_copies_the_right_rows() {
        let ds = image_dataset(5);
        let sub = ds.select(&[0, 3]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[0, 0]);
        match sub.examples() {
            Examples::Images(t) => {
                assert_eq!(t.dims(), &[2, 1, 2, 2]);
                assert_eq!(&t.data()[0..4], &[0.0, 1.0, 2.0, 3.0]);
                assert_eq!(&t.data()[4..8], &[12.0, 13.0, 14.0, 15.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tokens_select() {
        let ds = Dataset::new(
            Examples::Tokens(vec![vec![1, 2], vec![3, 4], vec![5, 6]]),
            vec![0, 1, 0],
            2,
        );
        let sub = ds.select(&[2]);
        match sub.examples() {
            Examples::Tokens(s) => assert_eq!(s, &vec![vec![5, 6]]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn gathers_build_a_deferred_dataset_once_they_pass_its_length() {
        use crate::synth::gaussian::GaussianMixtureSpec;
        use rand::SeedableRng;
        let spec = GaussianMixtureSpec::default_spec();
        let ds = spec.generate(12, None, &mut rand::rngs::StdRng::seed_from_u64(3));
        let built = |ds: &Dataset| ds.0.examples.get().is_some();
        let mut out = Tensor::scratch();
        // Three gathers of four rows, one repeated: twelve rows, the length.
        for idx in [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 2, 11]] {
            ds.gather_into(&idx, &mut out);
            assert!(!built(&ds), "built by a gather within the length");
        }
        let rows = out.data().to_vec();
        ds.gather_into(&[10], &mut out);
        assert!(built(&ds), "the thirteenth row builds the examples");
        ds.gather_into(&[8, 9, 2, 11], &mut out);
        assert_eq!(out.data(), &rows[..], "a gather after the build copies");
        assert_eq!(ds.kind(), ExampleKind::Dense);
    }

    #[test]
    fn class_counts() {
        let ds = image_dataset(7);
        assert_eq!(ds.class_counts(), vec![3, 2, 2]);
    }

    #[test]
    fn client_weights_sum_to_one() {
        let ds = image_dataset(6);
        let parts = vec![vec![0, 1, 2], vec![3], vec![4, 5]];
        let fed = FederatedData::from_partition(&ds, &parts, image_dataset(2));
        let w = fed.client_weights();
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((w[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn split_partitions_all_samples() {
        use rand::SeedableRng;
        let ds = image_dataset(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (a, b) = ds.split(0.7, &mut rng);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
        let mut counts = a.class_counts();
        for (c, v) in b.class_counts().iter().enumerate() {
            counts[c] += v;
        }
        assert_eq!(counts, ds.class_counts());
    }

    #[test]
    #[should_panic(expected = "empty side")]
    fn split_rejects_degenerate_fraction() {
        use rand::SeedableRng;
        let ds = image_dataset(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        ds.split(0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        Dataset::new(Examples::Dense(Tensor::zeros(&[1, 2])), vec![5], 3);
    }
}
