//! Gaussian-mixture dense datasets for the strongly convex convergence
//! experiments (Theorems 1 and 2).

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfl_tensor::fastmath::{draw_normal_pairs, normals_from_pairs};
use rfl_tensor::{normal_fill, Tensor};

/// Specification of a Gaussian-mixture classification problem.
#[derive(Clone, Copy, Debug)]
pub struct GaussianMixtureSpec {
    pub dim: usize,
    pub classes: usize,
    /// Distance scale between class means.
    pub sep: f32,
    /// Within-class standard deviation.
    pub noise: f32,
    /// Seed for the class means.
    pub mean_seed: u64,
}

impl GaussianMixtureSpec {
    pub fn default_spec() -> Self {
        GaussianMixtureSpec {
            dim: 10,
            classes: 4,
            sep: 2.0,
            noise: 1.0,
            mean_seed: 45,
        }
    }

    /// The class means `[classes, dim]` implied by `mean_seed`.
    pub fn means(&self) -> Tensor {
        let mut rng = StdRng::seed_from_u64(self.mean_seed);
        let mut m = Tensor::zeros(&[self.classes, self.dim]);
        normal_fill(&mut rng, m.data_mut());
        let scale = (self.dim as f32).sqrt();
        for v in m.data_mut() {
            *v = self.sep * *v / scale;
        }
        m
    }

    /// Generates `n` balanced samples, optionally with a per-client feature
    /// shift (`shift` added to every sample — the non-IID mechanism for the
    /// convex experiments; pass `None` for the IID pool / test set).
    pub fn generate<R: Rng>(&self, n: usize, shift: Option<&[f32]>, rng: &mut R) -> Dataset {
        self.generate_with_means(&self.means(), n, shift, rng)
    }

    /// [`Self::generate`] with the class means precomputed by the caller.
    /// At registry scale the means are identical for every client of a
    /// source, so callers materializing thousands of clients per round hoist
    /// the `means()` recomputation out of the per-client path; passing
    /// `self.means()` here is exactly `generate`.
    ///
    /// The dataset is deferred: this draws all of its normals' raw words
    /// off `rng` (so `rng` ends where a full build leaves it) and keeps
    /// them, and a row becomes values only when a gather reads it (see
    /// [`Dataset`]). Example `i` has label `i mod classes` and values
    /// `μ_y + noise·z + s` (`s` zero without a shift), `z` the `dim`
    /// normals of its row, in that order of operations.
    pub fn generate_with_means<R: Rng>(
        &self,
        means: &Tensor,
        n: usize,
        shift: Option<&[f32]>,
        rng: &mut R,
    ) -> Dataset {
        if let Some(s) = shift {
            assert_eq!(s.len(), self.dim, "shift dimension mismatch");
        }
        assert_eq!(means.dims(), &[self.classes, self.dim], "means shape");
        let mut pairs = vec![0u64; n * self.dim];
        draw_normal_pairs(rng, &mut pairs);
        let rows = GaussianRows {
            pairs,
            dim: self.dim,
            noise: self.noise,
            means: means.data().to_vec(),
            shift: shift.map_or_else(|| vec![0.0; self.dim], <[f32]>::to_vec),
        };
        let labels = (0..n).map(|i| i % self.classes).collect();
        Dataset::deferred(rows, labels, self.classes)
    }

    /// A random feature-shift vector of norm `magnitude`.
    pub fn random_shift<R: Rng>(&self, magnitude: f32, rng: &mut R) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        normal_fill(rng, &mut v);
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        for x in &mut v {
            *x *= magnitude / norm;
        }
        v
    }
}

/// The rows of a deferred Gaussian-mixture dataset before they are values:
/// each element's raw Box–Muller draw pair, and the affine map its row's
/// normals go through.
#[derive(Debug)]
pub(crate) struct GaussianRows {
    /// `n × dim` pairs, row-major, as `draw_normal_pairs` drew them.
    pairs: Vec<u64>,
    dim: usize,
    noise: f32,
    /// Class means, `classes × dim`, row-major.
    means: Vec<f32>,
    /// The feature shift; zeros without one.
    shift: Vec<f32>,
}

impl GaussianRows {
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Writes rows `rows` into consecutive rows of `out` (as many as it
    /// holds), row `i` with the mean of class `labels[i]`.
    pub(crate) fn rows_into(
        &self,
        rows: impl Iterator<Item = usize>,
        labels: &[usize],
        out: &mut [f32],
    ) {
        let dim = self.dim;
        if dim == 0 {
            return;
        }
        for (dst, i) in out.chunks_exact_mut(dim).zip(rows) {
            normals_from_pairs(&self.pairs[i * dim..(i + 1) * dim], dst);
            let mu = &self.means[labels[i] * dim..(labels[i] + 1) * dim];
            for ((d, &m), &s) in dst.iter_mut().zip(mu).zip(&self.shift) {
                *d = m + self.noise * *d + s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Examples;

    #[test]
    fn generates_balanced_dense_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = GaussianMixtureSpec::default_spec();
        let ds = spec.generate(40, None, &mut rng);
        assert_eq!(ds.len(), 40);
        assert_eq!(ds.class_counts(), vec![10, 10, 10, 10]);
        match ds.examples() {
            Examples::Dense(t) => assert_eq!(t.dims(), &[40, 10]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn shift_translates_the_cloud() {
        let spec = GaussianMixtureSpec::default_spec();
        let shift = vec![10.0; 10];
        let a = spec.generate(100, None, &mut StdRng::seed_from_u64(1));
        let b = spec.generate(100, Some(&shift), &mut StdRng::seed_from_u64(1));
        let (ta, tb) = match (a.examples(), b.examples()) {
            (Examples::Dense(ta), Examples::Dense(tb)) => (ta, tb),
            _ => unreachable!(),
        };
        let diff: Vec<f32> = tb
            .data()
            .iter()
            .zip(ta.data())
            .map(|(b, a)| b - a)
            .collect();
        assert!((rfl_tensor::sum_slices(&diff) / diff.len() as f32 - 10.0).abs() < 1e-4);
    }

    #[test]
    fn random_shift_has_requested_norm() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = GaussianMixtureSpec::default_spec();
        let s = spec.random_shift(3.0, &mut rng);
        let norm = s.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 3.0).abs() < 1e-4);
    }

    #[test]
    fn means_are_deterministic() {
        let spec = GaussianMixtureSpec::default_spec();
        assert_eq!(spec.means(), spec.means());
    }

    /// One lazy client's shard as `scale_lazy` draws it (a 32-normal shift,
    /// then 32 × 32 normals off the same stream), as bits: recorded before
    /// `normal_fill` fused its draws into its vector loop.
    #[test]
    fn generate_with_means_fingerprints() {
        let spec = GaussianMixtureSpec {
            dim: 32,
            ..GaussianMixtureSpec::default_spec()
        };
        let means = spec.means();
        let got = [21, 22].map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let shift = spec.random_shift(1.0, &mut rng);
            let ds = spec.generate_with_means(&means, 32, Some(&shift), &mut rng);
            let Examples::Dense(x) = ds.examples() else {
                unreachable!()
            };
            // FNV-1a over the bit patterns.
            let hash = x.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (seed, hash)
        });
        let recorded = [(21, 0x084f_3f68_2ead_928f), (22, 0xc879_fcec_723e_baac)];
        assert_eq!(got, recorded, "{got:#018x?}");
    }
}
