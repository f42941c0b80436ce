//! Gaussian-mixture dense datasets for the strongly convex convergence
//! experiments (Theorems 1 and 2).

use crate::dataset::{Dataset, Examples};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
        let mut x = Tensor::zeros(&[n, self.dim]);
        let mut labels = Vec::with_capacity(n);
        // One batched draw for the whole matrix: the draw order matches the
        // old per-element `normal_sample` loop exactly, and the per-element
        // arithmetic below keeps the original rounding order, so every value
        // is bit-identical to the scalar formulation.
        normal_fill(rng, x.data_mut());
        for i in 0..n {
            let y = i % self.classes;
            labels.push(y);
            let mu = means.row(y);
            let dst = &mut x.data_mut()[i * self.dim..(i + 1) * self.dim];
            match shift {
                Some(s) => {
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = mu[j] + self.noise * *d + s[j];
                    }
                }
                None => {
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = mu[j] + self.noise * *d + 0.0;
                    }
                }
            }
        }
        Dataset::new(Examples::Dense(x), labels, self.classes)
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

#[cfg(test)]
mod tests {
    use super::*;

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
