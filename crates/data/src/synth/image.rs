//! Prototype-mixture image generator (MNIST-like / CIFAR10-like).
//!
//! Each class has a fixed low-frequency prototype image (a coarse random
//! grid, bilinearly upsampled). A sample is its class prototype plus
//! Gaussian pixel noise and — for the CIFAR-like preset — random contrast
//! and brightness jitter. The prototypes are derived from `proto_seed` only,
//! so train/test splits and all clients share the same class structure.

use crate::dataset::{Dataset, Examples};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfl_tensor::{normal_fill, Tensor};

/// Specification of a synthetic image benchmark.
#[derive(Clone, Copy, Debug)]
pub struct SynthImageSpec {
    pub classes: usize,
    pub channels: usize,
    pub size: usize,
    /// Pixel noise standard deviation; the main difficulty knob.
    pub noise_std: f32,
    /// Scale of the class prototypes (class separation).
    pub class_sep: f32,
    /// Strength of per-sample contrast/brightness jitter (0 disables).
    pub jitter: f32,
    /// Seed for the class prototypes (not for the samples).
    pub proto_seed: u64,
}

impl SynthImageSpec {
    /// Easy benchmark standing in for MNIST: low noise, well-separated
    /// classes — every FL method reaches high accuracy even at sim 0%.
    pub fn mnist_like() -> Self {
        SynthImageSpec {
            classes: 10,
            channels: 1,
            size: 16,
            noise_std: 0.7,
            class_sep: 1.0,
            jitter: 0.0,
            proto_seed: 42,
        }
    }

    /// Hard benchmark standing in for CIFAR10: heavy noise, weakly separated
    /// classes, contrast jitter — a large IID/non-IID accuracy gap.
    pub fn cifar_like() -> Self {
        SynthImageSpec {
            classes: 10,
            channels: 3,
            size: 16,
            noise_std: 1.0,
            class_sep: 0.55,
            jitter: 0.35,
            proto_seed: 43,
        }
    }

    /// The class prototypes `[classes, C, H, W]` implied by `proto_seed`.
    pub fn prototypes(&self) -> Tensor {
        const COARSE: usize = 4;
        let mut rng = StdRng::seed_from_u64(self.proto_seed);
        let size = self.size;
        // Where pixel `i` of a row or column falls on the coarse grid: its
        // two neighbours and its weight towards the second.
        let taps: Vec<(usize, usize, f32)> = (0..size)
            .map(|i| {
                let f = i as f32 / size as f32 * (COARSE - 1) as f32;
                let i0 = f.floor() as usize;
                (i0, (i0 + 1).min(COARSE - 1), f - i0 as f32)
            })
            .collect();
        let mut protos = Tensor::zeros(&[self.classes, self.channels, size, size]);
        let mut grid = [0.0f32; COARSE * COARSE];
        for plane in protos.data_mut().chunks_exact_mut(size * size) {
            // Coarse random grid.
            normal_fill(&mut rng, &mut grid);
            for g in &mut grid {
                *g *= self.class_sep;
            }
            // Bilinear upsample to size × size.
            for (row, &(y0, y1, ty)) in plane.chunks_exact_mut(size).zip(&taps) {
                for (v, &(x0, x1, tx)) in row.iter_mut().zip(&taps) {
                    *v = grid[y0 * COARSE + x0] * (1.0 - ty) * (1.0 - tx)
                        + grid[y0 * COARSE + x1] * (1.0 - ty) * tx
                        + grid[y1 * COARSE + x0] * ty * (1.0 - tx)
                        + grid[y1 * COARSE + x1] * ty * tx;
                }
            }
        }
        protos
    }

    /// Generates `n` labelled samples (labels cycle through the classes so
    /// the pool is class-balanced). Each image draws its jitter, then its
    /// noise with one [`normal_fill`] into its row, which it then scales
    /// in place.
    pub fn generate<R: Rng>(&self, n: usize, rng: &mut R) -> Dataset {
        let protos = self.prototypes();
        let px = self.channels * self.size * self.size;
        let mut x = Tensor::zeros(&[n, self.channels, self.size, self.size]);
        let mut labels = Vec::with_capacity(n);
        let xd = x.data_mut();
        let pd = protos.data();
        for i in 0..n {
            let y = i % self.classes;
            labels.push(y);
            let contrast = if self.jitter > 0.0 {
                1.0 + self.jitter * (rng.gen::<f32>() * 2.0 - 1.0)
            } else {
                1.0
            };
            let brightness = if self.jitter > 0.0 {
                self.jitter * (rng.gen::<f32>() * 2.0 - 1.0)
            } else {
                0.0
            };
            let proto = &pd[y * px..(y + 1) * px];
            let dst = &mut xd[i * px..(i + 1) * px];
            normal_fill(rng, dst);
            for (d, &p) in dst.iter_mut().zip(proto) {
                *d = contrast * p + brightness + self.noise_std * *d;
            }
        }
        Dataset::new(Examples::Images(x), labels, self.classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfl_tensor::sq_dist_slices;

    #[test]
    fn generates_requested_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = SynthImageSpec::mnist_like().generate(25, &mut rng);
        assert_eq!(ds.len(), 25);
        match ds.examples() {
            Examples::Images(t) => assert_eq!(t.dims(), &[25, 1, 16, 16]),
            _ => unreachable!(),
        }
        assert_eq!(ds.class_counts().len(), 10);
    }

    #[test]
    fn labels_are_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = SynthImageSpec::mnist_like().generate(100, &mut rng);
        assert!(ds.class_counts().iter().all(|&c| c == 10));
    }

    #[test]
    fn prototypes_are_deterministic_in_proto_seed() {
        let a = SynthImageSpec::mnist_like().prototypes();
        let b = SynthImageSpec::mnist_like().prototypes();
        assert_eq!(a, b);
        let mut other = SynthImageSpec::mnist_like();
        other.proto_seed = 7;
        assert_ne!(other.prototypes(), a);
    }

    #[test]
    fn same_class_is_closer_than_cross_class() {
        // Core learnability property: intra-class distance < inter-class
        // distance on average (for the easy preset).
        let mut rng = StdRng::seed_from_u64(2);
        let spec = SynthImageSpec::mnist_like();
        let ds = spec.generate(200, &mut rng);
        let t = match ds.examples() {
            Examples::Images(t) => t,
            _ => unreachable!(),
        };
        let px = 256;
        let d = t.data();
        let (mut intra, mut inter) = (0.0f64, 0.0f64);
        let (mut ni, mut nx) = (0usize, 0usize);
        for i in 0..50 {
            for j in (i + 1)..50 {
                let dist =
                    sq_dist_slices(&d[i * px..(i + 1) * px], &d[j * px..(j + 1) * px]) as f64;
                if ds.labels()[i] == ds.labels()[j] {
                    intra += dist;
                    ni += 1;
                } else {
                    inter += dist;
                    nx += 1;
                }
            }
        }
        assert!(intra / ni as f64 * 1.2 < inter / nx as f64);
    }

    #[test]
    fn cifar_like_is_noisier_than_mnist_like() {
        let mut rng = StdRng::seed_from_u64(3);
        let easy = SynthImageSpec::mnist_like().generate(60, &mut rng);
        let hard = SynthImageSpec::cifar_like().generate(60, &mut rng);
        // Signal-to-noise proxy: prototype norm over noise std.
        let snr = |spec: &SynthImageSpec| spec.class_sep / spec.noise_std;
        assert!(snr(&SynthImageSpec::cifar_like()) < snr(&SynthImageSpec::mnist_like()));
        let _ = (easy, hard);
    }

    #[test]
    fn samples_vary_with_rng() {
        let spec = SynthImageSpec::mnist_like();
        let a = spec.generate(10, &mut StdRng::seed_from_u64(4));
        let b = spec.generate(10, &mut StdRng::seed_from_u64(5));
        match (a.examples(), b.examples()) {
            (Examples::Images(ta), Examples::Images(tb)) => assert_ne!(ta, tb),
            _ => unreachable!(),
        }
    }
}
