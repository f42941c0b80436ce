//! Random tensor initialization with explicit, seedable RNGs.
//!
//! Every stochastic component of the reproduction takes an explicit
//! [`rand::rngs::StdRng`] so experiments are bit-reproducible.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

use crate::tensor::Tensor;

/// Weight-initialization schemes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Initializer {
    /// All zeros (used for biases).
    Zeros,
    /// Uniform on `[-a, a]`.
    Uniform(f32),
    /// Gaussian with given standard deviation.
    Normal(f32),
    /// Xavier/Glorot uniform: `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform { fan_in: usize, fan_out: usize },
    /// Kaiming/He normal for ReLU nets: `std = sqrt(2 / fan_in)`.
    KaimingNormal { fan_in: usize },
}

impl Initializer {
    /// Creates a tensor of shape `dims` initialized by this scheme.
    pub fn init<R: Rng>(&self, dims: &[usize], rng: &mut R) -> Tensor {
        let mut t = Tensor::zeros(dims);
        self.fill(&mut t, rng);
        t
    }

    /// Fills an existing tensor in place.
    pub fn fill<R: Rng>(&self, t: &mut Tensor, rng: &mut R) {
        match *self {
            Initializer::Zeros => t.fill(0.0),
            Initializer::Uniform(a) => {
                let d = Uniform::new_inclusive(-a, a);
                for v in t.data_mut() {
                    *v = d.sample(rng);
                }
            }
            Initializer::Normal(std) => {
                crate::fastmath::normal_fill(rng, t.data_mut());
                for v in t.data_mut() {
                    *v *= std;
                }
            }
            Initializer::XavierUniform { fan_in, fan_out } => {
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                Initializer::Uniform(a).fill(t, rng);
            }
            Initializer::KaimingNormal { fan_in } => {
                let std = (2.0 / fan_in as f32).sqrt();
                Initializer::Normal(std).fill(t, rng);
            }
        }
    }
}

/// One standard normal: [`crate::normal_fill`] of one element. A loop of
/// these draws the stream one fill of the loop's length would, slower; fill
/// a buffer where there is one.
pub fn normal_sample<R: Rng>(rng: &mut R) -> f32 {
    let mut x = [0.0];
    crate::fastmath::normal_fill(rng, &mut x);
    x[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_initializer() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Initializer::Zeros.init(&[4, 4], &mut rng);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Initializer::Uniform(0.5).init(&[1000], &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..=0.5).contains(&v)));
        // Not degenerate.
        assert!(t.data().iter().any(|&v| v.abs() > 0.1));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Initializer::Normal(2.0).init(&[20_000], &mut rng);
        let mean = t.data().iter().sum::<f32>() / t.numel() as f32;
        let var = t
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.numel() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Initializer::XavierUniform {
            fan_in: 600,
            fan_out: 600,
        }
        .init(&[1000], &mut rng);
        let bound = (6.0f32 / 1200.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= bound + 1e-6));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = Initializer::Normal(1.0).init(&[64], &mut StdRng::seed_from_u64(9));
        let b = Initializer::Normal(1.0).init(&[64], &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// FNV-1a over the bit patterns of the produced values.
    fn bit_hash(t: &Tensor) -> u64 {
        t.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// What the normal initializers produce, as bits: recorded before
    /// `normal_fill` fused its draws into its vector loop. 63 values leave a
    /// three-element tail behind the quads, 1,056 leave none.
    #[test]
    fn normal_initializer_fingerprints() {
        let got = [11, 12].map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let small = Initializer::Normal(0.5).init(&[7, 9], &mut rng);
            let large = Initializer::KaimingNormal { fan_in: 32 }.init(&[33, 32], &mut rng);
            (seed, bit_hash(&small), bit_hash(&large))
        });
        let recorded = [
            (11, 0x49f7_3b5a_f65a_6652, 0x2d1d_ed03_08b1_6ddc),
            (12, 0x334e_0e8d_29f0_5d77, 0x8fdc_28b1_ef68_808d),
        ];
        assert_eq!(got, recorded, "{got:#018x?}");
    }
}
