//! Differentially private release of δ maps (Sec. VI-B.8).
//!
//! Following the paper's privacy evaluation (after Abadi et al.), the client
//! clips its δ to L2 norm `c0` and adds Gaussian noise scaled by the batch
//! size: `δ̃ ← clip(δ) + (1/L)·N(0, σ₂²·c0²·I)`.

use rand::Rng;
use rfl_tensor::normal_fill;

/// Configuration of the Gaussian mechanism on δ.
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// Noise multiplier σ₂ (0 disables noise but still clips).
    pub sigma: f32,
    /// Clipping constant C₀.
    pub clip: f32,
    /// Batch size L used to scale the noise.
    pub batch: usize,
}

impl DpConfig {
    pub fn new(sigma: f32, clip: f32, batch: usize) -> Self {
        assert!(sigma >= 0.0 && clip > 0.0 && batch > 0);
        DpConfig { sigma, clip, batch }
    }
}

/// Clips `delta` to L2 norm `clip` in place; returns the pre-clip norm.
pub fn clip_l2(delta: &mut [f32], clip: f32) -> f32 {
    let norm = delta.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > clip {
        let s = clip / norm;
        for v in delta.iter_mut() {
            *v *= s;
        }
    }
    norm
}

/// Applies the Gaussian mechanism to a δ map in place. The noise is drawn
/// in 64-float blocks on the stack, in coordinate order.
pub fn privatize_delta<R: Rng>(delta: &mut [f32], cfg: DpConfig, rng: &mut R) {
    clip_l2(delta, cfg.clip);
    if cfg.sigma == 0.0 {
        return;
    }
    let std = cfg.sigma * cfg.clip / cfg.batch as f32;
    let mut noise = [0.0f32; 64];
    for block in delta.chunks_mut(noise.len()) {
        let noise = &mut noise[..block.len()];
        normal_fill(rng, noise);
        for (v, &z) in block.iter_mut().zip(noise.iter()) {
            *v += std * z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clip_is_noop_inside_ball() {
        let mut d = vec![0.3, 0.4]; // norm 0.5
        let pre = clip_l2(&mut d, 1.0);
        assert!((pre - 0.5).abs() < 1e-6);
        assert_eq!(d, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_projects_onto_ball() {
        let mut d = vec![3.0, 4.0]; // norm 5
        clip_l2(&mut d, 1.0);
        let norm = (d[0] * d[0] + d[1] * d[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        // Direction preserved.
        assert!((d[1] / d[0] - 4.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn zero_sigma_only_clips() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = vec![3.0, 4.0];
        privatize_delta(&mut d, DpConfig::new(0.0, 10.0, 32), &mut rng);
        assert_eq!(d, vec![3.0, 4.0]);
    }

    #[test]
    fn noise_std_scales_with_sigma_over_batch() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000usize;
        let mut d = vec![0.0f32; n];
        let cfg = DpConfig::new(5.0, 2.0, 10);
        privatize_delta(&mut d, cfg, &mut rng);
        let mean = d.iter().sum::<f32>() / n as f32;
        let var = d.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let expected_std = 5.0 * 2.0 / 10.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(
            (var.sqrt() - expected_std).abs() < 0.05,
            "std {} vs {expected_std}",
            var.sqrt()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = DpConfig::new(1.0, 1.0, 4);
        let mut a = vec![0.5, 0.5];
        let mut b = vec![0.5, 0.5];
        privatize_delta(&mut a, cfg, &mut StdRng::seed_from_u64(2));
        privatize_delta(&mut b, cfg, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
    }

    /// A δ map of 150 coordinates (two 64-float blocks and a tail) clipped
    /// and noised at σ = 0.8, as bits with the generator's next word:
    /// recorded while every coordinate drew its own `normal_sample`.
    #[test]
    fn privatize_delta_fingerprints() {
        use rand::RngCore;
        let cfg = DpConfig::new(0.8, 1.5, 4);
        let got = [21, 22].map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d: Vec<f32> = (0..150).map(|i| (i as f32 * 0.37).sin()).collect();
            privatize_delta(&mut d, cfg, &mut rng);
            let words = d.iter().map(|v| v.to_bits() as u64).chain([rng.next_u64()]);
            // FNV-1a over the bit patterns.
            let hash = words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (seed, hash)
        });
        let recorded = [(21, 0x05e1_5ae1_001d_5e43), (22, 0xbae1_da1e_5744_dc48)];
        assert_eq!(got, recorded, "{got:#018x?}");
    }
}
