//! Exact t-SNE (van der Maaten & Hinton, 2008).
//!
//! O(n²) per iteration — ample for the few hundred feature vectors Fig. 1
//! visualizes. Includes the standard tricks: per-point bandwidth calibrated
//! by binary search to a target perplexity, symmetrized `P`, early
//! exaggeration, and momentum gradient descent.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_tensor::{normal_fill, sq_dist_slices, Tensor};

/// t-SNE hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TsneConfig {
    pub perplexity: f64,
    pub iterations: usize,
    pub learning_rate: f64,
    pub early_exaggeration: f64,
    /// Iterations during which early exaggeration applies.
    pub exaggeration_iters: usize,
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            perplexity: 20.0,
            iterations: 300,
            learning_rate: 100.0,
            early_exaggeration: 4.0,
            exaggeration_iters: 50,
            seed: 0,
        }
    }
}

/// The t-SNE solver.
pub struct Tsne {
    cfg: TsneConfig,
}

impl Tsne {
    pub fn new(cfg: TsneConfig) -> Self {
        assert!(cfg.perplexity > 1.0 && cfg.iterations > 0);
        Tsne { cfg }
    }

    /// Embeds the rows of `x` (`[n, d]`) into 2-D; returns `[n, 2]`.
    pub fn embed(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 2, "expected [n, d] features");
        let n = x.dims()[0];
        assert!(n >= 5, "need at least 5 points");
        let p = self.joint_probabilities(x);
        self.optimize(n, &p)
    }

    /// Symmetrized joint probabilities `p_ij` (flattened row-major `n×n`).
    fn joint_probabilities(&self, x: &Tensor) -> Vec<f64> {
        let n = x.dims()[0];
        let d = x.dims()[1];
        let xd = x.data();
        // Pairwise squared distances.
        let mut dist = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = sq_dist_slices(&xd[i * d..(i + 1) * d], &xd[j * d..(j + 1) * d]) as f64;
                dist[i * n + j] = v;
                dist[j * n + i] = v;
            }
        }
        // Conditional p_{j|i} with per-point bandwidth by binary search on
        // perplexity.
        let target_h = self.cfg.perplexity.ln();
        let mut p = vec![0.0f64; n * n];
        for i in 0..n {
            let row = &dist[i * n..(i + 1) * n];
            let (mut beta, mut beta_lo, mut beta_hi) = (1.0f64, 0.0f64, f64::INFINITY);
            for _ in 0..50 {
                // Entropy at this beta.
                let mut sum = 0.0f64;
                let mut sum_dp = 0.0f64;
                for (j, &dij) in row.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let e = (-dij * beta).exp();
                    sum += e;
                    sum_dp += dij * e;
                }
                if sum <= 0.0 {
                    break;
                }
                let h = sum.ln() + beta * sum_dp / sum;
                if (h - target_h).abs() < 1e-5 {
                    break;
                }
                if h > target_h {
                    beta_lo = beta;
                    beta = if beta_hi.is_finite() {
                        (beta + beta_hi) / 2.0
                    } else {
                        beta * 2.0
                    };
                } else {
                    beta_hi = beta;
                    beta = (beta + beta_lo) / 2.0;
                }
            }
            let mut sum = 0.0f64;
            for (j, &dij) in row.iter().enumerate() {
                if j != i {
                    let e = (-dij * beta).exp();
                    p[i * n + j] = e;
                    sum += e;
                }
            }
            if sum > 0.0 {
                for j in 0..n {
                    p[i * n + j] /= sum;
                }
            }
        }
        // Symmetrize and normalize.
        let mut joint = vec![0.0f64; n * n];
        let mut total = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let v = (p[i * n + j] + p[j * n + i]) / (2.0 * n as f64);
                joint[i * n + j] = v;
                total += v;
            }
        }
        for v in &mut joint {
            *v = (*v / total).max(1e-12);
        }
        joint
    }

    fn optimize(&self, n: usize, p: &[f64]) -> Tensor {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut start = vec![0.0f32; n * 2];
        normal_fill(&mut rng, &mut start);
        let mut y: Vec<f64> = start.iter().map(|&z| 1e-2 * z as f64).collect();
        let mut vel = vec![0.0f64; n * 2];
        let mut q = vec![0.0f64; n * n];

        for it in 0..self.cfg.iterations {
            let exaggeration = if it < self.cfg.exaggeration_iters {
                self.cfg.early_exaggeration
            } else {
                1.0
            };
            // Student-t affinities.
            let mut qsum = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    let dx = y[2 * i] - y[2 * j];
                    let dy = y[2 * i + 1] - y[2 * j + 1];
                    let w = 1.0 / (1.0 + dx * dx + dy * dy);
                    q[i * n + j] = w;
                    q[j * n + i] = w;
                    qsum += 2.0 * w;
                }
            }
            let momentum = if it < 100 { 0.5 } else { 0.8 };
            for i in 0..n {
                let (mut gx, mut gy) = (0.0f64, 0.0f64);
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let w = q[i * n + j];
                    let coeff = (exaggeration * p[i * n + j] - w / qsum) * w;
                    gx += coeff * (y[2 * i] - y[2 * j]);
                    gy += coeff * (y[2 * i + 1] - y[2 * j + 1]);
                }
                gx *= 4.0;
                gy *= 4.0;
                vel[2 * i] = momentum * vel[2 * i] - self.cfg.learning_rate * gx;
                vel[2 * i + 1] = momentum * vel[2 * i + 1] - self.cfg.learning_rate * gy;
                y[2 * i] += vel[2 * i];
                y[2 * i + 1] += vel[2 * i + 1];
            }
            // Re-center.
            let (mx, my) = (
                y.iter().step_by(2).sum::<f64>() / n as f64,
                y.iter().skip(1).step_by(2).sum::<f64>() / n as f64,
            );
            for i in 0..n {
                y[2 * i] -= mx;
                y[2 * i + 1] -= my;
            }
        }
        Tensor::from_vec(y.iter().map(|&v| v as f32).collect(), &[n, 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rfl_tensor::normal_sample;

    /// Two well-separated Gaussian blobs must remain separated in 2-D.
    #[test]
    fn separates_two_blobs() {
        let mut rng = StdRng::seed_from_u64(0);
        let n_per = 30usize;
        let d = 10usize;
        let mut x = Tensor::zeros(&[2 * n_per, d]);
        for i in 0..2 * n_per {
            let offset = if i < n_per { -10.0 } else { 10.0 };
            for j in 0..d {
                *x.at_mut(&[i, j]) = offset + normal_sample(&mut rng);
            }
        }
        let cfg = TsneConfig {
            iterations: 200,
            ..TsneConfig::default()
        };
        let y = Tsne::new(cfg).embed(&x);
        assert!(y.is_finite());
        // Centroid distance must exceed mean within-cluster spread.
        let centroid = |range: std::ops::Range<usize>| -> (f64, f64) {
            let mut cx = 0.0;
            let mut cy = 0.0;
            for i in range.clone() {
                cx += y.at(&[i, 0]) as f64;
                cy += y.at(&[i, 1]) as f64;
            }
            (cx / range.len() as f64, cy / range.len() as f64)
        };
        let (ax, ay) = centroid(0..n_per);
        let (bx, by) = centroid(n_per..2 * n_per);
        let between = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        let mut within = 0.0;
        for i in 0..n_per {
            within +=
                ((y.at(&[i, 0]) as f64 - ax).powi(2) + (y.at(&[i, 1]) as f64 - ay).powi(2)).sqrt();
        }
        within /= n_per as f64;
        assert!(between > 2.0 * within, "between {between} within {within}");
    }

    #[test]
    fn output_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::from_vec(
            (0..20 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            &[20, 4],
        );
        let cfg = TsneConfig {
            iterations: 50,
            ..TsneConfig::default()
        };
        let a = Tsne::new(cfg).embed(&x);
        let b = Tsne::new(cfg).embed(&x);
        assert_eq!(a.dims(), &[20, 2]);
        assert_eq!(a, b, "same seed must give the same embedding");
    }

    #[test]
    fn joint_probabilities_are_a_distribution() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::from_vec(
            (0..12 * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            &[12, 3],
        );
        let t = Tsne::new(TsneConfig::default());
        let p = t.joint_probabilities(&x);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        // Symmetry.
        for i in 0..12 {
            for j in 0..12 {
                assert!((p[i * 12 + j] - p[j * 12 + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 5")]
    fn rejects_tiny_inputs() {
        Tsne::new(TsneConfig::default()).embed(&Tensor::zeros(&[3, 2]));
    }
}
