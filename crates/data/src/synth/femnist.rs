//! FEMNIST-like generator: 62-class images with per-writer style distortion
//! and quantity skew.
//!
//! FEMNIST federates Extended-MNIST by *writer*; different writers render
//! the same character differently. We reproduce this as a per-writer affine
//! style (translation + shear + stroke-intensity scale) applied to the class
//! prototype before noise — a natural *feature-distribution* skew, combined
//! with power-law *quantity* skew over writers.

use crate::dataset::{Dataset, Examples};
use crate::synth::image::SynthImageSpec;
use rand::Rng;
use rfl_tensor::{normal_fill, Tensor};

/// Specification of the FEMNIST-like benchmark.
#[derive(Clone, Copy, Debug)]
pub struct FemnistSpec {
    pub classes: usize,
    pub size: usize,
    pub noise_std: f32,
    /// Maximum per-writer translation in pixels.
    pub max_shift: i32,
    /// Maximum per-writer shear factor.
    pub max_shear: f32,
    /// Power-law exponent for writer sample counts.
    pub quantity_gamma: f64,
    pub proto_seed: u64,
}

impl FemnistSpec {
    pub fn default_spec() -> Self {
        FemnistSpec {
            classes: 62,
            size: 16,
            noise_std: 0.45,
            max_shift: 2,
            max_shear: 0.35,
            quantity_gamma: 1.0,
            proto_seed: 44,
        }
    }

    fn image_spec(&self) -> SynthImageSpec {
        SynthImageSpec {
            classes: self.classes,
            channels: 1,
            size: self.size,
            noise_std: self.noise_std,
            class_sep: 1.0,
            jitter: 0.0,
            proto_seed: self.proto_seed,
        }
    }

    /// A writer's style, drawn once per writer.
    fn writer_style<R: Rng>(&self, rng: &mut R) -> WriterStyle {
        WriterStyle {
            dx: rng.gen_range(-self.max_shift..=self.max_shift),
            dy: rng.gen_range(-self.max_shift..=self.max_shift),
            shear: rng.gen_range(-self.max_shear..=self.max_shear),
            intensity: rng.gen_range(0.7..1.3),
        }
    }

    /// Generates `total` samples over `writers` writers.
    ///
    /// Returns the pooled dataset together with the writer (user) id of each
    /// sample, ready for [`crate::partition::by_user`].
    pub fn generate_writers<R: Rng>(
        &self,
        writers: usize,
        total: usize,
        rng: &mut R,
    ) -> (Dataset, Vec<usize>) {
        assert!(writers > 0 && total >= writers);
        let protos = self.image_spec().prototypes();
        let px = self.size * self.size;

        // Power-law writer sizes (same largest-remainder allocation as
        // partition::quantity_skew, but sizes belong to the generator here).
        let weights: Vec<f64> = (0..writers)
            .map(|k| ((k + 1) as f64).powf(-self.quantity_gamma))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let spare = total - writers;
        let mut sizes: Vec<usize> = weights
            .iter()
            .map(|w| (w / wsum * spare as f64).floor() as usize + 1)
            .collect();
        let mut assigned: usize = sizes.iter().sum();
        let mut k = 0;
        while assigned < total {
            sizes[k % writers] += 1;
            assigned += 1;
            k += 1;
        }
        while assigned > total {
            let i = sizes
                .iter()
                .position(|&s| s > 1)
                .expect("shrinkable writer");
            sizes[i] -= 1;
            assigned -= 1;
        }

        let mut x = Tensor::zeros(&[total, 1, self.size, self.size]);
        let mut labels = Vec::with_capacity(total);
        let mut users = Vec::with_capacity(total);
        let mut row = 0usize;
        for (writer, &count) in sizes.iter().enumerate() {
            let style = self.writer_style(rng);
            for _ in 0..count {
                let y = rng.gen_range(0..self.classes);
                labels.push(y);
                users.push(writer);
                let proto = &protos.data()[y * px..(y + 1) * px];
                let styled = style.apply(proto, self.size);
                let dst = &mut x.data_mut()[row * px..(row + 1) * px];
                normal_fill(rng, dst);
                for (d, &p) in dst.iter_mut().zip(&styled) {
                    *d = p + self.noise_std * *d;
                }
                row += 1;
            }
        }
        (
            Dataset::new(Examples::Images(x), labels, self.classes),
            users,
        )
    }
}

/// A writer's rendering style.
#[derive(Clone, Copy, Debug)]
struct WriterStyle {
    dx: i32,
    dy: i32,
    shear: f32,
    intensity: f32,
}

impl WriterStyle {
    /// Applies shear + translation (nearest-neighbour resample) and
    /// intensity scaling to a `size × size` image.
    fn apply(&self, img: &[f32], size: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; size * size];
        let c = size as f32 / 2.0;
        for y in 0..size {
            for x in 0..size {
                // Inverse map: source = shear^-1(translate^-1(dest)).
                let ty = y as i32 - self.dy;
                let tx_f = x as f32 - self.dx as f32 - self.shear * (y as f32 - c);
                let tx = tx_f.round() as i32;
                if ty >= 0 && (ty as usize) < size && tx >= 0 && (tx as usize) < size {
                    out[y * size + x] = self.intensity * img[ty as usize * size + tx as usize];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_total_and_user_ids() {
        let mut rng = StdRng::seed_from_u64(0);
        let (ds, users) = FemnistSpec::default_spec().generate_writers(20, 300, &mut rng);
        assert_eq!(ds.len(), 300);
        assert_eq!(users.len(), 300);
        assert!(users.iter().all(|&u| u < 20));
        // Every writer produced at least one sample.
        let parts = partition::by_user(&users);
        assert_eq!(parts.len(), 20);
        assert!(partition::is_valid_partition(&parts, 300));
    }

    #[test]
    fn quantity_skew_is_present() {
        let mut rng = StdRng::seed_from_u64(1);
        let (_, users) = FemnistSpec::default_spec().generate_writers(20, 1000, &mut rng);
        let parts = partition::by_user(&users);
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        assert!(max >= 3 * min, "max {max} min {min}");
    }

    #[test]
    fn style_identity_is_noop() {
        let style = WriterStyle {
            dx: 0,
            dy: 0,
            shear: 0.0,
            intensity: 1.0,
        };
        let img: Vec<f32> = (0..16).map(|v| v as f32).collect();
        assert_eq!(style.apply(&img, 4), img);
    }

    #[test]
    fn translation_moves_pixels() {
        let style = WriterStyle {
            dx: 1,
            dy: 0,
            shear: 0.0,
            intensity: 1.0,
        };
        let mut img = vec![0.0f32; 16];
        img[0] = 5.0; // pixel (0,0)
        let out = style.apply(&img, 4);
        assert_eq!(out[1], 5.0); // moved to (0,1)
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn labels_span_62_classes() {
        let mut rng = StdRng::seed_from_u64(2);
        let (ds, _) = FemnistSpec::default_spec().generate_writers(10, 3000, &mut rng);
        let counts = ds.class_counts();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonzero > 55, "only {nonzero} classes present");
    }
}
