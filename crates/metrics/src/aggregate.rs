//! Aggregation across repeated runs (seeds).

/// Sample mean and (population) standard deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanStd {
    pub mean: f64,
    pub std: f64,
    pub n: usize,
}

impl MeanStd {
    /// Formats as the paper's `mean ± std` (in percent when `percent`).
    pub fn fmt_pm(&self, percent: bool) -> String {
        if percent {
            format!("{:.2} ± {:.2}", self.mean * 100.0, self.std * 100.0)
        } else {
            format!("{:.4} ± {:.4}", self.mean, self.std)
        }
    }
}

/// Mean and std of a sample.
///
/// # Panics
/// Panics on an empty slice.
pub fn mean_std(values: &[f64]) -> MeanStd {
    assert!(!values.is_empty(), "empty sample");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    MeanStd {
        mean,
        std: var.sqrt(),
        n: values.len(),
    }
}

/// `p`-th percentile (0–100) by linear interpolation on the sorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty());
    assert!((0.0..=100.0).contains(&p));
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let t = rank - lo as f64;
        v[lo] * (1.0 - t) + v[hi] * t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_of_constant_sample() {
        let m = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(m.mean, 2.0);
        assert_eq!(m.std, 0.0);
        assert_eq!(m.n, 3);
    }

    #[test]
    fn mean_std_known_values() {
        let m = mean_std(&[1.0, 3.0]);
        assert_eq!(m.mean, 2.0);
        assert_eq!(m.std, 1.0);
    }

    #[test]
    fn fmt_pm_matches_paper_style() {
        let m = mean_std(&[0.9707, 0.9707]);
        assert_eq!(m.fmt_pm(true), "97.07 ± 0.00");
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        mean_std(&[]);
    }
}
