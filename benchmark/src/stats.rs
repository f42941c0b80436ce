//! Order statistics for timing samples: median, quartiles, and the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles a tail may be reported at, ascending, in tenths of a percent
/// (integers, so that "ten samples beyond" is an exact count).
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];
/// A tail percentile is only reported with this many samples beyond it;
/// fewer and the figure is one or two outliers, not a percentile.
const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// Median (mean of the two middle samples for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), which is what
/// the acceptance run uses to compute spreads. Needs two samples; a single
/// sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based axis, clamped into the samples.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest ladder percentile with at least ten samples beyond it and its
/// nearest-rank value; `None` below twenty samples, where even the median
/// does not qualify.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    // Nearest rank of percentile p is ⌈p·n⌉; the samples beyond it are the
    // n − rank larger ones.
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    let permille = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n >= rank(p) + MIN_BEYOND)?;
    Some((permille as f64 / 10.0, v[rank(permille) - 1]))
}

/// Everything the report prints about one timing metric.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
            tail: tail(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 40 samples: p75 leaves exactly ten beyond (31..=40).
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 160 samples: p90 leaves 16, p95 would leave 8.
        assert_eq!(tail(&ramp(160)), Some((90.0, 144.0)));
        assert_eq!(tail(&ramp(300)), Some((95.0, 285.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn summary_collects_all_of_them() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 40);
        assert_eq!(s.median, 20.5);
        assert!(s.q1 < s.median && s.median < s.q3);
        assert_eq!(s.tail, Some((75.0, 30.0)));
    }
}
