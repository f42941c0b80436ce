//! Named (x, y) series — the unit the figure binaries emit.

use std::fmt::Write as _;

/// A named curve, e.g. one algorithm's accuracy over rounds.
#[derive(Clone, Debug, Default)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn from_points(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// CSV with one `x` column and one column per series (missing values blank).
/// Series are sampled by position, which matches the equal-round curves the
/// experiment binaries produce.
pub fn series_to_csv(series: &[Series]) -> String {
    let mut out = String::from("x");
    for s in series {
        let _ = write!(out, ",{}", s.name);
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.0))
            .unwrap_or(i as f64);
        let _ = write!(out, "{x}");
        for s in series {
            match s.points.get(i) {
                Some(p) => {
                    let _ = write!(out, ",{:.6}", p.1);
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_appends_points_in_order() {
        let mut s = Series::new("acc");
        s.push(0.0, 0.5);
        s.push(1.0, 0.9);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points, [(0.0, 0.5), (1.0, 0.9)]);
    }

    #[test]
    fn csv_layout() {
        let a = Series::from_points("a", vec![(0.0, 1.0), (1.0, 2.0)]);
        let b = Series::from_points("b", vec![(0.0, 3.0)]);
        let csv = series_to_csv(&[a, b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert!(lines[1].starts_with("0,1.000000,3.000000"));
        assert!(lines[2].ends_with(','), "missing value must be blank");
    }
}
