//! Small descriptive-statistics helpers shared by the analysis and bench
//! crates.

/// Descriptive summary of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (P50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Inter-quartile range (P75 − P25).
    pub iqr: f64,
}

impl Summary {
    /// Computes the summary of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Summary {
            count,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
            iqr: percentile_sorted(&sorted, 75.0) - percentile_sorted(&sorted, 25.0),
        }
    }

    /// Coefficient of variation (`std / mean`), or 0 for a zero mean.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean
        }
    }
}

/// Percentile `p` (0–100) of `values`, with linear interpolation.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "cannot take percentile of empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Fraction of `values` strictly below `threshold`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn fraction_below(values: &[f64], threshold: f64) -> f64 {
    assert!(!values.is_empty(), "cannot take fraction of empty sample");
    values.iter().filter(|&&v| v < threshold).count() as f64 / values.len() as f64
}

/// Fraction of `values` strictly above `threshold`, in `[0, 1]`.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn fraction_above(values: &[f64], threshold: f64) -> f64 {
    assert!(!values.is_empty(), "cannot take fraction of empty sample");
    values.iter().filter(|&&v| v > threshold).count() as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_ramp() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert!((s.iqr - 49.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 15.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.0), 10.0);
        assert_eq!(percentile(&[10.0, 20.0], 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn fractions_count_strict_inequalities() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_below(&v, 3.0), 0.5);
        assert_eq!(fraction_above(&v, 3.0), 0.25);
    }

    #[test]
    fn cv_is_std_over_mean() {
        let s = Summary::of(&[9.0, 11.0]);
        assert!((s.cv() - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }
}
