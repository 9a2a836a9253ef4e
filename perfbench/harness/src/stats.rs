//! Order statistics over host-time samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The tail of `xs` at the highest percentile that still has at least
/// ten samples beyond it: `(value, percentile, samples)`. With ten or
/// fewer samples no such percentile exists, and the maximum is reported
/// at the 100th.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s[n - 1], 100.0, n);
    }
    // Exactly ten samples lie above index n - 11.
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!(n, 40);
        assert_eq!(v, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(p, 75.0);
        assert_eq!(tail(&[2.0, 5.0, 1.0]), (5.0, 100.0, 3));
    }
}
