//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still has at least ten samples
/// above it, with its value: the sample with exactly ten larger ones
/// sits at percentile `floor(100 · (n − 10) / n)`. `None` with fewer
/// than eleven samples, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some(((100 * (n - 10) / n) as u32, v[k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Ten samples (11..=20) lie above the 10th value: percentile 50.
        assert_eq!(tail(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90, 90.0)));
    }
}
