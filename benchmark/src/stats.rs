//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has run at least one iteration.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same "exclusive" rule as Python's
/// `statistics.quantiles(xs, n=4)`, which is what the acceptance check of
/// the benchmark contract uses.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, clamped to the sample range.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` when ten or fewer samples exist, in
/// which case no tail statistic is trustworthy and only the median is
/// reported.
pub fn high_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let below = s.len().checked_sub(10).filter(|k| *k > 0)?;
    Some((100.0 * below as f64 / s.len() as f64, s[below - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let n = |k: usize| (1..=k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(
            high_percentile(&n(10)),
            None,
            "nothing lies beyond ten of ten"
        );
        // 11 samples: only the lowest has ten beyond it.
        assert_eq!(high_percentile(&n(11)), Some((100.0 / 11.0, 1.0)));
        // 30 samples: the 20th value has exactly ten beyond it.
        assert_eq!(high_percentile(&n(30)), Some((100.0 * 20.0 / 30.0, 20.0)));
        // 1000 samples: p99.
        assert_eq!(high_percentile(&n(1000)), Some((99.0, 990.0)));
    }
}
