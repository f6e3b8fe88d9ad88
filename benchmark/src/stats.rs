//! Order statistics for the reported numbers: medians, the tail
//! percentile a sample supports, and the quartile spread the
//! acceptance rule is stated in.

/// The samples sorted ascending (NaN-free by construction: every sample
/// is an elapsed time or a count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
/// Panics on an empty sample: a metric with no samples is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of the `permille`-th percentile
/// among `n` samples, in integer arithmetic: `ceil(n * permille / 1000)`.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// The percentile at `permille` (900 = p90) by the nearest-rank rule.
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    sorted(samples)[rank(samples.len(), permille) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 that has at least ten samples
/// beyond it, as `(percent, value)`; `None` when the sample only
/// supports a median (fewer than 100 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [999, 990, 950, 900]
        .into_iter()
        .find(|&permille| samples.len() >= rank(samples.len().max(1), permille) + 10)
        .map(|permille| (permille as f64 / 10.0, percentile(samples, permille)))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, which is what the acceptance rule is computed with. Needs at
/// least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let v = sorted(samples);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is judged against.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&v[..7], 900), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let n = |len: usize| (0..len).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&[]), None);
        assert_eq!(tail_percentile(&n(99)), None);
        assert_eq!(tail_percentile(&n(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&n(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&n(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail_percentile(&n(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail_percentile(&n(10_000)).map(|t| t.0), Some(99.9));
        // 1000 samples 0..999: p99 by nearest rank is the 990th, 989.
        assert_eq!(tail_percentile(&n(1000)), Some((99.0, 989.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
