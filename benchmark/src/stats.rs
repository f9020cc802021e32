//! Order statistics for wall-clock samples.

/// Samples that must lie strictly beyond a reported percentile, so that
/// one scheduling hiccup cannot own it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `1..=100`.
pub fn nearest_rank(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let rank = (pct * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - (pct * n).div_ceil(100)
}

/// The nearest-rank `pct` percentile, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], pct: usize) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || beyond(n, pct) < MIN_BEYOND {
        return Err(format!(
            "p{pct} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {}",
            if n == 0 { 0 } else { beyond(n, pct) }
        ));
    }
    Ok(nearest_rank(sorted, pct))
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads match what an outside checker computes.
///
/// Returns `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), 5.0);
        assert_eq!(nearest_rank(&v, 90), 9.0);
        assert_eq!(nearest_rank(&v, 91), 10.0);
        assert_eq!(nearest_rank(&v, 100), 10.0);
        assert_eq!(nearest_rank(&v, 1), 1.0);
        assert_eq!(nearest_rank(&[4.0], 50), 4.0);
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 90), 90.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let ok: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(tail_percentile(&ok, 90), Ok(89.0));
        let short: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(beyond(99, 90), 9);
        assert!(tail_percentile(&short, 90).is_err());
        assert!(tail_percentile(&[], 90).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
