//! The benchmark's own arithmetic: medians, tail percentiles, geometric
//! means and failure tallies. Every reported summary goes through here, so
//! the unit tests below pin the rules the README states.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (the mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending sample: the
/// smallest value with at least `p`% of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile (at most 99) that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond its nearest-rank value, or
/// `None` when that is below the median. p99 therefore needs 1000 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    // n - ceil(p·n/100) ≥ 10  ⇔  p ≤ 100·(n − 10)/n.
    let p = (100 * (n - TAIL_SAMPLES) / n).min(99) as u32;
    (p >= 50).then_some(p)
}

/// The p99 of an ascending sample, only when [`tail_percentile`] allows
/// it (at least 1000 samples).
pub fn p99(sorted: &[f64]) -> Option<f64> {
    (tail_percentile(sorted.len()) == Some(99)).then(|| percentile(sorted, 99.0))
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Attempted and failed operations: the numerator and denominator of
/// `error_rate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started in the timed phase.
    pub attempted: u64,
    /// Of those, operations whose result failed any check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and whether it passed every check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(50_000), Some(99));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap() as f64;
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n} p={p}: only {} beyond", n - rank);
        }
    }

    #[test]
    fn no_p99_below_a_thousand_samples() {
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&small), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&big), Some(990.0));
        assert_eq!(big.len() - 990, TAIL_SAMPLES);
    }

    #[test]
    fn geomean_of_known_values() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, false, true, true, false, true, true, true] {
            t.record(ok);
        }
        assert_eq!(t, Tally { attempted: 8, failed: 2 });
        assert_eq!(t.error_rate(), 0.25);
    }
}
