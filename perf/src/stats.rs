//! Order statistics over latency samples.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [90.0, 95.0, 99.0, 99.9, 99.99, 99.999];

/// A tail is reported only where this many samples lie beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Sorts `samples` and returns them; NaN never occurs (all are measured
/// durations or counts).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest rank of the `pct`-th percentile among `n` samples:
/// `ceil(pct / 100 * n)`, in whole numbers. In floating point
/// `99.9 / 100.0 * 10_000.0` is a hair above 9 990 and would round up to
/// the wrong rank. `pct` has at most three decimals.
fn nearest_rank(n: usize, pct: f64) -> usize {
    let per_100k = (pct * 1_000.0).round() as u128;
    (per_100k * n as u128).div_ceil(100_000) as usize
}

/// The `pct`-th percentile (nearest rank) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(ascending: &[f64], pct: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of no samples");
    ascending[nearest_rank(ascending.len(), pct).clamp(1, ascending.len()) - 1]
}

/// Median of unsorted samples; the mean of the two middle values when the
/// count is even, so a median of medians stays unbiased.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest ladder percentile with at least ten samples beyond it among
/// `n` samples, or `None` when even p90 has fewer (n < 100).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|pct| samples_beyond(n, *pct) >= TAIL_MIN_BEYOND)
}

/// Samples strictly above the nearest-rank `pct`-th percentile of `n`.
fn samples_beyond(n: usize, pct: f64) -> usize {
    n - nearest_rank(n, pct).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None, "p90 of 99 leaves 9 beyond");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0), "p95 of 199 leaves 9");
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
