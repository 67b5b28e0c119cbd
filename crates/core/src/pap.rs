//! Pushes-after-pull (PAP) analysis — the empirical study behind the
//! paper's Fig. 3.
//!
//! For every pull a worker makes, asynchrony hides the pushes other workers
//! make *after* that pull until the worker's next pull. Fig. 3 divides the
//! time after each pull into 1-second intervals and plots the distribution
//! (box plot: p5/p25/p50/p75/p95) of the number of hidden pushes per
//! interval.

use serde::{Deserialize, Serialize};
use specsync_simnet::{SimDuration, WorkerId};

use crate::history::PushHistory;

/// Box-plot summary statistics of one interval's PAP counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
}

impl BoxStats {
    /// Computes box statistics from raw counts.
    ///
    /// Uses linear interpolation between order statistics. Returns `None`
    /// for an empty sample.
    pub fn from_counts(counts: &[u64]) -> Option<BoxStats> {
        if counts.is_empty() {
            return None;
        }
        let mut sorted: Vec<u64> = counts.to_vec();
        sorted.sort_unstable();
        let q = |p: f64| -> f64 {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        };
        Some(BoxStats {
            p5: q(0.05),
            p25: q(0.25),
            p50: q(0.50),
            p75: q(0.75),
            p95: q(0.95),
        })
    }
}

/// The PAP distribution per post-pull interval (Fig. 3's x-axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PapDistribution {
    /// Interval width.
    pub interval: SimDuration,
    /// `stats[k]` summarizes the number of pushes received in
    /// `(pull + k·interval, pull + (k+1)·interval]` across all pulls.
    pub stats: Vec<BoxStats>,
    /// Raw per-interval sample counts (number of pulls contributing).
    pub samples_per_interval: usize,
}

/// Computes the PAP distribution from a push/pull history.
///
/// For each pull in the history (by any worker), counts pushes
/// by *other* workers in each of `num_intervals` consecutive windows of
/// `interval` after the pull. Pulls too close to the end of the trace to
/// cover all intervals are skipped, so every interval has the same sample
/// count.
///
/// # Panics
///
/// Panics if `num_intervals == 0` or `interval` is zero.
pub fn pap_distribution(
    history: &PushHistory,
    interval: SimDuration,
    num_intervals: usize,
) -> PapDistribution {
    assert!(num_intervals > 0, "need at least one interval");
    assert!(!interval.is_zero(), "interval must be positive");

    let horizon = interval * num_intervals as u64;
    let last_push = history.pushes().last().map(|p| p.time);
    let mut per_interval: Vec<Vec<u64>> = vec![Vec::new(); num_intervals];
    for pull in history.pulls() {
        // Skip pulls whose full horizon extends past the recorded trace.
        match last_push {
            Some(end) if pull.time + horizon <= end => {}
            _ => continue,
        }
        for (k, bucket) in per_interval.iter_mut().enumerate() {
            let start = pull.time + interval * k as u64;
            bucket.push(history.pushes_by_others_in(pull.worker, start, interval));
        }
    }
    let samples = per_interval[0].len();
    let stats = per_interval
        .iter()
        .map(|c| {
            BoxStats::from_counts(c).unwrap_or(BoxStats {
                p5: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
                p95: 0.0,
            })
        })
        .collect();
    PapDistribution {
        interval,
        stats,
        samples_per_interval: samples,
    }
}

/// Convenience: a synthetic uniform-arrival history for testing and
/// calibration — `m` workers, each pulling every `span` seconds with evenly
/// spread phases and pushing just before the next pull.
pub fn uniform_trace(m: usize, span: f64, rounds: usize) -> PushHistory {
    let mut events: Vec<(f64, WorkerId, bool)> = Vec::new();
    for r in 0..rounds {
        for i in 0..m {
            let phase = r as f64 * span + i as f64 * span / m as f64;
            events.push((phase, WorkerId::new(i), false));
            events.push((phase + span * 0.999, WorkerId::new(i), true));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut h = PushHistory::new();
    for (time, worker, is_push) in events {
        let vt = specsync_simnet::VirtualTime::from_secs_f64(time);
        if is_push {
            h.record_push(vt, worker);
        } else {
            h.record_pull(vt, worker);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_of_constant_sample_collapse() {
        let s = BoxStats::from_counts(&[3, 3, 3, 3]).unwrap();
        assert_eq!(s.p5, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 3.0);
    }

    #[test]
    fn box_stats_interpolate() {
        let s = BoxStats::from_counts(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p25, 1.0);
        assert_eq!(s.p75, 3.0);
        assert!((s.p5 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_has_no_stats() {
        assert!(BoxStats::from_counts(&[]).is_none());
    }

    #[test]
    fn uniform_trace_yields_flat_pap_distribution() {
        // 10 workers, 10-second iterations, uniform phases: every 1-second
        // interval after a pull should see ≈1 push from others.
        let h = uniform_trace(10, 10.0, 6);
        let d = pap_distribution(&h, SimDuration::from_secs(1), 5);
        assert_eq!(d.stats.len(), 5);
        assert!(d.samples_per_interval > 10);
        for (k, s) in d.stats.iter().enumerate() {
            assert!(
                (0.0..=2.0).contains(&s.p50),
                "interval {k} median {} should be ≈1",
                s.p50
            );
        }
        // Means across intervals should be similar (uniform arrivals).
        let medians: Vec<f64> = d.stats.iter().map(|s| s.p50).collect();
        let max = medians.iter().cloned().fold(f64::MIN, f64::max);
        let min = medians.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min <= 1.0, "medians vary too much: {medians:?}");
    }

    #[test]
    fn pulls_near_trace_end_are_skipped() {
        let h = uniform_trace(4, 4.0, 2);
        let d = pap_distribution(&h, SimDuration::from_secs(1), 4);
        // All remaining samples counted the same number of pulls.
        assert!(d.samples_per_interval < h.pulls().len());
    }
}
