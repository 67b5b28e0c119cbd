//! Hyperparameter tuning: the paper's Algorithm 1 (adaptive). Table II's
//! grid-search baseline (cherrypick) is priced inline by `run_all`.

use serde::{Deserialize, Serialize};
use specsync_simnet::SimDuration;

use crate::estimator::{estimate_realized_improvement, EpochView};
use crate::history::PushHistory;
use crate::hyper::Hyperparams;

/// Algorithm 1: adaptive tuning of `ABORT_TIME` and `ABORT_RATE` from the
/// previous epoch's push history.
///
/// Candidate `Δ` values are the pairwise time differences between pushes in
/// the last epoch (the objective, a sum of step functions minus a linear
/// term, attains its maximum when the window right-aligns with a push).
/// The candidate set is capped to keep tuning O(milliseconds) even on long
/// epochs — the cap subsamples evenly, preserving coverage of the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptiveTuner {
    max_candidates: usize,
    window_epochs: usize,
}

impl Default for AdaptiveTuner {
    fn default() -> Self {
        Self::new(400, 4)
    }
}

impl AdaptiveTuner {
    /// Creates a tuner evaluating at most `max_candidates` window widths on
    /// the last `window_epochs` closed epochs of history.
    ///
    /// The paper's Algorithm 1 uses exactly one epoch; a slightly longer
    /// window averages out the integer noise of single-pull gain samples
    /// and is covered by the same stability assumption (§IV-B).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(max_candidates: usize, window_epochs: usize) -> Self {
        assert!(max_candidates > 0, "need at least one candidate");
        assert!(window_epochs > 0, "need at least one epoch of history");
        AdaptiveTuner {
            max_candidates,
            window_epochs,
        }
    }

    /// The tuner's lookback in closed epochs — the minimum history
    /// retention that keeps adaptive tuning exact.
    pub fn window_epochs(&self) -> usize {
        self.window_epochs
    }

    /// Enumerates candidate windows from the last closed epoch: the sorted,
    /// deduplicated pairwise differences of push timestamps.
    ///
    /// Streaming enumeration: instead of materializing the whole window,
    /// the sampler fetches only `O(√max_candidates)` pushes by absolute
    /// sequence number ([`PushHistory::push_at`]), so each epoch's pass
    /// costs `O(max_candidates)` regardless of how many pushes the window
    /// holds. The sampled indices (and therefore the candidate set) are
    /// identical to the seed's collect-then-subsample enumeration.
    pub fn candidate_windows(&self, history: &PushHistory) -> Vec<SimDuration> {
        let Some((start_seq, end_seq)) = history.recent_epoch_seq_range(self.window_epochs) else {
            return Vec::new();
        };
        let len = (end_seq - start_seq) as usize;
        if len < 2 {
            return Vec::new();
        }
        let mut diffs: Vec<u64> = Vec::new();
        // Cap the quadratic enumeration: subsample the push list first if
        // its pair count would exceed the candidate budget by too much.
        let max_pushes = (2.0 * (self.max_candidates as f64)).sqrt().ceil() as usize + 2;
        let stride = len.div_ceil(max_pushes).max(1);
        let sampled: Vec<u64> = (start_seq..end_seq)
            .step_by(stride)
            .filter_map(|seq| history.push_at(seq))
            .map(|p| p.time.as_micros())
            .collect();
        for i in 0..sampled.len() {
            for j in (i + 1)..sampled.len() {
                let d = sampled[j] - sampled[i];
                if d > 0 {
                    diffs.push(d);
                }
            }
        }
        diffs.sort_unstable();
        diffs.dedup();
        if diffs.len() > self.max_candidates {
            let stride = diffs.len().div_ceil(self.max_candidates);
            diffs = diffs.into_iter().step_by(stride).collect();
        }
        diffs.into_iter().map(SimDuration::from_micros).collect()
    }

    /// Runs Algorithm 1: returns the tuned hyperparameters, or `None` when
    /// the history is too thin to tune (fewer than two pushes in the last
    /// epoch) or no candidate yields a positive estimated improvement.
    pub fn tune(&self, history: &PushHistory, m: usize) -> Option<TuneOutcome> {
        let candidates = self.candidate_windows(history);
        if candidates.is_empty() {
            return None;
        }
        let view = EpochView::from_recent(history, m, self.window_epochs);

        // T: the mean iteration span across workers. Without one there is
        // no rate to set (Algorithm 1 line 7 divides by it).
        let spans: Vec<f64> = view
            .iteration_spans
            .iter()
            .flatten()
            .map(|s| s.as_secs_f64())
            .collect();
        if spans.is_empty() {
            return None;
        }
        let mean_span = spans.iter().sum::<f64>() / spans.len() as f64;
        if mean_span <= 0.0 {
            return None;
        }

        // Cap candidates at half the mean iteration span — the same search
        // bound the paper uses for the cherrypick grid ("we use half of the
        // batch time as upper bound"): later aborts waste more compute than
        // the freshness model accounts for.
        let cap = SimDuration::from_secs_f64(mean_span / 2.0);

        let mut best: Option<(SimDuration, f64)> = None;
        for &delta in candidates.iter().filter(|&&d| d <= cap) {
            let f = estimate_realized_improvement(history, &view, delta);
            if best.is_none_or(|(_, bf)| f > bf) {
                best = Some((delta, f));
            }
        }
        let (delta, improvement) = best?;
        if improvement <= 0.0 {
            return None;
        }

        // Algorithm 1 line 7: ABORT_RATE = Δ (m − 1) / (T m).
        let rate = delta.as_secs_f64() * (m.saturating_sub(1)) as f64 / (mean_span * m as f64);
        Some(TuneOutcome {
            hyperparams: Hyperparams::new(delta, rate),
            estimated_improvement: improvement,
            candidates_evaluated: candidates.len(),
        })
    }
}

/// The result of one Algorithm-1 tuning pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// The chosen `ABORT_TIME`/`ABORT_RATE`.
    pub hyperparams: Hyperparams,
    /// The estimated `F̃(Δ*)` at the chosen window.
    pub estimated_improvement: f64,
    /// How many candidate windows were evaluated.
    pub candidates_evaluated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_simnet::{VirtualTime, WorkerId};

    fn t(secs: f64) -> VirtualTime {
        VirtualTime::from_secs_f64(secs)
    }

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    /// Builds a history where m workers push every `span` seconds, with
    /// worker i offset by `i * span / m` (uniform phase) — the regime the
    /// estimator's assumptions match exactly.
    fn uniform_history(m: usize, span: f64, epochs: usize) -> PushHistory {
        let mut h = PushHistory::new();
        let mut events: Vec<(f64, usize, bool)> = Vec::new();
        for e in 0..epochs {
            for i in 0..m {
                let phase = e as f64 * span + i as f64 * span / m as f64;
                events.push((phase, i, false)); // pull at iteration start
                events.push((phase + span * 0.999, i, true)); // push at end
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (time, i, is_push) in events {
            if is_push {
                h.record_push(t(time), w(i));
            } else {
                h.record_pull(t(time), w(i));
            }
        }
        h.mark_epoch();
        h
    }

    #[test]
    fn candidates_are_sorted_positive_and_deduped() {
        let h = uniform_history(4, 2.0, 2);
        let tuner = AdaptiveTuner::default();
        let c = tuner.candidate_windows(&h);
        assert!(!c.is_empty());
        assert!(c.windows(2).all(|p| p[0] < p[1]));
        assert!(c.iter().all(|d| !d.is_zero()));
    }

    #[test]
    fn candidate_cap_is_respected() {
        let h = uniform_history(10, 1.0, 4);
        let tuner = AdaptiveTuner::new(50, 4);
        assert!(tuner.candidate_windows(&h).len() <= 50);
    }

    #[test]
    fn tune_returns_none_without_history() {
        let tuner = AdaptiveTuner::default();
        assert!(tuner.tune(&PushHistory::new(), 4).is_none());
    }

    #[test]
    fn tune_finds_profitable_window_on_uniform_trace() {
        // 8 workers, 8-second iterations, uniform phases: pushes from others
        // arrive every second, so a window uncovering k pushes costs only
        // k·(m−1)/m·... — gains exceed losses for small windows.
        let h = uniform_history(8, 8.0, 3);
        let tuner = AdaptiveTuner::default();
        let outcome = tuner.tune(&h, 8).expect("should find a window");
        assert!(outcome.estimated_improvement > 0.0);
        let at = outcome.hyperparams.abort_time();
        assert!(
            !at.is_zero() && at <= SimDuration::from_secs(8),
            "window {at} out of range"
        );
        assert!(outcome.hyperparams.abort_rate() > 0.0);
    }

    #[test]
    fn abort_rate_follows_algorithm_line_7() {
        let h = uniform_history(4, 4.0, 3);
        let tuner = AdaptiveTuner::default();
        let outcome = tuner.tune(&h, 4).unwrap();
        let delta = outcome.hyperparams.abort_time().as_secs_f64();
        // T = 4s for every worker, m = 4.
        let expected = delta * 3.0 / (4.0 * 4.0);
        assert!(
            (outcome.hyperparams.abort_rate() - expected).abs() < 0.02,
            "rate {} vs expected {expected}",
            outcome.hyperparams.abort_rate()
        );
    }

    #[test]
    fn abort_rate_scales_with_effective_membership() {
        // Same push history, different effective cluster sizes (membership
        // churn): line 7 must use the live m, so the per-Δ rate factor
        // (m − 1)/(T m) strictly increases with m.
        let h = uniform_history(4, 4.0, 3);
        let tuner = AdaptiveTuner::default();
        let mut factors = Vec::new();
        for m in [2usize, 3, 4] {
            let o = tuner.tune(&h, m).expect("profitable window");
            let delta = o.hyperparams.abort_time().as_secs_f64();
            let expected = delta * (m as f64 - 1.0) / (4.0 * m as f64);
            assert!(
                (o.hyperparams.abort_rate() - expected).abs() < 0.02,
                "m={m}: rate {} vs golden {expected}",
                o.hyperparams.abort_rate()
            );
            factors.push(o.hyperparams.abort_rate() / delta);
        }
        assert!(
            factors.windows(2).all(|w| w[0] < w[1]),
            "rate factor must grow with membership: {factors:?}"
        );
    }
}
