//! Freshness gain/loss estimation (paper §IV-B, Eq. 5–7).
//!
//! - **Gain** `ũ_{i,τ}(Δ)`: Eq. (5) estimates the updates worker `i` would
//!   uncover by speculating for `Δ` from the push history of the previous
//!   epoch. The paper counts pushes after the worker's *last* pull; a
//!   single-pull sample is an integer and extremely noisy, so the tuner
//!   uses [`estimate_mean_gain`] — the same quantity averaged over all of
//!   the worker's pulls in the estimation window. (The paper's insight
//!   that "algorithmic behaviors … are usually stable in a short period of
//!   time" is exactly what justifies the averaging.)
//! - **Loss** `l̃_{i,τ}(Δ)`: Eq. (6) models missed peers under uniform pull
//!   arrivals as `Δ (m − 1) / T_i`.
//! - **Objective** `F̃_τ(Δ)`: Eq. (7) sums gain minus loss over workers.

use specsync_simnet::{SimDuration, VirtualTime, WorkerId};

use crate::history::PushHistory;

/// Per-worker inputs to the Eq. (7) objective.
#[derive(Debug, Clone)]
pub struct EpochView {
    /// Each worker's pull times inside the estimation window.
    pub pulls: Vec<Vec<VirtualTime>>,
    /// Each worker's estimated iteration span `T_i`.
    pub iteration_spans: Vec<Option<SimDuration>>,
}

impl EpochView {
    /// Extracts the view for an `m`-worker cluster from the last `epochs`
    /// closed epochs of `history` (paper: one epoch; the scheduler uses a
    /// slightly longer window to stabilize the estimate).
    ///
    /// A zero iteration span is reported as unknown: it only occurs on
    /// degenerate histories (e.g. lost-notify backfills recorded at one
    /// timestamp) where Eq. (6) is undefined, and a worker without a span
    /// simply contributes no evidence to the objective.
    pub fn from_recent(history: &PushHistory, m: usize, epochs: usize) -> Self {
        let range = history.recent_epoch_range(epochs);
        let mut pulls: Vec<Vec<VirtualTime>> = vec![Vec::new(); m];
        if let Some((start, end)) = range {
            // Binary-searched range scan: touches only the window's pulls
            // instead of the whole history.
            for p in history.pulls_in_range(start, end) {
                if p.worker.index() < m {
                    pulls[p.worker.index()].push(p.time);
                }
            }
        }
        let iteration_spans = WorkerId::all(m)
            .map(|w| history.iteration_span_of(w).filter(|s| !s.is_zero()))
            .collect();
        EpochView {
            pulls,
            iteration_spans,
        }
    }

    /// The paper's literal Eq. (5) view: only each worker's last pull at or
    /// before `now`. Zero iteration spans are reported as unknown (see
    /// [`from_recent`](Self::from_recent)).
    pub fn from_history(history: &PushHistory, m: usize, now: VirtualTime) -> Self {
        let pulls = WorkerId::all(m)
            .map(|w| history.last_pull_of(w, now).into_iter().collect())
            .collect();
        let iteration_spans = WorkerId::all(m)
            .map(|w| history.iteration_span_of(w).filter(|s| !s.is_zero()))
            .collect();
        EpochView {
            pulls,
            iteration_spans,
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.pulls.len()
    }
}

/// Averaged Eq. (5): mean pushes-by-others within `delta` over all the
/// worker's recorded pulls. Returns `None` when the worker has no pulls.
pub fn estimate_mean_gain(
    history: &PushHistory,
    worker: WorkerId,
    pulls: &[VirtualTime],
    delta: SimDuration,
) -> Option<f64> {
    if pulls.is_empty() {
        return None;
    }
    let total: u64 = pulls
        .iter()
        .map(|&p| history.pushes_by_others_in(worker, p, delta))
        .sum();
    Some(total as f64 / pulls.len() as f64)
}

/// Eq. (6): loss estimate for one worker — expected missed peers
/// `Δ (m − 1) / T_i` under uniform pull arrivals.
///
/// # Panics
///
/// Panics if `iteration_span` is zero.
pub fn estimate_loss(delta: SimDuration, m: usize, iteration_span: SimDuration) -> f64 {
    assert!(!iteration_span.is_zero(), "iteration span must be positive");
    delta.as_secs_f64() * (m.saturating_sub(1)) as f64 / iteration_span.as_secs_f64()
}

/// Eq. (7): the estimated overall freshness improvement `F̃_τ(Δ)`.
///
/// Workers without a recorded pull or iteration span contribute zero (no
/// evidence either way).
pub fn estimate_improvement(history: &PushHistory, view: &EpochView, delta: SimDuration) -> f64 {
    let m = view.num_workers();
    let mut total = 0.0;
    for (i, (pulls, span)) in view.pulls.iter().zip(&view.iteration_spans).enumerate() {
        let Some(span) = span.filter(|s| !s.is_zero()) else {
            continue;
        };
        let Some(gain) = estimate_mean_gain(history, WorkerId::new(i), pulls, delta) else {
            continue;
        };
        let loss = estimate_loss(delta, m, span);
        total += gain - loss;
    }
    total
}

/// The *realized* freshness-improvement estimate: Eq. (7) refined by the
/// runtime abort rule.
///
/// The literal Eq. (7) charges every iteration the full deferral loss, but
/// at runtime a worker only aborts when the observed push count reaches the
/// `ABORT_RATE` threshold — i.e. on above-average bursts, where the gain
/// exceeds the loss by construction. This estimator replays that rule on
/// the history window: for each recorded pull, the candidate window `Δ`
/// contributes `count − l̃_i(Δ)` *only if* it would have fired
/// (`count ≥ l̃_i(Δ)`, the paper's own threshold choice `Γ m = l̃_i(Δ*)`),
/// and zero otherwise. Under perfectly uniform arrivals both estimates
/// agree (≈ 0); under bursty arrivals this one credits exactly the bursts
/// SpecSync harvests.
pub fn estimate_realized_improvement(
    history: &PushHistory,
    view: &EpochView,
    delta: SimDuration,
) -> f64 {
    let m = view.num_workers();
    let mut total = 0.0;
    for (i, (pulls, span)) in view.pulls.iter().zip(&view.iteration_spans).enumerate() {
        let Some(span) = span.filter(|s| !s.is_zero()) else {
            continue;
        };
        if pulls.is_empty() {
            continue;
        }
        let loss = estimate_loss(delta, m, span);
        let threshold = loss.max(1.0);
        let mut contribution = 0.0;
        for &p in pulls {
            let count = history.pushes_by_others_in(WorkerId::new(i), p, delta) as f64;
            if count >= threshold {
                contribution += count - loss;
            }
        }
        total += contribution / pulls.len() as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> VirtualTime {
        VirtualTime::from_secs_f64(secs)
    }

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    /// Two workers pushing on a regular cadence; one epoch mark at the end.
    fn sample_history() -> PushHistory {
        let mut h = PushHistory::new();
        for k in 0..5u64 {
            let base = k as f64 * 2.0;
            h.record_pull(t(base), w(0));
            h.record_pull(t(base + 1.0), w(1));
            h.record_push(t(base + 1.5), w(0));
            h.record_push(t(base + 1.8), w(1));
        }
        h.mark_epoch();
        h
    }

    #[test]
    fn single_pull_gain_counts_only_others_after_pull() {
        let h = sample_history();
        let gain = estimate_mean_gain(&h, w(0), &[t(8.0)], d(2.0));
        assert_eq!(gain, Some(1.0));
        assert_eq!(estimate_mean_gain(&h, w(0), &[t(8.0)], d(1.0)), Some(0.0));
    }

    #[test]
    fn mean_gain_averages_over_pulls() {
        let h = sample_history();
        // Worker 0 pulls at 0,2,4,6,8; worker 1 pushes 1.8s later each time.
        let pulls: Vec<VirtualTime> = (0..5).map(|k| t(k as f64 * 2.0)).collect();
        let g = estimate_mean_gain(&h, w(0), &pulls, d(1.9)).unwrap();
        assert!(
            (g - 1.0).abs() < 1e-9,
            "each window should cover exactly one push, got {g}"
        );
        assert_eq!(estimate_mean_gain(&h, w(0), &[], d(1.0)), None);
    }

    #[test]
    fn loss_is_linear_in_delta_and_m() {
        let l1 = estimate_loss(d(1.0), 5, d(10.0));
        let l2 = estimate_loss(d(2.0), 5, d(10.0));
        assert!((l2 - 2.0 * l1).abs() < 1e-12);
        let l_more_workers = estimate_loss(d(1.0), 9, d(10.0));
        assert!((l_more_workers - 2.0 * l1).abs() < 1e-12);
        assert_eq!(estimate_loss(d(1.0), 1, d(10.0)), 0.0);
    }

    #[test]
    fn improvement_is_zero_at_zero_delta() {
        let h = sample_history();
        let view = EpochView::from_recent(&h, 2, 1);
        assert_eq!(estimate_improvement(&h, &view, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn improvement_trades_gain_against_loss() {
        let h = sample_history();
        let view = EpochView::from_recent(&h, 2, 1);
        let best = [0.5, 1.0, 1.5, 2.0]
            .iter()
            .map(|&s| estimate_improvement(&h, &view, d(s)))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best > 0.0, "expected a profitable window, best was {best}");
        let huge = estimate_improvement(&h, &view, d(50.0));
        assert!(huge < best);
    }

    #[test]
    fn realized_improvement_is_nonnegative_and_credits_bursts() {
        let h = sample_history();
        let view = EpochView::from_recent(&h, 2, 1);
        for secs in [0.5, 1.0, 1.9, 3.0] {
            let f = estimate_realized_improvement(&h, &view, d(secs));
            assert!(
                f >= 0.0,
                "realized estimate must be non-negative, got {f} at {secs}"
            );
        }
        // A window wide enough to capture the peer's push fires and earns.
        let f = estimate_realized_improvement(&h, &view, d(1.9));
        assert!(f > 0.0, "expected positive realized improvement, got {f}");
    }

    #[test]
    fn recent_view_collects_pulls_per_worker() {
        let h = sample_history();
        let view = EpochView::from_recent(&h, 2, 1);
        assert!(!view.pulls[0].is_empty());
        assert!(!view.pulls[1].is_empty());
        // Worker 2 doesn't exist in the trace.
        let wide = EpochView::from_recent(&h, 3, 1);
        assert!(wide.pulls[2].is_empty());
    }

    #[test]
    fn literal_view_uses_last_pull_only() {
        let h = sample_history();
        let view = EpochView::from_history(&h, 2, t(100.0));
        assert_eq!(view.pulls[0].len(), 1);
        assert_eq!(view.pulls[0][0], t(8.0));
    }
}
