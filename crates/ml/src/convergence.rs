//! Convergence detection.
//!
//! The paper defines convergence as "the loss staying below the target value
//! for 5 consecutive iterations" (§VI-B). [`ConvergenceDetector`] implements
//! exactly that, with the window length configurable.

use serde::{Deserialize, Serialize};

/// Detects convergence: the observed loss must stay at or below `target`
/// for `window` consecutive observations.
///
/// # Examples
///
/// ```
/// use specsync_ml::ConvergenceDetector;
///
/// let mut det = ConvergenceDetector::new(0.5, 3);
/// assert!(!det.observe(0.4));
/// assert!(!det.observe(0.6)); // resets the streak
/// assert!(!det.observe(0.4));
/// assert!(!det.observe(0.3));
/// assert!(det.observe(0.2)); // third consecutive below target
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceDetector {
    target: f64,
    window: u32,
    streak: u32,
    converged: bool,
}

impl ConvergenceDetector {
    /// Creates a detector with the paper's 5-observation window.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not finite.
    pub fn paper_default(target: f64) -> Self {
        Self::new(target, 5)
    }

    /// Creates a detector requiring `window` consecutive observations at or
    /// below `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not finite or `window == 0`.
    pub fn new(target: f64, window: u32) -> Self {
        assert!(target.is_finite(), "target loss must be finite");
        assert!(window > 0, "window must be positive");
        ConvergenceDetector {
            target,
            window,
            streak: 0,
            converged: false,
        }
    }

    /// The target loss.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// Feeds one loss observation; returns `true` once converged.
    ///
    /// After convergence the detector latches: further observations cannot
    /// un-converge it.
    pub fn observe(&mut self, loss: f64) -> bool {
        if self.converged {
            return true;
        }
        if loss <= self.target {
            self.streak += 1;
            if self.streak >= self.window {
                self.converged = true;
            }
        } else {
            self.streak = 0;
        }
        self.converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_full_consecutive_window() {
        let mut d = ConvergenceDetector::new(1.0, 5);
        for _ in 0..4 {
            assert!(!d.observe(0.5));
        }
        assert!(d.observe(0.5));
    }

    #[test]
    fn a_spike_resets_the_streak() {
        let mut d = ConvergenceDetector::new(1.0, 3);
        d.observe(0.5);
        d.observe(0.5);
        d.observe(2.0);
        assert!(!d.observe(0.5));
        assert!(!d.observe(0.5));
        assert!(d.observe(0.5));
    }

    #[test]
    fn convergence_latches() {
        let mut d = ConvergenceDetector::new(1.0, 1);
        assert!(d.observe(0.5));
        assert!(
            d.observe(100.0),
            "a spike after convergence does not unlatch"
        );
    }

    #[test]
    fn boundary_value_counts() {
        let mut d = ConvergenceDetector::new(1.0, 1);
        assert!(d.observe(1.0));
    }

    #[test]
    fn paper_default_uses_window_of_five() {
        let mut d = ConvergenceDetector::paper_default(0.1);
        for _ in 0..4 {
            assert!(!d.observe(0.05));
        }
        assert!(d.observe(0.05));
    }
}
