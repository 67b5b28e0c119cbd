//! Results of a threaded run.

use std::time::Duration;

use specsync_telemetry::{LossCurve, LossSample};

/// One loss observation on the wall clock: a
/// [`LossSample`] stamped with elapsed run time.
pub type WallLossPoint = LossSample<Duration>;

/// Outcome of one threaded training run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Scheme label.
    pub scheme: String,
    /// Number of worker threads.
    pub workers: usize,
    /// Wall time at which the convergence rule fired, if it did.
    pub converged_at: Option<Duration>,
    /// Total gradient pushes applied: the serving shard's final store
    /// version.
    pub total_iterations: u64,
    /// Total aborted computations.
    pub total_aborts: u64,
    /// Workers the scheduler declared dead after heartbeat silence.
    pub detected_failures: u64,
    /// Workers re-admitted after resuming heartbeats or notifies.
    pub rejoins: u64,
    /// Warm-backup promotions the scheduler completed.
    pub promotions: u64,
    /// Notifies dropped by the chaos knobs (zero without chaos).
    pub dropped_notifies: u64,
    /// Crash-consistent checkpoints atomically persisted to
    /// [`checkpoint_path`](crate::RuntimeConfig::checkpoint_path) (zero
    /// when no path is configured).
    pub checkpoints_written: u64,
    /// Loss curve over wall time.
    pub loss_curve: LossCurve<Duration>,
    /// Wall time when the run finished.
    pub elapsed: Duration,
}

impl RuntimeReport {
    /// Final observed loss.
    pub fn final_loss(&self) -> Option<f64> {
        self.loss_curve.final_loss()
    }

    /// Lowest observed loss.
    pub fn best_loss(&self) -> Option<f64> {
        self.loss_curve.best_loss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_loss_ignores_nan() {
        let report = RuntimeReport {
            scheme: "test".into(),
            workers: 1,
            converged_at: None,
            total_iterations: 3,
            total_aborts: 0,
            detected_failures: 0,
            rejoins: 0,
            promotions: 0,
            dropped_notifies: 0,
            checkpoints_written: 0,
            loss_curve: vec![
                WallLossPoint {
                    time: Duration::from_millis(1),
                    iterations: 1,
                    loss: 1.0,
                },
                WallLossPoint {
                    time: Duration::from_millis(2),
                    iterations: 2,
                    loss: f64::NAN,
                },
                WallLossPoint {
                    time: Duration::from_millis(3),
                    iterations: 3,
                    loss: 0.5,
                },
            ]
            .into(),
            elapsed: Duration::from_millis(3),
        };
        assert_eq!(report.best_loss(), Some(0.5));
        assert!(report.final_loss().unwrap() == 0.5);
    }
}
