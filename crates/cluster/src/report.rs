//! Run reports: everything a training run produces for analysis.

use serde::{Deserialize, Serialize};
use specsync_core::{Hyperparams, PushHistory, SchedulerStats};
use specsync_simnet::{SimDuration, TransferLedger, VirtualTime};
use specsync_telemetry::{LossCurve, LossSample};

/// One point on the simulator's loss curve: a
/// [`LossSample`] stamped with virtual time.
pub type LossPoint = LossSample<VirtualTime>;

/// Counters for every fault injected and every degradation decision the
/// driver took. All-zero for fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Messages the fault plan dropped on the wire.
    pub dropped_messages: u64,
    /// Messages delivered twice.
    pub duplicated_messages: u64,
    /// Messages hit by a delay spike.
    pub delay_spikes: u64,
    /// Bounded retransmissions scheduled for dropped pulls/pushes.
    pub retries: u64,
    /// Pushes fenced off for carrying a stale (pre-crash) epoch.
    pub fenced_pushes: u64,
    /// Duplicated pushes ignored by sequence-number dedupe.
    pub duplicate_pushes_ignored: u64,
    /// Worker crashes replayed from the plan.
    pub crashes: u64,
    /// Worker recoveries replayed from the plan.
    pub recoveries: u64,
    /// Aborts re-issued after an unacknowledged ack timeout.
    pub abort_reissues: u64,
    /// Parameter-server shard crashes replayed from the plan.
    pub server_crashes: u64,
    /// Shard failovers completed (warm backup promoted to serving).
    pub failovers: u64,
    /// Journaled pushes replayed into a backup during promotion.
    pub journal_replayed: u64,
    /// Crashed server nodes re-admitted as warm backups.
    pub server_recoveries: u64,
    /// Pulls/pushes parked on a fixed timer because the serving shard was
    /// down awaiting promotion (not message loss; no retry budget spent).
    pub blocked_on_failover: u64,
}

/// The full outcome of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheme label (e.g. `"SpecSync-Adaptive"`).
    pub scheme: String,
    /// Workload name (e.g. `"CIFAR-10"`).
    pub workload: String,
    /// Number of workers.
    pub num_workers: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// When the loss first satisfied the convergence criterion, if it did.
    pub converged_at: Option<VirtualTime>,
    /// Iterations (global pushes) applied at convergence, if converged.
    pub iterations_at_convergence: Option<u64>,
    /// Total iterations applied over the whole run.
    pub total_iterations: u64,
    /// Total aborted (re-synced) iterations.
    pub total_aborts: u64,
    /// Virtual compute time thrown away by aborts.
    pub wasted_compute: SimDuration,
    /// The loss curve (one point per applied push).
    pub loss_curve: LossCurve<VirtualTime>,
    /// Per-worker completed iteration counts.
    pub iterations_per_worker: Vec<u64>,
    /// Byte-level transfer accounting.
    pub transfer: TransferLedger,
    /// Scheduler counters (zero for non-speculative schemes).
    pub scheduler_stats: SchedulerStats,
    /// Hyperparameters in force per epoch (adaptive trace).
    pub hyperparams_trace: Vec<(u64, Hyperparams)>,
    /// Mean replica staleness at pull time (pushes missed per pull).
    pub mean_staleness: f64,
    /// The complete push/pull history of the run.
    pub history: PushHistory,
    /// Fault-injection and degradation counters (all-zero without a
    /// [`FaultPlan`](specsync_simnet::FaultPlan)).
    pub chaos: ChaosStats,
    /// Virtual time when the run stopped (converged or hit the horizon).
    pub finished_at: VirtualTime,
}

impl RunReport {
    /// Runtime to convergence — the paper's primary metric — or the full
    /// horizon if the run never converged.
    pub fn runtime(&self) -> VirtualTime {
        self.converged_at.unwrap_or(self.finished_at)
    }

    /// The loss at the end of the run.
    pub fn final_loss(&self) -> Option<f64> {
        self.loss_curve.final_loss()
    }

    /// The lowest loss reached at or before `t` (for fixed-budget
    /// comparisons, Fig. 11 right).
    pub fn best_loss_by(&self, t: VirtualTime) -> Option<f64> {
        self.loss_curve.best_loss_by(t)
    }

    /// Downsamples the loss curve to at most `points` evenly spaced
    /// entries (for printing).
    pub fn sampled_curve(&self, points: usize) -> Vec<LossPoint> {
        self.loss_curve.sampled(points)
    }

    /// Speedup of this run over `baseline` in runtime-to-convergence.
    /// `None` if either run failed to converge.
    pub fn speedup_over(&self, baseline: &RunReport) -> Option<f64> {
        let mine = self.converged_at?.as_secs_f64();
        let theirs = baseline.converged_at?.as_secs_f64();
        if mine <= 0.0 {
            return None;
        }
        Some(theirs / mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(converged_secs: Option<f64>, losses: &[(f64, f64)]) -> RunReport {
        RunReport {
            scheme: "test".into(),
            workload: "tiny".into(),
            num_workers: 2,
            seed: 0,
            converged_at: converged_secs.map(VirtualTime::from_secs_f64),
            iterations_at_convergence: converged_secs.map(|_| 10),
            total_iterations: losses.len() as u64,
            total_aborts: 0,
            wasted_compute: SimDuration::ZERO,
            loss_curve: losses
                .iter()
                .enumerate()
                .map(|(i, &(t, l))| LossPoint {
                    time: VirtualTime::from_secs_f64(t),
                    iterations: i as u64 + 1,
                    loss: l,
                })
                .collect(),
            iterations_per_worker: vec![1, 1],
            transfer: TransferLedger::new(),
            scheduler_stats: SchedulerStats::default(),
            hyperparams_trace: Vec::new(),
            mean_staleness: 0.0,
            history: PushHistory::new(),
            chaos: ChaosStats::default(),
            finished_at: VirtualTime::from_secs_f64(100.0),
        }
    }

    #[test]
    fn runtime_prefers_convergence_time() {
        let r = report(Some(42.0), &[(1.0, 0.5)]);
        assert_eq!(r.runtime(), VirtualTime::from_secs_f64(42.0));
        let r2 = report(None, &[(1.0, 0.5)]);
        assert_eq!(r2.runtime(), VirtualTime::from_secs_f64(100.0));
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let fast = report(Some(10.0), &[]);
        let slow = report(Some(30.0), &[]);
        assert_eq!(fast.speedup_over(&slow), Some(3.0));
        assert_eq!(slow.speedup_over(&fast), Some(1.0 / 3.0));
        let never = report(None, &[]);
        assert_eq!(fast.speedup_over(&never), None);
    }

    #[test]
    fn best_loss_by_respects_budget() {
        let r = report(None, &[(1.0, 0.9), (2.0, 0.5), (3.0, 0.7), (4.0, 0.2)]);
        assert_eq!(r.best_loss_by(VirtualTime::from_secs_f64(2.5)), Some(0.5));
        assert_eq!(r.best_loss_by(VirtualTime::from_secs_f64(10.0)), Some(0.2));
        assert_eq!(r.best_loss_by(VirtualTime::from_secs_f64(0.5)), None);
    }

    #[test]
    fn sampled_curve_caps_length() {
        let losses: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0)).collect();
        let r = report(None, &losses);
        assert!(r.sampled_curve(10).len() <= 10);
        assert_eq!(r.sampled_curve(1000).len(), 100);
    }
}
