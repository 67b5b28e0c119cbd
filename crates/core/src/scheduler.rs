//! The centralized SpecSync scheduler (paper §V, Algorithm 2).
//!
//! Workers report each push with a `notify` message; the scheduler tracks
//! the global push history, arms a per-worker timer `ABORT_TIME` after each
//! notify, and when the timer fires checks whether enough pushes arrived in
//! the window to justify instructing that worker to abort and re-sync.
//!
//! The scheduler is a *pure state machine*: it never blocks or owns timers.
//! [`Scheduler::on_notify`] returns the deadline at which the caller (the
//! simulation driver or a real event loop) must invoke
//! [`Scheduler::on_check`]. This keeps the component testable and
//! host-agnostic, and mirrors the pluggable-module structure of the MXNet
//! implementation.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
use specsync_sync::{SchemeKind, TuningMode};
use specsync_telemetry::{Event, EventSink, NullSink};

use crate::error::SpecSyncError;
use crate::history::{EvictionCounts, PushHistory};
use crate::hyper::Hyperparams;
use crate::tuner::{AdaptiveTuner, TuneOutcome};

/// Per-worker speculation state.
#[derive(Debug, Clone, Copy, Default)]
struct SpecState {
    /// Start of the worker's active speculation window (its last notify).
    window_start: Option<VirtualTime>,
    /// Window width captured when the timer was armed (hyperparameters may
    /// be retuned mid-window; Algorithm 2 uses the value at arm time).
    window: SimDuration,
    /// Threshold captured at arm time.
    threshold: u64,
}

/// Aggregate counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Total notify messages received.
    pub notifies: u64,
    /// Timers that fired and were evaluated.
    pub checks: u64,
    /// Re-sync instructions issued.
    pub resyncs: u64,
    /// Adaptive retuning passes that produced new hyperparameters.
    pub retunes: u64,
    /// Lost notifies detected by push-count reconciliation and backfilled.
    pub lost_notifies: u64,
    /// Notifies ignored because the sender was marked dead.
    pub stale_notifies: u64,
    /// Dead/alive membership transitions observed.
    pub membership_changes: u64,
    /// History records (pushes + pulls) evicted past the retention horizon.
    pub history_evictions: u64,
}

/// The centralized scheduler of Algorithm 2.
///
/// # Examples
///
/// ```
/// use specsync_core::Scheduler;
/// use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
/// use specsync_sync::TuningMode;
///
/// let fixed = TuningMode::Fixed {
///     abort_time: SimDuration::from_secs(2),
///     abort_rate: 0.4,
/// };
/// let mut sched = Scheduler::new(4, fixed);
/// let w0 = WorkerId::new(0);
/// let deadline = sched.on_notify(w0, VirtualTime::from_secs(10)).unwrap();
/// assert_eq!(deadline, VirtualTime::from_secs(12));
/// // Two other workers push inside the window (threshold = ceil(4×0.4) = 2).
/// sched.on_notify(WorkerId::new(1), VirtualTime::from_secs(11));
/// sched.on_notify(WorkerId::new(2), VirtualTime::from_secs(11));
/// assert!(sched.on_check(w0, deadline));
/// ```
#[derive(Debug)]
pub struct Scheduler {
    m: usize,
    hyper: Hyperparams,
    tuning: TuningMode,
    tuner: AdaptiveTuner,
    history: PushHistory,
    spec: Vec<SpecState>,
    stats: SchedulerStats,
    epoch: u64,
    /// Liveness per worker; dead workers are excluded from the effective
    /// `m` that Eq. 6/7 and the abort threshold use.
    alive: Vec<bool>,
    /// Number of `true` entries in `alive`.
    active: usize,
    /// Notifies accepted per worker, reconciled against the store's
    /// applied-push counter to detect lost notifies.
    notify_counts: Vec<u64>,
    /// `hyper.threshold(active)` cached so the notify hot path does no
    /// recomputation; refreshed whenever `hyper` or `active` changes.
    threshold: u64,
    sink: Arc<dyn EventSink<VirtualTime>>,
}

impl Scheduler {
    /// The most lost notifies one reconciled notify may backfill. The
    /// cumulative count arrives off the wire and the backfill is a loop, so
    /// a hostile `u64::MAX` is clamped to this; an honest gap wider than it
    /// (none has been seen) is closed by the worker's following notifies.
    pub const MAX_NOTIFY_GAP: u64 = 1024;

    /// Creates a scheduler for an `m`-worker cluster.
    ///
    /// With [`TuningMode::Fixed`] the given hyperparameters apply from the
    /// start; with [`TuningMode::Adaptive`] speculation is disabled until
    /// the first epoch of history exists (the paper's adaptive variant has
    /// nothing to tune on before that).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize, tuning: TuningMode) -> Self {
        assert!(m > 0, "need at least one worker");
        let hyper = match tuning {
            TuningMode::Fixed {
                abort_time,
                abort_rate,
            } => Hyperparams::new(abort_time, abort_rate),
            TuningMode::Adaptive => Hyperparams::disabled(),
        };
        Scheduler {
            m,
            hyper,
            tuning,
            tuner: AdaptiveTuner::default(),
            history: PushHistory::new(),
            spec: vec![SpecState::default(); m],
            stats: SchedulerStats::default(),
            epoch: 0,
            alive: vec![true; m],
            active: m,
            notify_counts: vec![0; m],
            threshold: hyper.threshold(m.max(1)),
            sink: Arc::new(NullSink),
        }
    }

    /// A scheduler for an `m`-worker cluster running `scheme`. SpecSync
    /// schemes bring their own tuning mode; every other scheme keeps the
    /// scheduler as a pure history recorder, with speculation disabled.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn for_scheme(scheme: SchemeKind, m: usize) -> Self {
        let tuning = match scheme {
            SchemeKind::SpecSync { tuning, .. } => tuning,
            SchemeKind::Asp
            | SchemeKind::Bsp
            | SchemeKind::Ssp { .. }
            | SchemeKind::NaiveWaiting { .. } => TuningMode::Fixed {
                abort_time: SimDuration::ZERO,
                abort_rate: f64::MAX,
            },
        };
        Self::new(m, tuning)
    }

    /// Bounds the push/pull history to the adaptive tuner's lookback
    /// window: older records are evicted at each epoch boundary, keeping
    /// scheduler memory flat over arbitrarily long runs.
    ///
    /// Every live query (abort windows, Eq. 5–7 tuning) still sees exactly
    /// the records the unbounded history would give it — decisions are
    /// byte-identical; only memory changes.
    pub fn with_history_retention(mut self) -> Self {
        self.history.set_retention(Some(self.tuner.window_epochs()));
        self
    }

    /// Recomputes the cached abort threshold from the installed
    /// hyperparameters and the live membership.
    fn refresh_threshold(&mut self) {
        self.threshold = self.hyper.threshold(self.active.max(1));
    }

    /// Routes the scheduler's decision events ([`Event::Notify`],
    /// [`Event::NotifyLoss`], [`Event::AbortIssued`], [`Event::Membership`],
    /// [`Event::EpochTuned`], [`Event::HistoryEvicted`]) to `sink` instead
    /// of the default [`NullSink`]. The scheduler is their only reporter.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink<VirtualTime>>) -> Self {
        self.sink = sink;
        self
    }

    /// Number of workers (dead or alive).
    pub fn num_workers(&self) -> usize {
        self.m
    }

    /// Number of workers currently considered alive — the effective `m`
    /// the abort threshold and the Eq. 6/7 tuner use.
    pub fn active_workers(&self) -> usize {
        self.active
    }

    /// Marks `worker` dead: its speculation window is discarded, its
    /// notifies are ignored until it rejoins, and the effective `m`
    /// shrinks. Returns `true` if the worker was alive.
    ///
    /// # Errors
    ///
    /// Returns [`SpecSyncError::WorkerOutOfRange`] for an unknown worker.
    pub fn mark_dead(&mut self, worker: WorkerId, now: VirtualTime) -> Result<bool, SpecSyncError> {
        self.check_worker(worker)?;
        let i = worker.index();
        if !self.alive[i] {
            return Ok(false);
        }
        self.alive[i] = false;
        self.active -= 1;
        self.refresh_threshold();
        self.spec[i] = SpecState::default();
        self.stats.membership_changes += 1;
        self.sink.record(
            now,
            &Event::Membership {
                worker,
                alive: false,
                active: self.active as u64,
            },
        );
        Ok(true)
    }

    /// Marks `worker` alive again after a recovery; the effective `m`
    /// grows. Returns `true` if the worker was dead.
    ///
    /// # Errors
    ///
    /// Returns [`SpecSyncError::WorkerOutOfRange`] for an unknown worker.
    pub fn mark_alive(
        &mut self,
        worker: WorkerId,
        now: VirtualTime,
    ) -> Result<bool, SpecSyncError> {
        self.check_worker(worker)?;
        let i = worker.index();
        if self.alive[i] {
            return Ok(false);
        }
        self.alive[i] = true;
        self.active += 1;
        self.refresh_threshold();
        self.stats.membership_changes += 1;
        self.sink.record(
            now,
            &Event::Membership {
                worker,
                alive: true,
                active: self.active as u64,
            },
        );
        Ok(true)
    }

    /// Validates that `worker` addresses this cluster.
    fn check_worker(&self, worker: WorkerId) -> Result<(), SpecSyncError> {
        if worker.index() >= self.m {
            return Err(SpecSyncError::WorkerOutOfRange {
                worker: worker.index(),
                num_workers: self.m,
            });
        }
        Ok(())
    }

    /// The hyperparameters currently in force.
    pub fn hyperparams(&self) -> Hyperparams {
        self.hyper
    }

    /// Whether `worker` is currently considered alive (`false` for an
    /// unknown worker).
    pub fn is_alive(&self, worker: WorkerId) -> bool {
        self.alive.get(worker.index()).copied().unwrap_or(false)
    }

    /// Pushes accounted to `worker`: its accepted notifies plus the lost
    /// ones reconciliation backfilled (`0` for an unknown worker).
    pub fn pushes_by(&self, worker: WorkerId) -> u64 {
        self.notify_counts.get(worker.index()).copied().unwrap_or(0)
    }

    /// The current epoch index: epoch boundaries marked so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// The full push/pull history (read-only).
    pub fn history(&self) -> &PushHistory {
        &self.history
    }

    /// Records that `worker` pulled parameters at `now` (used by the
    /// Eq. (5) gain estimator).
    pub fn on_pull(&mut self, worker: WorkerId, now: VirtualTime) {
        self.history.record_pull(now, worker);
    }

    /// Algorithm 2, `HandleNotification`: records the push and arms the
    /// worker's speculation window. Returns the instant at which the caller
    /// must invoke [`on_check`](Self::on_check) for this worker, or `None`
    /// when speculation is disabled.
    ///
    /// Notifies from workers currently marked dead are counted and
    /// ignored (`None`): a crashed worker's in-flight notify must not arm
    /// a window for it.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn on_notify(&mut self, worker: WorkerId, now: VirtualTime) -> Option<VirtualTime> {
        if let Err(e) = self.check_worker(worker) {
            panic!("{e}");
        }
        if !self.alive[worker.index()] {
            self.stats.stale_notifies += 1;
            return None;
        }
        self.notify_counts[worker.index()] += 1;
        self.accept_notify(worker, now)
    }

    /// [`on_notify`](Self::on_notify) for hosts whose notify
    /// messages piggyback the store's applied-push counter for the sender
    /// (`applied_pushes`, inclusive of the push this notify reports).
    ///
    /// Before arming the window, the scheduler reconciles its own accepted
    /// notify count against that counter: any gap means notifies were lost
    /// in flight, so the missing pushes are backfilled into the history at
    /// `now` (keeping the Eq. 6/7 tuner's push record complete) and an
    /// [`Event::NotifyLoss`] is emitted. At most
    /// [`MAX_NOTIFY_GAP`](Self::MAX_NOTIFY_GAP) pushes are backfilled per
    /// call, and the count advances by what was backfilled.
    ///
    /// # Errors
    ///
    /// Returns [`SpecSyncError::WorkerOutOfRange`] for an unknown worker.
    pub fn on_notify_reconciled(
        &mut self,
        worker: WorkerId,
        applied_pushes: u64,
        now: VirtualTime,
    ) -> Result<Option<VirtualTime>, SpecSyncError> {
        self.check_worker(worker)?;
        if !self.alive[worker.index()] {
            self.stats.stale_notifies += 1;
            return Ok(None);
        }
        let seen = self.notify_counts[worker.index()] + 1;
        let missing = applied_pushes
            .saturating_sub(seen)
            .min(Self::MAX_NOTIFY_GAP);
        if missing > 0 {
            for _ in 0..missing {
                self.history.record_push(now, worker);
            }
            self.stats.lost_notifies += missing;
            self.sink
                .record(now, &Event::NotifyLoss { worker, missing });
        }
        self.notify_counts[worker.index()] = seen + missing;
        Ok(self.accept_notify(worker, now))
    }

    /// The shared tail of the notify paths: record, emit and arm the
    /// speculation window against the *active* worker count.
    fn accept_notify(&mut self, worker: WorkerId, now: VirtualTime) -> Option<VirtualTime> {
        self.stats.notifies += 1;
        self.sink.record(now, &Event::Notify { worker });
        self.history.record_push(now, worker);
        if self.hyper.is_disabled() {
            return None;
        }
        let threshold = self.threshold;
        let state = &mut self.spec[worker.index()];
        state.window_start = Some(now);
        state.window = self.hyper.abort_time();
        state.threshold = threshold;
        Some(now + self.hyper.abort_time())
    }

    /// Algorithm 2, `CheckResync`: evaluates the worker's speculation
    /// window. Returns `true` when a `re-sync` should be issued.
    ///
    /// Returns `false` if the window was already consumed or superseded by
    /// a newer notify (stale timer).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range;
    /// [`try_on_check`](Self::try_on_check) reports that as a typed error
    /// instead.
    pub fn on_check(&mut self, worker: WorkerId, now: VirtualTime) -> bool {
        match self.try_on_check(worker, now) {
            Ok(fire) => fire,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`on_check`](Self::on_check) with an out-of-range worker reported
    /// as [`SpecSyncError::WorkerOutOfRange`].
    pub fn try_on_check(
        &mut self,
        worker: WorkerId,
        now: VirtualTime,
    ) -> Result<bool, SpecSyncError> {
        self.check_worker(worker)?;
        Ok(self.check_armed_window(worker, now))
    }

    /// The body of `CheckResync`, once `worker` is known to be in range.
    fn check_armed_window(&mut self, worker: WorkerId, now: VirtualTime) -> bool {
        let state = self.spec[worker.index()];
        let Some(start) = state.window_start else {
            return false;
        };
        // A stale timer: the worker has re-notified since this timer was
        // armed (its deadline would be later than `now`).
        if start + state.window != now {
            return false;
        }
        self.stats.checks += 1;
        let cnt = self
            .history
            .pushes_by_others_in(worker, start, state.window);
        let fire = cnt >= state.threshold;
        if fire {
            self.stats.resyncs += 1;
            self.spec[worker.index()].window_start = None;
            self.sink.record(now, &Event::AbortIssued { worker });
        }
        fire
    }

    /// Marks an epoch boundary; in adaptive mode, re-runs Algorithm 1 on
    /// the closed epoch and installs the new hyperparameters.
    ///
    /// Returns the tuning outcome when an adaptive pass produced one, so
    /// hosts can report the tuner's estimated freshness gain (Eq. 7)
    /// alongside the installed hyperparameters. Fixed mode and unprofitable
    /// adaptive passes return `None`.
    pub fn on_epoch_complete(&mut self, now: VirtualTime) -> Option<TuneOutcome> {
        self.epoch += 1;
        let evicted = self.history.mark_epoch();
        let mut tuned = None;
        if matches!(self.tuning, TuningMode::Adaptive) {
            // Tune against the *effective* cluster size: dead workers push
            // nothing, so Eq. 6/7 must use the live `m` or the rate
            // `Δ(m−1)/(Tm)` would be skewed by ghosts.
            if let Some(outcome) = self.tuner.tune(&self.history, self.active.max(1)) {
                self.hyper = outcome.hyperparams;
                self.stats.retunes += 1;
                tuned = Some(outcome);
            } else {
                // No profitable window found this epoch: keep speculation
                // off rather than aborting on stale evidence.
                self.hyper = Hyperparams::disabled();
            }
            self.refresh_threshold();
        }
        self.sink.record(
            now,
            &Event::EpochTuned {
                epoch: self.epoch,
                abort_time: self.hyper.abort_time(),
                abort_rate: self.hyper.abort_rate(),
                estimated_gain: tuned.as_ref().map(|o| o.estimated_improvement),
            },
        );
        self.account_evictions(evicted, now);
        tuned
    }

    /// Books an epoch boundary's evictions into the stats and the trace.
    /// A no-op on unbounded histories, so default traces are unchanged.
    fn account_evictions(&mut self, evicted: EvictionCounts, now: VirtualTime) {
        if evicted.is_zero() {
            return;
        }
        self.stats.history_evictions += evicted.total();
        self.sink.record(
            now,
            &Event::HistoryEvicted {
                pushes: evicted.pushes,
                pulls: evicted.pulls,
                retained: self.history.retained_pushes() as u64,
            },
        );
    }
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

    fn fixed(window_secs: f64, rate: f64) -> TuningMode {
        TuningMode::Fixed {
            abort_time: SimDuration::from_secs_f64(window_secs),
            abort_rate: rate,
        }
    }

    #[test]
    fn resync_fires_when_threshold_met() {
        let mut s = Scheduler::new(4, fixed(2.0, 0.5)); // threshold = 2
        let deadline = s.on_notify(w(0), t(10.0)).unwrap();
        s.on_notify(w(1), t(10.5));
        s.on_notify(w(2), t(11.9));
        assert!(s.on_check(w(0), deadline));
        assert_eq!(s.stats().resyncs, 1);
    }

    #[test]
    fn resync_does_not_fire_below_threshold() {
        let mut s = Scheduler::new(4, fixed(2.0, 0.5));
        let deadline = s.on_notify(w(0), t(10.0)).unwrap();
        s.on_notify(w(1), t(10.5));
        assert!(!s.on_check(w(0), deadline));
        assert_eq!(s.stats().resyncs, 0);
        assert_eq!(s.stats().checks, 1);
    }

    #[test]
    fn own_pushes_do_not_count() {
        let mut s = Scheduler::new(4, fixed(5.0, 0.25)); // threshold = 1
        let deadline = s.on_notify(w(0), t(0.0)).unwrap();
        // Only worker 0 itself pushes again inside the window — but a new
        // notify supersedes the old timer, so check the *old* deadline.
        // (In the protocol a worker cannot push mid-iteration anyway.)
        assert!(!s.on_check(w(0), deadline));
    }

    #[test]
    fn pushes_outside_window_do_not_count() {
        let mut s = Scheduler::new(4, fixed(1.0, 0.25)); // threshold = 1
        let deadline = s.on_notify(w(0), t(10.0)).unwrap();
        s.on_notify(w(1), t(11.5)); // after the window [10, 11]
        assert!(!s.on_check(w(0), deadline));
    }

    #[test]
    fn stale_timer_is_ignored() {
        let mut s = Scheduler::new(4, fixed(2.0, 0.25));
        let old_deadline = s.on_notify(w(0), t(10.0)).unwrap();
        // Worker 0 notifies again (it aborted quickly or this was re-armed);
        // the old timer must become a no-op.
        let _new_deadline = s.on_notify(w(0), t(11.0)).unwrap();
        s.on_notify(w(1), t(11.5));
        assert!(!s.on_check(w(0), old_deadline));
        // The new timer still works.
        assert!(s.on_check(w(0), t(13.0)));
    }

    #[test]
    fn adaptive_starts_disabled_and_enables_after_an_epoch() {
        let mut s = Scheduler::new(4, TuningMode::Adaptive);
        assert!(s.on_notify(w(0), t(1.0)).is_none());
        assert!(s.hyperparams().is_disabled());

        // Build one epoch of uniform activity, then close it.
        for round in 0..3 {
            for i in 0..4 {
                let base = round as f64 * 4.0 + i as f64;
                s.on_pull(w(i), t(20.0 + base));
                s.on_notify(w(i), t(20.0 + base + 3.9));
            }
        }
        s.on_epoch_complete(t(40.0));
        assert_eq!(s.epoch(), 1);
        assert!(
            !s.hyperparams().is_disabled(),
            "tuning should have enabled speculation"
        );
        assert_eq!(s.stats().retunes, 1);
        assert!(s.on_notify(w(0), t(41.0)).is_some());
    }

    #[test]
    fn adaptive_with_thin_history_stays_disabled() {
        let mut s = Scheduler::new(4, TuningMode::Adaptive);
        s.on_notify(w(0), t(1.0));
        s.on_epoch_complete(t(2.0));
        assert!(s.hyperparams().is_disabled());
    }

    #[test]
    fn window_consumed_after_resync() {
        let mut s = Scheduler::new(2, fixed(2.0, 0.5)); // threshold = 1
        let deadline = s.on_notify(w(0), t(0.0)).unwrap();
        s.on_notify(w(1), t(1.0));
        assert!(s.on_check(w(0), deadline));
        // Re-checking the same deadline is a no-op.
        assert!(!s.on_check(w(0), deadline));
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_panics() {
        Scheduler::new(0, TuningMode::Adaptive);
    }

    #[test]
    fn dead_workers_shrink_the_threshold() {
        // m = 4, rate 0.5 → threshold 2; after two deaths the effective
        // m = 2 → threshold 1, so a single push by another worker fires.
        let mut s = Scheduler::new(4, fixed(2.0, 0.5));
        s.mark_dead(w(2), t(1.0)).unwrap();
        s.mark_dead(w(3), t(1.0)).unwrap();
        assert_eq!(s.active_workers(), 2);
        let deadline = s.on_notify(w(0), t(10.0)).unwrap();
        s.on_notify(w(1), t(10.5));
        assert!(s.on_check(w(0), deadline), "threshold must track live m");
        assert_eq!(s.stats().membership_changes, 2);
    }

    #[test]
    fn dead_worker_notifies_are_ignored() {
        let mut s = Scheduler::new(4, fixed(2.0, 0.25));
        s.mark_dead(w(1), t(0.0)).unwrap();
        assert!(s.on_notify(w(1), t(1.0)).is_none());
        assert_eq!(s.stats().notifies, 0);
        assert_eq!(s.stats().stale_notifies, 1);
        // Rejoin: notifies count again.
        assert!(s.mark_alive(w(1), t(2.0)).unwrap());
        assert!(s.on_notify(w(1), t(3.0)).is_some());
        assert_eq!(s.stats().notifies, 1);
    }

    #[test]
    fn membership_marks_are_idempotent() {
        let mut s = Scheduler::new(2, fixed(1.0, 0.5));
        assert!(s.mark_dead(w(0), t(0.0)).unwrap());
        assert!(!s.mark_dead(w(0), t(0.0)).unwrap());
        assert_eq!(s.active_workers(), 1);
        assert!(s.mark_alive(w(0), t(1.0)).unwrap());
        assert!(!s.mark_alive(w(0), t(1.0)).unwrap());
        assert_eq!(s.active_workers(), 2);
        assert_eq!(s.stats().membership_changes, 2);
    }

    #[test]
    fn reconciliation_backfills_lost_notifies() {
        let mut s = Scheduler::new(4, fixed(2.0, 0.5)); // threshold 2
                                                        // Worker 1's store counter says 3 pushes applied, but this is the
                                                        // first notify the scheduler ever saw from it: 2 were lost.
        let deadline = s.on_notify(w(0), t(10.0)).unwrap();
        s.on_notify_reconciled(w(1), 3, t(11.0)).unwrap();
        assert_eq!(s.stats().lost_notifies, 2);
        // The backfilled pushes land in the history at t=11, inside
        // worker 0's window, so the abort fires off reconciled evidence.
        assert!(s.on_check(w(0), deadline));
    }

    #[test]
    fn a_hostile_cumulative_count_backfills_a_bounded_gap() {
        let mut s = Scheduler::new(2, fixed(2.0, 0.5));
        s.on_notify_reconciled(w(0), 1, t(1.0)).unwrap();
        // One valid frame claiming u64::MAX pushes must not spin the loop.
        s.on_notify_reconciled(w(0), u64::MAX, t(2.0)).unwrap();
        assert_eq!(s.stats().lost_notifies, Scheduler::MAX_NOTIFY_GAP);
        assert_eq!(s.history().len() as u64, 2 + Scheduler::MAX_NOTIFY_GAP);
        // Later honest notifies are still accepted, and report no loss.
        s.on_notify_reconciled(w(0), 3, t(3.0)).unwrap();
        s.on_notify_reconciled(w(1), 1, t(3.5)).unwrap();
        assert_eq!(s.stats().lost_notifies, Scheduler::MAX_NOTIFY_GAP);
        assert_eq!(s.stats().notifies, 4);
    }

    #[test]
    fn reconciliation_with_no_gap_is_silent() {
        let mut s = Scheduler::new(2, fixed(2.0, 0.5));
        s.on_notify_reconciled(w(0), 1, t(1.0)).unwrap();
        s.on_notify_reconciled(w(0), 2, t(2.0)).unwrap();
        assert_eq!(s.stats().lost_notifies, 0);
        assert_eq!(s.stats().notifies, 2);
    }

    #[test]
    fn bounded_history_makes_identical_decisions() {
        // Retention bounds memory, never behavior: drive a bounded and an
        // unbounded adaptive scheduler through the same many-epoch
        // schedule and require every decision and tuned hyperparameter to
        // match exactly.
        let mut bounded = Scheduler::new(4, TuningMode::Adaptive).with_history_retention();
        let mut unbounded = Scheduler::new(4, TuningMode::Adaptive);
        for round in 0..24u64 {
            for i in 0..4usize {
                let base = round as f64 * 4.0 + i as f64;
                bounded.on_pull(w(i), t(base));
                unbounded.on_pull(w(i), t(base));
                let push_at = t(base + 3.7 + (i as f64) * 0.11);
                let da = bounded.on_notify(w(i), push_at);
                let db = unbounded.on_notify(w(i), push_at);
                assert_eq!(da, db, "round {round} worker {i}");
                if let (Some(da), Some(db)) = (da, db) {
                    assert_eq!(
                        bounded.on_check(w(i), da),
                        unbounded.on_check(w(i), db),
                        "round {round} worker {i}"
                    );
                }
            }
            let end = t((round + 1) as f64 * 4.0);
            let a = bounded.on_epoch_complete(end);
            let b = unbounded.on_epoch_complete(end);
            assert_eq!(a.is_some(), b.is_some(), "round {round}");
            assert_eq!(
                bounded.hyperparams(),
                unbounded.hyperparams(),
                "round {round}"
            );
        }
        let mut sa = bounded.stats();
        let sb = unbounded.stats();
        assert!(sa.history_evictions > 0, "retention must have evicted");
        assert!(bounded.history().retained_pushes() < unbounded.history().retained_pushes());
        sa.history_evictions = 0;
        assert_eq!(sa, sb, "all decision counters must match");
    }

    #[test]
    fn retention_is_clamped_to_the_tuner_window() {
        // A retention bound below the tuner's lookback would starve the
        // candidate enumeration; the bound is the lookback itself.
        let s = Scheduler::new(4, TuningMode::Adaptive).with_history_retention();
        assert_eq!(
            s.history().retention(),
            Some(AdaptiveTuner::default().window_epochs())
        );
    }
}
