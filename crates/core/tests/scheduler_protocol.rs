//! Property-based tests of the SpecSync scheduler protocol invariants.

use proptest::prelude::*;
use specsync_core::Scheduler;
use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
use specsync_sync::TuningMode;

/// A random but chronologically valid notify schedule: (worker, gap µs).
fn schedule_strategy(m: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0..m, 1_000u64..2_000_000), 1..120)
}

fn fixed(window_ms: u64, rate: f64) -> TuningMode {
    TuningMode::Fixed {
        abort_time: SimDuration::from_millis(window_ms),
        abort_rate: rate,
    }
}

/// Replays a schedule through a scheduler, firing every timer at its
/// deadline (in global time order), and returns the stats.
fn replay(mut sched: Scheduler, schedule: &[(usize, u64)]) -> specsync_core::SchedulerStats {
    let mut now = VirtualTime::ZERO;
    let mut timers: Vec<(VirtualTime, WorkerId)> = Vec::new();
    for &(w, gap) in schedule {
        now += SimDuration::from_micros(gap);
        // Fire any timers that expired before this notify.
        timers.sort();
        let due: Vec<_> = timers.iter().filter(|&&(t, _)| t <= now).copied().collect();
        timers.retain(|&(t, _)| t > now);
        for (t, worker) in due {
            sched.on_check(worker, t);
        }
        if let Some(deadline) = sched.on_notify(WorkerId::new(w), now) {
            timers.push((deadline, WorkerId::new(w)));
        }
    }
    for (t, worker) in timers {
        sched.on_check(worker, t);
    }
    sched.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: re-syncs never exceed evaluated checks, which never
    /// exceed notifies.
    #[test]
    fn resyncs_bounded_by_checks_bounded_by_notifies(schedule in schedule_strategy(6)) {
        let stats = replay(Scheduler::new(6, fixed(500, 0.3)), &schedule);
        prop_assert!(stats.resyncs <= stats.checks);
        prop_assert!(stats.checks <= stats.notifies);
        prop_assert_eq!(stats.notifies, schedule.len() as u64);
    }

    /// Monotonicity in the threshold: a stricter ABORT_RATE can only
    /// reduce the number of re-syncs (same schedule, same window).
    #[test]
    fn stricter_rate_fires_less(schedule in schedule_strategy(6)) {
        let loose = replay(Scheduler::new(6, fixed(500, 0.2)), &schedule);
        let strict = replay(Scheduler::new(6, fixed(500, 0.8)), &schedule);
        prop_assert!(strict.resyncs <= loose.resyncs,
            "strict {} > loose {}", strict.resyncs, loose.resyncs);
    }

    /// A disabled scheduler records history but never arms timers.
    #[test]
    fn disabled_scheduler_never_fires(schedule in schedule_strategy(4)) {
        let mut sched = Scheduler::new(4, TuningMode::Adaptive);
        let mut now = VirtualTime::ZERO;
        for &(w, gap) in &schedule {
            now += SimDuration::from_micros(gap);
            prop_assert!(sched.on_notify(WorkerId::new(w), now).is_none());
        }
        prop_assert_eq!(sched.stats().resyncs, 0);
        prop_assert_eq!(sched.history().len(), schedule.len());
    }

    /// The scheduler's push history preserves the notify order exactly.
    #[test]
    fn history_matches_schedule(schedule in schedule_strategy(5)) {
        let mut sched = Scheduler::new(5, fixed(100, 0.5));
        let mut now = VirtualTime::ZERO;
        let mut expected = Vec::new();
        for &(w, gap) in &schedule {
            now += SimDuration::from_micros(gap);
            sched.on_notify(WorkerId::new(w), now);
            expected.push((now, w));
        }
        let got: Vec<(VirtualTime, usize)> =
            sched.history().pushes().map(|p| (p.time, p.worker.index())).collect();
        prop_assert_eq!(got, expected);
    }

    /// Adaptive tuning either stays disabled or produces valid
    /// hyperparameters (positive window, finite non-negative rate).
    #[test]
    fn adaptive_tuning_outputs_are_valid(schedule in schedule_strategy(5), epochs in 1usize..4) {
        let mut sched = Scheduler::new(5, TuningMode::Adaptive);
        let mut now = VirtualTime::ZERO;
        let chunk = schedule.len().div_ceil(epochs);
        for (i, &(w, gap)) in schedule.iter().enumerate() {
            now += SimDuration::from_micros(gap);
            sched.on_pull(WorkerId::new(w), now);
            sched.on_notify(WorkerId::new(w), now);
            if (i + 1) % chunk == 0 {
                sched.on_epoch_complete(now);
                let h = sched.hyperparams();
                if !h.is_disabled() {
                    prop_assert!(h.abort_rate().is_finite() && h.abort_rate() >= 0.0);
                    prop_assert!(h.threshold(5) >= 1);
                }
            }
        }
    }
}

/// Feeds one uniform epoch into the scheduler: each of `workers` pulls at
/// the start of a `span`-long iteration (phases offset by `span / m`) and
/// notifies just before the end, for `iters` iterations starting at
/// `start`. Returns the time after the last event.
fn feed_uniform_epoch(
    sched: &mut Scheduler,
    workers: &[usize],
    span: f64,
    iters: usize,
    start: VirtualTime,
) -> VirtualTime {
    let m = workers.len();
    let mut events: Vec<(f64, usize, bool)> = Vec::new();
    for k in 0..iters {
        for (slot, &w) in workers.iter().enumerate() {
            let phase = k as f64 * span + slot as f64 * span / m as f64;
            events.push((phase, w, false));
            events.push((phase + span * 0.999, w, true));
        }
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut last = start;
    for (offset, w, is_notify) in events {
        last = start + SimDuration::from_secs_f64(offset);
        if is_notify {
            sched.on_notify(WorkerId::new(w), last);
        } else {
            sched.on_pull(WorkerId::new(w), last);
        }
    }
    last + SimDuration::from_secs_f64(span * 0.001)
}

/// Satellite: membership math. Algorithm 1 line 7 must be recomputed
/// against the *effective* cluster size when membership changes mid-run:
/// with `m` alive workers and span `T`, `ABORT_RATE = Δ (m − 1) / (T m)`.
#[test]
fn abort_rate_is_recomputed_when_membership_changes_mid_epoch() {
    const SPAN: f64 = 4.0;
    let mut sched = Scheduler::new(4, TuningMode::Adaptive);

    // Epoch 1: all four workers alive.
    let now = feed_uniform_epoch(&mut sched, &[0, 1, 2, 3], SPAN, 3, VirtualTime::ZERO);
    let o1 = sched
        .on_epoch_complete(now)
        .expect("uniform 4-worker epoch must be profitable");
    let d1 = o1.hyperparams.abort_time().as_secs_f64();
    let r1 = o1.hyperparams.abort_rate();
    assert!(
        (r1 - d1 * 3.0 / (SPAN * 4.0)).abs() < 0.02,
        "m=4 golden rate: got {r1}, expected {}",
        d1 * 3.0 / (SPAN * 4.0)
    );

    // Worker 3 dies mid-epoch: the effective m shrinks to 3.
    assert_eq!(sched.mark_dead(WorkerId::new(3), now), Ok(true));
    assert_eq!(sched.active_workers(), 3);

    // Epoch 2: only the three survivors push.
    let now = feed_uniform_epoch(&mut sched, &[0, 1, 2], SPAN, 3, now);
    let o2 = sched
        .on_epoch_complete(now)
        .expect("uniform 3-worker epoch must be profitable");
    let d2 = o2.hyperparams.abort_time().as_secs_f64();
    let r2 = o2.hyperparams.abort_rate();
    assert!(
        (r2 - d2 * 2.0 / (SPAN * 3.0)).abs() < 0.02,
        "m=3 golden rate: got {r2}, expected {}",
        d2 * 2.0 / (SPAN * 3.0)
    );

    // The rejoin must widen m again.
    assert_eq!(sched.mark_alive(WorkerId::new(3), now), Ok(true));
    assert_eq!(sched.active_workers(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: freshness estimates stay finite under arbitrary
    /// schedules and membership sizes, and the realized-improvement
    /// estimate (what the tuner maximizes) is never negative.
    #[test]
    fn freshness_estimates_are_finite_and_realized_nonnegative(
        schedule in schedule_strategy(5),
        delta_us in 1u64..5_000_000,
        m in 1usize..8,
    ) {
        use specsync_core::estimator::{
            estimate_improvement, estimate_realized_improvement, EpochView,
        };
        use specsync_core::PushHistory;

        let mut h = PushHistory::new();
        let mut now = VirtualTime::ZERO;
        for &(w, gap) in &schedule {
            now += SimDuration::from_micros(gap);
            h.record_pull(now, WorkerId::new(w));
            h.record_push(now + SimDuration::from_micros(1), WorkerId::new(w));
        }
        h.mark_epoch();

        // `m` deliberately ranges over, under and past the scheduled
        // worker count: membership churn shrinks or grows the view
        // independently of who appears in the history.
        let view = EpochView::from_recent(&h, m, 1);
        let delta = SimDuration::from_micros(delta_us);
        let f = estimate_improvement(&h, &view, delta);
        prop_assert!(f.is_finite(), "estimate_improvement diverged: {f}");
        let fr = estimate_realized_improvement(&h, &view, delta);
        prop_assert!(fr.is_finite(), "realized estimate diverged: {fr}");
        prop_assert!(fr >= 0.0, "realized estimate went negative: {fr}");
    }
}
