//! Integration tests for the threaded runtime: the protocol must behave
//! under real concurrency, over the wire servers on loopback threads.

use std::sync::Arc;
use std::time::Duration;

use specsync_ml::Workload;
use specsync_runtime::{run, try_run_with_sink, RuntimeChaos, RuntimeConfig, RuntimeReport};
use specsync_simnet::SimDuration;
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, InMemorySink};

fn base_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 4,
        compute_pad: Duration::from_millis(5),
        abort_poll: Duration::from_millis(1),
        max_duration: Duration::from_millis(800),
        eval_stride: 4,
        seed: 3,
        ..RuntimeConfig::default()
    }
}

/// Runs `config` with every event recorded.
fn traced(config: &RuntimeConfig) -> (RuntimeReport, Vec<(Duration, Event)>) {
    let sink = Arc::new(InMemorySink::<Duration>::new());
    let report = try_run_with_sink(&Workload::tiny_test(), config, Arc::clone(&sink) as _)
        .expect("valid config");
    (report, sink.take())
}

/// How many of `events` match.
fn count(events: &[(Duration, Event)], matching: impl Fn(&Event) -> bool) -> u64 {
    events.iter().filter(|(_, e)| matching(e)).count() as u64
}

#[test]
fn asp_makes_progress_on_real_threads() {
    let report = run(&Workload::tiny_test(), &base_config());
    assert_eq!(report.scheme, "Original");
    assert!(
        report.total_iterations > 20,
        "only {} iterations",
        report.total_iterations
    );
    assert_eq!(report.total_aborts, 0);
    let first = report.loss_curve.first().expect("non-empty curve").loss;
    let best = report.best_loss().expect("non-empty curve");
    assert!(best <= first, "loss should not regress: {first} -> {best}");
}

#[test]
fn specsync_fixed_aborts_under_load() {
    let config = RuntimeConfig {
        // Window shorter than the compute pad and a permissive threshold:
        // with 4 workers pushing every ~5 ms, aborts must occur.
        scheme: SchemeKind::specsync_fixed(SimDuration::from_millis(3), 0.25),
        ..base_config()
    };
    let report = run(&Workload::tiny_test(), &config);
    assert!(
        report.total_aborts > 0,
        "speculation never fired on real threads"
    );
    assert!(report.total_iterations > 10);
}

#[test]
fn specsync_adaptive_runs_and_completes() {
    let config = RuntimeConfig {
        scheme: SchemeKind::specsync_adaptive(),
        max_duration: Duration::from_millis(1200),
        ..base_config()
    };
    let report = run(&Workload::tiny_test(), &config);
    assert_eq!(report.scheme, "SpecSync-Adaptive");
    assert!(report.total_iterations > 20);
    assert!(
        report.elapsed <= Duration::from_secs(5),
        "run overshot its budget grossly"
    );
}

#[test]
fn target_loss_stops_the_run_early() {
    let config = RuntimeConfig {
        // Trivially reachable target: the initial loss already satisfies it.
        target_loss: Some(1e9),
        max_duration: Duration::from_secs(10),
        ..base_config()
    };
    let report = run(&Workload::tiny_test(), &config);
    assert!(report.converged_at.is_some());
    assert!(
        report.elapsed < Duration::from_secs(5),
        "early stop did not happen"
    );
}

#[test]
fn loss_curve_iterations_are_monotone() {
    let report = run(&Workload::tiny_test(), &base_config());
    assert!(report
        .loss_curve
        .windows(2)
        .all(|w| w[0].iterations < w[1].iterations));
}

#[test]
fn sink_observes_the_run_it_was_handed() {
    let config = RuntimeConfig {
        scheme: SchemeKind::specsync_fixed(SimDuration::from_millis(3), 0.25),
        ..base_config()
    };
    let (report, events) = traced(&config);

    assert_eq!(
        count(&events, |e| matches!(e, Event::Push { .. })),
        report.total_iterations,
        "every applied push must be traced"
    );
    assert_eq!(
        count(&events, |e| matches!(e, Event::Resync { .. })),
        report.total_aborts,
        "every abort must be traced as a re-sync"
    );
    assert_eq!(
        count(&events, |e| matches!(e, Event::Eval { .. })) as usize,
        report.loss_curve.len(),
        "every loss sample must be traced"
    );
    // Wall timestamps are monotone non-decreasing in emission order per
    // thread; globally they must at least stay within the run's span.
    let max_t = events.iter().map(|(t, _)| *t).max().expect("events exist");
    assert!(max_t <= report.elapsed + Duration::from_millis(500));
}

#[test]
fn fault_free_runs_report_zero_degradations() {
    let report = run(&Workload::tiny_test(), &base_config());
    assert_eq!(report.promotions, 0);
    assert_eq!(report.dropped_notifies, 0);
    assert_eq!(report.rejoins, 0);
}

/// The store version at which the scheduler promoted the backup, from
/// the run's one `ShardFailover` event.
fn failover_version(events: &[(Duration, Event)]) -> u64 {
    let failovers: Vec<u64> = events
        .iter()
        .filter_map(|(_, e)| match e {
            Event::ShardFailover { version, .. } => Some(*version),
            _ => None,
        })
        .collect();
    assert_eq!(failovers.len(), 1, "the promotion must be traced once");
    failovers[0]
}

#[test]
fn a_killed_primary_is_promoted_and_the_run_continues() {
    let config = RuntimeConfig {
        chaos: RuntimeChaos {
            kill_primary_at_push: Some(10),
            ..RuntimeChaos::default()
        },
        ..base_config()
    };
    let (report, events) = traced(&config);
    assert_eq!(report.promotions, 1);
    let promoted_at = failover_version(&events);
    assert!(
        promoted_at >= 10,
        "promoted at {promoted_at}, before the kill"
    );
    assert!(
        report.total_iterations >= promoted_at + 10,
        "run stalled after the promotion at {promoted_at}: {} iterations",
        report.total_iterations
    );
    // Each applied push is traced once, by whichever shard was serving.
    assert_eq!(
        count(&events, |e| matches!(e, Event::Push { .. })),
        report.total_iterations
    );
    assert!(report
        .loss_curve
        .windows(2)
        .all(|w| w[0].iterations < w[1].iterations));
}

#[test]
fn dropped_notifies_are_reconciled_from_the_push_counter() {
    let config = RuntimeConfig {
        scheme: SchemeKind::specsync_fixed(SimDuration::from_millis(3), 0.25),
        chaos: RuntimeChaos {
            drop_notify_every: Some(3),
            ..RuntimeChaos::default()
        },
        ..base_config()
    };
    let (report, events) = traced(&config);
    assert!(
        report.dropped_notifies > 0,
        "the chaos knob never fired in {} iterations",
        report.total_iterations
    );
    assert!(report.total_iterations > 20, "notify loss stalled the run");
    // Reconciliation must detect at least some of the losses: each
    // surviving notify carries the worker's cumulative push count, so a
    // gap shows up on the very next delivery.
    let reconciled: u64 = events
        .iter()
        .filter_map(|(_, e)| match e {
            Event::NotifyLoss { missing, .. } => Some(*missing),
            _ => None,
        })
        .sum();
    assert!(
        reconciled > 0,
        "dropped {} notifies but reconciled none",
        report.dropped_notifies
    );
}

#[test]
fn muted_worker_is_declared_dead_and_survivors_continue() {
    let config = RuntimeConfig {
        workers: 3,
        max_duration: Duration::from_millis(900),
        heartbeat_interval: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(60),
        chaos: RuntimeChaos {
            mute_worker_after: Some((0, Duration::from_millis(150))),
            ..RuntimeChaos::default()
        },
        ..base_config()
    };
    let (report, events) = traced(&config);
    assert!(
        report.detected_failures >= 1,
        "heartbeat silence was never detected"
    );
    assert_eq!(report.rejoins, 0, "a muted worker must stay dead");
    assert!(
        report.total_iterations > 20,
        "survivors stalled after the partition"
    );
    assert!(
        count(&events, |e| matches!(e, Event::WorkerCrashed { .. })) > 0,
        "the detection must be traced"
    );
}

#[test]
fn single_worker_degenerates_to_sequential_sgd() {
    let config = RuntimeConfig {
        workers: 1,
        ..base_config()
    };
    let report = run(&Workload::tiny_test(), &config);
    assert!(report.total_iterations > 10);
    assert_eq!(
        report.total_aborts, 0,
        "a lone worker has no peers to trigger speculation"
    );
}

#[test]
fn the_store_keeps_counting_across_a_recovery() {
    // The promoted backup holds every push the primary acked and goes on
    // from there: the pushes it traces carry the versions it holds, past
    // the promotion, up to the run's last.
    let config = RuntimeConfig {
        chaos: RuntimeChaos {
            kill_primary_at_push: Some(10),
            ..RuntimeChaos::default()
        },
        ..base_config()
    };
    let (report, events) = traced(&config);
    assert_eq!(report.promotions, 1);
    let promoted_at = failover_version(&events);
    let iterations: Vec<u64> = events
        .iter()
        .filter_map(|(_, e)| match e {
            Event::Push { iteration, .. } => Some(*iteration),
            _ => None,
        })
        .collect();
    assert!(
        iterations.iter().any(|&it| it > promoted_at),
        "no push traced after the promotion at {promoted_at}"
    );
    assert_eq!(iterations.iter().max(), Some(&report.total_iterations));
}

#[test]
fn a_worker_never_heard_from_is_not_declared_dead() {
    // The liveness rule the TCP scheduler already had: the silence clock
    // starts at a worker's first frame, not at the run's start. Worker 1's
    // scheduler link is silent from the outset, far past the timeout.
    let config = RuntimeConfig {
        workers: 3,
        max_duration: Duration::from_millis(500),
        heartbeat_interval: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(60),
        chaos: RuntimeChaos {
            mute_worker_after: Some((1, Duration::ZERO)),
            ..RuntimeChaos::default()
        },
        ..base_config()
    };
    let report = run(&Workload::tiny_test(), &config);
    assert_eq!(
        report.detected_failures, 0,
        "a worker that never made first contact was declared dead"
    );
    assert!(report.total_iterations > 20);
}
