//! End-to-end fault-injection guarantees (ISSUE acceptance): a seeded
//! chaos run — ≥10% notify loss, two worker crashes, one straggler
//! window — must complete without deadlock under every scheme, and two
//! same-seed replays must serialize byte-identical JSONL traces. The
//! server-failure scenarios extend this to parameter-server shard
//! crashes: the warm backup must be promoted, journaled pushes replayed
//! exactly once, the scheduler restarted from its checkpoint, and the
//! whole failover must replay byte-identically under the same seed. A
//! re-sync lost on the network stays lost: aborts are fire-and-forget.

use std::sync::Arc;

use specsync::telemetry::{parse_trace_line, FaultKind, WorkerPhase};
use specsync::{
    ClusterSpec, CrashEvent, Event, EventSink, FaultPlan, InstanceType, JsonlSink,
    LinkFaultProfile, RunReport, SchemeKind, ServerCrashEvent, StragglerWindow, Trainer,
    VirtualTime, WorkerId, Workload,
};
use specsync_simnet::{DurationSampler, MessageClass, RngStreams, SimDuration};

/// The acceptance fault plan: 10% notify loss, light data loss with
/// duplicates and delay spikes, one straggler window, two crash/recover
/// cycles — all inside the first few virtual seconds so they land while
/// the tiny workload is still training.
fn chaos_plan(seed: u64) -> FaultPlan {
    let streams = RngStreams::new(seed);
    let data = LinkFaultProfile {
        drop_prob: 0.05,
        duplicate_prob: 0.02,
        spike_prob: 0.01,
        spike: DurationSampler::Constant { secs: 0.05 },
    };
    FaultPlan::new(&streams)
        .with_profile(MessageClass::Notify, LinkFaultProfile::drop_only(0.10))
        .with_profile(MessageClass::PullParams, data)
        .with_profile(MessageClass::PushGrad, data)
        .with_straggler(StragglerWindow {
            worker: WorkerId::new(1),
            start: VirtualTime::from_secs(1),
            end: VirtualTime::from_secs(4),
            slowdown: 3.0,
        })
        .with_crash(CrashEvent {
            worker: WorkerId::new(2),
            at: VirtualTime::from_secs(2),
            recover_at: Some(VirtualTime::from_secs(5)),
        })
        .with_crash(CrashEvent {
            worker: WorkerId::new(3),
            at: VirtualTime::from_secs(3),
            recover_at: Some(VirtualTime::from_secs(6)),
        })
}

/// Trains the tiny workload on five workers for at most 90 virtual
/// seconds under `plan` (`None`: fault-free), tracing every event as JSONL.
fn run_traced(scheme: SchemeKind, seed: u64, plan: Option<FaultPlan>) -> (Vec<u8>, RunReport) {
    let sink = Arc::new(JsonlSink::new(Vec::new()));
    let mut trainer = Trainer::new(Workload::tiny_test(), scheme)
        .cluster(ClusterSpec::homogeneous(5, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(90))
        .seed(seed)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink<VirtualTime>>);
    if let Some(plan) = plan {
        trainer = trainer.faults(plan);
    }
    let report = trainer.run();
    let bytes = Arc::try_unwrap(sink)
        .expect("driver dropped its sink handles")
        .finish()
        .expect("in-memory writes cannot fail");
    (bytes, report)
}

fn run_chaos_traced(scheme: SchemeKind, seed: u64) -> (Vec<u8>, RunReport) {
    run_traced(scheme, seed, Some(chaos_plan(seed)))
}

fn all_schemes() -> [(&'static str, SchemeKind); 4] {
    [
        ("ASP", SchemeKind::Asp),
        ("SSP(3)", SchemeKind::Ssp { bound: 3 }),
        ("BSP", SchemeKind::Bsp),
        ("SpecSync-Adaptive", SchemeKind::specsync_adaptive()),
    ]
}

#[test]
fn chaos_runs_complete_without_deadlock_under_every_scheme() {
    for (name, scheme) in all_schemes() {
        let (_, report) = run_chaos_traced(scheme, 71);
        // Completion itself is the no-deadlock proof (the driver would
        // otherwise spin to the horizon with an empty event queue); on top
        // of that the run must have made real progress and felt the faults.
        assert!(
            report.total_iterations > 50,
            "{name}: only {} iterations under chaos",
            report.total_iterations
        );
        assert_eq!(report.chaos.crashes, 2, "{name}: both crashes must fire");
        assert_eq!(
            report.chaos.recoveries, 2,
            "{name}: both workers must rejoin"
        );
        assert!(
            report.chaos.dropped_messages > 0,
            "{name}: a 10% notify-loss plan must drop something"
        );
    }
}

#[test]
fn same_seed_chaos_replays_are_byte_identical() {
    for (name, scheme) in all_schemes() {
        let (a, ra) = run_chaos_traced(scheme, 71);
        let (b, rb) = run_chaos_traced(scheme, 71);
        assert_eq!(
            ra.total_iterations, rb.total_iterations,
            "{name}: reports diverged"
        );
        assert_eq!(
            a, b,
            "{name}: two same-seed chaos traces must be byte-identical"
        );
    }
}

#[test]
fn chaos_traces_record_the_fault_lifecycle() {
    let (bytes, report) = run_chaos_traced(SchemeKind::specsync_adaptive(), 71);
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let mut crashed = 0u64;
    let mut recovered = 0u64;
    let mut stragglers = 0u64;
    let mut faults = 0u64;
    let mut last_t = 0u64;
    for line in text.lines() {
        let rec = parse_trace_line(line).expect("every emitted line parses");
        assert!(rec.micros >= last_t, "timestamps must be monotone");
        last_t = rec.micros;
        match rec.event {
            Event::WorkerCrashed { .. } => crashed += 1,
            Event::WorkerRecovered { .. } => recovered += 1,
            Event::Straggler { .. } => stragglers += 1,
            Event::Fault { .. } => faults += 1,
            _ => {}
        }
    }
    assert_eq!(crashed, report.chaos.crashes);
    assert_eq!(recovered, report.chaos.recoveries);
    assert_eq!(stragglers, 1, "the straggler window must be traced once");
    assert!(
        faults >= report.chaos.dropped_messages,
        "every drop must appear as a Fault event"
    );
}

fn server_crash_plan(seed: u64) -> FaultPlan {
    chaos_plan(seed).with_server_crash(ServerCrashEvent {
        server: 0,
        at: VirtualTime::from_secs(2),
        recover_at: Some(VirtualTime::from_secs(7)),
    })
}

fn run_server_crash_traced(scheme: SchemeKind, seed: u64) -> (Vec<u8>, RunReport) {
    run_traced(scheme, seed, Some(server_crash_plan(seed)))
}

#[test]
fn server_crash_fails_over_and_completes_under_every_scheme() {
    for (name, scheme) in all_schemes() {
        let (_, report) = run_server_crash_traced(scheme, 71);
        assert!(
            report.total_iterations > 50,
            "{name}: only {} iterations after a server failover",
            report.total_iterations
        );
        assert_eq!(
            report.chaos.server_crashes, 1,
            "{name}: the shard crash must fire"
        );
        assert_eq!(
            report.chaos.failovers, 1,
            "{name}: the warm backup must be promoted exactly once"
        );
        assert_eq!(
            report.chaos.server_recoveries, 1,
            "{name}: the crashed node must rejoin as backup"
        );
        // Exactly-once journal reconciliation: every worker's applied
        // pushes are accounted for — none double-applied, none lost.
        let per_worker: u64 = report.iterations_per_worker.iter().sum();
        assert_eq!(
            per_worker, report.total_iterations,
            "{name}: per-worker iteration counts must reconcile with the total"
        );
    }
}

#[test]
fn same_seed_server_failover_replays_are_byte_identical() {
    for (name, scheme) in all_schemes() {
        let (a, ra) = run_server_crash_traced(scheme, 71);
        let (b, rb) = run_server_crash_traced(scheme, 71);
        assert_eq!(ra, rb, "{name}: failover reports diverged across replays");
        assert_eq!(
            a, b,
            "{name}: two same-seed failover traces must be byte-identical"
        );
    }
}

#[test]
fn server_failover_traces_record_the_recovery_lifecycle() {
    let (bytes, report) = run_server_crash_traced(SchemeKind::specsync_adaptive(), 71);
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let mut failovers = 0u64;
    for line in text.lines() {
        let rec = parse_trace_line(line).expect("every emitted line parses");
        if let Event::ShardFailover { replayed, .. } = rec.event {
            failovers += 1;
            assert_eq!(
                replayed, report.chaos.journal_replayed,
                "the traced replay count must match the report"
            );
        }
    }
    assert_eq!(failovers, report.chaos.failovers);
}

#[test]
fn fault_plans_change_the_trace_but_not_its_validity() {
    let (clean, _) = run_traced(SchemeKind::specsync_adaptive(), 71, None);
    let (chaotic, _) = run_chaos_traced(SchemeKind::specsync_adaptive(), 71);
    assert_ne!(clean, chaotic, "fault injection must perturb the trace");
}

/// Drops half the re-syncs and duplicates nothing.
fn lost_resync_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(&RngStreams::new(seed))
        .with_profile(MessageClass::Resync, LinkFaultProfile::drop_only(0.5))
}

#[test]
fn a_lost_resync_is_lost() {
    // A 100 ms window that one other push trips: aborts are frequent.
    let scheme = SchemeKind::specsync_fixed(SimDuration::from_millis(100), 0.2);
    let (bytes, report) = run_traced(scheme, 71, Some(lost_resync_plan(71)));
    assert!(
        report.converged_at.is_some(),
        "the run must complete: {} iterations",
        report.total_iterations
    );

    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let (mut issued, mut dropped, mut pushed_anyway) = (0u64, 0u64, 0u64);
    let mut phase = vec![WorkerPhase::Idle; report.num_workers];
    // Workers whose re-sync was dropped while they were computing.
    let mut owed = vec![false; report.num_workers];
    for line in text.lines() {
        match parse_trace_line(line).expect("every line parses").event {
            Event::AbortIssued { .. } => issued += 1,
            Event::Fault {
                worker,
                class: MessageClass::Resync,
                kind: FaultKind::Drop,
            } => {
                dropped += 1;
                owed[worker.index()] = phase[worker.index()] == WorkerPhase::Computing;
            }
            Event::WorkerState { worker, state } => {
                if std::mem::take(&mut owed[worker.index()]) {
                    // Nothing re-sends the abort: the worker finishes and
                    // pushes the iteration it was computing.
                    assert_eq!(state, WorkerPhase::Pushing, "{worker:?} was aborted anyway");
                    pushed_anyway += 1;
                }
                phase[worker.index()] = state;
            }
            _ => {}
        }
    }
    assert!(
        dropped > 0 && pushed_anyway > 0,
        "no re-sync was lost mid-compute"
    );

    // Each abort is sent once: every send was dropped or delivered, and
    // at most one per worker is still in flight when the run ends.
    let delivered = report
        .transfer
        .records()
        .iter()
        .filter(|record| record.class == MessageClass::Resync)
        .count() as u64;
    assert!(delivered + dropped <= issued, "an abort was sent twice");
    assert!(issued - (delivered + dropped) <= report.num_workers as u64);

    let (again, _) = run_traced(scheme, 71, Some(lost_resync_plan(71)));
    assert!(
        text.as_bytes() == again,
        "two same-seed traces must be byte-identical"
    );
}
