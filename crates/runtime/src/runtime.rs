//! The threaded deployment: the TCP deployment of `specsync-net` on the
//! threads of one process — a [`SchedulerServer`], a [`ShardServer`]
//! primary/backup pair and `m` [`WorkerHarness`] threads over
//! [`TcpTransport`], all on loopback: the roles of the paper's Fig. 7.
//!
//! Nothing here speaks the protocol itself, so moving a role to a process
//! of its own changes an address, not the code, and the runtime degrades
//! the way the wire does: heartbeat liveness with first-contact
//! admission, cumulative-notify reconciliation, and warm-backup promotion
//! when the primary goes. The [`RuntimeChaos`](crate::RuntimeChaos) knobs
//! inject those faults on purpose.
//!
//! The main thread is the evaluator. It pulls through a transport of its
//! own, as worker index `m` (so no real worker's counters move, and it
//! follows a promotion as every worker does), evaluates the loss whenever
//! the store version crosses a multiple of `eval_stride`, and ends the
//! run on the target loss or the budget through the scheduler's stop
//! handle.
//!
//! Every role reports through the one [`EventSink`] handed to
//! [`try_run_with_sink`], stamped with the wall time elapsed since that
//! role started. Unlike the simulator in `specsync-cluster`, a run is
//! intentionally not deterministic: its speculation windows and races
//! are real.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use specsync_core::SpecSyncError;
use specsync_ml::{ConvergenceDetector, Workload};
use specsync_net::{
    Endpoint, NetError, SchedulerConfig, SchedulerServer, ShardHost, ShardServer, TcpTransport,
    Transport, WireMessage,
};
use specsync_ps::ParameterStore;
use specsync_simnet::WorkerId;
use specsync_telemetry::{Event, EventSink, LossCurve, NullSink};

use crate::clock::{ClockSource, WallClock};
use crate::config::RuntimeConfig;
use crate::report::{RuntimeReport, WallLossPoint};
use crate::worker::WorkerHarness;

/// Runs a workload on real threads and reports the outcome.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`RuntimeConfig::try_validate`])
/// or a thread panics; [`try_run_with_sink`] reports those as typed errors
/// instead.
pub fn run(workload: &Workload, config: &RuntimeConfig) -> RuntimeReport {
    match try_run_with_sink(workload, config, Arc::new(NullSink)) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// A loopback deployment that failed to come up or to run.
fn wire_error(e: NetError) -> SpecSyncError {
    match e {
        NetError::Config(e) => e,
        other @ (NetError::Io(_)
        | NetError::Frame(_)
        | NetError::Unhandled { .. }
        | NetError::UnexpectedReply { .. }
        | NetError::ConnectFailed { .. }
        | NetError::RetryExhausted { .. }
        | NetError::Disconnected) => {
            SpecSyncError::InvalidConfig(format!("loopback deployment: {other}"))
        }
    }
}

/// Joins a role's thread and takes its result, naming the role if the
/// thread panicked.
fn join<T>(
    handle: JoinHandle<Result<T, NetError>>,
    role: &'static str,
) -> Result<T, SpecSyncError> {
    handle
        .join()
        .map_err(|_| SpecSyncError::ThreadPanicked { role })?
        .map_err(wire_error)
}

/// [`run`] with the run's protocol events routed to `sink`, and invalid
/// configurations and thread panics surfaced as [`SpecSyncError`] values
/// instead of propagated panics. The sink is shared by every server,
/// transport and worker thread, so implementations must tolerate
/// concurrent `record` calls (all bundled sinks do).
pub fn try_run_with_sink(
    workload: &Workload,
    config: &RuntimeConfig,
    sink: Arc<dyn EventSink<Duration>>,
) -> Result<RuntimeReport, SpecSyncError> {
    config.try_validate()?;
    let net = config.net_config()?;
    let m = config.workers;
    let clock: Arc<dyn ClockSource> = Arc::new(WallClock::new());
    let start = clock.now();
    let mut bundle = workload.build(m, config.seed);
    let initial = bundle.workers[0].params().to_vec();

    // Bind every server before any thread starts, so a failed bind
    // leaves nothing running. The scheduler runs until the evaluator
    // ends the run; the backup is bound first, as the primary connects
    // its relay when it starts.
    let scheduler = SchedulerServer::bind(
        "127.0.0.1:0",
        SchedulerConfig {
            scheme: config.scheme,
            workers: m,
            net: net.clone(),
            stop_after_pushes: None,
            max_duration: Duration::MAX,
        },
    )
    .map_err(wire_error)?
    .with_sink(Arc::clone(&sink));
    let sched_addr = scheduler.local_addr().to_string();
    let shard = |id: u64| -> Result<ShardServer, SpecSyncError> {
        let mut store = ParameterStore::new(initial.clone(), 8).with_momentum(workload.momentum);
        if let Some(clip) = workload.grad_clip {
            store = store.with_grad_clip(clip);
        }
        let host = ShardHost::new(store)
            .with_workers(m)
            .with_lr_fn(workload.lr.clone().into_rate_fn());
        let server = ShardServer::bind(id, "127.0.0.1:0", host, net.clone())
            .map_err(wire_error)?
            .with_scheduler(&sched_addr)
            .with_sink(Arc::clone(&sink));
        Ok(match &config.checkpoint_path {
            Some(path) => server.with_checkpoint(path.clone(), config.eval_stride),
            None => server,
        })
    };
    let backup = shard(1)?.as_backup();
    let primary = shard(0)?.with_backup_relay(backup.local_addr());
    let primary_addr = primary.local_addr().to_string();
    let end_run = scheduler.stop_handle();
    let halt = [primary.stop_handle(), backup.stop_handle()];
    let scheduler = thread::spawn(move || scheduler.run());
    let shards = [primary, backup].map(|server| thread::spawn(move || server.run()));

    // One transport per worker, and the evaluator's as worker `m`.
    let connect = |i: usize| {
        let worker = WorkerId::new(i);
        TcpTransport::connect(
            worker,
            &primary_addr,
            &sched_addr,
            net.clone(),
            Arc::clone(&sink),
        )
    };
    let connected = (0..m)
        .map(connect)
        .collect::<Result<Vec<_>, _>>()
        .and_then(|transports| Ok((transports, connect(m)?)));
    let (transports, mut evaluator) = match connected {
        Ok(connected) => connected,
        Err(e) => {
            // The scheduler's `Shutdown` ends the shards in turn.
            end_run.store(true, Ordering::SeqCst);
            return Err(wire_error(e));
        }
    };

    // Each worker thread hands its transport back, so its scheduler link
    // stays open until the scheduler has reported: a link closing is a
    // worker death to the scheduler.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = bundle
        .workers
        .drain(..)
        .zip(transports)
        .enumerate()
        .map(|(i, (model, mut transport))| {
            let harness = WorkerHarness {
                worker: WorkerId::new(i),
                sampler: workload.sampler_for(model.as_ref(), i, config.seed ^ 0xBA7C),
                model,
                compute_pad: config.compute_pad,
                abort_poll: config.abort_poll,
                heartbeat_interval: config.heartbeat_interval,
                mute_after: config
                    .chaos
                    .mute_worker_after
                    .filter(|&(idx, _)| idx == i)
                    .map(|(_, after)| after),
                drop_notify_every: config.chaos.drop_notify_every,
                clock: Arc::clone(&clock),
                sink: Arc::clone(&sink),
                run_start: start,
                stop: Arc::clone(&stop),
            };
            thread::spawn(move || (harness.run(&mut transport), transport))
        })
        .collect();

    // ---- Main thread: the evaluator. ----
    let deadline = start + config.max_duration;
    let mut detector = config.target_loss.map(ConvergenceDetector::paper_default);
    let mut converged_at = None;
    let mut curve = Vec::new();
    let mut evaluated = 0;
    let pull = WireMessage::Pull {
        worker: WorkerId::new(m),
    };
    while clock.now() < deadline && converged_at.is_none() {
        let Ok(Some(WireMessage::PullReply { version, params })) =
            evaluator.send(Endpoint::Shard, pull.clone())
        else {
            break;
        };
        if config
            .chaos
            .kill_primary_at_push
            .is_some_and(|n| version >= n)
        {
            halt[0].store(true, Ordering::SeqCst);
        }
        if version / config.eval_stride > evaluated {
            evaluated = version / config.eval_stride;
            let loss = bundle.eval.loss_of(&params);
            let (time, iterations) = (clock.now().saturating_sub(start), version);
            sink.record(time, &Event::Eval { iterations, loss });
            curve.push(WallLossPoint {
                time,
                iterations,
                loss,
            });
            if detector.as_mut().is_some_and(|d| d.observe(loss)) {
                converged_at = Some(time);
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "paces the evaluator's pulls; the budget is read on the runtime's clock"
        )]
        thread::sleep(config.abort_poll);
    }

    // Workers first, while every server still answers, so a push in
    // flight is acked; then the scheduler; then the shards, which by now
    // serve nobody. Every thread is joined before any failure is
    // reported, so none is left running detached.
    stop.store(true, Ordering::SeqCst);
    let workers: Vec<_> = workers.into_iter().map(JoinHandle::join).collect();
    end_run.store(true, Ordering::SeqCst);
    let scheduler = join(scheduler, "scheduler");
    for flag in &halt {
        flag.store(true, Ordering::SeqCst);
    }
    let [primary, backup] = shards.map(|handle| join(handle, "server"));
    drop(evaluator);
    sink.flush();
    let (outcomes, _): (Vec<_>, Vec<_>) = workers
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| SpecSyncError::ThreadPanicked { role: "worker" })?
        .into_iter()
        .unzip();
    let (scheduler, primary, backup) = (scheduler?, primary?, backup?);

    Ok(RuntimeReport {
        scheme: config.scheme.label(),
        workers: m,
        converged_at,
        // The backup holds every push the primary applied (it is relayed
        // first), and after a promotion every push since.
        total_iterations: primary.version.max(backup.version),
        total_aborts: outcomes.iter().map(|o| o.aborts).sum(),
        detected_failures: scheduler.workers_marked_dead,
        rejoins: scheduler.rejoins,
        promotions: scheduler.promotions,
        dropped_notifies: outcomes.iter().map(|o| o.dropped_notifies).sum(),
        checkpoints_written: primary.checkpoints_written + backup.checkpoints_written,
        loss_curve: LossCurve::from(curve),
        elapsed: clock.now().saturating_sub(start),
    })
}
