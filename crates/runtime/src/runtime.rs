//! The threaded deployment: one server thread, one scheduler thread, `m`
//! worker threads, wired with channels — the same roles as the paper's
//! Fig. 7, inside one process.
//!
//! Every message between roles is a [`WireMessage`], the same vocabulary
//! the TCP deployment in `specsync-net` puts on real sockets, and every
//! role is a thin driver of a machine the TCP deployment also drives: the
//! server thread answers pulls and pushes through [`ShardHost`] (epoch
//! estimate, learning rate, apply and reply frames are the host's), the
//! scheduler thread drives [`SchedulerHost`], and the worker threads run
//! the shared [`WorkerHarness`](crate::WorkerHarness) loop over an
//! [`InProcTransport`]. Switching a worker to another process is a
//! transport swap, not a rewrite.
//!
//! Unlike the virtual-time simulator in `specsync-cluster` (deterministic,
//! used for all paper experiments), this runtime exercises the SpecSync
//! protocol under *real* concurrency: real wall-clock speculation windows,
//! real races between `re-sync` delivery and iteration completion. It is
//! intentionally not deterministic — but every time read still goes
//! through [`ClockSource`], so the wall clock is injected, not ambient.
//!
//! # Resilience
//!
//! The runtime degrades gracefully rather than hanging or crashing:
//!
//! - **Liveness**: every worker heartbeats the scheduler on
//!   [`RuntimeConfig::heartbeat_interval`]; once a worker has been heard
//!   from, silence past [`RuntimeConfig::heartbeat_timeout`] marks it dead
//!   (shrinking the effective `m`), and any later heartbeat or notify
//!   re-admits it.
//! - **Notify reconciliation**: each notify piggybacks the worker's
//!   cumulative push count, so the scheduler backfills notifies lost in
//!   flight.
//! - **Poisoned-store recovery**: the server thread hands pushes to the
//!   host under `catch_unwind`; a panicking apply rolls the parameters
//!   back to the last eval-stride checkpoint (the store's version and
//!   per-worker counts carry on, so the host's epochs never rewind or
//!   stall), the rebuilt store is installed in the host and the run
//!   continues.
//!
//! The first two are the shared [`SchedulerHost`]'s rules — the scheduler
//! thread here only moves its inputs and outputs; the TCP scheduler server
//! drives the same machine.
//!
//! The [`RuntimeChaos`](crate::RuntimeChaos) knobs inject each of these
//! faults on purpose; telemetry reports every degradation decision
//! ([`Event::WorkerCrashed`], [`Event::WorkerRecovered`],
//! [`Event::NotifyLoss`], [`Event::StoreRecovered`]).
//!
//! Telemetry: every thread stamps its events with the [`Duration`] elapsed
//! on the injected clock since the run started and reports them through
//! one shared [`EventSink`] (see [`try_run_with_sink`]). The taxonomy is
//! identical to the simulator's; the interleaving is whatever the OS
//! scheduler produced.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use specsync_core::SpecSyncError;
use specsync_ml::{ConvergenceDetector, Workload};
use specsync_net::{
    InProcTransport, SchedOutput, SchedulerHost, ServerFrame, ShardHost, WireMessage,
};
use specsync_ps::{ParameterStore, ReplicatedStore};
use specsync_simnet::WorkerId;
use specsync_telemetry::{Event, EventSink, LossCurve, NullSink};

use crate::clock::{ClockSource, WallClock};
use crate::config::RuntimeConfig;
use crate::report::{RuntimeReport, WallLossPoint};
use crate::worker::WorkerHarness;

/// Elapsed run time on the injected clock — the runtime's trace timestamp.
fn elapsed_since(clock: &dyn ClockSource, start: Duration) -> Duration {
    clock.now().saturating_sub(start)
}

/// Shared degradation counters, filled in by the three thread roles.
#[derive(Default)]
struct ResilienceCounters {
    detected_failures: AtomicU64,
    rejoins: AtomicU64,
    store_recoveries: AtomicU64,
    dropped_notifies: AtomicU64,
    checkpoints_written: AtomicU64,
}

/// Runs a workload on real threads and reports the outcome.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`RuntimeConfig::try_validate`])
/// or a thread panics; [`try_run`] reports those as typed errors instead.
pub fn run(workload: &Workload, config: &RuntimeConfig) -> RuntimeReport {
    match try_run(workload, config) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`run`] with invalid configurations and thread panics surfaced as
/// [`SpecSyncError`] values instead of propagated panics. Uses the wall
/// clock and discards telemetry.
pub fn try_run(
    workload: &Workload,
    config: &RuntimeConfig,
) -> Result<RuntimeReport, SpecSyncError> {
    try_run_with_clock(workload, config, Arc::new(WallClock::new()))
}

/// [`try_run`] against an injected [`ClockSource`] — the seam that keeps
/// wall-clock reads out of the runtime logic and lets tests drive timing
/// with a [`ManualClock`](crate::clock::ManualClock).
pub fn try_run_with_clock(
    workload: &Workload,
    config: &RuntimeConfig,
    clock: Arc<dyn ClockSource>,
) -> Result<RuntimeReport, SpecSyncError> {
    try_run_with_sink(workload, config, clock, Arc::new(NullSink))
}

/// [`try_run_with_clock`] with the run's protocol events routed to `sink`,
/// stamped with elapsed time on `clock`. The sink is shared by the server,
/// scheduler and every worker thread, so implementations must tolerate
/// concurrent `record` calls (all bundled sinks do).
pub fn try_run_with_sink(
    workload: &Workload,
    config: &RuntimeConfig,
    clock: Arc<dyn ClockSource>,
    sink: Arc<dyn EventSink<Duration>>,
) -> Result<RuntimeReport, SpecSyncError> {
    config.try_validate()?;
    let m = config.workers;
    let start = clock.now();
    let stop = Arc::new(AtomicBool::new(false));
    let aborts = Arc::new(AtomicU64::new(0));
    let counters = Arc::new(ResilienceCounters::default());

    let mut bundle = workload.build(m, config.seed);
    let initial = bundle.workers[0].params().to_vec();

    // Channels — all carrying the shared wire vocabulary. The bounded(1)
    // control channel per worker keeps the seed's semantics: a full
    // channel already holds an undelivered re-sync for that worker.
    let (server_tx, server_rx) = unbounded::<ServerFrame>();
    let (sched_tx, sched_rx) = unbounded::<WireMessage>();
    let resync_channels: Vec<(Sender<WireMessage>, Receiver<WireMessage>)> =
        (0..m).map(|_| bounded(1)).collect();
    let resync_txs: Vec<Sender<WireMessage>> =
        resync_channels.iter().map(|(tx, _)| tx.clone()).collect();

    // ---- Server thread: drives the shared `ShardHost`, evaluates. ----
    let loss_curve = Arc::new(Mutex::new(Vec::<WallLossPoint>::new()));
    let converged_at = Arc::new(Mutex::new(None::<Duration>));
    let total_pushes = Arc::new(AtomicU64::new(0));
    let server = {
        let mut store = ParameterStore::new(initial, 8).with_momentum(workload.momentum);
        if let Some(clip) = workload.grad_clip {
            store = store.with_grad_clip(clip);
        }
        let mut host = ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ))
        .with_workers(m)
        .with_lr_fn(workload.lr.clone().into_rate_fn());
        let mut eval = bundle.eval;
        let mut detector = config.target_loss.map(ConvergenceDetector::paper_default);
        let stop = Arc::clone(&stop);
        let loss_curve = Arc::clone(&loss_curve);
        let converged_at = Arc::clone(&converged_at);
        let total_pushes = Arc::clone(&total_pushes);
        let counters = Arc::clone(&counters);
        let eval_stride = config.eval_stride;
        let poison_at_push = config.chaos.poison_at_push;
        let checkpoint_path = config.checkpoint_path.clone();
        let clock = Arc::clone(&clock);
        let sink = Arc::clone(&sink);
        let run_start = start;
        thread::spawn(move || {
            // Recovery checkpoint: the last eval-stride parameter snapshot,
            // shared with the store's pull cache instead of cloned — the
            // stride costs one `Arc` bump, not an O(n) copy. A poisoned
            // apply rolls back to here (momentum state is sacrificed — a
            // degradation, not a correctness loss).
            let mut checkpoint = host.replica_mut().shared_params();
            let mut checkpoint_version = 0u64;
            let mut push_attempts = 0u64;
            let now = || elapsed_since(clock.as_ref(), run_start);
            while let Ok((frame, reply)) = server_rx.recv() {
                let answer = match frame {
                    WireMessage::Shutdown => break,
                    WireMessage::Pull { worker } => {
                        let staleness = host.replica().staleness_of(worker);
                        sink.record(now(), &Event::Pull { worker, staleness });
                        host.handle(frame).ok().flatten()
                    }
                    WireMessage::Push { worker, .. } => {
                        push_attempts += 1;
                        let poison = poison_at_push == Some(push_attempts);
                        let Ok(ack) = catch_unwind(AssertUnwindSafe(|| {
                            assert!(!poison, "injected store poison");
                            host.handle(frame).ok().flatten()
                        })) else {
                            // The apply panicked mid-update; the store may
                            // hold a torn write. Roll its parameters back to
                            // the checkpoint (version and per-worker counts
                            // carry on, so the host's epochs keep advancing),
                            // rebuild the replica pair and drop this push.
                            let store = host.replica_mut().serving_store_mut();
                            store.roll_back_params(&checkpoint);
                            let rebuilt = ReplicatedStore::from_store(
                                store.clone(),
                                ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
                            );
                            host.install_store(rebuilt);
                            counters.store_recoveries.fetch_add(1, Ordering::Relaxed);
                            let version = checkpoint_version;
                            sink.record(now(), &Event::StoreRecovered { version });
                            continue;
                        };
                        // Refused, so not applied: an in-process replica
                        // pair is never failing over.
                        let Some(ack) = ack else { continue };
                        let iteration = total_pushes.fetch_add(1, Ordering::Relaxed) + 1;
                        sink.record(now(), &Event::Push { worker, iteration });
                        if iteration.is_multiple_of(eval_stride) {
                            checkpoint = host.replica_mut().shared_params();
                            checkpoint_version = iteration;
                            if let Some(path) = &checkpoint_path {
                                // Crash-consistent persistence: encode the
                                // full store state (optimizer included),
                                // write to a temp file, atomically rename.
                                let store = host.replica_mut().serving_store_mut();
                                let blob = store.snapshot_for_checkpoint().encode();
                                let bytes = blob.len() as u64;
                                let tmp = path.with_extension("tmp");
                                let written = std::fs::write(&tmp, &blob)
                                    .and_then(|()| std::fs::rename(&tmp, path))
                                    .is_ok();
                                if written {
                                    counters.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                                    let version = iteration;
                                    sink.record(
                                        now(),
                                        &Event::CheckpointWritten { version, bytes },
                                    );
                                }
                            }
                            let loss = eval.loss_of(&checkpoint);
                            let (elapsed, iterations) = (now(), iteration);
                            sink.record(elapsed, &Event::Eval { iterations, loss });
                            loss_curve.lock().push(WallLossPoint {
                                time: elapsed,
                                iterations,
                                loss,
                            });
                            if let Some(det) = detector.as_mut() {
                                if det.observe(loss) && converged_at.lock().is_none() {
                                    *converged_at.lock() = Some(elapsed);
                                    stop.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        Some(ack)
                    }
                    // No other frame reaches the in-process shard; the
                    // transport refuses them with a typed error before
                    // they can be sent.
                    _ => continue,
                };
                // In-process pushes are fire-and-forget (`reply` is `None`);
                // a rendezvous push gets the ack frame the TCP shard would
                // send. A send fails only if the worker already exited.
                if let (Some(reply), Some(answer)) = (reply, answer) {
                    let _ = reply.send(answer);
                }
            }
        })
    };

    // ---- Scheduler thread: drives the shared `SchedulerHost`. ----
    let scheduler = {
        let mut host = SchedulerHost::new(config.scheme, m, config.heartbeat_timeout);
        let resync_txs = resync_txs.clone();
        let counters = Arc::clone(&counters);
        let hb_interval = config.heartbeat_interval;
        let clock = Arc::clone(&clock);
        let sink = Arc::clone(&sink);
        let run_start = start;
        thread::spawn(move || {
            let mut out: Vec<SchedOutput> = Vec::new();
            let mut inbox: Option<WireMessage> = None;
            loop {
                let now = elapsed_since(clock.as_ref(), run_start);
                if let Some(frame) = inbox {
                    // In-process, a worker's channel is its connection.
                    let conn = frame.worker().map_or(0, |worker| worker.index());
                    host.frame(conn, frame, now, &mut out);
                }
                host.poll(now, &mut out);
                for output in out.drain(..) {
                    match output {
                        // `Abort` is the only frame the host sends a
                        // worker, and its channel is `bounded(1)`: a full
                        // channel already holds this worker's abort, and a
                        // copy sent later would land after the pull that
                        // drains it — too late (Algorithm 2). So a full
                        // channel, or an exited worker, drops the frame.
                        SchedOutput::ToWorker(worker, frame) => {
                            let _ = resync_txs[worker.index()].try_send(frame);
                        }
                        // The shard plane (primary queries, promotion)
                        // runs only between processes.
                        SchedOutput::ToConn(..) => {}
                        SchedOutput::Record(event) => sink.record(now, &event),
                        SchedOutput::SampleCost => {
                            let done = elapsed_since(clock.as_ref(), run_start);
                            let nanos =
                                done.saturating_sub(now).as_nanos().min(u64::MAX as u128) as u64;
                            sink.record(done, &Event::SchedCost { nanos });
                        }
                    }
                }
                // Sleep until the host has work — but never longer than a
                // heartbeat interval, the cadence at which the host's
                // liveness sweep must run.
                let timeout = host
                    .next_deadline()
                    .map_or(hb_interval, |due| due.saturating_sub(now).min(hb_interval));
                inbox = match sched_rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
                    Ok(WireMessage::Shutdown) => break,
                    Ok(frame) => Some(frame),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
            }
            counters
                .detected_failures
                .store(host.workers_marked_dead(), Ordering::Relaxed);
            counters.rejoins.store(host.rejoins(), Ordering::Relaxed);
        })
    };

    // ---- Worker threads: the shared harness over InProcTransport. ----
    let mut worker_handles = Vec::with_capacity(m);
    for (i, model) in bundle.workers.drain(..).enumerate() {
        let worker = WorkerId::new(i);
        let mut transport = InProcTransport::new(
            worker,
            server_tx.clone(),
            sched_tx.clone(),
            resync_channels[i].1.clone(),
        );
        let sampler = workload.sampler_for(model.as_ref(), i, config.seed ^ 0xBA7C);
        let harness = WorkerHarness {
            worker,
            model,
            sampler,
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
        let aborts = Arc::clone(&aborts);
        let counters = Arc::clone(&counters);
        worker_handles.push(thread::spawn(move || {
            let outcome = harness.run(&mut transport);
            aborts.fetch_add(outcome.aborts, Ordering::Relaxed);
            counters
                .dropped_notifies
                .fetch_add(outcome.dropped_notifies, Ordering::Relaxed);
        }));
    }

    // ---- Main thread: enforce the wall-clock budget. ----
    let deadline = start + config.max_duration;
    while clock.now() < deadline && !stop.load(Ordering::SeqCst) {
        // specsync-allow(virtual-time): the budget watchdog polls the injected clock; the sleep only bounds poll frequency
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    let mut worker_panicked = false;
    for h in worker_handles {
        worker_panicked |= h.join().is_err();
    }
    let _ = sched_tx.send(WireMessage::Shutdown);
    let _ = server_tx.send((WireMessage::Shutdown, None));
    // Drain the remaining threads before reporting any failure, so a
    // worker panic cannot leave the server/scheduler running detached.
    let scheduler_panicked = scheduler.join().is_err();
    let server_panicked = server.join().is_err();
    sink.flush();
    if worker_panicked {
        return Err(SpecSyncError::ThreadPanicked { role: "worker" });
    }
    if scheduler_panicked {
        return Err(SpecSyncError::ThreadPanicked { role: "scheduler" });
    }
    if server_panicked {
        return Err(SpecSyncError::ThreadPanicked { role: "server" });
    }

    let elapsed = clock.now().saturating_sub(start);
    let mut curve = Arc::try_unwrap(loss_curve)
        .map(Mutex::into_inner)
        .unwrap_or_default();
    curve.sort_by_key(|p| p.iterations);
    let converged = *converged_at.lock();
    Ok(RuntimeReport {
        scheme: config.scheme.label(),
        workers: m,
        converged_at: converged,
        total_iterations: total_pushes.load(Ordering::Relaxed),
        total_aborts: aborts.load(Ordering::Relaxed),
        detected_failures: counters.detected_failures.load(Ordering::Relaxed),
        rejoins: counters.rejoins.load(Ordering::Relaxed),
        store_recoveries: counters.store_recoveries.load(Ordering::Relaxed),
        dropped_notifies: counters.dropped_notifies.load(Ordering::Relaxed),
        checkpoints_written: counters.checkpoints_written.load(Ordering::Relaxed),
        loss_curve: LossCurve::from(curve),
        elapsed,
    })
}
