//! The virtual-time training driver.
//!
//! Composes the parameter store, the SpecSync scheduler, the sync-scheme
//! bookkeeping and the per-worker models into one discrete-event loop.
//! Gradient math is real (each worker computes actual minibatch gradients
//! against its possibly-stale replica); *time* is virtual: compute spans are
//! drawn from instance-type distributions and message delays from the
//! network model, so a 40-node hour-long EC2 run replays in milliseconds,
//! deterministically from a seed.
//!
//! Worker lifecycle (paper Algorithm 2, worker side). Each worker's
//! [`WorkerMachine`] owns its rules, as on the wire; the driver feeds it
//! the queue's events and records the events it returns:
//!
//! ```text
//! pull issued ──(pull bytes)──▶ PullArrive: start_compute, gradient, timer
//!    ▲                              │
//!    │ abort while computing        ▼
//!    └───────── ResyncArrive    ComputeDone ──(push bytes)──▶ PushArrive:
//!                                   apply to store, notify scheduler,
//!                                   next pull (gated by BSP/SSP/naïve wait)
//! ```
//!
//! # Fault injection
//!
//! An optional [`FaultPlan`] (see [`Trainer::faults`]) subjects every
//! message send to drop/duplicate/delay-spike verdicts, slows compute
//! inside straggler windows, and schedules worker crash/recover events.
//! The degradation machinery is:
//!
//! - **Retries**: dropped pulls and pushes are re-sent after a fixed
//!   timeout, up to `MAX_RESENDS` times; the final
//!   attempt is delivered cleanly so a hostile plan cannot livelock the
//!   run. Dropped notifies are *not* retried — the scheduler reconciles
//!   its notify count against the store's applied-push counter
//!   (piggybacked on the next notify) and backfills the gap.
//! - **Fencing**: each worker carries a crash epoch; pushes from before a
//!   crash arrive with a stale epoch and are fenced off instead of
//!   corrupting the store. Duplicated pushes are deduplicated by sequence
//!   number, duplicated notifies/re-syncs by monotone counters.
//! - **Membership**: a crash deactivates the worker in the scheduler
//!   (shrinking the effective `m` the Eq. 6/7 tuner sees) and in the
//!   BSP/SSP gates, releasing anyone waiting on the dead worker so no
//!   scheme deadlocks; recovery reverses all of it in a fresh epoch.
//! - **Aborts are fire-and-forget**, as on the wire and in Algorithm 2:
//!   nothing acknowledges a `re-sync`, and a dropped one is not re-sent.
//!   The worker pushes the gradient it was computing, and the next
//!   speculation window decides again. Duplicated re-syncs are fenced by
//!   a per-worker issue counter, so a late copy cannot abort the next
//!   iteration.
//!
//! A driver without a fault plan draws zero randomness from the fault
//! stream and schedules no chaos events, so fault-free runs are
//! byte-identical to the pre-fault behaviour.

use std::sync::Arc;

use rand::rngs::StdRng;

use specsync_core::{Scheduler, SpecSyncError, WorkerMachine};
use specsync_ml::{BatchSampler, LrSchedule, Model, SparseGrad, Workload};
use specsync_net::MessageSizes;
use specsync_ps::{ParameterStore, ReplicaError, ReplicatedStore};
use specsync_simnet::{
    DurationSampler, EventQueue, FaultPlan, MessageClass, MessageFate, NetworkModel, RngStreams,
    SimDuration, TransferLedger, VirtualTime, WorkerId,
};
use specsync_sync::{BaseScheme, BspBarrier, SchemeKind, SspClock};
use specsync_telemetry::{Event as TraceEvent, EventSink, FaultKind, LossCurve, WorkerPhase};

use crate::report::{ChaosStats, LossPoint, RunReport};
use crate::spec::ClusterSpec;
use crate::trainer::Trainer;

/// Server count of the simulated cluster: the indices a `ServerCrashEvent`
/// may name.
const NUM_SHARDS: usize = 8;
/// How long to wait before re-sending a dropped pull/push.
const RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// Retry budget per message; the attempt after the last retry is delivered
/// cleanly (a fault plan must degrade the run, not wedge it).
const MAX_RESENDS: u32 = 10;
/// How long after a server-shard crash the warm backup is promoted to
/// serving. Pulls and pushes arriving inside this window park on
/// [`RETRY_TIMEOUT`] and succeed after promotion.
const PROMOTE_DELAY: SimDuration = SimDuration::from_millis(75);

/// Simulation tunables beyond workload/scheme/cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Hard horizon on virtual time; the run stops here if not converged.
    pub max_virtual_time: VirtualTime,
    /// Safety cap on total pushes.
    pub max_iterations: u64,
    /// Evaluate the global loss every `eval_stride`-th push (1 = every push).
    pub eval_stride: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            max_virtual_time: VirtualTime::from_secs(200_000),
            max_iterations: 2_000_000,
            eval_stride: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Pull bytes delivered (tagged with the worker's crash epoch at send).
    PullArrive(WorkerId, u64),
    /// Re-send a dropped pull: (worker, epoch, attempt).
    PullRetry(WorkerId, u64, u32),
    ComputeDone(WorkerId, u64),
    /// Re-send a dropped push: (worker, epoch, seq, attempt).
    PushSend(WorkerId, u64, u64, u32),
    /// Push bytes delivered: (worker, epoch, seq).
    PushArrive(WorkerId, u64, u64),
    /// Notify delivered, piggybacking the store's applied-push counter for
    /// the sender (captured at push-apply time).
    NotifyArrive(WorkerId, u64),
    CheckTimer(WorkerId),
    /// Re-sync delivered: (worker, issue id) — duplicates deduplicated.
    ResyncArrive(WorkerId, u64),
    NaiveWaitDone(WorkerId),
    WorkerCrash(WorkerId),
    WorkerRecover(WorkerId),
    /// A pull request parked while a server shard was down retries
    /// (worker, epoch). Not a message retry — no attempt budget.
    PullBlocked(WorkerId, u64),
    /// A parameter-server shard's primary crashes; traffic is refused
    /// until the backup is promoted.
    ServerCrash(usize),
    /// The crashed shard's warm backup is promoted after the failover
    /// delay: journal replay, then traffic resumes.
    ServerPromote(usize),
    /// The crashed node rejoins as the shard's fresh warm backup.
    ServerRecover(usize),
    /// A straggler window (by index into the plan) opens — telemetry only;
    /// the slowdown itself is sampled per compute start.
    StragglerStart(usize),
}

struct WorkerCtx {
    machine: WorkerMachine,
    model: Box<dyn Model>,
    sampler: BatchSampler,
    /// Dense gradient buffer (fallback for models without a sparse path).
    grad: Vec<f32>,
    /// Reusable sparse gradient accumulator.
    sparse_grad: SparseGrad,
    /// Whether the last computed gradient lives in `sparse_grad`.
    grad_is_sparse: bool,
    /// Replica delivered by the last pull, shared with the store's
    /// snapshot cache (and with every other worker that pulled the same
    /// version) instead of owning a copy.
    pending_params: Option<Arc<[f32]>>,
    compute_sampler: DurationSampler,
    rng: StdRng,
    /// Crash epoch: bumped on every recovery. Messages sent before the
    /// crash carry the old epoch and are fenced on delivery.
    epoch: u64,
    /// Sequence number of the last push sent (for duplicate detection).
    push_seq: u64,
    /// Sequence number of the last push applied to the store.
    applied_seq: u64,
    /// Highest applied-push count seen in a delivered notify (dedupes
    /// duplicated and reordered notifies).
    notify_seen: u64,
    /// Issue counter for re-sync messages sent to this worker.
    resync_issued: u64,
    /// Highest re-sync issue id delivered (dedupes duplicated re-syncs).
    resync_seen: u64,
}

/// Maps a replication-layer refusal into the workspace error type. Only
/// reachable through a wiring bug: every store access is guarded by an
/// availability check that parks the request instead.
fn replica_to_error(e: ReplicaError) -> SpecSyncError {
    let server = match e {
        ReplicaError::UnknownServer(s) | ReplicaError::ServerDown(s) => s,
        ReplicaError::WrongState { server, .. } => server,
    };
    SpecSyncError::ServerUnavailable { server }
}

/// The mutable simulation state of one [`Trainer::run`].
pub(crate) struct Simulation {
    workload: Workload,
    scheme: SchemeKind,
    cluster: ClusterSpec,
    config: DriverConfig,
    seed: u64,

    queue: EventQueue<Event>,
    net: NetworkModel,
    net_rng: StdRng,
    sizes: MessageSizes,
    ledger: TransferLedger,

    store: ReplicatedStore,
    scheduler: Scheduler,
    workers: Vec<WorkerCtx>,
    eval: specsync_ml::EvalSet,
    detector: specsync_ml::ConvergenceDetector,
    lr: LrSchedule,

    bsp: Option<BspBarrier>,
    ssp: Option<SspClock>,
    ssp_blocked: Vec<WorkerId>,

    sink: Arc<dyn EventSink<VirtualTime>>,
    faults: Option<FaultPlan>,
    chaos: ChaosStats,

    total_pushes: u64,
    loss_curve: LossCurve<VirtualTime>,
    converged_at: Option<VirtualTime>,
    iterations_at_convergence: Option<u64>,
    staleness_sum: f64,
    staleness_count: u64,
    hyper_trace: Vec<(u64, specsync_core::Hyperparams)>,
}

impl Simulation {
    pub(crate) fn new(trainer: Trainer) -> Self {
        let Trainer {
            workload,
            scheme,
            cluster,
            config,
            seed,
            sink,
            faults,
        } = trainer;
        let m = cluster.num_workers();
        let streams = RngStreams::new(seed);
        let bundle = workload.build(m, seed);

        let initial = bundle.workers[0].params().to_vec();
        let store = ParameterStore::new(initial, NUM_SHARDS).with_momentum(workload.momentum);
        // Primary/backup replication with a bounded write-ahead journal;
        // a fault-free run never crashes a shard, so the wrapper is pure
        // bookkeeping (zero extra RNG, zero extra events).
        let store = ReplicatedStore::from_store(store, ReplicatedStore::DEFAULT_JOURNAL_CAPACITY);
        let sizes = MessageSizes::for_model(workload.paper.num_parameters);

        // The scheduler emits its own decisions (notify, abort-issued,
        // membership, epoch-tuned) through the same sink as the driver's
        // data-plane events, so a trace interleaves both sides of the
        // protocol.
        let scheduler = Scheduler::for_scheme(scheme, m).with_sink(Arc::clone(&sink));

        let workers = bundle
            .workers
            .into_iter()
            .enumerate()
            .map(|(i, model)| {
                let n = model.num_params();
                let sampler: BatchSampler = workload.sampler_for(model.as_ref(), i, seed ^ 0xBA7C);
                WorkerCtx {
                    machine: WorkerMachine::new(WorkerId::new(i)),
                    model,
                    sampler,
                    grad: vec![0.0; n],
                    sparse_grad: SparseGrad::new(),
                    grad_is_sparse: false,
                    pending_params: None,
                    compute_sampler: cluster
                        .instance(i)
                        .iteration_sampler(workload.mean_iteration_secs, workload.iteration_cv),
                    rng: streams.indexed_stream("compute", i),
                    epoch: 0,
                    push_seq: 0,
                    applied_seq: 0,
                    notify_seen: 0,
                    resync_issued: 0,
                    resync_seen: 0,
                }
            })
            .collect();

        let (bsp, ssp) = match scheme {
            SchemeKind::Bsp => (Some(BspBarrier::new(m)), None),
            SchemeKind::Ssp { bound } => (None, Some(SspClock::new(m, bound))),
            SchemeKind::SpecSync {
                base: BaseScheme::Ssp { bound },
                ..
            } => (None, Some(SspClock::new(m, bound))),
            SchemeKind::Asp | SchemeKind::NaiveWaiting { .. } | SchemeKind::SpecSync { .. } => {
                (None, None)
            }
        };

        Simulation {
            lr: workload.lr.clone(),
            detector: workload.convergence_detector(),
            net: cluster.network(),
            net_rng: streams.stream("net"),
            sizes,
            ledger: TransferLedger::new(),
            queue: EventQueue::new(),
            store,
            scheduler,
            workers,
            eval: bundle.eval,
            bsp,
            ssp,
            ssp_blocked: Vec::new(),
            sink,
            faults,
            chaos: ChaosStats::default(),
            total_pushes: 0,
            loss_curve: LossCurve::new(),
            converged_at: None,
            iterations_at_convergence: None,
            staleness_sum: 0.0,
            staleness_count: 0,
            hyper_trace: Vec::new(),
            workload,
            scheme,
            cluster,
            config,
            seed,
        }
    }

    fn delay(&mut self, class: MessageClass) -> SimDuration {
        let bytes = self.sizes.bytes_for(class);
        self.net.delay(bytes, &mut self.net_rng)
    }

    fn record_transfer(&mut self, at: VirtualTime, class: MessageClass) {
        let bytes = self.sizes.bytes_for(class);
        self.ledger.record(at, class, bytes);
    }

    /// Draws the fault plan's verdict for one message send by `worker`,
    /// emitting [`TraceEvent::Fault`] telemetry and chaos counters.
    /// Without a plan this is a clean delivery and zero RNG draws.
    fn fate_for(
        &mut self,
        worker: WorkerId,
        class: MessageClass,
        now: VirtualTime,
    ) -> Result<MessageFate, SpecSyncError> {
        let Some(plan) = self.faults.as_mut() else {
            return Ok(MessageFate::clean());
        };
        let fate = plan.try_fate(class)?;
        if fate.is_drop() {
            self.chaos.dropped_messages += 1;
            self.sink.record(
                now,
                &TraceEvent::Fault {
                    worker,
                    class,
                    kind: FaultKind::Drop,
                },
            );
        } else {
            if fate.is_duplicate() {
                self.chaos.duplicated_messages += 1;
                self.sink.record(
                    now,
                    &TraceEvent::Fault {
                        worker,
                        class,
                        kind: FaultKind::Duplicate,
                    },
                );
            }
            if fate.is_spiked() {
                self.chaos.delay_spikes += 1;
                self.sink.record(
                    now,
                    &TraceEvent::Fault {
                        worker,
                        class,
                        kind: FaultKind::DelaySpike(fate.extra_delay),
                    },
                );
            }
        }
        Ok(fate)
    }

    /// Issues a pull for `worker` at `now` (none if it is dead: a crash can
    /// race a release decision): snapshot immediately, deliver after the
    /// transfer delay. While a server shard is down awaiting promotion the
    /// request parks on the retry timer instead — not message loss, so no
    /// retry budget is spent; promotion bounds the wait.
    fn issue_pull(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        let Some(pulling) = self.workers[worker.index()].machine.pull() else {
            return Ok(());
        };
        if !self.store.is_available() {
            self.chaos.blocked_on_failover += 1;
            let epoch = self.workers[worker.index()].epoch;
            self.sink.record(now, &pulling);
            self.queue
                .schedule(now + RETRY_TIMEOUT, Event::PullBlocked(worker, epoch));
            return Ok(());
        }
        // Staleness is observed before the pull registers.
        let staleness = self.store.staleness_of(worker);
        let snapshot = self.store.try_pull(worker).map_err(replica_to_error)?;
        self.staleness_sum += staleness as f64;
        self.staleness_count += 1;
        self.sink
            .record(now, &TraceEvent::Pull { worker, staleness });
        self.scheduler.on_pull(worker, now);
        self.workers[worker.index()].pending_params = Some(snapshot.into_shared());
        self.sink.record(now, &pulling);
        self.send_pull(worker, 0, now)
    }

    /// Puts the pull bytes on the wire (attempt `attempt`), honouring the
    /// fault plan: drops schedule a bounded retry, duplicates deliver
    /// twice, spikes delay every copy.
    fn send_pull(
        &mut self,
        worker: WorkerId,
        attempt: u32,
        now: VirtualTime,
    ) -> Result<(), SpecSyncError> {
        let epoch = self.workers[worker.index()].epoch;
        let fate = if attempt >= MAX_RESENDS {
            MessageFate::clean() // retry budget exhausted: deliver, don't livelock
        } else {
            self.fate_for(worker, MessageClass::PullParams, now)?
        };
        if fate.is_drop() {
            self.chaos.retries += 1;
            self.sink.record(
                now,
                &TraceEvent::RetryScheduled {
                    worker,
                    class: MessageClass::PullParams,
                    attempt: attempt + 1,
                },
            );
            self.queue.schedule(
                now + RETRY_TIMEOUT,
                Event::PullRetry(worker, epoch, attempt + 1),
            );
            return Ok(());
        }
        for _ in 0..fate.copies {
            let delay = self.delay(MessageClass::PullParams) + fate.extra_delay;
            let at = now + delay;
            self.record_transfer(at, MessageClass::PullParams);
            self.queue.schedule(at, Event::PullArrive(worker, epoch));
        }
        Ok(())
    }

    /// Puts the push bytes on the wire (attempt `attempt`), same fault
    /// handling as [`send_pull`](Self::send_pull).
    fn send_push(
        &mut self,
        worker: WorkerId,
        seq: u64,
        attempt: u32,
        now: VirtualTime,
    ) -> Result<(), SpecSyncError> {
        let epoch = self.workers[worker.index()].epoch;
        let fate = if attempt >= MAX_RESENDS {
            MessageFate::clean()
        } else {
            self.fate_for(worker, MessageClass::PushGrad, now)?
        };
        if fate.is_drop() {
            self.chaos.retries += 1;
            self.sink.record(
                now,
                &TraceEvent::RetryScheduled {
                    worker,
                    class: MessageClass::PushGrad,
                    attempt: attempt + 1,
                },
            );
            self.queue.schedule(
                now + RETRY_TIMEOUT,
                Event::PushSend(worker, epoch, seq, attempt + 1),
            );
            return Ok(());
        }
        for _ in 0..fate.copies {
            let delay = self.delay(MessageClass::PushGrad) + fate.extra_delay;
            self.queue
                .schedule(now + delay, Event::PushArrive(worker, epoch, seq));
        }
        Ok(())
    }

    /// Sends a `re-sync` instruction to `worker`. Nothing acknowledges it
    /// and a dropped one is not re-sent: the worker pushes the iteration
    /// it was computing, and the next window decides again.
    fn send_resync(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        self.workers[worker.index()].resync_issued += 1;
        let issue = self.workers[worker.index()].resync_issued;
        let fate = self.fate_for(worker, MessageClass::Resync, now)?;
        for _ in 0..fate.copies {
            let delay = self.delay(MessageClass::Resync) + fate.extra_delay;
            self.queue
                .schedule(now + delay, Event::ResyncArrive(worker, issue));
        }
        Ok(())
    }

    /// Scheme-specific gate between finishing a push and issuing the next
    /// pull. Errs if the scheme's state (barrier/clock) was never built —
    /// a wiring bug reported with context instead of a bare `expect`.
    fn after_push(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        match self.scheme {
            SchemeKind::Asp
            | SchemeKind::SpecSync {
                base: BaseScheme::Asp,
                ..
            } => {
                self.issue_pull(worker, now)?;
            }
            SchemeKind::NaiveWaiting { delay } => {
                self.idle(worker, now);
                self.queue
                    .schedule(now + delay, Event::NaiveWaitDone(worker));
            }
            SchemeKind::Bsp => {
                self.idle(worker, now);
                let barrier = self.bsp.as_mut().ok_or(SpecSyncError::SchemeStateMissing {
                    what: "BSP barrier",
                })?;
                if let Some(released) = barrier.arrive(worker) {
                    for w in released {
                        self.issue_pull(w, now)?;
                    }
                }
            }
            SchemeKind::Ssp { .. }
            | SchemeKind::SpecSync {
                base: BaseScheme::Ssp { .. },
                ..
            } => {
                let ssp = self
                    .ssp
                    .as_mut()
                    .ok_or(SpecSyncError::SchemeStateMissing { what: "SSP clock" })?;
                ssp.complete_iteration(worker);
                // Release any worker the completion unblocked.
                let unblocked = ssp.newly_unblocked(&self.ssp_blocked);
                self.ssp_blocked.retain(|w| !unblocked.contains(w));
                let can_start = ssp.can_start_next(worker);
                for w in unblocked {
                    self.issue_pull(w, now)?;
                }
                if can_start {
                    self.issue_pull(worker, now)?;
                } else {
                    self.idle(worker, now);
                    self.ssp_blocked.push(worker);
                }
            }
        }
        Ok(())
    }

    /// Parks `worker` on a scheme gate.
    fn idle(&mut self, worker: WorkerId, now: VirtualTime) {
        if let Some(idle) = self.workers[worker.index()].machine.idle() {
            self.sink.record(now, &idle);
        }
    }

    /// The pull delivered: compute the gradient and schedule its end.
    fn start_compute(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        let ctx = &mut self.workers[worker.index()];
        let Some((attempt, computing)) = ctx.machine.start_compute(now) else {
            return Ok(());
        };
        let params = ctx
            .pending_params
            .take()
            .ok_or(SpecSyncError::MissingPullParams {
                worker: worker.index(),
            })?;
        ctx.model.set_params(&params);
        drop(params); // release the shared snapshot before the long compute
        let batch = ctx.sampler.next_batch();
        ctx.grad_is_sparse = ctx.model.sparse_gradient(&batch, &mut ctx.sparse_grad);
        if !ctx.grad_is_sparse {
            ctx.model.gradient(&batch, &mut ctx.grad);
        }
        // Always sample first, then stretch: straggler windows must not
        // shift the compute RNG stream relative to a fault-free run.
        let mut duration = ctx.compute_sampler.sample(&mut ctx.rng);
        if let Some(plan) = &self.faults {
            let slowdown = plan.slowdown_at(worker, now);
            if slowdown != 1.0 {
                duration = duration.mul_f64(slowdown);
            }
        }
        self.sink.record(now, &computing);
        self.queue
            .schedule(now + duration, Event::ComputeDone(worker, attempt));
        Ok(())
    }

    fn evaluate(&mut self, now: VirtualTime) {
        if !self.total_pushes.is_multiple_of(self.config.eval_stride) {
            return;
        }
        let loss = self.eval.loss_of(self.store.params());
        self.sink.record(
            now,
            &TraceEvent::Eval {
                iterations: self.total_pushes,
                loss,
            },
        );
        self.loss_curve.push(LossPoint {
            time: now,
            iterations: self.total_pushes,
            loss,
        });
        if self.converged_at.is_none() && self.detector.observe(loss) {
            self.converged_at = Some(now);
            self.iterations_at_convergence = Some(self.total_pushes);
        }
    }

    fn on_push_arrive(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        let lr = self.lr.lr_at(self.scheduler.epoch()) as f32;
        // Move the gradient out to satisfy the borrow checker, then back.
        if self.workers[worker.index()].grad_is_sparse {
            let grad = std::mem::take(&mut self.workers[worker.index()].sparse_grad);
            let res = self.store.try_apply_push_sparse(worker, &grad, lr);
            self.workers[worker.index()].sparse_grad = grad;
            res.map_err(replica_to_error)?;
        } else {
            let grad = std::mem::take(&mut self.workers[worker.index()].grad);
            let res = self.store.try_apply_push(worker, &grad, lr);
            self.workers[worker.index()].grad = grad;
            res.map_err(replica_to_error)?;
        }
        let applied = self.store.pushes_by(worker);
        self.workers[worker.index()].machine.pushed();
        self.total_pushes += 1;
        self.sink.record(
            now,
            &TraceEvent::Push {
                worker,
                iteration: self.total_pushes,
            },
        );

        self.evaluate(now);

        // Notify the scheduler (control-plane message), piggybacking the
        // store's applied-push counter for this worker so the scheduler
        // can reconcile away lost notifies. The transfer is recorded on
        // delivery so the ledger never counts a notify the scheduler did
        // not see (dropped, or still in flight when the horizon cuts the
        // run short). Dropped notifies are deliberately not retried: the
        // next delivered notify's counter heals the gap.
        let fate = self.fate_for(worker, MessageClass::Notify, now)?;
        for _ in 0..fate.copies {
            let notify_delay = self.delay(MessageClass::Notify) + fate.extra_delay;
            self.queue
                .schedule(now + notify_delay, Event::NotifyArrive(worker, applied));
        }

        // Epoch bookkeeping: an epoch completes when every live worker has
        // finished one more iteration (paper §II-B). Dead workers are
        // excluded — a crashed straggler must not freeze tuning for the
        // survivors. (A recovered worker can drag the minimum back down;
        // the `>` guard keeps the epoch counter monotone through that.)
        let min_iters = self
            .workers
            .iter()
            .filter(|w| w.machine.phase() != WorkerPhase::Dead)
            .map(|w| w.machine.pushes())
            .min()
            .unwrap_or(0);
        while min_iters > self.scheduler.epoch() {
            self.scheduler.on_epoch_complete(now);
            self.hyper_trace
                .push((self.scheduler.epoch(), self.scheduler.hyperparams()));
        }

        self.after_push(worker, now)
    }

    /// A scheduled crash: discard in-flight compute, fence the epoch,
    /// shrink scheduler membership and release anyone gated on the dead
    /// worker so no scheme deadlocks.
    fn on_crash(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        let ctx = &mut self.workers[worker.index()];
        let Some(crashed) = ctx.machine.crash() else {
            return Ok(());
        };
        ctx.pending_params = None; // an in-flight pull is useless now
        self.chaos.crashes += 1;
        for event in &crashed {
            self.sink.record(now, event);
        }
        self.scheduler.mark_dead(worker, now)?;

        if let Some(barrier) = self.bsp.as_mut() {
            // Removing the dead worker from the wait set can complete the
            // current round for everyone else.
            if let Some(released) = barrier.deactivate(worker) {
                for w in released {
                    if self.workers[w.index()].machine.phase() == WorkerPhase::Idle {
                        self.issue_pull(w, now)?;
                    }
                }
            }
        }
        if let Some(ssp) = self.ssp.as_mut() {
            ssp.deactivate(worker);
            self.ssp_blocked.retain(|w| *w != worker);
            // The dead worker may have been the straggler pinning the
            // minimum clock; recompute who is free to proceed.
            let unblocked = ssp.newly_unblocked(&self.ssp_blocked);
            self.ssp_blocked.retain(|w| !unblocked.contains(w));
            for w in unblocked {
                self.issue_pull(w, now)?;
            }
        }
        Ok(())
    }

    /// A scheduled recovery: rejoin in a fresh fencing epoch, grow
    /// scheduler membership back and start pulling again.
    fn on_recover(&mut self, worker: WorkerId, now: VirtualTime) -> Result<(), SpecSyncError> {
        let ctx = &mut self.workers[worker.index()];
        let Some(idle) = ctx.machine.recover() else {
            return Ok(());
        };
        ctx.epoch += 1;
        ctx.pending_params = None;
        let epoch = ctx.epoch;
        self.chaos.recoveries += 1;
        self.scheduler.mark_alive(worker, now)?;
        self.sink
            .record(now, &TraceEvent::WorkerRecovered { worker, epoch });
        if let Some(barrier) = self.bsp.as_mut() {
            barrier.reactivate(worker);
        }
        if let Some(ssp) = self.ssp.as_mut() {
            ssp.reactivate(worker);
        }
        self.sink.record(now, &idle);
        self.issue_pull(worker, now)
    }

    fn handle(&mut self, event: Event, now: VirtualTime) -> Result<(), SpecSyncError> {
        match event {
            Event::PullArrive(worker, epoch) => {
                // Pre-crash deliveries are fenced here, duplicates by the machine.
                if self.workers[worker.index()].epoch == epoch {
                    self.start_compute(worker, now)?;
                }
            }
            Event::PullRetry(worker, epoch, attempt) => {
                let ctx = &self.workers[worker.index()];
                if ctx.machine.phase() == WorkerPhase::Pulling && ctx.epoch == epoch {
                    self.send_pull(worker, attempt, now)?;
                }
            }
            Event::ComputeDone(worker, attempt) => {
                let ctx = &mut self.workers[worker.index()];
                let Some(pushing) = ctx.machine.compute_done(attempt) else {
                    return Ok(()); // aborted or crashed mid-compute
                };
                ctx.push_seq += 1;
                let seq = ctx.push_seq;
                self.sink.record(now, &pushing);
                self.send_push(worker, seq, 0, now)?;
            }
            Event::PushSend(worker, epoch, seq, attempt) => {
                let ctx = &self.workers[worker.index()];
                let pushing = ctx.machine.phase() == WorkerPhase::Pushing;
                if pushing && ctx.epoch == epoch && ctx.applied_seq < seq {
                    self.send_push(worker, seq, attempt, now)?;
                }
            }
            Event::PushArrive(worker, epoch, seq) => {
                if !self.store.is_available() {
                    // The receiving shard is mid-failover: the server
                    // refuses the delivery and the worker retransmits on
                    // the fixed retry timer. Not message loss — no
                    // attempt budget is spent; promotion bounds the wait.
                    self.chaos.blocked_on_failover += 1;
                    self.queue
                        .schedule(now + RETRY_TIMEOUT, Event::PushArrive(worker, epoch, seq));
                    return Ok(());
                }
                self.record_transfer(now, MessageClass::PushGrad);
                let ctx = &self.workers[worker.index()];
                if ctx.machine.phase() == WorkerPhase::Dead || ctx.epoch != epoch {
                    // Stale-push fencing: the sender crashed after sending.
                    let current = ctx.epoch;
                    self.chaos.fenced_pushes += 1;
                    self.sink.record(
                        now,
                        &TraceEvent::PushFenced {
                            worker,
                            epoch: current,
                        },
                    );
                    return Ok(());
                }
                if seq <= ctx.applied_seq {
                    self.chaos.duplicate_pushes_ignored += 1;
                    return Ok(());
                }
                self.workers[worker.index()].applied_seq = seq;
                self.on_push_arrive(worker, now)?;
            }
            Event::NotifyArrive(worker, applied) => {
                // Duplicated (or pathologically reordered) notifies carry a
                // counter we have already seen; drop them.
                if applied <= self.workers[worker.index()].notify_seen {
                    return Ok(());
                }
                self.workers[worker.index()].notify_seen = applied;
                self.record_transfer(now, MessageClass::Notify);
                if let Some(deadline) = self.scheduler.on_notify_reconciled(worker, applied, now)? {
                    self.queue.schedule(deadline, Event::CheckTimer(worker));
                }
            }
            Event::CheckTimer(worker) => {
                if self.scheduler.try_on_check(worker, now)? {
                    self.send_resync(worker, now)?;
                }
            }
            Event::ResyncArrive(worker, issue) => {
                if issue <= self.workers[worker.index()].resync_seen {
                    return Ok(()); // duplicate copy
                }
                self.workers[worker.index()].resync_seen = issue;
                self.record_transfer(now, MessageClass::Resync);
                // The machine drops an abort that is too late (§IV-A).
                if let Some(resync) = self.workers[worker.index()].machine.abort(now) {
                    self.sink.record(now, &resync);
                    self.issue_pull(worker, now)?;
                }
            }
            Event::NaiveWaitDone(worker) => {
                if self.workers[worker.index()].machine.phase() == WorkerPhase::Idle {
                    self.issue_pull(worker, now)?;
                }
            }
            Event::WorkerCrash(worker) => self.on_crash(worker, now)?,
            Event::WorkerRecover(worker) => self.on_recover(worker, now)?,
            Event::PullBlocked(worker, epoch) => {
                let ctx = &self.workers[worker.index()];
                if ctx.machine.phase() == WorkerPhase::Pulling && ctx.epoch == epoch {
                    self.issue_pull(worker, now)?;
                }
            }
            Event::ServerCrash(server) => {
                // A second crash of an already-down shard (or an unknown
                // index in a hostile plan) is a no-op.
                if self.store.crash_server(server).is_ok() {
                    self.chaos.server_crashes += 1;
                    self.queue
                        .schedule(now + PROMOTE_DELAY, Event::ServerPromote(server));
                }
            }
            Event::ServerPromote(server) => {
                if let Ok(replayed) = self.store.promote(server) {
                    let version = self.store.version();
                    self.chaos.failovers += 1;
                    self.chaos.journal_replayed += replayed;
                    self.sink.record(
                        now,
                        &TraceEvent::ShardFailover {
                            shard: server as u64,
                            version,
                            replayed,
                        },
                    );
                }
            }
            Event::ServerRecover(server) => {
                // Ignored while the shard is still down (promotion is
                // already scheduled and will restore service first).
                if self.store.recover_server(server).is_ok() {
                    self.chaos.server_recoveries += 1;
                }
            }
            Event::StragglerStart(idx) => {
                if let Some(plan) = &self.faults {
                    if let Some(w) = plan.straggler_windows().get(idx) {
                        let (worker, slowdown) = (w.worker, w.slowdown);
                        let duration = w.end.saturating_since(w.start);
                        self.sink.record(
                            now,
                            &TraceEvent::Straggler {
                                worker,
                                slowdown,
                                duration,
                            },
                        );
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn run(mut self) -> Result<RunReport, SpecSyncError> {
        // Replay the chaos timeline into the queue up front so crashes,
        // recoveries and straggler markers interleave with protocol events
        // in virtual-time order.
        let (windows, crashes, server_crashes) = match &self.faults {
            Some(plan) => (
                plan.straggler_windows().to_vec(),
                plan.crash_schedule().to_vec(),
                plan.server_crash_schedule().to_vec(),
            ),
            None => (Vec::new(), Vec::new(), Vec::new()),
        };
        for (idx, w) in windows.iter().enumerate() {
            self.queue.schedule(w.start, Event::StragglerStart(idx));
        }
        for c in crashes {
            self.queue.schedule(c.at, Event::WorkerCrash(c.worker));
            if let Some(r) = c.recover_at {
                self.queue.schedule(r, Event::WorkerRecover(c.worker));
            }
        }
        for c in server_crashes {
            self.queue.schedule(c.at, Event::ServerCrash(c.server));
            if let Some(r) = c.recover_at {
                self.queue.schedule(r, Event::ServerRecover(c.server));
            }
        }

        // Kick off: every worker pulls at t = 0.
        for w in WorkerId::all(self.cluster.num_workers()) {
            self.issue_pull(w, VirtualTime::ZERO)?;
        }

        while let Some((now, event)) = self.queue.pop() {
            if now > self.config.max_virtual_time || self.total_pushes >= self.config.max_iterations
            {
                break;
            }
            self.handle(event, now)?;
            if self.converged_at.is_some() {
                break;
            }
        }

        self.sink.flush();
        let finished_at = self.queue.now();
        let mean_staleness = if self.staleness_count == 0 {
            0.0
        } else {
            self.staleness_sum / self.staleness_count as f64
        };
        let wasted = self.workers.iter().map(|w| w.machine.wasted());
        Ok(RunReport {
            scheme: self.scheme.label(),
            workload: self.workload.paper.name.to_string(),
            num_workers: self.cluster.num_workers(),
            seed: self.seed,
            converged_at: self.converged_at,
            iterations_at_convergence: self.iterations_at_convergence,
            total_iterations: self.total_pushes,
            total_aborts: self.workers.iter().map(|w| w.machine.aborts()).sum(),
            wasted_compute: wasted.fold(SimDuration::ZERO, |sum, w| sum + w),
            loss_curve: self.loss_curve,
            iterations_per_worker: self.workers.iter().map(|w| w.machine.pushes()).collect(),
            transfer: self.ledger,
            scheduler_stats: self.scheduler.stats(),
            hyperparams_trace: self.hyper_trace,
            mean_staleness,
            history: self.scheduler.history().clone(),
            chaos: self.chaos,
            finished_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceType;
    use specsync_simnet::{CrashEvent, LinkFaultProfile, ServerCrashEvent, StragglerWindow};

    fn trainer(
        workload: Workload,
        scheme: SchemeKind,
        cluster: ClusterSpec,
        config: DriverConfig,
        seed: u64,
    ) -> Trainer {
        Trainer::new(workload, scheme)
            .cluster(cluster)
            .config(config)
            .seed(seed)
    }

    fn tiny_cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, InstanceType::M4Xlarge)
    }

    fn quick_config() -> DriverConfig {
        DriverConfig {
            max_virtual_time: VirtualTime::from_secs(400),
            max_iterations: 100_000,
            ..DriverConfig::default()
        }
    }

    /// A workload that never converges, so runs always reach the horizon
    /// and iteration counts are budget-comparable.
    fn endless_workload() -> Workload {
        let mut w = Workload::tiny_test();
        w.target_loss = 0.0;
        w
    }

    fn horizon_config(secs: u64) -> DriverConfig {
        DriverConfig {
            max_virtual_time: VirtualTime::from_secs(secs),
            max_iterations: 100_000,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn asp_run_converges_on_tiny_workload() {
        let report = trainer(
            Workload::tiny_test(),
            SchemeKind::Asp,
            tiny_cluster(4),
            quick_config(),
            42,
        )
        .run();
        assert!(
            report.converged_at.is_some(),
            "ASP failed to converge: final loss {:?}",
            report.final_loss()
        );
        assert!(report.total_iterations > 0);
        assert_eq!(report.total_aborts, 0);
        assert_eq!(report.iterations_per_worker.len(), 4);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            trainer(
                Workload::tiny_test(),
                SchemeKind::Asp,
                tiny_cluster(3),
                quick_config(),
                7,
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.converged_at, b.converged_at);
        assert_eq!(a.total_iterations, b.total_iterations);
        assert_eq!(a.loss_curve.len(), b.loss_curve.len());
        assert_eq!(a.transfer.total_bytes(), b.transfer.total_bytes());
    }

    #[test]
    fn different_seeds_differ() {
        let a = trainer(
            Workload::tiny_test(),
            SchemeKind::Asp,
            tiny_cluster(3),
            quick_config(),
            1,
        )
        .run();
        let b = trainer(
            Workload::tiny_test(),
            SchemeKind::Asp,
            tiny_cluster(3),
            quick_config(),
            2,
        )
        .run();
        assert_ne!(a.converged_at, b.converged_at);
    }

    #[test]
    fn bsp_keeps_workers_in_lockstep() {
        let report = trainer(
            Workload::tiny_test(),
            SchemeKind::Bsp,
            tiny_cluster(4),
            quick_config(),
            11,
        )
        .run();
        let max = report.iterations_per_worker.iter().max().unwrap();
        let min = report.iterations_per_worker.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "BSP spread too wide: {:?}",
            report.iterations_per_worker
        );
    }

    #[test]
    fn ssp_bounds_the_iteration_spread() {
        let report = trainer(
            Workload::tiny_test(),
            SchemeKind::Ssp { bound: 2 },
            tiny_cluster(4),
            quick_config(),
            11,
        )
        .run();
        let max = report.iterations_per_worker.iter().max().unwrap();
        let min = report.iterations_per_worker.iter().min().unwrap();
        assert!(
            max - min <= 3,
            "SSP spread exceeds bound+1: {:?}",
            report.iterations_per_worker
        );
    }

    #[test]
    fn specsync_fixed_aborts_and_converges() {
        let scheme = SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5);
        let report = trainer(
            Workload::tiny_test(),
            scheme,
            tiny_cluster(4),
            quick_config(),
            5,
        )
        .run();
        assert!(report.converged_at.is_some(), "SpecSync failed to converge");
        assert!(report.scheduler_stats.notifies > 0);
        assert!(
            report.total_aborts > 0,
            "expected at least one abort with a permissive config"
        );
        assert!(!report.wasted_compute.is_zero());
    }

    #[test]
    fn specsync_adaptive_retunes() {
        let report = trainer(
            Workload::tiny_test(),
            SchemeKind::specsync_adaptive(),
            tiny_cluster(4),
            quick_config(),
            5,
        )
        .run();
        assert!(report.converged_at.is_some());
        assert!(!report.hyperparams_trace.is_empty(), "no epochs completed");
    }

    #[test]
    fn naive_waiting_delays_increase_iteration_span() {
        let base = trainer(
            Workload::tiny_test(),
            SchemeKind::Asp,
            tiny_cluster(3),
            quick_config(),
            9,
        )
        .run();
        let delayed = trainer(
            Workload::tiny_test(),
            SchemeKind::NaiveWaiting {
                delay: SimDuration::from_secs_f64(0.2),
            },
            tiny_cluster(3),
            quick_config(),
            9,
        )
        .run();
        // Same wall-clock horizon, the delayed variant completes fewer
        // iterations per unit time.
        let base_rate = base.total_iterations as f64 / base.finished_at.as_secs_f64();
        let delayed_rate = delayed.total_iterations as f64 / delayed.finished_at.as_secs_f64();
        assert!(
            delayed_rate < base_rate,
            "delayed {delayed_rate} !< base {base_rate}"
        );
    }

    #[test]
    fn transfer_ledger_accounts_for_all_classes() {
        let scheme = SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5);
        let report = trainer(
            Workload::tiny_test(),
            scheme,
            tiny_cluster(4),
            quick_config(),
            5,
        )
        .run();
        assert!(report.transfer.bytes_for(MessageClass::PullParams) > 0);
        assert!(report.transfer.bytes_for(MessageClass::PushGrad) > 0);
        assert!(report.transfer.bytes_for(MessageClass::Notify) > 0);
        assert!(report.transfer.bytes_for(MessageClass::Resync) > 0);
        // Control traffic is negligible next to data traffic.
        let control = report.transfer.bytes_for(MessageClass::Notify)
            + report.transfer.bytes_for(MessageClass::Resync);
        assert!(control * 100 < report.transfer.total_bytes());
    }

    #[test]
    fn horizon_stops_non_converging_runs() {
        let config = DriverConfig {
            max_virtual_time: VirtualTime::from_secs(30),
            ..DriverConfig::default()
        };
        let report = trainer(
            endless_workload(),
            SchemeKind::Asp,
            tiny_cluster(2),
            config,
            3,
        )
        .run();
        assert!(report.converged_at.is_none());
        assert!(report.finished_at >= VirtualTime::from_secs(30));
    }

    #[test]
    fn fault_free_runs_keep_chaos_counters_at_zero() {
        let report = trainer(
            Workload::tiny_test(),
            SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5),
            tiny_cluster(4),
            quick_config(),
            5,
        )
        .run();
        assert_eq!(report.chaos, ChaosStats::default());
        assert_eq!(report.scheduler_stats.lost_notifies, 0);
    }

    #[test]
    fn crashed_worker_stops_while_survivors_continue() {
        let plan = FaultPlan::new(&RngStreams::new(21)).with_crash(CrashEvent {
            worker: WorkerId::new(1),
            at: VirtualTime::from_secs(20),
            recover_at: None,
        });
        let report = trainer(
            endless_workload(),
            SchemeKind::Asp,
            tiny_cluster(4),
            horizon_config(60),
            21,
        )
        .faults(plan)
        .run();
        assert_eq!(report.chaos.crashes, 1);
        assert_eq!(report.chaos.recoveries, 0);
        let dead = report.iterations_per_worker[1];
        for (i, &iters) in report.iterations_per_worker.iter().enumerate() {
            if i != 1 {
                assert!(
                    iters > dead * 2,
                    "survivor {i} ({iters}) barely outpaced the dead worker ({dead})"
                );
            }
        }
    }

    #[test]
    fn recovered_worker_rejoins_and_pushes_again() {
        let crash = CrashEvent {
            worker: WorkerId::new(0),
            at: VirtualTime::from_secs(10),
            recover_at: Some(VirtualTime::from_secs(40)),
        };
        let plan = FaultPlan::new(&RngStreams::new(22)).with_crash(crash);
        let report = trainer(
            endless_workload(),
            SchemeKind::Asp,
            tiny_cluster(3),
            horizon_config(80),
            22,
        )
        .faults(plan)
        .run();
        assert_eq!(report.chaos.crashes, 1);
        assert_eq!(report.chaos.recoveries, 1);
        // ~10s pre-crash + ~40s post-recovery out of 80: well past what it
        // had at the crash, well short of the uninterrupted workers.
        let rejoined = report.iterations_per_worker[0];
        let others = report.iterations_per_worker[1];
        assert!(rejoined > 0);
        assert!(
            rejoined < others,
            "rejoined worker ({rejoined}) should trail uninterrupted peers ({others})"
        );
        assert_eq!(report.scheduler_stats.membership_changes, 2);
    }

    #[test]
    fn bsp_releases_the_barrier_when_a_worker_dies() {
        let plan = FaultPlan::new(&RngStreams::new(23)).with_crash(CrashEvent {
            worker: WorkerId::new(2),
            at: VirtualTime::from_secs(15),
            recover_at: None,
        });
        let report = trainer(
            endless_workload(),
            SchemeKind::Bsp,
            tiny_cluster(4),
            horizon_config(60),
            23,
        )
        .faults(plan)
        .run();
        // The survivors must keep making rounds long after the crash —
        // a deadlocked barrier would freeze everyone near the crash count.
        let dead = report.iterations_per_worker[2];
        let survivors: Vec<u64> = report
            .iterations_per_worker
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, &n)| n)
            .collect();
        assert!(
            survivors.iter().all(|&n| n > dead + 5),
            "survivors {survivors:?} stalled near the dead worker's count {dead}"
        );
        // Lockstep still holds among the survivors.
        let max = survivors.iter().max().unwrap();
        let min = survivors.iter().min().unwrap();
        assert!(max - min <= 1, "post-crash BSP spread: {survivors:?}");
    }

    #[test]
    fn ssp_unblocks_survivors_when_the_straggler_dies() {
        let plan = FaultPlan::new(&RngStreams::new(24)).with_crash(CrashEvent {
            worker: WorkerId::new(0),
            at: VirtualTime::from_secs(15),
            recover_at: None,
        });
        let report = trainer(
            endless_workload(),
            SchemeKind::Ssp { bound: 2 },
            tiny_cluster(4),
            horizon_config(60),
            24,
        )
        .faults(plan)
        .run();
        let dead = report.iterations_per_worker[0];
        for (i, &iters) in report.iterations_per_worker.iter().enumerate() {
            if i != 0 {
                assert!(
                    iters > dead + 2,
                    "survivor {i} ({iters}) is still gated on the dead worker ({dead})"
                );
            }
        }
    }

    #[test]
    fn lost_notifies_are_reconciled_from_the_push_counter() {
        let plan = FaultPlan::new(&RngStreams::new(25))
            .with_profile(MessageClass::Notify, LinkFaultProfile::drop_only(0.3));
        let report = trainer(
            endless_workload(),
            SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5),
            tiny_cluster(4),
            horizon_config(60),
            25,
        )
        .faults(plan)
        .run();
        assert!(report.chaos.dropped_messages > 0);
        assert!(
            report.scheduler_stats.lost_notifies > 0,
            "no notify loss reconciled despite 30% drop"
        );
        // Every history entry is either a delivered notify or a
        // reconciliation backfill — losses don't leak out of the record.
        assert_eq!(
            report.history.pushes().len() as u64,
            report.scheduler_stats.notifies + report.scheduler_stats.lost_notifies,
            "history != notifies + reconciled losses"
        );
        // The only pushes still missing from the history are tail losses
        // that no later notify could heal before the horizon.
        assert!(
            report.history.pushes().len() as u64 + 4 * 5 >= report.total_iterations,
            "reconciliation left more than a tail's worth of gaps"
        );
    }

    #[test]
    fn dropped_data_messages_are_retried_until_delivered() {
        let plan = FaultPlan::new(&RngStreams::new(26))
            .with_profile(MessageClass::PullParams, LinkFaultProfile::drop_only(0.4))
            .with_profile(MessageClass::PushGrad, LinkFaultProfile::drop_only(0.4));
        let report = trainer(
            endless_workload(),
            SchemeKind::Asp,
            tiny_cluster(3),
            horizon_config(60),
            26,
        )
        .faults(plan)
        .run();
        assert!(report.chaos.retries > 0, "no retries under 40% drop");
        assert!(report.total_iterations > 0, "no pushes ever delivered");
        let total: u64 = report.iterations_per_worker.iter().sum();
        assert_eq!(total, report.total_iterations);
    }

    #[test]
    fn duplicates_and_spikes_are_deduplicated_and_tolerated() {
        let profile = LinkFaultProfile {
            drop_prob: 0.0,
            duplicate_prob: 0.3,
            spike_prob: 0.3,
            spike: DurationSampler::Constant { secs: 0.05 },
        };
        let plan = FaultPlan::new(&RngStreams::new(27))
            .with_profile(MessageClass::PushGrad, profile)
            .with_profile(MessageClass::Notify, profile);
        let report = trainer(
            endless_workload(),
            SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5),
            tiny_cluster(3),
            horizon_config(60),
            27,
        )
        .faults(plan)
        .run();
        assert!(report.chaos.duplicated_messages > 0);
        assert!(report.chaos.delay_spikes > 0);
        assert!(
            report.chaos.duplicate_pushes_ignored > 0,
            "duplicated pushes were never deduplicated"
        );
        // Dedupe means per-worker iteration counts still sum to the total.
        let total: u64 = report.iterations_per_worker.iter().sum();
        assert_eq!(total, report.total_iterations);
    }

    #[test]
    fn straggler_window_slows_only_its_worker() {
        let plan = FaultPlan::new(&RngStreams::new(28)).with_straggler(StragglerWindow {
            worker: WorkerId::new(0),
            start: VirtualTime::ZERO,
            end: VirtualTime::from_secs(60),
            slowdown: 8.0,
        });
        let report = trainer(
            endless_workload(),
            SchemeKind::Asp,
            tiny_cluster(3),
            horizon_config(60),
            28,
        )
        .faults(plan)
        .run();
        let slow = report.iterations_per_worker[0];
        for (i, &iters) in report.iterations_per_worker.iter().enumerate() {
            if i != 0 {
                assert!(
                    iters > slow * 3,
                    "worker {i} ({iters}) not clearly faster than straggler ({slow})"
                );
            }
        }
    }

    #[test]
    fn server_crash_fails_over_and_the_run_completes() {
        let plan = FaultPlan::new(&RngStreams::new(31)).with_server_crash(ServerCrashEvent {
            server: 0,
            at: VirtualTime::from_secs(20),
            recover_at: Some(VirtualTime::from_secs(40)),
        });
        let report = trainer(
            endless_workload(),
            SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5),
            tiny_cluster(4),
            horizon_config(60),
            31,
        )
        .faults(plan)
        .run();
        assert_eq!(report.chaos.server_crashes, 1);
        assert_eq!(report.chaos.failovers, 1);
        assert_eq!(report.chaos.server_recoveries, 1);
        assert!(
            report.chaos.blocked_on_failover > 0,
            "a mid-epoch crash must park at least one pull/push"
        );
        assert!(
            report.chaos.journal_replayed > 0,
            "promotion should replay journaled pushes"
        );
        // The run kept training after the failover.
        assert!(report.total_iterations > 100);
        let total: u64 = report.iterations_per_worker.iter().sum();
        assert_eq!(total, report.total_iterations, "no push lost or doubled");
    }

    #[test]
    fn server_crash_without_recovery_keeps_training_on_the_backup() {
        let plan = FaultPlan::new(&RngStreams::new(32)).with_server_crash(ServerCrashEvent {
            server: 3,
            at: VirtualTime::from_secs(15),
            recover_at: None,
        });
        let report = trainer(
            endless_workload(),
            SchemeKind::Bsp,
            tiny_cluster(4),
            horizon_config(50),
            32,
        )
        .faults(plan)
        .run();
        assert_eq!(report.chaos.failovers, 1);
        assert_eq!(report.chaos.server_recoveries, 0);
        assert!(report.total_iterations > 50, "BSP wedged after failover");
        // Lockstep still holds through the failover window.
        let max = report.iterations_per_worker.iter().max().unwrap();
        let min = report.iterations_per_worker.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn server_failover_runs_are_deterministic() {
        let run = || {
            let plan = FaultPlan::new(&RngStreams::new(33))
                .with_profile(MessageClass::PushGrad, LinkFaultProfile::drop_only(0.1))
                .with_server_crash(ServerCrashEvent {
                    server: 0,
                    at: VirtualTime::from_secs(12),
                    recover_at: Some(VirtualTime::from_secs(30)),
                });
            trainer(
                endless_workload(),
                SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5),
                tiny_cluster(3),
                horizon_config(45),
                33,
            )
            .faults(plan)
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_iterations, b.total_iterations);
        assert_eq!(a.chaos, b.chaos);
        assert_eq!(a.iterations_per_worker, b.iterations_per_worker);
        assert_eq!(a.scheduler_stats, b.scheduler_stats);
        assert_eq!(a.transfer.total_bytes(), b.transfer.total_bytes());
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let run = || {
            let profile = LinkFaultProfile {
                drop_prob: 0.15,
                duplicate_prob: 0.1,
                spike_prob: 0.1,
                spike: DurationSampler::Constant { secs: 0.02 },
            };
            let plan = FaultPlan::new(&RngStreams::new(29))
                .with_profile(MessageClass::PullParams, profile)
                .with_profile(MessageClass::PushGrad, profile)
                .with_profile(MessageClass::Notify, profile)
                .with_profile(MessageClass::Resync, profile)
                .with_straggler(StragglerWindow {
                    worker: WorkerId::new(1),
                    start: VirtualTime::from_secs(10),
                    end: VirtualTime::from_secs(30),
                    slowdown: 4.0,
                })
                .with_crash(CrashEvent {
                    worker: WorkerId::new(2),
                    at: VirtualTime::from_secs(20),
                    recover_at: Some(VirtualTime::from_secs(35)),
                });
            trainer(
                endless_workload(),
                SchemeKind::specsync_fixed(SimDuration::from_secs_f64(0.05), 0.5),
                tiny_cluster(4),
                horizon_config(50),
                29,
            )
            .faults(plan)
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_iterations, b.total_iterations);
        assert_eq!(a.chaos, b.chaos);
        assert_eq!(a.iterations_per_worker, b.iterations_per_worker);
        assert_eq!(a.transfer.total_bytes(), b.transfer.total_bytes());
        assert_eq!(a.scheduler_stats, b.scheduler_stats);
    }
}
