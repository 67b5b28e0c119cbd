//! The worker's training loop, written once against the [`Transport`]
//! trait — the same pull/compute/push/notify cycle drives a worker thread
//! of the threaded runtime and a worker process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use specsync_ml::{BatchSampler, Model};
use specsync_net::{Endpoint, Transport, WireMessage};
use specsync_ps::PushPayload;
use specsync_simnet::{SimDuration, WorkerId};
use specsync_telemetry::{Event, EventSink, WorkerPhase};

use crate::clock::ClockSource;

/// Everything one worker needs to train: its model shard, data sampler,
/// pacing knobs, chaos knobs, and the shared run plumbing. The transport
/// is the one thing deliberately *not* in here — it is passed to
/// [`run`](WorkerHarness::run) so the identical harness drives either
/// wire.
pub struct WorkerHarness {
    /// This worker's identity on every frame it sends.
    pub worker: WorkerId,
    /// The worker's model, restricted to its data partition.
    pub model: Box<dyn Model>,
    /// Mini-batch sampler over the worker's partition.
    pub sampler: BatchSampler,
    /// Artificial compute span per iteration (the abortable window).
    pub compute_pad: Duration,
    /// How often the compute span polls for an abort.
    pub abort_poll: Duration,
    /// Heartbeat pacing.
    pub heartbeat_interval: Duration,
    /// Chaos: elapsed run time after which this worker's scheduler link
    /// goes silent (`None`: never).
    pub mute_after: Option<Duration>,
    /// Chaos: drop every n-th notify (`None`: deliver all).
    pub drop_notify_every: Option<u64>,
    /// The injected clock shared by every role.
    pub clock: Arc<dyn ClockSource>,
    /// The shared telemetry sink.
    pub sink: Arc<dyn EventSink<Duration>>,
    /// Elapsed-time origin for event stamps.
    pub run_start: Duration,
    /// Cooperative stop flag (converged, budget exhausted, or the host
    /// shutting down).
    pub stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for WorkerHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHarness")
            .field("worker", &self.worker)
            .field("compute_pad", &self.compute_pad)
            .finish_non_exhaustive()
    }
}

/// What one worker did, tallied by [`WorkerHarness::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Gradient pushes delivered to the shard.
    pub pushes: u64,
    /// Speculation aborts honored (each one re-pulled and recomputed).
    pub aborts: u64,
    /// Notifies eaten by the chaos knob.
    pub dropped_notifies: u64,
}

impl WorkerHarness {
    /// Runs the training loop until the stop flag, a `Shutdown` control
    /// frame, or a dead transport ends it.
    pub fn run(mut self, transport: &mut dyn Transport) -> WorkerOutcome {
        let mut outcome = WorkerOutcome::default();
        let mut grad = vec![0.0f32; self.model.num_params()];
        let mut notify_seq = 0u64;
        let mut last_beat = self.clock.now();
        let worker = self.worker;

        'training: while !self.stop.load(Ordering::SeqCst) {
            self.beat(transport, &mut last_beat);
            // Pull.
            self.enter(WorkerPhase::Pulling);
            let Some(params) = self.pull(transport) else {
                break;
            };
            // Discard any stale re-sync from a previous iteration.
            while transport.poll_control().is_some() {}

            // Compute (abortable during the padded span).
            self.enter(WorkerPhase::Computing);
            self.model.set_params(&params);
            let batch = self.sampler.next_batch();
            self.model.gradient(&batch, &mut grad);
            let mut compute_start = self.clock.now();
            loop {
                if self.clock.now().saturating_sub(compute_start) >= self.compute_pad {
                    break;
                }
                // specsync-allow(virtual-time): real-threaded compute pacing; progress is still measured on the injected clock
                thread::sleep(self.abort_poll.min(self.compute_pad));
                self.beat(transport, &mut last_beat);
                if self.stop.load(Ordering::SeqCst) {
                    break 'training;
                }
                match transport.poll_control() {
                    Some(WireMessage::Abort { .. }) => {
                        // Abort: re-pull fresh parameters and restart.
                        outcome.aborts += 1;
                        let wasted = self.clock.now().saturating_sub(compute_start);
                        let wasted = SimDuration::from_micros(
                            wasted.as_micros().min(u64::MAX as u128) as u64,
                        );
                        self.record(&Event::Resync { worker, wasted });
                        self.enter(WorkerPhase::Pulling);
                        let Some(fresh) = self.pull(transport) else {
                            break 'training;
                        };
                        self.enter(WorkerPhase::Computing);
                        self.model.set_params(&fresh);
                        let batch = self.sampler.next_batch();
                        self.model.gradient(&batch, &mut grad);
                        compute_start = self.clock.now();
                    }
                    Some(WireMessage::Shutdown) => break 'training,
                    // No other control frame reaches a worker.
                    Some(_) | None => {}
                }
            }

            // Push + notify (the notify carries the push counter for
            // loss reconciliation; the chaos knob may eat it).
            self.enter(WorkerPhase::Pushing);
            let push = WireMessage::Push {
                worker,
                payload: PushPayload::Dense(grad.clone()),
            };
            // The shard answers `PushAck`, which doubles as flow
            // control; a dead shard link ends the worker.
            if transport.send(Endpoint::Shard, push).is_err() {
                break;
            }
            outcome.pushes += 1;
            notify_seq += 1;
            let dropped = self
                .drop_notify_every
                .is_some_and(|n| notify_seq.is_multiple_of(n));
            if dropped {
                outcome.dropped_notifies += 1;
            } else if !self.muted() {
                let _ = transport.send(
                    Endpoint::Scheduler,
                    WireMessage::Notify {
                        worker,
                        pushes: outcome.pushes,
                    },
                );
            }
        }
        outcome
    }

    /// Records `event`, stamped with the run's elapsed time.
    fn record(&self, event: &Event) {
        let at = self.clock.now().saturating_sub(self.run_start);
        self.sink.record(at, event);
    }

    /// Records this worker entering `phase`.
    fn enter(&self, phase: WorkerPhase) {
        let (worker, state) = (self.worker, phase);
        self.record(&Event::WorkerState { worker, state });
    }

    /// The chaos partition: past the configured elapsed time this
    /// worker's entire scheduler link goes silent (heartbeats, pull
    /// notices, notifies), so the scheduler's liveness detector fires and
    /// the detection sticks.
    fn muted(&self) -> bool {
        self.mute_after
            .is_some_and(|after| self.clock.now().saturating_sub(self.run_start) >= after)
    }

    /// Heartbeat, paced by the interval.
    fn beat(&self, transport: &mut dyn Transport, last: &mut Duration) {
        let now = self.clock.now();
        if now.saturating_sub(*last) < self.heartbeat_interval {
            return;
        }
        *last = now;
        if !self.muted() {
            let _ = transport.send(
                Endpoint::Scheduler,
                WireMessage::Heartbeat {
                    worker: self.worker,
                },
            );
        }
    }

    /// Pulls fresh parameters from the shard and (unless muted) tells the
    /// scheduler about the pull. `None` means the shard link is dead and
    /// the worker should exit.
    fn pull(&self, transport: &mut dyn Transport) -> Option<Arc<[f32]>> {
        let reply = transport
            .send(
                Endpoint::Shard,
                WireMessage::Pull {
                    worker: self.worker,
                },
            )
            .ok()?;
        let Some(WireMessage::PullReply { params, .. }) = reply else {
            return None;
        };
        if !self.muted() {
            let _ = transport.send(
                Endpoint::Scheduler,
                WireMessage::Pull {
                    worker: self.worker,
                },
            );
        }
        Some(params)
    }
}
