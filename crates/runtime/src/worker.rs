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
            // Discard any stale re-sync from a previous iteration; a
            // queued `Shutdown` still ends the run.
            while let Some(control) = transport.poll_control() {
                if matches!(control, WireMessage::Shutdown) {
                    break 'training;
                }
            }

            // Compute (abortable during the padded span).
            self.enter(WorkerPhase::Computing);
            self.model.set_params(&params);
            let batch = self.sampler.next_batch();
            self.model.gradient(&batch, &mut grad);
            let mut compute_start = self.clock.now();
            loop {
                let spent = self.clock.now().saturating_sub(compute_start);
                if spent >= self.compute_pad {
                    break;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "real-threaded compute pacing; progress is still measured on the injected clock"
                )]
                thread::sleep(pad_wait(self.compute_pad, spent, self.abort_poll));
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

/// The next sleep of a compute pad with `spent` of it gone: one
/// abort-poll slice, cut short so the last slice ends on the pad's
/// deadline instead of up to one `abort_poll` past it.
fn pad_wait(compute_pad: Duration, spent: Duration, abort_poll: Duration) -> Duration {
    abort_poll.min(compute_pad.saturating_sub(spent))
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use specsync_ml::{MatrixFactorization, RatingsDataset};
    use specsync_net::NetError;
    use specsync_telemetry::NullSink;

    use super::*;
    use crate::clock::WallClock;

    /// A transport whose shard answers the first `Pull` and is gone after
    /// it, with a scripted control queue.
    struct Scripted {
        control: VecDeque<WireMessage>,
        params: Option<Arc<[f32]>>,
    }

    impl Transport for Scripted {
        fn send(
            &mut self,
            to: Endpoint,
            msg: WireMessage,
        ) -> Result<Option<WireMessage>, NetError> {
            match (to, msg) {
                (Endpoint::Shard, WireMessage::Pull { .. }) => match self.params.take() {
                    Some(params) => Ok(Some(WireMessage::PullReply { version: 0, params })),
                    None => Err(NetError::Disconnected),
                },
                (Endpoint::Shard, WireMessage::Push { .. }) => Ok(Some(WireMessage::PushAck {
                    version: 1,
                    pushes_by_worker: 1,
                })),
                _ => Ok(None),
            }
        }

        fn poll_control(&mut self) -> Option<WireMessage> {
            self.control.pop_front()
        }
    }

    #[test]
    fn a_shutdown_queued_during_the_pull_ends_the_run() {
        let data = Arc::new(RatingsDataset::generate(4, 3, 20, 2, 0.0, 1));
        let model = MatrixFactorization::new(data, 2, 0.0);
        let mut transport = Scripted {
            control: VecDeque::from([WireMessage::Shutdown]),
            params: Some(model.params().into()),
        };
        let clock = Arc::new(WallClock::new());
        let harness = WorkerHarness {
            worker: WorkerId::new(0),
            sampler: BatchSampler::new(model.num_samples(), 4, 1),
            model: Box::new(model),
            compute_pad: Duration::ZERO,
            abort_poll: Duration::from_millis(1),
            heartbeat_interval: Duration::from_secs(60),
            mute_after: None,
            drop_notify_every: None,
            run_start: clock.now(),
            clock,
            sink: Arc::new(NullSink),
            stop: Arc::new(AtomicBool::new(false)),
        };
        // The drain after the pull must not swallow the `Shutdown`: the
        // worker stops before it pushes.
        assert_eq!(harness.run(&mut transport).pushes, 0);
    }

    #[test]
    fn pad_waits_sum_to_the_pad() {
        let ms = Duration::from_millis;
        for (pad, poll) in [(5, 1), (5, 2), (10, 3), (5, 8)] {
            let (pad, poll) = (ms(pad), ms(poll));
            let mut spent = Duration::ZERO;
            while spent < pad {
                let wait = pad_wait(pad, spent, poll);
                assert!(wait > Duration::ZERO && wait <= poll);
                spent += wait;
            }
            assert_eq!(spent, pad, "pad {pad:?}, poll {poll:?}");
        }
    }
}
