//! The worker's training loop, written once against the [`Transport`]
//! trait — the same pull/compute/push/notify cycle drives a worker thread
//! of the threaded runtime and a worker process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use specsync_core::WorkerMachine;
use specsync_ml::{BatchSampler, Model};
use specsync_net::{Endpoint, Transport, WireMessage};
use specsync_ps::PushPayload;
use specsync_simnet::{VirtualTime, WorkerId};
use specsync_telemetry::{Event, EventSink, Timestamp};

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
    /// frame, or a dead transport ends it. A [`WorkerMachine`] keeps the
    /// rules; this loop does the I/O, the pacing and the gradient.
    pub fn run(mut self, transport: &mut dyn Transport) -> WorkerOutcome {
        let mut machine = WorkerMachine::new(self.worker);
        let mut dropped_notifies = 0;
        let mut grad = vec![0.0f32; self.model.num_params()];
        let mut last_beat = self.clock.now();
        let worker = self.worker;

        'training: while !self.stop.load(Ordering::SeqCst) {
            self.beat(transport, &mut last_beat);
            let Some(params) = self.pull(&mut machine, transport) else {
                break;
            };
            // Discard every re-sync queued before the pull (it aborted an
            // earlier iteration or none); a queued `Shutdown` still ends
            // the run.
            while let Some(control) = transport.poll_control() {
                if matches!(control, WireMessage::Shutdown) {
                    break 'training;
                }
            }

            // Compute (abortable during the padded span).
            let Some((attempt, computing)) = machine.start_compute(self.at()) else {
                break;
            };
            self.record(&computing);
            self.model.set_params(&params);
            let batch = self.sampler.next_batch();
            self.model.gradient(&batch, &mut grad);
            let compute_start = self.clock.now();
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
                        // Abort: re-pull fresh parameters and start over.
                        if let Some(resync) = machine.abort(self.at()) {
                            self.record(&resync);
                            continue 'training;
                        }
                    }
                    Some(WireMessage::Shutdown) => break 'training,
                    // No other control frame reaches a worker.
                    Some(_) | None => {}
                }
            }

            // Push + notify (the notify carries the push counter for
            // loss reconciliation; the chaos knob may eat it).
            let Some(pushing) = machine.compute_done(attempt) else {
                break;
            };
            self.record(&pushing);
            let push = WireMessage::Push {
                worker,
                payload: PushPayload::Dense(grad.clone()),
            };
            // The shard answers `PushAck`, which doubles as flow
            // control; a dead shard link ends the worker.
            if transport.send(Endpoint::Shard, push).is_err() {
                break;
            }
            let pushes = machine.pushed();
            let dropped = self
                .drop_notify_every
                .is_some_and(|n| pushes.is_multiple_of(n));
            if dropped {
                dropped_notifies += 1;
            } else if !self.muted() {
                let notify = WireMessage::Notify { worker, pushes };
                let _ = transport.send(Endpoint::Scheduler, notify);
            }
        }
        WorkerOutcome {
            pushes: machine.pushes(),
            aborts: machine.aborts(),
            dropped_notifies,
        }
    }

    /// The run's elapsed time.
    fn elapsed(&self) -> Duration {
        self.clock.now().saturating_sub(self.run_start)
    }

    /// The elapsed time as the machine's clock reads it.
    fn at(&self) -> VirtualTime {
        VirtualTime::from_micros(self.elapsed().as_trace_micros())
    }

    /// Records `event`, stamped with the run's elapsed time.
    fn record(&self, event: &Event) {
        self.sink.record(self.elapsed(), event);
    }

    /// The chaos partition: past the configured elapsed time this
    /// worker's entire scheduler link goes silent (heartbeats, pull
    /// notices, notifies), so the scheduler's liveness detector fires and
    /// the detection sticks.
    fn muted(&self) -> bool {
        self.mute_after.is_some_and(|after| self.elapsed() >= after)
    }

    /// Heartbeat, paced by the interval.
    fn beat(&self, transport: &mut dyn Transport, last: &mut Duration) {
        let now = self.clock.now();
        if now.saturating_sub(*last) < self.heartbeat_interval {
            return;
        }
        *last = now;
        if !self.muted() {
            let worker = self.worker;
            let _ = transport.send(Endpoint::Scheduler, WireMessage::Heartbeat { worker });
        }
    }

    /// Pulls fresh parameters from the shard and (unless muted) tells the
    /// scheduler about the pull. `None` means the shard link is dead and
    /// the worker should exit.
    fn pull(
        &self,
        machine: &mut WorkerMachine,
        transport: &mut dyn Transport,
    ) -> Option<Arc<[f32]>> {
        self.record(&machine.pull()?);
        let worker = self.worker;
        let reply = transport.send(Endpoint::Shard, WireMessage::Pull { worker });
        let Ok(Some(WireMessage::PullReply { params, .. })) = reply else {
            return None;
        };
        if !self.muted() {
            let _ = transport.send(Endpoint::Scheduler, WireMessage::Pull { worker });
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

    /// A transport whose shard answers every pull and whose first push
    /// sets the stop flag (the harness reads only whether a push failed);
    /// each `poll_control` pops one scripted answer.
    struct Scripted {
        control: VecDeque<Option<WireMessage>>,
        params: Arc<[f32]>,
        stop: Arc<AtomicBool>,
    }

    impl Transport for Scripted {
        fn send(
            &mut self,
            to: Endpoint,
            msg: WireMessage,
        ) -> Result<Option<WireMessage>, NetError> {
            if matches!(msg, WireMessage::Push { .. }) {
                self.stop.store(true, Ordering::SeqCst);
            }
            let params = Arc::clone(&self.params);
            let pull = to == Endpoint::Shard && matches!(msg, WireMessage::Pull { .. });
            Ok(pull.then_some(WireMessage::PullReply { version: 0, params }))
        }

        fn poll_control(&mut self) -> Option<WireMessage> {
            self.control.pop_front().flatten()
        }
    }

    /// Runs one worker against `script`, polling it every millisecond.
    fn run_scripted(script: Vec<Option<WireMessage>>, compute_pad: Duration) -> WorkerOutcome {
        let data = Arc::new(RatingsDataset::generate(4, 3, 20, 2, 0.0, 1));
        let model = MatrixFactorization::new(data, 2, 0.0);
        let stop = Arc::new(AtomicBool::new(false));
        let mut transport = Scripted {
            control: script.into(),
            params: model.params().into(),
            stop: Arc::clone(&stop),
        };
        let clock = Arc::new(WallClock::new());
        let harness = WorkerHarness {
            worker: WorkerId::new(0),
            sampler: BatchSampler::new(model.num_samples(), 4, 1),
            model: Box::new(model),
            compute_pad,
            abort_poll: Duration::from_millis(1),
            heartbeat_interval: Duration::from_secs(60),
            mute_after: None,
            drop_notify_every: None,
            run_start: clock.now(),
            clock,
            sink: Arc::new(NullSink),
            stop,
        };
        harness.run(&mut transport)
    }

    #[test]
    fn a_shutdown_queued_during_the_pull_ends_the_run() {
        // The drain after the pull must not swallow the `Shutdown`: the
        // worker stops before it pushes.
        let outcome = run_scripted(vec![Some(WireMessage::Shutdown)], Duration::ZERO);
        assert_eq!(outcome.pushes, 0);
    }

    #[test]
    fn an_abort_queued_during_the_re_pull_is_stale() {
        // The first abort lands mid-compute and is honoured; the second
        // was queued before the re-pull, so the drain discards it and the
        // fresh iteration pushes.
        let worker = WorkerId::new(0);
        let abort = || Some(WireMessage::Abort { worker });
        let outcome = run_scripted(vec![None, abort(), abort()], Duration::from_millis(20));
        assert_eq!((outcome.aborts, outcome.pushes), (1, 1));
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
