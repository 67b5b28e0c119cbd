//! Aggregating sink: per-worker counters and protocol-health histograms.

use parking_lot::Mutex;

use crate::event::{Event, Timestamp};
use crate::sink::EventSink;

/// Number of power-of-two buckets in a [`Histogram`] (covers the full
/// `u64` range: bucket `i` holds values in `[2^(i-1), 2^i)`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-size log2 histogram of `u64` samples.
///
/// Bucket 0 holds the value `0`; bucket `i > 0` holds `[2^(i-1), 2^i)`.
/// Exact count, sum and mean are tracked alongside, so the bucketing only
/// loses shape resolution, never totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket `value` falls in.
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// Per-worker event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Pulls issued by the worker.
    pub pulls: u64,
    /// Pushes applied on the worker's behalf.
    pub pushes: u64,
    /// Notifies the scheduler received from the worker.
    pub notifies: u64,
    /// Aborts the scheduler issued to the worker.
    pub aborts_issued: u64,
    /// Re-syncs the worker actually performed.
    pub resyncs: u64,
    /// Total compute microseconds the worker threw away across re-syncs.
    pub wasted_micros: u64,
    /// Wire bytes sent on the worker's behalf (`FrameSent`; wall-clock
    /// transports only — zero in simulator traces).
    pub bytes_sent: u64,
    /// Wire bytes received on the worker's behalf (`FrameReceived`).
    pub bytes_received: u64,
    /// Reconnect attempts the worker's transport made (`ConnRetry`).
    pub conn_retries: u64,
}

/// Aggregated totals captured by a [`MetricsSink`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters per worker, indexed by `WorkerId::index()`. Grown on
    /// demand, so the length is `max worker index seen + 1`.
    pub per_worker: Vec<WorkerCounters>,
    /// Pull-time staleness (pushes missed by the replaced replica).
    pub staleness: Histogram,
    /// Microseconds between the scheduler issuing an abort and the worker's
    /// re-sync completing.
    pub abort_latency: Histogram,
    /// Wasted compute microseconds per re-sync.
    pub wasted_compute: Histogram,
    /// Number of tuning passes observed (`EpochTuned` events).
    pub epochs_tuned: u64,
    /// Number of loss evaluations observed.
    pub evals: u64,
    /// Sum of pull-time staleness in `f64` accumulation order — matches
    /// the simulator driver's own accumulator bit-for-bit so snapshot
    /// means can be compared exactly against `RunReport::mean_staleness`.
    pub staleness_sum: f64,
    /// Injected faults observed (message faults and straggler windows).
    pub faults: u64,
    /// Worker crashes observed.
    pub crashes: u64,
    /// Worker recoveries observed.
    pub recoveries: u64,
    /// Graceful-degradation decisions observed (membership changes,
    /// notify-loss reconciliations, fenced pushes,
    /// retries, shard failovers).
    pub degradations: u64,
    /// History records (pushes + pulls) evicted past the scheduler's
    /// retention horizon.
    pub history_evicted: u64,
    /// Eviction passes observed (`HistoryEvicted` events).
    pub eviction_passes: u64,
    /// Wall-clock nanoseconds per scheduler event-handler invocation
    /// (`SchedCost` events; only wall-clock hosts emit them).
    pub sched_cost: Histogram,
    /// Established connections that died mid-operation (`ConnReset`).
    pub conn_resets: u64,
    /// Operations that spent their whole retry budget (`RetryExhausted`).
    pub retries_exhausted: u64,
    /// Degraded-mode entries (`DegradedMode { entered: true }`; exits are
    /// counted as degradations but not here, so `degraded_entries` is the
    /// number of degraded episodes, not twice it).
    pub degraded_entries: u64,
}

impl MetricsSnapshot {
    fn new() -> Self {
        MetricsSnapshot {
            per_worker: Vec::new(),
            staleness: Histogram::new(),
            abort_latency: Histogram::new(),
            wasted_compute: Histogram::new(),
            epochs_tuned: 0,
            evals: 0,
            staleness_sum: 0.0,
            faults: 0,
            crashes: 0,
            recoveries: 0,
            degradations: 0,
            history_evicted: 0,
            eviction_passes: 0,
            sched_cost: Histogram::new(),
            conn_resets: 0,
            retries_exhausted: 0,
            degraded_entries: 0,
        }
    }

    /// Total pulls across workers.
    pub fn total_pulls(&self) -> u64 {
        self.per_worker.iter().map(|w| w.pulls).sum()
    }

    /// Total pushes across workers.
    pub fn total_pushes(&self) -> u64 {
        self.per_worker.iter().map(|w| w.pushes).sum()
    }

    /// Total re-syncs across workers.
    pub fn total_resyncs(&self) -> u64 {
        self.per_worker.iter().map(|w| w.resyncs).sum()
    }

    /// Mean pull-time staleness, computed the same way the simulator
    /// driver computes `RunReport::mean_staleness` (f64 sum over pulls /
    /// pull count), or `None` with no pulls.
    pub fn mean_staleness(&self) -> Option<f64> {
        let pulls = self.total_pulls();
        if pulls == 0 {
            None
        } else {
            Some(self.staleness_sum / pulls as f64)
        }
    }
}

#[derive(Debug)]
struct MetricsState {
    snapshot: MetricsSnapshot,
    /// Last `AbortIssued` timestamp per worker, pending its `Resync`.
    pending_abort_micros: Vec<Option<u64>>,
}

impl MetricsState {
    fn worker_mut(&mut self, index: usize) -> &mut WorkerCounters {
        if self.snapshot.per_worker.len() <= index {
            self.snapshot
                .per_worker
                .resize(index + 1, WorkerCounters::default());
        }
        &mut self.snapshot.per_worker[index]
    }

    fn pending_mut(&mut self, index: usize) -> &mut Option<u64> {
        if self.pending_abort_micros.len() <= index {
            self.pending_abort_micros.resize(index + 1, None);
        }
        &mut self.pending_abort_micros[index]
    }
}

/// A sink that aggregates the event stream into counters and histograms
/// instead of retaining it.
///
/// Suited to long runs where a full [`JsonlSink`](crate::JsonlSink) trace
/// would be too large, and to asserting aggregate invariants in tests
/// (snapshot totals must agree with the run report — the golden tests pin
/// this down).
#[derive(Debug)]
pub struct MetricsSink {
    state: Mutex<MetricsState>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink {
            state: Mutex::new(MetricsState {
                snapshot: MetricsSnapshot::new(),
                pending_abort_micros: Vec::new(),
            }),
        }
    }

    /// A copy of the current aggregates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.state.lock().snapshot.clone()
    }
}

impl<T: Timestamp> EventSink<T> for MetricsSink {
    fn record(&self, at: T, event: &Event) {
        let micros = at.as_trace_micros();
        let mut state = self.state.lock();
        match event {
            Event::Pull { worker, staleness } => {
                state.worker_mut(worker.index()).pulls += 1;
                state.snapshot.staleness.record(*staleness);
                state.snapshot.staleness_sum += *staleness as f64;
            }
            Event::Push { worker, .. } => {
                state.worker_mut(worker.index()).pushes += 1;
            }
            Event::Notify { worker } => {
                state.worker_mut(worker.index()).notifies += 1;
            }
            Event::AbortIssued { worker } => {
                state.worker_mut(worker.index()).aborts_issued += 1;
                *state.pending_mut(worker.index()) = Some(micros);
            }
            Event::Resync { worker, wasted } => {
                let counters = state.worker_mut(worker.index());
                counters.resyncs += 1;
                counters.wasted_micros = counters.wasted_micros.saturating_add(wasted.as_micros());
                state.snapshot.wasted_compute.record(wasted.as_micros());
                if let Some(issued) = state.pending_mut(worker.index()).take() {
                    state
                        .snapshot
                        .abort_latency
                        .record(micros.saturating_sub(issued));
                }
            }
            Event::EpochTuned { .. } => state.snapshot.epochs_tuned += 1,
            Event::Eval { .. } => state.snapshot.evals += 1,
            Event::WorkerState { .. } => {}
            Event::Fault { .. } | Event::Straggler { .. } => state.snapshot.faults += 1,
            Event::WorkerCrashed { .. } => state.snapshot.crashes += 1,
            Event::WorkerRecovered { .. } => state.snapshot.recoveries += 1,
            Event::Membership { .. }
            | Event::NotifyLoss { .. }
            | Event::PushFenced { .. }
            | Event::RetryScheduled { .. }
            | Event::ShardFailover { .. } => state.snapshot.degradations += 1,
            // Completed rejoins are routine (redundancy restored), not
            // degradations.
            Event::BackupJoined { .. } | Event::CatchUpComplete { .. } => {}
            // A supervisor restart is the self-healing response to a
            // crash; count it with the degradation decisions.
            Event::ProcessRestarted { .. } => state.snapshot.degradations += 1,
            Event::HistoryEvicted { pushes, pulls, .. } => {
                state.snapshot.history_evicted += pushes + pulls;
                state.snapshot.eviction_passes += 1;
            }
            Event::SchedCost { nanos } => state.snapshot.sched_cost.record(*nanos),
            Event::FrameSent { worker, bytes, .. } => {
                let counters = state.worker_mut(worker.index());
                counters.bytes_sent = counters.bytes_sent.saturating_add(*bytes);
            }
            Event::FrameReceived { worker, bytes, .. } => {
                let counters = state.worker_mut(worker.index());
                counters.bytes_received = counters.bytes_received.saturating_add(*bytes);
            }
            Event::ConnReset { worker, .. } => {
                state.worker_mut(worker.index()).conn_retries += 1;
                state.snapshot.conn_resets += 1;
            }
            Event::RetryExhausted { .. } => {
                state.snapshot.retries_exhausted += 1;
                state.snapshot.degradations += 1;
            }
            Event::DegradedMode { entered, .. } => {
                if *entered {
                    state.snapshot.degraded_entries += 1;
                }
                state.snapshot.degradations += 1;
            }
            Event::ConnRetry { worker, .. } => {
                state.worker_mut(worker.index()).conn_retries += 1;
                state.snapshot.degradations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_simnet::{SimDuration, VirtualTime, WorkerId};

    #[test]
    fn histogram_buckets_values_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert_eq!(h.max(), 1024);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1024 → 11.
        let occupied: Vec<(usize, u64)> = (0..HISTOGRAM_BUCKETS)
            .filter(|&i| h.buckets[i] > 0)
            .map(|i| (i, h.buckets[i]))
            .collect();
        assert_eq!(occupied, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
        assert!((h.mean().unwrap() - 1034.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_has_no_mean() {
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn sink_tracks_per_worker_counters_and_abort_latency() {
        let sink = MetricsSink::new();
        let w0 = WorkerId::new(0);
        let w1 = WorkerId::new(1);
        let at = |us: u64| VirtualTime::from_micros(us);

        sink.record(
            at(10),
            &Event::Pull {
                worker: w0,
                staleness: 3,
            },
        );
        sink.record(
            at(20),
            &Event::Push {
                worker: w0,
                iteration: 1,
            },
        );
        sink.record(at(20), &Event::Notify { worker: w0 });
        sink.record(at(30), &Event::AbortIssued { worker: w1 });
        sink.record(
            at(75),
            &Event::Resync {
                worker: w1,
                wasted: SimDuration::from_micros(40),
            },
        );
        sink.record(
            at(80),
            &Event::EpochTuned {
                epoch: 1,
                abort_time: SimDuration::from_micros(100),
                abort_rate: 0.25,
                estimated_gain: Some(1.5),
            },
        );
        sink.record(
            at(90),
            &Event::Eval {
                iterations: 1,
                loss: 0.5,
            },
        );

        let snap = sink.snapshot();
        assert_eq!(snap.per_worker.len(), 2);
        assert_eq!(snap.per_worker[0].pulls, 1);
        assert_eq!(snap.per_worker[0].pushes, 1);
        assert_eq!(snap.per_worker[0].notifies, 1);
        assert_eq!(snap.per_worker[1].aborts_issued, 1);
        assert_eq!(snap.per_worker[1].resyncs, 1);
        assert_eq!(snap.per_worker[1].wasted_micros, 40);
        assert_eq!(snap.total_pulls(), 1);
        assert_eq!(snap.total_pushes(), 1);
        assert_eq!(snap.total_resyncs(), 1);
        assert_eq!(snap.epochs_tuned, 1);
        assert_eq!(snap.evals, 1);
        assert_eq!(snap.mean_staleness(), Some(3.0));
        // Abort issued at t=30, resync at t=75 → 45 µs latency.
        assert_eq!(snap.abort_latency.count(), 1);
        assert_eq!(snap.abort_latency.sum(), 45);
        assert_eq!(snap.wasted_compute.sum(), 40);
    }

    #[test]
    fn sink_tracks_evictions_and_sched_cost() {
        let sink = MetricsSink::new();
        sink.record(
            VirtualTime::from_micros(10),
            &Event::HistoryEvicted {
                pushes: 100,
                pulls: 80,
                retained: 400,
            },
        );
        sink.record(
            VirtualTime::from_micros(11),
            &Event::SchedCost { nanos: 250 },
        );
        sink.record(
            VirtualTime::from_micros(12),
            &Event::SchedCost { nanos: 750 },
        );
        let snap = sink.snapshot();
        assert_eq!(snap.history_evicted, 180);
        assert_eq!(snap.eviction_passes, 1);
        assert_eq!(snap.sched_cost.count(), 2);
        assert_eq!(snap.sched_cost.sum(), 1000);
        assert_eq!(snap.sched_cost.max(), 750);
    }

    #[test]
    fn resync_without_pending_abort_records_no_latency() {
        let sink = MetricsSink::new();
        sink.record(
            VirtualTime::from_micros(5),
            &Event::Resync {
                worker: WorkerId::new(0),
                wasted: SimDuration::from_micros(2),
            },
        );
        let snap = sink.snapshot();
        assert_eq!(snap.abort_latency.count(), 0);
        assert_eq!(snap.total_resyncs(), 1);
    }
}
