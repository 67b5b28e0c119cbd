//! The typed event model: what the protocol emits, independent of which
//! clock stamped it.

use std::time::Duration;

use specsync_simnet::{MessageClass, SimDuration, VirtualTime, WorkerId};

/// A trace timestamp: anything that reduces to a monotone microsecond
/// count from the start of the run.
///
/// The simulator stamps events with [`VirtualTime`]; the threaded runtime
/// and the wire stamp them with the [`Duration`] elapsed on the wall
/// clock. Both serialize identically, so one trace format and one set of
/// analysis tools covers both hosts.
pub trait Timestamp: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// Microseconds since the start of the run.
    fn as_trace_micros(self) -> u64;
}

impl Timestamp for VirtualTime {
    fn as_trace_micros(self) -> u64 {
        self.as_micros()
    }
}

impl Timestamp for Duration {
    fn as_trace_micros(self) -> u64 {
        // A run longer than ~584k years of wall time is not representable;
        // saturate rather than wrap.
        u64::try_from(self.as_micros()).unwrap_or(u64::MAX)
    }
}

/// The coarse lifecycle phase of a worker, as `specsync_core::WorkerMachine`
/// tracks it for both hosts: pull in flight → computing → push in flight →
/// gated idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerPhase {
    /// Waiting on a scheme gate (BSP barrier, SSP clock, naïve-wait delay).
    Idle,
    /// Pull request in flight.
    Pulling,
    /// Gradient computation in progress (abortable).
    Computing,
    /// Push in flight.
    Pushing,
    /// Crashed; not participating until recovery.
    Dead,
}

impl WorkerPhase {
    /// Stable lowercase label used in serialized traces.
    pub fn label(self) -> &'static str {
        match self {
            WorkerPhase::Idle => "idle",
            WorkerPhase::Pulling => "pulling",
            WorkerPhase::Computing => "computing",
            WorkerPhase::Pushing => "pushing",
            WorkerPhase::Dead => "dead",
        }
    }

    /// Parses a serialized [`label`](Self::label) back into a phase.
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "idle" => WorkerPhase::Idle,
            "pulling" => WorkerPhase::Pulling,
            "computing" => WorkerPhase::Computing,
            "pushing" => WorkerPhase::Pushing,
            "dead" => WorkerPhase::Dead,
            _ => return None,
        })
    }
}

/// What a fault injection did to one message send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The message was lost.
    Drop,
    /// The message was delivered twice.
    Duplicate,
    /// Every delivered copy was delayed by the extra duration.
    DelaySpike(SimDuration),
}

impl FaultKind {
    /// Stable lowercase label used in serialized traces.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::DelaySpike(_) => "delay",
        }
    }
}

/// One protocol event. Timestamps are carried separately (see
/// [`EventSink::record`](crate::EventSink::record)), so the payload is the
/// same for virtual-time and wall-clock hosts.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A worker issued a pull; `staleness` is the number of pushes applied
    /// to the store since the worker's previous pull (the quantity the
    /// paper's freshness argument is about).
    Pull {
        /// The pulling worker.
        worker: WorkerId,
        /// Pushes the replica being replaced had missed.
        staleness: u64,
    },
    /// A gradient push was applied to the global parameters.
    Push {
        /// The pushing worker.
        worker: WorkerId,
        /// Total pushes applied after this one (the paper's "accumulated
        /// iterations").
        iteration: u64,
    },
    /// The scheduler received a worker's `notify` (Algorithm 2,
    /// `HandleNotification`).
    Notify {
        /// The notifying worker.
        worker: WorkerId,
    },
    /// The scheduler decided to instruct the worker to abort (Algorithm 2,
    /// `CheckResync` fired).
    AbortIssued {
        /// The worker being told to re-sync.
        worker: WorkerId,
    },
    /// A worker actually aborted its in-flight computation and re-pulled.
    Resync {
        /// The aborting worker.
        worker: WorkerId,
        /// Compute time thrown away by the abort.
        wasted: SimDuration,
    },
    /// An epoch closed and the hyperparameters in force were (re)installed.
    /// In adaptive mode this is one Algorithm-1 pass; `estimated_gain` is
    /// the tuner's estimated freshness improvement `F̃(Δ*)` for the chosen
    /// window (`None` when speculation stayed disabled or the mode is
    /// fixed).
    EpochTuned {
        /// The epoch index just closed (1-based).
        epoch: u64,
        /// The installed speculation window `ABORT_TIME`.
        abort_time: SimDuration,
        /// The installed push-rate threshold `ABORT_RATE`.
        abort_rate: f64,
        /// The tuner's `F̃(Δ*)` estimate, when a tuning pass produced one.
        estimated_gain: Option<f64>,
    },
    /// The global loss was evaluated.
    Eval {
        /// Total pushes applied at evaluation time.
        iterations: u64,
        /// The evaluated loss.
        loss: f64,
    },
    /// A worker transitioned lifecycle phase.
    WorkerState {
        /// The transitioning worker.
        worker: WorkerId,
        /// The phase entered.
        state: WorkerPhase,
    },
    /// The fault plan injected a message-level fault.
    Fault {
        /// The worker whose message was hit.
        worker: WorkerId,
        /// The traffic class of the message.
        class: MessageClass,
        /// What happened to the message.
        kind: FaultKind,
    },
    /// A worker crashed; its in-flight compute is discarded.
    WorkerCrashed {
        /// The crashed worker.
        worker: WorkerId,
    },
    /// A crashed worker rejoined the cluster in a fresh epoch.
    WorkerRecovered {
        /// The recovered worker.
        worker: WorkerId,
        /// The worker's new fencing epoch (pre-crash pushes carry a lower
        /// epoch and are rejected).
        epoch: u64,
    },
    /// A straggler slowdown window opened for a worker.
    Straggler {
        /// The straggling worker.
        worker: WorkerId,
        /// Multiplicative compute slowdown inside the window.
        slowdown: f64,
        /// How long the window lasts.
        duration: SimDuration,
    },
    /// Cluster membership changed from the scheduler's point of view.
    Membership {
        /// The worker marked dead or alive.
        worker: WorkerId,
        /// `true` when the worker (re)joined, `false` when it was marked
        /// dead.
        alive: bool,
        /// Active worker count `m` after the change (the value Eq. 6/7 now
        /// tune against).
        active: u64,
    },
    /// The scheduler detected lost `notify` messages by reconciling its
    /// own count against the store's applied-push counter and backfilled
    /// the missing pushes into its history.
    NotifyLoss {
        /// The worker whose notifies went missing.
        worker: WorkerId,
        /// How many notifies were reconciled away.
        missing: u64,
    },
    /// A stale push (pre-crash epoch or dead worker) was fenced off
    /// instead of being applied to the store.
    PushFenced {
        /// The worker whose push was fenced.
        worker: WorkerId,
        /// The *current* epoch of the worker (the push carried an older
        /// one).
        epoch: u64,
    },
    /// A dropped data-plane message triggered a deterministic bounded
    /// retry.
    RetryScheduled {
        /// The worker whose message is being retried.
        worker: WorkerId,
        /// The traffic class being retried.
        class: MessageClass,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A parameter-server shard's primary died and its warm backup was
    /// promoted.
    ShardFailover {
        /// Index of the failed-over server shard.
        shard: u64,
        /// Store version at promotion time.
        version: u64,
        /// In the simulator, the journaled pushes replayed into the backup
        /// during promotion; on the wire, the relayed pushes the backup
        /// absorbed before it took over (the `Promoted` frame's count).
        replayed: u64,
    },
    /// The scheduler's retention-bounded history evicted records past the
    /// horizon at an epoch boundary (only emitted when a retention bound is
    /// configured — unbounded runs never see this event).
    HistoryEvicted {
        /// Push records evicted at this boundary.
        pushes: u64,
        /// Pull records evicted at this boundary.
        pulls: u64,
        /// Push records still retained after eviction.
        retained: u64,
    },
    /// Host-measured cost of one scheduler event-handler invocation
    /// (notify/check/pull/epoch). Recorded by wall-clock hosts such as the
    /// scalability sweep; the deterministic simulator never emits it, so
    /// virtual-time traces are unaffected.
    SchedCost {
        /// Wall-clock nanoseconds the invocation took.
        nanos: u64,
    },
    /// A wire frame left a transport (wall-clock hosts only — the
    /// deterministic simulator accounts transfer through its network
    /// model instead, so virtual-time traces never carry this).
    FrameSent {
        /// The worker the frame concerns (`WorkerId::new(0)` for frames
        /// that name none, such as failover control).
        worker: WorkerId,
        /// The traffic class of the frame.
        class: MessageClass,
        /// Encoded frame size on the wire, header included.
        bytes: u64,
    },
    /// A wire frame arrived on a transport (wall-clock hosts only).
    FrameReceived {
        /// The worker the frame concerns (`WorkerId::new(0)` when it
        /// names none).
        worker: WorkerId,
        /// The traffic class of the frame.
        class: MessageClass,
        /// Encoded frame size on the wire, header included.
        bytes: u64,
    },
    /// A transport connection attempt failed and is being retried with
    /// backoff (wall-clock hosts only) — the visible trail of a worker
    /// riding out a shard death.
    ConnRetry {
        /// The reconnecting worker.
        worker: WorkerId,
        /// 1-based reconnect attempt number.
        attempt: u32,
    },
    /// An established connection died under a worker mid-operation — a
    /// reset, an I/O error, or a read/write deadline expiring (wall-clock
    /// hosts only). The first visible symptom of a hostile network.
    ConnReset {
        /// The worker whose connection dropped.
        worker: WorkerId,
        /// The traffic class in flight when the connection died.
        class: MessageClass,
    },
    /// An operation spent its whole retry budget without succeeding
    /// (wall-clock hosts only): a shard exchange gives up and errors the
    /// worker out; the scheduler link keeps absorbing control frames and
    /// pacing reconnects.
    RetryExhausted {
        /// The worker whose retries ran out.
        worker: WorkerId,
        /// The traffic class of the abandoned operation.
        class: MessageClass,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A worker entered (`entered = true`) or left (`false`) degraded
    /// mode: at least one of its links is down and being retried — a
    /// shard exchange from its first failure until it succeeds or gives
    /// up, the scheduler link until a paced reconnect lands (wall-clock
    /// hosts only).
    DegradedMode {
        /// The degrading / recovering worker.
        worker: WorkerId,
        /// `true` on entry into degraded mode, `false` on recovery.
        entered: bool,
    },
    /// A (re)provisioned shard registered as a warm backup: redundancy is
    /// restored and the next failover can promote it (wall-clock hosts
    /// only).
    BackupJoined {
        /// Id of the shard that joined as backup.
        shard: u64,
        /// The promotion epoch at join time.
        epoch: u64,
    },
    /// A rejoining backup installed a snapshot of the primary's serving
    /// store and was adopted as its write-ahead relay target (wall-clock
    /// hosts only).
    CatchUpComplete {
        /// Id of the caught-up shard.
        shard: u64,
        /// The store version of the snapshot it installed.
        version: u64,
    },
    /// A supervisor restarted a crashed role process (wall-clock hosts
    /// only). The restart budget bounds how often this can fire per role.
    ProcessRestarted {
        /// Id of the restarted shard role (the fresh process's id).
        shard: u64,
        /// 1-based restart attempt for this role slot.
        attempt: u32,
    },
}

impl Event {
    /// The worker the event concerns, if it is worker-scoped.
    pub fn worker(&self) -> Option<WorkerId> {
        match self {
            Event::Pull { worker, .. }
            | Event::Push { worker, .. }
            | Event::Notify { worker }
            | Event::AbortIssued { worker }
            | Event::Resync { worker, .. }
            | Event::WorkerState { worker, .. }
            | Event::Fault { worker, .. }
            | Event::WorkerCrashed { worker }
            | Event::WorkerRecovered { worker, .. }
            | Event::Straggler { worker, .. }
            | Event::Membership { worker, .. }
            | Event::NotifyLoss { worker, .. }
            | Event::PushFenced { worker, .. }
            | Event::RetryScheduled { worker, .. }
            | Event::FrameSent { worker, .. }
            | Event::FrameReceived { worker, .. }
            | Event::ConnRetry { worker, .. }
            | Event::ConnReset { worker, .. }
            | Event::RetryExhausted { worker, .. }
            | Event::DegradedMode { worker, .. } => Some(*worker),
            Event::EpochTuned { .. }
            | Event::Eval { .. }
            | Event::ShardFailover { .. }
            | Event::HistoryEvicted { .. }
            | Event::SchedCost { .. }
            | Event::BackupJoined { .. }
            | Event::CatchUpComplete { .. }
            | Event::ProcessRestarted { .. } => None,
        }
    }

    /// Stable lowercase tag used in serialized traces.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::Pull { .. } => "pull",
            Event::Push { .. } => "push",
            Event::Notify { .. } => "notify",
            Event::AbortIssued { .. } => "abort_issued",
            Event::Resync { .. } => "resync",
            Event::EpochTuned { .. } => "epoch_tuned",
            Event::Eval { .. } => "eval",
            Event::WorkerState { .. } => "state",
            Event::Fault { .. } => "fault",
            Event::WorkerCrashed { .. } => "crash",
            Event::WorkerRecovered { .. } => "recover",
            Event::Straggler { .. } => "straggler",
            Event::Membership { .. } => "membership",
            Event::NotifyLoss { .. } => "notify_loss",
            Event::PushFenced { .. } => "push_fenced",
            Event::RetryScheduled { .. } => "retry",
            Event::ShardFailover { .. } => "shard_failover",
            Event::HistoryEvicted { .. } => "history_evicted",
            Event::SchedCost { .. } => "sched_cost",
            Event::FrameSent { .. } => "frame_sent",
            Event::FrameReceived { .. } => "frame_recv",
            Event::ConnRetry { .. } => "conn_retry",
            Event::ConnReset { .. } => "conn_reset",
            Event::RetryExhausted { .. } => "retry_exhausted",
            Event::DegradedMode { .. } => "degraded_mode",
            Event::BackupJoined { .. } => "backup_joined",
            Event::CatchUpComplete { .. } => "catchup_complete",
            Event::ProcessRestarted { .. } => "process_restarted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_reduce_to_micros() {
        assert_eq!(VirtualTime::from_secs(2).as_trace_micros(), 2_000_000);
        assert_eq!(Duration::from_millis(3).as_trace_micros(), 3_000);
    }

    #[test]
    fn worker_scoping() {
        let w = WorkerId::new(3);
        assert_eq!(Event::Notify { worker: w }.worker(), Some(w));
        assert_eq!(
            Event::Eval {
                iterations: 1,
                loss: 0.5
            }
            .worker(),
            None
        );
    }

    #[test]
    fn phase_labels_round_trip() {
        for phase in [
            WorkerPhase::Idle,
            WorkerPhase::Pulling,
            WorkerPhase::Computing,
            WorkerPhase::Pushing,
            WorkerPhase::Dead,
        ] {
            assert_eq!(WorkerPhase::from_label(phase.label()), Some(phase));
        }
        assert_eq!(WorkerPhase::from_label("warp-drive"), None);
    }
}
