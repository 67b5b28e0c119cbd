//! The worker side of Algorithm 2 as a sans-IO state machine.
//!
//! [`WorkerMachine`] owns the worker's rules: its phase, the attempt that
//! fences a compute span, when an abort is honoured ("if that is not too
//! late yet", §IV-A: only mid-compute), and its push, abort and waste
//! tallies. It has no clock, sink, I/O or model: each verb returns the
//! [`Event`] the host records. The simulator's driver and the wire's
//! worker harness both drive it.

use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
use specsync_telemetry::{Event, WorkerPhase};

/// One worker's protocol state.
#[derive(Debug)]
pub struct WorkerMachine {
    worker: WorkerId,
    phase: WorkerPhase,
    /// Bumped by every compute start, abort and crash: a compute span ends
    /// only if its attempt is still current.
    attempt: u64,
    compute_started: VirtualTime,
    pushes: u64,
    aborts: u64,
    wasted: SimDuration,
}

impl WorkerMachine {
    /// An idle worker that has not pulled yet.
    pub fn new(worker: WorkerId) -> Self {
        WorkerMachine {
            worker,
            phase: WorkerPhase::Idle,
            attempt: 0,
            compute_started: VirtualTime::ZERO,
            pushes: 0,
            aborts: 0,
            wasted: SimDuration::ZERO,
        }
    }

    /// The phase the worker is in.
    pub fn phase(&self) -> WorkerPhase {
        self.phase
    }

    /// Pushes delivered.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Aborts honoured.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Compute time thrown away by honoured aborts.
    pub fn wasted(&self) -> SimDuration {
        self.wasted
    }

    fn enter(&mut self, state: WorkerPhase) -> Event {
        self.phase = state;
        let worker = self.worker;
        Event::WorkerState { worker, state }
    }

    /// A pull is issued (again, if one is in flight). `None` when the
    /// worker is dead: a crash can race the decision to pull.
    pub fn pull(&mut self) -> Option<Event> {
        (self.phase != WorkerPhase::Dead).then(|| self.enter(WorkerPhase::Pulling))
    }

    /// The parameters arrived at `now`: computing starts, only while
    /// pulling. Returns the attempt [`compute_done`](Self::compute_done)
    /// must name.
    pub fn start_compute(&mut self, now: VirtualTime) -> Option<(u64, Event)> {
        if self.phase != WorkerPhase::Pulling {
            return None;
        }
        self.attempt += 1;
        self.compute_started = now;
        Some((self.attempt, self.enter(WorkerPhase::Computing)))
    }

    /// Computing `attempt` finished and its push goes out. `None` when
    /// that span was aborted or the worker crashed in it.
    pub fn compute_done(&mut self, attempt: u64) -> Option<Event> {
        (self.phase == WorkerPhase::Computing && self.attempt == attempt)
            .then(|| self.enter(WorkerPhase::Pushing))
    }

    /// The push was delivered. Returns the pushes delivered so far.
    pub fn pushed(&mut self) -> u64 {
        self.pushes += 1;
        self.pushes
    }

    /// The worker waits on a scheme gate. `None` when it is dead.
    pub fn idle(&mut self) -> Option<Event> {
        (self.phase != WorkerPhase::Dead).then(|| self.enter(WorkerPhase::Idle))
    }

    /// An abort arrived at `now`. Honoured only while computing: the span
    /// is fenced and counted as waste, and the host re-pulls next.
    pub fn abort(&mut self, now: VirtualTime) -> Option<Event> {
        if self.phase != WorkerPhase::Computing {
            return None;
        }
        self.attempt += 1;
        self.aborts += 1;
        let wasted = now.saturating_since(self.compute_started);
        self.wasted += wasted;
        let worker = self.worker;
        Some(Event::Resync { worker, wasted })
    }

    /// The worker crashed, fencing its compute span. Returns the crash,
    /// then the `Dead` phase; `None` if already dead.
    pub fn crash(&mut self) -> Option<[Event; 2]> {
        if self.phase == WorkerPhase::Dead {
            return None;
        }
        self.attempt += 1;
        let crashed = Event::WorkerCrashed {
            worker: self.worker,
        };
        Some([crashed, self.enter(WorkerPhase::Dead)])
    }

    /// A dead worker rejoins, idle. `None` unless it was dead.
    pub fn recover(&mut self) -> Option<Event> {
        (self.phase == WorkerPhase::Dead).then(|| self.enter(WorkerPhase::Idle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn computing(w: &mut WorkerMachine, at: u64) -> u64 {
        w.pull().unwrap();
        w.start_compute(VirtualTime::from_secs(at)).unwrap().0
    }

    #[test]
    fn an_abort_is_honoured_only_mid_compute() {
        let (worker, t) = (WorkerId::new(2), VirtualTime::from_secs(9));
        let mut w = WorkerMachine::new(worker);
        assert!(w.abort(t).is_none(), "idle");
        w.pull().unwrap();
        assert!(w.abort(t).is_none(), "pulling");
        w.start_compute(VirtualTime::from_secs(3)).unwrap();
        let wasted = SimDuration::from_secs(6);
        assert_eq!(w.abort(t), Some(Event::Resync { worker, wasted }));
        let attempt = computing(&mut w, 10);
        w.compute_done(attempt).unwrap();
        assert!(w.abort(t).is_none(), "pushing: too late");
        assert_eq!((w.aborts(), w.wasted()), (1, wasted));
    }

    #[test]
    fn a_crash_or_an_abort_fences_its_compute_span() {
        let worker = WorkerId::new(0);
        let mut w = WorkerMachine::new(worker);
        let aborted = computing(&mut w, 1);
        w.abort(VirtualTime::from_secs(2)).unwrap();
        assert!(w.compute_done(aborted).is_none());
        let crashed = computing(&mut w, 3);
        assert_eq!(w.crash().unwrap()[0], Event::WorkerCrashed { worker });
        w.recover().unwrap();
        let current = computing(&mut w, 4);
        assert!(w.compute_done(crashed).is_none());
        assert!(w.compute_done(current).is_some());
    }

    #[test]
    fn a_dead_worker_does_not_pull() {
        let mut w = WorkerMachine::new(WorkerId::new(1));
        computing(&mut w, 1);
        w.crash().unwrap();
        assert!(w.crash().is_none() && w.pull().is_none() && w.idle().is_none());
        assert_eq!(w.phase(), WorkerPhase::Dead);
        w.recover().unwrap();
        assert!(w.recover().is_none(), "only a dead worker recovers");
        assert!(w.pull().is_some());
    }
}
