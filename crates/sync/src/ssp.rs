//! Stale-synchronous-parallel clock bookkeeping (paper §II-C).
//!
//! Each worker carries an iteration clock. A worker about to start
//! iteration `c+1` must wait until `c + 1 - min_clock <= bound`; with
//! `bound = 0` this degenerates to BSP-like lockstep, with `bound = ∞` to
//! ASP.

use specsync_simnet::WorkerId;

/// SSP clock state for an `m`-worker cluster.
///
/// # Examples
///
/// ```
/// use specsync_sync::SspClock;
/// use specsync_simnet::WorkerId;
///
/// let mut ssp = SspClock::new(2, 1);
/// let w0 = WorkerId::new(0);
/// let w1 = WorkerId::new(1);
/// ssp.complete_iteration(w0); // w0 at clock 1, w1 at 0
/// assert!(ssp.can_start_next(w0)); // 2 - 0... starting iter 2 would be 2 ahead
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SspClock {
    clocks: Vec<u64>,
    active: Vec<bool>,
    bound: u64,
}

impl SspClock {
    /// Creates clocks for `m` workers (all active) with the given staleness
    /// `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize, bound: u64) -> Self {
        assert!(m > 0, "need at least one worker");
        SspClock {
            clocks: vec![0; m],
            active: vec![true; m],
            bound,
        }
    }

    /// The staleness bound.
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// The iteration clock of `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn clock_of(&self, worker: WorkerId) -> u64 {
        self.clocks[worker.index()]
    }

    /// The slowest *active* worker's clock (zero when no worker is active),
    /// so a crashed straggler cannot pin the bound forever.
    pub fn min_clock(&self) -> u64 {
        self.clocks
            .iter()
            .zip(&self.active)
            .filter(|&(_, &a)| a)
            .map(|(&c, _)| c)
            .min()
            .unwrap_or(0)
    }

    /// Removes a (crashed) worker from the bound: its clock no longer
    /// counts toward `min_clock`, so survivors blocked on it become
    /// eligible again (check with
    /// [`newly_unblocked`](Self::newly_unblocked)). No-op if already
    /// inactive.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn deactivate(&mut self, worker: WorkerId) {
        self.active[worker.index()] = false;
    }

    /// Re-admits a recovered worker at the tail of the pack: its clock is
    /// reset to the current active minimum so it rejoins without dragging
    /// `min_clock` (and thus every survivor) backwards. No-op if already
    /// active.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn reactivate(&mut self, worker: WorkerId) {
        let i = worker.index();
        if self.active[i] {
            return;
        }
        self.clocks[i] = self.min_clock();
        self.active[i] = true;
    }

    /// Records that `worker` finished an iteration (its clock advances).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn complete_iteration(&mut self, worker: WorkerId) {
        self.clocks[worker.index()] += 1;
    }

    /// Whether `worker` may start its next iteration now: its *next* clock
    /// must not lead the slowest worker by more than the bound.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn can_start_next(&self, worker: WorkerId) -> bool {
        let next = self.clocks[worker.index()] + 1;
        next <= self.min_clock() + self.bound + 1
    }

    /// Workers that become unblocked when `worker` completes an iteration
    /// (call *after* [`complete_iteration`](Self::complete_iteration)):
    /// any worker whose next iteration is now within the bound.
    pub fn newly_unblocked(&self, previously_blocked: &[WorkerId]) -> Vec<WorkerId> {
        previously_blocked
            .iter()
            .copied()
            .filter(|&w| self.can_start_next(w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    #[test]
    fn bound_zero_enforces_lockstep() {
        let mut ssp = SspClock::new(2, 0);
        // Both at 0: each may run iteration 1.
        assert!(ssp.can_start_next(w(0)));
        ssp.complete_iteration(w(0));
        // w0 at 1, w1 at 0: w0 starting iteration 2 would lead by 2 > 0+1.
        assert!(!ssp.can_start_next(w(0)));
        assert!(ssp.can_start_next(w(1)));
        ssp.complete_iteration(w(1));
        assert!(ssp.can_start_next(w(0)));
    }

    #[test]
    fn larger_bound_allows_lead() {
        let mut ssp = SspClock::new(2, 2);
        ssp.complete_iteration(w(0));
        ssp.complete_iteration(w(0));
        // w0 at 2, w1 at 0: next is 3, allowed iff 3 <= 0 + 2 + 1.
        assert!(ssp.can_start_next(w(0)));
        ssp.complete_iteration(w(0));
        assert!(!ssp.can_start_next(w(0)));
    }

    #[test]
    fn blocked_and_unblocked_track_the_straggler() {
        let mut ssp = SspClock::new(3, 1);
        ssp.complete_iteration(w(0));
        ssp.complete_iteration(w(0));
        ssp.complete_iteration(w(1));
        ssp.complete_iteration(w(1));
        // w0 and w1 at 2, w2 at 0. Next for them is 3 > 0 + 2.
        let blocked = vec![w(0), w(1)];
        assert!(blocked.iter().all(|&b| !ssp.can_start_next(b)));
        assert!(ssp.can_start_next(w(2)));
        ssp.complete_iteration(w(2));
        let unblocked = ssp.newly_unblocked(&blocked);
        assert_eq!(unblocked, vec![w(0), w(1)]);
    }

    #[test]
    fn min_clock_tracks_slowest() {
        let mut ssp = SspClock::new(3, 5);
        ssp.complete_iteration(w(1));
        assert_eq!(ssp.min_clock(), 0);
        ssp.complete_iteration(w(0));
        ssp.complete_iteration(w(2));
        assert_eq!(ssp.min_clock(), 1);
        assert_eq!(ssp.clock_of(w(1)), 1);
    }

    #[test]
    fn deactivating_a_dead_straggler_unblocks_survivors() {
        let mut ssp = SspClock::new(3, 0);
        ssp.complete_iteration(w(0));
        ssp.complete_iteration(w(1));
        // w2 (still at 0) crashes; w0/w1 were blocked on it.
        let blocked = vec![w(0), w(1)];
        assert!(blocked.iter().all(|&b| !ssp.can_start_next(b)));
        ssp.deactivate(w(2));
        assert_eq!(ssp.min_clock(), 1);
        assert_eq!(ssp.newly_unblocked(&blocked), blocked);
        assert!(blocked.iter().all(|&b| ssp.can_start_next(b)));
    }

    #[test]
    fn reactivation_rejoins_at_the_active_minimum() {
        let mut ssp = SspClock::new(3, 1);
        ssp.deactivate(w(2));
        for _ in 0..5 {
            ssp.complete_iteration(w(0));
            ssp.complete_iteration(w(1));
        }
        assert_eq!(ssp.min_clock(), 5);
        ssp.reactivate(w(2));
        // Rejoins at the pack's tail, not at its stale pre-crash clock.
        assert_eq!(ssp.clock_of(w(2)), 5);
        assert_eq!(ssp.min_clock(), 5);
        assert!(ssp.can_start_next(w(2)));
        // Reactivating an active worker must not reset its clock.
        ssp.complete_iteration(w(2));
        ssp.reactivate(w(2));
        assert_eq!(ssp.clock_of(w(2)), 6);
    }
}
