//! Bulk-synchronous-parallel barrier bookkeeping (paper §II-C).

use specsync_simnet::WorkerId;

/// An iteration barrier over `m` workers: all must arrive before any may
/// continue.
///
/// # Examples
///
/// ```
/// use specsync_sync::BspBarrier;
/// use specsync_simnet::WorkerId;
///
/// let mut barrier = BspBarrier::new(2);
/// assert!(barrier.arrive(WorkerId::new(0)).is_none());
/// let released = barrier.arrive(WorkerId::new(1)).unwrap();
/// assert_eq!(released.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BspBarrier {
    m: usize,
    arrived: Vec<bool>,
    active: Vec<bool>,
    count: usize,
    generation: u64,
}

impl BspBarrier {
    /// Creates a barrier over `m` workers, all initially active.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one worker");
        BspBarrier {
            m,
            arrived: vec![false; m],
            active: vec![true; m],
            count: 0,
            generation: 0,
        }
    }

    /// The number of completed barrier rounds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of workers currently waiting at the barrier.
    pub fn waiting(&self) -> usize {
        self.count
    }

    /// Number of workers the barrier currently waits for.
    pub fn active_workers(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Marks `worker` as arrived. Returns `Some(active workers)` when the
    /// barrier trips (and resets for the next round), `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range, arrives twice in one round, or
    /// arrives while deactivated.
    pub fn arrive(&mut self, worker: WorkerId) -> Option<Vec<WorkerId>> {
        assert!(
            self.active[worker.index()],
            "{worker} arrived while deactivated"
        );
        let slot = &mut self.arrived[worker.index()];
        assert!(!*slot, "{worker} arrived twice in one barrier round");
        *slot = true;
        self.count += 1;
        self.trip_if_complete()
    }

    /// Removes a (crashed) worker from the barrier. If every remaining
    /// active worker has already arrived, the barrier trips immediately so
    /// survivors are never deadlocked waiting on the dead worker; the
    /// released workers are returned exactly as from [`BspBarrier::arrive`].
    ///
    /// Deactivating an already-inactive worker is a no-op returning `None`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn deactivate(&mut self, worker: WorkerId) -> Option<Vec<WorkerId>> {
        let i = worker.index();
        if !self.active[i] {
            return None;
        }
        self.active[i] = false;
        if self.arrived[i] {
            self.arrived[i] = false;
            self.count -= 1;
        }
        self.trip_if_complete()
    }

    /// Re-admits a recovered worker starting with the *next* round: it is
    /// marked active and not arrived, so the current round now also waits
    /// for it. Reactivating an active worker is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn reactivate(&mut self, worker: WorkerId) {
        self.active[worker.index()] = true;
    }

    fn trip_if_complete(&mut self) -> Option<Vec<WorkerId>> {
        let needed = self.active_workers();
        if needed > 0 && self.count == needed {
            self.arrived.fill(false);
            self.count = 0;
            self.generation += 1;
            Some(
                WorkerId::all(self.m)
                    .filter(|w| self.active[w.index()])
                    .collect(),
            )
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    #[test]
    fn trips_only_when_all_arrive() {
        let mut b = BspBarrier::new(3);
        assert!(b.arrive(w(0)).is_none());
        assert!(b.arrive(w(2)).is_none());
        assert_eq!(b.waiting(), 2);
        let released = b.arrive(w(1)).unwrap();
        assert_eq!(released, vec![w(0), w(1), w(2)]);
        assert_eq!(b.generation(), 1);
        assert_eq!(b.waiting(), 0);
    }

    #[test]
    fn resets_between_rounds() {
        let mut b = BspBarrier::new(2);
        b.arrive(w(0));
        b.arrive(w(1));
        assert!(b.arrive(w(1)).is_none());
        assert!(b.arrive(w(0)).is_some());
        assert_eq!(b.generation(), 2);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut b = BspBarrier::new(2);
        b.arrive(w(0));
        b.arrive(w(0));
    }

    #[test]
    fn single_worker_barrier_always_trips() {
        let mut b = BspBarrier::new(1);
        assert!(b.arrive(w(0)).is_some());
        assert!(b.arrive(w(0)).is_some());
    }

    #[test]
    fn deactivating_a_missing_worker_releases_the_waiters() {
        let mut b = BspBarrier::new(3);
        assert!(b.arrive(w(0)).is_none());
        assert!(b.arrive(w(1)).is_none());
        // w2 crashes before arriving: the round must trip for the survivors.
        let released = b.deactivate(w(2)).expect("barrier must release survivors");
        assert_eq!(released, vec![w(0), w(1)]);
        assert_eq!(b.generation(), 1);
        assert_eq!(b.active_workers(), 2);
    }

    #[test]
    fn deactivating_an_arrived_worker_removes_its_arrival() {
        let mut b = BspBarrier::new(3);
        assert!(b.arrive(w(0)).is_none());
        assert!(b.deactivate(w(0)).is_none());
        assert_eq!(b.waiting(), 0);
        // The two survivors now form the whole barrier.
        assert!(b.arrive(w(1)).is_none());
        let released = b.arrive(w(2)).unwrap();
        assert_eq!(released, vec![w(1), w(2)]);
    }

    #[test]
    fn reactivation_rejoins_the_next_round() {
        let mut b = BspBarrier::new(2);
        b.deactivate(w(1));
        assert!(b.arrive(w(0)).is_some(), "solo active worker trips alone");
        b.reactivate(w(1));
        assert!(b.arrive(w(0)).is_none(), "round now waits for the rejoiner");
        let released = b.arrive(w(1)).unwrap();
        assert_eq!(released, vec![w(0), w(1)]);
    }

    #[test]
    fn double_deactivate_is_a_noop() {
        let mut b = BspBarrier::new(2);
        assert!(b.deactivate(w(0)).is_none());
        assert!(b.deactivate(w(0)).is_none());
        assert_eq!(b.active_workers(), 1);
    }
}
