//! Primary/backup replication with promote-on-crash failover, in one
//! process: the simulator's model of a shard failover.
//!
//! A [`ReplicatedStore`] keeps two full copies of the parameter state:
//! the *primary* serves every pull and push, and a *warm backup* trails it
//! by at most the [`PushJournal`] capacity. (On the wire the backup is a
//! second shard process fed by the write-ahead relay, and each shard
//! process serves a plain [`ParameterStore`].) One down flag per server
//! (the store's [`num_shards`](ParameterStore::num_shards)) tracks which
//! servers are up; while any server is down the store refuses traffic with
//! a typed [`ReplicaError`] and the host retries until the backup is
//! promoted.
//!
//! The failover invariants (DESIGN.md §13):
//!
//! 1. **Write-ahead**: a push is journaled before it touches the primary,
//!    tagged with the version it will produce.
//! 2. **Bounded lag**: when the journal fills, the backup synchronously
//!    catches up; the backup is never more than `journal capacity` pushes
//!    behind.
//! 3. **Exactly-once replay**: the backup-applied watermark guarantees
//!    each journaled sequence number is applied to the backup once, ever —
//!    promotion replays exactly the unseen suffix, so no push is lost and
//!    none is applied twice.
//! 4. **Determinism**: replay runs the same `ParameterStore` arithmetic
//!    the primary ran, in the same order, so a promoted backup is
//!    bit-identical to the primary it replaces.

use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

use crate::journal::{JournalEntry, PushJournal, PushPayload};
use crate::store::{ParamSnapshot, ParameterStore};

/// A replication-layer failure: traffic refused or a misdirected
/// failover-protocol call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaError {
    /// The named server shard does not exist.
    UnknownServer(usize),
    /// The named server shard is down; retry after promotion.
    ServerDown(usize),
    /// A crash/promote/recover call targeted a server in the wrong state.
    WrongState {
        /// The targeted server shard.
        server: usize,
        /// What the protocol call required of it.
        expected: &'static str,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::UnknownServer(s) => write!(f, "unknown server shard {s}"),
            ReplicaError::ServerDown(s) => {
                write!(f, "server shard {s} is down; retry after failover")
            }
            ReplicaError::WrongState { server, expected } => {
                write!(f, "server shard {server} is not {expected}")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// A primary/backup replicated [`ParameterStore`] with a bounded
/// write-ahead push journal and deterministic promote-on-crash failover.
///
/// # Examples
///
/// ```
/// use specsync_ps::{ParameterStore, ReplicatedStore};
/// use specsync_simnet::WorkerId;
///
/// let store = ParameterStore::new(vec![0.0; 4], 2);
/// let mut rep = ReplicatedStore::from_store(store, 8);
/// rep.try_apply_push(WorkerId::new(0), &[1.0; 4], 0.1).unwrap();
/// rep.crash_server(0).unwrap();
/// assert!(rep.try_apply_push(WorkerId::new(0), &[1.0; 4], 0.1).is_err());
/// let replayed = rep.promote(0).unwrap();
/// assert_eq!(replayed, 1);
/// rep.try_apply_push(WorkerId::new(0), &[1.0; 4], 0.1).unwrap();
/// assert_eq!(rep.version(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    primary: ParameterStore,
    backup: ParameterStore,
    journal: PushJournal,
    /// Watermark: every journaled push with `seq <=` this is durable on
    /// the backup. The exactly-once guarantee lives here.
    backup_applied: u64,
    /// One flag per server: `true` between its crash and its promotion.
    down: Vec<bool>,
}

impl ReplicatedStore {
    /// Default journal capacity: deep enough that a healthy run never
    /// forces synchronous catch-up, small enough to keep failover replay
    /// short.
    pub const DEFAULT_JOURNAL_CAPACITY: usize = 256;

    /// Wraps an existing store (optimizer options and all) with a warm
    /// backup and a journal of `journal_capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `journal_capacity == 0`.
    pub fn from_store(store: ParameterStore, journal_capacity: usize) -> Self {
        let backup_applied = store.version();
        let down = vec![false; store.num_shards()];
        ReplicatedStore {
            backup: store.clone(),
            primary: store,
            journal: PushJournal::new(journal_capacity),
            backup_applied,
            down,
        }
    }

    /// True if every shard's server is serving (traffic is accepted).
    pub fn is_available(&self) -> bool {
        !self.down.contains(&true)
    }

    /// The first down server shard, if any (the index hosts report in
    /// [`ReplicaError::ServerDown`]).
    fn first_down(&self) -> Option<usize> {
        self.down.iter().position(|&d| d)
    }

    /// Outstanding journal entries (pushes the backup has not applied).
    pub fn journal_lag(&self) -> usize {
        self.journal.len()
    }

    fn check_server(&self, server: usize) -> Result<(), ReplicaError> {
        if server >= self.down.len() {
            return Err(ReplicaError::UnknownServer(server));
        }
        Ok(())
    }

    fn refuse_if_down(&self) -> Result<(), ReplicaError> {
        match self.first_down() {
            Some(s) => Err(ReplicaError::ServerDown(s)),
            None => Ok(()),
        }
    }

    /// Replays every journaled push the backup has not seen, in order,
    /// and truncates the journal. Returns how many entries were applied.
    ///
    /// Exactly-once: only entries past the `backup_applied` watermark are
    /// replayed, and the watermark advances before anything else can run.
    pub fn sync_backup(&mut self) -> u64 {
        let mut applied = 0;
        // The journal is read while the backup store and the watermark are
        // written: three disjoint fields, so entries replay in place.
        for entry in self.journal.entries_after(self.backup_applied) {
            let version = entry.apply_to(&mut self.backup);
            debug_assert_eq!(
                version, entry.seq,
                "backup replay must reproduce the journaled version"
            );
            self.backup_applied = entry.seq;
            applied += 1;
        }
        self.journal.truncate_through(self.backup_applied);
        applied
    }

    /// Journals a push, taking ownership of its payload, then applies it
    /// to the primary from the journal's own copy — the one path every
    /// push goes through. Returns the new global version.
    fn try_apply_payload(
        &mut self,
        worker: WorkerId,
        payload: PushPayload,
        lr: f32,
    ) -> Result<u64, ReplicaError> {
        self.refuse_if_down()?;
        if self.journal.is_full() {
            // Bounded lag: a full journal forces the backup to catch up
            // synchronously before the push is accepted.
            self.sync_backup();
        }
        let entry = self
            .journal
            .try_append(JournalEntry {
                seq: self.primary.version() + 1,
                worker,
                payload,
                lr,
            })
            .unwrap_or_else(|e| unreachable!("journal drained but still full: {e}"));
        Ok(entry.apply_to(&mut self.primary))
    }

    /// Journals a copy of a dense gradient, then applies it to the primary
    /// from the journal: the journal's copy is the only one made. Returns
    /// the new global version.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError::ServerDown`] while a shard is failing over;
    /// the caller retries after promotion.
    pub fn try_apply_push(
        &mut self,
        worker: WorkerId,
        grad: &[f32],
        lr: f32,
    ) -> Result<u64, ReplicaError> {
        self.try_apply_payload(worker, PushPayload::Dense(grad.to_vec()), lr)
    }

    /// [`try_apply_push`](Self::try_apply_push) for a sparse gradient.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError::ServerDown`] while a shard is failing over;
    /// the caller retries after promotion.
    pub fn try_apply_push_sparse(
        &mut self,
        worker: WorkerId,
        grad: &SparseGrad,
        lr: f32,
    ) -> Result<u64, ReplicaError> {
        self.try_apply_payload(worker, PushPayload::Sparse(grad.clone()), lr)
    }

    /// Serves a pull from the serving replica.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError::ServerDown`] while a shard is failing over.
    pub fn try_pull(&mut self, worker: WorkerId) -> Result<ParamSnapshot, ReplicaError> {
        self.refuse_if_down()?;
        Ok(self.primary.pull(worker))
    }

    /// Marks `server`'s primary as crashed: traffic is refused until
    /// [`promote`](Self::promote).
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError`] if the server is unknown or already down.
    pub fn crash_server(&mut self, server: usize) -> Result<(), ReplicaError> {
        self.check_server(server)?;
        if self.down[server] {
            return Err(ReplicaError::WrongState {
                server,
                expected: "up",
            });
        }
        self.down[server] = true;
        Ok(())
    }

    /// Promotes the warm backup of a crashed server: replays the journal
    /// suffix the backup has not applied (exactly once), swaps it in as
    /// the serving replica, and resumes traffic. Returns the number of
    /// replayed pushes.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError`] if the server is unknown or not down.
    pub fn promote(&mut self, server: usize) -> Result<u64, ReplicaError> {
        self.check_server(server)?;
        if !self.down[server] {
            return Err(ReplicaError::WrongState {
                server,
                expected: "down",
            });
        }
        let replayed = self.sync_backup();
        debug_assert_eq!(
            self.backup.version(),
            self.primary.version(),
            "a caught-up backup matches the primary's version"
        );
        std::mem::swap(&mut self.primary, &mut self.backup);
        self.down[server] = false;
        Ok(replayed)
    }

    /// Re-admits a recovered node as the shard's warm backup: the backup
    /// is re-seeded from the serving replica and the journal restarts
    /// empty: a full primary/backup pair again.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicaError`] if the server is unknown or still down
    /// (promote first).
    pub fn recover_server(&mut self, server: usize) -> Result<(), ReplicaError> {
        self.check_server(server)?;
        if self.down[server] {
            return Err(ReplicaError::WrongState {
                server,
                expected: "promoted",
            });
        }
        self.backup = self.primary.clone();
        self.backup_applied = self.primary.version();
        self.journal.truncate_through(self.backup_applied);
        Ok(())
    }

    // ----- read-side passthroughs to the serving replica -----

    /// Global version: total pushes applied.
    pub fn version(&self) -> u64 {
        self.primary.version()
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.primary.num_params()
    }

    /// Current global parameters of the serving replica (see
    /// [`ParameterStore::params`]).
    pub fn params(&mut self) -> &[f32] {
        self.primary.params()
    }

    /// How many pushes `worker` has applied.
    pub fn pushes_by(&self, worker: WorkerId) -> u64 {
        self.primary.pushes_by(worker)
    }

    /// The staleness of `worker`'s replica (see
    /// [`ParameterStore::staleness_of`]).
    pub fn staleness_of(&self, worker: WorkerId) -> u64 {
        self.primary.staleness_of(worker)
    }
}

/// The serving replica; the warm backup and the journal are dropped. Only
/// `perf/`, which still builds its shard hosts from replicated stores,
/// relies on this conversion.
impl From<ReplicatedStore> for ParameterStore {
    fn from(store: ReplicatedStore) -> Self {
        store.primary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    fn sparse(dim: usize, pairs: &[(usize, f32)]) -> SparseGrad {
        let mut g = SparseGrad::new();
        g.reset(dim);
        for &(i, v) in pairs {
            g.add(i, v);
        }
        g.finish();
        g
    }

    /// Drives a replicated store and a plain shadow store through the same
    /// push sequence; returns both for comparison.
    fn mixed_workload(rep: &mut ReplicatedStore, shadow: &mut ParameterStore, rounds: usize) {
        for i in 0..rounds {
            if i % 3 == 0 {
                let g = sparse(4, &[(i % 4, 0.5 + i as f32 * 0.1)]);
                rep.try_apply_push_sparse(w(i % 3), &g, 0.1).unwrap();
                shadow.apply_push_sparse(w(i % 3), &g, 0.1);
            } else {
                let g = vec![0.1 * (i as f32 + 1.0); 4];
                rep.try_apply_push(w(i % 3), &g, 0.1).unwrap();
                shadow.apply_push(w(i % 3), &g, 0.1);
            }
        }
    }

    #[test]
    fn promoted_backup_is_bit_identical_to_primary() {
        let base = ParameterStore::new(vec![0.0; 4], 2).with_momentum(0.9);
        let mut shadow = base.clone();
        let mut rep = ReplicatedStore::from_store(base, 64);
        mixed_workload(&mut rep, &mut shadow, 17);

        rep.crash_server(1).unwrap();
        assert_eq!(
            rep.try_apply_push(w(0), &[1.0; 4], 0.1),
            Err(ReplicaError::ServerDown(1))
        );
        assert_eq!(rep.try_pull(w(0)).unwrap_err(), ReplicaError::ServerDown(1));

        let replayed = rep.promote(1).unwrap();
        assert_eq!(replayed, 17, "every push replays exactly once");
        assert_eq!(rep.version(), shadow.version());
        assert_eq!(rep.params(), shadow.params());
        assert!(rep.is_available());
    }

    #[test]
    fn journal_overflow_forces_bounded_catchup() {
        let base = ParameterStore::new(vec![0.0; 4], 2);
        let mut shadow = base.clone();
        let mut rep = ReplicatedStore::from_store(base, 4);
        mixed_workload(&mut rep, &mut shadow, 23);
        assert!(
            rep.journal_lag() <= 4,
            "backup lag must stay within the journal bound"
        );
        // The interim catch-ups plus the promote replay cover all 23
        // pushes exactly once: the promoted state matches the shadow.
        rep.crash_server(0).unwrap();
        rep.promote(0).unwrap();
        assert_eq!(rep.version(), shadow.version());
        assert_eq!(rep.params(), shadow.params());
    }

    #[test]
    fn partial_syncs_never_double_apply() {
        let base = ParameterStore::new(vec![0.0; 4], 2).with_momentum(0.5);
        let mut shadow = base.clone();
        let mut rep = ReplicatedStore::from_store(base, 64);
        for round in 0..5 {
            mixed_workload(&mut rep, &mut shadow, 4);
            if round % 2 == 0 {
                rep.sync_backup();
                // A second sync with nothing new applies nothing.
                assert_eq!(rep.sync_backup(), 0);
            }
        }
        rep.crash_server(1).unwrap();
        rep.promote(1).unwrap();
        assert_eq!(rep.version(), shadow.version());
        assert_eq!(rep.params(), shadow.params());
    }

    #[test]
    fn sync_backup_on_an_empty_journal_is_a_no_op() {
        let base = ParameterStore::new(vec![0.0; 4], 2).with_momentum(0.5);
        let mut shadow = base.clone();
        let mut rep = ReplicatedStore::from_store(base, 8);
        assert_eq!(rep.sync_backup(), 0, "nothing journaled yet");
        assert_eq!(rep.backup_applied, 0);
        mixed_workload(&mut rep, &mut shadow, 5);
        assert_eq!(rep.sync_backup(), 5);
        let backup = rep.backup.snapshot_for_checkpoint().encode();
        assert_eq!(rep.journal_lag(), 0);
        assert_eq!(rep.sync_backup(), 0);
        assert_eq!(rep.backup_applied, 5, "the watermark stays put");
        assert_eq!(rep.backup.snapshot_for_checkpoint().encode(), backup);
    }

    #[test]
    fn failover_then_recovery_supports_a_second_failover() {
        let base = ParameterStore::new(vec![0.0; 4], 2);
        let mut shadow = base.clone();
        let mut rep = ReplicatedStore::from_store(base, 8);
        mixed_workload(&mut rep, &mut shadow, 6);
        rep.crash_server(0).unwrap();
        rep.promote(0).unwrap();
        rep.recover_server(0).unwrap();
        assert_eq!(rep.journal_lag(), 0, "recovery re-seeds the backup");
        mixed_workload(&mut rep, &mut shadow, 6);
        rep.crash_server(1).unwrap();
        rep.promote(1).unwrap();
        assert_eq!(rep.version(), shadow.version());
        assert_eq!(rep.params(), shadow.params());
    }

    #[test]
    fn protocol_misuse_is_typed() {
        let mut rep = ReplicatedStore::from_store(ParameterStore::new(vec![0.0; 4], 2), 8);
        assert_eq!(rep.crash_server(9), Err(ReplicaError::UnknownServer(9)));
        assert_eq!(
            rep.promote(0),
            Err(ReplicaError::WrongState {
                server: 0,
                expected: "down",
            })
        );
        rep.crash_server(0).unwrap();
        assert_eq!(
            rep.crash_server(0),
            Err(ReplicaError::WrongState {
                server: 0,
                expected: "up",
            })
        );
        assert_eq!(
            rep.recover_server(0),
            Err(ReplicaError::WrongState {
                server: 0,
                expected: "promoted",
            })
        );
        assert!(!rep.is_available());
        rep.promote(0).unwrap();
        assert!(rep.is_available());
    }

    #[test]
    fn two_down_servers_keep_the_store_unavailable_until_both_promote() {
        let mut rep = ReplicatedStore::from_store(ParameterStore::new(vec![0.0; 4], 2), 8);
        rep.try_apply_push(w(0), &[1.0; 4], 0.1).unwrap();
        rep.crash_server(0).unwrap();
        rep.crash_server(1).unwrap();
        assert_eq!(
            rep.try_apply_push(w(0), &[1.0; 4], 0.1),
            Err(ReplicaError::ServerDown(0))
        );
        assert_eq!(
            rep.promote(0),
            Ok(1),
            "the first promote replays the journal"
        );
        assert!(!rep.is_available(), "server 1 is still down");
        assert_eq!(rep.try_pull(w(0)).unwrap_err(), ReplicaError::ServerDown(1));
        assert_eq!(rep.promote(1), Ok(0), "nothing left to replay");
        assert!(rep.is_available());
        assert_eq!(rep.try_apply_push(w(0), &[1.0; 4], 0.1), Ok(2));
    }

    #[test]
    fn worker_bookkeeping_survives_failover() {
        let mut rep = ReplicatedStore::from_store(ParameterStore::new(vec![0.0; 4], 2), 8);
        rep.try_pull(w(0)).unwrap();
        rep.try_apply_push(w(1), &[1.0; 4], 0.1).unwrap();
        rep.try_apply_push(w(1), &[1.0; 4], 0.1).unwrap();
        assert_eq!(rep.staleness_of(w(0)), 2);
        rep.crash_server(0).unwrap();
        rep.promote(0).unwrap();
        assert_eq!(rep.pushes_by(w(1)), 2);
        assert_eq!(
            rep.staleness_of(w(0)),
            2,
            "staleness accounting must survive promotion"
        );
    }
}
