//! Bounded write-ahead journal of applied pushes.
//!
//! Every push a [`ReplicatedStore`](crate::ReplicatedStore) accepts is
//! journaled *before* it is applied to the primary, tagged with the global
//! sequence number it will hold. The warm backup trails the primary by at
//! most the journal capacity: when the journal fills, the replica layer
//! drains it into the backup (synchronous catch-up) before accepting the
//! next push. Failover replays exactly the journal suffix the backup has
//! not seen — each sequence number is applied to the backup once, ever.

use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;
use std::collections::VecDeque;

use crate::store::ParameterStore;

/// The gradient payload of one journaled push.
#[derive(Debug, Clone, PartialEq)]
pub enum PushPayload {
    /// A full dense gradient.
    Dense(Vec<f32>),
    /// A sparse gradient (replayed through the sparse path so lazy
    /// momentum bookkeeping matches the primary bit-for-bit).
    Sparse(SparseGrad),
}

impl PushPayload {
    /// Applies this gradient to `store` as `worker`'s push at rate `lr`,
    /// through the path — dense or sparse — it arrived as, so every store
    /// that applies the same payload runs the same arithmetic. Returns the
    /// store's new version.
    pub fn apply_to(&self, store: &mut ParameterStore, worker: WorkerId, lr: f32) -> u64 {
        match self {
            PushPayload::Dense(grad) => store.apply_push(worker, grad, lr),
            PushPayload::Sparse(grad) => store.apply_push_sparse(worker, grad, lr),
        }
    }
}

/// One applied push, as recorded in the journal.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Global sequence number: the store version this push produced.
    pub seq: u64,
    /// The pushing worker.
    pub worker: WorkerId,
    /// The gradient.
    pub payload: PushPayload,
    /// The learning rate the push was applied with.
    pub lr: f32,
}

impl JournalEntry {
    /// Applies this push to `store` at its journaled rate (see
    /// [`PushPayload::apply_to`]). Returns the store's new version.
    pub fn apply_to(&self, store: &mut ParameterStore) -> u64 {
        self.payload.apply_to(store, self.worker, self.lr)
    }
}

/// The journal is at capacity; the backup must catch up before another
/// entry can be written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalFull {
    /// The configured capacity that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for JournalFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "push journal full at capacity {}: backup must catch up",
            self.capacity
        )
    }
}

impl std::error::Error for JournalFull {}

/// A bounded FIFO of journaled pushes with monotone sequence numbers.
#[derive(Debug, Clone)]
pub struct PushJournal {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
}

impl PushJournal {
    /// Creates an empty journal holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-lag journal cannot accept the
    /// push it is supposed to protect).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        PushJournal {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Number of journaled entries not yet truncated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the next append would be refused.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends an entry, returning it as stored: the journal owns the
    /// payload from here on, and the caller applies the push from this
    /// reference instead of keeping a copy.
    ///
    /// # Errors
    ///
    /// Returns [`JournalFull`] when at capacity; the caller drains into the
    /// backup (see [`truncate_through`](Self::truncate_through)) and
    /// retries.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if `entry.seq` does not extend the journal
    /// monotonically.
    pub fn try_append(&mut self, entry: JournalEntry) -> Result<&JournalEntry, JournalFull> {
        if self.is_full() {
            return Err(JournalFull {
                capacity: self.capacity,
            });
        }
        debug_assert!(
            self.entries.back().is_none_or(|last| last.seq < entry.seq),
            "journal sequence numbers must be strictly increasing"
        );
        self.entries.push_back(entry);
        Ok(&self.entries[self.entries.len() - 1])
    }

    /// Drops every entry with `seq <= through` (they are durable on the
    /// backup). Truncation is idempotent: re-acknowledging an old sequence
    /// number removes nothing.
    pub fn truncate_through(&mut self, through: u64) {
        while self.entries.front().is_some_and(|e| e.seq <= through) {
            self.entries.pop_front();
        }
    }

    /// The outstanding entries with `seq > after`, oldest first.
    pub fn entries_after(&self, after: u64) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter().filter(move |e| e.seq > after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            worker: WorkerId::new(0),
            payload: PushPayload::Dense(vec![1.0]),
            lr: 0.1,
        }
    }

    #[test]
    fn append_is_bounded_and_fifo() {
        let mut j = PushJournal::new(2);
        j.try_append(entry(1)).unwrap();
        j.try_append(entry(2)).unwrap();
        assert_eq!(
            j.try_append(entry(3)).err(),
            Some(JournalFull { capacity: 2 })
        );
        assert!(j.is_full());
        let seqs: Vec<u64> = j.entries_after(0).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn truncation_is_idempotent_and_frees_capacity() {
        let mut j = PushJournal::new(2);
        j.try_append(entry(1)).unwrap();
        j.try_append(entry(2)).unwrap();
        j.truncate_through(1);
        j.truncate_through(1);
        assert_eq!(j.len(), 1);
        j.try_append(entry(3)).unwrap();
        let seqs: Vec<u64> = j.entries_after(1).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    fn entries_after_skips_already_applied_seqs() {
        let mut j = PushJournal::new(4);
        for s in 1..=4 {
            j.try_append(entry(s)).unwrap();
        }
        let seqs: Vec<u64> = j.entries_after(2).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "journal capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = PushJournal::new(0);
    }
}
