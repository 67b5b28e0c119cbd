//! The rejoin snapshot of the parameter store.
//!
//! A [`StoreCheckpoint`] is a settled copy of everything a
//! [`ParameterStore`](crate::ParameterStore) needs to resume exactly where
//! it left off: parameters, optimizer state (momentum velocity), version
//! counters and per-worker bookkeeping. It is what a primary shard sends a
//! joining backup, as one checksummed frame of the `specsync-net` codec,
//! before the live relay starts. This crate has no byte codec for it: the
//! frame carries it, and [`ParameterStore::restore`] checks every store
//! invariant on the way in, so a hostile or hand-built snapshot is a
//! [`CheckpointError`], never a panic and never silently wrong state.
//!
//! [`ParameterStore::restore`]: crate::ParameterStore::restore

/// A snapshot that violates a store invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot names an impossible store.
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(what) => write!(f, "checkpoint: malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A settled, self-contained snapshot of a parameter store.
///
/// Obtain one with
/// [`ParameterStore::snapshot_for_checkpoint`](crate::ParameterStore::snapshot_for_checkpoint)
/// and bring a store back with
/// [`ParameterStore::restore`](crate::ParameterStore::restore), which
/// checks every store invariant first. The fields are public so the wire
/// codec can carry them; nothing but `restore` vouches for them.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCheckpoint {
    /// The parameter vector.
    pub params: Vec<f32>,
    /// Server count (see [`ParameterStore::num_shards`](crate::ParameterStore::num_shards)).
    pub num_shards: usize,
    /// Global version: total pushes applied.
    pub version: u64,
    /// Pushes applied per worker; sums to `version`.
    pub pushes_per_worker: Vec<u64>,
    /// Store version each worker last pulled, one per worker.
    pub last_pull_version: Vec<u64>,
    /// Momentum coefficient, in `[0, 1)`.
    pub momentum: f32,
    /// Momentum velocity: one value per parameter, or empty without
    /// momentum.
    pub velocity: Vec<f32>,
}

impl StoreCheckpoint {
    /// The global version (total pushes) captured by this checkpoint.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of parameters captured.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Checks every invariant [`ParameterStore::restore`] relies on.
    ///
    /// [`ParameterStore::restore`]: crate::ParameterStore::restore
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        if self.params.is_empty() {
            return Err(CheckpointError::Malformed("empty parameter vector"));
        }
        if self.num_shards == 0 || self.num_shards > self.params.len() {
            return Err(CheckpointError::Malformed("shard count out of range"));
        }
        if !(self.momentum.is_finite() && (0.0..1.0).contains(&self.momentum)) {
            return Err(CheckpointError::Malformed("momentum outside [0, 1)"));
        }
        let want_velocity = if self.momentum > 0.0 {
            self.params.len()
        } else {
            0
        };
        if self.velocity.len() != want_velocity {
            return Err(CheckpointError::Malformed("velocity length mismatch"));
        }
        if self.pushes_per_worker.len() != self.last_pull_version.len() {
            return Err(CheckpointError::Malformed("worker table length mismatch"));
        }
        if self.pushes_per_worker.iter().sum::<u64>() != self.version {
            return Err(CheckpointError::Malformed(
                "per-worker pushes do not sum to the version",
            ));
        }
        if self.last_pull_version.iter().any(|&v| v > self.version) {
            return Err(CheckpointError::Malformed("pull version from the future"));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ParameterStore;
    use specsync_simnet::WorkerId;

    /// A snapshot's fields with its floats as bits: equal exactly when two
    /// snapshots are bit-identical, NaN payloads and signed zeros included.
    pub(crate) fn snapshot_bits(ckpt: &StoreCheckpoint) -> Vec<Vec<u64>> {
        let bits = |vs: &[f32]| vs.iter().map(|v| u64::from(v.to_bits())).collect();
        vec![
            bits(&ckpt.params),
            vec![
                ckpt.num_shards as u64,
                ckpt.version,
                u64::from(ckpt.momentum.to_bits()),
            ],
            ckpt.pushes_per_worker.clone(),
            ckpt.last_pull_version.clone(),
            bits(&ckpt.velocity),
        ]
    }

    fn busy_store() -> ParameterStore {
        let mut s = ParameterStore::new(vec![0.5; 8], 4).with_momentum(0.9);
        for i in 0..5 {
            s.apply_push(WorkerId::new(i % 3), &[0.1 * (i as f32 + 1.0); 8], 0.05);
            s.pull(WorkerId::new(i % 2));
        }
        s
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let mut original = busy_store();
        let ckpt = original.snapshot_for_checkpoint();
        let mut restored = ParameterStore::restore(ckpt).expect("valid checkpoint");
        // The restored store continues exactly where the original would.
        for i in 0..4 {
            let g = vec![0.01 * (i as f32 + 1.0); 8];
            original.apply_push(WorkerId::new(i), &g, 0.05);
            restored.apply_push(WorkerId::new(i), &g, 0.05);
        }
        assert_eq!(original.params(), restored.params());
        assert_eq!(original.version(), restored.version());
        assert_eq!(
            original.staleness_of(WorkerId::new(0)),
            restored.staleness_of(WorkerId::new(0))
        );
    }

    #[test]
    fn shard_count_out_of_range_is_malformed() {
        let out_of_range = CheckpointError::Malformed("shard count out of range");
        // `busy_store` has 8 parameters: 0 servers and 9 servers are out.
        for num_shards in [0, 9] {
            let mut ckpt = busy_store().snapshot_for_checkpoint();
            ckpt.num_shards = num_shards;
            assert_eq!(ParameterStore::restore(ckpt).err(), Some(out_of_range));
        }
        for num_shards in [1, 8] {
            let mut ckpt = busy_store().snapshot_for_checkpoint();
            ckpt.num_shards = num_shards;
            let restored = ParameterStore::restore(ckpt).expect("in range");
            assert_eq!(restored.num_shards(), num_shards);
        }
    }

    #[test]
    fn lazy_momentum_state_is_settled_before_capture() {
        use specsync_tensor::SparseGrad;
        let mut s = ParameterStore::new(vec![0.0; 4], 2).with_momentum(0.8);
        let mut g = SparseGrad::new();
        g.reset(4);
        g.add(1, 1.0);
        g.finish();
        s.apply_push_sparse(WorkerId::new(0), &g, 0.1);
        s.apply_push_sparse(WorkerId::new(0), &g, 0.1);
        let ckpt = s.snapshot_for_checkpoint();
        let mut restored = ParameterStore::restore(ckpt).expect("valid");
        assert_eq!(s.params(), restored.params());
    }
}
