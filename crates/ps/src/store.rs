//! The versioned parameter store.
//!
//! Semantics follow MXNet's `dist_async` kvstore, the substrate the paper
//! builds on (§V): pushes are gradient contributions applied to the global
//! parameters in arrival order; pulls return a snapshot of the current
//! global view. There are no barriers in the store itself — synchronization
//! policy lives entirely in the scheme/scheduler layer.

use std::sync::Arc;

use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

use crate::checkpoint::{CheckpointError, StoreCheckpoint};

/// A consistent snapshot of the global parameters, as returned by a pull.
///
/// The parameter block is immutable and reference-counted: every pull
/// served between two pushes hands out the same allocation, so N workers
/// pulling an unchanged store share one buffer instead of owning N copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSnapshot {
    params: Arc<[f32]>,
    version: u64,
}

impl ParamSnapshot {
    /// The parameter values.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The global version (total pushes applied) at snapshot time.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shared parameter block (no copy).
    pub fn shared(&self) -> Arc<[f32]> {
        Arc::clone(&self.params)
    }

    /// Consumes the snapshot, returning the shared parameter block without
    /// copying.
    pub fn into_shared(self) -> Arc<[f32]> {
        self.params
    }
}

/// The server-side global parameter state.
///
/// # Examples
///
/// ```
/// use specsync_ps::ParameterStore;
/// use specsync_simnet::WorkerId;
///
/// let mut store = ParameterStore::new(vec![1.0, 1.0], 1);
/// store.apply_push(WorkerId::new(0), &[0.5, 0.0], 1.0);
/// let snap = store.pull(WorkerId::new(0));
/// assert_eq!(snap.params(), &[0.5, 1.0]);
/// assert_eq!(snap.version(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ParameterStore {
    params: Vec<f32>,
    /// Server count: carried by checkpoints and by the crash model of
    /// [`ReplicatedStore`](crate::ReplicatedStore); no key range is read.
    num_shards: usize,
    version: u64,
    pushes_per_worker: Vec<u64>,
    last_pull_version: Vec<u64>,
    momentum: f32,
    velocity: Vec<f32>,
    /// Cached immutable snapshot served to pulls; dropped lazily on the
    /// next push so it is rebuilt at most once per version.
    snapshot: Option<Arc<[f32]>>,
    /// Per-coordinate version up to which `params`/`velocity` are
    /// materialized (momentum only), read as `max(last_sync[j], synced)`.
    /// Only a sparse push writes it, leaving untouched coordinates behind
    /// the global version; their pending `v ← β·v; w ← w − lr·v` decay
    /// steps are replayed on demand.
    last_sync: Vec<u64>,
    /// The version a dense push or a full flush settled every coordinate to.
    synced: u64,
    /// The learning rate of all pending decay steps. Sparse pushes with a
    /// different lr (and dense pushes, and snapshot rebuilds) first flush
    /// every coordinate to the current version.
    lazy_lr: f32,
    /// Whether any coordinate may be behind the global version. Keeps
    /// flushes O(1) when nothing was deferred (fresh stores, dense-only
    /// histories).
    lazy_behind: bool,
}

impl ParameterStore {
    /// Creates a store holding `initial` parameters for a cluster of
    /// `num_shards` servers, applying plain SGD updates.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or `num_shards == 0`.
    pub fn new(initial: Vec<f32>, num_shards: usize) -> Self {
        assert!(!initial.is_empty(), "parameter vector cannot be empty");
        assert!(num_shards > 0, "need at least one shard");
        // Tiny models can have fewer parameters than the cluster has server
        // shards; clamp so a checkpoint never names more servers than
        // parameters (`StoreCheckpoint::validate` refuses that).
        let num_shards = num_shards.min(initial.len());
        ParameterStore {
            params: initial,
            num_shards,
            version: 0,
            pushes_per_worker: Vec::new(),
            last_pull_version: Vec::new(),
            momentum: 0.0,
            velocity: Vec::new(),
            snapshot: None,
            last_sync: Vec::new(),
            synced: 0,
            lazy_lr: 0.0,
            lazy_behind: false,
        }
    }

    /// Enables server-side Polyak momentum: each push applies
    /// `v ← β·v + g; w ← w − lr·v` (MXNet's `sgd` optimizer with
    /// `momentum = β`, the update rule the paper's ResNet/MF workloads
    /// train with).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `[0, 1)`.
    pub fn with_momentum(mut self, beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "momentum must be in [0, 1)");
        self.momentum = beta;
        if beta > 0.0 {
            self.velocity = vec![0.0; self.params.len()];
            self.last_sync = vec![0; self.params.len()];
        }
        self
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of server shards (at most [`num_params`](Self::num_params)).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Global version: total number of pushes applied so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current global parameters (server-side view, no copy). Takes `&mut`
    /// because pending lazy momentum decay is materialized first.
    pub fn params(&mut self) -> &[f32] {
        self.materialize();
        &self.params
    }

    /// Replays pending momentum decay steps so every coordinate is exact at
    /// the current version. A coordinate `delta` versions behind replays the
    /// same `v ← β·v; w ← w − lr·v` arithmetic the dense path would have
    /// run, so lazy and eager results are bit-identical. Work-conserving:
    /// each (coordinate, version) decay step is executed at most once
    /// across the store's lifetime, and zero-velocity coordinates fast-skip.
    fn materialize(&mut self) {
        if self.momentum == 0.0 || !self.lazy_behind {
            return;
        }
        let beta = self.momentum;
        let lr = self.lazy_lr;
        for (j, &sync) in self.last_sync.iter().enumerate() {
            let delta = self.version - sync.max(self.synced);
            if delta == 0 {
                continue;
            }
            let mut v = self.velocity[j];
            if v == 0.0 {
                continue;
            }
            let mut p = self.params[j];
            for _ in 0..delta {
                v *= beta;
                p -= lr * v;
            }
            self.velocity[j] = v;
            self.params[j] = p;
        }
        self.synced = self.version;
        self.lazy_behind = false;
    }

    fn ensure_worker(&mut self, worker: WorkerId) {
        let need = worker.index() + 1;
        if self.pushes_per_worker.len() < need {
            self.pushes_per_worker.resize(need, 0);
            self.last_pull_version.resize(need, 0);
        }
    }

    /// Applies a gradient push from `worker`: `w -= lr * grad`, applied
    /// atomically across all shards in arrival order. Returns the new
    /// global version.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the parameter count or `lr` is
    /// not finite.
    pub fn apply_push(&mut self, worker: WorkerId, grad: &[f32], lr: f32) -> u64 {
        self.apply_push_from(worker, grad.iter().copied(), lr)
    }

    /// [`apply_push`](Self::apply_push) from any exact-size source of the
    /// gradient's floats — a wire frame's little-endian bytes, say, so a
    /// push is applied from the bytes it arrived in. The one dense kernel:
    /// the same floats in the same order leave the same bits whatever
    /// they are read from, and the source is read once.
    ///
    /// # Panics
    ///
    /// As [`apply_push`](Self::apply_push).
    pub fn apply_push_from<G>(&mut self, worker: WorkerId, grad: G, lr: f32) -> u64
    where
        G: ExactSizeIterator<Item = f32>,
    {
        assert_eq!(grad.len(), self.params.len(), "gradient length mismatch");
        assert!(lr.is_finite(), "learning rate must be finite");
        self.ensure_worker(worker);
        self.snapshot = None;
        if self.momentum > 0.0 {
            // A dense push advances every coordinate, so pending lazy decay
            // must be settled first.
            self.materialize();
            let beta = self.momentum;
            for ((p, v), g) in self.params.iter_mut().zip(&mut self.velocity).zip(grad) {
                *v = beta * *v + g;
                *p -= lr * *v;
            }
            self.version += 1;
            self.synced = self.version;
        } else {
            for (p, g) in self.params.iter_mut().zip(grad) {
                *p -= lr * g;
            }
            self.version += 1;
        }
        self.pushes_per_worker[worker.index()] += 1;
        self.version
    }

    /// Applies a sparse gradient push from `worker` in O(nnz): only the
    /// gradient's touched coordinates are visited. Momentum decay for
    /// untouched coordinates is deferred via
    /// [`materialize`](Self::params) bookkeeping, so the result matches an
    /// equivalent dense push bit-for-bit. Returns the new global version.
    ///
    /// # Panics
    ///
    /// Panics if `grad.dim()` differs from the parameter count or `lr` is
    /// not finite.
    pub fn apply_push_sparse(&mut self, worker: WorkerId, grad: &SparseGrad, lr: f32) -> u64 {
        assert_eq!(grad.dim(), self.params.len(), "gradient length mismatch");
        assert!(lr.is_finite(), "learning rate must be finite");
        self.ensure_worker(worker);
        self.snapshot = None;
        if self.momentum > 0.0 {
            if lr != self.lazy_lr {
                // Pending decay steps were deferred under the old lr;
                // settle them before this push changes it.
                self.materialize();
                self.lazy_lr = lr;
            }
            let beta = self.momentum;
            let version = self.version;
            let params = &mut self.params;
            let velocity = &mut self.velocity;
            let last_sync = &mut self.last_sync;
            for (j, g) in grad.iter() {
                let mut v = velocity[j];
                let mut p = params[j];
                // Replay this coordinate's skipped decay steps first
                // (bit-identical to what eager dense pushes would have run).
                let delta = version - last_sync[j].max(self.synced);
                if delta != 0 && v != 0.0 {
                    for _ in 0..delta {
                        v *= beta;
                        p -= lr * v;
                    }
                }
                v = beta * v + g;
                velocity[j] = v;
                params[j] = p - lr * v;
                last_sync[j] = version + 1;
            }
            // Untouched coordinates are now one version behind.
            self.lazy_behind = true;
        } else {
            for (j, g) in grad.iter() {
                self.params[j] -= lr * g;
            }
        }
        self.version += 1;
        self.pushes_per_worker[worker.index()] += 1;
        self.version
    }

    /// Serves a pull from `worker`: snapshots the current parameters and
    /// records the version the worker now holds (the basis for staleness
    /// accounting).
    ///
    /// Pulls between two pushes are zero-copy: the snapshot buffer is built
    /// once per version and shared by reference with every puller.
    pub fn pull(&mut self, worker: WorkerId) -> ParamSnapshot {
        self.record_pull(worker);
        let params = match &self.snapshot {
            Some(shared) => Arc::clone(shared),
            None => {
                self.materialize();
                let shared: Arc<[f32]> = Arc::from(self.params.as_slice());
                self.snapshot = Some(Arc::clone(&shared));
                shared
            }
        };
        ParamSnapshot {
            params,
            version: self.version,
        }
    }

    /// The bookkeeping half of [`pull`](Self::pull), without the
    /// snapshot: records that `worker` now holds the current version and
    /// returns it. A caller that serves the parameters some other way — a
    /// shard encoding them straight from [`params`](Self::params) into a
    /// reply frame — leaves the same staleness accounting as a pull.
    pub fn record_pull(&mut self, worker: WorkerId) -> u64 {
        self.ensure_worker(worker);
        self.last_pull_version[worker.index()] = self.version;
        self.version
    }

    /// Captures a crash-consistent [`StoreCheckpoint`]: parameters,
    /// optimizer state, version and per-worker bookkeeping. Pending lazy
    /// momentum decay is settled first, so the capture is exact at the
    /// current version and restoring it resumes bit-identically.
    pub fn snapshot_for_checkpoint(&mut self) -> StoreCheckpoint {
        self.materialize();
        StoreCheckpoint {
            params: self.params.clone(),
            num_shards: self.num_shards,
            version: self.version,
            pushes_per_worker: self.pushes_per_worker.clone(),
            last_pull_version: self.last_pull_version.clone(),
            momentum: self.momentum,
            velocity: self.velocity.clone(),
        }
    }

    /// Rebuilds a store from a checkpoint, resuming exactly where
    /// [`snapshot_for_checkpoint`](Self::snapshot_for_checkpoint) captured
    /// it: every subsequent push, pull and staleness query behaves as if
    /// the original store had never gone away.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if the checkpoint violates a
    /// store invariant (possible only for hand-built or corrupted blobs;
    /// captures of live stores always restore).
    pub fn restore(checkpoint: StoreCheckpoint) -> Result<Self, CheckpointError> {
        checkpoint.validate()?;
        let StoreCheckpoint {
            params,
            num_shards,
            version,
            pushes_per_worker,
            last_pull_version,
            momentum,
            velocity,
        } = checkpoint;
        // The capture settled all lazy momentum state, so every coordinate
        // is synced at `version` (`synced`) and nothing is behind.
        let last_sync = if momentum > 0.0 {
            vec![0; params.len()]
        } else {
            Vec::new()
        };
        Ok(ParameterStore {
            params,
            num_shards,
            version,
            pushes_per_worker,
            last_pull_version,
            momentum,
            velocity,
            snapshot: None,
            last_sync,
            synced: version,
            lazy_lr: 0.0,
            lazy_behind: false,
        })
    }

    /// How many pushes `worker` has applied.
    pub fn pushes_by(&self, worker: WorkerId) -> u64 {
        self.push_counts().get(worker.index()).copied().unwrap_or(0)
    }

    /// [`pushes_by`](Self::pushes_by) for every worker index the store
    /// has seen; an index past the end has applied none.
    pub fn push_counts(&self) -> &[u64] {
        &self.pushes_per_worker
    }

    /// The staleness of `worker`'s replica: pushes applied globally since
    /// its last pull (the "missing updates" of paper §II-C).
    pub fn staleness_of(&self, worker: WorkerId) -> u64 {
        let pulled = self
            .last_pull_version
            .get(worker.index())
            .copied()
            .unwrap_or(0);
        self.version - pulled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> WorkerId {
        WorkerId::new(i)
    }

    #[test]
    fn push_applies_scaled_gradient() {
        let mut s = ParameterStore::new(vec![1.0, 2.0, 3.0], 2);
        s.apply_push(w(0), &[1.0, 0.0, -1.0], 0.5);
        assert_eq!(s.params(), &[0.5, 2.0, 3.5]);
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn pushes_compose_in_arrival_order() {
        let mut s = ParameterStore::new(vec![0.0], 1);
        s.apply_push(w(0), &[1.0], 1.0);
        s.apply_push(w(1), &[1.0], 0.5);
        assert_eq!(s.params(), &[-1.5]);
        assert_eq!(s.version(), 2);
        assert_eq!(s.pushes_by(w(0)), 1);
        assert_eq!(s.pushes_by(w(1)), 1);
    }

    #[test]
    fn pull_snapshots_are_isolated_from_later_pushes() {
        let mut s = ParameterStore::new(vec![0.0], 1);
        let snap = s.pull(w(0));
        s.apply_push(w(1), &[1.0], 1.0);
        assert_eq!(snap.params(), &[0.0]);
        assert_eq!(snap.version(), 0);
        assert_eq!(s.pull(w(1)).params(), &[-1.0]);
    }

    #[test]
    fn staleness_counts_pushes_since_last_pull() {
        let mut s = ParameterStore::new(vec![0.0], 1);
        s.pull(w(0));
        assert_eq!(s.staleness_of(w(0)), 0);
        s.apply_push(w(1), &[1.0], 1.0);
        s.apply_push(w(2), &[1.0], 1.0);
        assert_eq!(s.staleness_of(w(0)), 2);
        s.pull(w(0));
        assert_eq!(s.staleness_of(w(0)), 0);
    }

    #[test]
    fn staleness_of_never_pulled_worker_counts_all_pushes() {
        let mut s = ParameterStore::new(vec![0.0], 1);
        s.apply_push(w(0), &[1.0], 1.0);
        assert_eq!(s.staleness_of(w(5)), 1);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn mismatched_gradient_panics() {
        let mut s = ParameterStore::new(vec![0.0, 0.0], 1);
        s.apply_push(w(0), &[1.0], 1.0);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut s = ParameterStore::new(vec![0.0], 1).with_momentum(0.5);
        s.apply_push(w(0), &[1.0], 1.0);
        // v = 1.0, w = -1.0
        assert_eq!(s.params(), &[-1.0]);
        s.apply_push(w(0), &[1.0], 1.0);
        // v = 1.5, w = -2.5
        assert_eq!(s.params(), &[-2.5]);
    }

    #[test]
    fn zero_momentum_matches_plain_sgd() {
        let mut a = ParameterStore::new(vec![0.0], 1);
        let mut b = ParameterStore::new(vec![0.0], 1).with_momentum(0.0);
        a.apply_push(w(0), &[2.0], 0.5);
        b.apply_push(w(0), &[2.0], 0.5);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn invalid_momentum_panics() {
        let _ = ParameterStore::new(vec![0.0], 1).with_momentum(1.0);
    }

    #[test]
    fn pulls_between_pushes_share_one_allocation() {
        let mut s = ParameterStore::new(vec![1.0, 2.0], 1);
        let a = s.pull(w(0)).into_shared();
        let b = s.pull(w(1)).into_shared();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same-version pulls must share the buffer"
        );
        s.apply_push(w(0), &[1.0, 0.0], 0.1);
        let c = s.pull(w(0)).into_shared();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "a push must invalidate the cached snapshot"
        );
        // The old snapshot is unaffected by the push.
        assert_eq!(&a[..], &[1.0, 2.0]);
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

    #[test]
    fn sparse_push_touches_only_given_coordinates() {
        let mut s = ParameterStore::new(vec![1.0, 2.0, 3.0], 2);
        s.apply_push_sparse(w(0), &sparse(3, &[(0, 1.0), (2, -1.0)]), 0.5);
        assert_eq!(s.params(), &[0.5, 2.0, 3.5]);
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn sparse_push_matches_dense_push_plain_sgd() {
        let mut dense = ParameterStore::new(vec![0.5, -1.0, 2.0, 0.0], 2);
        let mut sparse_store = dense.clone();
        let g = sparse(4, &[(1, 0.25), (3, -0.5)]);
        dense.apply_push(w(0), &g.to_dense(), 0.3);
        sparse_store.apply_push_sparse(w(0), &g, 0.3);
        assert_eq!(dense.params(), sparse_store.params());
    }

    #[test]
    fn sparse_push_matches_dense_push_with_momentum() {
        let mut dense = ParameterStore::new(vec![0.0; 6], 2).with_momentum(0.9);
        let mut sp = dense.clone();
        let pushes: Vec<SparseGrad> = vec![
            sparse(6, &[(0, 1.0), (3, 2.0)]),
            sparse(6, &[(1, -1.0)]),
            sparse(6, &[(0, 0.5), (5, 1.5)]),
            sparse(6, &[(3, -0.25), (4, 4.0)]),
        ];
        for (i, g) in pushes.iter().enumerate() {
            dense.apply_push(w(i), &g.to_dense(), 0.05);
            sp.apply_push_sparse(w(i), g, 0.05);
        }
        // Exact equality: the lazy path replays the identical arithmetic.
        assert_eq!(dense.params(), sp.params());
    }

    #[test]
    fn lazy_momentum_decays_untouched_coordinates() {
        // Build up velocity on coordinate 0, then push only coordinate 1:
        // coordinate 0 must still drift by lr * beta * v.
        let mut s = ParameterStore::new(vec![0.0, 0.0], 1).with_momentum(0.5);
        s.apply_push_sparse(w(0), &sparse(2, &[(0, 1.0)]), 1.0);
        // v0 = 1, p0 = -1
        s.apply_push_sparse(w(0), &sparse(2, &[(1, 1.0)]), 1.0);
        // v0 = 0.5, p0 = -1.5 (after materialization)
        assert_eq!(s.params(), &[-1.5, -1.0]);
    }

    #[test]
    fn lazy_momentum_flushes_on_lr_change() {
        let mut dense = ParameterStore::new(vec![0.0; 4], 1).with_momentum(0.9);
        let mut sp = dense.clone();
        let g1 = sparse(4, &[(0, 1.0)]);
        let g2 = sparse(4, &[(2, 1.0)]);
        for (g, lr) in [(&g1, 0.5), (&g2, 0.5), (&g1, 0.05), (&g2, 0.05)] {
            dense.apply_push(w(0), &g.to_dense(), lr);
            sp.apply_push_sparse(w(0), g, lr);
        }
        assert_eq!(dense.params(), sp.params());
    }

    #[test]
    fn sparse_and_dense_pushes_interleave() {
        let mut dense = ParameterStore::new(vec![0.0; 4], 1).with_momentum(0.8);
        let mut sp = dense.clone();
        let g1 = sparse(4, &[(1, 1.0)]);
        let g2 = sparse(4, &[(3, -2.0)]);
        dense.apply_push(w(0), &g1.to_dense(), 0.1);
        sp.apply_push_sparse(w(0), &g1, 0.1);
        // A dense push in the middle forces a full flush.
        dense.apply_push(w(1), &[0.1, 0.2, 0.3, 0.4], 0.1);
        sp.apply_push(w(1), &[0.1, 0.2, 0.3, 0.4], 0.1);
        dense.apply_push(w(0), &g2.to_dense(), 0.1);
        sp.apply_push_sparse(w(0), &g2, 0.1);
        assert_eq!(dense.params(), sp.params());
        assert_eq!(dense.version(), sp.version());
    }

    #[test]
    fn dense_pushes_leave_last_sync_untouched() {
        let mut s = ParameterStore::new(vec![0.0; 5], 1).with_momentum(0.9);
        for i in 0..3 {
            s.apply_push(w(i), &[0.5; 5], 0.1);
            s.pull(w(i));
        }
        let mut restored = ParameterStore::restore(s.snapshot_for_checkpoint()).unwrap();
        restored.apply_push(w(0), &[0.5; 5], 0.1);
        for store in [&s, &restored] {
            assert!(store.last_sync.iter().all(|&v| v == 0));
            assert_eq!(store.synced, store.version());
        }
    }

    #[test]
    fn sparse_push_after_pull_keeps_snapshot_immutable() {
        let mut s = ParameterStore::new(vec![1.0, 1.0], 1).with_momentum(0.9);
        let snap = s.pull(w(0));
        s.apply_push_sparse(w(0), &sparse(2, &[(0, 1.0)]), 0.5);
        assert_eq!(snap.params(), &[1.0, 1.0]);
        assert_eq!(s.pull(w(0)).version(), 1);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn mismatched_sparse_gradient_panics() {
        let mut s = ParameterStore::new(vec![0.0, 0.0], 1);
        s.apply_push_sparse(w(0), &sparse(3, &[(0, 1.0)]), 1.0);
    }
}
