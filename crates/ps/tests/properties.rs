//! Property-based tests of the parameter-store semantics.

use proptest::prelude::*;
use specsync_ps::{ParameterStore, StoreCheckpoint, SEGMENT};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

/// A snapshot's fields with its floats as bits: equal exactly when two
/// snapshots are bit-identical, NaN payloads and signed zeros included.
fn snapshot_bits(ckpt: &StoreCheckpoint) -> Vec<Vec<u64>> {
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

/// Ordinary values mixed with every float class a value-level copy could
/// mangle: both zeros, subnormals, both infinities, quiet and signalling
/// NaNs with payloads, and arbitrary bit patterns.
fn awkward_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0f32..1.0,
        any::<u32>().prop_map(f32::from_bits),
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::from_bits(0x0000_0001)),
        Just(f32::from_bits(0x807f_ffff)),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::from_bits(0x7fc0_0001)),
        Just(f32::from_bits(0xffa5_5aa5)),
    ]
}

/// A store of more than one segment of floats: two full pieces of the
/// dense kernel and a tail of three.
const MULTI_SEGMENT_DIM: usize = 2 * SEGMENT / 4 + 3;

/// A model dimension: mostly small, one case in eight a store the dense
/// kernel updates a segment at a time.
fn dims(small: std::ops::Range<usize>) -> impl Strategy<Value = usize> {
    (0u8..8, small).prop_map(|(k, dim)| if k == 0 { MULTI_SEGMENT_DIM } else { dim })
}

/// The dense update written out, one coordinate after another:
/// `v ← β·v + g; w ← w − lr·v`, or `w ← w − lr·g` without momentum.
fn serial_dense(params: &mut [f32], velocity: &mut [f32], grad: &[f32], momentum: f32, lr: f32) {
    assert_eq!(params.len(), grad.len());
    if momentum > 0.0 {
        for j in 0..params.len() {
            velocity[j] = momentum * velocity[j] + grad[j];
            params[j] -= lr * velocity[j];
        }
    } else {
        for j in 0..params.len() {
            params[j] -= lr * grad[j];
        }
    }
}

/// `a` and `b` bit for bit, except that a NaN matches any NaN: which
/// payload an operation on two NaNs keeps is the hardware's choice.
fn same_bits(a: &[f32], b: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (j, (a, b)) in a.iter().zip(b).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "[{}] {:#010x} != {:#010x}",
            j,
            a.to_bits(),
            b.to_bits()
        );
    }
    Ok(())
}

proptest! {
    /// A sparse push is indistinguishable from a dense push of the same
    /// gradient — across random momentum, learning-rate changes
    /// (which flush pending lazy decay), empty gradients, and interleaved
    /// pulls. The lazy-momentum replay is designed to be bit-exact, so the
    /// comparison is exact equality, stronger than the 1e-6 the design
    /// requires.
    #[test]
    fn sparse_push_is_equivalent_to_dense_push(
        dim in 1usize..24,
        momentum in prop_oneof![Just(0.0f32), 0.2f32..0.95],
        pushes in proptest::collection::vec(
            (proptest::collection::vec((0usize..1024, -1.0f32..1.0), 0..6), 0usize..3),
            1..12,
        ),
    ) {
        let build = |init: Vec<f32>| ParameterStore::new(init, 2).with_momentum(momentum);
        let mut dense_store = build(vec![0.5; dim]);
        let mut sparse_store = build(vec![0.5; dim]);
        let mut grad = SparseGrad::new();
        let lrs = [0.5f32, 0.1, 0.05];
        for (k, (entries, lr_idx)) in pushes.iter().enumerate() {
            grad.reset(dim);
            for &(i, v) in entries {
                grad.add(i % dim, v);
            }
            grad.finish();
            let lr = lrs[*lr_idx];
            dense_store.apply_push(WorkerId::new(0), &grad.to_dense(), lr);
            sparse_store.apply_push_sparse(WorkerId::new(0), &grad, lr);
            if k % 3 == 0 {
                // Mid-stream pulls force snapshot rebuilds (and lazy
                // flushes) at arbitrary points in the push sequence.
                let d = dense_store.pull(WorkerId::new(1));
                let s = sparse_store.pull(WorkerId::new(1));
                prop_assert_eq!(d.params(), s.params());
                prop_assert_eq!(d.version(), s.version());
            }
        }
        prop_assert_eq!(dense_store.params(), sparse_store.params());
        prop_assert_eq!(dense_store.version(), sparse_store.version());
    }

    /// The lazy-momentum bookkeeping (per-coordinate versions that only
    /// sparse pushes write, raised store-wide by dense pushes and flushes)
    /// is invisible: a momentum store fed a random mix of dense and sparse
    /// pushes, learning-rate changes, pulls and one checkpoint → restore
    /// keeps its snapshot and params bit-identical to a reference
    /// store fed every gradient dense, and to the serial loop. On a
    /// multi-segment store the sparse pushes touch every piece, so a dense
    /// push settles lazy decay across all of them before it fans out.
    #[test]
    fn mixed_dense_and_sparse_history_matches_all_dense(
        dim in dims(1..24),
        momentum in 0.2f32..0.95,
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0usize..1024, -1.0f32..1.0), 0..6), 0usize..3),
            1..24,
        ),
        restore_at in 0usize..24,
    ) {
        let build = || ParameterStore::new(vec![0.5; dim], 1).with_momentum(momentum);
        let mut mixed = build();
        let mut reference = build();
        let (mut params, mut velocity) = (vec![0.5; dim], vec![0.0; dim]);
        let mut grad = SparseGrad::new();
        let lrs = [0.5f32, 0.1, 0.05];
        for (k, (kind, entries, lr_idx)) in ops.iter().enumerate() {
            if k == restore_at {
                let ckpt = mixed.snapshot_for_checkpoint();
                prop_assert_eq!(
                    snapshot_bits(&ckpt),
                    snapshot_bits(&reference.snapshot_for_checkpoint())
                );
                mixed = ParameterStore::restore(ckpt).unwrap();
            }
            grad.reset(dim);
            for &(i, v) in entries {
                grad.add(i * dim / 1024, v);
            }
            grad.finish();
            let lr = lrs[*lr_idx];
            let worker = WorkerId::new(k % 3);
            match kind {
                0 => mixed.apply_push(worker, &grad.to_dense(), lr),
                1 => mixed.apply_push_sparse(worker, &grad, lr),
                _ => {
                    let (m, r) = (mixed.pull(worker), reference.pull(worker));
                    prop_assert_eq!(m.params(), r.params());
                    continue;
                }
            };
            reference.apply_push(worker, &grad.to_dense(), lr);
            serial_dense(&mut params, &mut velocity, &grad.to_dense(), momentum, lr);
        }
        let ckpt = mixed.snapshot_for_checkpoint();
        prop_assert_eq!(
            snapshot_bits(&ckpt),
            snapshot_bits(&reference.snapshot_for_checkpoint())
        );
        same_bits(&ckpt.params, &params)?;
        same_bits(&ckpt.velocity, &velocity)?;
        prop_assert_eq!(mixed.params(), reference.params());
    }

    /// The one dense kernel: a push applied from the little-endian bytes a
    /// frame carries leaves the bits the same push applied from a float
    /// slice leaves, and the bits the serial loop leaves — plain and
    /// momentum SGD, on a store of one piece or of several updated in
    /// parallel, on gradients full of ±0, subnormals, ±∞ and NaNs. A NaN
    /// matches any NaN ([`same_bits`]).
    #[test]
    fn dense_kernel_is_bit_identical_from_either_source(
        dim in dims(1..40),
        momentum in prop_oneof![Just(0.0f32), Just(0.9f32)],
        pushes in proptest::collection::vec(
            proptest::collection::vec(awkward_f32(), 40),
            1..6,
        ),
    ) {
        let build = || ParameterStore::new(vec![0.5; dim], 1).with_momentum(momentum);
        let mut from_slice = build();
        let mut from_bytes = build();
        let (mut params, mut velocity) = (vec![0.5; dim], vec![0.0; dim]);
        for (k, grad) in pushes.iter().enumerate() {
            // Past 40 floats the values repeat, shifted per push.
            let grad: Vec<f32> = (0..dim).map(|j| grad[(j + k) % 40]).collect();
            let bytes: Vec<u8> = grad.iter().flat_map(|g| g.to_le_bytes()).collect();
            let a = from_slice.apply_push(WorkerId::new(0), &grad, 0.05);
            let b = from_bytes.apply_push_le(WorkerId::new(0), &bytes, 0.05);
            prop_assert_eq!(a, b);
            serial_dense(&mut params, &mut velocity, &grad, momentum, 0.05);
        }
        same_bits(from_slice.params(), from_bytes.params())?;
        same_bits(from_slice.params(), &params)?;
    }

    /// Version equals the number of applied pushes; per-worker counters sum
    /// to it.
    #[test]
    fn version_counts_pushes(pushes in proptest::collection::vec((0usize..5, -1.0f32..1.0), 0..50)) {
        let mut store = ParameterStore::new(vec![0.0; 4], 2);
        for &(w, g) in &pushes {
            store.apply_push(WorkerId::new(w), &[g, g, g, g], 0.1);
        }
        prop_assert_eq!(store.version(), pushes.len() as u64);
        let sum: u64 = (0..5).map(|w| store.pushes_by(WorkerId::new(w))).sum();
        prop_assert_eq!(sum, pushes.len() as u64);
    }

    /// Plain SGD pushes commute in their final sum (floating-point
    /// associativity aside, a tolerance check): the store applies
    /// w -= lr·Σg regardless of arrival order.
    #[test]
    fn sgd_updates_accumulate(grads in proptest::collection::vec(-1.0f32..1.0, 1..30)) {
        let mut store = ParameterStore::new(vec![0.0], 1);
        for &g in &grads {
            store.apply_push(WorkerId::new(0), &[g], 0.5);
        }
        let expected: f32 = -0.5 * grads.iter().sum::<f32>();
        prop_assert!((store.params()[0] - expected).abs() < 1e-3);
    }

    /// Snapshots are immutable: later pushes never alter an earlier pull.
    #[test]
    fn snapshots_are_isolated(pre in -1.0f32..1.0, post in -1.0f32..1.0) {
        let mut store = ParameterStore::new(vec![1.0, 2.0], 2);
        store.apply_push(WorkerId::new(0), &[pre, pre], 1.0);
        let snap = store.pull(WorkerId::new(1));
        let frozen = snap.params().to_vec();
        store.apply_push(WorkerId::new(0), &[post, post], 1.0);
        prop_assert_eq!(snap.params(), &frozen[..]);
    }

    /// Staleness is exactly the number of pushes since the last pull.
    #[test]
    fn staleness_is_exact(k in 0u64..20) {
        let mut store = ParameterStore::new(vec![0.0], 1);
        store.pull(WorkerId::new(0));
        for _ in 0..k {
            store.apply_push(WorkerId::new(1), &[0.1], 0.1);
        }
        prop_assert_eq!(store.staleness_of(WorkerId::new(0)), k);
    }

    /// Any requested server count is clamped into `[1, num_params]` (so a
    /// checkpoint never names more servers than parameters, which restore
    /// refuses), and the count survives a snapshot and restore.
    #[test]
    fn shard_count_clamps_to_params(n in 1usize..10_000, s in 1usize..64) {
        let mut store = ParameterStore::new(vec![0.0; n], s);
        prop_assert_eq!(store.num_shards(), s.min(n));
        let restored = ParameterStore::restore(store.snapshot_for_checkpoint()).unwrap();
        prop_assert_eq!(restored.num_shards(), s.min(n));
    }

    /// Snapshot → restore is the identity on every observable store
    /// behaviour, for arbitrary optimizer configurations and push
    /// histories. (The bytes a snapshot travels as are the frame codec's,
    /// tested there.)
    #[test]
    fn snapshot_restore_is_identity(
        dim in 1usize..16,
        shards in 1usize..4,
        momentum in prop_oneof![Just(0.0f32), 0.2f32..0.95],
        pushes in proptest::collection::vec((0usize..4, -1.0f32..1.0), 0..20),
        next in -1.0f32..1.0,
    ) {
        prop_assume!(shards <= dim);
        let mut store = ParameterStore::new(vec![0.25; dim], shards);
        if momentum > 0.0 {
            store = store.with_momentum(momentum);
        }
        for &(w, g) in &pushes {
            store.apply_push(WorkerId::new(w), &vec![g; dim], 0.1);
        }
        let ckpt = store.snapshot_for_checkpoint();
        let mut restored = ParameterStore::restore(ckpt.clone()).unwrap();
        prop_assert_eq!(restored.snapshot_for_checkpoint(), ckpt);
        // Observable equality now, and bit-identical behaviour after.
        prop_assert_eq!(restored.version(), store.version());
        store.apply_push(WorkerId::new(1), &vec![next; dim], 0.1);
        restored.apply_push(WorkerId::new(1), &vec![next; dim], 0.1);
        prop_assert_eq!(store.params(), restored.params());
        for w in 0..4 {
            prop_assert_eq!(store.pushes_by(WorkerId::new(w)), restored.pushes_by(WorkerId::new(w)));
            prop_assert_eq!(
                store.staleness_of(WorkerId::new(w)),
                restored.staleness_of(WorkerId::new(w))
            );
        }
    }
}
