//! Property-based tests of the parameter-store semantics.

use proptest::prelude::*;
use specsync_ps::{CheckpointError, ParameterStore, StoreCheckpoint};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

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

proptest! {
    /// A sparse push is indistinguishable from a dense push of the same
    /// gradient — across random momentum, clipping, learning-rate changes
    /// (which flush pending lazy decay), empty gradients, and interleaved
    /// pulls. The lazy-momentum replay is designed to be bit-exact, so the
    /// comparison is exact equality, stronger than the 1e-6 the design
    /// requires.
    #[test]
    fn sparse_push_is_equivalent_to_dense_push(
        dim in 1usize..24,
        momentum in prop_oneof![Just(0.0f32), 0.2f32..0.95],
        clip in prop_oneof![Just(None), (0.1f32..5.0).prop_map(Some)],
        pushes in proptest::collection::vec(
            (proptest::collection::vec((0usize..1024, -1.0f32..1.0), 0..6), 0usize..3),
            1..12,
        ),
    ) {
        let build = |init: Vec<f32>| {
            let mut s = ParameterStore::new(init, 2);
            if momentum > 0.0 {
                s = s.with_momentum(momentum);
            }
            if let Some(c) = clip {
                s = s.with_grad_clip(c);
            }
            s
        };
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
    /// keeps its checkpoint bytes and params bit-identical to a reference
    /// store fed every gradient dense.
    #[test]
    fn mixed_dense_and_sparse_history_matches_all_dense(
        dim in 1usize..24,
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
        let mut grad = SparseGrad::new();
        let lrs = [0.5f32, 0.1, 0.05];
        for (k, (kind, entries, lr_idx)) in ops.iter().enumerate() {
            if k == restore_at {
                let bytes = mixed.snapshot_for_checkpoint().encode();
                prop_assert_eq!(&bytes, &reference.snapshot_for_checkpoint().encode());
                mixed = ParameterStore::restore(StoreCheckpoint::decode(&bytes).unwrap()).unwrap();
            }
            grad.reset(dim);
            for &(i, v) in entries {
                grad.add(i % dim, v);
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
        }
        prop_assert_eq!(
            mixed.snapshot_for_checkpoint().encode(),
            reference.snapshot_for_checkpoint().encode()
        );
        prop_assert_eq!(mixed.params(), reference.params());
    }

    /// The one dense kernel: a push applied from the little-endian bytes a
    /// frame carries leaves the bits the same push applied from a float
    /// slice leaves — plain and momentum SGD, with and without clipping,
    /// on gradients full of ±0, subnormals, ±∞ and NaNs. Which NaN payload
    /// an operation on two NaNs keeps is the hardware's choice, so a NaN
    /// matches any NaN; every other result matches bit for bit.
    #[test]
    fn dense_kernel_is_bit_identical_from_either_source(
        dim in 1usize..40,
        momentum in prop_oneof![Just(0.0f32), Just(0.9f32)],
        clip in prop_oneof![Just(None), Just(Some(1.0f32))],
        pushes in proptest::collection::vec(
            proptest::collection::vec(awkward_f32(), 40),
            1..6,
        ),
    ) {
        let build = || {
            let mut s = ParameterStore::new(vec![0.5; dim], 1);
            if momentum > 0.0 {
                s = s.with_momentum(momentum);
            }
            if let Some(c) = clip {
                s = s.with_grad_clip(c);
            }
            s
        };
        let mut from_slice = build();
        let mut from_bytes = build();
        for grad in &pushes {
            let grad = &grad[..dim];
            let bytes: Vec<u8> = grad.iter().flat_map(|g| g.to_le_bytes()).collect();
            let wire = bytes.as_chunks::<4>().0.iter().map(|b| f32::from_le_bytes(*b));
            let a = from_slice.apply_push(WorkerId::new(0), grad, 0.05);
            let b = from_bytes.apply_push_from(WorkerId::new(0), wire, 0.05);
            prop_assert_eq!(a, b);
        }
        for (a, b) in from_slice.params().iter().zip(from_bytes.params()) {
            prop_assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{:#010x} != {:#010x}", a.to_bits(), b.to_bits()
            );
        }
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

    /// Clipping never increases the applied step and preserves direction.
    #[test]
    fn clipping_shrinks_but_preserves_direction(gx in -10.0f32..10.0, gy in -10.0f32..10.0) {
        prop_assume!(gx.abs() > 1e-3 || gy.abs() > 1e-3);
        let mut clipped = ParameterStore::new(vec![0.0, 0.0], 1).with_grad_clip(0.5);
        let mut plain = ParameterStore::new(vec![0.0, 0.0], 1);
        clipped.apply_push(WorkerId::new(0), &[gx, gy], 1.0);
        plain.apply_push(WorkerId::new(0), &[gx, gy], 1.0);
        let cn = (clipped.params()[0].powi(2) + clipped.params()[1].powi(2)).sqrt();
        let pn = (plain.params()[0].powi(2) + plain.params()[1].powi(2)).sqrt();
        prop_assert!(cn <= pn + 1e-6);
        prop_assert!(cn <= 0.5 + 1e-4, "clipped step norm {cn} exceeds clip");
        // Same direction: cross product ~ 0 and dot >= 0.
        let cross = clipped.params()[0] * plain.params()[1] - clipped.params()[1] * plain.params()[0];
        prop_assert!(cross.abs() < 1e-3);
    }

    /// Any requested server count is clamped into `[1, num_params]` (so a
    /// checkpoint never names more servers than parameters, which restore
    /// refuses), and the count survives a checkpoint round trip.
    #[test]
    fn shard_count_clamps_to_params(n in 1usize..10_000, s in 1usize..64) {
        let mut store = ParameterStore::new(vec![0.0; n], s);
        prop_assert_eq!(store.num_shards(), s.min(n));
        let bytes = store.snapshot_for_checkpoint().encode();
        let restored = ParameterStore::restore(StoreCheckpoint::decode(&bytes).unwrap()).unwrap();
        prop_assert_eq!(restored.num_shards(), s.min(n));
    }

    /// Checkpoint codec round trip: snapshot → bytes → restore is the
    /// identity on every observable store behaviour, for arbitrary
    /// optimizer configurations and push histories.
    #[test]
    fn checkpoint_round_trip_is_identity(
        dim in 1usize..16,
        shards in 1usize..4,
        momentum in prop_oneof![Just(0.0f32), 0.2f32..0.95],
        clip in prop_oneof![Just(None), (0.1f32..5.0).prop_map(Some)],
        pushes in proptest::collection::vec((0usize..4, -1.0f32..1.0), 0..20),
        next in -1.0f32..1.0,
    ) {
        prop_assume!(shards <= dim);
        let mut store = ParameterStore::new(vec![0.25; dim], shards);
        if momentum > 0.0 {
            store = store.with_momentum(momentum);
        }
        if let Some(c) = clip {
            store = store.with_grad_clip(c);
        }
        for &(w, g) in &pushes {
            store.apply_push(WorkerId::new(w), &vec![g; dim], 0.1);
        }
        let ckpt = store.snapshot_for_checkpoint();
        let decoded = StoreCheckpoint::decode(&ckpt.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&ckpt));
        let mut restored = ParameterStore::restore(decoded.unwrap()).unwrap();
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

    /// Corrupting any single byte of an encoded checkpoint yields a typed
    /// error (or, for bits the codec never reads back into state, the
    /// original checkpoint) — never a panic, never silently wrong state.
    #[test]
    fn corrupted_checkpoints_are_typed_errors(
        dim in 1usize..8,
        pushes in proptest::collection::vec(-1.0f32..1.0, 0..8),
        pos_seed in 0usize..4096,
        flip in 1u16..256,
    ) {
        let flip = flip as u8;
        let mut store = ParameterStore::new(vec![0.5; dim], 1).with_momentum(0.9);
        for &g in &pushes {
            store.apply_push(WorkerId::new(0), &vec![g; dim], 0.1);
        }
        let ckpt = store.snapshot_for_checkpoint();
        let bytes = ckpt.encode();
        let mut bad = bytes.clone();
        let pos = pos_seed % bad.len();
        bad[pos] ^= flip;
        match StoreCheckpoint::decode(&bad) {
            Ok(decoded) => prop_assert_eq!(decoded, ckpt),
            Err(
                CheckpointError::BadMagic
                | CheckpointError::UnsupportedFormat(_)
                | CheckpointError::Truncated
                | CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::Malformed(_),
            ) => {}
        }
    }
}
