//! Concurrency checking of the parameter-server hot path.
//!
//! The shard server shares a [`ParameterStore`] across threads behind
//! `Arc<Mutex<_>>` — the store itself is `&mut self`, so every cross-thread
//! schedule serializes into *some* ordering of its API calls. That gives
//! two complementary checks:
//!
//! 1. **`loom::model` tests** replay the runtime's exact embedding (store
//!    behind a mutex, racing pusher/puller threads) under many schedules.
//!    The vendored loom is a stress runner; swapping in upstream loom makes
//!    the same tests exhaustive.
//! 2. **Exhaustive interleaving enumeration** at API-call granularity:
//!    because calls serialize at the mutex, enumerating every merge of the
//!    per-worker call sequences covers *all* observable schedules by
//!    construction — the coverage loom would prove, without a model
//!    checker. Each schedule is verified against an eagerly-updated shadow
//!    model, so the lazy-momentum sparse path is checked bit-for-bit
//!    against dense semantics in every ordering.

use std::sync::{Arc, Mutex};

use specsync_ps::ParameterStore;
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

fn w(i: usize) -> WorkerId {
    WorkerId::new(i)
}

// ---------------------------------------------------------------------------
// loom model tests: the runtime's Arc<Mutex<ParameterStore>> embedding.
// ---------------------------------------------------------------------------

#[test]
fn pulled_snapshot_is_immune_to_concurrent_pushes() {
    loom::model(|| {
        let store = Arc::new(Mutex::new(ParameterStore::new(vec![1.0, 2.0], 1)));
        let snap = store.lock().expect("lock").pull(w(0));
        assert_eq!(snap.version(), 0);

        let pusher = {
            let store = Arc::clone(&store);
            loom::thread::spawn(move || {
                store
                    .lock()
                    .expect("lock")
                    .apply_push(w(1), &[1.0, 1.0], 0.5);
            })
        };
        // Read the shared buffer while the push races with us.
        assert_eq!(snap.params(), &[1.0, 2.0]);
        pusher.join().expect("pusher thread");
        // The push must build new state, never mutate a handed-out
        // snapshot in place.
        assert_eq!(snap.params(), &[1.0, 2.0]);

        let fresh = store.lock().expect("lock").pull(w(0));
        assert_eq!(fresh.version(), 1);
        assert_eq!(fresh.params(), &[0.5, 1.5]);
    });
}

#[test]
fn snapshot_version_matches_contents_under_racing_pushes() {
    loom::model(|| {
        let store = Arc::new(Mutex::new(ParameterStore::new(vec![1.0], 1)));
        let pushers: Vec<_> = (0..2)
            .map(|i| {
                let store = Arc::clone(&store);
                loom::thread::spawn(move || {
                    store.lock().expect("lock").apply_push(w(i), &[1.0], 0.25);
                })
            })
            .collect();

        // Whatever prefix of the pushes we observe, the snapshot's contents
        // must be exactly the value implied by its version: both pushes
        // subtract the same 0.25.
        let snap = store.lock().expect("lock").pull(w(2));
        assert!(snap.version() <= 2);
        let expected = 1.0 - 0.25 * snap.version() as f32;
        assert_eq!(snap.params(), &[expected]);

        for p in pushers {
            p.join().expect("pusher thread");
        }
        let settled = store.lock().expect("lock").pull(w(2));
        assert_eq!(settled.version(), 2);
        assert_eq!(settled.params(), &[0.5]);
    });
}

#[test]
fn concurrent_pulls_share_one_snapshot_allocation() {
    loom::model(|| {
        let store = Arc::new(Mutex::new(ParameterStore::new(vec![3.0, 4.0], 2)));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let store = Arc::clone(&store);
                loom::thread::spawn(move || store.lock().expect("lock").pull(w(i)).shared())
            })
            .collect();
        let mine = store.lock().expect("lock").pull(w(2)).shared();
        for h in handles {
            let theirs = h.join().expect("puller thread");
            // No push intervened, so every pull of version 0 must hand out
            // the same cached allocation (the zero-copy contract).
            assert!(Arc::ptr_eq(&mine, &theirs));
        }
    });
}

// ---------------------------------------------------------------------------
// Exhaustive interleaving enumeration.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Dense push of `grad` scaled by the op's learning rate.
    DensePush { grad: [f32; 3], lr: f32 },
    /// Sparse push touching one coordinate (exercises lazy momentum).
    SparsePush { index: usize, value: f32, lr: f32 },
    /// Pull and record the snapshot for invariant checking.
    Pull,
}

/// Every merge of `a` and `b` that preserves each sequence's own order —
/// i.e. every schedule two mutex-serialized workers can produce.
fn interleavings(a: &[Op], b: &[Op]) -> Vec<Vec<(usize, Op)>> {
    fn go(a: &[Op], b: &[Op], prefix: &mut Vec<(usize, Op)>, out: &mut Vec<Vec<(usize, Op)>>) {
        match (a.first(), b.first()) {
            (None, None) => out.push(prefix.clone()),
            (first_a, first_b) => {
                if let Some(&op) = first_a {
                    prefix.push((0, op));
                    go(&a[1..], b, prefix, out);
                    prefix.pop();
                }
                if let Some(&op) = first_b {
                    prefix.push((1, op));
                    go(a, &b[1..], prefix, out);
                    prefix.pop();
                }
            }
        }
    }
    let mut out = Vec::new();
    go(a, b, &mut Vec::new(), &mut out);
    out
}

/// Eager shadow model: plain SGD-with-momentum replay where every push is
/// applied densely and immediately. The store's lazy sparse path promises
/// bit-identical results to this.
struct ShadowModel {
    params: Vec<f32>,
    velocity: Vec<f32>,
    beta: f32,
}

impl ShadowModel {
    fn new(initial: &[f32], beta: f32) -> Self {
        ShadowModel {
            velocity: vec![0.0; initial.len()],
            params: initial.to_vec(),
            beta,
        }
    }

    fn push_dense(&mut self, grad: &[f32], lr: f32) {
        for ((p, v), g) in self.params.iter_mut().zip(&mut self.velocity).zip(grad) {
            *v = self.beta * *v + g;
            *p -= lr * *v;
        }
    }
}

fn sparse(index: usize, value: f32, dim: usize) -> SparseGrad {
    let mut g = SparseGrad::new();
    g.reset(dim);
    g.add(index, value);
    g.finish();
    g
}

#[test]
fn every_interleaving_of_two_workers_preserves_store_invariants() {
    const DIM: usize = 3;
    const BETA: f32 = 0.9;
    let initial = [1.0f32, 2.0, -1.0];

    // Worker 0 mixes dense and sparse pushes; worker 1 pushes sparsely at a
    // different coordinate and with a different lr, forcing the lazy
    // momentum path through its materialize-on-lr-change branch.
    let worker0 = [
        Op::SparsePush {
            index: 0,
            value: 0.5,
            lr: 0.1,
        },
        Op::Pull,
        Op::DensePush {
            grad: [0.1, -0.2, 0.3],
            lr: 0.1,
        },
        Op::Pull,
    ];
    let worker1 = [
        Op::SparsePush {
            index: 2,
            value: -1.0,
            lr: 0.2,
        },
        Op::Pull,
        Op::SparsePush {
            index: 1,
            value: 0.25,
            lr: 0.2,
        },
        Op::Pull,
    ];

    let schedules = interleavings(&worker0, &worker1);
    // C(8, 4) merges of two 4-op sequences.
    assert_eq!(schedules.len(), 70);

    for schedule in schedules {
        let mut store = ParameterStore::new(initial.to_vec(), 2).with_momentum(BETA);
        let mut shadow = ShadowModel::new(&initial, BETA);
        let mut pushes_so_far = 0u64;
        // Snapshots captured along the way, with the contents they held at
        // capture time: handed-out buffers must never change afterwards.
        let mut captured = Vec::new();

        for (who, op) in &schedule {
            match *op {
                Op::DensePush { grad, lr } => {
                    let version = store.apply_push(w(*who), &grad, lr);
                    pushes_so_far += 1;
                    assert_eq!(version, pushes_so_far);
                    shadow.push_dense(&grad, lr);
                }
                Op::SparsePush { index, value, lr } => {
                    let g = sparse(index, value, DIM);
                    let version = store.apply_push_sparse(w(*who), &g, lr);
                    pushes_so_far += 1;
                    assert_eq!(version, pushes_so_far);
                    shadow.push_dense(&g.to_dense(), lr);
                }
                Op::Pull => {
                    let snap = store.pull(w(*who));
                    // Version counts exactly the pushes serialized before
                    // this pull.
                    assert_eq!(snap.version(), pushes_so_far);
                    // The lazy sparse/momentum path must be bit-identical
                    // to the eager dense replay, in every ordering.
                    for (a, b) in snap.params().iter().zip(&shadow.params) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "lazy path diverged from dense semantics"
                        );
                    }
                    // Staleness resets at the moment of a pull.
                    assert_eq!(store.staleness_of(w(*who)), 0);
                    captured.push((snap.shared(), shadow.params.clone()));
                }
            }
        }

        // Immutability: no handed-out snapshot changed after later ops.
        for (buffer, at_capture) in &captured {
            assert_eq!(&buffer[..], &at_capture[..], "snapshot mutated in place");
        }
        // Zero-copy within a version, invalidation across versions:
        // consecutive captures share an allocation iff no push intervened,
        // which here means equal versions of adjacent pulls.
        for pair in captured.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.1 == b.1 {
                assert!(
                    Arc::ptr_eq(&a.0, &b.0),
                    "same-version pulls must share the cached snapshot"
                );
            } else {
                assert!(
                    !Arc::ptr_eq(&a.0, &b.0),
                    "a push must invalidate the snapshot cache"
                );
            }
        }
    }
}

#[test]
fn interleaving_enumerator_is_order_preserving_and_complete() {
    let a = [
        Op::Pull,
        Op::DensePush {
            grad: [0.0; 3],
            lr: 0.1,
        },
    ];
    let b = [Op::Pull];
    let all = interleavings(&a, &b);
    // C(3, 1) distinct merges.
    assert_eq!(all.len(), 3);
    for schedule in &all {
        let a_positions: Vec<usize> = schedule
            .iter()
            .enumerate()
            .filter(|(_, (who, _))| *who == 0)
            .map(|(i, _)| i)
            .collect();
        assert!(a_positions.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(schedule.len(), 3);
    }
}
