//! Property: the wire-level rejoin — a checkpoint of the primary's
//! *serving* store streamed in bounded chunks, the joiner's `BackupReady`
//! at the checkpoint's version, then live write-ahead relays as a
//! `RelayTag` plus the worker's own frame bytes — leaves the joining
//! backup bit-identical to the primary, for any push workload racing the
//! join and any chunk size. Capturing the serving store must not move the primary
//! either: an untouched twin stays bit-identical to both. Every frame
//! crosses the codec, not just the store API.

use proptest::prelude::*;
use specsync_net::{decode_frame, encode_frame, FailoverControl, ShardHost, WireMessage};
use specsync_ps::{ParameterStore, PushPayload, ReplicatedStore, StoreCheckpoint};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

const WORKERS: usize = 3;
const JOURNAL_CAP: usize = 8;

/// One push in the generated workload: which worker, dense or sparse,
/// and the gradient magnitude.
#[derive(Debug, Clone)]
struct Op {
    worker: usize,
    sparse: bool,
    value: f32,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0..WORKERS, any::<bool>(), -4.0f32..4.0).prop_map(|(worker, sparse, value)| Op {
        worker,
        sparse,
        value,
    })
}

fn op_frame(op: &Op, dim: usize, index: usize) -> WireMessage {
    let payload = if op.sparse {
        let mut g = SparseGrad::new();
        g.reset(dim);
        g.add(index % dim, op.value);
        g.add((index + 1) % dim, op.value * 0.5);
        g.finish();
        PushPayload::Sparse(g)
    } else {
        PushPayload::Dense(vec![op.value; dim])
    };
    WireMessage::Push {
        worker: WorkerId::new(op.worker),
        payload,
    }
}

/// Round-trips a frame through the real codec, as the socket would.
fn over_the_wire(msg: &WireMessage) -> WireMessage {
    let bytes = encode_frame(msg).expect("rejoin frames fit the payload limit");
    decode_frame(&bytes).expect("own encoding must decode")
}

fn fresh_host(dim: usize) -> ShardHost {
    let store = ParameterStore::new(vec![0.0; dim], WORKERS).with_momentum(0.9);
    ShardHost::new(ReplicatedStore::from_store(store, JOURNAL_CAP))
}

fn bits(host: &mut ShardHost) -> Vec<u32> {
    let params = host.replica_mut().params();
    params.iter().map(|p| p.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rejoined_backup_is_bit_identical_to_primary(
        dim in 2usize..10,
        pre in proptest::collection::vec(arb_op(), 0..24),
        post in proptest::collection::vec(arb_op(), 0..12),
        chunk_bytes in 1usize..96,
        redeliver in any::<bool>(),
    ) {
        let (mut primary, mut twin) = (fresh_host(dim), fresh_host(dim));
        for (i, op) in pre.iter().enumerate() {
            primary.handle(op_frame(op, dim, i)).expect("primary accepts pushes");
            twin.handle(op_frame(op, dim, i)).expect("twin accepts pushes");
        }

        // --- Phase 1: the serving store's checkpoint, in chunks.
        let checkpoint = primary.replica_mut().serving_store_mut().snapshot_for_checkpoint();
        let encoded = checkpoint.encode();
        let total = encoded.chunks(chunk_bytes).count() as u64;
        let mut streamed = Vec::new();
        for (next, data) in encoded.chunks(chunk_bytes).enumerate() {
            let frame = over_the_wire(&WireMessage::Failover(FailoverControl::SnapshotChunk {
                index: next as u64,
                total,
                data: data.to_vec(),
            }));
            let WireMessage::Failover(FailoverControl::SnapshotChunk { index, total: of, data }) =
                frame
            else {
                panic!("chunk frame changed shape over the wire");
            };
            prop_assert_eq!((index, of), (next as u64, total), "the joiner's sequence rule");
            streamed.extend_from_slice(&data);
        }
        let restored = ParameterStore::restore(
            StoreCheckpoint::decode(&streamed).expect("streamed checkpoint decodes"),
        )
        .expect("streamed checkpoint restores");
        let mut joiner = fresh_host(dim);
        joiner.install_store(ReplicatedStore::from_store(restored, JOURNAL_CAP));

        // --- Phase 2: the joiner confirms; the primary's adoption rule.
        let ready = over_the_wire(&WireMessage::Failover(FailoverControl::BackupReady {
            server: 2,
            version: joiner.replica().version(),
        }));
        let WireMessage::Failover(FailoverControl::BackupReady { version, .. }) = ready else {
            panic!("BackupReady changed shape over the wire");
        };
        prop_assert_eq!(version, checkpoint.version(), "parity before live relays start");
        prop_assert_eq!(version, primary.replica().version());

        // --- Live pushes that raced the join queued behind it: each is a
        // write-ahead relay (the backup holds the push before the primary
        // applies it), sent as a tag frame plus the bytes the worker sent.
        // With `redeliver`, every relay so far arrives again, and the
        // backup must ack each one without re-applying it.
        let mut relays = Vec::new();
        for (i, op) in post.iter().enumerate() {
            let sent = encode_frame(&op_frame(op, dim, pre.len() + i))
                .expect("pushes fit the payload limit");
            let push = decode_frame(&sent).expect("the primary receives the push");
            let (seq, lr) = primary.relay_tag();
            let tag = over_the_wire(&WireMessage::RelayTag { seq, lr });
            let forwarded = decode_frame(&sent).expect("the joiner receives the same bytes");
            let (
                WireMessage::RelayTag { seq, lr },
                WireMessage::Push { worker, payload },
            ) = (tag, forwarded)
            else {
                panic!("a relay is a tag and a push");
            };
            relays.push(WireMessage::RelayPush { seq, worker, lr, payload });
            joiner.handle(relays[i].clone()).expect("joiner applies the relay");
            if redeliver {
                let before = bits(&mut joiner);
                for relay in &relays {
                    let ack = joiner.handle(relay.clone()).expect("re-delivery is acked");
                    let acked = matches!(ack, Some(WireMessage::PushAck { .. }));
                    prop_assert!(acked, "a re-delivered relay must be acked");
                }
                prop_assert_eq!(bits(&mut joiner), before, "a re-delivered relay re-applied");
            }
            twin.handle(push.clone()).expect("twin applies");
            primary.handle(push).expect("primary applies after the relay");
        }

        let want = bits(&mut twin);
        prop_assert_eq!(primary.replica().version(), twin.replica().version());
        prop_assert_eq!(joiner.replica().version(), twin.replica().version());
        prop_assert_eq!(bits(&mut primary), want.clone(), "the capture moved the primary");
        prop_assert_eq!(bits(&mut joiner), want, "the rejoined backup must be bit-identical");
    }
}
