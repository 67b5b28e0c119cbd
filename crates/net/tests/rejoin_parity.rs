//! Property: the wire-level rejoin protocol — snapshot transfer in
//! bounded chunks, journal-tail catch-up as `RelayPush` frames, then live
//! write-ahead relays as `RelayTag` + the worker's own frame bytes —
//! leaves the joining backup bit-identical to the primary, for any push
//! workload racing the join and any chunk size. This is the wire-path
//! extension of `promoted_backup_is_bit_identical_to_primary` in
//! `specsync-ps`: every frame crosses the codec, not just the store API.

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
        let mut primary = fresh_host(dim);
        for (i, op) in pre.iter().enumerate() {
            primary.handle(op_frame(op, dim, i)).expect("primary accepts pushes");
        }

        // --- Snapshot transfer: chunked checkpoint frames, reassembled.
        let (checkpoint, tail) = primary.replica_mut().rejoin_snapshot();
        let encoded = checkpoint.encode();
        let total = encoded.chunks(chunk_bytes).count() as u64;
        let mut streamed = Vec::new();
        for (index, data) in encoded.chunks(chunk_bytes).enumerate() {
            let frame = over_the_wire(&WireMessage::Failover(FailoverControl::SnapshotChunk {
                index: index as u64,
                total,
                data: data.to_vec(),
            }));
            let WireMessage::Failover(FailoverControl::SnapshotChunk { index: got, data, .. }) =
                frame
            else {
                panic!("chunk frame changed shape over the wire");
            };
            prop_assert_eq!(got, streamed.len() as u64 / chunk_bytes as u64);
            streamed.extend_from_slice(&data);
        }
        let restored = ParameterStore::restore(
            StoreCheckpoint::decode(&streamed).expect("streamed checkpoint decodes"),
        )
        .expect("streamed checkpoint restores");
        let mut joiner = fresh_host(dim);
        joiner.install_store(ReplicatedStore::from_store(restored, JOURNAL_CAP));

        // --- Journal-tail catch-up: RelayPush frames replayed in order.
        for entry in &tail {
            let frame = over_the_wire(&WireMessage::RelayPush {
                seq: entry.seq,
                worker: entry.worker,
                lr: entry.lr,
                payload: entry.payload.clone(),
            });
            let ack = joiner.handle(frame).expect("tail entries replay cleanly");
            let acked = matches!(ack, Some(WireMessage::PushAck { .. }));
            prop_assert!(acked, "a replayed tail entry must be acked");
        }
        prop_assert_eq!(
            joiner.replica().version(),
            primary.replica().version(),
            "catch-up must reach parity before live relays start"
        );

        // --- Live pushes racing the join: write-ahead relay (backup holds
        // the push before the primary applies it), with optional
        // at-least-once re-delivery that must not double-apply. Once
        // adopted, the joiner is sent a tag frame and then the bytes the
        // worker sent, not a re-encoding: it decodes those very bytes.
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
            let relay = WireMessage::RelayPush { seq, worker, lr, payload };
            joiner.handle(relay.clone()).expect("joiner applies the relay");
            if redeliver {
                let before = joiner.replica().version();
                joiner.handle(relay).expect("re-delivery is acked");
                prop_assert_eq!(
                    joiner.replica().version(),
                    before,
                    "a re-delivered relay must not re-apply"
                );
            }
            primary.handle(push).expect("primary applies after the relay");
        }

        prop_assert_eq!(joiner.replica().version(), primary.replica().version());
        let want: Vec<u32> = primary
            .replica_mut()
            .params()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let got: Vec<u32> = joiner
            .replica_mut()
            .params()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        prop_assert_eq!(got, want, "the rejoined backup must be bit-identical");
    }
}
