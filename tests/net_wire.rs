//! Property-based tests for the `specsync-net` frame codec: every
//! [`WireMessage`] variant round-trips bit-exactly, every single-byte
//! corruption of a frame is rejected, a stream cut mid-frame is a
//! truncation error rather than a bogus message or a silent close, and
//! the in-place stream reader and the owned decoder agree on every frame
//! and every corruption.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use proptest::prelude::*;
use specsync::net::{
    decode_frame, encode_frame, read_frame, read_frame_into, FrameError, FrameReadError,
    ReadOutcome, RELAY_TAG_FRAME_LEN,
};
use specsync::net::{FailoverControl, WireMessage};
use specsync::ps::{PushPayload, StoreCheckpoint};
use specsync::simnet::WorkerId;
use specsync::tensor::SparseGrad;

fn arb_worker() -> impl Strategy<Value = WorkerId> {
    (0usize..10_000).prop_map(WorkerId::new)
}

/// Arbitrary f32 bit patterns (including NaNs and infinities): the codec
/// promises bit-exact float transport, so the strategy must not shy away
/// from the weird quadrants of the space.
fn arb_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn arb_params() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(arb_f32(), 0..48)
}

/// Dense payload lengths on both sides of every chunk width a bulk slice
/// codec could be built around, plus one past a kilobyte boundary.
const BOUNDARY_LENS: [usize; 9] = [0, 1, 3, 4, 5, 31, 32, 33, 1025];

fn arb_boundary_params() -> impl Strategy<Value = Vec<f32>> {
    (
        0..BOUNDARY_LENS.len(),
        proptest::collection::vec(arb_f32(), 1025),
    )
        .prop_map(|(i, mut values)| {
            values.truncate(BOUNDARY_LENS[i]);
            values
        })
}

/// A valid sparse gradient: raw (index, value) pairs folded mod `dim`
/// into sorted unique entries, which is the shape `SparseGrad` encodes.
fn arb_sparse() -> impl Strategy<Value = SparseGrad> {
    (
        1usize..64,
        proptest::collection::vec((0usize..64, arb_f32()), 0..16),
    )
        .prop_map(|(dim, raw)| {
            let entries: BTreeMap<usize, f32> =
                raw.into_iter().map(|(i, v)| (i % dim, v)).collect();
            let mut grad = SparseGrad::new();
            grad.reset(dim);
            for (index, value) in entries {
                grad.add(index, value);
            }
            grad.finish();
            grad
        })
}

fn arb_addr() -> impl Strategy<Value = String> {
    (0u32..65_536).prop_map(|port| format!("127.0.0.1:{port}"))
}

fn arb_failover() -> impl Strategy<Value = FailoverControl> {
    prop_oneof![
        any::<u64>().prop_map(|server| FailoverControl::Promote { server }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(server, version, replayed)| {
            FailoverControl::Promoted {
                server,
                version,
                replayed,
            }
        }),
        (any::<u64>(), any::<bool>(), arb_addr()).prop_map(|(server, backup, addr)| {
            FailoverControl::Register {
                server,
                backup,
                addr,
            }
        }),
        Just(FailoverControl::QueryPrimary),
        (arb_addr(), any::<u64>())
            .prop_map(|(addr, epoch)| FailoverControl::Primary { addr, epoch }),
        (any::<u64>(), arb_addr())
            .prop_map(|(server, addr)| FailoverControl::JoinAsBackup { server, addr }),
        // Any snapshot, NaNs and impossible stores included: the codec
        // carries it as sent, and `ParameterStore::restore` validates it.
        (
            (any::<u64>(), any::<u64>(), arb_f32()),
            (arb_params(), arb_params()),
            (
                proptest::collection::vec(any::<u64>(), 0..8),
                proptest::collection::vec(any::<u64>(), 0..8)
            ),
        )
            .prop_map(
                |(
                    (num_shards, version, momentum),
                    (params, velocity),
                    (pushes_per_worker, last_pull_version),
                )| {
                    FailoverControl::Snapshot(StoreCheckpoint {
                        params,
                        num_shards: num_shards as usize,
                        version,
                        pushes_per_worker,
                        last_pull_version,
                        momentum,
                        velocity,
                    })
                }
            ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(server, version)| FailoverControl::BackupReady { server, version }),
    ]
}

/// Every `WireMessage` variant (and every `FailoverControl` sub-variant)
/// is reachable from this strategy.
fn arb_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        arb_worker().prop_map(|worker| WireMessage::Pull { worker }),
        (any::<u64>(), arb_params()).prop_map(|(version, params)| WireMessage::PullReply {
            version,
            params: Arc::from(params.as_slice()),
        }),
        (arb_worker(), arb_params()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Dense(grad),
        }),
        (arb_worker(), arb_sparse()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Sparse(grad),
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(version, pushes_by_worker)| {
            WireMessage::PushAck {
                version,
                pushes_by_worker,
            }
        }),
        (arb_worker(), any::<u64>())
            .prop_map(|(worker, pushes)| WireMessage::Notify { worker, pushes }),
        arb_worker().prop_map(|worker| WireMessage::Abort { worker }),
        arb_worker().prop_map(|worker| WireMessage::Heartbeat { worker }),
        arb_failover().prop_map(WireMessage::Failover),
        (any::<u64>(), arb_worker(), arb_f32(), arb_params()).prop_map(
            |(seq, worker, lr, grad)| WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Dense(grad),
            }
        ),
        (any::<u64>(), arb_worker(), arb_f32(), arb_sparse()).prop_map(
            |(seq, worker, lr, grad)| WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Sparse(grad),
            }
        ),
        (any::<u64>(), arb_f32()).prop_map(|(seq, lr)| WireMessage::RelayTag { seq, lr }),
        Just(WireMessage::Shutdown),
    ]
}

/// A dense or a sparse worker push.
fn arb_push() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        (arb_worker(), arb_params()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Dense(grad),
        }),
        (arb_worker(), arb_sparse()).prop_map(|(worker, grad)| WireMessage::Push {
            worker,
            payload: PushPayload::Sparse(grad),
        }),
    ]
}

/// Reads `bytes` as a stream into `buf` behind `headroom`, in place, and
/// turns the frame owned — what a connection's `recv` does.
fn read_in_place(
    bytes: &[u8],
    headroom: usize,
    buf: &mut Vec<u8>,
) -> Result<WireMessage, FrameError> {
    match read_frame_into(&mut io::Cursor::new(bytes), headroom, buf) {
        Ok(Some((frame, end))) => {
            assert_eq!(
                end,
                headroom + bytes.len(),
                "the frame ends where it was written"
            );
            Ok(frame.into_owned())
        }
        Ok(None) => panic!("a non-empty stream read as a clean close"),
        Err(FrameReadError::Frame(e)) => Err(e),
        Err(FrameReadError::Io(e)) => panic!("an in-memory stream failed: {e}"),
    }
}

/// `bytes` with one byte appended to the payload and the header's length
/// and checksum sealed over it: the one way to extend a frame that a
/// stream reader, which stops where the header says, can see.
fn extended(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out.push(0);
    let payload = &out[20..];
    let (len, sum) = (payload.len() as u32, specsync::ps::checksum(payload));
    out[8..12].copy_from_slice(&len.to_le_bytes());
    out[12..20].copy_from_slice(&sum.to_le_bytes());
    out
}

proptest! {
    /// decode(encode(m)) re-encodes to the identical bytes — bit-exact
    /// round trip even for NaN payloads, where `PartialEq` on the message
    /// would be too weak an oracle.
    #[test]
    fn every_message_round_trips_bit_exactly(msg in arb_message()) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        let decoded = decode_frame(&bytes).expect("own encoding must decode");
        prop_assert_eq!(encode_frame(&decoded).expect("decoded re-encodes"), bytes);
    }

    /// The three dense carriers at the boundary lengths: the decoded
    /// floats hold the sender's exact bits, and re-encode to the same frame.
    #[test]
    fn dense_payloads_round_trip_at_boundary_lengths(
        worker in arb_worker(),
        seq in any::<u64>(),
        lr in arb_f32(),
        values in arb_boundary_params(),
    ) {
        let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let msgs = [
            WireMessage::PullReply { version: seq, params: Arc::from(values.as_slice()) },
            WireMessage::Push { worker, payload: PushPayload::Dense(values.clone()) },
            WireMessage::RelayPush { seq, worker, lr, payload: PushPayload::Dense(values.clone()) },
        ];
        for msg in msgs {
            let bytes = encode_frame(&msg).expect("sample messages fit a frame");
            let decoded = decode_frame(&bytes).expect("own encoding must decode");
            let got = match &decoded {
                WireMessage::PullReply { params, .. } => bits(params),
                WireMessage::Push { payload: PushPayload::Dense(grad), .. }
                | WireMessage::RelayPush { payload: PushPayload::Dense(grad), .. } => bits(grad),
                other => return Err(TestCaseError::fail(format!("wrong variant {other:?}"))),
            };
            prop_assert_eq!(got, bits(&values));
            prop_assert_eq!(encode_frame(&decoded).expect("decoded re-encodes"), bytes);
        }
    }

    /// Flipping any single byte of a frame makes it undecodable: the
    /// magic, format, length and checksum cover the header; the checksum
    /// covers the payload.
    #[test]
    fn every_single_byte_flip_is_rejected(
        msg in arb_message(),
        flip in (1u32..256).prop_map(|b| b as u8),
    ) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            prop_assert!(
                decode_frame(&corrupt).is_err(),
                "flipping byte {} with {:#04x} decoded anyway", i, flip
            );
        }
    }

    /// Any strict prefix of a frame is rejected by the buffer decoder,
    /// and a stream cut mid-frame is a `Truncated` error from the stream
    /// reader — never a message, never a clean `Closed`.
    #[test]
    fn truncated_frames_and_streams_are_rejected(msg in arb_message()) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        for cut in 0..bytes.len() {
            prop_assert!(decode_frame(&bytes[..cut]).is_err(), "prefix {}", cut);
        }
        for cut in 1..bytes.len() {
            let mut cursor = io::Cursor::new(bytes[..cut].to_vec());
            prop_assert!(
                matches!(
                    read_frame(&mut cursor),
                    Err(FrameReadError::Frame(FrameError::Truncated))
                ),
                "stream cut at {}", cut
            );
        }
        // Zero bytes is the one clean close.
        let mut empty = io::Cursor::new(Vec::new());
        prop_assert!(matches!(read_frame(&mut empty).unwrap(), ReadOutcome::Closed));
    }

    /// A multi-message stream yields every frame in order and then a
    /// clean close, regardless of message mix.
    #[test]
    fn message_streams_round_trip(msgs in proptest::collection::vec(arb_message(), 1..8)) {
        let mut buf = Vec::new();
        let mut expect = Vec::new();
        for msg in &msgs {
            expect.push(encode_frame(msg).expect("sample messages fit a frame"));
            buf.extend_from_slice(expect.last().expect("just pushed"));
        }
        let mut cursor = io::Cursor::new(buf);
        for (i, bytes) in expect.iter().enumerate() {
            match read_frame(&mut cursor).expect("valid stream") {
                ReadOutcome::Frame(got, n) => {
                    prop_assert_eq!(&encode_frame(&got).expect("decoded re-encodes"), bytes, "frame {}", i);
                    prop_assert_eq!(n, bytes.len());
                }
                ReadOutcome::Closed => return Err(TestCaseError::fail("closed early")),
            }
        }
        prop_assert!(matches!(read_frame(&mut cursor).unwrap(), ReadOutcome::Closed));
    }

    /// The in-place reader is the owned decoder's parse, turned owned
    /// later: every variant reads back from a stream into a kept buffer,
    /// behind either headroom, as exactly what `decode_frame` returns.
    #[test]
    fn the_in_place_reader_and_the_owned_decoder_agree(
        msg in arb_message(),
        headroom in prop_oneof![Just(0usize), Just(RELAY_TAG_FRAME_LEN)],
    ) {
        let bytes = encode_frame(&msg).expect("sample messages fit a frame");
        let owned = decode_frame(&bytes).expect("own encoding must decode");
        let mut buf = Vec::new();
        let in_place = read_in_place(&bytes, headroom, &mut buf).expect("own encoding must read");
        prop_assert_eq!(&buf[headroom..], &bytes[..]);
        prop_assert_eq!(encode_frame(&in_place).expect("re-encodes"), bytes.clone());
        prop_assert_eq!(encode_frame(&owned).expect("re-encodes"), bytes);
    }

    /// Every single-byte flip, truncation and extension of a dense or
    /// sparse push is refused by the stream reader and by the owned
    /// decoder with the same error.
    #[test]
    fn every_corruption_of_a_push_is_refused_alike(
        push in arb_push(),
        flip in (1u32..256).prop_map(|b| b as u8),
    ) {
        let bytes = encode_frame(&push).expect("sample messages fit a frame");
        let mut buf = Vec::new();
        let mut both = |corrupt: &[u8]| {
            let owned = decode_frame(corrupt).expect_err("a corrupt frame decoded");
            let in_place = read_in_place(corrupt, RELAY_TAG_FRAME_LEN, &mut buf)
                .expect_err("a corrupt frame read");
            (owned, in_place)
        };
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            let (owned, in_place) = both(&corrupt);
            prop_assert_eq!(owned, in_place, "byte {} flipped with {:#04x}", i, flip);
        }
        for cut in 1..bytes.len() {
            let (owned, in_place) = both(&bytes[..cut]);
            prop_assert_eq!(&owned, &FrameError::Truncated, "cut at {}", cut);
            prop_assert_eq!(in_place, FrameError::Truncated, "cut at {}", cut);
        }
        let (owned, in_place) = both(&extended(&bytes));
        prop_assert_eq!(&owned, &FrameError::Malformed("trailing bytes after payload"));
        prop_assert_eq!(in_place, owned);
    }
}

/// One kept buffer reads a 4 MiB dense push, then a short frame, then the
/// 4 MiB push again: each decodes exact-fit and bit-identical, so nothing
/// past a frame's end — the stale tail of the larger frame before it — is
/// ever read.
#[test]
fn a_kept_buffer_never_reads_past_the_frame_it_holds() {
    let big: Vec<f32> = (0..1u32 << 20)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    let frames = [
        WireMessage::Push {
            worker: WorkerId::new(1),
            payload: PushPayload::Dense(big.clone()),
        },
        WireMessage::Push {
            worker: WorkerId::new(2),
            payload: PushPayload::Dense(vec![0.5, -0.0, f32::NAN]),
        },
        WireMessage::Push {
            worker: WorkerId::new(1),
            payload: PushPayload::Dense(big),
        },
    ];
    let mut buf = Vec::new();
    for (i, msg) in frames.iter().enumerate() {
        let bytes = encode_frame(msg).expect("a 4 MiB push fits a frame");
        let got = read_in_place(&bytes, RELAY_TAG_FRAME_LEN, &mut buf)
            .unwrap_or_else(|e| panic!("frame {i}: {e}"));
        // Bit-identical: NaN payloads included, which `==` cannot see.
        assert!(
            encode_frame(&got).expect("re-encodes") == bytes,
            "frame {i}"
        );
    }
}
