//! The cut-through write-ahead relay over real loopback servers: the
//! primary forwards a `RelayTag` and then the worker's own `Push` frame
//! byte for byte, the backup pairs the two, and neither the ack order nor
//! the exactly-once apply changes. Where a test needs to see inside the
//! relay link it plays the backup itself (a bare listener); where it needs
//! a backup's parameters it plays the scheduler and promotes it.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

use specsync_net::{
    decode_frame, encode_frame, ConnSeq, ConnTarget, FailoverControl, FrameConn, NetConfig,
    ShardHost, ShardServer, ShardStats, WireMessage, RELAY_TAG_FRAME_LEN,
};
use specsync_ps::{ParameterStore, PushPayload};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

const DIM: usize = 12;
const WORKERS: usize = 2;

/// Momentum makes the parameters depend on the apply order, so a replay in
/// any other order — or a push applied twice — shows in the bits.
fn host() -> ShardHost {
    let store = ParameterStore::new(vec![0.0; DIM], WORKERS).with_momentum(0.9);
    ShardHost::new(store)
}

struct Running {
    addr: String,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: JoinHandle<ShardStats>,
}

impl Running {
    fn stop(self) -> ShardStats {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("shard server thread")
    }
}

fn spawn(server: ShardServer) -> Running {
    Running {
        addr: server.local_addr().to_string(),
        stop: server.stop_handle(),
        thread: std::thread::spawn(move || server.run().expect("shard run")),
    }
}

fn bind(id: u64) -> ShardServer {
    ShardServer::bind(id, "127.0.0.1:0", host(), NetConfig::default()).expect("bind shard")
}

fn connect(addr: &str) -> FrameConn {
    let seq = ConnSeq::new();
    let target = ConnTarget::new("test", &seq, 0);
    FrameConn::connect_with_retries(addr, &NetConfig::default(), &target, |_| {}).expect("connect")
}

fn accept(listener: &TcpListener) -> FrameConn {
    let (stream, peer) = listener.accept().expect("accept");
    FrameConn::from_stream(stream, peer.to_string())
}

/// A warm backup registered with a scheduler this test plays, so the test
/// can promote it and pull the parameters it absorbed.
struct PromotableBackup {
    shard: Running,
    sched_link: FrameConn,
}

impl PromotableBackup {
    fn start() -> Self {
        let sched = TcpListener::bind("127.0.0.1:0").expect("bind fake scheduler");
        let sched_addr = sched.local_addr().expect("scheduler addr").to_string();
        let shard = spawn(bind(1).as_backup().with_scheduler(&sched_addr));
        let mut sched_link = accept(&sched);
        let (register, _) = sched_link.recv().expect("registration");
        assert!(matches!(
            register,
            WireMessage::Failover(FailoverControl::Register { backup: true, .. })
        ));
        PromotableBackup { shard, sched_link }
    }

    /// Promotes the backup, pulls its parameters, and stops it.
    fn promote_pull_stop(mut self) -> (Vec<u32>, ShardStats) {
        self.sched_link
            .write(&WireMessage::Failover(FailoverControl::Promote {
                server: 1,
            }))
            .expect("send Promote");
        // Heartbeats share the link; the reply is the first `Promoted`.
        loop {
            let (frame, _) = self.sched_link.recv().expect("scheduler link");
            if matches!(
                frame,
                WireMessage::Failover(FailoverControl::Promoted { .. })
            ) {
                break;
            }
        }
        let bits = pull_bits(&mut connect(&self.shard.addr)).1;
        (bits, self.shard.stop())
    }
}

fn pull_bits(conn: &mut FrameConn) -> (u64, Vec<u32>) {
    let (reply, _, _) = conn
        .exchange(&WireMessage::Pull {
            worker: WorkerId::new(0),
        })
        .expect("pull");
    let WireMessage::PullReply { version, params } = reply else {
        panic!("want PullReply, got {reply:?}");
    };
    (version, params.iter().map(|p| p.to_bits()).collect())
}

fn push(worker: usize, i: usize) -> WireMessage {
    let value = 0.25 + (worker * 31 + i) as f32 * 0.125;
    let payload = if i.is_multiple_of(2) {
        PushPayload::Dense(vec![value; DIM])
    } else {
        let mut g = SparseGrad::new();
        g.reset(DIM);
        g.add(i % DIM, value);
        g.add((i + 5) % DIM, -value * 0.5);
        g.finish();
        PushPayload::Sparse(g)
    };
    WireMessage::Push {
        worker: WorkerId::new(worker),
        payload,
    }
}

/// The parameters a fresh host holds after `pushes`, applied in order.
fn replay_bits(pushes: impl IntoIterator<Item = WireMessage>) -> Vec<u32> {
    let mut local = host();
    for frame in pushes {
        local.handle(frame).expect("local replay");
    }
    local
        .store_mut()
        .params()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

fn relay_pair(seq: u64, push: &WireMessage) -> Vec<u8> {
    let mut bytes = encode_frame(&WireMessage::RelayTag { seq, lr: 0.05 }).expect("encode tag");
    bytes.extend(encode_frame(push).expect("encode push"));
    bytes
}

#[test]
fn concurrent_mixed_pushes_leave_the_backup_bit_identical_to_the_primary() {
    const PER_CLIENT: usize = 20;
    let backup = PromotableBackup::start();
    let primary = spawn(bind(0).with_backup_relay(&backup.shard.addr));

    // Each client records the version its ack named: the order the
    // primary's relay lock chose, which the local replay must follow.
    let clients: Vec<JoinHandle<Vec<(u64, WireMessage)>>> = (0..WORKERS)
        .map(|worker| {
            let addr = primary.addr.clone();
            std::thread::spawn(move || {
                let mut conn = connect(&addr);
                (0..PER_CLIENT)
                    .map(|i| {
                        let frame = push(worker, i);
                        let (ack, _, _) = conn.exchange(&frame).expect("push");
                        let WireMessage::PushAck { version, .. } = ack else {
                            panic!("want PushAck, got {ack:?}");
                        };
                        (version, frame)
                    })
                    .collect()
            })
        })
        .collect();
    let mut acked: Vec<(u64, WireMessage)> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    acked.sort_by_key(|(version, _)| *version);
    let total = (WORKERS * PER_CLIENT) as u64;
    let versions: Vec<u64> = acked.iter().map(|(v, _)| *v).collect();
    assert_eq!(
        versions,
        (1..=total).collect::<Vec<_>>(),
        "exactly-once acks"
    );

    let want = replay_bits(acked.into_iter().map(|(_, frame)| frame));
    let (version, primary_bits) = pull_bits(&mut connect(&primary.addr));
    assert_eq!(version, total);
    assert_eq!(primary_bits, want, "primary vs local replay");

    let pstats = primary.stop();
    let (backup_bits, bstats) = backup.promote_pull_stop();
    assert_eq!(backup_bits, want, "backup vs local replay");
    assert_eq!(pstats.pushes_applied, total);
    assert_eq!(pstats.relayed, total);
    assert_eq!(pstats.relay_drops, 0);
    assert_eq!(pstats.version, total);
    assert_eq!(bstats.pushes_applied, total);
    assert_eq!(bstats.version, total);
}

#[test]
fn a_corrupt_push_stops_at_the_primary_and_the_relay_link_survives_it() {
    let backup = spawn(bind(1).as_backup());
    let primary = spawn(bind(0).with_backup_relay(&backup.addr));

    let mut corrupt = encode_frame(&push(0, 0)).expect("encode");
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x10;
    let mut conn = connect(&primary.addr);
    conn.write_encoded(&corrupt).expect("write");
    assert!(conn.recv().is_err(), "a bad checksum drops the connection");

    let mut conn = connect(&primary.addr);
    let (ack, _, _) = conn.exchange(&push(0, 2)).expect("push");
    assert_eq!(
        ack,
        WireMessage::PushAck {
            version: 1,
            pushes_by_worker: 1
        }
    );
    drop(conn);

    let pstats = primary.stop();
    let bstats = backup.stop();
    assert_eq!(
        (pstats.relayed, pstats.relay_drops, pstats.version),
        (1, 0, 1)
    );
    assert_eq!(
        (bstats.pushes_applied, bstats.version),
        (1, 1),
        "only the valid push reached the backup"
    );
}

#[test]
fn a_redelivered_pair_is_acked_without_being_applied_again() {
    let backup = PromotableBackup::start();
    let mut relay = connect(&backup.shard.addr);
    let first = push(0, 0);
    let second = push(1, 1);
    let ack = |version, pushes_by_worker| WireMessage::PushAck {
        version,
        pushes_by_worker,
    };

    relay.write_encoded(&relay_pair(1, &first)).expect("write");
    assert_eq!(relay.recv().expect("ack").0, ack(1, 1));
    relay.write_encoded(&relay_pair(1, &first)).expect("write");
    assert_eq!(relay.recv().expect("ack").0, ack(1, 1), "re-delivery");
    relay.write_encoded(&relay_pair(2, &second)).expect("write");
    assert_eq!(relay.recv().expect("ack").0, ack(2, 1));
    drop(relay);

    let (bits, stats) = backup.promote_pull_stop();
    assert_eq!(stats.version, 2);
    assert_eq!(bits, replay_bits([first, second]), "each push applied once");
}

/// A relay is a tag plus the worker's own frame, and nothing else: a tag
/// followed by anything but a `Push`, or a `RelayPush` on its own (the
/// form a backup only ever builds in memory), drops the connection.
#[test]
fn a_tag_not_followed_by_a_push_drops_the_connection_and_touches_nothing() {
    let backup = spawn(bind(1).as_backup());
    let tag = encode_frame(&WireMessage::RelayTag { seq: 1, lr: 0.05 }).expect("encode tag");
    let relay_push = WireMessage::RelayPush {
        seq: 1,
        worker: WorkerId::new(0),
        lr: 0.05,
        payload: PushPayload::Dense(vec![1.0; DIM]),
    };
    let not_a_push = [
        WireMessage::Heartbeat {
            worker: WorkerId::new(0),
        },
        WireMessage::RelayTag { seq: 1, lr: 0.05 },
        relay_push.clone(),
    ];
    let mut rows: Vec<(String, Vec<u8>)> = not_a_push
        .iter()
        .map(|follower| {
            let mut bytes = tag.clone();
            bytes.extend(encode_frame(follower).expect("encode follower"));
            (format!("{follower:?} after a tag"), bytes)
        })
        .collect();
    let bare = encode_frame(&relay_push).expect("encode bare relay push");
    rows.push(("a bare RelayPush".to_string(), bare));
    for (row, bytes) in rows {
        let mut conn = connect(&backup.addr);
        conn.write_encoded(&bytes).expect("write");
        assert!(conn.recv().is_err(), "{row}");
    }
    let stats = backup.stop();
    assert_eq!((stats.pushes_applied, stats.version), (0, 0));
}

#[test]
fn the_primary_applies_only_after_the_backup_acked_the_forwarded_bytes() {
    // This test is the backup: it sees the relay link's raw bytes and
    // decides when the ack goes out.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backup");
    let backup_addr = listener.local_addr().expect("backup addr").to_string();
    let primary = spawn(bind(0).with_backup_relay(&backup_addr));
    let (mut relay, _): (TcpStream, _) = listener.accept().expect("relay link");

    let frame = push(0, 0);
    let sent = encode_frame(&frame).expect("encode");
    let mut pusher = connect(&primary.addr);
    pusher.write_encoded(&sent).expect("write push");

    let mut forwarded = vec![0u8; RELAY_TAG_FRAME_LEN + sent.len()];
    relay.read_exact(&mut forwarded).expect("forwarded relay");
    let (tag, forwarded_push) = forwarded.split_at(RELAY_TAG_FRAME_LEN);
    assert_eq!(
        decode_frame(tag).expect("tag decodes"),
        WireMessage::RelayTag { seq: 1, lr: 0.05 }
    );
    assert_eq!(
        forwarded_push,
        &sent[..],
        "the worker's frame, byte for byte"
    );

    // The backup holds the push and has not acked: no pull may see it.
    let mut puller = connect(&primary.addr);
    let (version, bits) = pull_bits(&mut puller);
    assert_eq!(version, 0, "applied before the backup acked");
    assert_eq!(bits, replay_bits([]));

    let ack = WireMessage::PushAck {
        version: 1,
        pushes_by_worker: 1,
    };
    let mut relay = FrameConn::from_stream(relay, backup_addr);
    relay.write(&ack).expect("ack the relay");
    assert_eq!(pusher.recv().expect("push ack").0, ack);
    let (version, bits) = pull_bits(&mut puller);
    assert_eq!(version, 1);
    assert_eq!(bits, replay_bits([frame]));

    drop((pusher, puller));
    let stats = primary.stop();
    assert_eq!((stats.relayed, stats.relay_drops), (1, 0));
}
