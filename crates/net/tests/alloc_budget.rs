//! Allocation budget of the dense byte path: how many buffers of the
//! payload's own size each step may allocate, and how many a shard may
//! keep. Counts, not timings — a redundant copy of a dense payload shows
//! up here as one more large allocation whatever the host's speed, and a
//! retained one as live bytes that do not come back.
//!
//! Its own test binary because it installs a counting global allocator,
//! and one `#[test]` because the count is process-wide: the steps run in
//! sequence, and nothing else in the process allocates a megabyte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Arc;

use specsync_net::{
    decode_frame, encode_frame, ConnSeq, ConnTarget, FrameConn, NetConfig, ShardHost, ShardServer,
    WireMessage,
};
use specsync_ps::{ParameterStore, PushPayload};
use specsync_simnet::WorkerId;

/// Allocations at or above this size are the ones a payload copy makes.
const LARGE: usize = 1 << 20;
/// A 4 MiB dense payload.
const DIM: usize = 1 << 20;
/// Frame-path pushes into one host: enough that a shard keeping each
/// payload, or every few, would show it.
const PUSHES: usize = 5;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes held in large allocations right now.
static LIVE_LARGE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_LARGE_BYTES.fetch_add(size as isize, Ordering::Relaxed);
        }
    }

    fn release(size: usize) {
        if size >= LARGE {
            LIVE_LARGE_BYTES.fetch_sub(size as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::release(layout.size());
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::release(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `step` and returns its result with the large allocations (and
/// reallocations to a large size) it made.
fn large_allocs<T>(step: impl FnOnce() -> T) -> (T, usize) {
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    let out = step();
    (out, LARGE_ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn dense_byte_path_stays_within_its_large_allocation_budget() {
    let worker = WorkerId::new(0);
    let push = || WireMessage::Push {
        worker,
        payload: PushPayload::Dense(vec![0.5; DIM]),
    };

    let msg = push();
    let (frame, n) = large_allocs(|| encode_frame(&msg).unwrap());
    assert_eq!(n, 1, "encode_frame(Push): the frame buffer only");
    let (decoded, n) = large_allocs(|| decode_frame(&frame).unwrap());
    assert_eq!(n, 1, "decode_frame(Push): the gradient only");
    drop((msg, frame, decoded));

    let store = ParameterStore::new(vec![0.25; DIM], 8).with_momentum(0.9);
    let mut host = ShardHost::new(store);

    let ((reply, _), n) = large_allocs(|| host.encoded_pull_reply(worker).unwrap());
    assert!(n <= 2, "pull miss: snapshot + frame, got {n}");
    let ((again, _), n) = large_allocs(|| host.encoded_pull_reply(worker).unwrap());
    assert_eq!(n, 0, "pull hit: the cached frame");
    assert!(Arc::ptr_eq(&reply, &again));
    let (decoded, n) = large_allocs(|| decode_frame(&reply).unwrap());
    assert_eq!(n, 1, "decode_frame(PullReply): the shared block only");
    drop((reply, again, decoded));

    // A push is applied from the decoded payload by reference, and the
    // payload is freed with the frame: the shard keeps no copy, so once
    // the first push has settled the store, the live bytes stay put.
    let mut settled = None;
    for i in 1..=PUSHES {
        let msg = push();
        let (ack, n) = large_allocs(|| host.handle(msg).unwrap());
        assert!(matches!(ack, Some(WireMessage::PushAck { .. })));
        assert_eq!(n, 0, "handle(Push) number {i}");
        let live = LIVE_LARGE_BYTES.load(Ordering::Relaxed);
        let settled = *settled.get_or_insert(live);
        assert_eq!(live, settled, "live large bytes after push {i}");
    }

    // A relayed push over real sockets: each server allocates the buffer
    // it receives the frame into and the gradient it decodes out of it —
    // the primary forwards the bytes it received, so no clone and no
    // relay frame. The client's frame is encoded before the count starts;
    // the first push warms both servers up.
    let serve = |id: u64, relay: Option<&str>| {
        let store = ParameterStore::new(vec![0.25; DIM], 8).with_momentum(0.9);
        let host = ShardHost::new(store);
        let mut server = ShardServer::bind(id, "127.0.0.1:0", host, NetConfig::default()).unwrap();
        server = match relay {
            Some(addr) => server.with_backup_relay(addr),
            None => server.as_backup(),
        };
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        (
            addr,
            stop,
            std::thread::spawn(move || server.run().unwrap()),
        )
    };
    let (backup_addr, backup_stop, backup) = serve(1, None);
    let (primary_addr, primary_stop, primary) = serve(0, Some(&backup_addr));
    let seq = ConnSeq::new();
    let target = ConnTarget::new("test", &seq, 0);
    let mut conn =
        FrameConn::connect_with_retries(&primary_addr, &NetConfig::default(), &target, |_| {})
            .unwrap();
    let frame = encode_frame(&push()).unwrap();
    let mut relayed_push = || {
        conn.write_encoded(&frame).unwrap();
        let (ack, _) = conn.recv().unwrap();
        assert!(matches!(ack, WireMessage::PushAck { .. }));
    };
    relayed_push();
    let ((), n) = large_allocs(&mut relayed_push);
    assert_eq!(
        n, 4,
        "relayed push: receive buffer + gradient on each of two servers"
    );
    drop(conn);
    primary_stop.store(true, Ordering::SeqCst);
    backup_stop.store(true, Ordering::SeqCst);
    assert_eq!(primary.join().unwrap().relayed, 2);
    assert_eq!(backup.join().unwrap().pushes_applied, 2);
}
