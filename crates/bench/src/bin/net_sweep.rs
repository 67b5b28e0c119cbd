//! Pull-serving latency/throughput sweep over the TCP shard server: one
//! in-process [`ShardServer`] on loopback, with 1 → 64 → 256 concurrent
//! client connections doing blocking `Pull` round trips (plus a sprinkle
//! of pushes so the per-version encoded-reply cache keeps invalidating).
//!
//! Each client issues one pull per fixed *think interval* with a
//! per-client phase stagger, so the sweep measures serving delay under
//! concurrency — not the load generators fighting the server for host
//! CPU, which is all a zero-think closed loop can measure when the
//! clients are co-located (on a single-core host that design is *forced*
//! to show linear latency by Little's law, whatever the server does).
//! Under paced load, aggregate throughput should rise roughly with client
//! count while mean latency grows far slower: the shard serves every
//! puller of a store version from one shared pre-encoded frame, so
//! per-pull work stays flat as clients pile on. The sweep fails (exit 1)
//! if mean latency at the widest level reaches the client-count ratio —
//! i.e. if scaling ever goes linear or worse.
//!
//! * `net_sweep`           — full sweep, prints the table
//! * `net_sweep --quick`   — fewer pulls per client (CI scale)

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use specsync_net::{
    ConnSeq, ConnTarget, FrameConn, NetConfig, ShardHost, ShardServer, WireMessage,
};
use specsync_ps::{ParameterStore, PushPayload, ReplicatedStore};
use specsync_simnet::WorkerId;

/// Model size for the sweep: 4,096 f32 parameters = 16 KiB pull payloads.
const DIM: usize = 4_096;
/// Concurrency levels.
const LEVELS: [usize; 3] = [1, 64, 256];
/// A push every this many pulls (client 0 only) bumps the store version
/// so the encoded-reply cache actually re-serializes during the run.
const PUSH_STRIDE: u64 = 64;
/// Un-measured pulls each client performs before the barrier opens the
/// measured window.
const WARMUP_PULLS: u64 = 10;
/// Think interval between a client's pulls: the paced-load knob. At 256
/// clients this offers ~12.8k pulls/s, which a loopback shard must absorb
/// without queue growth.
const THINK: Duration = Duration::from_millis(20);

struct LevelResult {
    clients: usize,
    pulls: u64,
    pulls_per_sec: f64,
    mean_latency_us: f64,
    max_latency_us: u64,
}

/// One measured level: every client connects and warms up *before* a
/// shared barrier opens the measured window, then issues a fixed pull
/// count at the think-interval pace (phase-staggered so the barrier does
/// not convoy all clients into synchronized bursts) — neither the connect
/// storm nor the teardown tail pollutes the latency numbers.
fn run_level(addr: &str, clients: usize, pulls_per_client: u64) -> LevelResult {
    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
    let cfg = NetConfig::default();
    let seq = ConnSeq::new();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let target = ConnTarget::new("sweep-client", &seq, c as u64);
        let mut conn =
            FrameConn::connect_with_retries(addr, &cfg, &target, |_| {}).expect("client connect");
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let worker = WorkerId::new(c);
            let mut exchange_pull = |pulls: u64| {
                if c == 0 && pulls % PUSH_STRIDE == PUSH_STRIDE - 1 {
                    conn.exchange(&WireMessage::Push {
                        worker,
                        payload: PushPayload::Dense(vec![0.001; DIM]),
                    })
                    .expect("push");
                }
                let start = Instant::now();
                let (reply, _, _) = conn
                    .exchange(&WireMessage::Pull { worker })
                    .expect("pull round trip");
                assert!(
                    matches!(reply, WireMessage::PullReply { .. }),
                    "want PullReply, got {reply:?}"
                );
                start.elapsed().as_nanos()
            };
            for i in 0..WARMUP_PULLS {
                exchange_pull(i);
            }
            barrier.wait();
            // De-phase the clients across one think interval so arrivals
            // spread instead of bursting in lockstep off the barrier.
            std::thread::sleep(THINK * c as u32 / clients as u32);
            let mut total_ns = 0u128;
            let mut max_ns = 0u128;
            for i in 0..pulls_per_client {
                let ns = exchange_pull(i);
                total_ns += ns;
                max_ns = max_ns.max(ns);
                std::thread::sleep(THINK);
            }
            (total_ns, max_ns)
        }));
    }

    barrier.wait();
    let window = Instant::now();
    let mut total_ns = 0u128;
    let mut max_ns = 0u128;
    for handle in handles {
        let (t, m) = handle.join().expect("client thread");
        total_ns += t;
        max_ns = max_ns.max(m);
    }
    let wall = window.elapsed();
    let pulls = pulls_per_client * clients as u64;
    LevelResult {
        clients,
        pulls,
        pulls_per_sec: pulls as f64 / wall.as_secs_f64(),
        mean_latency_us: if pulls == 0 {
            0.0
        } else {
            total_ns as f64 / pulls as f64 / 1_000.0
        },
        max_latency_us: (max_ns / 1_000).min(u64::MAX as u128) as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pulls_per_client: u64 = if quick { 15 } else { 50 };

    let host = ShardHost::new(ReplicatedStore::from_store(
        ParameterStore::new(vec![0.0; DIM], 8),
        ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
    ));
    let server =
        ShardServer::bind(0, "127.0.0.1:0", host, NetConfig::default()).expect("bind shard");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let server_handle = std::thread::spawn(move || server.run().expect("shard run"));

    println!(
        "{:>8} {:>12} {:>14} {:>16} {:>15}",
        "clients", "pulls", "pulls/sec", "mean latency µs", "max latency µs"
    );
    let mut results = Vec::new();
    for &clients in &LEVELS {
        let r = run_level(&addr, clients, pulls_per_client);
        println!(
            "{:>8} {:>12} {:>14.1} {:>16.2} {:>15}",
            r.clients, r.pulls, r.pulls_per_sec, r.mean_latency_us, r.max_latency_us
        );
        results.push(r);
    }

    stop.store(true, Ordering::SeqCst);
    server_handle.join().expect("server thread");

    // The scaling gate: going from 1 client to the widest level must not
    // scale mean latency linearly with the client count — the shared
    // encoded-reply cache is what keeps per-pull serving cost flat.
    let single = results.first().expect("level 1");
    let widest = results.last().expect("widest level");
    let latency_ratio = if single.mean_latency_us > 0.0 {
        widest.mean_latency_us / single.mean_latency_us
    } else {
        0.0
    };
    println!(
        "latency scaling: {:.2}x mean latency at {}x clients",
        latency_ratio,
        widest.clients / single.clients,
    );
    assert!(
        latency_ratio < (widest.clients / single.clients) as f64,
        "mean pull latency scaled linearly or worse ({latency_ratio:.2}x at {}x clients)",
        widest.clients / single.clients,
    );
}
