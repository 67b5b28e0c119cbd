//! The servers under test — the real [`ShardServer`] pair on loopback, in
//! this process as in `net_sweep` — and the client connections to them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use specsync_net::host::DEFAULT_FRAME_LR;
use specsync_net::{ConnSeq, ConnTarget, FrameConn, NetConfig, ShardHost, ShardServer, ShardStats};
use specsync_ps::{ParameterStore, PushPayload, ReplicatedStore};
use specsync_simnet::WorkerId;

/// Journal entries a replicated store keeps before a synchronous drain.
/// Not the default 256: at 4.2 M parameters one entry is 17–21 MB, so 256
/// would pin ~5 GB per shard. Not 16 either: a window then holds a few
/// drains of 1–3 s each and throughput follows how many fell inside it.
/// With 4 the same cost per push is paid in more, smaller stalls.
pub const JOURNAL_CAPACITY: usize = 4;

/// Store shards, as everywhere else in the repository.
const STORE_SHARDS: usize = 8;

/// A replicated store over `initial` with the benchmark's journal size.
pub fn replicated(initial: Vec<f32>, momentum: f32) -> ReplicatedStore {
    ReplicatedStore::from_store(store(initial, momentum), JOURNAL_CAPACITY)
}

/// The bare store under it.
pub fn store(initial: Vec<f32>, momentum: f32) -> ParameterStore {
    ParameterStore::new(initial, STORE_SHARDS).with_momentum(momentum)
}

/// Applies one frame-path push (worker 0, the host's default rate) to a
/// bare store: the reference the servers' results are checked against.
pub fn apply_to_store(store: &mut ParameterStore, push: &PushPayload) -> u64 {
    let worker = WorkerId::new(0);
    match push {
        PushPayload::Dense(grad) => store.apply_push(worker, grad, DEFAULT_FRAME_LR),
        PushPayload::Sparse(grad) => store.apply_push_sparse(worker, grad, DEFAULT_FRAME_LR),
    }
}

/// The same push on a bare replicated store: journal, then apply.
pub fn apply_to_replica(replica: &mut ReplicatedStore, push: &PushPayload) -> u64 {
    let worker = WorkerId::new(0);
    match push {
        PushPayload::Dense(grad) => replica.try_apply_push(worker, grad, DEFAULT_FRAME_LR),
        PushPayload::Sparse(grad) => replica.try_apply_push_sparse(worker, grad, DEFAULT_FRAME_LR),
    }
    .expect("a replica that never crashed accepts pushes")
}

/// Wire settings of the saturating workloads: the defaults, whose 10 s
/// `io_timeout` is the single-op time limit.
pub fn saturating_net() -> NetConfig {
    NetConfig::default()
}

/// Wire settings of the training workloads: the `net_smoke` ones.
pub fn training_net() -> NetConfig {
    NetConfig::builder()
        .heartbeat_interval(Duration::from_millis(25))
        .heartbeat_timeout(Duration::from_millis(400))
        .io_timeout(Duration::from_secs(3))
        .try_build()
        .expect("valid training net configuration")
}

struct Running {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<ShardStats>,
}

fn spawn(server: ShardServer) -> Running {
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.run().expect("shard server run"));
    Running { stop, thread }
}

/// A serving primary and, unless built without a relay, its warm backup.
pub struct ShardPair {
    pub primary_addr: String,
    primary: Running,
    backup: Option<Running>,
}

/// What both servers counted, read after they stopped.
pub struct PairStats {
    pub primary: ShardStats,
    pub backup: Option<ShardStats>,
}

impl ShardPair {
    /// Binds and starts the pair. `host` builds one identical host per
    /// server; `scheduler` registers both with a scheduler process.
    pub fn start(
        host: impl Fn() -> ShardHost,
        net: &NetConfig,
        relay: bool,
        scheduler: Option<&str>,
    ) -> ShardPair {
        let bind = |id: u64| {
            let server =
                ShardServer::bind(id, "127.0.0.1:0", host(), net.clone()).expect("bind shard");
            match scheduler {
                Some(addr) => server.with_scheduler(addr),
                None => server,
            }
        };
        // Backup first: the primary connects its relay when it starts.
        let (backup, backup_addr) = if relay {
            let server = bind(1).as_backup();
            let addr = server.local_addr().to_string();
            (Some(spawn(server)), Some(addr))
        } else {
            (None, None)
        };
        let mut primary = bind(0);
        if let Some(addr) = &backup_addr {
            primary = primary.with_backup_relay(addr);
        }
        let primary_addr = primary.local_addr().to_string();
        ShardPair {
            primary_addr,
            primary: spawn(primary),
            backup,
        }
    }

    /// Stops both servers and returns their counters. Call after every
    /// client connection is dropped, so their connection threads end too.
    pub fn stop(self) -> PairStats {
        let join = |r: Running| {
            r.stop.store(true, Ordering::SeqCst);
            r.thread.join().expect("shard server thread")
        };
        let primary = join(self.primary);
        PairStats {
            primary,
            backup: self.backup.map(join),
        }
    }
}

/// Opens client connection number `index` to `addr`.
pub fn connect(addr: &str, net: &NetConfig, seq: &ConnSeq, index: usize) -> FrameConn {
    let target = ConnTarget::new("perf-client", seq, index as u64);
    FrameConn::connect_with_retries(addr, net, &target, |_| {}).expect("client connect")
}
