//! The process-level hosts: a TCP shard server fronting a [`ShardHost`]
//! and a TCP scheduler server fronting a [`SchedulerHost`] —
//! together they let the roles of the paper's Fig. 7 run as separate OS
//! processes on one host.
//!
//! Each server's accept thread blocks in `accept` and hands a connection
//! to its handler the moment it arrives. The thread that runs the server
//! checks every `TICK` whether the run has ended; then it wakes the
//! acceptor with one connection to the listener's own address and joins
//! it, so the listener is closed when `run` returns.
//!
//! # Shard server
//!
//! Each accepted connection is served on its own thread.
//! Pulls are served from the host's per-version encoded-frame cache
//! (serialize once, share the bytes across every concurrent client) and
//! take only the host lock. A push is relayed and applied, from the
//! buffer it was received into, by its connection thread while it holds
//! the **relay lock**, which owns the write-ahead link to the warm-backup
//! process: the backup holds each push before the primary applies it, and
//! the lock's order is the push order both replicas apply. A relay is
//! cut-through: a 33-byte [`WireMessage::RelayTag`] carrying the store
//! version the push produces and the rate it is applied with, then the
//! worker's own `Push` frame as the primary received it — nothing is
//! re-encoded, and the backup verifies the checksum the worker computed.
//! The backup's connection thread pairs the two into a
//! [`WireMessage::RelayPush`], so delivery can stay at-least-once while
//! the backup applies exactly once (redeliveries are acked without
//! re-applying). A relay whose write or ack fails is dropped for the rest
//! of the run and counted in [`ShardStats::relay_drops`].
//!
//! **Backup (re)provisioning** runs under the same lock, in two phases: a
//! fresh process connects and sends `JoinAsBackup`; the primary writes it
//! one `Snapshot` frame of the serving store, and the joiner answers
//! `BackupReady` with the version it installed. Live pushes queue behind
//! the join on the lock, so the snapshot is a clean cut of the push order
//! — every later push reaches the new backup as a live relay down the
//! very same connection, so there is no tail to replay. That connection
//! reads and writes under `NetConfig::io_timeout` from the handshake on,
//! like the relay link a primary dials itself: a joiner that stops
//! answering costs the pushes behind it one timeout, not the run.
//!
//! A shard ends two ways. The scheduler's `Shutdown` ends the run
//! gracefully: the server stops accepting and reports its counters, but
//! answers its connected clients until they hang up, so a worker
//! mid-exchange still gets its reply. The [stop handle] halts it, the
//! in-process twin of killing the process: every connection drops at its
//! next frame unanswered, the push holding the relay lock finishes and
//! later ones are refused, and the scheduler link closes, which is what
//! tells the scheduler to promote the backup.
//!
//! [stop handle]: ShardServer::stop_handle
//!
//! # Scheduler server
//!
//! One central loop owns every connection's writer and drives the sans-IO
//! [`SchedulerHost`], which holds all protocol state. Frames arrive over a
//! channel from per-connection reader threads; each goes into the host
//! stamped with the elapsed time, and the loop carries out what the host
//! asks for (frames to write, events to record). Every `TICK` (5 ms) the loop
//! also lets the host fire due speculation windows and sweep liveness.
//! The host detects a dead primary shard two ways (its connection closing,
//! or heartbeat silence past the timeout) and promotes the warm backup by
//! sending `Failover(Promote)` down the backup's registered connection;
//! the backup's `Promoted` reply flips the advertised primary address and
//! bumps the promotion epoch that reconnecting workers see.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use specsync_core::SpecSyncError;
use specsync_ps::{ParameterStore, StoreCheckpoint};
use specsync_simnet::WorkerId;
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, EventSink, NullSink};
use specsync_tensor::SparseGrad;

use crate::chaos::{ChaosListener, ChaosStream, ConnSeq};
use crate::config::NetConfig;
use crate::error::NetError;
use crate::frame::{
    encode_frame, read_frame, write_frame, FrameRef, PushBody, ReadOutcome, RELAY_TAG_FRAME_LEN,
};
use crate::host::{Gradient, ShardHost};
use crate::sched_host::{SchedOutput, SchedulerHost};
use crate::transport::WallElapsed;
use crate::transport::{ConnTarget, FrameConn};
use crate::wire::{FailoverControl, WireMessage};

/// The scheduler loop's wake-up (abort deadlines, liveness sweeps), and
/// how often a shard's run checks whether the run has ended. No accept
/// waits on it.
const TICK: Duration = Duration::from_millis(5);

// --------------------------------------------------------------- accept

/// A listener's accept thread: it blocks in `accept` and hands each
/// connection to its handler the moment it arrives, until
/// [`close`](Self::close) wakes it.
struct Acceptor {
    /// The listener's own address, which the wake dials.
    addr: SocketAddr,
    /// Set before the wake; the accept that follows ends the thread.
    ended: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Acceptor {
    /// Starts accepting on `listener`. Accepted streams run the chaos
    /// script of `config` for the accept plane `label`.
    fn spawn(
        listener: TcpListener,
        config: &NetConfig,
        label: &'static str,
        mut handle: impl FnMut(ChaosStream, SocketAddr) + Send + 'static,
    ) -> io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let listener = ChaosListener::new(listener, config.chaos.clone(), label);
        let ended = Arc::new(AtomicBool::new(false));
        let thread = {
            let ended = Arc::clone(&ended);
            std::thread::spawn(move || {
                // An accept error ends the thread, and with it a shard's run.
                while let Ok(Some((stream, peer))) = listener.accept(&ended) {
                    stream.set_nodelay(true).ok();
                    handle(stream, peer);
                }
            })
        };
        Ok(Acceptor {
            addr,
            ended,
            thread,
        })
    }

    /// Whether the accept thread has ended (on an accept error, before
    /// [`close`](Self::close)).
    fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Wakes the accept thread with one connection to the listener's own
    /// address and joins it: the listener is closed when this returns.
    fn close(self) {
        self.ended.store(true, Ordering::SeqCst);
        // Refused if the thread has already ended and dropped the listener.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

// ---------------------------------------------------------------- shard

/// Counters a [`ShardServer`] accumulates; cheap atomics shared across
/// connection threads.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pulls_served: AtomicU64,
    pushes_applied: AtomicU64,
    relayed: AtomicU64,
    relay_drops: AtomicU64,
    /// Pushes absorbed via the write-ahead relay while still a backup —
    /// reported as `replayed` in the `Promoted` frame.
    absorbed: AtomicU64,
}

/// What a [`ShardServer::run`] did, reported when the server stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Pull requests answered.
    pub pulls_served: u64,
    /// Pushes applied to the local store.
    pub pushes_applied: u64,
    /// Pushes write-ahead relayed to the warm backup.
    pub relayed: u64,
    /// Relay links lost to a failed write or ack. After a drop the shard
    /// serves unreplicated until a backup joins.
    pub relay_drops: u64,
    /// Whether this process ended the run as the serving primary.
    pub serving: bool,
    /// Final store version.
    pub version: u64,
}

/// A parameter-server shard as an OS process: a [`ShardHost`] behind a
/// TCP listener. See the module docs for the threading model.
pub struct ShardServer {
    shard_id: u64,
    listener: TcpListener,
    local_addr: String,
    config: NetConfig,
    backup_addr: Option<String>,
    sched_addr: Option<String>,
    join_addr: Option<String>,
    shared: Shared,
}

/// What every thread of a running [`ShardServer`] shares.
struct Shared {
    host: Arc<Mutex<ShardHost>>,
    /// The relay lock: the write-ahead link to the warm backup (`None`
    /// while serving unreplicated). Taking it is the shard's push order
    /// (see the module docs); it is taken before the host lock.
    relay: Mutex<Option<FrameConn>>,
    /// Whether this process currently serves workers (primaries start
    /// `true`, warm backups `false` until promoted).
    serving: AtomicBool,
    /// The stop handle's flag: set, the server halts.
    stop: Arc<AtomicBool>,
    /// Set when the run is over, however it ended: accepting and the
    /// scheduler heartbeat stop, and connections are still answered.
    ended: AtomicBool,
    counters: ShardCounters,
    sink: Arc<dyn EventSink<Duration>>,
    clock: WallElapsed,
}

impl Shared {
    fn record(&self, event: &Event) {
        self.sink.record(self.clock.elapsed(), event);
    }
}

/// A received push's gradient, detached from the receive buffer so the
/// relay can write its tag into the buffer's headroom: a dense gradient
/// is its byte count (its bytes end the frame), a sparse one is decoded.
enum Body {
    Dense(usize),
    Sparse(SparseGrad),
}

impl Body {
    /// The gradient, read from `received`, which ends with its frame.
    fn gradient<'a>(&'a self, received: &'a [u8]) -> Gradient<'a> {
        match self {
            Body::Dense(len) => Gradient::Wire(&received[received.len() - len..]),
            Body::Sparse(grad) => Gradient::Sparse(grad),
        }
    }
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("shard_id", &self.shard_id)
            .field("addr", &self.local_addr)
            .field("serving", &self.shared.serving.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ShardServer {
    /// Binds a shard listener (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or an invalid configuration — a
    /// degenerate heartbeat ordering is refused here, before the process
    /// joins a cluster it would destabilize.
    pub fn bind(
        shard_id: u64,
        addr: &str,
        host: ShardHost,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        config.try_validate().map_err(NetError::Config)?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?.to_string();
        Ok(ShardServer {
            shard_id,
            listener,
            local_addr,
            config,
            backup_addr: None,
            sched_addr: None,
            join_addr: None,
            shared: Shared {
                host: Arc::new(Mutex::new(host)),
                relay: Mutex::new(None),
                serving: AtomicBool::new(true),
                stop: Arc::new(AtomicBool::new(false)),
                ended: AtomicBool::new(false),
                counters: ShardCounters::default(),
                sink: Arc::new(NullSink),
                clock: WallElapsed::start(),
            },
        })
    }

    /// The address the shard actually listens on.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Starts as the warm backup: refuse worker pulls, absorb relayed
    /// pushes, and wait for the scheduler's `Promote`.
    pub fn as_backup(self) -> Self {
        self.shared.serving.store(false, Ordering::SeqCst);
        self
    }

    /// Write-ahead relay target: the warm-backup process's address. Set
    /// on the primary.
    pub fn with_backup_relay(mut self, addr: &str) -> Self {
        self.backup_addr = Some(addr.to_string());
        self
    }

    /// Registers with a scheduler: the shard connects, announces its
    /// address and role, heartbeats, and obeys `Promote`/`Shutdown` sent
    /// back down the same connection.
    pub fn with_scheduler(mut self, addr: &str) -> Self {
        self.sched_addr = Some(addr.to_string());
        self
    }

    /// Re-provisions this shard from the live primary at `addr` before
    /// serving: install a snapshot of its serving store and stay on the
    /// connection as the primary's new write-ahead relay target. Implies
    /// backup duty; combine with [`Self::as_backup`].
    pub fn join_via(mut self, addr: &str) -> Self {
        self.join_addr = Some(addr.to_string());
        self
    }

    /// Records `Pull` and `Push` events to `sink` — only while serving,
    /// so a backup's absorbed relays are not counted twice — stamped with
    /// the time elapsed since the server was bound.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink<Duration>>) -> Self {
        self.shared.sink = sink;
        self
    }

    /// A handle that halts this server when set (see the module docs):
    /// [`run`](Self::run) then returns counters that include exactly the
    /// pushes that were acked. Shard processes normally end on the
    /// scheduler's `Shutdown` instead.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.stop)
    }

    /// Serves until the scheduler's `Shutdown` (or the loss of the
    /// scheduler link) or the stop handle. Blocking; returns the run's
    /// counters.
    ///
    /// # Errors
    ///
    /// Connection errors reaching the scheduler or the backup relay at
    /// startup. Per-connection errors after startup drop the connection,
    /// never the server.
    pub fn run(self) -> Result<ShardStats, NetError> {
        let ShardServer {
            shard_id,
            listener,
            local_addr,
            config,
            backup_addr,
            sched_addr,
            join_addr,
            shared,
        } = self;
        let shared = Arc::new(shared);

        // Per-process outbound connection sequence: chaos scripts advance
        // per label, so reconnects draw fresh fault streams.
        let seq = ConnSeq::new();

        // Write-ahead relay to the warm backup.
        if let Some(addr) = &backup_addr {
            *shared.relay.lock() = Some(FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("relay", &seq, shard_id),
                |_| {},
            )?);
        }
        let io_timeout = config.io_timeout;

        // A rejoining backup provisions itself from the live primary
        // before talking to the scheduler, so it is only ever armed for
        // promotion at parity.
        let mut joined: Option<u64> = None;
        if let Some(addr) = &join_addr {
            let mut conn = FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("join", &seq, shard_id),
                |_| {},
            )?;
            joined = Some(join_cluster(
                &mut conn,
                shard_id,
                &local_addr,
                &shared.host,
            )?);
            // The same connection now carries the primary's write-ahead
            // relay: serve it like any accepted data connection. Clear
            // the outbound io timeout first — relays arrive only when
            // workers push, and an idle stretch is not a dead peer — and
            // rewrap the socket, so the receive buffer the snapshot grew
            // is freed rather than kept for the relay's push-sized frames.
            conn.set_read_timeout(None).ok();
            let conn = FrameConn::from_chaos_stream(conn.into_stream(), addr.clone());
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || serve_shard_conn(conn, &shared, io_timeout));
        }

        // Scheduler link: register, heartbeat, obey control frames. A
        // clone of the socket stays here, to close the link when the run
        // is over.
        let mut sched_link = None;
        if let Some(addr) = &sched_addr {
            let conn = FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("sched", &seq, shard_id),
                |_| {},
            )?;
            let mut writer = conn.into_stream();
            let mut reader = writer.try_clone()?;
            sched_link = Some(writer.try_clone()?);
            reader.set_read_timeout(None).ok();
            write_frame(
                &mut writer,
                &WireMessage::Failover(FailoverControl::Register {
                    server: shard_id,
                    backup: !shared.serving.load(Ordering::SeqCst),
                    addr: local_addr.clone(),
                }),
            )?;
            if let Some(version) = joined {
                // Tell the scheduler the join finished and where it
                // landed, so the rejoin is visible in the event stream.
                write_frame(
                    &mut writer,
                    &WireMessage::Failover(FailoverControl::BackupReady {
                        server: shard_id,
                        version,
                    }),
                )?;
            }
            // Outbound frames (heartbeats + control replies) leave through
            // one writer thread, so no lock ever spans a socket write.
            let (out_tx, out_rx) = mpsc::channel::<WireMessage>();
            {
                let shared = Arc::clone(&shared);
                let interval = config.heartbeat_interval;
                let beat = WireMessage::Heartbeat {
                    worker: WorkerId::new(shard_id as usize),
                };
                std::thread::spawn(move || loop {
                    if shared.ended.load(Ordering::SeqCst) {
                        break;
                    }
                    let frame = match out_rx.recv_timeout(interval) {
                        Ok(frame) => frame,
                        Err(mpsc::RecvTimeoutError::Timeout) => beat.clone(),
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    };
                    if write_frame(&mut writer, &frame).is_err() {
                        break;
                    }
                });
            }
            {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    match read_frame(&mut reader) {
                        Ok(ReadOutcome::Frame(WireMessage::Failover(fc), _)) => match fc {
                            FailoverControl::Promote { server } => {
                                shared.serving.store(true, Ordering::SeqCst);
                                let version = {
                                    let locked = shared.host.lock();
                                    locked.store().version()
                                };
                                let replayed = shared.counters.absorbed.load(Ordering::Relaxed);
                                let _ =
                                    out_tx.send(WireMessage::Failover(FailoverControl::Promoted {
                                        server,
                                        version,
                                        replayed,
                                    }));
                            }
                            // Replies and worker-plane queries carry no
                            // instruction for a shard, and the rejoin
                            // handshake runs on the data plane, not here.
                            FailoverControl::Promoted { .. }
                            | FailoverControl::Register { .. }
                            | FailoverControl::QueryPrimary
                            | FailoverControl::Primary { .. }
                            | FailoverControl::JoinAsBackup { .. }
                            | FailoverControl::Snapshot(_)
                            | FailoverControl::BackupReady { .. } => {}
                        },
                        Ok(ReadOutcome::Frame(WireMessage::Shutdown, _))
                        | Ok(ReadOutcome::Closed)
                        | Err(_) => {
                            // Scheduler gone or told us to stop: either
                            // way the run is over for this process.
                            shared.ended.store(true, Ordering::SeqCst);
                            break;
                        }
                        Ok(ReadOutcome::Frame(_, _)) => {}
                    }
                });
            }
        }

        // Accepted streams run this process's chaos script (pass-through
        // when chaos is disabled); this thread only watches for the end.
        let acceptor = {
            let shared = Arc::clone(&shared);
            Acceptor::spawn(listener, &config, "shard-accept", move |stream, peer| {
                let shared = Arc::clone(&shared);
                let conn = FrameConn::from_chaos_stream(stream, peer.to_string());
                std::thread::spawn(move || serve_shard_conn(conn, &shared, io_timeout));
            })?
        };
        while !shared.stop.load(Ordering::SeqCst)
            && !shared.ended.load(Ordering::SeqCst)
            && !acceptor.is_finished()
        {
            std::thread::sleep(TICK);
        }
        acceptor.close();
        if shared.stop.load(Ordering::SeqCst) {
            // Halted: wait out the push that holds the relay lock, so the
            // counters below include exactly the acked pushes. Every later
            // push finds the flag set once it takes the lock.
            drop(shared.relay.lock());
        }
        shared.ended.store(true, Ordering::SeqCst);
        if let Some(link) = sched_link {
            let _ = link.shutdown(std::net::Shutdown::Both);
        }

        let counters = &shared.counters;
        let version = shared.host.lock().store().version();
        Ok(ShardStats {
            pulls_served: counters.pulls_served.load(Ordering::Relaxed),
            pushes_applied: counters.pushes_applied.load(Ordering::Relaxed),
            relayed: counters.relayed.load(Ordering::Relaxed),
            relay_drops: counters.relay_drops.load(Ordering::Relaxed),
            serving: shared.serving.load(Ordering::SeqCst),
            version,
        })
    }
}

/// One worker (or relay) connection to a shard: blocking frame loop, one
/// thread. Every frame is read into the connection's one receive buffer
/// behind relay-tag headroom and decoded there. Returning drops the
/// connection; the server survives. An accepted connection blocks without
/// a timeout until it sends `JoinAsBackup`; from then on it reads and
/// writes under `io_timeout`.
fn serve_shard_conn(mut conn: FrameConn, shared: &Shared, io_timeout: Duration) {
    loop {
        let Ok((frame, end)) = conn.recv_in_place(RELAY_TAG_FRAME_LEN) else {
            return;
        };
        // A halted server answers nothing more: the connection drops, and
        // a worker goes back to the scheduler for the primary.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let (worker, body, tag, end) = match frame {
            FrameRef::Push { worker, body } => (worker, body, None, end),
            FrameRef::Owned(WireMessage::RelayTag { seq, lr }) => {
                // A forwarded relay: the very next frame is the worker's
                // own `Push`, checksum-verified like any other, read over
                // the tag in the same buffer.
                let Ok((FrameRef::Push { worker, body }, end)) =
                    conn.recv_in_place(RELAY_TAG_FRAME_LEN)
                else {
                    return;
                };
                (worker, body, Some((seq, lr)), end)
            }
            FrameRef::Owned(WireMessage::Pull { worker }) => {
                // A backup refuses worker pulls: dropping the connection
                // sends the worker back to the scheduler's QueryPrimary.
                if !shared.serving.load(Ordering::SeqCst) {
                    return;
                }
                let encoded = {
                    let mut locked = shared.host.lock();
                    locked.encoded_pull_reply(worker)
                };
                let Ok((bytes, staleness)) = encoded else {
                    return;
                };
                // The serialized reply is written outside the host lock;
                // concurrent pullers of the same version share `bytes`.
                if conn.write_encoded(&bytes).is_err() {
                    return;
                }
                shared.counters.pulls_served.fetch_add(1, Ordering::Relaxed);
                shared.record(&Event::Pull { worker, staleness });
                continue;
            }
            FrameRef::Owned(WireMessage::Failover(FailoverControl::JoinAsBackup { .. })) => {
                // Only a serving primary provisions a joiner. Once the
                // joiner confirms parity, its connection replaces whatever
                // relay link this process had, timeouts and all.
                if conn.set_read_timeout(Some(io_timeout)).is_err()
                    || conn.set_write_timeout(Some(io_timeout)).is_err()
                {
                    return;
                }
                let mut relay = shared.relay.lock();
                if shared.serving.load(Ordering::SeqCst) && !shared.stop.load(Ordering::SeqCst) {
                    let snapshot = shared.host.lock().store_mut().snapshot_for_checkpoint();
                    if provision_joiner(&mut conn, snapshot).is_ok() {
                        *relay = Some(conn);
                    }
                }
                return;
            }
            FrameRef::Owned(WireMessage::Shutdown) => {
                shared.ended.store(true, Ordering::SeqCst);
                return;
            }
            // Tolerated no-ops on a data connection.
            FrameRef::Owned(WireMessage::Heartbeat { .. }) => continue,
            // Process-level failover is driven over the scheduler link;
            // a data connection carrying control frames is a protocol
            // error, as are reply/scheduler-plane frames and a relayed
            // push that did not arrive as a tag plus the worker's frame.
            FrameRef::RelayPush { .. }
            | FrameRef::PullReply { .. }
            | FrameRef::Owned(
                WireMessage::Failover(_)
                | WireMessage::Push { .. }
                | WireMessage::RelayPush { .. }
                | WireMessage::PullReply { .. }
                | WireMessage::PushAck { .. }
                | WireMessage::Notify { .. }
                | WireMessage::Abort { .. },
            ) => return,
        };
        let body = match body {
            PushBody::Dense(bytes) => Body::Dense(bytes.len()),
            PushBody::Sparse(grad) => Body::Sparse(grad),
        };
        let received = &mut conn.received()[..end];
        let Some(ack) = relay_and_apply(received, shared, worker, body, tag) else {
            return;
        };
        if conn.write(&ack).is_err() {
            return;
        }
    }
}

/// Relays, then applies, one push under the relay lock. `received` is the
/// receive buffer up to the end of the push's frame, behind relay-tag
/// headroom; `tag` is the relay tag of a push a backup absorbs, `None`
/// for a worker's own push, the only kind relayed on. Returns the ack;
/// `None` means the server is halted or the host refused the push, and
/// the connection is done. A decoded sparse gradient is freed here,
/// before the ack lets the client send its next push, so two never
/// coexist.
fn relay_and_apply(
    received: &mut [u8],
    shared: &Shared,
    worker: WorkerId,
    body: Body,
    tag: Option<(u64, f32)>,
) -> Option<WireMessage> {
    let mut relay = shared.relay.lock();
    if shared.stop.load(Ordering::SeqCst) {
        return None;
    }
    let counters = &shared.counters;
    if let (Some(link), None) = (relay.as_mut(), tag) {
        // Tag the relayed push with the version it will produce so the
        // backup can ack a redelivery without re-applying it. A push the
        // host will refuse is not relayed: the backup would refuse it too,
        // and the relay would drop with it.
        let relay_tag = shared.host.lock().relay_tag_of(body.gradient(received));
        // Write-ahead: the backup holds the push before the primary
        // applies it. A dead relay degrades to unreplicated serving
        // rather than stalling the run.
        if let Some((seq, lr)) = relay_tag {
            if forward_relay(link, seq, lr, received).is_ok() {
                counters.relayed.fetch_add(1, Ordering::Relaxed);
            } else {
                *relay = None;
                counters.relay_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let gradient = body.gradient(received);
    let ack = shared.host.lock().apply_push(worker, gradient, tag).ok()?;
    counters.pushes_applied.fetch_add(1, Ordering::Relaxed);
    // Traced before the ack, so whoever holds the ack can read the event.
    if !shared.serving.load(Ordering::SeqCst) {
        counters.absorbed.fetch_add(1, Ordering::Relaxed);
    } else if let (None, WireMessage::PushAck { version, .. }) = (tag, &ack) {
        shared.record(&Event::Push {
            worker,
            iteration: *version,
        });
    }
    Some(ack)
}

/// One write-ahead relay round trip. The tag frame fills the whole
/// headroom in front of the worker's frame in `received`, so tag and
/// frame leave in a single write — chaos fault scripts are indexed by
/// write op, and a relay must stay one op — and the backup's ack is
/// awaited.
fn forward_relay(
    conn: &mut FrameConn,
    seq: u64,
    lr: f32,
    received: &mut [u8],
) -> Result<(), NetError> {
    let tag = encode_frame(&WireMessage::RelayTag { seq, lr })?;
    received[..RELAY_TAG_FRAME_LEN].copy_from_slice(&tag);
    conn.write_encoded(received)?;
    conn.recv()?;
    Ok(())
}

/// Primary side of the rejoin: write the serving store's snapshot as one
/// frame and wait for the joiner to confirm it installed exactly that
/// version. `Ok` means the connection sits at the primary's version and
/// is safe to adopt as the write-ahead relay. The frame is encoded
/// outside the connection's send buffer, which would otherwise keep a
/// snapshot-sized allocation for as long as the relay lives.
fn provision_joiner(conn: &mut FrameConn, snapshot: StoreCheckpoint) -> Result<(), NetError> {
    let version = snapshot.version();
    let frame = encode_frame(&WireMessage::Failover(FailoverControl::Snapshot(snapshot)))?;
    conn.write_encoded(&frame)?;
    drop(frame);
    let (reply, _) = conn.recv()?;
    let WireMessage::Failover(FailoverControl::BackupReady { version: got, .. }) = reply else {
        return Err(NetError::UnexpectedReply {
            want: "BackupReady",
        });
    };
    if got != version {
        return Err(NetError::Unhandled {
            what: "joining backup confirmed the wrong version",
        });
    }
    Ok(())
}

/// Joiner side of the rejoin, driven before the shard registers with the
/// scheduler: announce intent, install the primary's snapshot once
/// [`ParameterStore::restore`] has checked it, and confirm the version it
/// holds. Returns that version. Any other reply, or a snapshot that
/// breaks a store invariant, fails the join with nothing installed.
fn join_cluster(
    conn: &mut FrameConn,
    shard_id: u64,
    local_addr: &str,
    host: &Arc<Mutex<ShardHost>>,
) -> Result<u64, NetError> {
    conn.write(&WireMessage::Failover(FailoverControl::JoinAsBackup {
        server: shard_id,
        addr: local_addr.to_string(),
    }))?;
    let (reply, _) = conn.recv()?;
    let WireMessage::Failover(FailoverControl::Snapshot(snapshot)) = reply else {
        return Err(NetError::UnexpectedReply { want: "Snapshot" });
    };
    let store = ParameterStore::restore(snapshot).map_err(|_| NetError::Unhandled {
        what: "the primary's snapshot breaks a store invariant",
    })?;
    let version = store.version();
    host.lock().install_store(store);
    conn.write(&WireMessage::Failover(FailoverControl::BackupReady {
        server: shard_id,
        version,
    }))?;
    Ok(version)
}

// ------------------------------------------------------------ scheduler

/// What drives a [`SchedulerServer`] besides the wire config.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Synchronization scheme (`Asp`, or `SpecSync` for speculation).
    pub scheme: SchemeKind,
    /// Expected worker count `m`.
    pub workers: usize,
    /// Wire-level knobs (heartbeat interval/timeout, I/O timeouts).
    pub net: NetConfig,
    /// Stop once this many total pushes have been notified (`None`: run
    /// until `max_duration`).
    pub stop_after_pushes: Option<u64>,
    /// Hard wall-clock budget for the run.
    pub max_duration: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            scheme: SchemeKind::specsync_adaptive(),
            workers: 4,
            net: NetConfig::default(),
            stop_after_pushes: None,
            max_duration: Duration::from_secs(60),
        }
    }
}

/// What a [`SchedulerServer::run`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerRunStats {
    /// Aborts (re-sync instructions) issued to workers.
    pub aborts_issued: u64,
    /// Warm-backup promotions completed.
    pub promotions: u64,
    /// Total pushes notified across workers.
    pub total_pushes: u64,
    /// Workers declared dead by heartbeat silence.
    pub workers_marked_dead: u64,
    /// Dead workers re-admitted by a later frame.
    pub rejoins: u64,
    /// Whether the push target was reached (vs the duration budget or the
    /// stop handle).
    pub completed: bool,
}

enum ConnEvent {
    Opened { id: usize, writer: ChaosStream },
    Frame { id: usize, frame: WireMessage },
    Closed { id: usize },
}

/// The SpecSync scheduler as an OS process: a [`SchedulerHost`] behind a
/// TCP listener. See the module docs for the event flow.
pub struct SchedulerServer {
    listener: TcpListener,
    local_addr: String,
    cfg: SchedulerConfig,
    sink: Arc<dyn EventSink<Duration>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for SchedulerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerServer")
            .field("addr", &self.local_addr)
            .field("workers", &self.cfg.workers)
            .finish_non_exhaustive()
    }
}

impl SchedulerServer {
    /// Binds the scheduler listener (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or an invalid configuration (including a
    /// zero-worker cluster).
    pub fn bind(addr: &str, cfg: SchedulerConfig) -> Result<Self, NetError> {
        cfg.net.try_validate().map_err(NetError::Config)?;
        if cfg.workers == 0 {
            return Err(NetError::Config(SpecSyncError::EmptyCluster));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?.to_string();
        Ok(SchedulerServer {
            listener,
            local_addr,
            cfg,
            sink: Arc::new(NullSink),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Routes protocol events (aborts, failovers, crashes) to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink<Duration>>) -> Self {
        self.sink = sink;
        self
    }

    /// The address the scheduler actually listens on.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// A handle that ends the run when set, as reaching the push target
    /// does — the twin of [`ShardServer::stop_handle`], except that the
    /// scheduler still broadcasts `Shutdown` on its way out.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves until the push target, the duration budget or the stop
    /// handle ends the run, then broadcasts `Shutdown` to every
    /// connection. Blocking.
    ///
    /// # Errors
    ///
    /// Listener I/O errors at startup.
    pub fn run(self) -> Result<SchedulerRunStats, NetError> {
        let SchedulerServer {
            listener,
            local_addr: _,
            cfg,
            sink,
            stop,
        } = self;
        let clock = WallElapsed::start();
        let (events_tx, events_rx) = unbounded::<ConnEvent>();

        // One reader thread per connection, all frames funneled into the
        // central loop's channel.
        let mut next_id = 0usize;
        let acceptor = Acceptor::spawn(listener, &cfg.net, "sched-accept", move |stream, _| {
            let id = next_id;
            next_id += 1;
            let Ok(writer) = stream.try_clone() else {
                return;
            };
            if events_tx.send(ConnEvent::Opened { id, writer }).is_err() {
                return;
            }
            let events_tx = events_tx.clone();
            let mut reader = stream;
            std::thread::spawn(move || loop {
                match read_frame(&mut reader) {
                    Ok(ReadOutcome::Frame(frame, _)) => {
                        if events_tx.send(ConnEvent::Frame { id, frame }).is_err() {
                            return;
                        }
                    }
                    Ok(ReadOutcome::Closed) | Err(_) => {
                        let _ = events_tx.send(ConnEvent::Closed { id });
                        return;
                    }
                }
            });
        })?;

        let stats = central_loop(&cfg, &clock, &sink, &events_rx, &stop);
        acceptor.close();
        Ok(stats)
    }
}

fn write_to(writers: &mut BTreeMap<usize, ChaosStream>, conn: usize, frame: &WireMessage) {
    if let Some(stream) = writers.get_mut(&conn) {
        if write_frame(stream, frame).is_err() {
            writers.remove(&conn);
        }
    }
}

/// The socket side of the scheduler: the one loop that owns every
/// connection's writer (so no socket write ever happens under a lock),
/// feeds the [`SchedulerHost`] and carries out what it asks for.
fn central_loop(
    cfg: &SchedulerConfig,
    clock: &WallElapsed,
    sink: &Arc<dyn EventSink<Duration>>,
    events_rx: &Receiver<ConnEvent>,
    stop: &AtomicBool,
) -> SchedulerRunStats {
    let mut host = SchedulerHost::new(cfg.scheme, cfg.workers, cfg.net.heartbeat_timeout);
    let mut writers: BTreeMap<usize, ChaosStream> = BTreeMap::new();
    // The host's output buffer, reused across inputs.
    let mut out: Vec<SchedOutput> = Vec::new();
    let mut completed = false;
    let mut event = None;
    loop {
        let now = clock.elapsed();
        match event {
            Some(ConnEvent::Opened { id, writer }) => {
                writers.insert(id, writer);
            }
            Some(ConnEvent::Frame { id, frame }) => host.frame(id, frame, now, &mut out),
            Some(ConnEvent::Closed { id }) => {
                writers.remove(&id);
                host.closed(id, now, &mut out);
            }
            None => {}
        }
        host.poll(now, &mut out);
        for output in out.drain(..) {
            match output {
                SchedOutput::ToConn(conn, frame) => write_to(&mut writers, conn, &frame),
                SchedOutput::Record(event) => sink.record(now, &event),
                SchedOutput::SampleCost => {
                    let done = clock.elapsed();
                    let nanos = done.saturating_sub(now).as_nanos().min(u64::MAX as u128) as u64;
                    sink.record(done, &Event::SchedCost { nanos });
                }
            }
        }
        if now >= cfg.max_duration || stop.load(Ordering::SeqCst) {
            break;
        }
        if cfg
            .stop_after_pushes
            .is_some_and(|target| host.total_pushes() >= target)
        {
            completed = true;
            break;
        }
        // A fixed `TICK` wake-up, not `next_deadline`: abort-delivery
        // latency is part of what `train_specsync` measures.
        event = match events_rx.recv_timeout(TICK) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
    }
    for stream in writers.values_mut() {
        let _ = write_frame(stream, &WireMessage::Shutdown);
    }
    SchedulerRunStats {
        aborts_issued: host.aborts_issued(),
        promotions: host.promotions(),
        total_pushes: host.total_pushes(),
        workers_marked_dead: host.workers_marked_dead(),
        rejoins: host.rejoins(),
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_WORKERS;
    use crate::wire::MessageSizes;
    use specsync_ps::PushPayload;

    fn host(dim: usize) -> ShardHost {
        ShardHost::new(ParameterStore::new(vec![0.0; dim], 2))
    }

    fn shard(id: u64, dim: usize) -> ShardServer {
        ShardServer::bind(id, "127.0.0.1:0", host(dim), NetConfig::default()).unwrap()
    }

    fn connect(addr: &str, cfg: &NetConfig) -> FrameConn {
        let seq = ConnSeq::new();
        FrameConn::connect_with_retries(addr, cfg, &ConnTarget::new("test", &seq, 0), |_| {})
            .unwrap()
    }

    /// Wire knobs for scheduler tests whose fake shards never heartbeat:
    /// only a closed connection may trigger a promotion, never silence,
    /// however slowly a loaded host runs the test.
    fn closes_only() -> NetConfig {
        NetConfig::builder()
            .heartbeat_timeout(Duration::from_secs(3600))
            .try_build()
            .unwrap()
    }

    /// Polls `QueryPrimary` until the scheduler names `addr` primary at
    /// `epoch`. Each connection has its own reader thread, so frames
    /// written on different connections reach the central loop in no
    /// particular order; this is the barrier that proves the frame which
    /// made `addr` primary has been processed. It polls on a connection
    /// of its own, so answers that arrive late die with it.
    fn await_primary(sched_addr: &str, addr: &str, epoch: u64) {
        let want = WireMessage::Failover(FailoverControl::Primary {
            addr: addr.into(),
            epoch,
        });
        let mut probe = connect(sched_addr, &NetConfig::default());
        // A query with no primary to name gets no reply at all.
        probe
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        loop {
            probe
                .write(&WireMessage::Failover(FailoverControl::QueryPrimary))
                .unwrap();
            if matches!(probe.recv(), Ok((answer, _)) if answer == want) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the scheduler never named {addr} primary at epoch {epoch}"
            );
        }
    }

    /// One `QueryPrimary` round trip on `conn` itself: frames of one
    /// connection are handled in order, so the answer proves everything
    /// written on `conn` before it has been processed. Needs a known
    /// primary (see [`await_primary`]) or no answer ever comes.
    fn flush(conn: &mut FrameConn) {
        let (answer, _, _) = conn
            .exchange(&WireMessage::Failover(FailoverControl::QueryPrimary))
            .unwrap();
        assert!(
            matches!(
                answer,
                WireMessage::Failover(FailoverControl::Primary { .. })
            ),
            "want Primary, got {answer:?}"
        );
    }

    #[test]
    fn shard_serves_pull_and_push_over_tcp() {
        let server = shard(0, 8);
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let cfg = NetConfig::default();
        let mut conn = connect(&addr, &cfg);
        let w = WorkerId::new(0);
        let (reply, _, _) = conn
            .exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 8]),
            })
            .unwrap();
        assert_eq!(
            reply,
            WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            }
        );
        let (reply, _, _) = conn.exchange(&WireMessage::Pull { worker: w }).unwrap();
        let WireMessage::PullReply { version, params } = reply else {
            panic!("want PullReply, got {reply:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(params.len(), 8);
        drop(conn);

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(stats.pulls_served, 1);
        assert_eq!(stats.pushes_applied, 1);
        assert_eq!(stats.version, 1);
        assert!(stats.serving);
    }

    #[test]
    fn a_halted_shard_answers_no_connected_client() {
        let server = shard(0, 4);
        let addr = server.local_addr().to_string();
        let host = Arc::clone(&server.shared.host);
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut conn = connect(&addr, &NetConfig::default());
        let push = WireMessage::Push {
            worker: WorkerId::new(0),
            payload: PushPayload::Dense(vec![1.0; 4]),
        };
        for version in 1..=2 {
            let (ack, _, _) = conn.exchange(&push).unwrap();
            assert!(matches!(ack, WireMessage::PushAck { version: v, .. } if v == version));
        }
        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert!(conn.exchange(&push).is_err(), "a halted shard acked a push");
        assert_eq!((stats.pushes_applied, stats.version), (2, 2));
        assert_eq!(host.lock().store().version(), 2, "nor applied it");
    }

    #[test]
    fn a_hostile_worker_id_drops_its_connection_not_the_shard() {
        let server = shard(0, 8);
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // Decoded as-is, this 29-byte frame would have the store size its
        // per-worker tables to 2^32 entries and abort the process.
        let mut hostile = connect(&addr, &NetConfig::default());
        let worker = WorkerId::new(u32::MAX as usize);
        hostile.write(&WireMessage::Pull { worker }).unwrap();
        assert!(hostile.recv().is_err(), "the connection must be dropped");

        // An honest client still gets served by the same server.
        let mut conn = connect(&addr, &NetConfig::default());
        let w = WorkerId::new(0);
        let (reply, _, _) = conn.exchange(&WireMessage::Pull { worker: w }).unwrap();
        assert!(matches!(reply, WireMessage::PullReply { version: 0, .. }));
        let (reply, _, _) = conn
            .exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 8]),
            })
            .unwrap();
        assert!(matches!(reply, WireMessage::PushAck { version: 1, .. }));
        drop(conn);

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(stats.pulls_served, 1);
        assert_eq!(stats.pushes_applied, 1);
    }

    /// A push whose gradient is not the model's dimension, or that comes
    /// while the schedule's rate is not finite, is refused under the relay
    /// lock, which the next push takes as usual, and is not relayed, so
    /// the backup link lives on too: that connection drops, and the next
    /// honest push is relayed and applied.
    #[test]
    fn a_push_of_the_wrong_dimension_drops_its_connection_not_the_shard() {
        let backup = shard(1, 8).as_backup();
        let backup_addr = backup.local_addr().to_string();
        let backup_stop = backup.stop_handle();
        let backup_handle = std::thread::spawn(move || backup.run().unwrap());
        let nan = Arc::new(AtomicBool::new(false));
        let rate = Arc::clone(&nan);
        let host = host(8).with_lr_fn(move |_| {
            if rate.load(Ordering::SeqCst) {
                f32::NAN
            } else {
                1.0
            }
        });
        let primary = ShardServer::bind(0, "127.0.0.1:0", host, NetConfig::default())
            .unwrap()
            .with_backup_relay(&backup_addr);
        let addr = primary.local_addr().to_string();
        let stop = primary.stop_handle();
        let handle = std::thread::spawn(move || primary.run().unwrap());
        let push = |dim| WireMessage::Push {
            worker: WorkerId::new(0),
            payload: PushPayload::Dense(vec![1.0; dim]),
        };

        let mut hostile = connect(&addr, &NetConfig::default());
        assert!(hostile.exchange(&push(9)).is_err(), "the push was acked");
        nan.store(true, Ordering::SeqCst);
        let mut at_nan = connect(&addr, &NetConfig::default());
        assert!(at_nan.exchange(&push(8)).is_err(), "the NaN push was acked");
        nan.store(false, Ordering::SeqCst);
        let mut conn = connect(&addr, &NetConfig::default());
        let (reply, _, _) = conn.exchange(&push(8)).unwrap();
        assert!(matches!(reply, WireMessage::PushAck { version: 1, .. }));
        drop(conn);

        stop.store(true, Ordering::SeqCst);
        backup_stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!((stats.pushes_applied, stats.version), (1, 1));
        assert_eq!((stats.relayed, stats.relay_drops), (1, 0));
        assert_eq!(backup_handle.join().unwrap().version, 1);
    }

    /// The stop handle's promise with more than one connection: halted
    /// under concurrent pushers, a relayed primary reports exactly the
    /// pushes its clients saw acked, and its backup holds each of them.
    #[test]
    fn halting_a_relayed_primary_under_concurrent_pushers_counts_exactly_the_acked_pushes() {
        let backup = shard(1, 8).as_backup();
        let backup_addr = backup.local_addr().to_string();
        let backup_stop = backup.stop_handle();
        let backup_handle = std::thread::spawn(move || backup.run().unwrap());
        let primary = shard(0, 8).with_backup_relay(&backup_addr);
        let addr = primary.local_addr().to_string();
        let stop = primary.stop_handle();
        let handle = std::thread::spawn(move || primary.run().unwrap());

        // Each client pushes until its connection drops, counting acks.
        let acks = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = (0..4)
            .map(|w| {
                let (mut conn, acks) = (connect(&addr, &NetConfig::default()), Arc::clone(&acks));
                let push = WireMessage::Push {
                    worker: WorkerId::new(w),
                    payload: PushPayload::Dense(vec![1.0; 8]),
                };
                std::thread::spawn(move || {
                    while let Ok((WireMessage::PushAck { .. }, _, _)) = conn.exchange(&push) {
                        acks.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while acks.load(Ordering::SeqCst) < 40 {
            assert!(std::time::Instant::now() < deadline, "too few acks");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        clients.into_iter().for_each(|c| c.join().unwrap());
        backup_stop.store(true, Ordering::SeqCst);
        let backup = backup_handle.join().unwrap();
        let acked = acks.load(Ordering::SeqCst);
        assert_eq!((stats.pushes_applied, stats.version), (acked, acked));
        assert_eq!(
            (stats.relayed, stats.relay_drops, backup.version),
            (acked, 0, acked)
        );
    }

    #[test]
    fn a_zero_worker_scheduler_is_refused_at_bind() {
        let cfg = SchedulerConfig {
            workers: 0,
            ..SchedulerConfig::default()
        };
        assert!(matches!(
            SchedulerServer::bind("127.0.0.1:0", cfg),
            Err(NetError::Config(SpecSyncError::EmptyCluster))
        ));
    }

    #[test]
    fn primary_relays_pushes_to_backup_before_applying() {
        let backup = shard(1, 4).as_backup();
        let backup_addr = backup.local_addr().to_string();
        let backup_stop = backup.stop_handle();
        let backup_handle = std::thread::spawn(move || backup.run().unwrap());

        let primary = shard(0, 4).with_backup_relay(&backup_addr);
        let primary_addr = primary.local_addr().to_string();
        let primary_stop = primary.stop_handle();
        let primary_handle = std::thread::spawn(move || primary.run().unwrap());

        let cfg = NetConfig::default();
        let mut conn = connect(&primary_addr, &cfg);
        let w = WorkerId::new(0);
        for i in 1..=3u64 {
            let (reply, _, _) = conn
                .exchange(&WireMessage::Push {
                    worker: w,
                    payload: PushPayload::Dense(vec![1.0; 4]),
                })
                .unwrap();
            assert_eq!(
                reply,
                WireMessage::PushAck {
                    version: i,
                    pushes_by_worker: i
                }
            );
        }
        // A pull against the backup is refused while it is not serving:
        // the connection just closes.
        let mut bconn = connect(&backup_addr, &cfg);
        bconn.write(&WireMessage::Pull { worker: w }).unwrap();
        assert!(bconn.recv().is_err());
        drop(conn);

        primary_stop.store(true, Ordering::SeqCst);
        backup_stop.store(true, Ordering::SeqCst);
        let pstats = primary_handle.join().unwrap();
        let bstats = backup_handle.join().unwrap();
        assert_eq!(pstats.relayed, 3);
        assert_eq!(pstats.relay_drops, 0);
        assert_eq!(pstats.version, 3);
        // The backup absorbed the same three pushes, in order.
        assert_eq!(bstats.pushes_applied, 3);
        assert_eq!(bstats.version, 3);
        assert!(!bstats.serving);
    }

    #[test]
    fn a_lost_relay_is_counted_and_later_pushes_are_still_acked_once() {
        // A backup that absorbs two relays and then goes away mid-run.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let backup_addr = listener.local_addr().unwrap().to_string();
        let backup = std::thread::spawn(move || {
            let (stream, peer) = listener.accept().unwrap();
            let mut conn = FrameConn::from_stream(stream, peer.to_string());
            for seq in 1..=2u64 {
                let (tag, _) = conn.recv().unwrap();
                assert!(matches!(tag, WireMessage::RelayTag { seq: s, .. } if s == seq));
                let (push, _) = conn.recv().unwrap();
                assert!(matches!(push, WireMessage::Push { .. }));
                conn.write(&WireMessage::PushAck {
                    version: seq,
                    pushes_by_worker: seq,
                })
                .unwrap();
            }
        });

        let primary = shard(0, 4).with_backup_relay(&backup_addr);
        let primary_addr = primary.local_addr().to_string();
        let primary_stop = primary.stop_handle();
        let primary_handle = std::thread::spawn(move || primary.run().unwrap());

        let mut conn = connect(&primary_addr, &NetConfig::default());
        for i in 1..=5u64 {
            let (reply, _, _) = conn
                .exchange(&WireMessage::Push {
                    worker: WorkerId::new(0),
                    payload: PushPayload::Dense(vec![1.0; 4]),
                })
                .unwrap();
            assert_eq!(
                reply,
                WireMessage::PushAck {
                    version: i,
                    pushes_by_worker: i
                },
                "push {i} is acked exactly once, relay or no relay"
            );
        }
        backup.join().unwrap();
        drop(conn);

        primary_stop.store(true, Ordering::SeqCst);
        let stats = primary_handle.join().unwrap();
        assert_eq!(stats.relayed, 2);
        assert_eq!(stats.relay_drops, 1, "the loss leaves a trace");
        assert_eq!(stats.pushes_applied, 5);
        assert_eq!(stats.version, 5);
    }

    #[test]
    fn scheduler_answers_query_primary_and_promotes_on_close() {
        let sched = SchedulerServer::bind(
            "127.0.0.1:0",
            SchedulerConfig {
                workers: 1,
                stop_after_pushes: Some(1),
                max_duration: Duration::from_secs(20),
                net: closes_only(),
                ..SchedulerConfig::default()
            },
        )
        .unwrap();
        let sched_addr = sched.local_addr().to_string();
        let handle = std::thread::spawn(move || sched.run().unwrap());
        let cfg = NetConfig::default();

        // A fake primary registers, then a fake backup.
        let mut primary = connect(&sched_addr, &cfg);
        primary
            .write(&WireMessage::Failover(FailoverControl::Register {
                server: 0,
                backup: false,
                addr: "127.0.0.1:7000".into(),
            }))
            .unwrap();
        let mut backup = connect(&sched_addr, &cfg);
        backup
            .write(&WireMessage::Failover(FailoverControl::Register {
                server: 1,
                backup: true,
                addr: "127.0.0.1:7001".into(),
            }))
            .unwrap();

        // A worker asks where the primary is; the backup's registration
        // has landed too before the crash below.
        await_primary(&sched_addr, "127.0.0.1:7000", 0);
        flush(&mut backup);

        // The primary dies: its connection closes, the scheduler sends
        // Promote to the backup, the backup answers Promoted.
        drop(primary);
        let (promote, _) = backup.recv().unwrap();
        assert_eq!(
            promote,
            WireMessage::Failover(FailoverControl::Promote { server: 1 })
        );
        backup
            .write(&WireMessage::Failover(FailoverControl::Promoted {
                server: 1,
                version: 42,
                replayed: 5,
            }))
            .unwrap();

        // The worker re-queries and sees the new primary at epoch 1.
        await_primary(&sched_addr, "127.0.0.1:7001", 1);

        // Tear down: one notified push reaches the stop target, and the
        // central loop broadcasts Shutdown and returns.
        drop(backup);
        let mut closer = connect(&sched_addr, &cfg);
        closer
            .write(&WireMessage::Notify {
                worker: WorkerId::new(0),
                pushes: 1,
            })
            .unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.promotions, 1);
        assert!(stats.completed);
    }

    #[test]
    fn fresh_shard_rejoins_over_the_wire_and_relays_live_pushes() {
        let primary = shard(0, 16);
        let primary_addr = primary.local_addr().to_string();
        let primary_stop = primary.stop_handle();
        let primary_handle = std::thread::spawn(move || primary.run().unwrap());

        let cfg = NetConfig::default();
        let mut conn = connect(&primary_addr, &cfg);
        let w = WorkerId::new(0);
        for _ in 0..5 {
            conn.exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 16]),
            })
            .unwrap();
        }

        // A fresh process provisions itself from the live primary.
        let joiner = ShardServer::bind(2, "127.0.0.1:0", host(16), NetConfig::default())
            .unwrap()
            .as_backup()
            .join_via(&primary_addr);
        let joiner_host = Arc::clone(&joiner.shared.host);
        let joiner_stop = joiner.stop_handle();
        let joiner_handle = std::thread::spawn(move || joiner.run().unwrap());

        // Wait for the snapshot of the 5 pushes above to land. The
        // primary streamed it under its relay lock, so every push sent
        // after this queues behind the join and reaches the joiner as a
        // live relay.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while joiner_host.lock().store().version() < 5 {
            assert!(
                std::time::Instant::now() < deadline,
                "the snapshot never arrived"
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        // Post-join pushes travel as live write-ahead relays down the
        // join connection before they are applied or acked, so each ack
        // below implies the backup already holds the push.
        for _ in 0..3 {
            conn.exchange(&WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![1.0; 16]),
            })
            .unwrap();
        }
        drop(conn);

        primary_stop.store(true, Ordering::SeqCst);
        joiner_stop.store(true, Ordering::SeqCst);
        let pstats = primary_handle.join().unwrap();
        let bstats = joiner_handle.join().unwrap();
        assert_eq!(pstats.version, 8);
        assert_eq!(pstats.relayed, 3, "only the live pushes are relayed");
        assert_eq!(
            bstats.version, 8,
            "the joiner must end at the primary's exact version"
        );
        assert_eq!(bstats.pushes_applied, 3);
        assert!(!bstats.serving);
    }

    /// A primary whose reply the joiner cannot install — a snapshot that
    /// breaks a store invariant, or no snapshot at all: the joiner's `run`
    /// fails at once instead of reading until its I/O timeout, and its
    /// store is never touched (no half-installed backup).
    #[test]
    fn a_joiner_refuses_a_snapshot_that_breaks_a_store_invariant_at_once() {
        let snapshot = |edit: fn(&mut StoreCheckpoint)| {
            let mut store = ParameterStore::new(vec![0.5; 4], 2).with_momentum(0.5);
            store.apply_push(WorkerId::new(0), &[1.0; 4], 0.1);
            store.apply_push(WorkerId::new(1), &[1.0; 4], 0.1);
            let mut snapshot = store.snapshot_for_checkpoint();
            edit(&mut snapshot);
            WireMessage::Failover(FailoverControl::Snapshot(snapshot))
        };
        let rows = [
            snapshot(|s| s.velocity.truncate(3)),
            snapshot(|s| s.version += 1),
            snapshot(|s| s.num_shards = 0),
            snapshot(|s| s.last_pull_version.push(0)),
            WireMessage::Failover(FailoverControl::BackupReady {
                server: 0,
                version: 0,
            }),
        ];
        let cfg = NetConfig::default();
        for reply in rows {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let fake = listener.local_addr().unwrap().to_string();
            let joiner = ShardServer::bind(2, "127.0.0.1:0", host(4), cfg.clone())
                .unwrap()
                .as_backup()
                .join_via(&fake);
            let joiner_host = Arc::clone(&joiner.shared.host);
            let begun = std::time::Instant::now();
            let joiner = std::thread::spawn(move || joiner.run());
            let (stream, peer) = listener.accept().unwrap();
            let mut conn = FrameConn::from_stream(stream, peer.to_string());
            let (join, _) = conn.recv().unwrap();
            assert!(matches!(
                join,
                WireMessage::Failover(FailoverControl::JoinAsBackup { server: 2, .. })
            ));
            conn.write(&reply).unwrap();
            let result = joiner.join().unwrap();
            assert!(result.is_err(), "{reply:?} must be refused");
            assert!(
                begun.elapsed() < cfg.io_timeout / 2,
                "{reply:?} was refused only after {:?}",
                begun.elapsed()
            );
            assert_eq!(joiner_host.lock().store().version(), 0, "{reply:?}");
        }
    }

    /// A joiner that reads the snapshot and never answers holds the relay
    /// lock for one `io_timeout` of the primary, not for good: a push that
    /// queued behind it is acked, unrelayed, and a halt still returns.
    #[test]
    fn a_silent_joiner_does_not_stall_the_primary() {
        let pcfg = NetConfig::builder()
            .io_timeout(Duration::from_millis(300))
            .try_build()
            .unwrap();
        let primary = ShardServer::bind(0, "127.0.0.1:0", host(4), pcfg).unwrap();
        let addr = primary.local_addr().to_string();
        let stop = primary.stop_handle();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(primary.run().unwrap()));

        let mut joiner = connect(&addr, &NetConfig::default());
        joiner
            .write(&WireMessage::Failover(FailoverControl::JoinAsBackup {
                server: 2,
                addr: "127.0.0.1:9".into(),
            }))
            .unwrap();
        let (snapshot, _) = joiner.recv().unwrap();
        assert!(matches!(
            snapshot,
            WireMessage::Failover(FailoverControl::Snapshot(_))
        ));

        // The worker keeps the default 10 s timeout: the primary's own
        // must be what frees it.
        let mut worker = connect(&addr, &NetConfig::default());
        let begun = std::time::Instant::now();
        let (ack, _, _) = worker
            .exchange(&WireMessage::Push {
                worker: WorkerId::new(0),
                payload: PushPayload::Dense(vec![1.0; 4]),
            })
            .unwrap();
        assert!(matches!(ack, WireMessage::PushAck { version: 1, .. }));
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "the push was acked only after {:?}",
            begun.elapsed()
        );

        stop.store(true, Ordering::SeqCst);
        let stats = done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("a halted primary returns");
        assert_eq!((stats.pushes_applied, stats.relayed), (1, 0));
        drop(joiner);
    }

    #[test]
    fn a_hostile_worker_id_does_not_stop_the_scheduler() {
        let sched = SchedulerServer::bind(
            "127.0.0.1:0",
            SchedulerConfig {
                workers: 1,
                stop_after_pushes: Some(1),
                max_duration: Duration::from_secs(20),
                ..SchedulerConfig::default()
            },
        )
        .unwrap();
        let sched_addr = sched.local_addr().to_string();
        let handle = std::thread::spawn(move || sched.run());

        // Well-formed frames naming workers the cluster does not have:
        // dropped at the host's door, on the same connection that then
        // speaks for a real worker.
        let mut conn = connect(&sched_addr, &NetConfig::default());
        for worker in [99, MAX_WORKERS as usize - 1] {
            let worker = WorkerId::new(worker);
            conn.write(&WireMessage::Heartbeat { worker }).unwrap();
            conn.write(&WireMessage::Pull { worker }).unwrap();
        }
        conn.write(&WireMessage::Notify {
            worker: WorkerId::new(0),
            pushes: 1,
        })
        .unwrap();
        let stats = handle
            .join()
            .expect("the central loop must survive a hostile frame")
            .unwrap();
        assert!(stats.completed);
        assert_eq!(stats.total_pushes, 1);
    }

    #[test]
    fn a_long_adaptive_run_traces_eviction_and_scheduler_cost() {
        const EPOCHS: u64 = 14;
        let memory = Arc::new(specsync_telemetry::InMemorySink::new());
        let sched = SchedulerServer::bind(
            "127.0.0.1:0",
            SchedulerConfig {
                workers: 2,
                stop_after_pushes: Some(2 * EPOCHS),
                max_duration: Duration::from_secs(20),
                ..SchedulerConfig::default()
            },
        )
        .unwrap()
        .with_sink(memory.clone());
        let sched_addr = sched.local_addr().to_string();
        let handle = std::thread::spawn(move || sched.run().unwrap());

        // One connection, so the frames are handled in the order written.
        let mut conn = connect(&sched_addr, &NetConfig::default());
        for pushes in 1..=EPOCHS {
            for w in 0..2 {
                let worker = WorkerId::new(w);
                conn.write(&WireMessage::Pull { worker }).unwrap();
                conn.write(&WireMessage::Notify { worker, pushes }).unwrap();
            }
        }
        let stats = handle.join().unwrap();
        assert!(stats.completed);

        let events = memory.events();
        let tuned = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::EpochTuned { .. }))
            .count() as u64;
        assert_eq!(tuned, EPOCHS);
        // The history keeps the tuner's lookback and sheds the rest, an
        // epoch's worth at a time.
        let evictions: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::HistoryEvicted {
                    pushes, retained, ..
                } => Some((*pushes, *retained)),
                _ => None,
            })
            .collect();
        assert!(evictions.len() >= 8, "evicted only {evictions:?}");
        assert!(evictions.iter().all(|&(_, retained)| retained <= 2 * 5));
        assert!(evictions.iter().map(|&(pushes, _)| pushes).sum::<u64>() >= 2 * 8);
        // 28 notifies: the 16th is sampled.
        let costs = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::SchedCost { .. }))
            .count();
        assert_eq!(costs, 1);
    }

    #[test]
    fn message_sizes_reexport_is_reachable() {
        // Guard the consolidated location: transfer accounting now lives
        // beside the wire vocabulary.
        let sizes = MessageSizes::for_model(1_000);
        assert_eq!(sizes.pull_bytes, 4_000);
    }

    /// `n` fresh connections to `addr`, one after another, each closed
    /// once `request` is answered: how long each took from its connect to
    /// its reply, sorted.
    fn first_replies(addr: &str, request: &WireMessage, n: u32) -> Vec<Duration> {
        let mut took: Vec<Duration> = (0..n)
            .map(|_| {
                let begun = std::time::Instant::now();
                let mut conn = connect(addr, &NetConfig::default());
                conn.exchange(request).unwrap();
                begun.elapsed()
            })
            .collect();
        took.sort();
        took
    }

    /// Both servers hand a connection to its handler the moment it
    /// arrives: 20 fresh connections are answered in well under the 20
    /// `TICK`s an accept loop that polled every `TICK` spent on them.
    #[test]
    fn fresh_connections_are_answered_without_waiting_for_a_tick() {
        const CONNS: u32 = 20;
        let shard = shard(0, 8);
        let shard_addr = shard.local_addr().to_string();
        let stop = shard.stop_handle();
        let shard = std::thread::spawn(move || shard.run().unwrap());
        let sched = SchedulerServer::bind(
            "127.0.0.1:0",
            SchedulerConfig {
                workers: 1,
                net: closes_only(),
                ..SchedulerConfig::default()
            },
        )
        .unwrap();
        let sched_addr = sched.local_addr().to_string();
        let sched_stop = sched.stop_handle();
        let sched = std::thread::spawn(move || sched.run().unwrap());
        let mut primary = connect(&sched_addr, &NetConfig::default());
        primary
            .write(&WireMessage::Failover(FailoverControl::Register {
                server: 0,
                backup: false,
                addr: shard_addr.clone(),
            }))
            .unwrap();
        await_primary(&sched_addr, &shard_addr, 0);

        let pull = WireMessage::Pull {
            worker: WorkerId::new(0),
        };
        let query = WireMessage::Failover(FailoverControl::QueryPrimary);
        for (server, addr, request) in [
            ("shard", &shard_addr, &pull),
            ("scheduler", &sched_addr, &query),
        ] {
            let took = first_replies(addr, request, CONNS);
            let total: Duration = took.iter().sum();
            println!(
                "{server}: first reply on a fresh connection, median {:?}, {CONNS} in {total:?}",
                took[took.len() / 2]
            );
            assert!(
                total < TICK * CONNS / 2,
                "{CONNS} fresh connections to the {server} took {total:?}"
            );
        }

        stop.store(true, Ordering::SeqCst);
        assert_eq!(shard.join().unwrap().pulls_served, u64::from(CONNS));
        sched_stop.store(true, Ordering::SeqCst);
        sched.join().unwrap();
    }

    /// Waits at most a second for `run` to report through `done`, then
    /// checks that `addr` refuses connections: the acceptor has been
    /// joined and the listener dropped.
    fn returns_with_its_port_closed<T>(done: &mpsc::Receiver<T>, addr: &str) -> T {
        let stats = done
            .recv_timeout(Duration::from_secs(1))
            .expect("run returns within a second of its end");
        assert!(
            TcpStream::connect(addr).is_err(),
            "{addr} still accepts after run returned"
        );
        stats
    }

    #[test]
    fn an_idle_shard_and_a_finished_scheduler_return_with_their_ports_closed() {
        // A shard no client ever connected to, halted.
        let idle = shard(0, 4);
        let addr = idle.local_addr().to_string();
        let stop = idle.stop_handle();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(idle.run().unwrap()));
        std::thread::sleep(TICK * 4);
        stop.store(true, Ordering::SeqCst);
        let stats = returns_with_its_port_closed(&done_rx, &addr);
        assert_eq!((stats.pulls_served, stats.pushes_applied), (0, 0));

        // A scheduler that reaches its push target.
        let sched = SchedulerServer::bind(
            "127.0.0.1:0",
            SchedulerConfig {
                workers: 1,
                stop_after_pushes: Some(1),
                ..SchedulerConfig::default()
            },
        )
        .unwrap();
        let addr = sched.local_addr().to_string();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(sched.run().unwrap()));
        let mut worker = connect(&addr, &NetConfig::default());
        worker
            .write(&WireMessage::Notify {
                worker: WorkerId::new(0),
                pushes: 1,
            })
            .unwrap();
        assert!(returns_with_its_port_closed(&done_rx, &addr).completed);
        let (shutdown, _) = worker.recv().unwrap();
        assert_eq!(shutdown, WireMessage::Shutdown);
    }

    /// The wake that ends the acceptor must not be refused and swallowed
    /// by the chaos layer: on an accept plane scripted to refuse every
    /// connection after the first, the stop handle still ends the run.
    #[test]
    fn a_stop_ends_a_run_whose_accept_plane_refuses_every_connection() {
        let chaos = crate::chaos::NetChaos {
            seed: 7,
            connect_refusals: u32::MAX,
            ..crate::chaos::NetChaos::disabled()
        };
        let cfg = NetConfig::builder().chaos(chaos).try_build().unwrap();
        let server = ShardServer::bind(0, "127.0.0.1:0", host(4), cfg).unwrap();
        let addr = server.local_addr().to_string();
        let stop = server.stop_handle();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(server.run().unwrap()));

        // The first connection of the plane is served; the next is refused.
        let pull = WireMessage::Pull {
            worker: WorkerId::new(0),
        };
        let mut first = connect(&addr, &NetConfig::default());
        assert!(matches!(
            first.exchange(&pull).unwrap().0,
            WireMessage::PullReply { .. }
        ));
        let mut refused = connect(&addr, &NetConfig::default());
        assert!(
            refused.exchange(&pull).is_err(),
            "the second connection was served"
        );

        stop.store(true, Ordering::SeqCst);
        let stats = returns_with_its_port_closed(&done_rx, &addr);
        assert_eq!(stats.pulls_served, 1);
    }
}
