//! The process-level hosts: a TCP shard server fronting a [`ShardHost`]
//! and a TCP scheduler server fronting a [`SchedulerHost`] —
//! together they let the roles of the paper's Fig. 7 run as separate OS
//! processes on one host.
//!
//! # Shard server
//!
//! A blocking accept loop hands each connection to its own thread.
//! Pulls are served from the host's per-version encoded-frame cache
//! (serialize once, share the bytes across every concurrent client);
//! pushes funnel through a **single apply thread**, which write-ahead
//! relays each push to the warm-backup process *before* applying it
//! locally — one thread doing both means relay order equals apply
//! order, so the backup replays the primary's exact sequence. A relay is
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
//! The apply thread also owns **backup (re)provisioning**, in two
//! phases: a fresh process connects and sends `JoinAsBackup`; the apply
//! thread streams it a `StoreCheckpoint` of the serving store in bounded
//! `SnapshotChunk` frames, and the joiner answers `BackupReady` with the
//! version it installed. Because live pushes queue behind the join command
//! on the same channel, the snapshot is a clean cut of the push order —
//! every later push reaches the new backup as a live relay down the very
//! same connection, so there is no tail to replay.
//!
//! A shard ends two ways. The scheduler's `Shutdown` ends the run
//! gracefully: the server stops accepting and reports its counters, but
//! answers its connected clients until they hang up, so a worker
//! mid-exchange still gets its reply. The [stop handle] halts it, the
//! in-process twin of killing the process: every connection drops at its
//! next frame unanswered, the apply thread finishes the push it is on and
//! refuses the rest, and the scheduler link closes, which is what tells
//! the scheduler to promote the backup.
//!
//! [stop handle]: ShardServer::stop_handle
//!
//! # Scheduler server
//!
//! One central loop owns every connection's writer and drives the sans-IO
//! [`SchedulerHost`], which holds all protocol state. Frames arrive over a
//! channel from per-connection reader threads; each goes into the host
//! stamped with the elapsed time, and the loop carries out what the host
//! asks for (frames to write, events to record). Every `tick` the loop
//! also lets the host fire due speculation windows and sweep liveness.
//! The host detects a dead primary shard two ways (its connection closing,
//! or heartbeat silence past the timeout) and promotes the warm backup by
//! sending `Failover(Promote)` down the backup's registered connection;
//! the backup's `Promoted` reply flips the advertised primary address and
//! bumps the promotion epoch that reconnecting workers see.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use specsync_core::SpecSyncError;
use specsync_ps::{ParameterStore, ReplicatedStore, StoreCheckpoint};
use specsync_simnet::WorkerId;
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, EventSink, NullSink};

use crate::chaos::{ChaosListener, ChaosStream, ConnSeq};
use crate::config::NetConfig;
use crate::error::NetError;
use crate::frame::{encode_frame, read_frame, write_frame, ReadOutcome, RELAY_TAG_FRAME_LEN};
use crate::host::ShardHost;
use crate::sched_host::{SchedOutput, SchedulerHost};
use crate::transport::WallElapsed;
use crate::transport::{ConnTarget, FrameConn};
use crate::wire::{FailoverControl, WireMessage};

// ---------------------------------------------------------------- shard

/// Counters a [`ShardServer`] accumulates; cheap atomics shared across
/// connection threads.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pulls_served: AtomicU64,
    pushes_applied: AtomicU64,
    relayed: AtomicU64,
    relay_drops: AtomicU64,
    checkpoints_written: AtomicU64,
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
    /// Checkpoints persisted (see [`ShardServer::with_checkpoint`]).
    pub checkpoints_written: u64,
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
    /// Whether this process currently serves workers (primaries start
    /// `true`, warm backups `false` until promoted).
    serving: AtomicBool,
    /// The stop handle's flag: set, the server halts.
    stop: Arc<AtomicBool>,
    /// Set when the run is over, however it ended: the accept loop and the
    /// scheduler heartbeat stop, and connections are still answered.
    ended: AtomicBool,
    counters: ShardCounters,
    sink: Arc<dyn EventSink<Duration>>,
    clock: WallElapsed,
    checkpoint: Option<(PathBuf, u64)>,
}

impl Shared {
    fn record(&self, event: &Event) {
        self.sink.record(self.clock.elapsed(), event);
    }

    /// Persists the serving store if `version` is due: encoded, written
    /// to `<path>.tmp` and renamed into place, so a crash mid-write never
    /// leaves a torn checkpoint. Called on the apply thread, so no push
    /// lands between the apply that made `version` and the snapshot.
    fn checkpoint(&self, version: u64) {
        let due = self.checkpoint.as_ref();
        let Some((path, _)) = due.filter(|(_, every)| version.is_multiple_of(*every)) else {
            return;
        };
        let snapshot = {
            let mut locked = self.host.lock();
            locked
                .replica_mut()
                .serving_store_mut()
                .snapshot_for_checkpoint()
        };
        let blob = snapshot.encode();
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, &blob)
            .and_then(|()| std::fs::rename(&tmp, path))
            .is_ok()
        {
            self.counters
                .checkpoints_written
                .fetch_add(1, Ordering::Relaxed);
            let bytes = blob.len() as u64;
            self.record(&Event::CheckpointWritten { version, bytes });
        }
    }
}

/// What the single apply thread consumes: push-class frames in arrival
/// order, interleaved with join requests from re-provisioning backups.
enum ApplyCmd {
    /// A push to relay-then-apply, with the accepting connection thread's
    /// reply channel. A worker's `Push` comes with the bytes it arrived as
    /// (relay-tag headroom in front), which is what the relay forwards; a
    /// `RelayPush` a backup absorbs has none and is never relayed on.
    Frame(WireMessage, Option<Vec<u8>>, Sender<WireMessage>),
    /// A joining backup's connection: stream it a snapshot of the serving
    /// store, then adopt it as the write-ahead relay target.
    Join(FrameConn),
    /// Wakes the apply thread of a halted server so it exits.
    Halt,
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
                serving: AtomicBool::new(true),
                stop: Arc::new(AtomicBool::new(false)),
                ended: AtomicBool::new(false),
                counters: ShardCounters::default(),
                sink: Arc::new(NullSink),
                clock: WallElapsed::start(),
                checkpoint: None,
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
    /// so a backup's absorbed relays are not counted twice — and
    /// `CheckpointWritten`, stamped with the time elapsed since the
    /// server was bound.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink<Duration>>) -> Self {
        self.shared.sink = sink;
        self
    }

    /// Persists a crash-consistent [`StoreCheckpoint`] of the serving
    /// store to `path` whenever a push takes the version to a multiple of
    /// `every`: written to `<path>.tmp`, then atomically renamed into
    /// place. Only a serving shard that has not been halted writes.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.shared.checkpoint = Some((path.into(), every));
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

        // Write-ahead relay to the warm backup, handed to the apply
        // thread (relay-then-apply in one thread keeps the orders equal).
        let relay = match &backup_addr {
            Some(addr) => Some(FrameConn::connect_with_retries(
                addr,
                &config,
                &ConnTarget::new("relay", &seq, shard_id),
                |_| {},
            )?),
            None => None,
        };

        // Single apply thread: every push (from any connection) funnels
        // through here in channel order, as do join requests — so a
        // snapshot handed to a joiner is a clean cut of the push order.
        let (apply_tx, apply_rx) = unbounded::<ApplyCmd>();
        let applier = {
            let shared = Arc::clone(&shared);
            let chunk_bytes = config.join_chunk_bytes;
            std::thread::spawn(move || apply_loop(&shared, &apply_rx, relay, chunk_bytes))
        };

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
            // workers push, and an idle stretch is not a dead peer.
            conn.set_read_timeout(None).ok();
            let shared = Arc::clone(&shared);
            let apply_tx = apply_tx.clone();
            std::thread::spawn(move || serve_shard_conn(conn, &shared, &apply_tx));
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
            let (out_tx, out_rx) = unbounded::<WireMessage>();
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
                        Err(RecvTimeoutError::Timeout) => beat.clone(),
                        Err(RecvTimeoutError::Disconnected) => break,
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
                                    locked.replica().version()
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
                            | FailoverControl::SnapshotChunk { .. }
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

        // Accept loop: non-blocking accept so the end of the run is
        // noticed. Accepted streams run this process's chaos script
        // (pass-through when chaos is disabled).
        listener.set_nonblocking(true)?;
        let listener = ChaosListener::new(listener, config.chaos.clone(), "shard-accept");
        while !shared.stop.load(Ordering::SeqCst) && !shared.ended.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nodelay(true).ok();
                    stream.set_nonblocking(false).ok();
                    let shared = Arc::clone(&shared);
                    let apply_tx = apply_tx.clone();
                    let peer = peer.to_string();
                    std::thread::spawn(move || {
                        let conn = FrameConn::from_chaos_stream(stream, peer);
                        serve_shard_conn(conn, &shared, &apply_tx);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.tick);
                }
                Err(_) => break,
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            // Halted: wait out the push the apply thread is on, so the
            // counters below include exactly the acked pushes.
            let _ = apply_tx.send(ApplyCmd::Halt);
            let _ = applier.join();
        }
        shared.ended.store(true, Ordering::SeqCst);
        if let Some(link) = sched_link {
            let _ = link.shutdown(std::net::Shutdown::Both);
        }

        let counters = &shared.counters;
        let version = shared.host.lock().replica().version();
        Ok(ShardStats {
            pulls_served: counters.pulls_served.load(Ordering::Relaxed),
            pushes_applied: counters.pushes_applied.load(Ordering::Relaxed),
            relayed: counters.relayed.load(Ordering::Relaxed),
            relay_drops: counters.relay_drops.load(Ordering::Relaxed),
            checkpoints_written: counters.checkpoints_written.load(Ordering::Relaxed),
            serving: shared.serving.load(Ordering::SeqCst),
            version,
        })
    }
}

/// The single apply thread: relay-then-apply every push in channel order,
/// and provision joining backups between them. Once the server is halted
/// it takes nothing more: the next command's connection drops unanswered.
fn apply_loop(
    shared: &Shared,
    apply_rx: &Receiver<ApplyCmd>,
    mut relay: Option<FrameConn>,
    chunk_bytes: usize,
) {
    let counters = &shared.counters;
    while let Ok(cmd) = apply_rx.recv() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match cmd {
            ApplyCmd::Frame(frame, received, reply_tx) => {
                if let (Some(conn), Some(mut received)) = (relay.as_mut(), received) {
                    // Tag the relayed push with the version it will
                    // produce so the backup can ack a redelivery without
                    // re-applying it.
                    let (seq, lr) = {
                        let locked = shared.host.lock();
                        locked.relay_tag()
                    };
                    // Write-ahead: the backup holds the push before the
                    // primary applies it. A dead relay degrades to
                    // unreplicated serving rather than stalling the run.
                    if forward_relay(conn, seq, lr, &mut received).is_ok() {
                        counters.relayed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        relay = None;
                        counters.relay_drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let worker = frame.worker();
                let applied = {
                    let mut locked = shared.host.lock();
                    locked.handle(frame)
                };
                let Ok(Some(ack)) = applied else {
                    continue;
                };
                counters.pushes_applied.fetch_add(1, Ordering::Relaxed);
                // Traced and checkpointed before the ack, so whoever holds
                // the ack can read both.
                if !shared.serving.load(Ordering::SeqCst) {
                    counters.absorbed.fetch_add(1, Ordering::Relaxed);
                } else if let (Some(worker), WireMessage::PushAck { version, .. }) = (worker, &ack)
                {
                    shared.record(&Event::Push {
                        worker,
                        iteration: *version,
                    });
                    shared.checkpoint(*version);
                }
                let _ = reply_tx.send(ack);
            }
            ApplyCmd::Join(mut conn) => {
                let checkpoint = {
                    let mut locked = shared.host.lock();
                    locked
                        .replica_mut()
                        .serving_store_mut()
                        .snapshot_for_checkpoint()
                };
                if stream_rejoin(&mut conn, &checkpoint, chunk_bytes).is_ok() {
                    // The joiner confirmed parity: it replaces whatever
                    // relay target this process had.
                    relay = Some(conn);
                }
            }
            ApplyCmd::Halt => break,
        }
    }
}

/// One worker (or relay) connection to a shard: blocking frame loop, one
/// thread. Returning drops the connection; the server survives.
fn serve_shard_conn(mut conn: FrameConn, shared: &Shared, apply_tx: &Sender<ApplyCmd>) {
    loop {
        let (frame, received) = match conn.recv_bytes(RELAY_TAG_FRAME_LEN) {
            Ok(got) => got,
            Err(_) => return,
        };
        // A halted server answers nothing more: the connection drops, and
        // a worker goes back to the scheduler for the primary.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match frame {
            WireMessage::Pull { worker } => {
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
            }
            frame @ WireMessage::Push { .. } => {
                if !apply_and_ack(&mut conn, apply_tx, frame, Some(received)) {
                    return;
                }
            }
            WireMessage::RelayTag { seq, lr } => {
                // A forwarded relay: the very next frame is the worker's
                // own `Push`, checksum-verified like any other. The pair
                // is the `RelayPush` the host already knows — sequence
                // idempotence and the gap check included.
                let Ok((WireMessage::Push { worker, payload }, _)) = conn.recv() else {
                    return;
                };
                let relayed = WireMessage::RelayPush {
                    seq,
                    worker,
                    lr,
                    payload,
                };
                if !apply_and_ack(&mut conn, apply_tx, relayed, None) {
                    return;
                }
            }
            WireMessage::Failover(FailoverControl::JoinAsBackup { .. }) => {
                // Only a serving primary can provision a joiner. Hand the
                // whole connection to the apply thread so the snapshot it
                // streams is a clean cut of the push order.
                if shared.serving.load(Ordering::SeqCst) {
                    let _ = apply_tx.send(ApplyCmd::Join(conn));
                }
                return;
            }
            WireMessage::Shutdown => {
                shared.ended.store(true, Ordering::SeqCst);
                return;
            }
            // Tolerated no-ops on a data connection.
            WireMessage::Heartbeat { .. } => {}
            // Process-level failover is driven over the scheduler link;
            // a data connection carrying control frames is a protocol
            // error, as are reply/scheduler-plane frames and a relayed
            // push that did not arrive as a tag plus the worker's frame.
            WireMessage::Failover(_)
            | WireMessage::RelayPush { .. }
            | WireMessage::PullReply { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::Notify { .. }
            | WireMessage::Abort { .. } => return,
        }
    }
}

/// Queues one push-class frame for the apply thread and writes the ack it
/// produces back down `conn`. `false` means the connection is done.
fn apply_and_ack(
    conn: &mut FrameConn,
    apply_tx: &Sender<ApplyCmd>,
    frame: WireMessage,
    received: Option<Vec<u8>>,
) -> bool {
    let (reply_tx, reply_rx) = bounded(1);
    if apply_tx
        .send(ApplyCmd::Frame(frame, received, reply_tx))
        .is_err()
    {
        return false;
    }
    let Ok(ack) = reply_rx.recv() else {
        return false;
    };
    conn.write(&ack).is_ok()
}

/// One write-ahead relay round trip. The tag frame is written into the
/// headroom `received` carries in front of the worker's frame, so tag and
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

/// Primary side of the rejoin: stream the serving store's checkpoint in
/// bounded chunks and wait for the joiner to confirm it installed exactly
/// that version. `Ok` means the connection sits at the primary's version
/// and is safe to adopt as the write-ahead relay.
fn stream_rejoin(
    conn: &mut FrameConn,
    checkpoint: &StoreCheckpoint,
    chunk_bytes: usize,
) -> Result<(), NetError> {
    let bytes = checkpoint.encode();
    // An encoded checkpoint is never empty (magic + header), so there is
    // always at least one chunk and every index stays below `total`.
    let total = bytes.chunks(chunk_bytes).count() as u64;
    for (index, data) in bytes.chunks(chunk_bytes).enumerate() {
        conn.write(&WireMessage::Failover(FailoverControl::SnapshotChunk {
            index: index as u64,
            total,
            data: data.to_vec(),
        }))?;
    }
    let (reply, _) = conn.recv()?;
    let WireMessage::Failover(FailoverControl::BackupReady { version, .. }) = reply else {
        return Err(NetError::UnexpectedReply {
            want: "BackupReady",
        });
    };
    if version != checkpoint.version() {
        return Err(NetError::Unhandled {
            what: "joining backup confirmed the wrong version",
        });
    }
    Ok(())
}

/// Joiner side of the rejoin, driven before the shard registers with the
/// scheduler: announce intent, install the streamed checkpoint, and
/// confirm the version it holds. Returns that version.
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
    let mut bytes = Vec::new();
    let mut total = None;
    let mut next = 0u64;
    while total != Some(next) {
        let (frame, _) = conn.recv()?;
        let WireMessage::Failover(FailoverControl::SnapshotChunk {
            index,
            total: of,
            data,
        }) = frame
        else {
            return Err(NetError::UnexpectedReply {
                want: "SnapshotChunk",
            });
        };
        // The decoder refuses `index >= total` (so `total == 0` too); a
        // count that moved mid-stream could keep this loop reading for as
        // long as the primary cares to send.
        if index != next || *total.get_or_insert(of) != of {
            return Err(NetError::Unhandled {
                what: "snapshot chunk out of sequence",
            });
        }
        bytes.extend_from_slice(&data);
        next += 1;
    }
    let checkpoint = StoreCheckpoint::decode(&bytes).map_err(|_| NetError::Unhandled {
        what: "streamed checkpoint failed to decode",
    })?;
    let store = ParameterStore::restore(checkpoint).map_err(|_| NetError::Unhandled {
        what: "streamed checkpoint failed to restore",
    })?;
    let version = store.version();
    {
        // The journal capacity is this process's configuration, not part
        // of the streamed state: it survives the store swap.
        let mut locked = host.lock();
        let capacity = locked.replica().journal_capacity();
        locked.install_store(ReplicatedStore::from_store(store, capacity));
    }
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
    /// Wire-level knobs (tick, heartbeat interval/timeout, I/O timeouts).
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

        // Accept thread: one reader thread per connection, all frames
        // funneled into the central loop's channel.
        {
            let events_tx = events_tx.clone();
            let stop = Arc::clone(&stop);
            let tick = cfg.net.tick;
            listener.set_nonblocking(true)?;
            let listener = ChaosListener::new(listener, cfg.net.chaos.clone(), "sched-accept");
            std::thread::spawn(move || {
                let mut next_id = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nodelay(true).ok();
                            stream.set_nonblocking(false).ok();
                            let id = next_id;
                            next_id += 1;
                            let Ok(writer) = stream.try_clone() else {
                                continue;
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
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(tick);
                        }
                        Err(_) => return,
                    }
                }
            });
        }

        let stats = central_loop(&cfg, &clock, &sink, &events_rx, &stop);
        stop.store(true, Ordering::SeqCst);
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
        // A fixed `tick` wake-up, not `next_deadline`: abort-delivery
        // latency is part of what `train_specsync` measures.
        event = match events_rx.recv_timeout(cfg.net.tick) {
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
    use specsync_ps::{ParameterStore, PushPayload, ReplicatedStore};

    fn shard(id: u64, dim: usize) -> ShardServer {
        let store = ParameterStore::new(vec![0.0; dim], 2);
        let host = ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ));
        ShardServer::bind(id, "127.0.0.1:0", host, NetConfig::default()).unwrap()
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
        assert_eq!(host.lock().replica().version(), 2, "nor applied it");
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
        // A tiny chunk size forces the snapshot across several
        // SnapshotChunk frames.
        let store = ParameterStore::new(vec![0.0; 16], 2);
        let host = ShardHost::new(ReplicatedStore::from_store(
            store,
            ReplicatedStore::DEFAULT_JOURNAL_CAPACITY,
        ));
        let pcfg = NetConfig::builder()
            .join_chunk_bytes(16)
            .try_build()
            .unwrap();
        let primary = ShardServer::bind(0, "127.0.0.1:0", host, pcfg).unwrap();
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

        // A fresh process provisions itself from the live primary. Its
        // non-default journal capacity is its own configuration and must
        // survive the store the join installs.
        let store = ParameterStore::new(vec![0.0; 16], 2);
        let host = ShardHost::new(ReplicatedStore::from_store(store, 4));
        let joiner = ShardServer::bind(2, "127.0.0.1:0", host, NetConfig::default())
            .unwrap()
            .as_backup()
            .join_via(&primary_addr);
        let joiner_host = Arc::clone(&joiner.shared.host);
        let joiner_stop = joiner.stop_handle();
        let joiner_handle = std::thread::spawn(move || joiner.run().unwrap());

        // Wait for the snapshot of the 5 pushes above to land. The
        // primary streamed it from its apply thread, so every push sent
        // after this queues behind the join and reaches the joiner as a
        // live relay.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while joiner_host.lock().replica().version() < 5 {
            assert!(
                std::time::Instant::now() < deadline,
                "the snapshot never arrived"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            joiner_host.lock().replica().journal_capacity(),
            4,
            "the join must not reset the joiner's journal capacity"
        );

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

    /// A primary that sends a chunk the joiner cannot place: the joiner's
    /// `run` fails at once instead of reading until its I/O timeout.
    #[test]
    fn a_joiner_refuses_a_snapshot_stream_out_of_sequence_at_once() {
        let chunk = |index, total| {
            WireMessage::Failover(FailoverControl::SnapshotChunk {
                index,
                total,
                data: vec![0; 4],
            })
        };
        let rows = [
            vec![chunk(0, 0)],
            vec![chunk(3, 2)],
            vec![chunk(1, 2)],
            vec![chunk(0, 2), chunk(1, 5)],
        ];
        let cfg = NetConfig::default();
        for chunks in rows {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let fake = listener.local_addr().unwrap().to_string();
            let store = ParameterStore::new(vec![0.0; 4], 2);
            let host = ShardHost::new(ReplicatedStore::from_store(store, 4));
            let joiner = ShardServer::bind(2, "127.0.0.1:0", host, cfg.clone())
                .unwrap()
                .as_backup()
                .join_via(&fake);
            let begun = std::time::Instant::now();
            let joiner = std::thread::spawn(move || joiner.run());
            let (stream, peer) = listener.accept().unwrap();
            let mut conn = FrameConn::from_stream(stream, peer.to_string());
            let (join, _) = conn.recv().unwrap();
            assert!(matches!(
                join,
                WireMessage::Failover(FailoverControl::JoinAsBackup { server: 2, .. })
            ));
            for chunk in &chunks {
                conn.write(chunk).unwrap();
            }
            let result = joiner.join().unwrap();
            assert!(result.is_err(), "{chunks:?} must be refused");
            assert!(
                begun.elapsed() < cfg.io_timeout / 2,
                "{chunks:?} was refused only after {:?}",
                begun.elapsed()
            );
        }
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
}
