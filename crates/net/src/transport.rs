//! The [`Transport`] API: one worker-side interface over the SpecSync
//! protocol, implemented by [`TcpTransport`], which carries frames over
//! real sockets and rides out a shard death via the scheduler's
//! where-is-the-primary exchange — whether the peers are other processes
//! or threads of the worker's own (the threaded runtime).
//!
//! A worker names the plane it is talking to with [`Endpoint`]: the shard
//! serves the data plane (`Pull`/`Push`), the scheduler the control plane
//! (pull notices, `Notify`, `Heartbeat`, failover queries). Asynchronous
//! instructions *from* the scheduler (`Abort`, `Shutdown`) arrive through
//! [`Transport::poll_control`], mirroring the simulator's re-sync
//! delivery.
//!
//! An implementation matches every [`WireMessage`] variant explicitly —
//! the `cargo xtask analyze` exhaustiveness pass holds it to that — so a
//! new protocol frame cannot be silently dropped.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, TryRecvError};
use specsync_simnet::WorkerId;
use specsync_telemetry::{Event, EventSink};

use crate::chaos::{chaos_connect, ChaosStream, ConnSeq};
use crate::config::NetConfig;
use crate::error::NetError;
use crate::frame::{read_frame, read_frame_bytes, write_frame, ReadOutcome};
use crate::wire::{FailoverControl, WireMessage};

/// Which peer a [`Transport::send`] addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The parameter-server shard (data plane: snapshots and gradients).
    Shard,
    /// The scheduler (control plane: notices, notifies, heartbeats,
    /// failover queries).
    Scheduler,
}

/// A worker's connection to the SpecSync protocol, independent of whether
/// the peers live in this process or across sockets.
pub trait Transport: Send {
    /// Sends one frame to `to`, returning the peer's reply when the verb
    /// has one (`Pull` → `PullReply`, `Push` → `PushAck` on request/
    /// response transports, `QueryPrimary` → `Primary`).
    ///
    /// # Errors
    ///
    /// [`NetError::Unhandled`] for frames a worker never sends (replies,
    /// scheduler-internal verbs); [`NetError::Disconnected`] /
    /// [`NetError::Io`] when the peer is gone and reconnection failed.
    fn send(&mut self, to: Endpoint, msg: WireMessage) -> Result<Option<WireMessage>, NetError>;

    /// Non-blocking poll for an asynchronous instruction from the
    /// scheduler (`Abort`, `Shutdown`). `None` when nothing is pending.
    fn poll_control(&mut self) -> Option<WireMessage>;
}

/// Elapsed-time origin for wall-clock trace timestamps: wraps the one
/// `Instant` a TCP process reads, so every frame event is stamped with
/// the [`Duration`] since transport creation (the same timestamp type
/// every wall-clock trace uses).
#[derive(Debug, Clone, Copy)]
pub struct WallElapsed {
    origin: Instant,
}

impl WallElapsed {
    /// Starts the clock now.
    pub fn start() -> Self {
        WallElapsed {
            origin: Instant::now(),
        }
    }

    /// Elapsed time since the origin.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// One request/response socket with framed reads and writes.
#[derive(Debug)]
pub struct FrameConn {
    stream: ChaosStream,
    /// Peer address, kept for error reporting and reconnect targeting.
    addr: String,
}

/// How a [`FrameConn`] connect attempt is labelled for the chaos layer
/// and jittered for the backoff schedule. Plain connects (tests, simple
/// tools) use [`ConnTarget::plain`].
#[derive(Debug)]
pub struct ConnTarget<'a> {
    /// Link label — selects the chaos scope and script stream.
    pub label: &'a str,
    /// Per-process connection sequence (advances the script stream).
    pub seq: &'a ConnSeq,
    /// Seed for deterministic backoff jitter (identify the process or
    /// worker, so reconnect storms decorrelate).
    pub jitter_seed: u64,
}

impl<'a> ConnTarget<'a> {
    /// A labelled target under `seq` with the given jitter seed.
    pub fn new(label: &'a str, seq: &'a ConnSeq, jitter_seed: u64) -> Self {
        ConnTarget {
            label,
            seq,
            jitter_seed,
        }
    }
}

impl FrameConn {
    /// Connects with bounded retries and jittered exponential backoff.
    /// `retry` observes each failed attempt (1-based) before the backoff
    /// sleep. The chaos layer (if enabled in `config`) scripts each
    /// attempt under `target.label`.
    pub fn connect_with_retries(
        addr: &str,
        config: &NetConfig,
        target: &ConnTarget<'_>,
        mut retry: impl FnMut(u32),
    ) -> Result<Self, NetError> {
        let mut attempt = 0u32;
        loop {
            match FrameConn::connect_once(addr, config, target) {
                Ok(conn) => return Ok(conn),
                Err(_) if attempt + 1 < config.connect_retries => {
                    retry(attempt + 1);
                    std::thread::sleep(config.jittered_backoff_delay(attempt, target.jitter_seed));
                    attempt += 1;
                }
                Err(_) => {
                    return Err(NetError::ConnectFailed {
                        addr: addr.to_string(),
                        attempts: attempt + 1,
                    })
                }
            }
        }
    }

    /// One connect attempt, no retries, no sleeps — the reconnect step
    /// of [`TcpTransport`]'s retry rule, paced by its caller.
    pub fn connect_once(
        addr: &str,
        config: &NetConfig,
        target: &ConnTarget<'_>,
    ) -> Result<Self, NetError> {
        let stream = chaos_connect(addr, &config.chaos, target.label, target.seq)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(config.io_timeout)).ok();
        stream.set_write_timeout(Some(config.io_timeout)).ok();
        Ok(FrameConn {
            stream,
            addr: addr.to_string(),
        })
    }

    /// Wraps an accepted stream (server side), chaos-free.
    pub fn from_stream(stream: std::net::TcpStream, addr: String) -> Self {
        FrameConn {
            stream: ChaosStream::passthrough(stream),
            addr,
        }
    }

    /// Wraps an accepted, already chaos-scripted stream (server side).
    pub fn from_chaos_stream(stream: ChaosStream, addr: String) -> Self {
        FrameConn { stream, addr }
    }

    /// The peer address this connection targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Unwraps the underlying stream (for split reader/writer setups).
    pub fn into_stream(self) -> ChaosStream {
        self.stream
    }

    /// Adjusts the read timeout (`None` blocks forever). An outbound
    /// connection starts with `io_timeout` from the config; a connection
    /// that transitions into a long-lived server role (the rejoin
    /// connection becoming the relay receiver) must clear it or idle
    /// periods would look like dead peers.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Writes one frame, returning its encoded size.
    pub fn write(&mut self, msg: &WireMessage) -> Result<usize, NetError> {
        Ok(write_frame(&mut self.stream, msg)?)
    }

    /// Writes pre-encoded frame bytes (the shard's per-version cached
    /// `PullReply`), skipping re-serialization.
    pub fn write_encoded(&mut self, bytes: &[u8]) -> Result<usize, NetError> {
        self.stream.write_all(bytes)?;
        Ok(bytes.len())
    }

    /// Receives one frame, returning it with its wire size.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF between frames.
    pub fn recv(&mut self) -> Result<(WireMessage, usize), NetError> {
        match read_frame(&mut self.stream)? {
            ReadOutcome::Frame(msg, bytes) => Ok((msg, bytes)),
            ReadOutcome::Closed => Err(NetError::Disconnected),
        }
    }

    /// [`recv`](Self::recv), keeping the received bytes: `headroom` zero
    /// bytes, then the frame as it arrived (see [`read_frame_bytes`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on clean EOF between frames.
    pub fn recv_bytes(&mut self, headroom: usize) -> Result<(WireMessage, Vec<u8>), NetError> {
        read_frame_bytes(&mut self.stream, headroom)?.ok_or(NetError::Disconnected)
    }

    /// One request/response round trip.
    pub fn exchange(&mut self, msg: &WireMessage) -> Result<(WireMessage, usize, usize), NetError> {
        let sent = self.write(msg)?;
        let (reply, received) = self.recv()?;
        Ok((reply, sent, received))
    }
}

/// The worker's scheduler link: a persistent connection whose reader
/// thread demultiplexes asynchronous scheduler pushes (`Abort`,
/// `Shutdown`) from request replies (`Primary`).
#[derive(Debug)]
struct SchedLink {
    writer: ChaosStream,
    control_rx: Receiver<WireMessage>,
    reply_rx: Receiver<FailoverControl>,
}

impl SchedLink {
    fn from_conn(conn: FrameConn) -> Result<Self, NetError> {
        let writer = conn.stream.try_clone()?;
        let mut reader = conn.stream;
        // The reader blocks between scheduler pushes; no per-read timeout.
        reader.set_read_timeout(None).ok();
        let (control_tx, control_rx) = bounded::<WireMessage>(16);
        let (reply_tx, reply_rx) = bounded::<FailoverControl>(1);
        std::thread::spawn(move || loop {
            match read_frame(&mut reader) {
                Ok(ReadOutcome::Frame(
                    WireMessage::Failover(fc @ FailoverControl::Primary { .. }),
                    _,
                )) => {
                    let _ = reply_tx.send(fc);
                }
                Ok(ReadOutcome::Frame(
                    msg @ (WireMessage::Abort { .. } | WireMessage::Shutdown),
                    _,
                )) => {
                    if control_tx.send(msg).is_err() {
                        break;
                    }
                }
                // Any other frame on this link is protocol noise; keep
                // reading so one stray frame cannot wedge the worker.
                Ok(ReadOutcome::Frame(_, _)) => {}
                Ok(ReadOutcome::Closed) | Err(_) => break,
            }
        });
        Ok(SchedLink {
            writer,
            control_rx,
            reply_rx,
        })
    }

    fn send(&mut self, msg: &WireMessage) -> Result<usize, NetError> {
        Ok(write_frame(&mut self.writer, msg)?)
    }

    /// Asks the scheduler where the primary shard lives.
    fn query_primary(&mut self, io_timeout: Duration) -> Result<FailoverControl, NetError> {
        // Drain a stale answer from a previous query before asking again.
        while self.reply_rx.try_recv().is_ok() {}
        self.send(&WireMessage::Failover(FailoverControl::QueryPrimary))?;
        self.reply_rx
            .recv_timeout(io_timeout)
            .map_err(|_| NetError::Disconnected)
    }
}

/// Running totals of the transport's fault handling, printed by soak
/// harnesses and asserted by the chaos scenario matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Reconnect attempts (`ConnRetry` events).
    pub conn_retries: u64,
    /// Established connections lost mid-operation (`ConnReset` events).
    pub conn_resets: u64,
    /// Always 0: the transport has no circuit breaker. The field stays
    /// only because the `perf` benchmark still reads it, and goes once
    /// that read does.
    pub circuit_opens: u64,
    /// Operations that spent a whole retry budget (`RetryExhausted`).
    pub retries_exhausted: u64,
    /// Entries into degraded mode (`DegradedMode { entered: true }`).
    pub degraded_entries: u64,
    /// Exits from degraded mode.
    pub degraded_exits: u64,
}

/// Degraded-state bookkeeping for the scheduler link: reconnects are
/// paced by the jittered backoff, and control-plane frames are absorbed
/// (cumulative `Notify` counters make the loss recoverable) until the
/// link comes back.
#[derive(Debug)]
struct SchedDegraded {
    attempt: u32,
    next_try: Duration,
}

/// The TCP transport: the same protocol over real sockets. Holds one
/// request/response connection to the serving shard and one persistent
/// demultiplexed link to the scheduler, and has one operation in flight
/// at a time.
///
/// A failed shard exchange follows one rule, which is how a worker rides
/// out anything from a flaky link to a `kill -9`'d primary:
///
/// 1. sleep the jittered backoff;
/// 2. ask the scheduler where the primary is;
/// 3. move to the answer if it is newer than the primary held — a higher
///    promotion epoch, or the same epoch at another address — and
///    otherwise reconnect to the same address;
/// 4. give up after [`NetConfig::connect_retries`] failed exchanges.
///
/// A scheduler-link failure never stops training: control frames are
/// absorbed while reconnects are paced in the background, and the
/// cumulative counters in `Notify` frames resynchronize the scheduler on
/// recovery.
pub struct TcpTransport {
    worker: WorkerId,
    shard: FrameConn,
    sched: SchedLink,
    sched_addr: String,
    config: NetConfig,
    seq: ConnSeq,
    sink: Arc<dyn EventSink<Duration>>,
    clock: WallElapsed,
    /// Promotion epoch of the primary we are connected to; it never
    /// rewinds.
    epoch: u64,
    /// `Some` while the scheduler link is down.
    sched_degraded: Option<SchedDegraded>,
    /// Planes currently degraded (0, 1, or 2); `DegradedMode` events
    /// fire on the 0↔nonzero transitions.
    degraded_planes: u32,
    stats: TransportStats,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("worker", &self.worker)
            .field("shard_addr", &self.shard.addr())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl TcpTransport {
    /// Connects a worker to a shard and a scheduler, emitting
    /// [`Event::ConnRetry`] for every failed attempt.
    ///
    /// Validates `config` first — a degenerate heartbeat ordering or
    /// retry policy is refused with a typed error before any socket is
    /// touched.
    pub fn connect(
        worker: WorkerId,
        shard_addr: &str,
        sched_addr: &str,
        config: NetConfig,
        sink: Arc<dyn EventSink<Duration>>,
    ) -> Result<Self, NetError> {
        config.try_validate().map_err(NetError::Config)?;
        let clock = WallElapsed::start();
        let jitter_seed = worker.index() as u64;
        let seq = ConnSeq::new();
        let retry = |sink: &Arc<dyn EventSink<Duration>>, clock: &WallElapsed, attempt: u32| {
            sink.record(clock.elapsed(), &Event::ConnRetry { worker, attempt });
        };
        let sched = SchedLink::from_conn(FrameConn::connect_with_retries(
            sched_addr,
            &config,
            &ConnTarget::new("sched", &seq, jitter_seed),
            |a| retry(&sink, &clock, a),
        )?)?;
        let shard = FrameConn::connect_with_retries(
            shard_addr,
            &config,
            &ConnTarget::new("shard", &seq, jitter_seed),
            |a| retry(&sink, &clock, a),
        )?;
        Ok(TcpTransport {
            worker,
            shard,
            sched,
            sched_addr: sched_addr.to_string(),
            config,
            seq,
            sink,
            clock,
            epoch: 0,
            sched_degraded: None,
            degraded_planes: 0,
            stats: TransportStats::default(),
        })
    }

    /// Running fault-handling totals.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// The jittered backoff before retry `attempt` (0-based), seeded by
    /// the worker so reconnect storms decorrelate.
    fn backoff(&self, attempt: u32) -> Duration {
        self.config
            .jittered_backoff_delay(attempt, self.worker.index() as u64)
    }

    /// A connect target on the `label` link, seeded like
    /// [`backoff`](Self::backoff).
    fn target(&self, label: &'static str) -> ConnTarget<'_> {
        ConnTarget::new(label, &self.seq, self.worker.index() as u64)
    }

    fn note_sent(&self, msg_class: specsync_simnet::MessageClass, bytes: usize) {
        self.sink.record(
            self.clock.elapsed(),
            &Event::FrameSent {
                worker: self.worker,
                class: msg_class,
                bytes: bytes as u64,
            },
        );
    }

    fn note_received(&self, msg_class: specsync_simnet::MessageClass, bytes: usize) {
        self.sink.record(
            self.clock.elapsed(),
            &Event::FrameReceived {
                worker: self.worker,
                class: msg_class,
                bytes: bytes as u64,
            },
        );
    }

    fn note_conn_retry(&mut self, attempt: u32) {
        self.stats.conn_retries += 1;
        self.sink.record(
            self.clock.elapsed(),
            &Event::ConnRetry {
                worker: self.worker,
                attempt,
            },
        );
    }

    fn note_reset(&mut self, class: specsync_simnet::MessageClass) {
        self.stats.conn_resets += 1;
        self.sink.record(
            self.clock.elapsed(),
            &Event::ConnReset {
                worker: self.worker,
                class,
            },
        );
    }

    fn note_exhausted(&mut self, class: specsync_simnet::MessageClass, attempts: u32) {
        self.stats.retries_exhausted += 1;
        self.sink.record(
            self.clock.elapsed(),
            &Event::RetryExhausted {
                worker: self.worker,
                class,
                attempts,
            },
        );
    }

    /// Marks one plane degraded; emits `DegradedMode { entered: true }`
    /// on the first degraded plane.
    fn enter_degraded_plane(&mut self) {
        self.degraded_planes += 1;
        if self.degraded_planes == 1 {
            self.stats.degraded_entries += 1;
            self.sink.record(
                self.clock.elapsed(),
                &Event::DegradedMode {
                    worker: self.worker,
                    entered: true,
                },
            );
        }
    }

    /// Marks one plane recovered; emits `DegradedMode { entered: false }`
    /// when the last degraded plane clears.
    fn exit_degraded_plane(&mut self) {
        if self.degraded_planes == 0 {
            return;
        }
        self.degraded_planes -= 1;
        if self.degraded_planes == 0 {
            self.stats.degraded_exits += 1;
            self.sink.record(
                self.clock.elapsed(),
                &Event::DegradedMode {
                    worker: self.worker,
                    entered: false,
                },
            );
        }
    }

    /// One shard round trip under the retry rule (see the type docs).
    /// The shard plane is degraded from the first failed exchange until
    /// the round trip succeeds or gives up.
    fn shard_exchange(&mut self, msg: &WireMessage) -> Result<WireMessage, NetError> {
        let class = msg.class();
        let mut failures = 0u32;
        loop {
            // Every exchange error — an I/O failure, a vanished peer, a
            // frame failing its checksum (chaos corruption) — leaves the
            // connection state unknown, so each one re-establishes it.
            if let Ok((reply, sent, received)) = self.shard.exchange(msg) {
                if failures > 0 {
                    self.exit_degraded_plane();
                }
                self.note_sent(class, sent);
                self.note_received(reply.class(), received);
                return Ok(reply);
            }
            failures += 1;
            self.note_reset(class);
            if failures == 1 {
                self.enter_degraded_plane();
            }
            if failures >= self.config.connect_retries {
                self.note_exhausted(class, failures);
                self.exit_degraded_plane();
                return Err(NetError::RetryExhausted { attempts: failures });
            }
            std::thread::sleep(self.backoff(failures - 1));
            self.reacquire_shard(failures);
        }
    }

    /// Steps 2 and 3 of the retry rule. A `Primary` answer moves the
    /// worker only when it is newer than the primary held, so the epoch
    /// never rewinds; a stale answer, or none, reconnects to the address
    /// held. A failed connect leaves the dead connection in place: the
    /// next exchange on it fails at once and counts against the budget.
    fn reacquire_shard(&mut self, attempt: u32) {
        self.note_conn_retry(attempt);
        let (addr, epoch) = match self.sched_query_primary() {
            Ok(FailoverControl::Primary { addr, epoch })
                if epoch > self.epoch || (epoch == self.epoch && addr != self.shard.addr()) =>
            {
                (addr, epoch)
            }
            _ => (self.shard.addr().to_string(), self.epoch),
        };
        if let Ok(conn) = FrameConn::connect_once(&addr, &self.config, &self.target("shard")) {
            self.shard = conn;
            self.epoch = epoch;
        }
    }

    /// Marks the scheduler link down; the next control frame tries a
    /// reconnect at once.
    fn sched_link_lost(&mut self) {
        self.enter_degraded_plane();
        self.sched_degraded = Some(SchedDegraded {
            attempt: 0,
            next_try: self.clock.elapsed(),
        });
    }

    /// Sends a control-plane frame, absorbing scheduler-link failures:
    /// the worker keeps training on local progress while reconnects are
    /// paced by the jittered backoff, and cumulative `Notify` counters
    /// let the scheduler catch up on reconnection — zero lost pushes.
    fn sched_send_resilient(&mut self, msg: &WireMessage) -> Result<usize, NetError> {
        if self.sched_degraded.is_none() {
            match self.sched.send(msg) {
                Ok(bytes) => return Ok(bytes),
                Err(_) => {
                    self.note_reset(msg.class());
                    self.sched_link_lost();
                }
            }
        }
        if self.try_restore_sched_link() {
            // Deliver on the fresh link; a failure here re-degrades and
            // the frame is absorbed like any other degraded-mode frame.
            match self.sched.send(msg) {
                Ok(bytes) => return Ok(bytes),
                Err(_) => {
                    self.note_reset(msg.class());
                    self.sched_link_lost();
                }
            }
        }
        // Absorbed: control frames are loss-tolerant by design.
        Ok(0)
    }

    /// Attempts one paced scheduler-link reconnect if its deadline has
    /// arrived. Returns `true` when the link is healthy again.
    fn try_restore_sched_link(&mut self) -> bool {
        let now = self.clock.elapsed();
        let Some(state) = &self.sched_degraded else {
            return true;
        };
        if now < state.next_try {
            return false;
        }
        let attempt = state.attempt.saturating_add(1);
        self.note_conn_retry(attempt);
        // One attempt, no retries: the caller paces the reconnects.
        let target = self.target("sched");
        match FrameConn::connect_once(&self.sched_addr, &self.config, &target)
            .and_then(SchedLink::from_conn)
        {
            Ok(link) => {
                self.sched = link;
                self.sched_degraded = None;
                self.exit_degraded_plane();
                true
            }
            Err(_) => {
                if attempt == self.config.connect_retries {
                    self.note_exhausted(specsync_simnet::MessageClass::Control, attempt);
                }
                self.sched_degraded = Some(SchedDegraded {
                    attempt,
                    next_try: now + self.backoff(attempt - 1),
                });
                false
            }
        }
    }

    /// Queries the scheduler for the primary, restoring the scheduler
    /// link first if it is down (the failover dance needs it).
    fn sched_query_primary(&mut self) -> Result<FailoverControl, NetError> {
        if self.sched_degraded.is_some() && !self.try_restore_sched_link() {
            return Err(NetError::Disconnected);
        }
        let answer = self.sched.query_primary(self.config.io_timeout);
        if answer.is_err() {
            self.sched_link_lost();
        }
        answer
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, to: Endpoint, msg: WireMessage) -> Result<Option<WireMessage>, NetError> {
        match (&msg, to) {
            // Data plane: both verbs are request/response over TCP — the
            // ack doubles as flow control, so a worker cannot flood a
            // shard faster than it applies.
            (WireMessage::Pull { .. } | WireMessage::Push { .. }, Endpoint::Shard) => {
                let reply = self.shard_exchange(&msg)?;
                match reply {
                    WireMessage::PullReply { .. } | WireMessage::PushAck { .. } => Ok(Some(reply)),
                    WireMessage::Pull { .. }
                    | WireMessage::Push { .. }
                    | WireMessage::RelayPush { .. }
                    | WireMessage::RelayTag { .. }
                    | WireMessage::Notify { .. }
                    | WireMessage::Abort { .. }
                    | WireMessage::Heartbeat { .. }
                    | WireMessage::Shutdown
                    | WireMessage::Failover(_) => Err(NetError::UnexpectedReply {
                        want: "PullReply or PushAck",
                    }),
                }
            }
            (WireMessage::Shutdown, Endpoint::Shard) => {
                let bytes = self.shard.write(&msg)?;
                self.note_sent(msg.class(), bytes);
                Ok(None)
            }
            // Control plane: one-way frames on the persistent link.
            (
                WireMessage::Pull { .. }
                | WireMessage::Notify { .. }
                | WireMessage::Heartbeat { .. }
                | WireMessage::Shutdown,
                Endpoint::Scheduler,
            ) => {
                let class = msg.class();
                let bytes = self.sched_send_resilient(&msg)?;
                // An absorbed (degraded-mode) frame put nothing on the wire.
                if bytes > 0 {
                    self.note_sent(class, bytes);
                }
                Ok(None)
            }
            (WireMessage::Failover(FailoverControl::QueryPrimary), Endpoint::Scheduler) => {
                let answer = self.sched_query_primary()?;
                Ok(Some(WireMessage::Failover(answer)))
            }
            (WireMessage::Failover(_), _) => Err(NetError::Unhandled {
                what: "workers only send QueryPrimary on the failover plane",
            }),
            (WireMessage::RelayPush { .. } | WireMessage::RelayTag { .. }, _) => {
                Err(NetError::Unhandled {
                    what: "relay frame sent from a worker transport",
                })
            }
            (WireMessage::PullReply { .. } | WireMessage::PushAck { .. }, _) => {
                Err(NetError::Unhandled {
                    what: "reply frame sent from a worker transport",
                })
            }
            (WireMessage::Abort { .. }, _) => Err(NetError::Unhandled {
                what: "scheduler-originated frame sent from a worker transport",
            }),
            (WireMessage::Push { .. } | WireMessage::Notify { .. }, _)
            | (WireMessage::Heartbeat { .. }, Endpoint::Shard) => Err(NetError::Unhandled {
                what: "frame addressed to the wrong endpoint",
            }),
        }
    }

    fn poll_control(&mut self) -> Option<WireMessage> {
        match self.sched.control_rx.try_recv() {
            Ok(msg) => {
                self.note_received(msg.class(), 0);
                Some(msg)
            }
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    #[test]
    fn frame_conn_round_trips_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, peer) = listener.accept().unwrap();
            let mut conn = FrameConn::from_stream(stream, peer.to_string());
            let (msg, _) = conn.recv().unwrap();
            assert!(matches!(msg, WireMessage::Heartbeat { .. }));
            conn.write(&WireMessage::PushAck {
                version: 9,
                pushes_by_worker: 2,
            })
            .unwrap();
        });
        let cfg = NetConfig::default();
        let seq = ConnSeq::new();
        let target = ConnTarget::new("test", &seq, 0);
        let mut conn = FrameConn::connect_with_retries(&addr, &cfg, &target, |_| {}).unwrap();
        let (reply, sent, received) = conn
            .exchange(&WireMessage::Heartbeat {
                worker: WorkerId::new(1),
            })
            .unwrap();
        assert!(sent > 0 && received > 0);
        assert_eq!(
            reply,
            WireMessage::PushAck {
                version: 9,
                pushes_by_worker: 2
            }
        );
        server.join().unwrap();
    }

    #[test]
    fn write_encoded_matches_write() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let msg = WireMessage::PullReply {
            version: 3,
            params: Arc::from(vec![0.5f32; 16].as_slice()),
        };
        let expect = msg.clone();
        let server = std::thread::spawn(move || {
            let (stream, peer) = listener.accept().unwrap();
            let mut conn = FrameConn::from_stream(stream, peer.to_string());
            let bytes = Arc::new(encode_frame(&msg).unwrap());
            conn.write_encoded(&bytes).unwrap();
        });
        let cfg = NetConfig::default();
        let seq = ConnSeq::new();
        let target = ConnTarget::new("test", &seq, 0);
        let mut conn = FrameConn::connect_with_retries(&addr, &cfg, &target, |_| {}).unwrap();
        let (got, _) = conn.recv().unwrap();
        assert_eq!(got, expect);
        server.join().unwrap();
    }

    #[test]
    fn connect_retries_exhaust_into_typed_error() {
        // A port nothing listens on: bind, note the port, drop the socket.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let cfg = NetConfig::builder()
            .connect_retries(2)
            .retry_backoff(Duration::from_millis(1))
            .try_build()
            .unwrap();
        let mut attempts_seen = 0;
        let seq = ConnSeq::new();
        let target = ConnTarget::new("test", &seq, 0);
        let err =
            FrameConn::connect_with_retries(&format!("127.0.0.1:{port}"), &cfg, &target, |_| {
                attempts_seen += 1;
            })
            .unwrap_err();
        assert!(matches!(err, NetError::ConnectFailed { attempts: 2, .. }));
        assert_eq!(attempts_seen, 1);
    }

    type Peer = (String, std::thread::JoinHandle<()>);

    fn listen() -> (std::net::TcpListener, String) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    /// A scheduler answering `queries` `QueryPrimary` frames with
    /// `Primary { addr, epoch }`, then closing.
    fn scheduler_naming(addr: &str, epoch: u64, queries: usize) -> Peer {
        let (listener, sched) = listen();
        let answer = WireMessage::Failover(FailoverControl::Primary {
            addr: addr.to_string(),
            epoch,
        });
        let thread = std::thread::spawn(move || {
            let (stream, peer) = listener.accept().unwrap();
            let mut conn = FrameConn::from_stream(stream, peer.to_string());
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            for _ in 0..queries {
                let (query, _) = conn.recv().unwrap();
                assert_eq!(query, WireMessage::Failover(FailoverControl::QueryPrimary));
                conn.write(&answer).unwrap();
            }
        });
        (sched, thread)
    }

    /// A shard taking one connection per entry of `script` and reading
    /// one frame on each: `true` answers it with a `PullReply`, `false`
    /// drops the connection unanswered. Then nothing listens there.
    fn shard(script: Vec<bool>) -> Peer {
        let (listener, addr) = listen();
        let thread = std::thread::spawn(move || {
            for answer in script {
                let (stream, peer) = listener.accept().unwrap();
                let mut conn = FrameConn::from_stream(stream, peer.to_string());
                conn.recv().unwrap();
                if answer {
                    let params = Arc::from([0.5f32].as_slice());
                    let reply = WireMessage::PullReply { version: 7, params };
                    conn.write(&reply).unwrap();
                }
            }
        });
        (addr, thread)
    }

    fn worker_on(shard: &str, sched: &str) -> TcpTransport {
        let cfg = NetConfig::builder()
            .connect_retries(4)
            .retry_backoff(Duration::from_millis(1))
            .try_build()
            .unwrap();
        let sink = Arc::new(specsync_telemetry::NullSink);
        TcpTransport::connect(WorkerId::new(0), shard, sched, cfg, sink).unwrap()
    }

    const PULL: WireMessage = WireMessage::Pull {
        worker: WorkerId::new(0),
    };

    #[test]
    fn a_dropped_shard_moves_the_worker_to_the_newer_primary() {
        let (old, new) = (shard(vec![false]), shard(vec![true]));
        let sched = scheduler_naming(&new.0, 1, 1);
        let mut t = worker_on(&old.0, &sched.0);
        let reply = t.send(Endpoint::Shard, PULL).unwrap();
        assert!(matches!(
            reply,
            Some(WireMessage::PullReply { version: 7, .. })
        ));
        assert_eq!((t.shard.addr(), t.epoch), (new.0.as_str(), 1));
        let stats = t.stats();
        assert_eq!((stats.conn_resets, stats.conn_retries), (1, 1));
        assert_eq!((stats.degraded_entries, stats.degraded_exits), (1, 1));
        assert_eq!(stats.retries_exhausted, 0);
        for (_, thread) in [old, new, sched] {
            thread.join().unwrap();
        }
    }

    #[test]
    fn an_older_primary_answer_never_moves_the_worker_or_rewinds_its_epoch() {
        let held = shard(vec![false, true]);
        let (older, older_addr) = listen();
        let sched = scheduler_naming(&older_addr, 2, 1);
        let mut t = worker_on(&held.0, &sched.0);
        t.epoch = 3;
        let reply = t.send(Endpoint::Shard, PULL).unwrap();
        assert!(matches!(reply, Some(WireMessage::PullReply { .. })));
        assert_eq!((t.shard.addr(), t.epoch), (held.0.as_str(), 3));
        older.set_nonblocking(true).unwrap();
        assert!(older.accept().is_err(), "the older primary was dialled");
        for (_, thread) in [held, sched] {
            thread.join().unwrap();
        }
    }

    #[test]
    fn with_nothing_listening_the_operation_spends_connect_retries() {
        let held = shard(vec![false]);
        let sched = scheduler_naming(&held.0, 0, 3);
        let mut t = worker_on(&held.0, &sched.0);
        let err = t.send(Endpoint::Shard, PULL).unwrap_err();
        assert!(matches!(err, NetError::RetryExhausted { attempts: 4 }));
        let stats = t.stats();
        assert_eq!((stats.conn_resets, stats.conn_retries), (4, 3));
        assert_eq!(stats.retries_exhausted, 1);
        assert_eq!((stats.degraded_entries, stats.degraded_exits), (1, 1));
        for (_, thread) in [held, sched] {
            thread.join().unwrap();
        }
    }

    #[test]
    fn tcp_refuses_frames_workers_never_send() {
        let (shard, shard_addr) = listen();
        let (sched, sched_addr) = listen();
        let mut t = worker_on(&shard_addr, &sched_addr);
        let w = WorkerId::new(0);
        for (frame, ep) in [
            (
                WireMessage::PushAck {
                    version: 0,
                    pushes_by_worker: 0,
                },
                Endpoint::Shard,
            ),
            (WireMessage::Abort { worker: w }, Endpoint::Scheduler),
            (
                WireMessage::Failover(FailoverControl::QueryPrimary),
                Endpoint::Shard,
            ),
            (WireMessage::RelayTag { seq: 1, lr: 0.5 }, Endpoint::Shard),
            (
                WireMessage::Push {
                    worker: w,
                    payload: specsync_ps::PushPayload::Dense(vec![0.0]),
                },
                Endpoint::Scheduler,
            ),
            (WireMessage::Heartbeat { worker: w }, Endpoint::Shard),
        ] {
            let err = t.send(ep, frame).unwrap_err();
            assert!(matches!(err, NetError::Unhandled { .. }));
        }
        // Refused before a byte reached either peer.
        for listener in [shard, sched] {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nonblocking(true).unwrap();
            let read = std::io::Read::read(&mut stream, &mut [0u8; 1]);
            assert!(matches!(read, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock));
        }
        assert_eq!(t.stats(), TransportStats::default());
    }
}
