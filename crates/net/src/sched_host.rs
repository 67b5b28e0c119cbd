//! The scheduler-side protocol handler: one [`SchedulerHost`] drives the
//! core [`Scheduler`] (Algorithm 2, re-tuned per epoch by Algorithm 1)
//! from wire frames and wall-clock time.
//!
//! The core owns the scheduler protocol: liveness, reconciled per-worker
//! push counts, the epoch counter, the history and every decision, and it
//! is the only reporter of those decisions. The host keeps what the core
//! has no notion of — the timers for armed speculation windows, each
//! worker's last heartbeat, rejoin count and connection — and the shard
//! plane: registrations, the advertised primary and the promotion latch.
//!
//! It is sans-IO, the sibling of [`ShardHost`](crate::ShardHost): it owns
//! no socket, thread, channel or clock. Its driver, the TCP
//! [`SchedulerServer`](crate::SchedulerServer), feeds it
//! [`frame`](SchedulerHost::frame), [`closed`](SchedulerHost::closed) and
//! [`poll`](SchedulerHost::poll), each stamped with the time elapsed on
//! the driver's own clock, and carries out the [`SchedOutput`]s appended
//! to the buffer it passed in.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use specsync_core::{PushHistory, Scheduler};
use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, EventSink, InMemorySink};

use crate::wire::{FailoverControl, WireMessage};

/// One thing a [`SchedulerHost`] asks its driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedOutput {
    /// Write a frame to one connection.
    ToConn(usize, WireMessage),
    /// Stamp an event with the driver's clock and record it.
    Record(Event),
    /// Read the clock and record [`Event::SchedCost`] for the input being
    /// handled (the host picks every 16th notify; only a driver can time
    /// it).
    SampleCost,
}

/// Which kind of peer a connection turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Peer {
    Worker(WorkerId),
    Shard(u64),
}

/// What the host keeps per worker, beside what the core keeps.
#[derive(Debug, Clone, Default)]
struct WorkerSlot {
    /// `None` until the worker's first frame: a worker that has never
    /// spoken is still starting up (process spawns are slow), and the
    /// silence timeout only applies after first contact.
    last_beat: Option<VirtualTime>,
    /// How many times the worker has come back from being marked dead.
    rejoins: u64,
    /// The connection the worker currently speaks on.
    conn: Option<usize>,
}

/// A registered shard process.
#[derive(Debug, Clone)]
struct Shard {
    conn: usize,
    backup: bool,
    addr: String,
}

/// The scheduler protocol handler. See the module docs.
#[derive(Debug)]
pub struct SchedulerHost {
    core: Scheduler,
    /// The core's sink. The host has no clock, so it buffers what the core
    /// records and forwards it as `Record` outputs after each core call.
    decisions: Arc<InMemorySink<VirtualTime>>,
    heartbeat_timeout: SimDuration,
    workers: Vec<WorkerSlot>,
    /// Armed speculation windows: `(deadline, worker)`.
    timers: Vec<(VirtualTime, WorkerId)>,
    peers: BTreeMap<usize, Peer>,
    shards: BTreeMap<u64, Shard>,
    last_shard_beat: BTreeMap<u64, VirtualTime>,
    primary: Option<u64>,
    /// Promotions completed — the epoch advertised in `Primary` answers.
    promotions: u64,
    /// The shard a `Promote` is in flight to, until its `Promoted` reply
    /// lands (or its connection dies — either clears the latch).
    promotion_pending: Option<u64>,
}

/// A driver's elapsed time on the core scheduler's microsecond axis.
fn at(elapsed: Duration) -> VirtualTime {
    VirtualTime::from_micros(elapsed.as_micros().min(u64::MAX as u128) as u64)
}

impl SchedulerHost {
    /// A host for a `workers`-strong cluster under `scheme`, declaring a
    /// peer dead after `heartbeat_timeout` of silence.
    ///
    /// The push history is always bounded to the adaptive tuner's
    /// lookback — the bound [`Scheduler::with_history_retention`] proves
    /// decision-neutral — so a long-lived scheduler's memory stays flat.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(scheme: SchemeKind, workers: usize, heartbeat_timeout: Duration) -> Self {
        let core = Scheduler::for_scheme(scheme, workers).with_history_retention();
        Self::around(core, heartbeat_timeout)
    }

    fn around(core: Scheduler, heartbeat_timeout: Duration) -> Self {
        let decisions = Arc::new(InMemorySink::new());
        let sink: Arc<dyn EventSink<VirtualTime>> = decisions.clone();
        SchedulerHost {
            workers: vec![WorkerSlot::default(); core.num_workers()],
            core: core.with_sink(sink),
            decisions,
            heartbeat_timeout: at(heartbeat_timeout).since(VirtualTime::ZERO),
            timers: Vec::new(),
            peers: BTreeMap::new(),
            shards: BTreeMap::new(),
            last_shard_beat: BTreeMap::new(),
            primary: None,
            promotions: 0,
            promotion_pending: None,
        }
    }

    /// Total pushes notified across workers, lost notifies included.
    pub fn total_pushes(&self) -> u64 {
        let stats = self.core.stats();
        stats.notifies + stats.lost_notifies
    }

    /// Aborts (re-sync instructions) issued to workers.
    pub fn aborts_issued(&self) -> u64 {
        self.core.stats().resyncs
    }

    /// Workers declared dead, by silence or by their connection closing.
    pub fn workers_marked_dead(&self) -> u64 {
        // Every membership change is a death or a rejoin.
        self.core.stats().membership_changes - self.rejoins()
    }

    /// Dead workers re-admitted by a later frame.
    pub fn rejoins(&self) -> u64 {
        self.workers.iter().map(|slot| slot.rejoins).sum()
    }

    /// Warm-backup promotions completed.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// The core scheduler's push/pull history (read-only).
    pub fn history(&self) -> &PushHistory {
        self.core.history()
    }

    /// The connection `worker` is currently bound to, if any.
    pub fn conn_of(&self, worker: WorkerId) -> Option<usize> {
        self.workers.get(worker.index())?.conn
    }

    /// Handles one decoded frame that arrived on `conn` at elapsed time
    /// `now`.
    pub fn frame(
        &mut self,
        conn: usize,
        frame: WireMessage,
        now: Duration,
        out: &mut Vec<SchedOutput>,
    ) {
        let now = at(now);
        match frame {
            WireMessage::Failover(control) => self.shard_plane(conn, control, now, out),
            WireMessage::Heartbeat { worker } => {
                if let Some(Peer::Shard(server)) = self.peers.get(&conn) {
                    // A shard's heartbeat carries its shard id in the
                    // worker field; the registration says who it is.
                    self.last_shard_beat.insert(*server, now);
                } else {
                    self.heard(conn, worker, now, out);
                }
            }
            WireMessage::Pull { worker } => {
                if self.heard(conn, worker, now, out) {
                    self.core.on_pull(worker, now);
                }
            }
            WireMessage::Notify { worker, pushes } => {
                if self.heard(conn, worker, now, out) {
                    self.notify(worker, pushes, now, out);
                }
            }
            // Data-plane and reply frames have no scheduler-side meaning;
            // tolerate them rather than dropping the connection.
            WireMessage::Push { .. }
            | WireMessage::RelayPush { .. }
            | WireMessage::RelayTag { .. }
            | WireMessage::PullReply { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::Abort { .. }
            | WireMessage::Shutdown => {}
        }
    }

    /// Handles `conn` going away at elapsed time `now`.
    pub fn closed(&mut self, conn: usize, now: Duration, out: &mut Vec<SchedOutput>) {
        let now = at(now);
        match self.peers.remove(&conn) {
            Some(Peer::Worker(worker)) => {
                // Only the worker's current connection speaks for it: a
                // stale one closing after a reconnect must neither unbind
                // the live one nor declare the worker dead.
                let slot = self.workers.get_mut(worker.index());
                if let Some(slot) = slot.filter(|slot| slot.conn == Some(conn)) {
                    slot.conn = None;
                    self.mark_dead(worker, now, out);
                }
            }
            Some(Peer::Shard(server)) => {
                // Same rule for a shard that re-registered elsewhere.
                if self.shards.get(&server).map(|shard| shard.conn) != Some(conn) {
                    return;
                }
                self.last_shard_beat.remove(&server);
                if self.primary == Some(server) {
                    // A dying primary's socket closing is the fast
                    // detection path (kill -9 sends RST on the open
                    // connection). Its registration is kept so workers can
                    // still resolve *some* address until the successor's
                    // `Promoted` flips the advertised primary.
                    self.initiate_promotion(out);
                } else if self.promotion_pending == Some(server) {
                    // The promotion target died between `Promote` and
                    // `Promoted`: release the latch and retarget, or a
                    // healthy backup could never be promoted again.
                    self.shards.remove(&server);
                    self.promotion_pending = None;
                    self.initiate_promotion(out);
                } else if self.shards.get(&server).is_some_and(|shard| shard.backup) {
                    // A dead warm backup must not be a future promotion
                    // target.
                    self.shards.remove(&server);
                }
            }
            None => {}
        }
    }

    /// Lets time pass up to elapsed time `now`: fires every armed window
    /// that has fallen due, then sweeps liveness.
    pub fn poll(&mut self, now: Duration, out: &mut Vec<SchedOutput>) {
        let now = at(now);
        let mut i = 0;
        while i < self.timers.len() {
            if self.timers[i].0 <= now {
                let (deadline, worker) = self.timers.swap_remove(i);
                // Algorithm 2, `CheckResync`, at the instant the window
                // was armed for. The core records `AbortIssued` before the
                // abort goes out on the worker's current connection; with
                // none, there is no one to tell. Nothing acknowledges it.
                let fire = matches!(self.core.try_on_check(worker, deadline), Ok(true));
                self.forward(out);
                if fire {
                    if let Some(conn) = self.conn_of(worker) {
                        out.push(SchedOutput::ToConn(conn, WireMessage::Abort { worker }));
                    }
                }
            } else {
                i += 1;
            }
        }
        for w in 0..self.workers.len() {
            let silent = self.workers[w]
                .last_beat
                .is_some_and(|beat| now.saturating_since(beat) > self.heartbeat_timeout);
            if silent {
                self.mark_dead(WorkerId::new(w), now, out);
            }
        }
        // Heartbeat-silence fallback for a primary whose socket did not
        // close visibly.
        if let Some(primary) = self.primary {
            if let Some(&beat) = self.last_shard_beat.get(&primary) {
                if now.saturating_since(beat) > self.heartbeat_timeout {
                    self.last_shard_beat.remove(&primary);
                    self.initiate_promotion(out);
                }
            }
        }
    }

    /// Appends what the core recorded during the last call, in order.
    fn forward(&self, out: &mut Vec<SchedOutput>) {
        let recorded = self.decisions.take().into_iter();
        out.extend(recorded.map(|(_, event)| SchedOutput::Record(event)));
    }

    /// The one range check on a wire-supplied worker id — everything past
    /// it sees only ids the cluster has — and what every frame a worker
    /// sends has in common: it binds an unidentified connection to the
    /// worker (shard connections identify themselves via `Register`),
    /// counts as a heartbeat, and re-admits a worker marked dead.
    fn heard(
        &mut self,
        conn: usize,
        worker: WorkerId,
        now: VirtualTime,
        out: &mut Vec<SchedOutput>,
    ) -> bool {
        let Some(slot) = self.workers.get_mut(worker.index()) else {
            return false;
        };
        if let Entry::Vacant(peer) = self.peers.entry(conn) {
            peer.insert(Peer::Worker(worker));
            slot.conn = Some(conn);
        }
        slot.last_beat = Some(now);
        if matches!(self.core.mark_alive(worker, now), Ok(true)) {
            slot.rejoins += 1;
            let epoch = slot.rejoins;
            self.forward(out);
            out.push(SchedOutput::Record(Event::WorkerRecovered {
                worker,
                epoch,
            }));
        }
        true
    }

    /// Declares `worker` dead. As in the simulator's traces, the host's
    /// `WorkerCrashed` precedes the core's `Membership`, and on a rejoin
    /// (`heard`) the core's `Membership` precedes `WorkerRecovered`.
    fn mark_dead(&mut self, worker: WorkerId, now: VirtualTime, out: &mut Vec<SchedOutput>) {
        if matches!(self.core.mark_dead(worker, now), Ok(true)) {
            out.push(SchedOutput::Record(Event::WorkerCrashed { worker }));
            self.forward(out);
        }
    }

    /// Algorithm 2, `HandleNotification`, plus the bookkeeping around it:
    /// the core reconciles the cumulative push count and arms the window;
    /// the host sets the window's timer and closes epochs.
    fn notify(
        &mut self,
        worker: WorkerId,
        pushes: u64,
        now: VirtualTime,
        out: &mut Vec<SchedOutput>,
    ) {
        if let Ok(Some(deadline)) = self.core.on_notify_reconciled(worker, pushes, now) {
            self.timers.push((deadline, worker));
        }
        self.forward(out);
        // An epoch completes when every live worker has one more push: a
        // dead one must not freeze tuning (and history eviction) for the
        // survivors. A rejoiner can drag the minimum back down; the `>`
        // guard keeps the epoch counter monotone through that. The core
        // backfills at most `MAX_NOTIFY_GAP` pushes per frame, so this
        // loop is bounded per frame too.
        let core = &self.core;
        let live = WorkerId::all(self.workers.len()).filter(|&w| core.is_alive(w));
        let min = live.map(|w| core.pushes_by(w)).min();
        while min.is_some_and(|min| min > self.core.epoch()) {
            self.core.on_epoch_complete(now);
            self.forward(out);
        }
        if self.core.stats().notifies.is_multiple_of(16) {
            out.push(SchedOutput::SampleCost);
        }
    }

    /// The failover vocabulary: shard registration, promotion replies,
    /// primary queries and rejoin reports.
    fn shard_plane(
        &mut self,
        conn: usize,
        control: FailoverControl,
        now: VirtualTime,
        out: &mut Vec<SchedOutput>,
    ) {
        match control {
            FailoverControl::Register {
                server,
                backup,
                addr,
            } => {
                self.peers.insert(conn, Peer::Shard(server));
                self.shards.insert(server, Shard { conn, backup, addr });
                self.last_shard_beat.insert(server, now);
                if backup {
                    // A (re)joined warm backup is armed: the next
                    // promotion can target it.
                    out.push(SchedOutput::Record(Event::BackupJoined {
                        shard: server,
                        epoch: self.promotions,
                    }));
                } else {
                    self.primary = Some(server);
                }
            }
            FailoverControl::Promoted {
                server,
                version,
                replayed,
            } => {
                if let Some(shard) = self.shards.get_mut(&server) {
                    shard.backup = false;
                }
                self.primary = Some(server);
                self.promotions += 1;
                self.promotion_pending = None;
                out.push(SchedOutput::Record(Event::ShardFailover {
                    shard: server,
                    version,
                    replayed,
                }));
            }
            FailoverControl::QueryPrimary => {
                // A query with no primary to name gets no reply at all.
                let primary = self.primary.and_then(|id| self.shards.get(&id));
                if let Some(shard) = primary {
                    out.push(SchedOutput::ToConn(
                        conn,
                        WireMessage::Failover(FailoverControl::Primary {
                            addr: shard.addr.clone(),
                            epoch: self.promotions,
                        }),
                    ));
                }
            }
            FailoverControl::BackupReady { server, version } => {
                // The rejoin handshake itself ran shard-to-shard; this is
                // the joiner reporting the snapshot version it installed.
                out.push(SchedOutput::Record(Event::CatchUpComplete {
                    shard: server,
                    version,
                }));
            }
            // Verbs the scheduler sends rather than receives, and the
            // data-plane rejoin frames.
            FailoverControl::Promote { .. }
            | FailoverControl::Primary { .. }
            | FailoverControl::JoinAsBackup { .. }
            | FailoverControl::Snapshot(_) => {}
        }
    }

    /// Starts warm-backup promotion (at most one in flight): tell the
    /// first registered backup to take over.
    fn initiate_promotion(&mut self, out: &mut Vec<SchedOutput>) {
        if self.promotion_pending.is_some() {
            return;
        }
        let target = self
            .shards
            .iter()
            .find(|(id, shard)| shard.backup && Some(**id) != self.primary);
        if let Some((&server, shard)) = target {
            self.promotion_pending = Some(server);
            out.push(SchedOutput::ToConn(
                shard.conn,
                WireMessage::Failover(FailoverControl::Promote { server }),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_sync::TuningMode;
    use SchedOutput::{Record, ToConn};

    const TIMEOUT: Duration = Duration::from_secs(2);

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

    fn w(index: usize) -> WorkerId {
        WorkerId::new(index)
    }

    fn host(scheme: SchemeKind, workers: usize) -> SchedulerHost {
        SchedulerHost::new(scheme, workers, TIMEOUT)
    }

    /// SpecSync with a 100 ms window that any one other push trips.
    fn eager() -> SchemeKind {
        SchemeKind::specsync_fixed(SimDuration::from_millis(100), 0.0)
    }

    fn register(server: u64, backup: bool) -> WireMessage {
        WireMessage::Failover(FailoverControl::Register {
            server,
            backup,
            addr: format!("127.0.0.1:700{server}"),
        })
    }

    fn promote(conn: usize, server: u64) -> SchedOutput {
        ToConn(
            conn,
            WireMessage::Failover(FailoverControl::Promote { server }),
        )
    }

    fn promoted(server: u64, version: u64, replayed: u64) -> WireMessage {
        WireMessage::Failover(FailoverControl::Promoted {
            server,
            version,
            replayed,
        })
    }

    fn primary(conn: usize, server: u64, epoch: u64) -> SchedOutput {
        ToConn(
            conn,
            WireMessage::Failover(FailoverControl::Primary {
                addr: format!("127.0.0.1:700{server}"),
                epoch,
            }),
        )
    }

    fn joined(shard: u64, epoch: u64) -> SchedOutput {
        Record(Event::BackupJoined { shard, epoch })
    }

    /// The core's record of `worker` going dead or coming back, leaving
    /// `active` workers alive.
    fn membership(worker: usize, alive: bool, active: u64) -> SchedOutput {
        Record(Event::Membership {
            worker: w(worker),
            alive,
            active,
        })
    }

    const QUERY: WireMessage = WireMessage::Failover(FailoverControl::QueryPrimary);

    #[derive(Debug)]
    enum Input {
        Frame(usize, WireMessage),
        Closed(usize),
        Poll,
    }
    use Input::{Closed, Frame, Poll};

    /// Hands `input` to `host` at `at_ms`.
    fn feed(host: &mut SchedulerHost, input: Input, at_ms: u64, out: &mut Vec<SchedOutput>) {
        match input {
            Frame(conn, frame) => host.frame(conn, frame, ms(at_ms), out),
            Closed(conn) => host.closed(conn, ms(at_ms), out),
            Poll => host.poll(ms(at_ms), out),
        }
    }

    /// Feeds `rows` of `(input, at_ms, expected outputs)` through `host`,
    /// comparing each input's outputs exactly.
    fn script(host: &mut SchedulerHost, rows: Vec<(Input, u64, Vec<SchedOutput>)>) {
        let mut out = Vec::new();
        for (row, (input, at, want)) in rows.into_iter().enumerate() {
            let label = format!("row {row}: {input:?} at {at} ms");
            feed(host, input, at, &mut out);
            assert_eq!(out, want, "{label}");
            out.clear();
        }
    }

    #[test]
    fn promotion_retargets_when_the_chosen_backup_dies_mid_promotion() {
        let mut host = host(SchemeKind::Asp, 1);
        script(
            &mut host,
            vec![
                (Frame(0, register(0, false)), 0, vec![]),
                (Frame(1, register(1, true)), 1, vec![joined(1, 0)]),
                (Frame(2, register(2, true)), 2, vec![joined(2, 0)]),
                (Frame(9, QUERY), 3, vec![primary(9, 0, 0)]),
                // The primary dies; the scheduler targets the first backup.
                (Closed(0), 10, vec![promote(1, 1)]),
                // The chosen backup dies *without* replying Promoted —
                // the window that used to leave the latch stuck forever.
                (Closed(1), 11, vec![promote(2, 2)]),
                (
                    Frame(2, promoted(2, 7, 0)),
                    12,
                    vec![Record(Event::ShardFailover {
                        shard: 2,
                        version: 7,
                        replayed: 0,
                    })],
                ),
                (Frame(9, QUERY), 13, vec![primary(9, 2, 1)]),
            ],
        );
        assert_eq!(host.promotions(), 1);
    }

    #[test]
    fn rejoined_backup_is_armed_for_the_next_promotion() {
        let mut host = host(SchemeKind::Asp, 1);
        script(
            &mut host,
            vec![
                (Frame(0, register(0, false)), 0, vec![]),
                (Frame(1, register(1, true)), 1, vec![joined(1, 0)]),
                // First crash: the original backup takes over.
                (Closed(0), 10, vec![promote(1, 1)]),
                (
                    Frame(1, promoted(1, 5, 5)),
                    11,
                    vec![Record(Event::ShardFailover {
                        shard: 1,
                        version: 5,
                        replayed: 5,
                    })],
                ),
                // A re-provisioned shard registers as the new warm backup
                // and reports the snapshot it installed, re-arming the
                // scheduler.
                (Frame(2, register(2, true)), 20, vec![joined(2, 1)]),
                (
                    Frame(
                        2,
                        WireMessage::Failover(FailoverControl::BackupReady {
                            server: 2,
                            version: 5,
                        }),
                    ),
                    21,
                    vec![Record(Event::CatchUpComplete {
                        shard: 2,
                        version: 5,
                    })],
                ),
                (Frame(9, QUERY), 22, vec![primary(9, 1, 1)]),
                // Second crash: the *rejoined* backup is promoted.
                (Closed(1), 30, vec![promote(2, 2)]),
                (
                    Frame(2, promoted(2, 9, 4)),
                    31,
                    vec![Record(Event::ShardFailover {
                        shard: 2,
                        version: 9,
                        replayed: 4,
                    })],
                ),
                (Frame(9, QUERY), 32, vec![primary(9, 2, 2)]),
            ],
        );
        assert_eq!(host.promotions(), 2);
    }

    #[test]
    fn heartbeat_silence_promotes_the_backup_once() {
        let mut host = host(SchemeKind::Asp, 1);
        // A shard's heartbeat names its shard id, which no worker has.
        let beat = |server: usize| WireMessage::Heartbeat { worker: w(server) };
        script(
            &mut host,
            vec![
                (Frame(0, register(0, false)), 0, vec![]),
                (Frame(1, register(7, true)), 0, vec![joined(7, 0)]),
                (Frame(0, beat(0)), 1_500, vec![]),
                (Frame(1, beat(7)), 1_500, vec![]),
                // Inside the timeout of the last beat: nothing.
                (Poll, 3_500, vec![]),
                // The primary's socket never closed, but it went silent.
                (Poll, 3_501, vec![promote(1, 7)]),
                // The latch holds while the `Promote` is in flight.
                (Poll, 9_000, vec![]),
                (Closed(0), 9_001, vec![]),
            ],
        );
        assert_eq!(host.promotions(), 0, "no `Promoted` reply yet");
    }

    #[test]
    fn a_dead_warm_backup_is_never_targeted() {
        let mut host = host(SchemeKind::Asp, 1);
        script(
            &mut host,
            vec![
                (Frame(0, register(0, false)), 0, vec![]),
                (Frame(1, register(1, true)), 0, vec![joined(1, 0)]),
                (Frame(2, register(2, true)), 0, vec![joined(2, 0)]),
                // The first backup dies while the primary is healthy.
                (Closed(1), 5, vec![]),
                (Closed(0), 10, vec![promote(2, 2)]),
                // With the target gone too there is nobody left to ask.
                (Closed(2), 11, vec![]),
                (Frame(9, QUERY), 12, vec![primary(9, 0, 0)]),
            ],
        );
    }

    #[test]
    fn a_stale_shard_close_after_re_registering_promotes_nobody() {
        let mut host = host(SchemeKind::Asp, 1);
        script(
            &mut host,
            vec![
                (Frame(0, register(0, false)), 0, vec![]),
                (Frame(1, register(1, true)), 0, vec![joined(1, 0)]),
                // The primary's scheduler link reconnects, then the old
                // socket's close is finally noticed.
                (Frame(5, register(0, false)), 10, vec![]),
                (Closed(0), 11, vec![]),
                // The live link closing is still a crash.
                (Closed(5), 20, vec![promote(1, 1)]),
            ],
        );
    }

    #[test]
    fn each_silence_then_beat_cycle_is_the_workers_next_recovery_epoch() {
        let mut host = host(SchemeKind::Asp, 2);
        let beat = WireMessage::Heartbeat { worker: w(1) };
        let crashed = vec![
            Record(Event::WorkerCrashed { worker: w(1) }),
            membership(1, false, 1),
        ];
        let recovered = |epoch| {
            vec![
                membership(1, true, 2),
                Record(Event::WorkerRecovered {
                    worker: w(1),
                    epoch,
                }),
            ]
        };
        // Worker 1 speaks, falls silent past the timeout, speaks again —
        // twice. Worker 0 never speaks and is never declared dead.
        script(
            &mut host,
            vec![
                (Frame(0, beat.clone()), 0, vec![]),
                (Poll, 2_000, vec![]),
                (Poll, 2_001, crashed.clone()),
                (Poll, 2_500, vec![]),
                (Frame(0, beat.clone()), 2_600, recovered(1)),
                (Poll, 4_601, crashed),
                (Frame(0, beat), 4_700, recovered(2)),
            ],
        );
        assert_eq!(host.workers_marked_dead(), 2);
        assert_eq!(host.rejoins(), 2);
    }

    #[test]
    fn a_worker_is_on_the_silence_clock_only_after_first_contact() {
        let mut host = host(SchemeKind::Asp, 2);
        let crashed = Record(Event::WorkerCrashed { worker: w(0) });
        script(
            &mut host,
            vec![
                // Nobody has spoken: slow starters are not dead.
                (Poll, 10_000, vec![]),
                (Frame(0, WireMessage::Pull { worker: w(0) }), 10_001, vec![]),
                (Poll, 12_001, vec![]),
                (Poll, 12_002, vec![crashed, membership(0, false, 1)]),
            ],
        );
    }

    #[test]
    fn out_of_range_worker_ids_are_dropped_at_the_door() {
        let mut host = host(eager(), 2);
        let mut out = Vec::new();
        for hostile in [2, 99, u32::MAX as usize] {
            let worker = w(hostile);
            for frame in [
                WireMessage::Pull { worker },
                WireMessage::Notify { worker, pushes: 3 },
                WireMessage::Heartbeat { worker },
            ] {
                host.frame(4, frame, ms(5), &mut out);
            }
            assert_eq!(host.conn_of(worker), None);
        }
        assert_eq!(out, vec![], "no output for an id the cluster lacks");
        assert_eq!(host.total_pushes(), 0);
        assert!(host.timers.is_empty(), "no beat, no window");
        assert!(host.peers.is_empty(), "the connection stays unbound");
        // Nothing reached the core: no push or pull was recorded, so no
        // per-worker history lane was grown to the hostile id.
        assert_eq!(host.history().len(), 0);
        assert_eq!(host.history().pulls().len(), 0);
        assert!(host.history().approx_bytes() < 4096);

        // The same connection can still speak for a real worker.
        host.frame(4, WireMessage::Pull { worker: w(1) }, ms(6), &mut out);
        assert_eq!(host.conn_of(w(1)), Some(4));
        assert_eq!(host.history().pulls().len(), 1);
    }

    #[test]
    fn a_hostile_cumulative_count_is_clamped_to_the_cores_gap() {
        const GAP: u64 = Scheduler::MAX_NOTIFY_GAP;
        let mut host = host(SchemeKind::Asp, 2);
        let notify = |worker, pushes| WireMessage::Notify {
            worker: w(worker),
            pushes,
        };
        let seen = |worker| Record(Event::Notify { worker: w(worker) });
        let lost = Record(Event::NotifyLoss {
            worker: w(0),
            missing: GAP,
        });
        script(
            &mut host,
            vec![
                (Frame(0, notify(0, 1)), 0, vec![seen(0)]),
                // One valid frame claiming u64::MAX pushes is clamped, not
                // looped over.
                (Frame(0, notify(0, u64::MAX)), 1, vec![lost, seen(0)]),
                // An honest cumulative count is still accepted afterwards.
                (Frame(0, notify(0, 3)), 2, vec![seen(0)]),
            ],
        );
        // The host's count is the core's: one push per notify plus the
        // clamped gap.
        assert_eq!(host.total_pushes(), 3 + GAP);
        assert_eq!(host.history().len() as u64, 3 + GAP);
        // One such frame per worker closes a bounded run of epochs.
        let mut out = Vec::new();
        host.frame(1, notify(1, u64::MAX), ms(3), &mut out);
        let tuned = |o: &&SchedOutput| matches!(o, Record(Event::EpochTuned { .. }));
        assert_eq!(out.iter().filter(tuned).count() as u64, 1 + GAP);
        assert_eq!(host.history().len() as u64, 4 + 2 * GAP);
    }

    #[test]
    fn epochs_close_over_live_workers_only() {
        let mut host = host(SchemeKind::Asp, 2);
        let notify = |worker, pushes| {
            let frame = WireMessage::Notify {
                worker: w(worker),
                pushes,
            };
            Frame(worker, frame)
        };
        let seen = |worker| Record(Event::Notify { worker: w(worker) });
        let tuned = |epoch| {
            Record(Event::EpochTuned {
                epoch,
                abort_time: SimDuration::ZERO,
                abort_rate: f64::MAX,
                estimated_gain: None,
            })
        };
        let beat = Frame(1, WireMessage::Heartbeat { worker: w(1) });
        script(
            &mut host,
            vec![
                (beat, 0, vec![]),
                (notify(0, 1), 10, vec![seen(0)]),
                (
                    Poll,
                    2_001,
                    vec![
                        Record(Event::WorkerCrashed { worker: w(1) }),
                        membership(1, false, 1),
                    ],
                ),
                // Worker 1 is dead: worker 0 alone closes epochs.
                (notify(0, 2), 2_002, vec![seen(0), tuned(1), tuned(2)]),
            ],
        );
        // ... so the bounded history stays flat while worker 1 is gone.
        let mut out = Vec::new();
        for pushes in 3..200 {
            let frame = WireMessage::Notify {
                worker: w(0),
                pushes,
            };
            host.frame(0, frame, ms(2_002 + pushes), &mut out);
        }
        assert!(host.history().retained_pushes() <= 8);
        // A rejoiner with fewer pushes holds epochs until it catches up;
        // the counter never rewinds.
        let recovered = Record(Event::WorkerRecovered {
            worker: w(1),
            epoch: 1,
        });
        script(
            &mut host,
            vec![
                (
                    notify(1, 1),
                    3_000,
                    vec![membership(1, true, 2), recovered, seen(1)],
                ),
                (notify(0, 200), 3_001, vec![seen(0)]),
            ],
        );
        assert_eq!(host.core.epoch(), 199);
    }

    #[test]
    fn a_stale_close_does_not_unbind_the_live_connection() {
        let mut host = host(eager(), 2);
        let notify = |worker, pushes| WireMessage::Notify {
            worker: w(worker),
            pushes,
        };
        let seen = |worker| Record(Event::Notify { worker: w(worker) });
        script(
            &mut host,
            vec![
                (Frame(0, notify(0, 1)), 0, vec![seen(0)]),
                // Worker 0's scheduler link reconnects as connection 1;
                // only then is the old socket's close noticed.
                (
                    Frame(1, WireMessage::Heartbeat { worker: w(0) }),
                    10,
                    vec![],
                ),
                (Closed(0), 20, vec![]),
                // A push by worker 1 inside worker 0's window trips it.
                (
                    Frame(2, notify(1, 1)),
                    50,
                    vec![
                        seen(1),
                        Record(Event::EpochTuned {
                            epoch: 1,
                            abort_time: SimDuration::from_millis(100),
                            abort_rate: 0.0,
                            estimated_gain: None,
                        }),
                    ],
                ),
                (
                    Poll,
                    100,
                    vec![
                        Record(Event::AbortIssued { worker: w(0) }),
                        ToConn(1, WireMessage::Abort { worker: w(0) }),
                    ],
                ),
            ],
        );
        assert_eq!(host.timers, [(at(ms(150)), w(1))], "worker 1's window");
        assert_eq!(host.conn_of(w(0)), Some(1), "the abort goes out on B");
        assert_eq!(host.workers_marked_dead(), 0);

        // The live connection closing is still a crash.
        let mut out = Vec::new();
        host.closed(1, ms(200), &mut out);
        assert_eq!(
            out,
            vec![
                Record(Event::WorkerCrashed { worker: w(0) }),
                membership(0, false, 1),
            ]
        );
        assert_eq!(host.conn_of(w(0)), None);
    }

    /// The kinds the core decides and records; the host records none.
    fn core_decided(event: &Event) -> bool {
        matches!(
            event,
            Event::Notify { .. }
                | Event::NotifyLoss { .. }
                | Event::AbortIssued { .. }
                | Event::Membership { .. }
                | Event::EpochTuned { .. }
                | Event::HistoryEvicted { .. }
        )
    }

    #[test]
    fn the_core_is_the_only_reporter_of_its_decisions() {
        // One script through the host: pulls, a notify with a gap, aborts,
        // a silence death and a rejoin.
        let mut host = host(eager(), 2);
        let mut out = Vec::new();
        let notify = |worker, pushes| WireMessage::Notify {
            worker: w(worker),
            pushes,
        };
        let steps = [
            (Frame(0, WireMessage::Pull { worker: w(0) }), 0),
            (Frame(1, WireMessage::Pull { worker: w(1) }), 1),
            (Frame(0, notify(0, 1)), 10),
            (Frame(1, notify(1, 3)), 20),
            (Poll, 150),
            (Frame(0, WireMessage::Heartbeat { worker: w(0) }), 1_000),
            (Poll, 2_100),
            (Frame(0, notify(0, 2)), 2_200),
            (Frame(1, WireMessage::Pull { worker: w(1) }), 2_210),
            (Frame(1, notify(1, 4)), 2_250),
            (Poll, 2_400),
        ];
        for (input, at) in steps {
            feed(&mut host, input, at, &mut out);
        }
        let got: Vec<Event> = out
            .into_iter()
            .filter_map(|o| match o {
                Record(event) => Some(event).filter(core_decided),
                ToConn(..) | SchedOutput::SampleCost => None,
            })
            .collect();

        // The same decisions as direct calls on a bare core.
        let sink = Arc::new(InMemorySink::new());
        let mut core = Scheduler::for_scheme(eager(), 2)
            .with_history_retention()
            .with_sink(sink.clone());
        let t = |millis: u64| at(ms(millis));
        core.on_pull(w(0), t(0));
        core.on_pull(w(1), t(1));
        core.on_notify_reconciled(w(0), 1, t(10)).unwrap();
        core.on_notify_reconciled(w(1), 3, t(20)).unwrap();
        core.on_epoch_complete(t(20));
        assert!(core.on_check(w(0), t(110)));
        // Nobody else pushed inside worker 1's window.
        assert!(!core.on_check(w(1), t(120)));
        assert!(core.mark_dead(w(1), t(2_100)).unwrap());
        core.on_notify_reconciled(w(0), 2, t(2_200)).unwrap();
        core.on_epoch_complete(t(2_200));
        assert!(core.mark_alive(w(1), t(2_210)).unwrap());
        core.on_pull(w(1), t(2_210));
        core.on_notify_reconciled(w(1), 4, t(2_250)).unwrap();
        assert!(core.on_check(w(0), t(2_300)));
        assert!(!core.on_check(w(1), t(2_350)));
        let want: Vec<Event> = sink.take().into_iter().map(|(_, e)| e).collect();

        let count = |kind: fn(&Event) -> bool| want.iter().filter(|e| kind(e)).count();
        assert_eq!(count(|e| matches!(e, Event::Membership { .. })), 2);
        assert_eq!(count(|e| matches!(e, Event::NotifyLoss { .. })), 1);
        assert_eq!(count(|e| matches!(e, Event::AbortIssued { .. })), 2);
        assert_eq!(count(|e| matches!(e, Event::EpochTuned { .. })), 2);
        assert_eq!(got, want, "the host's decision records are the core's");
        assert_eq!(host.total_pushes(), core.stats().notifies + 2);
    }

    #[test]
    fn bounded_history_makes_identical_decisions_through_the_host() {
        // The PR 6 bounded-vs-unbounded drive, as frames: the always-on
        // bound must change memory only, never an output.
        let mut bounded = host(SchemeKind::specsync_adaptive(), 4);
        let mut unbounded = SchedulerHost::around(Scheduler::new(4, TuningMode::Adaptive), TIMEOUT);
        let at = |secs: f64| Duration::from_micros((secs * 1e6) as u64);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for round in 0..24u64 {
            for i in 0..4usize {
                let base = round as f64 * 4.0 + i as f64;
                let steps = [
                    (Some(WireMessage::Pull { worker: w(i) }), base),
                    (
                        Some(WireMessage::Notify {
                            worker: w(i),
                            pushes: round + 1,
                        }),
                        base + 3.7 + i as f64 * 0.11,
                    ),
                    (None, base + 3.95),
                ];
                for (frame, secs) in steps {
                    match frame {
                        Some(frame) => {
                            bounded.frame(i, frame.clone(), at(secs), &mut a);
                            unbounded.frame(i, frame, at(secs), &mut b);
                        }
                        None => {
                            bounded.poll(at(secs), &mut a);
                            unbounded.poll(at(secs), &mut b);
                        }
                    }
                }
            }
        }
        let evictions = a
            .iter()
            .filter(|o| matches!(o, Record(Event::HistoryEvicted { .. })))
            .count();
        assert!(evictions >= 12, "the bound must have evicted");
        a.retain(|o| !matches!(o, Record(Event::HistoryEvicted { .. })));
        assert_eq!(a, b, "aborts, tuned hyperparameters and samples match");
        let tuned = |o: &&SchedOutput| matches!(o, Record(Event::EpochTuned { .. }));
        assert_eq!(a.iter().filter(tuned).count(), 24);
        assert!(
            a.iter()
                .any(|o| matches!(o, ToConn(_, WireMessage::Abort { .. }))),
            "no abort fired"
        );

        // Memory: the bounded host keeps the tuner's lookback, the other
        // keeps everything.
        assert_eq!(unbounded.history().evicted_pushes(), 0);
        assert_eq!(unbounded.history().retained_pushes(), 96);
        assert!(bounded.history().retained_pushes() <= 4 * 5);
        assert!(bounded.history().evicted_pushes() >= 4 * 19);
    }
}
