//! The consolidated wire vocabulary: every message the SpecSync protocol
//! puts between processes, plus the byte-size model used for transfer
//! accounting.
//!
//! One enum, [`WireMessage`], covers the whole protocol — the worker↔shard
//! data plane (`Pull`/`PullReply`/`Push`/`PushAck`), the worker↔scheduler
//! control plane (`Notify`/`Abort`/`Heartbeat`), the primary→backup relay
//! (`RelayTag`, paired in memory into `RelayPush`) and the failover
//! control frames ([`FailoverControl`]). Every transport impl and every
//! host handler speaks exactly this vocabulary; clippy's
//! `wildcard_enum_match_arm` (denied on this crate's lib) keeps a `_` arm
//! from silently dropping a new variant.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use specsync_ps::{PushPayload, StoreCheckpoint};
use specsync_simnet::{MessageClass, WorkerId};

/// One SpecSync protocol message, as a [`Transport`] carries it.
///
/// Replies embed shared `Arc` parameter blocks so a snapshot served to
/// hundreds of concurrent clients is stored once ([`ParamSnapshot`]
/// semantics carried onto the wire).
///
/// [`Transport`]: crate::Transport
/// [`ParamSnapshot`]: specsync_ps::ParamSnapshot
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Worker → shard: request the current parameter snapshot. Also sent
    /// worker → scheduler as the pull *notice* that feeds push-history
    /// freshness accounting (paper §IV-B).
    Pull {
        /// The requesting worker.
        worker: WorkerId,
    },
    /// Shard → worker: the snapshot. The parameter block is shared, not
    /// copied — the shard serializes each store version once and every
    /// concurrent client reply clones the `Arc`, not the floats.
    PullReply {
        /// Store version (total applied pushes) of the snapshot.
        version: u64,
        /// The full parameter vector.
        params: Arc<[f32]>,
    },
    /// Worker → shard: a gradient push (dense or sparse). The learning
    /// rate is the shard's business — it owns the schedule and the epoch
    /// counter.
    Push {
        /// The pushing worker.
        worker: WorkerId,
        /// The gradient.
        payload: PushPayload,
    },
    /// Shard → worker: push applied. `version` is the store version after
    /// the apply; `pushes_by_worker` the shard's cumulative applied-push
    /// count for this worker (the reconciliation counter a notify
    /// piggybacks).
    PushAck {
        /// Store version after this push.
        version: u64,
        /// Cumulative pushes the shard has applied for this worker.
        pushes_by_worker: u64,
    },
    /// Worker → scheduler: iteration complete. `pushes` is the worker's
    /// cumulative push count, letting the scheduler reconcile away lost
    /// notifies (paper §IV-C).
    Notify {
        /// The notifying worker.
        worker: WorkerId,
        /// Cumulative pushes by this worker.
        pushes: u64,
    },
    /// Scheduler → worker: abort the speculative iteration and re-pull
    /// (the paper's `re-sync` instruction).
    Abort {
        /// The worker being re-synced.
        worker: WorkerId,
    },
    /// Liveness beat. Workers beat the scheduler; shard processes beat it
    /// too (identified by their registered connection, with the shard id
    /// in the `worker` field), so one silence detector covers both.
    Heartbeat {
        /// Sender id (worker index, or shard id on a shard connection).
        worker: WorkerId,
    },
    /// Failover control plane: shard registration, promotion, the
    /// where-is-the-primary exchange workers use to ride out a shard
    /// death, and the backup rejoin handshake. See [`FailoverControl`].
    Failover(FailoverControl),
    /// Graceful shutdown of the receiving host loop.
    Shutdown,
    /// A write-ahead relayed push as a backup handles it, tagged with the
    /// store version it produces (`seq`) and the learning rate the primary
    /// will apply it with. The tag makes the at-least-once relay
    /// idempotent — a backup that already holds `seq` acks without
    /// re-applying, so no push can land twice. A relay travels as
    /// [`RelayTag`](Self::RelayTag) + the worker's `Push` frame and
    /// becomes this variant in the backup's memory; no socket carries it,
    /// though the codec still encodes it for callers that replay a relay
    /// in one process.
    RelayPush {
        /// Store version this push produces (`version + 1` at the
        /// primary when the push was relayed).
        seq: u64,
        /// The originating worker (per-worker counters replay exactly).
        worker: WorkerId,
        /// Learning rate the primary applies — carried so both replicas
        /// run bit-identical arithmetic regardless of local epoch state.
        lr: f32,
        /// The gradient.
        payload: PushPayload,
    },
    /// Primary → backup: the tag of a *forwarded* write-ahead relay. The
    /// next frame on the connection is the worker's own `Push` frame, byte
    /// for byte as the primary received it; the backup pairs the two into
    /// a [`RelayPush`](Self::RelayPush) and handles that. A live relay
    /// therefore costs the primary no re-encode, and the backup verifies
    /// the checksum the worker computed. Anything but a `Push` after a
    /// `RelayTag` is a protocol error that drops the connection.
    RelayTag {
        /// Store version the following push produces.
        seq: u64,
        /// Learning rate the primary applies it with.
        lr: f32,
    },
}

impl WireMessage {
    /// The transfer-accounting class of this message, tying the wire
    /// vocabulary to the simulator's [`MessageSizes`] model: snapshots and
    /// gradients are bulk, everything else is control traffic.
    pub fn class(&self) -> MessageClass {
        match self {
            WireMessage::Pull { .. } | WireMessage::PullReply { .. } => MessageClass::PullParams,
            WireMessage::Push { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::RelayPush { .. } => MessageClass::PushGrad,
            WireMessage::Notify { .. } => MessageClass::Notify,
            WireMessage::Abort { .. } => MessageClass::Resync,
            // A relay tag is 33 bytes; the gradient travels in the `Push`
            // frame behind it.
            WireMessage::Heartbeat { .. }
            | WireMessage::Failover(_)
            | WireMessage::RelayTag { .. }
            | WireMessage::Shutdown => MessageClass::Control,
        }
    }

    /// The worker a message concerns, when it names one.
    pub fn worker(&self) -> Option<WorkerId> {
        match self {
            WireMessage::Pull { worker }
            | WireMessage::Push { worker, .. }
            | WireMessage::Notify { worker, .. }
            | WireMessage::Abort { worker }
            | WireMessage::Heartbeat { worker } => Some(*worker),
            // `RelayPush` is replica-plane traffic: the worker field is
            // replay bookkeeping, not a connection identity, so the
            // scheduler must never bind a connection to it.
            WireMessage::PullReply { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::Failover(_)
            | WireMessage::RelayPush { .. }
            | WireMessage::RelayTag { .. }
            | WireMessage::Shutdown => None,
        }
    }
}

/// The failover control vocabulary, nested under
/// [`WireMessage::Failover`]: the scheduler promotes a warm-backup
/// *process* and tells reconnecting workers where the primary now lives,
/// and a fresh shard process provisions itself from the serving primary.
#[derive(Debug, Clone, PartialEq)]
pub enum FailoverControl {
    /// Scheduler → warm backup: take over as primary of `server`'s pair.
    Promote {
        /// Shard id of the backup being promoted.
        server: u64,
    },
    /// Promotion reply: the backup now serves, at `version`, holding
    /// `replayed` pushes it absorbed over the write-ahead relay while it
    /// was the backup.
    Promoted {
        /// Shard id that was promoted.
        server: u64,
        /// Store version after promotion.
        version: u64,
        /// Relayed pushes the backup applied before it took over.
        replayed: u64,
    },
    /// Shard process → scheduler, on connect: here is my listen address.
    /// `backup` marks the warm standby.
    Register {
        /// Shard id.
        server: u64,
        /// Whether this process is the warm backup.
        backup: bool,
        /// The address the shard serves workers on.
        addr: String,
    },
    /// Worker → scheduler: which address is the primary shard right now?
    /// (Sent after a connection failure, before reconnecting.)
    QueryPrimary,
    /// Scheduler → worker: the current primary address. `epoch` counts
    /// promotions, so a worker can tell a stale answer from a fresh one.
    Primary {
        /// Address of the serving primary.
        addr: String,
        /// Promotion epoch (0 until the first failover).
        epoch: u64,
    },
    /// Fresh shard process → primary: provision me as the warm backup.
    /// Opens the two-phase rejoin: the primary answers with one
    /// [`Snapshot`](Self::Snapshot) of its serving store, the joiner
    /// confirms with [`BackupReady`](Self::BackupReady), and the primary
    /// keeps the connection as its live write-ahead relay.
    JoinAsBackup {
        /// The joining shard's id.
        server: u64,
        /// The address the joiner serves workers on (registered with the
        /// scheduler once parity is reached).
        addr: String,
    },
    /// Primary → joiner: the serving store, settled at its current
    /// version, in one frame. The frame's checksum is the only one it
    /// passes through; the joiner's
    /// [`ParameterStore::restore`](specsync_ps::ParameterStore::restore)
    /// checks every store invariant before anything is installed.
    Snapshot(StoreCheckpoint),
    /// Joiner → primary (and then → scheduler): the snapshot is installed
    /// and I hold `version`. The primary adopts the connection as its
    /// relay only if `version` is the snapshot's own.
    BackupReady {
        /// The joined shard's id.
        server: u64,
        /// Store version the joiner installed.
        version: u64,
    },
}

/// Byte sizes of each PS message class for one workload.
///
/// The experiment harness accounts transfer volume at the *paper's* model
/// scale (millions of parameters, 4 bytes each), even though the trained
/// model is smaller — this keeps Fig. 12/13 magnitudes comparable to the
/// paper's TB-scale numbers. Control messages (`notify`/`re-sync`) carry a
/// sender id and a timestamp, "a short list of numbers" per §V-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageSizes {
    /// Bytes for one full parameter pull.
    pub pull_bytes: u64,
    /// Bytes for one gradient push (same dimensionality as a pull).
    pub push_bytes: u64,
    /// Bytes for a `notify` control message.
    pub notify_bytes: u64,
    /// Bytes for a `re-sync` control message.
    pub resync_bytes: u64,
    /// Bytes for other control traffic.
    pub control_bytes: u64,
}

impl MessageSizes {
    /// Sizes for a model of `num_parameters` parameters at 4 bytes each,
    /// with 16-byte control messages (id + timestamp).
    pub fn for_model(num_parameters: u64) -> Self {
        MessageSizes {
            pull_bytes: num_parameters * 4,
            push_bytes: num_parameters * 4,
            notify_bytes: 16,
            resync_bytes: 16,
            control_bytes: 16,
        }
    }

    /// The byte size of a message of the given class.
    pub fn bytes_for(&self, class: MessageClass) -> u64 {
        match class {
            MessageClass::PullParams => self.pull_bytes,
            MessageClass::PushGrad => self.push_bytes,
            MessageClass::Notify => self.notify_bytes,
            MessageClass::Resync => self.resync_bytes,
            MessageClass::Control => self.control_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sizes_scale_with_parameter_count() {
        let s = MessageSizes::for_model(2_500_000);
        assert_eq!(s.pull_bytes, 10_000_000);
        assert_eq!(s.push_bytes, 10_000_000);
        assert_eq!(s.notify_bytes, 16);
    }

    #[test]
    fn bytes_for_covers_every_class() {
        let s = MessageSizes::for_model(100);
        for class in MessageClass::ALL {
            assert!(s.bytes_for(class) > 0);
        }
        assert_eq!(s.bytes_for(MessageClass::PullParams), 400);
        assert_eq!(s.bytes_for(MessageClass::Resync), 16);
    }

    #[test]
    fn every_frame_maps_to_a_class() {
        let w = WorkerId::new(3);
        let frames = [
            (WireMessage::Pull { worker: w }, MessageClass::PullParams),
            (
                WireMessage::PullReply {
                    version: 1,
                    params: Arc::from(vec![0.0f32].as_slice()),
                },
                MessageClass::PullParams,
            ),
            (
                WireMessage::Push {
                    worker: w,
                    payload: PushPayload::Dense(vec![1.0]),
                },
                MessageClass::PushGrad,
            ),
            (
                WireMessage::PushAck {
                    version: 2,
                    pushes_by_worker: 1,
                },
                MessageClass::PushGrad,
            ),
            (
                WireMessage::Notify {
                    worker: w,
                    pushes: 4,
                },
                MessageClass::Notify,
            ),
            (WireMessage::Abort { worker: w }, MessageClass::Resync),
            (WireMessage::Heartbeat { worker: w }, MessageClass::Control),
            (
                WireMessage::Failover(FailoverControl::QueryPrimary),
                MessageClass::Control,
            ),
            (
                WireMessage::Failover(FailoverControl::JoinAsBackup {
                    server: 2,
                    addr: "127.0.0.1:9".into(),
                }),
                MessageClass::Control,
            ),
            (
                WireMessage::Failover(FailoverControl::Snapshot(
                    specsync_ps::ParameterStore::new(vec![0.0; 2], 1).snapshot_for_checkpoint(),
                )),
                MessageClass::Control,
            ),
            (
                WireMessage::Failover(FailoverControl::BackupReady {
                    server: 2,
                    version: 21,
                }),
                MessageClass::Control,
            ),
            (
                WireMessage::RelayPush {
                    seq: 5,
                    worker: w,
                    lr: 0.1,
                    payload: PushPayload::Dense(vec![1.0]),
                },
                MessageClass::PushGrad,
            ),
            (
                WireMessage::RelayTag { seq: 5, lr: 0.1 },
                MessageClass::Control,
            ),
            (WireMessage::Shutdown, MessageClass::Control),
        ];
        for (frame, class) in frames {
            assert_eq!(frame.class(), class, "{frame:?}");
        }
    }

    #[test]
    fn worker_extraction() {
        let w = WorkerId::new(7);
        assert_eq!(WireMessage::Pull { worker: w }.worker(), Some(w));
        assert_eq!(WireMessage::Shutdown.worker(), None);
        assert_eq!(
            WireMessage::PushAck {
                version: 0,
                pushes_by_worker: 0
            }
            .worker(),
            None
        );
        // A relayed push names its originating worker but must *not*
        // expose it as a connection identity — the scheduler would bind
        // the relay conn to that worker otherwise.
        assert_eq!(
            WireMessage::RelayPush {
                seq: 1,
                worker: w,
                lr: 0.1,
                payload: PushPayload::Dense(vec![0.0]),
            }
            .worker(),
            None
        );
    }
}
