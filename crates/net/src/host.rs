//! The shard-side protocol handler: one [`ShardHost`] owns the shard's
//! [`ParameterStore`] and answers every [`WireMessage`] a shard can
//! receive.
//!
//! The TCP shard server — in its own process, or on a thread of the
//! threaded runtime — applies pushes through
//! [`apply_push`](ShardHost::apply_push) and serves pulls from
//! [`encoded_pull_reply`](ShardHost::encoded_pull_reply); callers that
//! hold decoded frames use [`handle`](ShardHost::handle), which delegates
//! a push to the same function. Every push is applied straight from where
//! its gradient already lives — the bytes of the frame it arrived in, or
//! a decoded payload — and nothing of it is kept: a shard process holds
//! exactly one copy of the model, and its replica is another shard
//! process, fed by the server's write-ahead relay. (The virtual-time
//! simulator models a failover inside one process instead, on a store
//! that keeps its own backup copy, and does not go through this host.)
//!
//! No failover verb reaches the host: the TCP server obeys `Promote` on
//! its scheduler link and runs the rejoin handshake on the connection
//! that asked for it, because both own a socket, not just the store. The
//! one store swap, a rejoin's, is [`install_store`](ShardHost::install_store).
//!
//! Pull serving is read-mostly: the host serializes each store version's
//! `PullReply` frame **once**, straight from the store's parameters, and
//! shares the encoder's own buffer (`Arc<Vec<u8>>`, no second copy)
//! across every concurrent client until the next push bumps the version.
//! The next version is encoded into the same buffer when no client still
//! holds it.

use std::fmt;
use std::sync::Arc;

use specsync_ps::{ParameterStore, PushPayload};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

use crate::error::NetError;
use crate::frame::{encode_pull_reply_into, le_floats};
use crate::wire::WireMessage;

/// Learning rate the frame path uses when no schedule is installed.
pub const DEFAULT_FRAME_LR: f32 = 0.05;

type LrFn = Box<dyn Fn(u64) -> f32 + Send>;

/// A push's gradient where it already lives, as
/// [`ShardHost::apply_push`] takes it.
#[derive(Debug, Clone, Copy)]
pub enum Gradient<'a> {
    /// Dense, as a frame carries it: four little-endian bytes per float.
    Wire(&'a [u8]),
    /// Dense, decoded.
    Dense(&'a [f32]),
    /// Sparse.
    Sparse(&'a SparseGrad),
}

impl<'a> From<&'a PushPayload> for Gradient<'a> {
    fn from(payload: &'a PushPayload) -> Self {
        match payload {
            PushPayload::Dense(grad) => Gradient::Dense(grad),
            PushPayload::Sparse(grad) => Gradient::Sparse(grad),
        }
    }
}

/// The shard protocol handler. See the module docs.
pub struct ShardHost {
    store: ParameterStore,
    lr_fn: Option<LrFn>,
    /// Applied pushes per worker index, for the frame path's epoch
    /// estimate (an epoch completes when every tracked worker has one
    /// more push).
    per_worker: Vec<u64>,
    /// Set by [`with_workers`](Self::with_workers): the tracked workers
    /// are exactly the registered ones, so a push from any other index
    /// stays out of the estimate.
    registered: bool,
    epochs: u64,
    /// Encoded `PullReply` frame for `(version, bytes)` — rebuilt once
    /// per store version, shared across clients.
    encoded: Option<(u64, Arc<Vec<u8>>)>,
}

impl fmt::Debug for ShardHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardHost")
            .field("version", &self.store.version())
            .field("epochs", &self.epochs)
            .field("has_lr_fn", &self.lr_fn.is_some())
            .finish()
    }
}

impl ShardHost {
    /// Serves `store`.
    pub fn new(store: impl Into<ParameterStore>) -> Self {
        ShardHost {
            store: store.into(),
            lr_fn: None,
            per_worker: Vec::new(),
            registered: false,
            epochs: 0,
            encoded: None,
        }
    }

    /// Installs the learning-rate schedule the frame path applies
    /// (epochs → rate). Without one, pushes use [`DEFAULT_FRAME_LR`].
    pub fn with_lr_fn(mut self, lr_fn: impl Fn(u64) -> f32 + Send + 'static) -> Self {
        self.lr_fn = Some(Box::new(lr_fn));
        self
    }

    /// Registers the `m` workers the epoch estimate tracks, so it counts
    /// silent ones from the start and ignores pushes from any index ≥ `m`
    /// (otherwise workers are tracked on first push).
    pub fn with_workers(mut self, m: usize) -> Self {
        self.per_worker = vec![0; m];
        self.registered = true;
        self
    }

    /// The served store, for reads the protocol does not cover
    /// (evaluation, version checks).
    pub fn store(&self) -> &ParameterStore {
        &self.store
    }

    /// Mutable access to the served store (checkpoint capture settles its
    /// lazy momentum state, which changes no bit of later arithmetic).
    pub fn store_mut(&mut self) -> &mut ParameterStore {
        &mut self.store
    }

    /// Epochs completed under the frame path's estimate.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Applies one push from `worker` and acks it: every push, from a
    /// worker or relayed, from a frame's bytes or a decoded payload, comes
    /// through here. A worker's push (`relay` is `None`) is applied at the
    /// frame path's rate. A relayed one carries the `(seq, lr)` its primary
    /// tagged it with: a `seq` the store already holds is an at-least-once
    /// re-delivery, acked without touching the store — applying it twice
    /// would double the gradient — and one that skips a version is
    /// refused.
    ///
    /// # Errors
    ///
    /// [`NetError::Unhandled`] for a gradient whose dimension is not the
    /// model's — a well-formed frame can carry any — and for a relayed
    /// push that skips a sequence number. The store is untouched.
    pub fn apply_push(
        &mut self,
        worker: WorkerId,
        grad: Gradient<'_>,
        relay: Option<(u64, f32)>,
    ) -> Result<WireMessage, NetError> {
        if !self.fits(grad) {
            return Err(NetError::Unhandled {
                what: "push gradient of another dimension than the model",
            });
        }
        let lr = match relay {
            None => self.frame_lr(),
            Some((seq, lr)) => {
                let version = self.store.version();
                if seq <= version {
                    return Ok(WireMessage::PushAck {
                        version,
                        pushes_by_worker: self.store.pushes_by(worker),
                    });
                }
                if seq != version + 1 {
                    return Err(NetError::Unhandled {
                        what: "relay push sequence gap",
                    });
                }
                lr
            }
        };
        let store = &mut self.store;
        let version = match grad {
            Gradient::Wire(bytes) => store.apply_push_from(worker, le_floats(bytes), lr),
            Gradient::Dense(grad) => store.apply_push(worker, grad, lr),
            Gradient::Sparse(grad) => store.apply_push_sparse(worker, grad, lr),
        };
        let pushes_by_worker = self.store.pushes_by(worker);
        self.count_push(worker, pushes_by_worker);
        Ok(WireMessage::PushAck {
            version,
            pushes_by_worker,
        })
    }

    /// Whether `grad` has the model's dimension, which a well-formed frame
    /// need not: [`apply_push`](Self::apply_push) refuses any other.
    pub(crate) fn fits(&self, grad: Gradient<'_>) -> bool {
        let dim = match grad {
            Gradient::Wire(bytes) => bytes.len() / 4,
            Gradient::Dense(grad) => grad.len(),
            Gradient::Sparse(grad) => grad.dim(),
        };
        dim == self.store.num_params()
    }

    /// The rate the frame path applies to the next push.
    fn frame_lr(&self) -> f32 {
        match &self.lr_fn {
            Some(f) => f(self.epochs),
            None => DEFAULT_FRAME_LR,
        }
    }

    /// Folds `worker`'s applied-push count into the epoch estimate.
    fn count_push(&mut self, worker: WorkerId, pushes_by_worker: u64) {
        let idx = worker.index();
        if idx >= self.per_worker.len() {
            if self.registered {
                return;
            }
            self.per_worker.resize(idx + 1, 0);
        }
        self.per_worker[idx] = self.per_worker[idx].max(pushes_by_worker);
        let min = self.per_worker.iter().min().copied().unwrap_or(0);
        if min > self.epochs {
            self.epochs = min;
        }
    }

    /// What the write-ahead relay tags the next push with: the sequence
    /// number is the version that push will produce, and the learning rate
    /// is the one this host will apply — so the backup replays
    /// bit-identical arithmetic and can drop re-deliveries by sequence.
    pub fn relay_tag(&self) -> (u64, f32) {
        (self.store.version() + 1, self.frame_lr())
    }

    /// Tags an incoming `Push` frame as the [`WireMessage::RelayPush`] a
    /// backup handles, with [`relay_tag`](Self::relay_tag)'s sequence and
    /// rate. The live relay forwards the received frame bytes behind a
    /// [`WireMessage::RelayTag`] instead; this owned form is for callers
    /// that hold a decoded push and no bytes. Returns `None` for any other
    /// frame.
    pub fn tag_relay(&self, frame: &WireMessage) -> Option<WireMessage> {
        let WireMessage::Push { worker, payload } = frame else {
            return None;
        };
        let (seq, lr) = self.relay_tag();
        Some(WireMessage::RelayPush {
            seq,
            worker: *worker,
            lr,
            payload: payload.clone(),
        })
    }

    /// Replaces the served store with one restored from a rejoin
    /// snapshot; the encoded-reply cache is dropped so no bytes of the old
    /// store can be served. The store's per-worker push counts are folded
    /// into the epoch estimate as if its pushes had been applied here, so
    /// a joiner starts at its primary's epoch and rate; the estimate never
    /// rewinds.
    pub fn install_store(&mut self, store: ParameterStore) {
        for (idx, &count) in store.push_counts().iter().enumerate() {
            if count > 0 {
                self.count_push(WorkerId::new(idx), count);
            }
        }
        self.store = store;
        self.encoded = None;
    }

    /// Handles one decoded frame, returning the reply frame (if the verb
    /// has one). A push's payload is applied by reference through
    /// [`apply_push`](Self::apply_push) and dropped with the frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Unhandled`] for frames a shard never receives and for a
    /// relayed push that skips a sequence number.
    pub fn handle(&mut self, frame: WireMessage) -> Result<Option<WireMessage>, NetError> {
        match frame {
            WireMessage::Pull { worker } => {
                let snapshot = self.store.pull(worker);
                Ok(Some(WireMessage::PullReply {
                    version: snapshot.version(),
                    params: snapshot.into_shared(),
                }))
            }
            WireMessage::Push { worker, payload } => {
                self.apply_push(worker, (&payload).into(), None).map(Some)
            }
            WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload,
            } => self
                .apply_push(worker, (&payload).into(), Some((seq, lr)))
                .map(Some),
            WireMessage::Shutdown => Ok(None),
            WireMessage::Failover(_) => Err(NetError::Unhandled {
                what: "failover verb routed past the server connection layer",
            }),
            // Half of a forwarded relay: the connection layer pairs it
            // with the `Push` frame behind it and hands over a `RelayPush`.
            WireMessage::RelayTag { .. } => Err(NetError::Unhandled {
                what: "relay tag routed past the server connection layer",
            }),
            WireMessage::PullReply { .. } | WireMessage::PushAck { .. } => {
                Err(NetError::Unhandled {
                    what: "reply frame sent to a shard host",
                })
            }
            WireMessage::Notify { .. }
            | WireMessage::Abort { .. }
            | WireMessage::Heartbeat { .. } => Err(NetError::Unhandled {
                what: "scheduler-plane frame sent to a shard host",
            }),
        }
    }

    /// Serves a pull as pre-encoded frame bytes: the `PullReply` frame for
    /// the current version is serialized once, straight from the store,
    /// and the encoder's buffer is shared (`Arc`) across every concurrent
    /// client until a push bumps the version. The next version is encoded
    /// into the same buffer if no client still holds it, and into a fresh
    /// one if one does. Returns the bytes and the staleness observed
    /// before the pull registered.
    ///
    /// # Errors
    ///
    /// [`NetError::Frame`] when the model dimension exceeds the frame
    /// payload limit (deterministic on the first pull, at
    /// store-construction dimension — never mid-run).
    pub fn encoded_pull_reply(
        &mut self,
        worker: WorkerId,
    ) -> Result<(Arc<Vec<u8>>, u64), NetError> {
        let staleness = self.store.staleness_of(worker);
        let version = self.store.record_pull(worker);
        let mut buf = match self.encoded.take() {
            Some((cached, bytes)) if cached == version => {
                self.encoded = Some((cached, Arc::clone(&bytes)));
                return Ok((bytes, staleness));
            }
            Some((_, bytes)) => Arc::try_unwrap(bytes).unwrap_or_default(),
            None => Vec::new(),
        };
        encode_pull_reply_into(version, self.store.params(), &mut buf)?;
        let bytes = Arc::new(buf);
        self.encoded = Some((version, Arc::clone(&bytes)));
        Ok((bytes, staleness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::decode_frame;

    fn host() -> ShardHost {
        ShardHost::new(ParameterStore::new(vec![0.0; 8], 2)).with_workers(2)
    }

    /// Pushes a dense gradient of `value`s as `worker` and returns the ack.
    fn push(h: &mut ShardHost, worker: usize, value: f32) -> Option<WireMessage> {
        h.handle(WireMessage::Push {
            worker: WorkerId::new(worker),
            payload: PushPayload::Dense(vec![value; 8]),
        })
        .unwrap()
    }

    #[test]
    fn pull_after_push_sees_new_version() {
        let mut h = host();
        let ack = push(&mut h, 0, 1.0);
        assert_eq!(
            ack,
            Some(WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            })
        );
        let (bytes, _) = h.encoded_pull_reply(WorkerId::new(0)).unwrap();
        let decoded = decode_frame(&bytes).unwrap();
        assert!(matches!(decoded, WireMessage::PullReply { version: 1, .. }));
    }

    /// The frame path runs the store's own verbs: a push through `handle`
    /// leaves the bits a direct apply at the same rate leaves.
    #[test]
    fn frame_path_matches_verb_path() {
        let mut h = host();
        let w = WorkerId::new(1);
        let payload = PushPayload::Dense(vec![0.5; 8]);
        h.handle(WireMessage::Push {
            worker: w,
            payload: payload.clone(),
        })
        .unwrap();
        let mut direct = ParameterStore::new(vec![0.0; 8], 2);
        assert_eq!(payload.apply_to(&mut direct, w, DEFAULT_FRAME_LR), 1);
        let reply = h.handle(WireMessage::Pull { worker: w }).unwrap();
        let Some(WireMessage::PullReply { version, params }) = reply else {
            panic!("want PullReply, got {reply:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(&params[..], direct.params());
    }

    #[test]
    fn encoded_reply_is_shared_until_version_bumps() {
        let mut h = host();
        let w0 = WorkerId::new(0);
        let w1 = WorkerId::new(1);
        push(&mut h, 0, 1.0);
        let (a, _) = h.encoded_pull_reply(w0).unwrap();
        let (b, _) = h.encoded_pull_reply(w1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same version must share bytes");
        let decoded = decode_frame(&a).unwrap();
        assert!(matches!(decoded, WireMessage::PullReply { version: 1, .. }));
        push(&mut h, 1, 1.0);
        let (c, _) = h.encoded_pull_reply(w0).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "new version must re-serialize");
    }

    /// The server's serving idiom — lock the host, grab the encoded
    /// reply, write outside the lock — under concurrent pullers while a
    /// pusher bumps versions and a rejoin installs a restored store
    /// mid-stream: no puller may ever decode a version older than one it
    /// already saw (a stale cached frame surviving the swap would do
    /// exactly that), and after the swap the cache must serve the new
    /// store's real version, not the old store's bytes.
    #[test]
    fn concurrent_pullers_never_decode_a_stale_cached_reply_across_promotion() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = Arc::new(parking_lot::Mutex::new(host()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut pullers = Vec::new();
        for t in 0..4usize {
            let h = Arc::clone(&h);
            let stop = Arc::clone(&stop);
            pullers.push(std::thread::spawn(move || {
                let w = WorkerId::new(t % 2);
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (bytes, _) = h.lock().encoded_pull_reply(w).unwrap();
                    let WireMessage::PullReply { version, .. } = decode_frame(&bytes).unwrap()
                    else {
                        panic!("cache served a non-PullReply frame");
                    };
                    assert!(version >= last, "stale cached reply: {version} < {last}");
                    last = version;
                }
            }));
        }
        for _ in 0..10 {
            push(&mut h.lock(), 0, 1.0);
            push(&mut h.lock(), 1, 1.0);
            std::thread::yield_now();
        }
        let w0 = WorkerId::new(0);
        let pre_swap = h.lock().encoded_pull_reply(w0).unwrap().0;
        {
            // A rejoin installs the checkpoint of the same version: only
            // the cache can tell the two stores apart.
            let mut locked = h.lock();
            let checkpoint = locked.store_mut().snapshot_for_checkpoint();
            locked.install_store(ParameterStore::restore(checkpoint).unwrap());
        }
        for _ in 0..10 {
            push(&mut h.lock(), 0, 1.0);
            push(&mut h.lock(), 1, 1.0);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for p in pullers {
            p.join().unwrap();
        }
        let mut locked = h.lock();
        let store_version = locked.store().version();
        let (bytes, _) = locked.encoded_pull_reply(w0).unwrap();
        let WireMessage::PullReply { version, .. } = decode_frame(&bytes).unwrap() else {
            panic!("cache served a non-PullReply frame");
        };
        assert_eq!(version, store_version, "cache must track the live store");
        assert_eq!(store_version, 40);
        assert!(
            !Arc::ptr_eq(&pre_swap, &bytes),
            "pulls after the swap must not reuse the old store's bytes"
        );

        // Straight after a swap to an equal version the cache is empty, so
        // the reply is re-encoded from the installed store.
        let checkpoint = locked.store_mut().snapshot_for_checkpoint();
        locked.install_store(ParameterStore::restore(checkpoint).unwrap());
        let (fresh, _) = locked.encoded_pull_reply(w0).unwrap();
        assert!(!Arc::ptr_eq(&bytes, &fresh), "install_store keeps no bytes");
        assert_eq!(fresh, bytes, "the same version encodes the same frame");
    }

    #[test]
    fn staleness_observed_before_pull_registers() {
        let mut h = host();
        let w = WorkerId::new(0);
        h.encoded_pull_reply(w).unwrap();
        push(&mut h, 1, 1.0);
        let (_, staleness) = h.encoded_pull_reply(w).unwrap();
        assert_eq!(staleness, 1, "one version behind at request time");
    }

    #[test]
    fn relay_push_redelivery_is_idempotent() {
        let mut h = host();
        let w = WorkerId::new(0);
        let relay = WireMessage::RelayPush {
            seq: 1,
            worker: w,
            lr: 0.1,
            payload: PushPayload::Dense(vec![1.0; 8]),
        };
        let ack = h.handle(relay.clone()).unwrap();
        assert_eq!(
            ack,
            Some(WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            })
        );
        let params_once: Vec<f32> = h.store_mut().params().to_vec();

        // The at-least-once relay re-delivers the same sequence (e.g. the
        // primary retried after a dropped ack): the backup must ack
        // without re-applying.
        let ack = h.handle(relay).unwrap();
        assert_eq!(
            ack,
            Some(WireMessage::PushAck {
                version: 1,
                pushes_by_worker: 1
            })
        );
        assert_eq!(
            h.store_mut().params(),
            params_once.as_slice(),
            "a re-delivered relay must not double-apply"
        );

        // A sequence gap is a protocol break, not silently absorbed.
        let err = h
            .handle(WireMessage::RelayPush {
                seq: 5,
                worker: w,
                lr: 0.1,
                payload: PushPayload::Dense(vec![1.0; 8]),
            })
            .unwrap_err();
        assert!(matches!(err, NetError::Unhandled { .. }));
    }

    #[test]
    fn tag_relay_carries_seq_and_lr() {
        let mut h = host().with_lr_fn(|_| 0.25);
        let w = WorkerId::new(1);
        push(&mut h, 1, 1.0);
        let push = WireMessage::Push {
            worker: w,
            payload: PushPayload::Dense(vec![0.5; 8]),
        };
        let tagged = h.tag_relay(&push).unwrap();
        let WireMessage::RelayPush {
            seq,
            worker,
            lr,
            payload,
        } = tagged
        else {
            panic!("tag_relay must produce RelayPush");
        };
        assert_eq!(seq, 2, "seq is the version this push will produce");
        assert_eq!(worker, w);
        assert_eq!(lr, 0.25);
        assert_eq!(payload, PushPayload::Dense(vec![0.5; 8]));
        assert_eq!(
            h.relay_tag(),
            (seq, lr),
            "the forwarded relay's tag is the owned form's"
        );
        assert_eq!(
            h.tag_relay(&WireMessage::Shutdown),
            None,
            "only pushes relay"
        );
    }

    /// The epoch estimate folds the store's per-worker counts in with
    /// `max`, so it cannot rewind — but a store rebuilt with its counts back
    /// at zero would freeze it until they caught up. A rejoin therefore
    /// installs a checkpoint, which carries the counts on.
    #[test]
    fn epochs_keep_advancing_one_per_round_across_install_store() {
        let mut h = host().with_lr_fn(|epochs| 1.0 / (1 + epochs) as f32);
        for worker in [0, 1, 0, 1] {
            push(&mut h, worker, 1.0);
        }
        assert_eq!(h.epochs(), 2);

        let checkpoint = h.store_mut().snapshot_for_checkpoint();
        h.install_store(ParameterStore::restore(checkpoint).unwrap());
        assert_eq!(h.epochs(), 2, "a rejoin must not rewind the epochs");
        push(&mut h, 0, 1.0);
        // Rates 1, 1, ½, ½ before the install, then lr_fn(2).
        assert_eq!(h.store_mut().params(), &[-3.0 - 1.0 / 3.0; 8], "lr_fn(2)");
        assert_eq!(h.epochs(), 2, "half a round");
        for (worker, epochs) in [(1, 3), (0, 3), (1, 4)] {
            push(&mut h, worker, 1.0);
            assert_eq!(h.epochs(), epochs);
        }

        // The pitfall itself: counts restarted at zero stall the estimate.
        h.install_store(ParameterStore::new(vec![0.0; 8], 2));
        push(&mut h, 0, 1.0);
        push(&mut h, 1, 1.0);
        assert_eq!(h.epochs(), 4, "never rewound, but not advancing either");
    }

    /// A freshly joined backup takes its primary's epoch from the
    /// snapshot it installs: promoted before every worker pushes again, it
    /// must apply the primary's rate, not `lr_fn(0)`.
    #[test]
    fn a_joiner_starts_at_the_primarys_epoch() {
        let lr_fn = |epochs| 1.0 / (1 + epochs) as f32;
        let mut primary = host().with_lr_fn(lr_fn);
        for worker in [0, 1, 0, 1] {
            push(&mut primary, worker, 1.0);
        }
        assert_eq!(primary.relay_tag(), (5, 1.0 / 3.0));
        let open = ShardHost::new(ParameterStore::new(vec![0.0; 8], 2)).with_lr_fn(lr_fn);
        for mut joiner in [host().with_lr_fn(lr_fn), open] {
            let snapshot = primary.store_mut().snapshot_for_checkpoint();
            joiner.install_store(ParameterStore::restore(snapshot).unwrap());
            assert_eq!(joiner.epochs(), 2);
            assert_eq!(joiner.relay_tag(), primary.relay_tag());
        }
    }

    /// A push from an index outside the registered workers is applied
    /// but does not join the epoch estimate: as a tracked worker that
    /// never pushes again it would pin the minimum, and with it the
    /// learning rate, for the rest of the run.
    #[test]
    fn a_push_from_an_unregistered_worker_does_not_freeze_the_epochs() {
        let mut h = host().with_lr_fn(|epochs| 1.0 / (1 + epochs) as f32);
        for round in 1..=6u64 {
            push(&mut h, 0, 1.0);
            if round == 3 {
                let ack = push(&mut h, 5, 1.0);
                assert!(matches!(ack, Some(WireMessage::PushAck { .. })));
            }
            push(&mut h, 1, 1.0);
            assert_eq!(h.epochs(), round, "one epoch per round");
        }
        assert_eq!(h.relay_tag().1, 1.0 / 7.0, "the schedule kept moving");

        // Without a registered roster, a worker is tracked from its first
        // push, so one that has not pushed again holds the estimate back.
        let mut open = ShardHost::new(ParameterStore::new(vec![0.0; 8], 2));
        for worker in [0, 1, 0, 1] {
            push(&mut open, worker, 1.0);
        }
        assert_eq!(open.epochs(), 2);
        push(&mut open, 2, 1.0);
        push(&mut open, 0, 1.0);
        push(&mut open, 1, 1.0);
        assert_eq!(open.epochs(), 2, "worker 2 has one push");
    }

    /// A well-formed push of the wrong dimension, from any source, is
    /// refused with the store untouched: applied, it would trip the
    /// store's length assertion and take the apply thread down with it.
    #[test]
    fn a_gradient_of_another_dimension_is_refused() {
        let mut h = host();
        let w = WorkerId::new(0);
        let mut sparse = SparseGrad::new();
        sparse.reset(9);
        sparse.add(8, 1.0);
        sparse.finish();
        let bytes = [0u8; 7 * 4];
        let floats = [1.0f32; 9];
        for grad in [
            Gradient::Wire(&bytes),
            Gradient::Dense(&floats),
            Gradient::Sparse(&sparse),
        ] {
            for relay in [None, Some((1, 0.1))] {
                let err = h.apply_push(w, grad, relay).unwrap_err();
                assert!(matches!(err, NetError::Unhandled { .. }), "{grad:?}");
            }
        }
        assert_eq!(h.store().version(), 0);
        assert_eq!(h.store_mut().params(), &[0.0; 8]);
        let ack = h.apply_push(w, Gradient::Wire(&[0u8; 8 * 4]), None);
        assert!(matches!(ack, Ok(WireMessage::PushAck { version: 1, .. })));
    }

    #[test]
    fn scheduler_plane_frames_are_refused() {
        let mut h = host();
        let err = h
            .handle(WireMessage::Notify {
                worker: WorkerId::new(0),
                pushes: 1,
            })
            .unwrap_err();
        assert!(matches!(err, NetError::Unhandled { .. }));
    }
}
