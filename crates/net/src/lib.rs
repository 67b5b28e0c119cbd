//! `specsync-net`: a real wire for SpecSync — the length-prefixed frame
//! codec, the [`Transport`] abstraction, and the TCP servers that run the
//! parameter-server shards, the scheduler, and the workers of the paper's
//! architecture (Fig. 7) as separate OS processes, or as threads of one
//! process over loopback (the threaded runtime).
//!
//! # Layers
//!
//! * [`wire`] — the consolidated [`WireMessage`] vocabulary: every frame
//!   any SpecSync role can send, in one enum, shared by the simulator's
//!   accounting and the TCP path.
//! * [`frame`] — the binary codec: `"SSNF"` magic, format version,
//!   length prefix, FNV-1a checksum, then a tagged payload. Decoding is
//!   exact-fit: any flipped, missing, or trailing byte rejects.
//! * [`transport`] — the [`Transport`] trait a worker drives its run
//!   through, and [`TcpTransport`], its implementation over sockets: one
//!   retry rule — jittered backoff, ask the scheduler for the primary,
//!   move only forward — bounded by [`NetConfig::connect_retries`].
//! * [`chaos`] — deterministic fault injection: [`ChaosStream`] /
//!   [`ChaosListener`] execute a seeded per-connection [`FaultScript`]
//!   (refusals, resets, stalls, trickling, corruption, half-open
//!   silence) behind a [`NetChaos`] config that is free when disabled.
//! * [`host`] — [`ShardHost`], the transport-agnostic shard brain: a
//!   replicated store plus the per-version encoded-frame cache that lets
//!   one serialization serve every concurrent puller of a version.
//! * [`sched_host`] — [`SchedulerHost`], the transport-agnostic scheduler
//!   brain: the core scheduler plus timers, liveness, reconciliation,
//!   epoch accounting and promotion arming, as a sans-IO state machine
//!   (inputs in, [`SchedOutput`]s out) that this crate's TCP server
//!   drives.
//! * [`server`] — the process-level hosts: [`ShardServer`] and
//!   [`SchedulerServer`], including warm-backup promotion over TCP when
//!   a primary shard dies.
//!
//! # One protocol, one wire
//!
//! `WireMessage` + [`Transport`] is the *only* vocabulary: the worker
//! loop sends the exact same frames whether its peers are other
//! processes or threads of its own. Chaos knobs, failover, and telemetry
//! all act on that shared vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod error;
pub mod frame;
pub mod host;
pub mod sched_host;
pub mod server;
pub mod transport;
pub mod wire;

pub use chaos::{ChaosListener, ChaosScope, ChaosStream, ConnSeq, FaultScript, NetChaos};
pub use config::{NetConfig, NetConfigBuilder};
pub use error::NetError;
pub use frame::{
    decode_frame, encode_frame, read_frame, read_frame_bytes, write_frame, FrameError,
    FrameReadError, ReadOutcome, MAX_SPARSE_DIM, MAX_WORKERS, PAYLOAD_LIMIT, RELAY_TAG_FRAME_LEN,
};
pub use host::{PullGrant, PushReceipt, ShardHost};
pub use sched_host::{SchedOutput, SchedulerHost};
pub use server::{SchedulerConfig, SchedulerRunStats, SchedulerServer, ShardServer, ShardStats};
pub use transport::{ConnTarget, Endpoint, FrameConn, TcpTransport, Transport, TransportStats};
pub use wire::{FailoverControl, MessageSizes, WireMessage};
