//! `specsync-net`: a real wire for SpecSync — the length-prefixed frame
//! codec, the [`Transport`] abstraction, and the TCP servers that let the
//! parameter-server shards, the scheduler, and the workers of the paper's
//! architecture (Fig. 7) run as separate OS processes on one host.
//!
//! # Layers
//!
//! * [`wire`] — the consolidated [`WireMessage`] vocabulary: every frame
//!   any SpecSync role can send, in one enum, shared by the in-process
//!   runtime, the virtual-time simulator's accounting, and the TCP path.
//! * [`frame`] — the binary codec: `"SSNF"` magic, format version,
//!   length prefix, FNV-1a checksum, then a tagged payload. Decoding is
//!   exact-fit: any flipped, missing, or trailing byte rejects.
//! * [`transport`] — the [`Transport`] trait a worker drives its run
//!   through, with two interchangeable implementations:
//!   [`InProcTransport`] (channels; byte-identical to the pre-wire
//!   runtime) and [`TcpTransport`] (sockets, reconnect-on-failover).
//! * [`policy`] — [`ConnPolicy`]: per-op deadlines, jittered backoff
//!   with a retry budget, and the per-peer [`CircuitBreaker`] that lets
//!   a worker park against a broken peer instead of erroring out.
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
//!   (inputs in, [`SchedOutput`]s out) that both this crate's TCP server
//!   and the threaded runtime drive.
//! * [`server`] — the process-level hosts: [`ShardServer`] and
//!   [`SchedulerServer`], including warm-backup promotion over TCP when
//!   a primary shard process dies.
//!
//! # The same protocol, two wires
//!
//! The point of the redesign is that `WireMessage` + [`Transport`] is
//! the *only* vocabulary: the threaded runtime's worker loop sends the
//! exact same frames whether its transport is a channel pair in one
//! process or a socket to another. Chaos knobs, failover, and telemetry
//! all act on that shared vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod error;
pub mod frame;
pub mod host;
pub mod policy;
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
pub use policy::{Admit, CircuitBreaker, ConnPolicy};
pub use sched_host::{SchedOutput, SchedulerHost};
pub use server::{SchedulerConfig, SchedulerRunStats, SchedulerServer, ShardServer, ShardStats};
pub use transport::{
    ConnTarget, Endpoint, FrameConn, InProcTransport, ServerFrame, TcpTransport, Transport,
    TransportStats,
};
pub use wire::{FailoverControl, MessageSizes, WireMessage};
