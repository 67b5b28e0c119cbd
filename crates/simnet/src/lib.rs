//! Deterministic discrete-event simulation engine for SpecSync.
//!
//! This crate is the timing substrate of the SpecSync reproduction: a
//! virtual clock ([`VirtualTime`]/[`SimDuration`]), a future-event list with
//! deterministic tie-breaking ([`EventQueue`]), seeded independent RNG
//! streams ([`RngStreams`]) with duration distributions
//! ([`DurationSampler`]), and a latency/bandwidth network model
//! ([`NetworkModel`]) with per-class transfer accounting
//! ([`TransferLedger`]).
//!
//! The paper evaluates SpecSync on EC2 clusters; here the cluster's *timing*
//! (iteration spans, stragglers, message delays) is simulated so every
//! experiment is reproducible from a single `u64` seed, while gradient
//! computation stays real (see `specsync-ml`).
//!
//! # Examples
//!
//! ```
//! use specsync_simnet::{DurationSampler, EventQueue, RngStreams, VirtualTime};
//!
//! let streams = RngStreams::new(7);
//! let mut rng = streams.stream("compute");
//! let iteration = DurationSampler::LogNormal { mean: 14.0, cv: 0.2 };
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(VirtualTime::ZERO + iteration.sample(&mut rng), "iteration done");
//! let (t, what) = queue.pop().unwrap();
//! assert_eq!(what, "iteration done");
//! assert!(t > VirtualTime::ZERO);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fault;
mod id;
mod network;
mod queue;
mod rng;
mod time;

pub use fault::{
    CrashEvent, FaultConfigError, FaultPlan, LinkFaultProfile, MessageFate, ServerCrashEvent,
    StragglerWindow,
};
pub use id::WorkerId;
pub use network::{MessageClass, NetworkModel, TransferLedger, TransferRecord};
pub use queue::{EventId, EventQueue};
pub use rng::{fnv1a, DistributionError, DurationSampler, RngStreams, FNV_OFFSET, FNV_PRIME};
pub use time::{SimDuration, VirtualTime, MICROS_PER_SEC};
