//! Real multi-threaded SpecSync deployment.
//!
//! `specsync-cluster` replays the protocol under deterministic virtual
//! time; this crate runs it on actual OS threads — the roles of the
//! paper's architecture (Fig. 7) as the TCP servers of `specsync-net`,
//! talking over loopback sockets inside one process:
//!
//! - a **scheduler** thread running the [`specsync_net::SchedulerServer`]
//!   with real wall-clock timers,
//! - a **primary** and a **warm backup** shard thread, each running a
//!   [`specsync_net::ShardServer`] around the [`specsync_ps::ParameterStore`],
//! - `m` **worker** threads, each a [`WorkerHarness`] over a
//!   [`specsync_net::TcpTransport`], pulling, computing real gradients
//!   (padded to a configurable iteration length), pushing, and honouring
//!   `re-sync` instructions mid-computation.
//!
//! Use it to exercise the protocol under genuine concurrency and races;
//! use the simulator for reproducible paper-scale experiments.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use specsync_ml::Workload;
//! use specsync_runtime::{run, RuntimeConfig};
//! use specsync_sync::SchemeKind;
//!
//! let config = RuntimeConfig {
//!     workers: 2,
//!     scheme: SchemeKind::specsync_adaptive(),
//!     compute_pad: Duration::from_millis(2),
//!     max_duration: Duration::from_millis(300),
//!     ..RuntimeConfig::default()
//! };
//! let report = run(&Workload::tiny_test(), &config);
//! assert!(report.total_iterations > 0);
//! ```
//!
//! The scheme is the same [`SchemeKind`] the simulator takes, so one
//! configuration type drives both hosts; schemes this runtime does not
//! implement (BSP, SSP, naïve waiting) are rejected by
//! [`RuntimeConfig::try_validate`] with a typed
//! [`UnsupportedScheme`](specsync_core::SpecSyncError::UnsupportedScheme)
//! error.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod config;
mod report;
mod runtime;
mod worker;

pub use clock::{ClockSource, WallClock};
pub use config::{RuntimeChaos, RuntimeConfig};
pub use report::{RuntimeReport, WallLossPoint};
pub use runtime::{run, try_run_with_sink};
pub use specsync_sync::SchemeKind;
pub use worker::{WorkerHarness, WorkerOutcome};
