//! Real multi-threaded SpecSync deployment.
//!
//! `specsync-cluster` replays the protocol under deterministic virtual
//! time; this crate runs it on actual OS threads — the three roles of the
//! paper's architecture (Fig. 7) wired with channels:
//!
//! - a **server** thread owning the [`specsync_ps::ParameterStore`],
//! - a **scheduler** thread driving the sans-IO
//!   [`specsync_net::SchedulerHost`] (the same machine the TCP scheduler
//!   server drives) with real wall-clock timers,
//! - `m` **worker** threads pulling, computing real gradients (padded to a
//!   configurable iteration length), pushing, and honouring `re-sync`
//!   instructions mid-computation.
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

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod config;
mod report;
mod runtime;
mod worker;

pub use clock::{ClockSource, ManualClock, WallClock};
pub use config::{RuntimeChaos, RuntimeConfig};
pub use report::{RuntimeReport, WallLossPoint};
pub use runtime::{run, try_run, try_run_with_clock, try_run_with_sink};
/// Re-exported from `specsync-core`: the backoff policy was lifted there
/// so the TCP transport and the runtime share one schedule (PR 9).
pub use specsync_core::Backoff;
pub use specsync_sync::SchemeKind;
pub use worker::{WorkerHarness, WorkerOutcome};
