//! **SpecSync** — speculative synchronization for distributed machine
//! learning (Zhang, Tian, Wang & Yan, ICDCS 2018).
//!
//! The idea: in asynchronous parameter-server training, a worker pulls
//! parameters only at iteration start, hiding every push made shortly
//! after ("pushes after a pull", the source of staleness). SpecSync lets a
//! centralized [`Scheduler`] watch all pushes; when enough of them land
//! within `ABORT_TIME` of a worker's iteration start, the worker is told to
//! **abort** its computation, re-pull fresh parameters, and start over.
//! The two hyperparameters ([`Hyperparams`]) are retuned every epoch by
//! Algorithm 1 ([`AdaptiveTuner`]), which maximizes an estimated freshness
//! objective (Eq. 5–7, in [`estimator`]).
//!
//! This crate is the paper's contribution in isolation — pure, host-agnostic
//! state machines ([`Scheduler`], [`WorkerMachine`]). The cluster harness
//! that drives them under simulated timing lives in `specsync-cluster`.
//!
//! # Examples
//!
//! Drive the scheduler by hand:
//!
//! ```
//! use specsync_core::Scheduler;
//! use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
//! use specsync_sync::TuningMode;
//!
//! let mut sched = Scheduler::new(
//!     3,
//!     TuningMode::Fixed { abort_time: SimDuration::from_secs(1), abort_rate: 0.5 },
//! );
//! let w0 = WorkerId::new(0);
//! let deadline = sched.on_notify(w0, VirtualTime::from_secs(5)).unwrap();
//! sched.on_notify(WorkerId::new(1), VirtualTime::from_secs_f64(5.2));
//! sched.on_notify(WorkerId::new(2), VirtualTime::from_secs_f64(5.4));
//! assert!(sched.on_check(w0, deadline)); // 2 ≥ ⌈3 × 0.5⌉ → re-sync
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod error;
pub mod estimator;
mod freshness;
mod history;
mod hyper;
mod pap;
mod scheduler;
mod tuner;
mod worker;

pub use backoff::Backoff;
pub use error::SpecSyncError;
pub use freshness::{exact_freshness, mean_missed_updates, oracle_best_window, FreshnessOutcome};
pub use history::{EvictionCounts, PullRecord, PushHistory, PushRecord};
pub use hyper::Hyperparams;
pub use pap::{pap_distribution, uniform_trace, BoxStats, PapDistribution};
pub use scheduler::{Scheduler, SchedulerStats};
pub use tuner::{AdaptiveTuner, TuneOutcome};
pub use worker::WorkerMachine;
