//! The workspace-wide typed error, `SpecSyncError`.
//!
//! Library crates surface failure as values instead of panicking
//! (clippy denies `.unwrap()`/`.expect()` in library code):
//! a scheduler embedded in a long-running service must not abort the
//! process because one worker id was out of range. The enum is hand-rolled
//! in the `thiserror` idiom — `Display` per variant, `std::error::Error`
//! with `source`, and `From` impls for composing layers — because the
//! workspace builds offline against vendored stand-ins only.

use std::error::Error;
use std::fmt;

use specsync_simnet::DistributionError;

/// Typed failure for the SpecSync protocol stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecSyncError {
    /// A worker id addressed a cluster smaller than it.
    WorkerOutOfRange {
        /// The offending worker index.
        worker: usize,
        /// The cluster size it was checked against.
        num_workers: usize,
    },
    /// A component was built for zero workers.
    EmptyCluster,
    /// The driver needed scheme state (BSP barrier, SSP clock) that the
    /// configured scheme never constructed — a wiring bug, reported with
    /// context instead of a bare `expect`.
    SchemeStateMissing {
        /// Which state was missing, e.g. `"BSP barrier"`.
        what: &'static str,
    },
    /// A worker entered compute without delivered pull parameters.
    MissingPullParams {
        /// The worker whose pull went missing.
        worker: usize,
    },
    /// A duration/latency distribution had invalid parameters.
    Distribution(DistributionError),
    /// A spawned thread panicked; the panic payload is not recoverable
    /// across the join boundary, so only the role is reported.
    ThreadPanicked {
        /// Which thread died, e.g. `"server"`.
        role: &'static str,
    },
    /// A configuration value failed validation.
    InvalidConfig(String),
    /// An execution host was asked to run a synchronization scheme it does
    /// not implement (e.g. the threaded runtime has no BSP barrier).
    UnsupportedScheme {
        /// The scheme's label.
        scheme: String,
    },
    /// A heartbeat parameter failed validation (zero interval/timeout, or
    /// a timeout that does not exceed the interval).
    InvalidHeartbeat {
        /// What was wrong with the heartbeat configuration.
        reason: &'static str,
    },
    /// A retry/backoff parameter failed validation (zero attempts or a
    /// zero backoff base).
    InvalidRetryPolicy {
        /// What was wrong with the retry configuration.
        reason: &'static str,
    },
    /// The replicated parameter server refused traffic: a shard's server
    /// is down and its warm backup has not been promoted yet.
    ServerUnavailable {
        /// The down server shard.
        server: usize,
    },
}

impl fmt::Display for SpecSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecSyncError::WorkerOutOfRange {
                worker,
                num_workers,
            } => write!(
                f,
                "worker {worker} out of range for a {num_workers}-worker cluster"
            ),
            SpecSyncError::EmptyCluster => write!(f, "need at least one worker"),
            SpecSyncError::SchemeStateMissing { what } => {
                write!(f, "scheme state missing: {what} was never constructed")
            }
            SpecSyncError::MissingPullParams { worker } => write!(
                f,
                "worker {worker} started computing without delivered pull parameters"
            ),
            SpecSyncError::Distribution(e) => write!(f, "invalid distribution: {e}"),
            SpecSyncError::ThreadPanicked { role } => write!(f, "{role} thread panicked"),
            SpecSyncError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SpecSyncError::UnsupportedScheme { scheme } => {
                write!(f, "scheme {scheme} is not supported by this execution host")
            }
            SpecSyncError::InvalidHeartbeat { reason } => {
                write!(f, "invalid heartbeat configuration: {reason}")
            }
            SpecSyncError::InvalidRetryPolicy { reason } => {
                write!(f, "invalid retry policy: {reason}")
            }
            SpecSyncError::ServerUnavailable { server } => {
                write!(f, "server shard {server} is down awaiting failover")
            }
        }
    }
}

impl Error for SpecSyncError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecSyncError::Distribution(e) => Some(e),
            SpecSyncError::WorkerOutOfRange { .. }
            | SpecSyncError::EmptyCluster
            | SpecSyncError::SchemeStateMissing { .. }
            | SpecSyncError::MissingPullParams { .. }
            | SpecSyncError::ThreadPanicked { .. }
            | SpecSyncError::InvalidConfig(_)
            | SpecSyncError::UnsupportedScheme { .. }
            | SpecSyncError::InvalidHeartbeat { .. }
            | SpecSyncError::InvalidRetryPolicy { .. }
            | SpecSyncError::ServerUnavailable { .. } => None,
        }
    }
}

impl From<DistributionError> for SpecSyncError {
    fn from(e: DistributionError) -> Self {
        SpecSyncError::Distribution(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SpecSyncError::WorkerOutOfRange {
            worker: 7,
            num_workers: 4,
        };
        assert_eq!(
            e.to_string(),
            "worker 7 out of range for a 4-worker cluster"
        );
        assert!(SpecSyncError::SchemeStateMissing {
            what: "BSP barrier"
        }
        .to_string()
        .contains("BSP barrier"));
    }

    #[test]
    fn distribution_errors_convert_and_chain() {
        let d = DistributionError::new("lognormal needs mean > 0");
        let e: SpecSyncError = d.clone().into();
        assert_eq!(e, SpecSyncError::Distribution(d));
        assert!(Error::source(&e).is_some());
    }
}
