//! Runtime configuration.

use std::time::Duration;

use specsync_core::SpecSyncError;
use specsync_net::NetConfig;
use specsync_sync::{BaseScheme, SchemeKind};

/// Chaos knobs for the threaded runtime: deliberate, reproducible-ish
/// faults that exercise the degradation paths under real concurrency.
///
/// Unlike the simulator's [`FaultPlan`](specsync_simnet::FaultPlan) —
/// which replays faults at exact virtual times — these are coarse
/// count-based triggers: thread interleaving is inherently nondeterministic
/// here, so the knobs fire on the n-th occurrence of an operation rather
/// than at a timestamp. All-`None` (the default) injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuntimeChaos {
    /// Halt the primary shard once the store version reaches n: the
    /// scheduler promotes the warm backup, and the workers move to it.
    pub kill_primary_at_push: Option<u64>,
    /// Drop every n-th notify on the worker→scheduler link (n ≥ 1),
    /// exercising push-count reconciliation.
    pub drop_notify_every: Option<u64>,
    /// Cut worker `index`'s link to the scheduler (heartbeats, pull
    /// notices, notifies) after the given elapsed run time — a one-way
    /// partition that exercises liveness detection and membership shrink.
    /// The worker keeps computing and pushing to the shard; the scheduler
    /// just never hears from it again, so the failure stays detected.
    pub mute_worker_after: Option<(usize, Duration)>,
}

/// Configuration of a threaded training run.
///
/// The scheme is the workspace-wide [`SchemeKind`] shared with the
/// simulator, so experiment code configures both hosts with one type. The
/// threaded runtime implements only the asynchronous schemes — plain ASP
/// and SpecSync over ASP; [`try_validate`](Self::try_validate) rejects the
/// rest with [`SpecSyncError::UnsupportedScheme`].
///
/// Override the fields you need over the defaults; [`run`](crate::run)
/// validates before it starts a thread:
///
/// ```
/// use specsync_runtime::RuntimeConfig;
/// use std::time::Duration;
///
/// let config = RuntimeConfig {
///     workers: 8,
///     compute_pad: Duration::from_millis(5),
///     ..RuntimeConfig::default()
/// };
/// assert_eq!(config.try_validate(), Ok(()));
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Synchronization scheme.
    pub scheme: SchemeKind,
    /// Artificial per-iteration compute padding: stands in for the heavy
    /// gradient computation of a full-size model (our scaled models compute
    /// in microseconds, far below meaningful speculation windows).
    pub compute_pad: Duration,
    /// How often a padded computation polls for a re-sync instruction.
    pub abort_poll: Duration,
    /// Wall-clock budget for the run.
    pub max_duration: Duration,
    /// Stop early when the eval loss stays at or below this target for 5
    /// consecutive evaluations (the paper's rule); `None` runs the full
    /// budget.
    pub target_loss: Option<f64>,
    /// Evaluate the global loss whenever the store version crosses a
    /// multiple of `eval_stride`.
    pub eval_stride: u64,
    /// Master seed for dataset generation and batch sampling.
    pub seed: u64,
    /// How often each worker and shard heartbeats the scheduler.
    pub heartbeat_interval: Duration,
    /// Silence after which the scheduler declares a worker dead, or a
    /// primary shard (promoting its backup). Must be at least twice
    /// [`heartbeat_interval`](Self::heartbeat_interval).
    pub heartbeat_timeout: Duration,
    /// Fault-injection knobs; default injects nothing.
    pub chaos: RuntimeChaos,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            scheme: SchemeKind::Asp,
            compute_pad: Duration::from_millis(10),
            abort_poll: Duration::from_millis(1),
            max_duration: Duration::from_secs(5),
            target_loss: None,
            eval_stride: 4,
            seed: 0,
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_timeout: Duration::from_millis(200),
            chaos: RuntimeChaos::default(),
        }
    }
}

impl RuntimeConfig {
    /// Whether the threaded runtime implements `scheme`. The synchronous
    /// schemes (BSP, SSP, naïve waiting) exist only in the virtual-time
    /// simulator; speculation over an SSP base likewise.
    pub fn scheme_supported(scheme: SchemeKind) -> bool {
        matches!(
            scheme,
            SchemeKind::Asp
                | SchemeKind::SpecSync {
                    base: BaseScheme::Asp,
                    ..
                }
        )
    }

    /// Validates the configuration, reporting the first problem as a typed
    /// error: zero workers, zero eval stride, a zero poll interval,
    /// degenerate heartbeat parameters (including those the wire refuses),
    /// or a scheme this runtime does not implement.
    pub fn try_validate(&self) -> Result<(), SpecSyncError> {
        if self.workers == 0 {
            return Err(SpecSyncError::InvalidConfig(
                "need at least one worker".to_string(),
            ));
        }
        if self.eval_stride == 0 {
            return Err(SpecSyncError::InvalidConfig(
                "eval stride must be positive".to_string(),
            ));
        }
        if self.abort_poll.is_zero() {
            return Err(SpecSyncError::InvalidConfig(
                "abort poll interval must be positive".to_string(),
            ));
        }
        // The rest of the heartbeat rules are the wire's (`net_config`).
        if self.heartbeat_timeout.is_zero() {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat timeout must be positive",
            });
        }
        if let Some(n) = self.chaos.drop_notify_every {
            if n == 0 {
                return Err(SpecSyncError::InvalidConfig(
                    "drop_notify_every must be at least 1".to_string(),
                ));
            }
        }
        if !Self::scheme_supported(self.scheme) {
            return Err(SpecSyncError::UnsupportedScheme {
                scheme: self.scheme.label(),
            });
        }
        self.net_config().map(drop)
    }

    /// The wire settings of the loopback deployment: the heartbeats as
    /// given, and a retry budget that outlasts a promotion (18 failed
    /// exchanges on a 20 ms backoff, as `net_soak`'s).
    pub(crate) fn net_config(&self) -> Result<NetConfig, SpecSyncError> {
        NetConfig::builder()
            .heartbeat_interval(self.heartbeat_interval)
            .heartbeat_timeout(self.heartbeat_timeout)
            .connect_retries(18)
            .retry_backoff(Duration::from_millis(20))
            .try_build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_simnet::SimDuration;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(RuntimeConfig::default().try_validate(), Ok(()));
    }

    #[test]
    fn zero_workers_rejected() {
        let err = RuntimeConfig {
            workers: 0,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(err.to_string().contains("at least one worker"));
    }

    #[test]
    fn synchronous_schemes_rejected_as_unsupported() {
        for scheme in [
            SchemeKind::Bsp,
            SchemeKind::Ssp { bound: 2 },
            SchemeKind::NaiveWaiting {
                delay: SimDuration::from_secs(1),
            },
            SchemeKind::SpecSync {
                base: specsync_sync::BaseScheme::Ssp { bound: 2 },
                tuning: specsync_sync::TuningMode::Adaptive,
            },
        ] {
            let err = RuntimeConfig {
                scheme,
                ..Default::default()
            }
            .try_validate()
            .unwrap_err();
            assert!(
                matches!(err, SpecSyncError::UnsupportedScheme { .. }),
                "{scheme:?} should be unsupported, got {err:?}"
            );
        }
    }

    #[test]
    fn zero_heartbeat_interval_rejected() {
        let err = RuntimeConfig {
            heartbeat_interval: Duration::ZERO,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecSyncError::InvalidHeartbeat {
                    reason: "heartbeat interval must be positive"
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_heartbeat_timeout_rejected() {
        let err = RuntimeConfig {
            heartbeat_timeout: Duration::ZERO,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecSyncError::InvalidHeartbeat {
                    reason: "heartbeat timeout must be positive"
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn heartbeat_timeout_not_exceeding_interval_rejected() {
        let err = RuntimeConfig {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(50),
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecSyncError::InvalidHeartbeat {
                    reason: "heartbeat timeout must exceed the interval"
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn interval_overridden_past_default_timeout_rejected() {
        // A positive interval is valid on its own; it is the combination
        // with the untouched default timeout that must be refused.
        let default = RuntimeConfig::default();
        let err = RuntimeConfig {
            heartbeat_interval: default.heartbeat_timeout + Duration::from_millis(1),
            ..default
        }
        .try_validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecSyncError::InvalidHeartbeat {
                    reason: "heartbeat timeout must exceed the interval"
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_drop_notify_stride_rejected() {
        let err = RuntimeConfig {
            chaos: RuntimeChaos {
                drop_notify_every: Some(0),
                ..RuntimeChaos::default()
            },
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(err.to_string().contains("drop_notify_every"), "got {err:?}");
    }

    #[test]
    fn asynchronous_schemes_supported() {
        assert!(RuntimeConfig::scheme_supported(SchemeKind::Asp));
        assert!(RuntimeConfig::scheme_supported(
            SchemeKind::specsync_adaptive()
        ));
        assert!(RuntimeConfig::scheme_supported(SchemeKind::specsync_fixed(
            SimDuration::from_millis(50),
            0.25
        )));
    }
}
