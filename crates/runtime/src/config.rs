//! Runtime configuration.

use std::path::PathBuf;
use std::time::Duration;

use specsync_core::SpecSyncError;
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
    /// Poison the parameter store on the n-th push apply attempt
    /// (1-based): that apply panics once, exercising the server's
    /// catch-and-restore path.
    pub poison_at_push: Option<u64>,
    /// Drop every n-th notify on the worker→scheduler channel (n ≥ 1),
    /// exercising push-count reconciliation.
    pub drop_notify_every: Option<u64>,
    /// Cut worker `index`'s link to the scheduler (heartbeats, pull
    /// notices, notifies) after the given elapsed run time — a one-way
    /// partition that exercises liveness detection and membership shrink.
    /// The worker keeps computing and pushing to the server; the scheduler
    /// just never hears from it again, so the failure stays detected.
    pub mute_worker_after: Option<(usize, Duration)>,
}

impl RuntimeChaos {
    /// Whether any knob is active.
    pub fn is_active(&self) -> bool {
        self.poison_at_push.is_some()
            || self.drop_notify_every.is_some()
            || self.mute_worker_after.is_some()
    }
}

/// Configuration of a threaded training run.
///
/// The scheme is the workspace-wide [`SchemeKind`] shared with the
/// simulator, so experiment code configures both hosts with one type. The
/// threaded runtime implements only the asynchronous schemes — plain ASP
/// and SpecSync over ASP; [`try_validate`](Self::try_validate) rejects the
/// rest with [`SpecSyncError::UnsupportedScheme`].
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
    /// Evaluate the global loss every `eval_stride` pushes.
    pub eval_stride: u64,
    /// Master seed for dataset generation and batch sampling.
    pub seed: u64,
    /// How often each worker heartbeats the scheduler.
    pub heartbeat_interval: Duration,
    /// Silence after which the scheduler declares a worker dead. Must
    /// exceed [`heartbeat_interval`](Self::heartbeat_interval).
    pub heartbeat_timeout: Duration,
    /// Retry budget for transient channel-send failures.
    pub send_retries: u32,
    /// Base delay of the deterministic exponential send backoff (doubles
    /// per attempt, capped — see [`Backoff`](crate::Backoff)).
    pub retry_backoff: Duration,
    /// Fault-injection knobs; default injects nothing.
    pub chaos: RuntimeChaos,
    /// Where to persist a crash-consistent store checkpoint at every eval
    /// stride. The blob is the versioned, checksummed
    /// [`StoreCheckpoint`](specsync_ps::StoreCheckpoint) codec, written to
    /// `<path>.tmp` and atomically renamed into place, so a crash mid-write
    /// never leaves a torn checkpoint. `None` (the default) persists
    /// nothing.
    pub checkpoint_path: Option<PathBuf>,
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
            send_retries: 5,
            retry_backoff: Duration::from_millis(1),
            chaos: RuntimeChaos::default(),
            checkpoint_path: None,
        }
    }
}

impl RuntimeConfig {
    /// Starts a validating builder seeded with the defaults — the
    /// preferred construction path. Field-struct literals still work for
    /// backward compatibility, but they skip validation until the run
    /// starts; [`RuntimeConfigBuilder::try_build`] rejects an invalid
    /// combination at construction time, matching `specsync-net`'s
    /// `NetConfig::builder()`.
    ///
    /// ```
    /// use specsync_runtime::RuntimeConfig;
    /// use std::time::Duration;
    ///
    /// let config = RuntimeConfig::builder()
    ///     .workers(8)
    ///     .compute_pad(Duration::from_millis(5))
    ///     .try_build()
    ///     .expect("valid configuration");
    /// assert_eq!(config.workers, 8);
    /// ```
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            config: RuntimeConfig::default(),
        }
    }

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
    /// degenerate heartbeat or retry parameters, or a scheme this runtime
    /// does not implement.
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
        if self.heartbeat_interval.is_zero() {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat interval must be positive",
            });
        }
        if self.heartbeat_timeout.is_zero() {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat timeout must be positive",
            });
        }
        if self.heartbeat_timeout <= self.heartbeat_interval {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat timeout must exceed the interval",
            });
        }
        if self.send_retries == 0 {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "send retry budget must be positive",
            });
        }
        if self.retry_backoff.is_zero() {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "retry backoff base must be positive",
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
        Ok(())
    }
}

/// Validating builder for [`RuntimeConfig`], created by
/// [`RuntimeConfig::builder`]. Every setter overrides one default;
/// [`try_build`](Self::try_build) runs the full
/// [`try_validate`](RuntimeConfig::try_validate) pass so an invalid
/// combination is a typed error at construction time instead of a panic
/// when the run starts.
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Synchronization scheme.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Artificial per-iteration compute padding.
    pub fn compute_pad(mut self, pad: Duration) -> Self {
        self.config.compute_pad = pad;
        self
    }

    /// How often a padded computation polls for a re-sync instruction.
    pub fn abort_poll(mut self, poll: Duration) -> Self {
        self.config.abort_poll = poll;
        self
    }

    /// Wall-clock budget for the run.
    pub fn max_duration(mut self, budget: Duration) -> Self {
        self.config.max_duration = budget;
        self
    }

    /// Early-stop loss target (the paper's 5-consecutive-evals rule).
    pub fn target_loss(mut self, target: f64) -> Self {
        self.config.target_loss = Some(target);
        self
    }

    /// Evaluate the global loss every `stride` pushes.
    pub fn eval_stride(mut self, stride: u64) -> Self {
        self.config.eval_stride = stride;
        self
    }

    /// Master seed for dataset generation and batch sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// How often each worker heartbeats the scheduler.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.config.heartbeat_interval = interval;
        self
    }

    /// Silence after which the scheduler declares a worker dead.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.config.heartbeat_timeout = timeout;
        self
    }

    /// Retry budget for transient channel-send failures.
    pub fn send_retries(mut self, retries: u32) -> Self {
        self.config.send_retries = retries;
        self
    }

    /// Base delay of the deterministic exponential send backoff.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.config.retry_backoff = backoff;
        self
    }

    /// Fault-injection knobs.
    pub fn chaos(mut self, chaos: RuntimeChaos) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Where to persist a crash-consistent store checkpoint.
    pub fn checkpoint_path(mut self, path: PathBuf) -> Self {
        self.config.checkpoint_path = Some(path);
        self
    }

    /// Validates and returns the configuration, or the first problem as a
    /// typed [`SpecSyncError`].
    pub fn try_build(self) -> Result<RuntimeConfig, SpecSyncError> {
        self.config.try_validate()?;
        Ok(self.config)
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
    fn zero_send_retries_rejected() {
        let err = RuntimeConfig {
            send_retries: 0,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecSyncError::InvalidRetryPolicy {
                    reason: "send retry budget must be positive"
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn zero_retry_backoff_rejected() {
        let err = RuntimeConfig {
            retry_backoff: Duration::ZERO,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecSyncError::InvalidRetryPolicy {
                    reason: "retry backoff base must be positive"
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
    fn default_chaos_is_inert() {
        assert!(!RuntimeChaos::default().is_active());
        assert!(RuntimeChaos {
            poison_at_push: Some(3),
            ..RuntimeChaos::default()
        }
        .is_active());
    }

    #[test]
    fn builder_overrides_and_validates() {
        let config = RuntimeConfig::builder()
            .workers(8)
            .scheme(SchemeKind::specsync_adaptive())
            .compute_pad(Duration::from_millis(3))
            .abort_poll(Duration::from_micros(500))
            .max_duration(Duration::from_secs(2))
            .target_loss(0.4)
            .eval_stride(8)
            .seed(17)
            .heartbeat_interval(Duration::from_millis(10))
            .heartbeat_timeout(Duration::from_millis(80))
            .send_retries(3)
            .retry_backoff(Duration::from_micros(250))
            .try_build()
            .expect("valid builder chain");
        assert_eq!(config.workers, 8);
        assert_eq!(config.scheme, SchemeKind::specsync_adaptive());
        assert_eq!(config.target_loss, Some(0.4));
        assert_eq!(config.eval_stride, 8);
        assert_eq!(config.seed, 17);
        // Untouched fields keep their defaults.
        assert_eq!(config.checkpoint_path, None);
        assert!(!config.chaos.is_active());
    }

    #[test]
    fn builder_rejects_invalid_combination() {
        let err = RuntimeConfig::builder()
            .heartbeat_interval(Duration::from_millis(50))
            .heartbeat_timeout(Duration::from_millis(50))
            .try_build()
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
    fn builder_with_no_overrides_matches_default() {
        let built = RuntimeConfig::builder()
            .try_build()
            .expect("defaults valid");
        let default = RuntimeConfig::default();
        assert_eq!(built.workers, default.workers);
        assert_eq!(built.scheme, default.scheme);
        assert_eq!(built.heartbeat_timeout, default.heartbeat_timeout);
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
