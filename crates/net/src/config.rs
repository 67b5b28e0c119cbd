//! Wire-layer configuration.

use std::time::Duration;

use specsync_core::{Backoff, SpecSyncError};

use crate::chaos::NetChaos;

/// Configuration of the TCP transport and its hosts.
///
/// Construct with [`NetConfig::builder`]; the builder's
/// [`try_build`](NetConfigBuilder::try_build) validates every invariant and
/// returns a typed error, so an impossible wiring never reaches a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Attempts a client spends connecting before giving up — and the
    /// failures one worker shard exchange may spend before it does.
    pub connect_retries: u32,
    /// Base delay of the exponential reconnect backoff (doubles per
    /// attempt, capped at [`Backoff::MAX_DELAY`]).
    pub retry_backoff: Duration,
    /// How often clients and shard processes heartbeat the scheduler.
    pub heartbeat_interval: Duration,
    /// Silence after which the scheduler declares a peer dead — for a
    /// primary shard, this triggers warm-backup promotion. Must be at
    /// least twice [`heartbeat_interval`](Self::heartbeat_interval), so a
    /// single delayed beat cannot trip the liveness sweep.
    pub heartbeat_timeout: Duration,
    /// Read and write timeout of every outbound connection, and how long
    /// a worker waits for the scheduler's `Primary` answer.
    pub io_timeout: Duration,
    /// Fault-injection knobs ([`NetChaos::disabled`] by default — the
    /// wire behaves exactly as if the chaos layer did not exist).
    pub chaos: NetChaos,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_retries: 20,
            retry_backoff: Duration::from_millis(25),
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            chaos: NetChaos::disabled(),
        }
    }
}

impl NetConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> NetConfigBuilder {
        NetConfigBuilder {
            config: NetConfig::default(),
        }
    }

    /// Validates the configuration, reporting the first problem as a
    /// typed error.
    pub fn try_validate(&self) -> Result<(), SpecSyncError> {
        if self.connect_retries == 0 {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "connect retry budget must be positive",
            });
        }
        if self.retry_backoff.is_zero() {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "retry backoff base must be positive",
            });
        }
        if self.heartbeat_interval.is_zero() {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat interval must be positive",
            });
        }
        if self.heartbeat_timeout <= self.heartbeat_interval {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat timeout must exceed the interval",
            });
        }
        // One delayed or lost beat must not trip the sweep: a timeout in
        // (interval, 2×interval) declares a peer dead the moment a single
        // heartbeat lands late, which promoted healthy shards in testing.
        if self.heartbeat_timeout < self.heartbeat_interval * 2 {
            return Err(SpecSyncError::InvalidHeartbeat {
                reason: "heartbeat timeout must be at least twice the interval \
                         (one delayed beat must not trip the liveness sweep)",
            });
        }
        if self.io_timeout.is_zero() {
            return Err(SpecSyncError::InvalidConfig(
                "i/o timeout must be positive".to_string(),
            ));
        }
        if let Err(reason) = self.chaos.try_validate() {
            return Err(SpecSyncError::InvalidConfig(reason));
        }
        Ok(())
    }

    /// The jittered reconnect delay for 0-based `attempt`: the shared
    /// [`Backoff`] schedule scaled into `[0.5, 1.0]×` by a deterministic
    /// hash of `(seed, attempt)`, so reconnect storms after a promotion
    /// do not synchronize across workers while each worker's schedule
    /// stays reproducible. Past the budget it stays at the last step.
    pub fn jittered_backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        let backoff = Backoff::new(self.retry_backoff, self.connect_retries);
        let capped = attempt.min(self.connect_retries.saturating_sub(1));
        backoff.jittered(capped, seed).unwrap_or(self.retry_backoff)
    }
}

/// Builder for [`NetConfig`] — see [`NetConfig::builder`].
#[derive(Debug, Clone)]
pub struct NetConfigBuilder {
    config: NetConfig,
}

impl NetConfigBuilder {
    /// Sets the connect/reconnect retry budget.
    pub fn connect_retries(mut self, retries: u32) -> Self {
        self.config.connect_retries = retries;
        self
    }

    /// Sets the base reconnect backoff delay.
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.config.retry_backoff = backoff;
        self
    }

    /// Sets the heartbeat interval.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.config.heartbeat_interval = interval;
        self
    }

    /// Sets the heartbeat silence timeout.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.config.heartbeat_timeout = timeout;
        self
    }

    /// Sets the request/response read timeout.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.config.io_timeout = timeout;
        self
    }

    /// Sets the fault-injection configuration.
    pub fn chaos(mut self, chaos: NetChaos) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Validates and returns the configuration.
    pub fn try_build(self) -> Result<NetConfig, SpecSyncError> {
        self.config.try_validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds() {
        let cfg = NetConfig::builder().try_build().unwrap();
        assert_eq!(cfg, NetConfig::default());
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = NetConfig::builder()
            .connect_retries(3)
            .retry_backoff(Duration::from_millis(10))
            .heartbeat_interval(Duration::from_millis(20))
            .heartbeat_timeout(Duration::from_millis(100))
            .io_timeout(Duration::from_secs(1))
            .try_build()
            .unwrap();
        assert_eq!(cfg.connect_retries, 3);
        assert_eq!(cfg.heartbeat_timeout, Duration::from_millis(100));
    }

    #[test]
    fn degenerate_heartbeat_rejected() {
        let err = NetConfig::builder()
            .heartbeat_interval(Duration::from_millis(100))
            .heartbeat_timeout(Duration::from_millis(100))
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidHeartbeat { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn timeout_within_one_beat_of_interval_rejected() {
        // Strictly greater than the interval but below 2× — a single
        // delayed heartbeat would trip the sweep, so try_build refuses.
        let err = NetConfig::builder()
            .heartbeat_interval(Duration::from_millis(100))
            .heartbeat_timeout(Duration::from_millis(150))
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidHeartbeat { .. }),
            "got {err:?}"
        );
        // Exactly 2× is the boundary and is accepted.
        assert!(NetConfig::builder()
            .heartbeat_interval(Duration::from_millis(100))
            .heartbeat_timeout(Duration::from_millis(200))
            .try_build()
            .is_ok());
    }

    #[test]
    fn degenerate_policy_knobs_rejected() {
        let err = NetConfig::builder()
            .retry_backoff(Duration::ZERO)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidRetryPolicy { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn degenerate_chaos_rejected_and_valid_chaos_accepted() {
        let mut chaos = crate::chaos::NetChaos::disabled();
        chaos.reset_permille = 2000;
        let err = NetConfig::builder().chaos(chaos).try_build().unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidConfig(_)),
            "got {err:?}"
        );
        let mut chaos = crate::chaos::NetChaos::disabled();
        chaos.seed = 11;
        chaos.reset_permille = 50;
        assert!(NetConfig::builder().chaos(chaos).try_build().is_ok());
    }

    #[test]
    fn jittered_backoff_bounded_by_unjittered_and_stable() {
        let cfg = NetConfig::default();
        let backoff = Backoff::new(cfg.retry_backoff, cfg.connect_retries);
        for attempt in 0..cfg.connect_retries {
            let j = cfg.jittered_backoff_delay(attempt, 3);
            let full = backoff.delay(attempt).unwrap();
            assert!(j <= full && j >= full / 2, "attempt {attempt}: {j:?}");
            assert_eq!(j, cfg.jittered_backoff_delay(attempt, 3));
        }
        // Past the budget the delay stays at the last step's.
        let last = cfg.jittered_backoff_delay(cfg.connect_retries - 1, 3);
        assert_eq!(cfg.jittered_backoff_delay(cfg.connect_retries + 5, 3), last);
        // Distinct seeds walk distinct schedules (storm decorrelation).
        let a: Vec<_> = (0..8).map(|i| cfg.jittered_backoff_delay(i, 1)).collect();
        let b: Vec<_> = (0..8).map(|i| cfg.jittered_backoff_delay(i, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_retries_rejected() {
        let err = NetConfig::builder()
            .connect_retries(0)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidRetryPolicy { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        // The schedule every reconnect walks: 25 ms doubling, capped at
        // `Backoff::MAX_DELAY` (250 ms).
        let cfg = NetConfig::default();
        let backoff = Backoff::new(cfg.retry_backoff, cfg.connect_retries);
        assert_eq!(backoff.delay(0), Some(Duration::from_millis(25)));
        assert_eq!(backoff.delay(1), Some(Duration::from_millis(50)));
        assert_eq!(backoff.delay(4), Some(Backoff::MAX_DELAY));
        assert!(cfg.jittered_backoff_delay(30, 7) <= Backoff::MAX_DELAY);
    }
}
