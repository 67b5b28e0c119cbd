//! Wire-layer configuration, with the same builder idiom as
//! [`RuntimeConfig::builder`] so both deployment configs read alike.
//!
//! [`RuntimeConfig::builder`]: https://docs.rs/specsync-runtime

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
    /// Attempts a client spends connecting (or reconnecting after a shard
    /// death) before giving up.
    pub connect_retries: u32,
    /// Base delay of the exponential reconnect backoff (doubles per
    /// attempt, capped at one second).
    pub retry_backoff: Duration,
    /// How often clients and shard processes heartbeat the scheduler.
    pub heartbeat_interval: Duration,
    /// Silence after which the scheduler declares a peer dead — for a
    /// primary shard, this triggers warm-backup promotion. Must be at
    /// least twice [`heartbeat_interval`](Self::heartbeat_interval), so a
    /// single delayed beat cannot trip the liveness sweep.
    pub heartbeat_timeout: Duration,
    /// Read timeout for request/response exchanges (doubles as the
    /// per-op send/recv deadline of the connection policy).
    pub io_timeout: Duration,
    /// Granularity of the scheduler server's timer loop (abort deadlines,
    /// liveness sweeps).
    pub tick: Duration,
    /// Retries one logical transport operation (a pull, a push) may spend
    /// before the policy escalates to degraded mode.
    pub op_retry_budget: u32,
    /// Consecutive per-peer failures that trip the circuit breaker open.
    pub breaker_threshold: u32,
    /// How long a tripped breaker fast-fails before half-opening a probe.
    pub breaker_cooldown: Duration,
    /// Bytes per [`SnapshotChunk`] frame when a rejoining backup streams
    /// the checkpoint from the primary. Must be positive and at most
    /// [`PAYLOAD_LIMIT`](crate::frame::PAYLOAD_LIMIT) so every chunk frame
    /// encodes, whatever the store size.
    ///
    /// [`SnapshotChunk`]: crate::wire::FailoverControl::SnapshotChunk
    pub join_chunk_bytes: usize,
    /// How many times a supervisor may restart one crashed role before
    /// declaring the topology unrecoverable. Must be positive — a budget
    /// of 0 silently disables self-healing, which is always a
    /// misconfiguration (run unsupervised instead).
    pub restart_budget: u32,
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
            tick: Duration::from_millis(5),
            op_retry_budget: 8,
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(200),
            join_chunk_bytes: 1 << 20,
            restart_budget: 5,
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
        if self.tick.is_zero() {
            return Err(SpecSyncError::InvalidConfig(
                "scheduler tick must be positive".to_string(),
            ));
        }
        if self.op_retry_budget == 0 {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "per-op retry budget must be positive",
            });
        }
        if self.breaker_threshold == 0 {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "circuit breaker threshold must be positive",
            });
        }
        if self.breaker_cooldown.is_zero() {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "circuit breaker cooldown must be positive",
            });
        }
        if self.join_chunk_bytes == 0 {
            return Err(SpecSyncError::InvalidConfig(
                "rejoin snapshot chunk size must be positive".to_string(),
            ));
        }
        if self.join_chunk_bytes > crate::frame::PAYLOAD_LIMIT {
            return Err(SpecSyncError::InvalidConfig(format!(
                "rejoin snapshot chunk size of {} bytes exceeds the {}-byte frame payload limit",
                self.join_chunk_bytes,
                crate::frame::PAYLOAD_LIMIT
            )));
        }
        if self.restart_budget == 0 {
            return Err(SpecSyncError::InvalidRetryPolicy {
                reason: "supervisor restart budget must be positive \
                         (a budget of 0 disables self-healing; run unsupervised instead)",
            });
        }
        if let Err(reason) = self.chaos.try_validate() {
            return Err(SpecSyncError::InvalidConfig(reason));
        }
        Ok(())
    }

    /// The reconnect backoff delay for 0-based `attempt`: doubles per
    /// attempt from [`retry_backoff`](Self::retry_backoff), capped at one
    /// second.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        (self.retry_backoff * factor).min(Duration::from_secs(1))
    }

    /// The jittered reconnect delay for 0-based `attempt`: the shared
    /// [`Backoff`] schedule scaled into `[0.5, 1.0]×` by a deterministic
    /// hash of `(seed, attempt)`, so reconnect storms after a promotion
    /// do not synchronize across workers while each worker's schedule
    /// stays reproducible.
    pub fn jittered_backoff_delay(&self, attempt: u32, seed: u64) -> Duration {
        let backoff = Backoff::new(self.retry_backoff, self.connect_retries);
        let capped = attempt.min(self.connect_retries.saturating_sub(1));
        backoff
            .jittered(capped, seed)
            .unwrap_or(self.retry_backoff)
            .min(Duration::from_secs(1))
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

    /// Sets the scheduler timer granularity.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.config.tick = tick;
        self
    }

    /// Sets the per-op retry budget of the connection policy.
    pub fn op_retry_budget(mut self, budget: u32) -> Self {
        self.config.op_retry_budget = budget;
        self
    }

    /// Sets the circuit breaker's consecutive-failure threshold.
    pub fn breaker_threshold(mut self, threshold: u32) -> Self {
        self.config.breaker_threshold = threshold;
        self
    }

    /// Sets the circuit breaker's fast-fail cooldown.
    pub fn breaker_cooldown(mut self, cooldown: Duration) -> Self {
        self.config.breaker_cooldown = cooldown;
        self
    }

    /// Sets the rejoin snapshot chunk size.
    pub fn join_chunk_bytes(mut self, bytes: usize) -> Self {
        self.config.join_chunk_bytes = bytes;
        self
    }

    /// Sets the supervisor restart budget.
    pub fn restart_budget(mut self, budget: u32) -> Self {
        self.config.restart_budget = budget;
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
            .tick(Duration::from_millis(2))
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
        for build in [
            NetConfig::builder().op_retry_budget(0),
            NetConfig::builder().breaker_threshold(0),
            NetConfig::builder().breaker_cooldown(Duration::ZERO),
        ] {
            let err = build.try_build().unwrap_err();
            assert!(
                matches!(err, SpecSyncError::InvalidRetryPolicy { .. }),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn degenerate_rejoin_knobs_rejected() {
        let err = NetConfig::builder()
            .join_chunk_bytes(0)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidConfig(_)),
            "got {err:?}"
        );
        let err = NetConfig::builder()
            .join_chunk_bytes(crate::frame::PAYLOAD_LIMIT + 1)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidConfig(_)),
            "got {err:?}"
        );
        // The payload limit itself is the boundary: a chunk that exactly
        // fills a frame still encodes.
        assert!(NetConfig::builder()
            .join_chunk_bytes(crate::frame::PAYLOAD_LIMIT)
            .try_build()
            .is_ok());
        let err = NetConfig::builder()
            .restart_budget(0)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, SpecSyncError::InvalidRetryPolicy { .. }),
            "got {err:?}"
        );
        assert!(NetConfig::builder().restart_budget(1).try_build().is_ok());
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
        for attempt in 0..cfg.connect_retries {
            let j = cfg.jittered_backoff_delay(attempt, 3);
            assert!(j <= cfg.backoff_delay(attempt).max(Backoff::MAX_DELAY));
            assert!(!j.is_zero());
            assert_eq!(j, cfg.jittered_backoff_delay(attempt, 3));
        }
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
        let cfg = NetConfig::default();
        assert_eq!(cfg.backoff_delay(0), Duration::from_millis(25));
        assert_eq!(cfg.backoff_delay(1), Duration::from_millis(50));
        assert_eq!(cfg.backoff_delay(30), Duration::from_secs(1));
    }
}
