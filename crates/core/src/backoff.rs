//! Deterministic bounded retry backoff, shared by every retrying layer.
//!
//! The TCP transport, the servers and the supervisor all walk the same
//! schedule: an exponential backoff that is a pure function of the
//! attempt index — `base << attempt`, capped at [`Backoff::MAX_DELAY`]
//! and limited to a configured number of attempts. No hidden randomness — two runs configured identically walk
//! the same delay sequence, which keeps retry behaviour reproducible in
//! tests even though the surrounding thread interleaving is not.
//!
//! For the wire, pure determinism has a failure mode of its own: after a
//! primary promotion every worker reconnects on the *same* schedule and
//! the retries arrive as a synchronized storm. [`Backoff::jittered`]
//! spreads them out with jitter that is still deterministic — a hash of
//! `(seed, attempt)` scales each delay into `[0.5, 1.0]×` — so a given
//! worker replays the same delays run after run while distinct workers
//! (distinct seeds) desynchronize.

use std::time::Duration;

/// A bounded, deterministic exponential backoff policy.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use specsync_core::Backoff;
///
/// let policy = Backoff::new(Duration::from_millis(1), 3);
/// assert_eq!(policy.delay(0), Some(Duration::from_millis(1)));
/// assert_eq!(policy.delay(1), Some(Duration::from_millis(2)));
/// assert_eq!(policy.delay(2), Some(Duration::from_millis(4)));
/// assert_eq!(policy.delay(3), None); // retries exhausted
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry; doubles on each subsequent attempt.
    pub base: Duration,
    /// Maximum number of retries before giving up.
    pub max_retries: u32,
}

impl Backoff {
    /// Ceiling on any single delay, whatever the attempt index — keeps a
    /// misconfigured policy from sleeping a thread for minutes.
    pub const MAX_DELAY: Duration = Duration::from_millis(250);

    /// Creates a policy with the given base delay and retry budget.
    pub fn new(base: Duration, max_retries: u32) -> Self {
        Backoff { base, max_retries }
    }

    /// The delay before retry number `attempt` (0-based), or `None` once
    /// the retry budget is exhausted.
    pub fn delay(&self, attempt: u32) -> Option<Duration> {
        if attempt >= self.max_retries {
            return None;
        }
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        let delay = self.base.checked_mul(factor).unwrap_or(Self::MAX_DELAY);
        Some(delay.min(Self::MAX_DELAY))
    }

    /// The delay before retry number `attempt`, scaled into `[0.5, 1.0]×`
    /// by a deterministic hash of `(seed, attempt)`.
    ///
    /// Same seed → same jitter sequence (reproducible runs); different
    /// seeds → decorrelated sequences (no reconnect storms when every
    /// worker retries after the same promotion). The jitter never
    /// *raises* a delay, so `delay(attempt)` stays an upper bound and
    /// total worst-case retry latency is unchanged.
    pub fn jittered(&self, attempt: u32, seed: u64) -> Option<Duration> {
        let full = self.delay(attempt)?;
        let h = splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Map the hash to [512, 1024) parts-per-1024: a scale in [0.5, 1.0).
        let ppk = 512 + (h % 512) as u32;
        Some(full.mul_f64(f64::from(ppk) / 1024.0))
    }

    /// Iterator over the full delay schedule, in order.
    pub fn schedule(&self) -> impl Iterator<Item = Duration> + '_ {
        (0..self.max_retries).filter_map(|a| self.delay(a))
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash used for
/// deterministic jitter. Not cryptographic — just decorrelation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_exhausted() {
        let b = Backoff::new(Duration::from_millis(2), 4);
        let schedule: Vec<_> = b.schedule().collect();
        assert_eq!(
            schedule,
            vec![
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(8),
                Duration::from_millis(16),
            ]
        );
        assert_eq!(b.delay(4), None);
        assert_eq!(b.delay(100), None);
    }

    #[test]
    fn delays_are_capped() {
        let b = Backoff::new(Duration::from_millis(100), 10);
        for attempt in 0..10 {
            assert!(b.delay(attempt).unwrap() <= Backoff::MAX_DELAY);
        }
        assert_eq!(b.delay(9), Some(Backoff::MAX_DELAY));
    }

    #[test]
    fn huge_attempt_indices_do_not_overflow() {
        let b = Backoff::new(Duration::from_millis(1), u32::MAX);
        assert_eq!(b.delay(u32::MAX - 1), Some(Backoff::MAX_DELAY));
        assert_eq!(b.delay(63), Some(Backoff::MAX_DELAY));
    }

    #[test]
    fn zero_budget_never_retries() {
        let b = Backoff::new(Duration::from_millis(1), 0);
        assert_eq!(b.delay(0), None);
        assert_eq!(b.schedule().count(), 0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let b = Backoff::new(Duration::from_micros(500), 6);
        let first: Vec<_> = b.schedule().collect();
        let second: Vec<_> = b.schedule().collect();
        assert_eq!(first, second);
    }

    #[test]
    fn jitter_stays_within_bounds_and_budget() {
        let b = Backoff::new(Duration::from_millis(8), 6);
        for attempt in 0..6 {
            let full = b.delay(attempt).unwrap();
            let j = b.jittered(attempt, 42).unwrap();
            assert!(j <= full, "jitter must never raise a delay");
            assert!(j >= full / 2, "jitter floor is half the full delay");
        }
        assert_eq!(b.jittered(6, 42), None, "budget still enforced");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_distinct_across_seeds() {
        let b = Backoff::new(Duration::from_millis(16), 8);
        let run = |seed| -> Vec<_> { (0..8).map(|a| b.jittered(a, seed)).collect() };
        assert_eq!(run(7), run(7), "same seed replays the same schedule");
        // Distinct seeds must desynchronize somewhere in the schedule —
        // that is the whole point of the jitter.
        assert_ne!(run(7), run(8), "distinct seeds decorrelate");
    }
}
