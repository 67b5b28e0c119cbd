//! The runtime's time source, abstracted behind [`ClockSource`].
//!
//! The threaded runtime is the one component of the workspace that is
//! *supposed* to read wall-clock time — its speculation windows are real.
//! Even so, the worker loop reads it through this trait: the workspace
//! analyzer (`cargo xtask analyze`) denies ambient `Instant` reads, so the
//! sanctioned sites are concentrated here and individually annotated.

use std::time::Duration;

/// A monotonic time source. `now` reports the time elapsed since the
/// clock's epoch, which is fixed at construction.
pub trait ClockSource: Send + Sync {
    /// Time elapsed since the clock's epoch. Must be monotonic.
    fn now(&self) -> Duration;
}

/// The production clock: monotonic wall time, epoch = construction time.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    // specsync-allow(virtual-time): the runtime's sanctioned wall-clock origin
    origin: std::time::Instant,
}

impl WallClock {
    /// Creates a clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            // specsync-allow(virtual-time): the runtime's sanctioned wall-clock read
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSource for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
