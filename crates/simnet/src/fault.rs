//! Deterministic fault injection: message-level chaos, stragglers, crashes.
//!
//! A [`FaultPlan`] is the single source of truth for everything that goes
//! wrong in a chaos run. It draws every probabilistic decision from its own
//! dedicated RNG stream (label `"faults"`), so enabling faults never perturbs
//! the `"net"` or `"compute"` streams — a fault-free run with a plan attached
//! but all probabilities at zero is byte-identical to a run with no plan at
//! all, and two same-seed chaos runs replay the exact same fault sequence.
//!
//! Three fault families are modelled, mirroring what the straggler/failure
//! literature reports for parameter-server clusters:
//!
//! * **Link faults** ([`LinkFaultProfile`], per [`MessageClass`]): a message
//!   send may be dropped, duplicated, or hit with an extra delay spike.
//! * **Stragglers** ([`StragglerWindow`]): a worker's compute is slowed by a
//!   multiplicative factor inside a virtual-time window.
//! * **Crashes** ([`CrashEvent`]): a worker dies at an instant and may
//!   recover later; in-flight work is discarded by the host.
//!
//! The plan itself only *decides*; the driver/runtime interpret the
//! decisions (retry, fence, release barriers).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::RngExt;

use crate::id::WorkerId;
use crate::network::MessageClass;
use crate::rng::{DistributionError, DurationSampler, RngStreams};
use crate::time::{SimDuration, VirtualTime};

/// An invalid fault-plan parameter (probability outside `[0, 1]`,
/// inverted window, non-positive slowdown, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfigError {
    message: &'static str,
}

impl FaultConfigError {
    /// Creates an error with a static description.
    pub fn new(message: &'static str) -> Self {
        FaultConfigError { message }
    }
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl std::error::Error for FaultConfigError {}

fn check_prob(p: f64, what: &'static str) -> Result<(), FaultConfigError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(FaultConfigError::new(what))
    }
}

/// Per-class link fault probabilities.
///
/// The three faults are decided in a fixed order per send: drop first (a
/// dropped message has no copies to duplicate or delay), then duplication,
/// then a delay spike applied to every delivered copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultProfile {
    /// Probability the message is lost entirely.
    pub drop_prob: f64,
    /// Probability the message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability every delivered copy is hit with an extra delay spike.
    pub spike_prob: f64,
    /// Distribution of the extra spike delay.
    pub spike: DurationSampler,
}

impl LinkFaultProfile {
    /// A profile that never injects anything.
    pub fn lossless() -> Self {
        LinkFaultProfile {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            spike_prob: 0.0,
            spike: DurationSampler::Constant { secs: 0.0 },
        }
    }

    /// A drop-only profile.
    pub fn drop_only(drop_prob: f64) -> Self {
        LinkFaultProfile {
            drop_prob,
            ..LinkFaultProfile::lossless()
        }
    }

    /// Validates every probability is a finite value in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        check_prob(self.drop_prob, "drop probability must be in [0, 1]")?;
        check_prob(
            self.duplicate_prob,
            "duplicate probability must be in [0, 1]",
        )?;
        check_prob(self.spike_prob, "spike probability must be in [0, 1]")?;
        Ok(())
    }

    fn is_noop(&self) -> bool {
        self.drop_prob == 0.0 && self.duplicate_prob == 0.0 && self.spike_prob == 0.0
    }
}

/// The plan's verdict for one logical message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFate {
    /// Number of copies to deliver: `0` dropped, `1` normal, `2` duplicated.
    pub copies: u8,
    /// Extra delay-spike added to every delivered copy.
    pub extra_delay: SimDuration,
}

impl MessageFate {
    /// An untouched delivery: one copy, no extra delay.
    pub fn clean() -> Self {
        MessageFate {
            copies: 1,
            extra_delay: SimDuration::ZERO,
        }
    }

    /// True if the message was dropped.
    pub fn is_drop(self) -> bool {
        self.copies == 0
    }

    /// True if the message was duplicated.
    pub fn is_duplicate(self) -> bool {
        self.copies > 1
    }

    /// True if a delay spike was injected.
    pub fn is_spiked(self) -> bool {
        !self.extra_delay.is_zero()
    }
}

/// A straggler window: `worker` computes `slowdown`× slower in
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// The straggling worker.
    pub worker: WorkerId,
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
    /// Multiplicative compute slowdown (`>= 1` slows, `< 1` would speed up).
    pub slowdown: f64,
}

/// A scheduled worker crash, with an optional recovery instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing worker.
    pub worker: WorkerId,
    /// When the worker dies.
    pub at: VirtualTime,
    /// When the worker rejoins, if it ever does.
    pub recover_at: Option<VirtualTime>,
}

/// A scheduled parameter-server crash, with an optional recovery instant.
///
/// The server is named by its index, below the store's server count. The
/// host decides what a server crash *means* (refuse deliveries, promote a
/// backup, replay a journal); the plan only schedules it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrashEvent {
    /// Index of the crashing server shard.
    pub server: usize,
    /// When the server dies.
    pub at: VirtualTime,
    /// When the crashed node rejoins as a warm backup, if it ever does.
    pub recover_at: Option<VirtualTime>,
}

/// A deterministic chaos schedule seeded from [`RngStreams`].
///
/// Construct with [`FaultPlan::new`], then layer faults on with the builder
/// methods. Decisions are drawn lazily per [`FaultPlan::fate`] call, in call
/// order, so the same seed and the same sequence of sends replays the same
/// fault sequence byte-for-byte.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    profiles: BTreeMap<MessageClass, LinkFaultProfile>,
    stragglers: Vec<StragglerWindow>,
    crashes: Vec<CrashEvent>,
    server_crashes: Vec<ServerCrashEvent>,
    rng: StdRng,
}

impl FaultPlan {
    /// An empty plan drawing from the dedicated `"faults"` stream.
    pub fn new(streams: &RngStreams) -> Self {
        FaultPlan {
            profiles: BTreeMap::new(),
            stragglers: Vec::new(),
            crashes: Vec::new(),
            server_crashes: Vec::new(),
            rng: streams.stream("faults"),
        }
    }

    /// Sets the link fault profile for one message class.
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] if any probability is outside `[0, 1]`.
    pub fn try_with_profile(
        mut self,
        class: MessageClass,
        profile: LinkFaultProfile,
    ) -> Result<Self, FaultConfigError> {
        profile.validate()?;
        self.profiles.insert(class, profile);
        Ok(self)
    }

    /// Sets the link fault profile for one message class.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid; see [`FaultPlan::try_with_profile`].
    pub fn with_profile(self, class: MessageClass, profile: LinkFaultProfile) -> Self {
        match self.try_with_profile(class, profile) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds a straggler slowdown window.
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] if the window is inverted or the
    /// slowdown is not a positive finite factor.
    pub fn try_with_straggler(mut self, window: StragglerWindow) -> Result<Self, FaultConfigError> {
        if window.start >= window.end {
            return Err(FaultConfigError::new("straggler window must not be empty"));
        }
        if !(window.slowdown.is_finite() && window.slowdown > 0.0) {
            return Err(FaultConfigError::new(
                "straggler slowdown must be positive and finite",
            ));
        }
        self.stragglers.push(window);
        Ok(self)
    }

    /// Adds a straggler slowdown window.
    ///
    /// # Panics
    ///
    /// Panics if the window is invalid; see [`FaultPlan::try_with_straggler`].
    pub fn with_straggler(self, window: StragglerWindow) -> Self {
        match self.try_with_straggler(window) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedules a worker crash (and optional recovery).
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] if the recovery instant does not come
    /// strictly after the crash.
    pub fn try_with_crash(mut self, crash: CrashEvent) -> Result<Self, FaultConfigError> {
        if let Some(recover) = crash.recover_at {
            if recover <= crash.at {
                return Err(FaultConfigError::new("recovery must come after the crash"));
            }
        }
        self.crashes.push(crash);
        Ok(self)
    }

    /// Schedules a worker crash (and optional recovery).
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid; see [`FaultPlan::try_with_crash`].
    pub fn with_crash(self, crash: CrashEvent) -> Self {
        match self.try_with_crash(crash) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedules a parameter-server crash (and optional recovery).
    ///
    /// # Errors
    ///
    /// Returns [`FaultConfigError`] if the recovery instant does not come
    /// strictly after the crash.
    pub fn try_with_server_crash(
        mut self,
        crash: ServerCrashEvent,
    ) -> Result<Self, FaultConfigError> {
        if let Some(recover) = crash.recover_at {
            if recover <= crash.at {
                return Err(FaultConfigError::new(
                    "server recovery must come after the crash",
                ));
            }
        }
        self.server_crashes.push(crash);
        Ok(self)
    }

    /// Schedules a parameter-server crash (and optional recovery).
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid; see
    /// [`FaultPlan::try_with_server_crash`].
    pub fn with_server_crash(self, crash: ServerCrashEvent) -> Self {
        match self.try_with_server_crash(crash) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// True if the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.profiles.values().all(LinkFaultProfile::is_noop)
            && self.stragglers.is_empty()
            && self.crashes.is_empty()
            && self.server_crashes.is_empty()
    }

    /// Decides the fate of one logical send of `class`.
    ///
    /// Classes with no registered profile consume no randomness, so adding a
    /// profile for one class leaves every other class's decisions unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError`] if the spike sampler is malformed.
    pub fn try_fate(&mut self, class: MessageClass) -> Result<MessageFate, DistributionError> {
        let Some(profile) = self.profiles.get(&class).copied() else {
            return Ok(MessageFate::clean());
        };
        if profile.drop_prob > 0.0 && self.rng.random_bool(profile.drop_prob) {
            return Ok(MessageFate {
                copies: 0,
                extra_delay: SimDuration::ZERO,
            });
        }
        let copies = if profile.duplicate_prob > 0.0 && self.rng.random_bool(profile.duplicate_prob)
        {
            2
        } else {
            1
        };
        let extra_delay = if profile.spike_prob > 0.0 && self.rng.random_bool(profile.spike_prob) {
            profile.spike.try_sample(&mut self.rng)?
        } else {
            SimDuration::ZERO
        };
        Ok(MessageFate {
            copies,
            extra_delay,
        })
    }

    /// Decides the fate of one logical send of `class`.
    ///
    /// # Panics
    ///
    /// Panics if the spike sampler is malformed; see [`FaultPlan::try_fate`].
    pub fn fate(&mut self, class: MessageClass) -> MessageFate {
        match self.try_fate(class) {
            Ok(fate) => fate,
            Err(e) => panic!("{e}"),
        }
    }

    /// The combined compute slowdown factor for `worker` at instant `at`
    /// (product of all windows covering the instant; `1.0` when none do).
    pub fn slowdown_at(&self, worker: WorkerId, at: VirtualTime) -> f64 {
        self.stragglers
            .iter()
            .filter(|w| w.worker == worker && w.start <= at && at < w.end)
            .map(|w| w.slowdown)
            .product()
    }

    /// All straggler windows, in insertion order.
    pub fn straggler_windows(&self) -> &[StragglerWindow] {
        &self.stragglers
    }

    /// All scheduled crash events, in insertion order.
    pub fn crash_schedule(&self) -> &[CrashEvent] {
        &self.crashes
    }

    /// All scheduled server crash events, in insertion order.
    pub fn server_crash_schedule(&self) -> &[ServerCrashEvent] {
        &self.server_crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(&RngStreams::new(seed))
    }

    #[test]
    fn empty_plan_is_noop_and_clean() {
        let mut p = plan(1);
        assert!(p.is_noop());
        for class in MessageClass::ALL {
            assert_eq!(p.fate(class), MessageFate::clean());
        }
    }

    #[test]
    fn unprofiled_classes_consume_no_randomness() {
        // Two plans, identical except one also sends through an unprofiled
        // class between profiled sends: the profiled decisions must match.
        let profile = LinkFaultProfile {
            drop_prob: 0.4,
            duplicate_prob: 0.3,
            spike_prob: 0.3,
            spike: DurationSampler::Constant { secs: 0.01 },
        };
        let mut a = plan(9).with_profile(MessageClass::Notify, profile);
        let mut b = plan(9).with_profile(MessageClass::Notify, profile);
        let fates_a: Vec<_> = (0..64).map(|_| a.fate(MessageClass::Notify)).collect();
        let fates_b: Vec<_> = (0..64)
            .map(|_| {
                let f = b.fate(MessageClass::Notify);
                // Interleaved unprofiled sends must not advance the stream.
                b.fate(MessageClass::PullParams);
                f
            })
            .collect();
        assert_eq!(fates_a, fates_b);
    }

    #[test]
    fn same_seed_replays_identical_fates() {
        let profile = LinkFaultProfile {
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            spike_prob: 0.5,
            spike: DurationSampler::LogNormal {
                mean: 0.05,
                cv: 0.5,
            },
        };
        let mut a = plan(42).with_profile(MessageClass::PushGrad, profile);
        let mut b = plan(42).with_profile(MessageClass::PushGrad, profile);
        for _ in 0..256 {
            assert_eq!(
                a.fate(MessageClass::PushGrad),
                b.fate(MessageClass::PushGrad)
            );
        }
    }

    #[test]
    fn drop_probability_is_roughly_honoured() {
        let mut p = plan(7).with_profile(MessageClass::Notify, LinkFaultProfile::drop_only(0.3));
        let drops = (0..10_000)
            .filter(|_| p.fate(MessageClass::Notify).is_drop())
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn slowdown_windows_compose_and_expire() {
        let p = plan(3)
            .with_straggler(StragglerWindow {
                worker: WorkerId::new(1),
                start: VirtualTime::from_secs(10),
                end: VirtualTime::from_secs(20),
                slowdown: 3.0,
            })
            .with_straggler(StragglerWindow {
                worker: WorkerId::new(1),
                start: VirtualTime::from_secs(15),
                end: VirtualTime::from_secs(25),
                slowdown: 2.0,
            });
        assert_eq!(
            p.slowdown_at(WorkerId::new(1), VirtualTime::from_secs(5)),
            1.0
        );
        assert_eq!(
            p.slowdown_at(WorkerId::new(1), VirtualTime::from_secs(12)),
            3.0
        );
        assert_eq!(
            p.slowdown_at(WorkerId::new(1), VirtualTime::from_secs(16)),
            6.0
        );
        assert_eq!(
            p.slowdown_at(WorkerId::new(1), VirtualTime::from_secs(22)),
            2.0
        );
        assert_eq!(
            p.slowdown_at(WorkerId::new(1), VirtualTime::from_secs(25)),
            1.0
        );
        assert_eq!(
            p.slowdown_at(WorkerId::new(0), VirtualTime::from_secs(16)),
            1.0
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(plan(0)
            .try_with_profile(MessageClass::Notify, LinkFaultProfile::drop_only(1.5))
            .is_err());
        assert!(plan(0)
            .try_with_profile(MessageClass::Notify, LinkFaultProfile::drop_only(f64::NAN))
            .is_err());
        assert!(plan(0)
            .try_with_straggler(StragglerWindow {
                worker: WorkerId::new(0),
                start: VirtualTime::from_secs(5),
                end: VirtualTime::from_secs(5),
                slowdown: 2.0,
            })
            .is_err());
        assert!(plan(0)
            .try_with_straggler(StragglerWindow {
                worker: WorkerId::new(0),
                start: VirtualTime::ZERO,
                end: VirtualTime::from_secs(1),
                slowdown: 0.0,
            })
            .is_err());
        assert!(plan(0)
            .try_with_crash(CrashEvent {
                worker: WorkerId::new(0),
                at: VirtualTime::from_secs(2),
                recover_at: Some(VirtualTime::from_secs(2)),
            })
            .is_err());
    }

    #[test]
    fn server_crash_schedule_is_preserved_and_validated() {
        let crash = ServerCrashEvent {
            server: 1,
            at: VirtualTime::from_secs(10),
            recover_at: Some(VirtualTime::from_secs(20)),
        };
        let p = plan(0).with_server_crash(crash);
        assert_eq!(p.server_crash_schedule(), &[crash]);
        assert!(!p.is_noop());
        assert!(plan(0)
            .try_with_server_crash(ServerCrashEvent {
                server: 0,
                at: VirtualTime::from_secs(5),
                recover_at: Some(VirtualTime::from_secs(5)),
            })
            .is_err());
    }

    #[test]
    fn server_crashes_consume_no_randomness() {
        // Scheduling a server crash must not shift the fault stream: the
        // profiled fates before and after adding one are identical.
        let profile = LinkFaultProfile::drop_only(0.5);
        let mut a = plan(11).with_profile(MessageClass::Notify, profile);
        let mut b = plan(11)
            .with_profile(MessageClass::Notify, profile)
            .with_server_crash(ServerCrashEvent {
                server: 0,
                at: VirtualTime::from_secs(1),
                recover_at: None,
            });
        for _ in 0..128 {
            assert_eq!(a.fate(MessageClass::Notify), b.fate(MessageClass::Notify));
        }
    }

    #[test]
    fn crash_schedule_is_preserved() {
        let crash = CrashEvent {
            worker: WorkerId::new(2),
            at: VirtualTime::from_secs(30),
            recover_at: Some(VirtualTime::from_secs(45)),
        };
        let p = plan(0).with_crash(crash);
        assert_eq!(p.crash_schedule(), &[crash]);
        assert!(!p.is_noop());
    }
}
