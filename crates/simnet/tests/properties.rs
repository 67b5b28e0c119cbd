//! Property-based tests for the discrete-event engine's core invariants.

use proptest::prelude::*;
use specsync_simnet::{
    DurationSampler, EventQueue, FaultPlan, LinkFaultProfile, MessageClass, RngStreams,
    SimDuration, VirtualTime,
};

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// order they were scheduled in.
    #[test]
    fn pops_are_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(VirtualTime::from_micros(t), i);
        }
        let mut last = VirtualTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Same-time events pop in schedule order (FIFO tie-break).
    #[test]
    fn ties_are_fifo(n in 1usize..100, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(VirtualTime::from_micros(t), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Identical seeds produce identical sample streams; the stream is
    /// unaffected by draws made on other labels.
    #[test]
    fn rng_streams_are_independent(seed in any::<u64>(), n in 1usize..50) {
        use rand::RngExt;
        let s1 = RngStreams::new(seed);
        let s2 = RngStreams::new(seed);

        // Interleave draws from an unrelated stream in run 1 only.
        let mut noise = s1.stream("noise");
        let mut a = s1.stream("target");
        let mut b = s2.stream("target");
        let mut va = Vec::new();
        let mut vb = Vec::new();
        for _ in 0..n {
            let _ : u64 = noise.random_range(0..u64::MAX);
            va.push(a.random_range(0..u64::MAX));
            vb.push(b.random_range(0..u64::MAX));
        }
        prop_assert_eq!(va, vb);
    }

    /// All duration samplers produce non-negative, finite durations.
    #[test]
    fn samplers_are_well_formed(seed in any::<u64>(), mean in 0.001f64..100.0, cv in 0.0f64..2.0) {
        let streams = RngStreams::new(seed);
        let mut rng = streams.stream("sampler");
        for sampler in [
            DurationSampler::Constant { secs: mean },
            DurationSampler::LogNormal { mean, cv },
        ] {
            let d = sampler.sample(&mut rng);
            prop_assert!(d.as_secs_f64().is_finite());
        }
    }

    /// Fault injection never breaks virtual-time ordering: messages routed
    /// through a duplicate+spike fault plan still pop from the event queue
    /// in non-decreasing time order, every delivered copy respects
    /// causality (arrives no earlier than its send), and duplicates of one
    /// send land at the same instant in FIFO order.
    #[test]
    fn fault_injected_deliveries_preserve_virtual_time_order(
        seed in any::<u64>(),
        sends in proptest::collection::vec((0u64..1_000_000, 1u64..50_000), 1..100),
    ) {
        let streams = RngStreams::new(seed);
        let mut plan = FaultPlan::new(&streams).with_profile(
            MessageClass::PushGrad,
            LinkFaultProfile {
                drop_prob: 0.0,
                duplicate_prob: 0.5,
                spike_prob: 0.5,
                spike: DurationSampler::LogNormal { mean: 0.1, cv: 0.8 },
            },
        );
        let mut q = EventQueue::new();
        let mut sent_at = Vec::new();
        for (msg, &(t, base_delay)) in sends.iter().enumerate() {
            let send = VirtualTime::from_micros(t);
            let fate = plan.try_fate(MessageClass::PushGrad).unwrap();
            prop_assert!(!fate.is_drop(), "drop_prob = 0 must never drop");
            prop_assert!(fate.copies <= 2);
            let arrive = send + SimDuration::from_micros(base_delay) + fate.extra_delay;
            for copy in 0..fate.copies {
                q.schedule(arrive, (msg, copy));
            }
            sent_at.push(send);
        }
        let mut last = VirtualTime::ZERO;
        let mut prev: Option<(usize, u8)> = None;
        while let Some((t, (msg, copy))) = q.pop() {
            prop_assert!(t >= last, "pops must be time-ordered");
            prop_assert!(t >= sent_at[msg], "a copy cannot arrive before its send");
            if let Some((pm, pc)) = prev {
                if t == last && pm == msg {
                    prop_assert!(copy > pc, "same-send duplicates pop in FIFO order");
                }
            }
            last = t;
            prev = Some((msg, copy));
        }
    }

    /// Cancelling a subset of events removes exactly those events.
    #[test]
    fn cancellation_is_exact(times in proptest::collection::vec(0u64..10_000, 1..100), mask in any::<u64>()) {
        let mut q = EventQueue::new();
        let mut kept = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let id = q.schedule(VirtualTime::from_micros(t), i);
            if mask & (1 << (i % 64)) != 0 {
                q.cancel(id);
            } else {
                kept.push(i);
            }
        }
        let mut popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }
}
