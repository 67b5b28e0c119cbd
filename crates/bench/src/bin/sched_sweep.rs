//! Scheduler scalability sweep (fig. 11 style, but for the control plane):
//! drives the core [`Scheduler`] with deterministic synthetic notify /
//! pull / check / epoch traffic at 40 → 1,000 → 10,000 workers and
//! reports nanoseconds per scheduler event and peak history footprint.
//!
//! The history is bounded exactly as the wall-clock hosts bound it
//! ([`Scheduler::with_history_retention`]: the tuner's lookback window).
//! The streaming data plane must keep per-event cost flat as history
//! accumulates and memory bounded; the sweep gates the first:
//!
//! * `sched_sweep`         — full sweep (40 / 1k / 10k workers)
//! * `sched_sweep --quick` — reduced sizes/rounds (CI scale)
//!
//! Either way it exits 1 if per-event cost is not flat (see [`flat`]).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "harness: wall-clock timing, sleeps and the command line never run inside a simulation"
)]

use specsync_core::{AdaptiveTuner, Scheduler};
use specsync_simnet::{VirtualTime, WorkerId};
use specsync_sync::TuningMode;
use specsync_telemetry::{Event, EventSink, MetricsSink};

/// Iterations (notify+pull+check triples) per worker per epoch.
const ROUNDS_PER_EPOCH: u64 = 4;
/// Every `K`-th event's wall cost feeds the `SchedCost` histogram.
const COST_SAMPLE_STRIDE: u64 = 64;

struct SweepResult {
    workers: usize,
    events: u64,
    ns_per_event: f64,
    early_ns: f64,
    late_ns: f64,
    peak_history_bytes: usize,
    evicted_records: u64,
    cost_mean_ns: f64,
    cost_max_ns: u64,
}

/// A tiny deterministic LCG; the sweep must not depend on host entropy.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One pending simulation event: worker `worker` pulls (0), notifies (1),
/// or checks its speculation deadline (2) at micro-timestamp `at`.
type Ev = (u64, usize, u8);

/// Drives one scheduler through `epochs` epochs of synthetic traffic and
/// measures per-event cost in two halves (flatness) plus peak memory.
///
/// Traffic shape: each worker loops pull → compute (a heterogeneous span,
/// ±25% around 100ms from a seeded LCG) → notify; speculation deadlines
/// returned by notify are checked when they fall due. A min-heap feeds
/// every event to the scheduler in global time order — the history's
/// chronological invariant. An epoch closes when the slowest worker
/// finishes another [`ROUNDS_PER_EPOCH`] iterations, which drives the
/// adaptive tuner and eviction.
fn run_sweep(m: usize, epochs: u64, costs: &MetricsSink) -> SweepResult {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // Harness-side wall timing of the sweep.
    use std::time::Instant;

    let mut sched = Scheduler::new(m, TuningMode::Adaptive).with_history_retention();
    let mut rng = Lcg(0x5eed_5eed ^ m as u64);
    let spans: Vec<u64> = (0..m).map(|_| 75_000 + rng.next() % 50_000).collect();

    let rounds = epochs * ROUNDS_PER_EPOCH;
    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::with_capacity(2 * m);
    for (i, span) in spans.iter().enumerate() {
        // Stagger iteration starts so pushes interleave across workers.
        heap.push(Reverse((span / 7 + (i as u64 * 100_000) / m as u64, i, 0)));
    }
    let mut pushes_done = vec![0u64; m];
    let mut at_target = 0usize;
    let mut epoch = 0u64;
    let mut events = 0u64;
    let mut peak_bytes = 0usize;
    // (elapsed, events) snapshot taken when half the epochs have closed.
    let mut half_mark: Option<(u128, u64)> = None;

    let run_start = Instant::now();
    while let Some(Reverse((at, i, kind))) = heap.pop() {
        let now = VirtualTime::from_micros(at);
        let w = WorkerId::new(i);
        let sample = events.is_multiple_of(COST_SAMPLE_STRIDE).then(Instant::now);
        match kind {
            0 => {
                sched.on_pull(w, now);
                heap.push(Reverse((at + spans[i], i, 1)));
            }
            1 => {
                if let Some(d) = sched.on_notify(w, now) {
                    heap.push(Reverse((d.as_micros(), i, 2)));
                }
                pushes_done[i] += 1;
                if pushes_done[i] == (epoch + 1) * ROUNDS_PER_EPOCH {
                    at_target += 1;
                    if at_target == m {
                        epoch += 1;
                        sched.on_epoch_complete(now);
                        peak_bytes = peak_bytes.max(sched.history().approx_bytes());
                        let next = (epoch + 1) * ROUNDS_PER_EPOCH;
                        at_target = pushes_done.iter().filter(|&&p| p >= next).count();
                        if epoch == epochs / 2 {
                            half_mark = Some((run_start.elapsed().as_nanos(), events));
                        }
                    }
                }
                if pushes_done[i] < rounds {
                    heap.push(Reverse((at + spans[i] / 11 + 1, i, 0)));
                }
            }
            _ => {
                sched.on_check(w, now);
            }
        }
        events += 1;
        if let Some(start) = sample {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            costs.record(now, &Event::SchedCost { nanos });
        }
    }
    let total = run_start.elapsed().as_nanos();
    peak_bytes = peak_bytes.max(sched.history().approx_bytes());

    let (half_ns, half_events) = half_mark.unwrap_or((total / 2, events / 2));
    let late_events = events.saturating_sub(half_events).max(1);
    let history = sched.history();
    let evicted = history.evicted_pushes() + history.evicted_pulls();
    let snapshot = costs.snapshot();
    SweepResult {
        workers: m,
        events,
        ns_per_event: total as f64 / events.max(1) as f64,
        early_ns: half_ns as f64 / half_events.max(1) as f64,
        late_ns: (total - half_ns) as f64 / late_events as f64,
        peak_history_bytes: peak_bytes,
        evicted_records: evicted,
        cost_mean_ns: snapshot.sched_cost.mean().unwrap_or(0.0),
        cost_max_ns: snapshot.sched_cost.max(),
    }
}

/// Runs shorter than this are never failed: timing noise and the
/// speculation phase-in (the tuner enables aborts after the first tuned
/// epoch) dominate them.
const MIN_GATED_EVENTS: u64 = 100_000;
/// The most the second half's per-event cost may exceed the first half's.
const MAX_FLATNESS: f64 = 2.5;

/// The sweep's machine-independent gate: per-event cost must stay flat as
/// history accumulates. Returns `late / early` as the error when it did
/// not.
fn flat(events: u64, early_ns: f64, late_ns: f64) -> Result<(), f64> {
    let flatness = late_ns / early_ns.max(f64::MIN_POSITIVE);
    if events >= MIN_GATED_EVENTS && flatness > MAX_FLATNESS {
        return Err(flatness);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = match args.as_slice() {
        [] => false,
        [flag] if flag == "--quick" => true,
        _ => {
            eprintln!("usage: sched_sweep [--quick]");
            std::process::exit(2);
        }
    };
    let sizes: &[(usize, u64)] = if quick {
        // (workers, epochs) — small enough for CI, large enough that the
        // bounded run evicts and the flatness halves are meaningful.
        &[(40, 60), (1_000, 30)]
    } else {
        &[(40, 120), (1_000, 60), (10_000, 30)]
    };

    println!(
        "scheduler data-plane sweep (retention {} epochs)",
        AdaptiveTuner::default().window_epochs()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>14} {:>10} | {:>10} {:>9}",
        "workers",
        "events",
        "ns/event",
        "early ns",
        "late ns",
        "flatness",
        "peak history",
        "evicted",
        "cost mean",
        "cost max"
    );

    let mut failed = false;
    for &(m, epochs) in sizes {
        let r = run_sweep(m, epochs, &MetricsSink::new());
        println!(
            "{:>8} {:>12} {:>12.1} {:>10.1} {:>10.1} {:>8.2}x {:>13}B {:>10} | {:>8.1}ns {:>7}ns",
            r.workers,
            r.events,
            r.ns_per_event,
            r.early_ns,
            r.late_ns,
            r.late_ns / r.early_ns.max(f64::MIN_POSITIVE),
            r.peak_history_bytes,
            r.evicted_records,
            r.cost_mean_ns,
            r.cost_max_ns
        );
        if let Err(flatness) = flat(r.events, r.early_ns, r.late_ns) {
            eprintln!(
                "FAIL {} workers: per-event cost grew {flatness:.2}x from first to second half",
                r.workers
            );
            failed = true;
        }
    }
    println!("(flat late/early and bounded peak history = streaming data plane holding up)");
    if failed {
        std::process::exit(1);
    }
    println!("flatness gate passed (late/early <= {MAX_FLATNESS}x from {MIN_GATED_EVENTS} events)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_fails_only_long_runs_that_slow_down() {
        assert_eq!(flat(500_000, 100.0, 110.0), Ok(()), "a flat run");
        assert_eq!(flat(MIN_GATED_EVENTS, 100.0, 300.0), Err(3.0), "3x slower");
        assert_eq!(
            flat(MIN_GATED_EVENTS - 1, 100.0, 1_000.0),
            Ok(()),
            "too short"
        );
    }
}
