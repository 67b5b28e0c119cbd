//! The training workloads: the whole system over loopback TCP — scheduler
//! server, primary + backup shard servers registered with it, and worker
//! harnesses over `TcpTransport` — trained until the scheduler has seen the
//! run's push budget, with an evaluator pulling the model and watching for
//! the target loss.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use specsync_ml::{ConvergenceDetector, Workload, WorkloadBundle};
use specsync_net::{
    ConnSeq, Endpoint, FrameConn, SchedulerConfig, SchedulerRunStats, SchedulerServer, ShardHost,
    TcpTransport, Transport, TransportStats, WireMessage,
};
use specsync_ps::PushPayload;
use specsync_runtime::{ClockSource, WallClock, WorkerHarness, WorkerOutcome};
use specsync_simnet::WorkerId;
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, EventSink, InMemorySink, NullSink};

use crate::cluster::{self, PairStats, ShardPair};
use crate::inputs::{Gradient, Inputs};
use crate::layers;
use crate::stats;
use crate::sys::{self, MemoryGuard};
use crate::Report;

/// Worker threads. More than this box's two cores on purpose: each sleeps
/// through its compute pad for most of an iteration, as a worker waiting on
/// an accelerator would.
pub const WORKERS: usize = 4;

/// The `net_smoke` worker pacing.
pub const COMPUTE_PAD: Duration = Duration::from_millis(5);
const ABORT_POLL: Duration = Duration::from_millis(1);
const HEARTBEAT: Duration = Duration::from_millis(25);

/// The evaluator's pull period.
const EVAL_EVERY: Duration = Duration::from_millis(20);

/// Seed of the generated ratings and of the model's starting point. Pinned:
/// the time to an absolute loss depends on the generated data far more
/// than on the system (one seed's data starts at loss 0.165, the next
/// one's at 0.141), so `--seed` varies only what a rerun of the same job
/// varies, the order in which each worker samples its partition.
const DATA_SEED: u64 = 11;

/// A run that has not finished by now is stopped and counted failed.
const HARD_STOP: Duration = Duration::from_secs(60);

/// What one training workload runs.
#[derive(Clone, Debug)]
pub struct Shape {
    pub scheme: SchemeKind,
    /// Evaluation loss the detector must see five times in a row.
    pub target_loss: f64,
    /// Pushes after which the scheduler ends the run. Fixed, and sized past
    /// the slowest seed's pushes-to-target, so every run does the same work.
    pub push_budget: u64,
}

/// The two ways a run is wired: with the primary relaying every push to a
/// warm backup, as deployed, or without, to price the relay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relay {
    On,
    Off,
}

type Sink = Arc<dyn EventSink<Duration>>;

/// Scheduler, shard pair, worker transports and the evaluator's
/// connection: everything `setup_s` covers.
struct Rig {
    bundle: WorkloadBundle,
    scheduler: std::thread::JoinHandle<SchedulerRunStats>,
    pair: ShardPair,
    transports: Vec<TcpTransport>,
    eval_conn: FrameConn,
    /// The workers' stop flag, raised by the scheduler thread the moment
    /// its run ends: the scheduler's `Shutdown` reaches a worker only while
    /// it computes, the flag also stops one that is pulling or pushing.
    stop: Arc<AtomicBool>,
}

/// Builds the models, as every role of `net_smoke` does when it starts,
/// then binds, registers and connects everything.
fn set_up(
    shape: &Shape,
    workload: &Workload,
    push_budget: u64,
    relay: Relay,
    sinks: &Sinks,
) -> Rig {
    let bundle = workload.build(WORKERS, DATA_SEED);
    let initial = bundle.workers[0].params().to_vec();
    let net = cluster::training_net();
    let server = SchedulerServer::bind(
        "127.0.0.1:0",
        SchedulerConfig {
            scheme: shape.scheme,
            workers: WORKERS,
            net: net.clone(),
            stop_after_pushes: Some(push_budget),
            max_duration: HARD_STOP,
        },
    )
    .expect("bind scheduler")
    .with_sink(Arc::clone(&sinks.wire));
    let sched_addr = server.local_addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let scheduler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stats = server.run().expect("scheduler run");
            stop.store(true, Ordering::SeqCst);
            stats
        })
    };

    let host = || {
        let lr = workload.lr.clone();
        ShardHost::new(cluster::replicated(initial.clone(), workload.momentum))
            .with_workers(WORKERS)
            .with_lr_fn(move |epoch| lr.lr_at(epoch) as f32)
    };
    let pair = ShardPair::start(host, &net, relay == Relay::On, Some(&sched_addr));
    let transports = (0..WORKERS)
        .map(|i| {
            TcpTransport::connect(
                WorkerId::new(i),
                &pair.primary_addr,
                &sched_addr,
                net.clone(),
                Arc::clone(&sinks.wire),
            )
            .expect("worker connect")
        })
        .collect();
    // Connects only, no first exchange: a reply would wait for the shard's
    // accept poll, one 5 ms tick or two, and `setup_s` would take one of
    // two values by the phase of that poll.
    let eval_conn = cluster::connect(&pair.primary_addr, &net, &ConnSeq::new(), WORKERS);
    Rig {
        bundle,
        scheduler,
        pair,
        transports,
        eval_conn,
        stop,
    }
}

/// The evaluator pulls as a worker index past the real ones, so the
/// shard's per-worker push counters are not touched.
fn pull(conn: &mut FrameConn) -> Result<(u64, Arc<[f32]>), String> {
    let worker = WorkerId::new(WORKERS);
    match conn.exchange(&WireMessage::Pull { worker }) {
        Ok((WireMessage::PullReply { version, params }, _, _)) => Ok((version, params)),
        other => Err(format!("evaluator pull: {other:?}")),
    }
}

/// Where events go. `harness` always records: worker phase changes are the
/// load generator's own latency clock, a few thousand events a second.
/// `wire` (transports and scheduler) records only in a traced run.
pub struct Sinks {
    pub harness: Arc<InMemorySink<Duration>>,
    pub wire: Sink,
}

impl Sinks {
    pub fn untraced() -> Sinks {
        Sinks {
            harness: Arc::new(InMemorySink::new()),
            wire: Arc::new(NullSink),
        }
    }

    /// One sink shared by workers, transports and scheduler.
    pub fn traced() -> Sinks {
        let all = Arc::new(InMemorySink::new());
        Sinks {
            harness: Arc::clone(&all),
            wire: all,
        }
    }
}

/// When the detector latched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latch {
    pub at_s: f64,
    /// Store version of the latching evaluation: pushes to the target.
    pub version: u64,
}

/// Everything one training run produced.
pub struct Trained {
    pub setup_s: f64,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` when the run ended.
    pub peak_rss_mb: f64,
    pub latch: Option<Latch>,
    pub final_loss: f64,
    pub final_version: u64,
    pub scheduler: SchedulerRunStats,
    pub workers: Vec<(WorkerOutcome, TransportStats)>,
    pub shards: PairStats,
    pub problems: Vec<String>,
}

impl Trained {
    pub fn pushes(&self) -> u64 {
        self.workers.iter().map(|(o, _)| o.pushes).sum()
    }

    pub fn aborts(&self) -> u64 {
        self.workers.iter().map(|(o, _)| o.aborts).sum()
    }
}

/// Watches the evaluations for the target: latches on the fifth in a row
/// at or below it, and keeps the time and store version of that one.
struct TargetWatch {
    detector: ConvergenceDetector,
    latch: Option<Latch>,
}

impl TargetWatch {
    fn new(target: f64) -> Self {
        TargetWatch {
            detector: ConvergenceDetector::paper_default(target),
            latch: None,
        }
    }

    fn observe(&mut self, at_s: f64, version: u64, loss: f64) {
        if self.latch.is_none() && self.detector.observe(loss) {
            self.latch = Some(Latch { at_s, version });
        }
    }
}

/// One training run to the push budget.
pub fn train(
    shape: &Shape,
    seed: u64,
    relay: Relay,
    sinks: &Sinks,
    guard: &MemoryGuard,
) -> Trained {
    let workload = Workload::matrix_factorization();
    let begun = Instant::now();
    let rig = set_up(shape, &workload, shape.push_budget, relay, sinks);
    let setup_s = begun.elapsed().as_secs_f64();
    let Rig {
        mut bundle,
        scheduler,
        pair,
        transports,
        mut eval_conn,
        stop,
    } = rig;

    let clock: Arc<dyn ClockSource> = Arc::new(WallClock::new());
    let cpu_before = sys::cpu_seconds();
    let started = Instant::now();
    let run_start = clock.now();
    let worker_threads: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(i, mut transport)| {
            let model = bundle.workers.remove(0);
            let sampler = workload.sampler_for(model.as_ref(), i, seed ^ 0xBA7C);
            let harness = WorkerHarness {
                worker: WorkerId::new(i),
                model,
                sampler,
                compute_pad: COMPUTE_PAD,
                abort_poll: ABORT_POLL,
                heartbeat_interval: HEARTBEAT,
                mute_after: None,
                drop_notify_every: None,
                clock: Arc::clone(&clock),
                sink: Arc::clone(&sinks.harness) as Sink,
                run_start,
                stop: Arc::clone(&stop),
            };
            std::thread::spawn(move || {
                let outcome = harness.run(&mut transport);
                (outcome, transport.stats(), transport)
            })
        })
        .collect();

    let mut problems = Vec::new();
    let mut watch = TargetWatch::new(shape.target_loss);
    while !stop.load(Ordering::SeqCst) {
        if guard.tripped.load(Ordering::SeqCst) {
            problems.push(format!("resident set passed {} MB", sys::RSS_LIMIT_MB));
            break;
        }
        std::thread::sleep(EVAL_EVERY);
        // Past the target the evaluator only waits for the budget.
        if watch.latch.is_some() {
            continue;
        }
        match pull(&mut eval_conn) {
            Ok((version, params)) => {
                let loss = bundle.eval.loss_of(&params);
                watch.observe(started.elapsed().as_secs_f64(), version, loss);
            }
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_before;
    let peak_rss_mb = sys::peak_rss_mb();

    // Already raised unless the loop above gave up early.
    stop.store(true, Ordering::SeqCst);
    let mut workers = Vec::new();
    let mut live_transports = Vec::new();
    for thread in worker_threads {
        let (outcome, stats, transport) = thread.join().expect("worker thread");
        workers.push((outcome, stats));
        live_transports.push(transport);
    }
    let scheduler = scheduler.join().expect("scheduler thread");
    let (final_version, final_loss) = match pull(&mut eval_conn) {
        Ok((version, params)) => (version, bundle.eval.loss_of(&params)),
        Err(e) => {
            problems.push(e);
            (0, f64::NAN)
        }
    };
    drop(eval_conn);
    drop(live_transports);
    let shards = pair.stop();

    let mut trained = Trained {
        setup_s,
        elapsed_s,
        cpu_s,
        peak_rss_mb,
        latch: watch.latch,
        final_loss,
        final_version,
        scheduler,
        workers,
        shards,
        problems,
    };
    check(shape, relay, &mut trained);
    trained
}

/// The output checks of a training run.
fn check(shape: &Shape, relay: Relay, t: &mut Trained) {
    let mut problems = std::mem::take(&mut t.problems);
    let pushes = t.pushes();
    let slack = WORKERS as u64;
    let mut near = |what: &str, got: u64, want: u64| {
        if got.abs_diff(want) > slack {
            problems.push(format!("{what} is {got}, workers were acked {want}"));
        }
    };
    // A push in flight per worker when the scheduler ended the run is
    // acked after the servers took their final counts, hence the slack.
    near("scheduler total_pushes", t.scheduler.total_pushes, pushes);
    near(
        "primary pushes_applied",
        t.shards.primary.pushes_applied,
        pushes,
    );
    if let Some(backup) = &t.shards.backup {
        near("primary relayed", t.shards.primary.relayed, pushes);
        near("backup version", backup.version, pushes);
    }
    if relay == Relay::Off && t.shards.primary.relayed != 0 {
        problems.push(format!(
            "{} pushes relayed with no backup",
            t.shards.primary.relayed
        ));
    }
    if t.final_version != pushes {
        problems.push(format!(
            "final version {}, acked pushes {pushes}",
            t.final_version
        ));
    }
    if !t.scheduler.completed {
        problems.push("the scheduler hit its time limit before the push budget".to_string());
    }
    if t.scheduler.promotions != 0 || t.scheduler.workers_marked_dead != 0 {
        problems.push(format!(
            "{} promotions, {} workers marked dead",
            t.scheduler.promotions, t.scheduler.workers_marked_dead
        ));
    }
    if t.latch.is_none() {
        problems.push(format!(
            "loss never held {} within {pushes} pushes",
            shape.target_loss
        ));
    }
    // NaN (the final pull failed) must fail this check too.
    if t.final_loss.is_nan() || t.final_loss > shape.target_loss {
        problems.push(format!(
            "final loss {} above {}",
            t.final_loss, shape.target_loss
        ));
    }
    if matches!(shape.scheme, SchemeKind::Asp)
        && (t.aborts() != 0 || t.scheduler.aborts_issued != 0)
    {
        problems.push("ASP run aborted iterations".to_string());
    }
    for (i, (_, stats)) in t.workers.iter().enumerate() {
        // The scheduler ends the run and closes first, so a worker's last
        // notify may find its link reset; anything more is a fault.
        if stats.conn_resets > 1 || stats.circuit_opens != 0 || stats.retries_exhausted != 0 {
            problems.push(format!("worker {i} transport degraded: {stats:?}"));
        }
    }
    t.problems = problems;
}

/// Sets a rig up and tears it down without training: one more `setup_s`
/// sample. The rig is ended the way a run ends, by the scheduler reaching
/// its push target — one push, here, sent and notified by worker 0. Its
/// ack also says both shards are up: they register with the scheduler
/// before they serve, and must have before the scheduler may go.
fn sample_setup(shape: &Shape) -> f64 {
    let workload = Workload::matrix_factorization();
    let begun = Instant::now();
    let mut rig = set_up(shape, &workload, 1, Relay::On, &Sinks::untraced());
    let setup_s = begun.elapsed().as_secs_f64();
    let worker = WorkerId::new(0);
    let push = WireMessage::Push {
        worker,
        payload: PushPayload::Dense(vec![0.0; workload.scaled_num_params()]),
    };
    let notify = WireMessage::Notify { worker, pushes: 1 };
    rig.transports[0]
        .send(Endpoint::Shard, push)
        .expect("the one push");
    rig.transports[0]
        .send(Endpoint::Scheduler, notify)
        .expect("notify the scheduler");
    rig.scheduler.join().expect("scheduler thread");
    drop(rig.transports);
    drop(rig.eval_conn);
    rig.pair.stop();
    setup_s
}

/// The timed run: training runs back to back, each on its own sampler
/// seeds, until `seconds` have gone by and at least three are done; the
/// metrics are medians over the runs, or totals where they are ratios.
pub fn end_to_end(shape: &Shape, seed: u64, seconds: f64) -> Report {
    let guard = MemoryGuard::start();
    let sinks = Sinks::untraced();
    let begun = Instant::now();
    let mut runs: Vec<Trained> = Vec::new();
    let mut iterations = Vec::new();
    while runs.len() < 3 || begun.elapsed().as_secs_f64() < seconds {
        let round_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ runs.len() as u64;
        runs.push(train(shape, round_seed, Relay::On, &sinks, &guard));
        iterations
            .extend(layers::worker_phases(&sinks.harness.take(), WORKERS, begun).iteration_ms);
    }
    let mut setups: Vec<f64> = runs.iter().map(|t| t.setup_s).collect();
    crate::sample_setups(&mut setups, || sample_setup(shape));

    let mut report = Report::default();
    let pushes: u64 = runs.iter().map(Trained::pushes).sum();
    let aborts: u64 = runs.iter().map(Trained::aborts).sum();
    report.attempted = pushes + aborts;
    for (i, t) in runs.iter().enumerate() {
        report
            .problems
            .extend(t.problems.iter().map(|p| format!("run {i}: {p}")));
    }
    let latches: Vec<f64> = runs
        .iter()
        .filter_map(|t| t.latch.map(|l| l.at_s))
        .collect();
    if latches.len() != runs.len() || pushes == 0 || iterations.is_empty() {
        report
            .problems
            .push("a run without push, iteration or latch".to_string());
        return report;
    }
    let rates: Vec<f64> = runs
        .iter()
        .map(|t| t.pushes() as f64 / t.elapsed_s)
        .collect();
    let cpu_s: f64 = runs.iter().map(|t| t.cpu_s).sum();
    report.metric("setup_s", stats::median(&setups));
    report.metric("ops_per_s", stats::median(&rates));
    report.metric("op_p50_ms", stats::median(&iterations));
    // After the first run: what later runs and set-up samples add to it
    // is this process repeating itself, not the system's footprint.
    report.metric("peak_rss_mb", runs[0].peak_rss_mb);
    report.metric("cpu_ms_per_op", cpu_s * 1e3 / pushes as f64);
    report.metric("time_to_target_s", stats::median(&latches));
    report.metric("useful_share", pushes as f64 / (pushes + aborts) as f64);
    report
}

/// The traced run: one training run with tracing off, one with workers,
/// transports and scheduler recording into one sink, one traced without
/// the backup relay; then the path replay at the model's size and the
/// scheduler-core replay of the traced timeline.
pub fn per_layer(shape: &Shape, seed: u64) -> Report {
    let workload = Workload::matrix_factorization();
    let synthetic = Inputs::generate(workload.scaled_num_params(), Gradient::Dense, seed);
    // First, while the heap is fresh: it reads the growth of `VmRSS`.
    let journal_mb = layers::journal_mb_per_entry(
        &synthetic.initial,
        synthetic.momentum,
        synthetic.push.as_ref(),
    );
    let guard = MemoryGuard::start();
    let origin = Instant::now();
    let plain = train(shape, seed, Relay::On, &Sinks::untraced(), &guard);
    let sinks = Sinks::traced();
    let traced = train(shape, seed ^ 1, Relay::On, &sinks, &guard);
    let events = sinks.harness.take();
    let unrelayed = train(shape, seed ^ 2, Relay::Off, &sinks, &guard);
    let unrelayed_phases = layers::worker_phases(&sinks.harness.take(), WORKERS, origin);

    let profile = layers::profile(
        &synthetic.initial,
        synthetic.momentum,
        true,
        synthetic.push.as_ref(),
        origin,
        Duration::from_millis(500),
    );
    let phases = layers::worker_phases(&events, WORKERS, origin);
    let sched = layers::scheduler_cost(&events, shape.scheme, WORKERS);
    let (gradient_us, eval_loss_ms) = layers::model_costs(&workload, WORKERS, DATA_SEED);

    let mut report = Report::default();
    for (name, t) in [
        ("untraced", &plain),
        ("traced", &traced),
        ("unrelayed", &unrelayed),
    ] {
        report.attempted += t.pushes() + t.aborts();
        report
            .problems
            .extend(t.problems.iter().map(|p| format!("{name} run: {p}")));
    }
    let (pushes, aborts) = (traced.pushes(), traced.aborts());
    let Some(latch) = traced.latch else {
        return report;
    };
    if phases.iteration_ms.is_empty() || unrelayed_phases.iteration_ms.is_empty() || pushes == 0 {
        report
            .problems
            .push("a traced run without an iteration".to_string());
        return report;
    }

    let p50 = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            stats::median(samples)
        }
    };
    let iteration = p50(&phases.iteration_ms);
    let pad_ms = COMPUTE_PAD.as_secs_f64() * 1e3;
    let latencies = stats::sorted(phases.iteration_ms.clone());
    report.metric("load.samples", latencies.len() as f64);
    if let Some(pct) = stats::tail_percentile(latencies.len()) {
        report.metric("load.op_tail_pct", pct);
        report.metric("load.op_tail_ms", stats::percentile(&latencies, pct));
    }
    report.metric(
        "load.cpu_busy_share",
        traced.cpu_s / (traced.elapsed_s * sys::nproc() as f64),
    );
    for (name, value) in &profile.metrics {
        report.metric(name, *value);
    }
    report.metric("ml.gradient_us", gradient_us);
    report.metric("ml.eval_loss_ms", eval_loss_ms);
    report.metric("ps.replica.journal_mb_per_entry", journal_mb);
    let wire_bytes: u64 = events
        .iter()
        .map(|(_, e)| match e {
            Event::FrameSent { bytes, .. } | Event::FrameReceived { bytes, .. } => *bytes,
            _ => 0,
        })
        .sum();
    report.metric(
        "net.frame.wire_bytes_per_op",
        (wire_bytes + profile.relay_bytes_per_push * pushes) as f64 / pushes as f64,
    );
    report.metric("net.transport.rtt_floor_us", layers::rtt_floor_us());
    let resets: u64 = traced.workers.iter().map(|(_, s)| s.conn_resets).sum();
    let retries: u64 = traced.workers.iter().map(|(_, s)| s.conn_retries).sum();
    report.metric("net.transport.conn_retries", retries as f64);
    report.metric("net.transport.conn_resets", resets as f64);
    report.metric(
        "net.server.relay_ms",
        iteration - p50(&unrelayed_phases.iteration_ms),
    );
    report.metric(
        "net.server.residual_ms",
        iteration - pad_ms - gradient_us / 1e3 - profile.path_ms,
    );
    report.metric(
        "net.server.pulls_served",
        traced.shards.primary.pulls_served as f64,
    );
    report.metric(
        "net.server.pushes_applied",
        traced.shards.primary.pushes_applied as f64,
    );
    report.metric("net.server.relayed", traced.shards.primary.relayed as f64);
    report.metric("core.scheduler.on_pull_ns", sched.on_pull_ns);
    report.metric("core.scheduler.on_notify_ns", sched.on_notify_ns);
    report.metric("core.scheduler.on_check_ns", sched.on_check_ns);
    report.metric(
        "core.scheduler.on_epoch_complete_us",
        sched.on_epoch_complete_us,
    );
    report.metric(
        "core.scheduler.aborts_issued",
        traced.scheduler.aborts_issued as f64,
    );
    if traced.scheduler.aborts_issued > 0 {
        report.metric(
            "core.scheduler.abort_honoured_share",
            aborts as f64 / traced.scheduler.aborts_issued as f64,
        );
    }
    let tuned = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::EpochTuned { .. }))
        .count();
    report.metric("core.scheduler.epochs_tuned", tuned as f64);
    report.metric("core.history.approx_bytes", sched.history_bytes);
    report.metric("runtime.worker.iteration_ms_p50", iteration);
    report.metric("runtime.worker.pull_ms_p50", p50(&phases.pull_ms));
    report.metric("runtime.worker.compute_ms_p50", p50(&phases.compute_ms));
    report.metric("runtime.worker.push_ms_p50", p50(&phases.push_ms));
    report.metric("runtime.worker.overhead_share", 1.0 - pad_ms / iteration);
    report.metric(
        "runtime.worker.wasted_compute_share",
        phases.wasted_s / phases.compute_s,
    );
    report.metric("train.pushes_to_loss", latch.version as f64);
    report.metric(
        "train.abort_share",
        aborts as f64 / (pushes + aborts) as f64,
    );
    report.metric("train.final_loss", traced.final_loss);
    report.spans = phases.spans;
    report.spans.extend(layers::instant_spans(&events, origin));
    report.spans.extend(profile.spans);
    report.metric("trace.spans", report.spans.len() as f64);
    report.metric(
        "trace.overhead_share",
        1.0 - (pushes as f64 / traced.elapsed_s) / (plain.pushes() as f64 / plain.elapsed_s),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_latches_on_the_fifth_evaluation_in_a_row_and_stays() {
        let mut watch = TargetWatch::new(0.10);
        let losses = [
            0.5, 0.09, 0.08, 0.11, 0.10, 0.09, 0.09, 0.09, 0.09, 0.05, 0.2,
        ];
        for (i, loss) in losses.iter().enumerate() {
            watch.observe(i as f64 * 0.02, 100 * i as u64, *loss);
            // The streak restarts after 0.11; 0.10 counts (at or below).
            let want = (i >= 8).then_some(Latch {
                at_s: 8.0 * 0.02,
                version: 800,
            });
            assert_eq!(watch.latch, want, "after evaluation {i}");
        }
    }
}
