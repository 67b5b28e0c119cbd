//! Per-layer measurements, all taken from outside the program: by timing
//! calls into its public functions and by replaying an operation's blocking
//! path, call by call in `server.rs` order, in one thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use specsync_core::Scheduler;
use specsync_ml::Workload;
use specsync_net::frame::fnv1a;
use specsync_net::{decode_frame, encode_frame, ConnSeq, ShardHost, ShardServer, WireMessage};
use specsync_ps::{ParameterStore, PushPayload, ReplicatedStore};
use specsync_simnet::{SimDuration, VirtualTime, WorkerId};
use specsync_sync::{SchemeKind, TuningMode};
use specsync_telemetry::{Event, WorkerPhase};

use crate::cluster::{self, JOURNAL_CAPACITY};
use crate::stats;
use crate::sys;
use crate::trace::{durations_by_name, Span, SpanLog};

/// Span ids of the replay thread start here, clear of the client lanes.
const REPLAY_LANE: u32 = 1 << 16;

/// Named values in nanoseconds, as the span tables hold them.
type Timings = std::collections::BTreeMap<&'static str, Vec<f64>>;

fn median_ns(timings: &Timings, name: &str) -> f64 {
    timings.get(name).map_or(0.0, |v| stats::median(v))
}

/// What the path replay found.
pub struct Profile {
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Sum of the replayed layer times on one operation's blocking path.
    pub path_ms: f64,
    /// Bytes one push puts on the relay link, both directions.
    pub relay_bytes_per_push: u64,
}

/// Replays the operation `pulls` + `push` describes until `budget` is spent
/// (at least five times), then times the layer functions the replay cannot
/// isolate. Every layer metric that does not apply reads 0.
pub fn profile(
    initial: &[f32],
    momentum: f32,
    pulls: bool,
    push: Option<&PushPayload>,
    origin: Instant,
    budget: Duration,
) -> Profile {
    let host = || ShardHost::new(cluster::replicated(initial.to_vec(), momentum));
    let (mut primary, mut backup) = (host(), host());
    let mut twin_replica = cluster::replicated(initial.to_vec(), momentum);
    let mut twin_store = cluster::store(initial.to_vec(), momentum);
    let worker = WorkerId::new(0);
    let push_msg = push.map(|payload| WireMessage::Push {
        worker,
        payload: payload.clone(),
    });
    let codec = |log: &mut SpanLog, op: u64, ack: WireMessage| {
        log.time("frame.ack_codec", Some(op), op, || {
            decode_frame(&encode_frame(&ack).expect("encode ack")).expect("decode ack")
        })
    };

    let mut log = SpanLog::new(origin, REPLAY_LANE);
    let mut relay_bytes_per_push = 0u64;
    let begun = Instant::now();
    let mut reps = 0usize;
    while reps < 5 || (begun.elapsed() < budget && reps < 2_000) {
        let op = log.next_id();
        let op_begun = log.now_ns();
        let root = Some(op);
        if pulls {
            // A pull misses the encoded-reply cache when the version moved:
            // on a fresh host, and after every push.
            if reps == 0 || push.is_some() {
                log.time("host.pull_miss", root, op, || {
                    primary.encoded_pull_reply(worker)
                })
                .expect("pull");
            }
            let (bytes, _) = log
                .time("host.pull_hit", root, op, || {
                    primary.encoded_pull_reply(worker)
                })
                .expect("pull");
            let reply = log.time("frame.decode_pull_reply", root, op, || decode_frame(&bytes));
            black_box(reply.expect("decode pull reply"));
        }
        if let Some(msg) = &push_msg {
            // Each buffer is dropped where the servers drop theirs, so the
            // allocator sees the live system's pattern of 17 MB blocks.
            let bytes = log
                .time("frame.encode_push", root, op, || encode_frame(msg))
                .expect("encode push");
            let frame = log
                .time("frame.decode_push", root, op, || decode_frame(&bytes))
                .expect("decode push");
            drop(bytes);
            let relay = log
                .time("host.tag_relay", root, op, || primary.tag_relay(&frame))
                .expect("a push is relayed");
            let relay_bytes = log
                .time("frame.encode_relay", root, op, || encode_frame(&relay))
                .expect("encode relay");
            drop(relay);
            let relayed = log
                .time("frame.decode_relay", root, op, || {
                    decode_frame(&relay_bytes)
                })
                .expect("decode relay");
            let relay_len = relay_bytes.len();
            drop(relay_bytes);
            let ack = log
                .time("backup.handle", root, op, || backup.handle(relayed))
                .expect("backup apply")
                .expect("relay ack");
            relay_bytes_per_push =
                (relay_len + encode_frame(&ack).expect("encode ack").len()) as u64;
            black_box(codec(&mut log, op, ack));
            let ack = log
                .time("primary.handle", root, op, || primary.handle(frame))
                .expect("primary apply")
                .expect("push ack");
            black_box(codec(&mut log, op, ack));
        }
        let ended = log.now_ns();
        log.spans.push(Span {
            id: op,
            name: "replay.op",
            start_ns: op_begun,
            end_ns: ended,
            parent: None,
            op_id: op,
        });
        // The same push on a bare replicated store and a bare store: what
        // `handle` spends below the host layer.
        if let Some(push) = push {
            log.time("replica.apply", None, op, || {
                cluster::apply_to_replica(&mut twin_replica, push)
            });
            log.time("store.apply", None, op, || {
                cluster::apply_to_store(&mut twin_store, push)
            });
        }
        reps += 1;
    }
    drop((primary, backup));

    let t = durations_by_name(&log.spans);
    let ms = |name: &str| median_ns(&t, name) / 1e6;
    let us = |name: &str| median_ns(&t, name) / 1e3;
    let path_ms = if push.is_some() {
        ms("host.pull_miss")
    } else {
        ms("host.pull_hit")
    } + ms("frame.decode_pull_reply")
        + ms("frame.encode_push")
        + ms("frame.decode_push")
        + ms("host.tag_relay")
        + ms("frame.encode_relay")
        + ms("frame.decode_relay")
        + ms("backup.handle")
        + ms("primary.handle")
        + 2.0 * ms("frame.ack_codec");

    let mut metrics = vec![
        (
            "net.frame.decode_pull_reply_ms",
            ms("frame.decode_pull_reply"),
        ),
        ("net.host.pull_hit_us", us("host.pull_hit")),
        ("net.host.pull_miss_ms", ms("host.pull_miss")),
        ("net.host.tag_relay_ms", ms("host.tag_relay")),
        (
            "net.host.handle_push_self_ms",
            (ms("primary.handle") - ms("replica.apply")).max(0.0),
        ),
    ];
    match push {
        Some(PushPayload::Dense(_)) => metrics.extend([
            ("ps.store.apply_dense_ms", ms("store.apply")),
            ("ps.replica.apply_dense_ms", ms("replica.apply")),
            ("net.frame.encode_push_dense_ms", ms("frame.encode_push")),
            ("net.frame.decode_push_dense_ms", ms("frame.decode_push")),
        ]),
        Some(PushPayload::Sparse(grad)) => metrics.extend([
            ("ps.store.apply_sparse_us", us("store.apply")),
            ("ps.replica.apply_sparse_ms", ms("replica.apply")),
            ("net.frame.encode_push_sparse_us", us("frame.encode_push")),
            ("net.frame.decode_push_sparse_ms", ms("frame.decode_push")),
            ("tensor.sparse_clone_ms", time_ns(5, || grad.clone()) / 1e6),
        ]),
        None => {}
    }
    metrics.extend(store_and_codec(&mut twin_store, &mut twin_replica, push));
    Profile {
        metrics,
        spans: log.spans,
        path_ms,
        relay_bytes_per_push,
    }
}

/// Median time of `f` in nanoseconds over `reps` calls.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let begun = Instant::now();
            black_box(f());
            begun.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Layer functions timed on their own: a cached pull, the pull-reply
/// encoder, the frame checksum, and the replicated store's backup
/// catch-up.
fn store_and_codec(
    store: &mut ParameterStore,
    replica: &mut ReplicatedStore,
    push: Option<&PushPayload>,
) -> Vec<(&'static str, f64)> {
    let worker = WorkerId::new(0);
    let reply = WireMessage::PullReply {
        version: store.version(),
        params: store.pull(worker).into_shared(),
    };
    let encoded = encode_frame(&reply).expect("encode pull reply");
    let reps = (64_000_000 / encoded.len()).clamp(3, 200);
    let checksum_ns = time_ns(reps, || fnv1a(&encoded));
    // Whatever the replay left in the journal, plus one entry if it left
    // none, so the catch-up always has work to time.
    if let (0, Some(push)) = (replica.journal_lag(), push) {
        cluster::apply_to_replica(replica, push);
    }
    let lag = replica.journal_lag();
    let begun = Instant::now();
    let synced = replica.sync_backup();
    let sync_ms_per_push = if lag == 0 {
        0.0
    } else {
        assert_eq!(synced as usize, lag, "sync_backup replays the whole lag");
        begun.elapsed().as_secs_f64() * 1e3 / lag as f64
    };
    vec![
        ("ps.store.pull_ns", time_ns(1_000, || store.pull(worker))),
        (
            "net.frame.encode_pull_reply_ms",
            time_ns(reps, || encode_frame(&reply)) / 1e6,
        ),
        (
            "net.frame.fnv1a_mb_per_s",
            encoded.len() as f64 / 1e6 / (checksum_ns / 1e9),
        ),
        ("ps.replica.sync_backup_ms_per_push", sync_ms_per_push),
    ]
}

/// Resident memory one journal entry pins, in MB: the growth of `VmRSS`
/// while a fresh replicated store's journal fills, per entry. Call it
/// before the process has freed anything large, or the allocator serves
/// the entries from memory it kept and nothing grows.
pub fn journal_mb_per_entry(initial: &[f32], momentum: f32, push: Option<&PushPayload>) -> f64 {
    let Some(push) = push else {
        return 0.0;
    };
    let mut replica = cluster::replicated(initial.to_vec(), momentum);
    // The first push also grows the store's momentum state; count from
    // the second.
    cluster::apply_to_replica(&mut replica, push);
    let before = sys::rss_mb();
    for _ in 1..JOURNAL_CAPACITY {
        cluster::apply_to_replica(&mut replica, push);
    }
    (sys::rss_mb() - before).max(0.0) / (JOURNAL_CAPACITY - 1) as f64
}

/// Round-trip time of a `Pull` against a one-parameter single shard
/// server: the socket and thread hand-off floor under every operation.
pub fn rtt_floor_us() -> f64 {
    let net = cluster::saturating_net();
    let host = ShardHost::new(cluster::replicated(vec![0.0], 0.0));
    let server = ShardServer::bind(0, "127.0.0.1:0", host, net.clone()).expect("bind shard");
    let addr = server.local_addr().to_string();
    let stop = server.stop_handle();
    let thread = std::thread::spawn(move || server.run().expect("shard server run"));
    let mut conn = cluster::connect(&addr, &net, &ConnSeq::new(), 0);
    let pull = WireMessage::Pull {
        worker: WorkerId::new(0),
    };
    for _ in 0..100 {
        conn.exchange(&pull).expect("floor warm-up");
    }
    let ns = time_ns(2_000, || conn.exchange(&pull).expect("floor exchange"));
    drop(conn);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    thread.join().expect("floor server thread");
    ns / 1e3
}

/// Gradient and evaluation cost of the model the training workloads
/// train: microseconds per `Model::gradient` on one batch, milliseconds
/// per `EvalSet::loss_of`.
pub fn model_costs(workload: &Workload, workers: usize, seed: u64) -> (f64, f64) {
    let mut bundle = workload.build(workers, seed);
    let model = &bundle.workers[0];
    let mut sampler = workload.sampler_for(model.as_ref(), 0, seed);
    let mut grad = vec![0.0f32; model.num_params()];
    let gradient_ns = time_ns(200, || {
        let batch = sampler.next_batch();
        model.gradient(&batch, &mut grad);
    });
    let params = model.params().to_vec();
    let eval_ns = time_ns(20, || bundle.eval.loss_of(&params));
    (gradient_ns / 1e3, eval_ns / 1e6)
}

/// Phase times of the worker harness, from the `WorkerState` and `Resync`
/// events it records.
#[derive(Default)]
pub struct WorkerPhases {
    pub iteration_ms: Vec<f64>,
    pub pull_ms: Vec<f64>,
    pub compute_ms: Vec<f64>,
    pub push_ms: Vec<f64>,
    /// All time spent computing, aborted spans included, and the part of
    /// it an abort threw away.
    pub compute_s: f64,
    pub wasted_s: f64,
    pub spans: Vec<Span>,
}

/// One worker's open phase and open iteration while its events are read.
struct Lane {
    log: SpanLog,
    phase: Option<(WorkerPhase, Duration)>,
    iteration: Option<(u64, Duration)>,
    pushed: bool,
}

/// Cuts each worker's event stream into iterations (from the `Pulling`
/// that follows a `Pushing` to the next such one, so an abort's re-pull
/// stays inside its iteration) and phases.
pub fn worker_phases(
    events: &[(Duration, Event)],
    workers: usize,
    origin: Instant,
) -> WorkerPhases {
    let mut out = WorkerPhases::default();
    let mut lanes: Vec<Lane> = (0..workers)
        .map(|w| Lane {
            log: SpanLog::new(origin, (1 << 17) + w as u32),
            phase: None,
            iteration: None,
            pushed: true,
        })
        .collect();
    let ns = |d: Duration| d.as_nanos() as u64;
    for (at, event) in events {
        match event {
            Event::WorkerState { worker, state } if worker.index() < workers => {
                let lane = &mut lanes[worker.index()];
                if let Some((phase, since)) = lane.phase.take() {
                    let took_ms = (*at - since).as_secs_f64() * 1e3;
                    let name = match phase {
                        WorkerPhase::Pulling => {
                            out.pull_ms.push(took_ms);
                            "worker.pull"
                        }
                        WorkerPhase::Computing => {
                            out.compute_s += took_ms / 1e3;
                            if *state == WorkerPhase::Pushing {
                                out.compute_ms.push(took_ms);
                            }
                            "worker.compute"
                        }
                        WorkerPhase::Pushing => {
                            out.push_ms.push(took_ms);
                            "worker.push"
                        }
                        WorkerPhase::Idle | WorkerPhase::Dead => "worker.idle",
                    };
                    let parent = lane.iteration.map(|(id, _)| id);
                    let id = lane.log.next_id();
                    lane.log.spans.push(Span {
                        id,
                        name,
                        start_ns: ns(since),
                        end_ns: ns(*at),
                        parent,
                        op_id: parent.unwrap_or(id),
                    });
                }
                match state {
                    WorkerPhase::Pushing => lane.pushed = true,
                    WorkerPhase::Pulling if lane.pushed => {
                        if let Some((id, since)) = lane.iteration.take() {
                            out.iteration_ms.push((*at - since).as_secs_f64() * 1e3);
                            lane.log.spans.push(Span {
                                id,
                                name: "worker.iteration",
                                start_ns: ns(since),
                                end_ns: ns(*at),
                                parent: None,
                                op_id: id,
                            });
                        }
                        lane.iteration = Some((lane.log.next_id(), *at));
                        lane.pushed = false;
                    }
                    _ => {}
                }
                lane.phase = Some((*state, *at));
            }
            Event::Resync { wasted, .. } => out.wasted_s += wasted.as_secs_f64(),
            _ => {}
        }
    }
    out.spans = lanes.into_iter().flat_map(|l| l.log.spans).collect();
    out
}

/// Instants the scheduler and the transports recorded, as zero-length
/// spans beside the worker spans.
pub fn instant_spans(events: &[(Duration, Event)], origin: Instant) -> Vec<Span> {
    let mut log = SpanLog::new(origin, 1 << 18);
    for (at, event) in events {
        let name = match event {
            Event::Notify { .. } => "sched.notify",
            Event::AbortIssued { .. } => "sched.abort_issued",
            Event::EpochTuned { .. } => "sched.epoch_tuned",
            Event::Resync { .. } => "worker.resync",
            Event::FrameSent { .. } => "transport.frame_sent",
            _ => continue,
        };
        let id = log.next_id();
        let at = at.as_nanos() as u64;
        log.spans.push(Span {
            id,
            name,
            start_ns: at,
            end_ns: at,
            parent: None,
            op_id: id,
        });
    }
    log.spans
}

/// Per-call cost of the scheduler core on a recorded run's timeline.
#[derive(Default)]
pub struct SchedulerCost {
    pub on_pull_ns: f64,
    pub on_notify_ns: f64,
    pub on_check_ns: f64,
    pub on_epoch_complete_us: f64,
    pub history_bytes: f64,
}

/// Replays the traced run's pulls and notifies, in time order, into a
/// fresh scheduler core, timing each call as `sched_sweep` does. Window
/// checks fire at the deadlines the replayed notifies return.
pub fn scheduler_cost(
    events: &[(Duration, Event)],
    scheme: SchemeKind,
    workers: usize,
) -> SchedulerCost {
    let tuning = match scheme {
        SchemeKind::SpecSync { tuning, .. } => tuning,
        _ => TuningMode::Fixed {
            abort_time: SimDuration::ZERO,
            abort_rate: f64::MAX,
        },
    };
    let mut core = Scheduler::new(workers, tuning);
    let mut timeline: Vec<(Duration, bool, WorkerId)> = events
        .iter()
        .filter_map(|(at, event)| match event {
            Event::WorkerState {
                worker,
                state: WorkerPhase::Pulling,
            } => Some((*at, false, *worker)),
            Event::Notify { worker } => Some((*at, true, *worker)),
            _ => None,
        })
        .collect();
    timeline.sort_by_key(|(at, ..)| *at);

    let mut timings = Timings::new();
    let mut timed = |name: &'static str, begun: Instant| {
        timings
            .entry(name)
            .or_default()
            .push(begun.elapsed().as_nanos() as f64);
    };
    let mut checks: BinaryHeap<Reverse<(VirtualTime, usize)>> = BinaryHeap::new();
    let mut notified = vec![0u64; workers];
    let mut epochs = 0u64;
    for (at, is_notify, worker) in timeline {
        let now = VirtualTime::from_micros(at.as_micros() as u64);
        while let Some(&Reverse((deadline, w))) = checks.peek() {
            if deadline > now {
                break;
            }
            checks.pop();
            let begun = Instant::now();
            black_box(core.on_check(WorkerId::new(w), deadline));
            timed("check", begun);
        }
        if !is_notify {
            let begun = Instant::now();
            core.on_pull(worker, now);
            timed("pull", begun);
            continue;
        }
        let begun = Instant::now();
        let deadline = core.on_notify(worker, now);
        timed("notify", begun);
        if let Some(deadline) = deadline {
            checks.push(Reverse((deadline, worker.index())));
        }
        notified[worker.index()] += 1;
        while notified.iter().min().is_some_and(|&min| min > epochs) {
            epochs += 1;
            let begun = Instant::now();
            black_box(core.on_epoch_complete(now));
            timed("epoch", begun);
        }
    }
    SchedulerCost {
        on_pull_ns: median_ns(&timings, "pull"),
        on_notify_ns: median_ns(&timings, "notify"),
        on_check_ns: median_ns(&timings, "check"),
        on_epoch_complete_us: median_ns(&timings, "epoch") / 1e3,
        history_bytes: core.history().approx_bytes() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(ms: u64, worker: usize, state: WorkerPhase) -> (Duration, Event) {
        (
            Duration::from_millis(ms),
            Event::WorkerState {
                worker: WorkerId::new(worker),
                state,
            },
        )
    }

    #[test]
    fn iterations_are_cut_at_the_pull_after_a_push_not_at_an_abort_repull() {
        let events = vec![
            state(0, 1, WorkerPhase::Pulling),
            state(1, 1, WorkerPhase::Computing),
            state(4, 1, WorkerPhase::Pulling), // abort: re-pull inside the iteration
            state(5, 1, WorkerPhase::Computing),
            state(10, 1, WorkerPhase::Pushing),
            state(12, 1, WorkerPhase::Pulling),
            state(13, 1, WorkerPhase::Computing),
            state(18, 1, WorkerPhase::Pushing),
            state(19, 1, WorkerPhase::Pulling),
        ];
        let phases = worker_phases(&events, 2, Instant::now());
        assert_eq!(phases.iteration_ms, vec![12.0, 7.0]);
        assert_eq!(phases.pull_ms, vec![1.0, 1.0, 1.0]);
        // Only a compute span that ends in a push is a completed one; the
        // aborted 3 ms still count as time spent computing.
        assert_eq!(phases.compute_ms, vec![5.0, 5.0]);
        assert!((phases.compute_s - 0.013).abs() < 1e-12);
        assert_eq!(phases.push_ms, vec![2.0, 1.0]);
        let iterations: Vec<&Span> = phases
            .spans
            .iter()
            .filter(|s| s.name == "worker.iteration")
            .collect();
        assert_eq!(iterations.len(), 2);
        let children = phases
            .spans
            .iter()
            .filter(|s| s.parent == Some(iterations[0].id))
            .count();
        assert_eq!(children, 5, "pull, compute, pull, compute, push");
    }

    #[test]
    fn scheduler_replay_times_every_call_kind_under_specsync_and_no_check_under_asp() {
        let mut events = Vec::new();
        for round in 0..40u64 {
            for w in 0..2usize {
                let t = round * 10 + w as u64;
                events.push(state(t, w, WorkerPhase::Pulling));
                events.push((
                    Duration::from_millis(t + 8),
                    Event::Notify {
                        worker: WorkerId::new(w),
                    },
                ));
            }
        }
        // Fixed hyperparameters, so that windows are armed from the first
        // notify on whatever the tuner would make of this timeline.
        let scheme = SchemeKind::specsync_fixed(SimDuration::from_micros(2_000), 0.1);
        let spec = scheduler_cost(&events, scheme, 2);
        assert!(spec.on_pull_ns > 0.0 && spec.on_notify_ns > 0.0);
        assert!(spec.on_check_ns > 0.0 && spec.on_epoch_complete_us > 0.0);
        assert!(spec.history_bytes > 0.0);
        let asp = scheduler_cost(&events, SchemeKind::Asp, 2);
        assert!(asp.on_notify_ns > 0.0);
        assert_eq!(asp.on_check_ns, 0.0, "a disabled scheduler arms no window");
    }
}
