//! The saturating workloads: a few closed-loop clients, each waiting for
//! its reply before sending again, against a primary + warm-backup pair.
//! Requests are built once and reused, so the generator allocates nothing
//! per operation beyond what the codec itself allocates.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use specsync_net::{encode_frame, ConnSeq, FrameConn, ShardHost, WireMessage};
use specsync_simnet::WorkerId;

use crate::cluster::{self, PairStats, ShardPair};
use crate::inputs::{Gradient, Inputs};
use crate::layers;
use crate::stats;
use crate::sys::{self, MemoryGuard};
use crate::trace::{Span, SpanLog};
use crate::Report;

/// Un-timed operations each client performs before a window opens.
pub const WARMUP_OPS: usize = 3;

/// What one saturating workload does.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub dim: usize,
    pub clients: usize,
    /// Whether an operation starts with a `Pull`.
    pub pulls: bool,
    /// What an operation pushes after that, if anything.
    pub gradient: Gradient,
    /// `time_to_target_s` is the time until this many operations a second
    /// of the window's length are done. A window stays open past its
    /// deadline until they are.
    pub target_rate: f64,
}

impl Shape {
    fn target_ops(&self, seconds: f64) -> usize {
        (self.target_rate * seconds).ceil().max(1.0) as usize
    }
}

/// One client connection and what it has been acked over its lifetime —
/// warm-up included, because that is what the servers count.
pub struct Client {
    conn: FrameConn,
    script: Vec<WireMessage>,
    dim: usize,
    pub pulls: u64,
    pub pushes: u64,
    last_pull_version: Option<u64>,
}

/// What one client did inside one window.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub pulls: u64,
    /// Pull replies carrying the version of the client's previous one:
    /// served from the shard's encoded-reply cache.
    pub repeat_version_pulls: u64,
    pub wire_bytes: u64,
    /// Per completed operation: latency, and completion time since the
    /// window opened.
    pub latency_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    pub error: Option<String>,
}

impl Client {
    fn new(conn: FrameConn, index: usize, shape: &Shape, inputs: &Inputs) -> Client {
        let worker = WorkerId::new(index);
        let mut script = Vec::new();
        if shape.pulls {
            script.push(WireMessage::Pull { worker });
        }
        if let Some(payload) = &inputs.push {
            script.push(WireMessage::Push {
                worker,
                payload: payload.clone(),
            });
        }
        Client {
            conn,
            script,
            dim: shape.dim,
            pulls: 0,
            pushes: 0,
            last_pull_version: None,
        }
    }

    /// One operation: every request of the script, each answered before
    /// the next is sent. With a span log the exchange is unrolled into
    /// encode / write / receive so each gets a span.
    fn operate(
        &mut self,
        tally: &mut Tally,
        mut log: Option<(&mut SpanLog, u64)>,
    ) -> Result<(), String> {
        for i in 0..self.script.len() {
            let (reply, bytes) = match log.as_mut() {
                None => {
                    let (reply, sent, received) = self
                        .conn
                        .exchange(&self.script[i])
                        .map_err(|e| format!("exchange: {e}"))?;
                    (reply, sent + received)
                }
                Some((log, op)) => {
                    let pull = matches!(self.script[i], WireMessage::Pull { .. });
                    let (encode, write, recv) = if pull {
                        ("pull.encode", "pull.write", "pull.recv")
                    } else {
                        ("push.encode", "push.write", "push.recv")
                    };
                    let root = Some(*op);
                    let frame = log
                        .time(encode, root, *op, || encode_frame(&self.script[i]))
                        .map_err(|e| format!("encode: {e}"))?;
                    let sent = log
                        .time(write, root, *op, || self.conn.write_encoded(&frame))
                        .map_err(|e| format!("write: {e}"))?;
                    let (reply, received) = log
                        .time(recv, root, *op, || self.conn.recv())
                        .map_err(|e| format!("recv: {e}"))?;
                    (reply, sent + received)
                }
            };
            tally.wire_bytes += bytes as u64;
            match (&self.script[i], reply) {
                (WireMessage::Pull { .. }, WireMessage::PullReply { version, params }) => {
                    if params.len() != self.dim {
                        return Err(format!("pull reply of {} parameters", params.len()));
                    }
                    if self.last_pull_version.is_some_and(|last| version < last) {
                        return Err(format!("pull reply went back to version {version}"));
                    }
                    if self.last_pull_version == Some(version) {
                        tally.repeat_version_pulls += 1;
                    }
                    self.last_pull_version = Some(version);
                    self.pulls += 1;
                    tally.pulls += 1;
                }
                (
                    WireMessage::Push { .. },
                    WireMessage::PushAck {
                        pushes_by_worker, ..
                    },
                ) => {
                    self.pushes += 1;
                    // Exactly-once apply, as the shard itself counts it.
                    if pushes_by_worker != self.pushes {
                        return Err(format!(
                            "shard counts {pushes_by_worker} pushes, client sent {}",
                            self.pushes
                        ));
                    }
                }
                (request, reply) => {
                    return Err(format!("wrong reply {reply:?} to {request:?}"));
                }
            }
        }
        Ok(())
    }

    /// Operations until the window closes, the abort flag, or the first
    /// failure.
    fn run_window(
        &mut self,
        window: &Open,
        abort: &AtomicBool,
        mut log: Option<SpanLog>,
    ) -> (Tally, Vec<Span>) {
        let mut tally = Tally::default();
        while window.is_open() && !abort.load(Ordering::Relaxed) {
            tally.attempted += 1;
            let start = Instant::now();
            let result = match log.as_mut() {
                None => self.operate(&mut tally, None),
                Some(log) => {
                    let op = log.next_id();
                    let begun = log.now_ns();
                    let result = self.operate(&mut tally, Some((log, op)));
                    let root = Span {
                        id: op,
                        name: "op",
                        start_ns: begun,
                        end_ns: log.now_ns(),
                        parent: None,
                        op_id: op,
                    };
                    log.spans.push(root);
                    result
                }
            };
            match result {
                Ok(()) => {
                    tally.latency_ns.push(start.elapsed().as_nanos() as u64);
                    tally
                        .done_ns
                        .push(window.opened.elapsed().as_nanos() as u64);
                    window.done.fetch_add(1, Ordering::Relaxed);
                }
                Err(error) => {
                    tally.failed += 1;
                    tally.error = Some(error);
                    break;
                }
            }
        }
        (tally, log.map_or_else(Vec::new, |l| l.spans))
    }
}

/// An open window: until its deadline, and past it until the clients
/// together have done the target operations (or a hard limit of three
/// times the window, so a stalled server cannot hold a run forever).
struct Open {
    opened: Instant,
    deadline: Instant,
    limit: Instant,
    target_ops: usize,
    done: AtomicUsize,
}

impl Open {
    fn is_open(&self) -> bool {
        let now = Instant::now();
        now < self.deadline
            || (self.done.load(Ordering::Relaxed) < self.target_ops && now < self.limit)
    }
}

/// Servers up, clients connected and warm.
pub struct Rig {
    pair: ShardPair,
    pub clients: Vec<Client>,
    relay: bool,
}

impl Rig {
    /// Bind, build the stores, connect, warm up. All of it is `setup_s`.
    pub fn set_up(inputs: &Inputs, shape: &Shape, relay: bool) -> Rig {
        let net = cluster::saturating_net();
        let host = || ShardHost::new(cluster::replicated(inputs.initial.clone(), inputs.momentum));
        let pair = ShardPair::start(host, &net, relay, None);
        let seq = ConnSeq::new();
        let mut clients: Vec<Client> = (0..shape.clients)
            .map(|i| {
                let conn = cluster::connect(&pair.primary_addr, &net, &seq, i);
                Client::new(conn, i, shape, inputs)
            })
            .collect();
        std::thread::scope(|scope| {
            for client in &mut clients {
                scope.spawn(move || {
                    let mut unused = Tally::default();
                    for _ in 0..WARMUP_OPS {
                        client
                            .operate(&mut unused, None)
                            .expect("warm-up operation");
                    }
                });
            }
        });
        Rig {
            pair,
            clients,
            relay,
        }
    }

    /// One measured window, held open until `target_ops` are done.
    /// `trace_origin` turns the span recording on.
    pub fn measure(
        &mut self,
        seconds: f64,
        target_ops: usize,
        abort: &AtomicBool,
        trace_origin: Option<Instant>,
    ) -> Window {
        let cpu_before = sys::cpu_seconds();
        let opened = Instant::now();
        let window = Open {
            opened,
            deadline: opened + Duration::from_secs_f64(seconds),
            limit: opened + Duration::from_secs_f64(3.0 * seconds),
            target_ops,
            done: AtomicUsize::new(0),
        };
        let window = &window;
        let results: Vec<(Tally, Vec<Span>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(lane, client)| {
                    let log = trace_origin.map(|origin| SpanLog::new(origin, lane as u32));
                    scope.spawn(move || client.run_window(window, abort, log))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed_s = opened.elapsed().as_secs_f64();
        let cpu_s = sys::cpu_seconds() - cpu_before;
        let (tallies, spans): (Vec<Tally>, Vec<Vec<Span>>) = results.into_iter().unzip();
        Window {
            elapsed_s,
            cpu_s,
            tallies,
            spans: spans.into_iter().flatten().collect(),
        }
    }

    /// Checks the program's outputs, then stops the servers. Every client
    /// pushed one payload, so the final parameters must equal a local
    /// replay of that many identical pushes bit for bit, and every counter
    /// the servers kept must equal the generator's.
    pub fn verify_and_stop(mut self, inputs: &Inputs) -> Checked {
        let mut problems = Vec::new();
        let pushes: u64 = self.clients.iter().map(|c| c.pushes).sum();
        let pulls: u64 = self.clients.iter().map(|c| c.pulls).sum::<u64>() + 1;

        let worker = WorkerId::new(0);
        match self.clients[0].conn.exchange(&WireMessage::Pull { worker }) {
            Ok((WireMessage::PullReply { version, params }, _, _)) => {
                if version != pushes {
                    problems.push(format!("final version {version}, acked pushes {pushes}"));
                }
                if *params != *replay(inputs, pushes) {
                    problems.push("final parameters differ from the local replay".to_string());
                }
            }
            other => problems.push(format!("final pull: {other:?}")),
        }

        self.clients.clear();
        let stats = self.pair.stop();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                problems.push(format!("{what} is {got}, generator counted {want}"));
            }
        };
        expect("primary version", stats.primary.version, pushes);
        expect(
            "primary pushes_applied",
            stats.primary.pushes_applied,
            pushes,
        );
        expect("primary pulls_served", stats.primary.pulls_served, pulls);
        expect(
            "primary relayed",
            stats.primary.relayed,
            if self.relay { pushes } else { 0 },
        );
        if let Some(backup) = &stats.backup {
            expect("backup version", backup.version, pushes);
            expect("backup pushes_applied", backup.pushes_applied, pushes);
        }
        Checked { problems, stats }
    }
}

/// The parameters a store holds after `pushes` applications of the
/// workload's one payload.
fn replay(inputs: &Inputs, pushes: u64) -> Vec<f32> {
    let mut store = cluster::store(inputs.initial.clone(), inputs.momentum);
    for _ in 0..pushes {
        let push = inputs.push.as_ref().expect("pushes imply a payload");
        cluster::apply_to_store(&mut store, push);
    }
    store.params().to_vec()
}

/// One window's measurements.
pub struct Window {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub tallies: Vec<Tally>,
    pub spans: Vec<Span>,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.tallies.iter().map(|t| t.latency_ns.len() as u64).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed).sum()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.elapsed_s
    }

    /// Latencies of all clients, ascending, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.tallies
                .iter()
                .flat_map(|t| t.latency_ns.iter().map(|&ns| ns as f64 / 1e6))
                .collect(),
        )
    }

    /// Seconds from the window opening until `n` operations were done.
    pub fn seconds_to_ops(&self, n: usize) -> Option<f64> {
        let mut done: Vec<u64> = self
            .tallies
            .iter()
            .flat_map(|t| t.done_ns.iter().copied())
            .collect();
        done.sort_unstable();
        done.get(n.checked_sub(1)?).map(|&ns| ns as f64 / 1e9)
    }

    pub fn errors(&self) -> impl Iterator<Item = &String> {
        self.tallies.iter().filter_map(|t| t.error.as_ref())
    }
}

/// The outcome of [`Rig::verify_and_stop`].
pub struct Checked {
    pub problems: Vec<String>,
    pub stats: PairStats,
}

/// The timed run: tracing off, one window, every end-to-end metric.
pub fn end_to_end(shape: &Shape, seed: u64, seconds: f64) -> Report {
    let inputs = Inputs::generate(shape.dim, shape.gradient, seed);
    let guard = MemoryGuard::start();
    let mut setups = Vec::new();

    let begun = Instant::now();
    let mut rig = Rig::set_up(&inputs, shape, true);
    setups.push(begun.elapsed().as_secs_f64());
    let target_ops = shape.target_ops(seconds);
    let window = rig.measure(seconds, target_ops, &guard.tripped, None);
    // Read before verification builds its replay store.
    let peak_rss_mb = sys::peak_rss_mb();
    let checked = rig.verify_and_stop(&inputs);

    // Further set-ups only sample `setup_s`; nothing is measured on them.
    crate::sample_setups(&mut setups, || {
        let begun = Instant::now();
        let rig = Rig::set_up(&inputs, shape, true);
        let setup_s = begun.elapsed().as_secs_f64();
        drop(rig.clients);
        rig.pair.stop();
        setup_s
    });

    let mut report = Report::default();
    report.problems.extend(checked.problems);
    report.problems.extend(window.errors().cloned());
    if guard.tripped.load(Ordering::SeqCst) {
        report
            .problems
            .push(format!("resident set passed {} MB", sys::RSS_LIMIT_MB));
    }
    report.attempted = window.attempted();
    report.failed = window.failed();
    let ops = window.ops();
    if ops == 0 {
        report.problems.push("no operation completed".to_string());
        return report;
    }
    let Some(time_to_target_s) = window.seconds_to_ops(target_ops) else {
        report.problems.push(format!(
            "{ops} operations in the window, the target is {target_ops}"
        ));
        return report;
    };
    let latencies = window.latencies_ms();
    report.metric("setup_s", stats::median(&setups));
    report.metric("ops_per_s", window.ops_per_s());
    report.metric("op_p50_ms", stats::percentile(&latencies, 50.0));
    report.metric("peak_rss_mb", peak_rss_mb);
    report.metric("cpu_ms_per_op", window.cpu_s * 1e3 / ops as f64);
    report.metric("time_to_target_s", time_to_target_s);
    report.metric("useful_share", ops as f64 / window.attempted() as f64);
    report
}

/// How long the path replay of a traced run may take.
const REPLAY_BUDGET: Duration = Duration::from_millis(2_500);

/// Per operation of a traced window, the summed duration in milliseconds
/// of its spans whose name ends in `suffix`; the median over operations.
fn median_per_op_ms(spans: &[Span], suffix: &str) -> f64 {
    let mut per_op: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for span in spans.iter().filter(|s| s.name.ends_with(suffix)) {
        *per_op.entry(span.op_id).or_default() += span.duration_ns() as f64 / 1e6;
    }
    if per_op.is_empty() {
        return 0.0;
    }
    stats::median(&per_op.into_values().collect::<Vec<_>>())
}

/// The traced run: three windows of a third of `seconds` each — tracing
/// off, tracing on, tracing on without the backup relay — then the path
/// replay. Every per-layer metric; the end-to-end ones are not reported
/// from here, tracing perturbs them.
pub fn per_layer(shape: &Shape, seed: u64, seconds: f64) -> Report {
    let inputs = Inputs::generate(shape.dim, shape.gradient, seed);
    // First, while the heap is fresh: it reads the growth of `VmRSS`.
    let journal_mb =
        layers::journal_mb_per_entry(&inputs.initial, inputs.momentum, inputs.push.as_ref());
    let guard = MemoryGuard::start();
    let origin = Instant::now();
    let third = seconds / 3.0;

    let mut rig = Rig::set_up(&inputs, shape, true);
    let plain = rig.measure(third, 0, &guard.tripped, None);
    let traced = rig.measure(third, 0, &guard.tripped, Some(origin));
    let checked = rig.verify_and_stop(&inputs);
    let mut bare = Rig::set_up(&inputs, shape, false);
    let unrelayed = bare.measure(third, 0, &guard.tripped, Some(origin));
    let bare_checked = bare.verify_and_stop(&inputs);
    let profile = layers::profile(
        &inputs.initial,
        inputs.momentum,
        shape.pulls,
        inputs.push.as_ref(),
        origin,
        REPLAY_BUDGET,
    );

    let mut report = Report::default();
    for window in [&plain, &traced, &unrelayed] {
        report.attempted += window.attempted();
        report.failed += window.failed();
        report.problems.extend(window.errors().cloned());
    }
    report.problems.extend(checked.problems);
    report.problems.extend(bare_checked.problems);
    if guard.tripped.load(Ordering::SeqCst) {
        report
            .problems
            .push(format!("resident set passed {} MB", sys::RSS_LIMIT_MB));
    }
    let ops = traced.ops();
    if ops == 0 || unrelayed.ops() == 0 || plain.ops() == 0 {
        report
            .problems
            .push("a window without a completed operation".to_string());
        return report;
    }

    let latencies = traced.latencies_ms();
    let p50 = stats::percentile(&latencies, 50.0);
    let p50_unrelayed = stats::percentile(&unrelayed.latencies_ms(), 50.0);
    report.metric("load.samples", ops as f64);
    if let Some(pct) = stats::tail_percentile(latencies.len()) {
        report.metric("load.op_tail_pct", pct);
        report.metric("load.op_tail_ms", stats::percentile(&latencies, pct));
    }
    report.metric(
        "load.cpu_busy_share",
        traced.cpu_s / (traced.elapsed_s * sys::nproc() as f64),
    );
    // What an operation spends outside encode, write and receive: the
    // generator's own reply checks and bookkeeping.
    let own = crate::trace::self_times_by_name(&traced.spans);
    report.metric("load.generator_self_ms", stats::median(&own["op"]) / 1e6);
    let pulls: u64 = traced.tallies.iter().map(|t| t.pulls).sum();
    if pulls > 0 {
        let repeats: u64 = traced.tallies.iter().map(|t| t.repeat_version_pulls).sum();
        report.metric("net.host.cache_hit_share", repeats as f64 / pulls as f64);
    }
    let pushes_per_op = u64::from(shape.gradient != Gradient::None);
    let client_bytes: u64 = traced.tallies.iter().map(|t| t.wire_bytes).sum();
    report.metric(
        "net.frame.wire_bytes_per_op",
        (client_bytes + profile.relay_bytes_per_push * pushes_per_op * ops) as f64 / ops as f64,
    );
    report.metric("net.transport.rtt_floor_us", layers::rtt_floor_us());
    report.metric(
        "net.transport.write_ms",
        median_per_op_ms(&traced.spans, ".write"),
    );
    report.metric(
        "net.transport.recv_ms",
        median_per_op_ms(&traced.spans, ".recv"),
    );
    report.metric("net.server.relay_ms", p50 - p50_unrelayed);
    report.metric("net.server.residual_ms", p50 - profile.path_ms);
    report.metric(
        "net.server.pulls_served",
        checked.stats.primary.pulls_served as f64,
    );
    report.metric(
        "net.server.pushes_applied",
        checked.stats.primary.pushes_applied as f64,
    );
    report.metric("net.server.relayed", checked.stats.primary.relayed as f64);
    for (name, value) in &profile.metrics {
        report.metric(name, *value);
    }
    report.metric("ps.replica.journal_mb_per_entry", journal_mb);
    report.metric(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / plain.ops_per_s(),
    );
    report.spans = traced.spans;
    report.spans.extend(unrelayed.spans);
    report.spans.extend(profile.spans);
    report.metric("trace.spans", report.spans.len() as f64);
    report
}
