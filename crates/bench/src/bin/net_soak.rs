//! The multi-process soak for the TCP wire: one scheduler, a primary +
//! warm-backup shard pair and four workers, each an OS process on
//! loopback sockets, driven through a table of failure scenarios
//! (DESIGN.md §16–§18). Every row must still reach its push target with
//! all four workers terminating and reporting — the structural witness
//! that every retry loop is bounded.
//!
//! * `kill-rejoin`         — the serving primary is SIGKILLed three
//!   successive times under a [`specsync_bench::supervise::Supervisor`].
//!   Each kill must promote the warm backup; the supervisor then spawns
//!   a *fresh* shard that re-provisions itself from the new primary over
//!   the wire (`--join`), and only once the scheduler confirms the
//!   catch-up does the next kill fire, so every promotion targets a
//!   rejoined backup. Three promotions, restarts and catch-ups, and zero
//!   lost pushes: the final primary *and* the final backup hold every
//!   push the scheduler was notified of.
//! * `partition-primary`   — the primary's links all go half-open at
//!   T=400ms (writes vanish, reads hang): exactly one promotion, on
//!   heartbeat silence, and the workers ride it out through the
//!   transport's retry rule (back off, ask the scheduler for the primary,
//!   move only to a newer one).
//! * `partition-scheduler` — every worker's control-plane link resets
//!   mid-stream and the next two reconnects are refused: workers enter
//!   degraded mode, keep training, and resync their cumulative counters
//!   on reconnection. Zero promotions.
//! * `flaky-links`         — worker data-plane writes reset with p=5%:
//!   the run completes anyway. Zero promotions.
//!
//! Faults are deterministic per seed (see `specsync_net::chaos`); the
//! checks in [`violations`] are on scenario *outcomes*, which the fault
//! scripts and the event-sequenced kills pin down regardless of
//! scheduling.
//!
//! * `net_soak`                 — every scenario, prints one row each
//! * `net_soak --quick`         — smaller push targets (CI scale)
//! * `net_soak --scenario NAME` — one scenario by name
//!
//! With `--role` the binary is one process of the topology. The
//! orchestrator re-spawns itself (`current_exe()`) once per role and
//! sequences on each child's `LISTENING <addr>` / `EVENT` / `STATS`
//! stdout lines; the same invocations work by hand across terminals
//! (`--chaos SPEC` is the `NetChaos::to_spec` grammar):
//!
//! * `net_soak --role scheduler --workers 4 --pushes 2000`
//! * `net_soak --role shard --id 1 --sched ADDR --backup`
//! * `net_soak --role shard --id 0 --sched ADDR --relay BACKUP_ADDR [--chaos SPEC]`
//! * `net_soak --role shard --id 2 --sched ADDR --backup --join PRIMARY_ADDR`
//! * `net_soak --role worker --id 0 --workers 4 --shard ADDR --sched ADDR [--chaos SPEC]`

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use specsync_bench::supervise::{RestartPolicy, Supervisor};
use specsync_ml::Workload;
use specsync_net::{
    ChaosScope, NetChaos, NetConfig, SchedulerConfig, SchedulerServer, ShardHost, ShardServer,
    TcpTransport,
};
use specsync_ps::ParameterStore;
use specsync_runtime::{ClockSource, WallClock, WorkerHarness};
use specsync_simnet::WorkerId;
use specsync_sync::SchemeKind;
use specsync_telemetry::{Event, EventSink, NullSink};

/// Worker processes per scenario.
const WORKERS: usize = 4;
/// Successive primary kills in `kill-rejoin`.
const KILLS: u32 = 3;
/// Deterministic workload seed shared by every process.
const SEED: u64 = 31;
/// Hard budget for one scenario (the scheduler enforces its own 90s).
const SCENARIO_BUDGET: Duration = Duration::from_secs(120);
/// Budget for one awaited stdout line (a promotion, a catch-up).
const STEP_BUDGET: Duration = Duration::from_secs(20);
/// How long the other roles get to print their STATS line once the
/// scheduler has exited; a partitioned role that never hears the
/// shutdown broadcast is killed when it runs out.
const DRAIN_GRACE: Duration = Duration::from_secs(15);

/// Wire knobs: fast failure detection, a short I/O timeout so half-open
/// silence is noticed quickly, a retry budget that outlasts a promotion
/// (18 failed exchanges on a 20 ms backoff), and a join
/// chunk size small enough that every snapshot transfer crosses several
/// frames.
fn net_config(chaos: NetChaos) -> NetConfig {
    NetConfig::builder()
        .heartbeat_interval(Duration::from_millis(25))
        .heartbeat_timeout(Duration::from_millis(400))
        .io_timeout(Duration::from_secs(1))
        .connect_retries(18)
        .retry_backoff(Duration::from_millis(20))
        .join_chunk_bytes(4096)
        .chaos(chaos)
        .try_build()
        .expect("valid soak net configuration")
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], flag: &str) -> String {
    arg_value(args, flag).unwrap_or_else(|| panic!("missing required flag {flag}"))
}

/// The role's fault script from `--chaos SPEC`, or none when absent.
fn arg_chaos(args: &[String]) -> NetChaos {
    let spec = arg_value(args, "--chaos");
    spec.map_or_else(NetChaos::disabled, |s| {
        NetChaos::from_spec(&s).expect("--chaos spec")
    })
}

/// Prints a line and flushes immediately: the orchestrator reads child
/// stdout line-by-line for coordination, so buffering would hang it.
fn emit(line: &str) {
    println!("{line}");
    std::io::stdout().flush().ok();
}

/// Forwards the failover-plane events the orchestrator sequences on as
/// flushed `EVENT <tag> ...` stdout lines. Everything else (pushes,
/// notifies, tuning) stays off the coordination channel.
#[derive(Debug)]
struct EventLines;

impl EventSink<Duration> for EventLines {
    fn record(&self, _at: Duration, event: &Event) {
        let line = match event {
            Event::ShardFailover { shard, .. } => format!("EVENT shard_failover shard={shard}"),
            Event::BackupJoined { shard, .. } => format!("EVENT backup_joined shard={shard}"),
            Event::CatchUpComplete { shard, version } => {
                format!("EVENT catchup_complete shard={shard} version={version}")
            }
            Event::ProcessRestarted { shard, attempt } => {
                format!("EVENT process_restarted shard={shard} attempt={attempt}")
            }
            _ => return,
        };
        emit(&line);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match arg_value(&args, "--role").as_deref() {
        None => orchestrate(&args),
        Some("scheduler") => run_scheduler(&args),
        Some("shard") => run_shard(&args),
        Some("worker") => run_worker(&args),
        Some(other) => panic!("unknown role {other:?}"),
    }
}

// ---------------------------------------------------------------- roles

fn run_scheduler(args: &[String]) {
    let workers: usize = required(args, "--workers").parse().expect("--workers");
    let pushes: u64 = required(args, "--pushes").parse().expect("--pushes");
    let server = SchedulerServer::bind(
        "127.0.0.1:0",
        SchedulerConfig {
            scheme: SchemeKind::specsync_adaptive(),
            workers,
            net: net_config(NetChaos::disabled()),
            stop_after_pushes: Some(pushes),
            max_duration: Duration::from_secs(90),
        },
    )
    .expect("bind scheduler")
    .with_sink(Arc::new(EventLines));
    emit(&format!("LISTENING {}", server.local_addr()));
    let stats = server.run().expect("scheduler run");
    emit(&format!(
        "STATS promotions={} completed={} total_pushes={} aborts={} dead_workers={} rejoins={}",
        stats.promotions,
        stats.completed,
        stats.total_pushes,
        stats.aborts_issued,
        stats.workers_marked_dead,
        stats.rejoins,
    ));
}

fn run_shard(args: &[String]) {
    let id: u64 = required(args, "--id").parse().expect("--id");
    let sched = required(args, "--sched");

    // Every process derives the identical initial parameter block from
    // the same deterministic workload build.
    let workload = Workload::tiny_test();
    let bundle = workload.build(WORKERS, SEED);
    let initial = bundle.workers[0].params().to_vec();
    let host = ShardHost::new(ParameterStore::new(initial, 8)).with_workers(WORKERS);

    let mut server = ShardServer::bind(id, "127.0.0.1:0", host, net_config(arg_chaos(args)))
        .expect("bind shard");
    if args.iter().any(|a| a == "--backup") {
        server = server.as_backup();
    }
    if let Some(addr) = arg_value(args, "--relay") {
        server = server.with_backup_relay(&addr);
    }
    if let Some(addr) = arg_value(args, "--join") {
        server = server.join_via(&addr);
    }
    server = server.with_scheduler(&sched);
    emit(&format!("LISTENING {}", server.local_addr()));
    let stats = server.run().expect("shard run");
    emit(&format!(
        "STATS shard={} pulls={} pushes={} relayed={} relay_drops={} serving={} version={}",
        id,
        stats.pulls_served,
        stats.pushes_applied,
        stats.relayed,
        stats.relay_drops,
        stats.serving,
        stats.version,
    ));
}

fn run_worker(args: &[String]) {
    let id: usize = required(args, "--id").parse().expect("--id");
    let workers: usize = required(args, "--workers").parse().expect("--workers");
    let shard = required(args, "--shard");
    let sched = required(args, "--sched");

    let workload = Workload::tiny_test();
    let mut bundle = workload.build(workers, SEED);
    let model = bundle.workers.swap_remove(id);
    let sampler = workload.sampler_for(model.as_ref(), id, SEED ^ 0x5EED);

    let worker = WorkerId::new(id);
    let sink = Arc::new(NullSink);
    let config = net_config(arg_chaos(args));
    let mut transport = TcpTransport::connect(worker, &shard, &sched, config, sink.clone())
        .expect("worker connect");
    let clock: Arc<dyn ClockSource> = Arc::new(WallClock::new());
    let harness = WorkerHarness {
        worker,
        model,
        sampler,
        compute_pad: Duration::from_millis(5),
        abort_poll: Duration::from_millis(1),
        heartbeat_interval: Duration::from_millis(25),
        mute_after: None,
        drop_notify_every: None,
        clock: Arc::clone(&clock),
        sink,
        run_start: clock.now(),
        stop: Arc::new(AtomicBool::new(false)),
    };
    let outcome = harness.run(&mut transport);
    let stats = transport.stats();
    emit(&format!(
        "STATS worker={} pushes={} aborts={} conn_retries={} conn_resets={} \
         retries_exhausted={} degraded_entries={} degraded_exits={}",
        id,
        outcome.pushes,
        outcome.aborts,
        stats.conn_retries,
        stats.conn_resets,
        stats.retries_exhausted,
        stats.degraded_entries,
        stats.degraded_exits,
    ));
}

// ------------------------------------------------------- scenario table

/// What a finished scenario must show, on top of the checks every row
/// shares (see [`violations`]).
#[derive(Default)]
struct Expect {
    /// Promotions the scheduler must report — exactly.
    promotions: u64,
    /// The original warm backup must end the run serving: a fault, not
    /// an orchestrated kill, took its primary away.
    backup_serving: bool,
    /// Zero lost pushes across the replica chain: the last-promoted
    /// shard ends serving, the last rejoiner ends warm, and both hold
    /// every push the scheduler was notified of.
    zero_loss: bool,
    /// Lost connections the workers must observe, summed.
    min_conn_resets: u64,
    /// Degraded-mode entries, and exits, the workers must log, summed.
    min_degraded: u64,
}

/// One row of the soak: who gets which fault script, how often the
/// serving primary is SIGKILLed, how far the run must get, and what the
/// outcome must look like.
struct Scenario {
    name: &'static str,
    /// Faults injected into the initial primary shard process.
    primary_chaos: Option<NetChaos>,
    /// Faults injected into every worker process.
    worker_chaos: Option<NetChaos>,
    /// Supervised SIGKILLs of the serving primary, each sequenced on the
    /// previous rejoin's completed catch-up.
    kills: u32,
    /// Notified pushes at which the scheduler declares the run done;
    /// large enough that the kill/rejoin cycles finish first.
    push_target: u64,
    /// The same at `--quick` (CI) scale.
    quick_push_target: u64,
    expect: Expect,
}

impl Scenario {
    /// A row with no faults, no kills and nothing expected beyond the
    /// shared checks; the table states each row's differences from it.
    fn undisturbed(name: &'static str) -> Scenario {
        Scenario {
            name,
            primary_chaos: None,
            worker_chaos: None,
            kills: 0,
            push_target: 1_200,
            quick_push_target: 400,
            expect: Expect::default(),
        }
    }
}

/// The scenario table. Fault seeds are arbitrary but pinned: the fault
/// scripts — which write resets, which reconnect is refused — are pure
/// functions of them.
fn table() -> Vec<Scenario> {
    vec![
        Scenario {
            kills: KILLS,
            push_target: 6_000,
            quick_push_target: 2_500,
            expect: Expect {
                promotions: u64::from(KILLS),
                zero_loss: true,
                ..Expect::default()
            },
            ..Scenario::undisturbed("kill-rejoin")
        },
        Scenario {
            primary_chaos: Some(NetChaos {
                seed: 9001,
                scope: ChaosScope::All,
                half_open_after: Some(0),
                after_ms: 400,
                ..NetChaos::disabled()
            }),
            expect: Expect {
                promotions: 1,
                backup_serving: true,
                min_conn_resets: 1,
                ..Expect::default()
            },
            ..Scenario::undisturbed("partition-primary")
        },
        Scenario {
            worker_chaos: Some(NetChaos {
                seed: 9002,
                scope: ChaosScope::Sched,
                reset_after: Some(6),
                connect_refusals: 2,
                ..NetChaos::disabled()
            }),
            expect: Expect {
                min_degraded: WORKERS as u64,
                ..Expect::default()
            },
            ..Scenario::undisturbed("partition-scheduler")
        },
        Scenario {
            worker_chaos: Some(NetChaos {
                seed: 9003,
                scope: ChaosScope::Shard,
                reset_permille: 50,
                ..NetChaos::disabled()
            }),
            expect: Expect {
                min_conn_resets: 1,
                ..Expect::default()
            },
            ..Scenario::undisturbed("flaky-links")
        },
    ]
}

/// The rows `--scenario` selects (all of them when absent); an unknown
/// name is an error naming the known ones, never an empty soak.
fn select(table: Vec<Scenario>, only: Option<&str>) -> Result<Vec<Scenario>, String> {
    let known: Vec<&str> = table.iter().map(|s| s.name).collect();
    let rows: Vec<Scenario> = table
        .into_iter()
        .filter(|s| only.is_none_or(|n| n == s.name))
        .collect();
    if rows.is_empty() {
        let name = only.unwrap_or_default();
        return Err(format!("no scenario named {name:?}; known: {known:?}"));
    }
    Ok(rows)
}

/// How one of the two shard processes alive at the end reported.
#[derive(Clone, Copy, Default)]
struct ShardEnd {
    serving: bool,
    version: u64,
}

/// Everything a finished scenario reports. `primary`/`backup` are the
/// orchestrator's view after its own kills: the last shard it saw
/// promoted and the last one it (re)started as a backup. Worker counters
/// are summed across the worker processes.
#[derive(Default)]
struct Outcome {
    promotions: u64,
    restarts: u32,
    catchups: u32,
    completed: bool,
    total_pushes: u64,
    primary: ShardEnd,
    backup: ShardEnd,
    conn_resets: u64,
    retries_exhausted: u64,
    degraded_entries: u64,
    degraded_exits: u64,
    /// Worker processes that terminated and printed a STATS line within
    /// the drain window — the structural "retries are bounded" witness.
    workers_reporting: usize,
    /// Sequencing steps (a promotion, a catch-up, the final STATS line)
    /// that never arrived within their budget.
    stalls: Vec<String>,
    elapsed_ms: u64,
}

/// The soak's judgement: every way `o` falls short of `row`. Anything
/// returned fails the run.
#[rustfmt::skip] // the invariant table: one check per entry, condition first
fn violations(row: &Scenario, o: &Outcome, push_target: u64) -> Vec<String> {
    let (e, kills, pushes) = (&row.expect, row.kills, o.total_pushes);
    let (promo, want, reporting) = (o.promotions, e.promotions, o.workers_reporting);
    let (prim, back, resets, min_resets) = (o.primary, o.backup, o.conn_resets, e.min_conn_resets);
    let (prim_ver, back_ver, entries, exits) =
        (prim.version, back.version, o.degraded_entries, o.degraded_exits);
    let checks = [
        (o.completed, "the run must reach its push target despite the faults".to_string()),
        (pushes >= push_target, format!("scheduler saw {pushes} pushes, want >= {push_target}")),
        // Bounded retries: an unbounded retry loop never exits the drain window.
        (reporting == WORKERS,
         format!("every worker must terminate and report, only {reporting}/{WORKERS} did")),
        (promo == want,
         format!("{kills} kills + this fault script want exactly {want} promotions, saw {promo}")),
        (o.restarts == kills,
         format!("the supervisor must authorize exactly {kills} restarts, saw {}", o.restarts)),
        (o.catchups == kills,
         format!("every restarted shard must complete its catch-up, saw {}/{kills}", o.catchups)),
        (!e.backup_serving || back.serving, "the backup must end the run serving".to_string()),
        (!e.zero_loss || prim.serving, "the last-promoted shard must end the run serving".into()),
        (!e.zero_loss || !back.serving, "the last rejoiner must end the run a warm backup".into()),
        // Every push the scheduler was notified of is in the final
        // primary's history — and in the rejoined backup's, via snapshot
        // + write-ahead relay.
        (!e.zero_loss || prim_ver >= pushes,
         format!("final primary holds {prim_ver}/{pushes} notified pushes — pushes were lost")),
        (!e.zero_loss || back_ver >= pushes,
         format!("final backup holds {back_ver}/{pushes} notified pushes — the rejoin lost pushes")),
        (resets >= min_resets,
         format!("workers must observe >= {min_resets} lost connection(s), saw {resets}")),
        (entries >= e.min_degraded, format!("workers must enter degraded mode, saw {entries}")),
        (exits >= e.min_degraded, format!("workers must resync out of it, saw {exits}")),
    ];
    let failed = checks.into_iter().filter(|(ok, _)| !ok).map(|(_, msg)| msg);
    failed.chain(o.stalls.iter().cloned()).collect()
}

// ---------------------------------------------------------- orchestrator

/// One spawned process of the topology. Its stdout is pumped through a
/// channel so the orchestrator can wait — with a deadline — for the
/// `LISTENING`, `EVENT` and `STATS` lines it sequences on, instead of
/// sleeping and hoping.
struct Role {
    name: String,
    child: Child,
    rx: Receiver<String>,
    /// Every stdout line seen so far.
    lines: Vec<String>,
}

impl Role {
    /// Re-spawns this binary as one role: `args` is the role's command
    /// line (no argument contains whitespace), with its fault script, if
    /// any, appended as `--chaos SPEC`.
    fn spawn(name: &str, args: &str, chaos: &Option<NetChaos>) -> Role {
        let exe = std::env::current_exe().expect("current_exe");
        let mut cmd = Command::new(exe);
        cmd.args(args.split_whitespace());
        if let Some(chaos) = chaos {
            cmd.arg("--chaos").arg(chaos.to_spec());
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (tx, rx) = channel();
        // Ends at EOF, i.e. once the child has exited or been killed;
        // `finish` drains the channel until then.
        std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Role {
            name: name.to_string(),
            child,
            rx,
            lines: Vec::new(),
        }
    }

    /// Blocks until a line starting with `prefix` arrives, or gives up
    /// at `deadline` (or at the child's EOF).
    fn wait_for(&mut self, prefix: &str, deadline: Instant) -> bool {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(line) = self.rx.recv_timeout(left) else {
                return false;
            };
            let hit = line.starts_with(prefix);
            self.lines.push(line);
            if hit {
                return true;
            }
        }
    }

    /// `wait_for` within the step budget; a miss is recorded in `stalls`.
    fn await_step(&mut self, line: &str, stalls: &mut Vec<String>) -> bool {
        let hit = self.wait_for(line, Instant::now() + STEP_BUDGET);
        if !hit {
            stalls.push(format!("{}: no `{line}` within {STEP_BUDGET:?}", self.name));
        }
        hit
    }

    /// Waits for the child's `LISTENING <addr>` coordination line.
    fn listening_addr(&mut self) -> String {
        assert!(
            self.wait_for("LISTENING ", Instant::now() + STEP_BUDGET),
            "{} never printed LISTENING",
            self.name
        );
        let addr = self.lines[self.lines.len() - 1]["LISTENING ".len()..].to_string();
        eprintln!("[net_soak] {} listening on {addr}", self.name);
        addr
    }

    /// SIGKILLs the child and reaps it.
    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    /// Waits until exit or `deadline`, then SIGKILLs. Returns every
    /// stdout line the child printed.
    fn finish(mut self, deadline: Instant) -> Vec<String> {
        if Supervisor::reap(&mut self.child, deadline, Duration::from_millis(20)).is_none() {
            eprintln!("[net_soak] {} overran its budget; killing", self.name);
            self.kill();
        }
        self.lines.extend(self.rx.iter());
        self.lines
    }
}

/// A shard process plus what the orchestrator needs to address it.
struct Shard {
    role: Role,
    id: u64,
    addr: String,
}

impl Shard {
    fn spawn(id: u64, sched: &str, extra: &str, chaos: &Option<NetChaos>) -> Shard {
        let args = format!("--role shard --id {id} --sched {sched} {extra}");
        let mut role = Role::spawn(&format!("shard-{id}"), &args, chaos);
        let addr = role.listening_addr();
        Shard { role, id, addr }
    }

    fn finish(self, deadline: Instant) -> ShardEnd {
        let lines = self.role.finish(deadline);
        ShardEnd {
            serving: stat(&lines, "serving").as_deref() == Some("true"),
            version: stat_u64(&lines, "version"),
        }
    }
}

/// Pulls a `key=value` string out of a child's `STATS ...` line.
fn stat(lines: &[String], key: &str) -> Option<String> {
    lines
        .iter()
        .filter(|l| l.starts_with("STATS"))
        .flat_map(|l| l.split_whitespace())
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")).map(str::to_string))
}

fn stat_u64(lines: &[String], key: &str) -> u64 {
    stat(lines, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

fn run_scenario(row: &Scenario, push_target: u64) -> Outcome {
    let started = Instant::now();
    let deadline = started + SCENARIO_BUDGET;
    let spec = |c: &Option<NetChaos>| c.as_ref().map(NetChaos::to_spec).unwrap_or_default();
    eprintln!(
        "[net_soak] === scenario {} kills={} primary=[{}] workers=[{}]",
        row.name,
        row.kills,
        spec(&row.primary_chaos),
        spec(&row.worker_chaos),
    );
    let mut supervisor = Supervisor::new(
        // One restart per kill, plus two spare.
        RestartPolicy::from_net(&net_config(NetChaos::disabled()), KILLS + 2, SEED)
            .expect("valid restart policy"),
        Arc::new(EventLines),
    );

    let sched_args = format!("--role scheduler --workers {WORKERS} --pushes {push_target}");
    let mut sched = Role::spawn("scheduler", &sched_args, &None);
    let sched_addr = sched.listening_addr();

    // Backup first (the primary's relay target must exist), then primary.
    let mut backup = Shard::spawn(1, &sched_addr, "--backup", &None);
    let relay = format!("--relay {}", backup.addr);
    let mut primary = Shard::spawn(0, &sched_addr, &relay, &row.primary_chaos);
    let worker_roles: Vec<Role> = (0..WORKERS)
        .map(|i| {
            let args = format!(
                "--role worker --id {i} --workers {WORKERS} --shard {} --sched {sched_addr}",
                primary.addr
            );
            Role::spawn(&format!("worker-{i}"), &args, &row.worker_chaos)
        })
        .collect();

    // The supervised kill/rejoin cycles: `primary` serves, `backup` is
    // the armed warm backup, and every replacement gets a fresh id.
    let mut o = Outcome::default();
    for kill in 1..=row.kills {
        // Let pushes flow briefly so every cycle kills a primary that is
        // actively serving, not one that is still settling.
        std::thread::sleep(Duration::from_millis(300));
        eprintln!(
            "[net_soak] kill #{kill}: SIGKILL serving shard {}",
            primary.id
        );
        primary.role.kill();
        let Some(attempt) = supervisor.authorize_restart(primary.id) else {
            o.stalls
                .push(format!("kill #{kill}: restart budget exhausted"));
            break;
        };

        // The scheduler must promote the armed backup...
        let promoted = format!("EVENT shard_failover shard={}", backup.id);
        if !sched.await_step(&promoted, &mut o.stalls) {
            break;
        }

        // ...and the supervisor's replacement process re-provisions
        // itself from the new primary over the wire.
        let id = u64::from(kill) + 1;
        eprintln!(
            "[net_soak] restart attempt {attempt}: shard {id} joining via {}",
            backup.addr
        );
        let join = format!("--backup --join {}", backup.addr);
        let rejoiner = Shard::spawn(id, &sched_addr, &join, &None);
        primary = std::mem::replace(&mut backup, rejoiner);
        let caught_up = format!("EVENT catchup_complete shard={id}");
        if !sched.await_step(&caught_up, &mut o.stalls) {
            break;
        }
        o.catchups += 1;
    }

    // The scheduler owns run completion; everyone else gets a short
    // drain window after it exits.
    if !sched.wait_for("STATS", deadline) {
        o.stalls.push("scheduler never completed the run".into());
    }
    let sched_lines = sched.finish(Instant::now() + Duration::from_secs(5));
    let drain = Instant::now() + DRAIN_GRACE;
    o.primary = primary.finish(drain);
    o.backup = backup.finish(drain);
    for role in worker_roles {
        let lines = role.finish(drain);
        o.workers_reporting += usize::from(stat(&lines, "worker").is_some());
        o.conn_resets += stat_u64(&lines, "conn_resets");
        o.retries_exhausted += stat_u64(&lines, "retries_exhausted");
        o.degraded_entries += stat_u64(&lines, "degraded_entries");
        o.degraded_exits += stat_u64(&lines, "degraded_exits");
    }
    o.promotions = stat_u64(&sched_lines, "promotions");
    o.restarts = supervisor.restarts();
    o.completed = stat(&sched_lines, "completed").as_deref() == Some("true");
    o.total_pushes = stat_u64(&sched_lines, "total_pushes");
    o.elapsed_ms = started.elapsed().as_millis() as u64;
    o
}

/// Column titles of the report; [`report_row`] fills the same widths.
const REPORT_HEADER: &str = "scenario             kills promo restart catchup  pushes prim_ver \
                             back_ver resets  exh  degraded   elapsed  pass";

fn report_row(row: &Scenario, o: &Outcome, passed: bool) -> String {
    format!(
        "{:<20} {:>5} {:>5} {:>7} {:>7} {:>7} {:>8} {:>8} {:>6} {:>4} {:>4}+{:<4} {:>7}ms {:>5}",
        row.name,
        row.kills,
        o.promotions,
        o.restarts,
        o.catchups,
        o.total_pushes,
        o.primary.version,
        o.backup.version,
        o.conn_resets,
        o.retries_exhausted,
        o.degraded_entries,
        o.degraded_exits,
        o.elapsed_ms,
        if passed { "ok" } else { "FAIL" },
    )
}

fn orchestrate(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let only = arg_value(args, "--scenario");
    let rows = select(table(), only.as_deref()).unwrap_or_else(|e| panic!("{e}"));

    let mut failed = Vec::new();
    let mut report = vec![REPORT_HEADER.to_string()];
    for row in &rows {
        let push_target = if quick {
            row.quick_push_target
        } else {
            row.push_target
        };
        let o = run_scenario(row, push_target);
        let v = violations(row, &o, push_target);
        for violation in &v {
            eprintln!("[net_soak]   {}: violation: {violation}", row.name);
        }
        report.push(report_row(row, &o, v.is_empty()));
        if !v.is_empty() {
            failed.push(row.name);
        }
    }
    println!("\n{}", report.join("\n"));
    assert!(failed.is_empty(), "failed scenarios: {failed:?}");
    println!("net_soak: OK ({} scenarios)", rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> Scenario {
        select(table(), Some(name)).expect("a table row").remove(0)
    }

    /// What a flawless run of `row` reports at `--quick` scale.
    fn clean(row: &Scenario) -> Outcome {
        let (e, version) = (&row.expect, row.quick_push_target);
        Outcome {
            promotions: e.promotions,
            restarts: row.kills,
            catchups: row.kills,
            completed: true,
            total_pushes: version,
            primary: ShardEnd {
                serving: !e.backup_serving,
                version,
            },
            backup: ShardEnd {
                serving: e.backup_serving,
                version,
            },
            conn_resets: e.min_conn_resets,
            degraded_entries: e.min_degraded,
            degraded_exits: e.min_degraded,
            workers_reporting: WORKERS,
            ..Outcome::default()
        }
    }

    /// The single violation `o` must draw under `row`.
    fn sole_violation(row: &Scenario, o: &Outcome) -> String {
        let mut v = violations(row, o, row.quick_push_target);
        assert_eq!(
            v.len(),
            1,
            "{}: want exactly one violation: {v:?}",
            row.name
        );
        v.remove(0)
    }

    #[test]
    fn every_row_accepts_a_flawless_run_and_rejects_a_missing_worker_report() {
        for row in table() {
            let mut o = clean(&row);
            let v = violations(&row, &o, row.quick_push_target);
            assert!(v.is_empty(), "{}: {v:?}", row.name);
            o.workers_reporting = WORKERS - 1;
            assert!(sole_violation(&row, &o).contains("only 3/4 did"));
            o.stalls
                .push("scheduler never completed the run".to_string());
            assert_eq!(violations(&row, &o, row.quick_push_target).len(), 2);
        }
    }

    #[test]
    fn a_push_missing_from_the_rejoined_backup_is_a_lost_push() {
        let row = row("kill-rejoin");
        let mut o = clean(&row);
        o.backup.version -= 1;
        assert!(sole_violation(&row, &o).contains("the rejoin lost pushes"));
    }

    #[test]
    fn a_surplus_promotion_under_partition_scheduler_is_flagged() {
        let row = row("partition-scheduler");
        let mut o = clean(&row);
        o.promotions = 1;
        assert!(sole_violation(&row, &o).contains("exactly 0 promotions, saw 1"));
    }

    #[test]
    fn scenario_names_are_distinct_and_an_unknown_name_fails_loudly() {
        let names: Vec<&str> = table().iter().map(|s| s.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate row in {names:?}");
        assert_eq!(
            select(table(), None).map(|rows| rows.len()),
            Ok(names.len())
        );
        let err = select(table(), Some("net_smoke"))
            .err()
            .expect("unknown name");
        assert!(names.iter().all(|n| err.contains(n)), "{err}");
    }
}
