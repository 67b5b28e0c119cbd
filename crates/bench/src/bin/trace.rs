//! Trace tooling: capture a protocol event trace from a simulator run and
//! summarize it offline.
//!
//! ```sh
//! # record a trace (adaptive SpecSync, 8 workers, tiny workload)
//! cargo run -p specsync-bench --bin trace -- capture trace.jsonl
//!
//! # reconstruct per-worker timelines and the Eq. 7 check
//! cargo run -p specsync-bench --bin trace -- summarize trace.jsonl
//! ```
//!
//! The summary has two parts:
//!
//! 1. **Per-worker timelines** — pulls, pushes, mean push interval, mean
//!    pull staleness, aborts/re-syncs, wasted compute, and the share of
//!    virtual time spent in each lifecycle phase (from `state` events).
//! 2. **Estimated vs realized freshness gain per epoch** — the Eq. 7
//!    check. Each `epoch_tuned` event carries the tuner's predicted
//!    `F̃(Δ*)` for the *next* epoch; the summarizer replays the trace and
//!    computes what that epoch actually delivered with the same objective:
//!    for every re-sync, the pushes by other workers between the aborting
//!    worker's previous pull and the re-sync (the fresh updates the abort
//!    uncovered, Eq. 5) minus the deferral loss `Δ (m − 1) / T_i` (Eq. 6),
//!    normalized per pull and summed over workers exactly as Eq. 7 does.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use specsync_cluster::{ClusterSpec, InstanceType, Trainer};
use specsync_ml::Workload;
use specsync_simnet::{SimDuration, VirtualTime};
use specsync_sync::SchemeKind;
use specsync_telemetry::{read_trace, Event, EventSink, JsonlSink, TraceRecord, WorkerPhase};

fn usage() -> ExitCode {
    eprintln!("usage: trace capture [OUT.jsonl] [--scheme asp|fixed|adaptive] [--workers N]");
    eprintln!("                     [--seed S] [--horizon SECS]");
    eprintln!("       trace summarize <TRACE.jsonl>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("capture") => capture(&args[1..]),
        Some("summarize") => match args.get(1) {
            Some(path) => summarize(path),
            None => usage(),
        },
        _ => usage(),
    }
}

// ---------------------------------------------------------------- capture

fn capture(args: &[String]) -> ExitCode {
    let mut out = "trace.jsonl".to_string();
    let mut scheme = SchemeKind::specsync_adaptive();
    let mut workers = 8usize;
    let mut seed = 42u64;
    let mut horizon = 400.0f64;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| -> Option<String> { it.next().cloned() };
        match arg.as_str() {
            "--scheme" => match value(&mut it).as_deref() {
                Some("asp") => scheme = SchemeKind::Asp,
                Some("adaptive") => scheme = SchemeKind::specsync_adaptive(),
                Some("fixed") => {
                    // A mid-grid Fig. 8 point: window = 30% of the tiny
                    // workload's iteration, threshold rate 0.25.
                    let iter = Workload::tiny_test().mean_iteration_secs;
                    scheme =
                        SchemeKind::specsync_fixed(SimDuration::from_secs_f64(iter * 0.3), 0.25);
                }
                _ => return usage(),
            },
            "--workers" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => workers = n,
                _ => return usage(),
            },
            "--seed" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--horizon" => match value(&mut it).and_then(|v| v.parse().ok()) {
                Some(h) => horizon = h,
                None => return usage(),
            },
            other if !other.starts_with('-') => out = other.to_string(),
            _ => return usage(),
        }
    }

    let sink = match JsonlSink::create(Path::new(&out)) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("trace: cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = Trainer::new(Workload::tiny_test(), scheme)
        .cluster(ClusterSpec::homogeneous(workers, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs_f64(horizon))
        .eval_stride(8)
        .seed(seed)
        .sink(Arc::clone(&sink) as Arc<dyn EventSink<VirtualTime>>)
        .run();
    let lines = sink.lines_written();
    // The driver and scheduler drop their clones when the run ends, so the
    // capture handle is the last one standing.
    match Arc::try_unwrap(sink) {
        Ok(sink) => {
            if let Err(e) = sink.finish() {
                eprintln!("trace: write error on {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
        Err(shared) => EventSink::<VirtualTime>::flush(&*shared),
    }
    println!(
        "captured {lines} events to {out}  ({}, {} workers, seed {seed})",
        report.scheme, report.num_workers
    );
    println!(
        "run: {} iterations, {} aborts, mean staleness {:.2}, finished at {:.1}s",
        report.total_iterations,
        report.total_aborts,
        report.mean_staleness,
        report.finished_at.as_secs_f64()
    );
    ExitCode::SUCCESS
}

// -------------------------------------------------------------- summarize

/// Per-worker accumulation over one scope (whole trace or one epoch).
#[derive(Debug, Default, Clone)]
struct WorkerTimeline {
    pulls: u64,
    staleness_sum: u64,
    pushes: u64,
    first_push: Option<u64>,
    last_push: Option<u64>,
    notifies: u64,
    aborts_issued: u64,
    resyncs: u64,
    wasted_micros: u64,
    /// Injected faults and degradation decisions touching this worker.
    faults: u64,
    /// Micros spent in each phase, indexed by [`phase_index`].
    phase_micros: [u64; 5],
    current_phase: Option<(WorkerPhase, u64)>,
    /// Time of the worker's most recent pull (for gain attribution).
    last_pull_at: Option<u64>,
    /// Σ over re-syncs of pushes-by-others since the worker's last pull.
    fresh_gained: u64,
    /// Wire bytes sent on the worker's behalf (wall-clock transports only).
    bytes_sent: u64,
    /// Wire bytes received on the worker's behalf.
    bytes_received: u64,
    /// Transport reconnect attempts.
    conn_retries: u64,
    /// Link failures: resets observed, exhausted retry budgets,
    /// degraded-mode entries/exits.
    net_faults: u64,
}

fn phase_index(p: WorkerPhase) -> usize {
    match p {
        WorkerPhase::Idle => 0,
        WorkerPhase::Pulling => 1,
        WorkerPhase::Computing => 2,
        WorkerPhase::Pushing => 3,
        WorkerPhase::Dead => 4,
    }
}

impl WorkerTimeline {
    /// Mean push interval in micros (`T_i`), when observable.
    fn push_interval(&self) -> Option<f64> {
        match (self.first_push, self.last_push) {
            (Some(a), Some(b)) if self.pushes >= 2 && b > a => {
                Some((b - a) as f64 / (self.pushes - 1) as f64)
            }
            _ => None,
        }
    }

    fn enter_phase(&mut self, phase: WorkerPhase, at: u64) {
        if let Some((prev, since)) = self.current_phase {
            self.phase_micros[phase_index(prev)] += at.saturating_sub(since);
        }
        self.current_phase = Some((phase, at));
    }

    fn close_phases(&mut self, end: u64) {
        if let Some((prev, since)) = self.current_phase.take() {
            self.phase_micros[phase_index(prev)] += end.saturating_sub(since);
        }
    }
}

/// One tuning span: the interval between consecutive `epoch_tuned` events,
/// governed by the hyperparameters the *earlier* of the two installed.
#[derive(Debug, Clone)]
struct EpochSpan {
    /// Label: the epoch index whose closure opened this span (0 = warm-up
    /// span before the first tuning pass).
    opened_by: u64,
    start_micros: u64,
    end_micros: u64,
    /// `ABORT_TIME` in force during the span (unknown in the warm-up span).
    abort_time_us: Option<u64>,
    /// The tuner's predicted `F̃(Δ*)` for this span.
    estimated: Option<f64>,
    workers: BTreeMap<usize, WorkerTimeline>,
}

impl EpochSpan {
    fn new(opened_by: u64, start: u64, abort_time_us: Option<u64>, estimated: Option<f64>) -> Self {
        EpochSpan {
            opened_by,
            start_micros: start,
            end_micros: start,
            abort_time_us,
            estimated,
            workers: BTreeMap::new(),
        }
    }

    /// Eq. 7 replayed on what actually happened in the span: per worker,
    /// Σ over re-syncs of (fresh updates uncovered − Δ(m−1)/T_i),
    /// normalized by the worker's pulls. A span usually covers only a
    /// couple of iterations, so when `T_i` is unobservable inside it the
    /// whole-trace interval from `fallback` stands in (the same stability
    /// trade the tuner makes by estimating over a widened window).
    fn realized(&self, m: usize, fallback: &BTreeMap<usize, WorkerTimeline>) -> Option<f64> {
        let delta_us = self.abort_time_us?;
        let mut total = 0.0;
        for (w, tl) in &self.workers {
            if tl.resyncs == 0 || tl.pulls == 0 {
                continue;
            }
            let t_i = tl
                .push_interval()
                .or_else(|| fallback.get(w).and_then(WorkerTimeline::push_interval));
            let Some(t_i) = t_i else {
                continue;
            };
            let loss = delta_us as f64 * (m.saturating_sub(1)) as f64 / t_i;
            let contribution = tl.fresh_gained as f64 - loss * tl.resyncs as f64;
            total += contribution / tl.pulls as f64;
        }
        Some(total)
    }
}

/// Streaming reconstruction of worker timelines and tuning spans.
#[derive(Debug)]
struct Summary {
    overall: BTreeMap<usize, WorkerTimeline>,
    spans: Vec<EpochSpan>,
    evals: u64,
    final_loss: Option<f64>,
    end_micros: u64,
    /// Server-side fault-tolerance events (worker-less, counted globally).
    failovers: u64,
    journal_replayed: u64,
    checkpoints: u64,
    /// Scheduler data-plane events (worker-less, counted globally).
    eviction_passes: u64,
    evicted_records: u64,
    last_retained: Option<u64>,
    sched_cost_samples: u64,
    sched_cost_sum_ns: u64,
    sched_cost_max_ns: u64,
}

fn reconstruct(records: &[TraceRecord]) -> Summary {
    let mut overall: BTreeMap<usize, WorkerTimeline> = BTreeMap::new();
    let mut spans = vec![EpochSpan::new(0, 0, None, None)];
    let mut evals = 0u64;
    let mut final_loss = None;
    let mut end_micros = 0u64;
    let mut failovers = 0u64;
    let mut journal_replayed = 0u64;
    let mut checkpoints = 0u64;
    let mut eviction_passes = 0u64;
    let mut evicted_records = 0u64;
    let mut last_retained = None;
    let mut sched_cost_samples = 0u64;
    let mut sched_cost_sum_ns = 0u64;
    let mut sched_cost_max_ns = 0u64;

    for rec in records {
        let t = rec.micros;
        end_micros = end_micros.max(t);
        if let Some(span) = spans.last_mut() {
            span.end_micros = span.end_micros.max(t);
        }
        match &rec.event {
            Event::EpochTuned {
                epoch,
                abort_time,
                estimated_gain,
                ..
            } => {
                spans.push(EpochSpan::new(
                    *epoch,
                    t,
                    Some(abort_time.as_micros()),
                    *estimated_gain,
                ));
                continue;
            }
            Event::Eval { loss, .. } => {
                evals += 1;
                final_loss = Some(*loss);
                continue;
            }
            Event::ShardFailover { replayed, .. } => {
                failovers += 1;
                journal_replayed += replayed;
                continue;
            }
            Event::CheckpointWritten { .. } => {
                checkpoints += 1;
                continue;
            }
            Event::HistoryEvicted {
                pushes,
                pulls,
                retained,
            } => {
                eviction_passes += 1;
                evicted_records += pushes + pulls;
                last_retained = Some(*retained);
                continue;
            }
            Event::SchedCost { nanos } => {
                sched_cost_samples += 1;
                sched_cost_sum_ns += nanos;
                sched_cost_max_ns = sched_cost_max_ns.max(*nanos);
                continue;
            }
            // specsync-allow(event-exhaustiveness): every remaining variant is worker-scoped and falls through to the per-worker dispatch below
            _ => {}
        }
        let Some(worker) = rec.event.worker() else {
            continue;
        };
        let w = worker.index();
        // `fresh_gained` needs every *other* worker's pushes inside the
        // current span, so count pushes into a per-span scratch before
        // dispatching to the per-worker timelines.
        for scope in [
            &mut overall,
            &mut spans
                .last_mut()
                .map(|s| &mut s.workers)
                .expect("spans never empty"),
        ] {
            let tl = scope.entry(w).or_default();
            match &rec.event {
                Event::Pull { staleness, .. } => {
                    tl.pulls += 1;
                    tl.staleness_sum += staleness;
                    tl.last_pull_at = Some(t);
                }
                Event::Push { .. } => {
                    tl.pushes += 1;
                    tl.first_push.get_or_insert(t);
                    tl.last_push = Some(t);
                }
                Event::Notify { .. } => tl.notifies += 1,
                Event::AbortIssued { .. } => tl.aborts_issued += 1,
                Event::Resync { wasted, .. } => {
                    tl.resyncs += 1;
                    tl.wasted_micros += wasted.as_micros();
                }
                Event::WorkerState { state, .. } => tl.enter_phase(*state, t),
                Event::Fault { .. }
                | Event::WorkerCrashed { .. }
                | Event::WorkerRecovered { .. }
                | Event::Straggler { .. }
                | Event::Membership { .. }
                | Event::NotifyLoss { .. }
                | Event::AbortReissued { .. }
                | Event::PushFenced { .. }
                | Event::RetryScheduled { .. } => tl.faults += 1,
                Event::FrameSent { bytes, .. } => {
                    tl.bytes_sent = tl.bytes_sent.saturating_add(*bytes);
                }
                Event::FrameReceived { bytes, .. } => {
                    tl.bytes_received = tl.bytes_received.saturating_add(*bytes);
                }
                Event::ConnRetry { .. } => tl.conn_retries += 1,
                Event::ConnReset { .. }
                | Event::RetryExhausted { .. }
                | Event::DegradedMode { .. } => tl.net_faults += 1,
                Event::EpochTuned { .. }
                | Event::Eval { .. }
                | Event::ShardFailover { .. }
                | Event::CheckpointWritten { .. }
                | Event::HistoryEvicted { .. }
                | Event::SchedCost { .. }
                | Event::BackupJoined { .. }
                | Event::CatchUpComplete { .. }
                | Event::ProcessRestarted { .. } => {}
            }
        }
    }

    // Second pass for gain attribution: pushes-by-others between each
    // worker's last pull and its re-sync, credited to the span the re-sync
    // lands in. (A linear scan with per-worker last-pull cursors.)
    let mut last_pull: BTreeMap<usize, u64> = BTreeMap::new();
    let mut pushes: Vec<(u64, usize)> = Vec::new();
    for rec in records {
        match &rec.event {
            Event::Pull { worker, .. } => {
                last_pull.insert(worker.index(), rec.micros);
            }
            Event::Push { worker, .. } => pushes.push((rec.micros, worker.index())),
            Event::Resync { worker, .. } => {
                let w = worker.index();
                let since = last_pull.get(&w).copied().unwrap_or(0);
                let fresh = pushes
                    .iter()
                    .rev()
                    .take_while(|&&(pt, _)| pt > since)
                    .filter(|&&(pt, pw)| pw != w && pt <= rec.micros)
                    .count() as u64;
                if let Some(tl) = overall.get_mut(&w) {
                    tl.fresh_gained += fresh;
                }
                let span = spans
                    .iter_mut()
                    .rev()
                    .find(|s| s.start_micros <= rec.micros)
                    .expect("spans cover the trace");
                if let Some(tl) = span.workers.get_mut(&w) {
                    tl.fresh_gained += fresh;
                }
            }
            // specsync-allow(event-exhaustiveness): gain attribution only needs the pull/push/resync triple; everything else was tallied in the first pass
            _ => {}
        }
    }

    for tl in overall.values_mut() {
        tl.close_phases(end_micros);
    }
    Summary {
        overall,
        spans,
        evals,
        final_loss,
        end_micros,
        failovers,
        journal_replayed,
        checkpoints,
        eviction_passes,
        evicted_records,
        last_retained,
        sched_cost_samples,
        sched_cost_sum_ns,
        sched_cost_max_ns,
    }
}

fn summarize(path: &str) -> ExitCode {
    let records = match read_trace(Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if records.is_empty() {
        eprintln!("trace: {path} contains no events");
        return ExitCode::FAILURE;
    }
    let summary = reconstruct(&records);
    let m = summary.overall.len();

    println!(
        "trace {path}: {} events, {} workers, span {:.3}s, {} evals{}",
        records.len(),
        m,
        summary.end_micros as f64 / 1e6,
        summary.evals,
        match summary.final_loss {
            Some(l) => format!(", final loss {l:.4}"),
            None => String::new(),
        }
    );

    if summary.failovers + summary.checkpoints > 0 {
        println!(
            "server fault tolerance: {} shard failover(s) ({} journaled push(es) replayed), \
             {} checkpoint(s) written",
            summary.failovers, summary.journal_replayed, summary.checkpoints
        );
    }

    if summary.eviction_passes > 0 || summary.sched_cost_samples > 0 {
        let mut parts = Vec::new();
        if summary.eviction_passes > 0 {
            parts.push(format!(
                "{} record(s) evicted over {} epoch boundary(ies){}",
                summary.evicted_records,
                summary.eviction_passes,
                summary
                    .last_retained
                    .map_or(String::new(), |r| format!(", {r} push(es) retained")),
            ));
        }
        if summary.sched_cost_samples > 0 {
            parts.push(format!(
                "per-event cost mean {:.0}ns / max {}ns over {} sample(s)",
                summary.sched_cost_sum_ns as f64 / summary.sched_cost_samples as f64,
                summary.sched_cost_max_ns,
                summary.sched_cost_samples
            ));
        }
        println!("scheduler data plane: {}", parts.join("; "));
    }

    println!("\nper-worker timelines:");
    println!(
        "{:>3} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>9} {:>6}  phase share i/p/c/s/d",
        "w", "pulls", "pushes", "T_i(ms)", "stale/pl", "aborts", "resync", "waste(ms)", "faults"
    );
    for (&w, tl) in &summary.overall {
        let t_i = tl
            .push_interval()
            .map_or("--".to_string(), |t| format!("{:.2}", t / 1e3));
        let stale = if tl.pulls > 0 {
            format!("{:.2}", tl.staleness_sum as f64 / tl.pulls as f64)
        } else {
            "--".to_string()
        };
        let total_phase: u64 = tl.phase_micros.iter().sum();
        let share = if total_phase > 0 {
            let pct = |i: usize| 100.0 * tl.phase_micros[i] as f64 / total_phase as f64;
            format!(
                "{:>4.1}/{:>4.1}/{:>4.1}/{:>4.1}/{:>4.1}%",
                pct(0),
                pct(1),
                pct(2),
                pct(3),
                pct(4)
            )
        } else {
            "--".to_string()
        };
        println!(
            "{:>3} {:>6} {:>6} {:>9} {:>9} {:>7} {:>7} {:>9.1} {:>6}  {}",
            w,
            tl.pulls,
            tl.pushes,
            t_i,
            stale,
            tl.aborts_issued,
            tl.resyncs,
            tl.wasted_micros as f64 / 1e3,
            tl.faults,
            share
        );
    }

    // Wire-traffic columns only appear for wall-clock transport traces —
    // the deterministic simulator never emits frame events.
    if summary.overall.values().any(|tl| {
        tl.bytes_sent > 0 || tl.bytes_received > 0 || tl.conn_retries > 0 || tl.net_faults > 0
    }) {
        println!("\nper-worker wire traffic:");
        println!(
            "{:>3} {:>12} {:>12} {:>8} {:>8}",
            "w", "tx(KiB)", "rx(KiB)", "retries", "netflt"
        );
        for (&w, tl) in &summary.overall {
            println!(
                "{:>3} {:>12.1} {:>12.1} {:>8} {:>8}",
                w,
                tl.bytes_sent as f64 / 1024.0,
                tl.bytes_received as f64 / 1024.0,
                tl.conn_retries,
                tl.net_faults
            );
        }
    }

    println!("\nestimated vs realized freshness gain per epoch (Eq. 7 check):");
    println!(
        "{:>5} {:>10} {:>10} {:>8} {:>8} {:>11} {:>11}",
        "epoch", "span(s)", "Δ(ms)", "resyncs", "fresh", "estimated", "realized"
    );
    for span in &summary.spans {
        let resyncs: u64 = span.workers.values().map(|t| t.resyncs).sum();
        let fresh: u64 = span.workers.values().map(|t| t.fresh_gained).sum();
        let secs = (span.end_micros.saturating_sub(span.start_micros)) as f64 / 1e6;
        if secs == 0.0 && resyncs == 0 && span.estimated.is_none() {
            continue;
        }
        let delta = span
            .abort_time_us
            .map_or("--".to_string(), |d| format!("{:.1}", d as f64 / 1e3));
        let est = span
            .estimated
            .map_or("--".to_string(), |e| format!("{e:.3}"));
        let real = span
            .realized(m, &summary.overall)
            .map_or("--".to_string(), |r| format!("{r:.3}"));
        println!(
            "{:>5} {:>10.2} {:>10} {:>8} {:>8} {:>11} {:>11}",
            span.opened_by, secs, delta, resyncs, fresh, est, real
        );
    }
    println!("\n(estimated: the tuner's F̃(Δ*) prediction installed at the span's start;");
    println!(" realized: Eq. 7 replayed on the span's actual pulls, pushes and re-syncs)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsync_telemetry::parse_trace_line;

    fn rec(line: &str) -> TraceRecord {
        parse_trace_line(line).expect("valid line")
    }

    #[test]
    fn reconstruct_counts_and_attributes_gain() {
        let records = vec![
            rec(r#"{"t":0,"ev":"pull","w":0,"staleness":0}"#),
            rec(r#"{"t":10,"ev":"pull","w":1,"staleness":0}"#),
            rec(r#"{"t":100,"ev":"push","w":1,"iter":1}"#),
            rec(r#"{"t":150,"ev":"push","w":1,"iter":2}"#),
            rec(r#"{"t":200,"ev":"abort_issued","w":0}"#),
            rec(r#"{"t":220,"ev":"resync","w":0,"wasted_us":120}"#),
            rec(
                r#"{"t":300,"ev":"epoch_tuned","epoch":1,"abort_time_us":50,"abort_rate":0.25,"est_gain":1.5}"#,
            ),
            rec(r#"{"t":400,"ev":"pull","w":0,"staleness":2}"#),
            rec(r#"{"t":500,"ev":"push","w":0,"iter":3}"#),
        ];
        let s = reconstruct(&records);
        assert_eq!(s.overall.len(), 2);
        let w0 = &s.overall[&0];
        assert_eq!(w0.pulls, 2);
        assert_eq!(w0.resyncs, 1);
        assert_eq!(w0.wasted_micros, 120);
        // Both of worker 1's pushes landed after worker 0's pull at t=0.
        assert_eq!(w0.fresh_gained, 2);
        // Spans: warm-up (opened_by 0) then the tuned span.
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[1].opened_by, 1);
        assert_eq!(s.spans[1].abort_time_us, Some(50));
        assert_eq!(s.spans[1].estimated, Some(1.5));
        // The re-sync happened in the warm-up span.
        assert_eq!(s.spans[0].workers[&0].resyncs, 1);
    }

    #[test]
    fn reconstruct_counts_evictions_and_sched_cost() {
        let records = vec![
            rec(r#"{"t":10,"ev":"history_evicted","pushes":100,"pulls":60,"retained":400}"#),
            rec(r#"{"t":20,"ev":"history_evicted","pushes":50,"pulls":30,"retained":380}"#),
            rec(r#"{"t":30,"ev":"sched_cost","nanos":200}"#),
            rec(r#"{"t":40,"ev":"sched_cost","nanos":600}"#),
        ];
        let s = reconstruct(&records);
        assert_eq!(s.eviction_passes, 2);
        assert_eq!(s.evicted_records, 240);
        assert_eq!(s.last_retained, Some(380));
        assert_eq!(s.sched_cost_samples, 2);
        assert_eq!(s.sched_cost_sum_ns, 800);
        assert_eq!(s.sched_cost_max_ns, 600);
    }

    #[test]
    fn reconstruct_accumulates_wire_traffic() {
        let records = vec![
            rec(r#"{"t":0,"ev":"frame_sent","w":0,"class":"pull","bytes":64}"#),
            rec(r#"{"t":5,"ev":"frame_recv","w":0,"class":"pull","bytes":4096}"#),
            rec(r#"{"t":9,"ev":"frame_sent","w":0,"class":"push","bytes":2052}"#),
            rec(r#"{"t":20,"ev":"conn_retry","w":1,"attempt":1}"#),
            rec(r#"{"t":40,"ev":"conn_retry","w":1,"attempt":2}"#),
        ];
        let s = reconstruct(&records);
        assert_eq!(s.overall[&0].bytes_sent, 64 + 2052);
        assert_eq!(s.overall[&0].bytes_received, 4096);
        assert_eq!(s.overall[&1].conn_retries, 2);
    }

    #[test]
    fn phase_shares_accumulate() {
        let records = vec![
            rec(r#"{"t":0,"ev":"state","w":0,"state":"pulling"}"#),
            rec(r#"{"t":100,"ev":"state","w":0,"state":"computing"}"#),
            rec(r#"{"t":400,"ev":"state","w":0,"state":"pushing"}"#),
            rec(r#"{"t":500,"ev":"push","w":0,"iter":1}"#),
        ];
        let s = reconstruct(&records);
        let tl = &s.overall[&0];
        assert_eq!(tl.phase_micros[phase_index(WorkerPhase::Pulling)], 100);
        assert_eq!(tl.phase_micros[phase_index(WorkerPhase::Computing)], 300);
        assert_eq!(tl.phase_micros[phase_index(WorkerPhase::Pushing)], 100);
    }

    #[test]
    fn realized_gain_uses_eq7_shape() {
        let mut span = EpochSpan::new(1, 0, Some(100), Some(2.0));
        let tl = span.workers.entry(0).or_default();
        tl.pulls = 4;
        tl.resyncs = 2;
        tl.fresh_gained = 10;
        tl.pushes = 3;
        tl.first_push = Some(0);
        tl.last_push = Some(2000); // T_i = 1000 us
                                   // loss per resync = 100 * (2-1) / 1000 = 0.1
        let none = BTreeMap::new();
        let f = span.realized(2, &none).expect("delta known");
        assert!((f - (10.0 - 0.2) / 4.0).abs() < 1e-9, "got {f}");
        // Warm-up span has no delta: realized is unknown.
        assert!(EpochSpan::new(0, 0, None, None)
            .realized(2, &none)
            .is_none());
    }
}
