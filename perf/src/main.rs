//! `perf`: the repository's benchmark. Closed-loop load against the real
//! shard and scheduler servers over loopback TCP, one OS process per
//! workload. `README.md` beside `Cargo.toml` says why each workload exists
//! and how the metrics interact.
//!
//! * `perf --workload NAME --seed N --seconds S --trace 0|1` — one run;
//!   the last line of standard output is the result as one JSON object.
//! * `perf all [--seed N] [--seconds S] [--json PATH]` — every workload,
//!   every end-to-end metric in one table.
//! * `perf trace NAME|all [--seed N] [--seconds S]` — the traced runs:
//!   every per-layer metric, spans written under the target directory.
//! * `perf repeat [--seed N] [--seconds S]` — `all` twice back to back;
//!   fails unless the two sets agree within each metric's bound on every
//!   workload `BENCHMARK.json` lists.

mod cluster;
mod inputs;
mod json;
mod layers;
mod metrics;
mod saturate;
mod stats;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use specsync_sync::SchemeKind;

use inputs::{Gradient, MF_DIM};
use json::Json;
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Span;

/// The seed `all`, `trace` and `repeat` use unless told otherwise. A claim
/// made on it is to be confirmed on [`CONFIRM_SEED`].
const DEFAULT_SEED: u64 = 11;
const CONFIRM_SEED: u64 = 12;

/// The measuring time `BENCHMARK.json` gives every run.
const DEFAULT_SECONDS: f64 = 25.0;

/// `repeat` lets `setup_s` differ by this much whatever its share.
const SETUP_SLACK_S: f64 = 0.25;

/// What one run of one workload produced.
#[derive(Default, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means the run is correct.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "unknown metric {name}");
        self.metrics.push((name.to_string(), value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The result line. An end-to-end metric that is missing makes the run
    /// incorrect; a per-layer metric that does not apply reads 0.
    fn to_json(&self, traced: bool) -> Json {
        let mut correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut entries = Vec::new();
        for def in defs {
            let value = match (self.value(def.name), traced) {
                (Some(v), _) if v.is_finite() => v,
                (None, true) => 0.0,
                _ => {
                    correct = false;
                    continue;
                }
            };
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]);
            entries.push((def.name.to_string(), entry));
        }
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(entries)),
        ])
    }
}

/// Takes further `setup_s` samples: at least three in all, and of a set-up
/// too short for three to pin its median, more, until a second has gone
/// into them. `setup_s` is the median of the samples.
pub fn sample_setups(samples: &mut Vec<f64>, mut one: impl FnMut() -> f64) {
    while samples.len() < 3 || (samples.iter().sum::<f64>() < 1.0 && samples.len() < 30) {
        samples.push(one());
    }
}

enum Plan {
    Saturating(saturate::Shape),
    Training(train::Shape),
}

/// The workloads by name. Client counts are sized to the cores present, at
/// most two; the target rates are seven tenths of the recorded baseline's
/// operations per second: most of the window is measured, and only a host
/// slower than that by three tenths holds a window open past its deadline.
fn plan(name: &str) -> Option<Plan> {
    let clients = sys::nproc().min(2);
    let saturating = |dim, clients, pulls, gradient, target_rate| {
        Some(Plan::Saturating(saturate::Shape {
            dim,
            clients,
            pulls,
            gradient,
            target_rate,
        }))
    };
    // The detector's target: 0.14 is on the steep part of the loss curve
    // (0.165 at the start, 0.135 where it flattens), so when it is crossed
    // is well defined; 0.10 takes 17 s to 22 s a run, past the time cap.
    let training = |scheme| {
        Some(Plan::Training(train::Shape {
            scheme,
            target_loss: 0.14,
            push_budget: 1_200,
        }))
    };
    match name {
        "pull_dense" => saturating(MF_DIM, clients, true, Gradient::None, 21.0),
        // One client: with two, five busy threads contend for two cores
        // and ops_per_s spread 13 % from run to run; with one, 2 %.
        "step_dense" => saturating(MF_DIM, 1, true, Gradient::Dense, 1.85),
        "step_small" => saturating(
            inputs::mf_small_dim(),
            clients,
            true,
            Gradient::Dense,
            1_100.0,
        ),
        "push_sparse" => saturating(MF_DIM, 1, false, Gradient::Sparse, 23.0),
        "train_asp" => training(SchemeKind::Asp),
        "train_specsync" => training(SchemeKind::specsync_adaptive()),
        _ => None,
    }
}

/// Value of `--flag` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("bad value {text:?} for {name}")),
    }
}

/// Where trace files go: under the build's target directory.
fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perf").join(format!("trace-{workload}.jsonl"))
}

/// One workload in this process: the driver's form of the command.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let seed: u64 = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let traced = match parsed(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err(format!("--seconds must be at least 1, not {seconds}"));
    }
    let plan = plan(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let report = match (plan, traced) {
        (Plan::Saturating(shape), false) => saturate::end_to_end(&shape, seed, seconds),
        (Plan::Saturating(shape), true) => saturate::per_layer(&shape, seed, seconds),
        (Plan::Training(shape), false) => train::end_to_end(&shape, seed, seconds),
        (Plan::Training(shape), true) => train::per_layer(&shape, seed),
    };
    for problem in &report.problems {
        eprintln!("perf: {name}: {problem}");
    }
    if traced {
        let path = trace_path(name);
        trace::write_jsonl(&path, &report.spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "perf: {name}: {} spans in {}",
            report.spans.len(),
            path.display()
        );
    }
    let result = report.to_json(traced);
    println!("{}", result.render());
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child run's parsed result line.
struct ChildResult {
    workload: &'static str,
    correct: bool,
    result: Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }
}

/// Runs `workload` in a process of its own, so that peak memory and CPU
/// time are that workload's alone.
fn run_child(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let result = json::parse(line).map_err(|e| format!("{workload} result line: {e}"))?;
    let correct =
        output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(ChildResult {
        workload,
        correct,
        result,
    })
}

fn run_set(
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<ChildResult>, String> {
    names
        .iter()
        .map(|name| run_child(name, seed, seconds, traced))
        .collect()
}

/// Every metric of `defs` by name and unit, one column per workload.
fn print_table(defs: &[MetricDef], set: &[ChildResult]) {
    print!("{:<38} {:>6} {:>6}", "metric", "unit", "better");
    for child in set {
        print!(" {:>14}", child.workload);
    }
    println!();
    for def in defs {
        print!(
            "{:<38} {:>6} {:>6}",
            def.name,
            def.unit,
            def.better.as_str()
        );
        for child in set {
            match child.value(def.name) {
                Some(v) => print!(" {:>14}", format_value(v)),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    print!("{:<38} {:>6} {:>6}", "output checks", "", "");
    for child in set {
        print!(" {:>14}", if child.correct { "pass" } else { "FAIL" });
    }
    println!();
}

fn format_value(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_string(),
        a if a >= 1e6 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

fn all_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// One record of a whole set, keyed like `BENCHMARK.json` names things.
fn set_record(seed: u64, seconds: f64, set: &[ChildResult]) -> Json {
    let workloads = set
        .iter()
        .map(|c| (c.workload.to_string(), c.result.clone()))
        .collect();
    Json::obj(vec![
        ("generated_by", Json::Str("perf all --json".into())),
        ("seed", Json::Num(seed as f64)),
        ("confirm_on_seed", Json::Num(CONFIRM_SEED as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let seed = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let set = run_set(&all_names(), seed, seconds, false)?;
    println!(
        "seed {seed} (confirm any claim on seed {CONFIRM_SEED}), {seconds} s windows, {} cores",
        sys::nproc()
    );
    for workload in WORKLOADS {
        let role = if workload.gated { "" } else { " (diagnostic)" };
        println!("{}{role}: {}", workload.name, workload.why);
    }
    print_table(END_TO_END, &set);
    if let Some(path) = flag(args, "--json") {
        let mut text = set_record(seed, seconds, &set).render();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(verdict(&set))
}

fn traced(args: &[String]) -> Result<ExitCode, String> {
    let names = match args.get(2).map(String::as_str) {
        Some("all") => all_names(),
        Some(name) => {
            let def = WORKLOADS.iter().find(|w| w.name == name);
            vec![def.ok_or(format!("unknown workload {name:?}"))?.name]
        }
        None => return Err("trace takes a workload name or `all`".to_string()),
    };
    let seed = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let set = run_set(&names, seed, seconds, true)?;
    print_table(PER_LAYER, &set);
    Ok(verdict(&set))
}

fn verdict(set: &[ChildResult]) -> ExitCode {
    if set.iter().all(|c| c.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// By what share of `first` the value `second` is worse, in the metric's
/// own direction; negative when it is better.
fn worse_by(def: &MetricDef, first: f64, second: f64) -> f64 {
    match def.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

fn repeat(args: &[String]) -> Result<ExitCode, String> {
    let seed = parsed(args, "--seed", DEFAULT_SEED)?;
    let seconds = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let first = run_set(&all_names(), seed, seconds, false)?;
    let second = run_set(&all_names(), seed, seconds, false)?;
    let mut agree = verdict(&first) == ExitCode::SUCCESS && verdict(&second) == ExitCode::SUCCESS;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "first", "second", "apart", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        // A diagnostic workload is printed and not judged.
        let gated = metrics::gated().any(|w| w.name == a.workload);
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let (Some(x), Some(y)) = (a.value(def.name), b.value(def.name)) else {
                agree = false;
                println!("{:<16} {:<18} missing", a.workload, def.name);
                continue;
            };
            // Either of the two sets may be the worse one.
            let apart = worse_by(def, x, y).max(worse_by(def, y, x));
            // A set-up of milliseconds moves by a third from one process
            // to the next; the issue bounds `setup_s` by the larger of its
            // share and a quarter of a second.
            let within =
                apart <= bound || (def.name == "setup_s" && (x - y).abs() <= SETUP_SLACK_S);
            agree &= within || !gated;
            println!(
                "{:<16} {:<18} {:>12} {:>12} {:>8.1}% {:>6.0}%{}",
                a.workload,
                def.name,
                format_value(x),
                format_value(y),
                apart * 100.0,
                bound * 100.0,
                match (within, gated) {
                    (true, _) => "",
                    (false, true) => "  <-- apart by more than the bound",
                    (false, false) => "  (diagnostic workload, not judged)",
                }
            );
        }
    }
    Ok(if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let outcome = match args.get(1).map(String::as_str) {
        Some("all") => all(&args),
        Some("trace") => traced(&args),
        Some("repeat") => repeat(&args),
        Some(first) if first.starts_with("--") => run_one(&args),
        _ => Err(
            "usage: perf --workload NAME --seed N --seconds S --trace 0|1 | all | trace NAME|all | repeat"
                .to_string(),
        ),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("perf: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_sampling_stops_at_three_slow_ones_and_tops_fast_ones_up() {
        let mut slow = vec![1.4];
        sample_setups(&mut slow, || 1.4);
        assert_eq!(slow.len(), 3);
        let mut fast = vec![0.01, 0.01, 0.01, 0.01, 0.01];
        sample_setups(&mut fast, || 0.01);
        assert_eq!(fast.len(), 30);
        let mut medium = Vec::new();
        sample_setups(&mut medium, || 0.3);
        assert_eq!(medium.len(), 4);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        for def in END_TO_END {
            report.metric(def.name, 1.5);
        }
        let line = report.to_json(false);
        let keys: Vec<&str> = match &line {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result is an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            line.get("metrics").and_then(Json::as_map).map(|m| m.len()),
            Some(END_TO_END.len())
        );

        // A missing end-to-end metric makes the run incorrect; a missing
        // per-layer metric reads 0.
        report.metrics.pop();
        assert_eq!(
            report.to_json(false).get("correct"),
            Some(&Json::Bool(false))
        );
        let traced = Report {
            attempted: 1,
            ..Report::default()
        }
        .to_json(true);
        assert_eq!(traced.get("correct"), Some(&Json::Bool(true)));
        let metrics = traced
            .get("metrics")
            .and_then(Json::as_map)
            .expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics["trace.spans"].get("value"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = metrics::find("op_p50_ms").expect("metric");
        let higher = metrics::find("ops_per_s").expect("metric");
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 10.0, 11.0) < 0.0);
    }

    #[test]
    fn every_named_workload_has_a_plan() {
        for w in WORKLOADS {
            assert!(plan(w.name).is_some(), "{}", w.name);
        }
        assert!(plan("nope").is_none());
    }

    /// `BENCHMARK.json` at the repository root must list exactly the gated
    /// workloads and the metrics this program knows, with the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let listed = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(listed.len(), metrics::gated().count());
        for (entry, def) in listed.iter().zip(metrics::gated()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(def.why));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }
}
