//! The trace round trip at the command line: `experiment --trace` records
//! a run, every line of the file parses, and `trace summarize` reads it
//! back into its Eq. 7 table.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use specsync_simnet::WorkerId;
use specsync_telemetry::{read_trace, Event, EventSink, JsonlSink};

#[test]
fn experiment_trace_round_trips_through_summarize() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_cli_round_trip.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(["--workload", "tiny", "--scheme", "adaptive", "--nodes", "4"])
        .args(["--seed", "31", "--horizon", "60", "--trace"])
        .arg(&path)
        .output()
        .expect("launch experiment");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "experiment failed: {stderr}");

    let records = read_trace(&path).expect("every line parses");
    assert!(!records.is_empty());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains(&format!("trace             : {} events", records.len())),
        "{stdout}"
    );

    let output = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("summarize")
        .arg(&path)
        .output()
        .expect("launch trace");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "trace summarize failed: {stderr}");
    let summary = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        summary.contains(&format!("{} events, 4 workers", records.len())),
        "{summary}"
    );
    let (_, table) = summary
        .split_once("estimated vs realized freshness gain per epoch (Eq. 7 check):")
        .unwrap_or_else(|| panic!("no Eq. 7 table: {summary}"));
    // An adaptive run tunes: some epoch row has both an estimate and a
    // realized gain.
    assert!(
        table.lines().skip(2).any(|row| {
            let cells: Vec<&str> = row.split_whitespace().collect();
            cells.len() == 7 && !cells.contains(&"--")
        }),
        "{table}"
    );
}

/// A wire trace's failover is the scheduler's `ShardFailover` on the
/// backup's `Promoted` frame, whose count is the relayed pushes the
/// backup absorbed, not a journal replay: the summary's label holds for
/// both hosts.
#[test]
fn a_wire_failover_is_summarized_under_a_label_for_both_hosts() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_cli_wire_failover.jsonl");
    let sink = JsonlSink::create(&path).expect("create trace");
    let push = Event::Push {
        worker: WorkerId::new(0),
        iteration: 1,
    };
    let failover = Event::ShardFailover {
        shard: 0,
        version: 2,
        replayed: 2,
    };
    sink.record(Duration::from_millis(1), &push);
    sink.record(Duration::from_millis(2), &failover);
    sink.finish().expect("write trace");

    let output = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("summarize")
        .arg(&path)
        .output()
        .expect("launch trace");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "trace summarize failed: {stderr}");
    let summary = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        summary.contains(
            "server fault tolerance: 1 shard failover(s) (2 push(es) carried over to the backup)"
        ),
        "{summary}"
    );
}
