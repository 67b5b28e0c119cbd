//! The paper table is pinned to `experiments_output.txt`: the built
//! `run_all`, limited to the two rows that are cheap in a debug build,
//! must print exactly the committed text of those rows.

use std::process::Command;

#[test]
fn table1_and_chaos_rows_print_the_committed_output() {
    let want = include_str!("../../../experiments_output.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "chaos", "--only", "table1"])
        .output()
        .expect("launch run_all");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run_all failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");

    // Table I is the table's first row and chaos its last, so each must be
    // one contiguous block at its end of the file.
    let (table1, chaos) = stdout.split_at(stdout.find("\n=== Chaos").expect("a chaos section"));
    assert!(table1.starts_with("\n=== Table I"), "{stdout}");
    assert!(
        want.starts_with(table1) && want.ends_with(chaos),
        "{stdout}"
    );
}
