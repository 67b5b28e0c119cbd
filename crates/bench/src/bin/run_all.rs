//! Runs every experiment binary — the one-command regeneration of all
//! tables and figures. Output is suitable for diffing against
//! `EXPERIMENTS.md`: the binaries fan out across cores with
//! [`specsync_bench::parallel_map`], and each child's stdout is captured
//! and printed in a fixed order regardless of completion order.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Output};
use std::time::Instant;

use specsync_bench::parallel_map;

const BINARIES: [&str; 12] = [
    "table1_workloads",
    "fig3_pap",
    "fig5_naive_waiting",
    "fig8_effectiveness",
    "fig9_iterations",
    "fig10_heterogeneity",
    "fig11_scalability",
    "fig12_data_transfer",
    "fig13_breakdown",
    "table2_search_cost",
    "ablation_ssp",
    "ablation_estimator",
];

fn launch(dir: &Path, bin: &str) -> (Output, f64) {
    let start = Instant::now();
    let output = Command::new(dir.join(bin))
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    (output, start.elapsed().as_secs_f64())
}

fn relay(bin: &str, output: &Output, secs: f64) {
    eprintln!(">>> {bin} ({secs:.1}s)");
    std::io::stdout().write_all(&output.stdout).expect("stdout");
    std::io::stderr().write_all(&output.stderr).expect("stderr");
    assert!(
        output.status.success(),
        "{bin} exited with {}",
        output.status
    );
}

fn main() {
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe directory").to_path_buf();

    // Children are independent: fan the whole batch out and print the
    // captured outputs in the fixed BINARIES order.
    let results = parallel_map(BINARIES.to_vec(), |bin| launch(&dir, bin));
    for (bin, (output, secs)) in BINARIES.iter().zip(&results) {
        relay(bin, output, *secs);
    }
}
