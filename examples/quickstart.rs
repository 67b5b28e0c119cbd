//! Quickstart: train one small workload under ASP and under
//! SpecSync-Adaptive on an 8-node virtual cluster and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use specsync::{ClusterSpec, InstanceType, SchemeKind, Trainer, VirtualTime, Workload};

fn main() {
    let cluster = ClusterSpec::homogeneous(8, InstanceType::M4Xlarge);
    println!("training a tiny matrix-factorization workload on 8 virtual m4.xlarge nodes\n");

    let mut results = Vec::new();
    for scheme in [
        SchemeKind::Asp,
        SchemeKind::Bsp,
        SchemeKind::specsync_adaptive(),
    ] {
        let report = Trainer::new(Workload::tiny_test(), scheme)
            .cluster(cluster.clone())
            .horizon(VirtualTime::from_secs(600))
            .seed(7)
            .run();
        println!(
            "{:20} converged at {:>8}  iterations {:>5}  aborts {:>4}  mean staleness {:>5.1}",
            report.scheme,
            report
                .converged_at
                .map_or("--".to_string(), |t| t.to_string()),
            report.total_iterations,
            report.total_aborts,
            report.mean_staleness,
        );
        results.push(report);
    }

    if let Some(speedup) = results[2].speedup_over(&results[0]) {
        println!("\nSpecSync-Adaptive speedup over ASP: {speedup:.2}x");
        println!("(staleness barely hurts at this toy scale; the paper-scale benches in");
        println!(" crates/bench reproduce the 40-node speedups — see `run_all --only fig8`)");
    }
    println!("\nEvery run is deterministic: re-running with the same seed reproduces it exactly.");
}
