//! Pushes-after-pull (PAP) analysis on a recorded training trace — the
//! paper's §III-A empirical study as a library feature.
//!
//! Runs a short ASP training, then mines its push/pull history: the PAP
//! distribution per interval, the exact freshness gain/loss a deferral
//! window would have had, and the oracle-best window.
//!
//! ```sh
//! cargo run --release --example pap_analysis
//! ```

use specsync::core::{exact_freshness, mean_missed_updates, oracle_best_window, pap_distribution};
use specsync::{
    ClusterSpec, InstanceType, SchemeKind, SimDuration, Trainer, VirtualTime, Workload,
};

fn main() {
    let mut workload = Workload::tiny_test();
    workload.target_loss = 0.0; // pure trace-collection run
    let report = Trainer::new(workload, SchemeKind::Asp)
        .cluster(ClusterSpec::homogeneous(10, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(60))
        .eval_stride(64)
        .seed(11)
        .run();
    let history = &report.history;
    println!(
        "trace: {} pushes, {} pulls",
        history.pushes().len(),
        history.pulls().len()
    );
    println!(
        "mean missed updates per pull (staleness): {:.1}\n",
        mean_missed_updates(history, 10)
    );

    // Fig. 3-style distribution, at this workload's 0.2s iteration scale.
    let dist = pap_distribution(history, SimDuration::from_millis(50), 4);
    println!("PAP distribution per 50 ms interval after a pull:");
    for (k, s) in dist.stats.iter().enumerate() {
        println!(
            "  interval {k}: median {:.1} (p25 {:.1}, p75 {:.1})",
            s.p50, s.p25, s.p75
        );
    }

    // What would deferring every pull by Δ have done? (Problem (3).)
    println!("\nexact freshness gain/loss of a uniform deferral:");
    let candidates: Vec<SimDuration> = (1..=6).map(|k| SimDuration::from_millis(k * 25)).collect();
    for &delta in &candidates {
        let o = exact_freshness(history, delta);
        println!(
            "  delta {delta}: gain {} loss {} net {}",
            o.gain,
            o.loss,
            o.net()
        );
    }
    if let Some((best, outcome)) = oracle_best_window(history, &candidates) {
        println!(
            "oracle-best window: {best} (net freshness {})",
            outcome.net()
        );
    }
}
