//! The protocol on real OS threads: the scheduler, a primary/backup shard
//! pair and the workers talking TCP over loopback, wall-clock speculation
//! windows, genuine races.
//!
//! ```sh
//! cargo run --release --example threaded_runtime
//! ```

use std::time::Duration;

use specsync::runtime::{run, RuntimeConfig};
use specsync::{SchemeKind, SimDuration, Workload};

fn main() {
    let schemes = [
        SchemeKind::Asp,
        SchemeKind::specsync_fixed(SimDuration::from_millis(4), 0.25),
        SchemeKind::specsync_adaptive(),
    ];
    println!("6 worker threads, 8 ms padded iterations, 2 s wall budget\n");
    for scheme in schemes {
        let config = RuntimeConfig {
            workers: 6,
            scheme,
            compute_pad: Duration::from_millis(8),
            abort_poll: Duration::from_millis(1),
            max_duration: Duration::from_secs(2),
            eval_stride: 8,
            seed: 5,
            ..RuntimeConfig::default()
        };
        let report = run(&Workload::tiny_test(), &config);
        println!(
            "{:20} iterations {:>5}  aborts {:>4}  best loss {:.4}  ({:?})",
            report.scheme,
            report.total_iterations,
            report.total_aborts,
            report.best_loss().unwrap_or(f64::NAN),
            report.elapsed,
        );
    }
    println!("\n(threaded runs are wall-clock real and intentionally non-deterministic;");
    println!(" use the virtual-time simulator for reproducible experiments)");
}
