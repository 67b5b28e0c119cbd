//! Ad-hoc experiment runner: any (workload × scheme × cluster) from the
//! command line.
//!
//! ```sh
//! experiment --workload cifar --scheme adaptive --nodes 40 --seed 7 \
//!            --horizon 6000 [--hetero] [--curve] [--trace OUT.jsonl]
//! ```
//!
//! Schemes: `asp`, `bsp`, `ssp:<bound>`, `wait:<secs>`,
//! `fixed:<window_secs>:<rate>`, `adaptive`.
//! Workloads: `mf`, `cifar`, `imagenet`, `tiny`.
//!
//! `--trace` records the run's protocol events as JSON lines, for
//! `trace summarize`; a write error on the trace exits 1.

#![expect(clippy::disallowed_methods, reason = "harness: reads its command line")]

use std::path::Path;
use std::sync::Arc;

use specsync_bench::{fmt_bytes, fmt_time, print_curve, time_to_target};
use specsync_cluster::{ClusterSpec, InstanceType, Trainer};
use specsync_ml::Workload;
use specsync_simnet::{SimDuration, VirtualTime};
use specsync_sync::SchemeKind;
use specsync_telemetry::{EventSink, JsonlSink};

fn usage() -> ! {
    eprintln!(
        "usage: experiment [--workload mf|cifar|imagenet|tiny] [--scheme asp|bsp|ssp:N|wait:S|fixed:W:R|adaptive]\n\
         \x20                 [--nodes N] [--seed S] [--horizon SECS] [--hetero] [--curve]\n\
         \x20                 [--trace OUT.jsonl]"
    );
    std::process::exit(2);
}

fn parse_scheme(s: &str) -> SchemeKind {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["asp"] => SchemeKind::Asp,
        ["bsp"] => SchemeKind::Bsp,
        ["ssp", b] => SchemeKind::Ssp {
            bound: b.parse().unwrap_or_else(|_| usage()),
        },
        ["wait", secs] => SchemeKind::NaiveWaiting {
            delay: SimDuration::from_secs_f64(secs.parse().unwrap_or_else(|_| usage())),
        },
        ["fixed", w, r] => SchemeKind::specsync_fixed(
            SimDuration::from_secs_f64(w.parse().unwrap_or_else(|_| usage())),
            r.parse().unwrap_or_else(|_| usage()),
        ),
        ["adaptive"] => SchemeKind::specsync_adaptive(),
        _ => usage(),
    }
}

fn parse_workload(s: &str) -> Workload {
    match s {
        "mf" => Workload::matrix_factorization(),
        "cifar" => Workload::cifar_like(),
        "imagenet" => Workload::imagenet_like(),
        "tiny" => Workload::tiny_test(),
        _ => usage(),
    }
}

fn main() {
    let mut workload = Workload::cifar_like();
    let mut scheme = SchemeKind::specsync_adaptive();
    let mut nodes = 40usize;
    let mut seed = 42u64;
    let mut horizon = 6000f64;
    let mut hetero = false;
    let mut show_curve = false;
    let mut trace = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = parse_workload(value()),
            "--scheme" => scheme = parse_scheme(value()),
            "--nodes" => nodes = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--horizon" => horizon = value().parse().unwrap_or_else(|_| usage()),
            "--hetero" => hetero = true,
            "--curve" => show_curve = true,
            "--trace" => trace = Some(value().to_string()),
            _ => usage(),
        }
    }

    let cluster = if hetero {
        assert_eq!(nodes, 40, "the heterogeneous preset is 40 nodes");
        ClusterSpec::paper_cluster2()
    } else {
        ClusterSpec::homogeneous(nodes, InstanceType::M4Xlarge)
    };

    let trace = trace.map(|path| match JsonlSink::create(Path::new(&path)) {
        Ok(sink) => (path, Arc::new(sink)),
        Err(e) => fail(&format!("cannot create {path}: {e}")),
    });
    let target = workload.target_loss;
    println!(
        "workload {} | scheme {} | {} nodes{} | seed {seed} | horizon {horizon}s | target {target}",
        workload.paper.name,
        scheme.label(),
        nodes,
        if hetero { " (heterogeneous)" } else { "" },
    );
    let mut trainer = Trainer::new(workload, scheme)
        .cluster(cluster)
        .horizon(VirtualTime::from_secs_f64(horizon))
        .eval_stride(8)
        .seed(seed);
    if let Some((_, sink)) = &trace {
        trainer = trainer.sink(Arc::clone(sink) as Arc<dyn EventSink<VirtualTime>>);
    }
    let report = trainer.run();

    if show_curve {
        let mut curve = String::new();
        print_curve(&mut curve, "loss curve", &report, 16).expect("writing to a String");
        print!("{curve}");
    }
    println!(
        "runtime to target : {}s{}",
        fmt_time(time_to_target(&report, target)),
        if report.converged_at.is_none() {
            " (did not converge)"
        } else {
            ""
        }
    );
    println!(
        "iterations        : {} ({} aborted)",
        report.total_iterations, report.total_aborts
    );
    println!(
        "mean staleness    : {:.1} missed updates per pull",
        report.mean_staleness
    );
    println!("wasted compute    : {}", report.wasted_compute);
    println!(
        "data transferred  : {}",
        fmt_bytes(report.transfer.total_bytes())
    );
    if let Some((epoch, h)) = report.hyperparams_trace.last() {
        if !h.is_disabled() {
            println!(
                "final hyperparams : ABORT_TIME {} ABORT_RATE {:.3} (epoch {epoch})",
                h.abort_time(),
                h.abort_rate()
            );
        }
    }
    if let Some((path, sink)) = trace {
        // The run has ended and dropped its clones, so this handle is the
        // last one and `finish` can surface any write error.
        let sink = Arc::try_unwrap(sink).unwrap_or_else(|_| fail("trace sink still shared"));
        let lines = sink.lines_written();
        if let Err(e) = sink.finish() {
            fail(&format!("write error on {path}: {e}"));
        }
        println!("trace             : {lines} events to {path}");
    }
}

fn fail(message: &str) -> ! {
    eprintln!("experiment: {message}");
    std::process::exit(1);
}
