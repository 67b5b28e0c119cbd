//! The paper's evaluation as one table: every table and figure of §VI, the
//! §IV ablations and the chaos experiment are rows of [`ROWS`]. `run_all`
//! runs every row (what `experiments_output.txt` holds); `run_all --only
//! NAME`, repeatable, runs a subset, always in table order.
//!
//! Each row writes into its own buffer; the rows fan out across cores with
//! [`parallel_map`] and the buffers print in table order, so stdout is
//! byte-identical to a serial run. Per-row wall-clock timings go to stderr.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "harness: wall-clock timing, sleeps and the command line never run inside a simulation"
)]

use std::fmt::{self, Write as _};
use std::io::{self, Write as _};
use std::time::Instant;

use specsync_bench::{
    fmt_bytes, fmt_time, iterations_to_target, parallel_map, print_curve, section, time_to_target,
    RunMatrix,
};
use specsync_cluster::{ClusterSpec, InstanceType, Trainer};
use specsync_core::estimator::{estimate_improvement, estimate_realized_improvement, EpochView};
use specsync_core::{exact_freshness, pap_distribution, uniform_trace, AdaptiveTuner};
use specsync_ml::{Workload, WorkloadKind};
use specsync_simnet::{
    CrashEvent, DurationSampler, FaultPlan, LinkFaultProfile, MessageClass, RngStreams,
    ServerCrashEvent, SimDuration, StragglerWindow, VirtualTime, WorkerId,
};
use specsync_sync::{BaseScheme, SchemeKind, TuningMode};

/// A paper-table row: its `--only` name and the body writing its section(s).
type Row = (&'static str, fn(&mut String) -> fmt::Result);

/// Every row, in output order.
const ROWS: [Row; 13] = [
    ("table1", table1),
    ("fig3", fig3),
    ("fig5", fig5),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("table2", table2),
    ("ablation_ssp", ablation_ssp),
    ("ablation_estimator", ablation_estimator),
    ("chaos", chaos),
];

/// Horizons (s) of the per-workload figures, in [`WorkloadKind::ALL`] order.
const HORIZONS: [f64; 3] = [2500.0, 6000.0, 25000.0];

/// The paper's 40-node homogeneous Cluster 1 run: eval stride 8, seed 42.
fn paper_trainer(workload: Workload, scheme: SchemeKind, horizon_secs: f64) -> Trainer {
    Trainer::new(workload, scheme)
        .cluster(ClusterSpec::paper_cluster1())
        .horizon(VirtualTime::from_secs_f64(horizon_secs))
        .eval_stride(8)
        .seed(42)
}

/// Table I: workload summary.
///
/// Prints the paper-reported profile of each workload next to the scaled
/// configuration actually trained here, so the substitution is visible in
/// every experiment log.
fn table1(out: &mut String) -> fmt::Result {
    section(
        out,
        "Table I: workload summary (paper profile vs scaled substitute)",
    )?;
    writeln!(
        out,
        "{:<10} {:>13} {:>12} {:>13} {:>11} | {:>13} {:>10}",
        "Workload", "#params", "Dataset", "Dataset size", "Iter time", "scaled params", "batch"
    )?;
    for kind in WorkloadKind::ALL {
        let w = Workload::from_kind(kind);
        writeln!(
            out,
            "{:<10} {:>13} {:>12} {:>13} {:>10}s | {:>13} {:>10}",
            w.paper.name,
            w.paper.num_parameters,
            w.paper.dataset,
            w.paper.dataset_size,
            w.paper.iteration_secs,
            w.scaled_num_params(),
            w.batch_size,
        )?;
    }
    Ok(())
}

/// Fig. 3: distribution of pushes-after-pull (PAP) per 1-second interval.
///
/// Runs the CIFAR-10-like and MF workloads under plain ASP on the paper's
/// 40-node cluster, then prints box statistics (p5/p25/p50/p75/p95) of the
/// number of pushes received in each 1-second interval after a pull — the
/// data behind the paper's observation that arrivals are roughly uniform
/// and that a short delay uncovers many updates (§III-A).
fn fig3(out: &mut String) -> fmt::Result {
    for (kind, horizon_secs, intervals) in [
        (WorkloadKind::CifarLike, 1200.0, 14usize),
        (WorkloadKind::MatrixFactorization, 400.0, 3usize),
    ] {
        let mut workload = Workload::from_kind(kind);
        workload.target_loss = 0.0; // trace collection run: no early stop
        let name = workload.paper.name;
        let report = paper_trainer(workload, SchemeKind::Asp, horizon_secs)
            .eval_stride(64)
            .run();

        let dist = pap_distribution(&report.history, 40, SimDuration::from_secs(1), intervals);
        section(
            out,
            &format!(
                "Fig. 3 ({name}): PAP per 1-second interval after a pull ({} pulls sampled)",
                dist.samples_per_interval
            ),
        )?;
        writeln!(
            out,
            "{:>9} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "interval", "p5", "p25", "p50", "p75", "p95"
        )?;
        for (k, s) in dist.stats.iter().enumerate() {
            writeln!(
                out,
                "{:>4}-{:<4} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                k,
                k + 1,
                s.p5,
                s.p25,
                s.p50,
                s.p75,
                s.p95
            )?;
        }
        // The paper's headline from this figure: the median number of
        // pushes uncovered within the first two seconds.
        let first_two: f64 = dist.stats.iter().take(2).map(|s| s.p50).sum();
        writeln!(
            out,
            "median pushes hidden within 2s of a pull: {first_two:.1} (paper: >6 for CIFAR-10)"
        )?;
    }
    Ok(())
}

/// Fig. 5: learning curves under naïve waiting.
///
/// Each pull request is deferred by a fixed delay; the paper shows that a
/// small delay (1 s) helps, while larger delays (3–5 s on CIFAR-10) waste
/// enough compute to do more harm than good — the motivation for
/// speculation instead of blind waiting (§III-B).
fn fig5(out: &mut String) -> fmt::Result {
    for (kind, delays, horizon_secs) in [
        (WorkloadKind::CifarLike, vec![0.0, 1.0, 3.0, 5.0], 4000.0),
        (
            WorkloadKind::MatrixFactorization,
            vec![0.0, 0.25, 1.0],
            900.0,
        ),
    ] {
        let workload = Workload::from_kind(kind);
        let name = workload.paper.name;
        let target = workload.target_loss;
        section(
            out,
            &format!("Fig. 5 ({name}): naive waiting, target loss {target}"),
        )?;
        for delay in delays {
            let mut w = workload.clone();
            w.target_loss = 0.0; // run to horizon so curves are comparable
            let scheme = if delay == 0.0 {
                SchemeKind::Asp
            } else {
                SchemeKind::NaiveWaiting {
                    delay: SimDuration::from_secs_f64(delay),
                }
            };
            let report = paper_trainer(w, scheme, horizon_secs).run();
            let label = if delay == 0.0 {
                "original".to_string()
            } else {
                format!("delay {delay}s")
            };
            print_curve(out, &format!("{label} (loss/time)"), &report, 8)?;
            writeln!(
                out,
                "{label:24} time-to-target: {}s, best loss {:.4}",
                fmt_time(time_to_target(&report, target)),
                report.best_loss_by(report.finished_at).unwrap_or(f64::NAN)
            )?;
        }
    }
    Ok(())
}

/// Fig. 8: effectiveness of SpecSync — loss over time and runtime to
/// convergence for Original (ASP), SpecSync-Cherrypick and
/// SpecSync-Adaptive on all three workloads, 40-node homogeneous cluster.
///
/// The paper reports speedups of up to 2.97× (MF), 2.25× (CIFAR-10) and
/// 3× (ImageNet). Cherrypick here searches a reduced 3×3 grid (the paper
/// used 5–10 × 10 grids; Table II's point is precisely that this search is
/// expensive, so the reproduction keeps it small — the grid bounds follow
/// the paper: windows up to half the iteration time).
fn fig8(out: &mut String) -> fmt::Result {
    let workloads = WorkloadKind::ALL.map(Workload::from_kind);

    // Every run of the figure — Original, the 3x3 cherry-pick grid and
    // Adaptive, for all three workloads — is an independent simulation, so
    // the whole batch fans out across cores at once. Per workload the
    // insertion order is: Original, 9 grid points, Adaptive.
    let mut matrix = RunMatrix::new();
    for (workload, horizon) in workloads.iter().zip(HORIZONS) {
        let asp = SchemeKind::Asp;
        matrix.add(asp, paper_trainer(workload.clone(), asp, horizon));
        let iter = workload.mean_iteration_secs;
        for frac in [0.15, 0.3, 0.45] {
            for rate in [0.1, 0.2, 0.35] {
                let scheme =
                    SchemeKind::specsync_fixed(SimDuration::from_secs_f64(iter * frac), rate);
                matrix.add(scheme, paper_trainer(workload.clone(), scheme, horizon));
            }
        }
        let adaptive = SchemeKind::specsync_adaptive();
        matrix.add(adaptive, paper_trainer(workload.clone(), adaptive, horizon));
    }
    let mut results = matrix.run().into_iter();

    for workload in &workloads {
        let name = workload.paper.name;
        let target = workload.target_loss;
        section(
            out,
            &format!("Fig. 8 ({name}): target loss {target}, 40 x m4.xlarge"),
        )?;

        let (_, original) = results.next().expect("matrix order: Original");
        // Cherrypick is the grid point that reaches the target first (the
        // first one on ties, or the first point if none reaches it).
        let (cherry_scheme, cherry) = results
            .by_ref()
            .take(9)
            .min_by_key(|(_, report)| {
                let t = time_to_target(report, target);
                (t.is_none(), t)
            })
            .expect("grid is non-empty");
        let (_, adaptive) = results.next().expect("matrix order: Adaptive");

        for (label, report) in [
            ("Original", &original),
            ("SpecSync-Cherrypick", &cherry),
            ("SpecSync-Adaptive", &adaptive),
        ] {
            print_curve(out, label, report, 8)?;
            let t = time_to_target(report, target);
            writeln!(
                out,
                "{label:24} runtime {}s  iterations {}  aborts {}  mean staleness {:.1}",
                fmt_time(t),
                report.total_iterations,
                report.total_aborts,
                report.mean_staleness
            )?;
        }
        if let SchemeKind::SpecSync { tuning, .. } = cherry_scheme {
            writeln!(out, "cherry-picked hyperparams: {tuning:?}")?;
        }

        let t_orig = time_to_target(&original, target);
        for (label, report) in [("Cherrypick", &cherry), ("Adaptive", &adaptive)] {
            let speedup = match (time_to_target(report, target), t_orig) {
                (Some(mine), Some(orig)) => {
                    format!("{:.2}x", orig.as_secs_f64() / mine.as_secs_f64())
                }
                (Some(_), None) => "inf (Original never converged)".to_string(),
                _ => "--".to_string(),
            };
            writeln!(out, "speedup of {label} over Original: {speedup}")?;
        }
    }
    writeln!(
        out,
        "\n(paper Fig. 8: up to 2.97x on MF, 2.25x on CIFAR-10, 3x on ImageNet)"
    )
}

/// Fig. 9: loss as a function of the accumulated iteration count.
///
/// With SpecSync, re-synchronized iterations take longer but use fresher
/// parameters, so convergence needs fewer *iterations* — the paper measures
/// up to 58% fewer. This row prints loss-vs-iterations for Original and
/// SpecSync-Adaptive and the iteration reduction at the target loss.
fn fig9(out: &mut String) -> fmt::Result {
    let schemes = [
        ("Original", SchemeKind::Asp),
        ("SpecSync-Adaptive", SchemeKind::specsync_adaptive()),
    ];
    let workloads = WorkloadKind::ALL.map(Workload::from_kind);

    // All six (workload, scheme) runs are independent: fan out at once and
    // consume the reports in insertion order.
    let mut matrix = RunMatrix::new();
    for (workload, horizon) in workloads.iter().zip(HORIZONS) {
        for (label, scheme) in schemes {
            matrix.add(label, paper_trainer(workload.clone(), scheme, horizon));
        }
    }
    let mut reports = matrix.run().into_iter();

    for workload in &workloads {
        let name = workload.paper.name;
        let target = workload.target_loss;
        section(
            out,
            &format!("Fig. 9 ({name}): loss vs accumulated iterations, target {target}"),
        )?;

        let mut results = Vec::new();
        for (label, report) in reports.by_ref().take(schemes.len()) {
            write!(out, "{label:24}")?;
            for p in report.sampled_curve(8) {
                write!(out, " {}it:{:.3}", p.iterations, p.loss)?;
            }
            writeln!(out)?;
            let iters = iterations_to_target(&report, target);
            writeln!(
                out,
                "{label:24} iterations to target: {}  (total run: {})",
                iters.map_or("--".into(), |i| i.to_string()),
                report.total_iterations
            )?;
            results.push(iters);
        }
        if let [Some(orig), Some(spec)] = results[..] {
            let reduction = 100.0 * (1.0 - spec as f64 / orig as f64);
            writeln!(
                out,
                "iteration reduction: {reduction:.0}% (paper: up to 58%)"
            )?;
        }
    }
    Ok(())
}

/// Fig. 10: robustness to heterogeneity.
///
/// CIFAR-10 on the paper's Cluster 2 (10 × m3.xlarge, 10 × m3.2xlarge,
/// 10 × m4.xlarge, 10 × m4.2xlarge) against the homogeneous Cluster 1.
/// The paper observes: SpecSync-Adaptive beats Original on both clusters;
/// heterogeneity slows everyone; and the SpecSync speedup *shrinks* under
/// heterogeneity because the tuner's uniform-arrival assumption degrades.
fn fig10(out: &mut String) -> fmt::Result {
    let workload = Workload::cifar_like();
    let target = workload.target_loss;
    section(
        out,
        &format!("Fig. 10: CIFAR-10 homogeneous vs heterogeneous, target {target}"),
    )?;

    let clusters = [
        ("homogeneous (Cluster 1)", ClusterSpec::paper_cluster1()),
        ("heterogeneous (Cluster 2)", ClusterSpec::paper_cluster2()),
    ];
    let schemes = [
        ("Original", SchemeKind::Asp),
        ("SpecSync-Adaptive", SchemeKind::specsync_adaptive()),
    ];

    // The four (cluster, scheme) runs are independent: fan out at once.
    let mut matrix = RunMatrix::new();
    for (_, cluster) in &clusters {
        for (label, scheme) in schemes {
            matrix.add(
                label,
                paper_trainer(workload.clone(), scheme, 8000.0).cluster(cluster.clone()),
            );
        }
    }
    let mut reports = matrix.run().into_iter();

    let mut speedups = Vec::new();
    for (cluster_label, _) in clusters {
        let mut times = Vec::new();
        for (label, report) in reports.by_ref().take(schemes.len()) {
            let full = format!("{label} / {cluster_label}");
            print_curve(out, &full, &report, 8)?;
            let t = time_to_target(&report, target);
            writeln!(
                out,
                "{full:64} runtime {}s  mean staleness {:.1}",
                fmt_time(t),
                report.mean_staleness
            )?;
            times.push(t);
        }
        if let [Some(orig), Some(spec)] = times[..] {
            let s = orig.as_secs_f64() / spec.as_secs_f64();
            writeln!(out, "{cluster_label}: SpecSync-Adaptive speedup {s:.2}x")?;
            speedups.push(s);
        } else {
            writeln!(
                out,
                "{cluster_label}: Original did not converge within the horizon"
            )?;
        }
    }
    if let [homo, hetero] = speedups[..] {
        writeln!(
            out,
            "\nspeedup homogeneous {homo:.2}x vs heterogeneous {hetero:.2}x (paper: smaller under heterogeneity)"
        )?;
    }
    Ok(())
}

/// Fig. 11: scalability with cluster size (CIFAR-10; 20/30/40 nodes).
///
/// Left plot: speedup of SpecSync-Adaptive over Original in runtime to the
/// same target loss. Right plot: loss improvement at a fixed time budget.
/// The paper finds the improvement *grows* with cluster size.
fn fig11(out: &mut String) -> fmt::Result {
    let workload = Workload::cifar_like();
    let target = workload.target_loss;
    let budget = VirtualTime::from_secs(1500);
    section(
        out,
        &format!("Fig. 11: CIFAR-10 scalability, target {target}, budget {budget}"),
    )?;
    writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>9} | {:>12} {:>12} {:>12}",
        "nodes", "orig time", "spec time", "speedup", "orig loss", "spec loss", "improvement"
    )?;

    let sizes = [20, 30, 40];
    // All six (size, scheme) runs are independent: fan out at once.
    let mut matrix = RunMatrix::new();
    for n in sizes {
        for scheme in [SchemeKind::Asp, SchemeKind::specsync_adaptive()] {
            let mut w = workload.clone();
            w.target_loss = 0.0; // run to horizon: both metrics need curves
            matrix.add(
                n,
                paper_trainer(w, scheme, 8000.0).cluster(ClusterSpec::paper_sized(n)),
            );
        }
    }
    let mut results = matrix.run().into_iter();

    for n in sizes {
        let reports: Vec<_> = results.by_ref().take(2).map(|(_, r)| r).collect();
        let t_orig = time_to_target(&reports[0], target);
        let t_spec = time_to_target(&reports[1], target);
        let speedup = match (t_orig, t_spec) {
            (Some(o), Some(s)) => format!("{:.2}x", o.as_secs_f64() / s.as_secs_f64()),
            _ => "--".to_string(),
        };
        let l_orig = reports[0].best_loss_by(budget).unwrap_or(f64::NAN);
        let l_spec = reports[1].best_loss_by(budget).unwrap_or(f64::NAN);
        writeln!(
            out,
            "{n:>6} {:>13}s {:>13}s {speedup:>9} | {l_orig:>12.4} {l_spec:>12.4} {:>11.1}%",
            fmt_time(t_orig),
            fmt_time(t_spec),
            100.0 * (l_orig - l_spec) / l_orig,
        )?;
    }
    writeln!(
        out,
        "(paper: improvement grows with cluster size in both scenarios)"
    )
}

/// Fig. 12: accumulated data transfer over time, Original vs
/// SpecSync-Adaptive.
///
/// The paper's claims: the two curves are nearly identical while both run
/// (SpecSync's control traffic is negligible), and because SpecSync
/// finishes earlier its *total* transfer is smaller — e.g. 2.00 TB vs
/// 3.17 TB on CIFAR-10 (≈ 40% saved).
fn fig12(out: &mut String) -> fmt::Result {
    for (kind, horizon) in WorkloadKind::ALL.into_iter().zip(HORIZONS) {
        let workload = Workload::from_kind(kind);
        let name = workload.paper.name;
        section(
            out,
            &format!("Fig. 12 ({name}): accumulated data transfer over time"),
        )?;

        let mut totals = Vec::new();
        for (label, scheme) in [
            ("Original", SchemeKind::Asp),
            ("SpecSync-Adaptive", SchemeKind::specsync_adaptive()),
        ] {
            let report = paper_trainer(workload.clone(), scheme, horizon).run();
            // Accumulate transfer up to the convergence point (the paper's
            // curves end when each scheme's training ends).
            let end = time_to_target(&report, workload.target_loss).unwrap_or(report.finished_at);
            let series = report.transfer.cumulative_series(end, 6);
            write!(out, "{label:24}")?;
            for (t, bytes) in &series {
                write!(out, " {:.0}s:{}", t.as_secs_f64(), fmt_bytes(*bytes))?;
            }
            writeln!(out)?;
            let total = series.last().map_or(0, |&(_, b)| b);
            writeln!(
                out,
                "{label:24} total transfer to convergence: {}",
                fmt_bytes(total)
            )?;
            totals.push(total);
        }
        if let [orig, spec] = totals[..] {
            if orig > 0 {
                writeln!(
                    out,
                    "transfer saved by SpecSync-Adaptive: {:.0}% (paper CIFAR-10: ~40%)",
                    100.0 * (orig as f64 - spec as f64) / orig as f64
                )?;
            }
        }
    }
    Ok(())
}

/// Fig. 13: transfer breakdown for SpecSync-Adaptive by message class, plus
/// the centralized-vs-broadcast ablation from §V-A.
///
/// The pull/push (data-plane) traffic dominates; `notify`/`re-sync`
/// control traffic is negligible — the paper's justification for claiming
/// "little additional communication overhead". The ablation computes what
/// the control plane would cost if every worker broadcast its notify to all
/// peers instead of reporting to the central scheduler.
fn fig13(out: &mut String) -> fmt::Result {
    for (kind, horizon) in WorkloadKind::ALL.into_iter().zip(HORIZONS) {
        let workload = Workload::from_kind(kind);
        let name = workload.paper.name;
        let m = 40u64;
        let report = paper_trainer(workload, SchemeKind::specsync_adaptive(), horizon).run();

        section(
            out,
            &format!("Fig. 13 ({name}): SpecSync-Adaptive transfer breakdown"),
        )?;
        let total = report.transfer.total_bytes().max(1);
        for (class, bytes) in report.transfer.breakdown() {
            writeln!(
                out,
                "{:>8}: {:>12}  ({:.4}%)",
                class.label(),
                fmt_bytes(bytes),
                100.0 * bytes as f64 / total as f64
            )?;
        }
        let control = report.transfer.bytes_for(MessageClass::Notify)
            + report.transfer.bytes_for(MessageClass::Resync);
        writeln!(
            out,
            "control-plane share: {:.4}% of total",
            100.0 * control as f64 / total as f64
        )?;

        // §V-A ablation: a direct implementation broadcasts each notify to
        // the m−1 peers instead of sending one message to the scheduler.
        let notifies = report.scheduler_stats.notifies;
        let central = notifies * 16;
        let broadcast = notifies * 16 * (m - 1);
        writeln!(
            out,
            "centralized scheduler control traffic: {} vs broadcast equivalent: {} ({}x more)",
            fmt_bytes(central),
            fmt_bytes(broadcast),
            m - 1
        )?;
    }
    Ok(())
}

/// Table II: cost of exhaustive hyperparameter search (Cherrypick) vs the
/// adaptive tuner.
///
/// The grid dimensions and per-trial times come from the paper; the total
/// search time is their product. For contrast, the measured wall-clock cost
/// of one Algorithm-1 adaptive tuning pass on a realistic push history is
/// printed below (the paper: "little overhead … no additional profiling
/// experiment is needed").
fn table2(out: &mut String) -> fmt::Result {
    section(out, "Table II: cherrypick exhaustive-search cost")?;
    writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12} {:>14}",
        "workload", "#time trial", "#rate trial", "trial (h)", "total (h)"
    )?;
    // (workload, time trials, rate trials, hours per trial)
    for (workload, time_trials, rate_trials, trial_hours) in [
        ("MF", 5, 10, 1.33),
        ("CIFAR-10", 7, 10, 6.0),
        ("ImageNet", 10, 10, 8.0),
    ] {
        let total = f64::from(time_trials * rate_trials) * trial_hours;
        writeln!(
            out,
            "{workload:<10} {time_trials:>12} {rate_trials:>12} {trial_hours:>12.2} {total:>14.0}"
        )?;
    }
    writeln!(out, "(paper totals: 40 h / 420 h / >800 h)")?;

    // Adaptive tuner cost on a 40-worker epoch history.
    let mut history = uniform_trace(40, 14.0, 12);
    history.mark_epoch();
    let tuner = AdaptiveTuner::default();
    let start = Instant::now();
    let iterations = 50;
    let mut outcome = None;
    for _ in 0..iterations {
        outcome = tuner.tune(&history, 40);
    }
    let per_pass = start.elapsed() / iterations;
    writeln!(
        out,
        "\nAdaptive (Algorithm 1) cost per tuning pass: {per_pass:?} — no profiling runs needed"
    )?;
    if let Some(o) = outcome {
        writeln!(
            out,
            "  tuned on {} candidate windows -> ABORT_TIME {}, ABORT_RATE {:.3}",
            o.candidates_evaluated,
            o.hyperparams.abort_time(),
            o.hyperparams.abort_rate()
        )?;
    }
    Ok(())
}

/// Ablation (§IV-A): SpecSync composed over SSP vs plain SSP vs
/// SpecSync-over-ASP.
///
/// The paper argues SpecSync "can be flexibly implemented in both ASP and
/// SSP models, complementing them with improved performance" — with SSP,
/// workers get a chance to refresh *before* the staleness bound trips.
fn ablation_ssp(out: &mut String) -> fmt::Result {
    let workload = Workload::cifar_like();
    let target = workload.target_loss;
    section(
        out,
        &format!("Ablation: SpecSync over SSP (CIFAR-10, target {target})"),
    )?;
    writeln!(
        out,
        "{:<34} {:>10} {:>8} {:>10}",
        "scheme", "runtime", "aborts", "staleness"
    )?;
    for scheme in [
        SchemeKind::Asp,
        SchemeKind::Ssp { bound: 1 },
        SchemeKind::Ssp { bound: 4 },
        SchemeKind::specsync_adaptive(),
        SchemeKind::SpecSync {
            base: BaseScheme::Ssp { bound: 1 },
            tuning: TuningMode::Adaptive,
        },
        SchemeKind::SpecSync {
            base: BaseScheme::Ssp { bound: 4 },
            tuning: TuningMode::Adaptive,
        },
    ] {
        let report = paper_trainer(workload.clone(), scheme, 8000.0).run();
        writeln!(
            out,
            "{:<34} {:>9}s {:>8} {:>10.1}",
            report.scheme,
            fmt_time(time_to_target(&report, target)),
            report.total_aborts,
            report.mean_staleness,
        )?;
    }
    writeln!(
        out,
        "(paper: speculation improves both the ASP and the SSP base scheme)"
    )
}

/// Ablation (§IV-B): estimator variants for Algorithm 1 on a real trace.
///
/// Compares, on the push history of an actual ASP run:
/// 1. the literal Eq. (7) objective (single-pull gains, unconditional
///    loss),
/// 2. the averaged-gain Eq. (7),
/// 3. the realized (threshold-replayed) objective the tuner ships with,
/// 4. the hindsight-exact freshness objective (Problem (3)),
///
/// across candidate windows — showing why the literal objective cannot
/// rank windows under near-uniform arrivals (it hovers around zero) while
/// the realized objective exposes the burst structure.
fn ablation_estimator(out: &mut String) -> fmt::Result {
    let mut workload = Workload::cifar_like();
    workload.target_loss = 0.0;
    let report = paper_trainer(workload, SchemeKind::Asp, 1500.0)
        .eval_stride(64)
        .run();
    let history = &report.history;
    let m = 40;

    section(
        out,
        &format!(
            "Ablation: tuning objectives on a real ASP trace ({} pushes)",
            history.len()
        ),
    )?;
    let literal_view = EpochView::from_history(history, m, report.finished_at);
    let recent_view = EpochView::from_recent(history, m, 4);

    writeln!(
        out,
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "delta", "literal Eq.7", "avg-gain Eq.7", "realized", "exact (hindsight)"
    )?;
    for secs in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0] {
        let delta = SimDuration::from_secs_f64(secs);
        let literal = estimate_improvement(history, &literal_view, delta);
        let averaged = estimate_improvement(history, &recent_view, delta);
        let realized = estimate_realized_improvement(history, &recent_view, delta);
        let exact = exact_freshness(history, delta).net();
        writeln!(
            out,
            "{secs:>7}s {literal:>14.2} {averaged:>14.2} {realized:>14.2} {exact:>14}"
        )?;
    }
    writeln!(
        out,
        "\n(literal/averaged Eq.7 hover near zero under near-uniform arrivals; the\n \
         realized objective, like the runtime abort rule, credits only bursts)"
    )
}

/// The lossy-network profile: notify loss well above the acceptance bar
/// (10%), light data loss, duplicates and delay spikes.
fn lossy_plan(seed: u64) -> FaultPlan {
    let streams = RngStreams::new(seed);
    let data = LinkFaultProfile {
        drop_prob: 0.05,
        duplicate_prob: 0.02,
        spike_prob: 0.01,
        spike: DurationSampler::Constant { secs: 0.05 },
    };
    FaultPlan::new(&streams)
        .with_profile(MessageClass::Notify, LinkFaultProfile::drop_only(0.10))
        .with_profile(MessageClass::PullParams, data)
        .with_profile(MessageClass::PushGrad, data)
        .with_profile(MessageClass::Resync, LinkFaultProfile::drop_only(0.05))
}

/// The full chaos profile: the lossy network plus one straggler window
/// and two crash/recover cycles. The events are packed into the first
/// seconds of the run because the tiny workload converges in under ten
/// virtual seconds — they must land while training is still in flight.
fn chaos_plan(seed: u64) -> FaultPlan {
    lossy_plan(seed)
        .with_straggler(StragglerWindow {
            worker: WorkerId::new(1),
            start: VirtualTime::from_secs(1),
            end: VirtualTime::from_secs(4),
            slowdown: 3.0,
        })
        .with_crash(CrashEvent {
            worker: WorkerId::new(2),
            at: VirtualTime::from_secs(2),
            recover_at: Some(VirtualTime::from_secs(5)),
        })
        .with_crash(CrashEvent {
            worker: WorkerId::new(3),
            at: VirtualTime::from_secs(3),
            recover_at: Some(VirtualTime::from_secs(6)),
        })
}

/// The server-failure profile: the lossy network plus one parameter-server
/// shard crash early in the run, with the crashed node rejoining as a warm
/// backup a few seconds later. Exercises the full failover protocol —
/// parked traffic, backup promotion, journal replay.
fn server_failure_plan(seed: u64) -> FaultPlan {
    lossy_plan(seed).with_server_crash(ServerCrashEvent {
        server: 0,
        at: VirtualTime::from_secs(2),
        recover_at: Some(VirtualTime::from_secs(6)),
    })
}

/// Chaos experiment: how gracefully does each scheme degrade under faults?
///
/// Runs every scheme (Original/ASP, SSP, BSP, SpecSync-Adaptive) on the
/// same cluster under four fault profiles and reports the
/// time-to-target-loss degradation relative to that scheme's fault-free
/// baseline:
///
/// - **fault-free** — the baseline; the chaos counters must all be zero.
/// - **lossy** — 10% of notifies dropped, 5% of data messages dropped,
///   2% duplicated, occasional delay spikes.
/// - **chaos** — the lossy network plus one straggler window and two
///   worker crash/recover cycles.
/// - **server-failure** — the lossy network plus a parameter-server
///   shard crash mid-run: traffic parks, the warm backup is promoted,
///   the journal replays, and the crashed node later rejoins as backup.
///
/// Everything is seeded and replayed in virtual time, so every cell of
/// the table is reproducible (`run_all --only chaos`).
fn chaos(out: &mut String) -> fmt::Result {
    const WORKERS: usize = 8;
    const SEED: u64 = 42;
    const HORIZON_SECS: u64 = 200;
    let workload = Workload::tiny_test();
    let target = workload.target_loss;
    section(
        out,
        &format!(
            "Chaos: loss-vs-time degradation under fault injection ({WORKERS} workers, target {target})"
        ),
    )?;

    // Named fault profiles; `None` is the fault-free baseline.
    let profiles = [
        ("fault-free", None),
        ("lossy", Some(lossy_plan(SEED))),
        ("chaos", Some(chaos_plan(SEED))),
        ("server-failure", Some(server_failure_plan(SEED))),
    ];
    let schemes = [
        ("Original", SchemeKind::Asp),
        ("SSP(3)", SchemeKind::Ssp { bound: 3 }),
        ("BSP", SchemeKind::Bsp),
        ("SpecSync-Adaptive", SchemeKind::specsync_adaptive()),
    ];

    // All (profile × scheme) runs are independent: fan out at once. The
    // reports come back in that order, so the first profile's (fault-free)
    // runs are each scheme's baseline.
    let mut matrix = RunMatrix::new();
    for (_, plan) in &profiles {
        for (label, scheme) in schemes {
            let mut trainer = Trainer::new(workload.clone(), scheme)
                .cluster(ClusterSpec::homogeneous(WORKERS, InstanceType::M4Xlarge))
                .horizon(VirtualTime::from_secs(HORIZON_SECS))
                .eval_stride(4)
                .seed(SEED);
            if let Some(plan) = plan {
                trainer = trainer.faults(plan.clone());
            }
            matrix.add(label, trainer);
        }
    }
    let reports = matrix.run();
    let baselines = &reports[..schemes.len()];

    for ((profile, _), runs) in profiles.iter().zip(reports.chunks(schemes.len())) {
        writeln!(out, "\n{profile}:")?;
        writeln!(
            out,
            "{:>18} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>7}",
            "scheme",
            "t-target",
            "degrade",
            "iters",
            "aborts",
            "drops",
            "retries",
            "crashes",
            "reissue",
            "fover",
            "replay"
        )?;
        for ((label, report), (_, baseline)) in runs.iter().zip(baselines) {
            let t = time_to_target(report, target);
            let degrade = match (t, time_to_target(baseline, target)) {
                (Some(mine), Some(base)) if base.as_micros() > 0 => {
                    format!("{:.2}x", mine.as_secs_f64() / base.as_secs_f64())
                }
                _ => "--".to_string(),
            };
            writeln!(
                out,
                "{:>18} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>7}",
                label,
                fmt_time(t),
                degrade,
                report.total_iterations,
                report.total_aborts,
                report.chaos.dropped_messages,
                report.chaos.retries,
                report.chaos.crashes,
                report.chaos.abort_reissues,
                report.chaos.failovers,
                report.chaos.journal_replayed,
            )?;
        }
    }

    writeln!(
        out,
        "\nDegradation is time-to-target under the profile over the scheme's own \
         fault-free baseline; '--' means the target was not reached within {HORIZON_SECS}s."
    )
}

/// The rows `args` select, in table order: all of them without arguments,
/// else those named by `--only NAME` (repeatable). Anything else is an
/// error naming the known rows, so a typo never starts the full suite.
fn select(args: &[String]) -> Result<Vec<Row>, String> {
    let known = ROWS.map(|(name, _)| name);
    let mut wanted = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--only", Some(name)) if known.contains(&name.as_str()) => wanted.push(name.as_str()),
            ("--only", Some(name)) => return Err(format!("no row {name:?}; known: {known:?}")),
            _ => return Err(format!("usage: run_all [--only NAME]... ({known:?})")),
        }
    }
    Ok(ROWS
        .into_iter()
        .filter(|(name, _)| wanted.is_empty() || wanted.contains(name))
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = select(&args).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });

    // Rows are independent: fan them all out, then print the buffers in
    // table order.
    let results = parallel_map(rows.clone(), |(_, body)| {
        let start = Instant::now();
        let mut text = String::new();
        body(&mut text).expect("writing to a String cannot fail");
        (text, start.elapsed().as_secs_f64())
    });
    let mut stdout = io::stdout().lock();
    for ((name, _), (text, secs)) in rows.iter().zip(&results) {
        eprintln!(">>> {name} ({secs:.1}s)");
        if let Err(e) = stdout.write_all(text.as_bytes()) {
            // A closed pipe (`run_all | head`) is a quiet end, not a failure.
            assert!(e.kind() == io::ErrorKind::BrokenPipe, "writing stdout: {e}");
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args).map(|rows| rows.iter().map(|(name, _)| *name).collect())
    }

    #[test]
    fn row_names_are_distinct_and_repeated_only_keeps_table_order() {
        let all = names(&[]).expect("no arguments select every row");
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            (all.len(), unique.len()),
            (ROWS.len(), ROWS.len()),
            "{all:?}"
        );
        let picked = names(&["--only", "fig3", "--only", "table1", "--only", "fig3"]);
        assert_eq!(picked, Ok(vec!["table1", "fig3"]));
    }

    #[test]
    fn unknown_names_and_flags_fail_naming_every_row() {
        for bad in [
            &["--only", "fig3_pap"][..],
            &["--bogus"],
            &["--only"],
            &["fig3"],
        ] {
            let err = names(bad).expect_err("bad arguments are an error");
            assert!(
                ROWS.iter().all(|(name, _)| err.contains(name)),
                "{bad:?}: {err}"
            );
        }
    }
}
