//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each row of `run_all` reproduces one table or figure (see `DESIGN.md`
//! for the index); this library holds the common machinery: the parallel
//! run harness, convergence-time extraction, and pretty-printing.

#![warn(missing_docs)]

pub mod supervise;

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use specsync_cluster::{RunReport, Trainer};
use specsync_simnet::VirtualTime;

/// Applies `f` to every item across all available cores, returning results
/// in input order.
///
/// Work is claimed by an atomic cursor, so thread scheduling never affects
/// *which* items run — only when — and the output order is the input order
/// regardless of completion order. `SPECSYNC_THREADS=<n>` in the
/// environment forces a thread count; with `SPECSYNC_THREADS=1` (or a
/// single-core host, or a single item) everything runs on the calling
/// thread. Results are identical either way provided `f` is deterministic.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = default_threads();
    parallel_map_threads(items, threads, f)
}

fn default_threads() -> usize {
    match std::env::var("SPECSYNC_THREADS").map(|v| v.parse()) {
        Ok(Ok(n)) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// [`parallel_map`] with an explicit worker-thread count (clamped to the
/// item count; `0` or `1` runs on the calling thread).
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Each slot is taken exactly once by whichever thread claims its index.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let slots = &slots;
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("slot claimed once");
                let _ = tx.send((i, f(item)));
            });
        }
    })
    .expect("worker thread panicked");
    drop(tx);

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    while let Ok((i, r)) = rx.recv() {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every item produces a result"))
        .collect()
}

/// A keyed batch of independent [`Trainer`] runs executed across cores.
///
/// Experiment binaries sweep (workload × scheme × cluster) grids of
/// deterministic simulations; `RunMatrix` fans those runs out with
/// [`parallel_map`] and hands back `(key, report)` pairs in insertion
/// order, so the printed tables are byte-identical to a serial sweep.
///
/// # Examples
///
/// ```no_run
/// use specsync_bench::RunMatrix;
/// use specsync_cluster::Trainer;
/// use specsync_ml::Workload;
/// use specsync_sync::SchemeKind;
///
/// let reports = RunMatrix::new()
///     .with("asp", Trainer::new(Workload::tiny_test(), SchemeKind::Asp))
///     .with("adaptive", Trainer::new(Workload::tiny_test(), SchemeKind::specsync_adaptive()))
///     .run();
/// for (key, report) in &reports {
///     println!("{key}: {} iterations", report.total_iterations);
/// }
/// ```
#[derive(Debug, Default)]
pub struct RunMatrix<K> {
    runs: Vec<(K, Trainer)>,
}

impl<K: Send> RunMatrix<K> {
    /// An empty run matrix.
    pub fn new() -> Self {
        RunMatrix { runs: Vec::new() }
    }

    /// Adds one keyed run.
    pub fn add(&mut self, key: K, trainer: Trainer) -> &mut Self {
        self.runs.push((key, trainer));
        self
    }

    /// Builder-style [`add`](Self::add).
    #[must_use]
    pub fn with(mut self, key: K, trainer: Trainer) -> Self {
        self.runs.push((key, trainer));
        self
    }

    /// Number of queued runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Executes every run across all available cores, returning reports in
    /// insertion order. Each run is an independent deterministic
    /// simulation, so the reports are identical to [`run_serial`]
    /// (Self::run_serial) — parallelism changes wall-clock only.
    pub fn run(self) -> Vec<(K, RunReport)> {
        let (keys, trainers): (Vec<K>, Vec<Trainer>) = self.runs.into_iter().unzip();
        let reports = parallel_map(trainers, Trainer::run);
        keys.into_iter().zip(reports).collect()
    }

    /// Executes every run on the calling thread, in insertion order.
    pub fn run_serial(self) -> Vec<(K, RunReport)> {
        self.runs.into_iter().map(|(k, t)| (k, t.run())).collect()
    }

    /// [`run`](Self::run) with an explicit worker-thread count (for tests
    /// and tuning; `1` is equivalent to [`run_serial`](Self::run_serial)).
    pub fn run_with_threads(self, threads: usize) -> Vec<(K, RunReport)> {
        let (keys, trainers): (Vec<K>, Vec<Trainer>) = self.runs.into_iter().unzip();
        let reports = parallel_map_threads(trainers, threads, Trainer::run);
        keys.into_iter().zip(reports).collect()
    }
}

/// The virtual time at which `report`'s loss curve first satisfies the
/// paper's convergence rule for `target` (at or below it for 5 consecutive
/// evaluations), regardless of the target the run itself used.
pub fn time_to_target(report: &RunReport, target: f64) -> Option<VirtualTime> {
    let mut streak = 0;
    for p in &report.loss_curve {
        if p.loss <= target {
            streak += 1;
            if streak >= 5 {
                return Some(p.time);
            }
        } else {
            streak = 0;
        }
    }
    None
}

/// The iteration count at which the convergence rule is first met.
pub fn iterations_to_target(report: &RunReport, target: f64) -> Option<u64> {
    let mut streak = 0;
    for p in &report.loss_curve {
        if p.loss <= target {
            streak += 1;
            if streak >= 5 {
                return Some(p.iterations);
            }
        } else {
            streak = 0;
        }
    }
    None
}

/// Formats a virtual-time option as whole seconds or `--`.
pub fn fmt_time(t: Option<VirtualTime>) -> String {
    match t {
        Some(t) => format!("{:.0}", t.as_secs_f64()),
        None => "--".to_string(),
    }
}

/// Formats a byte count with decimal units.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    format!("{v:.2} {}", UNITS[unit])
}

/// Writes a section header of the experiment output to `out`.
pub fn section(out: &mut String, title: &str) -> fmt::Result {
    writeln!(out, "\n=== {title} ===")
}

/// Writes a downsampled `(time, loss)` curve with a label to `out`.
pub fn print_curve(
    out: &mut String,
    label: &str,
    report: &RunReport,
    points: usize,
) -> fmt::Result {
    write!(out, "{label:24}")?;
    for p in report.sampled_curve(points) {
        write!(out, " {:.0}s:{:.3}", p.time.as_secs_f64(), p.loss)?;
    }
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_picks_units() {
        assert_eq!(fmt_bytes(512), "512.00 B");
        assert_eq!(fmt_bytes(3_170_000_000_000), "3.17 TB");
    }

    #[test]
    fn fmt_time_handles_none() {
        assert_eq!(fmt_time(None), "--");
        assert_eq!(fmt_time(Some(VirtualTime::from_secs(90))), "90");
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_threads(items.clone(), 4, |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_serial_regardless_of_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map_threads(items.clone(), 1, |x| {
            x.wrapping_mul(0x9E37_79B9).rotate_left(7)
        });
        for threads in [2, 3, 8, 64] {
            let par = parallel_map_threads(items.clone(), threads, |x| {
                x.wrapping_mul(0x9E37_79B9).rotate_left(7)
            });
            assert_eq!(par, serial, "thread count {threads} changed results");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(
            parallel_map_threads(Vec::<u32>::new(), 8, |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(parallel_map_threads(vec![9], 8, |x| x + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn parallel_map_propagates_worker_panics() {
        let _ = parallel_map_threads((0..8u32).collect(), 4, |x| {
            assert!(x != 5, "boom");
            x
        });
    }
}
