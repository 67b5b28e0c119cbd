//! Process-level measurements read from `/proc/self`: resident memory and
//! CPU time. The parsers take the file text so the tests can feed them
//! fixed input.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux has
/// reported 100 on every architecture this repository builds on; without a
/// libc binding `sysconf(_SC_CLK_TCK)` is not reachable.
const CLK_TCK: f64 = 100.0;

/// A workload whose resident set passes this is stopped and counted failed.
pub const RSS_LIMIT_MB: f64 = 6_000.0;

/// The value in kB of a `Key:   123 kB` line of `/proc/self/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// `utime + stime` in clock ticks from `/proc/self/stat`. The command name
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_status_kb(&status, key).unwrap_or_else(|| panic!("no {key} in status"));
    kb as f64 / 1024.0
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / CLK_TCK
}

/// Cores the load generator may use; client counts are sized to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Watches `VmRSS` while a workload runs and raises `tripped` (which the
/// load generators poll) once it passes [`RSS_LIMIT_MB`].
pub struct MemoryGuard {
    pub tripped: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MemoryGuard {
    pub fn start() -> Self {
        let tripped = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let thread = {
            let (tripped, done) = (Arc::clone(&tripped), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if rss_mb() > RSS_LIMIT_MB {
                        tripped.store(true, Ordering::SeqCst);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        MemoryGuard {
            tripped,
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for MemoryGuard {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_reads_the_named_key_only() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  348160 kB\nVmRSS:\t   2048 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(348_160));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(2_048));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMX:\t 1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        // Field 2 is "(a) b)": spaces and a closing parenthesis inside.
        let stat = "4242 (a) b) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 269 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 269));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        assert!(rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
