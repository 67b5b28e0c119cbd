//! The benchmark's vocabulary: every workload and every metric by name.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off, defined and
/// never zero on every workload. The timing metrics carry the largest
/// bound the benchmark contract allows: on the shared two-core box the
/// baseline was taken on they spread (interquartile range over median, ten
/// seeds, 25 s runs) 1-9 % on the gated workloads, and on the driver's
/// busier host several times that. Memory spreads at most 3.6 %, the
/// useful share at most 1.0 %.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("time_to_target_s", "s", Lower, 0.25),
    e2e("useful_share", "share", Higher, 0.10),
];

/// Single layers, named crate.module. From the traced run; a metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("load.samples", "count", Higher),
    layer("load.op_tail_ms", "ms", Lower),
    layer("load.op_tail_pct", "%", Higher),
    layer("load.cpu_busy_share", "share", Lower),
    layer("load.generator_self_ms", "ms", Lower),
    layer("tensor.sparse_clone_ms", "ms", Lower),
    layer("ml.gradient_us", "us", Lower),
    layer("ml.eval_loss_ms", "ms", Lower),
    layer("ps.store.apply_dense_ms", "ms", Lower),
    layer("ps.store.apply_sparse_us", "us", Lower),
    layer("ps.store.pull_ns", "ns", Lower),
    layer("ps.replica.apply_dense_ms", "ms", Lower),
    layer("ps.replica.apply_sparse_ms", "ms", Lower),
    layer("ps.replica.sync_backup_ms_per_push", "ms", Lower),
    layer("ps.replica.journal_mb_per_entry", "MB", Lower),
    layer("net.frame.encode_pull_reply_ms", "ms", Lower),
    layer("net.frame.decode_pull_reply_ms", "ms", Lower),
    layer("net.frame.fnv1a_mb_per_s", "MB/s", Higher),
    layer("net.frame.encode_push_dense_ms", "ms", Lower),
    layer("net.frame.decode_push_dense_ms", "ms", Lower),
    layer("net.frame.encode_push_sparse_us", "us", Lower),
    layer("net.frame.decode_push_sparse_ms", "ms", Lower),
    layer("net.frame.wire_bytes_per_op", "bytes", Lower),
    layer("net.host.pull_hit_us", "us", Lower),
    layer("net.host.pull_miss_ms", "ms", Lower),
    layer("net.host.handle_push_self_ms", "ms", Lower),
    layer("net.host.tag_relay_ms", "ms", Lower),
    layer("net.host.cache_hit_share", "share", Higher),
    layer("net.transport.rtt_floor_us", "us", Lower),
    layer("net.transport.write_ms", "ms", Lower),
    layer("net.transport.recv_ms", "ms", Lower),
    layer("net.transport.conn_retries", "count", Lower),
    layer("net.transport.conn_resets", "count", Lower),
    layer("net.server.relay_ms", "ms", Lower),
    layer("net.server.residual_ms", "ms", Lower),
    layer("net.server.pulls_served", "count", Higher),
    layer("net.server.pushes_applied", "count", Higher),
    layer("net.server.relayed", "count", Higher),
    layer("core.scheduler.on_pull_ns", "ns", Lower),
    layer("core.scheduler.on_notify_ns", "ns", Lower),
    layer("core.scheduler.on_check_ns", "ns", Lower),
    layer("core.scheduler.on_epoch_complete_us", "us", Lower),
    layer("core.scheduler.aborts_issued", "count", Lower),
    layer("core.scheduler.abort_honoured_share", "share", Higher),
    layer("core.scheduler.epochs_tuned", "count", Higher),
    layer("core.history.approx_bytes", "bytes", Lower),
    layer("runtime.worker.iteration_ms_p50", "ms", Lower),
    layer("runtime.worker.pull_ms_p50", "ms", Lower),
    layer("runtime.worker.compute_ms_p50", "ms", Lower),
    layer("runtime.worker.push_ms_p50", "ms", Lower),
    layer("runtime.worker.overhead_share", "share", Lower),
    layer("runtime.worker.wasted_compute_share", "share", Lower),
    layer("train.pushes_to_loss", "count", Lower),
    layer("train.abort_share", "share", Lower),
    layer("train.final_loss", "loss", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// A workload by its normative name, and why it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json` and held to the bounds. The other
    /// workloads are diagnostics: `all`, `trace` and `repeat` run and print
    /// them, nothing is judged on them.
    pub gated: bool,
}

/// The gated four first. The time the driver gives all its runs together
/// buys four workloads of 25 s, or six of 10 s; at 10 s the memory-bound
/// ones spread past their bounds on a busy host. The two that went are the
/// ones whose code paths the others also cross (`pull_dense`: the pull
/// half of `step_dense`) or that no worker uses yet (`push_sparse`).
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "step_dense",
        why: "1 client loops Pull then dense Push at 4.2M: the worker cycle at paper scale, every pull a cache miss, every push decode, relay, backup apply, journal, apply",
        gated: true,
    },
    WorkloadDef {
        name: "step_small",
        why: "the same loop at 11 200 params, 2 clients: per-message cost (hand-offs, relay round trip, syscalls) dominates; byte-proportional gains should not move it",
        gated: true,
    },
    WorkloadDef {
        name: "train_asp",
        why: "scheduler + shard pair + 4 workers over TCP under ASP to a target loss: the scheduler only records, so the control for scheduler changes and the paper's baseline",
        gated: true,
    },
    WorkloadDef {
        name: "train_specsync",
        why: "the same under SpecSync-Adaptive: notify, history, Eq. 7 decision, abort delivery and re-pull are live",
        gated: true,
    },
    WorkloadDef {
        name: "pull_dense",
        why: "2 pullers, 4.2M params, no pushes: every reply is an encoded-cache hit; isolates socket write, read, checksum, decode of 16.8 MB",
        gated: false,
    },
    WorkloadDef {
        name: "push_sparse",
        why: "1 client, 2 048-nnz sparse pushes at 4.2M: the wire verb no worker sends yet; exposes dim-sized allocation per message",
        gated: false,
    },
];

/// The workloads `BENCHMARK.json` lists, in its order.
pub fn gated() -> impl Iterator<Item = &'static WorkloadDef> {
    WORKLOADS.iter().filter(|w| w.gated)
}

/// Looks a metric's definition up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "name {}", m.name);
            assert!(unit_ok(m.unit), "unit {}", m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name));
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&gated().count()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert_eq!(
            find("setup_s").map(|m| (m.unit, m.better)),
            Some(("s", Lower))
        );
    }
}
