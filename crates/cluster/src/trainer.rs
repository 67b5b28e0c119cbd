//! High-level training API: the one-call entry point used by examples and
//! experiment binaries.

use std::sync::Arc;

use specsync_ml::Workload;
use specsync_simnet::{FaultPlan, VirtualTime};
use specsync_sync::SchemeKind;
use specsync_telemetry::{EventSink, NullSink};

use crate::driver::{DriverConfig, Simulation};
use crate::report::RunReport;
use crate::spec::ClusterSpec;

/// Runs one training experiment in virtual time, to convergence or the
/// horizon, and produces a [`RunReport`].
///
/// # Examples
///
/// ```
/// use specsync_cluster::{ClusterSpec, InstanceType, Trainer};
/// use specsync_ml::Workload;
/// use specsync_sync::SchemeKind;
///
/// let report = Trainer::new(Workload::tiny_test(), SchemeKind::Asp)
///     .cluster(ClusterSpec::homogeneous(3, InstanceType::M4Xlarge))
///     .seed(7)
///     .run();
/// assert_eq!(report.num_workers, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    pub(crate) workload: Workload,
    pub(crate) scheme: SchemeKind,
    pub(crate) cluster: ClusterSpec,
    pub(crate) config: DriverConfig,
    pub(crate) seed: u64,
    pub(crate) sink: Arc<dyn EventSink<VirtualTime>>,
    pub(crate) faults: Option<FaultPlan>,
}

impl Trainer {
    /// Creates a trainer for the given workload and scheme with the paper's
    /// default cluster (40 × m4.xlarge) and driver defaults.
    pub fn new(workload: Workload, scheme: SchemeKind) -> Self {
        Trainer {
            workload,
            scheme,
            cluster: ClusterSpec::paper_cluster1(),
            config: DriverConfig::default(),
            seed: 0,
            sink: Arc::new(NullSink),
            faults: None,
        }
    }

    /// Routes every protocol event of the run (pulls, pushes, notifies,
    /// abort decisions, re-syncs, tuning passes, evaluations, worker state
    /// transitions) to `sink`, stamped with virtual time. Emission points
    /// are deterministic, so with a deterministic sink two same-seed runs
    /// produce identical event streams.
    pub fn sink(mut self, sink: Arc<dyn EventSink<VirtualTime>>) -> Self {
        self.sink = sink;
        self
    }

    /// Sets the cluster.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Injects a chaos schedule: every message send is subjected to the
    /// plan's drop/duplicate/delay verdicts, compute slows inside its
    /// straggler windows, and its crash/recover timeline is replayed.
    ///
    /// The plan carries its own RNG stream, so `(seed, plan)` pairs replay
    /// byte-identically; without a plan the fault machinery is fully
    /// dormant (zero extra randomness, zero extra events).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the virtual-time horizon.
    pub fn horizon(mut self, max_virtual_time: VirtualTime) -> Self {
        self.config.max_virtual_time = max_virtual_time;
        self
    }

    /// Evaluates loss only every `stride`-th push (cheaper long runs).
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn eval_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.config.eval_stride = stride;
        self
    }

    /// Overrides the full driver configuration.
    pub fn config(mut self, config: DriverConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the experiment and returns its report.
    ///
    /// # Panics
    ///
    /// Panics on an internal wiring bug (scheme state missing, pull lost).
    pub fn run(self) -> RunReport {
        match Simulation::new(self).run() {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceType;

    #[test]
    fn builder_round_trips_settings() {
        let t = Trainer::new(Workload::tiny_test(), SchemeKind::Asp)
            .cluster(ClusterSpec::homogeneous(2, InstanceType::M3Xlarge))
            .seed(9)
            .horizon(VirtualTime::from_secs(50))
            .eval_stride(2);
        let report = t.run();
        assert_eq!(report.num_workers, 2);
        assert_eq!(report.seed, 9);
        assert!(report.finished_at <= VirtualTime::from_secs(51));
    }
}
