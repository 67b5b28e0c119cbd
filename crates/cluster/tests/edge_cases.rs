//! Failure-injection and edge-case tests for the cluster harness.

use specsync_cluster::{ClusterSpec, DriverConfig, InstanceType, Trainer};
use specsync_ml::{LrSchedule, Workload};
use specsync_simnet::{DurationSampler, NetworkModel, SimDuration, VirtualTime};
use specsync_sync::SchemeKind;

#[test]
fn single_worker_cluster_trains() {
    let report = Trainer::new(Workload::tiny_test(), SchemeKind::Asp)
        .cluster(ClusterSpec::homogeneous(1, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(600))
        .seed(1)
        .run();
    assert!(report.total_iterations > 100);
    assert!(
        (report.mean_staleness - 1.0).abs() < 0.2,
        "solo staleness is its own push"
    );
}

#[test]
fn specsync_on_single_worker_never_aborts() {
    // One worker has no peers; the threshold (>= 1 push by others) can
    // never be met.
    let scheme = SchemeKind::specsync_fixed(SimDuration::from_millis(100), 0.0);
    let report = Trainer::new(Workload::tiny_test(), scheme)
        .cluster(ClusterSpec::homogeneous(1, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(120))
        .seed(1)
        .run();
    assert_eq!(report.total_aborts, 0);
}

#[test]
fn extreme_network_latency_still_completes() {
    // Latency comparable to the iteration time: the protocol must not
    // deadlock, only slow down.
    let slow_net = NetworkModel {
        latency: DurationSampler::Constant { secs: 0.1 },
        bandwidth_bytes_per_sec: 1e6,
    };
    let report = Trainer::new(Workload::tiny_test(), SchemeKind::specsync_adaptive())
        .cluster(ClusterSpec::homogeneous(3, InstanceType::M4Xlarge).with_network(slow_net))
        .horizon(VirtualTime::from_secs(300))
        .seed(4)
        .run();
    assert!(
        report.total_iterations > 10,
        "training stalled under slow network"
    );
}

#[test]
fn zero_jitter_cluster_is_supported() {
    let mut workload = Workload::tiny_test();
    workload.iteration_cv = 0.0;
    let report = Trainer::new(workload, SchemeKind::Bsp)
        .cluster(ClusterSpec::homogeneous(4, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(120))
        .seed(2)
        .run();
    assert!(report.total_iterations > 0);
}

#[test]
fn diverging_run_is_reported_not_crashed() {
    // An absurd learning rate makes the loss explode to NaN; the driver
    // must finish and report it rather than panic.
    let mut workload = Workload::tiny_test();
    workload.lr = LrSchedule::Constant { lr: 1e6 };
    workload.target_loss = 1e-9;
    let report = Trainer::new(workload, SchemeKind::Asp)
        .cluster(ClusterSpec::homogeneous(3, InstanceType::M4Xlarge))
        .horizon(VirtualTime::from_secs(60))
        .seed(6)
        .run();
    assert!(report.converged_at.is_none());
    assert!(
        report.loss_curve.iter().any(|p| !p.loss.is_finite()),
        "expected the loss to blow up under lr=1e6"
    );
}

#[test]
fn max_iterations_cap_is_enforced() {
    let config = DriverConfig {
        max_iterations: 50,
        max_virtual_time: VirtualTime::from_secs(100_000),
        ..DriverConfig::default()
    };
    let mut workload = Workload::tiny_test();
    workload.target_loss = 0.0;
    let report = Trainer::new(workload, SchemeKind::Asp)
        .cluster(ClusterSpec::homogeneous(2, InstanceType::M4Xlarge))
        .config(config)
        .seed(8)
        .run();
    assert!(
        report.total_iterations <= 51,
        "cap exceeded: {}",
        report.total_iterations
    );
}

#[test]
fn instant_network_matches_protocol_expectations() {
    // With zero latency and infinite bandwidth, iteration time is pure
    // compute; the mean iteration interval should be close to the
    // workload's configured mean.
    let mut workload = Workload::tiny_test();
    workload.target_loss = 0.0;
    let mean = workload.mean_iteration_secs;
    let report = Trainer::new(workload, SchemeKind::Asp)
        .cluster(
            ClusterSpec::homogeneous(1, InstanceType::M4Xlarge)
                .with_network(NetworkModel::instant()),
        )
        .horizon(VirtualTime::from_secs(100))
        .seed(5)
        .run();
    let measured = report.finished_at.as_secs_f64() / report.total_iterations as f64;
    assert!(
        (measured - mean).abs() < mean * 0.2,
        "iteration interval {measured} too far from configured {mean}"
    );
}
