//! Cluster specifications matching the paper's testbeds (§VI-A).

use serde::{Deserialize, Serialize};
use specsync_simnet::NetworkModel;

use crate::instance::InstanceType;

/// The composition of a simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    workers: Vec<InstanceType>,
    network: NetworkModel,
}

impl ClusterSpec {
    /// A homogeneous cluster of `n` nodes of the given type.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn homogeneous(n: usize, instance: InstanceType) -> Self {
        assert!(n > 0, "cluster needs at least one worker");
        ClusterSpec {
            workers: vec![instance; n],
            network: NetworkModel::ec2_like(),
        }
    }

    /// The paper's Cluster 1: 40 × `m4.xlarge` (effectiveness evaluation).
    pub fn paper_cluster1() -> Self {
        Self::homogeneous(40, InstanceType::M4Xlarge)
    }

    /// The paper's Cluster 2: 10 × `m3.xlarge`, 10 × `m3.2xlarge`,
    /// 10 × `m4.xlarge`, 10 × `m4.2xlarge` (heterogeneity evaluation).
    pub fn paper_cluster2() -> Self {
        let mut workers = Vec::with_capacity(40);
        workers.extend(std::iter::repeat_n(InstanceType::M3Xlarge, 10));
        workers.extend(std::iter::repeat_n(InstanceType::M32xlarge, 10));
        workers.extend(std::iter::repeat_n(InstanceType::M4Xlarge, 10));
        workers.extend(std::iter::repeat_n(InstanceType::M42xlarge, 10));
        ClusterSpec {
            workers,
            network: NetworkModel::ec2_like(),
        }
    }

    /// The paper's scalability clusters: `n ∈ {20, 30, 40}` × `m4.xlarge`.
    pub fn paper_sized(n: usize) -> Self {
        Self::homogeneous(n, InstanceType::M4Xlarge)
    }

    /// Replaces the network model.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Instance type of worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn instance(&self, i: usize) -> InstanceType {
        self.workers[i]
    }

    /// The interconnect model.
    pub fn network(&self) -> NetworkModel {
        self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster1_matches_paper() {
        let c = ClusterSpec::paper_cluster1();
        assert_eq!(c.num_workers(), 40);
        assert!((0..40).all(|i| c.instance(i) == InstanceType::M4Xlarge));
    }

    #[test]
    fn cluster2_is_four_way_heterogeneous() {
        let c = ClusterSpec::paper_cluster2();
        assert_eq!(c.num_workers(), 40);
        let count = |t| (0..40).filter(|&i| c.instance(i) == t).count();
        assert_eq!(count(InstanceType::M3Xlarge), 10);
        assert_eq!(count(InstanceType::M42xlarge), 10);
    }

    #[test]
    fn sized_clusters_for_scalability() {
        for n in [20, 30, 40] {
            let c = ClusterSpec::paper_sized(n);
            assert_eq!(c.num_workers(), n);
        }
    }

    #[test]
    fn with_network_overrides() {
        let c = ClusterSpec::homogeneous(2, InstanceType::M4Xlarge)
            .with_network(NetworkModel::instant());
        assert_eq!(c.network(), NetworkModel::instant());
    }
}
