//! EC2-like instance-type profiles.
//!
//! The paper's testbeds (§VI-A) are built from four instance types; what
//! matters to synchronization dynamics is their *relative* compute speed
//! and timing jitter, which is what these profiles model. Speed factors are
//! scaled from the per-core performance of the respective EC2 generations
//! (m4 ≈ Haswell/Broadwell, m3 ≈ Ivy Bridge; the 2xlarge sizes finish a
//! fixed batch faster than xlarge at these workloads' per-node batch
//! sizes).

use serde::{Deserialize, Serialize};
use specsync_simnet::DurationSampler;

/// An EC2-like machine profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstanceType {
    /// `m4.xlarge` — the paper's homogeneous baseline (speed 1.0).
    M4Xlarge,
    /// `m4.2xlarge` — faster (speed 0.75).
    M42xlarge,
    /// `m3.xlarge` — older generation, slower (speed 1.30).
    M3Xlarge,
    /// `m3.2xlarge` — older generation, larger (speed 0.95).
    M32xlarge,
}

impl InstanceType {
    /// Relative time factor: a batch that takes `T` on `m4.xlarge` takes
    /// `factor × T` here.
    pub fn speed_factor(self) -> f64 {
        match self {
            InstanceType::M4Xlarge => 1.0,
            InstanceType::M42xlarge => 0.75,
            InstanceType::M3Xlarge => 1.30,
            InstanceType::M32xlarge => 0.95,
        }
    }

    /// Coefficient of variation of iteration times on this instance
    /// (older generations on shared tenancy jitter more).
    pub fn jitter_cv(self) -> f64 {
        match self {
            InstanceType::M4Xlarge | InstanceType::M42xlarge => 0.18,
            InstanceType::M3Xlarge | InstanceType::M32xlarge => 0.25,
        }
    }

    /// The EC2 API name.
    pub fn name(self) -> &'static str {
        match self {
            InstanceType::M4Xlarge => "m4.xlarge",
            InstanceType::M42xlarge => "m4.2xlarge",
            InstanceType::M3Xlarge => "m3.xlarge",
            InstanceType::M32xlarge => "m3.2xlarge",
        }
    }

    /// The iteration-time distribution for this instance, given the
    /// workload's mean iteration time and base jitter on `m4.xlarge`.
    ///
    /// # Panics
    ///
    /// Panics if `base_mean_secs` is not positive.
    pub fn iteration_sampler(self, base_mean_secs: f64, base_cv: f64) -> DurationSampler {
        assert!(base_mean_secs > 0.0, "iteration time must be positive");
        DurationSampler::LogNormal {
            mean: base_mean_secs * self.speed_factor(),
            cv: base_cv.max(self.jitter_cv()),
        }
    }
}

impl std::fmt::Display for InstanceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m4_xlarge_is_the_baseline() {
        assert_eq!(InstanceType::M4Xlarge.speed_factor(), 1.0);
    }

    #[test]
    fn speed_ordering_matches_hardware() {
        assert!(InstanceType::M42xlarge.speed_factor() < InstanceType::M4Xlarge.speed_factor());
        assert!(InstanceType::M3Xlarge.speed_factor() > InstanceType::M4Xlarge.speed_factor());
    }

    #[test]
    fn sampler_scales_mean_by_speed() {
        let s = InstanceType::M3Xlarge.iteration_sampler(10.0, 0.1);
        assert!(
            matches!(s, DurationSampler::LogNormal { mean, .. } if (mean - 13.0).abs() < 1e-9),
            "{s:?}"
        );
    }

    #[test]
    fn names_are_ec2_api_names() {
        assert_eq!(InstanceType::M32xlarge.to_string(), "m3.2xlarge");
    }
}
