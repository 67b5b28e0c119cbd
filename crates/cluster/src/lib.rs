//! The virtual-time cluster harness for SpecSync experiments.
//!
//! Reproduces the paper's EC2 testbeds as deterministic simulations:
//! instance-type profiles ([`InstanceType`]), cluster compositions
//! ([`ClusterSpec`] — including the paper's Cluster 1, Cluster 2 and the
//! scalability sizes), and the event-driven [`Trainer`] that trains a real
//! model under a chosen synchronization scheme, producing a [`RunReport`]
//! with loss curves, transfer accounting, abort counts and the full
//! push/pull history.
//!
//! # Examples
//!
//! Compare ASP against SpecSync-Adaptive on a miniature workload:
//!
//! ```
//! use specsync_cluster::{ClusterSpec, InstanceType, Trainer};
//! use specsync_ml::Workload;
//! use specsync_sync::SchemeKind;
//!
//! let cluster = ClusterSpec::homogeneous(4, InstanceType::M4Xlarge);
//! let asp = Trainer::new(Workload::tiny_test(), SchemeKind::Asp)
//!     .cluster(cluster.clone())
//!     .seed(1)
//!     .run();
//! let spec = Trainer::new(Workload::tiny_test(), SchemeKind::specsync_adaptive())
//!     .cluster(cluster)
//!     .seed(1)
//!     .run();
//! assert_eq!(asp.num_workers, spec.num_workers);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod driver;
mod instance;
mod report;
mod spec;
mod trainer;

pub use driver::DriverConfig;
pub use instance::InstanceType;
pub use report::{ChaosStats, LossPoint, RunReport};
pub use spec::ClusterSpec;
pub use trainer::Trainer;
