//! Machine-learning substrate for the SpecSync reproduction.
//!
//! Provides everything the cluster harness needs to run *real* SGD under
//! simulated timing: synthetic datasets mirroring the paper's workload
//! structure ([`RatingsDataset`], [`DenseDataset`]), models behind the flat
//! parameter [`Model`] trait ([`MatrixFactorization`], [`SoftmaxRegression`],
//! [`Mlp`]), minibatch sampling ([`BatchSampler`]), learning-rate schedules
//! ([`LrSchedule`]), the paper's convergence criterion
//! ([`ConvergenceDetector`]), and the three Table-I workload definitions
//! ([`Workload`]).
//!
//! # Examples
//!
//! ```
//! use specsync_ml::{Workload, WorkloadKind};
//!
//! let workload = Workload::from_kind(WorkloadKind::CifarLike);
//! let mut bundle = workload.build(4, 42);
//! let initial = bundle.eval.loss_of(&bundle.workers[0].params().to_vec());
//! assert!(initial.is_finite());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]

mod batch;
mod convergence;
mod dataset;
mod mf;
mod mlp;
mod model;
mod schedule;
mod softmax;
mod workload;

pub use batch::BatchSampler;
pub use convergence::ConvergenceDetector;
pub use dataset::{partition_indices, DenseDataset, Rating, RatingsDataset};
pub use mf::MatrixFactorization;
pub use mlp::Mlp;
pub use model::{check_gradient, Model};
pub use schedule::LrSchedule;
pub use softmax::SoftmaxRegression;
pub use specsync_tensor::SparseGrad;
pub use workload::{EvalSet, PaperProfile, Workload, WorkloadBundle, WorkloadKind};
