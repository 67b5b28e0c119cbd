//! Workload definitions mirroring the paper's Table I.
//!
//! Each [`Workload`] carries two layers of configuration: the *paper
//! profile* (parameter counts, dataset sizes and iteration spans reported in
//! Table I, used for reporting and for the virtual-time compute model) and
//! the *scaled configuration* actually trained here (synthetic dataset
//! dimensions and model sizes small enough to run thousands of simulated
//! iterations in seconds). The substitution is documented in `DESIGN.md`.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::batch::BatchSampler;
use crate::convergence::ConvergenceDetector;
use crate::dataset::{partition_indices, DenseDataset, RatingsDataset};
use crate::mf::MatrixFactorization;
use crate::mlp::Mlp;
use crate::model::Model;
use crate::schedule::LrSchedule;

/// Which of the paper's three workloads (Table I) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Matrix factorization on a MovieLens-like rating matrix.
    MatrixFactorization,
    /// A CIFAR-10-like dense classification task (stands in for ResNet-110).
    CifarLike,
    /// An ImageNet-like dense classification task (stands in for ResNet-18).
    ImageNetLike,
}

impl WorkloadKind {
    /// All three workloads in Table I order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::MatrixFactorization,
        WorkloadKind::CifarLike,
        WorkloadKind::ImageNetLike,
    ];
}

/// Numbers the paper reports for a workload in Table I (used verbatim in
/// reports; the timing figures also drive the virtual-time compute model).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PaperProfile {
    /// Workload name as printed in Table I.
    pub name: &'static str,
    /// Parameter count reported in Table I.
    pub num_parameters: u64,
    /// Dataset name reported in Table I.
    pub dataset: &'static str,
    /// Dataset size reported in Table I.
    pub dataset_size: u64,
    /// Typical iteration time reported in Table I, in seconds.
    pub iteration_secs: f64,
}

/// A fully specified training workload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Workload {
    /// Which Table I workload this is.
    pub kind: WorkloadKind,
    /// The paper's reported numbers for this workload.
    pub paper: PaperProfile,
    /// Minibatch size per worker iteration.
    pub batch_size: usize,
    /// Learning-rate schedule (paper §VI-A).
    pub lr: LrSchedule,
    /// Mean virtual iteration compute time, in seconds (Table I).
    pub mean_iteration_secs: f64,
    /// Coefficient of variation of iteration compute time.
    pub iteration_cv: f64,
    /// Target loss defining convergence (paper §VI-B).
    pub target_loss: f64,
    /// Server-side SGD momentum (MXNet `sgd` optimizer `momentum` param).
    pub momentum: f32,
    /// Seed offset folded into dataset generation.
    pub data_seed: u64,
    scaled: ScaledConfig,
}

/// Dimensions of the scaled synthetic problem actually trained.
#[derive(Debug, Clone, PartialEq, Serialize)]
enum ScaledConfig {
    Mf {
        users: usize,
        items: usize,
        ratings: usize,
        true_rank: usize,
        model_rank: usize,
        noise_std: f32,
        reg: f32,
    },
    Dense {
        samples: usize,
        dim: usize,
        classes: usize,
        hidden: usize,
        separation: f32,
        label_noise: f64,
    },
}

impl Workload {
    /// The matrix-factorization workload (Table I row 1).
    pub fn matrix_factorization() -> Self {
        Workload {
            kind: WorkloadKind::MatrixFactorization,
            paper: PaperProfile {
                name: "MF",
                num_parameters: 4_200_000,
                dataset: "MovieLens",
                dataset_size: 100_000,
                iteration_secs: 3.0,
            },
            batch_size: 100_000,
            // 0.5 constant is unstable at 40-worker ASP staleness on this
            // substrate (diverges to NaN); 0.3 with a late decay keeps the
            // Original baseline convergent, as for ImageNet below.
            lr: LrSchedule::StepDecay {
                initial: 0.3,
                factor: 0.25,
                at_epochs: vec![250],
            },
            mean_iteration_secs: 3.0,
            iteration_cv: 0.18,
            target_loss: 0.05,
            momentum: 0.9,
            data_seed: 101,
            scaled: ScaledConfig::Mf {
                users: 800,
                items: 600,
                ratings: 60_000,
                true_rank: 8,
                model_rank: 8,
                noise_std: 0.15,
                reg: 0.02,
            },
        }
    }

    /// The CIFAR-10-like workload (Table I row 2).
    pub fn cifar_like() -> Self {
        Workload {
            kind: WorkloadKind::CifarLike,
            paper: PaperProfile {
                name: "CIFAR-10",
                num_parameters: 2_500_000,
                dataset: "CIFAR-10",
                dataset_size: 50_000,
                iteration_secs: 14.0,
            },
            batch_size: 128,
            // Paper: initial rate decayed at epochs 200 and 250; the
            // initial value is rescaled to this substrate's model scale.
            lr: LrSchedule::StepDecay {
                initial: 0.02,
                factor: 0.1,
                at_epochs: vec![200, 250],
            },
            mean_iteration_secs: 14.0,
            iteration_cv: 0.18,
            target_loss: 1.40,
            momentum: 0.9,
            data_seed: 202,
            scaled: ScaledConfig::Dense {
                samples: 16_384,
                dim: 48,
                classes: 10,
                hidden: 32,
                separation: 2.2,
                label_noise: 0.04,
            },
        }
    }

    /// The ImageNet-like workload (Table I row 3).
    pub fn imagenet_like() -> Self {
        Workload {
            kind: WorkloadKind::ImageNetLike,
            paper: PaperProfile {
                name: "ImageNet",
                num_parameters: 5_900_000,
                dataset: "ImageNet",
                dataset_size: 281_167,
                iteration_secs: 70.0,
            },
            batch_size: 128,
            // Paper: 0.3; a late decay keeps the Original baseline's
            // convergence finite in this substrate (noted in DESIGN.md).
            lr: LrSchedule::StepDecay {
                initial: 0.30,
                factor: 0.25,
                at_epochs: vec![120],
            },
            mean_iteration_secs: 70.0,
            iteration_cv: 0.18,
            target_loss: 2.15,
            momentum: 0.0,
            data_seed: 303,
            scaled: ScaledConfig::Dense {
                samples: 32_768,
                dim: 64,
                classes: 20,
                hidden: 48,
                separation: 2.0,
                label_noise: 0.05,
            },
        }
    }

    /// Builds the workload identified by `kind`.
    pub fn from_kind(kind: WorkloadKind) -> Self {
        match kind {
            WorkloadKind::MatrixFactorization => Self::matrix_factorization(),
            WorkloadKind::CifarLike => Self::cifar_like(),
            WorkloadKind::ImageNetLike => Self::imagenet_like(),
        }
    }

    /// A miniature workload for fast tests: tiny MF problem, 0.2 s
    /// iterations.
    pub fn tiny_test() -> Self {
        Workload {
            kind: WorkloadKind::MatrixFactorization,
            paper: PaperProfile {
                name: "tiny",
                num_parameters: 1_000,
                dataset: "synthetic",
                dataset_size: 2_000,
                iteration_secs: 0.2,
            },
            batch_size: 64,
            lr: LrSchedule::Constant { lr: 0.3 },
            mean_iteration_secs: 0.2,
            iteration_cv: 0.15,
            target_loss: 0.08,
            momentum: 0.9,
            data_seed: 7,
            scaled: ScaledConfig::Mf {
                users: 60,
                items: 50,
                ratings: 2_000,
                true_rank: 4,
                model_rank: 4,
                noise_std: 0.1,
                reg: 0.01,
            },
        }
    }

    /// Number of parameters of the *scaled* model actually trained.
    pub fn scaled_num_params(&self) -> usize {
        match &self.scaled {
            ScaledConfig::Mf {
                users,
                items,
                model_rank,
                ..
            } => (users + items) * model_rank,
            ScaledConfig::Dense {
                dim,
                classes,
                hidden,
                ..
            } => hidden * dim + hidden + classes * hidden + classes,
        }
    }

    /// Instantiates per-worker models (each over its own data partition) and
    /// an evaluation set, all deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`.
    pub fn build(&self, num_workers: usize, seed: u64) -> WorkloadBundle {
        assert!(num_workers > 0, "need at least one worker");
        let dseed = seed ^ self.data_seed;
        match &self.scaled {
            ScaledConfig::Mf {
                users,
                items,
                ratings,
                true_rank,
                model_rank,
                noise_std,
                reg,
            } => {
                // Generate train + held-out eval ratings in ONE dataset so
                // they share the same ground-truth latent factors; the eval
                // range is invisible to every worker partition.
                let eval_len = 2_048.min(*ratings);
                let data = Arc::new(RatingsDataset::generate(
                    *users,
                    *items,
                    *ratings + eval_len,
                    *true_rank,
                    *noise_std,
                    dseed,
                ));
                let parts = partition_indices(*ratings, num_workers);
                let workers: Vec<Box<dyn Model>> = parts
                    .into_iter()
                    .map(|range| {
                        Box::new(MatrixFactorization::with_partition(
                            Arc::clone(&data),
                            range,
                            *model_rank,
                            *reg,
                        )) as Box<dyn Model>
                    })
                    .collect();
                // Held-out loss is pure reconstruction error: the L2 term
                // regularizes training, it is not part of eval quality.
                let eval_model = Box::new(MatrixFactorization::with_partition(
                    data,
                    (*ratings, *ratings + eval_len),
                    *model_rank,
                    0.0,
                )) as Box<dyn Model>;
                WorkloadBundle {
                    workers,
                    eval: EvalSet::new(eval_model, (0..eval_len).collect()),
                }
            }
            ScaledConfig::Dense {
                samples,
                dim,
                classes,
                hidden,
                separation,
                label_noise,
            } => {
                // Same principle: one generation call so train and eval
                // share class means.
                let eval_len = 512usize;
                let data = Arc::new(DenseDataset::generate(
                    *samples + eval_len,
                    *dim,
                    *classes,
                    *separation,
                    *label_noise,
                    dseed,
                ));
                let parts = partition_indices(*samples, num_workers);
                let workers: Vec<Box<dyn Model>> = parts
                    .into_iter()
                    .map(|range| {
                        Box::new(Mlp::with_partition(Arc::clone(&data), range, *hidden))
                            as Box<dyn Model>
                    })
                    .collect();
                let eval_model = Box::new(Mlp::with_partition(
                    data,
                    (*samples, *samples + eval_len),
                    *hidden,
                )) as Box<dyn Model>;
                WorkloadBundle {
                    workers,
                    eval: EvalSet::new(eval_model, (0..eval_len).collect()),
                }
            }
        }
    }

    /// A minibatch sampler for worker `i`'s partition.
    pub fn sampler_for(&self, worker_model: &dyn Model, worker: usize, seed: u64) -> BatchSampler {
        BatchSampler::new(
            worker_model.num_samples(),
            self.batch_size.min(worker_model.num_samples()),
            seed ^ (worker as u64).wrapping_mul(0x9E37_79B9),
        )
    }

    /// A convergence detector at this workload's target loss with the
    /// paper's 5-observation window.
    pub fn convergence_detector(&self) -> ConvergenceDetector {
        ConvergenceDetector::paper_default(self.target_loss)
    }
}

/// The instantiated models for one training run.
pub struct WorkloadBundle {
    /// One model per worker, each restricted to its data partition `D_i`.
    pub workers: Vec<Box<dyn Model>>,
    /// The held-out evaluation set.
    pub eval: EvalSet,
}

impl std::fmt::Debug for WorkloadBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadBundle")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// A fixed evaluation set: a model instance over held-out data plus the
/// sample indices to score.
pub struct EvalSet {
    model: Box<dyn Model>,
    indices: Vec<usize>,
}

impl EvalSet {
    /// Creates an evaluation set.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty.
    pub fn new(model: Box<dyn Model>, indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "evaluation set cannot be empty");
        EvalSet { model, indices }
    }

    /// Evaluation loss of the given parameter vector.
    pub fn loss_of(&mut self, params: &[f32]) -> f64 {
        self.model.set_params(params);
        self.model.loss(&self.indices)
    }

    /// Number of evaluation samples.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the evaluation set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

impl std::fmt::Debug for EvalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSet")
            .field("samples", &self.indices.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build() {
        for kind in WorkloadKind::ALL {
            let w = Workload::from_kind(kind);
            let bundle = w.build(4, 1);
            assert_eq!(bundle.workers.len(), 4);
            let n = bundle.workers[0].num_params();
            assert_eq!(n, w.scaled_num_params());
            assert!(bundle.workers.iter().all(|m| m.num_params() == n));
        }
    }

    #[test]
    fn partitions_cover_dataset() {
        let w = Workload::tiny_test();
        let bundle = w.build(3, 9);
        let total: usize = bundle.workers.iter().map(|m| m.num_samples()).sum();
        assert_eq!(total, 2_000);
    }

    #[test]
    fn eval_loss_is_finite_and_positive() {
        let w = Workload::tiny_test();
        let mut bundle = w.build(2, 5);
        let params = bundle.workers[0].params().to_vec();
        let loss = bundle.eval.loss_of(&params);
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn build_is_deterministic() {
        let w = Workload::cifar_like();
        let a = w.build(2, 42);
        let b = w.build(2, 42);
        assert_eq!(a.workers[0].params(), b.workers[0].params());
        assert_eq!(a.workers[1].num_samples(), b.workers[1].num_samples());
    }

    #[test]
    fn sampler_respects_partition_size() {
        let w = Workload::tiny_test();
        let bundle = w.build(8, 3);
        let mut s = w.sampler_for(bundle.workers[0].as_ref(), 0, 3);
        let b = s.next_batch();
        assert!(b.iter().all(|&i| i < bundle.workers[0].num_samples()));
    }

    #[test]
    fn table1_profiles_match_paper() {
        let mf = Workload::matrix_factorization();
        assert_eq!(mf.paper.num_parameters, 4_200_000);
        assert_eq!(mf.paper.iteration_secs, 3.0);
        let cifar = Workload::cifar_like();
        assert_eq!(cifar.paper.dataset_size, 50_000);
        assert_eq!(cifar.batch_size, 128);
        let imagenet = Workload::imagenet_like();
        assert_eq!(imagenet.paper.iteration_secs, 70.0);
        assert_eq!(imagenet.lr.lr_at(0), 0.30);
    }
}
