//! Everything a workload feeds the program, made from `--seed` alone.

use rand::{Rng, RngExt};
use specsync_ml::Workload;
use specsync_ps::PushPayload;
use specsync_simnet::RngStreams;
use specsync_tensor::SparseGrad;

/// Parameters of the paper's matrix-factorization model (Table I).
pub const MF_DIM: usize = 4_200_000;

/// Touched coordinates of one sparse push (the BENCH_PR1 micro scale).
pub const SPARSE_NNZ: usize = 2_048;

/// Parameters of the scaled matrix-factorization model the repository
/// trains: the smallest realistic message.
pub fn mf_small_dim() -> usize {
    Workload::matrix_factorization().scaled_num_params()
}

fn vector(rng: &mut impl Rng, dim: usize, scale: f32) -> Vec<f32> {
    (0..dim).map(|_| rng.random_range(-scale..scale)).collect()
}

/// The gradient every client of a saturating workload pushes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gradient {
    None,
    Dense,
    Sparse,
}

/// Inputs of a saturating workload: the store's starting parameters and
/// the one payload all clients push. One payload, because then the final
/// parameters do not depend on how the clients' pushes interleave and can
/// be checked bit for bit.
pub struct Inputs {
    pub initial: Vec<f32>,
    pub momentum: f32,
    pub push: Option<PushPayload>,
}

impl Inputs {
    pub fn generate(dim: usize, gradient: Gradient, seed: u64) -> Inputs {
        let mut rng = RngStreams::new(seed).stream("perf-inputs");
        let initial = vector(&mut rng, dim, 0.1);
        // Small enough that tens of thousands of momentum steps stay finite.
        let push = match gradient {
            Gradient::None => None,
            Gradient::Dense => Some(PushPayload::Dense(vector(&mut rng, dim, 1e-3))),
            Gradient::Sparse => {
                let mut grad = SparseGrad::new();
                grad.reset(dim);
                while grad.nnz() < SPARSE_NNZ.min(dim) {
                    let index = rng.random_range(0..dim);
                    if grad.get(index) == 0.0 {
                        grad.add(index, rng.random_range(1e-3..3e-3));
                    }
                }
                grad.finish();
                Some(PushPayload::Sparse(grad))
            }
        };
        Inputs {
            initial,
            momentum: Workload::matrix_factorization().momentum,
            push,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(4_096, Gradient::Sparse, 11);
        let b = Inputs::generate(4_096, Gradient::Sparse, 11);
        let c = Inputs::generate(4_096, Gradient::Sparse, 12);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.push, b.push);
        assert_ne!(a.initial, c.initial);
        assert_ne!(a.push, c.push);
    }

    #[test]
    fn sparse_gradient_has_exactly_the_asked_distinct_coordinates() {
        let inputs = Inputs::generate(100_000, Gradient::Sparse, 3);
        let Some(PushPayload::Sparse(grad)) = inputs.push else {
            panic!("want a sparse payload");
        };
        assert_eq!(grad.nnz(), SPARSE_NNZ);
        assert_eq!(grad.dim(), 100_000);
        assert!(grad.iter().all(|(_, v)| v != 0.0));
    }
}
