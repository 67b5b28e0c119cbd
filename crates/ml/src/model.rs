//! The [`Model`] abstraction shared by all workloads.
//!
//! A model owns (a shard of) its training data and a flat `f32` parameter
//! vector. The flat layout is what the parameter server shards and ships
//! over the simulated network; workers overwrite their replica from a pulled
//! snapshot, compute a minibatch gradient against it, and push the gradient
//! back.

use specsync_tensor::SparseGrad;

/// A trainable model over an implicit dataset, exposing flat parameters.
///
/// Implementations must be deterministic: identical parameters and sample
/// indices must produce identical losses and gradients.
pub trait Model: Send {
    /// Number of parameters (length of the flat parameter vector).
    fn num_params(&self) -> usize;

    /// Number of samples in the model's dataset.
    fn num_samples(&self) -> usize;

    /// The current flat parameter vector.
    fn params(&self) -> &[f32];

    /// Overwrites the parameters from a flat slice.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != self.num_params()`.
    fn set_params(&mut self, params: &[f32]);

    /// Mean loss over the given sample indices.
    ///
    /// # Panics
    ///
    /// Implementations panic if any index is out of bounds or `indices` is
    /// empty.
    fn loss(&self, indices: &[usize]) -> f64;

    /// Mean gradient over the given sample indices, written into `out`
    /// (which is zeroed first).
    ///
    /// # Panics
    ///
    /// Implementations panic if `out.len() != self.num_params()`, any index
    /// is out of bounds, or `indices` is empty.
    fn gradient(&self, indices: &[usize], out: &mut [f32]);

    /// Mean gradient over the given sample indices as a sparse accumulator,
    /// for models whose minibatch gradients touch few coordinates.
    ///
    /// Returns `true` if `out` was filled (after resetting it to
    /// `num_params` dimensions); the default implementation returns `false`
    /// to signal that callers must fall back to the dense
    /// [`gradient`](Self::gradient). When supported, the accumulated entries must equal
    /// the dense gradient exactly (same arithmetic, same order), so the two
    /// paths are interchangeable.
    fn sparse_gradient(&self, indices: &[usize], out: &mut SparseGrad) -> bool {
        let _ = (indices, out);
        false
    }
}

/// Checks common `Model` invariants; used by each implementation's tests.
///
/// Verifies that a finite-difference approximation of the directional
/// derivative matches the analytic gradient on a random direction.
///
/// # Panics
///
/// Panics (via assertions) if the gradient check fails.
pub fn check_gradient<M: Model + ?Sized>(model: &mut M, indices: &[usize], tol: f64) {
    let n = model.num_params();
    let mut grad = vec![0.0f32; n];
    model.gradient(indices, &mut grad);

    // Deterministic pseudo-random direction.
    let dir: Vec<f32> = (0..n)
        .map(|i| {
            if (i * 2654435761) % 97 < 48 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let analytic: f64 = grad
        .iter()
        .zip(&dir)
        .map(|(g, d)| (*g as f64) * (*d as f64))
        .sum();

    let eps = 1e-3f32;
    let base: Vec<f32> = model.params().to_vec();
    let plus: Vec<f32> = base.iter().zip(&dir).map(|(p, d)| p + eps * d).collect();
    let minus: Vec<f32> = base.iter().zip(&dir).map(|(p, d)| p - eps * d).collect();

    model.set_params(&plus);
    let lp = model.loss(indices);
    model.set_params(&minus);
    let lm = model.loss(indices);
    model.set_params(&base);

    let numeric = (lp - lm) / (2.0 * eps as f64);
    let denom = 1.0 + analytic.abs().max(numeric.abs());
    assert!(
        ((analytic - numeric) / denom).abs() < tol,
        "gradient check failed: analytic {analytic}, numeric {numeric}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D quadratic model used to test the checker itself.
    struct Quadratic {
        w: Vec<f32>,
    }

    impl Model for Quadratic {
        fn num_params(&self) -> usize {
            self.w.len()
        }
        fn num_samples(&self) -> usize {
            1
        }
        fn params(&self) -> &[f32] {
            &self.w
        }
        fn set_params(&mut self, params: &[f32]) {
            assert_eq!(params.len(), self.w.len());
            self.w.copy_from_slice(params);
        }
        fn loss(&self, _indices: &[usize]) -> f64 {
            self.w.iter().map(|&x| (x as f64 - 1.0).powi(2)).sum()
        }
        fn gradient(&self, _indices: &[usize], out: &mut [f32]) {
            for (o, &x) in out.iter_mut().zip(&self.w) {
                *o = 2.0 * (x - 1.0);
            }
        }
    }

    #[test]
    fn checker_accepts_correct_gradient() {
        let mut m = Quadratic {
            w: vec![0.5, -2.0, 3.0],
        };
        check_gradient(&mut m, &[0], 1e-3);
    }

    #[test]
    #[should_panic(expected = "gradient check failed")]
    fn checker_rejects_wrong_gradient() {
        struct Broken(Quadratic);
        impl Model for Broken {
            fn num_params(&self) -> usize {
                self.0.num_params()
            }
            fn num_samples(&self) -> usize {
                1
            }
            fn params(&self) -> &[f32] {
                self.0.params()
            }
            fn set_params(&mut self, p: &[f32]) {
                self.0.set_params(p)
            }
            fn loss(&self, i: &[usize]) -> f64 {
                self.0.loss(i)
            }
            fn gradient(&self, i: &[usize], out: &mut [f32]) {
                self.0.gradient(i, out);
                out[0] += 5.0; // wrong on purpose
            }
        }
        let mut m = Broken(Quadratic { w: vec![0.0, 0.0] });
        check_gradient(&mut m, &[0], 1e-3);
    }
}
