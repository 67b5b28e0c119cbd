//! Multinomial logistic regression (softmax) — the scaled stand-in for the
//! paper's CIFAR-10 convolutional workload.
//!
//! Parameters are stored flat as `[W row-major (classes × dim), b]`.

use std::sync::Arc;

use specsync_tensor::log_sum_exp;

use crate::dataset::DenseDataset;
use crate::model::Model;

/// Softmax-regression classifier over (a view of) a [`DenseDataset`].
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    data: Arc<DenseDataset>,
    range: (usize, usize),
    params: Vec<f32>,
}

impl SoftmaxRegression {
    /// Creates a classifier over the full dataset with zero-initialized
    /// parameters (the standard init for convex softmax regression).
    pub fn new(data: Arc<DenseDataset>) -> Self {
        let range = (0, data.len());
        Self::with_partition(data, range)
    }

    /// Creates a classifier restricted to the sample range
    /// `[range.0, range.1)` — one worker's partition.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn with_partition(data: Arc<DenseDataset>, range: (usize, usize)) -> Self {
        assert!(
            range.0 <= range.1 && range.1 <= data.len(),
            "partition out of bounds"
        );
        let n = data.num_classes() * data.dim() + data.num_classes();
        SoftmaxRegression {
            data,
            range,
            params: vec![0.0; n],
        }
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn classes(&self) -> usize {
        self.data.num_classes()
    }

    /// Class logits for a feature vector under the current parameters.
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        let (d, k) = (self.dim(), self.classes());
        let b = &self.params[k * d..];
        (0..k)
            .map(|c| {
                let w = &self.params[c * d..(c + 1) * d];
                // f32 sum: the forward pass models f32 training precision.
                w.iter().zip(x).map(|(a, b)| a * b).sum::<f32>() + b[c]
            })
            .collect()
    }
}

impl Model for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn num_samples(&self) -> usize {
        self.range.1 - self.range.0
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn set_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.params.len(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    fn loss(&self, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let mut total = 0.0f64;
        for &local in indices {
            let idx = self.range.0 + local;
            let logits = self.logits(self.data.features(idx));
            let lse = log_sum_exp(&logits);
            total += (lse - logits[self.data.label(idx)]) as f64;
        }
        total / indices.len() as f64
    }

    fn gradient(&self, indices: &[usize], out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.params.len(),
            "gradient buffer length mismatch"
        );
        assert!(!indices.is_empty(), "gradient over empty batch");
        out.fill(0.0);
        let (d, k) = (self.dim(), self.classes());
        let inv_batch = 1.0 / indices.len() as f32;
        for &local in indices {
            let idx = self.range.0 + local;
            let x = self.data.features(idx);
            let y = self.data.label(idx);
            let mut probs = self.logits(x);
            specsync_tensor::softmax_in_place(&mut probs);
            for (c, &p) in probs.iter().enumerate() {
                let coeff = (p - f32::from(c == y)) * inv_batch;
                let w_grad = &mut out[c * d..(c + 1) * d];
                for (g, &xi) in w_grad.iter_mut().zip(x) {
                    *g += coeff * xi;
                }
                out[k * d + c] += coeff;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check_gradient;

    fn dataset() -> Arc<DenseDataset> {
        Arc::new(DenseDataset::generate(256, 8, 4, 3.0, 0.0, 21))
    }

    #[test]
    fn zero_init_gives_uniform_loss() {
        let m = SoftmaxRegression::new(dataset());
        let all: Vec<usize> = (0..m.num_samples()).collect();
        // With all-zero parameters every class has probability 1/k.
        let expected = (4f64).ln();
        assert!((m.loss(&all) - expected).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = SoftmaxRegression::new(dataset());
        // Move off the zero init so the gradient is non-trivial.
        let p: Vec<f32> = (0..m.num_params())
            .map(|i| ((i % 13) as f32 - 6.0) * 0.01)
            .collect();
        m.set_params(&p);
        let indices: Vec<usize> = (0..24).collect();
        check_gradient(&mut m, &indices, 5e-2);
    }

    #[test]
    fn sgd_learns_separable_classes() {
        let mut m = SoftmaxRegression::new(dataset());
        let all: Vec<usize> = (0..m.num_samples()).collect();
        let initial = m.loss(&all);
        let mut grad = vec![0.0f32; m.num_params()];
        for _ in 0..200 {
            m.gradient(&all, &mut grad);
            let params: Vec<f32> = m
                .params()
                .iter()
                .zip(&grad)
                .map(|(p, g)| p - 0.5 * g)
                .collect();
            m.set_params(&params);
        }
        let trained = m.loss(&all);
        assert!(
            trained < initial * 0.35,
            "loss barely moved: {initial} -> {trained}"
        );
    }

    #[test]
    fn partition_restricts_samples() {
        let m = SoftmaxRegression::with_partition(dataset(), (10, 60));
        assert_eq!(m.num_samples(), 50);
    }

    #[test]
    fn param_count_is_w_plus_b() {
        let m = SoftmaxRegression::new(dataset());
        assert_eq!(m.num_params(), 4 * 8 + 4);
    }
}
