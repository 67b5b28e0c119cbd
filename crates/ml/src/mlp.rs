//! A one-hidden-layer perceptron with ReLU activation — the scaled,
//! *non-convex* stand-in for the paper's deep residual networks.
//!
//! Non-convexity matters for fidelity: the paper's argument that stale
//! gradients "drive the refinement away from the optimum" has the most bite
//! when the landscape is curved, so the CIFAR/ImageNet-like workloads run on
//! this model rather than on convex softmax regression.
//!
//! Parameter layout (flat): `[W1 (hidden × dim), b1 (hidden),
//! W2 (classes × hidden), b2 (classes)]`.

use std::sync::Arc;

use specsync_tensor::{log_sum_exp, relu, relu_grad, softmax_in_place};

use crate::dataset::DenseDataset;
use crate::model::Model;

/// One-hidden-layer MLP classifier over (a view of) a [`DenseDataset`].
#[derive(Debug, Clone)]
pub struct Mlp {
    data: Arc<DenseDataset>,
    range: (usize, usize),
    hidden: usize,
    params: Vec<f32>,
}

impl Mlp {
    /// Creates an MLP with `hidden` hidden units over the full dataset.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`.
    pub fn new(data: Arc<DenseDataset>, hidden: usize) -> Self {
        let range = (0, data.len());
        Self::with_partition(data, range, hidden)
    }

    /// Creates an MLP restricted to the sample range `[range.0, range.1)`.
    ///
    /// Weights use a deterministic He-style initialization; biases start at
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0` or the range is out of bounds.
    pub fn with_partition(data: Arc<DenseDataset>, range: (usize, usize), hidden: usize) -> Self {
        assert!(hidden > 0, "hidden size must be positive");
        assert!(
            range.0 <= range.1 && range.1 <= data.len(),
            "partition out of bounds"
        );
        let (d, k) = (data.dim(), data.num_classes());
        let n = hidden * d + hidden + k * hidden + k;
        let w1_scale = (2.0 / d as f32).sqrt();
        let w2_scale = (2.0 / hidden as f32).sqrt();
        let mut params = vec![0.0f32; n];
        // Deterministic pseudo-random weights in [-scale, scale].
        for (i, p) in params.iter_mut().enumerate().take(hidden * d) {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            *p = ((h % 2001) as f32 / 1000.0 - 1.0) * w1_scale * 0.5;
        }
        let w2_start = hidden * d + hidden;
        for i in 0..k * hidden {
            let h = ((i + 7919) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            params[w2_start + i] = ((h % 2001) as f32 / 1000.0 - 1.0) * w2_scale * 0.5;
        }
        Mlp {
            data,
            range,
            hidden,
            params,
        }
    }

    fn dims(&self) -> (usize, usize, usize) {
        (self.data.dim(), self.hidden, self.data.num_classes())
    }

    /// Forward pass: returns (pre-activations, hidden activations, logits).
    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (d, h, k) = self.dims();
        let w1 = &self.params[..h * d];
        let b1 = &self.params[h * d..h * d + h];
        let w2 = &self.params[h * d + h..h * d + h + k * h];
        let b2 = &self.params[h * d + h + k * h..];

        let mut pre = Vec::with_capacity(h);
        let mut act = Vec::with_capacity(h);
        for j in 0..h {
            let row = &w1[j * d..(j + 1) * d];
            // f32 sum: the forward pass models f32 training precision.
            let z: f32 = row.iter().zip(x).map(|(a, b)| a * b).sum::<f32>() + b1[j];
            pre.push(z);
            act.push(relu(z));
        }
        let mut logits = Vec::with_capacity(k);
        for c in 0..k {
            let row = &w2[c * h..(c + 1) * h];
            // f32 sum: the forward pass models f32 training precision.
            logits.push(row.iter().zip(&act).map(|(a, b)| a * b).sum::<f32>() + b2[c]);
        }
        (pre, act, logits)
    }

    /// Classification accuracy over the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn accuracy(&self, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "accuracy over empty batch");
        let correct = indices
            .iter()
            .filter(|&&local| {
                let idx = self.range.0 + local;
                let (_, _, logits) = self.forward(self.data.features(idx));
                specsync_tensor::argmax(&logits) == Some(self.data.label(idx))
            })
            .count();
        correct as f64 / indices.len() as f64
    }
}

impl Model for Mlp {
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
            let (_, _, logits) = self.forward(self.data.features(idx));
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
        let (d, h, k) = self.dims();
        let w2_start = h * d + h;
        let b2_start = w2_start + k * h;
        let inv_batch = 1.0 / indices.len() as f32;

        for &local in indices {
            let idx = self.range.0 + local;
            let x = self.data.features(idx);
            let y = self.data.label(idx);
            let (pre, act, mut probs) = self.forward(x);
            softmax_in_place(&mut probs);

            // dL/dlogit_c = p_c - 1{c == y}
            let mut dact = vec![0.0f32; h];
            for (c, &p) in probs.iter().enumerate() {
                let dl = (p - f32::from(c == y)) * inv_batch;
                let w2_row = &self.params[w2_start + c * h..w2_start + (c + 1) * h];
                let g_row = &mut out[w2_start + c * h..w2_start + (c + 1) * h];
                for j in 0..h {
                    g_row[j] += dl * act[j];
                    dact[j] += dl * w2_row[j];
                }
                out[b2_start + c] += dl;
            }
            // Back through ReLU into W1/b1.
            for j in 0..h {
                let dpre = dact[j] * relu_grad(pre[j]);
                if dpre != 0.0 {
                    let g_row = &mut out[j * d..(j + 1) * d];
                    for (g, &xi) in g_row.iter_mut().zip(x) {
                        *g += dpre * xi;
                    }
                    out[h * d + j] += dpre;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check_gradient;

    fn dataset() -> Arc<DenseDataset> {
        Arc::new(DenseDataset::generate(256, 10, 4, 3.0, 0.0, 33))
    }

    #[test]
    fn param_count_matches_layout() {
        let m = Mlp::new(dataset(), 16);
        assert_eq!(m.num_params(), 16 * 10 + 16 + 4 * 16 + 4);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = Mlp::new(dataset(), 8);
        let indices: Vec<usize> = (0..16).collect();
        check_gradient(&mut m, &indices, 5e-2);
    }

    #[test]
    fn sgd_learns_and_accuracy_rises() {
        let mut m = Mlp::new(dataset(), 16);
        let all: Vec<usize> = (0..m.num_samples()).collect();
        let initial = m.loss(&all);
        let initial_acc = m.accuracy(&all);
        let mut grad = vec![0.0f32; m.num_params()];
        for _ in 0..300 {
            m.gradient(&all, &mut grad);
            let params: Vec<f32> = m
                .params()
                .iter()
                .zip(&grad)
                .map(|(p, g)| p - 0.3 * g)
                .collect();
            m.set_params(&params);
        }
        let trained = m.loss(&all);
        let acc = m.accuracy(&all);
        assert!(
            trained < initial * 0.5,
            "loss barely moved: {initial} -> {trained}"
        );
        assert!(
            acc > initial_acc,
            "accuracy did not improve: {initial_acc} -> {acc}"
        );
        assert!(acc > 0.8, "accuracy only {acc}");
    }

    #[test]
    fn init_is_deterministic() {
        let a = Mlp::new(dataset(), 8);
        let b = Mlp::new(dataset(), 8);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn partition_restricts_samples() {
        let m = Mlp::with_partition(dataset(), (0, 100), 8);
        assert_eq!(m.num_samples(), 100);
    }
}
