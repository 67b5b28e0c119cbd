//! Matrix factorization — the paper's MovieLens workload.
//!
//! Parameters are user and item latent factors, stored flat as
//! `[user_0 factors…, user_1 factors…, …, item_0 factors…, …]`. The loss is
//! the squared rating-reconstruction error with per-sample L2
//! regularization of the touched factors (`err² + λ(‖u‖² + ‖v‖²)`, the
//! classic MF objective): a minibatch gradient therefore only involves the
//! factors of users and items appearing in the batch, which is what makes
//! the sparse push path O(nnz).

use std::sync::Arc;

use specsync_tensor::SparseGrad;

use crate::dataset::{Rating, RatingsDataset};
use crate::model::Model;

/// Matrix-factorization model over (a view of) a [`RatingsDataset`].
#[derive(Debug, Clone)]
pub struct MatrixFactorization {
    data: Arc<RatingsDataset>,
    /// Restriction of the dataset to `[lo, hi)` — the worker's partition.
    range: (usize, usize),
    rank: usize,
    reg: f32,
    params: Vec<f32>,
}

impl MatrixFactorization {
    /// Creates a model of the given latent `rank` over the full dataset,
    /// with L2 regularization strength `reg`. Parameters are initialized
    /// deterministically to small values spread around zero.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn new(data: Arc<RatingsDataset>, rank: usize, reg: f32) -> Self {
        let range = (0, data.len());
        Self::with_partition(data, range, rank, reg)
    }

    /// Creates a model whose training samples are restricted to the index
    /// range `[range.0, range.1)` — one worker's data partition `D_i`.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or the range is out of bounds.
    pub fn with_partition(
        data: Arc<RatingsDataset>,
        range: (usize, usize),
        rank: usize,
        reg: f32,
    ) -> Self {
        assert!(rank > 0, "rank must be positive");
        assert!(
            range.0 <= range.1 && range.1 <= data.len(),
            "partition out of bounds"
        );
        let n = (data.num_users() + data.num_items()) * rank;
        // Deterministic small init: pseudo-random in [-0.1, 0.1] scaled by
        // 1/sqrt(rank) so initial predictions are O(0.01).
        let scale = 0.1 / (rank as f32).sqrt();
        let params = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                ((h % 2001) as f32 / 1000.0 - 1.0) * scale
            })
            .collect();
        MatrixFactorization {
            data,
            range,
            rank,
            reg,
            params,
        }
    }

    /// The latent rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The partition's ratings, `ratings[lo..hi]`.
    fn ratings(&self) -> &[Rating] {
        &self.data.ratings()[self.range.0..self.range.1]
    }

    /// Length of the user factor table, where the item table starts.
    fn user_table_len(&self) -> usize {
        self.data.num_users() * self.rank
    }

    /// Prediction for a (user, item) pair under the current parameters.
    pub fn predict(&self, user: usize, item: usize) -> f32 {
        let (users, items) = self.params.split_at(self.user_table_len());
        dot(row(users, user, self.rank), row(items, item, self.rank))
    }
}

/// Row `index` of a factor table of `rank`-wide rows.
fn row(table: &[f32], index: usize, rank: usize) -> &[f32] {
    &table[index * rank..][..rank]
}

/// Mutable row `index` of a factor table of `rank`-wide rows.
fn row_mut(table: &mut [f32], index: usize, rank: usize) -> &mut [f32] {
    &mut table[index * rank..][..rank]
}

/// The prediction `u · v`, summed sequentially in coordinate order.
fn dot(u: &[f32], v: &[f32]) -> f32 {
    u.iter().zip(v).map(|(a, b)| a * b).sum()
}

/// One rating's gradient terms over its user row `u` and item row `v`:
/// `emit(k, du, dv)` receives coordinate `k`'s user and item terms, in
/// coordinate order. Both gradient kernels accumulate through this one
/// function, so the dense and sparse paths agree bit-for-bit per
/// coordinate by construction.
#[inline(always)]
fn rating_terms(
    u: &[f32],
    v: &[f32],
    rating: f32,
    inv_batch: f32,
    reg_coeff: f32,
    mut emit: impl FnMut(usize, f32, f32),
) {
    let err = rating - dot(u, v);
    let coeff = -2.0 * err * inv_batch;
    for (k, (&a, &b)) in u.iter().zip(v).enumerate() {
        emit(k, coeff * b + reg_coeff * a, coeff * a + reg_coeff * b);
    }
}

impl Model for MatrixFactorization {
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
        let rank = self.rank;
        let ratings = self.ratings();
        let (users, items) = self.params.split_at(self.user_table_len());
        let mut total = 0.0f64;
        // The regularization sum is accumulated in f64: at large parameter
        // counts an f32 running sum of squares loses low-order bits.
        let mut reg_sum = 0.0f64;
        for &local in indices {
            let r = ratings[local];
            let (u, v) = (row(users, r.user, rank), row(items, r.item, rank));
            let err = r.rating - dot(u, v);
            total += (err * err) as f64;
            for (&a, &b) in u.iter().zip(v) {
                let (a, b) = (a as f64, b as f64);
                reg_sum += a * a + b * b;
            }
        }
        (total + self.reg as f64 * reg_sum) / indices.len() as f64
    }

    fn gradient(&self, indices: &[usize], out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.params.len(),
            "gradient buffer length mismatch"
        );
        assert!(!indices.is_empty(), "gradient over empty batch");
        out.fill(0.0);
        let rank = self.rank;
        let ratings = self.ratings();
        let split = self.user_table_len();
        let (users, items) = self.params.split_at(split);
        let (grad_users, grad_items) = out.split_at_mut(split);
        let inv_batch = 1.0 / indices.len() as f32;
        let reg_coeff = 2.0 * self.reg * inv_batch;
        for &local in indices {
            let r = ratings[local];
            let gu = row_mut(grad_users, r.user, rank);
            let gv = row_mut(grad_items, r.item, rank);
            let (u, v) = (row(users, r.user, rank), row(items, r.item, rank));
            rating_terms(u, v, r.rating, inv_batch, reg_coeff, |k, du, dv| {
                gu[k] += du;
                gv[k] += dv;
            });
        }
    }

    fn sparse_gradient(&self, indices: &[usize], out: &mut SparseGrad) -> bool {
        assert!(!indices.is_empty(), "gradient over empty batch");
        out.reset(self.params.len());
        let rank = self.rank;
        let ratings = self.ratings();
        let split = self.user_table_len();
        let (users, items) = self.params.split_at(split);
        let inv_batch = 1.0 / indices.len() as f32;
        let reg_coeff = 2.0 * self.reg * inv_batch;
        for &local in indices {
            let r = ratings[local];
            let (uo, io) = (r.user * rank, split + r.item * rank);
            let (u, v) = (row(users, r.user, rank), row(items, r.item, rank));
            rating_terms(u, v, r.rating, inv_batch, reg_coeff, |k, du, dv| {
                out.add(uo + k, du);
                out.add(io + k, dv);
            });
        }
        out.finish();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchSampler;
    use crate::model::check_gradient;

    fn dataset() -> Arc<RatingsDataset> {
        Arc::new(RatingsDataset::generate(20, 15, 300, 4, 0.05, 11))
    }

    #[test]
    fn param_layout_has_expected_size() {
        let m = MatrixFactorization::new(dataset(), 6, 0.01);
        assert_eq!(m.num_params(), (20 + 15) * 6);
        assert_eq!(m.num_samples(), 300);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = MatrixFactorization::new(dataset(), 4, 0.01);
        let indices: Vec<usize> = (0..32).collect();
        check_gradient(&mut m, &indices, 5e-2);
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut m = MatrixFactorization::new(dataset(), 4, 0.001);
        let all: Vec<usize> = (0..m.num_samples()).collect();
        let initial = m.loss(&all);
        let mut grad = vec![0.0f32; m.num_params()];
        for _ in 0..300 {
            m.gradient(&all, &mut grad);
            let params: Vec<f32> = m
                .params()
                .iter()
                .zip(&grad)
                .map(|(p, g)| p - 0.5 * g)
                .collect();
            m.set_params(&params);
        }
        let final_loss = m.loss(&all);
        assert!(
            final_loss < initial * 0.5,
            "loss did not halve: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn partition_restricts_samples() {
        let m = MatrixFactorization::with_partition(dataset(), (100, 150), 4, 0.0);
        assert_eq!(m.num_samples(), 50);
    }

    #[test]
    fn set_params_round_trips() {
        let mut m = MatrixFactorization::new(dataset(), 3, 0.0);
        let p: Vec<f32> = (0..m.num_params()).map(|i| i as f32 * 0.001).collect();
        m.set_params(&p);
        assert_eq!(m.params(), &p[..]);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn wrong_param_length_panics() {
        let mut m = MatrixFactorization::new(dataset(), 3, 0.0);
        m.set_params(&[0.0]);
    }

    #[test]
    fn init_is_deterministic() {
        let a = MatrixFactorization::new(dataset(), 4, 0.0);
        let b = MatrixFactorization::new(dataset(), 4, 0.0);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn sparse_gradient_matches_dense_exactly() {
        let m = MatrixFactorization::new(dataset(), 4, 0.02);
        let indices: Vec<usize> = (0..32).collect();
        let mut dense = vec![0.0f32; m.num_params()];
        m.gradient(&indices, &mut dense);
        let mut sparse = SparseGrad::new();
        assert!(m.sparse_gradient(&indices, &mut sparse));
        assert_eq!(sparse.to_dense(), dense);
        // Truly sparse: a 32-sample batch touches at most 64 factor rows.
        assert!(sparse.nnz() <= 64 * m.rank());
        assert!(sparse.nnz() < m.num_params());
    }

    /// `predict` in flat-offset form, one bounds-checked index per
    /// coordinate. With the three functions below it is the reference
    /// that the row-slice kernels must match bit for bit.
    fn reference_predict(m: &MatrixFactorization, user: usize, item: usize) -> f32 {
        let uo = user * m.rank;
        let io = (m.data.num_users() + item) * m.rank;
        let u = &m.params[uo..uo + m.rank];
        let v = &m.params[io..io + m.rank];
        u.iter().zip(v).map(|(a, b)| a * b).sum()
    }

    fn reference_loss(m: &MatrixFactorization, indices: &[usize]) -> f64 {
        let mut total = 0.0f64;
        let mut reg_sum = 0.0f64;
        for &local in indices {
            let r = m.data.rating(m.range.0 + local);
            let err = r.rating - reference_predict(m, r.user, r.item);
            total += (err * err) as f64;
            let uo = r.user * m.rank;
            let io = (m.data.num_users() + r.item) * m.rank;
            for k in 0..m.rank {
                let u = m.params[uo + k] as f64;
                let v = m.params[io + k] as f64;
                reg_sum += u * u + v * v;
            }
        }
        (total + m.reg as f64 * reg_sum) / indices.len() as f64
    }

    fn reference_gradient(m: &MatrixFactorization, indices: &[usize], out: &mut [f32]) {
        out.fill(0.0);
        let inv_batch = 1.0 / indices.len() as f32;
        let reg_coeff = 2.0 * m.reg * inv_batch;
        for &local in indices {
            let r = m.data.rating(m.range.0 + local);
            let uo = r.user * m.rank;
            let io = (m.data.num_users() + r.item) * m.rank;
            let err = r.rating - reference_predict(m, r.user, r.item);
            let coeff = -2.0 * err * inv_batch;
            for k in 0..m.rank {
                let u = m.params[uo + k];
                let v = m.params[io + k];
                out[uo + k] += coeff * v + reg_coeff * u;
                out[io + k] += coeff * u + reg_coeff * v;
            }
        }
    }

    fn reference_sparse_gradient(m: &MatrixFactorization, indices: &[usize], out: &mut SparseGrad) {
        out.reset(m.params.len());
        let inv_batch = 1.0 / indices.len() as f32;
        let reg_coeff = 2.0 * m.reg * inv_batch;
        for &local in indices {
            let r = m.data.rating(m.range.0 + local);
            let uo = r.user * m.rank;
            let io = (m.data.num_users() + r.item) * m.rank;
            let err = r.rating - reference_predict(m, r.user, r.item);
            let coeff = -2.0 * err * inv_batch;
            for k in 0..m.rank {
                let u = m.params[uo + k];
                let v = m.params[io + k];
                out.add(uo + k, coeff * v + reg_coeff * u);
                out.add(io + k, coeff * u + reg_coeff * v);
            }
        }
        out.finish();
    }

    /// Bit patterns, NaNs canonicalized: Rust leaves the sign and payload
    /// of a NaN result unspecified (the compiler may commute an add whose
    /// operands are two different NaNs), so "bit-identical" means equal
    /// bits for every non-NaN value and NaN where the reference has NaN.
    fn bits(values: &[f32]) -> Vec<u32> {
        let canonical = |x: f32| if x.is_nan() { f32::NAN } else { x };
        values.iter().map(|&x| canonical(x).to_bits()).collect()
    }

    fn loss_bits(x: f64) -> u64 {
        if x.is_nan() { f64::NAN } else { x }.to_bits()
    }

    #[test]
    fn kernels_match_the_reference_bit_for_bit() {
        let data = Arc::new(RatingsDataset::generate(40, 30, 600, 4, 0.05, 11));
        // The Zipf-hot item: the one rated most often.
        let mut counts = vec![0usize; data.num_items()];
        for r in data.ratings() {
            counts[r.item] += 1;
        }
        let hot = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap_or(0);
        for rank in [1, 3, 8, 17] {
            for range in [(0, 400), (250, 600)] {
                let hot_batch: Vec<usize> = (0..range.1 - range.0)
                    .filter(|&local| data.rating(range.0 + local).item == hot)
                    .collect();
                assert!(hot_batch.len() > 10, "item {hot} is not hot");
                let batches = [
                    (0..range.1 - range.0).collect(),
                    vec![0, 0, 7, 7, 7, 3, 0, 7],
                    BatchSampler::new(range.1 - range.0, 64, rank as u64).next_batch(),
                    hot_batch,
                ];
                for reg in [0.0, 0.02] {
                    let mut m =
                        MatrixFactorization::with_partition(Arc::clone(&data), range, rank, reg);
                    let finite = m.params().to_vec();
                    // A NaN in the first rating's user row and an infinity in
                    // the hot item's row.
                    let mut poisoned = finite.clone();
                    let first = data.rating(range.0);
                    poisoned[first.user * rank] = f32::NAN;
                    poisoned[(data.num_users() + hot) * rank + rank - 1] = f32::INFINITY;
                    for params in [finite, poisoned] {
                        m.set_params(&params);
                        for batch in &batches {
                            let case =
                                format!("rank {rank}, range {range:?}, reg {reg}, batch {batch:?}");
                            let mut want = vec![0.0f32; m.num_params()];
                            let mut got = vec![1.0f32; m.num_params()];
                            reference_gradient(&m, batch, &mut want);
                            m.gradient(batch, &mut got);
                            assert_eq!(bits(&got), bits(&want), "gradient, {case}");
                            let (mut want, mut got) = (SparseGrad::new(), SparseGrad::new());
                            reference_sparse_gradient(&m, batch, &mut want);
                            assert!(m.sparse_gradient(batch, &mut got));
                            assert_eq!(got.nnz(), want.nnz(), "sparse nnz, {case}");
                            assert_eq!(
                                bits(&got.to_dense()),
                                bits(&want.to_dense()),
                                "sparse, {case}"
                            );
                            assert_eq!(
                                loss_bits(m.loss(batch)),
                                loss_bits(reference_loss(&m, batch)),
                                "loss, {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn regularized_gradient_matches_finite_differences() {
        let mut m = MatrixFactorization::new(dataset(), 4, 0.1);
        let indices: Vec<usize> = (0..48).collect();
        check_gradient(&mut m, &indices, 5e-2);
    }
}
