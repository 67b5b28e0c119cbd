//! Sparse gradients, used for the matrix-factorization workload whose
//! inputs (user ratings) are sparse — one of the workload characteristics
//! the paper calls out in §VI-A.

/// A reusable sparse gradient accumulator (a classic sparse accumulator /
/// "SPA"): O(dim) memory held across minibatches, O(nnz) work per batch.
///
/// Models scatter-add per-sample contributions with [`add`](Self::add);
/// repeated indices accumulate without hashing or sorting.
/// [`finish`](Self::finish) canonicalizes to index order so downstream
/// consumers see one deterministic layout.
///
/// # Examples
///
/// ```
/// use specsync_tensor::SparseGrad;
///
/// let mut g = SparseGrad::new();
/// g.reset(6);
/// g.add(4, 1.0);
/// g.add(1, 2.0);
/// g.add(4, 0.5);
/// g.finish();
/// assert_eq!(g.iter().collect::<Vec<_>>(), vec![(1, 2.0), (4, 1.5)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseGrad {
    dim: usize,
    /// Scratch values; zero except at `touched` indices.
    values: Vec<f32>,
    /// Membership flags mirroring `values`.
    marked: Vec<bool>,
    /// Indices with a stored entry; sorted after `finish`.
    touched: Vec<usize>,
}

impl SparseGrad {
    /// An empty accumulator of dimension 0; call [`reset`](Self::reset)
    /// before use.
    pub fn new() -> Self {
        SparseGrad::default()
    }

    /// Clears the accumulator and sets its logical dimension, keeping
    /// scratch capacity.
    pub fn reset(&mut self, dim: usize) {
        for &i in &self.touched {
            self.values[i] = 0.0;
            self.marked[i] = false;
        }
        self.touched.clear();
        self.dim = dim;
        if self.values.len() < dim {
            self.values.resize(dim, 0.0);
            self.marked.resize(dim, false);
        }
    }

    /// Logical dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of touched coordinates (stored entries, zeros included).
    pub fn nnz(&self) -> usize {
        self.touched.len()
    }

    /// Accumulates `value` into coordinate `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn add(&mut self, index: usize, value: f32) {
        assert!(
            index < self.dim,
            "index {index} out of bounds for dimension {}",
            self.dim
        );
        if !self.marked[index] {
            self.marked[index] = true;
            self.touched.push(index);
        }
        self.values[index] += value;
    }

    /// Canonicalizes entry order to ascending index. Call once after the
    /// last [`add`](Self::add); iteration order is deterministic either
    /// way, but consumers (the wire codec, the store) see index order.
    pub fn finish(&mut self) {
        self.touched.sort_unstable();
    }

    /// The accumulated value at `index` (zero if untouched).
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn get(&self, index: usize) -> f32 {
        assert!(index < self.dim, "index out of bounds");
        self.values[index]
    }

    /// Iterates over stored `(index, value)` pairs in entry order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.touched.iter().map(|&i| (i, self.values[i]))
    }

    /// Densifies into a `Vec<f32>`.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_accumulates_duplicates() {
        let mut g = SparseGrad::new();
        g.reset(8);
        g.add(3, 1.0);
        g.add(3, 2.0);
        g.add(0, -1.0);
        assert_eq!(g.nnz(), 2);
        assert_eq!(g.get(3), 3.0);
        assert_eq!(g.get(0), -1.0);
        assert_eq!(g.get(5), 0.0);
    }

    #[test]
    fn grad_reset_reuses_scratch_cleanly() {
        let mut g = SparseGrad::new();
        g.reset(4);
        g.add(2, 5.0);
        g.reset(6);
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.get(2), 0.0);
        g.add(5, 1.0);
        g.finish();
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(5, 1.0)]);
    }

    #[test]
    fn grad_finish_sorts_entries() {
        let mut g = SparseGrad::new();
        g.reset(10);
        for i in [9, 1, 4] {
            g.add(i, i as f32);
        }
        g.finish();
        let idx: Vec<usize> = g.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![1, 4, 9]);
    }

    #[test]
    fn grad_converts_to_dense() {
        let mut g = SparseGrad::new();
        g.reset(4);
        g.add(1, 2.0);
        g.add(3, -1.0);
        g.add(3, 1.0); // cancels to an explicit zero
        g.finish();
        assert_eq!(g.nnz(), 2, "an explicit zero stays an entry");
        assert_eq!(g.to_dense(), vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grad_oversized_index_panics() {
        let mut g = SparseGrad::new();
        g.reset(2);
        g.add(2, 1.0);
    }
}
