//! Synthetic datasets with the same *structure* as the paper's workloads.
//!
//! The paper trains on MovieLens (sparse user ratings), CIFAR-10 (dense
//! image vectors, 10 classes) and ImageNet (dense image vectors, many
//! classes). Those datasets and the GPU-scale models they require are not
//! available here, so we generate synthetic datasets that preserve the
//! learning structure: a low-rank-plus-noise rating matrix for matrix
//! factorization, and Gaussian-mixture feature vectors for classification.
//! Convergence behaviour under staleness — the quantity SpecSync acts on —
//! derives from the optimization landscape, not from pixel content.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Zero-mean Gaussian with the given standard deviation. Every caller
/// passes a finite, non-negative `std`, so construction failure is a
/// programming error worth a loud panic rather than an `expect`.
fn gaussian(std: f32) -> Normal<f32> {
    match Normal::new(0.0f32, std) {
        Ok(n) => n,
        Err(e) => panic!("gaussian(std = {std}): {e}"),
    }
}

/// One observed rating: user `u` gave item `i` the value `rating`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rating {
    /// User index, `< num_users`.
    pub user: usize,
    /// Item index, `< num_items`.
    pub item: usize,
    /// Observed rating value.
    pub rating: f32,
}

/// A MovieLens-like sparse rating dataset generated from a low-rank ground
/// truth plus observation noise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatingsDataset {
    num_users: usize,
    num_items: usize,
    ratings: Vec<Rating>,
}

impl RatingsDataset {
    /// Generates a dataset of `num_ratings` observations over a
    /// `num_users × num_items` matrix whose ground truth has rank
    /// `true_rank`, with Gaussian observation noise of `noise_std`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn generate(
        num_users: usize,
        num_items: usize,
        num_ratings: usize,
        true_rank: usize,
        noise_std: f32,
        seed: u64,
    ) -> Self {
        assert!(
            num_users > 0 && num_items > 0 && true_rank > 0,
            "dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = gaussian(1.0);
        let scale = 1.0 / (true_rank as f32).sqrt();

        // Ground-truth latent factors.
        let u: Vec<f32> = (0..num_users * true_rank)
            .map(|_| normal.sample(&mut rng) * scale)
            .collect();
        let v: Vec<f32> = (0..num_items * true_rank)
            .map(|_| normal.sample(&mut rng) * scale)
            .collect();

        let noise = gaussian(noise_std.max(0.0));
        // Item popularity follows a Zipf-like law, as in MovieLens: a few
        // blockbuster items receive most ratings. Under asynchronous
        // training these hot items become collision points where staleness
        // actually hurts — uniform sampling would wash that structure out.
        let zipf_cdf: Vec<f64> = {
            let weights: Vec<f64> = (0..num_items)
                .map(|i| 1.0 / (i as f64 + 1.0).powf(0.9))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        };
        let mut ratings = Vec::with_capacity(num_ratings);
        for _ in 0..num_ratings {
            let user = rng.random_range(0..num_users);
            let coin: f64 = rng.random_range(0.0..1.0);
            let item = zipf_cdf.partition_point(|&c| c < coin).min(num_items - 1);
            let uf = &u[user * true_rank..(user + 1) * true_rank];
            let vf = &v[item * true_rank..(item + 1) * true_rank];
            let dot: f32 = uf.iter().zip(vf).map(|(a, b)| a * b).sum();
            ratings.push(Rating {
                user,
                item,
                rating: dot + noise.sample(&mut rng),
            });
        }
        RatingsDataset {
            num_users,
            num_items,
            ratings,
        }
    }

    /// Number of users in the rating matrix.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items in the rating matrix.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of observed ratings.
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether the dataset holds no ratings.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// The `idx`-th observation.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn rating(&self, idx: usize) -> Rating {
        self.ratings[idx]
    }

    /// All observations.
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }
}

/// A dense classification dataset: feature vectors drawn from a Gaussian
/// mixture, one component per class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseDataset {
    dim: usize,
    num_classes: usize,
    features: Vec<f32>,
    labels: Vec<usize>,
}

impl DenseDataset {
    /// Generates `num_samples` feature vectors of dimension `dim` over
    /// `num_classes` classes.
    ///
    /// Class means sit at distance `separation` from the origin; samples are
    /// the mean plus unit Gaussian noise; a `label_noise` fraction of labels
    /// is flipped uniformly at random, which puts a floor on achievable loss
    /// (mirroring the irreducible error of real image datasets).
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `label_noise` is outside `[0, 1]`.
    pub fn generate(
        num_samples: usize,
        dim: usize,
        num_classes: usize,
        separation: f32,
        label_noise: f64,
        seed: u64,
    ) -> Self {
        assert!(
            dim > 0 && num_classes > 1,
            "need dim > 0 and at least two classes"
        );
        assert!(
            (0.0..=1.0).contains(&label_noise),
            "label_noise must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = gaussian(1.0);

        // Random unit directions for class means, scaled to `separation`.
        let mut means = vec![0.0f32; num_classes * dim];
        for c in 0..num_classes {
            let row = &mut means[c * dim..(c + 1) * dim];
            let mut norm = 0.0f32;
            for x in row.iter_mut() {
                *x = normal.sample(&mut rng);
                // Dataset generation is part of the seeded baseline; a
                // `dim`-length sum widened to f64 would shift every pinned
                // experiment result.
                norm += *x * *x;
            }
            let norm = norm.sqrt().max(1e-6);
            for x in row.iter_mut() {
                *x *= separation / norm;
            }
        }

        let mut features = Vec::with_capacity(num_samples * dim);
        let mut labels = Vec::with_capacity(num_samples);
        for _ in 0..num_samples {
            let class = rng.random_range(0..num_classes);
            let mean = &means[class * dim..(class + 1) * dim];
            for &m in mean {
                features.push(m + normal.sample(&mut rng));
            }
            let label = if rng.random_range(0.0..1.0) < label_noise {
                rng.random_range(0..num_classes)
            } else {
                class
            };
            labels.push(label);
        }
        DenseDataset {
            dim,
            num_classes,
            features,
            labels,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The feature vector of sample `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn features(&self, idx: usize) -> &[f32] {
        &self.features[idx * self.dim..(idx + 1) * self.dim]
    }

    /// The label of sample `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn label(&self, idx: usize) -> usize {
        self.labels[idx]
    }
}

/// Splits `n` samples into `parts` contiguous, nearly equal index ranges —
/// the data partitioning `D_1 … D_m` of the PS architecture (paper §II-B).
///
/// # Panics
///
/// Panics if `parts == 0`.
///
/// # Examples
///
/// ```
/// use specsync_ml::partition_indices;
///
/// let parts = partition_indices(10, 3);
/// assert_eq!(parts, vec![(0, 4), (4, 7), (7, 10)]);
/// ```
pub fn partition_indices(n: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "cannot partition into zero parts");
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratings_generation_is_deterministic() {
        let a = RatingsDataset::generate(50, 40, 200, 4, 0.1, 9);
        let b = RatingsDataset::generate(50, 40, 200, 4, 0.1, 9);
        assert_eq!(a.ratings(), b.ratings());
    }

    #[test]
    fn ratings_indices_are_in_bounds() {
        let d = RatingsDataset::generate(30, 20, 500, 4, 0.1, 1);
        assert_eq!(d.len(), 500);
        for r in d.ratings() {
            assert!(r.user < 30 && r.item < 20);
            assert!(r.rating.is_finite());
        }
    }

    #[test]
    fn low_rank_signal_dominates_noise() {
        // With tiny noise the rating variance should reflect the latent
        // structure rather than the noise floor.
        let d = RatingsDataset::generate(100, 100, 2000, 8, 0.01, 2);
        let mean: f32 = d.ratings().iter().map(|r| r.rating).sum::<f32>() / d.len() as f32;
        let var: f32 = d
            .ratings()
            .iter()
            .map(|r| (r.rating - mean).powi(2))
            .sum::<f32>()
            / d.len() as f32;
        assert!(var > 0.1, "rating variance {var} unexpectedly small");
    }

    #[test]
    fn dense_generation_is_deterministic_and_bounded() {
        let a = DenseDataset::generate(100, 8, 4, 3.0, 0.05, 7);
        let b = DenseDataset::generate(100, 8, 4, 3.0, 0.05, 7);
        assert_eq!(a.len(), 100);
        for i in 0..a.len() {
            assert_eq!(a.features(i), b.features(i));
            assert_eq!(a.label(i), b.label(i));
            assert!(a.label(i) < 4);
        }
    }

    #[test]
    fn dense_classes_are_separable() {
        // With large separation and zero label noise, a nearest-mean
        // classifier should beat chance by a wide margin; we check that the
        // per-class feature means are far apart.
        let d = DenseDataset::generate(400, 16, 2, 6.0, 0.0, 3);
        let mut sums = vec![vec![0.0f64; 16]; 2];
        let mut counts = [0usize; 2];
        for i in 0..d.len() {
            let c = d.label(i);
            counts[c] += 1;
            for (s, &f) in sums[c].iter_mut().zip(d.features(i)) {
                *s += f as f64;
            }
        }
        let dist: f64 = (0..16)
            .map(|j| {
                let a = sums[0][j] / counts[0] as f64;
                let b = sums[1][j] / counts[1] as f64;
                (a - b).powi(2)
            })
            .sum::<f64>()
            .sqrt();
        assert!(dist > 3.0, "class means only {dist} apart");
    }

    #[test]
    fn partition_covers_everything_without_overlap() {
        let parts = partition_indices(103, 7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts.last().unwrap().1, 103);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let sizes: Vec<usize> = parts.iter().map(|&(a, b)| b - a).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_handles_more_parts_than_items() {
        let parts = partition_indices(2, 4);
        assert_eq!(parts.iter().map(|&(a, b)| b - a).sum::<usize>(), 2);
    }

    #[test]
    #[should_panic(expected = "label_noise")]
    fn invalid_label_noise_panics() {
        DenseDataset::generate(10, 4, 2, 1.0, 1.5, 0);
    }
}
