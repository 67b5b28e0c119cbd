//! Seeded randomness for reproducible simulations.
//!
//! Every component of a simulation draws from its own [`StdRng`] stream,
//! derived from a single master seed plus a stream label. Components
//! therefore consume randomness independently: adding draws in one component
//! never perturbs another, which keeps experiment sweeps comparable.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp, LogNormal, Uniform};
use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A duration distribution was constructed with invalid parameters
/// (non-positive mean, `lo >= hi`, ...).
///
/// Carried by [`DurationSampler::try_sample`] so callers can surface the
/// bad configuration as a typed error instead of a panic deep inside a
/// simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributionError {
    message: &'static str,
}

impl DistributionError {
    /// Creates an error with a static description.
    pub fn new(message: &'static str) -> Self {
        DistributionError { message }
    }
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message)
    }
}

impl std::error::Error for DistributionError {}

/// A factory of independent, deterministic RNG streams.
///
/// # Examples
///
/// ```
/// use specsync_simnet::RngStreams;
///
/// let streams = RngStreams::new(42);
/// let mut a = streams.stream("worker-0");
/// let mut b = streams.stream("worker-1");
/// // Streams with the same label are identical; different labels diverge.
/// let mut a2 = RngStreams::new(42).stream("worker-0");
/// use rand::RngExt;
/// assert_eq!(a.random_range(0..u64::MAX), a2.random_range(0..u64::MAX));
/// let _ = b;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngStreams {
    master_seed: u64,
}

impl RngStreams {
    /// Creates a stream factory rooted at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngStreams { master_seed }
    }

    /// The master seed this factory was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derives the deterministic stream named `label`.
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.master_seed ^ fnv1a(label.as_bytes()))
    }

    /// Derives the deterministic stream for an indexed component, e.g.
    /// worker `i`.
    pub fn indexed_stream(&self, label: &str, index: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.master_seed
                ^ fnv1a(label.as_bytes())
                ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV offset basis: the FNV-1a of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a: the workspace's one byte hash. It is stable across
/// platforms and Rust versions (unlike `DefaultHasher`), which RNG stream
/// labels, chaos scripts and the wire checksums all rely on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A distribution over durations, used for compute times and network
/// latencies.
///
/// All variants are parameterized in *seconds* for readability at
/// construction sites; samples are rounded to microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DurationSampler {
    /// Always the same duration.
    Constant {
        /// The duration, in seconds.
        secs: f64,
    },
    /// Uniform over `[lo, hi)` seconds.
    Uniform {
        /// Lower bound, in seconds.
        lo: f64,
        /// Upper bound, in seconds.
        hi: f64,
    },
    /// Log-normal with the given mean and coefficient of variation.
    ///
    /// This is the canonical model for iteration times on shared
    /// infrastructure: always positive and right-skewed (occasional
    /// stragglers), matching the EC2 behaviour the paper measures.
    LogNormal {
        /// Mean of the sampled duration, in seconds.
        mean: f64,
        /// Coefficient of variation (stddev / mean).
        cv: f64,
    },
    /// Exponential with the given mean — used for memoryless arrivals.
    Exponential {
        /// Mean of the sampled duration, in seconds.
        mean: f64,
    },
}

impl DurationSampler {
    /// Draws one duration.
    ///
    /// # Panics
    ///
    /// Panics if the variant's parameters are invalid (non-positive mean,
    /// `lo >= hi`, ...); use [`try_sample`](Self::try_sample) to get the
    /// problem as a typed [`DistributionError`] instead. Parameters are
    /// validated lazily at sample time so the type stays a plain `Copy`
    /// value.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> SimDuration {
        match self.try_sample(rng) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// Draws one duration, reporting invalid parameters as a typed error
    /// rather than panicking.
    pub fn try_sample<R: Rng>(&self, rng: &mut R) -> Result<SimDuration, DistributionError> {
        let secs = match *self {
            DurationSampler::Constant { secs } => {
                if secs.is_nan() || secs < 0.0 {
                    return Err(DistributionError::new(
                        "constant duration must be non-negative",
                    ));
                }
                secs
            }
            DurationSampler::Uniform { lo, hi } => {
                let dist = if lo < hi && lo >= 0.0 {
                    Uniform::new(lo, hi).ok()
                } else {
                    None
                };
                match dist {
                    Some(d) => d.sample(rng),
                    None => {
                        return Err(DistributionError::new(
                            "uniform bounds must satisfy 0 <= lo < hi",
                        ))
                    }
                }
            }
            DurationSampler::LogNormal { mean, cv } => {
                if !(mean > 0.0 && cv >= 0.0) {
                    return Err(DistributionError::new(
                        "lognormal needs mean > 0 and cv >= 0",
                    ));
                }
                if cv == 0.0 {
                    mean
                } else {
                    // Convert (mean, cv) of the *sampled value* to the
                    // underlying normal's (mu, sigma).
                    let sigma2 = (1.0 + cv * cv).ln();
                    let mu = mean.ln() - sigma2 / 2.0;
                    match LogNormal::new(mu, sigma2.sqrt()).ok() {
                        Some(d) => d.sample(rng),
                        None => {
                            return Err(DistributionError::new(
                                "lognormal needs mean > 0 and cv >= 0",
                            ))
                        }
                    }
                }
            }
            DurationSampler::Exponential { mean } => {
                let dist = if mean > 0.0 {
                    Exp::new(1.0 / mean).ok()
                } else {
                    None
                };
                match dist {
                    Some(d) => d.sample(rng),
                    None => return Err(DistributionError::new("exponential needs mean > 0")),
                }
            }
        };
        Ok(SimDuration::from_secs_f64(secs))
    }

    /// Scales the distribution's location by `factor` (e.g. a slower
    /// machine has `factor > 1`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(&self, factor: f64) -> DurationSampler {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        match *self {
            DurationSampler::Constant { secs } => DurationSampler::Constant {
                secs: secs * factor,
            },
            DurationSampler::Uniform { lo, hi } => DurationSampler::Uniform {
                lo: lo * factor,
                hi: hi * factor,
            },
            DurationSampler::LogNormal { mean, cv } => DurationSampler::LogNormal {
                mean: mean * factor,
                cv,
            },
            DurationSampler::Exponential { mean } => DurationSampler::Exponential {
                mean: mean * factor,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn streams_are_deterministic_and_label_dependent() {
        let s = RngStreams::new(99);
        let mut a1 = s.stream("net");
        let mut a2 = RngStreams::new(99).stream("net");
        let mut b = s.stream("compute");
        let x1: u64 = a1.random_range(0..u64::MAX);
        let x2: u64 = a2.random_range(0..u64::MAX);
        let y: u64 = b.random_range(0..u64::MAX);
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
        use rand::RngExt as _;
    }

    #[test]
    fn indexed_streams_diverge_by_index() {
        let s = RngStreams::new(1);
        use rand::RngExt as _;
        let a: u64 = s.indexed_stream("w", 0).random_range(0..u64::MAX);
        let b: u64 = s.indexed_stream("w", 1).random_range(0..u64::MAX);
        assert_ne!(a, b);
    }

    #[test]
    fn constant_sampler_is_exact() {
        let d = DurationSampler::Constant { secs: 1.25 };
        assert_eq!(d.sample(&mut rng()), SimDuration::from_secs_f64(1.25));
    }

    #[test]
    fn uniform_sampler_respects_bounds() {
        let d = DurationSampler::Uniform { lo: 1.0, hi: 2.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r).as_secs_f64();
            assert!((1.0..2.0).contains(&s), "sample {s} out of bounds");
        }
    }

    #[test]
    fn lognormal_mean_is_calibrated() {
        let d = DurationSampler::LogNormal {
            mean: 14.0,
            cv: 0.2,
        };
        let mut r = rng();
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r).as_secs_f64()).sum();
        let emp_mean = sum / n as f64;
        assert!(
            (emp_mean - 14.0).abs() < 0.2,
            "empirical mean {emp_mean} too far from 14.0"
        );
    }

    #[test]
    fn lognormal_zero_cv_degenerates_to_constant() {
        let d = DurationSampler::LogNormal { mean: 3.0, cv: 0.0 };
        assert_eq!(d.sample(&mut rng()), SimDuration::from_secs_f64(3.0));
    }

    #[test]
    fn exponential_mean_is_calibrated() {
        let d = DurationSampler::Exponential { mean: 2.0 };
        let mut r = rng();
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut r).as_secs_f64()).sum();
        assert!((sum / n as f64 - 2.0).abs() < 0.1);
    }

    #[test]
    fn scaled_shifts_location() {
        let d = DurationSampler::LogNormal {
            mean: 10.0,
            cv: 0.3,
        }
        .scaled(1.5);
        assert_eq!(
            d,
            DurationSampler::LogNormal {
                mean: 15.0,
                cv: 0.3
            }
        );
        let c = DurationSampler::Constant { secs: 2.0 }.scaled(0.5);
        assert_eq!(c, DurationSampler::Constant { secs: 1.0 });
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn zero_scale_panics() {
        let _ = DurationSampler::Constant { secs: 1.0 }.scaled(0.0);
    }

    #[test]
    fn try_sample_reports_invalid_parameters() {
        let mut r = rng();
        let bad = DurationSampler::Uniform { lo: 2.0, hi: 1.0 };
        let err = bad.try_sample(&mut r).unwrap_err();
        assert!(err.to_string().contains("lo < hi"));
        let bad = DurationSampler::LogNormal {
            mean: -1.0,
            cv: 0.2,
        };
        assert!(bad.try_sample(&mut r).is_err());
        let bad = DurationSampler::Exponential { mean: 0.0 };
        assert!(bad.try_sample(&mut r).is_err());
        let bad = DurationSampler::Constant { secs: -1.0 };
        assert!(bad.try_sample(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "uniform bounds")]
    fn sample_panics_on_invalid_parameters() {
        let _ = DurationSampler::Uniform { lo: 2.0, hi: 1.0 }.sample(&mut rng());
    }

    #[test]
    fn label_hash_is_stable() {
        // Pin the FNV-1a output so cross-version determinism regressions
        // are caught loudly.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            h ^= b'a' as u64;
            h.wrapping_mul(0x0000_0100_0000_01B3)
        });
    }
}
