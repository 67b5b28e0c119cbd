//! Minimal numeric primitives for the SpecSync ML workloads.
//!
//! The SpecSync reproduction trains real models (matrix factorization and
//! an MLP) with real gradients; this crate provides the small,
//! dependency-free numeric substrate those models need: a reusable
//! [`SparseGrad`] accumulator for the rating-matrix workload, and
//! numerically stable reductions ([`log_sum_exp`], [`softmax_in_place`]).
//!
//! # Examples
//!
//! ```
//! use specsync_tensor::{argmax, softmax_in_place};
//!
//! let mut logits = [0.5, 2.0, -1.0];
//! softmax_in_place(&mut logits);
//! assert_eq!(argmax(&logits), Some(1));
//! assert!((logits.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ops;
mod sparse;

pub use ops::{argmax, log_sum_exp, relu, relu_grad, softmax_in_place};
pub use sparse::SparseGrad;
