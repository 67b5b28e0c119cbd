//! Minimal dense/sparse linear algebra for the SpecSync ML workloads.
//!
//! The SpecSync reproduction trains real models (matrix factorization,
//! softmax regression, an MLP) with real gradients; this crate provides the
//! small, dependency-free numeric substrate those models need: dense
//! [`Vector`]/[`Matrix`] types, a reusable [`SparseGrad`] accumulator for
//! the rating-matrix workload, and numerically stable reductions
//! ([`log_sum_exp`], [`softmax_in_place`]).
//!
//! # Examples
//!
//! ```
//! use specsync_tensor::{Matrix, Vector};
//!
//! let w = Matrix::from_rows(2, 3, vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
//! let logits = w.matvec(&[0.5, 2.0, -1.0]);
//! assert_eq!(logits.as_slice(), &[2.0, 0.5]);
//! let _ = Vector::zeros(3);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dense;
mod ops;
mod sparse;

pub use dense::{axpy, dot, Matrix, Vector};
pub use ops::{argmax, log_sum_exp, relu, relu_grad, softmax_in_place};
pub use sparse::SparseGrad;
