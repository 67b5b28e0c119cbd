//! Synchronization schemes for distributed SGD.
//!
//! The paper positions SpecSync against three established schemes
//! (§II-C): **ASP** (never wait — MXNet's default, "Original" in the
//! evaluation), **BSP** (barrier every iteration) and **SSP** (bounded
//! staleness), plus the strawman **naïve waiting** of §III-B. This crate
//! provides the scheme taxonomy ([`SchemeKind`]) and the per-scheme
//! bookkeeping ([`SspClock`], [`BspBarrier`]) consumed by the cluster
//! driver; SpecSync's own scheduler lives in `specsync-core`.
//!
//! # Examples
//!
//! ```
//! use specsync_sync::SchemeKind;
//!
//! let scheme = SchemeKind::specsync_adaptive();
//! assert!(scheme.is_speculative());
//! assert_eq!(scheme.label(), "SpecSync-Adaptive");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bsp;
mod scheme;
mod ssp;

pub use bsp::BspBarrier;
pub use scheme::{BaseScheme, SchemeKind, TuningMode};
pub use ssp::SspClock;
