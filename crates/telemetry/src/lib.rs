//! Typed event traces and metrics sinks for the SpecSync protocol.
//!
//! The paper's whole mechanism is driven by an observed event stream: the
//! scheduler watches `notify` messages to decide aborts, and Algorithm 1
//! retunes `ABORT_TIME`/`ABORT_RATE` from the previous epoch's push
//! history. End-of-run aggregates cannot show *why* a given abort fired or
//! whether the tuner's estimated freshness gain (Eq. 7) matched what the
//! epoch actually delivered. This crate provides the missing layer:
//!
//! - [`Event`] — the typed event taxonomy (pulls, pushes, notifies, abort
//!   decisions, re-syncs, tuning passes, evaluations, worker states);
//! - [`Timestamp`] — a minimal clock abstraction so the *same* events carry
//!   [`VirtualTime`](specsync_simnet::VirtualTime) in the simulator and
//!   clock-injected wall time ([`std::time::Duration`]) in the threaded
//!   runtime;
//! - [`EventSink`] — where events go: [`NullSink`] (the zero-cost
//!   default), [`InMemorySink`], [`JsonlSink`] (streaming JSON-lines
//!   writer) and [`MetricsSink`] (per-worker counters plus staleness /
//!   abort-latency / wasted-compute histograms);
//! - [`LossCurve`] — the loss-over-time series shared by the simulator's
//!   `RunReport` and the runtime's `RuntimeReport`, generic over the same
//!   timestamp types.
//!
//! # Determinism contract
//!
//! In the simulator every event timestamp is virtual and every emission
//! happens at a deterministic point of the event loop, so two runs with
//! the same seed write **byte-identical** JSONL traces. In the threaded
//! runtime timestamps come from the injected
//! `ClockSource` and events interleave as the OS schedules threads — the
//! taxonomy is the same, the ordering is not reproducible. Nothing in this
//! crate reads an ambient clock (`crates/clippy.toml` disallows it).
//!
//! # Examples
//!
//! Capture events in memory:
//!
//! ```
//! use specsync_telemetry::{Event, EventSink, InMemorySink};
//! use specsync_simnet::{VirtualTime, WorkerId};
//!
//! let sink = InMemorySink::new();
//! sink.record(
//!     VirtualTime::from_secs(1),
//!     &Event::Notify { worker: WorkerId::new(0) },
//! );
//! assert_eq!(sink.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod curve;
mod event;
mod jsonl;
mod metrics;
mod sink;

pub use curve::{LossCurve, LossSample};
pub use event::{Event, FaultKind, Timestamp, WorkerPhase};
pub use jsonl::{parse_trace_line, read_trace, JsonlSink, TraceError, TraceRecord};
pub use metrics::{Histogram, MetricsSink, MetricsSnapshot, WorkerCounters};
pub use sink::{EventSink, InMemorySink, NullSink};
