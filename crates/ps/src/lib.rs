//! Parameter-server substrate for the SpecSync reproduction.
//!
//! Implements the server side of the PS architecture the paper builds on
//! (Fig. 1): a versioned [`ParameterStore`] with asynchronous push/pull
//! semantics matching MXNet's `dist_async` kvstore. The paper shards keys
//! across servers; here one store holds the whole vector and serializes
//! every push in arrival order. Its server count (`num_shards`) is kept
//! only for the checkpoint format and the crash model of
//! [`ReplicatedStore`]. (The wire-size model used for transfer accounting
//! lives with the rest of the wire vocabulary in `specsync-net`.)
//!
//! The store is deliberately *policy-free*: ASP/BSP/SSP/SpecSync behaviour
//! is decided by the scheme and scheduler layers (`specsync-sync`,
//! `specsync-core`); servers "are agnostic to speculative synchronization"
//! (paper §V-B).
//!
//! # Examples
//!
//! ```
//! use specsync_ps::ParameterStore;
//! use specsync_simnet::WorkerId;
//!
//! let mut store = ParameterStore::new(vec![0.0; 4], 2);
//! let snapshot = store.pull(WorkerId::new(0));
//! store.apply_push(WorkerId::new(1), &[1.0, 1.0, 1.0, 1.0], 0.1);
//! assert_eq!(store.staleness_of(WorkerId::new(0)), 1);
//! assert_eq!(snapshot.version(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod checksum;
mod journal;
mod replica;
mod store;

pub use checkpoint::{CheckpointError, StoreCheckpoint};
pub use checksum::{checksum, SEGMENT};
pub use journal::{JournalEntry, JournalFull, PushJournal, PushPayload};
pub use replica::{ReplicaError, ReplicatedStore};
pub use store::{ParamSnapshot, ParameterStore};
