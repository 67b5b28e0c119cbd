//! # SpecSync
//!
//! A full Rust reproduction of **"Stay Fresh: Speculative Synchronization
//! for Fast Distributed Machine Learning"** (Zhang, Tian, Wang & Yan,
//! ICDCS 2018).
//!
//! In asynchronous parameter-server training, a worker only refreshes its
//! parameter replica when it pulls at the start of an iteration, so every
//! push made shortly afterwards is invisible until the next pull — the
//! *pushes-after-pull* staleness the paper identifies. SpecSync lets a
//! centralized scheduler watch all pushes and, when enough land inside a
//! speculation window `ABORT_TIME`, tell the worker to **abort** its
//! in-flight computation, re-pull fresh parameters, and start over. The
//! window and the trigger threshold `ABORT_RATE` are retuned every epoch by
//! the paper's Algorithm 1.
//!
//! This facade re-exports the whole stack:
//!
//! - [`core`] — the SpecSync scheduler, adaptive tuner, freshness
//!   estimators and PAP analysis (the paper's contribution);
//! - [`cluster`] — the virtual-time cluster harness that trains real models
//!   under simulated EC2 timing;
//! - [`ml`] — datasets, models and the three Table-I workloads;
//! - [`ps`] — the sharded asynchronous parameter server, with
//!   primary/backup replication, push journaling, and a crash-consistent
//!   checkpoint codec;
//! - [`net`] — the wire: a checksummed binary frame codec, the unified
//!   [`Transport`] API over the consolidated [`WireMessage`] vocabulary,
//!   and TCP servers that run the shards, scheduler and workers as
//!   separate OS processes;
//! - [`runtime`] — the same TCP servers and workers as the threads of one
//!   process, over loopback;
//! - [`sync`] — ASP/BSP/SSP/naïve-waiting schemes;
//! - [`telemetry`] — typed protocol event traces and metrics sinks shared
//!   by the simulator and the threaded runtime;
//! - [`simnet`] — the deterministic discrete-event engine.
//!
//! # Quickstart
//!
//! ```
//! use specsync::{ClusterSpec, InstanceType, SchemeKind, Trainer, Workload};
//!
//! let cluster = ClusterSpec::homogeneous(4, InstanceType::M4Xlarge);
//! let baseline = Trainer::new(Workload::tiny_test(), SchemeKind::Asp)
//!     .cluster(cluster.clone())
//!     .seed(7)
//!     .run();
//! let specsync = Trainer::new(Workload::tiny_test(), SchemeKind::specsync_adaptive())
//!     .cluster(cluster)
//!     .seed(7)
//!     .run();
//! println!("ASP runtime {} vs SpecSync {}", baseline.runtime(), specsync.runtime());
//! ```

#![warn(missing_docs)]

pub use specsync_cluster as cluster;
pub use specsync_core as core;
pub use specsync_ml as ml;
pub use specsync_net as net;
pub use specsync_ps as ps;
pub use specsync_runtime as runtime;
pub use specsync_simnet as simnet;
pub use specsync_sync as sync;
pub use specsync_telemetry as telemetry;
pub use specsync_tensor as tensor;

pub use specsync_cluster::{
    ChaosStats, ClusterSpec, Driver, DriverConfig, InstanceType, LossPoint, RunReport, Trainer,
};
pub use specsync_core::{
    AdaptiveTuner, CherrypickGrid, Hyperparams, PapDistribution, PushHistory, Scheduler,
    SchedulerStats,
};
pub use specsync_ml::{LrSchedule, Model, Workload, WorkloadKind};
pub use specsync_net::{
    Endpoint, FailoverControl, MessageSizes, NetConfig, NetError, SchedulerServer, ShardHost,
    ShardServer, TcpTransport, Transport, WireMessage,
};
pub use specsync_ps::{
    CheckpointError, ParamSnapshot, ParameterStore, PushJournal, ReplicaError, ReplicaRole,
    ReplicatedStore, StoreCheckpoint,
};
pub use specsync_runtime::{RuntimeChaos, RuntimeConfig};
pub use specsync_simnet::{
    CrashEvent, FaultPlan, LinkFaultProfile, MessageFate, ServerCrashEvent, SimDuration,
    StragglerWindow, VirtualTime, WorkerId,
};
pub use specsync_sync::{BaseScheme, SchemeKind, TuningMode};
pub use specsync_telemetry::{
    Event, EventSink, FaultKind, InMemorySink, JsonlSink, LossCurve, LossSample, MetricsSink,
    NullSink,
};
