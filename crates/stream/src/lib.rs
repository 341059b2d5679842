//! # roadpart-stream
//!
//! Epoch-based **online repartitioning** for road networks — the serving
//! layer the paper's §6.4 sketches ("repeated partitioning ... with the
//! changing congestion measures with respect to time") grown into a
//! long-lived component:
//!
//! * [`aggregate::DensityAggregator`] — the one gate every streamed density
//!   passes (a wrong length or a NaN, infinite or negative value is
//!   rejected), folding accepted updates into a latest / sliding-window /
//!   EWMA aggregate that keeps only the running state its kind reads;
//! * [`drift`] — cheap per-epoch drift probes (per-partition density
//!   divergence + trial-clustering NMI) mapped by a [`drift::DriftPolicy`]
//!   to *no-op*, *regional refresh*, or *global rebuild*;
//! * [`engine::StreamEngine`] — the epoch loop: probe, act, publish.
//!   Global rebuilds are **warm-started** from the previous epoch's
//!   eigenvectors and k-means centroids
//!   (`roadpart_cut::spectral_partition_warm_ws`);
//! * [`health`] — the self-healing machinery: per-epoch deadline budgets
//!   with a graceful-degradation ladder (Global → Regional → NoOp) and
//!   bounded seed-rotating retries of numerical solver failures, each
//!   epoch reporting whether it ran
//!   [degraded](health::EpochResilience::degraded);
//! * [`snapshot::PartitionStore`] — double-buffered, versioned
//!   `segment → partition` snapshots with O(1) non-blocking reads;
//! * [`report::EpochReport`] / [`report::StreamLog`] — machine-readable
//!   per-epoch outcomes.
//!
//! See DESIGN.md, section *"Online repartitioning & serving"*, for the
//! epoch lifecycle and the consistency model.

#![warn(missing_docs)]

pub mod aggregate;
pub mod drift;
pub mod engine;
pub mod error;
pub mod health;
pub mod report;
pub mod snapshot;

pub use aggregate::{AggregateKind, DensityAggregator};
pub use drift::{DriftPolicy, DriftProbe, EpochAction};
pub use engine::{EngineConfig, StreamEngine};
pub use error::{Result, StreamError};
pub use health::{DeadlineMode, EpochAttempt, EpochResilience, ResilienceConfig};
pub use report::{EpochReport, StreamLog};
pub use snapshot::{PartitionSnapshot, PartitionStore};
