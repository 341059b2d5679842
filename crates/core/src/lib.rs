//! # roadpart
//!
//! Congestion-based spatial partitioning of large urban road networks — a
//! from-scratch Rust implementation of
//! *"Spatial Partitioning of Large Urban Road Networks"*
//! (Anwar, Liu, Vu, Leckie — EDBT 2014).
//!
//! The framework identifies sub-networks that are internally homogeneous
//! and mutually heterogeneous in traffic congestion, in two levels:
//!
//! 1. **Road supergraph mining** ([`mining`]) — 1-D k-means over segment
//!    densities with the novel *moderated clustering gain* (MCG) optimality
//!    measure, connected-component supernodes, an optional stability check
//!    ([`mod@stability`]), and Gaussian-weighted superlinks ([`superlink`]);
//! 2. **k-way α-Cut spectral partitioning** (via [`roadpart_cut`]) of the
//!    condensed supergraph, with normalized cut as the baseline.
//!
//! ## Quick start
//!
//! ```
//! use roadpart::prelude::*;
//!
//! // A synthetic city with the statistics of the paper's D1 dataset
//! // (Downtown San Francisco), scaled down for the doctest.
//! let dataset = roadpart::datasets::d1(0.25, 42).unwrap();
//! let cfg = PipelineConfig::asg(4).with_seed(42);
//! let result =
//!     partition_network(&dataset.network, dataset.eval_densities(), &cfg).unwrap();
//! assert_eq!(result.partition.len(), dataset.network.segment_count());
//!
//! // Evaluate with the paper's metrics.
//! let report = roadpart_eval::QualityReport::compute(
//!     result.graph.adjacency(),
//!     result.graph.features(),
//!     result.partition.labels(),
//! );
//! assert!(report.k >= 2);
//! ```

pub mod datasets;
pub mod distributed;
pub mod error;
pub mod faults;
pub mod jg;
pub mod mining;
pub mod pipeline;
pub mod sanitize;
pub mod schemes;
pub mod select;
pub mod stability;
pub mod supergraph;
pub mod superlink;
pub mod supervisor;

pub use distributed::{repartition_regions, DistributedConfig, DistributedOutcome, DriftReport};
pub use error::{Result, RoadpartError};
pub use faults::{Fault, FaultPlan};
pub use jg::{jg_partition, JgConfig};
pub use mining::{mine_supergraph, MiningConfig, MiningOutcome};
pub use pipeline::{partition_network, PipelineConfig, PipelineResult, PipelineTimings};
pub use sanitize::{
    check_dual_graph, sanitize_densities, AnomalyKind, Repair, SanitizePolicy, ValidationReport,
};
pub use schemes::{run_scheme, FrameworkConfig, Scheme, SchemeOutcome};
pub use select::{select_k, KCandidate, KSelection};
pub use stability::{stability, stability_check, StableSupernode};
pub use supergraph::{Supergraph, Supernode};
pub use superlink::build_superlinks_par;
pub use supervisor::{
    error_chain, rotated_seed, run_supervised, AttemptRecord, RunReport, SupervisedRun,
    SupervisorConfig,
};

/// Everything most applications need.
pub mod prelude {
    pub use crate::datasets::{self, Dataset, Melbourne};
    pub use crate::distributed::{repartition_regions, DistributedConfig};
    pub use crate::error::{Result, RoadpartError};
    pub use crate::faults::{Fault, FaultPlan};
    pub use crate::jg::{jg_partition, JgConfig};
    pub use crate::mining::{mine_supergraph, MiningConfig};
    pub use crate::pipeline::{partition_network, PipelineConfig, PipelineResult};
    pub use crate::sanitize::{sanitize_densities, SanitizePolicy, ValidationReport};
    pub use crate::schemes::{run_scheme, FrameworkConfig, Scheme};
    pub use crate::select::{select_k, KSelection};
    pub use crate::supergraph::Supergraph;
    pub use crate::supervisor::{run_supervised, RunReport, SupervisedRun, SupervisorConfig};
    pub use roadpart_cut::{Partition, SpectralConfig};
    pub use roadpart_eval::QualityReport;
    pub use roadpart_net::{RoadGraph, RoadNetwork, UrbanConfig};
    pub use roadpart_traffic::{CongestionField, MntgConfig, TemporalProfile};
}
