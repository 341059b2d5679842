//! # roadpart-cut
//!
//! Spectral graph cuts for road-network partitioning — the algorithmic core
//! of Anwar et al. (EDBT 2014), §5. Two cuts share one pipeline, selected
//! by [`CutKind`]:
//!
//! * the paper's novel k-way **α-Cut** ([`CutKind::Alpha`]) minimizes
//!   `Σ_i ( α_i · W(P_i, ~P_i)/|P_i| − (1 − α_i) · W(P_i, P_i)/|P_i| )`
//!   (Eq. 5), balancing average cut against average association per
//!   partition. With the data-driven `α_i = W(P_i, V)/W(V, V)` the
//!   objective reduces to `Σ_i c_iᵀ M c_i / c_iᵀ c_i` with the α-Cut matrix
//!   `M = (1ᵀD)ᵀ(1ᵀD)/(1ᵀD1) − A` (Eq. 6), solved by spectral relaxation;
//! * the Shi–Malik **normalized cut** baseline ([`CutKind::Normalized`])
//!   minimizes `Σ_i W(P_i, ~P_i) / W(P_i, V)` through the `k` smallest
//!   eigenvectors of `L_sym = I − D^{-1/2} A D^{-1/2}`.
//!
//! Modules:
//!
//! * [`embedding`] — the one place the two cut operators are built and
//!   eigensolved ([`embedding_recovering_ws`]), plus row normalization;
//! * [`kway`] — the shared Algorithm-3 pipeline
//!   ([`spectral_partition_warm_ws`]): embedding → row normalization
//!   (Eq. 8) → eigenspace k-means → within-cluster connected components →
//!   refinement to exactly `k`;
//! * [`refine`] — partition-connectivity condensation, global recursive
//!   bipartitioning, and largest-first splitting;
//! * [`affinity`] — congestion-similarity weighting of binary road-graph
//!   links for the AG/NG direct schemes ([`gaussian_affinity_par`]).

#![warn(missing_docs)]

pub mod affinity;
pub mod bipartition;
pub mod embedding;
pub mod error;
pub mod kway;
pub mod partition;
pub mod refine;

pub use affinity::gaussian_affinity_par;
pub use bipartition::bipartition;
pub use embedding::{
    dense_alpha_matrix, embedding_recovering, embedding_recovering_ws, row_normalize, CutKind,
};
pub use error::{CutError, Result};
pub use kway::{
    spectral_partition_recovering, spectral_partition_warm_ws, SpectralArtifacts, SpectralConfig,
};
pub use partition::Partition;
pub use refine::{partition_connectivity, recursive_bipartition, split_to_k};
