//! The paper's four partitioning schemes (§6.3).
//!
//! | scheme | cut            | input graph     |
//! |--------|----------------|-----------------|
//! | `AG`   | α-Cut          | road graph      |
//! | `ASG`  | α-Cut          | road supergraph |
//! | `NG`   | normalized cut | road graph      |
//! | `NSG`  | normalized cut | road supergraph |
//!
//! Direct schemes weight the binary road-graph links with Gaussian
//! congestion similarities; supergraph schemes first mine the condensed
//! supergraph (Algorithm 1) and expand the supernode partitions back to
//! road segments.

use crate::error::Result;
use crate::mining::{mine_supergraph, MiningConfig, MiningOutcome};
use roadpart_cut::{
    gaussian_affinity_par, spectral_partition_recovering, CutKind, Partition, SpectralConfig,
};
use roadpart_linalg::RecoveryLog;
use roadpart_net::RoadGraph;
use serde::{Deserialize, Serialize};

/// A partitioning scheme of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scheme {
    /// α-Cut directly on the road graph.
    AG,
    /// α-Cut on the road supergraph.
    ASG,
    /// Normalized cut directly on the road graph.
    NG,
    /// Normalized cut on the road supergraph.
    NSG,
}

impl Scheme {
    /// The spectral cut the scheme uses.
    pub fn cut_kind(self) -> CutKind {
        match self {
            Scheme::AG | Scheme::ASG => CutKind::Alpha,
            Scheme::NG | Scheme::NSG => CutKind::Normalized,
        }
    }

    /// True when the scheme partitions the mined supergraph rather than the
    /// road graph itself.
    pub fn uses_supergraph(self) -> bool {
        matches!(self, Scheme::ASG | Scheme::NSG)
    }

    /// All four schemes, in the paper's presentation order.
    pub fn all() -> [Scheme; 4] {
        [Scheme::AG, Scheme::ASG, Scheme::NG, Scheme::NSG]
    }

    /// The direct scheme a supergraph scheme degrades to when mining is
    /// impossible (ASG → AG, NSG → NG); `None` for the direct schemes,
    /// which have nothing to fall back to.
    pub fn degraded(self) -> Option<Scheme> {
        match self {
            Scheme::ASG => Some(Scheme::AG),
            Scheme::NSG => Some(Scheme::NG),
            Scheme::AG | Scheme::NG => None,
        }
    }

    /// The paper's notation for the scheme.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::AG => "AG",
            Scheme::ASG => "ASG",
            Scheme::NG => "NG",
            Scheme::NSG => "NSG",
        }
    }
}

/// Configuration shared by every scheme.
#[derive(Debug, Clone, Default)]
pub struct FrameworkConfig {
    /// Supergraph mining settings (ASG/NSG only).
    pub mining: MiningConfig,
    /// Spectral partitioning settings.
    pub spectral: SpectralConfig,
}

impl FrameworkConfig {
    /// Re-seeds all stochastic components.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.mining.seed = seed;
        self.spectral = self.spectral.with_seed(seed);
        self
    }

    /// Sets the thread pool for every parallel kernel the framework runs
    /// (affinity weighting, superlink construction, eigensolver applies,
    /// eigenspace k-means). Purely a performance knob: every kernel is
    /// bit-identical at any pool size.
    pub fn with_pool(mut self, pool: roadpart_linalg::ThreadPool) -> Self {
        self.mining.pool = pool;
        self.spectral = self.spectral.with_pool(pool);
        self
    }
}

/// Result of running one scheme.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Partition over *road-graph nodes* (segments), regardless of scheme.
    pub partition: Partition,
    /// Mining diagnostics for supergraph schemes.
    pub mining: Option<MiningOutcome>,
    /// Wall-clock spent mining the supergraph (module 2 of the pipeline;
    /// zero for direct schemes).
    pub mining_time: std::time::Duration,
    /// Every eigensolver attempt the fallback ladder made during spectral
    /// partitioning: the main embedding and each refinement bipartition (a
    /// clean run holds only successful baseline events).
    pub recovery: RecoveryLog,
}

/// Runs a scheme on a road graph, producing `k` road-segment partitions.
///
/// # Errors
/// Propagates mining, affinity, and spectral-partitioning failures.
pub fn run_scheme(
    graph: &RoadGraph,
    scheme: Scheme,
    k: usize,
    cfg: &FrameworkConfig,
) -> Result<SchemeOutcome> {
    let mut recovery = RecoveryLog::new();
    if scheme.uses_supergraph() {
        let t0 = std::time::Instant::now();
        let mining = mine_supergraph(graph, &cfg.mining)?;
        let mining_time = t0.elapsed();
        let sg = &mining.supergraph;
        let k_eff = k.min(sg.order());
        let super_partition = spectral_partition_recovering(
            sg.adjacency(),
            k_eff,
            scheme.cut_kind(),
            &cfg.spectral,
            &mut recovery,
        )?;
        let labels = sg.expand_labels(super_partition.labels())?;
        Ok(SchemeOutcome {
            partition: Partition::from_labels(&labels),
            mining: Some(mining),
            mining_time,
            recovery,
        })
    } else {
        let affinity =
            gaussian_affinity_par(graph.adjacency(), graph.features(), &cfg.spectral.pool())?;
        let partition = spectral_partition_recovering(
            &affinity,
            k,
            scheme.cut_kind(),
            &cfg.spectral,
            &mut recovery,
        )?;
        Ok(SchemeOutcome {
            partition,
            mining: None,
            mining_time: std::time::Duration::ZERO,
            recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::CsrMatrix;

    /// A 3-plateau path graph (same structure the mining tests use).
    fn plateau_graph() -> RoadGraph {
        let n = 30;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1, 1.0));
        }
        let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
        let features: Vec<f64> = (0..n)
            .map(|i| match i / 10 {
                0 => 0.1 + (i % 10) as f64 * 1e-3,
                1 => 0.5 + (i % 10) as f64 * 1e-3,
                _ => 0.9 + (i % 10) as f64 * 1e-3,
            })
            .collect();
        RoadGraph::from_parts(adj, features, vec![]).unwrap()
    }

    #[test]
    fn all_schemes_produce_k_partitions() {
        let g = plateau_graph();
        let cfg = FrameworkConfig::default().with_seed(1);
        for scheme in Scheme::all() {
            let out = run_scheme(&g, scheme, 3, &cfg).unwrap();
            assert_eq!(out.partition.len(), 30, "{scheme:?}");
            assert_eq!(out.partition.k(), 3, "{scheme:?}");
            assert_eq!(out.mining.is_some(), scheme.uses_supergraph());
            assert!(out.recovery.is_clean(), "{scheme:?}: unexpected fallback");
        }
    }

    #[test]
    fn scheme_outcome_records_solver_recovery() {
        // AG keeps the full 30-node graph, so the spectral solve (and the
        // injected failure) actually runs; ASG's 3-supernode graph with
        // k = 3 would short-circuit to singletons without solving.
        let g = plateau_graph();
        let mut cfg = FrameworkConfig::default().with_seed(5);
        cfg.spectral.fallback.inject_failures = 1;
        let out = run_scheme(&g, Scheme::AG, 3, &cfg).unwrap();
        assert_eq!(out.partition.k(), 3);
        assert_eq!(out.recovery.failures(), 1);
        assert!(out.recovery.events.last().unwrap().succeeded);
    }

    #[test]
    fn supergraph_schemes_recover_plateaus() {
        let g = plateau_graph();
        let cfg = FrameworkConfig::default().with_seed(2);
        let out = run_scheme(&g, Scheme::ASG, 3, &cfg).unwrap();
        // Each plateau lands in a single partition.
        for p in 0..3 {
            let l = out.partition.label(p * 10);
            for i in 0..10 {
                assert_eq!(out.partition.label(p * 10 + i), l, "plateau {p}");
            }
        }
    }

    #[test]
    fn direct_alpha_recovers_communities() {
        // Road graphs are cliquey (star intersections become cliques), so
        // the AG recovery test uses three dense communities rather than a
        // bare path, where spectral balancing legitimately shifts
        // boundaries.
        let mut edges = Vec::new();
        for c in 0..3usize {
            let b = c * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    edges.push((b + i, b + j, 1.0));
                }
            }
            if c > 0 {
                edges.push((b - 1, b, 1.0));
            }
        }
        let adj = CsrMatrix::from_undirected_edges(24, &edges).unwrap();
        let features: Vec<f64> = (0..24)
            .map(|i| 0.1 + 0.4 * (i / 8) as f64 + (i % 8) as f64 * 1e-3)
            .collect();
        let g = RoadGraph::from_parts(adj, features, vec![]).unwrap();
        let cfg = FrameworkConfig::default().with_seed(3);
        let out = run_scheme(&g, Scheme::AG, 3, &cfg).unwrap();
        assert_eq!(out.partition.k(), 3);
        for c in 0..3 {
            let l = out.partition.label(c * 8);
            for i in 0..8 {
                assert_eq!(out.partition.label(c * 8 + i), l, "community {c}");
            }
        }
    }

    #[test]
    fn direct_alpha_on_path_yields_contiguous_intervals() {
        // On a path every connected partition is an interval; check C.2
        // structurally even though exact boundaries may shift.
        let g = plateau_graph();
        let cfg = FrameworkConfig::default().with_seed(3);
        let out = run_scheme(&g, Scheme::AG, 3, &cfg).unwrap();
        assert_eq!(out.partition.k(), 3);
        let labels = out.partition.labels();
        let mut switches = 0;
        for w in labels.windows(2) {
            if w[0] != w[1] {
                switches += 1;
            }
        }
        assert_eq!(switches, 2, "three intervals need exactly two switches");
    }

    #[test]
    fn k_clamped_to_supergraph_order() {
        // The supergraph of the plateau graph has 3 supernodes; asking for
        // 5 partitions cannot exceed the supergraph order.
        let g = plateau_graph();
        let cfg = FrameworkConfig::default().with_seed(4);
        let out = run_scheme(&g, Scheme::ASG, 5, &cfg).unwrap();
        assert!(out.partition.k() <= 5);
        assert!(out.partition.k() >= 3);
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(Scheme::AG.name(), "AG");
        assert!(Scheme::NSG.uses_supergraph());
        assert!(!Scheme::NG.uses_supergraph());
        assert_eq!(Scheme::all().len(), 4);
    }
}
