//! The end-to-end partitioning pipeline with per-module timings.
//!
//! The paper's framework (§3, Figure 2) has three modules:
//!
//! 1. **road graph construction** — network → dual graph;
//! 2. **road supergraph mining** — Algorithm 1 (skipped by direct schemes);
//! 3. **supergraph partitioning** — Algorithm 3.
//!
//! Table 3 reports wall-clock per module; [`PipelineTimings`] captures the
//! same breakdown.

use crate::error::{Result, RoadpartError};
use crate::mining::MiningOutcome;
use crate::schemes::{run_scheme, FrameworkConfig, Scheme, SchemeOutcome};
use roadpart_cut::Partition;
use roadpart_linalg::RecoveryLog;
use roadpart_net::{RoadGraph, RoadNetwork};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Pipeline configuration: which scheme, how many partitions, and the
/// underlying framework knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Partitioning scheme (AG/ASG/NG/NSG).
    pub scheme: Scheme,
    /// Desired number of partitions `k`.
    pub k: usize,
    /// Mining + spectral settings.
    pub framework: FrameworkConfig,
}

impl PipelineConfig {
    /// ASG with default settings — the paper's headline configuration for
    /// large networks.
    pub fn asg(k: usize) -> Self {
        Self {
            scheme: Scheme::ASG,
            k,
            framework: FrameworkConfig::default(),
        }
    }

    /// Re-seeds all stochastic components.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.framework = self.framework.with_seed(seed);
        self
    }

    /// Sets the thread pool for every parallel kernel the pipeline runs.
    /// Purely a performance knob: results are bit-identical at any pool
    /// size (see `roadpart_linalg::par`).
    pub fn with_pool(mut self, pool: roadpart_linalg::ThreadPool) -> Self {
        self.framework = self.framework.with_pool(pool);
        self
    }

    /// Convenience for [`PipelineConfig::with_pool`] from a thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_pool(roadpart_linalg::ThreadPool::new(threads))
    }
}

/// Wall-clock spent in each framework module (Table 3 rows).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PipelineTimings {
    /// Module 1: road graph construction.
    pub module1: Duration,
    /// Module 2: road supergraph mining.
    pub module2: Duration,
    /// Module 3: supergraph partitioning.
    pub module3: Duration,
}

impl PipelineTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.module1 + self.module2 + self.module3
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The road-segment partition (labels indexed by segment id).
    pub partition: Partition,
    /// The dual road graph (reusable for evaluation).
    pub graph: RoadGraph,
    /// Supergraph order for supergraph schemes (`None` for AG/NG).
    pub supergraph_order: Option<usize>,
    /// Per-module wall-clock.
    pub timings: PipelineTimings,
    /// Eigensolver fallback activity during module 3: one event per
    /// attempt of every eigensolve — the main embedding and each refinement
    /// bipartition (clean runs hold only successful baseline events).
    pub recovery: RecoveryLog,
    /// Mining diagnostics for supergraph schemes (`None` for AG/NG).
    pub mining: Option<MiningOutcome>,
}

/// True when stage-boundary structural validation is active: every debug
/// build (so the whole test suite runs validated) plus release builds with
/// the `strict-invariants` feature. See DESIGN.md "Correctness tooling".
pub const STRICT_INVARIANTS: bool = cfg!(any(debug_assertions, feature = "strict-invariants"));

/// Maps a validator failure at a named pipeline stage boundary into the
/// framework error space with stage context attached.
fn stage_violation(stage: &str, err: impl std::fmt::Display) -> RoadpartError {
    RoadpartError::InvalidData(format!("stage invariant violated after {stage}: {err}"))
}

/// Runs the complete framework on a road network with the given segment
/// densities (the network's stored densities are ignored in favour of
/// `densities`, so one network can be re-partitioned across time steps).
///
/// # Errors
/// Returns [`RoadpartError::Net`] with the density gate's error
/// ([`roadpart_net::check_densities`]) when `densities` is not one finite,
/// non-negative value per segment; propagates graph-construction, mining,
/// and partitioning failures.
pub fn partition_network(
    net: &RoadNetwork,
    densities: &[f64],
    cfg: &PipelineConfig,
) -> Result<PipelineResult> {
    // Module 1: road graph construction.
    let t0 = Instant::now();
    let mut graph = RoadGraph::from_network(net)?;
    graph.set_features(densities.to_vec())?;
    let module1 = t0.elapsed();
    if STRICT_INVARIANTS {
        graph
            .adjacency()
            .validate()
            .map_err(|e| stage_violation("road-graph construction (module 1)", e))?;
    }

    // Modules 2 + 3 run inside run_scheme, which clocks the mining phase
    // itself; module 3 is the remainder.
    let t1 = Instant::now();
    let SchemeOutcome {
        partition,
        mining,
        mining_time,
        recovery,
    } = run_scheme(&graph, cfg.scheme, cfg.k, &cfg.framework)?;
    let rest = t1.elapsed();
    let module2 = mining_time.min(rest);
    let module3 = rest.saturating_sub(module2);
    if STRICT_INVARIANTS {
        if let Some(m) = &mining {
            m.supergraph
                .validate(graph.adjacency())
                .map_err(|e| stage_violation("supergraph mining (module 2)", e))?;
        }
        partition
            .validate()
            .map_err(|e| stage_violation("supergraph partitioning (module 3)", e))?;
        if partition.len() != graph.node_count() {
            return Err(stage_violation(
                "supergraph partitioning (module 3)",
                format!(
                    "partition covers {} nodes but the road graph has {}",
                    partition.len(),
                    graph.node_count()
                ),
            ));
        }
    }

    Ok(PipelineResult {
        partition,
        supergraph_order: mining.as_ref().map(|m| m.supergraph.order()),
        graph,
        timings: PipelineTimings {
            module1,
            module2,
            module3,
        },
        recovery,
        mining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_net::UrbanConfig;
    use roadpart_traffic::{CongestionField, TemporalProfile};

    fn small_net_and_densities() -> (roadpart_net::RoadNetwork, Vec<f64>) {
        let net = UrbanConfig::d1().scaled(0.3).generate(17).unwrap();
        let field = CongestionField::urban_default(&net, 17);
        let densities = field.densities(&net, 0.3, &TemporalProfile::morning());
        (net, densities)
    }

    #[test]
    fn asg_pipeline_end_to_end() {
        let (net, densities) = small_net_and_densities();
        let cfg = PipelineConfig::asg(4).with_seed(5);
        let result = partition_network(&net, &densities, &cfg).unwrap();
        assert_eq!(result.partition.len(), net.segment_count());
        assert!(result.partition.k() >= 2);
        assert!(result.supergraph_order.is_some());
        let order = result.supergraph_order.unwrap();
        assert!(
            order < net.segment_count(),
            "supergraph must condense: {order} vs {}",
            net.segment_count()
        );
        assert!(result.timings.total() > Duration::ZERO);
    }

    #[test]
    fn direct_scheme_has_empty_module2() {
        let (net, densities) = small_net_and_densities();
        let cfg = PipelineConfig {
            scheme: Scheme::AG,
            k: 3,
            framework: FrameworkConfig::default().with_seed(6),
        };
        let result = partition_network(&net, &densities, &cfg).unwrap();
        assert_eq!(result.timings.module2, Duration::ZERO);
        assert!(result.supergraph_order.is_none());
        assert_eq!(result.partition.len(), net.segment_count());
    }

    #[test]
    fn partitions_are_spatially_connected() {
        let (net, densities) = small_net_and_densities();
        let cfg = PipelineConfig::asg(4).with_seed(7);
        let result = partition_network(&net, &densities, &cfg).unwrap();
        // C.2: within-partition connected components == partition count.
        let comp = roadpart_cluster::constrained_components(
            result.graph.adjacency(),
            Some(result.partition.labels()),
        )
        .unwrap();
        let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
        assert_eq!(n_comp, result.partition.k());
    }

    #[test]
    fn repartitioning_across_time_reuses_network() {
        let (net, _) = small_net_and_densities();
        let field = CongestionField::urban_default(&net, 23);
        let cfg = PipelineConfig::asg(3).with_seed(8);
        let peak = partition_network(
            &net,
            &field.densities(&net, 0.3, &TemporalProfile::morning()),
            &cfg,
        )
        .unwrap();
        let off = partition_network(
            &net,
            &field.densities(&net, 0.95, &TemporalProfile::morning()),
            &cfg,
        )
        .unwrap();
        assert_eq!(peak.partition.len(), off.partition.len());
    }
}
