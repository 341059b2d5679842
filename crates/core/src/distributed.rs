//! Distributed repartitioning over time (paper §6.4).
//!
//! "While applying repeated partitioning on an urban road network, at the
//! beginning it can be started by partitioning the whole network. But after
//! having its relatively small partitions, they can be repeatedly subjected
//! to partitioning distributively with the changing congestion measures
//! with respect to time." — each region is re-partitioned *independently*
//! on its own subgraph, which caps the eigenproblem size at the region size
//! and parallelizes trivially.

use crate::error::{Result, RoadpartError};
use crate::schemes::{run_scheme, FrameworkConfig, Scheme};
use roadpart_cut::Partition;
use roadpart_linalg::RecoveryLog;
use roadpart_net::RoadGraph;

/// Drift statistics between the previous and the refreshed partitioning —
/// the shared implementation in `roadpart-eval`, re-exported under the name
/// this module has always used.
pub use roadpart_eval::PartitionDrift as DriftReport;

/// Configuration for one distributed repartitioning round.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Scheme applied inside each region (regions are small; `AG` avoids
    /// re-mining tiny supergraphs, `ASG` mirrors the global pipeline).
    pub scheme: Scheme,
    /// Sub-partitions per region. Regions smaller than this stay whole.
    pub k_per_region: usize,
    /// Framework knobs for the per-region runs.
    pub framework: FrameworkConfig,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        Self {
            scheme: Scheme::AG,
            k_per_region: 2,
            framework: FrameworkConfig::default(),
        }
    }
}

/// Result of [`repartition_regions`].
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The refreshed partitioning over the full graph.
    pub partition: Partition,
    /// How much structure changed relative to `previous`.
    pub drift: DriftReport,
    /// Every eigensolver attempt of the per-region runs, in region order.
    pub recovery: RecoveryLog,
}

/// Minimum fractional reduction of the region's within-partition squared
/// density error required to *keep* a split. Prevents the monitoring loop
/// from fragmenting homogeneous regions round after round.
const MIN_VARIANCE_GAIN: f64 = 0.2;

/// Re-partitions each region of `previous` independently on the *current*
/// densities in `graph` (same topology, fresh features), composing the
/// per-region results into one partitioning of the whole network.
///
/// # Errors
/// Returns [`RoadpartError::InvalidData`] when `previous` does not label
/// exactly the graph's segments, naming both lengths; propagates subgraph
/// extraction and per-region scheme failures.
pub fn repartition_regions(
    graph: &RoadGraph,
    previous: &Partition,
    cfg: &DistributedConfig,
) -> Result<DistributedOutcome> {
    let n = graph.node_count();
    if previous.len() != n {
        return Err(RoadpartError::InvalidData(format!(
            "previous partition labels {} segments but the graph has {n}",
            previous.len()
        )));
    }
    let mut labels = vec![0usize; n];
    let mut next_label = 0usize;
    let mut recovery = RecoveryLog::new();
    for members in previous.groups() {
        if members.len() <= cfg.k_per_region.max(1) || members.len() < 4 {
            // Too small to split further: keep the region whole.
            for &m in &members {
                labels[m] = next_label;
            }
            next_label += 1;
            continue;
        }
        let sub_adj = graph.adjacency().submatrix(&members)?;
        let sub_feats: Vec<f64> = members.iter().map(|&m| graph.features()[m]).collect();
        let sub_positions: Vec<(f64, f64)> =
            members.iter().map(|&m| graph.positions()[m]).collect();
        let sub_graph = RoadGraph::from_parts(sub_adj, sub_feats.clone(), sub_positions)?;
        let k = cfg.k_per_region.min(sub_graph.node_count());
        let out = run_scheme(&sub_graph, cfg.scheme, k, &cfg.framework)?;
        recovery.absorb(out.recovery);
        // Keep the split only if it explains enough of the region's density
        // heterogeneity; otherwise the region is already homogeneous and
        // stays whole.
        let keep_split = out.partition.k() > 1
            && variance_gain(&sub_feats, out.partition.labels()) >= MIN_VARIANCE_GAIN;
        if !keep_split {
            for &m in &members {
                labels[m] = next_label;
            }
            next_label += 1;
            continue;
        }
        let base = next_label;
        let mut max_local = 0usize;
        for (local, &node) in members.iter().enumerate() {
            let l = out.partition.label(local);
            labels[node] = base + l;
            max_local = max_local.max(l);
        }
        next_label = base + max_local + 1;
    }
    let partition = Partition::from_labels(&labels);
    let drift = DriftReport::between(previous.labels(), partition.labels());
    Ok(DistributedOutcome {
        partition,
        drift,
        recovery,
    })
}

/// Fraction of the region's total squared density error removed by the
/// split: `1 - SSE_split / SSE_whole`; `0.0` for degenerate regions.
fn variance_gain(features: &[f64], labels: &[usize]) -> f64 {
    let n = features.len();
    if n < 2 {
        return 0.0;
    }
    let mu = features.iter().sum::<f64>() / n as f64;
    let sse_whole: f64 = features.iter().map(|f| (f - mu).powi(2)).sum();
    if sse_whole <= 0.0 {
        return 0.0;
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sum = vec![0.0f64; k];
    let mut count = vec![0usize; k];
    for (&f, &l) in features.iter().zip(labels) {
        sum[l] += f;
        count[l] += 1;
    }
    let sse_split: f64 = features
        .iter()
        .zip(labels)
        .map(|(&f, &l)| (f - sum[l] / count[l] as f64).powi(2))
        .sum();
    1.0 - sse_split / sse_whole
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::CsrMatrix;

    /// Path with 4 plateaus of 8 nodes; previous partition groups pairs of
    /// plateaus, so each region has internal structure to find.
    fn setup() -> (RoadGraph, Partition) {
        let n = 32;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1, 1.0));
        }
        let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
        let features: Vec<f64> = (0..n).map(|i| (i / 8) as f64 * 0.3 + 0.05).collect();
        let graph = RoadGraph::from_parts(adj, features, vec![]).unwrap();
        let prev =
            Partition::from_labels(&(0..n).map(|i| usize::from(i >= 16)).collect::<Vec<_>>());
        (graph, prev)
    }

    #[test]
    fn refines_each_region_independently() {
        let (graph, prev) = setup();
        let cfg = DistributedConfig {
            k_per_region: 2,
            ..DistributedConfig::default()
        };
        let out = repartition_regions(&graph, &prev, &cfg).unwrap();
        assert_eq!(out.partition.len(), 32);
        assert_eq!(out.partition.k(), 4, "two regions split in two each");
        // Refinement never merges across old region boundaries.
        for i in 0..16 {
            for j in 16..32 {
                assert_ne!(out.partition.label(i), out.partition.label(j));
            }
        }
        assert_eq!(out.drift.k_before, 2);
        assert_eq!(out.drift.k_after, 4);
        assert!(out.drift.nmi > 0.5, "refinement preserves coarse structure");
    }

    #[test]
    fn tiny_regions_stay_whole() {
        let (graph, _) = setup();
        // Previous partitioning with a 2-node sliver.
        let mut labels = vec![0usize; 32];
        labels[30] = 1;
        labels[31] = 1;
        let prev = Partition::from_labels(&labels);
        let cfg = DistributedConfig::default();
        let out = repartition_regions(&graph, &prev, &cfg).unwrap();
        // The sliver is not split.
        assert_eq!(out.partition.label(30), out.partition.label(31));
    }

    #[test]
    fn identical_densities_keep_high_nmi() {
        let (graph, prev) = setup();
        let cfg = DistributedConfig {
            k_per_region: 1,
            ..DistributedConfig::default()
        };
        // k_per_region = 1: nothing splits; partitioning unchanged.
        let out = repartition_regions(&graph, &prev, &cfg).unwrap();
        assert!((out.drift.nmi - 1.0).abs() < 1e-9);
        assert_eq!(out.partition.k(), prev.k());
    }

    #[test]
    fn mismatched_previous_partition_is_an_error_not_a_panic() {
        let (graph, _) = setup();
        let prev = Partition::from_labels(&[0, 0, 1]);
        match repartition_regions(&graph, &prev, &DistributedConfig::default()) {
            Err(RoadpartError::InvalidData(msg)) => assert_eq!(
                msg,
                "previous partition labels 3 segments but the graph has 32"
            ),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }
}
