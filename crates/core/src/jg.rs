//! The Ji & Geroliminis (2012) baseline \[5\].
//!
//! Their three-step method (§7): (1) *over-partition* the road graph with
//! normalized cut, (2) *merge* small partitions, (3) *locally adjust*
//! boundary segments, moving one to a neighboring partition when that
//! improves segment uniformity. Exact constants are not published in the
//! paper under reproduction, so the defaults below follow the textual
//! description (see DESIGN.md "Substitutions").

use crate::error::Result;
use roadpart_cut::{
    gaussian_affinity_par, spectral_partition_recovering, CutKind, Partition, SpectralConfig,
};
use roadpart_linalg::RecoveryLog;
use roadpart_net::RoadGraph;

/// Configuration for [`jg_partition`].
#[derive(Debug, Clone)]
pub struct JgConfig {
    /// Over-partitioning factor: step 1 asks normalized cut for
    /// `over_factor x k` partitions.
    pub over_factor: usize,
    /// Number of boundary-adjustment sweeps in step 3.
    pub boundary_passes: usize,
    /// Spectral settings for the initial normalized cut.
    pub spectral: SpectralConfig,
}

impl Default for JgConfig {
    fn default() -> Self {
        Self {
            over_factor: 3,
            boundary_passes: 3,
            spectral: SpectralConfig::default(),
        }
    }
}

/// Runs the Ji & Geroliminis-style baseline: over-partition → merge →
/// boundary adjustment.
///
/// # Errors
/// Propagates normalized-cut failures.
pub fn jg_partition(graph: &RoadGraph, k: usize, cfg: &JgConfig) -> Result<Partition> {
    let n = graph.node_count();
    let affinity =
        gaussian_affinity_par(graph.adjacency(), graph.features(), &cfg.spectral.pool())?;
    // Step 1: excessive partitioning.
    let k_over = (cfg.over_factor.max(1) * k).clamp(k, n.max(1));
    let over = spectral_partition_recovering(
        &affinity,
        k_over,
        CutKind::Normalized,
        &cfg.spectral,
        &mut RecoveryLog::new(),
    )?;

    // Step 2: merge smallest partitions into their most density-similar
    // spatially adjacent neighbour until k remain.
    let mut labels = over.labels().to_vec();
    merge_small_partitions(graph, &mut labels, k);

    // Step 3: boundary adjustment.
    for _ in 0..cfg.boundary_passes {
        if !boundary_adjust(graph, &mut labels) {
            break; // converged
        }
    }
    Ok(Partition::from_labels(&labels))
}

/// Merges the smallest partition into its most similar adjacent partition
/// (by mean density) until at most `k` partitions remain. Partitions with no
/// neighbours are left alone (disconnected graphs cannot merge further).
fn merge_small_partitions(graph: &RoadGraph, labels: &mut [usize], k: usize) {
    loop {
        let p = Partition::from_labels(labels);
        labels.copy_from_slice(p.labels());
        let kp = p.k();
        if kp <= k {
            return;
        }
        let groups = p.groups();
        let features = graph.features();
        let means: Vec<f64> = groups
            .iter()
            .map(|g| g.iter().map(|&v| features[v]).sum::<f64>() / g.len().max(1) as f64)
            .collect();
        // Partition adjacency from graph links.
        let mut neighbors: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); kp];
        for (u, v, _) in graph.adjacency().iter() {
            let (a, b) = (labels[u], labels[v]);
            if a != b {
                neighbors[a].insert(b);
                neighbors[b].insert(a);
            }
        }
        // Smallest partition with at least one neighbour.
        let Some(small) = (0..kp)
            .filter(|&i| !neighbors[i].is_empty())
            .min_by_key(|&i| groups[i].len())
        else {
            return; // nothing mergeable
        };
        // `small` was chosen among partitions with neighbours, so the
        // argmin exists.
        let Some(target) =
            roadpart_linalg::ord::min_by_f64_key(neighbors[small].iter().copied(), |&cand| {
                (means[cand] - means[small]).abs()
            })
        else {
            return;
        };
        for l in labels.iter_mut() {
            if *l == small {
                *l = target;
            }
        }
    }
}

/// One boundary-adjustment sweep: each node adjacent to another partition
/// moves there if the move lowers the total within-partition squared error
/// and does not disconnect its source partition. Returns whether any node
/// moved.
fn boundary_adjust(graph: &RoadGraph, labels: &mut [usize]) -> bool {
    let features = graph.features();
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    // Running sums for incremental SSE updates.
    let mut count = vec![0usize; k];
    let mut sum = vec![0.0f64; k];
    for (v, &l) in labels.iter().enumerate() {
        count[l] += 1;
        sum[l] += features[v];
    }
    let mut moved_any = false;
    for v in 0..graph.node_count() {
        let from = labels[v];
        if count[from] <= 1 {
            continue; // never empty a partition
        }
        // Candidate destinations: partitions of neighbours.
        let mut best: Option<(usize, f64)> = None;
        for &u in graph.neighbors(v) {
            let to = labels[u];
            if to == from {
                continue;
            }
            // Incremental change in total SSE when v moves from -> to.
            let f = features[v];
            let (nf, sf) = (count[from] as f64, sum[from]);
            let (nt, st) = (count[to] as f64, sum[to]);
            let mu_f = sf / nf;
            let mu_t = st / nt;
            let delta =
                -(nf / (nf - 1.0)) * (f - mu_f).powi(2) + (nt / (nt + 1.0)) * (f - mu_t).powi(2);
            if delta < -1e-15 && best.map_or(true, |(_, d)| delta < d) {
                best = Some((to, delta));
            }
        }
        let Some((to, _)) = best else { continue };
        // C.2 guard: moving v must not disconnect its source partition.
        if !still_connected_without(graph, labels, from, v) {
            continue;
        }
        labels[v] = to;
        count[from] -= 1;
        sum[from] -= features[v];
        count[to] += 1;
        sum[to] += features[v];
        moved_any = true;
    }
    moved_any
}

/// BFS inside partition `part`, skipping node `skip`: true if the remaining
/// members form one component.
fn still_connected_without(graph: &RoadGraph, labels: &[usize], part: usize, skip: usize) -> bool {
    let members: Vec<usize> = (0..labels.len())
        .filter(|&v| labels[v] == part && v != skip)
        .collect();
    if members.len() <= 1 {
        return true;
    }
    let mut seen: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut stack = vec![members[0]];
    seen.insert(members[0]);
    while let Some(u) = stack.pop() {
        for &w in graph.neighbors(u) {
            if w != skip && labels[w] == part && seen.insert(w) {
                stack.push(w);
            }
        }
    }
    seen.len() == members.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::CsrMatrix;

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
    fn produces_k_connected_partitions() {
        let g = plateau_graph();
        let p = jg_partition(&g, 3, &JgConfig::default()).unwrap();
        assert_eq!(p.k(), 3);
        // Connectivity (C.2).
        let comp =
            roadpart_cluster::constrained_components(g.adjacency(), Some(p.labels())).unwrap();
        let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
        assert_eq!(n_comp, 3);
    }

    #[test]
    fn respects_plateau_structure_reasonably() {
        let g = plateau_graph();
        let p = jg_partition(&g, 3, &JgConfig::default()).unwrap();
        // Most of each plateau should be in one partition (allowing a
        // boundary segment or two of slack).
        for plateau in 0..3 {
            let mut counts = std::collections::HashMap::new();
            for i in 0..10 {
                *counts.entry(p.label(plateau * 10 + i)).or_insert(0usize) += 1;
            }
            let majority = counts.values().copied().max().unwrap();
            assert!(majority >= 8, "plateau {plateau}: {counts:?}");
        }
    }

    #[test]
    fn boundary_adjustment_improves_or_preserves_sse() {
        let g = plateau_graph();
        let mut labels: Vec<usize> = (0..30).map(|i| usize::from(i >= 12)).collect();
        let sse_of = |labels: &[usize]| -> f64 {
            let features = g.features();
            let k = labels.iter().copied().max().unwrap() + 1;
            let mut sum = vec![0.0; k];
            let mut cnt = vec![0usize; k];
            for (v, &l) in labels.iter().enumerate() {
                sum[l] += features[v];
                cnt[l] += 1;
            }
            labels
                .iter()
                .enumerate()
                .map(|(v, &l)| (features[v] - sum[l] / cnt[l] as f64).powi(2))
                .sum()
        };
        let before = sse_of(&labels);
        boundary_adjust(&g, &mut labels);
        let after = sse_of(&labels);
        assert!(after <= before + 1e-12, "{after} > {before}");
    }

    #[test]
    fn merge_handles_k_equals_one() {
        let g = plateau_graph();
        let p = jg_partition(&g, 1, &JgConfig::default()).unwrap();
        assert_eq!(p.k(), 1);
    }
}
