//! Road supergraph mining (Algorithm 1, §4).
//!
//! 1. sweep κ over a *sample* of the density values, scoring each k-means
//!    configuration with the MCG measure (§4.1–4.2);
//! 2. shortlist every κ whose MCG clears the optimality threshold `ε_θ`
//!    (lines 3–9);
//! 3. re-run k-means on the full data for each shortlisted κ and keep the
//!    configuration producing the fewest connected components — the
//!    supernodes (lines 10–16, §4.3.1);
//! 4. optionally split unstable supernodes (Algorithm 2, §4.3.2);
//! 5. establish Gaussian-weighted superlinks (Eq. 3, §4.3.3).

use crate::error::{Result, RoadpartError};
use crate::stability::stability_check;
use crate::supergraph::{Supergraph, Supernode};
use crate::superlink::build_superlinks_par;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use roadpart_cluster::{
    constrained_components, kmeans_1d_sweep, optimality_sweep, KMeans1d, OptimalityPoint,
};
use roadpart_net::RoadGraph;
use serde::{Deserialize, Serialize};

/// Configuration for [`mine_supergraph`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MiningConfig {
    /// Upper bound of the κ sweep (inclusive); clamped to `n - 1`.
    pub kappa_max: usize,
    /// Explicit MCG optimality threshold `ε_θ`; `None` derives it as
    /// `mcg_threshold_frac x max-MCG` over the sweep, mirroring how the
    /// paper picks thresholds per dataset (2000 for M1, 5000 for M2).
    pub mcg_threshold: Option<f64>,
    /// Fraction of the sweep's maximum MCG used when `mcg_threshold` is
    /// `None`.
    pub mcg_threshold_frac: f64,
    /// Stability threshold `ε_η ∈ [0, 1]`; `0.0` disables the check (the
    /// ASG/NSG schemes).
    pub stability_threshold: f64,
    /// RNG seed (sampling only; k-means itself is deterministic).
    pub seed: u64,
    /// Thread pool for the superlink weighting pass. Bit-identical at any
    /// pool size (see `roadpart_linalg::par`), so it is excluded from the
    /// serialized configuration and defaults to `ROADPART_THREADS`.
    #[serde(skip)]
    pub pool: roadpart_linalg::ThreadPool,
}

impl Default for MiningConfig {
    fn default() -> Self {
        Self {
            kappa_max: 30,
            mcg_threshold: None,
            mcg_threshold_frac: 0.9,
            stability_threshold: 0.0,
            seed: 0,
            pool: roadpart_linalg::ThreadPool::from_env(),
        }
    }
}

/// Everything produced by Algorithm 1, including the diagnostics behind
/// Figures 5 and 6.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// The mined supergraph.
    pub supergraph: Supergraph,
    /// The κ finally selected (fewest connected components).
    pub chosen_kappa: usize,
    /// The sweep of optimality measures over κ (Figure 5 data).
    pub sweep: Vec<OptimalityPoint>,
    /// The threshold actually applied.
    pub threshold: f64,
    /// κ values shortlisted by the threshold.
    pub shortlisted: Vec<usize>,
    /// `(κ, component count)` for each shortlisted κ on the full data.
    pub components_per_kappa: Vec<(usize, usize)>,
    /// Stability measure per final supernode (Figure 6 data).
    pub stabilities: Vec<f64>,
}

/// Sample size for the κ sweep ("repetitive clustering is applied on a
/// randomly generated sample dataset", §4.1).
const SAMPLE_SIZE: usize = 2_000;

/// Mines the road supergraph from a road graph (Algorithm 1).
///
/// # Errors
/// Returns [`RoadpartError::InvalidConfig`] for graphs with fewer than three
/// nodes or degenerate configs; propagates clustering failures.
pub fn mine_supergraph(graph: &RoadGraph, cfg: &MiningConfig) -> Result<MiningOutcome> {
    let n = graph.node_count();
    if n < 3 {
        return Err(RoadpartError::InvalidConfig(format!(
            "supergraph mining needs at least 3 road-graph nodes, got {n}"
        )));
    }
    if !(0.0..=1.0).contains(&cfg.mcg_threshold_frac) {
        return Err(RoadpartError::InvalidConfig(format!(
            "mcg_threshold_frac must be in [0,1], got {}",
            cfg.mcg_threshold_frac
        )));
    }
    let features = graph.features();

    // --- Step 1: κ sweep on a sample (lines 3-9). ---
    let sample: Vec<f64> = if n > SAMPLE_SIZE {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        idx[..SAMPLE_SIZE].iter().map(|&i| features[i]).collect()
    } else {
        features.to_vec()
    };
    let kappa_hi = cfg.kappa_max.min(sample.len().saturating_sub(1)).max(2);
    let sweep = optimality_sweep(&sample, 2..=kappa_hi)?;

    // --- Step 2: threshold and shortlist. ---
    let max_mcg = sweep
        .iter()
        .map(|p| p.mcg)
        .fold(f64::NEG_INFINITY, f64::max);
    let threshold = cfg
        .mcg_threshold
        .unwrap_or(cfg.mcg_threshold_frac * max_mcg);
    let mut shortlisted: Vec<usize> = sweep
        .iter()
        .filter(|p| p.mcg >= threshold)
        .map(|p| p.kappa)
        .collect();
    if shortlisted.is_empty() {
        // Numerical corner (all-equal densities give zero MCG everywhere):
        // fall back to the best single κ.
        let best = roadpart_linalg::ord::max_by_f64_key(sweep.iter(), |p| p.mcg)
            .map(|p| p.kappa)
            .unwrap_or(2);
        shortlisted.push(best);
    }

    // --- Step 3: full-data clustering per shortlisted κ; fewest components
    //     wins (lines 10-16). ---
    let adjacency = graph.adjacency();
    // All shortlisted κ are solved by one shared DP to the largest clamped
    // κ (bitwise-identical per-κ clusterings; see kmeans_1d_sweep).
    let clamped: Vec<usize> = shortlisted
        .iter()
        .map(|&kappa| kappa.min(n - 1).max(1))
        .collect();
    let hi = clamped.iter().copied().max().unwrap_or(1);
    let full_sweep = kmeans_1d_sweep(features, hi)?;
    let mut best: Option<(usize, usize, Vec<usize>, Vec<f64>)> = None; // (components, kappa, comp labels, centers)
    let mut components_per_kappa = Vec::with_capacity(shortlisted.len());
    for &kappa in &clamped {
        let km: KMeans1d = full_sweep.extract(kappa)?;
        let comp = constrained_components(adjacency, Some(&km.assignments))?;
        let count = comp.iter().copied().max().map_or(0, |m| m + 1);
        components_per_kappa.push((kappa, count));
        let better = match &best {
            None => true,
            Some((best_count, ..)) => count < *best_count,
        };
        if better {
            // Supernode features start as the k-means cluster mean of the
            // cluster their members came from (line 20).
            let cluster_mean_per_node: Vec<f64> =
                km.assignments.iter().map(|&a| km.centers[a]).collect();
            best = Some((count, kappa, comp, cluster_mean_per_node));
        }
    }
    let Some((_, chosen_kappa, comp, cluster_mean_per_node)) = best else {
        return Err(RoadpartError::InvalidConfig(
            "kappa shortlist was empty; cannot mine a supergraph".to_string(),
        ));
    };

    // --- Step 4: supernode creation + stability check. ---
    let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_comp];
    for (v, &c) in comp.iter().enumerate() {
        members[c].push(v);
    }
    let raw: Vec<(Vec<usize>, f64)> = members
        .into_iter()
        .map(|m| {
            let feature = cluster_mean_per_node[m[0]];
            (m, feature)
        })
        .collect();
    let stable = stability_check(raw, features, cfg.stability_threshold);
    let stabilities: Vec<f64> = stable.iter().map(|s| s.eta).collect();
    let supernodes: Vec<Supernode> = stable
        .into_iter()
        .map(|s| Supernode {
            members: s.members,
            feature: s.feature,
        })
        .collect();

    // --- Step 5: superlinks (lines 21-25). ---
    let mut member_of = vec![0usize; n];
    for (s, sn) in supernodes.iter().enumerate() {
        for &m in &sn.members {
            member_of[m] = s;
        }
    }
    let super_features: Vec<f64> = supernodes.iter().map(|s| s.feature).collect();
    let superlinks = build_superlinks_par(adjacency, &member_of, &super_features, &cfg.pool)?;
    let supergraph = Supergraph::new(supernodes, superlinks, n)?;

    Ok(MiningOutcome {
        supergraph,
        chosen_kappa,
        sweep,
        threshold,
        shortlisted,
        components_per_kappa,
        stabilities,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::CsrMatrix;

    /// A path graph whose densities form three contiguous plateaus.
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
    fn mines_three_plateaus_into_three_supernodes() {
        let g = plateau_graph();
        let out = mine_supergraph(&g, &MiningConfig::default()).unwrap();
        assert_eq!(out.supergraph.order(), 3);
        // Each supernode holds one contiguous plateau.
        let mut sizes: Vec<usize> = out.supergraph.nodes().iter().map(Supernode::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![10, 10, 10]);
        // Superlinks follow the path: two links.
        assert_eq!(out.supergraph.link_count(), 2);
        assert_eq!(out.chosen_kappa, 3);
    }

    #[test]
    fn sweep_and_shortlist_recorded() {
        let g = plateau_graph();
        let out = mine_supergraph(&g, &MiningConfig::default()).unwrap();
        assert!(!out.sweep.is_empty());
        assert!(!out.shortlisted.is_empty());
        assert_eq!(out.components_per_kappa.len(), out.shortlisted.len());
        assert!(out.threshold.is_finite());
        assert_eq!(out.stabilities.len(), out.supergraph.order());
    }

    #[test]
    fn stability_threshold_splits_loose_supernodes() {
        // Densities with a plateau containing an internal step: with the
        // check off it may stay one supernode; threshold ~1 forces splits.
        let g = plateau_graph();
        let loose = mine_supergraph(
            &g,
            &MiningConfig {
                stability_threshold: 0.0,
                ..MiningConfig::default()
            },
        )
        .unwrap();
        let strict = mine_supergraph(
            &g,
            &MiningConfig {
                stability_threshold: 0.999999,
                ..MiningConfig::default()
            },
        )
        .unwrap();
        assert!(strict.supergraph.order() >= loose.supergraph.order());
    }

    #[test]
    fn member_cover_is_exact() {
        let g = plateau_graph();
        let out = mine_supergraph(&g, &MiningConfig::default()).unwrap();
        let mut all: Vec<usize> = out
            .supergraph
            .nodes()
            .iter()
            .flat_map(|s| s.members.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_densities_degenerate_gracefully() {
        let adj = CsrMatrix::from_undirected_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        )
        .unwrap();
        let g = RoadGraph::from_parts(adj, vec![0.3; 5], vec![]).unwrap();
        let out = mine_supergraph(&g, &MiningConfig::default()).unwrap();
        // All densities equal: ideally one supernode per connected cluster.
        assert!(out.supergraph.order() <= 5);
        assert!(out.supergraph.order() >= 1);
    }

    #[test]
    fn explicit_threshold_respected() {
        let g = plateau_graph();
        let out = mine_supergraph(
            &g,
            &MiningConfig {
                mcg_threshold: Some(0.0),
                ..MiningConfig::default()
            },
        )
        .unwrap();
        // Threshold 0 shortlists every kappa in the sweep.
        assert_eq!(out.shortlisted.len(), out.sweep.len());
    }

    #[test]
    fn tiny_graph_rejected() {
        let adj = CsrMatrix::from_undirected_edges(2, &[(0, 1, 1.0)]).unwrap();
        let g = RoadGraph::from_parts(adj, vec![0.1, 0.2], vec![]).unwrap();
        assert!(mine_supergraph(&g, &MiningConfig::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let g = plateau_graph();
        let a = mine_supergraph(&g, &MiningConfig::default()).unwrap();
        let b = mine_supergraph(&g, &MiningConfig::default()).unwrap();
        assert_eq!(a.chosen_kappa, b.chosen_kappa);
        assert_eq!(a.supergraph.order(), b.supergraph.order());
        assert_eq!(a.supergraph.member_of(), b.supergraph.member_of());
    }
}
