//! Optimal-k selection by the ANS minimum (paper §6.3).
//!
//! "Like Ji and Geroliminis, we consider the ANS measure as the deciding
//! factor for the optimal number of partitions" — the k whose partitioning
//! attains the lowest ANS wins, with the local minima of the ANS curve as
//! secondary candidates for finer-grained analysis (§6.4: "k = 7, 9, 13,
//! ... being the local minima serve as good candidates").

use crate::error::Result;
use crate::schemes::{run_scheme, FrameworkConfig, Scheme};
use roadpart_cut::gaussian_affinity_par;
use roadpart_eval::QualityReport;
use roadpart_net::RoadGraph;
use serde::{Deserialize, Serialize};

/// One evaluated candidate in a k sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KCandidate {
    /// Requested partition count.
    pub k: usize,
    /// Quality metrics of the resulting partitioning.
    pub report: QualityReport,
}

/// Result of [`select_k`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSelection {
    /// The ANS-optimal k (global minimum of the sweep).
    pub best_k: usize,
    /// ANS at the optimum.
    pub best_ans: f64,
    /// Local minima of the ANS curve (including the global one) — the
    /// paper's "good candidates" for finer partitionings.
    pub candidates: Vec<usize>,
    /// The full sweep for plotting / inspection.
    pub sweep: Vec<KCandidate>,
}

/// Sweeps `k` over `k_range`, partitions with `scheme`, and selects the
/// ANS-optimal partition count.
///
/// # Errors
/// Returns an error for an empty range or any scheme failure.
pub fn select_k(
    graph: &RoadGraph,
    scheme: Scheme,
    k_range: std::ops::RangeInclusive<usize>,
    cfg: &FrameworkConfig,
) -> Result<KSelection> {
    let affinity =
        gaussian_affinity_par(graph.adjacency(), graph.features(), &cfg.spectral.pool())?;
    let mut sweep = Vec::new();
    for k in k_range {
        let out = run_scheme(graph, scheme, k, cfg)?;
        let report = QualityReport::compute(&affinity, graph.features(), out.partition.labels());
        sweep.push(KCandidate { k, report });
    }
    if sweep.is_empty() {
        return Err(crate::error::RoadpartError::InvalidConfig(
            "select_k requires a non-empty k range".into(),
        ));
    }
    // The emptiness check above guarantees the argmin exists.
    let Some(best) = roadpart_linalg::ord::min_by_f64_key(sweep.iter(), |c| c.report.ans) else {
        return Err(crate::error::RoadpartError::InvalidConfig(
            "select_k sweep produced no candidates".into(),
        ));
    };
    let (best_k, best_ans) = (best.k, best.report.ans);

    // Local minima of the ANS curve.
    let mut candidates = Vec::new();
    for i in 0..sweep.len() {
        let here = sweep[i].report.ans;
        let left_ok = i == 0 || sweep[i - 1].report.ans >= here;
        let right_ok = i + 1 == sweep.len() || sweep[i + 1].report.ans >= here;
        if left_ok && right_ok {
            candidates.push(sweep[i].k);
        }
    }

    Ok(KSelection {
        best_k,
        best_ans,
        candidates,
        sweep,
    })
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
    fn selects_the_planted_k() {
        let g = plateau_graph();
        let cfg = FrameworkConfig::default().with_seed(5);
        let sel = select_k(&g, Scheme::ASG, 2..=6, &cfg).unwrap();
        assert_eq!(
            sel.best_k,
            3,
            "sweep: {:?}",
            sel.sweep
                .iter()
                .map(|c| (c.k, c.report.ans))
                .collect::<Vec<_>>()
        );
        assert!(sel.candidates.contains(&3));
        assert_eq!(sel.sweep.len(), 5);
    }

    #[test]
    fn empty_range_rejected() {
        let g = plateau_graph();
        let cfg = FrameworkConfig::default();
        #[allow(clippy::reversed_empty_ranges)]
        let r = select_k(&g, Scheme::AG, 5..=4, &cfg);
        assert!(r.is_err());
    }

    #[test]
    fn candidates_are_local_minima() {
        let g = plateau_graph();
        let cfg = FrameworkConfig::default().with_seed(9);
        let sel = select_k(&g, Scheme::AG, 2..=8, &cfg).unwrap();
        // Every reported candidate really is a local minimum of the sweep.
        let ans_of = |k: usize| {
            sel.sweep
                .iter()
                .find(|c| c.k == k)
                .map(|c| c.report.ans)
                .unwrap()
        };
        for &k in &sel.candidates {
            if k > 2 {
                assert!(ans_of(k - 1) >= ans_of(k) - 1e-12);
            }
            if k < 8 {
                assert!(ans_of(k + 1) >= ans_of(k) - 1e-12);
            }
        }
    }
}
