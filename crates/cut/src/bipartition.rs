//! Two-way spectral cuts (the primitive of the recursive refinement).

use crate::embedding::{embedding_recovering, row_normalize, CutKind};
use crate::error::Result;
use roadpart_cluster::{kmeans, KMeansConfig};
use roadpart_linalg::{CsrMatrix, EigenConfig, FallbackConfig, RecoveryLog};

/// Splits a weighted graph into exactly two non-empty sides using the given
/// cut's 2-dimensional spectral embedding, returning 0/1 labels.
///
/// Degenerate situations are handled so that *progress is guaranteed* for
/// any graph with at least two nodes — required for termination of the
/// recursive refinement:
///
/// * spectral k-means collapsing to one side → fall back to a sign split of
///   the second eigenvector;
/// * that also failing (identical rows) → balanced index split.
///
/// The eigensolve runs behind the solver fallback ladder with its default
/// settings and records its attempts in `log`. It keeps its own scratch
/// workspace: pooling the refinement's many small solves in the run's
/// never-shrinking workspace fragments the heap and raises peak memory
/// (DESIGN.md, "Hot-path performance").
///
/// # Errors
/// Propagates eigensolver/k-means failures. A graph with fewer than two
/// nodes returns all-zero labels.
pub fn bipartition(
    adj: &CsrMatrix,
    kind: CutKind,
    eig: &EigenConfig,
    km_cfg: &KMeansConfig,
    log: &mut RecoveryLog,
) -> Result<Vec<usize>> {
    let n = adj.dim();
    if n < 2 {
        return Ok(vec![0; n]);
    }
    if n == 2 {
        return Ok(vec![0, 1]);
    }
    let mut y = embedding_recovering(adj, 2, kind, eig, &FallbackConfig::default(), log)?;
    row_normalize(&mut y);
    let km = kmeans(&y, 2, km_cfg)?;
    let mut labels = km.assignments;
    if !is_proper_bipartition(&labels) {
        // Sign split of the second (Fiedler-like) eigenvector.
        let second = y.col(1.min(y.cols().saturating_sub(1)));
        for (l, &v) in labels.iter_mut().zip(&second) {
            *l = usize::from(v > 0.0);
        }
    }
    if !is_proper_bipartition(&labels) {
        // Identical embedding rows: balanced index split.
        for (i, l) in labels.iter_mut().enumerate() {
            *l = usize::from(i >= n / 2);
        }
    }
    Ok(labels)
}

fn is_proper_bipartition(labels: &[usize]) -> bool {
    labels.contains(&0) && labels.contains(&1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bipartition with default settings and a fresh log.
    fn split(adj: &CsrMatrix, kind: CutKind) -> Vec<usize> {
        let (eig, km) = (EigenConfig::default(), KMeansConfig::default());
        bipartition(adj, kind, &eig, &km, &mut RecoveryLog::new()).unwrap()
    }

    /// Two cliques of 4, weakly bridged.
    fn two_cliques() -> CsrMatrix {
        let mut edges = Vec::new();
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        }
        edges.push((3, 4, 0.01));
        CsrMatrix::from_undirected_edges(8, &edges).unwrap()
    }

    #[test]
    fn splits_two_cliques_cleanly() {
        for kind in [CutKind::Alpha, CutKind::Normalized] {
            let labels = split(&two_cliques(), kind);
            assert!(is_proper_bipartition(&labels));
            for i in 1..4 {
                assert_eq!(labels[0], labels[i], "{kind:?}");
            }
            for i in 5..8 {
                assert_eq!(labels[4], labels[i], "{kind:?}");
            }
            assert_ne!(labels[0], labels[4], "{kind:?}");
        }
    }

    #[test]
    fn tiny_graphs() {
        let one = CsrMatrix::from_triplets(1, &[]).unwrap();
        assert_eq!(split(&one, CutKind::Alpha), vec![0]);
        let two = CsrMatrix::from_undirected_edges(2, &[(0, 1, 1.0)]).unwrap();
        assert_eq!(split(&two, CutKind::Alpha), vec![0, 1]);
    }

    #[test]
    fn uniform_clique_still_makes_progress() {
        // A perfectly symmetric clique has no natural cut; the fallback must
        // still produce two non-empty sides.
        let mut edges = Vec::new();
        for i in 0..6usize {
            for j in (i + 1)..6 {
                edges.push((i, j, 1.0));
            }
        }
        let clique = CsrMatrix::from_undirected_edges(6, &edges).unwrap();
        let labels = split(&clique, CutKind::Alpha);
        assert!(is_proper_bipartition(&labels));
    }

    #[test]
    fn edgeless_graph_splits() {
        let a = CsrMatrix::from_triplets(4, &[]).unwrap();
        let labels = split(&a, CutKind::Normalized);
        assert!(is_proper_bipartition(&labels));
    }
}
