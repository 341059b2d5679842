//! Spectral embeddings (Algorithm 3 lines 3–8).
//!
//! Builds the `n x k` eigenvector matrix `Y` of either the α-Cut matrix
//! `M = d dᵀ / (1ᵀD1) − A` (Eq. 6) or the normalized Laplacian
//! `L_sym = I − D^{-1/2} A D^{-1/2}` (the normalized-cut baseline), then
//! row-normalizes it into `Z` (Eq. 8). Both matrices are applied
//! matrix-free so the supergraph adjacency is never densified.

use crate::error::{CutError, Result};
use roadpart_linalg::{
    sym_eigs_recovering_ws, CsrMatrix, DenseMatrix, DiagScaledOp, EigenConfig, FallbackConfig,
    RankOneUpdate, RecoveryLog, Which, Workspace,
};
use serde::{Deserialize, Serialize};

/// Which spectral cut drives the embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CutKind {
    /// The paper's k-way α-Cut (Eq. 5/6).
    Alpha,
    /// The normalized cut of Shi & Malik (baseline).
    Normalized,
}

/// Validates adjacency preconditions shared by both cut matrices.
fn validate(adj: &CsrMatrix) -> Result<()> {
    if !adj.is_symmetric(1e-9) {
        return Err(CutError::InvalidInput(
            "adjacency matrix must be symmetric".into(),
        ));
    }
    if adj.iter().any(|(_, _, w)| w < 0.0) {
        return Err(CutError::InvalidInput(
            "adjacency weights must be non-negative".into(),
        ));
    }
    Ok(())
}

/// [`embedding_recovering_ws`] with a throwaway workspace, for one-shot
/// callers.
///
/// # Errors
/// Same as [`embedding_recovering_ws`].
pub fn embedding_recovering(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
) -> Result<DenseMatrix> {
    embedding_recovering_ws(adj, k, kind, eig, fallback, log, &mut Workspace::new())
}

/// The `k` smallest eigenvectors (`k` clamped to the graph order) of the
/// cut matrix selected by `kind`, as columns of an `n x k` matrix — the
/// relaxed cluster indicator vectors.
///
/// * [`CutKind::Alpha`]: the α-Cut matrix `M = d dᵀ / (1ᵀD1) − A`, applied
///   as a rank-one update of the adjacency (for an edgeless graph `M = 0`);
/// * [`CutKind::Normalized`]: the normalized Laplacian
///   `L_sym = I − D^{-1/2} A D^{-1/2}`. Zero-degree (isolated) nodes get
///   `d^{-1/2} = 0`: their rows reduce to the identity, leaving them
///   spectrally inert, and they fall out as singleton components later in
///   the pipeline.
///
/// The eigensolve runs behind the solver fallback ladder: non-convergence
/// and non-finite Ritz values trigger progressively more forgiving solver
/// configurations instead of failing the cut outright, and every attempt
/// is recorded in `log`. Scratch buffers come from `ws`; passing the same
/// workspace across calls (the warm-solve loop of the online engine) keeps
/// the Lanczos restart loop allocation-free after the first solve, and
/// results are bit-identical to a fresh workspace.
///
/// # Errors
/// Rejects asymmetric or negative input immediately; returns the last
/// rung's numerical error if the whole ladder is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn embedding_recovering_ws(
    adj: &CsrMatrix,
    k: usize,
    kind: CutKind,
    eig: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
    ws: &mut Workspace,
) -> Result<DenseMatrix> {
    validate(adj)?;
    let n = adj.dim();
    let nev = k.min(n);
    match kind {
        CutKind::Alpha => {
            let d = adj.degrees();
            let s: f64 = d.iter().sum();
            let scale = if s > 0.0 { 1.0 / s } else { 0.0 };
            let op = RankOneUpdate::new(adj, d, scale, -1.0)?;
            let dec = sym_eigs_recovering_ws(&op, nev, Which::Smallest, eig, fallback, log, ws)?;
            Ok(dec.vectors)
        }
        CutKind::Normalized => {
            let d_inv_sqrt: Vec<f64> = adj
                .degrees()
                .iter()
                .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
                .collect();
            let op = DiagScaledOp::new(adj, d_inv_sqrt, -1.0, 1.0)?;
            let dec = sym_eigs_recovering_ws(&op, nev, Which::Smallest, eig, fallback, log, ws)?;
            Ok(dec.vectors)
        }
    }
}

/// Row-normalizes `Y` into `Z` (Eq. 8): each row is scaled to unit length.
/// All-zero rows (isolated nodes) are left as zero.
pub fn row_normalize(y: &mut DenseMatrix) {
    for i in 0..y.rows() {
        let row = y.row_mut(i);
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in row {
                *v /= norm;
            }
        }
    }
}

/// Builds the α-Cut matrix densely (tests and tiny graphs only) so its
/// algebra can be checked against the operator form.
pub fn dense_alpha_matrix(adj: &CsrMatrix) -> DenseMatrix {
    let n = adj.dim();
    let d = adj.degrees();
    let s: f64 = d.iter().sum();
    let a = adj.to_dense();
    DenseMatrix::from_fn(n, n, |i, j| {
        let rank1 = if s > 0.0 { d[i] * d[j] / s } else { 0.0 };
        rank1 - a.get(i, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_linalg::eigh;

    /// One embedding with the default solver settings.
    fn embed(adj: &CsrMatrix, k: usize, kind: CutKind) -> Result<DenseMatrix> {
        embedding_recovering(
            adj,
            k,
            kind,
            &EigenConfig::default(),
            &FallbackConfig::default(),
            &mut RecoveryLog::new(),
        )
    }

    /// Two triangles joined by one weak link — an obvious 2-partition.
    fn two_triangles() -> CsrMatrix {
        CsrMatrix::from_undirected_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.05),
            ],
        )
        .unwrap()
    }

    #[test]
    fn alpha_embedding_matches_dense_eigensolve() {
        let a = two_triangles();
        let y = embed(&a, 2, CutKind::Alpha).unwrap();
        let dense = eigh(&dense_alpha_matrix(&a)).unwrap();
        // Column spans must agree: check eigenvalue residuals of y columns.
        let m = dense_alpha_matrix(&a);
        for c in 0..2 {
            let col = y.col(c);
            let mut mc = vec![0.0; 6];
            m.matvec(&col, &mut mc).unwrap();
            let lambda = dense.values[c];
            for i in 0..6 {
                assert!(
                    (mc[i] - lambda * col[i]).abs() < 1e-8,
                    "column {c} is not the eigenvector of lambda_{c}"
                );
            }
        }
    }

    #[test]
    fn alpha_embedding_separates_clusters() {
        let a = two_triangles();
        let mut y = embed(&a, 2, CutKind::Alpha).unwrap();
        row_normalize(&mut y);
        // Rows within each triangle should nearly coincide, across should not.
        let dist = |p: usize, q: usize| -> f64 {
            y.row(p)
                .iter()
                .zip(y.row(q))
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(0, 1) < 0.2);
        assert!(dist(3, 4) < 0.2);
        assert!(dist(0, 3) > 0.5, "cross-cluster distance {}", dist(0, 3));
    }

    #[test]
    fn ncut_embedding_constant_direction_for_connected_graph() {
        // The smallest eigenvalue of L_sym is 0 with eigenvector D^{1/2} 1.
        let a = two_triangles();
        let y = embed(&a, 1, CutKind::Normalized).unwrap();
        let d = a.degrees();
        let col = y.col(0);
        // col should be proportional to sqrt(d).
        let ratio: Vec<f64> = col.iter().zip(&d).map(|(c, dd)| c / dd.sqrt()).collect();
        for w in ratio.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-8, "ratios: {ratio:?}");
        }
    }

    #[test]
    fn row_normalize_makes_unit_rows() {
        let mut y = DenseMatrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]).unwrap();
        row_normalize(&mut y);
        assert!((y.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((y.get(0, 1) - 0.8).abs() < 1e-12);
        // Zero row untouched.
        assert_eq!(y.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn rejects_asymmetric_and_negative() {
        let asym = CsrMatrix::from_triplets(2, &[(0, 1, 1.0)]).unwrap();
        assert!(embed(&asym, 1, CutKind::Alpha).is_err());
        let neg = CsrMatrix::from_undirected_edges(2, &[(0, 1, -1.0)]).unwrap();
        assert!(embed(&neg, 1, CutKind::Normalized).is_err());
    }

    #[test]
    fn k_clamped_to_dimension() {
        let a = two_triangles();
        let y = embed(&a, 10, CutKind::Alpha).unwrap();
        assert_eq!(y.cols(), 6);
    }

    #[test]
    fn edgeless_graph_handled() {
        let a = CsrMatrix::from_triplets(4, &[]).unwrap();
        let y = embed(&a, 2, CutKind::Alpha).unwrap();
        assert_eq!(y.rows(), 4);
        let y2 = embed(&a, 2, CutKind::Normalized).unwrap();
        assert_eq!(y2.cols(), 2);
    }

    /// The α-Cut matrix equals the negative modularity matrix
    /// `B = A - d dᵀ / (2m)` (§7: "This matrix actually equals to the
    /// negative of our α-Cut matrix"), so minimizing α-Cut approximately
    /// maximizes modularity.
    #[test]
    fn alpha_matrix_is_negative_modularity_matrix() {
        let adj = CsrMatrix::from_undirected_edges(
            5,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 0.5),
                (3, 4, 1.5),
                (4, 0, 1.0),
                (1, 3, 0.25),
            ],
        )
        .unwrap();
        let m = dense_alpha_matrix(&adj);
        let d = adj.degrees();
        let two_m: f64 = d.iter().sum();
        for i in 0..5 {
            for j in 0..5 {
                let b = adj.get(i, j) - d[i] * d[j] / two_m;
                assert!(
                    (m.get(i, j) + b).abs() < 1e-12,
                    "M[{i}][{j}] != -B[{i}][{j}]"
                );
            }
        }
    }

    /// Eigenvectors of the k smallest α-Cut eigenvalues coincide with those
    /// of the k largest modularity eigenvalues (White & Smyth equivalence).
    #[test]
    fn smallest_alpha_eigens_are_largest_modularity_eigens() {
        let adj = CsrMatrix::from_undirected_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.1),
            ],
        )
        .unwrap();
        let m = dense_alpha_matrix(&adj);
        let dec = eigh(&m).unwrap();
        // -M's largest eigenvalue = -(M's smallest); same eigenvector.
        let neg = roadpart_linalg::DenseMatrix::from_fn(6, 6, |i, j| -m.get(i, j));
        let neg_dec = eigh(&neg).unwrap();
        let n = 6;
        for j in 0..2 {
            assert!((dec.values[j] + neg_dec.values[n - 1 - j]).abs() < 1e-10);
        }
    }
}
