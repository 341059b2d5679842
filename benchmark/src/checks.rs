//! Output checks and partition quality, shared by the workloads.

use roadpart_eval::{ans, gdbi, partition_adjacency};
use roadpart_linalg::CsrMatrix;

/// Checks that `labels` cover `n` segments with dense labels `0..k` (no
/// label out of range, no empty label) and returns `k`.
///
/// # Errors
/// Names the first violated condition.
pub fn dense_labels(labels: &[usize], n: usize) -> Result<usize, String> {
    if labels.len() != n {
        return Err(format!("labels cover {} of {n} segments", labels.len()));
    }
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut seen = vec![false; k];
    for &l in labels {
        seen[l] = true;
    }
    match seen.iter().position(|&s| !s) {
        Some(hole) => Err(format!("label {hole} of 0..{k} is empty")),
        None => Ok(k),
    }
}

/// Checks that every label's segments form one connected piece of `adj`.
///
/// # Errors
/// Reports how many connected pieces the `k` labels split into.
pub fn connected_parts(adj: &CsrMatrix, labels: &[usize], k: usize) -> Result<(), String> {
    let comp = roadpart_cluster::constrained_components(adj, Some(labels))
        .map_err(|e| format!("components: {e}"))?;
    let pieces = comp.iter().copied().max().map_or(0, |m| m + 1);
    if pieces == k {
        Ok(())
    } else {
        Err(format!("{k} partitions form {pieces} connected pieces"))
    }
}

/// Partition quality against the densities it was built for.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Average NcutSilhouette (lower is better).
    pub ans: f64,
    /// Graph Davies–Bouldin index (lower is better).
    pub gdbi: f64,
    /// `max(k_out, k) / min(k_out, k)`: 1 when exactly `k` partitions came
    /// back.
    pub k_ratio: f64,
}

/// Scores `labels` (dense, `k_out` partitions) over the road graph `adj`
/// whose segments carry `densities`, for a request of `k` partitions.
pub fn quality(adj: &CsrMatrix, densities: &[f64], labels: &[usize], k: usize) -> Quality {
    let k_out = labels.iter().copied().max().map_or(0, |m| m + 1);
    let pa = partition_adjacency(adj, labels, k_out);
    let mut groups = vec![Vec::new(); k_out];
    for (&l, &d) in labels.iter().zip(densities) {
        groups[l].push(d);
    }
    let (lo, hi) = (k_out.min(k).max(1), k_out.max(k).max(1));
    Quality {
        ans: ans(&groups, &pa),
        gdbi: gdbi(&groups, &pa),
        k_ratio: hi as f64 / lo as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_labels_rejects_holes_and_short_covers() {
        assert_eq!(dense_labels(&[0, 1, 1, 2], 4), Ok(3));
        assert!(dense_labels(&[0, 2, 2], 3).is_err());
        assert!(dense_labels(&[0, 1], 3).is_err());
    }

    #[test]
    fn connectivity_and_quality_on_a_path() {
        let adj =
            CsrMatrix::from_undirected_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(connected_parts(&adj, &[0, 0, 1, 1], 2).is_ok());
        assert!(connected_parts(&adj, &[0, 1, 0, 1], 2).is_err());
        let q = quality(&adj, &[1.0, 1.0, 5.0, 5.0], &[0, 0, 1, 1], 4);
        assert_eq!(q.k_ratio, 2.0);
        assert!(q.ans < 0.01);
    }
}
