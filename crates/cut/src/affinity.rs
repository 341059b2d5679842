//! Affinity weighting of binary adjacency graphs.
//!
//! The AG/NG schemes apply α-Cut / normalized cut *directly on the road
//! graph*, whose links are binary adjacencies. The affinity between adjacent
//! segments is the Gaussian congestion similarity of their densities — the
//! node-level analogue of the superlink weight of Eq. 3 (with `|L_pq| = 1`).

use crate::error::{CutError, Result};
use roadpart_linalg::par::ThreadPool;
use roadpart_linalg::CsrMatrix;

/// Replaces each binary link `(i, j)` with the Gaussian similarity
/// `w_ij = exp(-(f_i - f_j)² / (2 σ²))` — the node-level analogue of
/// `σ²(ς)` in Eq. 3.
///
/// The bandwidth `σ` is a *robust* scale estimate, `1.4826 x MAD`
/// (median absolute deviation), falling back to the standard deviation when
/// the MAD vanishes. Traffic densities are heavy-tailed — a handful of
/// gridlocked segments can carry densities tens of times the median — and
/// a variance bandwidth would compress every typical density difference
/// toward similarity 1, reducing the cut to pure topology. (The *superlink*
/// weighting of Eq. 3 keeps the paper's literal variance: supernode
/// features are cluster means, already tail-free.)
///
/// When all features are equal (`σ = 0`) every weight is 1, the similarity
/// limit — the graph degenerates to its topology, which is the correct
/// behaviour for uniform congestion.
///
/// The per-link weighting runs over `pool` in fixed row chunks. The
/// weights are pure per-entry functions evaluated into deterministic slots
/// of the adjacency's own sparsity pattern
/// ([`CsrMatrix::map_entries_par`]), so the result is bit-identical at any
/// pool size — and no triplet sort/merge rebuild is paid per time step.
///
/// # Errors
/// Returns [`CutError::InvalidInput`] on length mismatch or non-finite
/// features.
pub fn gaussian_affinity_par(
    adj: &CsrMatrix,
    features: &[f64],
    pool: &ThreadPool,
) -> Result<CsrMatrix> {
    let n = adj.dim();
    if features.len() != n {
        return Err(CutError::InvalidInput(format!(
            "feature vector length {} != graph order {n}",
            features.len()
        )));
    }
    if features.iter().any(|f| !f.is_finite()) {
        return Err(CutError::InvalidInput("features must be finite".into()));
    }
    let var = {
        let sigma = robust_sigma(features);
        sigma * sigma
    };
    // Weights are floored at a tiny positive value so that links between
    // very dissimilar segments stay *structurally* present (entries mapped
    // to exact zeros are dropped, and the spatial-adjacency pattern must
    // survive for connectivity checks and partition-adjacency metrics).
    // The floor also means no entry maps to 0.0, so the affinity keeps the
    // adjacency's sparsity pattern exactly.
    const MIN_WEIGHT: f64 = 1e-12;
    Ok(adj.map_entries_par(pool, |i, j, _| {
        if var > 0.0 {
            let d = features[i] - features[j];
            (-(d * d) / (2.0 * var)).exp().max(MIN_WEIGHT)
        } else {
            1.0
        }
    })?)
}

/// Robust scale: `1.4826 x median(|f - median(f)|)`, the Gaussian-consistent
/// MAD estimator; falls back to the standard deviation for degenerate MAD
/// (e.g. more than half the values identical), and `0.0` for constant data.
///
/// A single scratch buffer serves both medians: it is sorted once for the
/// feature median, rewritten in place to `|f - med|`, and sorted again for
/// the MAD. The deviations form the same multiset as the historical
/// two-allocation version (absolute deviations of a permutation of the
/// features), and [`roadpart_linalg::ord::sort_f64`] is a total order, so
/// the resulting σ is bit-identical while one of the two temporary vectors
/// — previously re-allocated on every affinity construction — disappears.
fn robust_sigma(features: &[f64]) -> f64 {
    if features.is_empty() {
        return 0.0;
    }
    fn median_of_sorted(xs: &[f64]) -> f64 {
        let m = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[m]
        } else {
            0.5 * (xs[m - 1] + xs[m])
        }
    }
    let mut scratch = features.to_vec();
    roadpart_linalg::ord::sort_f64(&mut scratch);
    let med = median_of_sorted(&scratch);
    scratch.iter_mut().for_each(|v| *v = (*v - med).abs());
    roadpart_linalg::ord::sort_f64(&mut scratch);
    let mad = median_of_sorted(&scratch);
    if mad > 0.0 {
        1.4826 * mad
    } else {
        // Streaming fallback over the original (unsorted) features, exactly
        // as before, so the degenerate-MAD path keeps its summation order.
        let mean = features.iter().sum::<f64>() / features.len() as f64;
        (features
            .iter()
            .map(|f| (f - mean) * (f - mean))
            .sum::<f64>()
            / features.len() as f64)
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The affinity on the serial pool.
    fn serial_affinity(adj: &CsrMatrix, features: &[f64]) -> Result<CsrMatrix> {
        gaussian_affinity_par(adj, features, &ThreadPool::serial())
    }

    fn path3() -> CsrMatrix {
        CsrMatrix::from_undirected_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap()
    }

    #[test]
    fn similar_features_get_high_weight() {
        let a = serial_affinity(&path3(), &[1.0, 1.01, 5.0]).unwrap();
        // With the robust (MAD) bandwidth the 0.01 gap costs some weight but
        // remains far above the outlier link.
        assert!(a.get(0, 1) > 0.5);
        assert!(a.get(1, 2) < a.get(0, 1));
        assert!(a.get(1, 2) >= 1e-12, "links stay structurally present");
        assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn weights_bounded_in_unit_interval() {
        let a = serial_affinity(&path3(), &[0.0, 10.0, -3.0]).unwrap();
        for (_, _, w) in a.iter() {
            assert!(w > 0.0 && w <= 1.0);
        }
    }

    #[test]
    fn uniform_features_degenerate_to_topology() {
        let a = serial_affinity(&path3(), &[2.0, 2.0, 2.0]).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 2), 1.0);
        assert_eq!(a.get(0, 2), 0.0); // non-links stay absent
    }

    #[test]
    fn validation() {
        assert!(serial_affinity(&path3(), &[1.0]).is_err());
        assert!(serial_affinity(&path3(), &[1.0, f64::NAN, 2.0]).is_err());
    }

    #[test]
    fn robust_to_heavy_tail() {
        // A gridlocked outlier must not wash out the similarity structure of
        // the body: with a variance bandwidth both body links would sit near
        // 1; the MAD bandwidth keeps them separated.
        let adj = CsrMatrix::from_undirected_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        )
        .unwrap();
        let features = [0.010, 0.011, 0.030, 0.031, 5.0];
        let a = serial_affinity(&adj, &features).unwrap();
        let similar = a.get(0, 1); // 0.010 vs 0.011
        let across = a.get(1, 2); // 0.011 vs 0.030
        assert!(similar > 0.9, "similar pair weight {similar}");
        assert!(
            across < 0.8 * similar,
            "body structure must stay discriminated: {across} vs {similar}"
        );
        assert!(a.get(3, 4) < 1e-6, "outlier link should be near zero");
        assert!(a.get(3, 4) >= 1e-12, "but never structurally dropped");
    }

    #[test]
    fn parallel_affinity_is_bit_identical_to_serial() {
        // Pseudo-random ring + chords, heavy-tailed features: the parallel
        // construction must agree with the serial one bit for bit (same σ,
        // same per-link weights, same CSR layout).
        let n = 700; // > DEFAULT_CHUNK so the pool actually splits rows
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n, 1.0));
            if i % 7 == 0 {
                edges.push((i, (i + n / 3) % n, 1.0));
            }
        }
        let adj = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
        let mut x = 0.42_f64;
        let features: Vec<f64> = (0..n)
            .map(|i| {
                x = (x * 997.0 + 0.13).fract();
                if i % 61 == 0 {
                    5.0 + 40.0 * x
                } else {
                    0.01 + 0.05 * x
                }
            })
            .collect();
        let serial = serial_affinity(&adj, &features).unwrap();
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let par = gaussian_affinity_par(&adj, &features, &pool).unwrap();
            assert_eq!(serial.dim(), par.dim());
            let a: Vec<_> = serial.iter().collect();
            let b: Vec<_> = par.iter().collect();
            assert_eq!(a.len(), b.len());
            for ((ri, ci, wi), (rj, cj, wj)) in a.iter().zip(&b) {
                assert_eq!((ri, ci), (rj, cj));
                assert_eq!(wi.to_bits(), wj.to_bits(), "weight at ({ri},{ci})");
            }
        }
    }

    #[test]
    fn mad_fallback_to_stddev() {
        // More than half identical values: MAD = 0, std-dev fallback keeps a
        // usable bandwidth.
        let adj =
            CsrMatrix::from_undirected_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let features = [1.0, 1.0, 1.0, 2.0];
        let a = serial_affinity(&adj, &features).unwrap();
        assert!(a.get(0, 1) > 0.99);
        assert!(a.get(2, 3) < 0.99);
        assert!(a.get(2, 3) > 0.0);
    }
}
