//! Superlink establishment and weighting (§4.3.3, Eq. 3).
//!
//! A superlink joins supernodes `(ς_p, ς_q)` whenever at least one
//! road-graph link crosses between their member sets. Its weight is
//!
//! `ω = sqrt( (1/|L_pq|) Σ_{e∈L_pq} ( exp(−(ς_p.f − ς_q.f)² / 2σ²(ς)) )² )`
//!
//! with `σ²(ς)` the variance of supernode features around their mean.
//! Because the per-link similarity depends only on the two *supernode*
//! features, the sum of `|L_pq|` identical squared terms divided by
//! `|L_pq|` collapses to the single Gaussian similarity — we keep the
//! general accumulation form (it is cheap and documents the formula), and
//! note the algebraic reduction in DESIGN.md.

use crate::error::Result;
use roadpart_linalg::par::{ThreadPool, DEFAULT_CHUNK};
use roadpart_linalg::CsrMatrix;
use std::collections::BTreeMap;

/// Builds the weighted superlink matrix for a supernode cover of the road
/// graph.
///
/// * `road_adj` — binary road-graph adjacency;
/// * `member_of` — supernode index per road-graph node;
/// * `features` — supernode feature values (length = supernode count).
///
/// When the supernode features have zero variance, all similarities are 1
/// (the Gaussian limit) and the superlink weights reduce to pure topology.
///
/// The per-link similarity accumulation runs over `pool`: each fixed row
/// chunk accumulates its own ordered `(pair -> (Σ sim², count))` map by
/// scanning rows in index order; the chunk maps are then merged in chunk
/// order. Chunk boundaries never depend on the thread count, so the result
/// is bit-identical at any pool size.
///
/// # Errors
/// Propagates matrix-construction failures (out-of-range `member_of`
/// entries surface here).
pub fn build_superlinks_par(
    road_adj: &CsrMatrix,
    member_of: &[usize],
    features: &[f64],
    pool: &ThreadPool,
) -> Result<CsrMatrix> {
    let n_super = features.len();
    let mu = if n_super == 0 {
        0.0
    } else {
        features.iter().sum::<f64>() / n_super as f64
    };
    let var = if n_super == 0 {
        0.0
    } else {
        features.iter().map(|f| (f - mu) * (f - mu)).sum::<f64>() / n_super as f64
    };

    // Accumulate squared similarities and link counts per supernode pair,
    // one ordered map per fixed row chunk.
    let chunk_maps = pool.chunked_map(road_adj.dim(), DEFAULT_CHUNK, |rows| {
        let mut acc: BTreeMap<(usize, usize), (f64, usize)> = BTreeMap::new();
        for u in rows {
            let (cols, _) = road_adj.row(u);
            for &v in cols {
                if u >= v {
                    continue; // each undirected link once
                }
                let (p, q) = (member_of[u], member_of[v]);
                if p == q {
                    continue;
                }
                let key = (p.min(q), p.max(q));
                let sim = if var > 0.0 {
                    let d = features[key.0] - features[key.1];
                    (-(d * d) / (2.0 * var)).exp()
                } else {
                    1.0
                };
                let e = acc.entry(key).or_insert((0.0, 0));
                e.0 += sim * sim;
                e.1 += 1;
            }
        }
        acc
    });
    // Ordered merge: chunk partials combine in chunk (= row) order.
    let mut acc: BTreeMap<(usize, usize), (f64, usize)> = BTreeMap::new();
    for chunk in chunk_maps {
        for (key, (sum_sq, count)) in chunk {
            let e = acc.entry(key).or_insert((0.0, 0));
            e.0 += sum_sq;
            e.1 += count;
        }
    }
    let triplets: Vec<(usize, usize, f64)> = acc
        .into_iter()
        .map(|((p, q), (sum_sq, count))| (p, q, (sum_sq / count as f64).sqrt()))
        .collect();
    Ok(CsrMatrix::from_undirected_edges(n_super, &triplets)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0-1-2-3 with supernodes {0,1}, {2}, {3}.
    fn setup() -> (CsrMatrix, Vec<usize>) {
        let adj =
            CsrMatrix::from_undirected_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        (adj, vec![0, 0, 1, 2])
    }

    #[test]
    fn links_follow_member_adjacency() {
        let (adj, member_of) = setup();
        let w = build_superlinks_par(&adj, &member_of, &[0.1, 0.5, 0.9], &ThreadPool::serial())
            .unwrap();
        assert_eq!(w.dim(), 3);
        assert!(w.get(0, 1) > 0.0); // link 1-2 crosses supernodes 0-1
        assert!(w.get(1, 2) > 0.0); // link 2-3 crosses supernodes 1-2
        assert_eq!(w.get(0, 2), 0.0); // no direct road link
        assert!(w.is_symmetric(1e-12));
    }

    #[test]
    fn closer_features_weigh_more() {
        let (adj, member_of) = setup();
        let w = build_superlinks_par(&adj, &member_of, &[0.1, 0.12, 0.9], &ThreadPool::serial())
            .unwrap();
        assert!(
            w.get(0, 1) > w.get(1, 2),
            "similar supernodes should be more strongly linked"
        );
    }

    #[test]
    fn weights_in_unit_interval() {
        let (adj, member_of) = setup();
        let w = build_superlinks_par(&adj, &member_of, &[0.0, 3.0, -1.0], &ThreadPool::serial())
            .unwrap();
        for (_, _, x) in w.iter() {
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn zero_variance_gives_unit_weights() {
        let (adj, member_of) = setup();
        let w = build_superlinks_par(&adj, &member_of, &[0.4, 0.4, 0.4], &ThreadPool::serial())
            .unwrap();
        assert_eq!(w.get(0, 1), 1.0);
        assert_eq!(w.get(1, 2), 1.0);
    }

    #[test]
    fn eq3_reduces_to_single_similarity_regardless_of_link_count() {
        // K4 road graph: supernodes {0,1} and {2,3} joined by 4 cross links;
        // the weight must equal the single-pair Gaussian similarity.
        let mut edges = Vec::new();
        for i in 0..4usize {
            for j in (i + 1)..4 {
                edges.push((i, j, 1.0));
            }
        }
        let adj = CsrMatrix::from_undirected_edges(4, &edges).unwrap();
        let member_of = vec![0, 0, 1, 1];
        let features = [0.2, 0.8];
        let w = build_superlinks_par(&adj, &member_of, &features, &ThreadPool::serial()).unwrap();
        let mu = 0.5;
        let var = ((0.2f64 - mu).powi(2) + (0.8f64 - mu).powi(2)) / 2.0;
        let expect = (-(0.6f64 * 0.6) / (2.0 * var)).exp();
        assert!((w.get(0, 1) - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_supergraph() {
        let adj = CsrMatrix::from_triplets(0, &[]).unwrap();
        let w = build_superlinks_par(&adj, &[], &[], &ThreadPool::serial()).unwrap();
        assert_eq!(w.dim(), 0);
    }
}
