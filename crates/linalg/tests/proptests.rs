//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use roadpart_linalg::{eigh, CsrMatrix, DenseMatrix, RankOneUpdate, SymOp};

/// Random symmetric dense matrix of dimension 2..=12.
fn arb_symmetric() -> impl Strategy<Value = DenseMatrix> {
    (2usize..12).prop_flat_map(|n| {
        proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |raw| {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let v = raw[i * n + j];
                    a.set(i, j, v);
                    a.set(j, i, v);
                }
            }
            a
        })
    })
}

/// Random sparse symmetric matrix plus a probe vector.
fn arb_sparse() -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (2usize..30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0.01f64..3.0), 1..3 * n);
        let x = proptest::collection::vec(-2.0f64..2.0, n);
        (edges, x).prop_map(move |(edges, x)| {
            let a = CsrMatrix::from_undirected_edges(n, &edges).unwrap();
            (a, x)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full eigendecomposition invariants: residuals, orthonormality,
    /// sortedness, and trace preservation.
    #[test]
    fn eigh_invariants(a in arb_symmetric()) {
        let n = a.rows();
        let dec = eigh(&a).unwrap();
        // Sorted ascending.
        for w in dec.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        // Residuals and orthonormality.
        for j in 0..n {
            let q = dec.vector(j);
            let mut aq = vec![0.0; n];
            a.matvec(&q, &mut aq).unwrap();
            for i in 0..n {
                prop_assert!((aq[i] - dec.values[j] * q[i]).abs() < 1e-7);
            }
            for l in j..n {
                let dot: f64 = q.iter().zip(dec.vector(l)).map(|(x, y)| x * y).sum();
                let expect = if l == j { 1.0 } else { 0.0 };
                prop_assert!((dot - expect).abs() < 1e-7);
            }
        }
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let sum: f64 = dec.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7 * (1.0 + trace.abs()));
    }

    /// CSR matvec agrees with the dense matvec, and symmetry holds.
    #[test]
    fn csr_matvec_matches_dense((a, x) in arb_sparse()) {
        prop_assert!(a.is_symmetric(1e-12));
        let n = a.dim();
        let mut ys = vec![0.0; n];
        a.matvec(&x, &mut ys).unwrap();
        let mut yd = vec![0.0; n];
        a.to_dense().matvec(&x, &mut yd).unwrap();
        for (s, d) in ys.iter().zip(&yd) {
            prop_assert!((s - d).abs() < 1e-9);
        }
        // Degrees are row sums of the dense form.
        let deg = a.degrees();
        for (i, &di) in deg.iter().enumerate() {
            let row_sum: f64 = (0..n).map(|j| a.to_dense().get(i, j)).sum();
            prop_assert!((di - row_sum).abs() < 1e-9);
        }
    }

    /// Principal submatrices preserve entries under renumbering.
    #[test]
    fn csr_submatrix_principal((a, _) in arb_sparse(), pick in proptest::collection::vec(any::<bool>(), 30)) {
        let keep: Vec<usize> = (0..a.dim()).filter(|&i| *pick.get(i).unwrap_or(&false)).collect();
        let sub = a.submatrix(&keep).unwrap();
        for (p, &old_p) in keep.iter().enumerate() {
            for (q, &old_q) in keep.iter().enumerate() {
                prop_assert_eq!(sub.get(p, q), a.get(old_p, old_q));
            }
        }
    }

    /// The rank-one operator equals its densified form on arbitrary probes.
    #[test]
    fn rank_one_operator_consistent((a, x) in arb_sparse()) {
        let d = a.degrees();
        let s: f64 = d.iter().sum::<f64>().max(1.0);
        let op = RankOneUpdate::new(&a, d.clone(), 1.0 / s, -1.0).unwrap();
        let dense = roadpart_linalg::densify_with(&op, &roadpart_linalg::ThreadPool::serial());
        let n = a.dim();
        let mut y1 = vec![0.0; n];
        op.apply(&x, &mut y1);
        let mut y2 = vec![0.0; n];
        dense.matvec(&x, &mut y2).unwrap();
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `validate` accepts everything the constructors produce, and
    /// `from_raw_parts` round-trips the raw arrays.
    #[test]
    fn validate_accepts_constructed_matrices((a, _) in arb_sparse()) {
        prop_assert!(a.validate().is_ok());
        let n = a.dim();
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            let (cols, vals) = a.row(i);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        let rebuilt = CsrMatrix::from_raw_parts(n, row_ptr, col_idx, values).unwrap();
        prop_assert!(rebuilt.validate().is_ok());
    }

    /// Structural mutations of valid raw arrays are rejected: unsorted
    /// column indices and non-finite values.
    #[test]
    fn from_raw_parts_rejects_mutations((a, _) in arb_sparse(), use_nan in any::<bool>()) {
        let poison = if use_nan { f64::NAN } else { f64::INFINITY };
        let n = a.dim();
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            let (cols, vals) = a.row(i);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        if let Some(i) = (0..n).find(|&i| row_ptr[i + 1] - row_ptr[i] >= 2) {
            let mut bad = col_idx.clone();
            bad.swap(row_ptr[i], row_ptr[i] + 1);
            prop_assert!(
                CsrMatrix::from_raw_parts(n, row_ptr.clone(), bad, values.clone()).is_err(),
                "unsorted column indices accepted"
            );
        }
        if !values.is_empty() {
            let mut bad = values.clone();
            bad[0] = poison;
            prop_assert!(
                CsrMatrix::from_raw_parts(n, row_ptr.clone(), col_idx.clone(), bad).is_err(),
                "non-finite value accepted"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `chunked_map` equals the sequential map over the same fixed chunk
    /// ranges for every pool size — including empty inputs and fewer
    /// elements than workers.
    #[test]
    fn chunked_map_matches_sequential(
        len in 0usize..4000,
        chunk in 1usize..2048,
        threads in 1usize..9,
    ) {
        use roadpart_linalg::par::{chunk_ranges, ThreadPool};
        let data: Vec<f64> = (0..len).map(|i| (i as f64).sin() + i as f64 * 1e-3).collect();
        let expected: Vec<f64> = chunk_ranges(len, chunk)
            .into_iter()
            .map(|r| data[r].iter().sum::<f64>())
            .collect();
        let pool = ThreadPool::new(threads);
        let slice = &data;
        let got = pool.chunked_map(len, chunk, |r| slice[r].iter().sum::<f64>());
        prop_assert_eq!(expected.len(), got.len());
        for (e, g) in expected.iter().zip(&got) {
            prop_assert!(e.to_bits() == g.to_bits(), "chunk partial differs");
        }
    }

    /// `chunked_reduce` equals the sequential left fold of the per-chunk
    /// partials *bitwise*, at every pool size.
    #[test]
    fn chunked_reduce_matches_sequential_fold(
        len in 0usize..4000,
        chunk in 1usize..2048,
        threads in 1usize..9,
    ) {
        use roadpart_linalg::par::{chunk_ranges, ThreadPool};
        let data: Vec<f64> = (0..len).map(|i| ((i * 37 + 11) % 97) as f64 * 0.013 - 0.5).collect();
        let slice = &data;
        let expected = chunk_ranges(len, chunk)
            .into_iter()
            .map(|r| slice[r].iter().sum::<f64>())
            .fold(0.0f64, |acc, p| acc + p);
        let pool = ThreadPool::new(threads);
        let got = pool.chunked_reduce(
            len,
            chunk,
            0.0f64,
            |r| slice[r].iter().sum::<f64>(),
            |acc, p| acc + p,
        );
        prop_assert!(
            expected.to_bits() == got.to_bits(),
            "ordered reduce differs from sequential fold: {} vs {}", expected, got
        );
    }

    /// `for_each_chunk_mut` writes every output slot exactly as the serial
    /// loop would, for arbitrary lengths, chunks, and pool sizes.
    #[test]
    fn for_each_chunk_mut_matches_serial_loop(
        len in 0usize..4000,
        chunk in 1usize..2048,
        threads in 1usize..9,
    ) {
        use roadpart_linalg::par::ThreadPool;
        let expected: Vec<f64> = (0..len).map(|i| (i as f64) * 1.5 - 3.0).collect();
        let pool = ThreadPool::new(threads);
        let mut out = vec![f64::NAN; len];
        pool.for_each_chunk_mut(&mut out, chunk, |r, slots| {
            for (offset, slot) in slots.iter_mut().enumerate() {
                *slot = ((r.start + offset) as f64) * 1.5 - 3.0;
            }
        });
        prop_assert_eq!(expected, out);
    }

    /// The parallel dot product is bit-identical across pool sizes.
    #[test]
    fn par_dot_bit_identical_across_pools(
        a in proptest::collection::vec(-3.0f64..3.0, 0..3000),
        threads in 2usize..9,
    ) {
        use roadpart_linalg::par::{dot, ThreadPool};
        let b: Vec<f64> = a.iter().map(|x| x * 0.7 + 0.1).collect();
        let serial = dot(&ThreadPool::serial(), &a, &b);
        let parallel = dot(&ThreadPool::new(threads), &a, &b);
        prop_assert!(serial.to_bits() == parallel.to_bits());
    }

    /// `map_tasks` preserves task order and loses nothing, even with more
    /// workers than tasks.
    #[test]
    fn map_tasks_preserves_order(
        n in 0usize..200,
        threads in 1usize..9,
    ) {
        use roadpart_linalg::par::ThreadPool;
        let pool = ThreadPool::new(threads);
        let tasks: Vec<usize> = (0..n).collect();
        let got = pool.map_tasks(tasks, |idx, t| idx * 1000 + t * 3 + 1);
        let expected: Vec<usize> = (0..n).map(|i| i * 1000 + i * 3 + 1).collect();
        prop_assert_eq!(expected, got);
    }
}

// --- Lane-unrolled reduction contract (vecops) --------------------------
//
// The canonical order: lane `l` accumulates elements with index ≡ l
// (mod LANES) in ascending order, lanes fold through the fixed tree
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); inputs shorter than LANES fold
// left-to-right. The models below restate that contract in plain scalar
// code, independently of the unrolled implementations.

/// Scalar restatement of the canonical lane order for `vecops::dot`.
fn dot_model(a: &[f64], b: &[f64]) -> f64 {
    use roadpart_linalg::vecops::LANES;
    if a.len() < LANES {
        return a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y);
    }
    let mut acc = [0.0f64; LANES];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        acc[i % LANES] += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lane-unrolled dot matches the canonical scalar model bit for
    /// bit at every length around the lane width (0..=2·LANES covered by
    /// the range below) and far past it.
    #[test]
    fn lane_dot_matches_canonical_model(
        len in 0usize..2100,
        scale in 0.01f64..100.0,
    ) {
        use roadpart_linalg::vecops;
        let a: Vec<f64> = (0..len).map(|i| ((i * 29 + 3) % 101) as f64 * scale - 40.0).collect();
        let b: Vec<f64> = (0..len).map(|i| ((i * 53 + 17) % 89) as f64 * 0.011 - 0.4).collect();
        let got = vecops::dot(&a, &b);
        let want = dot_model(&a, &b);
        prop_assert!(got.to_bits() == want.to_bits(), "{got} vs {want} at len {len}");
    }

    /// The lane kernels compose with the fixed-chunk pool reduction: the
    /// parallel dot equals the left fold of per-chunk canonical models at
    /// 1/2/4/8 threads, including lengths that straddle DEFAULT_CHUNK
    /// boundaries (so chunks see both full-lane and remainder tails).
    #[test]
    fn par_dot_matches_chunked_canonical_model(
        excess in 0usize..300,
        threads_idx in 0usize..4,
    ) {
        use roadpart_linalg::par::{chunk_ranges, dot, ThreadPool, DEFAULT_CHUNK};
        let threads = [1usize, 2, 4, 8][threads_idx];
        let len = DEFAULT_CHUNK + excess; // always crosses one chunk boundary
        let a: Vec<f64> = (0..len).map(|i| ((i * 31 + 7) % 113) as f64 * 0.017 - 0.9).collect();
        let b: Vec<f64> = (0..len).map(|i| ((i * 41 + 5) % 97) as f64 * 0.013 - 0.6).collect();
        let want = chunk_ranges(len, DEFAULT_CHUNK)
            .into_iter()
            .map(|r| dot_model(&a[r.start..r.end], &b[r]))
            .fold(0.0f64, |acc, p| acc + p);
        let got = dot(&ThreadPool::new(threads), &a, &b);
        prop_assert!(got.to_bits() == want.to_bits(), "{got} vs {want} at {threads} threads");
    }

    /// `map_entries_par` equals a from-scratch `from_triplets` rebuild of
    /// the mapped triplets — structure and bits — at every pool size.
    #[test]
    fn map_entries_matches_triplet_rebuild((a, _) in arb_sparse(), threads in 1usize..9) {
        use roadpart_linalg::par::ThreadPool;
        let f = |i: usize, j: usize, v: f64| (v * 0.75 + (i as f64 - j as f64) * 1e-3).max(1e-12);
        let mapped = a.map_entries_par(&ThreadPool::new(threads), f).unwrap();
        let triplets: Vec<(usize, usize, f64)> =
            a.iter().map(|(i, j, v)| (i, j, f(i, j, v))).collect();
        let rebuilt = CsrMatrix::from_triplets(a.dim(), &triplets).unwrap();
        prop_assert_eq!(mapped.nnz(), rebuilt.nnz());
        for ((ri, ci, wi), (rj, cj, wj)) in mapped.iter().zip(rebuilt.iter()) {
            prop_assert_eq!((ri, ci), (rj, cj));
            prop_assert!(wi.to_bits() == wj.to_bits());
        }
    }
}
