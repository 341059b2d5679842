//! Matrix-free linear operators.
//!
//! The α-Cut matrix `M = d dᵀ / (1ᵀD1) − A` is dense (the rank-one term
//! touches every entry) but has sparse-plus-rank-one structure, so large
//! instances are eigensolved through this trait rather than materialized.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};
use crate::par::{self, ThreadPool};
use crate::vecops;
use crate::workspace::Workspace;

/// A symmetric linear operator `y = Op(x)` known only through its action.
pub trait SymOp {
    /// Operator dimension `n` (it maps `R^n -> R^n`).
    fn dim(&self) -> usize;

    /// Computes `y = Op(x)`. Implementations may assume
    /// `x.len() == y.len() == self.dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Checked wrapper around [`SymOp::apply`].
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    fn apply_checked(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim(),
                found: x.len(),
                context: "SymOp::apply input",
            });
        }
        if y.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim(),
                found: y.len(),
                context: "SymOp::apply output",
            });
        }
        self.apply(x, y);
        Ok(())
    }

    /// Computes `y = Op(x)` with work distributed over `pool`.
    ///
    /// The default implementation runs [`SymOp::apply`] serially; operator
    /// types with parallelizable structure override it. Every override must
    /// follow the determinism rule of [`crate::par`]: fixed chunk
    /// boundaries and ordered reductions, so the result is bit-identical
    /// at every pool size.
    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let _ = pool;
        self.apply(x, y);
    }

    /// [`SymOp::apply_par`] drawing any internal scratch buffers from `ws`
    /// instead of allocating.
    ///
    /// The default delegates to [`SymOp::apply_par`] (correct for operators
    /// with no internal scratch, like CSR and dense matrices). Operators
    /// that do allocate per apply — [`DiagScaledOp`]'s diagonal-scaled input
    /// — override this so the Lanczos hot loop runs allocation-free. The
    /// result must be bit-identical to [`SymOp::apply_par`]: a recycled
    /// buffer holds exactly the values a fresh one would.
    fn apply_par_ws(&self, pool: &ThreadPool, ws: &mut Workspace, x: &[f64], y: &mut [f64]) {
        let _ = ws;
        self.apply_par(pool, x, y);
    }
}

impl SymOp for CsrMatrix {
    fn dim(&self) -> usize {
        self.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Row-wise kernel needs no shape check, so no fallible call here.
        self.rows_into(0, x, y);
    }

    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), SymOp::dim(self));
        pool.for_each_chunk_mut(y, par::DEFAULT_CHUNK, |r, yc| {
            self.rows_into(r.start, x, yc);
        });
    }
}

impl SymOp for DenseMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // Row-wise dots are infallible for any `x`/`y` of the trait's
        // contract length; no fallible matvec call needed.
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = vecops::dot(self.row(i), x);
        }
    }

    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols());
        pool.for_each_chunk_mut(y, par::DEFAULT_CHUNK, |r, yc| {
            for (yi, i) in yc.iter_mut().zip(r) {
                *yi = vecops::dot(self.row(i), x);
            }
        });
    }
}

/// `Op(x) = scale * u (uᵀ x) + base(x) * base_sign`.
///
/// With `u = d` (the degree vector), `scale = 1 / sum(d)` and
/// `base_sign = -1.0` this is exactly the α-Cut matrix
/// `M = d dᵀ / (1ᵀ D 1) − A` of Eq. 6 without ever materializing the dense
/// rank-one term.
pub struct RankOneUpdate<'a, B: SymOp> {
    base: &'a B,
    u: Vec<f64>,
    scale: f64,
    base_sign: f64,
}

impl<'a, B: SymOp> RankOneUpdate<'a, B> {
    /// Creates the operator `scale * u uᵀ + base_sign * base`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `u.len() != base.dim()`,
    /// and [`LinalgError::InvalidInput`] on non-finite inputs.
    pub fn new(base: &'a B, u: Vec<f64>, scale: f64, base_sign: f64) -> Result<Self> {
        if u.len() != base.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: base.dim(),
                found: u.len(),
                context: "RankOneUpdate vector",
            });
        }
        if vecops::has_non_finite(&u) || !scale.is_finite() || !base_sign.is_finite() {
            return Err(LinalgError::InvalidInput(
                "RankOneUpdate requires finite inputs".into(),
            ));
        }
        Ok(Self {
            base,
            u,
            scale,
            base_sign,
        })
    }
}

impl<B: SymOp + Sync> SymOp for RankOneUpdate<'_, B> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.base.apply(x, y);
        if self.base_sign != 1.0 {
            vecops::scale(self.base_sign, y);
        }
        let coeff = self.scale * vecops::dot(&self.u, x);
        vecops::axpy(coeff, &self.u, y);
    }

    // The α-Cut apply: base matvec, rank-one correction via a chunked dot
    // with ordered partial sums — bit-identical at every pool size.
    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        self.base.apply_par(pool, x, y);
        if self.base_sign != 1.0 {
            par::scale(pool, self.base_sign, y);
        }
        let coeff = self.scale * par::dot(pool, &self.u, x);
        par::axpy(pool, coeff, &self.u, y);
    }

    // Scratch-free itself, but the base may pool (e.g. a diag-scaled base).
    fn apply_par_ws(&self, pool: &ThreadPool, ws: &mut Workspace, x: &[f64], y: &mut [f64]) {
        self.base.apply_par_ws(pool, ws, x, y);
        if self.base_sign != 1.0 {
            par::scale(pool, self.base_sign, y);
        }
        let coeff = self.scale * par::dot(pool, &self.u, x);
        par::axpy(pool, coeff, &self.u, y);
    }
}

/// Operator scaled on both sides by a diagonal: `Op(x) = S · base(S · x) · sign + shift·x`,
/// where `S = diag(s)`.
///
/// With `s = d^{-1/2}`, `sign = -1` and `shift = 1` this is the normalized
/// Laplacian `L_sym = I − D^{-1/2} A D^{-1/2}` used by the normalized-cut
/// baseline.
pub struct DiagScaledOp<'a, B: SymOp> {
    base: &'a B,
    s: Vec<f64>,
    sign: f64,
    shift: f64,
}

impl<'a, B: SymOp> DiagScaledOp<'a, B> {
    /// Creates `sign * S base S + shift * I` with `S = diag(s)`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `s.len() != base.dim()`.
    pub fn new(base: &'a B, s: Vec<f64>, sign: f64, shift: f64) -> Result<Self> {
        if s.len() != base.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: base.dim(),
                found: s.len(),
                context: "DiagScaledOp diagonal",
            });
        }
        Ok(Self {
            base,
            s,
            sign,
            shift,
        })
    }
}

impl<B: SymOp + Sync> SymOp for DiagScaledOp<'_, B> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        let mut sx = vec![0.0; n];
        vecops::mul_into(&self.s, x, &mut sx);
        self.base.apply(&sx, y);
        vecops::diag_combine(self.sign, &self.s, self.shift, x, y);
    }

    fn apply_par(&self, pool: &ThreadPool, x: &[f64], y: &mut [f64]) {
        let mut ws = Workspace::new();
        self.apply_par_ws(pool, &mut ws, x, y);
    }

    // The one per-apply allocation in the normalized-Laplacian hot path:
    // the diagonal-scaled input. Pooled here so Lanczos iterates without
    // touching the allocator.
    fn apply_par_ws(&self, pool: &ThreadPool, ws: &mut Workspace, x: &[f64], y: &mut [f64]) {
        let n = self.dim();
        let mut sx = ws.take_zeroed(n);
        pool.for_each_chunk_mut(&mut sx, par::DEFAULT_CHUNK, |r, out| {
            let (lo, hi) = (r.start, r.end);
            vecops::mul_into(&self.s[lo..hi], &x[lo..hi], out);
        });
        self.base.apply_par_ws(pool, ws, &sx, y);
        pool.for_each_chunk_mut(y, par::DEFAULT_CHUNK, |r, yc| {
            let (lo, hi) = (r.start, r.end);
            vecops::diag_combine(self.sign, &self.s[lo..hi], self.shift, &x[lo..hi], yc);
        });
        ws.put(sx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrMatrix {
        CsrMatrix::from_undirected_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap()
    }

    #[test]
    fn csr_as_op() {
        let a = path3();
        let mut y = [0.0; 3];
        a.apply_checked(&[1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, [1.0, 2.0, 1.0]);
    }

    #[test]
    fn rank_one_matches_explicit_alpha_cut_matrix() {
        let a = path3();
        let d = a.degrees();
        let s: f64 = d.iter().sum();
        let op = RankOneUpdate::new(&a, d.clone(), 1.0 / s, -1.0).unwrap();
        // Explicit M = d d^T / s - A
        let dense_a = a.to_dense();
        let m = DenseMatrix::from_fn(3, 3, |i, j| d[i] * d[j] / s - dense_a.get(i, j));
        for x in [[1.0, 0.0, 0.0], [0.3, -1.2, 2.0]] {
            let mut y1 = [0.0; 3];
            let mut y2 = [0.0; 3];
            op.apply_checked(&x, &mut y1).unwrap();
            m.matvec(&x, &mut y2).unwrap();
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn diag_scaled_matches_normalized_laplacian() {
        let a = path3();
        let d = a.degrees();
        let s: Vec<f64> = d.iter().map(|&x| 1.0 / x.sqrt()).collect();
        let op = DiagScaledOp::new(&a, s.clone(), -1.0, 1.0).unwrap();
        let dense_a = a.to_dense();
        let lsym = DenseMatrix::from_fn(3, 3, |i, j| {
            let delta = if i == j { 1.0 } else { 0.0 };
            delta - s[i] * dense_a.get(i, j) * s[j]
        });
        let x = [0.5, -0.25, 1.0];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        op.apply_checked(&x, &mut y1).unwrap();
        lsym.matvec(&x, &mut y2).unwrap();
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dimension_checks() {
        let a = path3();
        assert!(RankOneUpdate::new(&a, vec![1.0; 2], 1.0, 1.0).is_err());
        assert!(DiagScaledOp::new(&a, vec![1.0; 4], 1.0, 0.0).is_err());
        let op = RankOneUpdate::new(&a, vec![1.0; 3], 1.0, 1.0).unwrap();
        let mut y = [0.0; 2];
        assert!(op.apply_checked(&[1.0; 3], &mut y).is_err());
    }
}
