//! Row-major dense matrix.

use crate::error::{LinalgError, Result};

/// A dense `rows x cols` matrix stored row-major in one contiguous allocation.
///
/// This type backs the dense symmetric eigensolver and the small spectral
/// embeddings (`n_supernodes x k` eigenvector matrices). It deliberately
/// offers only the operations the partitioning stack needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput(format!(
                "buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns its backing row-major buffer, so the
    /// allocation can be recycled (see [`crate::workspace::Workspace`]).
    #[inline]
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                context: "DenseMatrix::matvec input",
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows,
                found: y.len(),
                context: "DenseMatrix::matvec output",
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = crate::vecops::dot(self.row(i), x);
        }
        Ok(())
    }

    /// Maximum absolute asymmetry `max |A_ij - A_ji|`; `0.0` for non-square.
    pub fn asymmetry(&self) -> f64 {
        if self.rows != self.cols {
            return 0.0;
        }
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let m = DenseMatrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.matvec(&x, &mut y).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn matvec_rectangular() {
        // [1 2 3; 4 5 6] * [1,1,1] = [6, 15]
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut y = [0.0; 2];
        m.matvec(&[1.0, 1.0, 1.0], &mut y).unwrap();
        assert_eq!(y, [6.0, 15.0]);
    }

    #[test]
    fn matvec_shape_errors() {
        let m = DenseMatrix::zeros(2, 3);
        let mut y = [0.0; 2];
        assert!(m.matvec(&[1.0; 4], &mut y).is_err());
        let mut bad_y = [0.0; 3];
        assert!(m.matvec(&[1.0; 3], &mut bad_y).is_err());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn asymmetry_measures_departure_from_symmetric() {
        let sym = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert_eq!(sym.asymmetry(), 0.0);
        let asym = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 5.0, 1.0]).unwrap();
        assert_eq!(asym.asymmetry(), 3.0);
    }
}
