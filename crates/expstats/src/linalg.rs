//! Small dense linear algebra: just enough for OLS with a few dozen
//! regressors. Row-major storage, Cholesky factorization for symmetric
//! positive-definite solves.

use crate::{Result, StatsError};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row-major data. `data.len()` must equal `rows * cols`.
    pub(crate) fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::from_rows: data length != rows*cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow a row as a slice.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    pub(crate) fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(StatsError::DimensionMismatch {
                context: "matmul: inner dimensions",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(StatsError::DimensionMismatch {
                context: "matvec: vector length",
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Gram matrix `Xᵀ X` computed directly (symmetric, so only the upper
    /// triangle is computed and mirrored).
    pub(crate) fn gram(&self) -> Matrix {
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..k {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..k {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `Xᵀ y`.
    pub(crate) fn xty(&self, y: &[f64]) -> Result<Vec<f64>> {
        if self.rows != y.len() {
            return Err(StatsError::DimensionMismatch {
                context: "xty: y length != rows",
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            let row = self.row(r);
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x * yr;
            }
        }
        Ok(out)
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix. Returns the lower-triangular factor.
    pub(crate) fn cholesky(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "cholesky: not square",
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(StatsError::RankDeficient);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solve `A x = b` for symmetric positive-definite `A` (this matrix)
    /// via Cholesky forward/back substitution.
    pub(crate) fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>> {
        let l = self.cholesky()?;
        let n = self.rows;
        if b.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "solve_spd: rhs length",
            });
        }
        // Forward: L z = b.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * z[k];
            }
            z[i] = sum / l[(i, i)];
        }
        // Back: Lᵀ x = z.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Ok(x)
    }

    /// Inverse of a symmetric positive-definite matrix via Cholesky
    /// (column-by-column solves against the identity).
    pub(crate) fn inverse_spd(&self) -> Result<Matrix> {
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve_spd(&e)?;
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }

    /// Largest absolute entry-wise difference with another matrix.
    #[cfg(test)]
    pub(crate) fn max_abs_diff(&self, other: &Matrix) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, d: &[f64]) -> Matrix {
        Matrix::from_rows(rows, cols, d.to_vec()).unwrap()
    }

    #[test]
    fn matmul_known() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_dimension_check() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(2, 2, &[0.0; 4]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let x = mat(4, 2, &[1.0, 2.0, 1.0, 3.0, 1.0, 5.0, 1.0, 7.0]);
        let g = x.gram();
        let explicit = x.transpose().matmul(&x).unwrap();
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        // SPD matrix.
        let a = mat(3, 3, &[4.0, 2.0, 0.6, 2.0, 5.0, 1.5, 0.6, 1.5, 3.0]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(a.max_abs_diff(&back) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = mat(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn solve_spd_known_system() {
        let a = mat(2, 2, &[4.0, 1.0, 1.0, 3.0]);
        let x = a.solve_spd(&[1.0, 2.0]).unwrap();
        // Solution of [[4,1],[1,3]] x = [1,2] is [1/11, 7/11].
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_spd_gives_identity() {
        let a = mat(3, 3, &[4.0, 2.0, 0.6, 2.0, 5.0, 1.5, 0.6, 1.5, 3.0]);
        let inv = a.inverse_spd().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn matvec_known() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
    }
}
