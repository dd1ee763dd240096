//! Dense linear algebra for small systems.
//!
//! The forecasters (AR, SETAR, Holt initialization) and statistical tests
//! (ADF regressions) only ever solve systems with tens of unknowns, so a
//! simple row-major dense matrix with LU and Cholesky factorizations is all
//! the workspace needs. Everything is allocation-explicit and panics on
//! dimension mismatches, which are programming errors rather than data
//! errors; genuinely data-dependent failures (singular systems) return
//! `None`.

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns a view of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Computes the matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Computes the matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal cols");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect()
    }

    /// Solves `self * x = b` via LU decomposition with partial pivoting.
    ///
    /// Returns `None` if the matrix is singular (to working precision).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            let d = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in col + 1..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Some(x)
    }

    /// Computes the Cholesky factor `L` (lower triangular, `self = L L^T`).
    ///
    /// Returns `None` if the matrix is not positive definite.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky requires square matrix");
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
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// The normal equations `X^T X beta = X^T y`, accumulated one design row
/// at a time.
///
/// This is the one fold behind [`ols`], [`ols_with_errors`], the
/// streaming ADF accumulator and the SETAR regime fits, so every least
/// squares fit in the workspace does the same floating-point operations
/// in the same order:
///
/// - `X^T X` starts at `0.0`; each row adds `a * row[j]` to the upper
///   triangle (`j >= i`) for every entry `a = row[i]` that is not zero
///   (the skip keeps a `0 × ∞` out of the sums), and the lower triangle
///   is mirrored when solving;
/// - `X^T y` folds `row[i] * y` per column in row order starting from
///   `-0.0`, the start value of `Iterator::sum`, so it equals
///   `transpose().matvec(y)` bit for bit.
#[derive(Debug, Clone)]
pub struct NormalEquations {
    cols: usize,
    /// `cols × cols`, row-major; only the upper triangle is written.
    gram: Vec<f64>,
    rhs: Vec<f64>,
}

impl NormalEquations {
    /// Creates an empty system for `cols` regressors.
    pub fn new(cols: usize) -> Self {
        NormalEquations {
            cols,
            gram: vec![0.0; cols * cols],
            rhs: vec![-0.0; cols],
        }
    }

    /// Folds one design row and its target into `X^T X` and `X^T y`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the column count.
    pub fn push_row(&mut self, row: &[f64], y: f64) {
        assert_eq!(row.len(), self.cols, "design row length mismatch");
        for (i, &a) in row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let upper = &mut self.gram[i * self.cols + i..(i + 1) * self.cols];
            for (g, &b) in upper.iter_mut().zip(&row[i..]) {
                *g += a * b;
            }
        }
        for (r, &a) in self.rhs.iter_mut().zip(row) {
            *r += a * y;
        }
    }

    /// Solves for `beta`, retrying with a small ridge term on
    /// (numerical) rank deficiency, which arises routinely for constant
    /// traffic blocks. Returns `None` only if the ridged system is still
    /// singular.
    pub fn solve(&self) -> Option<Vec<f64>> {
        solve_ridged(&self.gram_matrix(), &self.rhs)
    }

    /// Solves `X^T X v = e_j` (column `j` of the inverse, as standard
    /// errors need) with the same ridge fallback as [`Self::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is not below the column count.
    pub fn solve_unit(&self, j: usize) -> Option<Vec<f64>> {
        let mut e = vec![0.0; self.cols];
        e[j] = 1.0;
        solve_ridged(&self.gram_matrix(), &e)
    }

    /// `X^T X` with the lower triangle mirrored from the upper.
    fn gram_matrix(&self) -> Matrix {
        let n = self.cols;
        let mut g = self.gram.clone();
        for i in 0..n {
            for j in 0..i {
                g[i * n + j] = g[j * n + i];
            }
        }
        Matrix::from_vec(n, n, g)
    }
}

/// Solves `gram * x = b`, retrying with `1e-6` added to the diagonal when
/// the plain system is singular.
fn solve_ridged(gram: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    gram.solve(b).or_else(|| {
        let mut ridged = gram.clone();
        for i in 0..ridged.rows() {
            ridged[(i, i)] += 1e-6;
        }
        ridged.solve(b)
    })
}

/// Folds every row of `x` with its target into the normal equations.
fn normal_equations(x: &Matrix, y: &[f64]) -> NormalEquations {
    assert_eq!(x.rows(), y.len(), "design matrix / target size mismatch");
    let mut system = NormalEquations::new(x.cols());
    for (r, &target) in y.iter().enumerate() {
        system.push_row(x.row(r), target);
    }
    system
}

/// Ordinary least squares: finds `beta` minimizing `||X beta - y||^2`.
///
/// Solves the [`NormalEquations`] with a small ridge term added on
/// (numerical) rank deficiency, which arises routinely for constant
/// traffic blocks. Returns `None` only if the system stays unsolvable
/// even with the ridge.
///
/// # Panics
///
/// Panics if `x.rows() != y.len()`.
pub fn ols(x: &Matrix, y: &[f64]) -> Option<Vec<f64>> {
    normal_equations(x, y).solve()
}

/// Result of an OLS fit with residual diagnostics, as needed by the ADF
/// test's t-statistic.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Estimated coefficients.
    pub beta: Vec<f64>,
    /// Standard error of each coefficient.
    pub std_errors: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Degrees of freedom (`n - p`).
    pub dof: usize,
}

/// Performs OLS and computes coefficient standard errors.
///
/// Returns `None` if the design is singular or there are no spare degrees
/// of freedom.
pub fn ols_with_errors(x: &Matrix, y: &[f64]) -> Option<OlsFit> {
    let n = x.rows();
    let p = x.cols();
    if n <= p {
        return None;
    }
    let system = normal_equations(x, y);
    let beta = system.solve()?;
    let fitted = x.matvec(&beta);
    let rss: f64 = y
        .iter()
        .zip(&fitted)
        .map(|(yi, fi)| (yi - fi) * (yi - fi))
        .sum();
    let dof = n - p;
    let sigma2 = rss / dof as f64;
    // Standard errors are sqrt of diagonal of sigma^2 (X^T X)^{-1}; obtain
    // each diagonal element by solving against unit vectors.
    let mut std_errors = Vec::with_capacity(p);
    for j in 0..p {
        let var = sigma2 * system.solve_unit(j)?[j];
        std_errors.push(if var > 0.0 { var.sqrt() } else { 0.0 });
    }
    Some(OlsFit {
        beta,
        std_errors,
        rss,
        dof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let m = Matrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn known_system() {
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        let at = a.transpose();
        assert_eq!(at, Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
    }

    #[test]
    fn normal_equations_match_explicit_products() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[3.0, -1.0, 2.0],
            &[0.0, 4.0, 1.0],
            &[2.0, 2.0, 2.0],
        ]);
        let y = [1.0, -2.0, 0.5, 3.0];
        let system = normal_equations(&a, &y);
        let gram = system.gram_matrix();
        let explicit = a.transpose().matmul(&a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((gram[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
        assert_eq!(system.rhs, a.transpose().matvec(&y));
    }

    #[test]
    fn normal_equations_rhs_starts_like_iterator_sum() {
        // X^T y of an all -0.0 column is -0.0, as `matvec`'s sum gives.
        let a = Matrix::from_rows(&[&[1.0, -0.0], &[2.0, -0.0]]);
        let y = [1.0, 1.0];
        let rhs = normal_equations(&a, &y).rhs;
        let batch = a.transpose().matvec(&y);
        for (r, b) in rhs.iter().zip(&batch) {
            assert_eq!(r.to_bits(), b.to_bits());
        }
        assert!(rhs[1].is_sign_negative());
    }

    #[test]
    fn solve_unit_is_an_inverse_column() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let system = normal_equations(&a, &[0.0; 3]);
        let gram = system.gram_matrix();
        for j in 0..2 {
            let col = system.solve_unit(j).expect("non-singular");
            let back = gram.matvec(&col);
            for (i, v) in back.iter().enumerate() {
                let unit = if i == j { 1.0 } else { 0.0 };
                assert!((v - unit).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_of_spd() {
        let m = Matrix::from_rows(&[
            &[4.0, 2.0, 0.0],
            &[2.0, 5.0, 1.0],
            &[0.0, 1.0, 3.0],
        ]);
        let l = m.cholesky().unwrap();
        let back = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - m[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn ols_recovers_exact_line() {
        // y = 3 + 2x.
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut design = Matrix::zeros(20, 2);
        let mut y = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = x;
            y.push(3.0 + 2.0 * x);
        }
        let beta = ols(&design, &y).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-9);
        assert!((beta[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ols_ridge_fallback_on_constant_column() {
        // Two identical columns: singular normal equations.
        let mut design = Matrix::zeros(10, 2);
        let mut y = Vec::new();
        for i in 0..10 {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = 1.0;
            y.push(4.0);
        }
        let beta = ols(&design, &y).unwrap();
        // The ridge splits the weight; predictions must still be right.
        assert!((beta[0] + beta[1] - 4.0).abs() < 1e-3);
    }

    #[test]
    fn ols_with_errors_known_t_stat() {
        // A noiseless fit has (near) zero standard errors.
        let mut design = Matrix::zeros(30, 2);
        let mut y = Vec::new();
        for i in 0..30 {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = i as f64;
            y.push(1.0 - 0.5 * i as f64);
        }
        let fit = ols_with_errors(&design, &y).unwrap();
        assert!((fit.beta[1] + 0.5).abs() < 1e-9);
        assert!(fit.std_errors[1] < 1e-6);
        assert!(fit.rss < 1e-12);
        assert_eq!(fit.dof, 28);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
