//! Dense linear algebra for small systems.
//!
//! The SETAR forecaster and the ADF test only ever solve systems with
//! tens of unknowns, so a simple row-major dense matrix, normal
//! equations folded one row at a time, and an LU factorization are all
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

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
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
/// This is the one fold behind [`ols`], the streaming ADF accumulator
/// and the SETAR regime fits, so every least squares fit in the
/// workspace does the same floating-point operations in the same order:
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
        Some(self.factor()?.solve(&self.rhs))
    }

    /// Solves for `beta` as [`Self::solve`] does and keeps the
    /// factorization, from which [`Lu::inverse_diagonal`] gives the
    /// entries of `(X^T X)^{-1}` that standard errors need.
    pub(crate) fn solve_keeping_factors(&self) -> Option<(Vec<f64>, Lu)> {
        let lu = self.factor()?;
        Some((lu.solve(&self.rhs), lu))
    }

    /// Factors `X^T X`, or `X^T X + 1e-6 I` when that is singular. The
    /// choice depends on `X^T X` alone, so one factorization serves
    /// every right-hand side.
    fn factor(&self) -> Option<Lu> {
        let gram = self.gram_matrix();
        Lu::new(&gram).or_else(|| {
            let mut ridged = gram;
            for i in 0..ridged.rows() {
                ridged[(i, i)] += 1e-6;
            }
            Lu::new(&ridged)
        })
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

/// The LU factorization with partial pivoting behind [`Matrix::solve`],
/// kept so that several right-hand sides share one factorization.
///
/// Each right-hand side goes through the operations an all-in-one
/// elimination would apply to it, in the same order: at step `col` the
/// swap with the pivot row, then `x[r] -= f * x[col]` for every row
/// below whose multiplier `f` is not zero; then back substitution.
pub(crate) struct Lu {
    n: usize,
    /// Row-major. On and above the diagonal, `U`. Below it, at `(r,
    /// col)`, the multiplier step `col` used for the row then at `r`:
    /// a step swaps only the columns from its own onward, so later
    /// swaps leave earlier multipliers where their step found them.
    factors: Vec<f64>,
    /// The row step `col` swapped with `col` (itself for none).
    pivots: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix; `None` when a pivot is below `1e-12`
    /// (singular to working precision).
    fn new(m: &Matrix) -> Option<Lu> {
        let n = m.rows;
        let mut a = m.data.clone();
        let mut pivots = Vec::with_capacity(n);
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
                for j in col..n {
                    a.swap(col * n + j, pivot * n + j);
                }
            }
            pivots.push(pivot);
            let d = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / d;
                a[r * n + col] = f;
                if f == 0.0 {
                    continue;
                }
                for j in col + 1..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
            }
        }
        Some(Lu {
            n,
            factors: a,
            pivots,
        })
    }

    /// Solves for one right-hand side of the matrix's size.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let a = &self.factors;
        let mut x = b.to_vec();
        for (col, &pivot) in self.pivots.iter().enumerate() {
            x.swap(col, pivot);
            for r in col + 1..n {
                let f = a[r * n + col];
                if f == 0.0 {
                    continue;
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
        x
    }

    /// Entry `(j, j)` of the inverse: component `j` of the solution
    /// against the unit vector `e_j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not below the matrix size.
    pub(crate) fn inverse_diagonal(&self, j: usize) -> f64 {
        let mut e = vec![0.0; self.n];
        e[j] = 1.0;
        self.solve(&e)[j]
    }
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

/// Result of an OLS fit with residual diagnostics: what the
/// design-matrix ADF reference reads its t-statistic from.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct OlsFit {
    /// Estimated coefficients.
    pub beta: Vec<f64>,
    /// Standard error of each coefficient.
    pub std_errors: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Degrees of freedom (`n - p`).
    pub dof: usize,
}

/// Performs OLS and computes coefficient standard errors. Test builds
/// keep it as the fit of the design-matrix ADF, the reference that
/// [`crate::adf::AdfAccumulator`] reproduces bit for bit.
///
/// Returns `None` if the design is singular or there are no spare degrees
/// of freedom.
#[cfg(test)]
pub(crate) fn ols_with_errors(x: &Matrix, y: &[f64]) -> Option<OlsFit> {
    let n = x.rows();
    let p = x.cols();
    if n <= p {
        return None;
    }
    let (beta, lu) = normal_equations(x, y).solve_keeping_factors()?;
    let fitted = x.matvec(&beta);
    let rss: f64 = y
        .iter()
        .zip(&fitted)
        .map(|(yi, fi)| (yi - fi) * (yi - fi))
        .sum();
    let dof = n - p;
    let sigma2 = rss / dof as f64;
    // Standard errors are sqrt of diagonal of sigma^2 (X^T X)^{-1}.
    let std_errors = (0..p)
        .map(|j| {
            let var = sigma2 * lu.inverse_diagonal(j);
            if var > 0.0 {
                var.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    Some(OlsFit {
        beta,
        std_errors,
        rss,
        dof,
    })
}

/// The products only the test references use.
#[cfg(test)]
impl Matrix {
    /// Returns the transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Computes the matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Vec<f64> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves `m x = b` through one LU factorization.
    fn lu_solve(m: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        Some(Lu::new(m)?.solve(b))
    }

    #[test]
    fn known_system() {
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = lu_solve(&m, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(lu_solve(&m, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = lu_solve(&m, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn normal_equations_match_explicit_products() {
        let a = Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 2.0, 0.5, 3.0, -1.0, 2.0, 0.0, 4.0, 1.0, 2.0, 2.0, 2.0,
            ],
        );
        let y = [1.0, -2.0, 0.5, 3.0];
        let system = normal_equations(&a, &y);
        let gram = system.gram_matrix();
        for i in 0..3 {
            for j in 0..3 {
                let explicit: f64 =
                    (0..a.rows()).map(|r| a[(r, i)] * a[(r, j)]).sum();
                assert!((gram[(i, j)] - explicit).abs() < 1e-12);
            }
        }
        assert_eq!(system.rhs, a.transpose().matvec(&y));
    }

    #[test]
    fn normal_equations_rhs_starts_like_iterator_sum() {
        // X^T y of an all -0.0 column is -0.0, as `matvec`'s sum gives.
        let a = Matrix::from_vec(2, 2, vec![1.0, -0.0, 2.0, -0.0]);
        let y = [1.0, 1.0];
        let rhs = normal_equations(&a, &y).rhs;
        let batch = a.transpose().matvec(&y);
        for (r, b) in rhs.iter().zip(&batch) {
            assert_eq!(r.to_bits(), b.to_bits());
        }
        assert!(rhs[1].is_sign_negative());
    }

    /// The all-in-one elimination that `Lu` split into a factorization
    /// and a substitution, kept verbatim as their bit-identity
    /// reference: it eliminates the matrix and the right-hand side
    /// together, one solve per right-hand side.
    fn reference_solve(m: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let n = m.rows;
        let mut a = m.data.clone();
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

    /// The ridge fallback as it ran once per right-hand side.
    fn reference_solve_ridged(gram: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        reference_solve(gram, b).or_else(|| {
            let mut ridged = gram.clone();
            for i in 0..ridged.rows() {
                ridged[(i, i)] += 1e-6;
            }
            reference_solve(&ridged, b)
        })
    }

    fn assert_same_bits(
        got: &Option<Vec<f64>>,
        want: &Option<Vec<f64>>,
        what: &str,
    ) {
        match (got, want) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.len(), w.len(), "{what}");
                for (i, (a, b)) in g.iter().zip(w).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{what}: x[{i}] {a} vs {b}"
                    );
                }
            }
            _ => panic!("{what}: presence mismatch, {got:?} vs {want:?}"),
        }
    }

    fn random_matrix(rng: &mut crate::rng::Rng, n: usize) -> Matrix {
        Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal()).collect())
    }

    #[test]
    fn solve_matches_the_single_pass_elimination_bit_for_bit() {
        let mut rng = crate::rng::Rng::seed_from_u64(17);
        let mut systems: Vec<(String, Matrix)> = Vec::new();
        for n in [1usize, 2, 3, 5, 8, 19] {
            for trial in 0..4 {
                systems.push((
                    format!("random-{n}-{trial}"),
                    random_matrix(&mut rng, n),
                ));
            }
        }
        // Sparse rows make zero multipliers, whose updates are skipped.
        let mut sparse = random_matrix(&mut rng, 12);
        for i in 0..12 {
            for j in 0..12 {
                if (i * 7 + j * 3) % 4 == 0 && i != j {
                    sparse[(i, j)] = 0.0;
                }
            }
        }
        systems.push(("sparse".into(), sparse));
        // Every multiplier is zero: no row update, even against an ∞.
        let mut upper = random_matrix(&mut rng, 5);
        for i in 0..5 {
            for j in 0..i {
                upper[(i, j)] = 0.0;
            }
        }
        systems.push(("upper-triangular".into(), upper));
        let mut leading_zero = random_matrix(&mut rng, 6);
        leading_zero[(0, 0)] = 0.0;
        leading_zero[(1, 1)] = 0.0;
        systems.push(("zero-leading-pivot".into(), leading_zero));
        let mut singular = random_matrix(&mut rng, 5);
        for j in 0..5 {
            singular[(4, j)] = singular[(1, j)] * 2.0;
        }
        systems.push(("singular".into(), singular));
        systems.push(("zero".into(), Matrix::zeros(4, 4)));
        systems.push((
            "rank-one".into(),
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]),
        ));
        let mut nan = random_matrix(&mut rng, 4);
        nan[(2, 3)] = f64::NAN;
        systems.push(("with-nan".into(), nan));
        for (name, m) in &systems {
            let n = m.rows();
            for trial in 0..4 {
                let mut b: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
                if trial == 3 {
                    // A zero multiplier must skip `0 * ∞`.
                    b[0] = f64::INFINITY;
                }
                assert_same_bits(
                    &lu_solve(m, &b),
                    &reference_solve(m, &b),
                    &format!("{name} rhs {trial}"),
                );
            }
        }
    }

    #[test]
    fn one_factorization_matches_a_solve_per_right_hand_side() {
        let mut rng = crate::rng::Rng::seed_from_u64(23);
        // A full-rank design; a constant column twice and an all-zero
        // design, whose plain systems are singular, so the ridge is used;
        // and twin columns so large that the ridge is lost in rounding,
        // so the ridged system is singular too.
        let full: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..5).map(|_| rng.normal()).collect())
            .collect();
        let twin: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![1.0, 1.0, i as f64, rng.normal()])
            .collect();
        let zero: Vec<Vec<f64>> = (0..60).map(|_| vec![0.0; 3]).collect();
        let huge: Vec<Vec<f64>> =
            (0..60).map(|_| vec![1e20, 1e20, 1.0]).collect();
        let designs =
            [("full", full), ("twin", twin), ("zero", zero), ("huge", huge)];
        for (name, rows) in designs {
            let cols = rows[0].len();
            let mut system = NormalEquations::new(cols);
            for row in &rows {
                system.push_row(row, rng.normal());
            }
            let gram = system.gram_matrix();
            assert_eq!(
                reference_solve(&gram, &system.rhs).is_none(),
                name != "full",
                "{name}: plain system"
            );
            let want_beta = reference_solve_ridged(&gram, &system.rhs);
            assert_eq!(want_beta.is_none(), name == "huge", "{name}: ridged");
            assert_same_bits(&system.solve(), &want_beta, name);
            let fit = system.solve_keeping_factors();
            assert_same_bits(
                &fit.as_ref().map(|(beta, _)| beta.clone()),
                &want_beta,
                name,
            );
            let Some((_, lu)) = fit else {
                continue;
            };
            for j in 0..cols {
                let mut e = vec![0.0; cols];
                e[j] = 1.0;
                let want =
                    reference_solve_ridged(&gram, &e).expect("factored")[j];
                assert_eq!(
                    lu.inverse_diagonal(j).to_bits(),
                    want.to_bits(),
                    "{name}: inverse diagonal {j}"
                );
            }
        }
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
}
