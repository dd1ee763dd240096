//! Augmented Dickey-Fuller stationarity test.
//!
//! FeMux uses the ADF test as its *stationarity* block feature (§4.3.2 of
//! the paper): stationary blocks suit the AR forecaster, while
//! non-stationary blocks are better served by SETAR or trend-following
//! smoothers. We implement the constant-only (no deterministic trend)
//! variant:
//!
//! `dy_t = alpha + gamma * y_{t-1} + sum_i beta_i * dy_{t-i} + eps_t`
//!
//! The test statistic is the t-ratio of `gamma`; large negative values
//! reject the unit-root null, i.e. indicate stationarity.

use crate::matrix::NormalEquations;

/// Result of an Augmented Dickey-Fuller test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdfResult {
    /// The t-ratio of the lagged-level coefficient (the DF statistic).
    pub statistic: f64,
    /// Number of augmenting lag differences used.
    pub lags: usize,
    /// Effective number of observations in the regression.
    pub n_obs: usize,
}

/// The Schwert lag rule [`AdfAccumulator::auto`] uses for a series of
/// length `n`: `floor(12 * (n / 100)^{1/4})`, capped at `n / 8` and
/// floored at 1.
pub fn schwert_lags(n: usize) -> usize {
    let schwert = (12.0 * (n as f64 / 100.0).powf(0.25)).floor() as usize;
    schwert.min(n / 8).max(1)
}

/// The ADF test as a streaming accumulator: it ingests one sample at a
/// time and runs the regression once the window is complete.
///
/// The regression row for difference index `t` (`[1, y_t, dy_{t-1}, …,
/// dy_{t-lags}]`, target `dy_t`) becomes available exactly when sample
/// `t + 1` arrives, so rows are folded into [`NormalEquations`] in
/// arrival order, and [`AdfAccumulator::finalize`] leaves only an
/// O(rows × cols) residual pass plus the (cols³) solve. Block feature
/// extraction, offline and online, computes the stationarity feature
/// this way, so no O(block × lags²) design matrix is built at a block
/// boundary.
///
/// The unit tests keep the design-matrix formulation (build `X`, fold
/// its rows in order, factor, solve, take residuals and the standard
/// error of `gamma`) as a reference, and the accumulator reproduces it
/// bit for bit: every floating-point operation happens on the same
/// operands in the same order.
#[derive(Debug, Clone)]
pub struct AdfAccumulator {
    lags: usize,
    cols: usize,
    n_seen: usize,
    prev: f64,
    diffs: Vec<f64>,
    system: NormalEquations,
    row: Vec<f64>,
}

impl AdfAccumulator {
    /// Creates an accumulator for a fixed augmenting-lag count.
    pub fn new(lags: usize) -> Self {
        let cols = 2 + lags;
        AdfAccumulator {
            lags,
            cols,
            n_seen: 0,
            prev: 0.0,
            diffs: Vec::new(),
            system: NormalEquations::new(cols),
            row: vec![0.0; cols],
        }
    }

    /// Creates an accumulator with [`schwert_lags`] for a window of
    /// length `n`; `None` when the window is too short for the test
    /// (`n < 16`), which block features read as strongly stationary.
    pub fn auto(n: usize) -> Option<Self> {
        if n < 16 {
            return None;
        }
        Some(AdfAccumulator::new(schwert_lags(n)))
    }

    /// The augmenting-lag count this accumulator was built for.
    pub fn lags(&self) -> usize {
        self.lags
    }

    /// Number of samples ingested since the last reset.
    pub fn len(&self) -> usize {
        self.n_seen
    }

    /// True when no samples have been ingested since the last reset.
    pub fn is_empty(&self) -> bool {
        self.n_seen == 0
    }

    /// Clears all accumulated state for the next window.
    pub fn reset(&mut self) {
        self.n_seen = 0;
        self.prev = 0.0;
        self.diffs.clear();
        self.system = NormalEquations::new(self.cols);
    }

    /// Ingests the next sample, folding the regression row it completes
    /// (if any) into the normal equations.
    pub fn push(&mut self, x: f64) {
        if self.n_seen >= 1 {
            // Same subtraction as the reference's `windows(2)` pass.
            let t = self.diffs.len();
            let d = x - self.prev;
            self.diffs.push(d);
            if t >= self.lags {
                self.row[0] = 1.0;
                // xs[t] is the previous sample: diff t arrived with
                // sample t + 1.
                self.row[1] = self.prev;
                for i in 0..self.lags {
                    self.row[2 + i] = self.diffs[t - 1 - i];
                }
                self.system.push_row(&self.row, d);
            }
        }
        self.prev = x;
        self.n_seen += 1;
    }

    /// Completes the test over the accumulated window. `xs` must be the
    /// exact sample sequence pushed since the last reset (the feature
    /// extractor keeps it in its block buffer anyway); it is only read
    /// for the single O(rows × cols) residual pass.
    ///
    /// Returns `None` when the window is too short for the lag count or
    /// leaves no spare degrees of freedom, or when the ridged normal
    /// equations are still singular.
    pub fn finalize(&self, xs: &[f64]) -> Option<AdfResult> {
        debug_assert_eq!(
            xs.len(),
            self.n_seen,
            "finalize window must match the pushed samples"
        );
        let n = self.n_seen;
        if n < self.lags + 10 {
            return None;
        }
        let rows = self.diffs.len() - self.lags;
        let cols = self.cols;
        if rows <= cols {
            return None;
        }
        let (beta, lu) = self.system.solve_keeping_factors()?;
        // One residual pass regenerating each design row; the per-row
        // dot product is a zip/map/sum and the RSS folds in row order,
        // as the reference's `matvec` and residual sum do.
        let mut row = vec![0.0; cols];
        let mut rss = 0.0f64;
        for r in 0..rows {
            let t = self.lags + r;
            row[0] = 1.0;
            row[1] = xs[t];
            for i in 0..self.lags {
                row[2 + i] = self.diffs[t - 1 - i];
            }
            let fitted: f64 =
                row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            let yi = self.diffs[t];
            rss += (yi - fitted) * (yi - fitted);
        }
        let dof = rows - cols;
        let sigma2 = rss / dof as f64;
        // The standard error of coefficient 1, the only one the test
        // reads; the reference computes the others from the same
        // factorization, which cannot fail once `beta` is solved.
        let var = sigma2 * lu.inverse_diagonal(1);
        let se1 = if var > 0.0 { var.sqrt() } else { 0.0 };
        if se1 <= 1e-12 {
            // Perfect fit: differences fully explained; treat as strongly
            // stationary by convention with a large negative statistic.
            return Some(AdfResult {
                statistic: -100.0,
                lags: self.lags,
                n_obs: rows,
            });
        }
        Some(AdfResult {
            statistic: beta[1] / se1,
            lags: self.lags,
            n_obs: rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ols_with_errors, Matrix};
    use crate::rng::Rng;

    /// MacKinnon's asymptotic critical values for the constant-only
    /// regression, at 1 %, 5 % and 10 %.
    const CRITICAL_1: f64 = -3.43;
    const CRITICAL_5: f64 = -2.86;
    const CRITICAL_10: f64 = -2.57;

    /// The design-matrix ADF that [`AdfAccumulator`] replaced, kept as
    /// its bit-identity reference: it builds the whole regression and
    /// fits it with `ols_with_errors`.
    fn adf_test(xs: &[f64], lags: usize) -> Option<AdfResult> {
        let n = xs.len();
        // Need y_{t-1}, `lags` lagged differences, and spare dof.
        if n < lags + 10 {
            return None;
        }
        let diffs: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        // Regression sample: t runs over diffs indices [lags, diffs.len()).
        let rows = diffs.len() - lags;
        let cols = 2 + lags; // constant, y_{t-1}, lagged diffs
        if rows <= cols {
            return None;
        }
        let mut design = Matrix::zeros(rows, cols);
        let mut target = Vec::with_capacity(rows);
        for (r, t) in (lags..diffs.len()).enumerate() {
            design[(r, 0)] = 1.0;
            design[(r, 1)] = xs[t]; // y_{t-1} relative to dy_t = y_{t+1}-y_t
            for i in 0..lags {
                design[(r, 2 + i)] = diffs[t - 1 - i];
            }
            target.push(diffs[t]);
        }
        let fit = ols_with_errors(&design, &target)?;
        let se = fit.std_errors[1];
        if se <= 1e-12 {
            // Perfect fit: differences fully explained; treat as strongly
            // stationary by convention with a large negative statistic.
            return Some(AdfResult {
                statistic: -100.0,
                lags,
                n_obs: rows,
            });
        }
        Some(AdfResult {
            statistic: fit.beta[1] / se,
            lags,
            n_obs: rows,
        })
    }

    /// The library's ADF over a whole series.
    fn adf(xs: &[f64], lags: usize) -> Option<AdfResult> {
        let mut acc = AdfAccumulator::new(lags);
        for &x in xs {
            acc.push(x);
        }
        acc.finalize(xs)
    }

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.normal()).collect()
    }

    fn random_walk(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut acc = 0.0;
        (0..n)
            .map(|_| {
                acc += rng.normal();
                acc
            })
            .collect()
    }

    #[test]
    fn white_noise_is_stationary() {
        let xs = white_noise(500, 1);
        let res = adf(&xs, 2).unwrap();
        assert!(res.statistic < CRITICAL_1, "statistic {}", res.statistic);
    }

    #[test]
    fn random_walk_is_not_stationary() {
        let xs = random_walk(500, 2);
        let res = adf(&xs, 2).unwrap();
        assert!(res.statistic >= CRITICAL_10, "statistic {}", res.statistic);
    }

    #[test]
    fn ar1_is_stationary() {
        let mut rng = Rng::seed_from_u64(3);
        let mut xs = vec![0.0];
        for _ in 0..800 {
            let prev = *xs.last().expect("non-empty");
            xs.push(0.6 * prev + rng.normal());
        }
        let res = adf(&xs, schwert_lags(xs.len())).unwrap();
        assert!(res.statistic < CRITICAL_5, "statistic {}", res.statistic);
    }

    #[test]
    fn near_unit_root_is_borderline() {
        // rho = 0.999 over a short window looks like a unit root.
        let mut rng = Rng::seed_from_u64(4);
        let mut xs = vec![0.0];
        for _ in 0..400 {
            let prev = *xs.last().expect("non-empty");
            xs.push(0.999 * prev + rng.normal());
        }
        let res = adf(&xs, 2).unwrap();
        assert!(res.statistic >= CRITICAL_1, "statistic {}", res.statistic);
    }

    #[test]
    fn constant_series_handled() {
        let xs = vec![2.0; 100];
        // All differences are zero; OLS hits the ridge path and the
        // perfect-fit branch yields a strongly stationary verdict.
        if let Some(res) = adf(&xs, 1) {
            assert!(res.statistic < CRITICAL_1);
        }
    }

    #[test]
    fn auto_lag_counts_observations() {
        let xs = white_noise(504, 6);
        let mut acc = AdfAccumulator::auto(xs.len()).expect("long enough");
        for &x in &xs {
            acc.push(x);
        }
        let res = acc.finalize(&xs).unwrap();
        assert!(res.lags >= 1);
        assert!(res.n_obs > 400);
    }

    /// Bit-for-bit equality between the streaming accumulator and the
    /// design-matrix reference.
    fn assert_streaming_parity(xs: &[f64], lags: usize, label: &str) {
        let batch = adf_test(xs, lags);
        let inc = adf(xs, lags);
        match (batch, inc) {
            (None, None) => {}
            (Some(b), Some(i)) => {
                assert_eq!(
                    b.statistic.to_bits(),
                    i.statistic.to_bits(),
                    "{label}, lags {lags} n {}: batch {} vs incremental {}",
                    xs.len(),
                    b.statistic,
                    i.statistic
                );
                assert_eq!(b.lags, i.lags);
                assert_eq!(b.n_obs, i.n_obs);
            }
            (b, i) => panic!(
                "{label}: presence mismatch at lags {lags}: batch {b:?} vs \
                 incremental {i:?}"
            ),
        }
    }

    /// Seven traffic shapes, 1,512 samples each: a sine, half-normal
    /// noise, a floored random walk, a constant, all zeros, rare huge
    /// spikes and alternating 1e-12/1e12.
    fn block_shapes() -> Vec<(&'static str, Vec<f64>)> {
        let periodic = (0..1_512)
            .map(|t| {
                2.0 + (2.0 * std::f64::consts::PI * t as f64 / 60.0).sin()
            })
            .collect();
        let mut rng = Rng::seed_from_u64(1);
        let noise = (0..1_512).map(|_| rng.normal().abs()).collect();
        let mut rng = Rng::seed_from_u64(3);
        let mut acc = 50.0;
        let walk = (0..1_512)
            .map(|_| {
                acc += rng.normal();
                acc.max(0.0)
            })
            .collect();
        vec![
            ("periodic", periodic),
            ("noise", noise),
            ("random-walk", walk),
            ("constant", vec![3.0; 1_512]),
            ("all-zero", vec![0.0; 1_512]),
            (
                "spiky",
                (0..1_512)
                    .map(|t| if t % 37 == 0 { 1e5 } else { 0.01 })
                    .collect(),
            ),
            (
                "tiny-huge",
                (0..1_512)
                    .map(|t| if t % 2 == 0 { 1e-12 } else { 1e12 })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn accumulator_matches_batch_bit_for_bit() {
        let signals: Vec<Vec<f64>> = vec![
            white_noise(504, 7),
            white_noise(120, 8),
            random_walk(504, 9),
            random_walk(120, 10),
            (0..504)
                .map(|t| {
                    3.0 + 2.0
                        * (2.0 * std::f64::consts::PI * t as f64 / 24.0)
                            .sin()
                })
                .collect(),
            vec![2.0; 120],
            vec![0.0; 504],
            (0..120)
                .map(|t| if t % 17 == 0 { 1e6 } else { 0.1 })
                .collect(),
        ];
        for (s, xs) in signals.iter().enumerate() {
            for lags in [1, 2, schwert_lags(xs.len())] {
                assert_streaming_parity(xs, lags, &format!("signal {s}"));
            }
        }
        // Every block the feature extractor cuts from each shape, at
        // the test and the paper block lengths, with the extractor's
        // lag count.
        for (shape, series) in &block_shapes() {
            for block_len in [120usize, 504] {
                for (b, block) in series.chunks_exact(block_len).enumerate() {
                    assert_streaming_parity(
                        block,
                        schwert_lags(block_len),
                        &format!("{shape}/{block_len} block {b}"),
                    );
                }
            }
        }
    }

    #[test]
    fn accumulator_auto_matches_schwert_rule() {
        for n in [16usize, 120, 504, 1000] {
            let acc = AdfAccumulator::auto(n).expect("long enough");
            assert_eq!(acc.lags(), schwert_lags(n));
        }
        assert!(AdfAccumulator::auto(15).is_none());
    }

    #[test]
    fn accumulator_reset_reuses_cleanly() {
        let a = white_noise(120, 11);
        let b = random_walk(120, 12);
        let mut acc = AdfAccumulator::new(schwert_lags(120));
        for &x in &a {
            acc.push(x);
        }
        let _ = acc.finalize(&a);
        acc.reset();
        assert!(acc.is_empty());
        for &x in &b {
            acc.push(x);
        }
        let batch = adf_test(&b, acc.lags()).expect("fits");
        let inc = acc.finalize(&b).expect("fits");
        assert_eq!(batch.statistic.to_bits(), inc.statistic.to_bits());
        assert_eq!(acc.len(), b.len());
    }

    #[test]
    fn accumulator_short_window_returns_none() {
        let mut acc = AdfAccumulator::new(3);
        let xs = vec![1.0, 2.0, 1.5];
        for &x in &xs {
            acc.push(x);
        }
        assert!(acc.finalize(&xs).is_none());
        assert!(adf_test(&xs, 3).is_none());
    }
}
