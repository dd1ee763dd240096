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

use crate::matrix::{ols_with_errors, Matrix, NormalEquations};

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

impl AdfResult {
    /// Returns `true` if the unit-root null is rejected at the given
    /// significance level, i.e. the series is deemed stationary.
    pub fn is_stationary(&self, level: Significance) -> bool {
        self.statistic < level.critical_value()
    }
}

/// Significance levels with MacKinnon asymptotic critical values for the
/// constant-only ADF regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Significance {
    /// 1 % level (critical value -3.43).
    One,
    /// 5 % level (critical value -2.86).
    Five,
    /// 10 % level (critical value -2.57).
    Ten,
}

impl Significance {
    /// Returns the asymptotic critical value for this level.
    pub fn critical_value(self) -> f64 {
        match self {
            Significance::One => -3.43,
            Significance::Five => -2.86,
            Significance::Ten => -2.57,
        }
    }
}

/// Runs the ADF test with a fixed number of augmenting lags.
///
/// Returns `None` when the series is too short or degenerate (constant),
/// in which case callers should treat the block as trivially stationary:
/// constant traffic is perfectly predictable.
pub fn adf_test(xs: &[f64], lags: usize) -> Option<AdfResult> {
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

/// Runs the ADF test with automatic lag selection via the Schwert rule
/// `p_max = floor(12 * (n / 100)^{1/4})`, capped for short blocks.
pub fn adf_test_auto(xs: &[f64]) -> Option<AdfResult> {
    femux_obs::counter_add("stats.adf.tests", 1);
    let n = xs.len();
    if n < 16 {
        return None;
    }
    adf_test(xs, schwert_lags(n))
}

/// The Schwert lag rule used by [`adf_test_auto`] for a series of
/// length `n`: `floor(12 * (n / 100)^{1/4})`, capped at `n / 8` and
/// floored at 1.
pub fn schwert_lags(n: usize) -> usize {
    let schwert = (12.0 * (n as f64 / 100.0).powf(0.25)).floor() as usize;
    schwert.min(n / 8).max(1)
}

/// Streaming ADF accumulator: ingests one sample at a time and, once the
/// window is complete, reproduces [`adf_test`] **bit-for-bit**.
///
/// The regression row for difference index `t` (`[1, y_t, dy_{t-1}, …,
/// dy_{t-lags}]`, target `dy_t`) becomes available exactly when sample
/// `t + 1` arrives, so rows are folded into [`NormalEquations`] in
/// arrival order — the same order, through the same fold, as the batch
/// test's [`ols_with_errors`]. [`AdfAccumulator::finalize`] then
/// performs the identical factorization / ridge / solve / residual /
/// standard-error sequence, so every floating-point operation it makes
/// happens on the same operands in the same order as the batch path.
///
/// This is what lets the online serving harness maintain the
/// stationarity feature incrementally per sample instead of
/// re-extracting O(block × lags²) work at every block boundary, while
/// the parity gate holds exactly.
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

    /// Creates an accumulator matching [`adf_test_auto`]'s lag choice
    /// for a window of length `n`; `None` when the window is too short
    /// for the automatic test (`n < 16`).
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
            // Same subtraction as the batch `windows(2)` pass.
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
    /// exact sample sequence pushed since the last reset (the serving
    /// harness keeps it in the block ring anyway); it is only read for
    /// the single O(rows × cols) residual pass.
    ///
    /// Returns exactly what `adf_test(xs, self.lags())` returns, to the
    /// bit.
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
        // ols_with_errors(): one residual pass regenerating each design
        // row; the per-row dot product and the RSS fold replicate
        // matvec()'s zip/map/sum and the batch in-order accumulation.
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
        // reads; the batch path computes the others from the same
        // factorization, which cannot fail once `beta` is solved.
        let var = sigma2 * lu.inverse_diagonal(1);
        let se1 = if var > 0.0 { var.sqrt() } else { 0.0 };
        if se1 <= 1e-12 {
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
    use crate::rng::Rng;

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
        let res = adf_test(&xs, 2).unwrap();
        assert!(
            res.is_stationary(Significance::One),
            "statistic {}",
            res.statistic
        );
    }

    #[test]
    fn random_walk_is_not_stationary() {
        let xs = random_walk(500, 2);
        let res = adf_test(&xs, 2).unwrap();
        assert!(
            !res.is_stationary(Significance::Ten),
            "statistic {}",
            res.statistic
        );
    }

    #[test]
    fn ar1_is_stationary() {
        let mut rng = Rng::seed_from_u64(3);
        let mut xs = vec![0.0];
        for _ in 0..800 {
            let prev = *xs.last().expect("non-empty");
            xs.push(0.6 * prev + rng.normal());
        }
        let res = adf_test_auto(&xs).unwrap();
        assert!(
            res.is_stationary(Significance::Five),
            "statistic {}",
            res.statistic
        );
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
        let res = adf_test(&xs, 2).unwrap();
        assert!(
            !res.is_stationary(Significance::One),
            "statistic {}",
            res.statistic
        );
    }

    #[test]
    fn short_series_returns_none() {
        assert!(adf_test(&[1.0, 2.0, 3.0], 1).is_none());
        assert!(adf_test_auto(&white_noise(10, 5)).is_none());
    }

    #[test]
    fn constant_series_handled() {
        let xs = vec![2.0; 100];
        // All differences are zero; OLS hits the ridge path and the
        // perfect-fit branch yields a strongly stationary verdict.
        if let Some(res) = adf_test(&xs, 1) {
            assert!(res.is_stationary(Significance::One));
        }
    }

    #[test]
    fn critical_values_ordered() {
        assert!(
            Significance::One.critical_value()
                < Significance::Five.critical_value()
        );
        assert!(
            Significance::Five.critical_value()
                < Significance::Ten.critical_value()
        );
    }

    #[test]
    fn auto_lag_counts_observations() {
        let xs = white_noise(504, 6);
        let res = adf_test_auto(&xs).unwrap();
        assert!(res.lags >= 1);
        assert!(res.n_obs > 400);
    }

    /// Bit-for-bit equality between the streaming accumulator and the
    /// batch test — the serving harness's parity contract.
    fn assert_streaming_parity(xs: &[f64], lags: usize) {
        let mut acc = AdfAccumulator::new(lags);
        for &x in xs {
            acc.push(x);
        }
        let batch = adf_test(xs, lags);
        let inc = acc.finalize(xs);
        match (batch, inc) {
            (None, None) => {}
            (Some(b), Some(i)) => {
                assert_eq!(
                    b.statistic.to_bits(),
                    i.statistic.to_bits(),
                    "lags {lags} n {}: batch {} vs incremental {}",
                    xs.len(),
                    b.statistic,
                    i.statistic
                );
                assert_eq!(b.lags, i.lags);
                assert_eq!(b.n_obs, i.n_obs);
            }
            (b, i) => panic!(
                "presence mismatch at lags {lags}: batch {b:?} vs \
                 incremental {i:?}"
            ),
        }
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
        for xs in &signals {
            for lags in [1, 2, schwert_lags(xs.len())] {
                assert_streaming_parity(xs, lags);
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
