//! Self-Excitation Threshold Autoregressive (SETAR) forecaster.
//!
//! SETAR handles *piece-wise linear, non-stationary* traffic (§4.3.2 via
//! Tong's threshold models): the series follows different AR dynamics
//! depending on which side of one or two thresholds the delayed value
//! `x_{t-d}` falls. FeMux configures 10 lags and up to two thresholds
//! (§4.3.3). Thresholds are grid-searched over quantiles of the window to
//! minimize in-sample squared error; each regime gets its own OLS fit.
//!
//! Each threshold candidate is fitted straight from the window: every
//! row `[1, x_{t-1}, …, x_{t-p}]` is folded, in row order, into its
//! regime's [`NormalEquations`] (the fold behind `femux_stats`'s `ols`),
//! and the in-sample SSE is scored in place, with no per-candidate
//! matrix or per-row allocation. That is the same floating-point work,
//! in the same order, as building each regime's design matrix and
//! calling `ols`, so every fit and forecast is bit-identical to that
//! path, which the tests keep as the reference.

use femux_stats::matrix::NormalEquations;

use crate::Forecaster;

/// A SETAR(k; p) forecaster with up to two thresholds (three regimes).
#[derive(Debug, Clone)]
pub struct SetarForecaster {
    order: usize,
    max_thresholds: usize,
    delay: usize,
}

/// A fitted regime: intercept plus AR coefficients.
#[derive(Debug, Clone)]
struct Regime {
    beta: Vec<f64>,
}

/// A fitted SETAR model: sorted thresholds and one regime per segment.
#[derive(Debug, Clone)]
struct Fitted {
    thresholds: Vec<f64>,
    regimes: Vec<Regime>,
    order: usize,
    delay: usize,
}

impl Fitted {
    fn regime_index(&self, trigger: f64) -> usize {
        self.thresholds.iter().filter(|t| trigger > **t).count()
    }

    /// Predicts the next value from the trailing `order` values
    /// (`recent[len-1]` is the most recent observation).
    fn predict_next(&self, recent: &[f64]) -> f64 {
        let n = recent.len();
        let trigger = recent[n - self.delay];
        let beta = &self.regimes[self.regime_index(trigger)].beta;
        beta[0]
            + (0..self.order)
                .map(|i| recent[n - 1 - i] * beta[1 + i])
                .sum::<f64>()
    }
}

impl SetarForecaster {
    /// Creates a SETAR forecaster.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`, `delay == 0`, or `max_thresholds > 2`.
    pub fn new(order: usize, max_thresholds: usize, delay: usize) -> Self {
        assert!(order > 0 && delay > 0, "order and delay must be positive");
        assert!(max_thresholds <= 2, "at most two thresholds supported");
        SetarForecaster {
            order,
            max_thresholds,
            delay,
        }
    }

    /// The paper's configuration: 10 lags, up to two thresholds.
    pub fn paper() -> Self {
        SetarForecaster::new(10, 2, 1)
    }

    /// Fits regimes for a fixed threshold vector; returns the model and
    /// its in-sample SSE, or `None` when a regime has too few points.
    fn fit_with_thresholds(
        &self,
        history: &[f64],
        thresholds: &[f64],
    ) -> Option<(Fitted, f64)> {
        let p = self.order;
        let d = self.delay;
        let start = p.max(d);
        let n_rows = history.len().saturating_sub(start);
        let n_regimes = thresholds.len() + 1;
        if n_rows < (p + 2) * n_regimes {
            return None;
        }
        let mut systems = vec![NormalEquations::new(p + 1); n_regimes];
        let mut counts = vec![0usize; n_regimes];
        let mut row = vec![1.0; p + 1];
        for t in start..history.len() {
            let trigger = history[t - d];
            let idx =
                thresholds.iter().filter(|th| trigger > **th).count();
            for i in 0..p {
                row[1 + i] = history[t - 1 - i];
            }
            systems[idx].push_row(&row, history[t]);
            counts[idx] += 1;
        }
        if counts.iter().any(|&c| c < p + 2) {
            return None;
        }
        let regimes = systems
            .iter()
            .map(|system| system.solve().map(|beta| Regime { beta }))
            .collect::<Option<Vec<_>>>()?;
        let fitted = Fitted {
            thresholds: thresholds.to_vec(),
            regimes,
            order: p,
            delay: d,
        };
        // In-sample SSE.
        let mut sse = 0.0;
        for t in start..history.len() {
            let pred = fitted.predict_next(&history[..t]);
            let err = history[t] - pred;
            sse += err * err;
        }
        Some((fitted, sse))
    }

    /// The threshold vectors the fit tries, in order: none, each interior
    /// octile of the window, then each pair of octiles at least two
    /// apart (up to `max_thresholds`).
    fn threshold_sets(&self, history: &[f64]) -> Vec<Vec<f64>> {
        let mut sorted = history.to_vec();
        sorted.sort_by(|a, b| {
            a.partial_cmp(b).expect("values must not be NaN")
        });
        let candidates: Vec<f64> = (1..=7)
            .map(|q| {
                femux_stats::desc::quantile_sorted(&sorted, q as f64 / 8.0)
            })
            .collect();
        let mut sets = vec![Vec::new()];
        if self.max_thresholds >= 1 {
            sets.extend(candidates.iter().map(|&c| vec![c]));
        }
        if self.max_thresholds >= 2 {
            for i in 0..candidates.len() {
                for j in (i + 2)..candidates.len() {
                    if candidates[i] < candidates[j] {
                        sets.push(vec![candidates[i], candidates[j]]);
                    }
                }
            }
        }
        sets
    }

    /// The candidate with the lowest in-sample SSE; the first one wins a
    /// tie.
    fn fit(&self, history: &[f64]) -> Option<Fitted> {
        let mut best: Option<(Fitted, f64)> = None;
        for thresholds in self.threshold_sets(history) {
            if let Some((m, sse)) =
                self.fit_with_thresholds(history, &thresholds)
            {
                if best.as_ref().is_none_or(|(_, b)| sse < *b) {
                    best = Some((m, sse));
                }
            }
        }
        best.map(|(m, _)| m)
    }
}

impl Forecaster for SetarForecaster {
    fn name(&self) -> &'static str {
        "setar"
    }

    fn forecast(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        let Some(model) = self.fit(history) else {
            let last = history[history.len() - 1];
            return vec![last.max(0.0); horizon];
        };
        // Iterating an (unconstrained) fitted model can diverge on
        // multi-step horizons; cap predictions at a multiple of the
        // window's peak — concurrency cannot explode within a horizon.
        let cap = 10.0
            * (1.0 + history.iter().fold(0.0f64, |a, &b| a.max(b)));
        let mut series = history.to_vec();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let pred = model.predict_next(&series).clamp(0.0, cap);
            series.push(pred);
            out.push(pred);
        }
        crate::sanitize_forecast(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_windows;
    use femux_stats::matrix::{ols, Matrix};
    use femux_stats::rng::Rng;

    /// The design-matrix-plus-`ols` fit the normal-equations fold
    /// replaced, kept verbatim (with its allocating lag-vector predictor)
    /// as the bit-identity reference.
    fn reference_fit_with_thresholds(
        f: &SetarForecaster,
        history: &[f64],
        thresholds: &[f64],
    ) -> Option<(Fitted, f64)> {
        let p = f.order;
        let d = f.delay;
        let start = p.max(d);
        let n_rows = history.len().saturating_sub(start);
        let n_regimes = thresholds.len() + 1;
        if n_rows < (p + 2) * n_regimes {
            return None;
        }
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_regimes];
        for t in start..history.len() {
            let trigger = history[t - d];
            let idx =
                thresholds.iter().filter(|th| trigger > **th).count();
            rows[idx].push(t);
        }
        let mut regimes = Vec::with_capacity(n_regimes);
        for regime_rows in &rows {
            if regime_rows.len() < p + 2 {
                return None;
            }
            let mut design = Matrix::zeros(regime_rows.len(), p + 1);
            let mut target = Vec::with_capacity(regime_rows.len());
            for (r, &t) in regime_rows.iter().enumerate() {
                design[(r, 0)] = 1.0;
                for i in 0..p {
                    design[(r, 1 + i)] = history[t - 1 - i];
                }
                target.push(history[t]);
            }
            let beta = ols(&design, &target)?;
            regimes.push(Regime { beta });
        }
        let fitted = Fitted {
            thresholds: thresholds.to_vec(),
            regimes,
            order: p,
            delay: d,
        };
        let mut sse = 0.0;
        for t in start..history.len() {
            let pred = reference_predict_next(&fitted, &history[..t]);
            let err = history[t] - pred;
            sse += err * err;
        }
        Some((fitted, sse))
    }

    fn reference_predict_next(fitted: &Fitted, recent: &[f64]) -> f64 {
        let n = recent.len();
        let trigger = recent[n - fitted.delay];
        let beta = &fitted.regimes[fitted.regime_index(trigger)].beta;
        let lags: Vec<f64> =
            (0..fitted.order).map(|i| recent[n - 1 - i]).collect();
        beta[0]
            + lags.iter().zip(&beta[1..]).map(|(x, b)| x * b).sum::<f64>()
    }

    /// `forecast` over the reference fit.
    fn reference_forecast(
        f: &SetarForecaster,
        history: &[f64],
        horizon: usize,
    ) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        let mut best: Option<(Fitted, f64)> = None;
        for thresholds in f.threshold_sets(history) {
            if let Some((m, sse)) =
                reference_fit_with_thresholds(f, history, &thresholds)
            {
                if best.as_ref().is_none_or(|(_, b)| sse < *b) {
                    best = Some((m, sse));
                }
            }
        }
        let Some((model, _)) = best else {
            return vec![history[history.len() - 1].max(0.0); horizon];
        };
        let cap = 10.0
            * (1.0 + history.iter().fold(0.0f64, |a, &b| a.max(b)));
        let mut series = history.to_vec();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let pred =
                reference_predict_next(&model, &series).clamp(0.0, cap);
            series.push(pred);
            out.push(pred);
        }
        crate::sanitize_forecast(&mut out);
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Every number a fit carries, as bits.
    fn fit_bits(fit: Option<(Fitted, f64)>) -> Option<Vec<u64>> {
        fit.map(|(m, sse)| {
            let mut all = bits(&m.thresholds);
            for regime in &m.regimes {
                all.extend(bits(&regime.beta));
            }
            all.push(sse.to_bits());
            all
        })
    }

    #[test]
    fn fold_matches_the_design_matrix_fit_bit_for_bit() {
        for f in [SetarForecaster::paper(), SetarForecaster::new(3, 1, 2)] {
            for (name, history) in test_windows::sweep() {
                if !history.is_empty() {
                    for thresholds in f.threshold_sets(&history) {
                        let fit = f.fit_with_thresholds(&history, &thresholds);
                        let want = reference_fit_with_thresholds(
                            &f,
                            &history,
                            &thresholds,
                        );
                        assert_eq!(
                            fit_bits(fit),
                            fit_bits(want),
                            "{name}: thresholds {thresholds:?}"
                        );
                    }
                }
                for horizon in [1, 10] {
                    assert_eq!(
                        bits(&f.clone().forecast(&history, horizon)),
                        bits(&reference_forecast(&f, &history, horizon)),
                        "{name}: horizon {horizon}"
                    );
                }
            }
        }
    }

    /// Generates a two-regime threshold process.
    fn setar_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut xs = vec![1.0];
        for _ in 0..n {
            let prev = *xs.last().expect("non-empty");
            let next = if prev > 2.0 {
                0.5 * prev + 0.05 * rng.normal()
            } else {
                1.0 + 0.9 * prev + 0.05 * rng.normal()
            };
            xs.push(next.max(0.0));
        }
        xs
    }

    #[test]
    fn beats_plain_ar_on_threshold_process() {
        let xs = setar_series(600, 1);
        let (train, test) = xs.split_at(500);
        let mut setar = SetarForecaster::new(3, 1, 1);
        let mut ar = crate::ar::ArForecaster::new(3);
        let mut window = train.to_vec();
        let mut setar_err = 0.0;
        let mut ar_err = 0.0;
        for &truth in test {
            let s = setar.forecast(&window, 1)[0];
            let a = ar.forecast(&window, 1)[0];
            setar_err += (s - truth) * (s - truth);
            ar_err += (a - truth) * (a - truth);
            window.push(truth);
        }
        assert!(
            setar_err < ar_err,
            "setar {setar_err} vs ar {ar_err}"
        );
    }

    #[test]
    fn linear_series_falls_back_to_single_regime_quality() {
        // On a plain AR(1) process SETAR should not be much worse than
        // its own zero-threshold fit (sanity: no catastrophic overfit).
        let mut rng = Rng::seed_from_u64(2);
        let mut xs = vec![0.0];
        for _ in 0..400 {
            let prev = *xs.last().expect("non-empty");
            xs.push(2.0 + 0.6 * (prev - 2.0) + 0.1 * rng.normal());
        }
        let mut setar = SetarForecaster::paper();
        let pred = setar.forecast(&xs, 10);
        for p in &pred {
            assert!((p - 2.0).abs() < 1.0, "prediction {p} far from mean");
        }
    }

    #[test]
    fn short_history_is_graceful() {
        let mut f = SetarForecaster::paper();
        assert_eq!(f.forecast(&[], 2), vec![0.0, 0.0]);
        let pred = f.forecast(&[1.0, 2.0, 3.0], 2);
        assert_eq!(pred, vec![3.0, 3.0]);
    }

    #[test]
    fn multi_step_never_diverges() {
        // Regression: iterated SETAR predictions on a near-unit-root
        // window must stay bounded by the clamp.
        let mut xs: Vec<f64> = (0..150)
            .map(|t| 5.0 + 0.049 * t as f64)
            .collect();
        xs[149] = 20.0; // a spike to excite the upper regime
        let mut f = SetarForecaster::paper();
        let cap = 10.0 * (1.0 + 20.0);
        for p in f.forecast(&xs, 120) {
            assert!(p <= cap + 1e-9, "prediction {p} exceeds cap {cap}");
        }
    }

    #[test]
    fn never_negative() {
        let xs = setar_series(300, 3);
        let mut f = SetarForecaster::paper();
        for p in f.forecast(&xs, 20) {
            assert!(p >= 0.0);
        }
    }

    #[test]
    fn regime_index_partitions() {
        let fitted = Fitted {
            thresholds: vec![1.0, 3.0],
            regimes: vec![
                Regime { beta: vec![0.0, 0.0] },
                Regime { beta: vec![0.0, 0.0] },
                Regime { beta: vec![0.0, 0.0] },
            ],
            order: 1,
            delay: 1,
        };
        assert_eq!(fitted.regime_index(0.5), 0);
        assert_eq!(fitted.regime_index(2.0), 1);
        assert_eq!(fitted.regime_index(5.0), 2);
    }
}
