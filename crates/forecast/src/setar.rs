//! Self-Excitation Threshold Autoregressive (SETAR) forecaster.
//!
//! SETAR handles *piece-wise linear, non-stationary* traffic (§4.3.2 via
//! Tong's threshold models): the series follows different AR dynamics
//! depending on which side of one or two thresholds the delayed value
//! `x_{t-d}` falls. FeMux configures 10 lags and up to two thresholds
//! (§4.3.3). Thresholds are grid-searched over quantiles of the window to
//! minimize in-sample squared error; each regime gets its own OLS fit.
//!
//! # One fit per distinct regime
//!
//! The search tries up to 23 threshold sets (none, the 7 interior
//! octiles, then the 15 octile pairs at least two apart), and on the
//! zero-heavy windows serverless traffic is made of most of them cannot
//! be fitted: a regime needs `p + 2` rows. So the search counts before
//! it folds. With `above(c)` the number of rows whose trigger `x_{t-d}`
//! is `> c` (the comparison the regime index makes, so a NaN trigger
//! lands in the lowest regime), the regime between edges `lo` and `hi`
//! holds `above(lo) - above(hi)` rows, where an open lower edge counts
//! every row and an open upper edge none. A candidate with a regime
//! under `p + 2` rows is dropped before any row is folded.
//!
//! The sets `{trigger > c}` are nested, so a regime's rows are fixed by
//! its key `(above(lo), above(hi))`, and candidates share regimes: the
//! lower regime of the pair (cᵢ, cⱼ) is the lower regime of the single
//! threshold cᵢ, its upper regime is that of cⱼ, and octiles with no
//! trigger between them share every regime. Each distinct key is fitted
//! once: its rows `[1, x_{t-1}, …, x_{t-p}]` are folded in time order
//! into a [`NormalEquations`] (the fold behind `femux_stats`'s `ols`),
//! solved, and each row's squared one-step error is stored. A candidate
//! whose regimes all solved sums its rows' stored errors in time order
//! from `0.0`, and the first strictly lowest SSE wins.
//!
//! Every fold, solve, prediction and addition is the one the
//! per-candidate search made when it fitted each candidate from scratch,
//! and that search made the same floating-point work as building each
//! regime's design matrix and calling `ols`. So every fit and forecast
//! is bit-identical to both, which the tests keep as references.

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

/// The regime a trigger value falls in: the number of thresholds it
/// exceeds.
fn regime_index(thresholds: &[f64], trigger: f64) -> usize {
    thresholds.iter().filter(|t| trigger > **t).count()
}

/// One AR step: `beta[0] + Σ recent[n-1-i] · beta[1+i]` over `order` lags.
fn ar_step(beta: &[f64], recent: &[f64], order: usize) -> f64 {
    let n = recent.len();
    beta[0]
        + (0..order)
            .map(|i| recent[n - 1 - i] * beta[1 + i])
            .sum::<f64>()
}

impl Fitted {
    fn regime_index(&self, trigger: f64) -> usize {
        regime_index(&self.thresholds, trigger)
    }

    /// Predicts the next value from the trailing `order` values
    /// (`recent[len-1]` is the most recent observation).
    fn predict_next(&self, recent: &[f64]) -> f64 {
        let trigger = recent[recent.len() - self.delay];
        let beta = &self.regimes[self.regime_index(trigger)].beta;
        ar_step(beta, recent, self.order)
    }
}

/// One distinct regime of a window, fitted once.
#[derive(Debug)]
struct RegimeFit {
    beta: Vec<f64>,
    /// Squared one-step error per row (row `r` is `t = start + r`); only
    /// the regime's own rows are ever read.
    sq_errors: Vec<f64>,
}

/// A threshold candidate whose regimes all solved.
#[derive(Debug)]
struct Scored {
    /// Each regime's index into [`Search::fits`], lowest regime first.
    regimes: Vec<usize>,
    /// In-sample SSE.
    sse: f64,
}

/// Every threshold candidate of one window, in search order, scored
/// from one fit per distinct regime (see the module docs).
#[derive(Debug, Default)]
struct Search {
    /// Each regime key fitted so far, with its index into `fits`, or
    /// `None` where its normal equations stayed singular.
    keys: Vec<((usize, usize), Option<usize>)>,
    fits: Vec<RegimeFit>,
    /// Each candidate's thresholds, and its score unless it was dropped.
    candidates: Vec<(Vec<f64>, Option<Scored>)>,
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

    /// The threshold vectors the fit tries, in order: none, each interior
    /// octile of the window, then each pair of octiles at least two
    /// apart (up to `max_thresholds`).
    fn threshold_sets(&self, history: &[f64]) -> Vec<Vec<f64>> {
        let mut sorted = history.to_vec();
        sorted.sort_by(f64::total_cmp);
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

    /// Scores every threshold candidate: counts each one's regimes,
    /// drops it if one is short, and otherwise fits each regime it needs
    /// (once per key) and sums its SSE in time order.
    fn search(&self, history: &[f64]) -> Search {
        let d = self.delay;
        let start = self.order.max(d);
        let rows = start..history.len();
        let n_rows = rows.len();
        let above =
            |c: f64| rows.clone().filter(|&t| history[t - d] > c).count();
        let mut search = Search::default();
        for thresholds in self.threshold_sets(history) {
            // Regime k holds edges[k] - edges[k + 1] rows. Each regime
            // having p + 2 rows implies n_rows >= (p + 2) * regimes.
            let mut edges = vec![n_rows];
            edges.extend(thresholds.iter().map(|&c| above(c)));
            edges.push(0);
            let short =
                edges.windows(2).any(|e| e[0] - e[1] < self.order + 2);
            let regimes = if short {
                None
            } else {
                edges
                    .windows(2)
                    .enumerate()
                    .map(|(k, e)| {
                        let key = (e[0], e[1]);
                        search.regime(self, history, &thresholds, k, key)
                    })
                    .collect::<Option<Vec<usize>>>()
            };
            let scored = regimes.map(|regimes| {
                let mut sse = 0.0;
                for t in rows.clone() {
                    let k = regime_index(&thresholds, history[t - d]);
                    sse += search.fits[regimes[k]].sq_errors[t - start];
                }
                Scored { regimes, sse }
            });
            search.candidates.push((thresholds, scored));
        }
        search
    }

    /// Fits regime `k` of `thresholds`: folds its rows in time order,
    /// solves, and stores each row's squared one-step error. `None` when
    /// the (ridged) normal equations are singular.
    fn fit_regime(
        &self,
        history: &[f64],
        thresholds: &[f64],
        k: usize,
    ) -> Option<RegimeFit> {
        let p = self.order;
        let d = self.delay;
        let start = p.max(d);
        let members = (start..history.len())
            .filter(|&t| regime_index(thresholds, history[t - d]) == k);
        let mut system = NormalEquations::new(p + 1);
        let mut row = vec![1.0; p + 1];
        for t in members.clone() {
            for i in 0..p {
                row[1 + i] = history[t - 1 - i];
            }
            system.push_row(&row, history[t]);
        }
        let beta = system.solve()?;
        let mut sq_errors = vec![0.0; history.len() - start];
        for t in members {
            let err = history[t] - ar_step(&beta, &history[..t], p);
            sq_errors[t - start] = err * err;
        }
        Some(RegimeFit { beta, sq_errors })
    }

    /// The candidate with the lowest in-sample SSE; the first one wins a
    /// tie.
    fn fit(&self, history: &[f64]) -> Option<Fitted> {
        let search = self.search(history);
        let mut best: Option<(&[f64], &Scored)> = None;
        for (thresholds, scored) in &search.candidates {
            if let Some(s) = scored {
                if best.is_none_or(|(_, b)| s.sse < b.sse) {
                    best = Some((thresholds, s));
                }
            }
        }
        let (thresholds, scored) = best?;
        Some(Fitted {
            thresholds: thresholds.to_vec(),
            regimes: scored
                .regimes
                .iter()
                .map(|&i| Regime {
                    beta: search.fits[i].beta.clone(),
                })
                .collect(),
            order: self.order,
            delay: self.delay,
        })
    }
}

impl Search {
    /// The index into `fits` of the regime with `key`, which is regime
    /// `k` of `thresholds`; fitted on first use.
    fn regime(
        &mut self,
        forecaster: &SetarForecaster,
        history: &[f64],
        thresholds: &[f64],
        k: usize,
        key: (usize, usize),
    ) -> Option<usize> {
        let seen = self.keys.iter().find(|(seen, _)| *seen == key);
        if let Some(&(_, fit)) = seen {
            return fit;
        }
        let fit = forecaster.fit_regime(history, thresholds, k).map(|fit| {
            self.fits.push(fit);
            self.fits.len() - 1
        });
        self.keys.push((key, fit));
        fit
    }
}

impl Forecaster for SetarForecaster {
    fn name(&self) -> &'static str {
        "setar"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_windows;
    use femux_stats::matrix::{ols, Matrix};
    use femux_stats::rng::Rng;
    use femux_trace::synth::azure::{self, AzureFleetConfig};

    /// The per-candidate search that [`SetarForecaster::search`]
    /// replaced, kept verbatim as its bit-identity reference: each
    /// candidate folds every row into its regimes, checks their sizes
    /// after the fold, and scores its SSE in place.
    impl SetarForecaster {
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

        fn reference_fit(&self, history: &[f64]) -> Option<Fitted> {
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

    /// Each candidate of `search` as the fitted model and SSE it stands
    /// for, in search order.
    fn scored_fits(search: &Search) -> Vec<Option<(Fitted, f64)>> {
        search
            .candidates
            .iter()
            .map(|(thresholds, scored)| {
                scored.as_ref().map(|s| {
                    let regimes = s
                        .regimes
                        .iter()
                        .map(|&i| Regime {
                            beta: search.fits[i].beta.clone(),
                        })
                        .collect();
                    let fitted = Fitted {
                        thresholds: thresholds.clone(),
                        regimes,
                        order: 0,
                        delay: 0,
                    };
                    (fitted, s.sse)
                })
            })
            .collect()
    }

    /// 120-sample windows that steer the search down each of its paths.
    fn path_windows() -> Vec<(&'static str, Vec<f64>)> {
        vec![
            // Every octile is 0 and only 9 triggers exceed it.
            (
                "no-threshold-only",
                (0..120)
                    .map(|t| {
                        if t % 13 == 5 { 1.0 + (t % 3) as f64 } else { 0.0 }
                    })
                    .collect(),
            ),
            // 45 zeros and 75 values in 10..=14: octiles 1 and 2 are 0,
            // octile 3 interpolates to 6.25, and no trigger lies between.
            (
                "no-trigger-between-octiles",
                (0..120)
                    .map(|t| {
                        if t % 8 < 3 { 0.0 } else { 10.0 + (t % 5) as f64 }
                    })
                    .collect(),
            ),
            // The lower regime's rows are all [1, 2, …, 2]: a singular
            // Gram matrix that takes the ridge.
            (
                "constant-lower-regime",
                (0..120)
                    .map(|t| if t < 60 { 2.0 } else { 3.0 + (t % 7) as f64 })
                    .collect(),
            ),
            ("too-short", (0..15).map(|t| (t % 4) as f64).collect()),
        ]
    }

    /// The sweep, the path windows, and windows cut from a zero-heavy
    /// Azure-like fleet at the labelling mix's `rate_scale`.
    fn search_windows() -> Vec<(String, Vec<f64>)> {
        let mut windows = test_windows::sweep();
        windows.extend(
            path_windows()
                .into_iter()
                .map(|(name, history)| (name.to_string(), history)),
        );
        let fleet = azure::generate(&AzureFleetConfig {
            n_apps: 8,
            days: 1,
            seed: 5,
            rate_scale: 0.5,
        });
        for (i, app) in fleet.apps.iter().enumerate() {
            let minutes = app.concurrency_series();
            for start in (0..minutes.len().saturating_sub(120)).step_by(170) {
                windows.push((
                    format!("azure-0.5-{i}@{start}"),
                    minutes[start..start + 120].to_vec(),
                ));
            }
        }
        windows
    }

    #[test]
    fn search_matches_the_per_candidate_fit_bit_for_bit() {
        for f in [SetarForecaster::paper(), SetarForecaster::new(3, 1, 2)] {
            for (name, history) in search_windows() {
                if history.is_empty() {
                    continue;
                }
                let search = f.search(&history);
                let sets = f.threshold_sets(&history);
                assert_eq!(search.candidates.len(), sets.len(), "{name}");
                let fits = scored_fits(&search);
                for (fit, thresholds) in fits.into_iter().zip(&sets) {
                    let want = f.fit_with_thresholds(&history, thresholds);
                    assert_eq!(
                        fit_bits(fit),
                        fit_bits(want),
                        "{name}: thresholds {thresholds:?}"
                    );
                }
                assert_eq!(
                    fit_bits(f.fit(&history).map(|m| (m, 0.0))),
                    fit_bits(f.reference_fit(&history).map(|m| (m, 0.0))),
                    "{name}: the chosen model"
                );
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

    #[test]
    fn path_windows_take_their_paths() {
        let f = SetarForecaster::paper();
        let windows = path_windows();
        let search = |name: &str| {
            let (_, history) = windows
                .iter()
                .find(|(n, _)| *n == name)
                .expect("named window");
            f.search(history)
        };
        let survivors = |s: &Search| {
            s.candidates.iter().filter(|(_, scored)| scored.is_some()).count()
        };
        let only = search("no-threshold-only");
        assert_eq!(survivors(&only), 1);
        assert!(only.candidates[0].1.is_some());
        assert_eq!(survivors(&search("too-short")), 0);
        // Two different single thresholds, one partition, one set of fits.
        let shared = search("no-trigger-between-octiles");
        let singles: Vec<_> = shared
            .candidates
            .iter()
            .filter(|(th, scored)| th.len() == 1 && scored.is_some())
            .collect();
        assert!(singles.windows(2).any(|w| {
            w[0].0 != w[1].0
                && w[0].1.as_ref().map(|s| &s.regimes)
                    == w[1].1.as_ref().map(|s| &s.regimes)
        }));
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
