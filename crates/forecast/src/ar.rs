//! Autoregressive forecaster.
//!
//! AR is the paper's canonical model for *stationary, linear* blocks
//! (§4.3.2, via Yule 1927). FeMux uses 10 lags, chosen empirically from a
//! parameter sweep over 1..20 (§4.3.3). Coefficients are refit on each
//! call from the recent history window via the Yule-Walker equations
//! (Levinson-Durbin), and multi-step forecasts iterate the one-step
//! predictor on its own outputs.

use femux_stats::acf::levinson_durbin;
use femux_stats::desc::mean;

use crate::Forecaster;

/// An AR(p) forecaster refit on every window.
#[derive(Debug, Clone)]
pub struct ArForecaster {
    order: usize,
}

impl ArForecaster {
    /// Creates an AR forecaster with the given lag order.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "AR order must be positive");
        ArForecaster { order }
    }

    /// The paper's configuration: 10 lags.
    pub fn paper() -> Self {
        ArForecaster::new(10)
    }
}

impl Forecaster for ArForecaster {
    fn name(&self) -> &'static str {
        "ar"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        let m = mean(history);
        let Some((phi, _)) = levinson_durbin(history, self.order.min(history.len() - 1))
        else {
            // Degenerate window (constant or too short): persist the mean.
            return vec![m.max(0.0); horizon];
        };
        let p = phi.len();
        // Iterated AR predictions can diverge when the fitted
        // polynomial is (numerically) unstable; cap at a multiple of the
        // window's peak.
        let cap = 10.0
            * (1.0 + history.iter().fold(0.0f64, |a, &b| a.max(b)));
        // Work on the centred series; extend it with predictions.
        let mut series: Vec<f64> =
            history.iter().map(|x| x - m).collect();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let n = series.len();
            let pred: f64 =
                (0..p).map(|i| phi[i] * series[n - 1 - i]).sum();
            let clamped = (pred + m).clamp(0.0, cap);
            series.push(clamped - m);
            out.push(clamped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_stats::rng::Rng;

    #[test]
    fn constant_series_persists() {
        let mut f = ArForecaster::paper();
        let history = vec![3.0; 120];
        let pred = f.forecast(&history, 5);
        for p in pred {
            assert!((p - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ar1_one_step_accuracy() {
        // x_t = 0.8 x_{t-1} + eps: prediction of the next value from the
        // window should be close to 0.8 * last (about the mean).
        let mut rng = Rng::seed_from_u64(1);
        let mut xs = vec![0.0];
        for _ in 0..2_000 {
            let prev = *xs.last().expect("non-empty");
            xs.push(0.8 * prev + 0.1 * rng.normal());
        }
        let window = &xs[xs.len() - 500..];
        let mut f = ArForecaster::new(5);
        let pred = f.forecast(window, 1)[0];
        let m = femux_stats::desc::mean(window);
        let expected =
            (0.8 * (window[window.len() - 1] - m) + m).max(0.0);
        assert!(
            (pred - expected).abs() < 0.15,
            "pred {pred} expected {expected}"
        );
    }

    #[test]
    fn multi_step_decays_to_mean() {
        // A stationary AR forecast converges to the window mean.
        let mut rng = Rng::seed_from_u64(2);
        let mut xs = vec![5.0];
        for _ in 0..1_000 {
            let prev = *xs.last().expect("non-empty");
            xs.push(5.0 + 0.5 * (prev - 5.0) + 0.2 * rng.normal());
        }
        let mut f = ArForecaster::paper();
        let pred = f.forecast(&xs, 50);
        let far = pred[49];
        assert!((far - 5.0).abs() < 0.5, "far prediction {far}");
    }

    #[test]
    fn never_negative() {
        let mut rng = Rng::seed_from_u64(3);
        let xs: Vec<f64> =
            (0..200).map(|_| rng.normal().max(0.0)).collect();
        let mut f = ArForecaster::paper();
        for p in f.forecast(&xs, 30) {
            assert!(p >= 0.0);
        }
    }

    #[test]
    fn short_history_is_graceful() {
        let mut f = ArForecaster::paper();
        assert_eq!(f.forecast(&[], 3), vec![0.0; 3]);
        let pred = f.forecast(&[2.0], 2);
        assert_eq!(pred, vec![2.0, 2.0]);
    }
}
