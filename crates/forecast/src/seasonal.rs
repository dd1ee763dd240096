//! Seasonal-naive forecaster.
//!
//! Predicts each step from the value one season earlier, with automatic
//! season detection via the strongest spectral peak. Not part of the
//! paper's FeMux set — it exemplifies the "providers can use their
//! preferred set of forecasters" extension point (§4.3.3) and serves as
//! a strong reference on strictly periodic traffic.

use femux_stats::fft::power_spectrum;

use crate::Forecaster;

/// Seasonal-naive with spectral season detection.
#[derive(Debug, Clone)]
pub struct SeasonalNaiveForecaster {
    /// Fixed season length in steps; `None` detects it per window.
    pub period: Option<usize>,
    /// Shortest admissible season when detecting (avoids locking onto
    /// noise at tiny lags).
    pub min_period: usize,
}

impl SeasonalNaiveForecaster {
    /// Creates a detector-driven seasonal-naive forecaster.
    pub fn auto() -> Self {
        SeasonalNaiveForecaster {
            period: None,
            min_period: 4,
        }
    }

    /// Creates a fixed-period seasonal-naive forecaster.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn with_period(period: usize) -> Self {
        assert!(period > 0, "period must be positive");
        SeasonalNaiveForecaster {
            period: Some(period),
            min_period: period,
        }
    }

    /// Detects the dominant season of a window from its spectrum.
    /// Returns `None` when the signal has no usable periodic structure.
    pub fn detect_period(&self, history: &[f64]) -> Option<usize> {
        let n = history.len();
        if n < 2 * self.min_period {
            return None;
        }
        let spectrum = power_spectrum(history);
        let total: f64 = spectrum.iter().sum();
        if total <= 1e-12 {
            return None;
        }
        // Strongest bin whose implied period is admissible.
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in spectrum.iter().enumerate() {
            let bin = i + 1;
            let period = n / bin;
            if period < self.min_period || period > n / 2 {
                continue;
            }
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((period, p));
            }
        }
        // Require the peak to carry a meaningful share of the variance.
        best.filter(|(_, p)| *p > 0.1 * total).map(|(t, _)| t)
    }
}

impl Forecaster for SeasonalNaiveForecaster {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        let period = self
            .period
            .or_else(|| self.detect_period(history));
        let Some(period) = period else {
            // No season: persist the last value.
            let last = history[history.len() - 1].max(0.0);
            return vec![last; horizon];
        };
        (0..horizon)
            .map(|h| {
                // Step `len + h` echoes step `len + h - k*period` for the
                // smallest k that lands inside the window.
                let mut idx = history.len() + h;
                while idx >= history.len() {
                    if idx < period {
                        return history[history.len() - 1].max(0.0);
                    }
                    idx -= period;
                }
                history[idx].max(0.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|t| if (t / (period / 2)).is_multiple_of(2) { 4.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn fixed_period_echoes_history() {
        let mut f = SeasonalNaiveForecaster::with_period(4);
        let history = vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(f.forecast(&history, 4), vec![1.0, 2.0, 3.0, 4.0]);
        // Horizon past one season wraps to the same season again.
        assert_eq!(f.forecast(&history, 6)[4..], [1.0, 2.0]);
    }

    #[test]
    fn detects_square_wave_period() {
        let f = SeasonalNaiveForecaster::auto();
        let history = square_wave(240, 24);
        let detected = f.detect_period(&history).expect("periodic");
        assert_eq!(detected, 24);
    }

    #[test]
    fn auto_forecasts_periodic_signal() {
        let mut f = SeasonalNaiveForecaster::auto();
        let history = square_wave(240, 24);
        let pred = f.forecast(&history, 24);
        let truth = square_wave(264, 24);
        for (h, p) in pred.iter().enumerate() {
            assert_eq!(*p, truth[240 + h], "step {h}");
        }
    }

    #[test]
    fn aperiodic_signal_falls_back_to_naive() {
        // White noise has no dominant admissible period. (A linear ramp,
        // by contrast, legitimately registers as a sawtooth under the
        // DFT's periodic extension.)
        let mut rng = femux_stats::rng::Rng::seed_from_u64(3);
        let noise: Vec<f64> =
            (0..200).map(|_| rng.normal().abs()).collect();
        let f = SeasonalNaiveForecaster::auto();
        assert!(f.detect_period(&noise).is_none());
        let mut f = SeasonalNaiveForecaster::auto();
        let last = noise[noise.len() - 1];
        assert_eq!(f.forecast(&noise, 2), vec![last, last]);
    }

    #[test]
    fn degenerate_inputs() {
        let mut f = SeasonalNaiveForecaster::auto();
        assert_eq!(f.forecast(&[], 3), vec![0.0; 3]);
        assert_eq!(f.forecast(&[5.0], 0), Vec::<f64>::new());
        let constant = vec![2.0; 50];
        // Constant series: no spectrum, persist.
        assert_eq!(f.forecast(&constant, 2), vec![2.0, 2.0]);
    }
}
