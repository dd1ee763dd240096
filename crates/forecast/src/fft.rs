//! FFT (harmonic) forecaster.
//!
//! Extrapolates the window's strongest harmonics into the future, as used
//! by IceBreaker and by Huawei's characterization work, and as one of
//! FeMux's multiplexed forecasters for *periodic* blocks. FeMux keeps the
//! top 10 harmonics (§4.3.3).
//!
//! # All-zero windows
//!
//! Most of a sparse app's windows are idle minutes only, so a window
//! whose every sample equals `0.0` (of either sign) forecasts +0 at
//! every step without a transform. That is what the transform returns:
//!
//! - With ±0 input, every Bluestein chirp product, butterfly and kernel
//!   multiply stays ±0, because every twiddle, chirp and kernel entry is
//!   finite: a product of ±0 and a finite value is ±0, and a sum or
//!   difference of two zeros is a zero.
//! - `hypot` of two zeros is +0, so every amplitude is +0, and the mean
//!   (bin 0's real part over n) is ±0. Each extrapolated value is the
//!   mean plus a sum of amplitude × cosine terms, so ±0 too.
//! - Written `p.max(0.0)`, the clamp would leave the sign of two equal
//!   zeros to the backend (LLVM's `maxnum` may return either operand).
//!   It is `if p > 0.0 { p } else { 0.0 }` instead, which returns what
//!   `max` does for every negative, NaN, infinite and positive `p`, and
//!   +0 for ±0.
//!
//! The tests keep the transform path as the reference and check, with
//! `to_bits`, that in an optimized build the early return and the clamp
//! change no output of the identity sweep or of any all-zero window up
//! to 120 samples.

use femux_stats::fft::harmonic_extrapolate;

use crate::Forecaster;

/// A top-k harmonic extrapolation forecaster.
#[derive(Debug, Clone)]
pub struct FftForecaster {
    harmonics: usize,
}

impl FftForecaster {
    /// Creates an FFT forecaster keeping the `harmonics` strongest
    /// components.
    ///
    /// # Panics
    ///
    /// Panics if `harmonics == 0`.
    pub fn new(harmonics: usize) -> Self {
        assert!(harmonics > 0, "need at least one harmonic");
        FftForecaster { harmonics }
    }

    /// The paper's configuration: top 10 harmonics.
    pub fn paper() -> Self {
        FftForecaster::new(10)
    }
}

impl Forecaster for FftForecaster {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        // An empty or all-zero window forecasts +0 (see "All-zero
        // windows").
        if horizon == 0 || history.iter().all(|&x| x == 0.0) {
            return vec![0.0; horizon];
        }
        harmonic_extrapolate(history, self.harmonics, horizon)
            .into_iter()
            .map(|p| if p > 0.0 { p } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_windows;

    /// The forecaster before the all-zero return: every non-empty
    /// window is transformed and clamped with `max`.
    fn reference_predict(
        history: &[f64],
        harmonics: usize,
        horizon: usize,
    ) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        harmonic_extrapolate(history, harmonics, horizon)
            .into_iter()
            .map(|p| p.max(0.0))
            .collect()
    }

    #[test]
    fn zero_return_and_clamp_match_the_transform_bit_for_bit() {
        let mut windows = test_windows::sweep();
        for len in 1..=120 {
            windows.push((format!("zeros-{len}"), vec![0.0; len]));
            windows.push((format!("neg-zeros-{len}"), vec![-0.0; len]));
        }
        let mut fc = FftForecaster::paper();
        for (name, history) in &windows {
            for horizon in [1, 10] {
                let got = fc.predict(history, horizon);
                let want = reference_predict(history, 10, horizon);
                assert_eq!(got.len(), want.len(), "{name}");
                for (g, w) in got.iter().zip(&want) {
                    // `max` leaves the sign of a zero to the backend. An
                    // optimized build returns +0 here, as the new clamp
                    // does; an unoptimized one returns -0.0 for a few
                    // all-`-0.0` windows (lengths 1, 2 and 4).
                    let backend_zero = cfg!(debug_assertions)
                        && *w == 0.0
                        && g.to_bits() == 0;
                    assert!(
                        g.to_bits() == w.to_bits() || backend_zero,
                        "{name} at horizon {horizon}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn periodic_signal_extrapolates() {
        let n = 240;
        let f = |t: f64| {
            3.0 + 2.0
                * (2.0 * std::f64::consts::PI * t / 60.0).sin()
        };
        let history: Vec<f64> = (0..n).map(|t| f(t as f64)).collect();
        let mut fc = FftForecaster::paper();
        let pred = fc.forecast(&history, 30);
        for (h, p) in pred.iter().enumerate() {
            let truth = f((n + h) as f64);
            assert!((p - truth).abs() < 0.1, "h={h} {p} vs {truth}");
        }
    }

    #[test]
    fn constant_signal_persists() {
        let history = vec![4.0; 120];
        let mut fc = FftForecaster::paper();
        for p in fc.forecast(&history, 10) {
            assert!((p - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_traffic_forecasts_zero() {
        // The paper notes IceBreaker's FFT "often forecasts zero" for
        // low-traffic apps — the harmonic mean of an all-zero window is
        // zero.
        let history = vec![0.0; 120];
        let mut fc = FftForecaster::paper();
        assert_eq!(fc.forecast(&history, 5), vec![0.0; 5]);
    }

    #[test]
    fn never_negative() {
        // A strong harmonic around a small mean would dip negative
        // without clamping.
        let history: Vec<f64> = (0..120)
            .map(|t| {
                (0.5 + (2.0 * std::f64::consts::PI * t as f64 / 30.0)
                    .sin())
                .max(0.0)
            })
            .collect();
        let mut fc = FftForecaster::new(3);
        for p in fc.forecast(&history, 60) {
            assert!(p >= 0.0);
        }
    }

    #[test]
    fn nonfinite_history_yields_finite_forecast_without_panicking() {
        // Regression: a single NaN sample (e.g. a lost concurrency
        // report before sanitization) used to propagate NaN amplitudes
        // into `top_harmonics`' ranking sort, which panicked on the
        // non-total order ("amplitudes are finite"). Non-finite bins are
        // now dropped before ranking, so the forecaster degrades to the
        // surviving harmonics and sanitization keeps the output finite.
        for poison in [f64::NAN, f64::INFINITY] {
            let mut history: Vec<f64> = (0..128)
                .map(|t| {
                    2.0 + (2.0 * std::f64::consts::PI * t as f64 / 32.0)
                        .sin()
                })
                .collect();
            history[40] = poison;
            let mut fc = FftForecaster::paper();
            let pred = fc.forecast(&history, 16);
            assert_eq!(pred.len(), 16);
            for p in pred {
                assert!(p.is_finite() && p >= 0.0, "poison={poison}: {p}");
            }
        }
    }

    #[test]
    fn empty_history() {
        let mut fc = FftForecaster::paper();
        assert_eq!(fc.forecast(&[], 4), vec![0.0; 4]);
    }
}
