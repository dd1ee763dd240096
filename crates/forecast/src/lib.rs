//! Lightweight traffic forecasters for serverless lifetime management.
//!
//! FeMux multiplexes the forecasters in this crate per application block
//! (§4.3.3 of the paper): [`ar::ArForecaster`] for stationary linear
//! traffic, [`setar::SetarForecaster`] for piece-wise linear
//! non-stationary traffic, [`fft::FftForecaster`] for periodic traffic,
//! [`smoothing::SesForecaster`] / [`smoothing::HoltForecaster`] for dense
//! trend-following, and [`markov::MarkovForecaster`] for repetitive
//! patterns. [`simple`] holds the Knative moving-average and naive
//! references, and [`lstm::LstmForecaster`] is the per-app neural model
//! underpinning the Aquatope baseline.
//!
//! All forecasters consume a history window of per-step values (FeMux
//! uses 120 minutes of per-minute average concurrency) and predict the
//! next `horizon` steps. Every call fits the model to the window it is
//! given: a forecast is a pure function of (history, horizon), and an
//! impl keeps state across calls only to skip work whose inputs it
//! compared bit for bit (Holt resumes its lanes where its last call
//! stopped, see [`smoothing`]). Each model is cheap enough that a
//! forecast completes in single-digit milliseconds, which is the
//! property the paper's scalability study (§5.2) relies on.

pub mod ar;
pub mod fft;
pub mod lstm;
pub mod markov;
pub mod setar;
pub mod simple;
pub mod smoothing;

/// A traffic forecaster.
///
/// A forecast is a pure function of (history, horizon): the same inputs
/// give the same bits whatever the forecaster was asked before, so a
/// forecaster kept for a whole run and a fresh one per call agree. An
/// impl may keep state across calls only to skip work whose inputs it
/// compared bit for bit with the earlier call's (Holt's memo). The
/// offline training pipeline simulates forecasts for thousands of
/// application blocks and relies on this reproducibility.
pub trait Forecaster: Send {
    /// Stable, short identifier (used in experiment output and as the
    /// classifier's label space).
    fn name(&self) -> &'static str;

    /// The model's raw prediction of the next `horizon` steps given the
    /// trailing history window (oldest first). It must return exactly
    /// `horizon` entries; the adversarial-history sweep checks every
    /// in-tree impl. Values need no clamping: [`Forecaster::forecast`]
    /// sanitizes them.
    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64>;

    /// Forecasts the next `horizon` steps: [`Forecaster::predict`]'s
    /// values passed through [`sanitize_forecast`], so every value is
    /// finite and non-negative whatever the model does. Callers use
    /// this; impls provide `predict`.
    fn forecast(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        let mut out = self.predict(history, horizon);
        sanitize_forecast(&mut out);
        out
    }
}

/// The identity of a forecaster in FeMux's multiplexed set.
///
/// This enum is the label space of the block classifier and the unit of
/// forecaster switching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ForecasterKind {
    /// Autoregressive, 10 lags.
    Ar,
    /// Self-excitation threshold AR, 10 lags, up to 2 thresholds.
    Setar,
    /// Top-10-harmonic FFT extrapolation.
    Fft,
    /// Simple exponential smoothing, dynamic alpha.
    Ses,
    /// Holt double exponential smoothing, dynamic alpha/beta.
    Holt,
    /// Four-state Markov chain.
    Markov,
    /// Sliding-window moving average (Knative default behaviour).
    MovingAverage,
    /// Last-value persistence.
    Naive,
}

impl ForecasterKind {
    /// FeMux's forecaster set as configured in the paper.
    pub const FEMUX_SET: [ForecasterKind; 6] = [
        ForecasterKind::Ar,
        ForecasterKind::Setar,
        ForecasterKind::Fft,
        ForecasterKind::Ses,
        ForecasterKind::Holt,
        ForecasterKind::Markov,
    ];

    /// Every kind, including the reference forecasters.
    pub const ALL: [ForecasterKind; 8] = [
        ForecasterKind::Ar,
        ForecasterKind::Setar,
        ForecasterKind::Fft,
        ForecasterKind::Ses,
        ForecasterKind::Holt,
        ForecasterKind::Markov,
        ForecasterKind::MovingAverage,
        ForecasterKind::Naive,
    ];

    /// Returns the kind's stable name.
    pub fn name(self) -> &'static str {
        match self {
            ForecasterKind::Ar => "ar",
            ForecasterKind::Setar => "setar",
            ForecasterKind::Fft => "fft",
            ForecasterKind::Ses => "exp-smoothing",
            ForecasterKind::Holt => "holt",
            ForecasterKind::Markov => "markov",
            ForecasterKind::MovingAverage => "moving-average",
            ForecasterKind::Naive => "naive",
        }
    }

    /// Instantiates the forecaster with the paper's hyperparameters.
    pub fn build(self) -> Box<dyn Forecaster> {
        femux_obs::counter_add(
            &format!("forecast.built.{}", self.name()),
            1,
        );
        match self {
            ForecasterKind::Ar => Box::new(ar::ArForecaster::paper()),
            ForecasterKind::Setar => {
                Box::new(setar::SetarForecaster::paper())
            }
            ForecasterKind::Fft => Box::new(fft::FftForecaster::paper()),
            ForecasterKind::Ses => Box::new(smoothing::SesForecaster),
            ForecasterKind::Holt => {
                Box::new(smoothing::HoltForecaster::default())
            }
            ForecasterKind::Markov => {
                Box::new(markov::MarkovForecaster::paper())
            }
            ForecasterKind::MovingAverage => {
                Box::new(simple::MovingAverageForecaster::knative())
            }
            ForecasterKind::Naive => Box::new(simple::NaiveForecaster),
        }
    }
}

impl std::fmt::Display for ForecasterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Clamps a forecast to the trait's output contract in place: every
/// value finite and non-negative, with one zero. Whatever is not a
/// finite positive number (`NaN`, `±∞`, negatives, and `-0.0`) becomes
/// `+0.0` — zero, not a guess, because a forecaster emitting garbage
/// has forfeited any claim about demand, and `+0.0` whatever sign a
/// model's arithmetic or its backend gave the zero. It never changes
/// the length; returning `horizon` entries is each
/// [`Forecaster::predict`]'s job.
///
/// [`Forecaster::forecast`] applies this to every impl's prediction,
/// so numerical blow-ups deep in a model (an unstable AR fit, an FFT
/// overflow) can never leak past the trait boundary, and a model needs
/// no clamp of its own at its output. It is idempotent.
pub fn sanitize_forecast(values: &mut [f64]) {
    for v in values {
        if !(v.is_finite() && *v > 0.0) {
            *v = 0.0;
        }
    }
}

/// History windows for the forecaster tests.
#[cfg(test)]
pub(crate) mod test_windows {
    use femux_trace::repr::concurrency_per_minute;
    use femux_trace::synth::azure::{self, AzureFleetConfig};
    use femux_trace::synth::ibm::{self, IbmFleetConfig};

    /// The known numerical trouble-makers: degenerate windows, extreme
    /// dynamic range, magnitudes where squared errors overflow, and
    /// non-finite samples.
    pub(crate) fn adversarial() -> Vec<(&'static str, Vec<f64>)> {
        let with_sample_40 = |value: f64| -> Vec<f64> {
            (0..120)
                .map(|t| if t == 40 { value } else { (t % 9) as f64 })
                .collect()
        };
        vec![
            ("empty", Vec::new()),
            ("single", vec![2.0]),
            ("all-zeros", vec![0.0; 150]),
            ("constant", vec![3.5; 150]),
            (
                "spikes-1e6",
                (0..150)
                    .map(|t| if t % 17 == 0 { 1e6 } else { 0.1 })
                    .collect(),
            ),
            (
                "spikes-1e150",
                (0..150)
                    .map(|t| if t % 13 == 0 { 1e150 } else { 1.0 })
                    .collect(),
            ),
            (
                "alternating-extremes",
                (0..150)
                    .map(|t| if t % 2 == 0 { 1e-300 } else { 1e300 })
                    .collect(),
            ),
            (
                "mixed-sign-extremes",
                (0..150)
                    .map(|t| if t % 2 == 0 { f64::MAX } else { -f64::MAX })
                    .collect(),
            ),
            ("nan", with_sample_40(f64::NAN)),
            ("infinity", with_sample_40(f64::INFINITY)),
            ("negative-infinity", with_sample_40(f64::NEG_INFINITY)),
        ]
    }

    /// Windows at the edges of the smoothing lanes' zero-prefix start:
    /// one or two leading zeros, `-0.0` in and as the prefix, a prefix
    /// followed by a non-finite, negative or huge sample, and windows
    /// that are all zeros or nearly so.
    fn zero_prefixes() -> Vec<(String, Vec<f64>)> {
        let after = |prefix: &[f64]| -> Vec<f64> {
            let tail = (0..120 - prefix.len()).map(|t| 1.0 + (t % 7) as f64);
            prefix.iter().copied().chain(tail).collect()
        };
        let mut windows = vec![
            ("one-zero".to_string(), after(&[0.0])),
            ("two-zeros".into(), after(&[0.0, 0.0])),
            ("neg-zero-first".into(), after(&[-0.0, 0.0, 0.0])),
            ("neg-zero-second".into(), after(&[0.0, -0.0, 0.0])),
            ("neg-zero-one".into(), after(&[-0.0])),
            ("neg-zero-two".into(), after(&[-0.0, -0.0])),
            ("neg-zero-prefix".into(), after(&[-0.0; 30])),
            ("119-zeros".into(), after(&[0.0; 119])),
            ("all-neg-zero".into(), vec![-0.0; 120]),
            ("three-zeros".into(), vec![0.0; 3]),
        ];
        for (name, value) in [
            ("nan", f64::NAN),
            ("infinity", f64::INFINITY),
            ("minus-one", -1.0),
            ("max", f64::MAX),
        ] {
            let mut prefix = vec![0.0; 30];
            prefix.push(value);
            windows.push((format!("zeros-then-{name}"), after(&prefix)));
        }
        windows
    }

    /// The bit-identity sweep: 120-step windows (the paper's history)
    /// cut from seeded IBM-like and Azure-like fleets, sparse and
    /// all-zero windows, windows whose octiles repeat (SETAR's threshold
    /// candidates), the zero-prefix edges, and the adversarial battery.
    pub(crate) fn sweep() -> Vec<(String, Vec<f64>)> {
        let mut series = Vec::new();
        for seed in [3, 11] {
            let trace = ibm::generate(&IbmFleetConfig {
                n_apps: 6,
                span_days: 1,
                seed,
                max_invocations_per_app: 20_000,
                rate_scale: 1.0,
            });
            for (i, app) in trace.apps.iter().enumerate() {
                let minutes =
                    concurrency_per_minute(&app.invocations, trace.span_ms);
                series.push((format!("ibm-{seed}-{i}"), minutes));
            }
            let fleet = azure::generate(&AzureFleetConfig {
                n_apps: 6,
                days: 1,
                seed,
                rate_scale: 4.0,
            });
            for (i, app) in fleet.apps.iter().enumerate() {
                series.push((
                    format!("azure-{seed}-{i}"),
                    app.concurrency_series(),
                ));
            }
        }
        let mut windows = Vec::new();
        for (name, minutes) in &series {
            for start in [0, 410, 800, 1320] {
                let end = (start + 120).min(minutes.len());
                windows.push((
                    format!("{name}@{start}"),
                    minutes[start..end].to_vec(),
                ));
            }
        }
        windows.push((
            "sparse".into(),
            (0..120)
                .map(|t| if t % 29 == 3 { 0.5 * (t % 4) as f64 } else { 0.0 })
                .collect(),
        ));
        windows.push(("all-zero".into(), vec![0.0; 120]));
        windows.push((
            "repeated-octiles".into(),
            (0..120).map(|t| [0.0, 0.0, 1.0, 1.0, 1.0, 2.5][t % 6]).collect(),
        ));
        windows.push((
            "ramp".into(),
            (0..120).map(|t| 0.25 * t as f64).collect(),
        ));
        windows.extend(zero_prefixes());
        windows.extend(
            adversarial()
                .into_iter()
                .map(|(name, history)| (name.to_string(), history)),
        );
        windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_unique_names() {
        let mut names: Vec<&str> =
            ForecasterKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ForecasterKind::ALL.len());
    }

    #[test]
    fn build_matches_name() {
        for kind in ForecasterKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn every_forecaster_returns_horizon_values() {
        let history: Vec<f64> =
            (0..150).map(|t| ((t % 11) as f64) / 2.0).collect();
        for kind in ForecasterKind::ALL {
            let mut f = kind.build();
            for horizon in [0usize, 1, 5] {
                let pred = f.forecast(&history, horizon);
                assert_eq!(pred.len(), horizon, "{kind}");
                assert!(
                    pred.iter().all(|p| *p >= 0.0 && p.is_finite()),
                    "{kind} produced invalid values"
                );
            }
        }
    }

    #[test]
    fn sanitize_forecast_enforces_the_contract() {
        let mut values =
            [1.5, f64::NAN, -2.0, f64::INFINITY, 0.0, f64::NEG_INFINITY];
        sanitize_forecast(&mut values);
        assert_eq!(values, [1.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn no_forecast_is_negative_zero() {
        // `f64::max` may return either of two equal zeros, so a model's
        // own `max(0.0)` clamp leaves the sign of a zero forecast to the
        // build; the trait boundary settles it.
        let neg_zero = (-0.0f64).to_bits();
        let mut windows = test_windows::sweep();
        for len in 1..=120 {
            windows.push((format!("neg-zeros-{len}"), vec![-0.0; len]));
        }
        for kind in ForecasterKind::ALL {
            let mut f = kind.build();
            for (name, history) in &windows {
                for horizon in [1, 10] {
                    let pred = f.forecast(history, horizon);
                    assert!(
                        pred.iter().all(|v| v.to_bits() != neg_zero),
                        "{kind} on {name} at horizon {horizon}: {pred:?}"
                    );
                }
            }
        }
    }

    /// A model that predicts garbage: the provided `forecast` must clean
    /// it up without the impl's help.
    struct Garbage;

    impl Forecaster for Garbage {
        fn name(&self) -> &'static str {
            "garbage"
        }

        fn predict(&mut self, _history: &[f64], _horizon: usize) -> Vec<f64> {
            vec![-3.0, f64::NAN, f64::INFINITY, 1.5]
        }
    }

    #[test]
    fn forecast_sanitizes_whatever_predict_returns() {
        assert_eq!(Garbage.forecast(&[1.0], 4), [0.0, 0.0, 0.0, 1.5]);
    }

    #[test]
    fn every_forecaster_survives_adversarial_histories() {
        // Property: whatever history a forecaster is fed, NaN and ±∞
        // samples included, its output is exactly `horizon` finite,
        // non-negative values. A trailing +∞ is what the short-window
        // fallbacks that persist the last value would pass through.
        let mut histories = test_windows::adversarial();
        histories.push(("trailing-infinity", vec![1.0, f64::INFINITY]));
        // LSTM is the one in-tree impl outside `ForecasterKind::ALL`.
        let cfg = lstm::LstmConfig {
            window: 4,
            epochs: 2,
            ..lstm::LstmConfig::default()
        };
        let untrained = lstm::LstmForecaster::new(cfg);
        let mut trained = untrained.clone();
        trained.train(&(0..12).map(f64::from).collect::<Vec<_>>());
        assert!(trained.is_trained());
        for (label, history) in &histories {
            let mut forecasters: Vec<(String, Box<dyn Forecaster>)> =
                ForecasterKind::ALL
                    .iter()
                    .map(|kind| (kind.to_string(), kind.build()))
                    .collect();
            forecasters.push((
                "untrained lstm".into(),
                Box::new(untrained.clone()),
            ));
            forecasters
                .push(("trained lstm".into(), Box::new(trained.clone())));
            for (name, f) in &mut forecasters {
                for horizon in [1usize, 4, 60] {
                    let pred = f.forecast(history, horizon);
                    assert_eq!(
                        pred.len(),
                        horizon,
                        "{name} on {label}: wrong length"
                    );
                    assert!(
                        pred.iter().all(|p| p.is_finite() && *p >= 0.0),
                        "{name} on {label} horizon {horizon} leaked a \
                         bad value: {pred:?}"
                    );
                }
            }
        }
    }

    /// Idle minutes (long enough for all-zero windows, one of them
    /// `-0.0`), then a burst every 23 minutes: windows open with zeros
    /// ahead of the same burst for many steps, and a window ten steps on
    /// may open with zeros ahead of a later one.
    fn bursty_series() -> Vec<f64> {
        (0..400)
            .map(|t| match t {
                40..=42 => [2.0, 0.5, 1.0][t - 40],
                100 => -0.0,
                170.. if t % 23 < 3 => 1.0 + (t % 7) as f64 * 0.25,
                _ => 0.0,
            })
            .collect()
    }

    fn dense_series() -> Vec<f64> {
        (0..300)
            .map(|t| 2.0 + ((t as f64) * 0.21).sin().abs() * 3.0)
            .collect()
    }

    #[test]
    fn a_kept_forecaster_forecasts_like_a_fresh_one() {
        let bits = |values: &[f64]| -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        };
        let sweep = test_windows::sweep();
        let mut foreign = sweep.iter().cycle();
        for (series_name, series) in
            [("bursty", bursty_series()), ("dense", dense_series())]
        {
            // (start, end, horizon) of each window: sliding as serving
            // refits, strided as labelling does, growing as at start-up.
            let n = series.len();
            let sliding: Vec<_> = (120..n).map(|t| (t - 120, t, 1)).collect();
            let strided: Vec<_> = (120..n)
                .step_by(10)
                .map(|t| (t - 120, t, 10.min(n - t)))
                .collect();
            let growing: Vec<_> = (1..=120).map(|t| (0, t, 1)).collect();
            let patterns = [
                ("sliding", sliding),
                ("strided", strided),
                ("growing", growing),
            ];
            for (pattern, windows) in patterns {
                for kind in ForecasterKind::ALL {
                    let mut kept = kind.build();
                    let mut check = |what: &str, history: &[f64], horizon| {
                        assert_eq!(
                            bits(&kept.forecast(history, horizon)),
                            bits(&kind.build().forecast(history, horizon)),
                            "{kind}, {pattern} {series_name}: {what}"
                        );
                    };
                    for (i, &(start, end, horizon)) in
                        windows.iter().enumerate()
                    {
                        let window = &series[start..end];
                        // Every third window follows foreign ones rather
                        // than its predecessor: two windows that differ
                        // only in their first sample, then a sweep
                        // window, so a memo that compared less than the
                        // start and every sample would be read stale.
                        if i % 3 == 2 {
                            for first in [1.0, 2.5] {
                                let mut twin = window.to_vec();
                                twin[0] = first;
                                check("first-sample twin", &twin, horizon);
                            }
                            let (name, history) =
                                foreign.next().expect("cycle");
                            check(name, history, horizon);
                        }
                        let what = format!("window {start}..{end}");
                        check(&what, window, horizon);
                    }
                }
            }
        }
    }

    #[test]
    fn femux_set_excludes_references() {
        assert!(
            !ForecasterKind::FEMUX_SET.contains(&ForecasterKind::Naive)
        );
        assert!(!ForecasterKind::FEMUX_SET
            .contains(&ForecasterKind::MovingAverage));
        assert_eq!(ForecasterKind::FEMUX_SET.len(), 6);
    }
}
