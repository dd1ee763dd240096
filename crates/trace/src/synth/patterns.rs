//! Arrival-process generators.
//!
//! Each serverless application in the synthetic fleets draws one of these
//! traffic shapes. The catalogue mirrors the behaviours the paper's
//! characterization highlights: steady sub-second traffic, diurnal/weekly
//! periodicity with seasonal drift (Fig. 1, Fig. 16), intermittent ON/OFF
//! bursts (CV > 1 for 96 % of workloads), timer-driven fixed-period
//! triggers (dominant in Huawei's fleet), and sporadic low-volume apps.

use femux_stats::rng::Rng;

use crate::types::{MS_PER_DAY, MS_PER_HOUR};

/// A stochastic arrival process over a finite span.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Homogeneous Poisson arrivals at `rate_per_sec`.
    Steady {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Inhomogeneous Poisson with daily and weekly modulation plus a
    /// linear seasonal ramp, matching the fleet-level shape of Fig. 1.
    Diurnal {
        /// Baseline arrivals per second.
        base_rate: f64,
        /// Relative amplitude of the daily cycle in `[0, 1]`.
        daily_amp: f64,
        /// Multiplier applied on weekends (e.g. 0.6).
        weekend_factor: f64,
        /// Total relative traffic growth across the span (e.g. 0.2 for a
        /// 20 % ramp, the "January effect").
        ramp: f64,
        /// Phase offset of the daily peak in hours.
        peak_hour: f64,
    },
    /// Two-state ON/OFF process: exponential ON periods with Poisson
    /// arrivals, exponential OFF periods with none.
    OnOff {
        /// Arrivals per second while ON.
        on_rate: f64,
        /// Mean ON duration in seconds.
        mean_on_secs: f64,
        /// Mean OFF duration in seconds.
        mean_off_secs: f64,
    },
    /// Fixed-period timer triggers with bounded jitter.
    Timer {
        /// Trigger period in seconds.
        period_secs: f64,
        /// Uniform jitter applied to each trigger, in milliseconds.
        jitter_ms: u64,
    },
    /// Markov-modulated Poisson process with a quiet base rate and rare
    /// high-rate bursts — the bursty shape serverless schedulers dread.
    Bursty {
        /// Arrivals per second in the quiet state.
        base_rate: f64,
        /// Arrivals per second during a burst.
        burst_rate: f64,
        /// Mean burst duration in seconds.
        mean_burst_secs: f64,
        /// Mean quiet-gap duration in seconds.
        mean_gap_secs: f64,
    },
}

impl ArrivalPattern {
    /// Returns an upper bound on the instantaneous rate (per second),
    /// used by the thinning sampler.
    fn max_rate(&self) -> f64 {
        match *self {
            ArrivalPattern::Steady { rate_per_sec } => rate_per_sec,
            ArrivalPattern::Diurnal {
                base_rate,
                daily_amp,
                ramp,
                ..
            } => base_rate * (1.0 + daily_amp) * (1.0 + ramp.max(0.0)),
            ArrivalPattern::OnOff { on_rate, .. } => on_rate,
            ArrivalPattern::Timer { period_secs, .. } => 1.0 / period_secs,
            ArrivalPattern::Bursty {
                base_rate,
                burst_rate,
                ..
            } => base_rate.max(burst_rate),
        }
    }

    /// Returns the instantaneous rate at `t_ms` for rate-modulated
    /// patterns (`Steady`, `Diurnal`); other patterns are generated
    /// directly.
    fn rate_at(&self, t_ms: u64, span_ms: u64) -> f64 {
        match *self {
            ArrivalPattern::Steady { rate_per_sec } => rate_per_sec,
            ArrivalPattern::Diurnal {
                base_rate,
                daily_amp,
                weekend_factor,
                ramp,
                peak_hour,
            } => {
                let day_frac =
                    (t_ms % MS_PER_DAY) as f64 / MS_PER_DAY as f64;
                let peak_frac = peak_hour / 24.0;
                let daily = 1.0
                    + daily_amp
                        * (2.0 * std::f64::consts::PI
                            * (day_frac - peak_frac))
                            .cos();
                let day_index = t_ms / MS_PER_DAY;
                // Day 0 is a Monday; days 5 and 6 of each week are the
                // weekend.
                let weekly = if day_index % 7 >= 5 {
                    weekend_factor
                } else {
                    1.0
                };
                let progress = t_ms as f64 / span_ms.max(1) as f64;
                base_rate * daily * weekly * (1.0 + ramp * progress)
            }
            #[expect(
                clippy::unreachable,
                reason = "internal invariant: rate_at is only called from generate() on the rate-modulated arms matched above"
            )]
            _ => unreachable!("rate_at only for rate-modulated patterns"),
        }
    }

    /// Generates arrival timestamps (ms, sorted, within `[0, span_ms)`).
    ///
    /// `cap` bounds the number of generated arrivals so that heavy-traffic
    /// applications cannot exhaust memory; generation stops at the cap.
    pub fn generate(
        &self,
        span_ms: u64,
        cap: usize,
        rng: &mut Rng,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        match *self {
            ArrivalPattern::Steady { .. }
            | ArrivalPattern::Diurnal { .. } => {
                // Ogata thinning against the max-rate envelope.
                let lambda_max = self.max_rate();
                if lambda_max <= 0.0 {
                    return out;
                }
                let mut t = 0.0f64; // seconds
                let span_s = span_ms as f64 / 1_000.0;
                while out.len() < cap {
                    t += rng.exp(lambda_max);
                    if t >= span_s {
                        break;
                    }
                    let t_ms = (t * 1_000.0) as u64;
                    let accept =
                        self.rate_at(t_ms, span_ms) / lambda_max;
                    if rng.chance(accept) {
                        out.push(t_ms);
                    }
                }
            }
            ArrivalPattern::OnOff {
                on_rate,
                mean_on_secs,
                mean_off_secs,
            } => gen_two_state(
                span_ms,
                cap,
                rng,
                on_rate,
                0.0,
                mean_on_secs,
                mean_off_secs,
                &mut out,
            ),
            ArrivalPattern::Bursty {
                base_rate,
                burst_rate,
                mean_burst_secs,
                mean_gap_secs,
            } => gen_two_state(
                span_ms,
                cap,
                rng,
                burst_rate,
                base_rate,
                mean_burst_secs,
                mean_gap_secs,
                &mut out,
            ),
            ArrivalPattern::Timer {
                period_secs,
                jitter_ms,
            } => {
                let period_ms = (period_secs * 1_000.0).max(1.0) as u64;
                let mut t = period_ms / 2;
                while t < span_ms && out.len() < cap {
                    let jitter = if jitter_ms > 0 {
                        rng.below(2 * jitter_ms + 1) as i64
                            - jitter_ms as i64
                    } else {
                        0
                    };
                    let stamp = t.saturating_add_signed(jitter);
                    if stamp < span_ms {
                        out.push(stamp);
                    }
                    t += period_ms;
                }
                out.sort_unstable();
            }
        }
        out
    }
}

/// Generates arrivals for a two-state modulated Poisson process: the
/// "high" state emits at `high_rate` for exp(`mean_high_secs`) stretches,
/// the "low" state at `low_rate` for exp(`mean_low_secs`) stretches.
#[expect(
    clippy::too_many_arguments,
    reason = "the two-state process needs both rates and both mean sojourns"
)]
fn gen_two_state(
    span_ms: u64,
    cap: usize,
    rng: &mut Rng,
    high_rate: f64,
    low_rate: f64,
    mean_high_secs: f64,
    mean_low_secs: f64,
    out: &mut Vec<u64>,
) {
    let span_s = span_ms as f64 / 1_000.0;
    let mut t = 0.0f64;
    let mut high = rng.chance(0.5);
    while t < span_s && out.len() < cap {
        let (rate, mean_stay) = if high {
            (high_rate, mean_high_secs)
        } else {
            (low_rate, mean_low_secs)
        };
        let stay = rng.exp(1.0 / mean_stay.max(1e-9));
        let state_end = (t + stay).min(span_s);
        if rate > 0.0 {
            let mut s = t;
            loop {
                s += rng.exp(rate);
                if s >= state_end || out.len() >= cap {
                    break;
                }
                out.push((s * 1_000.0) as u64);
            }
        }
        t = state_end;
        high = !high;
    }
}

/// Convenience: expected daily arrival counts for a pattern, computed by
/// numerically integrating the rate function in hourly slices. Used by the
/// cheap fleet-level daily-traffic figures (Fig. 1, Fig. 16) that must not
/// materialize billions of invocations.
pub fn expected_daily_counts(
    pattern: &ArrivalPattern,
    span_ms: u64,
) -> Vec<f64> {
    let days = span_ms.div_ceil(MS_PER_DAY) as usize;
    let mut out = vec![0.0; days];
    match pattern {
        ArrivalPattern::Steady { .. } | ArrivalPattern::Diurnal { .. } => {
            for (d, slot) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for h in 0..24 {
                    let t = d as u64 * MS_PER_DAY
                        + h * MS_PER_HOUR
                        + MS_PER_HOUR / 2;
                    if t < span_ms {
                        acc += pattern.rate_at(t, span_ms) * 3_600.0;
                    }
                }
                *slot = acc;
            }
        }
        ArrivalPattern::OnOff {
            on_rate,
            mean_on_secs,
            mean_off_secs,
        } => {
            let duty = mean_on_secs / (mean_on_secs + mean_off_secs);
            out.fill(on_rate * duty * 86_400.0);
        }
        ArrivalPattern::Bursty {
            base_rate,
            burst_rate,
            mean_burst_secs,
            mean_gap_secs,
        } => {
            let duty = mean_burst_secs / (mean_burst_secs + mean_gap_secs);
            out.fill(
                (burst_rate * duty + base_rate * (1.0 - duty)) * 86_400.0,
            );
        }
        ArrivalPattern::Timer { period_secs, .. } => {
            out.fill(86_400.0 / period_secs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_stats::desc::{coefficient_of_variation, mean};

    #[test]
    fn steady_rate_matches() {
        let mut rng = Rng::seed_from_u64(1);
        let pat = ArrivalPattern::Steady { rate_per_sec: 5.0 };
        let arrivals = pat.generate(100_000, usize::MAX, &mut rng);
        // 100 s at 5/s: expect ~500.
        assert!((arrivals.len() as f64 - 500.0).abs() < 80.0);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cap_is_respected() {
        let mut rng = Rng::seed_from_u64(2);
        let pat = ArrivalPattern::Steady { rate_per_sec: 100.0 };
        let arrivals = pat.generate(1_000_000, 50, &mut rng);
        assert_eq!(arrivals.len(), 50);
    }

    #[test]
    fn diurnal_peaks_at_configured_hour() {
        let mut rng = Rng::seed_from_u64(3);
        let pat = ArrivalPattern::Diurnal {
            base_rate: 2.0,
            daily_amp: 0.8,
            weekend_factor: 1.0,
            ramp: 0.0,
            peak_hour: 12.0,
        };
        let arrivals = pat.generate(MS_PER_DAY, usize::MAX, &mut rng);
        let mut hourly = [0u32; 24];
        for a in &arrivals {
            hourly[(a / MS_PER_HOUR) as usize] += 1;
        }
        let noon = hourly[11] + hourly[12];
        let midnight = hourly[0] + hourly[23];
        assert!(noon > 2 * midnight, "noon {noon} vs midnight {midnight}");
    }

    #[test]
    fn diurnal_weekend_dip() {
        let pat = ArrivalPattern::Diurnal {
            base_rate: 1.0,
            daily_amp: 0.0,
            weekend_factor: 0.4,
            ramp: 0.0,
            peak_hour: 12.0,
        };
        let span = 7 * MS_PER_DAY;
        let daily = expected_daily_counts(&pat, span);
        // Days 5, 6 are the weekend.
        assert!(daily[5] < 0.5 * daily[0]);
        assert!((daily[0] - 86_400.0).abs() < 1.0);
    }

    #[test]
    fn ramp_grows_traffic() {
        let pat = ArrivalPattern::Diurnal {
            base_rate: 1.0,
            daily_amp: 0.0,
            weekend_factor: 1.0,
            ramp: 0.5,
            peak_hour: 0.0,
        };
        let daily = expected_daily_counts(&pat, 14 * MS_PER_DAY);
        assert!(daily[13] > daily[0] * 1.3);
    }

    #[test]
    fn onoff_is_highly_variable() {
        let mut rng = Rng::seed_from_u64(4);
        let pat = ArrivalPattern::OnOff {
            on_rate: 10.0,
            mean_on_secs: 30.0,
            mean_off_secs: 600.0,
        };
        let arrivals = pat.generate(86_400_000, usize::MAX, &mut rng);
        assert!(arrivals.len() > 100);
        let iats: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1_000.0)
            .collect();
        assert!(
            coefficient_of_variation(&iats) > 1.0,
            "CV {}",
            coefficient_of_variation(&iats)
        );
    }

    #[test]
    fn timer_period_is_tight() {
        let mut rng = Rng::seed_from_u64(5);
        let pat = ArrivalPattern::Timer {
            period_secs: 60.0,
            jitter_ms: 100,
        };
        let arrivals = pat.generate(3_600_000, usize::MAX, &mut rng);
        assert_eq!(arrivals.len(), 60);
        let iats: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1_000.0)
            .collect();
        assert!((mean(&iats) - 60.0).abs() < 0.5);
        assert!(coefficient_of_variation(&iats) < 0.1);
    }

    #[test]
    fn bursty_mixes_rates() {
        let mut rng = Rng::seed_from_u64(6);
        let pat = ArrivalPattern::Bursty {
            base_rate: 0.1,
            burst_rate: 20.0,
            mean_burst_secs: 10.0,
            mean_gap_secs: 300.0,
        };
        let arrivals = pat.generate(6 * 3_600_000, usize::MAX, &mut rng);
        let expected = expected_daily_counts(&pat, MS_PER_DAY)[0] / 4.0;
        assert!(
            (arrivals.len() as f64) > expected * 0.4
                && (arrivals.len() as f64) < expected * 2.5,
            "got {} expected ~{expected}",
            arrivals.len()
        );
    }

    #[test]
    fn expected_counts_match_simulation_for_steady() {
        let mut rng = Rng::seed_from_u64(7);
        let pat = ArrivalPattern::Steady { rate_per_sec: 2.0 };
        let expected = expected_daily_counts(&pat, MS_PER_DAY)[0];
        let actual =
            pat.generate(MS_PER_DAY, usize::MAX, &mut rng).len() as f64;
        assert!((actual - expected).abs() / expected < 0.05);
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut rng = Rng::seed_from_u64(8);
        let pat = ArrivalPattern::Steady { rate_per_sec: 0.0 };
        assert!(pat.generate(MS_PER_DAY, usize::MAX, &mut rng).is_empty());
    }
}
