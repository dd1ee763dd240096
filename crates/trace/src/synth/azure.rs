//! Synthetic "Azure Functions 2019" fleet.
//!
//! The paper's §5.1 evaluation runs FeMux and every baseline on the Azure
//! 2019 dataset: per-minute invocation counts for 14 days, daily per-app
//! average execution times, and daily app memory. This generator produces
//! a fleet with the same schema and the published shape: Zipf-skewed
//! popularity, ~78 % of apps with IAT CV > 1, ~70 % of apps with
//! sub-second average executions, and a class mix (periodic, bursty,
//! steady, sporadic, trending) that gives the forecaster-multiplexing
//! question substance — different classes genuinely favour different
//! forecasters.

use femux_stats::rng::Rng;

use crate::types::{
    AppConfig, AppId, AppRecord, Invocation, Trace, WorkloadKind,
    MS_PER_DAY, MS_PER_MIN,
};

/// Minutes per day.
pub const MINUTES_PER_DAY: usize = 1_440;

/// Traffic-shape class of a synthetic Azure application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AzureClass {
    /// Daily-periodic traffic (office-hours style).
    PeriodicDaily,
    /// Short-period oscillation (tens of minutes to hours).
    PeriodicShort,
    /// Approximately constant rate.
    Steady,
    /// ON/OFF bursts separated by quiet stretches.
    Bursty,
    /// Rare, irregular invocations.
    Sporadic,
    /// Slowly growing baseline.
    Trending,
}

/// One synthetic Azure application: minute-resolution counts plus the
/// daily metadata the real dataset carries.
#[derive(Debug, Clone, PartialEq)]
pub struct AzureApp {
    /// Application identity.
    pub id: AppId,
    /// Ground-truth traffic class (not visible to FeMux; used by tests
    /// and ablations).
    pub class: AzureClass,
    /// Invocations per minute over the whole span.
    pub minute_counts: Vec<u32>,
    /// Average execution time in milliseconds (per day, as in the real
    /// dataset's daily statistics).
    pub daily_avg_exec_ms: Vec<f64>,
    /// Allocated/consumed memory per app in MB.
    pub mem_mb: u32,
}

impl AzureApp {
    /// Returns the total invocation count.
    pub fn total_invocations(&self) -> u64 {
        self.minute_counts.iter().map(|&c| c as u64).sum()
    }

    /// Returns the execution time (ms) in effect at a given minute.
    pub fn exec_ms_at_minute(&self, minute: usize) -> f64 {
        let day = (minute / MINUTES_PER_DAY)
            .min(self.daily_avg_exec_ms.len().saturating_sub(1));
        self.daily_avg_exec_ms[day]
    }

    /// Converts per-minute counts into Knative-style average concurrency
    /// per minute: `count * exec_seconds / 60`.
    pub fn concurrency_series(&self) -> Vec<f64> {
        self.minute_counts
            .iter()
            .enumerate()
            .map(|(m, &c)| {
                c as f64 * (self.exec_ms_at_minute(m) / 1_000.0) / 60.0
            })
            .collect()
    }
}

/// Configuration for the Azure-like fleet generator.
#[derive(Debug, Clone)]
pub struct AzureFleetConfig {
    /// Number of applications.
    pub n_apps: usize,
    /// Span in days (the real dataset has 14; evaluations use 12).
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
    /// Global multiplier on arrival rates (volume scaling).
    pub rate_scale: f64,
}

impl Default for AzureFleetConfig {
    fn default() -> Self {
        AzureFleetConfig {
            n_apps: 1_000,
            days: 14,
            seed: 0xA2E,
            rate_scale: 1.0,
        }
    }
}

impl AzureFleetConfig {
    /// A reduced fleet for tests.
    pub fn small(seed: u64) -> Self {
        AzureFleetConfig {
            n_apps: 60,
            days: 4,
            seed,
            rate_scale: 0.5,
        }
    }
}

/// The synthetic fleet.
#[derive(Debug, Clone)]
pub struct AzureFleet {
    /// Per-application records.
    pub apps: Vec<AzureApp>,
    /// Span in days.
    pub days: usize,
}

fn pick_class(rng: &mut Rng) -> AzureClass {
    let weights = [0.15, 0.08, 0.10, 0.27, 0.35, 0.05];
    match rng.weighted_index(&weights) {
        0 => AzureClass::PeriodicDaily,
        1 => AzureClass::PeriodicShort,
        2 => AzureClass::Steady,
        3 => AzureClass::Bursty,
        4 => AzureClass::Sporadic,
        _ => AzureClass::Trending,
    }
}

/// Rate (invocations/minute) of an app at a given minute.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per per-app draw of the class generator"
)]
fn rate_at(
    class: AzureClass,
    base: f64,
    minute: usize,
    total_minutes: usize,
    phase: f64,
    period_min: f64,
    burst_state: &mut BurstState,
    rng: &mut Rng,
) -> f64 {
    match class {
        AzureClass::PeriodicDaily => {
            let frac = (minute % MINUTES_PER_DAY) as f64
                / MINUTES_PER_DAY as f64;
            base * (1.0
                + 0.9
                    * (2.0 * std::f64::consts::PI * (frac - phase)).cos())
            .max(0.0)
        }
        AzureClass::PeriodicShort => {
            let frac = minute as f64 / period_min;
            base * (1.0
                + 0.95 * (2.0 * std::f64::consts::PI * frac + phase).cos())
            .max(0.0)
        }
        AzureClass::Steady => base,
        AzureClass::Bursty => {
            burst_state.step(rng);
            if burst_state.on {
                base * 20.0
            } else {
                base * 0.05
            }
        }
        AzureClass::Sporadic => base,
        AzureClass::Trending => {
            base * (0.4 + 1.2 * minute as f64 / total_minutes as f64)
        }
    }
}

/// Minute-domain two-state burst process.
#[derive(Debug)]
struct BurstState {
    on: bool,
    p_start: f64,
    p_stop: f64,
}

impl BurstState {
    fn step(&mut self, rng: &mut Rng) {
        if self.on {
            if rng.chance(self.p_stop) {
                self.on = false;
            }
        } else if rng.chance(self.p_start) {
            self.on = true;
        }
    }
}

/// Generates an Azure-like fleet.
pub fn generate(cfg: &AzureFleetConfig) -> AzureFleet {
    let mut master = Rng::seed_from_u64(cfg.seed);
    let total_minutes = cfg.days * MINUTES_PER_DAY;
    let mut apps = Vec::with_capacity(cfg.n_apps);
    for i in 0..cfg.n_apps {
        let mut rng = master.fork();
        let class = pick_class(&mut rng);
        // Zipf-flavoured base rate: log-uniform across four decades,
        // giving the heavy popularity skew of the real fleet.
        let base = cfg.rate_scale
            * match class {
                AzureClass::Sporadic => rng.lognormal((0.01f64).ln(), 1.0),
                _ => (10.0f64).powf(rng.range_f64(-2.0, 1.6)),
            };
        let phase = rng.range_f64(0.0, 1.0);
        let period_min = rng.range_f64(30.0, 240.0);
        let mut burst = BurstState {
            on: rng.chance(0.2),
            p_start: 1.0 / rng.range_f64(30.0, 480.0),
            p_stop: 1.0 / rng.range_f64(5.0, 60.0),
        };
        let mut counts = Vec::with_capacity(total_minutes);
        for minute in 0..total_minutes {
            let lambda = rate_at(
                class,
                base,
                minute,
                total_minutes,
                phase,
                period_min,
                &mut burst,
                &mut rng,
            );
            counts.push(rng.poisson(lambda).min(u32::MAX as u64) as u32);
        }
        // Daily average execution: drawn once per app with small daily
        // wobble; median of per-app means ~450 ms => ~70 % sub-second.
        let app_exec = rng.lognormal((450.0f64).ln(), 1.5).clamp(1.0, 60_000.0);
        let daily_avg_exec_ms: Vec<f64> = (0..cfg.days)
            .map(|_| (app_exec * rng.lognormal(0.0, 0.1)).clamp(1.0, 60_000.0))
            .collect();
        let mem_mb =
            rng.lognormal((150.0f64).ln(), 0.8).clamp(32.0, 4_096.0) as u32;
        apps.push(AzureApp {
            id: AppId(i as u32),
            class,
            minute_counts: counts,
            daily_avg_exec_ms,
            mem_mb,
        });
    }
    femux_obs::counter_add("trace.synth.azure.apps", apps.len() as u64);
    AzureFleet {
        apps,
        days: cfg.days,
    }
}

impl AzureFleet {
    /// Materializes the fleet as a millisecond [`Trace`], distributing
    /// each minute's invocations uniformly within the minute (the paper's
    /// replay convention) and applying the app's daily execution time.
    pub fn to_trace(&self) -> Trace {
        let span_ms = self.days as u64 * MS_PER_DAY;
        let mut trace = Trace::new(span_ms);
        for app in &self.apps {
            let mut invocations = Vec::new();
            for (minute, &count) in app.minute_counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let base = minute as u64 * MS_PER_MIN;
                let n = count as u64;
                let exec = app.exec_ms_at_minute(minute).max(1.0) as u32;
                for k in 0..n {
                    let offset = (2 * k + 1) * MS_PER_MIN / (2 * n);
                    invocations.push(Invocation {
                        start_ms: base + offset,
                        duration_ms: exec,
                        delay_ms: 0,
                    });
                }
            }
            trace.apps.push(AppRecord {
                id: app.id,
                kind: WorkloadKind::Application,
                config: AppConfig {
                    mem_mb: app.mem_mb,
                    concurrency: 1,
                    ..AppConfig::default()
                },
                mem_used_mb: app.mem_mb,
                cold_start_ms: 808,
                invocations,
            });
        }
        trace
    }

    /// Returns total invocations across the fleet.
    pub fn total_invocations(&self) -> u64 {
        self.apps.iter().map(|a| a.total_invocations()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_stats::desc::fraction_where;

    #[test]
    fn deterministic_and_sized() {
        let a = generate(&AzureFleetConfig::small(1));
        let b = generate(&AzureFleetConfig::small(1));
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.apps.len(), 60);
        assert_eq!(a.apps[0].minute_counts.len(), 4 * MINUTES_PER_DAY);
    }

    #[test]
    fn exec_time_marginal() {
        let fleet = generate(&AzureFleetConfig {
            n_apps: 800,
            days: 2,
            seed: 2,
            rate_scale: 0.1,
        });
        let means: Vec<f64> = fleet
            .apps
            .iter()
            .map(|a| {
                a.daily_avg_exec_ms.iter().sum::<f64>()
                    / a.daily_avg_exec_ms.len() as f64
                    / 1_000.0
            })
            .collect();
        let sub_second = fraction_where(&means, |x| x < 1.0);
        assert!(
            (sub_second - 0.70).abs() < 0.08,
            "sub-second fraction {sub_second}"
        );
    }

    #[test]
    fn popularity_is_skewed() {
        let fleet = generate(&AzureFleetConfig {
            n_apps: 400,
            days: 2,
            seed: 3,
            rate_scale: 1.0,
        });
        let mut volumes: Vec<u64> =
            fleet.apps.iter().map(|a| a.total_invocations()).collect();
        volumes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = volumes.iter().sum();
        let top_decile: u64 = volumes[..40].iter().sum();
        assert!(
            top_decile as f64 / total as f64 > 0.5,
            "top 10% hold {} of traffic",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn periodic_apps_show_daily_cycle() {
        let fleet = generate(&AzureFleetConfig {
            n_apps: 200,
            days: 4,
            seed: 4,
            rate_scale: 1.0,
        });
        let app = fleet
            .apps
            .iter()
            .find(|a| {
                a.class == AzureClass::PeriodicDaily
                    && a.total_invocations() > 5_000
            })
            .expect("a busy periodic app exists");
        // Fold onto a day and compare peak vs trough thirds.
        let mut folded = vec![0u64; MINUTES_PER_DAY];
        for (m, &c) in app.minute_counts.iter().enumerate() {
            folded[m % MINUTES_PER_DAY] += c as u64;
        }
        let max = *folded.iter().max().expect("non-empty");
        let min = *folded.iter().min().expect("non-empty");
        assert!(max > 3 * (min + 1), "max {max} min {min}");
    }

    #[test]
    fn trending_apps_grow() {
        let fleet = generate(&AzureFleetConfig {
            n_apps: 300,
            days: 4,
            seed: 5,
            rate_scale: 1.0,
        });
        let app = fleet
            .apps
            .iter()
            .find(|a| {
                a.class == AzureClass::Trending
                    && a.total_invocations() > 2_000
            })
            .expect("a busy trending app exists");
        let half = app.minute_counts.len() / 2;
        let first: u64 =
            app.minute_counts[..half].iter().map(|&c| c as u64).sum();
        let second: u64 =
            app.minute_counts[half..].iter().map(|&c| c as u64).sum();
        assert!(second > first, "first {first} second {second}");
    }

    #[test]
    fn to_trace_preserves_counts() {
        let fleet = generate(&AzureFleetConfig::small(6));
        let trace = fleet.to_trace();
        assert!(trace.validate().is_ok());
        assert_eq!(trace.total_invocations(), fleet.total_invocations());
    }

    #[test]
    fn concurrency_series_scales_with_exec() {
        let app = AzureApp {
            id: AppId(0),
            class: AzureClass::Steady,
            minute_counts: vec![60, 120],
            daily_avg_exec_ms: vec![1_000.0],
            mem_mb: 128,
        };
        let conc = app.concurrency_series();
        // 60 invocations of 1 s in a minute = concurrency 1.
        assert!((conc[0] - 1.0).abs() < 1e-9);
        assert!((conc[1] - 2.0).abs() < 1e-9);
    }
}
