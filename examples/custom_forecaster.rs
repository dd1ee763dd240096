//! Extending FeMux: plug a custom forecaster into the simulator and
//! compare it against the built-in set on your own workload.
//!
//! The paper stresses that providers "can use their preferred set of
//! forecasters and metrics of interest" — the `Forecaster` trait is the
//! extension point.
//!
//! ```sh
//! cargo run --release --example custom_forecaster
//! ```

use femux_repro::forecast::{Forecaster, ForecasterKind};
use femux_repro::rum::RumSpec;
use femux_repro::sim::{simulate_app, ForecastPolicy, SimConfig};
use femux_repro::stats::rng::Rng;
use femux_repro::trace::types::{
    AppId, AppRecord, Invocation, WorkloadKind,
};

/// A seasonal-naive forecaster: predicts the value observed one period
/// ago. Four lines of logic, and on strongly daily-periodic traffic it
/// is hard to beat.
struct SeasonalNaive {
    period: usize,
}

impl Forecaster for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        (0..horizon)
            .map(|h| {
                let idx = (history.len() + h).checked_sub(self.period);
                match idx.and_then(|i| history.get(i)) {
                    Some(&v) => v.max(0.0),
                    None => history.last().copied().unwrap_or(0.0),
                }
            })
            .collect()
    }
}

fn main() {
    // An hourly-periodic workload: arrival rate swings between ~5 and
    // ~55 per second with a one-hour period, so capacity demand moves
    // between 1 and ~6 pods — room for forecasters to differ.
    let mut rng = Rng::seed_from_u64(0xCAFE);
    let span = 12 * 3_600_000u64;
    let minutes = (span / 60_000) as usize;
    let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
    app.config.concurrency = 10;
    app.mem_used_mb = 512;
    for m in 0..minutes {
        let rate_per_sec = 30.0
            + 25.0
                * (2.0 * std::f64::consts::PI * m as f64 / 60.0).sin();
        let n = rng.poisson(rate_per_sec * 60.0);
        for k in 0..n {
            app.invocations.push(Invocation {
                start_ms: m as u64 * 60_000 + (k * 60_000) / n.max(1),
                duration_ms: 1_000,
                delay_ms: 0,
            });
        }
    }
    println!(
        "workload: {} invocations over 12 h (hourly period)\n",
        app.invocations.len()
    );

    let sim_cfg = SimConfig {
        respect_min_scale: false,
        ..SimConfig::default()
    };
    let rum = RumSpec::default_paper();
    let mut rows: Vec<(String, f64, u64, f64)> = Vec::new();

    // The custom forecaster: the workload's period is 60 minutes, so a
    // seasonal-naive with period 60 predicts each minute from the same
    // minute one hour earlier.
    let mut custom = ForecastPolicy::new(Box::new(SeasonalNaive {
        period: 60,
    }));
    let res = simulate_app(&app, &mut custom, span, &sim_cfg);
    rows.push((
        "seasonal-naive (custom)".into(),
        rum.evaluate(&res.costs),
        res.costs.cold_starts,
        res.costs.wasted_gb_seconds,
    ));

    for kind in [
        ForecasterKind::Ar,
        ForecasterKind::Fft,
        ForecasterKind::Ses,
        ForecasterKind::Markov,
    ] {
        let mut policy = ForecastPolicy::new(kind.build());
        let res = simulate_app(&app, &mut policy, span, &sim_cfg);
        rows.push((
            kind.name().into(),
            rum.evaluate(&res.costs),
            res.costs.cold_starts,
            res.costs.wasted_gb_seconds,
        ));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    println!("{:<26} {:>8} {:>12} {:>14}", "policy", "RUM", "cold starts", "wasted GB-s");
    for (name, rum_val, cs, waste) in rows {
        println!("{name:<26} {rum_val:>8.1} {cs:>12} {waste:>14.1}");
    }
    println!(
        "\nAny type implementing `Forecaster` slots into ForecastPolicy, \
         FeMux's forecaster set, and the offline trainer."
    );
}
