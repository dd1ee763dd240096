//! Hybrid idle-time histogram policy (Shahrad et al., ATC '20).
//!
//! The "Serverless in the Wild" policy tracks each application's idle
//! times in a histogram. When the distribution is usable, the container
//! is shut down right after an invocation, *pre-warmed* shortly before
//! the 5th-percentile idle time elapses, and kept alive until the 99th
//! percentile; out-of-bounds or pattern-less apps fall back to a fixed
//! keep-alive. This is the adaptive-keep-alive ancestor FeMux's related
//! work section positions against.

use femux_sim::policy::{IdleRun, IdleTicks, PolicyCtx, ScalingPolicy};

/// Idle-time histogram with minute-granularity bins.
#[derive(Debug, Clone)]
pub struct IdleHistogram {
    /// Bin k counts idle times in `[k, k+1)` minutes; the last bin
    /// absorbs everything longer.
    bins: Vec<u64>,
    total: u64,
}

impl IdleHistogram {
    /// Creates a histogram covering up to `max_minutes`.
    pub fn new(max_minutes: usize) -> Self {
        IdleHistogram {
            bins: vec![0; max_minutes.max(1)],
            total: 0,
        }
    }

    /// Records an idle time in minutes.
    pub fn record(&mut self, idle_minutes: f64) {
        let idx =
            (idle_minutes.max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Returns the number of recorded idle times.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns the `q`-quantile in minutes (upper bin edge).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (k, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return (k + 1) as f64;
            }
        }
        self.bins.len() as f64
    }

    /// A histogram is "representable" when it has enough mass and is not
    /// dominated by the overflow bin (the paper's OOB criterion).
    pub fn representable(&self) -> bool {
        if self.total < 8 {
            return false;
        }
        let overflow = self.bins[self.bins.len() - 1];
        (overflow as f64) < 0.5 * self.total as f64
    }
}

/// The hybrid-histogram scaling policy.
pub struct HybridHistogramPolicy {
    histogram: IdleHistogram,
    /// Fallback keep-alive when the histogram is not representable, in
    /// minutes.
    fallback_keepalive_min: f64,
    /// Pre-warm margin before the predicted arrival, minutes.
    prewarm_margin_min: f64,
    last_active_interval: Option<usize>,
}

impl HybridHistogramPolicy {
    /// Creates the policy with the paper's 4-hour histogram range and a
    /// 10-minute fallback keep-alive.
    pub fn new() -> Self {
        HybridHistogramPolicy {
            histogram: IdleHistogram::new(240),
            fallback_keepalive_min: 10.0,
            prewarm_margin_min: 1.0,
            last_active_interval: None,
        }
    }

    /// The keep rule: whether a pod stays warm `idle_min` minutes after
    /// the last active interval.
    fn keeps(&self, idle_min: f64) -> bool {
        if self.histogram.representable() {
            let head = self.histogram.quantile(0.05);
            let tail = self.histogram.quantile(0.99);
            // Shut down inside (head - margin, ...] only when safely
            // before the predicted next arrival; keep alive through the
            // window [head - margin, tail].
            idle_min <= tail
                && (idle_min + self.prewarm_margin_min >= head
                    || idle_min < self.prewarm_margin_min)
        } else {
            idle_min <= self.fallback_keepalive_min
        }
    }
}

impl Default for HybridHistogramPolicy {
    fn default() -> Self {
        HybridHistogramPolicy::new()
    }
}

impl ScalingPolicy for HybridHistogramPolicy {
    fn name(&self) -> String {
        "hybrid-histogram".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        let interval_min = ctx.interval_ms as f64 / 60_000.0;
        let k = ctx.arrivals.len();
        // Update the idle-time histogram from observed activity gaps.
        if k > 0 && ctx.arrivals[k - 1] > 0.0 {
            if let Some(last) = self.last_active_interval {
                let idle_intervals = (k - 1).saturating_sub(last + 1);
                if idle_intervals > 0 {
                    self.histogram
                        .record(idle_intervals as f64 * interval_min);
                }
            }
            self.last_active_interval = Some(k - 1);
        }
        let Some(last) = self.last_active_interval else {
            return 0;
        };
        let idle_min = (k - 1 - last) as f64 * interval_min;
        let capacity_needed = ctx
            .peak_concurrency
            .get(last)
            .copied()
            .unwrap_or(1.0)
            .max(ctx.inflight as f64)
            .max(1.0);
        if self.keeps(idle_min) {
            ctx.pods_for_concurrency(capacity_needed)
        } else {
            0
        }
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        let k = ctx.arrivals.len();
        if k == 0 || ctx.arrivals[k - 1] != 0.0 {
            // The newest interval had activity (e.g. the accrued close
            // that opens a batch): this tick records a gap and moves
            // `last_active_interval`, so take it per-tick.
            return IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            };
        }
        // Idle tick: `target_pods` leaves the histogram untouched and
        // decides purely from the elapsed idle time, which grows by one
        // interval per tick. Probe the (pure) keep decision forward and
        // batch the ticks on which it cannot change.
        let target = self.target_pods(&ctx);
        let Some(last) = self.last_active_interval else {
            // Never active: the decision is 0 until first activity.
            return IdleRun {
                target,
                ticks: max_ticks,
            };
        };
        let interval_min = ctx.interval_ms as f64 / 60_000.0;
        let keep_at = |units: usize| self.keeps(units as f64 * interval_min);
        let units0 = k - 1 - last;
        let keep0 = keep_at(units0);
        let mut run = 1u64;
        while run < max_ticks && keep_at(units0 + run as usize) == keep0
        {
            run += 1;
        }
        IdleRun { target, ticks: run }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_sim::{simulate_app, SimConfig, KeepAlivePolicy};
    use femux_trace::types::{
        AppId, AppRecord, Invocation, WorkloadKind,
    };

    #[test]
    fn histogram_quantiles() {
        let mut h = IdleHistogram::new(60);
        for m in [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 10.0, 30.0] {
            h.record(m);
        }
        assert_eq!(h.total(), 8);
        assert!(h.quantile(0.05) <= 2.0);
        assert!(h.quantile(0.99) >= 30.0);
        assert!(h.representable());
    }

    #[test]
    fn overflow_dominated_histogram_is_oob() {
        let mut h = IdleHistogram::new(10);
        for _ in 0..10 {
            h.record(500.0);
        }
        assert!(!h.representable());
    }

    #[test]
    fn empty_histogram() {
        let h = IdleHistogram::new(10);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(!h.representable());
    }

    fn regular_gap_app(gap_min: u64, n: usize) -> AppRecord {
        let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
        app.config.concurrency = 1;
        app.mem_used_mb = 512;
        for k in 0..n as u64 {
            app.invocations.push(Invocation {
                start_ms: 30_000 + k * gap_min * 60_000,
                duration_ms: 500,
                delay_ms: 0,
            });
        }
        app
    }

    #[test]
    fn learns_regular_gaps_and_saves_memory_vs_keepalive() {
        // Invocations every 20 minutes: a 10-min keep-alive misses every
        // warm window AND wastes 10 minutes per cycle; the histogram
        // policy shuts down early and pre-warms in time.
        let app = regular_gap_app(20, 60);
        let span = 60 * 20 * 60_000u64;
        let cfg = SimConfig {
            respect_min_scale: false,
            ..SimConfig::default()
        };
        let hist = simulate_app(
            &app,
            &mut HybridHistogramPolicy::new(),
            span,
            &cfg,
        );
        let ka = simulate_app(
            &app,
            &mut KeepAlivePolicy::ten_minutes(),
            span,
            &cfg,
        );
        assert!(
            hist.costs.wasted_gb_seconds < ka.costs.wasted_gb_seconds,
            "histogram {} vs keep-alive {}",
            hist.costs.wasted_gb_seconds,
            ka.costs.wasted_gb_seconds
        );
        // After warm-up, most invocations hit the pre-warmed pod.
        assert!(
            hist.costs.cold_starts < ka.costs.cold_starts,
            "histogram {} vs keep-alive {} cold starts",
            hist.costs.cold_starts,
            ka.costs.cold_starts
        );
    }
}
