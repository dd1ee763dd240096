//! Knative Pod Autoscaler (KPA) model.
//!
//! Knative Serving's default autoscaler (Fig. 13 of the paper) makes a
//! scaling decision every 2 seconds from queue-proxy concurrency
//! reports: the *stable* target averages concurrency over a 60-second
//! window; a 6-second *panic* window overrides it when short-term demand
//! at least doubles the stable target, and pods are never scaled down
//! while panicking. Scale-to-zero happens only after a grace period
//! (default 60 s, matching the paper's "1-minute KA" description of
//! Knative's default lifetime policy).
//!
//! The policy plugs into the `femux-sim` engine with a 2-second interval
//! — the simulator's ticks play the role of the autoscaler loop, and its
//! per-interval average concurrency plays the queue-proxy reports.
//!
//! Queue-proxy reports can go missing in production (the `femux-fault`
//! layer models this as a `NaN` sample). The policy tolerates that two
//! ways: windows average over finite samples only, and a tick whose
//! newest report is missing *holds the last stable target* instead of
//! recomputing from a gappy window (counted in
//! `knative.kpa.held_targets`).

use femux::manager::KNATIVE_TARGET_UTILIZATION;
use femux_sim::policy::{IdleRun, IdleTicks, PolicyCtx, ScalingPolicy};

/// KPA tuning parameters (Knative defaults).
#[derive(Debug, Clone)]
pub struct KpaConfig {
    /// Autoscaler tick, ms (2 s).
    pub tick_ms: u64,
    /// Stable window, ms (60 s).
    pub stable_window_ms: u64,
    /// Panic window, ms (6 s).
    pub panic_window_ms: u64,
    /// Panic entry threshold: panic when
    /// `panic_concurrency >= threshold * stable_target_capacity`.
    pub panic_threshold: f64,
    /// Scale-to-zero grace period, ms (60 s).
    pub scale_to_zero_grace_ms: u64,
    /// Fraction of the container-concurrency limit the autoscaler
    /// targets per pod (Knative's container-concurrency-target-fraction,
    /// default 0.7).
    pub target_utilization: f64,
}

impl Default for KpaConfig {
    fn default() -> Self {
        KpaConfig {
            tick_ms: 2_000,
            stable_window_ms: 60_000,
            panic_window_ms: 6_000,
            panic_threshold: 2.0,
            scale_to_zero_grace_ms: 60_000,
            target_utilization: KNATIVE_TARGET_UTILIZATION,
        }
    }
}

/// The KPA scaling policy.
#[derive(Debug, Clone)]
pub struct KpaPolicy {
    cfg: KpaConfig,
    /// Time we have continuously been panicking since, if any.
    panicking_since: Option<u64>,
    /// Pod target while panicking (never decreased during panic).
    panic_pods: usize,
    /// Last time non-zero demand was observed.
    last_activity_ms: u64,
    /// Target decided on the last tick with a usable report — held when
    /// the current report is missing.
    last_target: usize,
}

impl KpaPolicy {
    /// Creates a KPA policy.
    pub fn new(cfg: KpaConfig) -> Self {
        KpaPolicy {
            cfg,
            panicking_since: None,
            panic_pods: 0,
            last_activity_ms: 0,
            last_target: 0,
        }
    }

    /// Returns whether the policy is currently in panic mode.
    pub fn is_panicking(&self) -> bool {
        self.panicking_since.is_some()
    }

    /// Average over the trailing window, counting finite samples only —
    /// lost reports (`NaN`) neither poison nor dilute the average.
    fn window_avg(&self, series: &[f64], window_ms: u64) -> f64 {
        let ticks = (window_ms / self.cfg.tick_ms).max(1) as usize;
        let start = series.len().saturating_sub(ticks);
        let mut sum = 0.0;
        let mut n = 0usize;
        for &v in &series[start..] {
            if v.is_finite() {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

impl ScalingPolicy for KpaPolicy {
    fn name(&self) -> String {
        "knative-kpa".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        femux_obs::counter_add("knative.kpa.ticks", 1);
        // No fresh queue-proxy report this tick: hold the last stable
        // decision rather than re-deciding from a window missing its
        // newest point.
        if matches!(ctx.avg_concurrency.last(), Some(v) if !v.is_finite())
        {
            femux_obs::counter_add("knative.kpa.held_targets", 1);
            return self.last_target;
        }
        let target = self.decide(ctx);
        self.last_target = target;
        target
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        if !self.stable_window_all_zero(ctx.avg_concurrency) {
            // Live samples still inside the stable window: per-tick.
            return IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            };
        }
        // An all-zero stable window (the panic window sits inside it)
        // with nothing in flight: `decide` sees stable = panic = 0 and
        // no fresh activity, at this tick and at every later tick of
        // the stretch. Each branch below advances the corresponding
        // per-tick decisions in closed form, counters included.
        let step = ctx.interval_ms;
        if let Some(since) = self.panicking_since {
            let deadline = since + self.cfg.stable_window_ms;
            if ctx.now_ms > deadline {
                // Panic-exit tick (state reset): per-tick.
                return IdleRun {
                    target: self.target_pods(&ctx),
                    ticks: 1,
                };
            }
            // Panic mode without re-triggering holds `panic_pods` until
            // a full stable window has passed since entry.
            let k =
                ((deadline - ctx.now_ms) / step + 1).min(max_ticks);
            femux_obs::counter_add("knative.kpa.ticks", k);
            self.last_target = self.panic_pods;
            return IdleRun {
                target: self.panic_pods,
                ticks: k,
            };
        }
        let grace_end =
            self.last_activity_ms + self.cfg.scale_to_zero_grace_ms;
        if ctx.now_ms < grace_end && current_pods > 0 {
            // Scale-to-zero grace: hold one pod until the grace lapses.
            // The implied trajectory is rate-limit-immune (1 ≤ current
            // pods), so `current_pods > 0` holds for the whole run.
            let k = (grace_end - ctx.now_ms)
                .div_ceil(step)
                .min(max_ticks);
            femux_obs::counter_add("knative.kpa.ticks", k);
            self.last_target = 1;
            return IdleRun { target: 1, ticks: k };
        }
        self.last_target = 0;
        if current_pods == 0 {
            femux_obs::counter_add("knative.kpa.ticks", max_ticks);
            return IdleRun {
                target: 0,
                ticks: max_ticks,
            };
        }
        if idle.min_pods > 0 {
            // The engine floor keeps pods above zero, so every tick of
            // the stretch records a scale-to-zero decision.
            femux_obs::counter_add("knative.kpa.ticks", max_ticks);
            femux_obs::counter_add(
                "knative.kpa.scale_to_zero_decisions",
                max_ticks,
            );
            return IdleRun {
                target: 0,
                ticks: max_ticks,
            };
        }
        // Pods drop to zero right after this tick; later ticks take the
        // `current_pods == 0` arm above.
        femux_obs::counter_add("knative.kpa.ticks", 1);
        femux_obs::counter_add("knative.kpa.scale_to_zero_decisions", 1);
        IdleRun { target: 0, ticks: 1 }
    }
}

impl KpaPolicy {
    /// True when every sample of the trailing stable window is exactly
    /// zero (no live and no lost reports) — the precondition for any
    /// closed-form idle advance.
    pub(crate) fn stable_window_all_zero(&self, series: &[f64]) -> bool {
        let window = (self.cfg.stable_window_ms / self.cfg.tick_ms)
            .max(1) as usize;
        let start = series.len().saturating_sub(window);
        series[start..].iter().all(|&v| v == 0.0)
    }

    /// True when the policy is fully settled for scale-to-zero at
    /// `now_ms`: not panicking and past the grace period, so `decide`
    /// returns 0 with no state change — the deep-idle fixed point.
    pub(crate) fn settled_for_zero(&self, now_ms: u64) -> bool {
        self.panicking_since.is_none()
            && now_ms.saturating_sub(self.last_activity_ms)
                >= self.cfg.scale_to_zero_grace_ms
    }

    /// Advances `k` settled scale-to-zero ticks at a constant pod count
    /// in closed form: exactly the counters and state that `k` per-tick
    /// [`ScalingPolicy::target_pods`] calls would produce in that fixed
    /// point. Returns the per-tick reactive target (0).
    pub(crate) fn skip_settled_ticks(
        &mut self,
        k: u64,
        pods_const: usize,
    ) -> usize {
        femux_obs::counter_add("knative.kpa.ticks", k);
        if pods_const > 0 {
            femux_obs::counter_add(
                "knative.kpa.scale_to_zero_decisions",
                k,
            );
        }
        self.last_target = 0;
        0
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        let per_pod = (ctx.config.concurrency as f64
            * self.cfg.target_utilization)
            .max(1.0);
        let stable =
            self.window_avg(ctx.avg_concurrency, self.cfg.stable_window_ms);
        let panic_avg =
            self.window_avg(ctx.avg_concurrency, self.cfg.panic_window_ms);
        let stable_pods = (stable / per_pod).ceil() as usize;
        let panic_pods_wanted = (panic_avg / per_pod).ceil() as usize;

        if stable > 0.0 || ctx.inflight > 0 {
            self.last_activity_ms = ctx.now_ms;
        }

        // Enter/exit panic mode.
        let panic_trigger = panic_avg
            >= self.cfg.panic_threshold * stable_pods.max(1) as f64 * per_pod
            && panic_pods_wanted > stable_pods;
        if panic_trigger {
            if self.panicking_since.is_none() {
                femux_obs::counter_add("knative.kpa.panic_enters", 1);
                self.panicking_since = Some(ctx.now_ms);
                self.panic_pods = ctx.current_pods.max(1);
            }
            self.panic_pods = self.panic_pods.max(panic_pods_wanted);
        } else if let Some(since) = self.panicking_since {
            // Leave panic after one stable window without re-triggering.
            if ctx.now_ms.saturating_sub(since) > self.cfg.stable_window_ms
            {
                femux_obs::counter_add("knative.kpa.panic_exits", 1);
                self.panicking_since = None;
                self.panic_pods = 0;
            }
        }
        if self.panicking_since.is_some() {
            return self.panic_pods.max(stable_pods);
        }

        if stable_pods == 0 {
            // Scale to zero only after the grace period.
            let idle_ms = ctx.now_ms.saturating_sub(self.last_activity_ms);
            if idle_ms < self.cfg.scale_to_zero_grace_ms
                && ctx.current_pods > 0
            {
                return 1;
            }
            if ctx.current_pods > 0 {
                femux_obs::counter_add(
                    "knative.kpa.scale_to_zero_decisions",
                    1,
                );
            }
            return 0;
        }
        stable_pods
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_sim::{simulate_app, SimConfig};
    use femux_trace::types::{
        AppId, AppRecord, Invocation, WorkloadKind,
    };

    fn knative_sim_cfg() -> SimConfig {
        SimConfig {
            interval_ms: 2_000,
            respect_min_scale: true,
            ..SimConfig::default()
        }
    }

    fn app(invocations: Vec<Invocation>, concurrency: u32) -> AppRecord {
        let mut a = AppRecord::new(AppId(0), WorkloadKind::Application);
        a.config.concurrency = concurrency;
        a.mem_used_mb = 256;
        a.invocations = invocations;
        a
    }

    #[test]
    fn steady_load_converges_to_demand() {
        // Constant concurrency ~7 with per-pod target 0.7*10 = 7:
        // expect ~1 pod... use concurrency limit 10 and inflight 7.
        let invs: Vec<Invocation> = (0..3_000)
            .map(|k| Invocation {
                start_ms: k * 100,
                duration_ms: 700,
                delay_ms: 0,
            })
            .collect();
        let a = app(invs, 10);
        let mut kpa = KpaPolicy::new(KpaConfig::default());
        let res = simulate_app(&a, &mut kpa, 300_000, &knative_sim_cfg());
        // Steady state (after the first minute) should hold ~1 pod.
        let late = &res.pod_counts[60..];
        let avg: f64 =
            late.iter().map(|&p| p as f64).sum::<f64>() / late.len() as f64;
        assert!(
            (1.0..=2.5).contains(&avg),
            "steady pods {avg} (expected about 1-2)"
        );
    }

    #[test]
    fn panic_mode_reacts_to_burst() {
        // Quiet traffic, then a sudden 50-way burst: panic should spike
        // pods quickly (within the panic window rather than the stable
        // one).
        let mut invs: Vec<Invocation> = (0..30u64)
            .map(|k| Invocation {
                start_ms: k * 2_000,
                duration_ms: 500,
                delay_ms: 0,
            })
            .collect();
        for k in 0..200u64 {
            invs.push(Invocation {
                start_ms: 80_000 + k * 20,
                duration_ms: 20_000,
                delay_ms: 0,
            });
        }
        let a = app(invs, 5);
        let mut kpa = KpaPolicy::new(KpaConfig::default());
        let res =
            simulate_app(&a, &mut kpa, 200_000, &knative_sim_cfg());
        // Pods shortly after the burst (ticks 41..46 = 82-92 s).
        let after_burst =
            res.pod_counts[41..47].iter().copied().max().unwrap_or(0);
        assert!(
            after_burst >= 5,
            "panic should scale out fast, got {after_burst} pods"
        );
    }

    #[test]
    fn scale_to_zero_after_grace() {
        let invs = vec![Invocation {
            start_ms: 5_000,
            duration_ms: 500,
            delay_ms: 0,
        }];
        let a = app(invs, 10);
        let mut kpa = KpaPolicy::new(KpaConfig::default());
        let res =
            simulate_app(&a, &mut kpa, 300_000, &knative_sim_cfg());
        // Final pod count must be zero (grace long expired)...
        assert_eq!(*res.pod_counts.last().expect("ticks"), 0);
        // ...but pods survive through most of the grace period.
        let during_grace = res.pod_counts[5..25].iter().max().copied();
        assert_eq!(during_grace, Some(1));
    }

    #[test]
    fn window_average_ignores_lost_samples() {
        let kpa = KpaPolicy::new(KpaConfig::default());
        let series = [4.0, f64::NAN, 8.0];
        assert_eq!(kpa.window_avg(&series, 60_000), 6.0);
        let all_lost = [f64::NAN; 5];
        assert_eq!(kpa.window_avg(&all_lost, 60_000), 0.0);
    }

    #[test]
    fn missing_report_holds_the_last_target() {
        let a = app(vec![], 10);
        let mut kpa = KpaPolicy::new(KpaConfig::default());
        let history: Vec<f64> = vec![7.0; 30];
        let ctx = PolicyCtx {
            now_ms: 60_000,
            interval_ms: 2_000,
            avg_concurrency: &history,
            peak_concurrency: &history,
            arrivals: &history,
            config: &a.config,
            current_pods: 1,
            inflight: 7,
        };
        let healthy = kpa.target_pods(&ctx);
        assert!(healthy >= 1, "steady demand must provision pods");
        // The next tick's report is lost: the decision must not change.
        let mut gappy = history.clone();
        gappy.push(f64::NAN);
        let ctx = PolicyCtx {
            now_ms: 62_000,
            avg_concurrency: &gappy,
            ..ctx
        };
        assert_eq!(kpa.target_pods(&ctx), healthy);
    }

    #[test]
    fn default_policy_is_one_minute_keepalive_ish() {
        // Two requests 3 minutes apart: the second must be cold under
        // Knative's default (60 s grace), matching the paper's claim
        // that Knative's default lifetime policy is a 1-minute KA.
        let invs = vec![
            Invocation {
                start_ms: 5_000,
                duration_ms: 500,
                delay_ms: 0,
            },
            Invocation {
                start_ms: 185_000,
                duration_ms: 500,
                delay_ms: 0,
            },
        ];
        let a = app(invs, 10);
        let mut kpa = KpaPolicy::new(KpaConfig::default());
        let res =
            simulate_app(&a, &mut kpa, 300_000, &knative_sim_cfg());
        assert_eq!(res.costs.cold_starts, 2);
    }
}
