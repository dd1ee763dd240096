//! Scaling-policy interface and built-in reference policies.
//!
//! A [`ScalingPolicy`] is consulted at every scaling interval with the
//! application's observed traffic history and returns the desired number
//! of warm pods. The simulator applies the paper's override rules on top:
//! pods are never preempted mid-execution, pods provisioned by a cold
//! start live at least to the end of the interval, and the user's
//! minimum-scale floor always holds (§4.3.5).

use femux_trace::types::AppConfig;

/// Everything a policy may inspect when making a scaling decision.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// Current simulation time (an interval boundary), ms.
    pub now_ms: u64,
    /// Scaling interval length, ms.
    pub interval_ms: u64,
    /// Average concurrency observed in each completed interval
    /// (Knative's representation; index 0 is the oldest).
    pub avg_concurrency: &'a [f64],
    /// Peak instantaneous concurrency per completed interval.
    pub peak_concurrency: &'a [f64],
    /// Invocation arrivals per completed interval (the representation
    /// used by IceBreaker/Aquatope-style systems).
    pub arrivals: &'a [f64],
    /// The application's configuration.
    pub config: &'a AppConfig,
    /// Pods currently allocated (warm or warming).
    pub current_pods: usize,
    /// Requests currently in flight (queued + executing).
    pub inflight: usize,
}

impl PolicyCtx<'_> {
    /// Converts a concurrency target into a pod count under the app's
    /// per-pod concurrency limit.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the ceiling of a positive, finite pod demand"
    )]
    pub fn pods_for_concurrency(&self, concurrency: f64) -> usize {
        if concurrency <= 0.0 {
            0
        } else {
            (concurrency / f64::from(self.config.pod_concurrency())).ceil()
                as usize
        }
    }

    /// The trailing samples of `series` that cover the last `window_ms`
    /// (at least one interval; fewer while the series is shorter).
    pub fn trailing<'s>(&self, series: &'s [f64], window_ms: u64) -> &'s [f64] {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a window length in intervals, bounded by the series length"
        )]
        let intervals = (window_ms / self.interval_ms).max(1) as usize;
        &series[series.len().saturating_sub(intervals)..]
    }
}

/// A quiescent stretch of scaling intervals, handed to
/// [`ScalingPolicy::tick_idle`].
///
/// The engine builds one of these when the application is provably idle
/// for `n` consecutive ticks: nothing is in flight, no arrival occurs
/// before the last tick of the stretch, and no fault the policy could
/// observe is due inside it as the fleet stands when it starts (a fault
/// plan's crashes of empty nodes are counted inside the stretch). A
/// scale-up inside the stretch can bring such a fault closer; the
/// engine then caps later runs or ends the stretch early, so `n` bounds
/// the runs rather than fixing their total.
/// The observation series already contain the stretch's samples (the
/// first closes whatever accrued in the current interval; the rest are
/// exact zeros), and [`IdleTicks::ctx`] reconstructs the per-tick view a
/// plain `target_pods` call would have seen.
pub struct IdleTicks<'a> {
    /// Time of the first tick in the stretch (an interval boundary), ms.
    pub start_ms: u64,
    /// Scaling interval length, ms.
    pub interval_ms: u64,
    /// Number of ticks in the stretch.
    pub n: u64,
    /// The application's configuration.
    pub config: &'a AppConfig,
    /// The pod floor the engine applies to every target (0 when
    /// min-scale is not respected). While the app is quiescent no pod is
    /// protected and scale-downs are never rate-limited, so applying a
    /// target `T` that is at most the current pod count leaves exactly
    /// `max(T, min_pods)` pods.
    pub min_pods: usize,
    pub(crate) avg_concurrency: &'a [f64],
    pub(crate) peak_concurrency: &'a [f64],
    pub(crate) arrivals: &'a [f64],
    /// Series length before the stretch's samples were appended.
    pub(crate) base: usize,
}

impl IdleTicks<'_> {
    /// The exact [`PolicyCtx`] a per-tick `target_pods` call would
    /// observe at tick `i` of the stretch (series truncated to the
    /// samples visible at that tick; nothing in flight).
    pub fn ctx(&self, i: u64, current_pods: usize) -> PolicyCtx<'_> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`i` is a tick of a stretch whose samples are in memory"
        )]
        let visible = self.base + i as usize + 1;
        PolicyCtx {
            now_ms: self.start_ms + i * self.interval_ms,
            interval_ms: self.interval_ms,
            avg_concurrency: &self.avg_concurrency[..visible],
            peak_concurrency: &self.peak_concurrency[..visible],
            arrivals: &self.arrivals[..visible],
            config: self.config,
            current_pods,
            inflight: 0,
        }
    }
}

/// A policy's answer for (a prefix of) an idle stretch: hold `target`
/// for the next `ticks` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleRun {
    /// Pod target for every tick of the run.
    pub target: usize,
    /// Number of ticks the target holds (clamped by the engine to
    /// `1..=max_ticks`).
    pub ticks: u64,
}

/// A lifetime-management scaling policy.
pub trait ScalingPolicy: Send {
    /// Human-readable policy name for experiment output.
    fn name(&self) -> String;

    /// Desired number of pods for the next interval.
    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize;

    /// Advances the policy across (a prefix of) a quiescent stretch of
    /// ticks in one call — the idle fast path.
    ///
    /// Returning `IdleRun { target, ticks: k }` asserts that `k`
    /// successive [`Self::target_pods`] calls — at ticks `i..i + k` of
    /// the stretch, each observing the [`PolicyCtx`] that
    /// [`IdleTicks::ctx`] reconstructs — would all have returned
    /// `target`, and leaves the policy in exactly the state those calls
    /// would have left it in (including telemetry). `max_ticks` caps the
    /// run (compositional policies pass tighter caps than the engine
    /// does); the engine clamps `ticks` into `1..=max_ticks` either way.
    ///
    /// Overrides must not predicate their run length or state updates on
    /// `current_pods` unless the implied pod trajectory is immune to the
    /// scale-out rate limit (targets never above the current count):
    /// scale-ups may be rate-limited, or under a fault plan lose new
    /// pods to crashes, in which case the engine applies the target
    /// tick-by-tick but does not re-consult the policy.
    ///
    /// The default implementation takes exactly one per-tick decision,
    /// which is byte-identical to the slow path for any policy.
    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let _ = max_ticks;
        IdleRun {
            target: self.target_pods(&idle.ctx(i, current_pods)),
            ticks: 1,
        }
    }

    /// Fault-injection statistics accumulated inside the policy itself
    /// (e.g. injected forecaster faults), merged into fleet totals by
    /// the fleet runners. Policies without internal fault injection
    /// report nothing.
    fn fault_stats(&self) -> femux_fault::FaultStats {
        femux_fault::FaultStats::default()
    }
}

/// Keep-alive policy: keeps enough pods for the peak concurrency seen in
/// the trailing `window_secs` (the classic "N-minute keep-alive" that
/// AWS/Huawei employ and prior work simulates).
#[derive(Debug, Clone)]
pub struct KeepAlivePolicy {
    window_secs: u64,
}

impl KeepAlivePolicy {
    /// Creates a keep-alive policy with the given window.
    pub fn new(window_secs: u64) -> Self {
        KeepAlivePolicy { window_secs }
    }

    /// AWS-style 5-minute keep-alive.
    pub fn five_minutes() -> Self {
        KeepAlivePolicy::new(300)
    }

    /// The 10-minute keep-alive used as IceBreaker's/Aquatope's
    /// normalization baseline.
    pub fn ten_minutes() -> Self {
        KeepAlivePolicy::new(600)
    }

    /// Huawei/Knative-style 1-minute keep-alive.
    pub fn one_minute() -> Self {
        KeepAlivePolicy::new(60)
    }
}

impl ScalingPolicy for KeepAlivePolicy {
    fn name(&self) -> String {
        format!("keep-alive-{}s", self.window_secs)
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        femux_obs::counter_add("policy.decisions", 1);
        let peak = ctx
            .trailing(ctx.peak_concurrency, self.window_secs * 1_000)
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
            .max(ctx.inflight as f64);
        ctx.pods_for_concurrency(peak)
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        let window = ctx.trailing(ctx.peak_concurrency, self.window_secs * 1_000);
        if window.iter().all(|&v| v == 0.0) {
            // The trailing window shows no activity and every further
            // tick of the stretch appends another zero: the target is 0
            // for the whole remainder. Stateless, so nothing to advance
            // — except the decision counter, which the per-tick path
            // would have bumped once per skipped tick (the tick_idle
            // telemetry contract).
            femux_obs::counter_add("policy.decisions", max_ticks);
            IdleRun {
                target: 0,
                ticks: max_ticks,
            }
        } else {
            IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            }
        }
    }
}

/// Knative's default reactive policy: the average concurrency over a
/// 60-second stable window, divided by the per-pod target concurrency.
/// Scale-to-zero happens only after the window has been idle.
#[derive(Debug, Clone, Default)]
pub struct KnativeDefaultPolicy;

impl ScalingPolicy for KnativeDefaultPolicy {
    fn name(&self) -> String {
        "knative-default".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        femux_obs::counter_add("policy.decisions", 1);
        let window = ctx.trailing(ctx.avg_concurrency, 60_000);
        if window.is_empty() {
            return ctx.pods_for_concurrency(ctx.inflight as f64);
        }
        let avg = window.iter().sum::<f64>() / window.len() as f64;
        // Knative enters "panic mode" when short-term demand doubles the
        // stable target; model it as taking the max with the immediate
        // need.
        let need_now = ctx.inflight as f64;
        ctx.pods_for_concurrency(avg.max(need_now))
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        if ctx.trailing(ctx.avg_concurrency, 60_000).iter().all(|&v| v == 0.0) {
            // An all-zero (or still empty) stable window with nothing in
            // flight decides 0, at this tick and at every later tick of
            // the stretch. Stateless, so nothing to advance except the
            // per-tick decision counter (tick_idle telemetry contract).
            femux_obs::counter_add("policy.decisions", max_ticks);
            IdleRun {
                target: 0,
                ticks: max_ticks,
            }
        } else {
            IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            }
        }
    }
}

/// A policy driven by any [`femux_forecast::Forecaster`]: forecasts the
/// next interval's average concurrency from the trailing history window
/// and provisions exactly that capacity.
pub struct ForecastPolicy {
    forecaster: Box<dyn femux_forecast::Forecaster>,
    /// Number of past intervals fed to the forecaster (paper: two hours).
    pub history: usize,
    /// Multiplicative headroom on the forecast.
    pub headroom: f64,
    /// Forecast horizon in intervals; the policy provisions for the
    /// *peak* of the horizon. The paper's forecasters predict "the
    /// incoming minute worth of traffic", so a 10-second scaling loop
    /// uses a 6-interval horizon while a 60-second loop uses 1.
    pub horizon: usize,
}

impl ForecastPolicy {
    /// Wraps a forecaster with the paper's two-hour history window and a
    /// one-interval horizon.
    pub fn new(forecaster: Box<dyn femux_forecast::Forecaster>) -> Self {
        ForecastPolicy {
            forecaster,
            history: 120,
            headroom: 1.0,
            horizon: 1,
        }
    }
}

impl ScalingPolicy for ForecastPolicy {
    fn name(&self) -> String {
        format!("forecast-{}", self.forecaster.name())
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        femux_obs::counter_add("policy.decisions", 1);
        let start =
            ctx.avg_concurrency.len().saturating_sub(self.history);
        let window = &ctx.avg_concurrency[start..];
        let pred = if window.is_empty() {
            ctx.inflight as f64
        } else {
            self.forecaster
                .forecast(window, self.horizon.max(1))
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        ctx.pods_for_concurrency(pred * self.headroom)
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        let len = ctx.avg_concurrency.len();
        let window =
            &ctx.avg_concurrency[len.saturating_sub(self.history)..];
        if self.history > 0
            && len >= self.history
            && window.iter().all(|&v| v == 0.0)
        {
            // The history window is saturated and all-zero, so it is
            // byte-identical at every tick of the stretch; forecasters
            // are pure outside `train` (a `femux_forecast::Forecaster`
            // contract), so one forecast decides the whole run. The
            // decision counter advances once per skipped tick (the
            // tick_idle telemetry contract).
            femux_obs::counter_add("policy.decisions", max_ticks);
            let pred = self
                .forecaster
                .forecast(window, self.horizon.max(1))
                .into_iter()
                .fold(0.0f64, f64::max);
            IdleRun {
                target: ctx.pods_for_concurrency(pred * self.headroom),
                ticks: max_ticks,
            }
        } else {
            IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            }
        }
    }
}

/// Always requests a fixed number of pods (useful for tests and as the
/// "provisioned concurrency" reference).
#[derive(Debug, Clone)]
pub struct FixedPolicy(pub usize);

impl ScalingPolicy for FixedPolicy {
    fn name(&self) -> String {
        format!("fixed-{}", self.0)
    }

    fn target_pods(&mut self, _ctx: &PolicyCtx<'_>) -> usize {
        femux_obs::counter_add("policy.decisions", 1);
        self.0
    }

    fn tick_idle(
        &mut self,
        _idle: &IdleTicks<'_>,
        _i: u64,
        _current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        femux_obs::counter_add("policy.decisions", max_ticks);
        IdleRun {
            target: self.0,
            ticks: max_ticks,
        }
    }
}

/// Never provisions anything proactively; every burst pays cold starts.
/// The pessimal-latency / optimal-memory endpoint for tests.
#[derive(Debug, Clone, Default)]
pub struct ZeroPolicy;

impl ScalingPolicy for ZeroPolicy {
    fn name(&self) -> String {
        "zero".into()
    }

    fn target_pods(&mut self, _ctx: &PolicyCtx<'_>) -> usize {
        femux_obs::counter_add("policy.decisions", 1);
        0
    }

    fn tick_idle(
        &mut self,
        _idle: &IdleTicks<'_>,
        _i: u64,
        _current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        femux_obs::counter_add("policy.decisions", max_ticks);
        IdleRun {
            target: 0,
            ticks: max_ticks,
        }
    }
}
