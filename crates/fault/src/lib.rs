//! Deterministic fault injection for the FeMux reproduction.
//!
//! The paper characterizes a *production* platform: pods crash and are
//! rescheduled, cold starts straggle far past their median, autoscaler
//! actuations lag behind decisions (§4's platform-delay analysis), and
//! control-plane components occasionally emit garbage. This crate turns
//! those misbehaviors into a seeded, replayable *fault plan* so the
//! simulator and the FeMux manager can be studied under stress without
//! giving up a single bit of reproducibility.
//!
//! # Fault taxonomy
//!
//! - **Pod crashes** ([`AppFaults::crash_pod`]): a pod dies and is
//!   rescheduled in place; it stays allocated but must redo its cold
//!   start, so warm capacity drops until it is ready again.
//! - **Cold-start stragglers** ([`AppFaults::straggle`]): a cold start
//!   takes [`FaultConfig::straggler_factor`] times its nominal latency
//!   (the multiplicative tail the paper observes in production).
//! - **Actuation delay / drop** ([`AppFaults::actuation_fate`]): the
//!   gap between a `ScalingPolicy` decision and the platform applying
//!   it — a decision can arrive one or more ticks late, or never.
//! - **Report loss** ([`AppFaults::lose_report`]): the queue-proxy
//!   concurrency report for an interval goes missing; policies see a
//!   `NaN` sample and must degrade gracefully.
//! - **Node crashes** ([`NodeFaults::crash_node`]): an entire cluster
//!   node goes down, killing every resident pod at once; the node comes
//!   back after [`FaultConfig::node_recovery_ticks`] intervals while the
//!   engine reschedules the displaced pods onto survivors under capped
//!   exponential backoff. Only meaningful when the simulator's cluster
//!   layer (`SimConfig::cluster`) is enabled.
//! - **Forecaster faults** ([`ForecastFaults::fate`]): a forecaster
//!   returns `NaN`/`∞` or panics outright ([`inject_panic`]), exercising
//!   the manager's fallback ladder.
//!
//! # Determinism contract
//!
//! Each application draws from two private streams — one for engine
//! faults, one for forecaster faults — derived from
//! ([`FaultConfig::seed`], `AppId`) via [`femux_stats::rng::Rng`]. An
//! app's fault sequence therefore depends only on the seed, its id, and
//! its own (sequential) simulation, never on `FEMUX_THREADS`, other
//! apps, or scheduling. Injection sites draw in a fixed order per tick
//! (per-pod crash draws in pod order, then the report-loss draw, then
//! the per-node crash draws in node order, then the actuation-fate draw
//! after the policy decision; one straggler draw per cold start), which
//! the sim engine documents and upholds. The node stream is keyed by
//! node index rather than app id (see [`FaultConfig::node_faults`]) but
//! each app run owns a private copy, so per-app independence holds.
//!
//! A plan with all rates zero draws but never triggers, so its runs are
//! byte-identical to runs with no fault layer at all; `fault.*`
//! telemetry is emitted only when an injection actually fires.

use femux_stats::rng::Rng;
use femux_trace::types::AppId;

/// Domain separator for the engine-fault stream.
const ENGINE_DOMAIN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain separator for the forecaster-fault stream.
const FORECAST_DOMAIN: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Domain separator for the per-node crash stream. Keyed by
/// (`seed`, node index, this domain) — *not* by app — so every app run
/// replays the same cluster-wide crash plan; and separated from the
/// pod-level domains so enabling (or zero-rating) node crashes never
/// shifts a single pod-level draw.
const NODE_DOMAIN: u64 = 0xD6E8_FEB8_6659_FD93;

/// Rates and parameters for every injectable fault class.
///
/// All rates are probabilities in `[0, 1]`; a rate of zero disables the
/// class (and draws for it never trigger, preserving byte-identity with
/// fault-free runs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Root seed of the fault plan. Per-app streams are derived from it
    /// so the plan replays identically at any thread count.
    pub seed: u64,
    /// Per-pod, per-tick crash probability.
    pub pod_crash_rate: f64,
    /// Per-cold-start probability of a latency straggler.
    pub straggler_rate: f64,
    /// Multiplier applied to a straggling cold start's latency (≥ 1).
    pub straggler_factor: f64,
    /// Per-decision probability the actuation is delayed.
    pub actuation_delay_rate: f64,
    /// Ticks a delayed actuation waits before the engine applies it.
    pub actuation_delay_ticks: u64,
    /// Per-decision probability the actuation is dropped entirely.
    pub actuation_drop_rate: f64,
    /// Per-tick probability the interval's concurrency report is lost.
    pub report_loss_rate: f64,
    /// Per-forecast probability of an injected forecaster fault.
    pub forecast_fault_rate: f64,
    /// Per-node, per-tick crash probability (cluster layer only).
    pub node_crash_rate: f64,
    /// Intervals a crashed node stays down before recovering (≥ 1).
    pub node_recovery_ticks: u64,
}

impl FaultConfig {
    /// A plan with every rate zero: draws happen, nothing ever fires.
    pub fn off(seed: u64) -> Self {
        FaultConfig {
            seed,
            pod_crash_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 10.0,
            actuation_delay_rate: 0.0,
            actuation_delay_ticks: 1,
            actuation_drop_rate: 0.0,
            report_loss_rate: 0.0,
            forecast_fault_rate: 0.0,
            node_crash_rate: 0.0,
            node_recovery_ticks: 1,
        }
    }

    /// A plan with the same rate for every fault class — the knob the
    /// `robustness_sweep` experiment turns ({0, 1, 5, 10}%).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            pod_crash_rate: rate,
            straggler_rate: rate,
            actuation_delay_rate: rate,
            actuation_drop_rate: rate,
            report_loss_rate: rate,
            forecast_fault_rate: rate,
            node_crash_rate: rate,
            ..FaultConfig::off(seed)
        }
    }

    /// Checks every rate is a probability and every parameter sane.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("pod_crash_rate", self.pod_crash_rate),
            ("straggler_rate", self.straggler_rate),
            ("actuation_delay_rate", self.actuation_delay_rate),
            ("actuation_drop_rate", self.actuation_drop_rate),
            ("report_loss_rate", self.report_loss_rate),
            ("forecast_fault_rate", self.forecast_fault_rate),
            ("node_crash_rate", self.node_crash_rate),
        ];
        for (name, r) in rates {
            if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be in [0, 1], got {r}"));
            }
        }
        if self.actuation_drop_rate + self.actuation_delay_rate > 1.0 {
            return Err(
                "actuation_drop_rate + actuation_delay_rate must not \
                 exceed 1"
                    .to_string(),
            );
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0
        {
            return Err(format!(
                "straggler_factor must be a finite multiplier >= 1, got {}",
                self.straggler_factor
            ));
        }
        if self.node_recovery_ticks == 0 {
            return Err(
                "node_recovery_ticks must be >= 1 (a crashed node is \
                 down for at least one interval)"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Derives a stream seed for (`seed`, `app`, `domain`). SplitMix64
    /// expansion inside `Rng::seed_from_u64` separates adjacent inputs.
    fn stream_seed(&self, app: AppId, domain: u64) -> u64 {
        Rng::seed_from_u64(
            self.seed
                ^ domain
                ^ (app.0 as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
        .next_u64()
    }

    /// The engine-side fault stream for one application.
    pub fn engine_faults(&self, app: AppId) -> AppFaults {
        AppFaults {
            rng: Rng::seed_from_u64(self.stream_seed(app, ENGINE_DOMAIN)),
            pod_crash_rate: self.pod_crash_rate,
            straggler_rate: self.straggler_rate,
            straggler_factor: self.straggler_factor,
            actuation_delay_rate: self.actuation_delay_rate,
            actuation_delay_ticks: self.actuation_delay_ticks,
            actuation_drop_rate: self.actuation_drop_rate,
            report_loss_rate: self.report_loss_rate,
            stats: FaultStats::default(),
        }
    }

    /// The forecaster-side fault stream for one application.
    pub fn forecast_faults(&self, app: AppId) -> ForecastFaults {
        ForecastFaults {
            rng: Rng::seed_from_u64(self.stream_seed(app, FORECAST_DOMAIN)),
            rate: self.forecast_fault_rate,
            stats: FaultStats::default(),
        }
    }

    /// The node-crash streams for an `n_nodes`-node cluster. Each node
    /// gets a private stream keyed by (`seed`, node index,
    /// `NODE_DOMAIN`) — deliberately app-free, so every app run replays
    /// the same cluster-wide crash plan. Each run still owns its own
    /// copy, preserving per-app (and therefore thread-count)
    /// determinism.
    pub fn node_faults(&self, n_nodes: usize) -> NodeFaults {
        NodeFaults {
            rngs: (0..n_nodes)
                .map(|node| {
                    Rng::seed_from_u64(
                        Rng::seed_from_u64(
                            self.seed
                                ^ NODE_DOMAIN
                                ^ (node as u64)
                                    .wrapping_mul(0x2545_F491_4F6C_DD1D),
                        )
                        .next_u64(),
                    )
                })
                .collect(),
            rate: self.node_crash_rate,
            recovery_ticks: self.node_recovery_ticks,
            stats: FaultStats::default(),
        }
    }
}

/// Counts of every injected fault, per app or merged fleet-wide.
///
/// Every counter here is incremented together with the matching
/// `fault.*` telemetry counter at the moment the injection fires, so an
/// experiment can cross-check its metrics report against the plan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Pods crashed and restarted cold.
    pub pod_crashes: u64,
    /// Cold starts inflated by the straggler factor.
    pub cold_stragglers: u64,
    /// Scaling decisions applied late.
    pub actuation_delays: u64,
    /// Scaling decisions never applied.
    pub actuation_drops: u64,
    /// Concurrency reports replaced by `NaN`.
    pub report_losses: u64,
    /// Forecaster outputs corrupted or panicked.
    pub forecast_faults: u64,
    /// Cluster nodes crashed (every resident pod displaced at once).
    pub node_crashes: u64,
}

impl FaultStats {
    /// Adds another record's counts into this one (commutative).
    pub fn merge(&mut self, other: &FaultStats) {
        self.pod_crashes += other.pod_crashes;
        self.cold_stragglers += other.cold_stragglers;
        self.actuation_delays += other.actuation_delays;
        self.actuation_drops += other.actuation_drops;
        self.report_losses += other.report_losses;
        self.forecast_faults += other.forecast_faults;
        self.node_crashes += other.node_crashes;
    }

    /// Total injections across every class.
    pub fn total(&self) -> u64 {
        self.pod_crashes
            + self.cold_stragglers
            + self.actuation_delays
            + self.actuation_drops
            + self.report_losses
            + self.forecast_faults
            + self.node_crashes
    }
}

/// What happens to one scaling decision on its way to the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationFate {
    /// Applied immediately (the fault-free path).
    Apply,
    /// Applied after the given number of ticks.
    Delay(u64),
    /// Never applied.
    Drop,
}

/// One application's engine-side fault stream.
///
/// The sim engine calls the draw methods in a fixed documented order;
/// each method performs exactly one uniform draw, so the stream advances
/// identically whether or not a fault fires.
#[derive(Debug, Clone)]
pub struct AppFaults {
    rng: Rng,
    pod_crash_rate: f64,
    straggler_rate: f64,
    straggler_factor: f64,
    actuation_delay_rate: f64,
    actuation_delay_ticks: u64,
    actuation_drop_rate: f64,
    report_loss_rate: f64,
    /// Injections fired so far on this stream.
    pub stats: FaultStats,
}

impl AppFaults {
    /// One per-pod, per-tick draw: does this pod crash now?
    pub fn crash_pod(&mut self) -> bool {
        if self.rng.chance(self.pod_crash_rate) {
            self.stats.pod_crashes += 1;
            femux_obs::counter_add("fault.pod_crashes", 1);
            true
        } else {
            false
        }
    }

    /// One per-cold-start draw: the inflation factor, if straggling.
    pub fn straggle(&mut self) -> Option<f64> {
        if self.rng.chance(self.straggler_rate) {
            self.stats.cold_stragglers += 1;
            femux_obs::counter_add("fault.cold_stragglers", 1);
            Some(self.straggler_factor)
        } else {
            None
        }
    }

    /// One per-tick draw: is this interval's concurrency report lost?
    pub fn lose_report(&mut self) -> bool {
        if self.rng.chance(self.report_loss_rate) {
            self.stats.report_losses += 1;
            femux_obs::counter_add("fault.report_losses", 1);
            true
        } else {
            false
        }
    }

    /// One per-decision draw: apply, delay, or drop this actuation.
    pub fn actuation_fate(&mut self) -> ActuationFate {
        let u = self.rng.f64();
        if u < self.actuation_drop_rate {
            self.stats.actuation_drops += 1;
            femux_obs::counter_add("fault.actuation_drops", 1);
            ActuationFate::Drop
        } else if u < self.actuation_drop_rate + self.actuation_delay_rate {
            self.stats.actuation_delays += 1;
            femux_obs::counter_add("fault.actuation_delays", 1);
            ActuationFate::Delay(self.actuation_delay_ticks)
        } else {
            ActuationFate::Apply
        }
    }
}

/// The cluster's node-crash streams: one private RNG per node.
///
/// The sim engine draws once per *up* node per tick, in ascending node
/// order, after the pod-level per-tick draws (`crash_pod`,
/// `lose_report`) and before the decision-side `actuation_fate` draw —
/// the draw-order contract that `tests/fault_determinism.rs` pins.
/// Down nodes cannot crash again, so they are skipped; up-ness is
/// itself deterministic, so the stream stays replayable.
#[derive(Debug, Clone)]
pub struct NodeFaults {
    rngs: Vec<Rng>,
    rate: f64,
    recovery_ticks: u64,
    /// Injections fired so far (only `node_crashes` is ever non-zero).
    pub stats: FaultStats,
}

impl NodeFaults {
    /// One per-up-node, per-tick draw: does this node crash now?
    pub fn crash_node(&mut self, node: usize) -> bool {
        if self.rngs[node].chance(self.rate) {
            self.stats.node_crashes += 1;
            femux_obs::counter_add("fault.node_crashes", 1);
            true
        } else {
            false
        }
    }

    /// How many intervals a crashed node stays down.
    pub fn recovery_ticks(&self) -> u64 {
        self.recovery_ticks
    }

    /// Number of per-node streams (== cluster node count).
    pub fn n_nodes(&self) -> usize {
        self.rngs.len()
    }
}

/// What one forecast call is corrupted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastFate {
    /// Untouched (the fault-free path).
    None,
    /// Every predicted value becomes `NaN`.
    Nan,
    /// Every predicted value becomes `+∞`.
    Inf,
    /// The forecaster panics mid-call (see [`inject_panic`]).
    Panic,
}

/// One application's forecaster-fault stream.
#[derive(Debug, Clone)]
pub struct ForecastFaults {
    rng: Rng,
    rate: f64,
    /// Injections fired so far on this stream (only `forecast_faults`
    /// is ever non-zero here).
    pub stats: FaultStats,
}

impl ForecastFaults {
    /// Draws the fate of the next forecast call. The flavor draw only
    /// happens when the fault fires, which stays deterministic because
    /// this stream is private to one (sequential) application.
    pub fn fate(&mut self) -> ForecastFate {
        if !self.rng.chance(self.rate) {
            return ForecastFate::None;
        }
        self.stats.forecast_faults += 1;
        femux_obs::counter_add("fault.forecast_faults", 1);
        match self.rng.below(3) {
            0 => ForecastFate::Nan,
            1 => ForecastFate::Inf,
            _ => ForecastFate::Panic,
        }
    }
}

/// Marker payload carried by injected forecaster panics, so the panic
/// hook installed by [`silence_injected_panics`] can suppress their
/// reports without touching genuine panics.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault;

/// Panics with the [`InjectedFault`] marker payload. Callers are
/// expected to sit under a `catch_unwind` (the manager's forecast
/// sanitizer); the panic is the injected fault.
#[expect(
    clippy::panic,
    reason = "the panic is the injected fault; callers catch it with catch_unwind"
)]
pub fn inject_panic() -> ! {
    std::panic::panic_any(InjectedFault)
}

/// Installs a process-global panic hook that suppresses the default
/// stderr report for [`InjectedFault`] panics only; every other panic
/// still reaches the previous hook. Idempotent — the hook is installed
/// once per process, however many fault streams are created.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedFault>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(n: u32) -> AppId {
        AppId(n)
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultConfig::uniform(7, 0.3);
        let mut a = cfg.engine_faults(app(5));
        let mut b = cfg.engine_faults(app(5));
        for _ in 0..200 {
            assert_eq!(a.crash_pod(), b.crash_pod());
            assert_eq!(a.straggle(), b.straggle());
            assert_eq!(a.lose_report(), b.lose_report());
            assert_eq!(a.actuation_fate(), b.actuation_fate());
        }
        assert_eq!(a.stats, b.stats);
        let mut fa = cfg.forecast_faults(app(5));
        let mut fb = cfg.forecast_faults(app(5));
        for _ in 0..200 {
            assert_eq!(fa.fate(), fb.fate());
        }
    }

    #[test]
    fn apps_get_independent_streams() {
        let cfg = FaultConfig::uniform(7, 0.5);
        let draws = |id: u32| {
            let mut f = cfg.engine_faults(app(id));
            (0..64).map(|_| f.crash_pod()).collect::<Vec<_>>()
        };
        assert_ne!(draws(1), draws(2), "streams must differ per app");
    }

    #[test]
    fn engine_and_forecast_streams_are_domain_separated() {
        let cfg = FaultConfig::uniform(7, 0.5);
        let mut e = cfg.engine_faults(app(1));
        let mut f = cfg.forecast_faults(app(1));
        let engine: Vec<bool> = (0..64).map(|_| e.crash_pod()).collect();
        let forecast: Vec<bool> =
            (0..64).map(|_| f.fate() != ForecastFate::None).collect();
        assert_ne!(engine, forecast);
    }

    #[test]
    fn zero_rate_never_fires() {
        let cfg = FaultConfig::off(42);
        let mut f = cfg.engine_faults(app(1));
        for _ in 0..500 {
            assert!(!f.crash_pod());
            assert!(f.straggle().is_none());
            assert!(!f.lose_report());
            assert_eq!(f.actuation_fate(), ActuationFate::Apply);
        }
        assert_eq!(f.stats, FaultStats::default());
        let mut ff = cfg.forecast_faults(app(1));
        for _ in 0..500 {
            assert_eq!(ff.fate(), ForecastFate::None);
        }
        assert_eq!(ff.stats.forecast_faults, 0);
    }

    #[test]
    fn full_rate_always_fires_and_counts() {
        let mut cfg = FaultConfig::uniform(42, 1.0);
        // Drop + delay cannot both be certain; make delay the certainty.
        cfg.actuation_drop_rate = 0.0;
        let mut f = cfg.engine_faults(app(9));
        for _ in 0..50 {
            assert!(f.crash_pod());
            assert_eq!(f.straggle(), Some(10.0));
            assert!(f.lose_report());
            assert_eq!(f.actuation_fate(), ActuationFate::Delay(1));
        }
        assert_eq!(f.stats.pod_crashes, 50);
        assert_eq!(f.stats.cold_stragglers, 50);
        assert_eq!(f.stats.report_losses, 50);
        assert_eq!(f.stats.actuation_delays, 50);
        assert_eq!(f.stats.total(), 200);
    }

    #[test]
    fn forecast_fates_cover_all_flavors() {
        let cfg = FaultConfig::uniform(3, 1.0);
        let mut f = cfg.forecast_faults(app(2));
        let mut saw = [false; 3];
        for _ in 0..100 {
            match f.fate() {
                ForecastFate::Nan => saw[0] = true,
                ForecastFate::Inf => saw[1] = true,
                ForecastFate::Panic => saw[2] = true,
                ForecastFate::None => {
                    panic!("rate 1.0 must always fire")
                }
            }
        }
        assert_eq!(saw, [true; 3], "all flavors drawn at rate 1");
        assert_eq!(f.stats.forecast_faults, 100);
    }

    #[test]
    fn validate_accepts_presets_and_rejects_garbage() {
        assert!(FaultConfig::off(1).validate().is_ok());
        assert!(FaultConfig::uniform(1, 0.1).validate().is_ok());
        assert!(FaultConfig::uniform(1, 1.5).validate().is_err());
        assert!(FaultConfig::uniform(1, -0.1).validate().is_err());
        assert!(FaultConfig::uniform(1, f64::NAN).validate().is_err());
        let mut cfg = FaultConfig::off(1);
        cfg.straggler_factor = 0.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off(1);
        cfg.actuation_delay_rate = 0.7;
        cfg.actuation_drop_rate = 0.7;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn stats_merge_is_field_wise() {
        let mut a = FaultStats {
            pod_crashes: 1,
            cold_stragglers: 2,
            actuation_delays: 3,
            actuation_drops: 4,
            report_losses: 5,
            forecast_faults: 6,
            node_crashes: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.pod_crashes, 2);
        assert_eq!(a.forecast_faults, 12);
        assert_eq!(a.node_crashes, 14);
        assert_eq!(a.total(), 2 * b.total());
    }

    #[test]
    fn node_streams_are_per_node_and_replayable() {
        let cfg = FaultConfig::uniform(7, 0.5);
        let mut a = cfg.node_faults(4);
        let mut b = cfg.node_faults(4);
        for _ in 0..100 {
            for node in 0..4 {
                assert_eq!(a.crash_node(node), b.crash_node(node));
            }
        }
        assert_eq!(a.stats, b.stats);
        let draws = |node: usize| {
            let mut f = cfg.node_faults(4);
            (0..64).map(|_| f.crash_node(node)).collect::<Vec<_>>()
        };
        assert_ne!(draws(0), draws(1), "streams must differ per node");
    }

    #[test]
    fn node_domain_is_separated_from_pod_domains() {
        // Draining the node stream must not shift the app streams: the
        // app stream is constructed from (seed, app, ENGINE_DOMAIN)
        // only, so the sequences are independent by construction.
        let cfg = FaultConfig::uniform(7, 0.5);
        let before: Vec<bool> = {
            let mut e = cfg.engine_faults(app(1));
            (0..64).map(|_| e.crash_pod()).collect()
        };
        let mut n = cfg.node_faults(2);
        for _ in 0..64 {
            n.crash_node(0);
            n.crash_node(1);
        }
        let after: Vec<bool> = {
            let mut e = cfg.engine_faults(app(1));
            (0..64).map(|_| e.crash_pod()).collect()
        };
        assert_eq!(before, after);
    }

    #[test]
    fn node_zero_rate_never_fires_and_full_rate_always_does() {
        let mut f = FaultConfig::off(9).node_faults(3);
        for _ in 0..200 {
            for node in 0..3 {
                assert!(!f.crash_node(node));
            }
        }
        assert_eq!(f.stats, FaultStats::default());

        let mut f = FaultConfig::uniform(9, 1.0).node_faults(3);
        for _ in 0..50 {
            for node in 0..3 {
                assert!(f.crash_node(node));
            }
        }
        assert_eq!(f.stats.node_crashes, 150);
        assert_eq!(f.stats.total(), 150);
        assert_eq!(f.recovery_ticks(), 1);
        assert_eq!(f.n_nodes(), 3);
    }

    #[test]
    fn node_recovery_ticks_zero_is_rejected() {
        let mut cfg = FaultConfig::off(1);
        cfg.node_recovery_ticks = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off(1);
        cfg.node_crash_rate = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn injected_panic_carries_marker() {
        silence_injected_panics();
        let err = std::panic::catch_unwind(|| inject_panic())
            .expect_err("must panic");
        assert!(err.downcast_ref::<InjectedFault>().is_some());
    }
}
