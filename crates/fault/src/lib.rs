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
//! - **Pod crashes** ([`AppFaults::crash_pods`]): a pod dies and is
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
//! # Determinism contract: keyed schedules
//!
//! Every engine-side fault is a *keyed schedule*: the ticks at which a
//! stream fires are a pure function of ([`FaultConfig::seed`], domain,
//! key), never of the order in which the engine asks. The streams are
//! one pod-crash stream per (app, pod uid), one report-loss and one
//! actuation stream per app, one crash stream per cluster node
//! (app-free, so every app run replays the same cluster-wide plan), and
//! one straggler Bernoulli per (app, pod uid) reactive spawn.
//!
//! A stream over consecutive candidate ticks fires with probability
//! `rate` at each one, drawn as geometric gaps: the gap before the k-th
//! fire comes from a SplitMix64 mix of (seed, domain, key, k), the
//! idiom of `femux_obs::span::SpanSampler`. The next fire of a stream
//! is therefore known in O(1) per fire, which lets the simulator
//! fast-forward idle stretches under a plan; a rate of 0 never fires,
//! a rate of 1 fires at every candidate tick, and a gap too long for
//! `u64` saturates (never fires). Ticks are 0-based candidate slots the
//! caller numbers (the engine's first interval boundary is tick 0).
//!
//! A node's fires are a pure function of (seed, node) like any other
//! stream's, and the plan is app-free, so each thread memoizes the last
//! node-crash plan it was asked for (keyed by seed, node-crash rate,
//! recovery ticks and node count) and extends it lazily in fire order:
//! a thread replaying many apps under one plan draws each fire once.
//! The memo only saves work; counts and `fault.node_crashes` telemetry
//! stay per app run ([`NodeFaults`]).
//!
//! The forecaster stream is the one sequential stream left: it draws
//! once per forecast call, and its manager is one sequential unit.
//!
//! A plan with all rates zero never fires, so its runs are
//! byte-identical to runs with no fault layer at all; `fault.*`
//! telemetry is emitted only when an injection actually fires.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use femux_stats::rng::Rng;
use femux_trace::types::AppId;

/// Domain separator for the forecaster-fault stream.
const FORECAST_DOMAIN: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Domain separator for the per-(app, pod) crash schedules.
const POD_CRASH_DOMAIN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain separator for the per-(app, pod) straggler draws.
const STRAGGLER_DOMAIN: u64 = 0x85EB_CA77_C2B2_AE63;
/// Domain separator for the per-app report-loss schedule.
const REPORT_DOMAIN: u64 = 0x27D4_EB2F_1656_67C5;
/// Domain separator for the per-app actuation schedule.
const ACTUATION_DOMAIN: u64 = 0x1656_67B1_9E37_79F9;
/// Domain separator for the per-node crash schedules, keyed by node
/// index rather than app, so every app run replays the same
/// cluster-wide crash plan.
const NODE_DOMAIN: u64 = 0xD6E8_FEB8_6659_FD93;
/// Salt of the actuation stream's drop-or-delay draw, so it is not the
/// word its gap came from.
const FLAVOR_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Tick of a schedule that never fires.
pub const NEVER: u64 = u64::MAX;

/// SplitMix64's finalizer over `a ^ b·φ`: a pure function of its
/// inputs that avalanches every bit, so adjacent keys and ordinals give
/// independent words.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The uniform `f64` in `[0, 1)` carried by the top 53 bits of `bits`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A per-candidate fire probability, ready to draw geometric gaps.
#[derive(Debug, Clone, Copy)]
struct Rate {
    p: f64,
    /// `ln(1 − p)`, the scale of every gap draw.
    ln_q: f64,
}

impl Rate {
    fn new(p: f64) -> Rate {
        Rate { p, ln_q: (-p).ln_1p() }
    }

    fn fires(self) -> bool {
        self.p > 0.0
    }

    /// Candidate ticks that pass without a fire before the next one,
    /// from the uniform word `bits`: geometric with success probability
    /// `p`. Rate 1 gives 0 and rate 0 (or NaN) gives [`NEVER`]; a gap
    /// past `u64::MAX` saturates, because `as` does.
    fn gap(self, bits: u64) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        if !self.fires() {
            return NEVER;
        }
        // 1 − unit ∈ (0, 1], so the log is finite and non-positive.
        let u = 1.0 - unit(bits);
        (u.ln() / self.ln_q).floor() as u64
    }
}

/// A keyed stream over consecutive candidate ticks: fires so far and
/// the tick of the next one.
#[derive(Debug, Clone)]
struct Schedule {
    key: u64,
    rate: Rate,
    fired: u64,
    next: u64,
}

impl Schedule {
    /// A stream whose first candidate tick is `first`.
    fn new(key: u64, rate: Rate, first: u64) -> Schedule {
        Schedule {
            key,
            rate,
            fired: 0,
            next: first.saturating_add(rate.gap(mix(key, 0))),
        }
    }

    /// Whether the stream fires at candidate tick `tick`. Every
    /// candidate up to its next fire must be asked about in order, or
    /// skipped as a whole; a fire schedules the next from `tick + 1`.
    fn fires_at(&mut self, tick: u64) -> bool {
        debug_assert!(self.next >= tick, "a fire tick was skipped");
        if self.next != tick {
            return false;
        }
        self.fired += 1;
        self.next = tick
            .saturating_add(1)
            .saturating_add(self.rate.gap(mix(self.key, self.fired)));
        true
    }
}

/// Rates and parameters for every injectable fault class.
///
/// All rates are probabilities in `[0, 1]`; a rate of zero disables the
/// class (its schedules never fire, preserving byte-identity with
/// fault-free runs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Root seed of the fault plan. Every schedule is keyed from it, so
    /// the plan replays identically at any thread count.
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
    /// A plan with every rate zero: nothing ever fires.
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
    /// The simulator and the serving harness refuse a plan that fails
    /// it: a NaN or out-of-range rate has no meaning as a gap.
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

    /// The key of `domain`'s stream for `app`.
    fn app_key(&self, domain: u64, app: AppId) -> u64 {
        mix(mix(self.seed, domain), u64::from(app.0))
    }

    /// The engine-side fault schedules for one application. Report and
    /// actuation streams have a candidate at every tick from tick 0.
    pub fn engine_faults(&self, app: AppId) -> AppFaults {
        let actuation = self.actuation_drop_rate + self.actuation_delay_rate;
        AppFaults {
            pod: Rate::new(self.pod_crash_rate),
            pod_key: self.app_key(POD_CRASH_DOMAIN, app),
            pod_fires: BinaryHeap::new(),
            report: Schedule::new(
                self.app_key(REPORT_DOMAIN, app),
                Rate::new(self.report_loss_rate),
                0,
            ),
            actuation: Schedule::new(
                self.app_key(ACTUATION_DOMAIN, app),
                Rate::new(actuation),
                0,
            ),
            drop_share: if actuation > 0.0 {
                self.actuation_drop_rate / actuation
            } else {
                0.0
            },
            actuation_delay_ticks: self.actuation_delay_ticks,
            straggler_rate: self.straggler_rate,
            straggler_factor: self.straggler_factor,
            straggler_key: self.app_key(STRAGGLER_DOMAIN, app),
            stats: FaultStats::default(),
        }
    }

    /// The forecaster-side fault stream for one application.
    pub fn forecast_faults(&self, app: AppId) -> ForecastFaults {
        let seed = Rng::seed_from_u64(
            self.seed
                ^ FORECAST_DOMAIN
                ^ (app.0 as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
        .next_u64();
        ForecastFaults {
            rng: Rng::seed_from_u64(seed),
            rate: self.forecast_fault_rate,
            stats: FaultStats::default(),
        }
    }

    /// The crash schedules of an `n_nodes`-node cluster, one per node
    /// keyed by (`seed`, node index) — deliberately app-free, so every
    /// app run replays the same cluster-wide crash plan. Every node is
    /// a candidate from tick 0. The fire ticks come from this thread's
    /// memo of the plan, which this call claims (see [`NodeFaults`]).
    pub fn node_faults(&self, n_nodes: usize) -> NodeFaults {
        let key = mix(self.seed, NODE_DOMAIN);
        let rate = Rate::new(self.node_crash_rate);
        let plan = PlanKey {
            seed: self.seed,
            rate_bits: self.node_crash_rate.to_bits(),
            recovery_ticks: self.node_recovery_ticks,
            n_nodes,
        };
        NODE_PLAN.with_borrow_mut(|memo| {
            if memo.as_ref().is_none_or(|m| m.key != plan) {
                *memo = Some(NodePlan {
                    key: plan,
                    fires: vec![Vec::new(); n_nodes],
                });
            }
        });
        NodeFaults {
            nodes: (0..n_nodes)
                .map(|node| {
                    let key = mix(key, node as u64);
                    let next =
                        plan_fire(&plan, node, 0, || rate.gap(mix(key, 0)));
                    Schedule { key, rate, fired: 0, next }
                })
                .collect(),
            recovery_ticks: self.node_recovery_ticks,
            plan,
            stats: FaultStats::default(),
        }
    }
}

/// What a node-crash plan's fire ticks depend on, and the node count
/// its memo is sized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    seed: u64,
    rate_bits: u64,
    recovery_ticks: u64,
    n_nodes: usize,
}

/// The fire ticks of one node-crash plan drawn so far on this thread:
/// node by node, in fire order.
struct NodePlan {
    key: PlanKey,
    fires: Vec<Vec<u64>>,
}

thread_local! {
    /// The last node-crash plan [`FaultConfig::node_faults`] was asked
    /// for on this thread. The plan is app-free, so a thread replaying
    /// many apps under it draws each fire once.
    static NODE_PLAN: RefCell<Option<NodePlan>> = const { RefCell::new(None) };
}

/// Fire `k` of `node` under `plan`: read from this thread's memo when
/// the memo holds `plan` and has drawn it, else drawn by `draw`, which
/// extends the memo when fire `k` is the node's next one there.
fn plan_fire(
    plan: &PlanKey,
    node: usize,
    k: u64,
    draw: impl FnOnce() -> u64,
) -> u64 {
    NODE_PLAN.with_borrow_mut(|memo| {
        let Some(fires) = memo
            .as_mut()
            .filter(|m| m.key == *plan)
            .map(|m| &mut m.fires[node])
        else {
            return draw();
        };
        let k = k as usize;
        if let Some(&tick) = fires.get(k) {
            return tick;
        }
        let tick = draw();
        if fires.len() == k {
            fires.push(tick);
        }
        tick
    })
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

/// One application's engine-side fault schedules.
///
/// The engine tells the schedules which pods exist
/// ([`Self::spawn_pod`]) and asks at each tick what fires; between
/// fires it may skip ticks wholesale, because [`Self::next_pod_crash`]
/// and [`Self::next_tick_fault`] say when the next one is.
#[derive(Debug, Clone)]
pub struct AppFaults {
    pod: Rate,
    pod_key: u64,
    /// Pending pod-crash fires `(tick, uid, fires so far)`, soonest
    /// first. An entry of a pod that has left the fleet is dropped when
    /// it surfaces.
    pod_fires: BinaryHeap<Reverse<(u64, u64, u64)>>,
    report: Schedule,
    actuation: Schedule,
    /// Share of actuation fires that drop rather than delay.
    drop_share: f64,
    actuation_delay_ticks: u64,
    straggler_rate: f64,
    straggler_factor: f64,
    straggler_key: u64,
    /// Injections fired so far on this app's schedules.
    pub stats: FaultStats,
}

impl AppFaults {
    /// Starts the crash schedule of pod `uid`, a candidate at every
    /// tick from `first` on while it stays in the fleet. An in-place
    /// restart continues the schedule.
    pub fn spawn_pod(&mut self, uid: u64, first: u64) {
        if !self.pod.fires() {
            return;
        }
        let gap = self.pod.gap(mix(mix(self.pod_key, uid), 0));
        self.pod_fires
            .push(Reverse((first.saturating_add(gap), uid, 0)));
    }

    /// The pods, among those for which `alive` holds, whose crash falls
    /// at `tick`, in uid order. Each crash is counted and its pod's
    /// schedule continues from the next tick.
    pub fn crash_pods(
        &mut self,
        tick: u64,
        alive: impl Fn(u64) -> bool,
    ) -> Vec<u64> {
        let mut crashed = Vec::new();
        while let Some(&Reverse((at, uid, fired))) = self.pod_fires.peek() {
            if at > tick {
                break;
            }
            self.pod_fires.pop();
            if !alive(uid) {
                continue;
            }
            debug_assert_eq!(at, tick, "a pod's crash tick was skipped");
            let fired = fired + 1;
            let gap = self.pod.gap(mix(mix(self.pod_key, uid), fired));
            self.pod_fires.push(Reverse((
                tick.saturating_add(1).saturating_add(gap),
                uid,
                fired,
            )));
            self.stats.pod_crashes += 1;
            femux_obs::counter_add("fault.pod_crashes", 1);
            crashed.push(uid);
        }
        crashed
    }

    /// The tick of the next crash among pods for which `alive` holds,
    /// or [`NEVER`]. Entries of departed pods are dropped on the way.
    pub fn next_pod_crash(&mut self, alive: impl Fn(u64) -> bool) -> u64 {
        while let Some(&Reverse((at, uid, _))) = self.pod_fires.peek() {
            if alive(uid) {
                return at;
            }
            self.pod_fires.pop();
        }
        NEVER
    }

    /// The straggler draw of the reactive spawn of pod `uid`: the
    /// inflation factor, if it straggles.
    pub fn straggle(&mut self, uid: u64) -> Option<f64> {
        if unit(mix(self.straggler_key, uid)) < self.straggler_rate {
            self.stats.cold_stragglers += 1;
            femux_obs::counter_add("fault.cold_stragglers", 1);
            Some(self.straggler_factor)
        } else {
            None
        }
    }

    /// Whether the concurrency report closed at `tick` is lost.
    pub fn lose_report(&mut self, tick: u64) -> bool {
        if self.report.fires_at(tick) {
            self.stats.report_losses += 1;
            femux_obs::counter_add("fault.report_losses", 1);
            true
        } else {
            false
        }
    }

    /// The fate of the decision taken at `tick`: a fire drops it with
    /// probability drop ÷ (drop + delay) and delays it otherwise.
    pub fn actuation_fate(&mut self, tick: u64) -> ActuationFate {
        if !self.actuation.fires_at(tick) {
            return ActuationFate::Apply;
        }
        let flavor =
            mix(mix(self.actuation.key, FLAVOR_SALT), self.actuation.fired);
        if unit(flavor) < self.drop_share {
            self.stats.actuation_drops += 1;
            femux_obs::counter_add("fault.actuation_drops", 1);
            ActuationFate::Drop
        } else {
            self.stats.actuation_delays += 1;
            femux_obs::counter_add("fault.actuation_delays", 1);
            ActuationFate::Delay(self.actuation_delay_ticks)
        }
    }

    /// The first tick at which a report is lost or a decision
    /// misfires, or [`NEVER`].
    pub fn next_tick_fault(&self) -> u64 {
        self.report.next.min(self.actuation.next)
    }
}

/// The cluster's node-crash schedules, one per node.
///
/// A node is a candidate at every tick it is up. A crash at tick `t`
/// leaves it down until `t + recovery_ticks`, the first tick at which
/// it is up and a candidate again, so a node's down time is a function
/// of its own schedule and the engine never has to report it back.
///
/// Each value owns its position in every node's schedule and its
/// counts, so every app run counts the whole plan again. The fire ticks
/// themselves come from a per-thread memo of the last plan
/// [`FaultConfig::node_faults`] was asked for, extended lazily in fire
/// order: a thread that replays many apps under one plan draws each
/// fire once. A value whose plan the memo no longer holds draws its
/// fires itself. Either way a fire is the same pure function of its
/// key, so the memo changes no tick.
#[derive(Debug, Clone)]
pub struct NodeFaults {
    nodes: Vec<Schedule>,
    recovery_ticks: u64,
    plan: PlanKey,
    /// Injections fired so far (only `node_crashes` is ever non-zero).
    pub stats: FaultStats,
}

impl NodeFaults {
    /// The tick of `node`'s next crash, or [`NEVER`].
    pub fn next_crash(&self, node: usize) -> u64 {
        self.nodes[node].next
    }

    /// Counts `node`'s crash at its scheduled tick and schedules the
    /// next one from the tick it recovers.
    pub fn crash_node(&mut self, node: usize) {
        let s = &mut self.nodes[node];
        s.fired += 1;
        s.next = plan_fire(&self.plan, node, s.fired, || {
            s.next
                .saturating_add(self.recovery_ticks)
                .saturating_add(s.rate.gap(mix(s.key, s.fired)))
        });
        self.stats.node_crashes += 1;
        femux_obs::counter_add("fault.node_crashes", 1);
    }

    /// How many intervals a crashed node stays down.
    pub fn recovery_ticks(&self) -> u64 {
        self.recovery_ticks
    }

    /// Number of per-node schedules (== cluster node count).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
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

    /// Which of ticks `0..n` a pod born at tick 0 crashes at.
    fn pod_crash_ticks(f: &mut AppFaults, uid: u64, n: u64) -> Vec<u64> {
        f.spawn_pod(uid, 0);
        (0..n).filter(|&t| !f.crash_pods(t, |_| true).is_empty()).collect()
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultConfig::uniform(7, 0.3);
        let mut a = cfg.engine_faults(app(5));
        let mut b = cfg.engine_faults(app(5));
        for t in 0..200 {
            assert_eq!(a.straggle(t), b.straggle(t));
            assert_eq!(a.lose_report(t), b.lose_report(t));
            assert_eq!(a.actuation_fate(t), b.actuation_fate(t));
        }
        assert_eq!(
            pod_crash_ticks(&mut a, 3, 200),
            pod_crash_ticks(&mut b, 3, 200)
        );
        assert_eq!(a.stats, b.stats);
        let mut fa = cfg.forecast_faults(app(5));
        let mut fb = cfg.forecast_faults(app(5));
        for _ in 0..200 {
            assert_eq!(fa.fate(), fb.fate());
        }
    }

    #[test]
    fn schedules_are_keyed_not_sequential() {
        // Asking in another order, or about other keys in between,
        // changes nothing: a schedule is a function of its key alone.
        let cfg = FaultConfig::uniform(7, 0.2);
        let mut a = cfg.engine_faults(app(1));
        let mut b = cfg.engine_faults(app(1));
        b.spawn_pod(99, 0);
        for t in 0..50 {
            b.straggle(t + 1_000);
            b.crash_pods(t, |_| true);
        }
        assert_eq!(pod_crash_ticks(&mut a, 4, 300), {
            let mut c = cfg.engine_faults(app(1));
            pod_crash_ticks(&mut c, 4, 300)
        });
        let reports = |f: &mut AppFaults| {
            (0..300).filter(|&t| f.lose_report(t)).collect::<Vec<_>>()
        };
        assert_eq!(reports(&mut a), reports(&mut b));
        assert_eq!(a.straggle(17), b.straggle(17));
    }

    #[test]
    fn streams_differ_per_app_per_pod_and_per_domain() {
        let cfg = FaultConfig::uniform(7, 0.5);
        let crashes = |id: u32, uid: u64| {
            pod_crash_ticks(&mut cfg.engine_faults(app(id)), uid, 64)
        };
        assert_ne!(crashes(1, 0), crashes(2, 0), "apps must differ");
        assert_ne!(crashes(1, 0), crashes(1, 1), "pods must differ");
        let mut f = cfg.engine_faults(app(1));
        let reports: Vec<u64> =
            (0..64).filter(|&t| f.lose_report(t)).collect();
        assert_ne!(crashes(1, 0), reports, "domains must differ");
        let nodes = cfg.node_faults(2);
        assert_ne!(nodes.next_crash(0), NEVER);
        let ticks = |node: usize| {
            let mut n = cfg.node_faults(2);
            (0..16)
                .map(|_| {
                    let t = n.next_crash(node);
                    n.crash_node(node);
                    t
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(ticks(0), ticks(1), "nodes must differ");
    }

    #[test]
    fn zero_rate_never_fires() {
        let cfg = FaultConfig::off(42);
        let mut f = cfg.engine_faults(app(1));
        assert!(pod_crash_ticks(&mut f, 0, 500).is_empty());
        assert_eq!(f.next_pod_crash(|_| true), NEVER);
        assert_eq!(f.next_tick_fault(), NEVER);
        for t in 0..500 {
            assert!(f.straggle(t).is_none());
            assert!(!f.lose_report(t));
            assert_eq!(f.actuation_fate(t), ActuationFate::Apply);
        }
        assert_eq!(f.stats, FaultStats::default());
        assert_eq!(cfg.node_faults(3).next_crash(2), NEVER);
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
        assert_eq!(pod_crash_ticks(&mut f, 0, 50), (0..50).collect::<Vec<_>>());
        for t in 0..50 {
            assert_eq!(f.straggle(t), Some(10.0));
            assert!(f.lose_report(t));
            assert_eq!(f.actuation_fate(t), ActuationFate::Delay(1));
        }
        assert_eq!(f.stats.pod_crashes, 50);
        assert_eq!(f.stats.cold_stragglers, 50);
        assert_eq!(f.stats.report_losses, 50);
        assert_eq!(f.stats.actuation_delays, 50);
        assert_eq!(f.stats.total(), 200);
        cfg.actuation_drop_rate = 1.0;
        cfg.actuation_delay_rate = 0.0;
        let mut f = cfg.engine_faults(app(9));
        for t in 0..50 {
            assert_eq!(f.actuation_fate(t), ActuationFate::Drop);
        }
    }

    #[test]
    fn fire_counts_match_the_rate() {
        // Over n candidate ticks a rate-p stream fires n·p times in
        // expectation with variance n·p·(1 − p); every count must land
        // within 4σ. A node schedule counts up ticks only: a crash
        // takes its node out for `recovery_ticks` candidates.
        const N: u64 = 1_000_000;
        for p in [0.001, 0.01, 0.05, 0.5] {
            let cfg = FaultConfig {
                pod_crash_rate: p,
                report_loss_rate: p,
                node_crash_rate: p,
                node_recovery_ticks: 3,
                ..FaultConfig::off(0x5EED)
            };
            let within = |fires: u64, n: u64, what: &str| {
                let n = n as f64;
                let sigma = (n * p * (1.0 - p)).sqrt();
                let dev = (fires as f64 - n * p).abs();
                assert!(
                    dev <= 4.0 * sigma,
                    "{what} at rate {p}: {fires} fires over {n} \
                     candidates, {dev:.1} from n·p (σ = {sigma:.1})"
                );
            };
            let mut f = cfg.engine_faults(app(3));
            let lost = (0..N).filter(|&t| f.lose_report(t)).count() as u64;
            within(lost, N, "report loss");
            let mut f = cfg.engine_faults(app(3));
            let crashes = pod_crash_ticks(&mut f, 11, N).len() as u64;
            within(crashes, N, "pod crash");
            let mut nodes = cfg.node_faults(1);
            let (mut fires, mut up_ticks, mut t) = (0u64, 0u64, 0u64);
            while t < N {
                let next = nodes.next_crash(0).min(N);
                up_ticks += next - t;
                if next == N {
                    break;
                }
                up_ticks += 1;
                fires += 1;
                nodes.crash_node(0);
                t = next + 3;
            }
            assert_eq!(nodes.stats.node_crashes, fires);
            within(fires, up_ticks, "node crash");
        }
    }

    #[test]
    fn node_rate_extremes_are_exact() {
        let nodes = FaultConfig::off(9).node_faults(3);
        assert!((0..3).all(|n| nodes.next_crash(n) == NEVER));
        let mut nodes = FaultConfig {
            node_recovery_ticks: 2,
            ..FaultConfig::uniform(9, 1.0)
        }
        .node_faults(3);
        for k in 0..50 {
            for node in 0..3 {
                // Every up tick fires: crash, down one tick, recover.
                assert_eq!(nodes.next_crash(node), 2 * k);
                nodes.crash_node(node);
            }
        }
        assert_eq!(nodes.stats.node_crashes, 150);
        assert_eq!(nodes.stats.total(), 150);
        assert_eq!(nodes.recovery_ticks(), 2);
        assert_eq!(nodes.n_nodes(), 3);
    }

    /// The next `k` fire ticks of `node`, crashing it at each.
    fn node_fires(nodes: &mut NodeFaults, node: usize, k: usize) -> Vec<u64> {
        (0..k)
            .map(|_| {
                let tick = nodes.next_crash(node);
                nodes.crash_node(node);
                tick
            })
            .collect()
    }

    /// Every node's first `k` fire ticks under `cfg`, drawn on a cold
    /// memo.
    fn cold_fires(cfg: &FaultConfig, n_nodes: usize, k: usize) -> Vec<Vec<u64>> {
        NODE_PLAN.with_borrow_mut(|memo| *memo = None);
        let mut nodes = cfg.node_faults(n_nodes);
        (0..n_nodes).map(|node| node_fires(&mut nodes, node, k)).collect()
    }

    /// A tick no schedule draws in these tests.
    const POISON: u64 = NEVER - 7;

    /// Overwrites every fire the memo holds with [`POISON`].
    fn poison_memo() {
        NODE_PLAN.with_borrow_mut(|memo| {
            for fires in &mut memo.as_mut().expect("a memoized plan").fires {
                fires.fill(POISON);
            }
        });
    }

    fn crash_plan() -> FaultConfig {
        FaultConfig {
            node_crash_rate: 0.05,
            node_recovery_ticks: 2,
            ..FaultConfig::off(0xC0FFEE)
        }
    }

    #[test]
    fn a_warm_memo_replays_the_cold_draw() {
        let cfg = crash_plan();
        let cold = cold_fires(&cfg, 4, 40);
        NODE_PLAN.with_borrow_mut(|memo| *memo = None);
        let mut ahead = cfg.node_faults(4);
        for (node, fires) in cold.iter().enumerate() {
            assert_eq!(node_fires(&mut ahead, node, 10), fires[..10]);
        }
        // Built on the memo `ahead` left: ten fires per node read back,
        // the rest drawn and memoized.
        let mut warm = cfg.node_faults(4);
        for (node, fires) in cold.iter().enumerate() {
            assert_eq!(&node_fires(&mut warm, node, 40), fires);
            assert_eq!(node_fires(&mut ahead, node, 30), fires[10..]);
        }
        assert_eq!(warm.stats.node_crashes, 160);
        assert_eq!(ahead.stats.node_crashes, 160);
    }

    #[test]
    fn values_of_one_plan_advanced_in_turn_keep_their_own_place() {
        let cfg = crash_plan();
        let cold = cold_fires(&cfg, 3, 30);
        NODE_PLAN.with_borrow_mut(|memo| *memo = None);
        let mut a = cfg.node_faults(3);
        let mut b = cfg.node_faults(3);
        let (mut got_a, mut got_b) = (vec![Vec::new(); 3], vec![Vec::new(); 3]);
        // Uneven turns: each value leads some nodes and trails others.
        for round in 0..10 {
            for node in 0..3 {
                let (na, nb) = if (round + node) % 2 == 0 { (1, 5) } else { (5, 1) };
                got_a[node].extend(node_fires(&mut a, node, na));
                got_b[node].extend(node_fires(&mut b, node, nb));
            }
        }
        for node in 0..3 {
            let (la, lb) = (got_a[node].len(), got_b[node].len());
            got_a[node].extend(node_fires(&mut a, node, 30 - la));
            got_b[node].extend(node_fires(&mut b, node, 30 - lb));
            assert_eq!(got_a[node], cold[node], "node {node}, first value");
            assert_eq!(got_b[node], cold[node], "node {node}, second value");
        }
    }

    #[test]
    fn plans_differing_in_one_key_never_share_fires() {
        let base = crash_plan();
        let variants = [
            ("seed", FaultConfig { seed: base.seed + 1, ..base.clone() }, 4),
            ("rate", FaultConfig { node_crash_rate: 0.06, ..base.clone() }, 4),
            ("recovery", FaultConfig { node_recovery_ticks: 3, ..base.clone() }, 4),
            ("node count", base.clone(), 3),
        ];
        let base_cold = cold_fires(&base, 4, 20);
        for (what, cfg, n_nodes) in variants {
            let cold = cold_fires(&cfg, n_nodes, 20);
            // A poisoned memo of the base plan is read by the base plan…
            NODE_PLAN.with_borrow_mut(|memo| *memo = None);
            let mut older = base.node_faults(4);
            for node in 0..4 {
                node_fires(&mut older, node, 5);
            }
            poison_memo();
            assert_eq!(base.node_faults(4).next_crash(0), POISON);
            // …and by no plan that differs in `what`.
            let mut nodes = cfg.node_faults(n_nodes);
            for (node, fires) in cold.iter().enumerate() {
                assert_eq!(&node_fires(&mut nodes, node, 20), fires, "{what}");
            }
            // The base plan's older value now draws its own fires, and
            // reads none of the variant's poisoned ones.
            poison_memo();
            for (node, fires) in base_cold.iter().enumerate() {
                assert_eq!(node_fires(&mut older, node, 15), fires[5..], "{what}");
            }
        }
    }

    #[test]
    fn a_plan_claimed_again_starts_its_memo_over() {
        let cfg = crash_plan();
        let cold = cold_fires(&cfg, 2, 30);
        let mut older = cfg.node_faults(2);
        for node in 0..2 {
            node_fires(&mut older, node, 5);
        }
        // Another plan takes the memo, then this one claims it again:
        // the memo restarts at fire 0, behind `older`, which must draw
        // its own fires without storing them out of order.
        FaultConfig { seed: cfg.seed + 1, ..cfg.clone() }.node_faults(2);
        let mut fresh = cfg.node_faults(2);
        for (node, fires) in cold.iter().enumerate() {
            assert_eq!(node_fires(&mut older, node, 25), fires[5..]);
            assert_eq!(&node_fires(&mut fresh, node, 30), fires);
        }
    }

    #[test]
    fn gaps_saturate_instead_of_overflowing() {
        let tiny = Rate::new(f64::MIN_POSITIVE);
        assert!(tiny.gap(u64::MAX) > 1 << 60);
        let s = Schedule::new(1, tiny, u64::MAX - 1);
        assert_eq!(s.next, NEVER);
        assert_eq!(Rate::new(f64::NAN).gap(0), NEVER);
        let mut f = FaultConfig::uniform(1, 1.0).engine_faults(app(1));
        f.spawn_pod(0, NEVER - 1);
        assert_eq!(f.crash_pods(NEVER - 1, |_| true), vec![0]);
        assert_eq!(f.next_pod_crash(|_| true), NEVER);
    }

    #[test]
    fn departed_pods_never_crash() {
        let mut f = FaultConfig::uniform(3, 1.0).engine_faults(app(2));
        f.spawn_pod(0, 0);
        f.spawn_pod(1, 0);
        assert_eq!(f.crash_pods(0, |uid| uid == 1), vec![1]);
        assert_eq!(f.next_pod_crash(|uid| uid == 1), 1);
        assert!(f.crash_pods(1, |_| false).is_empty());
        assert_eq!(f.next_pod_crash(|_| true), NEVER);
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
        let mut cfg = FaultConfig::off(1);
        cfg.node_recovery_ticks = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FaultConfig::off(1);
        cfg.node_crash_rate = 1.5;
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
    fn injected_panic_carries_marker() {
        silence_injected_panics();
        let err = std::panic::catch_unwind(|| inject_panic())
            .expect_err("must panic");
        assert!(err.downcast_ref::<InjectedFault>().is_some());
    }
}
