//! Per-application discrete-event simulation.
//!
//! Applications are independent in the paper's evaluation model (each has
//! its own pods), so the engine simulates one application at a time:
//! replaying its invocation stream against a [`ScalingPolicy`] consulted
//! at fixed intervals, and accounting cold starts, allocated and wasted
//! GB-seconds, and service times into a [`CostRecord`].
//!
//! The engine is organized around a future-event queue so that cost
//! scales with invocations and pod activity, never with the simulated
//! span: pod-warm events feed an incrementally maintained warm-pod
//! counter, a waiting-on-warming total, and a soonest-warm join index
//! (replacing per-arrival pod-vector scans), and quiescent stretches of
//! interval boundaries are fast-forwarded through
//! [`ScalingPolicy::tick_idle`] in O(1) per constant-target run instead
//! of O(span / interval). [`EngineStats`] witnesses the guarantee. The
//! `femux-oracle` per-millisecond reference gates the engine's
//! byte-exactness, and [`crate::equiv`] checks each idle fast path
//! against one `target_pods` call per tick.
//!
//! Semantics (following §4.3.5 and prior-work conventions; this list is
//! the contract the `femux-oracle` reference simulator pins — any edit
//! here must be mirrored there):
//!
//! - A request arriving when warm capacity (warm pods × per-pod
//!   concurrency) can absorb the requests *executing on warm pods*
//!   executes immediately. Requests still pinned to a warming pod do
//!   not count against warm capacity.
//! - Otherwise the request queues on the soonest-warm reactively
//!   spawned pod that still has spare per-pod concurrency, paying the
//!   pod's remaining warm-up as its cold-start wait. Only when no such
//!   pod exists does it spawn a fresh pod and pay the full cold-start
//!   latency. Either way the request counts as a cold start (it waited
//!   on pod provisioning) and the pod is protected from removal until
//!   the end of the interval (and until the request finishes).
//! - Pods requested proactively by the policy become warm after the
//!   cold-start latency but requests never wait on them unless they are
//!   warm in time (AWS-style provisioned capacity: not routable until
//!   ready).
//! - `span_ms` bounds the replay: invocations at or after the span are
//!   never replayed (the train/test split depends on this); requests
//!   admitted before the span keep their pods alive until they finish
//!   and that overhang is accounted in allocation.
//! - When the span is not a whole number of intervals, the partial tail
//!   interval is closed into `avg_concurrency`/`peak_concurrency`/
//!   `arrivals` with a pro-rated divisor (`span - last tick`). No
//!   policy ever observes it and no fault draw applies to it.
//! - Scale-down happens only at interval boundaries, never below the
//!   number of pods needed by in-flight requests, the protected pods, or
//!   the user's minimum scale.
//! - Proactive scale-up obeys the AWS-style rate limit (at most
//!   `limit.per_minute` new pods per minute once `limit.threshold` pods
//!   are allocated). Reactive cold-start spawns are not limited (the
//!   request has already committed to waiting).
//! - With a [`femux_fault::FaultConfig`] installed, the engine injects
//!   pod crashes (restart-as-cold-start, allocation uninterrupted),
//!   cold-start stragglers, report loss (`NaN` concurrency samples),
//!   and actuation delay/drop through a pending-actuation queue, each
//!   read from a keyed schedule (see `femux-fault`'s crate docs). The
//!   effects of one tick apply in a fixed order: pod crashes, the
//!   report, node recovery and crashes, respawns, matured actuations,
//!   then the decision and its fate.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use femux_fault::{ActuationFate, AppFaults, FaultStats, NodeFaults, NEVER};
use femux_obs::span::{
    InvocationSpan, PodOrigin, SpanGuard, SpanSampler, WaitCause,
};
use femux_obs::FlowPhase;
use femux_rum::CostRecord;
use femux_trace::types::{AppRecord, Invocation};

use crate::cluster::{Cluster, ClusterOutcome, PodRequest, ReleaseReason};
use crate::policy::{IdleTicks, PolicyCtx, ScalingPolicy};

/// Backoff cap for displaced-pod rescheduling after a node crash: the
/// retry penalty is `2^strikes − 1` ticks, clamped at this exponent
/// (mirroring the AppManager's forecast-failure backoff idiom).
const MAX_RESTART_STRIKE_EXPONENT: u32 = 6;

/// Flow-id namespace for node-crash causal chains: XORed with the
/// running node-crash ordinal so every crash episode gets a distinct
/// flow, and displaced-pod restarts `Step` on the crash that displaced
/// them.
const NODE_CRASH_FLOW_BASE: u64 = 0x4E0D_ECAF_0000_0000;

/// AWS-style scale-out rate limit (§5.1: 500 new instances per minute
/// once above 3,000).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleLimit {
    /// Pod count above which the limit engages.
    pub threshold: usize,
    /// Maximum proactive spawns per minute while engaged.
    pub per_minute: usize,
}

impl ScaleLimit {
    /// The AWS Lambda published limit.
    pub fn aws() -> Self {
        ScaleLimit {
            threshold: 3_000,
            per_minute: 500,
        }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scaling-decision interval in ms (60 000 for the main evaluation;
    /// 10 000 for the sub-minute study of Fig. 5).
    pub interval_ms: u64,
    /// Cold-start latency override in ms. `None` uses each app's own
    /// `cold_start_ms`; the paper's default analyses fix 808 ms.
    pub cold_start_ms: Option<u32>,
    /// Optional scale-out rate limit.
    pub scale_limit: Option<ScaleLimit>,
    /// Whether the user's `min_scale` floor is honored.
    pub respect_min_scale: bool,
    /// Record every request's platform delay (costs memory).
    pub record_delays: bool,
    /// Telemetry track namespace for this run's trace events. The fleet
    /// runners set it (via [`femux_obs::next_track_epoch`]) so repeated
    /// sweeps over the same apps never reuse a track; `None` falls back
    /// to the policy name.
    pub obs_track_prefix: Option<String>,
    /// Deterministic fault plan. `None` runs fault-free; a plan with
    /// all rates zero is byte-identical to `None` (draws never fire).
    pub faults: Option<femux_fault::FaultConfig>,
    /// Causal span sampling. `None` — or a config with a non-positive
    /// rate — compiles the span layer out of the run entirely: the
    /// engine takes the exact same branches and produces byte-identical
    /// output. The bench layer's `--span-sample` flag injects this via
    /// the fleet runners (see `femux_obs::span::ambient`).
    pub spans: Option<femux_obs::span::SpanConfig>,
    /// Optional cluster model: pods occupy finite per-node core/memory
    /// capacity, admission evicts idle warm pods under memory pressure,
    /// and (with a fault plan installed) whole nodes crash and recover.
    /// `None` keeps the historical free-floating accounting — and a
    /// single unbounded node ([`crate::cluster::ClusterConfig::unbounded`])
    /// is bit-identical to `None` on every pre-cluster observable.
    pub cluster: Option<crate::cluster::ClusterConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            interval_ms: 60_000,
            cold_start_ms: Some(808),
            scale_limit: Some(ScaleLimit::aws()),
            respect_min_scale: true,
            record_delays: false,
            obs_track_prefix: None,
            faults: None,
            spans: None,
            cluster: None,
        }
    }
}

/// Result of simulating one application.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Accumulated costs.
    pub costs: CostRecord,
    /// Per-request platform delays in seconds (empty unless
    /// `record_delays`).
    pub delays_secs: Vec<f64>,
    /// Average concurrency per interval, as observed by the policy.
    /// Intervals whose report was lost to an injected fault hold `NaN`
    /// (the policy saw a missing report; [`CostRecord`]s and RUM are
    /// never computed from this series). A span that is not a whole
    /// number of intervals contributes one final pro-rated sample that
    /// no policy observed.
    pub avg_concurrency: Vec<f64>,
    /// Peak instantaneous concurrency per interval (queued requests
    /// included), aligned with `avg_concurrency`.
    pub peak_concurrency: Vec<f64>,
    /// Invocation arrivals per interval, aligned with
    /// `avg_concurrency`.
    pub arrivals: Vec<f64>,
    /// Pod-count samples at each interval boundary (the partial tail
    /// interval has no boundary decision, so no sample).
    pub pod_counts: Vec<usize>,
    /// Pod count at t = 0 (the min-scale floor). [`Self::scale_events`]
    /// diffs the timeline against this baseline, so a min-scale app
    /// does not report a phantom 0 → min_scale scale-up.
    pub initial_pods: usize,
    /// Faults injected into this app's run (all zero when fault-free).
    pub faults: FaultStats,
    /// Lifecycle spans of the sampled invocations, in arrival order
    /// (empty unless [`SimConfig::spans`] carries a positive rate).
    /// Exact-accounting contract: each span's
    /// [`InvocationSpan::delay_secs`] equals the `delays_secs` entry at
    /// the span's invocation index bitwise.
    pub spans: Vec<InvocationSpan>,
    /// Cluster observables (`None` unless [`SimConfig::cluster`] is
    /// set): per-node occupancy integrals and the placement ledger,
    /// whose conservation (`placed == evictions + scaled_down +
    /// displaced + resident_end`) the oracle invariants check.
    pub cluster: Option<ClusterOutcome>,
}

/// A scale-up or scale-down event reconstructed from the pod-count
/// timeline — the "scale up/down events" field Table 1 credits to the
/// IBM dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Time of the decision (an interval boundary), ms.
    pub at_ms: u64,
    /// Pod count before.
    pub from: usize,
    /// Pod count after.
    pub to: usize,
}

impl ScaleEvent {
    /// True for scale-up events.
    pub fn is_up(&self) -> bool {
        self.to > self.from
    }
}

impl SimResult {
    /// Extracts the scale events from the pod-count samples, given the
    /// interval the simulation ran at.
    pub fn scale_events(&self, interval_ms: u64) -> Vec<ScaleEvent> {
        let mut events = Vec::new();
        let mut prev = self.initial_pods;
        for (i, &count) in self.pod_counts.iter().enumerate() {
            if count != prev {
                events.push(ScaleEvent {
                    at_ms: (i as u64 + 1) * interval_ms,
                    from: prev,
                    to: count,
                });
            }
            prev = count;
        }
        events
    }
}

/// Event-processing statistics for one simulated application — the
/// witness for the engine's complexity guarantee: [`EngineStats::events`]
/// grows with invocations and pod activity, never with the simulated
/// span. A 62-day idle app costs a handful of idle transitions, not
/// ~89,000 per-tick decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Invocations replayed.
    pub arrivals: u64,
    /// Interval boundaries processed one-by-one (work in flight, a
    /// fault the policy could observe, or a rate-limited idle
    /// scale-up).
    pub ticks: u64,
    /// Idle-stretch policy transitions (one per
    /// [`crate::policy::ScalingPolicy::tick_idle`] call).
    pub idle_transitions: u64,
    /// Interval boundaries absorbed in O(1) by the idle fast-forward.
    pub batched_ticks: u64,
}

impl EngineStats {
    /// Units of per-event work the engine actually performed. Batched
    /// ticks are excluded: an entire batch costs O(1).
    pub fn events(&self) -> u64 {
        self.arrivals + self.ticks + self.idle_transitions
    }
}

#[derive(Debug, Clone, Copy)]
struct Pod {
    /// Stable identity (monotonic, never reused) keying the incremental
    /// indexes into the pod vector.
    uid: u64,
    warm_at: u64,
    keep_until: u64,
    /// Requests pinned to this pod while it warms. Only meaningful
    /// while `warm_at` is in the future: once warm, the pod's load is
    /// tracked by the aggregate in-flight pool like every other pod's.
    queued: u64,
    /// Whether a pod-warm event for the *current* `warm_at` is
    /// outstanding in the event queue. Events are deleted lazily: a
    /// popped event only settles the pod if this flag is still set and
    /// the times match (crashes reschedule the warm-up; evictions
    /// remove the pod entirely).
    warm_pending: bool,
    /// Which decision brought this pod into existence (min-scale floor,
    /// reactive admission, or proactive policy target) — the cause
    /// reference the span layer attributes waits to. Survives crashes:
    /// a restarted pod keeps its provenance.
    origin: PodOrigin,
}

/// Outcome of cluster admission for one reactive spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReactiveSlot {
    /// Room found on `node`, after evicting `victim` if `Some`.
    Placed { node: usize, victim: Option<u64> },
    /// No room and no evictable warm pod: the request runs
    /// overcommitted with no pod created.
    Saturated,
}

/// Internal integrator state.
struct Engine<'a> {
    cfg: &'a SimConfig,
    /// Telemetry track for this app's trace events (`None` unless
    /// `femux_obs` event recording is on). One app is one sequential
    /// unit of work, so the track honors the obs ordering contract.
    track: Option<String>,
    concurrency: u64,
    cold_ms: u32,
    min_scale: usize,
    pods: Vec<Pod>,
    inflight: BinaryHeap<Reverse<u64>>,
    last_t: u64,
    alive_pod_ms: f64,
    interval_conc_ms: f64,
    interval_peak: f64,
    interval_arrivals: f64,
    avg_concurrency: Vec<f64>,
    peak_concurrency: Vec<f64>,
    arrivals: Vec<f64>,
    pod_counts: Vec<usize>,
    costs: CostRecord,
    delays: Vec<f64>,
    spawn_minute: u64,
    spawns_this_minute: usize,
    /// This app's fault stream (`None` when running fault-free).
    faults: Option<AppFaults>,
    /// Delayed actuations: `(apply_at_ms, target)` pairs waiting for
    /// their tick.
    pending_actuation: Vec<(u64, usize)>,
    /// Monotonic pod-identity source.
    next_uid: u64,
    /// Pods whose warm-up has completed — the incrementally maintained
    /// replacement for the per-arrival `warm_at <= t` scan.
    warm_pods: usize,
    /// Future pod-warm events `(warm_at, uid)`, settled lazily by
    /// [`Engine::settle_warm`]. Stale entries (crashed or evicted pods)
    /// are skipped on pop.
    warm_events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Warming joinable pods with spare per-pod concurrency, ordered by
    /// `(warm_at, uid)`: `first()` is the soonest-warm join candidate.
    /// Only reactive cold-start pods join: proactive spawns are not
    /// routable until ready, and restarts accept no joiners.
    /// The uid tie-break equals the old pod-vector-order tie-break
    /// because joinable pods enter the vector in uid order and, having
    /// pinned requests, are protected — so the eviction sort (stable,
    /// keyed on `warm_at`) never reorders equal-`warm_at` joinables.
    joinable: BTreeSet<(u64, u64)>,
    /// Requests pinned to still-warming pods — the incrementally
    /// maintained replacement for the `waiting_on_warming` scan.
    waiting: u64,
    /// Pod uid → current index in `pods` (see [`Engine::reindex_from`]).
    index_of: BTreeMap<u64, usize>,
    stats: EngineStats,
    /// Numeric app id, the sampler's first key component.
    app_id: u64,
    /// Deterministic invocation sampler (`None` = span layer off; see
    /// [`SimConfig::spans`]).
    sampler: Option<SpanSampler>,
    /// Lifecycle spans of the sampled invocations, in arrival order.
    spans: Vec<InvocationSpan>,
    /// Per-app cluster state (`None` = free-floating pods, the
    /// historical accounting).
    cluster: Option<Cluster>,
    /// Per-node crash streams (`None` unless both a fault plan and a
    /// cluster are installed — node faults need nodes to crash).
    node_faults: Option<NodeFaults>,
    /// Pods displaced by node crashes still waiting to be respawned on
    /// a surviving node.
    displaced_pending: u64,
    /// Consecutive respawn rounds that left displaced pods queued; the
    /// retry penalty is `2^strikes − 1` ticks (capped).
    restart_strikes: u32,
    /// Earliest tick at which the next respawn round may run.
    restart_due: u64,
}

/// The index of the interval boundary at `t` in the fault schedules'
/// numbering, where the first boundary is tick 0.
fn tick_index(t: u64, interval_ms: u64) -> u64 {
    t / interval_ms - 1
}

/// Removes the entries of `pending` that are due at `t`, preserving
/// insertion order in both the returned batch and the remainder. The
/// old implementation `Vec::remove(i)`-ed inside a scan loop — O(n²)
/// and easy to get out of order when re-entered.
fn drain_due(
    pending: &mut Vec<(u64, usize)>,
    t: u64,
) -> Vec<(u64, usize)> {
    let mut due = Vec::new();
    pending.retain(|&entry| {
        if entry.0 <= t {
            due.push(entry);
            false
        } else {
            true
        }
    });
    due
}

impl Engine<'_> {
    /// Advances the clock to `t`, integrating concurrency and pod-alive
    /// time across the in-between completions.
    fn advance(&mut self, t: u64) {
        debug_assert!(t >= self.last_t, "time went backwards");
        let mut now = self.last_t;
        while let Some(&Reverse(end)) = self.inflight.peek() {
            if end > t {
                break;
            }
            let dt = (end - now) as f64;
            self.interval_conc_ms += self.inflight.len() as f64 * dt;
            self.alive_pod_ms += self.pods.len() as f64 * dt;
            now = end;
            self.inflight.pop();
        }
        let dt = (t - now) as f64;
        self.interval_conc_ms += self.inflight.len() as f64 * dt;
        self.alive_pod_ms += self.pods.len() as f64 * dt;
        self.last_t = t;
        // Per-node residency is constant across the advance (completions
        // never move pods), so one segment step integrates it exactly;
        // sum(node_pod_ms) tracks alive_pod_ms by construction.
        if let Some(cl) = self.cluster.as_mut() {
            cl.advance(t);
        }
    }

    /// Settles every pod-warm event at or before `t`: the pod's warm-up
    /// completed, so it joins the warm count, releases its pinned
    /// requests from the waiting total, and leaves the join index.
    /// Amortized O(log pods) per pod spawn; stale events (the pod
    /// crashed and rescheduled its warm-up, or was evicted) are
    /// recognized by the `(warm_at, warm_pending)` check and skipped.
    fn settle_warm(&mut self, t: u64) {
        while let Some(&Reverse((w, uid))) = self.warm_events.peek() {
            if w > t {
                break;
            }
            self.warm_events.pop();
            let Some(&idx) = self.index_of.get(&uid) else {
                continue;
            };
            let pod = &mut self.pods[idx];
            if pod.warm_at != w || !pod.warm_pending {
                continue;
            }
            pod.warm_pending = false;
            let queued = pod.queued;
            self.warm_pods += 1;
            self.waiting -= queued;
            self.joinable.remove(&(w, uid));
        }
    }

    /// Brings a new pod into existence at `t`, warm `cold` ms later and
    /// protected until `keep_until`, with `queued` requests pinned to it:
    /// assigns its uid, indexes it, and starts its crash schedule and its
    /// warm-up. Every spawn comes through here (the min-scale floor,
    /// reactive and proactive spawns, restarts after a node crash); the
    /// caller has already placed the pod on the cluster, when one is
    /// modeled, under the uid it gets: `self.next_uid`. Returns the uid.
    fn add_pod(
        &mut self,
        t: u64,
        cold: u64,
        keep_until: u64,
        queued: u64,
        origin: PodOrigin,
    ) -> u64 {
        let uid = self.next_uid;
        self.next_uid += 1;
        self.pods.push(Pod {
            uid,
            warm_at: t + cold,
            keep_until,
            queued,
            warm_pending: false,
            origin,
        });
        let idx = self.pods.len() - 1;
        self.index_of.insert(uid, idx);
        self.schedule_pod(uid, t);
        self.schedule_warm(idx, t);
        uid
    }

    /// Starts the warm-up of the pod at `idx`, due at its `warm_at`: a
    /// pod already warm at `t` joins the warm count at once; any other
    /// gets a pod-warm event, and its pinned requests wait on it until
    /// [`Self::settle_warm`] releases them.
    fn schedule_warm(&mut self, idx: usize, t: u64) {
        let pod = &mut self.pods[idx];
        pod.warm_pending = pod.warm_at > t;
        if pod.warm_pending {
            self.warm_events.push(Reverse((pod.warm_at, pod.uid)));
            self.waiting += pod.queued;
        } else {
            self.warm_pods += 1;
        }
    }

    /// Takes pod `p`, which leaves the fleet or restarts at `t`, out of
    /// the aggregates: a warm pod out of the warm count, a warming one out
    /// of the join set and its pinned requests out of the waiting total
    /// (they were billed their delay at admission). Its outstanding warm
    /// event, if any, goes stale and [`Self::settle_warm`] skips it.
    fn unsettle(&mut self, p: Pod, t: u64) {
        if p.warm_at > t {
            self.waiting -= p.queued;
            self.joinable.remove(&(p.warm_at, p.uid));
        } else {
            self.warm_pods -= 1;
        }
    }

    /// Points `index_of` at the pods from position `first` on, after a
    /// removal or a sort moved them; the entries before `first` stand.
    fn reindex_from(&mut self, first: usize) {
        for (i, p) in self.pods.iter().enumerate().skip(first) {
            self.index_of.insert(p.uid, i);
        }
    }

    /// Bills the request arriving at `t` a cold start that kept it
    /// waiting `wait` ms, whether it joined a warming pod, spawned one,
    /// or ran overcommitted.
    fn bill_cold_start(&mut self, t: u64, wait: u64) {
        self.costs.cold_starts += 1;
        self.costs.cold_start_seconds += wait as f64 / 1_000.0;
        femux_obs::counter_add("sim.cold_starts", 1);
        femux_obs::observe("sim.cold_start_wait_ms", wait);
        if let Some(track) = &self.track {
            // The span covers the queueing delay the request pays
            // while its pod initializes (virtual time, µs).
            femux_obs::span(
                track,
                "sim",
                "cold-start",
                t * 1_000,
                wait * 1_000,
                &[("wait_ms", wait)],
            );
        }
    }

    /// Closes the current interval, `len_ms` long, into the per-interval
    /// series: its average concurrency (`NaN` when its report was
    /// `lost`), its peak and its arrivals. The next interval's peak
    /// starts from the requests in flight.
    fn close_interval(&mut self, len_ms: u64, lost: bool) {
        let avg = if lost {
            f64::NAN
        } else {
            self.interval_conc_ms / len_ms as f64
        };
        self.avg_concurrency.push(avg);
        self.peak_concurrency.push(self.interval_peak);
        self.arrivals.push(self.interval_arrivals);
        self.interval_conc_ms = 0.0;
        self.interval_peak = self.inflight.len() as f64;
        self.interval_arrivals = 0.0;
    }

    fn on_arrival(&mut self, inv: &Invocation, index: u64, interval_end: u64) {
        let t = inv.start_ms;
        self.advance(t);
        self.settle_warm(t);
        self.stats.arrivals += 1;
        self.interval_arrivals += 1.0;
        let warm = self.warm_pods as u64 * self.concurrency;
        let executing = self.inflight.len() as u64 - self.waiting;
        let dur = inv.duration_ms as u64;
        // `Some` iff this invocation is in the span sample. The cause is
        // computed inside the admission branch that fired, so the hot
        // path (sampler off, or invocation unsampled) stays untouched.
        let sampled = self
            .sampler
            .as_ref()
            .is_some_and(|s| s.sample(self.app_id, index));
        let mut cause: Option<WaitCause> = None;
        let delay_ms = if executing < warm {
            if sampled {
                cause = Some(self.warm_origin_mix(t));
            }
            0u64
        } else if let Some(&(warm_at, uid)) = self.joinable.first() {
            // Queue on an already-warming cold-start pod: the request
            // pays the pod's remaining warm-up as its cold-start wait
            // instead of spawning a pod of its own (a burst of k
            // requests with per-pod concurrency ≥ k shares one pod).
            let slot = self.index_of[&uid];
            let pod = &mut self.pods[slot];
            let wait = warm_at - t;
            let end = warm_at + dur;
            pod.queued += 1;
            pod.keep_until = pod.keep_until.max(interval_end).max(end);
            let origin = pod.origin;
            if pod.queued >= self.concurrency {
                self.joinable.remove(&(warm_at, uid));
            }
            self.waiting += 1;
            if sampled {
                cause = Some(WaitCause::JoinedWarmingPod {
                    pod_uid: uid,
                    origin,
                });
                if let Some(track) = &self.track {
                    // Flow step: bind this request to the spawn event of
                    // the pod whose warm-up it is waiting out.
                    femux_obs::flow(
                        track,
                        "span",
                        "join",
                        t * 1_000,
                        FlowPhase::Step,
                        femux_obs::span::flow_id(track, uid),
                    );
                }
            }
            self.bill_cold_start(t, wait);
            wait
        } else {
            // Cold start: the cluster (when modeled) must find room
            // before any pod exists — evicting the idle-longest warm
            // pod under memory pressure, or, when saturated, admitting
            // the request overcommitted with no pod at all. Placement
            // resolves first so the oracle mirrors it branch-for-branch.
            let mut evicted: Option<(u64, usize)> = None;
            let mut saturated = false;
            if self.cluster.is_some() {
                match self.place_reactive(t, self.next_uid) {
                    ReactiveSlot::Placed { node, victim } => {
                        evicted = victim.map(|v| (v, node));
                    }
                    ReactiveSlot::Saturated => saturated = true,
                }
            }
            let mut cold = self.cold_ms as u64;
            if saturated {
                // Saturated overcommit: the request still runs and pays
                // a full — never straggled — cold start, but no pod is
                // created (the straggler draw contract is one draw per
                // pod *spawn*, and nothing spawned).
                if sampled {
                    cause = Some(WaitCause::Saturated);
                }
            } else {
                // One straggler draw per cold-start pod spawn, keyed by
                // the pod: the request pays the inflated latency and the
                // cold-start seconds account for it.
                if let Some(faults) = self.faults.as_mut() {
                    if let Some(factor) = faults.straggle(self.next_uid) {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "rounds an inflated cold-start latency in ms, far below u64::MAX"
                        )]
                        let inflated =
                            (cold as f64 * factor).round() as u64;
                        femux_obs::observe(
                            "fault.straggler_extra_ms",
                            inflated.saturating_sub(cold),
                        );
                        cold = inflated;
                    }
                }
                // Spawn a pod now, with the request pinned to it; it is
                // protected until the end of the current interval and
                // until this request completes.
                let uid = self.add_pod(
                    t,
                    cold,
                    interval_end.max(t + cold + dur),
                    1,
                    PodOrigin::Reactive { at_ms: t },
                );
                if cold > 0 && 1 < self.concurrency {
                    // Spare per-pod concurrency: later arrivals may
                    // queue on it while it warms (a pod that is already
                    // warm is not joinable).
                    self.joinable.insert((t + cold, uid));
                }
                if self.sampler.is_some() {
                    if let Some(track) = &self.track {
                        // Flow start: every reactive spawn anchors a
                        // causal arrow; later sampled joiners bind to it
                        // with flow steps. Emitted for unsampled spawns
                        // too (a sampled join may reference a pod an
                        // unsampled arrival spawned), but only while the
                        // span layer is on.
                        femux_obs::flow(
                            track,
                            "span",
                            "pod-spawn",
                            t * 1_000,
                            FlowPhase::Start,
                            femux_obs::span::flow_id(track, uid),
                        );
                    }
                }
                if sampled {
                    cause = Some(match evicted {
                        Some((victim, node)) => WaitCause::Evicted {
                            node: node as u64,
                            victim_pod: victim,
                        },
                        None => WaitCause::FreshSpawn { pod_uid: uid },
                    });
                    if let Some(track) = &self.track {
                        femux_obs::flow(
                            track,
                            "span",
                            "join",
                            t * 1_000,
                            FlowPhase::Step,
                            femux_obs::span::flow_id(track, uid),
                        );
                    }
                }
            }
            self.bill_cold_start(t, cold);
            cold
        };
        self.inflight.push(Reverse(t + delay_ms + dur));
        self.interval_peak =
            self.interval_peak.max(self.inflight.len() as f64);
        self.costs.invocations += 1;
        femux_obs::counter_add("sim.invocations", 1);
        self.costs.exec_seconds += dur as f64 / 1_000.0;
        self.costs.service_seconds += (delay_ms + dur) as f64 / 1_000.0;
        if self.cfg.record_delays {
            self.delays.push(delay_ms as f64 / 1_000.0);
        }
        if let Some(cause) = cause {
            self.record_span(t, index, delay_ms, dur, cause);
        }
    }

    /// Provenance breakdown of the currently warm pods, as a
    /// [`WaitCause::Warm`]. Only computed for sampled warm admissions —
    /// an O(pods) scan, deliberately kept off the unsampled hot path.
    fn warm_origin_mix(&self, t: u64) -> WaitCause {
        let (mut min_scale, mut reactive, mut proactive, mut restarted) =
            (0, 0, 0, 0);
        for p in self.pods.iter().filter(|p| p.warm_at <= t) {
            match p.origin {
                PodOrigin::MinScale => min_scale += 1,
                PodOrigin::Reactive { .. } => reactive += 1,
                PodOrigin::Proactive { .. } => proactive += 1,
                PodOrigin::Restarted { .. } => restarted += 1,
            }
        }
        WaitCause::Warm { min_scale, reactive, proactive, restarted }
    }

    /// Finds cluster room for a reactive spawn with pod id `uid` at
    /// time `t`: direct placement, else memory-pressure eviction of the
    /// idle-longest unprotected warm pod (minimum `(warm_at, uid)`, the
    /// `joinable` ordering extended to warm pods), else saturation.
    /// Eviction deliberately ignores the min-scale floor: memory
    /// pressure is physical, and the policy will re-request the floor
    /// at the next tick.
    fn place_reactive(&mut self, t: u64, uid: u64) -> ReactiveSlot {
        if let Some(node) =
            self.cluster.as_mut().expect("cluster layer on").try_place(uid)
        {
            return ReactiveSlot::Placed { node, victim: None };
        }
        // Victim scan: warm (`warm_at <= t`) and unprotected
        // (`keep_until <= t`, so every admitted request has finished).
        let mut victim: Option<(u64, u64, usize)> = None;
        for (i, p) in self.pods.iter().enumerate() {
            if p.warm_at <= t && p.keep_until <= t {
                let key = (p.warm_at, p.uid);
                if victim.is_none_or(|(w, u, _)| key < (w, u)) {
                    victim = Some((p.warm_at, p.uid, i));
                }
            }
        }
        let Some((_, victim_uid, victim_idx)) = victim else {
            let cl = self.cluster.as_mut().expect("cluster layer on");
            cl.saturated_overcommits += 1;
            femux_obs::counter_add("evict.saturated_overcommits", 1);
            return ReactiveSlot::Saturated;
        };
        let cl = self.cluster.as_mut().expect("cluster layer on");
        let node = cl.release(victim_uid, ReleaseReason::Evicted);
        femux_obs::counter_add("evict.evictions", 1);
        let p = self.pods.remove(victim_idx);
        self.index_of.remove(&victim_uid);
        self.unsettle(p, t);
        self.reindex_from(victim_idx);
        if let Some(track) = &self.track {
            femux_obs::instant(
                track,
                "cluster",
                "pod-evict",
                t * 1_000,
                &[("node", node as u64), ("victim", victim_uid)],
            );
        }
        // Pods are uniform-sized, so freeing the victim's slot is
        // exactly enough room — and the only room, so placement must
        // land on the victim's node.
        let placed = self
            .cluster
            .as_mut()
            .expect("cluster layer on")
            .try_place(uid);
        debug_assert_eq!(placed, Some(node), "eviction frees the victim's node");
        ReactiveSlot::Placed { node, victim: Some(victim_uid) }
    }

    /// Tears the displaced pods out of the engine's pod bookkeeping
    /// after a node crash (the cluster already released them). Admitted
    /// in-flight work keeps its original completion time — the same
    /// simplification the pod-level crash layer makes — but queued
    /// joiners on still-warming pods are dropped from the waiting count.
    /// `uids` are one node's residents, ascending as
    /// [`Cluster::crash_node`] returns them; only the pods at or after
    /// the first one removed move, so only they re-index.
    fn remove_displaced(&mut self, uids: &[u64], t: u64) {
        debug_assert!(uids.is_sorted(), "displaced uids are ascending");
        let mut first = self.pods.len();
        for uid in uids {
            let idx = self.index_of.remove(uid).expect("a displaced pod");
            first = first.min(idx);
            self.unsettle(self.pods[idx], t);
        }
        self.pods.retain(|p| uids.binary_search(&p.uid).is_err());
        self.reindex_from(first);
        self.displaced_pending += uids.len() as u64;
    }

    /// Records the lifecycle of one sampled invocation: the span table
    /// entry (always), the per-segment breakdown histograms (when
    /// telemetry is on), and the Chrome-trace lifecycle event (when
    /// event recording is on). Exactly one wait segment is nonzero —
    /// queue wait for joins, cold wait for fresh spawns — and their sum
    /// is the `delay_ms` the engine just billed, so the exact-accounting
    /// identity holds by construction.
    fn record_span(
        &mut self,
        t: u64,
        index: u64,
        delay_ms: u64,
        dur: u64,
        cause: WaitCause,
    ) {
        let (queue_wait_ms, cold_wait_ms) = match cause {
            WaitCause::Warm { .. } => (0, 0),
            WaitCause::JoinedWarmingPod { .. } => (delay_ms, 0),
            WaitCause::FreshSpawn { .. }
            | WaitCause::Evicted { .. }
            | WaitCause::Saturated => (0, delay_ms),
        };
        self.spans.push(InvocationSpan {
            app: self.app_id,
            index,
            arrival_ms: t,
            queue_wait_ms,
            cold_wait_ms,
            exec_ms: dur,
            cause,
        });
        femux_obs::observe("span.queue_wait", queue_wait_ms);
        femux_obs::observe("span.cold_wait", cold_wait_ms);
        femux_obs::observe("span.exec", dur);
        if let Some(track) = &self.track {
            let mut span = SpanGuard::open(
                track,
                "span",
                &format!("inv-{index}"),
                t * 1_000,
            );
            span.end_at((t + delay_ms + dur) * 1_000);
            span.arg("index", index);
            span.arg("queue_wait_ms", queue_wait_ms);
            span.arg("cold_wait_ms", cold_wait_ms);
            span.arg("exec_ms", dur);
            span.arg("cause", cause.code());
            match cause {
                WaitCause::Warm {
                    min_scale,
                    reactive,
                    proactive,
                    restarted,
                } => {
                    span.arg("warm_min_scale", min_scale);
                    span.arg("warm_reactive", reactive);
                    span.arg("warm_proactive", proactive);
                    span.arg("warm_restarted", restarted);
                }
                WaitCause::JoinedWarmingPod { pod_uid, origin } => {
                    span.arg("pod", pod_uid);
                    span.arg("pod_origin", origin.code());
                    if let PodOrigin::Reactive { at_ms }
                    | PodOrigin::Proactive { at_ms }
                    | PodOrigin::Restarted { at_ms } = origin
                    {
                        span.arg("pod_spawned_ms", at_ms);
                    }
                }
                WaitCause::FreshSpawn { pod_uid } => {
                    span.arg("pod", pod_uid);
                }
                WaitCause::Evicted { node, victim_pod } => {
                    span.arg("node", node);
                    span.arg("victim_pod", victim_pod);
                }
                WaitCause::Saturated => {}
            }
        }
    }

    fn proactive_spawn_allowed(&mut self, t: u64) -> bool {
        let Some(limit) = self.cfg.scale_limit else {
            return true;
        };
        if self.pods.len() < limit.threshold {
            return true;
        }
        let minute = t / 60_000;
        if minute != self.spawn_minute {
            self.spawn_minute = minute;
            self.spawns_this_minute = 0;
        }
        if self.spawns_this_minute < limit.per_minute {
            self.spawns_this_minute += 1;
            true
        } else {
            false
        }
    }

    /// Starts the crash schedule of pod `uid`, spawned at `t`: it is a
    /// candidate from the first tick after `t`.
    fn schedule_pod(&mut self, uid: u64, t: u64) {
        if let Some(faults) = self.faults.as_mut() {
            faults.spawn_pod(uid, t / self.cfg.interval_ms);
        }
    }

    /// Restarts in place every pod whose crash falls at tick `t`. The
    /// fault helpers below run only under a plan; their callers check,
    /// so a fault-free tick makes no call.
    fn crash_pods(&mut self, t: u64) {
        let faults = self.faults.as_mut().expect("a fault plan");
        let index_of = &self.index_of;
        let tick = tick_index(t, self.cfg.interval_ms);
        let crashed =
            faults.crash_pods(tick, |uid| index_of.contains_key(&uid));
        if crashed.is_empty() {
            return;
        }
        let cold = self.cold_ms as u64;
        for uid in &crashed {
            // The pod restarts in place: it stays allocated (the
            // platform reschedules it immediately, so GB-seconds keep
            // accruing) but must redo its cold start, dropping warm
            // capacity until then. The restart itself is not a
            // request-visible cold start — requests that find no warm
            // capacity pay (and account) their own. Restarting pods
            // accept no joiners and shed any stale warming queue
            // (requests already admitted keep their original completion
            // times — the crash never re-delays admitted work, a
            // deliberate simplification).
            let i = self.index_of[uid];
            self.unsettle(self.pods[i], t);
            let pod = &mut self.pods[i];
            pod.warm_at = t + cold;
            pod.keep_until = pod.keep_until.max(t);
            pod.queued = 0;
            self.schedule_warm(i, t);
        }
        if let Some(track) = &self.track {
            femux_obs::instant(
                track,
                "fault",
                "pod-crash",
                t * 1_000,
                &[("pods", crashed.len() as u64)],
            );
        }
    }

    /// Emits a node crash's instant and its causal anchor: later
    /// pod-restart flow steps bind to the crash that displaced them.
    fn trace_node_crash(&self, t: u64, node: usize, pods: usize, ordinal: u64) {
        if let Some(track) = &self.track {
            femux_obs::instant(
                track,
                "fault",
                "node-crash",
                t * 1_000,
                &[("node", node as u64), ("pods", pods as u64)],
            );
            femux_obs::flow(
                track,
                "span",
                "node-crash",
                t * 1_000,
                FlowPhase::Start,
                femux_obs::span::flow_id(track, NODE_CRASH_FLOW_BASE ^ ordinal),
            );
        }
    }

    /// Node fault domain at the tick at `t` (cluster layer + fault plan
    /// only): recover matured nodes, crash every node whose crash falls
    /// at `t`, in node order, and run the respawn round. A crash kills
    /// every resident pod at once; displaced pods respawn on surviving
    /// nodes under capped exponential backoff, degrading to queueing
    /// while the cluster stays saturated.
    fn node_tick(&mut self, t: u64) {
        let tick = tick_index(t, self.cfg.interval_ms);
        let mut nf = self.node_faults.take().expect("node faults");
        let mut cl = self.cluster.take().expect("node faults imply a cluster");
        cl.recover_due(t);
        let recovery_ms = nf.recovery_ticks() * self.cfg.interval_ms;
        let mut fresh = 0u64;
        for node in 0..nf.n_nodes() {
            if nf.next_crash(node) != tick {
                continue;
            }
            debug_assert!(cl.nodes()[node].up, "a down node's crash fell due");
            nf.crash_node(node);
            let victims = cl.crash_node(node, t + recovery_ms);
            self.trace_node_crash(t, node, victims.len(), cl.node_crashes);
            if !victims.is_empty() {
                self.remove_displaced(&victims, t);
                fresh += victims.len() as u64;
            }
        }
        if fresh > 0 && self.displaced_pending == fresh {
            // First displacement of an episode: the first respawn
            // attempt runs at the next tick (zero strikes, zero
            // penalty).
            self.restart_due = t + self.cfg.interval_ms;
        }
        // Respawn round: place queued displaced pods (cold,
        // non-joinable, new identity) on surviving nodes.
        if self.displaced_pending > 0 && t >= self.restart_due {
            let cold = self.cold_ms as u64;
            let mut restarted = 0u64;
            while self.displaced_pending > 0 {
                if cl.try_place(self.next_uid).is_none() {
                    break;
                }
                cl.node_restarts += 1;
                self.add_pod(t, cold, t, 0, PodOrigin::Restarted { at_ms: t });
                self.displaced_pending -= 1;
                restarted += 1;
                if let Some(track) = &self.track {
                    femux_obs::flow(
                        track,
                        "span",
                        "pod-restart",
                        t * 1_000,
                        FlowPhase::Step,
                        femux_obs::span::flow_id(
                            track,
                            NODE_CRASH_FLOW_BASE ^ cl.node_crashes,
                        ),
                    );
                }
            }
            if restarted > 0 {
                femux_obs::counter_add("fault.node_restarts", restarted);
                if let Some(track) = &self.track {
                    femux_obs::instant(
                        track,
                        "cluster",
                        "pod-restart",
                        t * 1_000,
                        &[
                            ("pods", restarted),
                            ("queued", self.displaced_pending),
                        ],
                    );
                }
            }
            if self.displaced_pending > 0 {
                let penalty = (1u64
                    << self
                        .restart_strikes
                        .min(MAX_RESTART_STRIKE_EXPONENT))
                    - 1;
                self.restart_strikes = self.restart_strikes.saturating_add(1);
                self.restart_due = t + (penalty + 1) * self.cfg.interval_ms;
            } else {
                self.restart_strikes = 0;
            }
        }
        self.cluster = Some(cl);
        self.node_faults = Some(nf);
    }

    /// Ticks from the tick at `t` (which must not have run yet) before
    /// the next fault the policy could observe, as the fleet stands: a
    /// lost report, an actuation fault, or the crash of a pod or of a
    /// node holding one. Unbounded ([`NEVER`]) without a plan.
    #[inline]
    fn quiet_ticks(&mut self, t: u64) -> u64 {
        let Some(faults) = self.faults.as_mut() else {
            return NEVER;
        };
        let index_of = &self.index_of;
        let mut next = faults
            .next_pod_crash(|uid| index_of.contains_key(&uid))
            .min(faults.next_tick_fault());
        if let (Some(nf), Some(cl)) = (&self.node_faults, &self.cluster) {
            for (node, n) in cl.nodes().iter().enumerate() {
                if n.pods > 0 {
                    next = next.min(nf.next_crash(node));
                }
            }
        }
        next - tick_index(t, self.cfg.interval_ms)
    }

    /// Counts every node crash due by the tick at `t` and leaves each
    /// node down until its recovery tick, as [`Self::node_tick`] would.
    /// Inside an idle stretch these nodes hold none of the app's pods
    /// (the stretch ends before an occupied node's crash), so a crash
    /// changes nothing else.
    fn absorb_node_crashes(&mut self, t: u64) {
        let last = tick_index(t, self.cfg.interval_ms);
        let interval = self.cfg.interval_ms;
        let mut nf = self.node_faults.take().expect("node faults");
        let mut cl = self.cluster.take().expect("node faults imply a cluster");
        let recovery_ms = nf.recovery_ticks() * interval;
        // Node by node: no crash here touches another node.
        let ordinal = cl.node_crashes;
        let mut traced: Vec<(u64, usize)> = Vec::new();
        for node in 0..nf.n_nodes() {
            while nf.next_crash(node) <= last {
                let at = (nf.next_crash(node) + 1) * interval;
                cl.crash_empty_node(node, at + recovery_ms);
                nf.crash_node(node);
                if self.track.is_some() {
                    traced.push((at, node));
                }
            }
        }
        // Their events go out in tick order, so the track's timestamps
        // stay monotone and the crash ordinals run as on the per-tick
        // path.
        traced.sort_unstable();
        for (k, &(at, node)) in (1..).zip(&traced) {
            self.trace_node_crash(at, node, 0, ordinal + k);
        }
        cl.recover_due(t);
        self.cluster = Some(cl);
        self.node_faults = Some(nf);
    }

    fn on_tick(&mut self, t: u64, policy: &mut dyn ScalingPolicy, config: &femux_trace::types::AppConfig) {
        self.advance(t);
        self.settle_warm(t);
        self.stats.ticks += 1;
        if self.faults.is_some() {
            self.crash_pods(t);
        }
        // Close the completed interval's observations. A lost report
        // surfaces as a NaN average-concurrency sample: the policy must
        // cope with a missing queue-proxy report.
        let interval = self.cfg.interval_ms;
        let lost = self
            .faults
            .as_mut()
            .is_some_and(|f| f.lose_report(tick_index(t, interval)));
        self.close_interval(interval, lost);
        if self.node_faults.is_some() {
            self.node_tick(t);
        }

        // Apply actuations whose injected delay has matured — in
        // insertion order, before the policy observes the pod count.
        if !self.pending_actuation.is_empty() {
            for (_, target) in drain_due(&mut self.pending_actuation, t)
            {
                self.apply_target(t, target);
            }
        }

        let ctx = PolicyCtx {
            now_ms: t,
            interval_ms: self.cfg.interval_ms,
            avg_concurrency: &self.avg_concurrency,
            peak_concurrency: &self.peak_concurrency,
            arrivals: &self.arrivals,
            config,
            current_pods: self.pods.len(),
            inflight: self.inflight.len(),
        };
        let mut target = policy.target_pods(&ctx);
        if self.cfg.respect_min_scale {
            target = target.max(self.min_scale);
        }
        femux_obs::counter_add("sim.ticks", 1);
        if self.sampler.is_some() {
            if let Some(track) = &self.track {
                // Decision-point marker for the span layer: `lens` uses
                // these to name the policy decision nearest a wait.
                femux_obs::instant(
                    track,
                    "policy",
                    "policy-decision",
                    t * 1_000,
                    &[
                        ("target", target as u64),
                        ("pods", self.pods.len() as u64),
                    ],
                );
            }
        }
        let fate = match self.faults.as_mut() {
            Some(faults) => {
                faults.actuation_fate(tick_index(t, self.cfg.interval_ms))
            }
            None => ActuationFate::Apply,
        };
        match fate {
            ActuationFate::Apply => self.apply_target(t, target),
            ActuationFate::Delay(ticks) => self
                .pending_actuation
                .push((t + ticks.max(1) * self.cfg.interval_ms, target)),
            ActuationFate::Drop => {}
        }
        self.pod_counts.push(self.pods.len());
    }

    /// Applies a scaling decision: scale up under the rate limit, or
    /// scale down respecting in-flight work, protected pods, and the
    /// minimum-scale floor.
    fn apply_target(&mut self, t: u64, target: usize) {
        let current = self.pods.len();
        if target > current {
            let cold = self.cold_ms as u64;
            for _ in current..target {
                // Proactive spawns never evict: a placement denial is
                // counted and the spawn is simply skipped, before the
                // rate-limit check so a denial never consumes a
                // rate-limit slot.
                if self.cluster.as_ref().is_some_and(|cl| !cl.can_place()) {
                    self.cluster
                        .as_mut()
                        .expect("checked")
                        .placement_denials += 1;
                    femux_obs::counter_add("evict.placement_denials", 1);
                    break;
                }
                if !self.proactive_spawn_allowed(t) {
                    femux_obs::counter_add("sim.scale_limit_denials", 1);
                    break;
                }
                if let Some(cl) = self.cluster.as_mut() {
                    let placed = cl.try_place(self.next_uid);
                    debug_assert!(placed.is_some(), "can_place pre-checked");
                }
                self.add_pod(t, cold, t, 0, PodOrigin::Proactive { at_ms: t });
            }
            let spawned = self.pods.len() - current;
            if spawned > 0 {
                femux_obs::counter_add("sim.scale_up_events", 1);
                femux_obs::counter_add(
                    "sim.pods_spawned",
                    spawned as u64,
                );
                if let Some(track) = &self.track {
                    femux_obs::instant(
                        track,
                        "sim",
                        "scale-up",
                        t * 1_000,
                        &[
                            ("from", current as u64),
                            ("to", self.pods.len() as u64),
                        ],
                    );
                }
            }
        } else if target < current {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "pods needed for in-flight requests never exceed their count, a usize"
            )]
            let needed = (self.inflight.len() as u64)
                .div_ceil(self.concurrency)
                as usize;
            let protected =
                self.pods.iter().filter(|p| p.keep_until > t).count();
            let floor = target
                .max(needed)
                .max(protected)
                .max(if self.cfg.respect_min_scale {
                    self.min_scale
                } else {
                    0
                });
            if floor < current {
                // Keep protected pods, then the longest-warm ones (they
                // are certainly usable immediately).
                self.pods.sort_by_key(|p| {
                    (Reverse(p.keep_until > t), p.warm_at)
                });
                let keep = floor.max(protected);
                for i in keep..self.pods.len() {
                    let p = self.pods[i];
                    // Still-warming evictees are proactive spawns that
                    // never became routable: nothing pinned (pods with
                    // pinned requests are protected).
                    debug_assert!(p.warm_at <= t || p.queued == 0);
                    self.unsettle(p, t);
                    self.index_of.remove(&p.uid);
                    if let Some(cl) = self.cluster.as_mut() {
                        cl.release(p.uid, ReleaseReason::ScaledDown);
                    }
                }
                self.pods.truncate(keep);
                // The sort shuffled vector positions.
                self.reindex_from(0);
            }
            let removed = current - self.pods.len();
            if removed > 0 {
                // A scale-down to a zero target is the moment the
                // policy's keep-alive (or grace period) lapsed.
                let name = if target == 0 && self.pods.is_empty() {
                    femux_obs::counter_add("sim.keep_alive_expiries", 1);
                    "keep-alive-expiry"
                } else {
                    "scale-down"
                };
                femux_obs::counter_add("sim.scale_down_events", 1);
                femux_obs::counter_add(
                    "sim.pods_reclaimed",
                    removed as u64,
                );
                if let Some(track) = &self.track {
                    femux_obs::instant(
                        track,
                        "sim",
                        name,
                        t * 1_000,
                        &[
                            ("from", current as u64),
                            ("to", self.pods.len() as u64),
                        ],
                    );
                }
            }
        }
    }

    /// Processes up to `n` consecutive quiescent interval boundaries,
    /// starting at `first_tick`, consulting the policy once per
    /// constant-target stretch (via [`ScalingPolicy::tick_idle`])
    /// instead of once per tick, and returns how many it processed. The
    /// caller guarantees quiescence: nothing in flight, no displaced pod
    /// waiting to respawn, no delayed actuation pending, no arrival
    /// strictly before the stretch's last tick, and no fault inside it
    /// that [`Self::quiet_ticks`] can see from its first tick.
    ///
    /// Byte-exactness with the per-tick path follows from the
    /// `tick_idle` contract (the policy asserts the per-tick decisions
    /// it skipped) plus three engine facts: every closed interval of the
    /// stretch beyond the first is an exact zero, the pod count between
    /// transitions is constant (so the alive-time integral collapses to
    /// one product of integers, exact in f64), and no pod is protected
    /// while the app is quiescent, so applying a target `T ≤ current`
    /// leaves exactly `max(T, min_scale)` pods. Rate-limited scale-ups
    /// are the one pod-count trajectory the policy cannot predict, so
    /// those re-apply the (constant) target tick-by-tick. Beside them
    /// runs the denial run: a target above the pod count because the
    /// app's pod fits no node even empty and up
    /// ([`Cluster::fits_nowhere`]) can never be placed, so its pod count
    /// stays constant and each further tick of the run is one placement
    /// denial, counted in bulk. A floor that fits some node but not the
    /// room left (nodes full or down) keeps the tick-by-tick path.
    ///
    /// Under a fault plan, a crash of a node holding none of the app's
    /// pods is counted in place at its own tick. Any other crash — a
    /// pod's, or an occupied node's — ends the stretch at its tick,
    /// which then runs [`Self::on_tick`]; a run is capped so that it
    /// never spans one. A scale-up can bring new pods whose crashes fall
    /// inside its run: like a rate-limited one, such a run (whose
    /// decisions the `tick_idle` contract makes independent of the pod
    /// count) takes its remaining ticks one by one, faults included.
    fn run_idle_ticks(
        &mut self,
        first_tick: u64,
        n: u64,
        policy: &mut dyn ScalingPolicy,
        config: &femux_trace::types::AppConfig,
    ) -> u64 {
        let interval = self.cfg.interval_ms;
        self.advance(first_tick);
        self.settle_warm(first_tick);
        debug_assert!(self.inflight.is_empty());
        debug_assert!(self.pending_actuation.is_empty());
        debug_assert_eq!(self.displaced_pending, 0);
        debug_assert_eq!(self.waiting, 0);
        // Close the first interval with whatever accrued before
        // quiescence set in; every further interval of the stretch is an
        // exact zero (nothing arrives, nothing completes, nothing is in
        // flight).
        let base = self.avg_concurrency.len();
        self.close_interval(interval, false);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`n` ticks extend in-memory series, so it fits usize"
        )]
        let total = base + n as usize;
        self.avg_concurrency.resize(total, 0.0);
        self.peak_concurrency.resize(total, 0.0);
        self.arrivals.resize(total, 0.0);
        let min_pods = if self.cfg.respect_min_scale {
            self.min_scale
        } else {
            0
        };
        let mut i = 0u64;
        while i < n {
            let t = first_tick + i * interval;
            self.advance(t);
            self.settle_warm(t);
            debug_assert!(
                self.pods.iter().all(|p| p.keep_until <= t),
                "no pod is protected while quiescent"
            );
            let quiet = self.quiet_ticks(t);
            if quiet == 0 {
                break;
            }
            if self.node_faults.is_some() {
                self.absorb_node_crashes(t);
            }
            let run = {
                let idle = IdleTicks {
                    start_ms: first_tick,
                    interval_ms: interval,
                    n,
                    config,
                    min_pods,
                    avg_concurrency: &self.avg_concurrency,
                    peak_concurrency: &self.peak_concurrency,
                    arrivals: &self.arrivals,
                    base,
                };
                policy.tick_idle(&idle, i, self.pods.len(), (n - i).min(quiet))
            };
            let ticks = run.ticks.clamp(1, (n - i).min(quiet));
            let target = if self.cfg.respect_min_scale {
                run.target.max(self.min_scale)
            } else {
                run.target
            };
            self.stats.idle_transitions += 1;
            femux_obs::counter_add("sim.ticks", ticks);
            if self.sampler.is_some() {
                if let Some(track) = &self.track {
                    // One marker per idle transition (the per-tick path
                    // it replaces would emit one per tick; the trace
                    // records the batched reality, with the run length).
                    femux_obs::instant(
                        track,
                        "policy",
                        "policy-decision",
                        t * 1_000,
                        &[
                            ("target", target as u64),
                            ("pods", self.pods.len() as u64),
                            ("ticks", ticks),
                        ],
                    );
                }
            }
            let spawned_from = self.next_uid;
            self.apply_target(t, target);
            self.pod_counts.push(self.pods.len());
            i += ticks;
            // A target above a pod count that no node can ever raise is
            // denied once per tick and changes nothing else.
            let short = self.pods.len() < target;
            let denied = short
                && self.cluster.as_ref().is_some_and(Cluster::fits_nowhere);
            if (short && !denied)
                || (self.next_uid != spawned_from
                    && self.quiet_ticks(t) < ticks)
            {
                // The scale-out rate limit bit, or a new pod's fault
                // inside the run: re-apply the target (constant across
                // the run, by the tick_idle contract) tick-by-tick
                // without re-consulting the policy.
                for j in 1..ticks {
                    let tj = t + j * interval;
                    self.advance(tj);
                    self.settle_warm(tj);
                    if self.faults.is_some() {
                        self.crash_pods(tj);
                    }
                    if self.node_faults.is_some() {
                        self.node_tick(tj);
                    }
                    self.apply_target(tj, target);
                    self.pod_counts.push(self.pods.len());
                    self.stats.ticks += 1;
                }
                if self.displaced_pending > 0 {
                    break;
                }
            } else if ticks > 1 {
                // Constant pod count across the run: collapse the
                // remaining intervals into one integration step. The
                // product is integer-valued, so f64 addition is exact
                // and agrees with the per-tick sum.
                self.alive_pod_ms += self.pods.len() as f64
                    * interval as f64
                    * (ticks - 1) as f64;
                self.last_t = t + (ticks - 1) * interval;
                // Keep the per-node occupancy integral in lockstep with
                // the batched alive-time integral.
                let lt = self.last_t;
                if let Some(cl) = self.cluster.as_mut() {
                    cl.advance(lt);
                }
                if self.node_faults.is_some() {
                    self.absorb_node_crashes(lt);
                }
                if denied {
                    let cl = self.cluster.as_mut().expect("denied by a cluster");
                    cl.placement_denials += ticks - 1;
                    femux_obs::counter_add("evict.placement_denials", ticks - 1);
                }
                let len = self.pod_counts.len();
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "`ticks` extend an in-memory series, so it fits usize"
                )]
                self.pod_counts
                    .resize(len + (ticks - 1) as usize, self.pods.len());
                self.stats.batched_ticks += ticks - 1;
            }
        }
        // A fault ended the stretch early: its tick and the rest belong
        // to the per-tick path.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`i` ticks extend in-memory series, so it fits usize"
        )]
        let done = base + i as usize;
        self.avg_concurrency.truncate(done);
        self.peak_concurrency.truncate(done);
        self.arrivals.truncate(done);
        i
    }
}

/// Simulates one application under a policy.
///
/// `span_ms` bounds the replay; requests completing after the span keep
/// their pods alive until they finish, and that overhang is accounted.
pub fn simulate_app(
    app: &AppRecord,
    policy: &mut dyn ScalingPolicy,
    span_ms: u64,
    cfg: &SimConfig,
) -> SimResult {
    simulate_app_with_stats(app, policy, span_ms, cfg).0
}

/// [`simulate_app`], also returning the [`EngineStats`] witness of how
/// much per-event work the run performed.
///
/// # Panics
///
/// Panics with [`femux_fault::FaultConfig::validate`]'s message when
/// `cfg` carries an invalid fault plan.
pub fn simulate_app_with_stats(
    app: &AppRecord,
    policy: &mut dyn ScalingPolicy,
    span_ms: u64,
    cfg: &SimConfig,
) -> (SimResult, EngineStats) {
    simulate(app, policy, span_ms, cfg, true)
}

/// [`simulate_app`] with every interval boundary taken by the per-tick
/// path, never the idle fast-forward: the reference the `tick_idle`
/// equivalence harness compares fast-forwarded runs against.
pub(crate) fn simulate_per_tick(
    app: &AppRecord,
    policy: &mut dyn ScalingPolicy,
    span_ms: u64,
    cfg: &SimConfig,
) -> SimResult {
    simulate(app, policy, span_ms, cfg, false).0
}

fn simulate(
    app: &AppRecord,
    policy: &mut dyn ScalingPolicy,
    span_ms: u64,
    cfg: &SimConfig,
    fast_forward: bool,
) -> (SimResult, EngineStats) {
    let invalid = cfg.faults.as_ref().and_then(|f| f.validate().err());
    assert!(
        invalid.is_none(),
        "invalid fault plan: {}",
        invalid.unwrap_or_default()
    );
    let cold_ms = cfg.cold_start_ms.unwrap_or(app.cold_start_ms);
    let min_scale = if cfg.respect_min_scale {
        app.config.min_scale as usize
    } else {
        0
    };
    let mem_gb = app.mem_used_mb as f64 / 1_024.0;
    let track = if femux_obs::events_enabled() {
        match &cfg.obs_track_prefix {
            Some(p) => Some(format!("sim/{p}/{}", app.id)),
            None => Some(format!("sim/{}/{}", policy.name(), app.id)),
        }
    } else {
        None
    };
    // Cluster layer (optional): one private instance per app run, so
    // per-app simulations stay order-independent. Pods are uniform
    // within an app — every placement request carries the app's own
    // cpu/memory demand.
    let cluster = cfg.cluster.as_ref().map(|cc| {
        Cluster::new(
            cc,
            PodRequest {
                cpu_milli: app.config.cpu_milli as u64,
                mem_mb: app.mem_used_mb as u64,
            },
        )
    });
    let node_faults = match (&cfg.faults, &cfg.cluster) {
        (Some(f), Some(cc)) => Some(f.node_faults(cc.nodes.len())),
        _ => None,
    };
    // Reserve the per-tick series at their final length: one entry per
    // interval boundary of the span plus the pro-rated tail. Grown on
    // demand, a long span's reallocations either extend in place or
    // fault in fresh pages, depending on what the allocator holds from
    // earlier work, so the same replay's cost would vary between calls.
    let series_len = usize::try_from(span_ms.div_ceil(cfg.interval_ms)).unwrap_or(0);
    let mut eng = Engine {
        cfg,
        track,
        concurrency: u64::from(app.config.pod_concurrency()),
        cold_ms,
        min_scale,
        pods: Vec::with_capacity(min_scale),
        inflight: BinaryHeap::new(),
        last_t: 0,
        alive_pod_ms: 0.0,
        interval_conc_ms: 0.0,
        interval_peak: 0.0,
        interval_arrivals: 0.0,
        avg_concurrency: Vec::with_capacity(series_len),
        peak_concurrency: Vec::with_capacity(series_len),
        arrivals: Vec::with_capacity(series_len),
        pod_counts: Vec::with_capacity(series_len),
        costs: CostRecord::default(),
        delays: Vec::new(),
        spawn_minute: 0,
        spawns_this_minute: 0,
        faults: cfg.faults.as_ref().map(|f| f.engine_faults(app.id)),
        cluster,
        node_faults,
        displaced_pending: 0,
        restart_strikes: 0,
        restart_due: 0,
        pending_actuation: Vec::new(),
        next_uid: 0,
        warm_pods: 0,
        warm_events: BinaryHeap::new(),
        joinable: BTreeSet::new(),
        waiting: 0,
        index_of: BTreeMap::new(),
        stats: EngineStats::default(),
        app_id: app.id.0 as u64,
        sampler: cfg
            .spans
            .as_ref()
            .and_then(SpanSampler::new),
        spans: Vec::new(),
    };
    // Place the min-scale floor, warm from t = 0. Denied placements
    // (cluster smaller than the floor) are counted and the pod simply
    // never exists, but its uid is spent so downstream identity is
    // stable.
    for _ in 0..min_scale {
        if let Some(cl) = eng.cluster.as_mut() {
            if cl.try_place(eng.next_uid).is_none() {
                cl.placement_denials += 1;
                femux_obs::counter_add("evict.placement_denials", 1);
                eng.next_uid += 1;
                continue;
            }
        }
        eng.add_pod(0, 0, 0, 0, PodOrigin::MinScale);
    }
    let placed_initial = eng.pods.len();

    // `span_ms` bounds the replay: invocations at or after the span
    // boundary belong to the next window (train/test splits rely on
    // this) and are never served here. Invocations are time-sorted (an
    // `AppRecord` contract), so the replay prefix is a partition point.
    let n_replay = app
        .invocations
        .partition_point(|i| i.start_ms < span_ms);
    let replay = &app.invocations[..n_replay];
    let mut next_tick = cfg.interval_ms;
    let mut idx = 0usize;
    while idx < replay.len() || next_tick <= span_ms {
        let arrival = replay.get(idx).map(|i| i.start_ms);
        match arrival {
            Some(a) if a < next_tick || next_tick > span_ms => {
                let interval_end = next_tick.min(span_ms);
                let inv = replay[idx];
                eng.on_arrival(&inv, idx as u64, interval_end);
                idx += 1;
            }
            _ => {
                let mut done = 0;
                if fast_forward
                    && eng.inflight.is_empty()
                    && eng.displaced_pending == 0
                    && eng.pending_actuation.is_empty()
                {
                    // Idle fast-forward: every tick up to (and
                    // including) the next arrival's interval boundary —
                    // or the span end — observes a quiescent app, so
                    // the whole stretch is handed to the policy at
                    // once. It stops before the next fault the policy
                    // could observe; a crash of an empty node is counted
                    // inside it.
                    let last = arrival
                        .map(|a| a.min(span_ms))
                        .unwrap_or(span_ms);
                    let n = ((last - next_tick) / cfg.interval_ms + 1)
                        .min(eng.quiet_ticks(next_tick));
                    if n > 0 {
                        done = eng.run_idle_ticks(
                            next_tick,
                            n,
                            policy,
                            &app.config,
                        );
                    }
                }
                if done > 0 {
                    next_tick += done * cfg.interval_ms;
                } else {
                    eng.on_tick(next_tick, policy, &app.config);
                    next_tick += cfg.interval_ms;
                }
            }
        }
    }
    // Close the partial tail interval of a span that is not a whole
    // number of intervals: concurrency, peak, and arrivals accrued
    // after the last tick are reported with a pro-rated divisor. No
    // policy observes this sample and no fault draw applies (report
    // loss models a lost *policy* report).
    let last_tick = next_tick - cfg.interval_ms;
    if last_tick < span_ms {
        eng.advance(span_ms);
        eng.close_interval(span_ms - last_tick, false);
    }
    // Drain remaining in-flight work.
    let last_end = eng
        .inflight
        .iter()
        .map(|Reverse(e)| *e)
        .max()
        .unwrap_or(eng.last_t)
        .max(span_ms);
    eng.advance(last_end);

    femux_obs::counter_add("sim.apps_simulated", 1);
    let alive_secs = eng.alive_pod_ms / 1_000.0;
    eng.costs.allocated_gb_seconds = mem_gb * alive_secs;
    let busy_pod_secs =
        eng.costs.exec_seconds / eng.concurrency as f64;
    eng.costs.wasted_gb_seconds =
        (eng.costs.allocated_gb_seconds - mem_gb * busy_pod_secs).max(0.0);
    let stats = eng.stats;
    // Fold the cluster into its outcome: the per-node occupancy
    // integral must agree exactly with the engine's alive-time
    // integral (both are integer-valued sums of pod-count × ms).
    let cluster_outcome = eng.cluster.take().map(|cl| {
        debug_assert_eq!(
            cl.total_pod_ms() as f64,
            eng.alive_pod_ms,
            "per-node occupancy must sum to the alive-time integral"
        );
        cl.into_outcome(last_end)
    });
    let mut fault_stats =
        eng.faults.map(|f| f.stats).unwrap_or_default();
    if let Some(nf) = eng.node_faults {
        fault_stats.merge(&nf.stats);
    }
    (
        SimResult {
            costs: eng.costs,
            delays_secs: eng.delays,
            avg_concurrency: eng.avg_concurrency,
            peak_concurrency: eng.peak_concurrency,
            arrivals: eng.arrivals,
            pod_counts: eng.pod_counts,
            initial_pods: placed_initial,
            faults: fault_stats,
            cluster: cluster_outcome,
            spans: eng.spans,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        FixedPolicy, KeepAlivePolicy, KnativeDefaultPolicy, ZeroPolicy,
    };
    use femux_trace::types::{AppId, WorkloadKind};

    fn app_with(
        invocations: Vec<Invocation>,
        concurrency: u32,
        min_scale: u32,
    ) -> AppRecord {
        let mut app = AppRecord::new(AppId(1), WorkloadKind::Application);
        app.config.concurrency = concurrency;
        app.config.min_scale = min_scale;
        app.mem_used_mb = 1_024; // 1 GB for easy arithmetic
        app.invocations = invocations;
        app
    }

    fn inv(start_ms: u64, duration_ms: u32) -> Invocation {
        Invocation {
            start_ms,
            duration_ms,
            delay_ms: 0,
        }
    }

    fn cfg() -> SimConfig {
        SimConfig {
            record_delays: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn first_request_is_cold() {
        let app = app_with(vec![inv(1_000, 500)], 1, 0);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 120_000, &cfg());
        assert_eq!(res.costs.invocations, 1);
        assert_eq!(res.costs.cold_starts, 1);
        assert!((res.costs.cold_start_seconds - 0.808).abs() < 1e-9);
        assert_eq!(res.delays_secs, vec![0.808]);
    }

    #[test]
    fn min_scale_prevents_cold_start() {
        let app = app_with(vec![inv(1_000, 500)], 1, 1);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 120_000, &cfg());
        assert_eq!(res.costs.cold_starts, 0);
        assert_eq!(res.delays_secs, vec![0.0]);
        // The warm pod is allocated the entire span: 120 s * 1 GB.
        assert!(
            (res.costs.allocated_gb_seconds - 120.0).abs() < 0.5,
            "allocated {}",
            res.costs.allocated_gb_seconds
        );
    }

    #[test]
    fn concurrent_capacity_absorbs_burst() {
        // Concurrency 100: one cold start creates a pod that serves the
        // rest of the simultaneous burst... but the burst arrives at the
        // same ms, before the pod is warm, so each request within the
        // cold window that exceeds capacity spawns its own pod. With a
        // warm pod (min_scale 1), all 50 fit.
        let burst: Vec<Invocation> =
            (0..50).map(|k| inv(10_000 + k, 200)).collect();
        let app = app_with(burst, 100, 1);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 60_000, &cfg());
        assert_eq!(res.costs.cold_starts, 0);
    }

    #[test]
    fn concurrency_one_burst_spawns_pod_per_request() {
        let burst: Vec<Invocation> =
            (0..5).map(|k| inv(10_000 + k, 5_000)).collect();
        let app = app_with(burst, 1, 0);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 60_000, &cfg());
        assert_eq!(res.costs.cold_starts, 5);
    }

    #[test]
    fn second_request_reuses_warm_pod() {
        // First cold (spawns pod kept to interval end), second arrives
        // after the first completes but within the same interval: warm.
        let app = app_with(vec![inv(1_000, 100), inv(30_000, 100)], 1, 0);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 60_000, &cfg());
        assert_eq!(res.costs.cold_starts, 1);
        assert_eq!(res.delays_secs[1], 0.0);
    }

    #[test]
    fn zero_policy_scales_down_after_interval() {
        // Cold pod protected only to the end of its interval; a request
        // in a later interval is cold again.
        let app =
            app_with(vec![inv(1_000, 100), inv(200_000, 100)], 1, 0);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 300_000, &cfg());
        assert_eq!(res.costs.cold_starts, 2);
    }

    #[test]
    fn keep_alive_retains_pod() {
        // 5-minute keep-alive: the pod from the first request is still
        // around 3 minutes later.
        let app =
            app_with(vec![inv(1_000, 100), inv(200_000, 100)], 1, 0);
        let mut policy = KeepAlivePolicy::five_minutes();
        let res = simulate_app(&app, &mut policy, 300_000, &cfg());
        assert_eq!(res.costs.cold_starts, 1);
    }

    #[test]
    fn keep_alive_expires() {
        // 1-minute keep-alive: a request 4 minutes later is cold.
        let app =
            app_with(vec![inv(1_000, 100), inv(250_000, 100)], 1, 0);
        let mut policy = KeepAlivePolicy::one_minute();
        let res = simulate_app(&app, &mut policy, 300_000, &cfg());
        assert_eq!(res.costs.cold_starts, 2);
    }

    #[test]
    fn accounting_identity_holds() {
        let invs: Vec<Invocation> =
            (0..100).map(|k| inv(k * 2_000, 1_000)).collect();
        let app = app_with(invs, 1, 0);
        let mut policy = KnativeDefaultPolicy;
        let res = simulate_app(&app, &mut policy, 300_000, &cfg());
        res.costs.check().expect("cost record is consistent");
        // exec = 100 * 1 s
        assert!((res.costs.exec_seconds - 100.0).abs() < 1e-9);
        // waste + busy = allocated (1 GB memory).
        let busy_gbs = res.costs.exec_seconds * 1.0;
        assert!(
            (res.costs.wasted_gb_seconds + busy_gbs
                - res.costs.allocated_gb_seconds)
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn fixed_policy_allocation_matches_span() {
        // 3 pods held for the whole 10-minute span with no traffic:
        // allocation = 3 pods * 600 s * 1 GB, all wasted.
        let app = app_with(vec![], 1, 0);
        let mut policy = FixedPolicy(3);
        let res = simulate_app(&app, &mut policy, 600_000, &cfg());
        // Pods only appear at the first tick (60 s in).
        let expected = 3.0 * (600.0 - 60.0);
        assert!(
            (res.costs.allocated_gb_seconds - expected).abs() < 1.0,
            "allocated {}",
            res.costs.allocated_gb_seconds
        );
        assert!(
            (res.costs.wasted_gb_seconds
                - res.costs.allocated_gb_seconds)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn inflight_pods_not_preempted() {
        // A long request spans several intervals under ZeroPolicy; its
        // pod must survive until completion.
        let app = app_with(vec![inv(1_000, 200_000)], 1, 0);
        let mut policy = ZeroPolicy;
        let res = simulate_app(&app, &mut policy, 300_000, &cfg());
        assert_eq!(res.costs.cold_starts, 1);
        // Pod alive from 1 s to ~201.8 s => ~200 GB-s allocated.
        assert!(
            res.costs.allocated_gb_seconds > 195.0,
            "allocated {}",
            res.costs.allocated_gb_seconds
        );
    }

    #[test]
    fn concurrency_observation_matches_load() {
        // Constant one-request-in-flight load: avg concurrency ~1.
        let invs: Vec<Invocation> =
            (0..300).map(|k| inv(k * 1_000, 1_000)).collect();
        let app = app_with(invs, 1, 1);
        let mut policy = KnativeDefaultPolicy;
        let res = simulate_app(&app, &mut policy, 300_000, &cfg());
        let mid = res.avg_concurrency[2];
        assert!((mid - 1.0).abs() < 0.05, "observed concurrency {mid}");
    }

    #[test]
    fn scale_limit_caps_proactive_spawns() {
        let app = app_with(vec![], 1, 0);
        let mut policy = FixedPolicy(5_000);
        let limited = SimConfig {
            scale_limit: Some(ScaleLimit {
                threshold: 0,
                per_minute: 100,
            }),
            ..cfg()
        };
        let res = simulate_app(&app, &mut policy, 120_000, &limited);
        // Two ticks (at 60 s and 120 s), each in its own minute: at most
        // 100 spawns each.
        assert!(
            *res.pod_counts.last().expect("ticks happened") <= 200,
            "pods {:?}",
            res.pod_counts
        );
    }

    #[test]
    fn delays_recorded_only_when_asked() {
        let app = app_with(vec![inv(1_000, 10)], 1, 0);
        let quiet = SimConfig {
            record_delays: false,
            ..SimConfig::default()
        };
        let res =
            simulate_app(&app, &mut ZeroPolicy, 60_000, &quiet);
        assert!(res.delays_secs.is_empty());
    }

    #[test]
    fn scale_events_reconstruct_timeline() {
        // Traffic for two intervals, then silence: expect one scale-up
        // and one scale-down event.
        let invs: Vec<Invocation> =
            (0..120).map(|k| inv(k * 1_000, 900)).collect();
        let app = app_with(invs, 1, 0);
        let mut policy = KnativeDefaultPolicy;
        let res = simulate_app(&app, &mut policy, 600_000, &cfg());
        let events = res.scale_events(60_000);
        assert!(!events.is_empty());
        assert!(events[0].is_up(), "first event is a scale-up");
        let last = events.last().expect("non-empty");
        assert_eq!(last.to, 0, "fleet scales back to zero");
        assert!(!last.is_up());
        // Events are time-ordered and alternate states faithfully.
        for w in events.windows(2) {
            assert!(w[0].at_ms < w[1].at_ms);
            assert!(w[0].to == w[1].from);
        }
    }

    #[test]
    fn min_scale_app_emits_no_phantom_scale_event() {
        // A min-scale-2 app with no traffic holds 2 pods the whole
        // span: the timeline never changes, so no scale event may be
        // reported (58.8 % of the calibrated fleet runs min_scale ≥ 1).
        let app = app_with(vec![], 1, 2);
        let res = simulate_app(&app, &mut ZeroPolicy, 180_000, &cfg());
        assert_eq!(res.initial_pods, 2);
        assert!(res.pod_counts.iter().all(|&p| p == 2));
        assert_eq!(
            res.scale_events(60_000),
            vec![],
            "constant min-scale timeline must emit no events"
        );
    }

    #[test]
    fn replay_is_clamped_to_span() {
        // The second invocation starts past the span boundary; it
        // belongs to the next window and must not be served, cost, or
        // keep pods alive here.
        let app =
            app_with(vec![inv(10_000, 100), inv(400_000, 100)], 1, 0);
        let res = simulate_app(&app, &mut ZeroPolicy, 120_000, &cfg());
        assert_eq!(res.costs.invocations, 1);
        assert_eq!(res.costs.cold_starts, 1);
        assert!((res.costs.exec_seconds - 0.1).abs() < 1e-12);
        // An invocation at exactly the boundary is also out of scope.
        let edge = app_with(vec![inv(120_000, 100)], 1, 0);
        let res = simulate_app(&edge, &mut ZeroPolicy, 120_000, &cfg());
        assert_eq!(res.costs.invocations, 0);
    }

    #[test]
    fn burst_queues_on_warming_pod() {
        // Three near-simultaneous arrivals with per-pod concurrency 100
        // share the one pod the first arrival spawns; the later two pay
        // the pod's remaining warm-up, not a fresh pod each.
        let burst: Vec<Invocation> =
            (0..3).map(|k| inv(10_000 + k, 200)).collect();
        let app = app_with(burst, 100, 0);
        let res = simulate_app(&app, &mut ZeroPolicy, 60_000, &cfg());
        assert_eq!(res.costs.cold_starts, 3);
        assert_eq!(res.delays_secs, vec![0.808, 0.807, 0.806]);
        // One 1-GB pod alive from 10 s to the 60 s interval end — three
        // pods would show ~150 GB-s.
        assert!(
            (res.costs.allocated_gb_seconds - 50.0).abs() < 1.0,
            "allocated {}",
            res.costs.allocated_gb_seconds
        );
    }

    #[test]
    fn odd_span_closes_prorated_tail_interval() {
        // Span 90 s at a 60 s interval: one tick at 60 s plus a 30 s
        // tail. A request executing 70 s → 90 s contributes 20 s of
        // concurrency to the tail, averaged over the 30 s divisor.
        let app = app_with(vec![inv(70_000, 20_000)], 1, 1);
        let res = simulate_app(&app, &mut ZeroPolicy, 90_000, &cfg());
        assert_eq!(res.avg_concurrency.len(), 2);
        assert_eq!(res.peak_concurrency.len(), 2);
        assert_eq!(res.arrivals.len(), 2);
        assert!((res.avg_concurrency[1] - 20.0 / 30.0).abs() < 1e-12);
        assert_eq!(res.arrivals[1], 1.0);
        // The tick-aligned sample stream is untouched.
        assert_eq!(res.pod_counts.len(), 1);
    }

    #[test]
    fn per_tick_series_are_reserved_at_their_final_length() {
        // Two weeks of mostly idle ticks plus a 30 s tail, under a plan
        // that ends idle stretches early: a series that had grown by
        // doubling would end with spare capacity.
        let app = app_with(vec![inv(1_000, 500), inv(600_000_000, 500)], 1, 1);
        let span = 14 * 86_400_000 + 30_000;
        let cfg = fault_cfg(femux_fault::FaultConfig {
            pod_crash_rate: 0.05,
            report_loss_rate: 0.05,
            ..femux_fault::FaultConfig::off(7)
        });
        let mut policy = KeepAlivePolicy::ten_minutes();
        let res = simulate_app(&app, &mut policy, span, &cfg);
        let ticks = 14 * 1_440;
        for series in [&res.avg_concurrency, &res.peak_concurrency, &res.arrivals] {
            assert_eq!(series.len(), ticks + 1);
            assert_eq!(series.capacity(), ticks + 1);
        }
        assert_eq!(res.pod_counts.len(), ticks);
        assert_eq!(res.pod_counts.capacity(), ticks + 1);
    }

    fn fault_cfg(faults: femux_fault::FaultConfig) -> SimConfig {
        SimConfig {
            record_delays: true,
            faults: Some(faults),
            ..SimConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "pod_crash_rate must be in [0, 1], got 1.5")]
    fn out_of_range_fault_rate_is_rejected() {
        let app = app_with(vec![inv(1_000, 500)], 1, 0);
        let plan = femux_fault::FaultConfig::uniform(1, 1.5);
        simulate_app(&app, &mut ZeroPolicy, 120_000, &fault_cfg(plan));
    }

    #[test]
    #[should_panic(expected = "pod_crash_rate must be in [0, 1], got NaN")]
    fn nan_fault_rate_is_rejected() {
        let app = app_with(vec![inv(1_000, 500)], 1, 0);
        let plan = femux_fault::FaultConfig::uniform(1, f64::NAN);
        simulate_app(&app, &mut ZeroPolicy, 120_000, &fault_cfg(plan));
    }

    #[test]
    fn zero_rate_plan_matches_no_plan_byte_for_byte() {
        let invs: Vec<Invocation> =
            (0..60).map(|k| inv(k * 3_000, 1_500)).collect();
        let app = app_with(invs, 1, 0);
        let mut p1 = KnativeDefaultPolicy;
        let mut p2 = KnativeDefaultPolicy;
        let clean = simulate_app(&app, &mut p1, 300_000, &cfg());
        let zeroed = simulate_app(
            &app,
            &mut p2,
            300_000,
            &fault_cfg(femux_fault::FaultConfig::off(0xFA17)),
        );
        assert_eq!(format!("{clean:?}"), format!("{zeroed:?}"));
        assert_eq!(zeroed.faults, FaultStats::default());
    }

    #[test]
    fn crashed_pod_restarts_cold_but_stays_allocated() {
        // min_scale 1 keeps one pod warm from t=0; a certain crash at
        // the 60 s tick leaves it allocated but cold, so the request at
        // 60.1 s pays a cold start it would not have paid otherwise.
        let app = app_with(vec![inv(60_100, 100)], 1, 1);
        let clean =
            simulate_app(&app, &mut ZeroPolicy, 120_000, &cfg());
        assert_eq!(clean.costs.cold_starts, 0);
        let mut faults = femux_fault::FaultConfig::off(1);
        faults.pod_crash_rate = 1.0;
        let crashed = simulate_app(
            &app,
            &mut ZeroPolicy,
            120_000,
            &fault_cfg(faults),
        );
        assert_eq!(crashed.costs.cold_starts, 1);
        assert!(crashed.faults.pod_crashes > 0);
        crashed.costs.check().expect("crash accounting stays valid");
        // The crashed pod never leaves the fleet (min_scale floor holds
        // throughout) and keeps accruing allocation while it restarts;
        // the reactive cold-start spawn only adds on top.
        assert!(crashed.pod_counts.iter().all(|&p| p >= 1));
        assert!(
            crashed.costs.allocated_gb_seconds
                >= clean.costs.allocated_gb_seconds - 1e-9,
            "restarting pod must keep accruing allocation: {} vs {}",
            crashed.costs.allocated_gb_seconds,
            clean.costs.allocated_gb_seconds
        );
    }

    #[test]
    fn straggler_inflates_cold_start_latency() {
        let app = app_with(vec![inv(1_000, 500)], 1, 0);
        let mut faults = femux_fault::FaultConfig::off(2);
        faults.straggler_rate = 1.0;
        faults.straggler_factor = 10.0;
        let res = simulate_app(
            &app,
            &mut ZeroPolicy,
            120_000,
            &fault_cfg(faults),
        );
        assert_eq!(res.faults.cold_stragglers, 1);
        assert_eq!(res.delays_secs, vec![8.08]);
        assert!((res.costs.cold_start_seconds - 8.08).abs() < 1e-9);
    }

    #[test]
    fn dropped_actuations_never_scale_up() {
        let app = app_with(vec![], 1, 0);
        let mut faults = femux_fault::FaultConfig::off(3);
        faults.actuation_drop_rate = 1.0;
        let res = simulate_app(
            &app,
            &mut FixedPolicy(3),
            300_000,
            &fault_cfg(faults),
        );
        assert!(res.pod_counts.iter().all(|&p| p == 0));
        assert_eq!(res.faults.actuation_drops, res.pod_counts.len() as u64);
    }

    #[test]
    fn delayed_actuations_apply_one_tick_late() {
        let app = app_with(vec![], 1, 0);
        let mut faults = femux_fault::FaultConfig::off(4);
        faults.actuation_delay_rate = 1.0;
        let res = simulate_app(
            &app,
            &mut FixedPolicy(3),
            300_000,
            &fault_cfg(faults),
        );
        // Every decision is delayed one tick: the first tick shows no
        // pods, every later tick shows the previous tick's target.
        assert_eq!(res.pod_counts[0], 0);
        assert!(res.pod_counts[1..].iter().all(|&p| p == 3));
        assert!(res.faults.actuation_delays > 0);
    }

    #[test]
    fn cost_scales_with_invocations_not_span() {
        // A sparse app — one request per day for a month — then the
        // same app simulated over twice the span (31 further days of
        // pure idle). The extra idle month must cost O(1) processed
        // events, not one per-tick decision per interval.
        let day = 86_400_000u64;
        let invs: Vec<Invocation> =
            (0..31).map(|d| inv(d * day + 1_000, 500)).collect();
        let app = app_with(invs, 1, 0);
        let run = |span: u64| {
            let mut policy = KeepAlivePolicy::ten_minutes();
            simulate_app_with_stats(&app, &mut policy, span, &cfg())
        };
        let (r31, s31) = run(31 * day);
        let (r62, s62) = run(62 * day);
        assert_eq!(r31.costs.invocations, 31);
        assert_eq!(r62.costs.invocations, 31);
        // The batched series still covers every interval of the span.
        assert_eq!(r62.pod_counts.len(), (62 * day / 60_000) as usize);
        let per_tick_cost = 31 * day / 60_000; // 44,640 avoided ticks
        let extra = s62.events() - s31.events();
        assert!(
            extra <= 16,
            "an idle month must cost O(1) events, got {extra} \
             (a per-tick engine would pay {per_tick_cost})"
        );
        // Even the active month runs on far fewer events than ticks.
        assert!(
            s31.events() < per_tick_cost / 10,
            "events {} vs span ticks {per_tick_cost}",
            s31.events()
        );
    }

    #[test]
    fn drain_due_preserves_insertion_order() {
        let mut pending =
            vec![(10, 5), (10, 2), (20, 7), (5, 9), (10, 4)];
        let due = drain_due(&mut pending, 10);
        // Everything due at t=10, in the order it was enqueued — the
        // order delayed actuations must be applied in.
        assert_eq!(due, vec![(10, 5), (10, 2), (5, 9), (10, 4)]);
        assert_eq!(pending, vec![(20, 7)]);
        let due = drain_due(&mut pending, 15);
        assert!(due.is_empty());
        assert_eq!(pending, vec![(20, 7)]);
        let due = drain_due(&mut pending, 20);
        assert_eq!(due, vec![(20, 7)]);
        assert!(pending.is_empty());
    }

    #[test]
    fn staggered_delays_apply_in_decision_order() {
        // Every decision delayed two ticks: the pending queue holds two
        // entries at all times and each tick must mature the *older*
        // one. A ramping policy makes any reordering visible in the
        // pod-count timeline.
        struct Ramp(usize);
        impl ScalingPolicy for Ramp {
            fn name(&self) -> String {
                "ramp".into()
            }
            fn target_pods(&mut self, _ctx: &PolicyCtx<'_>) -> usize {
                self.0 += 1;
                self.0
            }
        }
        let app = app_with(vec![], 1, 0);
        let mut faults = femux_fault::FaultConfig::off(6);
        faults.actuation_delay_rate = 1.0;
        faults.actuation_delay_ticks = 2;
        let res = simulate_app(
            &app,
            &mut Ramp(0),
            600_000,
            &fault_cfg(faults),
        );
        // Tick k (0-based) applies the target decided at tick k-2,
        // which was k-1 pods.
        for (k, &pods) in res.pod_counts.iter().enumerate() {
            assert_eq!(pods, k.saturating_sub(1), "tick {k}");
        }
    }

    #[test]
    fn lost_reports_surface_as_nan_samples() {
        let invs: Vec<Invocation> =
            (0..100).map(|k| inv(k * 1_000, 500)).collect();
        let app = app_with(invs, 1, 0);
        let mut faults = femux_fault::FaultConfig::off(5);
        faults.report_loss_rate = 1.0;
        let res = simulate_app(
            &app,
            &mut KnativeDefaultPolicy,
            300_000,
            &fault_cfg(faults),
        );
        assert!(res.avg_concurrency.iter().all(|v| v.is_nan()));
        assert_eq!(
            res.faults.report_losses,
            res.avg_concurrency.len() as u64
        );
        // Costs never touch the poisoned series.
        res.costs.check().expect("cost record stays consistent");
        assert!(res.costs.allocated_gb_seconds.is_finite());
    }

    #[test]
    fn per_app_cold_start_override() {
        let mut app = app_with(vec![inv(1_000, 10)], 1, 0);
        app.cold_start_ms = 5_000;
        let use_app_cs = SimConfig {
            cold_start_ms: None,
            record_delays: true,
            ..SimConfig::default()
        };
        let res =
            simulate_app(&app, &mut ZeroPolicy, 60_000, &use_app_cs);
        assert!((res.costs.cold_start_seconds - 5.0).abs() < 1e-9);
        assert_eq!(res.delays_secs, vec![5.0]);
    }

    fn cluster_cfg(nodes: usize, mem_mb: u64) -> SimConfig {
        SimConfig {
            record_delays: true,
            cluster: Some(crate::cluster::ClusterConfig::uniform(
                nodes,
                crate::cluster::NodeConfig {
                    cpu_milli: u64::MAX,
                    mem_mb,
                },
            )),
            ..SimConfig::default()
        }
    }

    #[test]
    fn unbounded_cluster_is_transparent() {
        let invs: Vec<Invocation> =
            (0..40).map(|k| inv(k * 4_000, 2_000)).collect();
        let app = app_with(invs, 2, 1);
        let free =
            simulate_app(&app, &mut KnativeDefaultPolicy, 300_000, &cfg());
        let clustered_cfg = SimConfig {
            record_delays: true,
            cluster: Some(crate::cluster::ClusterConfig::unbounded()),
            ..SimConfig::default()
        };
        let clustered = simulate_app(
            &app,
            &mut KnativeDefaultPolicy,
            300_000,
            &clustered_cfg,
        );
        let outcome =
            clustered.cluster.clone().expect("cluster outcome present");
        assert_eq!(outcome.evictions, 0);
        assert_eq!(outcome.saturated_overcommits, 0);
        assert_eq!(outcome.placement_denials, 0);
        // Per-node occupancy (one node) equals the billed alive time.
        let alive_secs =
            free.costs.allocated_gb_seconds / (1_024.0 / 1_024.0);
        assert!(
            (outcome.node_pod_seconds[0] - alive_secs).abs() < 1e-6,
            "occupancy {} vs billed {}",
            outcome.node_pod_seconds[0],
            alive_secs
        );
        let mut stripped = clustered.clone();
        stripped.cluster = None;
        assert_eq!(format!("{stripped:?}"), format!("{free:?}"));
    }

    #[test]
    fn memory_pressure_evicts_idle_longest_pod() {
        // Node fits exactly two pods; the min-scale floor fills it.
        // Two warm admissions saturate capacity, the third arrival
        // must spawn — and the only room is an idle min-scale pod.
        let mut app = app_with(
            vec![inv(5_000, 60_000), inv(5_000, 60_000), inv(5_000, 60_000)],
            1,
            2,
        );
        app.mem_used_mb = 100;
        let cfg = SimConfig {
            spans: Some(femux_obs::span::SpanConfig::all(7)),
            ..cluster_cfg(1, 250)
        };
        let res =
            simulate_app(&app, &mut FixedPolicy(2), 120_000, &cfg);
        let outcome = res.cluster.clone().expect("cluster outcome");
        assert_eq!(outcome.evictions, 1);
        assert_eq!(outcome.saturated_overcommits, 0);
        assert_eq!(res.costs.cold_starts, 1);
        // The victim is the idle-longest pod: min (warm_at, uid), the
        // first min-scale pod (uid 0).
        let evicted_span = res
            .spans
            .iter()
            .find(|s| matches!(s.cause, WaitCause::Evicted { .. }))
            .expect("eviction recorded as a span cause");
        assert_eq!(
            evicted_span.cause,
            WaitCause::Evicted {
                node: 0,
                victim_pod: 0
            }
        );
        assert_eq!(evicted_span.cold_wait_ms, 808);
        assert!(outcome.conserved());
    }

    #[test]
    fn saturated_cluster_overcommits_without_a_pod() {
        // One node, one slot. The first request cold-starts onto it and
        // keeps the pod protected; the second finds no room and no
        // evictable victim, so it runs overcommitted at the full cold
        // penalty and the ledger records no second placement.
        let mut app =
            app_with(vec![inv(5_000, 60_000), inv(6_000, 1_000)], 1, 0);
        app.mem_used_mb = 100;
        let cfg = SimConfig {
            spans: Some(femux_obs::span::SpanConfig::all(9)),
            ..cluster_cfg(1, 100)
        };
        let res = simulate_app(&app, &mut ZeroPolicy, 120_000, &cfg);
        let outcome = res.cluster.clone().expect("cluster outcome");
        assert_eq!(outcome.placed, 1);
        assert_eq!(outcome.saturated_overcommits, 1);
        assert_eq!(outcome.evictions, 0);
        assert_eq!(res.costs.cold_starts, 2);
        assert_eq!(res.delays_secs, vec![0.808, 0.808]);
        assert!(res
            .spans
            .iter()
            .any(|s| matches!(s.cause, WaitCause::Saturated)));
        assert!(outcome.conserved());
    }

    #[test]
    fn a_floor_no_node_holds_fast_forwards_its_denials() {
        // A three-pod floor of 1 GB pods, six hours (360 ticks), one
        // request at hour one: three denials at placement, then one per
        // tick whether or not the floor partly fits.
        let app = app_with(vec![inv(3_600_000, 500)], 1, 3);
        let span = 6 * 3_600_000;
        let run = |cfg: &SimConfig| {
            let (res, stats) =
                simulate_app_with_stats(&app, &mut ZeroPolicy, span, cfg);
            (res.cluster.expect("cluster outcome"), stats)
        };
        // 600 MB nodes hold none of it: the idle runs stay batched.
        let (nowhere, stats) = run(&cluster_cfg(4, 600));
        assert_eq!(nowhere.placement_denials, 3 + 360);
        assert_eq!(nowhere.saturated_overcommits, 1);
        assert!(stats.ticks <= 2, "{stats:?}");
        assert!(stats.batched_ticks >= 350, "{stats:?}");
        // A 2 GB node holds two of the three: a short run that placement
        // could raise, so each tick runs on its own.
        let (partly, stats) = run(&cluster_cfg(1, 2_048));
        assert_eq!(partly.placement_denials, 1 + 360);
        assert_eq!(stats.batched_ticks, 0, "{stats:?}");
        assert_eq!(stats.ticks + stats.idle_transitions, 360, "{stats:?}");
    }

    #[test]
    fn node_crash_displaces_pods_and_backs_off_while_down() {
        // Two single-slot nodes hold the min-scale floor; a certain
        // node-crash plan with a long recovery takes both down at the
        // first tick. Nothing can restart while the cluster is dark, so
        // the displaced pods stay queued under growing backoff.
        let mut app = app_with(vec![], 1, 2);
        app.mem_used_mb = 100;
        let mut faults = femux_fault::FaultConfig::off(0xC1);
        faults.node_crash_rate = 1.0;
        faults.node_recovery_ticks = 1_000;
        let cfg = SimConfig {
            faults: Some(faults),
            ..cluster_cfg(2, 100)
        };
        let res = simulate_app(&app, &mut FixedPolicy(2), 300_000, &cfg);
        let outcome = res.cluster.clone().expect("cluster outcome");
        // One crash per node, drawn in node order at the 60 s tick.
        assert_eq!(outcome.node_crashes, 2);
        assert_eq!(res.faults.node_crashes, 2);
        assert_eq!(outcome.pods_displaced, 2);
        assert_eq!(outcome.node_restarts, 0);
        assert_eq!(outcome.resident_end, 0);
        assert!(outcome.conserved());
        // The engine's pod vector empties when the fleet is displaced
        // (FixedPolicy keeps asking for 2, but placement is denied).
        assert_eq!(*res.pod_counts.last().unwrap(), 0);
        res.costs.check().expect("finite accounting under node loss");
    }

    #[test]
    fn node_crash_restarts_displaced_pods_after_recovery() {
        // One fragile node crashes once (rate 1.0 would re-crash on
        // recovery, so use a one-tick recovery and watch the crash /
        // recover / re-crash cycle: every recovery instantly re-crashes,
        // but each crash-displaced pod is respawned whenever an up node
        // exists at a respawn round). With recovery_ticks=1 the node is
        // back up at the next tick, crashes again after the respawn
        // ordering check -- so instead pin the cycle with 2 nodes where
        // capacity survives: recovery brings nodes back and restarts
        // land.
        let mut app = app_with(vec![], 1, 2);
        app.mem_used_mb = 100;
        let mut faults = femux_fault::FaultConfig::off(0x9D);
        faults.node_crash_rate = 0.25;
        faults.node_recovery_ticks = 1;
        let cfg = SimConfig {
            faults: Some(faults),
            ..cluster_cfg(2, 100)
        };
        let res =
            simulate_app(&app, &mut FixedPolicy(2), 1_800_000, &cfg);
        let outcome = res.cluster.clone().expect("cluster outcome");
        assert!(outcome.node_crashes > 0, "plan should fire at 25%");
        assert_eq!(res.faults.node_crashes, outcome.node_crashes);
        assert!(outcome.node_restarts > 0, "restarts should land");
        assert!(outcome.conserved());
        // Determinism: the same seed replays the same history.
        let mut faults2 = femux_fault::FaultConfig::off(0x9D);
        faults2.node_crash_rate = 0.25;
        faults2.node_recovery_ticks = 1;
        let cfg2 = SimConfig {
            faults: Some(faults2),
            ..cluster_cfg(2, 100)
        };
        let res2 =
            simulate_app(&app, &mut FixedPolicy(2), 1_800_000, &cfg2);
        assert_eq!(format!("{res:?}"), format!("{res2:?}"));
    }

    #[test]
    fn zero_node_crash_rate_matches_no_fault_layer() {
        // A rate-0 plan over a clustered run must be byte-identical to
        // the same clustered run with no fault layer at all, cluster
        // ledger included.
        let invs: Vec<Invocation> =
            (0..30).map(|k| inv(k * 7_000, 2_500)).collect();
        let mut app = app_with(invs, 1, 1);
        app.mem_used_mb = 100;
        let clean_cfg = cluster_cfg(2, 300);
        let clean = simulate_app(
            &app,
            &mut KnativeDefaultPolicy,
            300_000,
            &clean_cfg,
        );
        let zeroed_cfg = SimConfig {
            faults: Some(femux_fault::FaultConfig::off(0xFA17)),
            ..cluster_cfg(2, 300)
        };
        let zeroed = simulate_app(
            &app,
            &mut KnativeDefaultPolicy,
            300_000,
            &zeroed_cfg,
        );
        assert_eq!(format!("{clean:?}"), format!("{zeroed:?}"));
        assert_eq!(zeroed.faults, FaultStats::default());
    }
}
