//! The per-millisecond reference simulator.
//!
//! This is the "deliberately slow, obviously correct" half of the
//! oracle: a straight-line state machine that advances virtual time one
//! millisecond at a time and re-derives every observable of
//! [`femux_sim::simulate_app`] without sharing its event-driven
//! structure (no binary heap, no piecewise trapezoid integration, no
//! partition of the arrival stream). All event times in the model are
//! integer milliseconds, so stepping every millisecond loses nothing.
//!
//! The semantics implemented here are the pinned engine contract (see
//! the `femux_sim::engine` module docs; both files must change
//! together):
//!
//! 1. At each millisecond, completed requests leave the in-flight pool
//!    first.
//! 2. If the millisecond is a scaling boundary within the span, the
//!    interval closes (average = accrued concurrency-ms / interval
//!    length), the policy decides, and the decision is applied — scale
//!    ups under the AWS rate limit, scale downs never below in-flight
//!    need, protected pods, or the min-scale floor, evicting
//!    shortest-warm pods first.
//! 3. Arrivals at that millisecond are admitted in input order: warm
//!    capacity first (counting only requests *executing* on warm pods),
//!    then queueing on the soonest-warm joinable cold-start pod with
//!    spare per-pod concurrency, else spawning a fresh pod for the full
//!    cold-start latency. Queued admissions count as cold starts and
//!    pay the pod's remaining warm-up.
//! 4. Invocations at or after `span_ms` are never replayed; a partial
//!    tail interval is closed with a pro-rated divisor; pods stay
//!    allocated until the last admitted request finishes.
//!
//! Exact `f64` agreement holds because concurrency-ms and pod-ms are
//! integer-valued (accumulated here in `u64`, exact in `f64` below
//! 2^53) and every inexact term (`/ 1000.0` seconds conversions) is
//! added in the same per-arrival order as the production engine.

use femux_obs::span::{
    InvocationSpan, PodOrigin, SpanSampler, WaitCause,
};
use femux_rum::CostRecord;
use femux_sim::{
    Cluster, PodRequest, PolicyCtx, ReleaseReason, ScalingPolicy,
    SimConfig, SimResult,
};
use femux_trace::types::AppRecord;

/// Reference pod state; mirrors the engine's pod fields one-to-one.
#[derive(Debug, Clone, Copy)]
struct RefPod {
    /// Stable identity, assigned in spawn order exactly as the engine
    /// assigns its uids (min-scale pods first, then every reactive or
    /// proactive spawn in chronological order), so sampled spans can
    /// name the same pod on both sides.
    uid: u64,
    /// How this pod came to exist; feeds sampled spans' wait causes.
    origin: PodOrigin,
    warm_at: u64,
    keep_until: u64,
    /// Requests pinned to this pod while it warms.
    queued: u64,
    /// Whether arrivals may queue on this pod while it warms (true only
    /// for reactively spawned cold-start pods).
    joinable: bool,
}

/// Simulates one application by brute-force millisecond stepping.
///
/// Must produce a [`SimResult`] equal (exact `f64` equality, field by
/// field) to `femux_sim::simulate_app(app, policy, span_ms, cfg)` for
/// every fault-free configuration.
///
/// # Panics
///
/// Panics if `cfg.faults` is set: the oracle contract covers fault-free
/// runs only (rate-0 inertness is checked engine-vs-engine in
/// [`crate::invariants`]).
pub fn reference_simulate(
    app: &AppRecord,
    policy: &mut dyn ScalingPolicy,
    span_ms: u64,
    cfg: &SimConfig,
) -> SimResult {
    assert!(
        cfg.faults.is_none(),
        "the oracle models fault-free runs only"
    );
    let cold_ms = u64::from(cfg.cold_start_ms.unwrap_or(app.cold_start_ms));
    let min_scale = if cfg.respect_min_scale {
        app.config.min_scale as usize
    } else {
        0
    };
    let concurrency = u64::from(app.config.pod_concurrency());
    let mem_gb = app.mem_used_mb as f64 / 1_024.0;
    let interval = cfg.interval_ms;

    // Cluster layer, re-derived independently: same placement policy,
    // same uid stream, but driven by the per-ms loop. The occupancy
    // integral accrues one millisecond at a time (step 6), so exactness
    // is trivial here and the engine's segment-based accrual is the
    // thing under test.
    let mut cluster = cfg.cluster.as_ref().map(|cc| {
        Cluster::new(
            cc,
            PodRequest {
                cpu_milli: app.config.cpu_milli as u64,
                mem_mb: app.mem_used_mb as u64,
            },
        )
    });
    let mut pods: Vec<RefPod> = Vec::with_capacity(min_scale);
    for uid in 0..min_scale as u64 {
        if let Some(cl) = cluster.as_mut() {
            if cl.try_place(uid).is_none() {
                cl.placement_denials += 1;
                continue;
            }
        }
        pods.push(RefPod {
            uid,
            origin: PodOrigin::MinScale,
            warm_at: 0,
            keep_until: 0,
            queued: 0,
            joinable: false,
        });
    }
    let placed_initial = pods.len();
    let mut next_uid = min_scale as u64;
    // In-flight completion times (queued + executing), unsorted.
    let mut inflight: Vec<u64> = Vec::new();

    // Integer integrals, exact in f64 below 2^53.
    let mut conc_ms: u64 = 0;
    let mut pod_ms: u64 = 0;
    let mut peak: f64 = 0.0;
    let mut arrivals_in_interval: f64 = 0.0;

    let mut avg_concurrency: Vec<f64> = Vec::new();
    let mut peak_concurrency: Vec<f64> = Vec::new();
    let mut arrivals: Vec<f64> = Vec::new();
    let mut pod_counts: Vec<usize> = Vec::new();
    let mut costs = CostRecord::default();
    let mut delays: Vec<f64> = Vec::new();

    // Independent re-derivation of the span layer: same seeded sampler,
    // same `(app, replay-index)` key, but causes reconstructed from the
    // reference pod vector rather than the engine's event-queue state.
    let app_id = app.id.0 as u64;
    let sampler = cfg.spans.as_ref().and_then(SpanSampler::new);
    let mut spans: Vec<InvocationSpan> = Vec::new();

    // AWS-style proactive rate limiting (mirrors the engine's counter,
    // including its minute-0 initialization).
    let mut spawn_minute: u64 = 0;
    let mut spawns_this_minute: usize = 0;

    // `span_ms` bounds the replay; invocations are time-sorted.
    let n_replay = app
        .invocations
        .partition_point(|i| i.start_ms < span_ms);
    let replay = &app.invocations[..n_replay];

    // Cached minimum completion time so the per-ms loop only scans the
    // pool when something actually completes (a zero-duration warm
    // request can complete within its own arrival millisecond, and the
    // production engine pops it before the *next* event observes the
    // pool — the pop-checks below sit at exactly those points).
    let mut next_end: u64 = u64::MAX;
    macro_rules! pop_completions {
        ($t:expr) => {
            if next_end <= $t {
                inflight.retain(|&end| end > $t);
                next_end =
                    inflight.iter().copied().min().unwrap_or(u64::MAX);
            }
        };
    }

    let mut idx = 0usize;
    let mut next_tick = interval;
    let mut last_close: u64 = 0;
    let mut t: u64 = 0;
    loop {
        // 1. Completions at exactly t leave the pool before anything
        //    else observes it.
        pop_completions!(t);

        // 2. Scaling boundary within the span: close the interval,
        //    consult the policy, apply the decision.
        if t == next_tick && t <= span_ms {
            avg_concurrency.push(conc_ms as f64 / interval as f64);
            peak_concurrency.push(peak);
            arrivals.push(arrivals_in_interval);
            conc_ms = 0;
            peak = inflight.len() as f64;
            arrivals_in_interval = 0.0;
            last_close = t;

            let ctx = PolicyCtx {
                now_ms: t,
                interval_ms: interval,
                avg_concurrency: &avg_concurrency,
                peak_concurrency: &peak_concurrency,
                arrivals: &arrivals,
                config: &app.config,
                current_pods: pods.len(),
                inflight: inflight.len(),
            };
            let mut target = policy.target_pods(&ctx);
            if cfg.respect_min_scale {
                target = target.max(min_scale);
            }
            apply_target(
                &mut pods,
                &inflight,
                target,
                t,
                cold_ms,
                concurrency,
                min_scale,
                cfg,
                &mut spawn_minute,
                &mut spawns_this_minute,
                &mut next_uid,
                cluster.as_mut(),
            );
            pod_counts.push(pods.len());
            next_tick += interval;
        }

        // 3. A span that is not a whole number of intervals closes its
        //    partial tail with a pro-rated divisor (no policy decision,
        //    no pod-count sample).
        if t == span_ms && last_close < span_ms {
            let tail_ms = (span_ms - last_close) as f64;
            avg_concurrency.push(conc_ms as f64 / tail_ms);
            peak_concurrency.push(peak);
            arrivals.push(arrivals_in_interval);
            conc_ms = 0;
            peak = inflight.len() as f64;
            arrivals_in_interval = 0.0;
            last_close = span_ms;
        }

        // 4. Arrivals at t, in input order. Each admission re-checks
        //    completions first: the engine's lazy `advance(t)` pops a
        //    same-millisecond zero-duration completion before the next
        //    arrival observes the pool.
        while idx < replay.len() && replay[idx].start_ms == t {
            pop_completions!(t);
            let inv = replay[idx];
            let index = idx as u64;
            idx += 1;
            arrivals_in_interval += 1.0;
            let interval_end = next_tick.min(span_ms);
            let dur = u64::from(inv.duration_ms);
            let warm_pods =
                pods.iter().filter(|p| p.warm_at <= t).count() as u64;
            let warm = warm_pods * concurrency;
            let waiting: u64 = pods
                .iter()
                .filter(|p| p.warm_at > t)
                .map(|p| p.queued)
                .sum();
            let executing = inflight.len() as u64 - waiting;
            let sampled = sampler
                .as_ref()
                .is_some_and(|s| s.sample(app_id, index));
            let mut cause: Option<WaitCause> = None;
            let delay_ms = if executing < warm {
                if sampled {
                    cause = Some(warm_origin_mix(&pods, t));
                }
                0u64
            } else if let Some(slot) = joinable_pod(&pods, t, concurrency)
            {
                // Queue on the soonest-warm cold-start pod.
                let pod = &mut pods[slot];
                let wait = pod.warm_at - t;
                let end = pod.warm_at + dur;
                pod.queued += 1;
                pod.keep_until =
                    pod.keep_until.max(interval_end).max(end);
                if sampled {
                    cause = Some(WaitCause::JoinedWarmingPod {
                        pod_uid: pod.uid,
                        origin: pod.origin,
                    });
                }
                costs.cold_starts += 1;
                costs.cold_start_seconds += wait as f64 / 1_000.0;
                wait
            } else {
                // Cluster room for the spawn: direct placement, else
                // eviction of the minimum-`(warm_at, uid)` warm
                // (`warm_at <= t`) unprotected (`keep_until <= t`)
                // pod, else saturation — full cold penalty, no pod —
                // mirroring the engine's `place_reactive` exactly.
                let mut evicted: Option<(u64, usize)> = None;
                let mut saturated = false;
                if let Some(cl) = cluster.as_mut() {
                    if cl.try_place(next_uid).is_none() {
                        let mut victim: Option<(u64, u64, usize)> = None;
                        for (i, p) in pods.iter().enumerate() {
                            if p.warm_at <= t && p.keep_until <= t {
                                let key = (p.warm_at, p.uid);
                                if victim
                                    .is_none_or(|(w, u, _)| key < (w, u))
                                {
                                    victim =
                                        Some((p.warm_at, p.uid, i));
                                }
                            }
                        }
                        match victim {
                            None => {
                                cl.saturated_overcommits += 1;
                                saturated = true;
                            }
                            Some((_, victim_uid, victim_idx)) => {
                                let node = cl.release(
                                    victim_uid,
                                    ReleaseReason::Evicted,
                                );
                                pods.remove(victim_idx);
                                let placed = cl.try_place(next_uid);
                                debug_assert_eq!(
                                    placed,
                                    Some(node),
                                    "eviction frees the victim's node"
                                );
                                evicted = Some((victim_uid, node));
                            }
                        }
                    }
                }
                if saturated {
                    if sampled {
                        cause = Some(WaitCause::Saturated);
                    }
                } else {
                    // Spawn a fresh pod for the full cold start.
                    let end = t + cold_ms + dur;
                    let uid = next_uid;
                    next_uid += 1;
                    pods.push(RefPod {
                        uid,
                        origin: PodOrigin::Reactive { at_ms: t },
                        warm_at: t + cold_ms,
                        keep_until: interval_end.max(end),
                        queued: 1,
                        joinable: true,
                    });
                    if sampled {
                        cause = Some(match evicted {
                            Some((victim_pod, node)) => {
                                WaitCause::Evicted {
                                    node: node as u64,
                                    victim_pod,
                                }
                            }
                            None => {
                                WaitCause::FreshSpawn { pod_uid: uid }
                            }
                        });
                    }
                }
                costs.cold_starts += 1;
                costs.cold_start_seconds += cold_ms as f64 / 1_000.0;
                cold_ms
            };
            let end = t + delay_ms + dur;
            inflight.push(end);
            next_end = next_end.min(end);
            peak = peak.max(inflight.len() as f64);
            costs.invocations += 1;
            costs.exec_seconds += dur as f64 / 1_000.0;
            costs.service_seconds += (delay_ms + dur) as f64 / 1_000.0;
            if cfg.record_delays {
                delays.push(delay_ms as f64 / 1_000.0);
            }
            if let Some(cause) = cause {
                // Exactly one wait segment is nonzero — queue wait for
                // joins, cold wait for fresh spawns — matching the
                // engine's exact-accounting identity by construction.
                let (queue_wait_ms, cold_wait_ms) = match cause {
                    WaitCause::Warm { .. } => (0, 0),
                    WaitCause::JoinedWarmingPod { .. } => (delay_ms, 0),
                    WaitCause::FreshSpawn { .. }
                    | WaitCause::Evicted { .. }
                    | WaitCause::Saturated => (0, delay_ms),
                };
                spans.push(InvocationSpan {
                    app: app_id,
                    index,
                    arrival_ms: t,
                    queue_wait_ms,
                    cold_wait_ms,
                    exec_ms: dur,
                    cause,
                });
            }
        }

        // 5. Done once the span is exhausted and no work is in flight
        //    (pods stay allocated exactly until the last completion).
        pop_completions!(t);
        if t >= span_ms && inflight.is_empty() {
            break;
        }

        // 6. Accrue the [t, t+1) millisecond. The cluster ledger
        //    advances in lockstep: residency changes happened at t, so
        //    this accrues the post-change occupancy over [t, t+1).
        conc_ms += inflight.len() as u64;
        pod_ms += pods.len() as u64;
        if let Some(cl) = cluster.as_mut() {
            cl.advance(t + 1);
        }
        t += 1;
    }

    let alive_secs = pod_ms as f64 / 1_000.0;
    costs.allocated_gb_seconds = mem_gb * alive_secs;
    let busy_pod_secs = costs.exec_seconds / concurrency as f64;
    costs.wasted_gb_seconds =
        (costs.allocated_gb_seconds - mem_gb * busy_pod_secs).max(0.0);
    let cluster_outcome = cluster.map(|cl| {
        debug_assert_eq!(
            cl.total_pod_ms(),
            pod_ms,
            "per-node occupancy must sum to the alive-time integral"
        );
        cl.into_outcome(t)
    });
    SimResult {
        costs,
        delays_secs: delays,
        avg_concurrency,
        peak_concurrency,
        arrivals,
        pod_counts,
        initial_pods: placed_initial,
        faults: femux_fault::FaultStats::default(),
        cluster: cluster_outcome,
        spans,
    }
}

/// Provenance breakdown of the currently warm pods, as a
/// [`WaitCause::Warm`]; mirrors the engine's sampled-warm-admission
/// scan.
fn warm_origin_mix(pods: &[RefPod], t: u64) -> WaitCause {
    let (mut min_scale, mut reactive, mut proactive, mut restarted) =
        (0, 0, 0, 0);
    for p in pods.iter().filter(|p| p.warm_at <= t) {
        match p.origin {
            PodOrigin::MinScale => min_scale += 1,
            PodOrigin::Reactive { .. } => reactive += 1,
            PodOrigin::Proactive { .. } => proactive += 1,
            // Unreachable in the oracle (restarts require a node fault
            // plan, and the oracle is fault-free), kept for exhaustive
            // agreement with the engine's scan.
            PodOrigin::Restarted { .. } => restarted += 1,
        }
    }
    WaitCause::Warm { min_scale, reactive, proactive, restarted }
}

/// The soonest-warm joinable warming pod with spare per-pod
/// concurrency; ties broken by pod-vector order.
fn joinable_pod(
    pods: &[RefPod],
    t: u64,
    concurrency: u64,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, p) in pods.iter().enumerate() {
        if p.joinable && p.warm_at > t && p.queued < concurrency {
            match best {
                Some(b) if pods[b].warm_at <= p.warm_at => {}
                _ => best = Some(i),
            }
        }
    }
    best
}

/// Applies a scaling decision exactly as the production engine does:
/// rate-limited proactive scale-up, or scale-down respecting in-flight
/// need, protected pods, and the min-scale floor (evicting
/// shortest-warm unprotected pods first, stable order).
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the engine's scale-down inputs one for one, so the reference stays line-comparable"
)]
fn apply_target(
    pods: &mut Vec<RefPod>,
    inflight: &[u64],
    target: usize,
    t: u64,
    cold_ms: u64,
    concurrency: u64,
    min_scale: usize,
    cfg: &SimConfig,
    spawn_minute: &mut u64,
    spawns_this_minute: &mut usize,
    next_uid: &mut u64,
    mut cluster: Option<&mut Cluster>,
) {
    let current = pods.len();
    if target > current {
        for _ in current..target {
            // Placement-denial check precedes the rate-limit check
            // (denials never consume rate-limit slots).
            if let Some(cl) = cluster.as_deref_mut() {
                if !cl.can_place() {
                    cl.placement_denials += 1;
                    break;
                }
            }
            let allowed = match cfg.scale_limit {
                None => true,
                Some(limit) => {
                    if pods.len() < limit.threshold {
                        true
                    } else {
                        let minute = t / 60_000;
                        if minute != *spawn_minute {
                            *spawn_minute = minute;
                            *spawns_this_minute = 0;
                        }
                        if *spawns_this_minute < limit.per_minute {
                            *spawns_this_minute += 1;
                            true
                        } else {
                            false
                        }
                    }
                }
            };
            if !allowed {
                break;
            }
            let uid = *next_uid;
            *next_uid += 1;
            if let Some(cl) = cluster.as_deref_mut() {
                let placed = cl.try_place(uid);
                debug_assert!(placed.is_some(), "can_place pre-checked");
            }
            pods.push(RefPod {
                uid,
                origin: PodOrigin::Proactive { at_ms: t },
                warm_at: t + cold_ms,
                keep_until: t,
                queued: 0,
                joinable: false,
            });
        }
    } else if target < current {
        let needed =
            (inflight.len() as u64).div_ceil(concurrency) as usize;
        let protected =
            pods.iter().filter(|p| p.keep_until > t).count();
        let floor = target.max(needed).max(protected).max(
            if cfg.respect_min_scale { min_scale } else { 0 },
        );
        if floor < current {
            pods.sort_by_key(|p| {
                (std::cmp::Reverse(p.keep_until > t), p.warm_at)
            });
            let keep = floor.max(protected);
            if let Some(cl) = cluster {
                for p in &pods[keep..] {
                    cl.release(p.uid, ReleaseReason::ScaledDown);
                }
            }
            pods.truncate(keep);
        }
    }
}
