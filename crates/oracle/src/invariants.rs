//! Metamorphic invariants of the simulation semantics.
//!
//! These properties must hold for *any* correct implementation of the
//! pinned engine contract, independent of the differential oracle:
//!
//! - **Cost conservation** ([`check_conservation`]): execution time
//!   never exceeds the capacity that was allocated
//!   (`exec_seconds ≤ alive-pod-seconds × per-pod concurrency`), the
//!   structural [`femux_rum::CostRecord::check`] passes, and the
//!   cold-start count equals the number of requests that waited.
//! - **Headroom monotonicity** ([`check_headroom_monotone`]): holding
//!   more fixed pods never causes *more* cold starts.
//! - **Time-shift invariance** ([`check_time_shift`]): delaying a
//!   min-scale-0 workload by whole intervals leaves every cost
//!   identical and merely prefixes the observation series with zeros.
//!   (Checked for policies whose decisions depend only on the trailing
//!   window — keep-alive and zero; forecasters with absolute history
//!   windows are legitimately shift-sensitive.)
//! - **Id-shift invariance** ([`check_id_shift`]): the application id
//!   is an identity, not an input — relabeling changes nothing in a
//!   fault-free run. (Spans are excluded: the span sampler is keyed by
//!   app id by design, so the check runs with the layer off.)
//! - **Min-scale floor** ([`check_min_scale_floor`]): the pod timeline
//!   never dips below `min_scale`, starting from the floor itself (no
//!   phantom 0 → min_scale event).
//! - **Rate-0 fault inertness** ([`check_rate0_inert`]): installing a
//!   fault plan with every rate at zero is byte-identical to running
//!   with no plan at all, and costs the engine exactly the same work
//!   (equal [`femux_sim::EngineStats`]: the idle fast-forward runs
//!   under a plan).
//! - **Cluster ledger conservation** ([`check_cluster_accounting`]):
//!   every placed pod is accounted for exactly once
//!   (`placed = evicted + scaled_down + displaced + resident_end`) and
//!   the per-node occupancy integrals sum to the engine's alive-pod
//!   time (the quantity `allocated_gb_seconds` is billed from).

use femux_sim::{
    simulate_app, simulate_app_with_stats, FixedPolicy, ScalingPolicy,
    SimConfig, SimResult,
};
use femux_trace::types::AppRecord;

/// Relative/absolute slack for the one inequality computed from
/// already-rounded quantities; every equality check is exact.
const EPS: f64 = 1e-6;

/// Cost conservation for a single fault-free result.
pub fn check_conservation(
    app: &AppRecord,
    res: &SimResult,
    recorded_delays: bool,
) -> Result<(), String> {
    res.costs.check()?;
    let mem_gb = app.mem_used_mb as f64 / 1_024.0;
    let concurrency = f64::from(app.config.pod_concurrency());
    if mem_gb > 0.0 {
        let capacity_secs =
            res.costs.allocated_gb_seconds / mem_gb * concurrency;
        if res.costs.exec_seconds > capacity_secs * (1.0 + EPS) + EPS {
            return Err(format!(
                "exec {}s exceeds allocated capacity {}s",
                res.costs.exec_seconds, capacity_secs
            ));
        }
    }
    if recorded_delays {
        let waited =
            res.delays_secs.iter().filter(|&&d| d > 0.0).count() as u64;
        if waited != res.costs.cold_starts {
            return Err(format!(
                "{} requests waited but {} cold starts were counted",
                waited, res.costs.cold_starts
            ));
        }
    }
    Ok(())
}

/// More fixed pods ⇒ no more cold starts.
pub fn check_headroom_monotone(
    app: &AppRecord,
    span_ms: u64,
    cfg: &SimConfig,
    lo_pods: usize,
    hi_pods: usize,
) -> Result<(), String> {
    assert!(lo_pods < hi_pods, "lo must be the smaller headroom");
    let lo = simulate_app(app, &mut FixedPolicy(lo_pods), span_ms, cfg);
    let hi = simulate_app(app, &mut FixedPolicy(hi_pods), span_ms, cfg);
    if hi.costs.cold_starts > lo.costs.cold_starts {
        return Err(format!(
            "fixed-{hi_pods} pays {} cold starts, fixed-{lo_pods} only {}",
            hi.costs.cold_starts, lo.costs.cold_starts
        ));
    }
    Ok(())
}

/// Shifting a min-scale-0 workload by `k` whole intervals prefixes the
/// series with `k` zero samples and changes no cost.
///
/// `make_policy` must build a window-relative policy (keep-alive,
/// zero). The check disables the scale-out rate limit: the limit's
/// wall-clock minute buckets are legitimately not shift-invariant.
pub fn check_time_shift(
    app: &AppRecord,
    span_ms: u64,
    cfg: &SimConfig,
    make_policy: &dyn Fn() -> Box<dyn ScalingPolicy>,
    k: u64,
) -> Result<(), String> {
    let mut base_cfg = cfg.clone();
    base_cfg.scale_limit = None;
    let mut base_app = app.clone();
    base_app.config.min_scale = 0;

    let delta = k * base_cfg.interval_ms;
    let mut shifted_app = base_app.clone();
    for inv in &mut shifted_app.invocations {
        inv.start_ms += delta;
    }

    let base = simulate_app(
        &base_app,
        make_policy().as_mut(),
        span_ms,
        &base_cfg,
    );
    let shifted = simulate_app(
        &shifted_app,
        make_policy().as_mut(),
        span_ms + delta,
        &base_cfg,
    );

    if shifted.costs != base.costs {
        return Err(format!(
            "costs changed under a {delta} ms shift: {:?} vs {:?}",
            shifted.costs, base.costs
        ));
    }
    let k = k as usize;
    for (name, shifted_series, base_series) in [
        (
            "avg_concurrency",
            &shifted.avg_concurrency,
            &base.avg_concurrency,
        ),
        (
            "peak_concurrency",
            &shifted.peak_concurrency,
            &base.peak_concurrency,
        ),
        ("arrivals", &shifted.arrivals, &base.arrivals),
    ] {
        if shifted_series.len() != base_series.len() + k
            || shifted_series[..k].iter().any(|&v| v != 0.0)
            || shifted_series[k..] != base_series[..]
        {
            return Err(format!(
                "{name} is not the base series with {k} zero samples \
                 prefixed"
            ));
        }
    }
    if shifted.pod_counts.len() != base.pod_counts.len() + k
        || shifted.pod_counts[..k].iter().any(|&p| p != 0)
        || shifted.pod_counts[k..] != base.pod_counts[..]
    {
        return Err(
            "pod_counts is not the base timeline with a zero prefix"
                .to_string(),
        );
    }
    if shifted.delays_secs != base.delays_secs {
        return Err("per-request delays changed under shift".to_string());
    }
    Ok(())
}

/// Relabeling the application id changes nothing in a fault-free run.
pub fn check_id_shift(
    app: &AppRecord,
    span_ms: u64,
    cfg: &SimConfig,
    make_policy: &dyn Fn() -> Box<dyn ScalingPolicy>,
) -> Result<(), String> {
    // The span sampler is deliberately keyed by `(app id, index)` and
    // each span records its app id, so the span layer is legitimately
    // id-sensitive; run the check with spans off.
    let mut cfg = cfg.clone();
    cfg.spans = None;
    let cfg = &cfg;
    let mut relabeled = app.clone();
    relabeled.id = femux_trace::types::AppId(app.id.0 ^ 0x5EED);
    let base = simulate_app(app, make_policy().as_mut(), span_ms, cfg);
    let moved =
        simulate_app(&relabeled, make_policy().as_mut(), span_ms, cfg);
    if base != moved {
        return Err("result depends on the application id".to_string());
    }
    Ok(())
}

/// The pod timeline starts at and never dips below the min-scale floor,
/// and the reconstructed scale events honor it too.
pub fn check_min_scale_floor(
    app: &AppRecord,
    res: &SimResult,
    cfg: &SimConfig,
) -> Result<(), String> {
    if !cfg.respect_min_scale {
        return Ok(());
    }
    // Memory pressure is physical and overrides the floor: a cluster
    // too small for the floor denies the initial placements, and
    // eviction deliberately ignores the floor. The invariant only
    // applies while the cluster never had to push back.
    if let Some(cl) = &res.cluster {
        if cl.placement_denials > 0 || cl.evictions > 0 {
            return Ok(());
        }
    }
    let floor = app.config.min_scale as usize;
    if res.initial_pods != floor {
        return Err(format!(
            "initial pod count {} is not the min-scale floor {floor}",
            res.initial_pods
        ));
    }
    if let Some(p) = res.pod_counts.iter().find(|&&p| p < floor) {
        return Err(format!(
            "pod count {p} dips below the min-scale floor {floor}"
        ));
    }
    for ev in res.scale_events(cfg.interval_ms) {
        if ev.to < floor || ev.from < floor {
            return Err(format!(
                "scale event {ev:?} crosses the min-scale floor {floor}"
            ));
        }
    }
    Ok(())
}

/// Cluster ledger conservation plus occupancy-integral agreement with
/// the billed allocation, for any result carrying a cluster outcome.
pub fn check_cluster_accounting(
    app: &AppRecord,
    res: &SimResult,
) -> Result<(), String> {
    let Some(cl) = &res.cluster else {
        return Ok(());
    };
    if !cl.conserved() {
        return Err(format!(
            "cluster ledger not conserved: placed {} != evicted {} + \
             scaled_down {} + displaced {} + resident_end {}",
            cl.placed,
            cl.evictions,
            cl.scaled_down,
            cl.pods_displaced,
            cl.resident_end
        ));
    }
    let mem_gb = app.mem_used_mb as f64 / 1_024.0;
    if mem_gb > 0.0 {
        let alive_secs = res.costs.allocated_gb_seconds / mem_gb;
        let occupancy_secs: f64 = cl.node_pod_seconds.iter().sum();
        if (occupancy_secs - alive_secs).abs()
            > EPS * alive_secs.abs() + EPS
        {
            return Err(format!(
                "per-node occupancy sums to {occupancy_secs}s but the \
                 engine billed {alive_secs}s of pod time"
            ));
        }
    }
    Ok(())
}

/// An infinite-capacity single-node cluster never denies, evicts, or
/// saturates, so every non-cluster observable must be byte-identical
/// to running with no cluster at all (the backward-compat gate for the
/// cluster layer).
pub fn check_unbounded_cluster_transparent(
    app: &AppRecord,
    span_ms: u64,
    cfg: &SimConfig,
    make_policy: &dyn Fn() -> Box<dyn ScalingPolicy>,
) -> Result<(), String> {
    assert!(
        cfg.cluster.is_none(),
        "pass the cluster-free configuration"
    );
    let base = simulate_app(app, make_policy().as_mut(), span_ms, cfg);
    let mut clustered_cfg = cfg.clone();
    clustered_cfg.cluster =
        Some(femux_sim::ClusterConfig::unbounded());
    let clustered = simulate_app(
        app,
        make_policy().as_mut(),
        span_ms,
        &clustered_cfg,
    );
    let Some(outcome) = &clustered.cluster else {
        return Err(
            "clustered run produced no cluster outcome".to_string()
        );
    };
    if outcome.evictions != 0
        || outcome.saturated_overcommits != 0
        || outcome.placement_denials != 0
    {
        return Err(format!(
            "an unbounded node pushed back: {outcome:?}"
        ));
    }
    let mut stripped = clustered.clone();
    stripped.cluster = None;
    if format!("{stripped:?}") != format!("{base:?}") {
        return Err(
            "an unbounded single-node cluster changed the simulation"
                .to_string(),
        );
    }
    Ok(())
}

/// A fault plan with all rates zero must be byte-identical to no plan
/// and take the same engine work.
pub fn check_rate0_inert(
    app: &AppRecord,
    span_ms: u64,
    cfg: &SimConfig,
    make_policy: &dyn Fn() -> Box<dyn ScalingPolicy>,
    seed: u64,
) -> Result<(), String> {
    assert!(cfg.faults.is_none(), "pass the fault-free configuration");
    let (clean, clean_stats) =
        simulate_app_with_stats(app, make_policy().as_mut(), span_ms, cfg);
    let mut zeroed_cfg = cfg.clone();
    zeroed_cfg.faults = Some(femux_fault::FaultConfig::off(seed));
    let (zeroed, zeroed_stats) = simulate_app_with_stats(
        app,
        make_policy().as_mut(),
        span_ms,
        &zeroed_cfg,
    );
    if format!("{clean:?}") != format!("{zeroed:?}") {
        return Err(
            "a rate-0 fault plan changed the simulation".to_string()
        );
    }
    if clean_stats != zeroed_stats {
        return Err(format!(
            "a rate-0 fault plan changed the engine's work: \
             {zeroed_stats:?} against {clean_stats:?} without a plan"
        ));
    }
    if zeroed.faults != femux_fault::FaultStats::default() {
        return Err(format!(
            "a rate-0 plan reported injections: {:?}",
            zeroed.faults
        ));
    }
    Ok(())
}
