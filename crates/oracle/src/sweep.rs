//! Seeded, shrinking property runner.
//!
//! [`run_sweep`] drives synthetic IBM and Azure application streams —
//! plus a fixed battery of adversarial hand-rolled apps (same-ms
//! bursts, boundary-time arrivals, tick-crossing durations,
//! invocations past the span end, zero-duration requests, min-scale
//! floors) — through [`femux_sim::simulate_app`] and
//! [`crate::reference_simulate`] under every policy × interval
//! combination, checks exact agreement and the metamorphic
//! [`crate::invariants`], and shrinks any divergent case to a minimal
//! counterexample (seed + app + first divergent tick).
//!
//! Cases run through [`femux_par::par_map`], which preserves input
//! order, so [`SweepReport::render`] is byte-identical at any
//! `FEMUX_THREADS` setting.

use crate::diff::{compare_results, Divergence};
use crate::engine::reference_simulate;
use crate::invariants;
use femux_sim::{
    simulate_app, ClusterConfig, FixedPolicy, ForecastPolicy,
    KeepAlivePolicy, KnativeDefaultPolicy, NodeConfig, PlacementKind,
    ScalingPolicy, SimConfig, ZeroPolicy,
};
use femux_stats::rng::Rng;
use femux_trace::types::{
    AppConfig, AppId, AppRecord, Invocation, WorkloadKind,
};

/// A scaling policy to sweep, nameable and rebuildable (policies are
/// stateful, so every simulation gets a fresh instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// 10-minute keep-alive (the paper's normalization baseline).
    KeepAlive,
    /// Knative's default concurrency-tracking autoscaler.
    KnativeDefault,
    /// Forecast-driven scaling with the Knative moving average.
    Forecast,
    /// A constant pod count.
    Fixed(usize),
    /// Never holds pods: every request is a cold start.
    Zero,
}

impl PolicyKind {
    /// The sweep's default policy battery.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::KeepAlive,
        PolicyKind::KnativeDefault,
        PolicyKind::Forecast,
        PolicyKind::Fixed(2),
        PolicyKind::Zero,
    ];

    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn ScalingPolicy> {
        match self {
            PolicyKind::KeepAlive => {
                Box::new(KeepAlivePolicy::ten_minutes())
            }
            PolicyKind::KnativeDefault => Box::new(KnativeDefaultPolicy),
            PolicyKind::Forecast => Box::new(ForecastPolicy::new(
                Box::new(
                    femux_forecast::simple::MovingAverageForecaster::knative(),
                ),
            )),
            PolicyKind::Fixed(n) => Box::new(FixedPolicy(n)),
            PolicyKind::Zero => Box::new(ZeroPolicy),
        }
    }

    /// Stable label used in reports.
    pub fn label(self) -> String {
        match self {
            PolicyKind::KeepAlive => "keep-alive-600s".to_string(),
            PolicyKind::KnativeDefault => "knative-default".to_string(),
            PolicyKind::Forecast => "forecast-ma".to_string(),
            PolicyKind::Fixed(n) => format!("fixed-{n}"),
            PolicyKind::Zero => "zero".to_string(),
        }
    }
}

/// Cluster configurations swept alongside the free-floating default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterVariant {
    /// No cluster layer: the historical free-floating pod accounting.
    Free,
    /// A single unbounded node: placement always succeeds, so every
    /// non-cluster observable must stay byte-identical to [`Free`]
    /// (the backward-compat gate).
    ///
    /// [`Free`]: ClusterVariant::Free
    Unbounded,
    /// Two small nodes under best-fit: bursty apps hit placement
    /// denials, evictions, and saturated overcommits.
    Tight,
    /// The same two small nodes under round-robin placement.
    TightRoundRobin,
}

impl ClusterVariant {
    /// The variants that actually install a cluster.
    pub const CLUSTERED: [ClusterVariant; 3] = [
        ClusterVariant::Unbounded,
        ClusterVariant::Tight,
        ClusterVariant::TightRoundRobin,
    ];

    /// The [`SimConfig::cluster`] value for this variant.
    pub fn config(self) -> Option<ClusterConfig> {
        let tight = || NodeConfig {
            cpu_milli: u64::MAX,
            mem_mb: 600,
        };
        match self {
            ClusterVariant::Free => None,
            ClusterVariant::Unbounded => {
                Some(ClusterConfig::unbounded())
            }
            ClusterVariant::Tight => {
                Some(ClusterConfig::uniform(2, tight()))
            }
            ClusterVariant::TightRoundRobin => {
                let mut cc = ClusterConfig::uniform(2, tight());
                cc.placement = PlacementKind::RoundRobin;
                Some(cc)
            }
        }
    }

    /// Stable label used in case names.
    pub fn label(self) -> &'static str {
        match self {
            ClusterVariant::Free => "free",
            ClusterVariant::Unbounded => "cluster-unbounded",
            ClusterVariant::Tight => "cluster-tight",
            ClusterVariant::TightRoundRobin => "cluster-tight-rr",
        }
    }
}

/// Sweep parameters. The same config and seed always produce the same
/// report.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed; forked into fleet generation and fuzz apps.
    pub seed: u64,
    /// Applications sampled from each synthetic source (IBM, Azure).
    pub apps_per_source: usize,
    /// Simulated span per case in ms. Synthetic fleets generate days of
    /// traffic; the replay clamp makes a short window legal and also
    /// exercises the clamp itself.
    pub span_ms: u64,
    /// Scaling intervals to sweep (the evaluation uses 60 s and 10 s).
    pub intervals: Vec<u64>,
    /// Cap on successful shrink reductions per counterexample.
    pub max_shrink_rounds: usize,
}

impl SweepConfig {
    /// A configuration small enough for tier-1 (debug) test runs.
    pub fn quick(seed: u64) -> Self {
        SweepConfig {
            seed,
            apps_per_source: 3,
            span_ms: 130_000,
            intervals: vec![60_000, 10_000],
            max_shrink_rounds: 40,
        }
    }

    /// The release-mode CI sweep.
    pub fn thorough(seed: u64) -> Self {
        SweepConfig {
            seed,
            apps_per_source: 12,
            span_ms: 310_000,
            intervals: vec![60_000, 10_000],
            max_shrink_rounds: 200,
        }
    }
}

/// A shrunk divergent case: everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Master seed of the sweep that found it.
    pub seed: u64,
    /// Stable case label (`source/app-id/policy/interval`).
    pub case: String,
    /// Policy under which the engines disagree.
    pub policy: PolicyKind,
    /// Scaling interval in ms.
    pub interval_ms: u64,
    /// Simulated span in ms (after shrinking).
    pub span_ms: u64,
    /// The minimized application.
    pub app: AppRecord,
    /// First divergent observable/tick.
    pub divergence: Divergence,
    /// Successful reductions applied by the shrinker.
    pub shrink_rounds: usize,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "counterexample [{}] seed={} policy={} interval={}ms \
             span={}ms (shrunk {} steps)",
            self.case,
            self.seed,
            self.policy.label(),
            self.interval_ms,
            self.span_ms,
            self.shrink_rounds,
        )?;
        writeln!(
            f,
            "  app {} cfg={:?} cold={}ms mem={}MB invocations={}",
            self.app.id,
            self.app.config,
            self.app.cold_start_ms,
            self.app.mem_used_mb,
            self.app.invocations.len(),
        )?;
        for inv in self.app.invocations.iter().take(20) {
            writeln!(
                f,
                "    t={}ms dur={}ms",
                inv.start_ms, inv.duration_ms
            )?;
        }
        if self.app.invocations.len() > 20 {
            writeln!(
                f,
                "    … {} more",
                self.app.invocations.len() - 20
            )?;
        }
        write!(f, "  {}", self.divergence)
    }
}

/// Outcome of a full sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Master seed.
    pub seed: u64,
    /// Engine-vs-oracle cases executed.
    pub cases: usize,
    /// Individual invariant checks executed.
    pub invariant_checks: usize,
    /// Shrunk divergences, in case order.
    pub counterexamples: Vec<Counterexample>,
    /// Invariant violations (`case: message`), in case order.
    pub invariant_failures: Vec<String>,
}

impl SweepReport {
    /// True when every case agreed and every invariant held.
    pub fn is_clean(&self) -> bool {
        self.counterexamples.is_empty()
            && self.invariant_failures.is_empty()
    }

    /// Deterministic human-readable summary (byte-identical across
    /// thread counts).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "oracle sweep: seed={} cases={} invariant-checks={} \
             divergences={} invariant-failures={}",
            self.seed,
            self.cases,
            self.invariant_checks,
            self.counterexamples.len(),
            self.invariant_failures.len(),
        );
        for cex in &self.counterexamples {
            let _ = writeln!(out, "{cex}");
        }
        for fail in &self.invariant_failures {
            let _ = writeln!(out, "invariant violated: {fail}");
        }
        if self.is_clean() {
            let _ = writeln!(out, "all cases agree exactly");
        }
        out
    }
}

fn sim_config(interval_ms: u64, cluster: ClusterVariant) -> SimConfig {
    SimConfig {
        interval_ms,
        record_delays: true,
        // Sample every invocation's lifecycle span: the per-ms oracle
        // re-derives each span (segments, pod identity, wait cause)
        // independently and `compare_results` checks them exactly.
        spans: Some(femux_obs::span::SpanConfig::all(
            0x5EED ^ interval_ms,
        )),
        cluster: cluster.config(),
        ..SimConfig::default()
    }
}

/// Runs one case through the engine and the per-ms oracle; `None`
/// means exact agreement.
fn diverges(
    app: &AppRecord,
    policy: PolicyKind,
    interval_ms: u64,
    span_ms: u64,
    cluster: ClusterVariant,
) -> Option<Divergence> {
    let cfg = sim_config(interval_ms, cluster);
    let engine =
        simulate_app(app, policy.build().as_mut(), span_ms, &cfg);
    let oracle =
        reference_simulate(app, policy.build().as_mut(), span_ms, &cfg);
    compare_results(&engine, &oracle, interval_ms)
}

/// ddmin-lite: removes invocation chunks, then halves durations, then
/// halves the span, keeping each reduction only while the divergence
/// persists. Deterministic and bounded by `max_rounds` successful
/// reductions.
fn shrink(
    mut app: AppRecord,
    policy: PolicyKind,
    interval_ms: u64,
    mut span_ms: u64,
    max_rounds: usize,
    cluster: ClusterVariant,
) -> (AppRecord, u64, Divergence, usize) {
    let mut divergence =
        diverges(&app, policy, interval_ms, span_ms, cluster)
            .expect("shrink requires a divergent case");
    let mut rounds = 0;

    // Invocation-chunk removal, halving the chunk size each pass.
    let mut chunk = app.invocations.len().div_ceil(2).max(1);
    while chunk >= 1 && rounds < max_rounds {
        let mut i = 0;
        let mut removed_any = false;
        while i < app.invocations.len() && rounds < max_rounds {
            let mut candidate = app.clone();
            let hi = (i + chunk).min(candidate.invocations.len());
            candidate.invocations.drain(i..hi);
            if let Some(d) = diverges(
                &candidate, policy, interval_ms, span_ms, cluster,
            ) {
                app = candidate;
                divergence = d;
                rounds += 1;
                removed_any = true;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Duration halving (keeps arrival pattern, simplifies overlap).
    let mut changed = true;
    while changed && rounds < max_rounds {
        changed = false;
        for j in 0..app.invocations.len() {
            if app.invocations[j].duration_ms == 0 {
                continue;
            }
            let mut candidate = app.clone();
            candidate.invocations[j].duration_ms /= 2;
            if let Some(d) = diverges(
                &candidate, policy, interval_ms, span_ms, cluster,
            ) {
                app = candidate;
                divergence = d;
                rounds += 1;
                changed = true;
                if rounds >= max_rounds {
                    break;
                }
            }
        }
    }

    // Span halving, floored at one interval.
    while span_ms / 2 >= interval_ms && rounds < max_rounds {
        let candidate_span = span_ms / 2;
        match diverges(&app, policy, interval_ms, candidate_span, cluster)
        {
            Some(d) => {
                span_ms = candidate_span;
                divergence = d;
                rounds += 1;
            }
            None => break,
        }
    }

    (app, span_ms, divergence, rounds)
}

fn adversarial_app(id: u32, which: usize, span_ms: u64) -> AppRecord {
    let mut config = AppConfig::default();
    let mut invocations = Vec::new();
    let mut mem_used_mb = 150;
    match which {
        // Same-millisecond burst at concurrency 100: must queue on the
        // single warming pod, not fan out one pod per request.
        0 => {
            for _ in 0..8 {
                invocations.push(Invocation {
                    start_ms: 5_000,
                    duration_ms: 2_500,
                    delay_ms: 0,
                });
            }
        }
        // Arrivals exactly on tick boundaries (tick runs before the
        // same-ms arrival) and at the span edge.
        1 => {
            for k in 1..=4u64 {
                invocations.push(Invocation {
                    start_ms: k * 10_000,
                    duration_ms: 900,
                    delay_ms: 0,
                });
            }
            invocations.push(Invocation {
                start_ms: span_ms - 1,
                duration_ms: 5_000,
                delay_ms: 0,
            });
            invocations.push(Invocation {
                start_ms: span_ms, // clamped out of the replay
                duration_ms: 5_000,
                delay_ms: 0,
            });
        }
        // Tick-crossing durations at concurrency 1: every overlap is a
        // new pod, completions straddle interval closes.
        2 => {
            config.concurrency = 1;
            for k in 0..6u64 {
                invocations.push(Invocation {
                    start_ms: 2_000 + k * 9_500,
                    duration_ms: 25_000,
                    delay_ms: 0,
                });
            }
        }
        // Zero-duration requests, some sharing a millisecond with
        // ordinary work (exercise the lazy completion pop).
        3 => {
            config.concurrency = 2;
            for k in 0..5u64 {
                invocations.push(Invocation {
                    start_ms: 3_000 + k * 701,
                    duration_ms: 0,
                    delay_ms: 0,
                });
                invocations.push(Invocation {
                    start_ms: 3_000 + k * 701,
                    duration_ms: 1_300,
                    delay_ms: 0,
                });
            }
        }
        // Min-scale floor with sparse traffic: the floor must hold and
        // no phantom 0 → min_scale event may appear.
        4 => {
            config.min_scale = 2;
            invocations.push(Invocation {
                start_ms: 15_000,
                duration_ms: 400,
                delay_ms: 0,
            });
            invocations.push(Invocation {
                start_ms: 95_000,
                duration_ms: 400,
                delay_ms: 0,
            });
        }
        // Work that overhangs the span end: admitted before the cut,
        // finishes in the drain.
        5 => {
            invocations.push(Invocation {
                start_ms: span_ms.saturating_sub(500),
                duration_ms: 30_000,
                delay_ms: 0,
            });
            invocations.push(Invocation {
                start_ms: span_ms.saturating_sub(200),
                duration_ms: 30_000,
                delay_ms: 0,
            });
        }
        // A floor no tight node can hold: 711 MB pods against 600 MB
        // nodes, so the initial floor and every tick's target are
        // denied, and the engine counts its idle denials in bulk. The
        // one request finds no room either and runs overcommitted, with
        // no pod.
        _ => {
            config.min_scale = 2;
            mem_used_mb = 711;
            invocations.push(Invocation {
                start_ms: 15_000,
                duration_ms: 400,
                delay_ms: 0,
            });
        }
    }
    AppRecord {
        id: AppId(id),
        kind: WorkloadKind::Application,
        config,
        mem_used_mb,
        cold_start_ms: 808,
        invocations,
    }
}

fn fuzz_app(id: u32, rng: &mut Rng, span_ms: u64) -> AppRecord {
    let config = AppConfig {
        concurrency: [1u32, 2, 100][rng.index(3)],
        min_scale: rng.below(3) as u32,
        ..AppConfig::default()
    };
    let n = 5 + rng.index(40);
    let mut invocations: Vec<Invocation> = (0..n)
        .map(|_| Invocation {
            // Deliberately up to 20 % past the span to hit the clamp.
            start_ms: rng.below(span_ms + span_ms / 5),
            duration_ms: [0u32, 1, 750, 8_000, 45_000][rng.index(5)],
            delay_ms: 0,
        })
        .collect();
    invocations.sort_by_key(|inv| inv.start_ms);
    AppRecord {
        id: AppId(id),
        kind: WorkloadKind::Application,
        config,
        mem_used_mb: 100 + rng.below(400) as u32,
        cold_start_ms: [250u32, 808, 4_000][rng.index(3)],
        invocations,
    }
}

/// Deterministically samples `count` non-empty apps spread across a
/// fleet.
fn sample_apps(apps: &[AppRecord], count: usize) -> Vec<AppRecord> {
    let candidates: Vec<&AppRecord> =
        apps.iter().filter(|a| !a.invocations.is_empty()).collect();
    if candidates.is_empty() || count == 0 {
        return Vec::new();
    }
    let step = (candidates.len() / count).max(1);
    candidates
        .iter()
        .step_by(step)
        .take(count)
        .map(|a| (*a).clone())
        .collect()
}

struct Case {
    label: String,
    app: AppRecord,
    policy: PolicyKind,
    interval_ms: u64,
    cluster: ClusterVariant,
}

struct CaseOutcome {
    divergence: Option<(
        String,
        PolicyKind,
        u64,
        AppRecord,
        ClusterVariant,
        Divergence,
    )>,
    invariant_failures: Vec<String>,
    invariant_checks: usize,
}

fn run_case(case: &Case, cfg: &SweepConfig) -> CaseOutcome {
    let sim_cfg = sim_config(case.interval_ms, case.cluster);
    let span_ms = cfg.span_ms;
    let engine = simulate_app(
        &case.app,
        case.policy.build().as_mut(),
        span_ms,
        &sim_cfg,
    );
    let oracle = reference_simulate(
        &case.app,
        case.policy.build().as_mut(),
        span_ms,
        &sim_cfg,
    );
    let divergence = compare_results(&engine, &oracle, case.interval_ms)
        .map(|d| {
            (
                case.label.clone(),
                case.policy,
                case.interval_ms,
                case.app.clone(),
                case.cluster,
                d,
            )
        });

    let mut failures = Vec::new();
    let mut checks = 0;
    let mut record =
        |name: &str, res: Result<(), String>, checks: &mut usize| {
            *checks += 1;
            if let Err(msg) = res {
                failures.push(format!("{}: {name}: {msg}", case.label));
            }
        };

    record(
        "conservation",
        invariants::check_conservation(&case.app, &engine, true),
        &mut checks,
    );
    record(
        "min-scale-floor",
        invariants::check_min_scale_floor(&case.app, &engine, &sim_cfg),
        &mut checks,
    );
    record(
        "cluster-accounting",
        invariants::check_cluster_accounting(&case.app, &engine),
        &mut checks,
    );

    // The engine-vs-engine metamorphic checks re-simulate, so gate the
    // expensive ones to one policy each (they do not depend on the
    // swept policy beyond what each check prescribes).
    let make: Box<dyn Fn() -> Box<dyn ScalingPolicy>> = {
        let kind = case.policy;
        Box::new(move || kind.build())
    };
    match case.policy {
        PolicyKind::KeepAlive => {
            record(
                "time-shift",
                invariants::check_time_shift(
                    &case.app, span_ms, &sim_cfg, &make, 2,
                ),
                &mut checks,
            );
            record(
                "id-shift",
                invariants::check_id_shift(
                    &case.app, span_ms, &sim_cfg, &make,
                ),
                &mut checks,
            );
        }
        PolicyKind::KnativeDefault => {
            record(
                "rate0-inert",
                invariants::check_rate0_inert(
                    &case.app, span_ms, &sim_cfg, &make, cfg.seed,
                ),
                &mut checks,
            );
        }
        PolicyKind::Forecast => {
            record(
                "headroom-monotone",
                invariants::check_headroom_monotone(
                    &case.app, span_ms, &sim_cfg, 1, 4,
                ),
                &mut checks,
            );
        }
        PolicyKind::Zero => {
            record(
                "time-shift",
                invariants::check_time_shift(
                    &case.app, span_ms, &sim_cfg, &make, 1,
                ),
                &mut checks,
            );
        }
        PolicyKind::Fixed(_) => {
            // Backward-compat gate: an infinite-capacity single-node
            // cluster must be observationally transparent.
            if case.cluster == ClusterVariant::Free {
                record(
                    "unbounded-cluster-transparent",
                    invariants::check_unbounded_cluster_transparent(
                        &case.app, span_ms, &sim_cfg, &make,
                    ),
                    &mut checks,
                );
            }
        }
    }

    CaseOutcome {
        divergence,
        invariant_failures: failures,
        invariant_checks: checks,
    }
}

/// Runs the full sweep described by `cfg`.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let mut apps: Vec<(String, AppRecord)> = Vec::new();

    let ibm = femux_trace::synth::ibm::generate(
        &femux_trace::synth::ibm::IbmFleetConfig::small(cfg.seed),
    );
    for app in sample_apps(&ibm.apps, cfg.apps_per_source) {
        apps.push((format!("ibm/{}", app.id), app));
    }

    let azure = femux_trace::synth::azure::generate(
        &femux_trace::synth::azure::AzureFleetConfig::small(
            cfg.seed ^ 0xA2E,
        ),
    )
    .to_trace();
    for app in sample_apps(&azure.apps, cfg.apps_per_source) {
        apps.push((format!("azure/{}", app.id), app));
    }

    for which in 0..7 {
        let app = adversarial_app(90_000 + which as u32, which, cfg.span_ms);
        apps.push((format!("adversarial/{which}"), app));
    }

    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xF0_22);
    for i in 0..4u32 {
        let app = fuzz_app(95_000 + i, &mut rng, cfg.span_ms);
        apps.push((format!("fuzz/{i}"), app));
    }

    let mut cases = Vec::new();
    for (label, app) in &apps {
        for &policy in &PolicyKind::ALL {
            for &interval_ms in &cfg.intervals {
                cases.push(Case {
                    label: format!(
                        "{label}/{}/{}ms",
                        policy.label(),
                        interval_ms
                    ),
                    app: app.clone(),
                    policy,
                    interval_ms,
                    cluster: ClusterVariant::Free,
                });
            }
        }
    }

    // Cluster variants ride on the adversarial + fuzz apps (the ones
    // that exercise bursts, floors, and span edges — exactly what
    // placement, eviction, and saturation react to), under three
    // policies at the primary interval. Three-way exact agreement is
    // checked for these cases like any other.
    let cluster_policies = [
        PolicyKind::KeepAlive,
        PolicyKind::KnativeDefault,
        PolicyKind::Fixed(2),
    ];
    let primary_interval = cfg.intervals[0];
    for (label, app) in apps.iter().filter(|(l, _)| {
        l.starts_with("adversarial/") || l.starts_with("fuzz/")
    }) {
        for &cluster in &ClusterVariant::CLUSTERED {
            for &policy in &cluster_policies {
                cases.push(Case {
                    label: format!(
                        "{label}/{}/{}ms/{}",
                        policy.label(),
                        primary_interval,
                        cluster.label()
                    ),
                    app: app.clone(),
                    policy,
                    interval_ms: primary_interval,
                    cluster,
                });
            }
        }
    }

    // Order-preserving parallel map: the report is identical at any
    // FEMUX_THREADS setting.
    let outcomes =
        femux_par::par_map(&cases, |_i, case| run_case(case, cfg));

    let mut report = SweepReport {
        seed: cfg.seed,
        cases: cases.len(),
        invariant_checks: 0,
        counterexamples: Vec::new(),
        invariant_failures: Vec::new(),
    };
    for outcome in outcomes {
        report.invariant_checks += outcome.invariant_checks;
        report
            .invariant_failures
            .extend(outcome.invariant_failures);
        if let Some((label, policy, interval_ms, app, cluster, _)) =
            outcome.divergence
        {
            let (app, span_ms, divergence, shrink_rounds) = shrink(
                app,
                policy,
                interval_ms,
                cfg.span_ms,
                cfg.max_shrink_rounds,
                cluster,
            );
            report.counterexamples.push(Counterexample {
                seed: cfg.seed,
                case: label,
                policy,
                interval_ms,
                span_ms,
                app,
                divergence,
                shrink_rounds,
            });
        }
    }
    report
}
