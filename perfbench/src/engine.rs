//! The `sim` stage: engine-only replay in four phases, the policy
//! timing wrapper, and the replay helper shared with the offline stage.

use femux_fault::{FaultConfig, FaultStats};
use femux_obs::walltime::monotonic_micros;
use femux_rum::CostRecord;
use femux_sim::{
    simulate_app_with_stats, ClusterConfig, ClusterOutcome, EngineStats, IdleRun, IdleTicks,
    KeepAlivePolicy, KnativeDefaultPolicy, NodeConfig, PolicyCtx, ScalingPolicy, SimConfig,
    SimResult,
};
use femux_trace::types::{AppRecord, Trace};

use crate::setup::{derive_seed, Inputs};

/// Engine phases, in run order.
pub const PHASES: [&str; 4] = ["dense", "sparse", "cluster", "crash"];

/// Nodes in the finite cluster of the `cluster` and `crash` phases.
const CLUSTER_NODES: usize = 16;

/// Apps of the sparse fleet the `crash` phase replays. A fault plan
/// sends the engine down the per-tick path over all 62 days, about 50×
/// the cost per invocation of the idle fast-forward, so the whole fleet
/// would make one pass take seconds.
const CRASH_APPS: usize = 16;

/// Forwards every [`ScalingPolicy`] call to the wrapped policy,
/// accumulating the wall time spent inside `target_pods` and
/// `tick_idle`. The idle fast path is forwarded unchanged, so a wrapped
/// run is decision-for-decision the unwrapped one.
pub struct TimedPolicy {
    inner: Box<dyn ScalingPolicy>,
    /// µs spent inside the wrapped policy's decision calls.
    pub busy_us: u64,
}

impl TimedPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ScalingPolicy>) -> Self {
        TimedPolicy { inner, busy_us: 0 }
    }
}

impl ScalingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        let t0 = monotonic_micros();
        let target = self.inner.target_pods(ctx);
        self.busy_us += monotonic_micros().saturating_sub(t0);
        target
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let t0 = monotonic_micros();
        let run = self.inner.tick_idle(idle, i, current_pods, max_ticks);
        self.busy_us += monotonic_micros().saturating_sub(t0);
        run
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

/// Builds a fresh policy for one app.
pub type PolicyFactory = dyn Fn(&AppRecord) -> Box<dyn ScalingPolicy> + Sync;

/// One simulated app: the app, the span to replay, and its policy.
pub type Job<'a> = (&'a AppRecord, u64, &'a PolicyFactory);

/// What one simulated job leaves behind: its costs and engine work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Accumulated costs.
    pub costs: CostRecord,
    /// Engine work.
    pub stats: EngineStats,
    /// Cluster ledger (`None` without a cluster).
    pub cluster: Option<ClusterOutcome>,
    /// Whether every invocation completed exactly once and the cluster
    /// ledger (if any) balances.
    pub conserved: bool,
}

impl JobSummary {
    fn new(app: &AppRecord, res: SimResult, stats: EngineStats) -> Self {
        let ledger = res.cluster.as_ref().is_none_or(ClusterOutcome::conserved);
        JobSummary {
            conserved: ledger && res.costs.invocations == app.invocations.len() as u64,
            costs: res.costs,
            stats,
            cluster: res.cluster,
        }
    }
}

/// The outcome of simulating a set of jobs.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-job summaries, in job order.
    pub jobs: Vec<JobSummary>,
    /// Invocations simulated.
    pub invocations: u64,
    /// Jobs whose app lost or duplicated invocations, or whose cluster
    /// ledger does not balance.
    pub failed: u64,
    /// Engine statistics summed over jobs.
    pub stats: EngineStats,
    /// Cluster ledgers absorbed over jobs (`None` without a cluster).
    pub cluster: Option<ClusterOutcome>,
    /// Wall time, µs.
    pub wall_us: u64,
    /// µs inside policy calls (traced replays only).
    pub policy_us: u64,
    /// Jobs whose wrapped run's `SimResult` or `EngineStats` differ from
    /// the unwrapped run's (traced replays only).
    pub wrapper_mismatches: u64,
}

impl Replay {
    fn absorb(&mut self, job: JobSummary) {
        self.failed += u64::from(!job.conserved);
        self.invocations += job.costs.invocations;
        self.stats.arrivals += job.stats.arrivals;
        self.stats.ticks += job.stats.ticks;
        self.stats.idle_transitions += job.stats.idle_transitions;
        self.stats.batched_ticks += job.stats.batched_ticks;
        if let Some(c) = &job.cluster {
            self.cluster
                .get_or_insert_with(ClusterOutcome::default)
                .absorb(c);
        }
        self.jobs.push(job);
    }
}

/// Simulates every job across the femux-par pool (untraced).
pub fn replay(jobs: &[Job<'_>], cfg: &SimConfig) -> Replay {
    let t0 = monotonic_micros();
    let summaries = femux_par::par_map(jobs, |_, (app, span, mk)| {
        let mut policy = mk(app);
        let (res, stats) = simulate_app_with_stats(app, policy.as_mut(), *span, cfg);
        JobSummary::new(app, res, stats)
    });
    let mut out = Replay {
        wall_us: monotonic_micros().saturating_sub(t0),
        ..Replay::default()
    };
    for job in summaries {
        out.absorb(job);
    }
    out
}

/// Simulates every job on the calling thread with its policy wrapped in
/// a [`TimedPolicy`], then once more unwrapped (untimed) to check that
/// the wrapper changed nothing.
pub fn replay_traced(jobs: &[Job<'_>], cfg: &SimConfig) -> Replay {
    let mut out = Replay::default();
    for (app, span, mk) in jobs {
        let mut policy = TimedPolicy::new(mk(app));
        let t0 = monotonic_micros();
        let wrapped = simulate_app_with_stats(app, &mut policy, *span, cfg);
        out.wall_us += monotonic_micros().saturating_sub(t0);
        out.policy_us += policy.busy_us;
        let plain = simulate_app_with_stats(app, mk(app).as_mut(), *span, cfg);
        out.wrapper_mismatches += u64::from(plain != wrapped);
        out.absorb(JobSummary::new(app, wrapped.0, wrapped.1));
    }
    out
}

type PolicyFn = fn(&AppRecord) -> Box<dyn ScalingPolicy>;

fn keepalive(_: &AppRecord) -> Box<dyn ScalingPolicy> {
    Box::new(KeepAlivePolicy::ten_minutes())
}

/// Knative's default autoscaler, for any app.
pub fn knative(_: &AppRecord) -> Box<dyn ScalingPolicy> {
    Box::new(KnativeDefaultPolicy)
}

/// The engine-only policies: the 10-minute keep-alive and Knative's
/// default autoscaler.
static POLICIES: [PolicyFn; 2] = [keepalive, knative];

/// The jobs and engine configuration of one phase.
pub fn phase_jobs<'a>(inputs: &'a Inputs, phase: &str, seed: u64) -> (Vec<Job<'a>>, SimConfig) {
    let dense: [&Trace; 2] = [&inputs.ibm_dense, &inputs.azure_bursty];
    let sparse: [&Trace; 1] = [&inputs.ibm_sparse];
    let fleets: &[&Trace] = match phase {
        "dense" | "cluster" => &dense,
        _ => &sparse,
    };
    let cluster = Some(ClusterConfig::uniform(
        CLUSTER_NODES,
        NodeConfig {
            cpu_milli: u64::MAX,
            mem_mb: 600,
        },
    ));
    let cfg = match phase {
        "cluster" => SimConfig {
            cluster,
            ..SimConfig::default()
        },
        "crash" => SimConfig {
            cluster,
            faults: Some(FaultConfig {
                node_crash_rate: 0.01,
                node_recovery_ticks: 2,
                pod_crash_rate: 0.001,
                ..FaultConfig::off(derive_seed(seed, 7))
            }),
            ..SimConfig::default()
        },
        _ => SimConfig::default(),
    };
    let apps = if phase == "crash" {
        CRASH_APPS
    } else {
        usize::MAX
    };
    let mut jobs: Vec<Job<'a>> = Vec::new();
    for mk in &POLICIES {
        for trace in fleets {
            for app in trace.apps.iter().take(apps) {
                jobs.push((app, trace.span_ms, mk));
            }
        }
    }
    (jobs, cfg)
}
