//! Latency attribution per policy: where does platform delay come
//! from?
//!
//! Runs the dense IBM fleet and the bursty Azure fleet under three
//! policies with every invocation's lifecycle span sampled (rate 1),
//! then aggregates the causal segments: queue wait (joining a pod that
//! was already warming), cold wait (a fresh spawn paid in full), and
//! the warm-admission share broken down by pod provenance. The span
//! layer's exact-accounting contract (segment sum ≡ engine delay,
//! enforced bitwise by `tests/span_determinism.rs`) means the shares
//! printed here decompose the *same* delay numbers every other
//! experiment reports — not a parallel estimate.
//!
//! The EXPERIMENTS.md "latency breakdown" table is this binary's
//! output.

use femux_bench::table::{f1, pct, print_table};
use femux_obs::span::{SpanConfig, WaitCause};
use femux_sim::{
    simulate_app, FixedPolicy, KeepAlivePolicy, KnativeDefaultPolicy,
    ScalingPolicy, SimConfig, SimResult,
};
use femux_trace::synth::azure::{self, AzureFleetConfig};
use femux_trace::synth::ibm::{self, IbmFleetConfig};
use femux_trace::types::Trace;

/// Causal segment totals over one (fleet, policy) run.
#[derive(Default)]
struct Tally {
    invocations: u64,
    queue_ms: u64,
    cold_ms: u64,
    exec_ms: u64,
    warm: u64,
    warm_min_scale_pods: u64,
    warm_reactive_pods: u64,
    warm_proactive_pods: u64,
    joined: u64,
    fresh: u64,
    evicted: u64,
    saturated: u64,
}

impl Tally {
    fn add(&mut self, res: &SimResult) {
        for span in &res.spans {
            self.invocations += 1;
            self.queue_ms += span.queue_wait_ms;
            self.cold_ms += span.cold_wait_ms;
            self.exec_ms += span.exec_ms;
            match span.cause {
                WaitCause::Warm {
                    min_scale,
                    reactive,
                    proactive,
                    ..
                } => {
                    self.warm += 1;
                    self.warm_min_scale_pods += min_scale;
                    self.warm_reactive_pods += reactive;
                    self.warm_proactive_pods += proactive;
                }
                WaitCause::JoinedWarmingPod { .. } => self.joined += 1,
                WaitCause::FreshSpawn { .. } => self.fresh += 1,
                WaitCause::Evicted { .. } => self.evicted += 1,
                WaitCause::Saturated => self.saturated += 1,
            }
        }
    }

    fn row(&self, fleet: &str, policy: &str) -> Vec<String> {
        let n = self.invocations.max(1) as f64;
        let wait_ms = (self.queue_ms + self.cold_ms) as f64;
        vec![
            fleet.to_string(),
            policy.to_string(),
            self.invocations.to_string(),
            f1(wait_ms / n),
            f1(self.queue_ms as f64 / n),
            f1(self.cold_ms as f64 / n),
            pct(self.warm as f64 / n),
            pct(self.joined as f64 / n),
            pct(self.fresh as f64 / n),
        ]
    }
}

/// Builds a fresh policy instance.
type MakePolicy = fn() -> Box<dyn ScalingPolicy>;

fn policies() -> Vec<(&'static str, MakePolicy)> {
    vec![
        ("keepalive-10min", || {
            Box::new(KeepAlivePolicy::ten_minutes())
        }),
        ("knative-default", || Box::new(KnativeDefaultPolicy)),
        ("fixed-1", || Box::new(FixedPolicy(1))),
    ]
}

fn fleets(quick: bool) -> Vec<(&'static str, Trace)> {
    let dense = ibm::generate(&IbmFleetConfig {
        n_apps: if quick { 30 } else { 120 },
        span_days: 3,
        seed: 77,
        max_invocations_per_app: 20_000,
        rate_scale: 0.05,
    });
    let bursty = azure::generate(&AzureFleetConfig {
        n_apps: if quick { 15 } else { 60 },
        days: 4,
        seed: 0xA2E,
        rate_scale: 0.5,
    })
    .to_trace();
    vec![("ibm-dense-3d", dense), ("azure-bursty-4d", bursty)]
}

fn main() {
    let _obs = femux_bench::obs::session();
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = SimConfig {
        spans: Some(SpanConfig::all(0x5EED)),
        ..SimConfig::default()
    };
    let mut rows = Vec::new();
    for (fleet_name, trace) in fleets(quick) {
        for (policy_name, make) in policies() {
            let mut tally = Tally::default();
            for app in &trace.apps {
                let mut policy = make();
                tally.add(&simulate_app(
                    app,
                    policy.as_mut(),
                    trace.span_ms,
                    &cfg,
                ));
            }
            rows.push(tally.row(fleet_name, policy_name));
        }
    }
    print_table(
        "Latency attribution from rate-1 lifecycle spans \
         (wait = queue + cold; causes are invocation shares)",
        &[
            "fleet",
            "policy",
            "invocations",
            "mean wait ms",
            "queue ms",
            "cold ms",
            "warm",
            "joined warming",
            "fresh spawn",
        ],
        &rows,
    );
}
