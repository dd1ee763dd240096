//! Records the committed simulator performance baseline
//! (`BENCH_sim.json` at the repository root).
//!
//! Seeded fleets — a dense IBM-like fleet, a sparse/idle-heavy 62-day
//! IBM-like fleet, and a bursty Azure-like fleet — run through the
//! event-queue engine (`simulate_app`, engine `event`) per policy,
//! recording wall time and simulated invocations/second. Two extra
//! cases re-run the dense fleet with a layer enabled so its overhead
//! is priced in the committed baseline: every invocation's lifecycle
//! span sampled (engine `event-spans`), and a finite 16-node cluster
//! with node crashes injected (engine `event-cluster` — placement,
//! eviction scans, and the node fault domain all on the hot path).
//! Both pair with `(ibm-dense-3d, keepalive-10min, event)`. Case order
//! is fixed, so the document layout is deterministic; only the two
//! wall-derived fields vary between machines.
//!
//! Usage: `perf_record [--quick] [--schema-only] [--out PATH]
//! [--check PATH] [--compare PATH [--tolerance T]]`
//!
//! - `--quick`: smaller fleets (CI-sized; identical case labels).
//! - `--schema-only`: skip the simulations and zero the wall-derived
//!   fields — everything left is deterministic, so two runs diff clean
//!   at any `FEMUX_THREADS` setting.
//! - `--out PATH`: write the document to PATH instead of stdout.
//! - `--check PATH`: validate that the document at PATH (the committed
//!   baseline) carries the current schema version, every expected
//!   (fleet, policy, engine) case, and the wall fields; exits nonzero
//!   on drift without recording anything.
//! - `--compare PATH`: run the cases fresh and diff `inv_per_sec`
//!   against the baseline at PATH, case by case; exits nonzero if any
//!   case falls below `baseline × (1 − tolerance)`. `--tolerance`
//!   defaults to 0.6 — a wide band, because CI machines differ from
//!   the recording machine; the gate catches collapses, not noise.

use std::fmt::Write as _;

use femux_sim::{
    simulate_app, ClusterConfig, KeepAlivePolicy, KnativeDefaultPolicy,
    NodeConfig, ScalingPolicy, SimConfig,
};
use femux_trace::synth::azure::{self, AzureFleetConfig};
use femux_trace::synth::ibm::{self, IbmFleetConfig};
use femux_trace::types::Trace;

const SCHEMA: &str = "femux-bench-sim/v3";
const POLICIES: [&str; 2] = ["keepalive-10min", "knative-default"];
const FLEET_NAMES: [&str; 3] =
    ["ibm-dense-3d", "ibm-sparse-62d", "azure-bursty-4d"];

/// `(fleet, policy, engine)` labels in recorded order: the full
/// fleet × policy grid on the `event` engine, then the span- and
/// cluster-overhead cases that pair with
/// `(ibm-dense-3d, keepalive-10min, event)`.
fn case_labels() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut labels = Vec::new();
    for fleet in FLEET_NAMES {
        for policy in POLICIES {
            labels.push((fleet, policy, "event"));
        }
    }
    labels.push(("ibm-dense-3d", "keepalive-10min", "event-spans"));
    labels.push(("ibm-dense-3d", "keepalive-10min", "event-cluster"));
    labels
}

#[expect(
    clippy::unreachable,
    reason = "every name comes from the POLICIES constant"
)]
fn build_policy(name: &str) -> Box<dyn ScalingPolicy> {
    match name {
        "keepalive-10min" => Box::new(KeepAlivePolicy::ten_minutes()),
        "knative-default" => Box::new(KnativeDefaultPolicy),
        other => unreachable!("unknown policy {other}"),
    }
}

fn fleets(quick: bool) -> Vec<(&'static str, Trace)> {
    let dense = ibm::generate(&IbmFleetConfig {
        n_apps: if quick { 30 } else { 120 },
        span_days: 3,
        seed: 77,
        max_invocations_per_app: 20_000,
        rate_scale: 0.05,
    });
    // The headline case: a 62-day IBM-scale sparse fleet whose wall
    // time is dominated by idle intervals.
    let sparse = ibm::generate(&IbmFleetConfig {
        n_apps: if quick { 8 } else { 40 },
        span_days: 62,
        seed: 1_977,
        max_invocations_per_app: 500,
        rate_scale: 0.005,
    });
    let bursty = azure::generate(&AzureFleetConfig {
        n_apps: if quick { 15 } else { 60 },
        days: 4,
        seed: 0xA2E,
        rate_scale: 0.5,
    })
    .to_trace();
    vec![
        ("ibm-dense-3d", dense),
        ("ibm-sparse-62d", sparse),
        ("azure-bursty-4d", bursty),
    ]
}

struct CaseRecord {
    fleet: &'static str,
    policy: &'static str,
    engine: &'static str,
    apps: usize,
    invocations: u64,
    span_ms: u64,
    wall_ms: f64,
    inv_per_sec: f64,
}

fn run_case(
    fleet: &'static str,
    trace: &Trace,
    policy: &'static str,
    engine: &'static str,
    schema_only: bool,
) -> CaseRecord {
    let cfg = match engine {
        // The overhead case: sample every invocation's lifecycle span
        // (telemetry switches stay off, so this prices exactly the
        // always-on part of the layer — sampling, cause derivation,
        // span recording).
        "event-spans" => SimConfig {
            spans: Some(femux_obs::span::SpanConfig::all(0x5EED)),
            ..SimConfig::default()
        },
        // The cluster-overhead case: finite nodes with memory-pressure
        // eviction live and the node fault domain drawing every tick.
        "event-cluster" => SimConfig {
            cluster: Some(ClusterConfig::uniform(
                16,
                NodeConfig {
                    cpu_milli: u64::MAX,
                    mem_mb: 600,
                },
            )),
            faults: Some(femux_fault::FaultConfig {
                node_crash_rate: 0.01,
                node_recovery_ticks: 2,
                ..femux_fault::FaultConfig::off(0xC1A5)
            }),
            ..SimConfig::default()
        },
        _ => SimConfig::default(),
    };
    let (wall_ms, inv_per_sec) = if schema_only {
        (0.0, 0.0)
    } else {
        let t0 = femux_obs::walltime::monotonic_micros();
        let mut simulated = 0u64;
        for app in &trace.apps {
            let mut p = build_policy(policy);
            let res = simulate_app(app, p.as_mut(), trace.span_ms, &cfg);
            simulated += res.costs.invocations;
        }
        assert_eq!(
            simulated,
            trace.total_invocations(),
            "conservation violated in perf case"
        );
        let secs = femux_obs::walltime::elapsed_secs(t0);
        (secs * 1_000.0, simulated as f64 / secs.max(1e-9))
    };
    CaseRecord {
        fleet,
        policy,
        engine,
        apps: trace.apps.len(),
        invocations: trace.total_invocations(),
        span_ms: trace.span_ms,
        wall_ms,
        inv_per_sec,
    }
}

fn render(cases: &[CaseRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"fleet\": \"{}\", \"policy\": \"{}\", \
             \"engine\": \"{}\", \"apps\": {}, \"invocations\": {}, \
             \"span_ms\": {}, \"wall_ms\": {:.3}, \
             \"inv_per_sec\": {:.0}}}",
            c.fleet,
            c.policy,
            c.engine,
            c.apps,
            c.invocations,
            c.span_ms,
            c.wall_ms,
            c.inv_per_sec,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Validates the committed baseline's shape: schema version, one entry
/// per expected (fleet, policy, engine) case, wall fields present.
fn check(text: &str) -> Result<(), String> {
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("schema marker missing (expected {SCHEMA})"));
    }
    let labels = case_labels();
    for (fleet, policy, engine) in &labels {
        let needle = format!(
            "\"fleet\": \"{fleet}\", \"policy\": \"{policy}\", \
             \"engine\": \"{engine}\"",
        );
        if !text.contains(&needle) {
            return Err(format!("case missing: {needle}"));
        }
    }
    for field in ["\"wall_ms\":", "\"inv_per_sec\":"] {
        let n = text.matches(field).count();
        if n != labels.len() {
            return Err(format!(
                "{field} appears {n} times, expected {}",
                labels.len()
            ));
        }
    }
    Ok(())
}

/// The baseline's `inv_per_sec` for one case, by label lookup.
fn baseline_inv_per_sec(
    text: &str,
    fleet: &str,
    policy: &str,
    engine: &str,
) -> Option<f64> {
    let needle = format!(
        "\"fleet\": \"{fleet}\", \"policy\": \"{policy}\", \
         \"engine\": \"{engine}\"",
    );
    let rest = &text[text.find(&needle)?..];
    let rest = &rest[..rest.find('}')?];
    let pat = "\"inv_per_sec\": ";
    let start = rest.find(pat)? + pat.len();
    let num: String = rest[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// Diffs fresh measurements against the committed baseline. Returns the
/// regressed case labels (fresh below `baseline × (1 − tolerance)`).
fn compare(
    baseline: &str,
    fresh: &[CaseRecord],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();
    println!(
        "{:<16} {:<16} {:<12} {:>14} {:>14} {:>7}",
        "fleet", "policy", "engine", "baseline i/s", "fresh i/s", "ratio"
    );
    for c in fresh {
        let base = baseline_inv_per_sec(
            baseline, c.fleet, c.policy, c.engine,
        )
        .ok_or_else(|| {
            format!(
                "baseline lacks case {}/{}/{} (re-record it?)",
                c.fleet, c.policy, c.engine
            )
        })?;
        let ratio = if base > 0.0 { c.inv_per_sec / base } else { 1.0 };
        println!(
            "{:<16} {:<16} {:<12} {:>14.0} {:>14.0} {:>7.2}",
            c.fleet, c.policy, c.engine, base, c.inv_per_sec, ratio
        );
        if base > 0.0 && c.inv_per_sec < base * (1.0 - tolerance) {
            regressions.push(format!(
                "{}/{}/{}: {:.0} inv/s vs baseline {:.0} \
                 (floor {:.0})",
                c.fleet,
                c.policy,
                c.engine,
                c.inv_per_sec,
                base,
                base * (1.0 - tolerance),
            ));
        }
    }
    Ok(regressions)
}

fn run_all_cases(quick: bool, schema_only: bool) -> Vec<CaseRecord> {
    // Consume each fleet in turn so its trace drops before the next
    // fleet's cases run: the short sparse/azure cases otherwise measure
    // allocator refill against ~10^6 dense-fleet events still resident,
    // which inflates their wall time ~2x.
    let labels = case_labels();
    let mut cases = Vec::new();
    for (fleet, trace) in fleets(quick) {
        for (_, policy, engine) in
            labels.iter().filter(|(f, _, _)| *f == fleet)
        {
            eprintln!("running {fleet} / {policy} / {engine} ...");
            cases.push(run_case(
                fleet,
                &trace,
                policy,
                engine,
                schema_only,
            ));
        }
    }
    cases
}

fn main() {
    let mut quick = false;
    let mut schema_only = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut tolerance = 0.6f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--schema-only" => schema_only = true,
            "--out" => {
                out_path = Some(args.next().expect("--out needs a path"));
            }
            "--check" => {
                check_path =
                    Some(args.next().expect("--check needs a path"));
            }
            "--compare" => {
                compare_path =
                    Some(args.next().expect("--compare needs a path"));
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("--tolerance needs a number in [0, 1)");
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1)
        });
        match check(&text) {
            Ok(()) => {
                println!("{path}: schema {SCHEMA} ok");
                return;
            }
            Err(msg) => {
                eprintln!("{path}: schema drift: {msg}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = compare_path {
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1)
        });
        if let Err(msg) = check(&baseline) {
            eprintln!("{path}: schema drift: {msg}");
            std::process::exit(1);
        }
        let fresh = run_all_cases(quick, false);
        match compare(&baseline, &fresh, tolerance) {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "{path}: all {} cases within tolerance {tolerance}",
                    fresh.len()
                );
                return;
            }
            Ok(regressions) => {
                for r in &regressions {
                    eprintln!("perf regression: {r}");
                }
                std::process::exit(1);
            }
            Err(msg) => {
                eprintln!("{path}: {msg}");
                std::process::exit(1);
            }
        }
    }

    let cases = run_all_cases(quick, schema_only);
    let doc = render(&cases);
    debug_assert!(check(&doc).is_ok(), "self-check must pass");
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &doc) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{doc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_doc(slow: bool) -> String {
        let cases: Vec<CaseRecord> = case_labels()
            .into_iter()
            .map(|(fleet, policy, engine)| CaseRecord {
                fleet,
                policy,
                engine,
                apps: 1,
                invocations: 10,
                span_ms: 1000,
                wall_ms: 1.0,
                inv_per_sec: if slow { 100.0 } else { 1000.0 },
            })
            .collect();
        render(&cases)
    }

    #[test]
    fn self_check_accepts_the_rendered_grid() {
        assert!(check(&fake_doc(false)).is_ok());
    }

    #[test]
    fn check_rejects_a_missing_span_overhead_case() {
        let doc = fake_doc(false).replace("event-spans", "event-gone");
        assert!(check(&doc).unwrap_err().contains("case missing"));
    }

    #[test]
    fn baseline_lookup_finds_each_case_exactly() {
        let doc = fake_doc(false);
        for (fleet, policy, engine) in case_labels() {
            assert_eq!(
                baseline_inv_per_sec(&doc, fleet, policy, engine),
                Some(1000.0)
            );
        }
        assert_eq!(
            baseline_inv_per_sec(&doc, "no-such-fleet", "p", "e"),
            None
        );
    }

    #[test]
    fn compare_flags_only_cases_below_the_tolerance_floor() {
        let baseline = fake_doc(false); // 1000 inv/s everywhere
        let fresh: Vec<CaseRecord> = case_labels()
            .into_iter()
            .map(|(fleet, policy, engine)| CaseRecord {
                fleet,
                policy,
                engine,
                apps: 1,
                invocations: 10,
                span_ms: 1000,
                wall_ms: 1.0,
                // One collapsed case, the rest well inside the band.
                inv_per_sec: if engine == "event-spans" {
                    100.0
                } else {
                    900.0
                },
            })
            .collect();
        let regressions = compare(&baseline, &fresh, 0.6).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("event-spans"));
        assert!(compare(&baseline, &fresh, 0.95).unwrap().is_empty());
    }
}
