//! Records the committed serving-capacity CI smoke
//! (`BENCH_serve.json` at the repository root).
//!
//! Binary-searches the largest synthetic fleet one serving shard (one
//! worker thread ≈ one vCPU) can sustain under a per-tick latency SLO.
//! A tick is one virtual trace minute: every app on the shard ingests
//! its sample, maintains incremental features, forecasts, and emits a
//! pod target. The recorded `max_apps` is a reduced-config smoke, not
//! the paper's apps-per-vCPU figure: the probe serves
//! `FemuxConfig::for_tests()` (120-step blocks, a 60-step history,
//! AR/FFT/SES only), and its p99 rank misses the synchronized
//! block-boundary ticks. It catches collapses in per-tick serving cost.
//! Paper-config capacity — µs per app-tick and the boundary tick under
//! `FemuxConfig::default()` — comes from Fig. 14-Right
//! (`fig14_knative`) and the repository benchmark's `serve-paper`
//! workload.
//!
//! Two cases, `quick` (CI-sized) and `full`, are recorded with
//! identical search logic but different fleet caps and step counts.
//! `--quick` runs (and `--compare`s) only the `quick` case, so the CI
//! gate diffs like against like.
//!
//! Usage: `serve_capacity [--quick] [--schema-only] [--out PATH]
//! [--check PATH] [--compare PATH [--tolerance T]]`
//!
//! - `--quick`: run only the `quick` case.
//! - `--schema-only`: skip the probes and zero the measured fields —
//!   everything left is deterministic, so two runs diff clean.
//! - `--out PATH`: write the document to PATH instead of stdout.
//! - `--check PATH`: validate that the committed baseline carries the
//!   current schema version, both cases, and the measured fields;
//!   exits nonzero on drift without probing anything.
//! - `--compare PATH`: probe fresh and diff `max_apps` against the
//!   baseline, case by case; exits nonzero if any case falls below
//!   `baseline × (1 − tolerance)`. `--tolerance` defaults to 0.6 —
//!   wide, because CI machines differ from the recording machine; the
//!   gate catches collapses, not noise.

use std::fmt::Write as _;
use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_bench::capacity_fleet;
use femux_serve::harness::{run, ServeConfig};

const SCHEMA: &str = "femux-bench-serve/v1";
/// p99 per-tick wall budget in µs. A tick is one virtual minute, so a
/// real deployment's budget would be 60 s; 25 ms (0.04 % of that) keeps
/// the probe honest about steady-state cost rather than scheduler
/// noise.
const SLO_P99_US: u64 = 25_000;

/// Search parameters for one recorded case.
struct Mode {
    name: &'static str,
    /// Largest fleet the search will try.
    cap: usize,
    /// Binary-search resolution in apps.
    granularity: usize,
    /// Virtual minutes served per probe (multiple of the test-config
    /// block length, so every probe crosses block boundaries).
    steps: usize,
}

const MODES: [Mode; 2] = [
    Mode {
        name: "quick",
        cap: 4_096,
        granularity: 64,
        steps: 240,
    },
    Mode {
        name: "full",
        cap: 16_384,
        granularity: 128,
        steps: 360,
    },
];

struct CaseRecord {
    mode: &'static str,
    cap: usize,
    steps: usize,
    slo_p99_us: u64,
    /// Largest fleet that met the SLO (the apps-per-vCPU figure).
    max_apps: usize,
    /// p99 tick latency at `max_apps`, µs.
    p99_us: u64,
    /// Whether the search hit `cap` without violating the SLO.
    capped: bool,
    probes: usize,
}

/// One shared model: the capacity question is about serving cost, not
/// training, so every probe reuses it.
fn model() -> Arc<FemuxModel> {
    let cfg = FemuxConfig::for_tests();
    let apps: Vec<TrainApp> = (0..32)
        .map(|i| TrainApp {
            concurrency: (0..600)
                .map(|t| {
                    2.0 + (t as f64 * (0.07 + i as f64 * 0.03)).sin()
                })
                .collect(),
            exec_secs: 0.5,
            mem_gb: 0.5,
            pod_concurrency: 1,
        })
        .collect();
    Arc::new(
        train(&apps, &cfg, ClassifierKind::KMeans)
            .expect("synthetic training fleet is trainable"),
    )
}

/// Nearest-rank p99 over the shard's per-tick wall latencies.
fn p99_us(ticks: &[u64]) -> u64 {
    assert!(!ticks.is_empty(), "a probe must serve at least one tick");
    let mut sorted = ticks.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as f64 * 0.99).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

/// Serves `n_apps` on a single shard and returns the p99 tick latency.
fn probe(n_apps: usize, steps: usize, model: &Arc<FemuxModel>) -> u64 {
    let trace = capacity_fleet(n_apps, steps);
    let report = run(
        &trace,
        Arc::clone(model),
        &ServeConfig {
            shards: 1,
            measure_latency: true,
            ..ServeConfig::default()
        },
    )
    .expect("synthetic traces are time-sorted");
    p99_us(&report.tick_wall_us[0])
}

/// Doubling search up to the first SLO violation (or the cap), then
/// bisection down to `granularity` apps.
fn run_case(mode: &Mode, schema_only: bool) -> CaseRecord {
    if schema_only {
        return CaseRecord {
            mode: mode.name,
            cap: mode.cap,
            steps: mode.steps,
            slo_p99_us: SLO_P99_US,
            max_apps: 0,
            p99_us: 0,
            capped: false,
            probes: 0,
        };
    }
    let model = model();
    let mut probes = 0;
    let mut good = 0usize;
    let mut good_p99 = 0u64;
    let mut bad = None;
    let mut n = mode.granularity;
    while n <= mode.cap {
        let p99 = probe(n, mode.steps, &model);
        probes += 1;
        eprintln!(
            "{}: {n} apps -> p99 {p99} us ({})",
            mode.name,
            if p99 <= SLO_P99_US { "ok" } else { "over SLO" }
        );
        if p99 <= SLO_P99_US {
            good = n;
            good_p99 = p99;
            n *= 2;
        } else {
            bad = Some(n);
            break;
        }
    }
    if let Some(mut hi) = bad {
        while hi - good > mode.granularity {
            let mid = good + (hi - good) / 2;
            let p99 = probe(mid, mode.steps, &model);
            probes += 1;
            eprintln!(
                "{}: {mid} apps -> p99 {p99} us ({})",
                mode.name,
                if p99 <= SLO_P99_US { "ok" } else { "over SLO" }
            );
            if p99 <= SLO_P99_US {
                good = mid;
                good_p99 = p99;
            } else {
                hi = mid;
            }
        }
    }
    CaseRecord {
        mode: mode.name,
        cap: mode.cap,
        steps: mode.steps,
        slo_p99_us: SLO_P99_US,
        max_apps: good,
        p99_us: good_p99,
        capped: bad.is_none() && good > 0,
        probes,
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
            "\n    {{\"mode\": \"{}\", \"cap\": {}, \"steps\": {}, \
             \"slo_p99_us\": {}, \"max_apps\": {}, \"p99_us\": {}, \
             \"capped\": {}, \"probes\": {}}}",
            c.mode,
            c.cap,
            c.steps,
            c.slo_p99_us,
            c.max_apps,
            c.p99_us,
            c.capped,
            c.probes,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Validates the committed baseline's shape: schema version, both
/// cases, and the measured fields.
fn check(text: &str) -> Result<(), String> {
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("schema marker missing (expected {SCHEMA})"));
    }
    for mode in &MODES {
        let needle = format!("\"mode\": \"{}\"", mode.name);
        if !text.contains(&needle) {
            return Err(format!("case missing: {needle}"));
        }
    }
    for field in ["\"max_apps\":", "\"p99_us\":", "\"slo_p99_us\":"] {
        let n = text.matches(field).count();
        if n != MODES.len() {
            return Err(format!(
                "{field} appears {n} times, expected {}",
                MODES.len()
            ));
        }
    }
    Ok(())
}

/// The baseline's `max_apps` for one case, by mode lookup.
fn baseline_max_apps(text: &str, mode: &str) -> Option<usize> {
    let needle = format!("\"mode\": \"{mode}\"");
    let rest = &text[text.find(&needle)?..];
    let rest = &rest[..rest.find('}')?];
    let pat = "\"max_apps\": ";
    let start = rest.find(pat)? + pat.len();
    let num: String = rest[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    num.parse().ok()
}

/// Diffs fresh capacities against the committed baseline. Returns the
/// regressed case labels (fresh below `baseline × (1 − tolerance)`).
fn compare(
    baseline: &str,
    fresh: &[CaseRecord],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();
    println!(
        "{:<8} {:>14} {:>12} {:>7}",
        "mode", "baseline apps", "fresh apps", "ratio"
    );
    for c in fresh {
        let base = baseline_max_apps(baseline, c.mode).ok_or_else(
            || {
                format!(
                    "baseline lacks case {} (re-record it?)",
                    c.mode
                )
            },
        )?;
        let ratio = if base > 0 {
            c.max_apps as f64 / base as f64
        } else {
            1.0
        };
        println!(
            "{:<8} {:>14} {:>12} {:>7.2}",
            c.mode, base, c.max_apps, ratio
        );
        let floor = (base as f64 * (1.0 - tolerance)) as usize;
        if base > 0 && c.max_apps < floor {
            regressions.push(format!(
                "{}: {} apps vs baseline {} (floor {})",
                c.mode, c.max_apps, base, floor,
            ));
        }
    }
    Ok(regressions)
}

fn run_all_cases(quick: bool, schema_only: bool) -> Vec<CaseRecord> {
    MODES
        .iter()
        .filter(|m| !quick || m.name == "quick")
        .map(|m| run_case(m, schema_only))
        .collect()
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
                    eprintln!("capacity regression: {r}");
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
    if !quick {
        debug_assert!(check(&doc).is_ok(), "self-check must pass");
    }
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

    fn fake_doc(apps: usize) -> String {
        let cases: Vec<CaseRecord> = MODES
            .iter()
            .map(|m| CaseRecord {
                mode: m.name,
                cap: m.cap,
                steps: m.steps,
                slo_p99_us: SLO_P99_US,
                max_apps: apps,
                p99_us: 1_000,
                capped: false,
                probes: 7,
            })
            .collect();
        render(&cases)
    }

    #[test]
    fn self_check_accepts_the_rendered_doc() {
        assert!(check(&fake_doc(1_024)).is_ok());
    }

    #[test]
    fn check_rejects_a_missing_case() {
        let doc = fake_doc(1_024)
            .replace("\"mode\": \"full\"", "\"mode\": \"gone\"");
        assert!(check(&doc).unwrap_err().contains("case missing"));
    }

    #[test]
    fn baseline_lookup_finds_each_case() {
        let doc = fake_doc(1_024);
        for mode in &MODES {
            assert_eq!(baseline_max_apps(&doc, mode.name), Some(1_024));
        }
        assert_eq!(baseline_max_apps(&doc, "no-such-mode"), None);
    }

    #[test]
    fn compare_flags_only_cases_below_the_tolerance_floor() {
        let baseline = fake_doc(1_000);
        let fresh: Vec<CaseRecord> = MODES
            .iter()
            .map(|m| CaseRecord {
                mode: m.name,
                cap: m.cap,
                steps: m.steps,
                slo_p99_us: SLO_P99_US,
                // quick collapses, full stays inside the band.
                max_apps: if m.name == "quick" { 100 } else { 900 },
                p99_us: 1_000,
                capped: false,
                probes: 7,
            })
            .collect();
        let regressions = compare(&baseline, &fresh, 0.6).unwrap();
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("quick"));
        assert!(compare(&baseline, &fresh, 0.95).unwrap().is_empty());
    }

    #[test]
    fn p99_is_nearest_rank() {
        let ticks: Vec<u64> = (1..=100).collect();
        assert_eq!(p99_us(&ticks), 99);
        assert_eq!(p99_us(&[5]), 5);
    }
}
